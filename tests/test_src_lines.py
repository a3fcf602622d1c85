import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

# line by line: code (1) or not (0)
MODULE = [
    ('"""A module docstring', 0),
    ('over two lines."""', 0),
    ("", 0),
    ("import math  # a trailing comment keeps the line code", 1),
    ("# a comment-only line", 0),
    ("", 0),
    ("TEXT = '''a multi-line string", 1),
    ("that is not a docstring", 1),
    ("'''", 1),
    ("", 0),
    ("", 0),
    ("class Box:", 1),
    ('    """A class docstring."""', 0),
    ("", 0),
    ("    def size(self, x):", 1),
    ("        '''A function", 0),
    ("        docstring.'''", 0),
    ("        total = (x", 1),
    ("                 + math.pi)  # continued", 1),
    ("        return total \\", 1),
    ("            * 2", 1),
    ("", 0),
    ("    x = 'a string statement after the first is not a docstring'", 1),
]


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_physical_and_code_lines(tmp_path):
    text = "\n".join(line for line, _ in MODULE) + "\n"
    want = (len(MODULE), sum(code for _, code in MODULE))
    assert _load().count(text) == want == (23, 11)
    (tmp_path / "a.py").write_text(text, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    assert out == "23 11 a.py\n3 1 b.py\n26 12 total\n"
