"""Count the physical and the code lines of every module under src/crashvol/.

Usage: python scripts/src_lines.py [DIR]

For each `*.py` file of DIR (default: `src/crashvol` next to this script),
in name order, prints `<lines> <code> <file>`, then the same for all files
as `<lines> <code> total`. `lines` counts newline characters, as
`cat DIR/*.py | wc -l` does. `code` counts the lines that carry a token
other than a comment or a line end, leaving out the docstrings of the
module, its classes and its functions: a blank line, a comment-only line
and a docstring line are not code, while every line of any other string,
and every line of a statement continued over several lines, is.
Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines spanned by the docstrings of the module, classes and functions."""
    lines: set[int] = set()
    nodes = (tree, *(n for n in ast.walk(tree) if isinstance(
        n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))))
    for node in nodes:
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src" / "crashvol"
    total = [0, 0]
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total[0] += lines
        total[1] += code
        print(f"{lines} {code} {path.name}")
    print(f"{total[0]} {total[1]} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
