import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"


def test_digest_run_list_completes():
    # every run of the byte gate's list succeeds and the list ends in its ALL
    # digest; the digest's value depends on numpy's generator and sort, so it
    # is not pinned here
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"[0-9a-f]{64}  ALL", done.stdout.splitlines()[-1])
