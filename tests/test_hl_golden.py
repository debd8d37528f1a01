"""`hl` and `verify cauchy` output replayed byte for byte against a recorded
table.

tests/data/hl_golden.json holds the stdout, stderr and exit code of every
case in GRID: `hl poly` in m and in p for every partition of size at most 6
and for (4, 4, 4), a few `hl jing` calls, and `verify cauchy` up to size 6.
Regenerate it only from a commit whose output is known to be right:

    PYTHONPATH=src python tests/test_hl_golden.py > tests/data/hl_golden.json
"""

import contextlib
import io
import json
import os
import sys

from hilbeuler.cli import main
from hilbeuler.partitions import partitions_up_to

JING = [("2", "P[2,1]"), ("0", "1"), ("1", "1"), ("3", "s[2,1]"),
        ("2", "P[2]-Q[1,1]"), ("1", "p[2]+2*p[1,1]"), ("-1", "p[3]"),
        ("4", "Q[3,1]")]
GRID = ([("hl", "poly", "--lambda", ",".join(map(str, lam)), "--basis", b)
         for lam in [*partitions_up_to(6), (4, 4, 4)] for b in ("m", "p")]
        + [("hl", "jing", "--k", k, "--apply", f) for k, f in JING]
        + [("verify", "cauchy", "--max-size", "6")])

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "hl_golden.json")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_hl_stdout_matches_golden_file():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert [g["argv"] for g in golden] == [list(a) for a in GRID]
    for want in golden:
        assert _run(want["argv"]) == want, want["argv"]


if __name__ == "__main__":
    json.dump([_run(argv) for argv in GRID], sys.stdout, indent=1)
    sys.stdout.write("\n")
