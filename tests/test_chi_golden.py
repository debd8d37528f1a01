"""`chi` stdout replayed byte for byte against a recorded table.

tests/data/chi_golden.json holds the stdout and exit code of `chi` for
every case in GRID. Regenerate it only from a commit whose output is known
to be right:

    PYTHONPATH=src python tests/test_chi_golden.py > tests/data/chi_golden.json
"""

import contextlib
import io
import json
import os
import sys

from hilbeuler.cli import main

EXPRESSIONS = ("s[2,1]", "P[2,1]+2*Q[1]", "p[2]-s[1,1]")
GRID = [("chi", "--f", f, "--n", str(n), "--max-deg", str(d),
         "--method", method, "--format", fmt)
        for f in EXPRESSIONS for n in (1, 2, 3) for d in (0, 3)
        for method in ("theorem", "localization", "constant-term", "all")
        for fmt in ("json", "csv", "pretty")]

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "chi_golden.json")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def test_chi_stdout_matches_golden_file():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert [g["argv"] for g in golden] == [list(a) for a in GRID]
    for want in golden:
        assert _run(want["argv"]) == want, want["argv"]


if __name__ == "__main__":
    json.dump([_run(argv) for argv in GRID], sys.stdout, indent=1)
    sys.stdout.write("\n")
