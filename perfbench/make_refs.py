"""Generate the reference tables chi_n(s_lam) that the benchmark checks against.

    python3 perfbench/make_refs.py                 # every (n, D) in use
    python3 perfbench/make_refs.py --grid 5,8      # one table file

Each table is produced once, by an evaluator other than the one a workload
times, and confirmed by at least one more:

- s_() (f = 1): the partition-function product, confirmed by the three-way
  cross-check for n <= 3 and by localization for larger n;
- n <= 3: the three-way cross-check (theorem, localization, constant-term
  must agree, with symmetry and nonnegativity);
- n > 3: the theorem evaluator, confirmed by localization.

On any disagreement nothing is written and the script exits with code 1.
A file holds every s_lam with |lam| <= 3 for one (n, D).
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hilbeuler.euler import (cross_check, euler_localization,  # noqa: E402
                             euler_theorem, partition_function)
from hilbeuler.symfunc import SymFunc  # noqa: E402

import workloads  # noqa: E402


class Disagreement(Exception):
    pass


def _agree(results):
    names = list(results)
    base = results[names[0]]
    for other in names[1:]:
        if results[other] != base:
            raise Disagreement("%s and %s disagree" % (names[0], other))
    return base


def reference(lam, n, d):
    """(evaluator, confirming evaluators, BiSeries) for chi_n(s_lam)."""
    f = SymFunc.element("s", lam) if lam else SymFunc.one()
    if n <= 3:
        report = cross_check(f, n, d)
        if not report.passed:
            raise Disagreement("cross-check failed: %r" % (report.mismatches,))
        series = report.results["theorem"].series
        checks = ["cross_check(theorem,localization,constant-term)"]
    else:
        series = _agree({"theorem": euler_theorem(f, n, d).series,
                         "localization": euler_localization(f, n, d).series})
        checks = ["localization"]
    if not lam:
        _agree({"partition_function": partition_function(n, d)[n],
                "evaluators": series})
        return "partition_function", checks, series
    return ("cross_check" if n <= 3 else "theorem"), checks, series


def build(n, d):
    tables = {}
    for lam in workloads.SCHUR:
        t0 = time.monotonic()
        evaluator, checks, series = reference(lam, n, d)
        tables[workloads.lam_key(lam)] = {
            "evaluator": evaluator,
            "checked_against": checks,
            "coefficients": [[a, b, str(series.coeff(a, b))]
                             for a in range(d + 1) for b in range(d + 1)],
        }
        sys.stderr.write("n=%d D=%d s[%s]: %s, %.1fs\n"
                         % (n, d, workloads.lam_key(lam), evaluator,
                            time.monotonic() - t0))
    return {"n": n, "max_deg": d, "tables": tables}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--grid", action="append", default=[],
                    help="n,D to generate (repeatable; default: all in use)")
    args = ap.parse_args(argv)
    grids = [tuple(int(x) for x in g.split(",")) for g in args.grid] \
        or workloads.grids()
    os.makedirs(workloads.REFS, exist_ok=True)
    for n, d in grids:
        try:
            doc = build(n, d)
        except Disagreement as exc:
            sys.stderr.write("error: n=%d D=%d: %s; nothing written\n"
                             % (n, d, exc))
            return 1
        with open(workloads.ref_path(n, d), "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
