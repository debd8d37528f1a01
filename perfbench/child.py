"""One benchmark sweep in a fresh interpreter.

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py [--spans PATH] < cases.json

The first form only imports the program and reports when that was done.
The second also reads a JSON list of cases on stdin and runs each through
`hilbeuler.cli.main([...])` in order, single-threaded, capturing its
stdout. With --spans it traces every layer (see tracer.py) and writes the
spans to PATH. Either way the last stdout line is one JSON object.

Only `sys`, `os` and `time` are imported before the program, so the
reported import time is the program's own set-up cost.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
import hilbeuler.cli  # noqa: E402

IMPORT_DONE = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def run_case(main, case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(case["argv"])
        except Exception as exc:  # a crash is a failed case, not a crash here
            rc = None
            err.write("%s: %s" % (type(exc).__name__, exc))
    return {"id": case["id"], "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main(argv):
    report = {"import_done": IMPORT_DONE}
    if argv == ["--import-only"]:
        print(json.dumps(report))
        return 0
    spans = argv[1] if argv[:1] == ["--spans"] else None
    cases = json.load(sys.stdin)
    entry = hilbeuler.cli.main
    if spans:
        import tracer
        tr = tracer.Tracer()
        uninstall = tracer.install(tr)
        entry = tr.wrap("cli.main", entry)
    results = []
    t0 = time.perf_counter()
    for case in cases:
        if spans:
            tr.case, tr.n = case["id"], case["n"]
        results.append(run_case(entry, case))
    wall = time.perf_counter() - t0
    report.update(wall_s=wall, results=results,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if spans:
        caches = uninstall()
        report["layers"] = tracer.metrics(tr, caches, wall)
        tr.dump(spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
