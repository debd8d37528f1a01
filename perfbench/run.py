"""The hilbeuler benchmark: seeded `chi` sweeps, checked exactly.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each sweep is one fresh child
interpreter (child.py) that runs the workload's cases in order, so the lru
caches start cold. A run first spawns SETUP_SPAWNS children that only import
the program, then runs sweeps one at a time until --seconds would be
exceeded (at least one). With --trace 1 it runs just one untraced and one
traced sweep. Every case's coefficient table is checked exactly against
the reference tables in refs/.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics -- end-to-end ones without tracing, per-layer ones with it. The
exit code is 2, with no result printed, when the program's source, its
references or its guards are not as the benchmark needs, or when a child
is still running --seconds + DEADLINE_MARGIN_S seconds after the run
started.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

import workloads  # noqa: E402

SETUP_SPAWNS = 15
#: a run never lets a child outlive --seconds plus this many seconds after
#: the run starts; a child still running then ends the run with exit code 2
DEADLINE_MARGIN_S = 140.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def load_program():
    """Guards of the program under src/, which must be the one imported."""
    if not os.path.isfile(os.path.join(SRC, "hilbeuler", "__init__.py")):
        raise BenchError("no program source at %s" % SRC)
    sys.path.insert(0, SRC)
    import hilbeuler.euler
    import hilbeuler.symfunc
    where = os.path.dirname(os.path.abspath(hilbeuler.__file__))
    if where != os.path.join(SRC, "hilbeuler"):
        raise BenchError("imported hilbeuler from %s, not %s" % (where, SRC))
    return (hilbeuler.symfunc.DEGREE_BOUND, hilbeuler.euler.MAX_N,
            hilbeuler.euler.MAX_N_CONSTANT_TERM)


def spawn(args, stdin_text, deadline):
    """Run child.py; returns (seconds from spawn to import done, report)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(stdin_text,
                                    timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child ran past the run's deadline")
    if proc.returncode != 0:
        raise BenchError("child exited with %d: %s"
                         % (proc.returncode, err.strip()[-2000:]))
    report = json.loads(out.strip().splitlines()[-1])
    return report["import_done"] - t_spawn, report


def sweep(cases, refs, deadline, spans=None):
    """One child running every case; returns (setup_s, report, failures)."""
    args = ["--spans", spans] if spans else []
    setup, report = spawn(args, json.dumps(cases), deadline)
    failures = []
    by_id = {r["id"]: r for r in report["results"]}
    for case in cases:
        r = by_id[case["id"]]
        why = workloads.check_output(case, r["rc"], r["stdout"], refs)
        if why:
            failures.append("case %d (%s): %s %s" % (
                case["id"], case["f"], why, r["stderr"].strip()[-300:]))
    return setup, report, failures


def run(workload, seed, seconds, trace, refs_dir=workloads.REFS):
    deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
    guards = load_program()
    cases = workloads.make_cases(workload, seed)
    workloads.check_guards(cases, *guards)
    for case in cases:
        case["argv"] = workloads.argv(case)
    refs = workloads.load_refs(cases, refs_dir)

    failures = []
    attempted = 0

    def one(spans=None):
        nonlocal attempted
        setup, report, failed = sweep(cases, refs, deadline, spans)
        attempted += len(cases)
        failures.extend(failed)
        return setup, report

    if trace:
        _, plain = one()
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, "spans-%s-%d.json" % (workload, seed))
        _, traced = one(spans)
        layers = traced["layers"]
        layers["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(layers.items())}
    else:
        setups = [spawn(["--import-only"], "", deadline)[0]
                  for _ in range(SETUP_SPAWNS)]
        walls, rss = [], []
        t_sweeps = time.monotonic()
        while True:
            t0 = time.monotonic()
            setup, report = one()
            setups.append(setup)
            walls.append(report["wall_s"])
            rss.append(report["peak_rss_mb"])
            now = time.monotonic()
            if now - t_sweeps + (now - t0) > seconds:
                break
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(rss)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}, failures


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_yield", ".overhead")):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, failures = run(args.workload, args.seed, args.seconds,
                                       args.trace)
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    for line in failures:
        sys.stderr.write("FAIL %s\n" % line)
    summary = ["%s=%.6g %s" % (k, m["value"], m["unit"])
               for k, m in result["metrics"].items()
               if not args.trace or k == "trace.overhead"]
    print("%s seed=%d: %s fail_share=%d/%d=%.3g"
          % (args.workload, args.seed, " ".join(summary),
             result["failed"], result["attempted"],
             result["failed"] / result["attempted"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
