"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10

Runs perfbench/run.py once per seed (1..runs) on each workload, one run at
a time, and prints per workload and metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median. A metric is
steady when its spread stays below a third of its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for name in [w["name"] for w in bench["workloads"]]:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(proc.stderr)
                return 1
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            sys.stderr.write("%s seed %d: %s\n" % (name, seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())))
        out[name] = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            out[name][metric] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": bounds[metric],
                "runs": len(vals)}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
