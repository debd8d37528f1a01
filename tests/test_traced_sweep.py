"""The benchmark's per-layer tracer (perfbench/tracer.py) must still see the
evaluators do their work. Each workload's seed-1 sweep runs through
`cli.main` with the tracer installed, from cold evaluator caches, and the
count that shows its evaluator's work must be positive. Tracing must not
change stdout. This file only reads perfbench/."""

import os
import sys

import pytest

from hilbeuler import cli, euler

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

#: the traced count that each workload's evaluator makes
WORK = {"theorem": "euler.theorem_terms",
        "localization": "euler.fixed_points",
        "constant-term": "euler.delta_kernel_entries"}


def _load():
    saved, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode = True
    try:
        import tracer
        import workloads
    finally:
        sys.path[:] = saved
        sys.dont_write_bytecode = dont_write
    return tracer, workloads


tracer, workloads = _load()


def _clear_caches():
    euler._TABLES.clear()
    euler._FIXED.clear()
    euler._BUILDS.clear()
    euler._delta_kernel.cache_clear()


def _sweep(capsys, cases, tr=None):
    out = []
    for case in cases:
        if tr is not None:
            tr.case, tr.n = case["id"], case["n"]
        assert cli.main(workloads.argv(case)) == 0, case
        out.append(capsys.readouterr().out)
    return out


@pytest.mark.parametrize("name", sorted(WORK))
def test_the_tracer_counts_each_evaluators_work(capsys, name):
    cases = workloads.make_cases(name, 1)
    _clear_caches()
    plain = _sweep(capsys, cases)
    _clear_caches()
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        traced = _sweep(capsys, cases, tr)
    finally:
        caches = uninstall()
    assert traced == plain
    assert tracer.metrics(tr, caches, 1.0)[WORK[name]] > 0
