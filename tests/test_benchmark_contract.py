"""The benchmark's own tools (perfbench/workloads.py and
perfbench/make_refs.py) call the program by name and check its output
against the tables in perfbench/refs/. This file only reads them: a change
that would make the benchmark refuse a case, or find its output
incorrect, fails here first."""

import os
import sys

import pytest

from hilbeuler import cli, euler
from hilbeuler.euler import euler_theorem, partition_function
from hilbeuler.symfunc import DEGREE_BOUND, SymFunc

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load():
    saved = list(sys.path)
    sys.path.insert(0, PERFBENCH)
    try:
        import make_refs
        import workloads
    finally:
        sys.path[:] = saved
    return make_refs, workloads


make_refs, workloads = _load()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_one_cases_pass_the_guards_and_match_the_references(capsys,
                                                                 name):
    cases = workloads.make_cases(name, 1)
    workloads.check_guards(cases, DEGREE_BOUND, euler.MAX_N,
                           euler.MAX_N_CONSTANT_TERM)
    refs = workloads.load_refs(cases)
    for case in cases:
        rc = cli.main(workloads.argv(case))
        out = capsys.readouterr().out
        assert workloads.check_output(case, rc, out, refs) is None, case


def test_make_refs_reads_the_cross_check_report():
    evaluator, _, series = make_refs.reference((2, 1), 2, 3)
    assert evaluator == "cross_check"
    assert series == euler_theorem(SymFunc.element("s", (2, 1)), 2, 3).series
    evaluator, _, series = make_refs.reference((), 4, 3)
    assert evaluator == "partition_function"
    assert series == partition_function(4, 3)[4]
