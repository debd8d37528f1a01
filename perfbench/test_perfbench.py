"""Tests of the benchmark itself (not of the program).

    python3 -m pytest -q perfbench/test_perfbench.py

They run small cases through the same child process the benchmark uses,
in about half a minute.
"""

import json
import os
import shutil
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

GUARDS = run.load_program()
TINY = [("theorem", 2, 5, (2, 1, 0))]
# small sweeps per method for the traced-count test: (shapes, counts that
# must be nonzero, counts that must be 0)
TRACED = {
    "theorem": (TINY, ["ratfunc.normalize_calls",
                       "hall_littlewood.expand_in_P_calls",
                       "euler.theorem_terms"], []),
    "localization": ([("localization", 2, 5, (2, 1, 0))],
                     ["ratfunc.normalize_calls", "euler.fixed_points",
                      "euler.wedge_mul_calls"],
                     ["hall_littlewood.expand_in_P_calls"]),
    "constant-term": ([("constant-term", 2, 5, (2, 1, 0)),
                       ("constant-term", 2, 5, (2, 1))],
                      ["series.mul_calls", "series.mul_term_products",
                       "euler.delta_kernel_builds", "euler.delta_kernel_hits"],
                      ["hall_littlewood.expand_in_P_calls"]),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    return "tiny"


def test_same_seed_same_inputs_other_seed_other_f():
    for name in workloads.WORKLOADS:
        a = json.dumps(workloads.make_cases(name, 7))
        assert a == json.dumps(workloads.make_cases(name, 7))
        other = workloads.make_cases(name, 8)
        assert [c["f"] for c in workloads.make_cases(name, 7)] != \
            [c["f"] for c in other]


def test_shapes_do_not_depend_on_the_seed():
    for name in workloads.WORKLOADS:
        for seed in range(20):
            for case, shape in zip(workloads.make_cases(name, seed),
                                   workloads.WORKLOADS[name]):
                degrees = {sum(lam) for lam, _ in case["terms"]}
                assert (case["method"], case["n"], case["max_deg"]) == \
                    shape[:3]
                assert degrees == set(shape[3])


def test_every_generated_case_passes_the_guards():
    for name in workloads.WORKLOADS:
        for seed in range(50):
            workloads.check_guards(workloads.make_cases(name, seed), *GUARDS)


def test_guards_are_checked_before_any_child_starts(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "bad",
                        [("constant-term", 4, 6, (1,))])

    def no_spawn(*args, **kwargs):
        raise AssertionError("a child was started")

    monkeypatch.setattr(run, "spawn", no_spawn)
    with pytest.raises(ValueError, match="guard"):
        run.run("bad", 1, 1, 0)
    monkeypatch.setitem(workloads.WORKLOADS, "bad",
                        [("theorem", 2, 10, (3,))])
    with pytest.raises(ValueError, match="DEGREE_BOUND"):
        run.run("bad", 1, 1, 0)


def test_references_cover_every_grid_and_schur_function():
    for n, d in workloads.grids():
        with open(workloads.ref_path(n, d)) as fh:
            doc = json.load(fh)
        assert sorted(doc["tables"]) == \
            sorted(workloads.lam_key(lam) for lam in workloads.SCHUR)
        for table in doc["tables"].values():
            assert table["evaluator"] and table["checked_against"]
            assert len(table["coefficients"]) == (d + 1) ** 2


def test_a_changed_reference_coefficient_fails_the_case(tiny, tmp_path):
    result, failures = run.run(tiny, 1, 0, 0)
    assert result["correct"] and result["failed"] == 0

    shutil.copy(workloads.ref_path(2, 5), tmp_path)
    path = workloads.ref_path(2, 5, str(tmp_path))
    with open(path) as fh:
        doc = json.load(fh)
    entry = doc["tables"]["1"]["coefficients"][7]
    entry[2] = str(int(entry[2]) + 1)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    result, failures = run.run(tiny, 1, 0, 0, refs_dir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "coefficients differ" in failures[0]


def test_two_traced_runs_give_identical_counts(monkeypatch, tmp_path):
    for method, (shapes, nonzero, zero) in TRACED.items():
        monkeypatch.setitem(workloads.WORKLOADS, "tiny", shapes)
        cases = workloads.make_cases("tiny", 3)
        for case in cases:
            case["argv"] = workloads.argv(case)
        refs = workloads.load_refs(cases)
        counts = []
        for i in range(2):
            spans = str(tmp_path / ("%s%d.json" % (method, i)))
            _, report, failures = run.sweep(cases, refs,
                                            time.monotonic() + 120, spans)
            assert not failures
            counts.append({k: v for k, v in report["layers"].items()
                           if run.unit_of(k) == "count"})
        assert counts[0] == counts[1], method
        for metric in nonzero:
            assert counts[0][metric] > 0, (method, metric)
        for metric in zero:
            assert counts[0][metric] == 0, (method, metric)
        with open(tmp_path / ("%s0.json" % method)) as fh:
            spans = json.load(fh)["spans"]
        assert {"cli.main", "euler." + method.replace("-", "_")} <= \
            {s["name"] for s in spans}
        assert {s["case"] for s in spans} == set(range(len(cases)))
        assert all(s["end"] >= s["start"] for s in spans)
