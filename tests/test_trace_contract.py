"""The benchmark's per-layer tracer (perfbench/tracer.py) wraps functions
and methods of the package by name, reading each one through
`owner.__dict__[attr]`. A refactor that deletes or renames a traced name
must fail here, and installing and removing the tracer must leave every
attribute as it was."""

import os
import sys

from hilbeuler import (cli, euler, hall_littlewood, ratfunc, series, symfunc,
                       xlaurent)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

OWNERS = (cli, euler, hall_littlewood, ratfunc, series, symfunc, xlaurent,
          ratfunc.RationalFunction1, series.BiSeries, euler.WedgeSeries,
          xlaurent.XLaurent)


def _load_tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return tracer


def test_tracer_patches_existing_names_and_restores_them():
    tracer = _load_tracer()
    before = [(owner, dict(vars(owner))) for owner in OWNERS]
    try:
        uninstall = tracer.install(tracer.Tracer())
        try:
            patched = {(owner, attr) for owner, attrs in before
                       for attr, orig in attrs.items()
                       if vars(owner)[attr] is not orig}
            for owner, attrs in before:
                assert set(vars(owner)) == set(attrs)
        finally:
            uninstall()
        assert {(series.BiSeries, "__radd__"), (xlaurent.XLaurent, "__mul__"),
                (euler, "expand_in_P"), (euler, "_delta_kernel"),
                (euler, "euler_theorem"), (ratfunc, "pgcd")} <= patched
        for owner, attrs in before:
            assert set(vars(owner)) == set(attrs)
            for attr, orig in attrs.items():
                assert vars(owner)[attr] is orig, (owner, attr)
    finally:
        # a failed install leaves no wrapper behind for the other tests
        for owner, attrs in before:
            for attr, orig in attrs.items():
                if vars(owner).get(attr) is not orig:
                    setattr(owner, attr, orig)
