import random
from fractions import Fraction

import pytest

from hilbeuler.partitions import partitions_of, partitions_up_to, zee
from hilbeuler.ratfunc import RF1, RationalFunction1
from hilbeuler.symfunc import (DEGREE_BOUND, DegreeBoundError, SymFunc,
                               convert, hl_inner, multiply, schur_positive,
                               to_finite_vars, to_p)
from symfunc_helpers import (hall_inner, hl_inner_by_terms, parse_symfunc,
                             principal_spec)

CLASSICAL = ("p", "m", "h", "e", "s")


def test_round_trips_all_basis_pairs():
    for d in range(7):
        for lam in partitions_of(d):
            for b1 in CLASSICAL:
                f = SymFunc.element(b1, lam)
                for b2 in CLASSICAL:
                    assert convert(convert(f, b2), b1) == f, (b1, b2, lam)


def test_round_trips_hall_littlewood_bases():
    for lam in partitions_up_to(4):
        for b in ("P", "Q"):
            f = SymFunc.element(b, lam)
            for b2 in ("p", "m", "s"):
                back = convert(convert(f, b2), b)
                assert to_p(back) == to_p(f), (b, b2, lam)


def test_classical_expansions():
    # p1 = m1 = h1 = e1 = s1
    one_part = (1,)
    p1 = SymFunc.element("p", one_part)
    for b in ("m", "h", "e", "s"):
        assert to_p(SymFunc.element(b, one_part)) == p1
    # h2 = (p2 + p1^2)/2, e2 = (p1^2 - p2)/2
    h2 = to_p(SymFunc.element("h", (2,)))
    assert h2.c[(2,)] == RationalFunction1.const(Fraction(1, 2))
    assert h2.c[(1, 1)] == RationalFunction1.const(Fraction(1, 2))
    e2 = to_p(SymFunc.element("e", (2,)))
    assert e2.c[(2,)] == RationalFunction1.const(Fraction(-1, 2))
    # s_{1^k} = e_k, s_{(k)} = h_k
    for k in range(1, 6):
        assert to_p(SymFunc.element("s", (1,) * k)) == \
            to_p(SymFunc.element("e", (k,)))
        assert to_p(SymFunc.element("s", (k,))) == \
            to_p(SymFunc.element("h", (k,)))


def test_multiply():
    p1 = SymFunc.element("p", (1,))
    assert multiply(p1, p1) == SymFunc.element("p", (1, 1))
    # e1*e1 = e2 + ... check via m: m1*m1 = m2 + 2 m11
    m1 = SymFunc.element("m", (1,))
    prod = convert(multiply(m1, m1), "m")
    assert prod.c[(2,)] == RF1
    assert prod.c[(1, 1)] == RationalFunction1.const(2)


def test_degree_bound_is_hard_error():
    big = SymFunc.element("p", (DEGREE_BOUND,))
    with pytest.raises(DegreeBoundError):
        multiply(big, SymFunc.element("p", (1,)))
    with pytest.raises(DegreeBoundError):
        convert(SymFunc.element("m", (DEGREE_BOUND + 1,)), "p")


def test_hl_inner():
    p1 = SymFunc.element("p", (1,))
    p2 = SymFunc.element("p", (2,))
    one_minus_z = RationalFunction1((1, -1))
    assert hl_inner(p1, p1) == RF1 / one_minus_z
    assert hl_inner(p2, multiply(p1, p1)) == RationalFunction1.const(0)
    assert hl_inner(p2, p2) == RationalFunction1.const(2) / \
        RationalFunction1((1, 0, -1))


def test_hl_inner_equals_the_term_by_term_sum():
    for d in range(6):
        atoms = [SymFunc.element(b, lam) for b in ("s", "P", "Q")
                 for lam in partitions_of(d)]
        for f in atoms:
            for g in atoms:
                assert hl_inner(f, g) == hl_inner_by_terms(f, g), (f, g)
    for f, g in ((SymFunc.element("e", (8,)), SymFunc.element("s", (8,))),
                 (parse_symfunc("P[2,1]+s[1]+2"),
                  parse_symfunc("Q[2,1]-p[1]+s[3]+1"))):
        assert hl_inner(f, g) == hl_inner_by_terms(f, g), (f, g)


def test_dual_bases_at_z0():
    for d in range(6):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                want = 1 if lam == mu else 0
                assert hall_inner(SymFunc.element("h", lam),
                                  SymFunc.element("m", mu)) == want
                assert hall_inner(SymFunc.element("s", lam),
                                  SymFunc.element("s", mu)) == want


def test_hall_inner_p_norms():
    for lam in partitions_up_to(5):
        f = SymFunc.element("p", lam)
        assert hall_inner(f, f) == zee(lam)


def test_to_finite_vars():
    # p2 in 2 variables: x1^2 + x2^2
    x = to_finite_vars(SymFunc.element("p", (2,)), 2)
    assert x.coeff((2, 0)) == RF1 and x.coeff((0, 2)) == RF1
    # e2 = x1 x2
    x = to_finite_vars(SymFunc.element("e", (2,)), 2)
    assert dict(x.c) == {(1, 1): RF1}
    # inverted alphabet
    x = to_finite_vars(SymFunc.element("p", (1,)), 2, inverted=True)
    assert x.coeff((-1, 0)) == RF1 and x.coeff((0, -1)) == RF1


def test_principal_spec():
    # h_r(1,t,t^2,...) = 1/((1-t)...(1-t^r))
    order = 10
    for r in range(1, 5):
        got = principal_spec(SymFunc.element("h", (r,)), order)
        want = RF1
        for j in range(1, r + 1):
            want = want / (RF1 - RationalFunction1.z_power(j))
        assert got == want.expand(order)
    # e2(1,t,t^2,...) = t/((1-t)(1-t^2))
    got = principal_spec(SymFunc.element("e", (2,)), order)
    want = (RationalFunction1.z_power(1)
            / (RF1 - RationalFunction1.z_power(1))
            / (RF1 - RationalFunction1.z_power(2)))
    assert got == want.expand(order)


def test_schur_positive():
    assert schur_positive(SymFunc.element("s", (2, 1)))
    assert schur_positive(SymFunc.element("h", (2, 2)))
    assert schur_positive(SymFunc.one("s"))
    assert not schur_positive(SymFunc.element("p", (2,)))
    assert not schur_positive(-SymFunc.element("s", (1,)))
    # a fraction, a coefficient in z, and a degree past the bound
    assert not schur_positive(SymFunc("s", {(1,): Fraction(1, 2)}))
    assert not schur_positive(SymFunc.element("P", (2,)))
    assert not schur_positive(SymFunc.element("h", (13,)))


def test_linear_structure_random():
    rng = random.Random(23)
    for _ in range(8):
        lam = rng.choice(partitions_up_to(4))
        mu = rng.choice(partitions_up_to(4))
        b1, b2 = rng.choice(CLASSICAL), rng.choice(CLASSICAL)
        f = SymFunc.element(b1, lam)
        g = SymFunc.element(b2, mu)
        assert to_p(f + g) == to_p(f) + to_p(g)
        assert to_p(f - g) == to_p(f) - to_p(g)
