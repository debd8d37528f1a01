import operator
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from hilbeuler.ratfunc import (RF0, RF1, RationalFunction1, padd, pdegree,
                               pdiv_one_minus, pdivmod, pgcd, pis_zero, pmul,
                               pmul_one_minus, pneg, poly_str, ptrim, rf_str)
from symfunc_helpers import rf_eval, subs_power


# ---------------------------------------------------------------------------
# oracles: the constructor that always takes the polynomial gcd, and the
# Taylor recurrence that always divides as a Fraction

def normalize_by_gcd(num, den):
    """(num, den) as RationalFunction1 stored them when every construction
    took pgcd, whatever the degrees."""
    num, den = ptrim(num), ptrim(den)
    if pis_zero(num):
        return (0,), (1,)
    g = pgcd(num, den)
    if pdegree(g) > 0:
        num, _ = pdivmod(num, g)
        den, _ = pdivmod(den, g)
    scale = lcm(*(c.denominator for c in num + den))
    num = [int(c * scale) for c in num]
    den = [int(c * scale) for c in den]
    content = gcd(*num, *den)
    if next(c for c in den if c) < 0:
        content = -content
    return (tuple(c // content for c in num),
            tuple(c // content for c in den))


def general_path(a, op, b):
    """(num, den) that a op b hands the constructor on the path for
    positive degree, before it normalises them."""
    if op == "+":
        return padd(pmul(a.num, b.den), pmul(b.num, a.den)), pmul(a.den, b.den)
    if op == "-":
        return general_path(a, "+", -b)
    if op == "*":
        return pmul(a.num, b.num), pmul(a.den, b.den)
    return pmul(a.num, b.den), pmul(a.den, b.num)


def expand_by_fractions(r, order):
    """RationalFunction1.expand with every step in Fraction arithmetic."""
    num, d0 = r.num, Fraction(r.den[0])
    out = []
    for k in range(order + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(r.den) - 1) + 1):
            acc -= r.den[j] * out[k - j]
        out.append(acc / d0)
    return out


def test_normalization():
    # (z^2-1)/(z-1) reduces to z+1
    r = RationalFunction1((-1, 0, 1), (-1, 1))
    assert r == RationalFunction1((1, 1))
    assert r.is_polynomial()
    # content is made coprime across num/den
    half = RationalFunction1.const(Fraction(1, 2))
    assert half.num == (1,) and half.den == (2,)
    # denominator sign convention: first nonzero coefficient positive
    r = RationalFunction1((1,), (0, -1))
    assert r.den[1] > 0
    rng = random.Random(2012)

    def poly():
        return [rng.choice((0, rng.randint(-6, 6),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
                for _ in range(rng.randint(1, 4))]

    for _ in range(400):
        a, b, g = poly(), poly(), poly()
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                     rng.randint(1, 30))
        if not any(b) or not any(g):
            continue
        r = RationalFunction1(a, b)
        coeffs = r.num + r.den
        assert all(type(v) is int for v in coeffs)
        assert gcd(*coeffs) == 1
        assert next(v for v in r.den if v) > 0
        # a common polynomial factor times a rational scale cancels
        gc = [v * c for v in g]
        assert RationalFunction1(pmul(a, gc), pmul(b, gc)) == r


def test_arithmetic_matches_fraction_eval():
    rng = random.Random(7)
    pts = [Fraction(1, 3), Fraction(-2, 5), Fraction(4)]
    for _ in range(40):
        a = RationalFunction1([rng.randint(-3, 3) for _ in range(3)],
                              [1] + [rng.randint(-2, 2) for _ in range(2)])
        b = RationalFunction1([rng.randint(-3, 3) for _ in range(3)],
                              [1] + [rng.randint(-2, 2) for _ in range(2)])
        for x in pts:
            try:
                av, bv = rf_eval(a, x), rf_eval(b, x)
            except ZeroDivisionError:
                continue
            assert rf_eval(a + b, x) == av + bv
            assert rf_eval(a * b, x) == av * bv
            assert rf_eval(a - b, x) == av - bv
            if bv:
                assert rf_eval(a / b, x) == av / bv

    # degree-0 operands: each result is what the general path gives

    def const():
        return RationalFunction1.const(rng.choice((
            0, rng.randint(-9, 9),
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)))))

    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
    for _ in range(300):
        a, b = const(), const()
        for op, apply in ops.items():
            if op == "/" and not b:
                with pytest.raises(ZeroDivisionError):
                    a / b
                continue
            r = apply(a, b)
            assert (r.num, r.den) == normalize_by_gcd(*general_path(a, op, b))
            assert rf_eval(r, 0) == apply(rf_eval(a, 0), rf_eval(b, 0))


def test_z_power():
    assert RationalFunction1.z_power(3).num == (0, 0, 0, 1)
    zm2 = RationalFunction1.z_power(-2)
    assert zm2 * RationalFunction1.z_power(2) == RF1
    assert RationalFunction1.z_power(0) == RF1


def test_pow():
    r = RationalFunction1((1, 1))
    assert r ** 3 == RationalFunction1((1, 3, 3, 1))
    assert r ** 0 == RF1
    assert (r ** -2) * (r ** 2) == RF1


def test_expand():
    geo = RF1 / RationalFunction1((1, -1))
    assert geo.expand(5) == [1, 1, 1, 1, 1, 1]
    r = RationalFunction1((1, -1), (1, 1))  # (1-z)/(1+z)
    assert r.expand(4) == [1, -2, 2, -2, 2]
    with pytest.raises(ValueError):
        RationalFunction1.z_power(-1).expand(3)


def test_subs_power():
    r = RF1 / RationalFunction1((1, -1))
    assert subs_power(r, 2) == RF1 / RationalFunction1((1, 0, -1))


def test_division_by_one_minus_z_powers_is_exact_or_refused():
    rng = random.Random(5)
    for _ in range(200):
        p = ptrim([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
        ks = [rng.randint(1, 5) for _ in range(rng.randint(0, 4))]
        want = p
        for k in ks:
            want = pmul(want, (1,) + (0,) * (k - 1) + (-1,))
        assert pmul_one_minus(p, ks) == want
        assert pdiv_one_minus(want, ks) == p
    for p, ks in (((1,), (1,)), ((1, 1), (1,)), ((1, 0, -1), (1, 3)),
                  ((2, -2), (2,))):
        with pytest.raises(ValueError, match="not divisible"):
            pdiv_one_minus(p, ks)


def test_pgcd():
    g = pgcd(pmul((1, 1), (1, -1)), pmul((1, 1), (2, 1)))
    assert g == (1, 1)


def test_rendering():
    assert rf_str(RF1 / RationalFunction1((1, -1))) == "1/(1-z)"
    assert rf_str(RationalFunction1((1, -1), (1, 1))) == "(1-z)/(1+z)"
    assert rf_str(RationalFunction1((1, -1))) == "1-z"
    assert rf_str(RF0) == "0"
    assert poly_str((1, 0, -2)) == "1-2*z^2"


def _random_poly(rng, degree):
    """Nonzero-led polynomial of the given degree, ints and Fractions."""
    p = [rng.choice((0, rng.randint(-6, 6),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
         for _ in range(degree)]
    return p + [rng.choice((1, -1)) * rng.randint(1, 5)]


def test_constructor_equals_always_gcd_oracle():
    rng = random.Random(11)
    seen = {"const num": 0, "const den": 0, "both >= 1": 0, "both const": 0}
    for _ in range(800):
        kind = rng.choice(sorted(seen))
        if kind == "both const":
            # an int pair, zero and negative denominators included, or an
            # int or Fraction through const
            c = rng.choice((0, rng.randint(-9, 9),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
            if type(c) is int and rng.random() < 0.5:
                num, den = [c], [rng.choice((1, -1)) * rng.randint(1, 12)]
                r = RationalFunction1(num, den)
            else:
                num, den = [c], [1]
                r = RationalFunction1.const(c)
            assert (r.num, r.den) == normalize_by_gcd(num, den), (num, den)
            assert all(type(v) is int for v in r.num + r.den)
            seen[kind] += 1
            continue
        dn = 0 if kind == "const num" else rng.randint(1, 4)
        dd = 0 if kind == "const den" else rng.randint(1, 4)
        num, den = _random_poly(rng, dn), _random_poly(rng, dd)
        if kind == "both >= 1" and rng.random() < 0.5:
            # a shared factor, so the gcd has positive degree
            g = _random_poly(rng, rng.randint(1, 2))
            num, den = pmul(num, g), pmul(den, g)
        r = RationalFunction1(num, den)
        assert (r.num, r.den) == normalize_by_gcd(num, den), (num, den)
        seen[kind] += 1
    assert min(seen.values()) > 150, seen
    with pytest.raises(ZeroDivisionError):
        RationalFunction1((3,), (0,))


def test_expand_equals_fraction_oracle_and_is_int_for_unit_constant_term():
    rng = random.Random(12)
    seen = {1: 0, ">1": 0}
    for _ in range(400):
        num = [rng.randint(-7, 7) for _ in range(rng.randint(1, 4))]
        den = [rng.choice((1, rng.randint(1, 6)))]
        den += [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
        r = RationalFunction1(num, den)
        if not r.den[0]:
            continue
        order = rng.randint(0, 9)
        got = r.expand(order)
        assert got == expand_by_fractions(r, order), (r, order)
        if r.den[0] == 1:
            assert all(type(v) is int for v in got), (r, got)
            seen[1] += 1
        else:
            seen[">1"] += 1
    assert min(seen.values()) > 50, seen
