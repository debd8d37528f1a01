import random
from fractions import Fraction
from math import gcd

import pytest

from hilbeuler.ratfunc import (RF0, RF1, RationalFunction1, pgcd, pmul,
                               poly_str, rf_str)


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
                av, bv = a.eval(x), b.eval(x)
            except ZeroDivisionError:
                continue
            assert (a + b).eval(x) == av + bv
            assert (a * b).eval(x) == av * bv
            assert (a - b).eval(x) == av - bv
            if bv:
                assert (a / b).eval(x) == av / bv


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
    assert r.subs_power(2) == RF1 / RationalFunction1((1, 0, -1))


def test_pgcd():
    g = pgcd(pmul((1, 1), (1, -1)), pmul((1, 1), (2, 1)))
    assert g == (1, 1)


def test_rendering():
    assert rf_str(RF1 / RationalFunction1((1, -1))) == "1/(1-z)"
    assert rf_str(RationalFunction1((1, -1), (1, 1))) == "(1-z)/(1+z)"
    assert rf_str(RationalFunction1((1, -1))) == "1-z"
    assert rf_str(RF0) == "0"
    assert poly_str((1, 0, -2)) == "1-2*z^2"
