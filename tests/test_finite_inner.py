import itertools
import random
from fractions import Fraction

import pytest

from hilbeuler.finite_inner import hl_inner_finite
from hilbeuler.hall_littlewood import b_norm_finite
from hilbeuler.partitions import partitions_up_to
from hilbeuler.ratfunc import RF0, RF1, RationalFunction1
from hilbeuler.symfunc import SymFunc, to_finite_vars
from hilbeuler.xlaurent import XLaurent
from symfunc_helpers import map_coeffs

ONE_MINUS_Z = RationalFunction1((1, -1))


class ZPoly:
    """z-polynomial truncated at a fixed order; coefficient ring for the
    brute-force oracle below."""

    def __init__(self, coeffs, order):
        self.order = order
        self.c = {k: Fraction(v) for k, v in coeffs.items()
                  if v and 0 <= k <= order}

    def __bool__(self):
        return bool(self.c)

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            nv = out.get(k, Fraction(0)) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return ZPoly(out, self.order)

    def __mul__(self, other):
        out = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                if k1 + k2 <= self.order:
                    out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + v1 * v2
        return ZPoly(out, self.order)

    def __eq__(self, other):
        return self.order == other.order and self.c == other.c


def brute_inner(f, g, n, order):
    """Expand the defining constant-term formula with the z-geometric
    factors truncated at the given order; returns z-series coefficients."""
    zp_one = ZPoly({0: 1}, order)
    lhs = map_coeffs(to_finite_vars(f, n),
                     lambda r: ZPoly(dict(enumerate(r.expand(order))), order))
    rhs = map_coeffs(to_finite_vars(g, n, inverted=True),
                     lambda r: ZPoly(dict(enumerate(r.expand(order))), order))
    prod = lhs * rhs
    for i, j in itertools.permutations(range(n), 2):
        u = [0] * n
        u[i], u[j] = 1, -1
        u = tuple(u)
        factor = XLaurent(n, {(0,) * n: zp_one,
                              u: ZPoly({0: -1}, order)})
        geo = XLaurent(n)
        for k in range(order + 1):
            key = tuple(k * e for e in u)
            cur = geo.c.get(key)
            term = ZPoly({k: 1}, order)
            geo.c[key] = term if cur is None else cur + term
        prod = prod * factor * geo
    acc = prod.c.get((0,) * n, ZPoly({}, order))
    nfact = 1
    for m in range(2, n + 1):
        nfact *= m
    return [acc.c.get(k, Fraction(0)) / nfact for k in range(order + 1)]


def test_trivial_cases():
    one = SymFunc.one()
    assert hl_inner_finite(one, one, 1) == RF1
    # (1,1)_{z,2} = 1/(1+z)
    assert hl_inner_finite(one, one, 2) == RF1 / RationalFunction1((1, 1))
    # (1,1)_{z,3} = 1/((1+z)(1+z+z^2))
    want = RF1 / (RationalFunction1((1, 1)) * RationalFunction1((1, 1, 1)))
    assert hl_inner_finite(one, one, 3) == want


def test_orthogonality_display():
    for n in (1, 2, 3):
        for mu in partitions_up_to(3):
            if len(mu) > n:
                continue
            for nu in partitions_up_to(3):
                if len(nu) > n:
                    continue
                val = hl_inner_finite(SymFunc.element("P", mu),
                                      SymFunc.element("P", nu), n)
                if mu == nu:
                    assert val == ONE_MINUS_Z ** n / b_norm_finite(mu, n)
                else:
                    assert val == RF0


def test_rejects_large_n():
    with pytest.raises(ValueError):
        hl_inner_finite(SymFunc.one(), SymFunc.one(), 4)
    with pytest.raises(ValueError):
        hl_inner_finite(SymFunc.one(), SymFunc.one(), 0)


def test_against_brute_series_oracle():
    order = 8
    rng = random.Random(17)
    basis_pool = [("p", (1,)), ("p", (2,)), ("h", (2,)), ("e", (2,)),
                  ("s", (2, 1)), ("m", (1, 1))]
    for n in (1, 2, 3):
        for _ in range(4):
            b1, l1 = rng.choice(basis_pool)
            b2, l2 = rng.choice(basis_pool)
            f = SymFunc.element(b1, l1)
            g = SymFunc.element(b2, l2)
            exact = hl_inner_finite(f, g, n)
            assert exact.expand(order) == brute_inner(f, g, n, order), \
                (n, b1, l1, b2, l2)


def test_symmetry_of_pairing():
    f = SymFunc.element("s", (2,))
    g = SymFunc.element("h", (1, 1))
    for n in (2, 3):
        assert hl_inner_finite(f, g, n) == hl_inner_finite(g, f, n)
