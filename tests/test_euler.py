import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import comb, factorial, prod

import pytest

import constant_term_by_fractions as ct_oracle
import delta_kernel_by_reach as by_reach
import localization_by_rational_functions as oracle
import localization_by_wedge_products as by_wedges
import pieri_by_tuples as by_tuples
from hilbeuler import euler
from delta_kernel_by_reach import pair_kernel, reach as _reach
from hilbeuler.euler import (METHODS, GuardError, WedgeSeries,
                             _apply_coefficients, _delta_kernel,
                             _expanded_fixed_points, _holomorphic_part,
                             _kernel_bound, _kernel_build, _kernel_layout,
                             _kernel_pairings, _localization_bound,
                             _localization_layout, _localization_sums,
                             _majorants, _omega_reach, _orbit_size,
                             _pair_kernel, _pairing_bound,
                             _polynomial_coefficients, _raise_cost,
                             _row_end_caps, _theorem_bound,
                             _theorem_numerators, cross_check,
                             euler_constant_term, euler_localization,
                             euler_theorem, evaluate, expand,
                             fixed_point_data, omega, partition_function)
from hilbeuler.fexpr import parse, to_symfunc
from hilbeuler.hall_littlewood import (_vertical_strips, b_norm_finite,
                                       expand_in_P, gaussian_binomial, hl_P,
                                       k_exponent, pieri_e, z_multinomial)
from hilbeuler.partitions import conjugate, partitions_of, partitions_up_to
from hilbeuler.ratfunc import RF0, RF1, RationalFunction1, padd, pmul
from hilbeuler.series import BiSeries, PackedLayout, check_width, unpack
from hilbeuler.symfunc import (SymFunc, convert, multiply, p_in_x,
                               schur_positive, to_p)
from hilbeuler.xlaurent import XLaurent, add_terms
from packed_tables import pack_table, read_series, read_table
from symfunc_helpers import degree

GEO = RF1 / RationalFunction1((1, -1))
ONE = SymFunc.one()


def _swap(char):
    return XLaurent(2, {(q, p): v for (p, q), v in char.c.items()})


def _to_biseries(ws):
    """Expand a wedge series in z1; every z2-coefficient must be
    holomorphic at 0."""
    return _holomorphic_part(by_wedges.expand(ws, ws.order), ws.order)


def packed_expansion(char, order, off=0, bits=64, rows=None, den=()):
    """The Laurent table {(a, b): int}, a <= order, of Omega(char) times
    sum_b z2^b rows[b] / prod_{k in den} (1 - z1^k), default 1, by the
    packed `omega` and `expand` on z2-rows of depth off."""
    layout = PackedLayout(order, bits, off)
    if rows is None:
        rows = [1 << bits * off] + [0] * order
    return layout.read(expand(*omega(char, rows, den, layout), layout))


def assert_packed_equals_oracle(char, order, off=0):
    want = by_wedges.expand(by_wedges.omega(char, order), order)
    assert packed_expansion(char, order, off) == want, (char, order)


# ---------------------------------------------------------------------------
# plethystic exponential under the wedge rule

def test_omega_small_monomials():
    D = 4
    # Omega(z1 + z2) = 1/((1-z1)(1-z2))
    char = XLaurent(2, {(1, 0): 1, (0, 1): 1})
    ws = by_wedges.omega(char, D)
    assert _to_biseries(ws) == oracle.from_rf_product(D, GEO, GEO)
    assert_packed_equals_oracle(char, D)
    # Omega(1 - M) with M = z1 + z2 - z1*z2... polynomial factor case:
    # Omega(-(z1*z2)) = 1 - z1*z2, c < 0
    char = XLaurent(2, {(1, 1): -1})
    ws = by_wedges.omega(char, D)
    assert _to_biseries(ws) == (BiSeries.const(D, 1)
                                - BiSeries.monomial(D, 1, 1))
    assert_packed_equals_oracle(char, D)


def test_omega_large_monomial():
    # Omega(z1 z2^{-1}): the monomial is 'large' under the wedge rule
    # (z2 outermost), so (1-m)^{-1} = -sum_{k>=1} m^{-k} =
    # -sum_{k>=1} z1^{-k} z2^{k}: singular z1-coefficients in positive
    # z2-degrees
    ws = oracle.omega(XLaurent(2, {(1, -1): 1}), 4)
    assert ws.c == {k: -RationalFunction1.z_power(-k) for k in range(1, 5)}
    # unpaired, the singularity at z1 = 0 survives and finalization refuses
    with pytest.raises(ArithmeticError):
        ws.to_biseries()
    # q = 0 with negative z1 power is also 'large':
    # (1 - z1^{-1})^{-1} = -z1/(1 - z1)
    ws0 = oracle.omega(XLaurent(2, {(-1, 0): 1}), 4)
    assert ws0.c == {0: -RationalFunction1((0, 1), (1, -1))}


def test_omega_large_monomial_laurent_numerators():
    # the same factors as integer Laurent numerators over prod (1 - z1^k)
    char = XLaurent(2, {(1, -1): 1})
    ws = by_wedges.omega(char, 4)
    assert ws.c == {k: {-k: -1} for k in range(1, 5)}
    assert ws.den == ()
    with pytest.raises(ArithmeticError,
                       match="z2-coefficient of degree 1 is not holomorphic "
                             "at z1=0"):
        _to_biseries(ws)
    # packed, q < 0: row k reaches z1^-k, so depth 4 holds it and 3 does not
    assert_packed_equals_oracle(char, 4, off=4)
    with pytest.raises(AssertionError, match="below the depth"):
        packed_expansion(char, 4, off=3)
    char = XLaurent(2, {(-1, 0): 1})
    ws0 = by_wedges.omega(char, 4)
    assert ws0.c == {0: {1: -1}}
    assert ws0.den == (1,)
    # packed, q = 0 > p
    assert_packed_equals_oracle(char, 4)


def test_omega_rejects_trivial_monomial():
    with pytest.raises(ValueError):
        by_wedges.omega(XLaurent(2, {(0, 0): 1}), 3)
    with pytest.raises(ValueError):
        packed_expansion(XLaurent(2, {(0, 0): 1}), 3)


def fixed_point_reach(mus, order):
    """(fixed-point data, depth, bound) of the fixed points mus, as
    `euler._fixed_points` gets them."""
    data = [fixed_point_data(mu) for mu in mus]
    reach = [_omega_reach(d.cotangent_char, order) for d in data]
    return data, max(r[0] for r in reach), sum(r[1] for r in reach)


def test_packed_omega_of_every_fixed_point_equals_the_oracle():
    # at the depth and width of _omega_reach, which bound the oracle's
    # table; one fixed point of n = 6 leaves the window empty at D <= 5
    for n in range(1, 7):
        for D in (0, 1, 5, 8, 12):
            for mu in partitions_of(n):
                char = fixed_point_data(mu).cotangent_char
                depth, bound = _omega_reach(char, D)
                want = by_wedges.expand(by_wedges.omega(char, D), D)
                assert -min((a for a, _ in want), default=0) <= depth
                assert max(map(abs, want.values()), default=0) <= bound
                got = packed_expansion(char, D, depth, bound.bit_length() + 1)
                assert got == want, (mu, D)


def test_omega_depth_one_short_and_width_one_bit_short_are_refused():
    # the depth of (n) is reached (z1^-a z2 of its arm-a cell, D times),
    # and the widths are of the largest bound at these n, D
    for n, D in ((6, 8), (3, 5), (2, 1), (6, 16)):
        data, depth, bound = fixed_point_reach(partitions_of(n), D)
        assert depth == (n - 1) * D
        bits = bound.bit_length() + 1
        _expanded_fixed_points(data, PackedLayout(D, bits, depth), bound)
        with pytest.raises(AssertionError, match="below the depth"):
            _expanded_fixed_points(data, PackedLayout(D, bits, depth - 1),
                                   bound)
        with pytest.raises(AssertionError, match="slot width"):
            _expanded_fixed_points(data, PackedLayout(D, bits - 1, depth),
                                   bound)


def test_fixed_point_data():
    data = fixed_point_data((2,))
    assert data.taut_char == XLaurent(2, {(0, 0): 1, (1, 0): 1})
    assert data.cotangent_char == XLaurent(
        2, {(2, 0): 1, (-1, 1): 1, (1, 0): 1, (0, 1): 1})


def test_transpose_consistency():
    # row data of the conjugate partition = variable swap of row data
    for mu in partitions_up_to(5):
        d1 = fixed_point_data(mu)
        d2 = fixed_point_data(conjugate(mu))
        assert d2.taut_char == _swap(d1.taut_char)
        assert d2.cotangent_char == _swap(d1.cotangent_char)


def test_cotangent_dimension():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert sum(fixed_point_data(mu).cotangent_char.c.values()) == 2 * n


# ---------------------------------------------------------------------------
# evaluators

def test_n1_is_geometric_product():
    D = 4
    want = oracle.from_rf_product(D, GEO, GEO)
    assert euler_localization(ONE, 1, D).series == want
    assert euler_theorem(ONE, 1, D).series == want
    assert euler_constant_term(ONE, 1, D).series == want
    # f = p1: the single fixed point has tautological character 1
    p1 = SymFunc.element("p", (1,))
    assert euler_theorem(p1, 1, D).series == want


def test_partition_function_product():
    D = 3
    Z = partition_function(2, D)
    assert Z[0] == BiSeries.const(D, 1)
    # q^1 coefficient: sum over i,j of z1^i z2^j
    assert all(Z[1].coeff(a, b) == 1 for a in range(D + 1)
               for b in range(D + 1))
    # q^2 coefficient at (0,0): partitions of 2 into at most-two of the same
    # monomial 1: the factor (1-q)^{-1} contributes 1 at q^2
    assert Z[2].coeff(0, 0) == 1
    assert Z[2].coeff(1, 0) == 1
    assert Z[2].coeff(1, 1) == 2


def test_corollary_all_methods():
    D = 4
    Z = partition_function(3, D)
    for n in (1, 2, 3):
        assert euler_localization(ONE, n, D).series == Z[n]
        assert euler_theorem(ONE, n, D).series == Z[n]
        assert euler_constant_term(ONE, n, D).series == Z[n]


def test_three_way_agreement_nontrivial_f():
    for expr in (SymFunc.element("p", (1,)), SymFunc.element("s", (1, 1)),
                 SymFunc.element("h", (2,))):
        for n in (2, 3):
            rep = cross_check(expr, n, 3)
            assert not rep.mismatches, rep.mismatches[:3]
            assert rep.results["theorem"].series.is_symmetric()


def test_cross_check_report_fields():
    s2 = SymFunc.element("s", (2,))
    rep = cross_check(s2, 2, 3)
    assert rep.passed
    assert schur_positive(s2)
    assert rep.results["theorem"].series.is_nonneg_integral()
    assert set(rep.results) == {"theorem", "localization", "constant-term"}
    # p2 is not Schur-positive, so nonnegativity is not required for passing
    p2 = SymFunc.element("p", (2,))
    rep2 = cross_check(p2, 2, 3)
    assert not schur_positive(p2)
    assert not rep2.mismatches


def test_guards():
    with pytest.raises(GuardError):
        euler_theorem(ONE, 7, 2)
    for method in ("theorem", "localization", "constant-term"):
        with pytest.raises(GuardError, match="max degree must be >= 0"):
            evaluate(method, ONE, 2, -1)
    with pytest.raises(GuardError):
        euler_localization(ONE, 0, 2)
    with pytest.raises(GuardError):
        euler_constant_term(ONE, 4, 2)
    with pytest.raises(ValueError):
        evaluate("nope", ONE, 1, 2)


def test_constant_term_force_override():
    D = 2
    Z = partition_function(4, D)
    got = euler_constant_term(ONE, 4, D, force=True)
    assert got.series == Z[4]


def test_coefficient_with_a_pole_at_z1_zero_is_refused():
    # the expression grammar cannot write z, and its P/Q atoms have
    # polynomial coefficients, so a coefficient with a z-denominator only
    # comes from the API; every evaluator refuses it before it builds any
    # table, fixed point or kernel
    n, D = 2, 9
    for bad in (RationalFunction1.z_power(-1),
                RF1 / RationalFunction1((1, -1))):
        f = SymFunc("p", {(3, 1): RF1, (1,): bad})
        for method in METHODS:
            # no table or fixed point is kept at (n, D) yet
            euler._FIXED.pop((n, D), None)
            for key in [key for key in euler._TABLES if key[1:3] == (n, D)]:
                del euler._TABLES[key]
            kept = (dict(euler._TABLES), dict(euler._FIXED),
                    dict(euler._BUILDS))
            with pytest.raises(ValueError,
                               match="is not a polynomial in z1"):
                evaluate(method, f, n, D)
            assert (euler._TABLES, euler._FIXED, euler._BUILDS) == kept, \
                (method, bad)


def test_every_p_and_e_coefficient_of_a_pq_atom_is_a_polynomial():
    # P_lam and Q_lam have polynomial coefficients (Macdonald III.2), so
    # every f that the expression grammar writes passes the evaluators'
    # coefficient check
    count = 0
    for lam in partitions_up_to(8):
        for atom in "PQ":
            fp = to_p(SymFunc.element(atom, lam))
            for g in (fp, convert(fp, "e")):
                count += len(_polynomial_coefficients(g))
    assert count == 2780


def test_wedge_series_arithmetic():
    D = 3
    a = oracle.WedgeSeries(D, {0: RF1, 1: RationalFunction1.z_power(1)})
    b = oracle.WedgeSeries(D, {2: RF1})
    assert (a * b).c == {2: RF1, 3: RationalFunction1.z_power(1)}
    assert (a + b).c == {0: RF1, 1: RationalFunction1.z_power(1), 2: RF1}
    bad = oracle.WedgeSeries(D, {0: RF1 / RationalFunction1.z_power(1)})
    with pytest.raises(ArithmeticError):
        bad.to_biseries()


def test_wedge_series_laurent_arithmetic():
    D = 3
    a = WedgeSeries(D, {0: {0: 1}, 1: {1: 1}})
    b = WedgeSeries(D, {2: {0: 1}}, (2,))
    ab = a * b
    assert ab.c == {2: {0: 1}, 3: {1: 1}}
    assert ab.den == (2,)
    # 1/(1 - z1^2) in z2-degree 2, z1/(1 - z1^2) in z2-degree 3
    want = {(0, 2): 1, (2, 2): 1, (1, 3): 1, (3, 3): 1}
    assert by_wedges.expand(ab, 3) == want
    # the packed expansion of the same rows
    layout = PackedLayout(D, 8)
    assert layout.read(expand([0, 0, 1, 1 << 8], (2,), layout)) == want
    # numerators cancel without normalisation and zeros are dropped
    assert (WedgeSeries(D, {0: {0: 1, 1: 1}})
            * WedgeSeries(D, {0: {0: 1, 1: -1}})).c == {0: {0: 1, 2: -1}}
    bad = WedgeSeries(D, {0: {-1: 1}})
    with pytest.raises(ArithmeticError):
        _to_biseries(bad)


def _rf_laurent(ws, hi):
    """Laurent coefficients {(a, b): value}, a <= hi, of a wedge series of
    the rational-function oracle."""
    out = {}
    for b, rf in ws.c.items():
        # s is the power of z1 that divides rf
        s = (next(i for i, v in enumerate(rf.num) if v)
             - next(i for i, v in enumerate(rf.den) if v))
        r = RationalFunction1(rf.num[max(s, 0):], rf.den[max(-s, 0):])
        for i, v in enumerate(r.expand(hi - s)):
            if v:
                out[(s + i, b)] = v
    return out


def test_wedge_products_equal_rational_function_products():
    # omega applies random factors (p, q, mult) one at a time, in place;
    # the oracle multiplies rational-function wedge factors. Large
    # monomials and z1^p with p < 0 get multiplicities up to 3, where the
    # series is shifted by (-m^-1)^mult at once, and half the starting
    # series have negative z1 exponents and a den.
    rng = random.Random(2012)
    z = RationalFunction1.z_power
    for _ in range(80):
        D = rng.randint(0, 5)
        rows, den = {0: {0: 1}}, ()
        if rng.random() < 0.5:
            rows = {b: {rng.randint(-2, 2): rng.randint(-2, 2)
                        for _ in range(2)} for b in range(D + 1)}
            den = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        new = WedgeSeries(D, rows, den)
        old = oracle.WedgeSeries(D, {
            b: sum((z(e) * v for e, v in num.items()), RF0)
            / prod((RF1 - z(k) for k in den), start=RF1)
            for b, num in rows.items()})
        count, factors, char = rng.randint(1, 5), [], {}
        while len(factors) < count:
            p, q = rng.randint(-3, 3), rng.randint(-2, 3)
            large = q < 0 or (q == 0 and p < 0)
            mult = rng.choice((1, 2, 3, -1) if large else (1, 1, 2, -1, -2))
            if (p, q) == (0, 0) or (mult < 0 and q < 0):
                continue
            factors.append((p, q, mult))
            char[(p, q)] = char.get((p, q), 0) + mult
            assert by_wedges.omega(XLaurent(2, {(p, q): mult}), D,
                                   new) is new
            if mult > 0:
                fo = oracle.wedge_inverse_factor(p, q, D)
            else:
                fo = oracle.wedge_poly_factor(p, q, D)
            for _ in range(abs(mult)):
                old = old * fo
        # one character holding every factor gives the same series
        once = by_wedges.omega(XLaurent(2, char), D,
                               WedgeSeries(D, rows, den))
        for hi in (D, D + 3):
            assert (by_wedges.expand(new, hi)
                    == _rf_laurent(old, hi)), (D, rows, factors)
            assert (by_wedges.expand(once, hi)
                    == by_wedges.expand(new, hi)), (D, rows, factors)
        # and so do the packed omega and expand, on rows deep enough for
        # every z1^p of every factor at every z2-degree
        off = 2 + sum(abs(p * mult) for p, _, mult in factors) * (D + 1)
        packed = [sum(v << 64 * (e + off) for e, v in rows.get(b, {}).items())
                  for b in range(D + 1)]
        assert (packed_expansion(XLaurent(2, char), D, off, 64, packed, den)
                == by_wedges.expand(new, D)), (D, rows, factors)


# ---------------------------------------------------------------------------
# the theorem evaluator against its vertex-operator oracle

def theorem_by_vertex_operators(f, ns, order):
    """The summation formula with <f P_mu, Q_nu> taken from expand_in_P of
    f * P_mu (Jing's vertex operator, all partitions of each degree), and
    the nu with len(nu) > n dropped afterwards. Returns n -> BiSeries; the
    expansion of f * P_mu does not depend on n and is shared."""
    fp = to_p(f)
    expansions = {}
    out = {}
    for n in ns:
        series = out[n] = BiSeries(order)
        for m in range(order + 1):
            acc = RF0
            for mu in partitions_of(m, n):
                if mu not in expansions:
                    expansions[mu] = expand_in_P(multiply(fp, hl_P(mu)))
                for nu, c in expansions[mu].items():
                    if len(nu) > n:
                        continue
                    acc = acc + (RationalFunction1.z_power(
                        m + k_exponent(mu, nu)) * c / b_norm_finite(nu, n))
            if acc:
                for a, v in enumerate(acc.expand(order)):
                    if v:
                        series.c[(a, m)] = v
    return out


def test_theorem_equals_vertex_operator_oracle():
    D = 4
    # e-coefficients: positive, mixed-sign, and rational in z1
    for expr in ("s[2,1]", "p[2]-s[1,1]", "P[2,1]+2*Q[1]"):
        f = to_symfunc(parse(expr))
        for n, want in theorem_by_vertex_operators(f, (1, 2, 3), D).items():
            for d in range(D + 1):
                got = euler_theorem(f, n, d).series
                assert all(got.coeff(a, b) == want.coeff(a, b)
                           for a in range(d + 1) for b in range(d + 1)), \
                    (expr, n, d)


def test_theorem_equals_localization_beyond_degree_bound():
    f = SymFunc.element("s", (2, 1))
    assert (euler_theorem(f, 4, 9).series
            == euler_localization(f, 4, 9).series)
    # deg f + D = 15 exceeds DEGREE_BOUND, which caps deg f only
    big = euler_theorem(f, 4, 12).series
    assert big.is_nonneg_integral()
    assert big.is_symmetric()
    assert big.coeff(12, 12) > 0


def theorem_by_tuples(f, n, order):
    """The summation formula with every matrix element, z-multinomial and
    numerator kept as an integer coefficient tuple and multiplied term by
    term: the unpacked form of the theorem evaluator."""
    fe = convert(to_p(f), "e")
    nums = {rho: {} for rho in fe.c}
    for m in range(order + 1):
        for mu in partitions_of(m, n):
            for rho, by_m in nums.items():
                num = by_m.setdefault(m, {})
                # e_rho * P_mu on the P_nu with len(nu) <= n
                elements = {mu: (1,)}
                for r in rho:
                    nxt = {}
                    for lam, c in elements.items():
                        for nu, cn in by_tuples.pieri_e(lam, r, n).items():
                            nxt[nu] = padd(nxt.get(nu, (0,)), pmul(c, cn))
                    elements = nxt
                for nu, c in elements.items():
                    shift = m + k_exponent(mu, nu)
                    zm = by_tuples.z_multinomial(nu, n)
                    for i, v in enumerate(pmul(c, zm)):
                        num[shift + i] = num.get(shift + i, 0) + v
    tables = {rho: by_wedges.expand(WedgeSeries(order, nums[rho],
                                                range(1, n + 1)), order)
              for rho in fe.c}
    return _apply_coefficients(tables, fe.c, order)


def test_packed_theorem_equals_tuple_oracle():
    # e-coefficients: positive, mixed-sign, rational in z1, and e[3], whose
    # chi vanishes at n = 2 (and n = 1)
    D = 8
    for expr in ("s[2,1]", "p[2]-s[1,1]", "P[2,1]+2*Q[1]", "e[3]"):
        f = to_symfunc(parse(expr))
        for n in range(1, 7):
            want = theorem_by_tuples(f, n, D)
            if expr == "e[3]":
                assert bool(want) == (n > 2), n
            for d in range(D + 1):
                got = euler_theorem(f, n, d).series
                assert got == BiSeries(d, want.c), (expr, n, d)
    # n = 6 at twice the depth: the widest slots of this test, 22 bits
    f = SymFunc.element("s", (2, 1))
    assert euler_theorem(f, 6, 16).series == theorem_by_tuples(f, 6, 16)


def test_theorem_numerators_sum_to_e_rho_times_h_m_at_one():
    # at z1 = 1 the numerator of (rho, m) is e_rho(1^n) h_m(1^n)
    D = 10
    rhos = partitions_up_to(6)
    for n in range(1, 7):
        bits = _theorem_bound(rhos, n, D).bit_length() + 1
        for rho, by_m in _theorem_numerators(rhos, n, D, bits).items():
            e_rho = prod(comb(n, r) for r in rho)
            assert {m: sum(unpack(p, bits)) for m, p in by_m.items()} == {
                m: e_rho * comb(m + n - 1, n - 1)
                for m in range(D + 1)}, (n, rho)


def test_theorem_width_one_bit_short_of_the_bound_is_refused():
    for rhos, n, D in ([(2, 1), (3,)], 6, 16), ([()], 1, 0), ([(2,)], 3, 5):
        bits = _theorem_bound(rhos, n, D).bit_length() + 1
        _theorem_numerators(rhos, n, D, bits)
        with pytest.raises(AssertionError, match="slot width"):
            _theorem_numerators(rhos, n, D, bits - 1)


# ---------------------------------------------------------------------------
# localization against its rational-function oracle

def test_localization_equals_rational_function_oracle():
    D = 5
    cases = [(expr, n) for expr in ("s[2,1]", "p[2]-s[1,1]", "P[2,1]+2*Q[1]",
                                    "0", "1") for n in (1, 2, 3)]
    cases += [("s[2,1]", 4), ("P[2,1]+2*Q[1]", 4)]
    for expr, n in cases:
        f = to_symfunc(parse(expr))
        want = oracle.localization_by_rational_functions(f, n, D)
        for d in range(D + 1):
            got = euler_localization(f, n, d).series
            assert got == BiSeries(d, want.c), (expr, n, d)


def test_localization_equals_theorem_at_n6_D12():
    for expr in ("s[2,1]", "P[2,1]+2*Q[1]"):
        f = to_symfunc(parse(expr))
        assert (euler_localization(f, 6, 12).series
                == euler_theorem(f, 6, 12).series), expr


def packed_sums(lams, n, mus, order):
    data, depth, bound = fixed_point_reach(mus, order)
    layout = _localization_layout(lams, n, order, depth, bound)
    return _localization_sums(_expanded_fixed_points(data, layout, bound),
                              lams, n, layout, bound)


def test_packed_localization_equals_wedge_product_oracle():
    # p-coefficients: positive, mixed-sign, rational in z1, zero at n <= 2,
    # with a repeated part, none, constant
    exprs = ("s[2,1]", "p[2]-s[1,1]", "P[2,1]+2*Q[1]", "e[3]",
             "s[3]-2*s[1,1,1]", "0", "1")
    cases = [(expr, n, D) for expr in exprs for n in range(1, 7)
             for D in (0, 1, 3, 5, 8)]
    cases.append(("s[2,1]", 6, 16))
    for expr, n, D in cases:
        f = to_symfunc(parse(expr))
        lams = to_p(f).c
        mus = partitions_of(n)
        assert (packed_sums(lams, n, mus, D)
                == by_wedges.wedge_product_sums(lams, mus, D)), (expr, n, D)
        assert (euler_localization(f, n, D).series
                == by_wedges.localization_by_wedge_products(f, n, D).series)


def test_localization_width_one_bit_short_of_the_bound_is_refused():
    for expr, n, D in (("s[2,1]", 6, 16), ("p[2]-s[1,1]", 3, 5), ("1", 1, 0)):
        lams = to_p(to_symfunc(parse(expr))).c
        data, depth, bound = fixed_point_reach(partitions_of(n), D)
        layout = _localization_layout(lams, n, D, depth, bound)
        fixed = _expanded_fixed_points(data, layout, bound)
        _localization_sums(fixed, lams, n, layout, bound)
        bits = _localization_bound(bound, lams, n).bit_length() + 1
        with pytest.raises(AssertionError, match="slot width"):
            _localization_sums(fixed, lams, n, PackedLayout(
                D, bits - 1, depth, layout.room), bound)
        # and the row room one slot short of the power sums' shifts
        if any(len(lam) for lam in lams):
            with pytest.raises(AssertionError, match="row room"):
                _localization_sums(fixed, lams, n, PackedLayout(
                    D, layout.bits, depth, layout.room - 1), bound)


def _forget_localization(n, order):
    """Drop every localization table and the fixed points kept at
    (n, order)."""
    euler._FIXED.pop((n, order), None)
    for key in [key for key in euler._TABLES
                if key[:3] == ("localization", n, order)]:
        del euler._TABLES[key]


def test_localization_expands_each_fixed_point_once_per_n_and_order(
        monkeypatch):
    calls = []
    for name in ("fixed_point_data", "omega"):
        def counted(*args, _name=name, _fn=getattr(euler, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(euler, name, counted)
    n, D = 5, 7
    _forget_localization(n, D)
    try:
        # p[1,1,1] and p[3], then p[1,1] and p[2]: no longer, no larger part
        euler_localization(to_symfunc(parse("s[2,1]")), n, D)
        assert calls.count("fixed_point_data") == calls.count("omega") == 7
        calls.clear()
        f = to_symfunc(parse("s[2]"))
        got = euler_localization(f, n, D).series
        assert calls == []
        assert got == by_wedges.localization_by_wedge_products(f, n, D).series
    finally:
        _forget_localization(n, D)


def test_a_fixed_point_dropped_from_the_cache_is_refused():
    # the sum over the other fixed points keeps the pole of the dropped
    # one, and _holomorphic_part refuses it
    n, D = 4, 5
    _forget_localization(n, D)
    try:
        euler_localization(to_symfunc(parse("s[2,1]")), n, D)
        # the entry's expanded fixed points lose mu = (4)
        euler._FIXED[(n, D)][4].pop(0)
        with pytest.raises(ArithmeticError, match="is not holomorphic"):
            euler_localization(to_symfunc(parse("p[2]")), n, D)
    finally:
        _forget_localization(n, D)


def test_a_packed_sum_with_a_pole_reaches_the_holomorphy_check():
    # a single fixed point is not holomorphic at z1 = 0: its sums keep
    # their rows a < 0, and _apply_coefficients refuses them as it refuses
    # the oracle's
    D = 4
    fp = to_p(to_symfunc(parse("p[2]-s[1,1]")))
    poles = 0
    for mu in partitions_of(3):
        got = packed_sums(fp.c, 3, [mu], D)
        want = by_wedges.wedge_product_sums(fp.c, [mu], D)
        assert got == want, mu
        if any(a < 0 for table in got.values() for a, _ in table):
            poles += 1
            err = _error(_apply_coefficients, got, fp.c, D)
            assert err == _error(_apply_coefficients, want, fp.c, D)
            assert err[0] is ArithmeticError
            assert "is not holomorphic at z1=0" in err[1], err
    assert poles


# ---------------------------------------------------------------------------
# constant-term against its Fraction-series oracle

def test_constant_term_equals_fraction_oracle():
    # p-coefficients: positive, mixed-sign, rational in z1, none, constant
    exprs = ("s[2,1]", "p[2]-s[1,1]", "P[2,1]+2*Q[1]", "0", "1")
    cases = [(expr, n, 4) for expr in exprs for n in (1, 2, 3)]
    cases += [(expr, 4, 2) for expr in exprs]
    for expr, n, D in cases:
        f = to_symfunc(parse(expr))
        want = ct_oracle.constant_term_by_fractions(f, n, D)
        for d in range(D + 1):
            got = euler_constant_term(f, n, d, force=n > 3).series
            assert all(got.coeff(a, b) == want.coeff(a, b)
                       for a in range(d + 1) for b in range(d + 1)), \
                (expr, n, d)


# ---------------------------------------------------------------------------
# the per-orbit delta kernel against every pair product in full

@lru_cache(maxsize=None)
def pair_products_in_full(n, order):
    """Product of pair kernels over all unordered variable pairs, as an
    XLaurent in x_1..x_n with BiSeries coefficients."""
    acc = XLaurent.const(n, BiSeries.const(order, 1))
    for i in range(n):
        for j in range(i + 1, n):
            pair = {}
            for (m,), bs in pair_kernel(order).c.items():
                w = [0] * n
                w[i], w[j] = m, -m
                pair[tuple(w)] = bs
            acc = acc * XLaurent(n, pair)
    return acc


def delta_kernel_by_full_products(n, order, slack):
    """The delta kernel with every pair product taken in full. Entries that
    cannot be raised back into the nonnegative orthant within the remaining
    budget are dropped."""
    return XLaurent(n, {w: bs for w, bs
                        in pair_products_in_full(n, order).c.items()
                        if sum(-x for x in w if x < 0) <= order + slack})


def test_delta_kernel_orbits_equal_full_product_oracle():
    # the kernel unfolded over each orbit is the oracle with every entry
    # truncated at its cap; entries the truncation empties are dropped
    cases = [(n, D, slack) for n in (1, 2, 3) for D in range(6)
             for slack in range(4)] + [(3, 7, 2)]
    # n = 4: six pair products, and a wider slot than any n = 3 kernel
    cases += [(4, D, slack) for D in range(4) for slack in range(4)]
    for n, D, slack in cases:
        want = delta_kernel_by_full_products(n, D, slack).c
        unfolded = {}
        for w, table in kernel_tables(_delta_kernel(n, D, slack)).items():
            assert list(w) == sorted(w, reverse=True), (n, D, slack, w)
            assert table
            for u in permutations(w):
                unfolded[u] = table
        assert set(unfolded) <= set(want), (n, D, slack)
        for u, full in want.items():
            cap = min(D, D + slack - _raise_cost(u))
            assert (unfolded.get(u, {})
                    == BiSeries(cap, full.c).c), (n, D, slack, u)


def kernel_tables(kern):
    """{w: {(a, b): int}} of a packed delta kernel, each entry read slot by
    slot in the layout of the kernel's build."""
    return {w: read_table(p, kern.layout) for w, p in kern.items()}


def series_tables(kern):
    """{w: {(a, b): int}} of an oracle's kernel of BiSeries."""
    return {w: bs.c for w, bs in kern.items()}


def delta_kernel_unpruned(n, order, slack):
    """The per-orbit packed delta kernel with every pair product but the
    last taken in full, and the last one tried at every m and kept only at
    sorted targets within the budget."""
    budget = order + slack
    pair = pair_kernel(order).c
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bound = sum(sum(map(abs, bs.c.values())) for bs in pair.values())
    bound **= len(pairs)
    layout = _kernel_layout(order, bound.bit_length() + 1)
    check_width(layout.bits, bound)
    packed = [(m, pack_table(layout, bs.c)) for (m,), bs in pair.items()]
    acc = {(0,) * n: 1}
    for i, j in pairs:
        last = (i, j) == pairs[-1]
        out = {}
        for v, x in acc.items():
            for m, y in packed:
                w = list(v)
                w[i] += m
                w[j] -= m
                w = tuple(w)
                if last and not (all(w[k] >= w[k + 1] for k in range(n - 1))
                                 and _raise_cost(w) <= budget):
                    continue
                out[w] = out.get(w, 0) + x * y
        acc = add_terms({}, ((w, layout.truncate(p)) for w, p in out.items()))
    kern = {}
    for w, p in acc.items():
        bs = read_series(p, layout, min(order, budget - _raise_cost(w)))
        if bs:
            kern[w] = bs
    return kern


def test_pruned_delta_kernel_equals_unpruned_oracle():
    cases = [(n, D, slack) for n in (1, 2, 3, 4) for D in range(5)
             for slack in range(4)] + [(3, 7, 2), (3, 9, 3)]
    for n, D, slack in cases:
        want = delta_kernel_unpruned(n, D, slack)
        got = kernel_tables(_delta_kernel(n, D, slack))
        assert set(got) == set(want), (n, D, slack)
        for w, bs in want.items():
            assert got[w] == bs.c, (n, D, slack, w)


def test_row_end_pruning_keeps_every_sorted_vector_within_budget():
    # a sorted vector of sum 0 and raise cost <= budget is a possible final
    # kernel entry, so at every row end (i, n-1), whatever the later pairs
    # do to its coordinates beyond i, its reach must be at least its cap
    for n in (2, 3, 4):
        for D in range(5):
            span = range(-(D + 2), D + 3)
            vectors = [w[::-1] for w in combinations_with_replacement(span, n)
                       if sum(w) == 0]
            for slack in range(4):
                budget = D + slack
                for w in vectors:
                    cap = min(D, budget - _raise_cost(w))
                    if cap >= 0:
                        assert all(_reach(w, i, D, budget) >= cap
                                   for i in range(n - 1)), (w, budget)


def test_forced_constant_term_equals_localization_at_n5():
    f = to_symfunc(parse("s[2,1]"))
    assert (euler_constant_term(f, 5, 3, force=True).series
            == euler_localization(f, 5, 3).series)


def test_constant_term_equals_localization_at_n3_D7():
    for expr in ("s[2,1]", "P[2,1]+2*Q[1]", "p[2]-s[1,1]"):
        f = to_symfunc(parse(expr))
        assert (euler_constant_term(f, 3, 7).series
                == euler_localization(f, 3, 7).series), expr


# ---------------------------------------------------------------------------
# the windowed delta kernel and its covering builds

def can_end_sorted(w, i, budget):
    """Whether w, whose coordinates 0..i are final, can still end as a
    sorted (descending) vector of raise cost at most budget."""
    rest = sum(w[i + 1:])
    return (all(w[k] >= w[k + 1] for k in range(i))
            and w[i] * (len(w) - i - 1) >= rest
            and _raise_cost(w[:i + 1]) + max(0, -rest) <= budget)


def delta_kernel_uncut(n, order, slack):
    """The pruned per-orbit packed delta kernel with every product taken
    at the full window: pruned at each row end, the last pair's m solved
    for, each stage truncated to the window only."""
    budget = order + slack
    pair = pair_kernel(order).c
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bound = sum(sum(map(abs, bs.c.values())) for bs in pair.values())
    bound **= len(pairs)
    layout = _kernel_layout(order, bound.bit_length() + 1)
    check_width(layout.bits, bound)
    packed = {m: pack_table(layout, bs.c) for (m,), bs in pair.items()}
    top = max(packed)
    acc = {(0,) * n: 1}
    for i, j in pairs:
        last = (i, j) == pairs[-1]
        out = {}
        for v, x in acc.items():
            ms = packed
            if last:
                lo = max(-top, -((v[i] - v[j]) // 2))
                hi = min(top, v[i - 1] - v[i]) if i else top
                ms = [m for m in range(lo, hi + 1) if m in packed]
            for m in ms:
                w = list(v)
                w[i] += m
                w[j] -= m
                w = tuple(w)
                if last:
                    if _raise_cost(w) > budget:
                        continue
                elif j == n - 1 and not can_end_sorted(w, i, budget):
                    continue
                out[w] = out.get(w, 0) + x * packed[m]
        acc = add_terms({}, ((w, layout.truncate(p)) for w, p in out.items()))
    kern = {}
    for w, p in acc.items():
        bs = read_series(p, layout, min(order, budget - _raise_cost(w)))
        if bs:
            kern[w] = bs
    return kern


def clear_kernels():
    _delta_kernel.cache_clear()
    euler._BUILDS.clear()


def fresh_kernel(n, order, slack):
    """_delta_kernel built from its pair kernels, served from no cache."""
    clear_kernels()
    return _delta_kernel(n, order, slack)


def unfold(kern):
    """Every vector of every orbit of a per-orbit kernel."""
    return {u: table for w, table in kern.items() for u in permutations(w)}


def test_cut_delta_kernel_equals_uncut_and_both_oracles():
    # every fresh build equals the uncut kernel; the older oracles are
    # compared where they cost little: the full products up to n = 4,
    # D = 3 (15 s more at n = 4, D = 4..5), the unpruned kernel at n = 4,
    # D = 4..5 at the widest budget only
    cases = [(n, D, slack) for n in (1, 2, 3) for D in range(8)
             for slack in range(4)]
    cases += [(4, D, slack) for D in range(6) for slack in range(4)]
    for n, D, slack in cases:
        got = kernel_tables(fresh_kernel(n, D, slack))
        assert set(euler._BUILDS) == {(n, D, slack)}
        assert got == series_tables(delta_kernel_uncut(n, D, slack)), \
            (n, D, slack)
        if n < 4 or D < 4 or slack == 3:
            assert got == series_tables(delta_kernel_unpruned(n, D, slack)), \
                (n, D, slack)
        if n < 4 or D < 4:
            full = delta_kernel_by_full_products(n, D, slack).c
            unfolded = unfold(got)
            assert set(unfolded) <= set(full), (n, D, slack)
            for u, bs in full.items():
                cap = min(D, D + slack - _raise_cost(u))
                assert (unfolded.get(u, {})
                        == BiSeries(cap, bs.c).c), (n, D, slack, u)
    clear_kernels()


def test_kernels_served_from_a_covering_build_equal_fresh_builds():
    for n, D, slack in ((2, 7, 3), (3, 7, 3), (4, 4, 3)):
        covered = [(d, s) for d in range(D + 1) for s in range(4)
                   if d + s <= D + slack]
        want = {key: kernel_tables(fresh_kernel(n, *key)) for key in covered}
        rng = random.Random(n)
        shuffled = rng.sample(covered, len(covered))
        orders = [[(D, slack)] + covered[:-1], covered[::-1], covered,
                  shuffled]
        for order in orders:
            clear_kernels()
            for key in order:
                assert (kernel_tables(_delta_kernel(n, *key))
                        == want[key]), (n, key, order)
            # only keys no earlier build covers are built
            builds = [key for key in order
                      if not any(d >= key[0] and d + s >= sum(key)
                                 for d, s in order[:order.index(key)])]
            assert sorted(k[1:] for k in euler._BUILDS) == sorted(builds)
        clear_kernels()
        _delta_kernel(n, D, slack)
        assert len(euler._BUILDS) == 1
        for key in covered:
            assert kernel_tables(_delta_kernel(n, *key)) == want[key], \
                (n, key)
        assert len(euler._BUILDS) == 1
    clear_kernels()


# ---------------------------------------------------------------------------
# the pair kernel by recurrences, the solved row ends and the majorant width

def test_pair_kernel_recurrences_equal_eight_factor_products():
    for order in range(11):
        want = by_reach.pair_kernel_by_products(order)
        assert pair_kernel(order) == want, order
        # any width that holds the bound gives the same coefficients
        bits = (16 * (order + 1) ** 4).bit_length() + 8
        layout = _kernel_layout(order, bits)
        assert {(m,): read_series(p, layout, order) for m, p
                in _pair_kernel(order, bits).items()} == want.c, order
        with pytest.raises(AssertionError, match="slot width"):
            _pair_kernel(order, bits - 8)


def test_majorant_is_the_sum_of_absolute_pair_coefficients():
    for order in range(11):
        stride, total = 2 * order + 1, {}
        for bs in pair_kernel(order).c.values():
            for (a, b), v in bs.c.items():
                total[b * stride + a] = total.get(b * stride + a, 0) + abs(v)
        want = [total.get(i, 0) for i in range(max(total) + 1)]
        assert list(_majorants(order, 1)[0]) == want, order


def _stage_states(stages):
    return [{w: cap for w, (_, cap) in acc.items()} for acc in stages]


def test_solved_row_end_ranges_keep_the_states_of_the_per_m_reach_filter():
    for n in (1, 2, 3, 4):
        for D in range(6):
            for slack in range(4):
                want, layout = by_reach.kernel_stages(n, D, slack)
                got, _ = by_reach.kernel_stages(n, D, slack, _row_end_caps)
                assert _stage_states(got) == _stage_states(want), \
                    (n, D, slack)
                assert got == want, (n, D, slack)
                final = {w: read_table(p, layout)
                         for w, (p, _) in want[-1].items()}
                assert kernel_tables(fresh_kernel(n, D, slack)) == final, \
                    (n, D, slack)
    clear_kernels()


def test_kernel_width_one_bit_short_of_the_bound_is_refused():
    for n, D, slack in ((3, 7, 2), (3, 6, 3), (2, 3, 1), (4, 3, 2)):
        bits = _kernel_bound(n, D).bit_length() + 1
        # at n = 2 the pair kernel's own bound sets the width
        assert n == 2 or bits < by_reach.l1_width(n, D), (n, D)
        assert (_kernel_build(n, D, slack, bits)
                == fresh_kernel(n, D, slack)), (n, D, slack)
        with pytest.raises(AssertionError, match="slot width"):
            _kernel_build(n, D, slack, bits - 1)
    clear_kernels()


def test_mirrored_kernel_build_equals_unmirrored_oracle():
    # n = 4 and 5 stop at the largest D their other kernel tests use, 5
    # and 3
    cases = [(n, D, slack) for n in range(1, 6) for D in (0, 1, 4, 6, 7)
             if D <= {4: 5, 5: 3}.get(n, D) for slack in (0, 1, 3)]
    for n, D, slack in cases:
        bits = _kernel_bound(n, D).bit_length() + 1
        got = kernel_tables(_kernel_build(n, D, slack, bits))
        want = by_reach.kernel_build_unmirrored(n, D, slack, bits)
        assert set(got) == set(want), (n, D, slack)
        for w, bs in want.items():
            assert got[w] == bs.c, (n, D, slack, w)


def signed_slots(p, bits, count):
    """The first count signed slots of width bits of a packed int."""
    half, digit = 1 << (bits - 1), (1 << bits) - 1
    q = p + sum(half << bits * i for i in range(count))
    return [((q >> bits * i) & digit) - half for i in range(count)]


def test_no_kernel_slot_exceeds_its_majorant():
    # every product, partial sum and entry of the k-th pair, slot by slot,
    # against S_k; the slots of a product reach row and column 2*D
    for n in (2, 3, 4):
        for D in range(5):
            stride = 2 * D + 1
            majorants = _majorants(D, n * (n - 1) // 2)
            seen = []

            def observe(k, bits, p):
                bound = majorants[k - 1]
                for i, v in enumerate(signed_slots(p, bits, stride ** 2)):
                    assert abs(v) <= (bound[i] if i < len(bound) else 0), \
                        (n, D, k, divmod(i, stride), v)
                seen.append(k)

            for slack in range(4):
                by_reach.kernel_stages(n, D, slack, _row_end_caps, observe)
            assert set(seen) == set(range(1, len(majorants) + 1)), (n, D)


# ---------------------------------------------------------------------------
# the constant-term pairing on packed ints

def kernel_pairings_by_dicts(kern, lams, n, order):
    """lam -> BiSeries of sum over w of orbit_size(w) K_w phi_w, by one
    dict update per term."""
    out = {}
    for lam in lams:
        monomials = p_in_x(lam, n, 1).c.items()
        total = {}
        for w, table in kernel_tables(kern).items():
            weight = _orbit_size(w)
            phi = add_terms({}, ((_raise_cost([a + b for a, b in zip(w, t)]),
                                  weight * c) for t, c in monomials))
            for k, c in phi.items():
                for (a, b), v in table.items():
                    if a + k <= order and b + k <= order:
                        key = (a + k, b + k)
                        total[key] = total.get(key, 0) + c * v
        out[lam] = BiSeries(order, total)
    return out


GOLDEN_EXPRESSIONS = ("s[2,1]", "P[2,1]+2*Q[1]", "p[2]-s[1,1]")


def test_packed_pairings_equal_dict_oracle():
    # the golden constant-term cases, plus deeper and forced ones
    cases = [(expr, n, D) for expr in GOLDEN_EXPRESSIONS
             for n in (1, 2, 3) for D in (0, 3)]
    cases += [(expr, 3, 7) for expr in GOLDEN_EXPRESSIONS + ("s[3]", "1")]
    cases += [("s[2,1]", 4, 4)]
    for expr, n, D in cases:
        fp = to_p(to_symfunc(parse(expr)))
        slack = degree(fp)
        kern = _delta_kernel(n, D, slack)
        layout = PackedLayout(D, _pairing_bound(kern, n, D, slack).bit_length()
                              + 1, 0, kern.layout.room)
        got = {lam: BiSeries(D, read_table(layout.place(rows), layout))
               for lam, rows in _kernel_pairings(kern, fp.c, n,
                                                 layout).items()}
        assert got == kernel_pairings_by_dicts(kern, fp.c, n, D), (expr, n, D)


def test_pairing_width_one_bit_short_of_the_bound_is_refused():
    for expr, n, D in (("s[2,1]", 3, 7), ("p[2]-s[1,1]", 2, 3), ("1", 1, 0)):
        fp = to_p(to_symfunc(parse(expr)))
        slack = degree(fp)
        kern = _delta_kernel(n, D, slack)
        bits = _pairing_bound(kern, n, D, slack).bit_length() + 1
        _kernel_pairings(kern, fp.c, n,
                         PackedLayout(D, bits, 0, kern.layout.room))
        with pytest.raises(AssertionError, match="slot width"):
            _kernel_pairings(kern, fp.c, n,
                             PackedLayout(D, bits - 1, 0, kern.layout.room))


# ---------------------------------------------------------------------------
# one table per basis element and (method, n, order)

def test_interleaved_calls_served_from_the_table_cache_equal_fresh_results():
    exprs = ("s[2,1]", "s[2,1]+s[1]", "s[3]", "P[2]+Q[1,1]")
    calls = [(method, expr, D) for method in METHODS for expr in exprs
             for D in (6, 7)]
    fresh = {}
    for method, expr, D in calls:
        euler._TABLES.clear()
        fresh[(method, expr, D)] = evaluate(method, to_symfunc(parse(expr)),
                                            3, D).series
    euler._TABLES.clear()
    for method, expr, D in calls:
        got = evaluate(method, to_symfunc(parse(expr)), 3, D).series
        assert got == fresh[(method, expr, D)], (method, expr, D)
    # on a warm cache no table is built again
    warm = dict(euler._TABLES)
    for expr in exprs:
        for D in (6, 7):
            assert cross_check(to_symfunc(parse(expr)), 3, D).passed, \
                (expr, D)
    assert all(euler._TABLES[key] is table for key, table in warm.items())
    assert {key[:3] for key in euler._TABLES} == {
        (method, 3, D) for method in METHODS for D in (6, 7)}


# ---------------------------------------------------------------------------
# f's coefficients over one common denominator

def apply_coefficients_by_fractions(tables, coeffs, order):
    """BiSeries of sum over lam of coeffs[lam] * tables[lam], each
    expansion term multiplied in as it comes, int or Fraction."""
    total = {}
    for lam, table in tables.items():
        if not table:
            continue
        lo = min(a for a, _ in table)
        r = coeffs[lam].expand(order - lo)
        terms = [(i, w) for i, w in enumerate(r) if w]
        for (a, b), v in table.items():
            for i, w in terms:
                if a + i > order:
                    break
                key = (a + i, b)
                total[key] = total.get(key, 0) + v * w
    return _holomorphic_part(total, order)


def _error(fn, *args):
    try:
        fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no error")


def test_common_denominator_coefficients_equal_fraction_oracle():
    # the p- and e-coefficients of P/Q atoms are polynomials in z1 over
    # integers 2, 3, ...; times 1/(2 - z1) or 1/(3 - z1^2), or as z1^-1, a
    # coefficient is rational in z1 and refused
    den2 = RF1 / RationalFunction1((2, -1))
    den3 = RF1 / RationalFunction1((3, 0, -1))
    coeff_sets, rational = [], [{(1,): RationalFunction1.z_power(-1)}]
    for expr in ("s[2,1]", "P[2,1]+2*Q[1]", "Q[2,1]", "p[2]-s[1,1]"):
        fp = to_p(to_symfunc(parse(expr)))
        coeff_sets.append(fp.c)
        coeff_sets.append(convert(fp, "e").c)
        rational.append({lam: c * (den2 if i % 2 else den3)
                         for i, (lam, c) in enumerate(fp.c.items())})
    for coeffs in rational:
        with pytest.raises(ValueError, match="is not a polynomial in z1"):
            _polynomial_coefficients(SymFunc("p", coeffs))
    rng = random.Random(13)
    D = 5
    for coeffs in coeff_sets:
        for _ in range(5):
            tables = {lam: {(rng.randint(0, D + 1), rng.randint(0, D)):
                            rng.randint(-9, 9) for _ in range(12)}
                      for lam in coeffs}
            tables[next(iter(coeffs))] = {}
            want = apply_coefficients_by_fractions(tables, coeffs, D)
            assert _apply_coefficients(tables, coeffs, D) == want
            # n! folded into the denominator, as constant-term does
            for n in (1, 3):
                scaled = {lam: c / factorial(n) for lam, c in coeffs.items()}
                assert (_apply_coefficients(tables, coeffs, D, factorial(n))
                        == apply_coefficients_by_fractions(tables, scaled, D))
            # a term below z1^0 that nothing cancels: the same refusal,
            # naming the same coefficient
            lam = next(lam for lam, c in coeffs.items() if c.num[0])
            tables[lam] = {(-1, 2): 5, (0, 1): 1}
            assert (_error(_apply_coefficients, tables, coeffs, D)
                    == _error(apply_coefficients_by_fractions, tables,
                              coeffs, D))


def test_integral_coefficients_are_ints():
    # a sum its common denominator divides is an int, any other a Fraction
    half = {(1,): RationalFunction1.const(Fraction(1, 2))}
    got = _apply_coefficients({(1,): {(0, 0): 3, (1, 0): 2}}, half, 2).c
    assert got == {(0, 0): Fraction(3, 2), (1, 0): 1}
    assert type(got[(0, 0)]) is Fraction and type(got[(1, 0)]) is int
    # an integer combination of Schur functions: every coefficient of its
    # table is integral, under every evaluator
    f = to_symfunc(parse("2*s[2,1]-s[1,1]+3*s[1]-s[]"))
    for method in METHODS:
        values = evaluate(method, f, 3, 4).series.c.values()
        assert values and all(type(v) is int for v in values), method


# ---------------------------------------------------------------------------
# Pieri strips across slot widths

def test_theorem_at_every_depth_enumerates_each_strip_once():
    # the theorem's slot width grows with D, and pieri_e is cached per
    # width; the vertical strips are cached apart from it
    f = SymFunc.element("s", (2, 1))
    caches = (_vertical_strips, pieri_e, gaussian_binomial, z_multinomial)

    def sweep(depths):
        for cache in caches:
            cache.cache_clear()
        euler._TABLES.clear()
        return {D: euler_theorem(f, 6, D).series for D in depths}

    deepest = sweep([16])
    strips = _vertical_strips.cache_info().misses
    tables = sweep(range(17))
    # every (rows, r) the shallower depths use, D = 16 uses too
    assert _vertical_strips.cache_info().misses == strips
    assert pieri_e.cache_info().misses > strips
    assert tables[16] == deepest[16]
    assert sweep(range(16, -1, -1)) == tables
