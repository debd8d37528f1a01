import pytest

from hilbeuler.euler import (GuardError, VirtualCharacter,
                             WedgeSeries, cross_check, euler_constant_term,
                             euler_localization, euler_theorem, evaluate,
                             fixed_point_data, omega, partition_function)
from hilbeuler.fexpr import parse, to_symfunc
from hilbeuler.hall_littlewood import (b_norm_finite, expand_in_P, hl_P,
                                       k_exponent)
from hilbeuler.partitions import conjugate, partitions_of, partitions_up_to
from hilbeuler.ratfunc import RF0, RF1, RationalFunction1
from hilbeuler.series import BiSeries, from_rf_product
from hilbeuler.symfunc import SymFunc, multiply, to_p

GEO = RF1 / RationalFunction1((1, -1))
ONE = SymFunc.one()


# ---------------------------------------------------------------------------
# plethystic exponential under the wedge rule

def test_omega_small_monomials():
    D = 4
    # Omega(z1 + z2) = 1/((1-z1)(1-z2))
    ws = omega(VirtualCharacter({(1, 0): 1, (0, 1): 1}), D)
    assert ws.to_biseries() == from_rf_product(D, GEO, GEO)
    # Omega(1 - M) with M = z1 + z2 - z1*z2... polynomial factor case:
    # Omega(-(z1*z2)) = 1 - z1*z2
    ws = omega(VirtualCharacter({(1, 1): -1}), D)
    assert ws.to_biseries() == (BiSeries.const(D, 1)
                                - BiSeries.monomial(D, 1, 1))


def test_omega_large_monomial():
    # Omega(z1 z2^{-1}): the monomial is 'large' under the wedge rule
    # (z2 outermost), so (1-m)^{-1} = -sum_{k>=1} m^{-k} =
    # -sum_{k>=1} z1^{-k} z2^{k}: singular z1-coefficients in positive
    # z2-degrees
    ws = omega(VirtualCharacter({(1, -1): 1}), 4)
    assert ws.c == {k: -RationalFunction1.z_power(-k) for k in range(1, 5)}
    # unpaired, the singularity at z1 = 0 survives and finalization refuses
    with pytest.raises(ArithmeticError):
        ws.to_biseries()
    # q = 0 with negative z1 power is also 'large':
    # (1 - z1^{-1})^{-1} = -z1/(1 - z1)
    ws0 = omega(VirtualCharacter({(-1, 0): 1}), 4)
    assert ws0.c == {0: -RationalFunction1((0, 1), (1, -1))}


def test_omega_rejects_trivial_monomial():
    with pytest.raises(ValueError):
        omega(VirtualCharacter({(0, 0): 1}), 3)


def test_fixed_point_data():
    data = fixed_point_data((2,))
    assert data.taut_char == VirtualCharacter({(0, 0): 1, (1, 0): 1})
    assert data.cotangent_char == VirtualCharacter(
        {(2, 0): 1, (-1, 1): 1, (1, 0): 1, (0, 1): 1})
    col = fixed_point_data((2,), convention="col")
    assert col.taut_char == data.taut_char.swap_vars()
    assert col.cotangent_char == data.cotangent_char.swap_vars()
    with pytest.raises(ValueError):
        fixed_point_data((2,), convention="diag")


def test_transpose_consistency():
    # row data of the conjugate partition = variable swap of row data
    for mu in partitions_up_to(5):
        d1 = fixed_point_data(mu)
        d2 = fixed_point_data(conjugate(mu))
        assert d2.taut_char == d1.taut_char.swap_vars()
        assert d2.cotangent_char == d1.cotangent_char.swap_vars()


def test_cotangent_dimension():
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert fixed_point_data(mu).cotangent_char.total() == 2 * n


# ---------------------------------------------------------------------------
# evaluators

def test_n1_is_geometric_product():
    D = 4
    want = from_rf_product(D, GEO, GEO)
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


def test_localization_col_convention_agrees():
    f = SymFunc.element("s", (2,))
    for n in (1, 2, 3):
        row = euler_localization(f, n, 3, convention="row")
        col = euler_localization(f, n, 3, convention="col")
        assert row.series == col.series


def test_three_way_agreement_nontrivial_f():
    for expr in (SymFunc.element("p", (1,)), SymFunc.element("s", (1, 1)),
                 SymFunc.element("h", (2,))):
        for n in (2, 3):
            rep = cross_check(expr, n, 3)
            assert rep.agree, rep.mismatches[:3]
            assert rep.symmetric_ok


def test_cross_check_report_fields():
    rep = cross_check(SymFunc.element("s", (2,)), 2, 3)
    assert rep.passed
    assert rep.schur_positive
    assert rep.nonneg_ok
    assert set(rep.results) == {"theorem", "localization", "constant-term"}
    # p2 is not Schur-positive, so nonnegativity is not required for passing
    rep2 = cross_check(SymFunc.element("p", (2,)), 2, 3)
    assert not rep2.schur_positive
    assert rep2.agree


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


def test_wedge_series_arithmetic():
    D = 3
    a = WedgeSeries(D, {0: RF1, 1: RationalFunction1.z_power(1)})
    b = WedgeSeries(D, {2: RF1})
    assert (a * b).c == {2: RF1, 3: RationalFunction1.z_power(1)}
    assert (a + b).c == {0: RF1, 1: RationalFunction1.z_power(1), 2: RF1}
    bad = WedgeSeries(D, {0: RF1 / RationalFunction1.z_power(1)})
    with pytest.raises(ArithmeticError):
        bad.to_biseries()


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
