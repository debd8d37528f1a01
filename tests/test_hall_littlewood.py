from fractions import Fraction

import pytest

from hilbeuler.hall_littlewood import (ARG_INV_ONE_MINUS_Z, ARG_ONE,
                                       ARG_X_ONE_MINUS_Z, LemmaCheck, b_norm,
                                       b_norm_finite, expand_in_P,
                                       gamma_minus, gamma_plus,
                                       gaussian_binomial, hl_P, hl_Q,
                                       hl_q_row, jing_J, k_exponent,
                                       matrix_element, pieri_e, psi,
                                       verify_lemma, z_bracket,
                                       z_multinomial)
from hilbeuler.partitions import partitions_of, partitions_up_to
from hilbeuler.ratfunc import RF0, RF1, RationalFunction1
from hilbeuler.symfunc import SymFunc, convert, hl_inner, multiply, to_p

ONE_MINUS_Z = RationalFunction1((1, -1))
HALF = RationalFunction1.const(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Gram-Schmidt oracle: P_lam = m_lam + lower dominance terms, orthogonal
# under the infinite-variable inner product.

def gram_schmidt_P(d):
    """Orthogonal basis with unitriangular m-expansion, by Gram-Schmidt
    over a dominance-compatible (lexicographic) order."""
    out = {}
    for lam in sorted(partitions_of(d)):  # ascending lex refines dominance
        f = to_p(SymFunc.element("m", lam))
        for mu, p in out.items():
            c = hl_inner(f, p) / hl_inner(p, p)
            if c:
                f = f - p.scale(c)
        out[lam] = f
    return out


def test_jing_equals_gram_schmidt():
    for d in range(6):
        oracle = gram_schmidt_P(d)
        for lam in partitions_of(d):
            assert to_p(hl_Q(lam)) == oracle[lam].scale(b_norm(lam)), lam
            assert to_p(hl_P(lam)) == oracle[lam], lam


def test_q_at_z0_is_schur():
    for lam in partitions_up_to(5):
        assert hl_Q(lam).subs_z(0) == to_p(SymFunc.element("s", lam))


def test_unitriangular_m_expansion():
    for lam in partitions_up_to(5):
        exp = convert(hl_P(lam), "m")
        assert exp.c[lam] == RF1


def test_p2_in_m():
    exp = convert(hl_P((2,)), "m")
    assert exp.c == {(2,): RF1, (1, 1): ONE_MINUS_Z}


# ---------------------------------------------------------------------------
# half vertex operators

def test_gamma_minus_x_expansion():
    graded = gamma_minus(ARG_X_ONE_MINUS_Z, SymFunc.one())
    # x^0: 1; x^1: (1-z) p1; x^2: (1-z^2)/2 p2 + (1-z)^2/2 p1^2
    assert graded[0] == SymFunc.one()
    assert graded[1].c == {(1,): ONE_MINUS_Z}
    assert graded[2].c == {(2,): RationalFunction1((1, 0, -1)) * HALF,
                           (1, 1): ONE_MINUS_Z ** 2 * HALF}
    assert graded[1] == hl_q_row(1) and graded[2] == hl_q_row(2)


def test_gamma_plus_is_ring_homomorphism():
    f = SymFunc.element("p", (2, 1))
    g = SymFunc.element("p", (1, 1))
    lhs = gamma_plus(ARG_INV_ONE_MINUS_Z, multiply(f, g))
    fg = gamma_plus(ARG_INV_ONE_MINUS_Z, f)[0]
    gg = gamma_plus(ARG_INV_ONE_MINUS_Z, g)[0]
    assert lhs[0] == multiply(fg, gg)


def test_gamma_plus_shifts_power_sums():
    # Gamma_+((1-z)^{-1}) p_k = p_k + (1-z^k)^{-1}
    for k in (1, 2, 3):
        got = gamma_plus(ARG_INV_ONE_MINUS_Z, SymFunc.element("p", (k,)))[0]
        shift = RF1 / RationalFunction1((1,) + (0,) * (k - 1) + (-1,))
        assert got.c[(k,)] == RF1
        assert got.c[()] == shift


def test_adjunction():
    # (Gamma_-(1) f, g)_z = (f, Gamma_+((1-z)^{-1}) g)_z
    pairs = [
        (SymFunc.element("p", (1,)), SymFunc.element("p", (2, 1))),
        (SymFunc.element("h", (2,)), SymFunc.element("s", (2, 1))),
        (SymFunc.element("e", (2,)), SymFunc.element("p", (1, 1))),
        (SymFunc.one(), SymFunc.element("p", (3,))),
    ]
    for f, g in pairs:
        lhs = hl_inner(gamma_minus(ARG_ONE, f)[0], g)
        rhs = hl_inner(f, gamma_plus(ARG_INV_ONE_MINUS_Z, g)[0])
        assert lhs == rhs


def test_commutation_relation():
    # Gamma_+(A) Gamma_-(A) = Omega(A^2) Gamma_-(A) Gamma_+(A) for A = z,
    # with Omega(z^2) = 1/(1-z^2); compared as z-series (order 8) because
    # each matrix entry of either side is an infinite z-sum
    order = 8
    arg_z = ((0, RationalFunction1.z_power(1)),)
    omega = RF1 / RationalFunction1((1, 0, -1))
    for f in (SymFunc.one(), SymFunc.element("p", (1,)),
              SymFunc.element("p", (2,))):
        lhs = gamma_plus(arg_z, gamma_minus(arg_z, f)[0])[0]
        rhs = gamma_minus(arg_z, gamma_plus(arg_z, f)[0])[0].scale(omega)
        keys = set(lhs.c) | set(rhs.c)
        for key in keys:
            # contributions dropped by the degree cap enter only at z-orders
            # beyond the comparison window
            la = lhs.c.get(key, RF0).expand(order)
            ra = rhs.c.get(key, RF0).expand(order)
            assert la == ra, key


# ---------------------------------------------------------------------------
# Jing operator

def test_jing_small_cases():
    assert jing_J(0, SymFunc.one()) == SymFunc.one()
    j1 = jing_J(1, SymFunc.one())
    assert j1.c == {(1,): ONE_MINUS_Z}
    assert j1 == to_p(SymFunc.element("Q", (1,)))
    q21 = jing_J(2, jing_J(1, SymFunc.one()))
    assert q21 == hl_Q((2, 1))


def test_b_norms():
    assert z_bracket(0) == RF1
    assert z_bracket(2) == ONE_MINUS_Z * RationalFunction1((1, 0, -1))
    assert b_norm((1,)) == ONE_MINUS_Z
    assert b_norm((2, 2, 1)) == z_bracket(2) * z_bracket(1)
    assert b_norm_finite((1,), 2) == ONE_MINUS_Z ** 2
    with pytest.raises(ValueError):
        b_norm_finite((1, 1), 1)


def test_infinite_orthogonality():
    for mu in partitions_up_to(5):
        for nu in partitions_up_to(5):
            val = hl_inner(hl_P(mu), hl_P(nu))
            if mu == nu:
                assert val == RF1 / b_norm(mu)
            else:
                assert val == RF0


# ---------------------------------------------------------------------------
# matrix elements, psi, k-exponent, the Lemma

def test_expand_in_P_round_trip():
    f = multiply(to_p(SymFunc.element("h", (1,))), hl_P((1,)))
    exp = expand_in_P(f)
    # h1 P_(1) = P_(2) + (1+z) P_(1,1)
    assert exp[(2,)] == RF1
    assert exp[(1, 1)] == RationalFunction1((1, 1))


def test_matrix_element():
    p1 = SymFunc.element("p", (1,))
    assert matrix_element(p1, (1, 1), (1,)) == RationalFunction1((1, 1))
    assert matrix_element(p1, (2,), (1,)) == RF1


def test_psi():
    assert psi((1,), ()) == RF1
    assert psi((1, 1), (1,)) == RationalFunction1((1, 1))
    assert psi((), (1,)) == RF0
    assert psi((1,), (1,)) == RF1  # h_0 = 1
    # not horizontal-strip supported: multiplication is by plain h_k
    assert psi((1, 1), ()) == RationalFunction1.z_power(1)


def test_k_exponent():
    assert k_exponent((), ()) == 0
    assert k_exponent((2,), (1,)) == -1
    for mu in partitions_up_to(6):
        assert k_exponent(mu, mu) == -sum(mu)
    for mu in partitions_up_to(4):
        for nu in partitions_up_to(4):
            assert k_exponent(mu, nu) == k_exponent(nu, mu)


def test_k_recursion():
    for mu in partitions_up_to(5):
        for nu in partitions_up_to(5):
            lo = max(mu[0] if mu else 0, nu[0] if nu else 0, 1)
            for a in (lo, lo + 1, lo + 2):
                assert (k_exponent((a,) + mu, nu) - k_exponent(mu, nu)
                        == sum(mu) - sum(nu))


def test_lemma():
    for mu in partitions_up_to(3):
        for nu in partitions_up_to(3):
            chk = verify_lemma(mu, nu)
            assert isinstance(chk, LemmaCheck)
            assert chk.ok, (mu, nu, str(chk.lhs), str(chk.rhs))


# ---------------------------------------------------------------------------
# the e-Pieri rule against the vertex-operator oracle

def test_gaussian_binomial():
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert gaussian_binomial(3, 0) == gaussian_binomial(3, 3) == (1,)
    assert gaussian_binomial(2, 3) == gaussian_binomial(2, -1) == (0,)
    for a in range(7):
        for b in range(a + 1):
            want = z_bracket(a) / (z_bracket(b) * z_bracket(a - b))
            assert RationalFunction1(gaussian_binomial(a, b)) == want


def test_z_multinomial_is_n_bracket_over_b():
    for lam in partitions_up_to(4):
        for n in range(max(len(lam), 1), 6):
            want = z_bracket(n) / b_norm_finite(lam, n)
            assert RationalFunction1(z_multinomial(lam, n)) == want


def test_pieri_e_equals_vertex_operator_oracle():
    for mu in partitions_up_to(4):
        for r in range(4):
            e_r = SymFunc.element("e", (r,)) if r else SymFunc.one()
            full = expand_in_P(multiply(e_r, hl_P(mu)))
            for n in {len(mu), len(mu) + 1, 6}:
                got = pieri_e(mu, r, n)
                for coef in got.values():
                    assert all(type(c) is int for c in coef), (mu, r, coef)
                want = {lam: v for lam, v in full.items() if len(lam) <= n}
                assert {lam: RationalFunction1(c)
                        for lam, c in got.items()} == want, (mu, r, n)
