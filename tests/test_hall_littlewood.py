from fractions import Fraction
from itertools import combinations

import pytest

import pieri_by_tuples as pieri_oracle
from hilbeuler.hall_littlewood import (LemmaCheck, b_norm, b_norm_finite,
                                       expand_in_P, gaussian_binomial, hl_P,
                                       hl_Q, hl_q_row, jing_J, k_exponent,
                                       lowering_half, pieri_e, psi,
                                       verify_lemma, z_bracket,
                                       z_multinomial)
from hilbeuler.partitions import (as_partition, conjugate, contains,
                                  partitions_of, partitions_up_to, zee)
from hilbeuler.ratfunc import RF0, RF1, RationalFunction1
from hilbeuler.series import unpack
from hilbeuler.symfunc import (DEGREE_BOUND, SymFunc, _merge, convert,
                               hl_inner, multiply, to_p)
from symfunc_helpers import (ARG_INV_ONE_MINUS_Z, ARG_ONE, ARG_X_ONE_MINUS_Z,
                             adams, gamma_plus, parse_symfunc, subs_z)

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


def test_P_is_Q_divided_by_b_norm():
    # hl_P divides each numerator exactly; the oracle divides as
    # rational functions, taking a polynomial gcd per coefficient
    for lam in partitions_up_to(8):
        assert hl_P(lam).c == hl_Q(lam).scale(RF1 / b_norm(lam)).c, lam


def test_q_at_z0_is_schur():
    for lam in partitions_up_to(5):
        assert subs_z(hl_Q(lam), 0) == to_p(SymFunc.element("s", lam))


def test_unitriangular_m_expansion():
    for lam in partitions_up_to(5):
        exp = convert(hl_P(lam), "m")
        assert exp.c[lam] == RF1


def test_p2_in_m():
    exp = convert(hl_P((2,)), "m")
    assert exp.c == {(2,): RF1, (1, 1): ONE_MINUS_Z}


# ---------------------------------------------------------------------------
# half vertex operators; the lowering half is needed only by these tests

def _xdict_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            nv = out.get(e, RF0) + c1 * c2
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
    return out


def gamma_minus(arg, f, x_window=None, degree_bound=DEGREE_BOUND):
    """Apply exp(sum_k A_k p_k / k) to f, graded by x-degree.

    Returns a dict x-degree -> SymFunc (p-basis), truncated at the symmetric
    degree bound. When the argument is x-free the only grade is 0.
    """
    fp = to_p(f)
    if not fp:
        return {}
    fmin = min(sum(k) for k in fp.c)
    cap = degree_bound - fmin
    out = {}
    for d in range(cap + 1):
        for kappa in partitions_of(d):
            factor = {0: RF1}
            for part in kappa:
                ak = {}
                for e, coef in adams(arg, part):
                    nv = ak.get(e, RF0) + coef
                    if nv:
                        ak[e] = nv
                    else:
                        ak.pop(e, None)
                factor = _xdict_mul(factor, ak)
                if not factor:
                    break
            if not factor:
                continue
            zk = zee(kappa)
            for lam, cf in fp.c.items():
                if sum(lam) + d > degree_bound:
                    continue
                key = _merge(kappa, lam)
                for xd, fc in factor.items():
                    if x_window is not None and xd not in x_window:
                        continue
                    dest = out.setdefault(xd, SymFunc("p"))
                    nv = dest.c.get(key, RF0) + fc * cf * RationalFunction1.const(1) / zk
                    if nv:
                        dest.c[key] = nv
                    else:
                        dest.c.pop(key, None)
    return {xd: g for xd, g in out.items() if g}


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


def test_lowering_half_is_gamma_plus_at_minus_one_over_x():
    # repeated parts, z-dependent coefficients, and terms that cancel
    arg = ((-1, RationalFunction1((-1,))),)
    for text in ("1", "p[1]", "p[3,3,3,1,1]", "p[2,2,2,2]-p[4,2,2]",
                 "P[3,2,2,1]", "Q[2,2,1,1]+P[4,2]", "s[2,1,1]*P[1,1]"):
        f = parse_symfunc(text)
        got = {-r: g.c for r, g in lowering_half(f).items() if g}
        assert got == {xd: g.c for xd, g in gamma_plus(arg, f).items()}, text


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


def matrix_element(f, nu, mu):
    """Coefficient of P_nu in f * P_mu."""
    nu, mu = as_partition(nu), as_partition(mu)
    return expand_in_P(multiply(f, hl_P(mu))).get(nu, RF0)


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


def psi_by_expansion(mu, lam):
    """psi as it was first written: the whole P-expansion of h * P_lam,
    one pairing per partition of |mu|, read at mu."""
    mu, lam = as_partition(mu), as_partition(lam)
    diff = sum(mu) - sum(lam)
    if diff < 0:
        return RF0
    h = SymFunc.one() if diff == 0 else SymFunc.element("h", (diff,))
    val = expand_in_P(multiply(h, hl_P(lam))).get(mu, RF0)
    if val and not contains(mu, lam):
        raise AssertionError(
            "nonzero coefficient outside containment support: %r / %r"
            % (mu, lam))
    return val


def test_psi_equals_the_full_expansion():
    for mu in partitions_up_to(4):
        for lam in partitions_up_to(4):
            assert psi(mu, lam) == psi_by_expansion(mu, lam), (mu, lam)
    # lists are validated as partitions before the cached core
    assert psi([2, 1], [1]) == psi((2, 1), (1,))
    with pytest.raises(ValueError):
        psi([1, 2], [1])


def test_k_exponent():
    assert k_exponent((), ()) == 0
    assert k_exponent((2,), (1,)) == -1
    for mu in partitions_up_to(6):
        assert k_exponent(mu, mu) == -sum(mu)
    for mu in partitions_up_to(4):
        for nu in partitions_up_to(4):
            assert k_exponent(mu, nu) == k_exponent(nu, mu)


def test_k_exponent_takes_lists_and_keeps_refusing_non_partitions():
    assert k_exponent([2, 1], [1]) == k_exponent((2, 1), (1,))
    assert k_exponent([], (3,)) == k_exponent((), (3,))
    for _ in range(2):
        # the second round runs with every valid argument already cached
        for mu, nu in (((1, 2), ()), ((2, 0), (1,)), ((1,), (1, 3)),
                       ([1, 2], [])):
            with pytest.raises(ValueError):
                k_exponent(mu, nu)
        for mu in partitions_up_to(4):
            k_exponent(mu, list(mu))


def test_z1_shift_is_a_sum_of_binomials():
    # |mu| + k(mu, nu) = sum_i C(nu'_i - mu'_i, 2) >= 0, so no term of the
    # summation formula has a negative power of z1
    parts = partitions_up_to(8)
    assert len(parts) ** 2 == 4489
    for mu in parts:
        mc = conjugate(mu)
        for nu in parts:
            nc = conjugate(nu)
            width = max(len(mc), len(nc))
            diffs = [(nc[i] if i < len(nc) else 0)
                     - (mc[i] if i < len(mc) else 0) for i in range(width)]
            assert (sum(mu) + k_exponent(mu, nu)
                    == sum(d * (d - 1) // 2 for d in diffs)), (mu, nu)


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

#: slot width of the packed Pieri tests. Every coefficient is at most its
#: value at z = 1: C(a, b) for a Gaussian binomial, a multinomial of n for
#: a z-multinomial, and for a Pieri coefficient a product of binomials whose
#: tops sum to at most n. With n <= 6 all of these are at most 6! < 2^15.
BITS = 16


def test_gaussian_binomial():
    assert unpack(gaussian_binomial(4, 2, BITS), BITS) == (1, 1, 2, 1, 1)
    assert gaussian_binomial(3, 0, BITS) == gaussian_binomial(3, 3, BITS) == 1
    assert gaussian_binomial(2, 3, BITS) == gaussian_binomial(2, -1, BITS) == 0
    for a in range(7):
        for b in range(a + 1):
            want = z_bracket(a) / (z_bracket(b) * z_bracket(a - b))
            got = unpack(gaussian_binomial(a, b, BITS), BITS)
            assert RationalFunction1(got) == want
            assert got == pieri_oracle.gaussian_binomial(a, b)


def test_z_multinomial_is_n_bracket_over_b():
    for lam in partitions_up_to(4):
        for n in range(max(len(lam), 1), 6):
            want = z_bracket(n) / b_norm_finite(lam, n)
            got = unpack(z_multinomial(lam, n, BITS), BITS)
            assert RationalFunction1(got) == want


def test_pieri_e_equals_vertex_operator_oracle():
    for mu in partitions_up_to(4):
        for r in range(4):
            e_r = SymFunc.element("e", (r,)) if r else SymFunc.one()
            full = expand_in_P(multiply(e_r, hl_P(mu)))
            for n in {len(mu), len(mu) + 1, 6}:
                got = pieri_e(mu, r, n, BITS)
                for _, coef in got:
                    assert type(coef) is int, (mu, r, coef)
                want = {lam: v for lam, v in full.items() if len(lam) <= n}
                assert {lam: RationalFunction1(unpack(c, BITS))
                        for lam, c in got} == want, (mu, r, n)


def pieri_e_by_subsets(mu, r, n):
    """pieri_e by trying every r-subset of the n rows and keeping those
    that leave a partition."""
    mu = as_partition(mu)
    if len(mu) > n:
        return {}
    rows = mu + (0,) * (n - len(mu))
    mc = conjugate(mu)
    out = {}
    for added in combinations(range(n), r):
        lam = list(rows)
        for i in added:
            lam[i] += 1
        if any(lam[i] < lam[i + 1] for i in range(n - 1)):
            continue
        lam = tuple(p for p in lam if p)
        lc = conjugate(lam) + (0,)
        out[lam] = pieri_oracle.gaussian_product(
            [(lc[i] - lc[i + 1], lc[i] - (mc[i] if i < len(mc) else 0))
             for i in range(len(lc) - 1)])
    return out


def test_pieri_e_strips_equal_subset_oracle():
    cases = 0
    for mu in partitions_up_to(8):
        for n in range(1, 7):
            for r in range(8):
                want = pieri_e_by_subsets(mu, r, n)
                got = pieri_e(mu, r, n, BITS)
                # same entries, in the same order
                assert [(lam, unpack(c, BITS)) for lam, c in got] == \
                    list(want.items()), (mu, r, n)
                if r > n or len(mu) > n:
                    assert not got, (mu, r, n)
                cases += 1
    assert cases == 67 * 6 * 8
    # e_r = 0 for r < 0
    assert not pieri_e((1,), -1, 3, BITS)
