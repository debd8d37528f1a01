"""Hall-Littlewood structural layer.

Jing's vertex operator and the P/Q bases, norm factors, matrix elements of
multiplication operators, Pieri coefficients (the exact e-Pieri rule on
partitions of bounded length among them), the k-exponent of the main
summation formula, and its defining identity checker. Jing's operator
keeps every p-coefficient a polynomial in z over one integer, and P_lam =
Q_lam / b_lam divides each numerator exactly (P_lam has polynomial
coefficients, Macdonald III.2), so no polynomial gcd is taken here.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb, prod

from .partitions import (as_partition, conjugate, contains, multiplicities,
                         partitions_of, zee)
from .ratfunc import RF0, RationalFunction1, pdiv_one_minus, pmul_one_minus
from .symfunc import (SymFunc, _check_degree, from_p, hl_inner, multiply,
                      to_p, z_bracket)
from .xlaurent import add_terms

# ---------------------------------------------------------------------------
# Jing's vertex operator and the P/Q bases

@lru_cache(maxsize=None)
def hl_q_row(m):
    """[x^m] of the raising half: sum over kappa of prod(1-z^k) p_kappa/zee."""
    if m < 0:
        return SymFunc("p")
    _check_degree(m)
    out = SymFunc("p")
    for kappa in partitions_of(m):
        out.c[kappa] = (RationalFunction1(pmul_one_minus((1,), kappa))
                        / zee(kappa))
    return out


def lowering_half(f):
    """The lowering half Gamma_+(-1/x) of Jing's operator on f, as {r: the
    coefficient of x^-r, in p}: the homomorphism p_k -> p_k - x^-k keeps
    each part of p_lam or turns it into -x^-part, so of m parts equal to i,
    turning j gives the integer (-1)^j binom(m, j) at r raised by i j."""
    out = {}
    for lam, cf in to_p(f).c.items():
        # (kept parts, r, integer factor), the part values taken descending
        terms = [((), 0, 1)]
        for part, m in reversed(multiplicities(lam, len(lam))):
            terms = [(kept + (part,) * (m - j), r + part * j,
                      n * (-1) ** j * comb(m, j))
                     for kept, r, n in terms for j in range(m + 1)]
        for kept, r, n in terms:
            add_terms(out.setdefault(r, SymFunc("p")).c, [(kept, cf * n)])
    return out


def jing_J(k, f):
    """Jing's vertex operator component J_k applied to f: the raising
    half's x^(k+r) row times the lowering half's x^-r coefficient."""
    out = SymFunc("p")
    for r, g in lowering_half(f).items():
        if k + r >= 0:
            add_terms(out.c, multiply(hl_q_row(k + r), g).c.items())
    return out


@lru_cache(maxsize=None)
def hl_Q(lam):
    """Q_lam built by the iterated vertex operator, rightmost part first."""
    lam = as_partition(lam)
    _check_degree(sum(lam))
    if not lam:
        return SymFunc.one()
    f = hl_Q(lam[1:])
    return jing_J(lam[0], f)


def _b_factors(lam):
    """The j of each factor 1 - z^j of b_lam: 1..m_i(lam) for each part
    value i >= 1."""
    lam = as_partition(lam)
    return [j for i, m in multiplicities(lam, len(lam)) if i
            for j in range(1, m + 1)]


@lru_cache(maxsize=None)
def hl_P(lam):
    """P_lam = Q_lam / b_lam, each p-coefficient's numerator divided
    exactly."""
    ks = _b_factors(lam)
    return SymFunc("p", {k: RationalFunction1(pdiv_one_minus(v.num, ks), v.den)
                         for k, v in hl_Q(as_partition(lam)).c.items()})


def b_norm(lam):
    """b_lam(z) = prod over part values i >= 1 of [m_i(lam)]_z."""
    return RationalFunction1(pmul_one_minus((1,), _b_factors(lam)))


def b_norm_finite(lam, n):
    """b_{lam,n}(z), with the multiplicity of zero set to n - len(lam)."""
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError("partition too long for n variables: %r" % (lam,))
    return b_norm(lam) * z_bracket(n - len(lam))


# ---------------------------------------------------------------------------
# the e-Pieri rule (Macdonald, Symmetric Functions and Hall Polynomials,
# III (3.2)), exact on partitions of length <= n
#
# Every polynomial here has nonnegative integer coefficients and is an int
# packed at a slot width bits, its value at z = 2^bits, so a product is one
# int multiply and z^k is a shift by bits*k. The caller checks bits against
# a bound on every coefficient; nothing here unpacks.

@lru_cache(maxsize=None)
def gaussian_binomial(a, b, bits):
    """[a ; b]_z packed at slot width bits; 0 unless 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    if b == 0 or b == a:
        return 1
    # [a ; b] = [a-1 ; b-1] + z^b [a-1 ; b]
    return (gaussian_binomial(a - 1, b - 1, bits)
            + (gaussian_binomial(a - 1, b, bits) << bits * b))


@lru_cache(maxsize=None)
def z_multinomial(lam, n, bits):
    """[n]_z / b_{lam,n}(z) as an int packed at slot width bits.

    The multiplicities m_i(lam), m_0 = n - len(lam) included, sum to n, so
    the quotient is the z-multinomial coefficient: a product of Gaussian
    binomials, hence a polynomial.
    """
    out, left = 1, n
    for _, m in multiplicities(as_partition(lam), n):
        out *= gaussian_binomial(left, m, bits)
        left -= m
    return out


@lru_cache(maxsize=None)
def pieri_e(mu, r, n, bits):
    """e_r * P_mu on the P_lam with len(lam) <= n, as a tuple of
    (lam, coefficient) pairs.

    lam runs over the vertical r-strips lam/mu. Each coefficient is the
    integer polynomial prod_i [lam'_i - lam'_(i+1) ; lam'_i - mu'_i]_z,
    packed at slot width bits. Multiplying by e_r never shortens a
    partition, so dropping lam with len(lam) > n before a further product
    is exact.
    """
    mu = as_partition(mu)
    if len(mu) > n:
        return ()
    mc = conjugate(mu) + (0,)  # lam has at most one column more
    out = []
    for lam in _vertical_strips(mu + (0,) * (n - len(mu)), r):
        lc = conjugate(lam) + (0,)
        out.append((lam, prod(gaussian_binomial(lc[i] - lc[i + 1],
                                                lc[i] - mc[i], bits)
                              for i in range(len(lc) - 1))))
    return tuple(out)


@lru_cache(maxsize=None)
def _vertical_strips(rows, r):
    """The partitions made from rows, a partition padded with zeros (a
    tuple), by adding one cell to each of r rows, in lexicographic order of
    the grown row indices; none for r < 0. Row i grows only while it stays
    at most row i-1 as grown, and the search stops when fewer rows are left
    than cells. Cached apart from `pieri_e`, so a new slot width only packs
    the strips again."""
    n, out = len(rows), []

    def grow(i, left, lam):
        if not left:
            out.append(tuple(p for p in lam + rows[i:] if p))
        elif 0 < left <= n - i:
            if not i or rows[i] < lam[-1]:
                grow(i + 1, left - 1, lam + (rows[i] + 1,))
            grow(i + 1, left, lam + (rows[i],))

    grow(0, r, ())
    return tuple(out)


# ---------------------------------------------------------------------------
# expansions and matrix elements

def expand_in_P(f):
    """Coefficients of f on the P-basis: c_lam = (f, Q_lam)_z."""
    return from_p(to_p(f), "P").c


def psi(mu, lam):
    """Pieri coefficient: coefficient of P_mu in h_{|mu|-|lam|} * P_lam."""
    return _psi(as_partition(mu), as_partition(lam))


@lru_cache(maxsize=None)
def _psi(mu, lam):
    """psi on partition tuples. P and Q are dual, so the coefficient is one
    pairing with Q_mu, as in `expand_in_P`; `verify_lemma` asks for each
    (mu, lam) once per nu."""
    diff = sum(mu) - sum(lam)
    if diff < 0:
        return RF0
    h = SymFunc.one() if diff == 0 else SymFunc.element("h", (diff,))
    val = hl_inner(multiply(h, hl_P(lam)), hl_Q(mu))
    if val and not contains(mu, lam):
        raise AssertionError(
            "nonzero coefficient outside containment support: %r / %r"
            % (mu, lam))
    return val


@lru_cache(maxsize=None)
def _checked_conjugate(mu):
    """conjugate(as_partition(mu)) for a tuple mu, validated once per
    distinct mu; a ValueError is raised, and not cached, for every call
    with an invalid mu."""
    return conjugate(as_partition(mu))


def k_exponent(mu, nu):
    """Integer exponent from the conjugate-partition formula."""
    mc, nc = _checked_conjugate(tuple(mu)), _checked_conjugate(tuple(nu))
    total = 0
    for i in range(max(len(mc), len(nc))):
        a = mc[i] if i < len(mc) else 0
        b = nc[i] if i < len(nc) else 0
        total += a * (a - 1) // 2 + b * (b - 1) // 2 - a * b
    return total


LemmaCheck = namedtuple("LemmaCheck", "mu nu ok lhs rhs")


def verify_lemma(mu, nu):
    """Check the summation identity sum_lam z^{-|lam|} b_lam psi psi = z^k."""
    mu, nu = as_partition(mu), as_partition(nu)
    lhs = RF0
    for s in range(min(sum(mu), sum(nu)) + 1):
        for lam in partitions_of(s):
            pm = psi(mu, lam)
            if not pm:
                continue
            pn = psi(nu, lam)
            if not pn:
                continue
            lhs = lhs + RationalFunction1.z_power(-s) * b_norm(lam) * pm * pn
    rhs = RationalFunction1.z_power(k_exponent(mu, nu))
    return LemmaCheck(mu, nu, lhs == rhs, lhs, rhs)
