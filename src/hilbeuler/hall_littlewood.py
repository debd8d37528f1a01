"""Hall-Littlewood structural layer.

Half vertex operators, Jing's vertex operator, the P/Q bases, norm factors,
matrix elements of multiplication operators, Pieri coefficients (the exact
e-Pieri rule on partitions of bounded length among them), the k-exponent of
the main summation formula, and its defining identity checker.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .partitions import (as_partition, conjugate, contains, multiplicities,
                         partitions_of, zee)
from .ratfunc import RF0, RF1, RationalFunction1, padd, pmul
from .symfunc import (DEGREE_BOUND, SymFunc, _check_degree, _merge, hl_inner,
                      multiply, to_p)

# ---------------------------------------------------------------------------
# plethystic arguments
#
# An argument is a finite formal sum of monomials x^e * c(z), stored as a
# tuple of (x-exponent, coefficient) pairs. The k-th Adams evaluation
# substitutes x -> x^k and z -> z^k in every monomial.

ARG_ONE = ((0, RF1),)
ARG_X = ((1, RF1),)
ARG_X_INV = ((-1, RF1),)
ARG_X_ONE_MINUS_Z = ((1, RationalFunction1((1, -1))),)  # x*(1-z)
ARG_INV_ONE_MINUS_Z = ((0, RF1 / RationalFunction1((1, -1))),)  # (1-z)^{-1}


def arg_scale(arg, c):
    return tuple((e, coef * c) for e, coef in arg)


def adams(arg, k):
    """Evaluation of every symbol at its k-th power."""
    return tuple((e * k, coef.subs_power(k)) for e, coef in arg)


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


def gamma_plus(arg, f):
    """The ring homomorphism p_k -> p_k + A_k, graded by x-degree."""
    fp = to_p(f)
    out = {}
    for lam, cf in fp.c.items():
        # states: (x-degree, kept parts tuple) -> coefficient
        states = {(0, ()): cf}
        for part in lam:
            nxt = {}
            ak = adams(arg, part)
            for (xd, kept), coef in states.items():
                key = (xd, kept + (part,))
                nv = nxt.get(key, RF0) + coef
                if nv:
                    nxt[key] = nv
                for e, c in ak:
                    if not c:
                        continue
                    key = (xd + e, kept)
                    nv = nxt.get(key, RF0) + coef * c
                    if nv:
                        nxt[key] = nv
                    else:
                        nxt.pop(key, None)
            states = nxt
        for (xd, kept), coef in states.items():
            if not coef:
                continue
            dest = out.setdefault(xd, SymFunc("p"))
            key = tuple(sorted(kept, reverse=True))
            nv = dest.c.get(key, RF0) + coef
            if nv:
                dest.c[key] = nv
            else:
                dest.c.pop(key, None)
    return {xd: g for xd, g in out.items() if g}


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
        coef = RF1
        for part in kappa:
            coef = coef * RationalFunction1((1,) + (0,) * (part - 1) + (-1,))
        out.c[kappa] = coef * RationalFunction1.const(1) / zee(kappa)
    return out


_ARG_NEG_X_INV = ((-1, RationalFunction1((-1,))),)


def jing_J(k, f):
    """Jing's vertex operator component J_k applied to f."""
    graded = gamma_plus(_ARG_NEG_X_INV, f)
    out = SymFunc("p")
    for xd, gi in graded.items():
        m = k + (-xd)
        if m < 0:
            continue
        out = out + multiply(hl_q_row(m), gi)
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


@lru_cache(maxsize=None)
def hl_P(lam):
    lam = as_partition(lam)
    return hl_Q(lam).scale(RF1 / b_norm(lam))


def z_bracket(k):
    """[k]_z = prod_{1<=j<=k} (1 - z^j)."""
    r = RF1
    for j in range(1, k + 1):
        r = r * RationalFunction1((1,) + (0,) * (j - 1) + (-1,))
    return r


def b_norm(lam):
    """b_lam(z) = prod over part values i >= 1 of [m_i(lam)]_z."""
    lam = as_partition(lam)
    r = RF1
    seen = {}
    for p in lam:
        seen[p] = seen.get(p, 0) + 1
    for m in seen.values():
        r = r * z_bracket(m)
    return r


def b_norm_finite(lam, n):
    """b_{lam,n}(z), with the multiplicity of zero set to n - len(lam)."""
    lam = as_partition(lam)
    if len(lam) > n:
        raise ValueError("partition too long for n variables: %r" % (lam,))
    return b_norm(lam) * z_bracket(n - len(lam))


def z_multinomial(lam, n):
    """[n]_z / b_{lam,n}(z) as an integer coefficient tuple.

    The multiplicities m_i(lam), m_0 = n - len(lam) included, sum to n, so
    the quotient is the z-multinomial coefficient: a product of Gaussian
    binomials, hence a polynomial.
    """
    out, left = (1,), n
    for _, m in multiplicities(as_partition(lam), n):
        out = pmul(out, gaussian_binomial(left, m))
        left -= m
    return out


# ---------------------------------------------------------------------------
# the e-Pieri rule (Macdonald, Symmetric Functions and Hall Polynomials,
# III (3.2)), exact on partitions of length <= n

@lru_cache(maxsize=None)
def gaussian_binomial(a, b):
    """[a ; b]_z as an integer coefficient tuple; (0,) unless 0 <= b <= a."""
    if b < 0 or b > a:
        return (0,)
    if b == 0 or b == a:
        return (1,)
    # [a ; b] = [a-1 ; b-1] + z^b [a-1 ; b]
    return padd(gaussian_binomial(a - 1, b - 1),
                (0,) * b + gaussian_binomial(a - 1, b))


@lru_cache(maxsize=None)
def pieri_e(mu, r, n):
    """e_r * P_mu on the P_lam with len(lam) <= n: dict lam -> coefficient.

    lam runs over the vertical r-strips lam/mu. Each coefficient is the
    integer polynomial prod_i [lam'_i - lam'_(i+1) ; lam'_i - mu'_i]_z, as a
    coefficient tuple. Multiplying by e_r never shortens a partition, so
    dropping lam with len(lam) > n before a further product is exact. The
    result is cached, so it is returned as a read-only mapping.
    """
    mu = as_partition(mu)
    if len(mu) > n:
        return MappingProxyType({})
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
        coef = (1,)
        for i in range(len(lc) - 1):
            grown = lc[i] - (mc[i] if i < len(mc) else 0)
            coef = pmul(coef, gaussian_binomial(lc[i] - lc[i + 1], grown))
        out[lam] = coef
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# expansions and matrix elements

def expand_in_P(f):
    """Coefficients of f on the P-basis: c_lam = (f, Q_lam)_z."""
    fp = to_p(f)
    out = {}
    for d in fp.degrees():
        comp = fp.homogeneous(d)
        for lam in partitions_of(d):
            c = hl_inner(comp, hl_Q(lam))
            if c:
                out[lam] = c
    return out


def matrix_element(f, nu, mu):
    """Coefficient of P_nu in f * P_mu."""
    nu, mu = as_partition(nu), as_partition(mu)
    return expand_in_P(multiply(f, hl_P(mu))).get(nu, RF0)


def psi(mu, lam):
    """Pieri coefficient: coefficient of P_mu in h_{|mu|-|lam|} * P_lam."""
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


def k_exponent(mu, nu):
    """Integer exponent from the conjugate-partition formula."""
    mc, nc = conjugate(as_partition(mu)), conjugate(as_partition(nu))
    total = 0
    for i in range(max(len(mc), len(nc))):
        a = mc[i] if i < len(mc) else 0
        b = nc[i] if i < len(nc) else 0
        total += a * (a - 1) // 2 + b * (b - 1) // 2 - a * b
    return total


@dataclass
class LemmaCheck:
    mu: tuple
    nu: tuple
    ok: bool
    lhs: RationalFunction1
    rhs: RationalFunction1


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
