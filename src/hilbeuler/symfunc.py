"""Symmetric functions over the field of univariate rational functions.

Bases: power sums (p), monomial (m), complete homogeneous (h), elementary
(e), Schur (s), and Hall-Littlewood P and Q. Every element is expanded in
p, and a coefficient is read back as a pairing with the dual basis: the
coefficient of b_lam in f is <f, b*_lam>, where s* = s, m* = h, h* = m and
e* = omega m under the Hall inner product (Macdonald I (4.5)-(4.8)), and
P* = Q, Q* = P under the Hall-Littlewood one (Macdonald III (4.9)).
m_lam is expanded in p by the same duality: Newton's identity gives p_r in
the h-basis in closed form (Macdonald I.2), and the coefficient of p_k in
m_lam is [h_lam] p_k / zee(k). s_lam is read from characters by the
Murnaghan-Nakayama rule (Macdonald I.7). No matrix is inverted or solved.
hl_inner divides once per degree. Coefficients are RationalFunction1
values in the Hall-Littlewood parameter z.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, prod

from .partitions import partitions_of, zee, as_partition
from .ratfunc import (RationalFunction1, RF0, RF1, pdiv_one_minus,
                      pmul_one_minus)
from .xlaurent import XLaurent, add_terms

BASES = ("p", "m", "h", "e", "s", "P", "Q")

#: hard cap on the symmetric-function degree; exceeding it raises.
DEGREE_BOUND = 12


class DegreeBoundError(ValueError):
    pass


def _check_degree(d):
    if d > DEGREE_BOUND:
        raise DegreeBoundError(
            "degree %d exceeds the configured bound %d" % (d, DEGREE_BOUND))


def _merge(k1, k2):
    return tuple(sorted(k1 + k2, reverse=True))


class SymFunc:
    """Basis-tagged sparse expansion of a symmetric function."""

    __slots__ = ("basis", "c")

    def __init__(self, basis, coeffs=None):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        self.basis = basis
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                if not isinstance(v, RationalFunction1):
                    v = RationalFunction1.const(v)
                if v:
                    self.c[as_partition(k)] = v

    @classmethod
    def one(cls, basis="p"):
        return cls(basis, {(): RF1})

    @classmethod
    def element(cls, basis, lam):
        return cls(basis, {as_partition(lam): RF1})

    def copy(self):
        f = SymFunc(self.basis)
        f.c = dict(self.c)
        return f

    def __bool__(self):
        return bool(self.c)

    def __add__(self, other):
        if self.basis != other.basis:
            other = convert(other, self.basis)
        f = self.copy()
        add_terms(f.c, other.c.items())
        return f

    def __neg__(self):
        f = SymFunc(self.basis)
        f.c = {k: -v for k, v in self.c.items()}
        return f

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SymFunc):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        if not isinstance(value, RationalFunction1):
            value = RationalFunction1.const(value)
        f = SymFunc(self.basis)
        if value:
            f.c = {k: v * value for k, v in self.c.items()}
        return f

    def degrees(self):
        """Degrees of the nonzero homogeneous components, ascending."""
        return sorted({sum(k) for k in self.c})

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return to_p(self).c == to_p(other).c

    def items_sorted(self):
        return sorted(self.c.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        terms = " + ".join("(%s)*%s%r" % (v, self.basis, list(k))
                           for k, v in self.items_sorted())
        return "SymFunc<%s>" % (terms or "0")


# ---------------------------------------------------------------------------
# m in p, by duality from Newton's identity

@lru_cache(maxsize=None)
def _p_r_in_h(r):
    """p_r in the h-basis by Newton's identity P(t) = H'(t)/H(t) (Macdonald
    I.2): the coefficient of h_rho is (-1)^(l-1) r (l-1)! / prod_i m_i(rho)!
    with l = len(rho)."""
    return {rho: Fraction((-1) ** (len(rho) - 1) * r * factorial(len(rho) - 1),
                          prod(factorial(rho.count(i)) for i in set(rho)))
            for rho in partitions_of(r)}


@lru_cache(maxsize=None)
def _p_in_h(k):
    """p_k in the h-basis: the product of p_r over the parts r of k."""
    return reduce(_pdict_mul, map(_p_r_in_h, k), {(): Fraction(1)})


@lru_cache(maxsize=None)
def m_in_p(lam):
    """m_lam in the p-basis. Since h* = m, the coefficient of p_k is
    <m_lam, p_k> / zee(k) = [h_lam] p_k / zee(k)."""
    d = sum(lam)
    _check_degree(d)
    return {k: _p_in_h(k)[lam] / zee(k) for k in partitions_of(d)
            if lam in _p_in_h(k)}


# ---------------------------------------------------------------------------
# h, e, s expansions in p

@lru_cache(maxsize=None)
def h_in_p(k):
    """h_k in the p-basis."""
    _check_degree(k)
    return {lam: Fraction(1, zee(lam)) for lam in partitions_of(k)}


def _omega(pdict):
    """The involution omega on a p-expansion: p_k -> (-1)^(|k|-len(k)) p_k."""
    return {k: (-1) ** (sum(k) - len(k)) * v for k, v in pdict.items()}


def _pdict_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        add_terms(out, ((_merge(k1, k2), v1 * v2) for k2, v2 in b.items()))
    return out


@lru_cache(maxsize=None)
def _in_p(basis, lam):
    """b_lam of a classical basis b (m, h, e or s) expanded in p."""
    if basis == "m":
        return m_in_p(lam)
    if basis == "s":
        return s_in_p(lam)
    if basis == "e":
        return _omega(_in_p("h", lam))
    return reduce(_pdict_mul, map(h_in_p, lam), {(): Fraction(1)})


@lru_cache(maxsize=None)
def _character(beta, kappa):
    """chi^lam(kappa), the irreducible character of S_|lam| at cycle type
    kappa, by the Murnaghan-Nakayama rule (Macdonald I.7). lam is given by
    its beta-set, the ascending tuple of lam_i + len(lam) - i. A rim hook of
    length r = kappa_1 moves one bead b to an empty position b - r >= 0,
    with sign (-1) to the number of beads strictly between them."""
    if not kappa:
        return 1
    r, rest, total = kappa[0], kappa[1:], 0
    for i, b in enumerate(beta):
        if b >= r and b - r not in beta:
            legs = sum(b - r < c < b for c in beta)
            moved = tuple(sorted(beta[:i] + (b - r,) + beta[i + 1:]))
            total += (-1) ** legs * _character(moved, rest)
    return total


@lru_cache(maxsize=None)
def s_in_p(lam):
    """s_lam in the p-basis: the coefficient of p_k is chi^lam(k) / zee(k)
    (Macdonald I (7.8))."""
    beta = tuple(part + i for i, part in enumerate(reversed(lam)))
    return {k: Fraction(chi, zee(k)) for k in partitions_of(sum(lam))
            if (chi := _character(beta, k))}


#: the dual of each classical basis under the Hall inner product; that of
#: e is omega applied to m
_DUAL = {"s": "s", "m": "h", "h": "m", "e": "m"}


@lru_cache(maxsize=None)
def _p_in_basis_matrix(basis, d):
    """Coefficient of b_lam in p_k for all k, lam of degree d: the pairing
    <p_k, b*_lam> = zee(k) [p_k] b*_lam, gathered as the transpose of the
    dual elements' p-expansions."""
    _check_degree(d)
    out = {k: {} for k in partitions_of(d)}
    for lam in partitions_of(d):
        dual = _in_p(_DUAL[basis], lam)
        if basis == "e":
            dual = _omega(dual)
        for k, v in dual.items():
            out[k][lam] = zee(k) * v
    return out


# ---------------------------------------------------------------------------
# conversion

def to_p(f):
    if f.basis == "p":
        return f
    out = SymFunc("p")
    if f.basis in ("P", "Q"):
        from .hall_littlewood import hl_P, hl_Q
        elem = hl_P if f.basis == "P" else hl_Q
        for lam, coef in f.c.items():
            add_terms(out.c, elem(lam).scale(coef).c.items())
        return out
    for lam, coef in f.c.items():
        _check_degree(sum(lam))
        add_terms(out.c, ((k, coef * frac)
                          for k, frac in _in_p(f.basis, lam).items()))
    return out


def from_p(f, target):
    """f, given in p, in the target basis. The coefficient of b_lam is the
    pairing <f, b*_lam> with the dual basis: hl_inner with Q_lam for P, the
    same divided by b_lam for Q (the dual basis P_lam is Q_lam / b_lam), and
    the rows of `_p_in_basis_matrix` otherwise."""
    if target == "p":
        return f
    out = SymFunc(target)
    if target in ("P", "Q"):
        from .hall_littlewood import b_norm, hl_Q
        for d in f.degrees():
            for lam in partitions_of(d):
                c = hl_inner(f, hl_Q(lam))
                add_terms(out.c, [(lam, c if target == "P"
                                   else c / b_norm(lam))])
        return out
    for k, coef in f.c.items():
        add_terms(out.c, ((lam, coef * frac) for lam, frac
                          in _p_in_basis_matrix(target, sum(k))[k].items()))
    return out


def convert(f, target):
    """Re-expand f in the target basis (round trips are the identity)."""
    if target not in BASES:
        raise ValueError("unknown basis %r" % (target,))
    if f.basis == target:
        return f.copy()
    return from_p(to_p(f), target)


# ---------------------------------------------------------------------------
# multiplication and inner products

def multiply(f, g):
    """Product in the ring of symmetric functions (computed in p)."""
    fp, gp = to_p(f), to_p(g)
    out = SymFunc("p")
    for k1, v1 in fp.c.items():
        for k2 in gp.c:
            _check_degree(sum(k1) + sum(k2))
        add_terms(out.c, ((_merge(k1, k2), v1 * v2)
                          for k2, v2 in gp.c.items()))
    return out


@lru_cache(maxsize=None)
def z_bracket(d):
    """[d]_z = (z; z)_d = prod_{1 <= j <= d} (1 - z^j)."""
    return RationalFunction1(pmul_one_minus((1,), range(1, d + 1)))


@lru_cache(maxsize=None)
def _p_norm_numerator(k):
    """(p_k, p_k)_z (z; z)_|k|, where (p_k, p_k)_z = zee(k) / prod_i
    (1 - z^{k_i}): an integer polynomial, since (z; z)_|k| / prod_i
    (z; z)_{k_i} is a q-multinomial coefficient."""
    return zee(k) * RationalFunction1(pdiv_one_minus(z_bracket(sum(k)).num,
                                                     k))


def hl_inner(f, g):
    """Hall-Littlewood inner product in infinitely many variables. The
    terms of each degree d are summed over the common denominator
    (z; z)_d, which divides their sum once."""
    fp, gp = to_p(f), to_p(g)
    sums = {}
    for k in fp.c.keys() & gp.c.keys():
        add_terms(sums, [(sum(k), fp.c[k] * gp.c[k] * _p_norm_numerator(k))])
    return sum((num / z_bracket(d) for d, num in sums.items()), RF0)


# ---------------------------------------------------------------------------
# finite-variable realization

def to_finite_vars(f, n, inverted=False):
    """Evaluate f at x_1 + ... + x_n (inverted: at the reciprocal alphabet)."""
    sign = -1 if inverted else 1
    out = XLaurent(n)
    for lam, coef in to_p(f).c.items():
        add_terms(out.c, ((k, v * coef)
                          for k, v in p_in_x(lam, n, sign).c.items()))
    return out


def p_in_x(lam, n, sign):
    """p_lam at x_1..x_n (sign -1: at their inverses), as an XLaurent with
    integer coefficients."""
    out = XLaurent.const(n, 1)
    for k in lam:
        out = out * XLaurent(n, {tuple(sign * k if j == i else 0
                                       for j in range(n)): 1
                                 for i in range(n)})
    return out


def schur_positive(f):
    """True if f is a nonnegative integer combination of Schur functions."""
    try:
        fs = convert(f, "s")
    except DegreeBoundError:
        return False
    # a nonnegative integer is a normalised constant over (1,)
    return all(v.den == (1,) and len(v.num) == 1 and v.num[0] >= 0
               for v in fs.c.values())
