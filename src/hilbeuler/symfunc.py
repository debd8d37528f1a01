"""Symmetric functions over the field of univariate rational functions.

Bases: power sums (p), monomial (m), complete homogeneous (h), elementary
(e), Schur (s), and Hall-Littlewood P and Q. All base changes pivot through
the p-basis. Coefficients are RationalFunction1 values in the
Hall-Littlewood parameter z.
"""

from fractions import Fraction
from functools import lru_cache

from .partitions import partitions_of, zee, as_partition
from .ratfunc import RationalFunction1, RF0, RF1
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

    def degree(self):
        return max((sum(k) for k in self.c), default=0)

    def degrees(self):
        """Degrees of the nonzero homogeneous components, ascending."""
        return sorted({sum(k) for k in self.c})

    def homogeneous(self, d):
        f = SymFunc(self.basis)
        f.c = {k: v for k, v in self.c.items() if sum(k) == d}
        return f

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
# p <-> m transition

@lru_cache(maxsize=None)
def _assignment_count(parts, caps):
    """Number of ways to assign each part to a capacity slot, exactly filling
    every slot. `caps` is a sorted multiset of remaining capacities."""
    if not parts:
        return 1 if all(c == 0 for c in caps) else 0
    p, rest = parts[0], parts[1:]
    total = 0
    for v in sorted(set(caps), reverse=True):
        if v < p:
            continue
        mult = caps.count(v)
        reduced = list(caps)
        reduced.remove(v)
        reduced.append(v - p)
        total += mult * _assignment_count(rest, tuple(sorted(reduced)))
    return total


@lru_cache(maxsize=None)
def p_in_m_matrix(d):
    """Coefficient of m_mu in p_lam, for all lam, mu of degree d."""
    _check_degree(d)
    parts = partitions_of(d)
    out = {}
    for lam in parts:
        row = {}
        for mu in parts:
            cnt = _assignment_count(lam, tuple(sorted(mu)))
            if cnt:
                row[mu] = Fraction(cnt)
        out[lam] = row
    return out


def _invert_matrix(mat, keys):
    """Invert a dict-of-dicts Fraction matrix over the given key order."""
    n = len(keys)
    a = [[Fraction(mat.get(r, {}).get(c, 0)) for c in keys] for r in keys]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        inv[col] = [x / pv for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    out = {}
    for r, kr in enumerate(keys):
        row = {}
        for c, kc in enumerate(keys):
            if inv[r][c]:
                row[kc] = inv[r][c]
        out[kr] = row
    return out


# ---------------------------------------------------------------------------
# h, e, s expansions in p

@lru_cache(maxsize=None)
def h_in_p(k):
    """h_k in the p-basis."""
    _check_degree(k)
    return {lam: Fraction(1, zee(lam)) for lam in partitions_of(k)}


@lru_cache(maxsize=None)
def e_in_p(k):
    _check_degree(k)
    return {lam: Fraction((-1) ** (k - len(lam)), zee(lam))
            for lam in partitions_of(k)}


def _pdict_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        add_terms(out, ((_merge(k1, k2), v1 * v2) for k2, v2 in b.items()))
    return out


@lru_cache(maxsize=None)
def _prod_in_p(kind, lam):
    """Product basis element (h_lam or e_lam) expanded in p."""
    out = {(): Fraction(1)}
    base = h_in_p if kind == "h" else e_in_p
    for part in lam:
        out = _pdict_mul(out, base(part))
    return out


@lru_cache(maxsize=None)
def _jacobi_trudi_h(lam):
    """Schur s_lam as a signed sum of h products: dict h-partition -> int."""
    n = len(lam)
    if n == 0:
        return {(): 1}

    # determinant of (h_{lam_i - i + j}) via memoized expansion over rows
    @lru_cache(maxsize=None)
    def det(row, cols):
        if row == n:
            return {(): 1}
        out = {}
        for ci, col in enumerate(cols):
            idx = lam[row] - row + col
            if idx < 0:
                continue
            sign = -1 if ci % 2 else 1
            sub = det(row + 1, cols[:ci] + cols[ci + 1:])
            add_terms(out, ((_merge(k, (idx,) if idx > 0 else ()), sign * v)
                            for k, v in sub.items()))
        return out

    return det(0, tuple(range(n)))


@lru_cache(maxsize=None)
def s_in_p(lam):
    out = {}
    for hkey, coef in _jacobi_trudi_h(lam).items():
        add_terms(out, ((k, coef * v)
                        for k, v in _prod_in_p("h", hkey).items()))
    return out


@lru_cache(maxsize=None)
def _basis_in_p_matrix(basis, d):
    """Expansion of every degree-d element of a classical basis in p."""
    keys = tuple(partitions_of(d))
    if basis == "h":
        return {k: _prod_in_p("h", k) for k in keys}
    if basis == "e":
        return {k: _prod_in_p("e", k) for k in keys}
    if basis == "s":
        return {k: s_in_p(k) for k in keys}
    if basis == "m":
        return _invert_matrix(p_in_m_matrix(d), keys)
    raise ValueError(basis)


@lru_cache(maxsize=None)
def _p_in_basis_matrix(basis, d):
    """Expansion of every degree-d p element in a classical basis."""
    keys = tuple(partitions_of(d))
    if basis == "m":
        return p_in_m_matrix(d)
    return _invert_matrix(_basis_in_p_matrix(basis, d), keys)


# ---------------------------------------------------------------------------
# conversion

def to_p(f):
    if f.basis == "p":
        return f
    if f.basis in ("P", "Q"):
        from .hall_littlewood import hl_P, hl_Q
        out = SymFunc("p")
        elem = hl_P if f.basis == "P" else hl_Q
        for lam, coef in f.c.items():
            add_terms(out.c, elem(lam).scale(coef).c.items())
        return out
    out = SymFunc("p")
    for lam, coef in f.c.items():
        d = sum(lam)
        _check_degree(d)
        row = _basis_in_p_matrix(f.basis, d)[lam]
        add_terms(out.c, ((k, coef * frac) for k, frac in row.items()))
    return out


def from_p(f, target):
    if target == "p":
        return f
    if target in ("P", "Q"):
        from .hall_littlewood import expand_in_P, b_norm
        coeffs = expand_in_P(f)
        if target == "P":
            return SymFunc("P", coeffs)
        return SymFunc("Q", {k: v / b_norm(k) for k, v in coeffs.items()})
    out = SymFunc(target)
    for d in f.degrees():
        _check_degree(d)
        mat = _p_in_basis_matrix(target, d)
        comp = {k: v for k, v in f.c.items() if sum(k) == d}
        for lam, coef in comp.items():
            add_terms(out.c, ((k, coef * frac)
                              for k, frac in mat[lam].items()))
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
def _p_norm(lam):
    """(p_lam, p_lam)_z = zee(lam) * prod_i (1 - z^{lam_i})^{-1}."""
    r = RationalFunction1.const(zee(lam))
    for part in lam:
        r = r / RationalFunction1([1] + [0] * (part - 1) + [-1])
    return r


def hl_inner(f, g):
    """Hall-Littlewood inner product in infinitely many variables."""
    fp, gp = to_p(f), to_p(g)
    acc = RF0
    small, big = (fp, gp) if len(fp.c) <= len(gp.c) else (gp, fp)
    for k, v in small.c.items():
        w = big.c.get(k)
        if w:
            acc = acc + v * w * _p_norm(k)
    return acc


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
    for v in fs.c.values():
        if not v.is_polynomial() or len(v.num) > 1:
            return False
        c = Fraction(v.num[0], v.den[0])
        if c < 0 or c.denominator != 1:
            return False
    return True
