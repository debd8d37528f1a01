"""Basis changes by matrix inversion.

This is how `hilbeuler.symfunc.from_p` read the coefficients of a
symmetric function before it paired with the dual basis: a classical
basis inverted its whole basis -> p matrix by Gauss-Jordan elimination
over Fractions (the m-basis inverted `p_in_m_matrix`), e_lam was a product
of signed e_k expansions, and the P and Q bases paired each homogeneous
component with Q_lam, dividing by b_lam for Q. The tests use it as the
oracle for the pairing rule: both must give equal coefficients.

It also keeps how `hilbeuler.symfunc.m_in_p` expanded m_lam in p before it
read the coefficients from Newton's identity: `p_in_m_matrix` counted the
ways to fill the parts of mu with the parts of lam, and `m_in_p_by_solve`
solved that matrix as a triangular system.

And it keeps how `hilbeuler.symfunc.s_in_p` expanded s_lam in p before it
read the coefficients from characters by the Murnaghan-Nakayama rule: the
Jacobi-Trudi determinant det(h_{lam_i - i + j}) as a signed sum of h
products (`_jacobi_trudi_h`), each product expanded in p
(`s_in_p_by_jacobi_trudi`). The s-rows of `_basis_in_p_matrix` come from
it.
"""

from fractions import Fraction
from functools import lru_cache

from hilbeuler.hall_littlewood import b_norm, hl_Q
from hilbeuler.partitions import partitions_of, zee
from hilbeuler.symfunc import (SymFunc, _check_degree, _merge, hl_inner,
                               to_p)
from hilbeuler.xlaurent import add_terms


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


@lru_cache(maxsize=None)
def m_in_p_by_solve(lam):
    """m_lam in the p-basis. p_lam is prod_i m_i(lam)! m_lam plus c_mu m_mu
    over partitions mu coarser than lam (its row of `p_in_m_matrix`), so
    m_lam follows once each coarser m_mu is solved."""
    row = p_in_m_matrix(sum(lam))[lam]
    out = {lam: Fraction(1)}
    for mu, c in row.items():
        if mu != lam:
            add_terms(out, ((k, -c * v)
                            for k, v in m_in_p_by_solve(mu).items()))
    return {k: v / row[lam] for k, v in out.items()}


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


def h_in_p(k):
    return {lam: Fraction(1, zee(lam)) for lam in partitions_of(k)}


def e_in_p(k):
    return {lam: Fraction((-1) ** (k - len(lam)), zee(lam))
            for lam in partitions_of(k)}


def _pdict_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        add_terms(out, ((_merge(k1, k2), v1 * v2) for k2, v2 in b.items()))
    return out


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
def s_in_p_by_jacobi_trudi(lam):
    """s_lam in the p-basis, from its Jacobi-Trudi determinant in h."""
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
        return {k: s_in_p_by_jacobi_trudi(k) for k in keys}
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


def to_p_by_inversion(f):
    """f in the p-basis, with m from the inverse of `p_in_m_matrix` and e
    from signed e_k products."""
    if f.basis in ("p", "P", "Q"):
        return to_p(f)
    out = SymFunc("p")
    for lam, coef in f.c.items():
        row = _basis_in_p_matrix(f.basis, sum(lam))[lam]
        add_terms(out.c, ((k, coef * frac) for k, frac in row.items()))
    return out


def expand_in_P(f):
    """Coefficients of f on the P-basis: c_lam = (f, Q_lam)_z."""
    fp = to_p(f)
    out = {}
    for d in fp.degrees():
        comp = SymFunc("p")
        comp.c = {k: v for k, v in fp.c.items() if sum(k) == d}
        for lam in partitions_of(d):
            c = hl_inner(comp, hl_Q(lam))
            if c:
                out[lam] = c
    return out


def from_p(f, target):
    if target == "p":
        return f
    if target in ("P", "Q"):
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
