"""Partitions and Young-diagram combinatorics.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ().
"""

from functools import lru_cache
from math import factorial


def as_partition(parts):
    """Validate and normalize an iterable of parts into a partition tuple."""
    t = tuple(int(p) for p in parts)
    for i, p in enumerate(t):
        if p < 1:
            raise ValueError("partition parts must be positive, got %r" % (p,))
        if i > 0 and t[i - 1] < p:
            raise ValueError("parts must be weakly decreasing: %r" % (t,))
    return t


@lru_cache(maxsize=None)
def conjugate(mu):
    """Transpose of the Young diagram. Cached: the e-Pieri rule and the
    k-exponent take it tens of thousands of times per theorem run."""
    if not mu:
        return ()
    out = []
    for j in range(mu[0]):
        out.append(sum(1 for p in mu if p > j))
    return tuple(out)


def multiplicities(mu, n):
    """Part multiplicities (i, m_i) for i >= 0, with m_0 = n - len(mu).

    Returns the list sorted by i, with zero multiplicities omitted for i >= 1.
    """
    if len(mu) > n:
        raise ValueError("partition too long for n variables: len(%r) > %d" % (mu, n))
    out = []
    m0 = n - len(mu)
    if m0 or not mu:
        out.append((0, m0))
    seen = {}
    for p in mu:
        seen[p] = seen.get(p, 0) + 1
    for i in sorted(seen):
        out.append((i, seen[i]))
    return out


def arm_leg(mu, cell):
    """Arm and leg lengths of a diagram cell (0-based (row, col))."""
    i, j = cell
    if not (0 <= i < len(mu)) or not (0 <= j < mu[i]):
        raise ValueError("cell %r not in diagram of %r" % (cell, mu))
    arm = mu[i] - j - 1
    conj = conjugate(mu)
    leg = conj[j] - i - 1
    return arm, leg


def cells(mu):
    """All cells (row, col), row-major order."""
    return [(i, j) for i, p in enumerate(mu) for j in range(p)]


@lru_cache(maxsize=None)
def partitions_of(m, max_len=None):
    """All partitions of m with at most max_len parts, reverse-lexicographic."""
    if max_len is None:
        max_len = m
    if m == 0:
        return [()]
    if max_len <= 0:
        return []
    out = []
    for first in range(m, 0, -1):
        for rest in partitions_of(m - first, max_len - 1):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


def partitions_up_to(m):
    """Partitions of every size 0..m, smaller sizes first."""
    out = []
    for d in range(m + 1):
        out.extend(partitions_of(d))
    return out


def zee(mu):
    """Order of the centralizer of a permutation of cycle type mu."""
    z = 1
    for i, m in multiplicities(mu, len(mu)):
        z *= i ** m * factorial(m)
    return z


def contains(mu, lam):
    """True if the diagram of lam fits inside the diagram of mu."""
    if len(lam) > len(mu):
        return False
    return all(mu[i] >= lam[i] for i in range(len(lam)))
