from fractions import Fraction

import pytest

from hilbeuler.partitions import (arm_leg, as_partition, cells, conjugate,
                                  contains, multiplicities, partitions_of,
                                  partitions_up_to, zee)


def part_multiplicity_partition(mu, n):
    """The partition whose parts are the multiset {m_i(mu)}, m_0 included."""
    ms = [m for _, m in multiplicities(mu, n) if m > 0]
    return tuple(sorted(ms, reverse=True))


def dominates(lam, mu):
    """True if lam >= mu in dominance order (same size assumed)."""
    s1 = s2 = 0
    for i in range(max(len(lam), len(mu))):
        s1 += lam[i] if i < len(lam) else 0
        s2 += mu[i] if i < len(mu) else 0
        if s1 < s2:
            return False
    return True


def is_horizontal_strip(mu, lam):
    """True if mu/lam is a horizontal strip (at most one cell per column)."""
    if not contains(mu, lam):
        return False
    mc, lc = conjugate(mu), conjugate(lam)
    for j in range(len(mc)):
        l = lc[j] if j < len(lc) else 0
        if mc[j] - l > 1:
            return False
    return True


def test_as_partition_validates():
    assert as_partition([3, 1]) == (3, 1)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([0])


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 1, 1)) == (3, 1)
    assert conjugate(()) == ()
    for mu in partitions_up_to(6):
        assert conjugate(conjugate(mu)) == mu
        assert sum(conjugate(mu)) == sum(mu)


def test_partitions_of():
    assert partitions_of(0) == [()]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(4, max_len=2) == [(4,), (3, 1), (2, 2)]
    # partition numbers p(0)..p(10)
    counts = [len(partitions_of(m)) for m in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_cells_and_arm_leg():
    assert cells((2, 1)) == [(0, 0), (0, 1), (1, 0)]
    assert arm_leg((3, 2), (0, 0)) == (2, 1)
    assert arm_leg((3, 2), (0, 2)) == (0, 0)
    assert arm_leg((3, 2), (1, 1)) == (0, 0)
    with pytest.raises(ValueError):
        arm_leg((3, 2), (1, 2))
    # hook lengths of (2,2) are 3,2,2,1
    hooks = sorted(a + l + 1 for a, l in
                   (arm_leg((2, 2), c) for c in cells((2, 2))))
    assert hooks == [1, 2, 2, 3]


def test_multiplicities():
    assert multiplicities((2, 1, 1), 5) == [(0, 2), (1, 2), (2, 1)]
    assert multiplicities((), 3) == [(0, 3)]
    assert part_multiplicity_partition((2, 1, 1), 5) == (2, 2, 1)
    assert part_multiplicity_partition((1,), 2) == (1, 1)
    with pytest.raises(ValueError):
        multiplicities((1, 1), 1)


def test_zee():
    assert zee(()) == 1
    assert zee((1, 1, 1)) == 6
    assert zee((2, 1)) == 2
    assert zee((3,)) == 3
    # sum over partitions of n of 1/zee = 1 (class equation for S_n)
    for n in range(1, 8):
        assert sum(Fraction(1, zee(mu)) for mu in partitions_of(n)) == 1


def test_dominance_and_containment():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 2))
    assert contains((3, 2), (2, 2))
    assert not contains((3, 1), (2, 2))
    assert is_horizontal_strip((3, 1), (1, 1))
    assert not is_horizontal_strip((2, 2), (1,))
    assert not is_horizontal_strip((1, 1), ())
