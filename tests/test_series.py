import random
from fractions import Fraction

import pytest

from constant_term_by_fractions import geometric, geometric_z1z2, shift
from hilbeuler.ratfunc import RF1, RationalFunction1, pmul
from hilbeuler.series import BiSeries, PackedLayout, check_width, unpack
from hilbeuler.symfunc import SymFunc
from hilbeuler.xlaurent import XLaurent, add_terms
from localization_by_rational_functions import from_rf_product
from packed_tables import pack_table, read_table
from pieri_by_tuples import pack


def _random_biseries(rng, order, nterms=6):
    s = BiSeries(order)
    for _ in range(nterms):
        a, b = rng.randint(0, order), rng.randint(0, order)
        v = Fraction(rng.randint(-5, 5))
        if v:
            s.c[(a, b)] = s.c.get((a, b), Fraction(0)) + v
    s.c = {k: v for k, v in s.c.items() if v}
    return s


def test_truncation_window():
    s = BiSeries(2, {(1, 1): 1, (2, 2): 1})
    t = s * s
    # (1,1)+(1,1) = (2,2) stays, anything beyond the cap is dropped
    assert t.coeff(2, 2) == 1
    # integer coefficients stay int, not Fraction
    assert type(t.coeff(2, 2)) is int
    assert all(a <= 2 and b <= 2 for a, b in t.c)
    with pytest.raises(ValueError):
        BiSeries(3, {(-1, 0): 1})


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(15):
        a = _random_biseries(rng, 4)
        b = _random_biseries(rng, 4)
        c = _random_biseries(rng, 4)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a


def test_geometric_products():
    D = 5
    g1, g2 = geometric(D, 1), geometric(D, 2)
    prod = g1 * g2
    for a in range(D + 1):
        for b in range(D + 1):
            assert prod.coeff(a, b) == 1
    # (1 - z1z2) * sum (z1z2)^k == 1 within the window
    one = BiSeries.const(D, 1)
    assert (one - BiSeries.monomial(D, 1, 1)) * geometric_z1z2(D) == one


def test_from_rf_product():
    D = 4
    geo = RF1 / RationalFunction1((1, -1))
    s = from_rf_product(D, geo, geo)
    assert all(s.coeff(a, b) == 1 for a in range(D + 1) for b in range(D + 1))


def test_symmetry_and_shift():
    s = BiSeries(3, {(1, 0): 2, (0, 1): 2, (2, 2): 1})
    assert s.is_symmetric()
    s2 = BiSeries(3, {(1, 0): 2})
    assert not s2.is_symmetric()
    assert shift(s2, 1, 2) == BiSeries(3, {(2, 2): 2})
    assert shift(s2, 3, 0) == BiSeries(3)


def test_nonneg_integral():
    assert BiSeries(2, {(0, 0): 3}).is_nonneg_integral()
    assert not BiSeries(2, {(0, 0): -1}).is_nonneg_integral()
    assert not BiSeries(2, {(0, 0): Fraction(1, 2)}).is_nonneg_integral()


# ---------------------------------------------------------------------------
# XLaurent

def constant_term(value, zero=0):
    """Coefficient of x^0."""
    return value.c.get((0,) * value.nvars, zero)


def constant_term_nonneg(value, zero=0):
    """Sum of coefficients over exponent vectors in the nonnegative orthant.

    This realizes pairing against the plethystic exponential of the inverted
    alphabet: every factor (1 - 1/x_i)^(-1) is expanded into nonpositive
    powers of x_i.
    """
    acc = zero
    for k, v in value.c.items():
        if all(e >= 0 for e in k):
            acc = acc + v
    return acc


def _random_xlaurent(rng, nvars, nterms=8, span=3):
    x = XLaurent(nvars)
    for _ in range(nterms):
        key = tuple(rng.randint(-span, span) for _ in range(nvars))
        v = Fraction(rng.randint(-4, 4))
        nv = x.c.get(key, Fraction(0)) + v
        if nv:
            x.c[key] = nv
        else:
            x.c.pop(key, None)
    return x


def test_xlaurent_arithmetic():
    rng = random.Random(3)
    for _ in range(10):
        a = _random_xlaurent(rng, 2)
        b = _random_xlaurent(rng, 2)
        assert a * b == b * a
        assert (a + b) - a == b


def test_constant_term_brute_oracle():
    """constant_term_nonneg must equal a brute-force expansion of the
    pairing against prod_i (1 - 1/x_i)^(-1) = sum over nonpositive powers."""
    rng = random.Random(5)
    for _ in range(10):
        a = _random_xlaurent(rng, 2, span=2)
        direct = constant_term_nonneg(a, Fraction(0))
        # brute: multiply by sum_{c1,c2 <= 0} x^c over a window wide enough
        # to capture every exponent of a, then take the constant term
        brute = Fraction(0)
        for (e1, e2), v in a.c.items():
            if e1 >= 0 and e2 >= 0:
                brute += v
        assert direct == brute
    # and it is linear
    a = _random_xlaurent(rng, 3)
    b = _random_xlaurent(rng, 3)
    assert (constant_term_nonneg(a + b, Fraction(0))
            == constant_term_nonneg(a, Fraction(0))
            + constant_term_nonneg(b, Fraction(0)))


def test_constant_term():
    x = XLaurent(2, {(0, 0): 3, (1, -1): 2})
    assert constant_term(x) == 3
    assert constant_term_nonneg(x) == 3


# ---------------------------------------------------------------------------
# add_terms, the one merge step for sparse dicts

def _random_value(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-2, 2)
    if kind == 1:
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    return RationalFunction1((rng.randint(-1, 1), rng.randint(-1, 1)),
                             (1, rng.randint(-1, 1)))


def test_add_terms_matches_naive_sum():
    rng = random.Random(17)
    for _ in range(300):
        start = {k: v for k, v in ((rng.randint(0, 4), _random_value(rng))
                                   for _ in range(rng.randint(0, 4))) if v}
        terms = []
        for _ in range(rng.randint(0, 12)):
            key, v = rng.randint(0, 4), _random_value(rng)
            terms.append((key, v))
            if rng.random() < 0.3:
                terms.append((key, -v))  # an exact cancellation
        want = {}
        for key, v in list(start.items()) + terms:
            want[key] = want.get(key, 0) + v
        want = {key: v for key, v in want.items() if v}
        out = dict(start)
        got = add_terms(out, terms)
        assert got is out
        assert got == want
        assert all(got.values())


def test_sum_with_negative_is_empty():
    a = SymFunc("s", {(2, 1): 3, (1,): RationalFunction1((1, -1))})
    assert (a + (-a)).c == {}
    b = BiSeries(3, {(0, 1): 2, (2, 2): Fraction(1, 3)})
    assert (b + (-b)).c == {}
    x = XLaurent(2, {(1, -1): 2, (0, 0): Fraction(-1, 2)})
    assert (x + (-x)).c == {}


# ---------------------------------------------------------------------------
# Kronecker-packed integer series against BiSeries.__mul__

#: slot width of the packed tests: 2^(B-1) - 1 = 4095 = 63 * 65
BITS = 13
TOP = (1 << (BITS - 1)) - 1


def _l1(s):
    return sum(abs(v) for v in s.c.values())


def _random_int_series(rng, order, norm, nterms):
    """Integer BiSeries of l1 norm exactly norm, on up to nterms distinct
    monomials with random signs."""
    window = [(a, b) for a in range(order + 1) for b in range(order + 1)]
    keys = rng.sample(window, min(nterms, len(window), norm))
    cuts = sorted(rng.sample(range(1, norm), len(keys) - 1))
    parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [norm])]
    return BiSeries(order, {k: rng.choice((1, -1)) * v
                            for k, v in zip(keys, parts)})


def _packed(layout, x, y):
    return pack_table(layout, x.c) * pack_table(layout, y.c)


def _product_layout(order):
    """Rows with room for a product of two series of the window."""
    return PackedLayout(order, BITS, 0, 2 * order + 1)


@pytest.mark.parametrize("order", [0, 1, 5, 9])
def test_packed_product_equals_biseries_product(order):
    rng = random.Random(order)
    layout = _product_layout(order)
    corners = [(0, 0), (0, order), (order, 0), (order, order)]
    # single monomials put +-TOP in one slot, in the window and beyond it
    pairs = [(BiSeries(order, {k1: 63}), BiSeries(order, {k2: sign * 65}))
             for k1 in corners for k2 in corners for sign in (1, -1)]
    divisors = [d for d in range(1, TOP + 1) if TOP % d == 0]
    for _ in range(150):
        nx = rng.choice(divisors)
        # l1 norms whose product is exactly TOP, or below it
        ny = TOP // nx if rng.random() < 0.5 else rng.randint(1, TOP // nx)
        pairs.append((_random_int_series(rng, order, nx, rng.randint(1, 12)),
                      _random_int_series(rng, order, ny, rng.randint(1, 12))))
    for x, y in pairs:
        check_width(layout.bits, _l1(x) * _l1(y))
        want = x * y
        p = _packed(layout, x, y)
        assert read_table(layout.truncate(p), layout) == want.c
        # an untruncated product is cut into the rows of the series
        assert layout.place(layout.rows(p)) == layout.truncate(p)
        for cap in range(order + 1):
            # cutting to a cap gives the packed truncated series, and so
            # does cutting both operands to it before the product
            cut = pack_table(layout, BiSeries(cap, want.c).c)
            assert layout.truncate(p, cap) == cut
            assert layout.truncate(
                layout.truncate(pack_table(layout, x.c), cap)
                * layout.truncate(pack_table(layout, y.c), cap), cap) == cut
    # sums of untruncated products truncate once, as the kernel does
    for (x, y), (u, v) in zip(pairs[::2], pairs[1::2]):
        if _l1(x) * _l1(y) + _l1(u) * _l1(v) <= TOP:
            p = _packed(layout, x, y) + _packed(layout, u, v)
            assert (read_table(layout.truncate(p), layout)
                    == (x * y + u * v).c)


def test_packed_layout_check_rejects_bounds_its_slots_cannot_hold():
    layout = _product_layout(3)
    check_width(layout.bits, TOP)
    with pytest.raises(AssertionError):
        check_width(layout.bits, TOP + 1)
    # the check is tight: a slot of 2^(B-1) breaks the product
    x, y = BiSeries(3, {(1, 1): 64}), BiSeries(3, {(1, 2): 64})
    assert _l1(x) * _l1(y) == TOP + 1
    assert (read_table(layout.truncate(_packed(layout, x, y)), layout)
            != (x * y).c)


def test_packed_nonnegative_polynomial_product_equals_pmul():
    # value at z = 1 bounds every coefficient of a nonnegative product, so
    # sum(x) * sum(y) <= TOP is all a slot of BITS bits needs
    rng = random.Random(2009)
    divisors = [d for d in range(1, TOP + 1) if TOP % d == 0]
    for _ in range(300):
        nx = rng.choice(divisors)
        ny = TOP // nx if rng.random() < 0.5 else rng.randint(0, TOP // nx)
        x, y = ([0] * rng.randint(1, 12) for _ in range(2))
        for poly, norm in ((x, nx), (y, ny)):
            for i in rng.choices(range(len(poly)), k=norm):
                poly[i] += 1
        check_width(BITS, sum(x) * sum(y))
        assert unpack(pack(x, BITS), BITS) == pmul(x, (1,))
        assert unpack(pack(x, BITS) * pack(y, BITS), BITS) == pmul(x, y)
    # a single coefficient at the bound, and one past it
    assert unpack(pack((63,), BITS) * pack((0, 65), BITS), BITS) == (0, TOP)
    with pytest.raises(AssertionError):
        check_width(BITS, TOP + 1)
    with pytest.raises(AssertionError, match="negative"):
        unpack(-1, BITS)


def test_packed_laurent_tables_round_trip_and_cut_shifted_copies():
    # z2-rows down to a = -off at slot widths that are not whole bytes, with
    # slot values up to +-(2^(B-1) - 1), placed side by side with spare
    # room; `read` takes them back from the rows as the slot-by-slot reader
    # does from the placed table. A shifted copy, z1^i z2^j times the table
    # with i within the room, keeps its slots in their rows and is cut back
    # to the window, and a z2-row times any z1^i is cut back to its window
    # by cut_row
    rng = random.Random(20)
    for order, off, bits, spare in ((0, 0, 8, 0), (3, 2, 7, 3),
                                    (4, 5, 13, 6), (2, 1, 33, 2),
                                    (5, 3, 61, 4)):
        layout = PackedLayout(order, bits, off, order + off + 1 + spare)
        top = (1 << (bits - 1)) - 1
        window = [(a, b) for a in range(-off, order + 1)
                  for b in range(order + 1)]
        for _ in range(40):
            keys = rng.sample(window, rng.randint(0, len(window)))
            table = add_terms({}, ((k, rng.choice((-top, top, rng.randint(
                -top, top)))) for k in keys))
            rows = [sum(v << bits * (a + off) for (a, c), v in table.items()
                        if c == b) for b in range(order + 1)]
            p = layout.place(rows)
            assert layout.read(rows) == read_table(p, layout) == table
            assert layout.read(layout.rows(p)) == table
            i, j = rng.randint(0, spare), rng.randint(0, order)
            shifted = {(a + i, b + j): v for (a, b), v in table.items()
                       if a + i <= order and b + j <= order}
            cut = layout.truncate(p << layout.shift(i, j))
            assert layout.read(layout.rows(cut)) == read_table(cut, layout) \
                == shifted
            i = rng.randint(0, order + off + 1)
            assert layout.read([layout.cut_row(row << bits * i)
                                for row in rows]) == {
                (a + i, b): v for (a, b), v in table.items()
                if a + i <= order}
    with pytest.raises(AssertionError, match="row room"):
        PackedLayout(3, 8, 2, 5)


def test_widened_tables_equal_slot_by_slot_repacks():
    # signed tables of the rows b <= order, room included, with slots at
    # +-(2^(B-1) - 1), re-slotted to every wider width and to the same one
    rng = random.Random(2009)
    for order, off, room in ((0, 0, 1), (2, 0, 5), (3, 2, 9), (6, 1, 13)):
        slots = [(a, b) for a in range(-off, room - off)
                 for b in range(order + 1)]
        for bits, wide in ((5, 5), (5, 6), (7, 16), (13, 64), (8, 9)):
            layout = PackedLayout(order, bits, off, room)
            target = PackedLayout(order, wide, off, room)
            top = (1 << (bits - 1)) - 1
            for _ in range(20):
                keys = rng.sample(slots, rng.randint(0, len(slots)))
                table = add_terms({}, ((k, rng.choice((-top, top, rng.randint(
                    -top, top)))) for k in keys))
                got = layout.widen(pack_table(layout, table), wide)
                assert got == pack_table(target, table), (order, bits, wide)
                assert read_table(got, target) == table
    with pytest.raises(AssertionError, match="slot width"):
        PackedLayout(3, 16, 1, 8).widen(0, 15)


def test_absent_cell_is_int_zero():
    s = BiSeries(2, {(1, 1): Fraction(1, 2)})
    assert s.coeff(0, 2) == 0
    assert type(s.coeff(0, 2)) is int
