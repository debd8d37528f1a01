"""Truncated bivariate power series in z1, z2 with exact coefficients.

Coefficients are kept as given, int or Fraction, so integer work stays in
int.

The truncation is a per-variable degree cap: only exponents (a, b) with
0 <= a, b <= order are stored, and arithmetic closes over that window.

`PackedLayout` packs the z2-rows of an integer Laurent table in z1 side by
side into one Python int (Kronecker substitution), so a product by a
monomial is one shift and, with room for it in each row, a product of
tables is one big-int multiply. A univariate polynomial with
nonnegative integer coefficients is packed the same way as its value at
z = 2^bits; `unpack` reads its coefficients back, and `check_width` asserts
that a slot width holds a bound. `omega` and `expand` build the wedge
expansions of the evaluators on z2-rows, and `PackedLayout.read` takes a
table's slots back from its z2-rows.
"""

from fractions import Fraction
from functools import lru_cache

from .xlaurent import add_terms


class BiSeries:
    __slots__ = ("order", "c")

    def __init__(self, order, coeffs=None):
        self.order = order
        self.c = {}
        if coeffs:
            for (a, b), v in coeffs.items():
                if a < 0 or b < 0:
                    raise ValueError("negative exponent (%d, %d)" % (a, b))
                if a <= order and b <= order and v:
                    self.c[(a, b)] = v

    @classmethod
    def const(cls, order, value):
        return cls(order, {(0, 0): value})

    @classmethod
    def monomial(cls, order, a, b, value=1):
        return cls(order, {(a, b): value})

    def copy(self):
        s = BiSeries(self.order)
        s.c = dict(self.c)
        return s

    def __bool__(self):
        return bool(self.c)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("truncation order mismatch: %d vs %d"
                             % (self.order, other.order))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiSeries.const(self.order, other)
        self._check(other)
        s = self.copy()
        add_terms(s.c, other.c.items())
        return s

    __radd__ = __add__

    def __neg__(self):
        s = BiSeries(self.order)
        s.c = {k: -v for k, v in self.c.items()}
        return s

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiSeries.const(self.order, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return BiSeries(self.order)
            s = BiSeries(self.order)
            s.c = {k: v * other for k, v in self.c.items()}
            return s
        self._check(other)
        D = self.order
        # inline per-term kernel: the constant-term sweep makes tens of
        # millions of term products here, so zeros are dropped once at the end
        out = {}
        for (a1, b1), v1 in self.c.items():
            for (a2, b2), v2 in other.c.items():
                a, b = a1 + a2, b1 + b2
                if a <= D and b <= D:
                    k = (a, b)
                    out[k] = out.get(k, 0) + v1 * v2
        s = BiSeries(D)
        s.c = {k: v for k, v in out.items() if v}
        return s

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.order == other.order and self.c == other.c

    def __hash__(self):
        return hash((self.order, frozenset(self.c.items())))

    def coeff(self, a, b):
        return self.c.get((a, b), 0)

    def is_symmetric(self):
        return all(self.c.get((b, a)) == v for (a, b), v in self.c.items())

    def is_nonneg_integral(self):
        return all(v >= 0 and v.denominator == 1 for v in self.c.values())

    def items_sorted(self):
        return sorted(self.c.items())

    def __repr__(self):
        terms = ", ".join("z1^%d*z2^%d: %s" % (a, b, v)
                          for (a, b), v in self.items_sorted())
        return "BiSeries(D=%d, {%s})" % (self.order, terms)


# ---------------------------------------------------------------------------
# Kronecker-packed integer series

def check_width(bits, bound):
    """Assert that a signed slot of width bits holds every integer of
    absolute value at most bound."""
    assert bound < 1 << (bits - 1), \
        "slot width %d too small for bound %d" % (bits, bound)


def unpack(p, bits):
    """The coefficient tuple, trimmed, of a polynomial packed as its value
    p >= 0 at z = 2^bits, whose coefficients all lie in [0, 2^bits)."""
    assert p >= 0, "a packed polynomial with a negative coefficient"
    digit, out = (1 << bits) - 1, []
    while p:
        out.append(p & digit)
        p >>= bits
    return tuple(out) or (0,)


def _tile(row, step, count):
    """sum(row << step*i for i in range(count)) for 0 <= row < 2^step, in
    O(count*step) bit operations: a block of 2^j copies doubles each
    round, and out takes the blocks of count's binary digits."""
    out, filled, block, size = 0, 0, row, 1
    while count:
        if count & 1:
            out |= block << step * filled
            filled += size
        count >>= 1
        if count:
            block |= block << step * size
            size *= 2
    return out


class PackedLayout:
    """Integer Laurent tables in z1 of the window -off <= a <= order,
    0 <= b <= order, each packed z2-major into one Python int (Kronecker
    substitution; Harvey, J. Symbolic Comput. 44, 2009): slot (a, b) at bit
    B*(b*room + a + off), room >= order + off + 1 slots per z2-row.

    A z2-row alone is one int with the coefficient of z1^a at bit
    B*(a + off), so times z1^s it is a shift by B*s; `place` puts the rows
    side by side and `rows` takes them apart. A table times z1^s z2^t is a
    shift by `shift(s, t)`; the slots of a row above a = order are room for
    such copies, whose slots past the window stay within the row while
    s <= room - order - off - 1. With off = 0 and room = 2*order + 1 the
    product of two tables, whose slots fill 0 <= a <= 2*order, never
    carries one row into the next, so sums and products of tables are
    int + and *. Every slot, of a table, of its shifted copies, of a
    product and of their sums, must lie in (-2^(B-1), 2^(B-1));
    `check_width(B, bound)` asserts a bound on them.

    `truncate(p, cap)` cuts p to the window -off <= a <= cap, 0 <= b <= cap
    in three int operations, ((p + BIAS) & KEEP) - KEEP_BIAS: BIAS puts
    2^(B-1) in every slot of the rows b <= cap, the room included, which
    makes each of them a digit in [0, 2^B), so no borrow crosses a slot and
    the rows above cannot reach the bits below them; KEEP masks the digits
    of the window and KEEP_BIAS takes their bias back off. The masks of
    each cap are built once. `cut_row` cuts a z2-row, or a product of rows,
    to its slots a <= order the same way. `widen` re-slots a table to a
    wider slot width, and `read` reads a table from its z2-rows.
    """

    __slots__ = ("order", "bits", "off", "room", "_row", "_masks")

    def __init__(self, order, bits, off=0, room=None):
        width = order + off + 1
        self.order, self.bits, self.off = order, bits, off
        self.room = width if room is None else room
        assert self.room >= width, "row room %d below the window's %d slots" \
            % (self.room, width)
        self._row = (_tile(1 << (bits - 1), bits, width),
                     (1 << bits * width) - 1)
        self._masks = {}

    def shift(self, a, b):
        """The left shift that multiplies a packed table by z1^a z2^b."""
        return self.bits * (b * self.room + a)

    def _mask(self, cap):
        """(BIAS, KEEP, KEEP_BIAS) of the window at cap."""
        m = self._masks.get(cap)
        if m is None:
            half, width = 1 << (self.bits - 1), cap + self.off + 1
            m = self._masks[cap] = tuple(
                _tile(row, self.bits * self.room, cap + 1) for row in (
                    _tile(half, self.bits, self.room),
                    (1 << self.bits * width) - 1,
                    _tile(half, self.bits, width)))
        return m

    def place(self, rows):
        """The int of the table whose z2-row b is the int rows[b]."""
        step = self.bits * self.room
        return sum(row << step * b for b, row in enumerate(rows))

    def rows(self, p):
        """The z2-rows b <= order of p, a packed table or a sum of its
        shifted copies and products, each cut to its slots a <= order."""
        q, step = p + self._mask(self.order)[0], self.bits * self.room
        half, keep = self._row
        return [((q >> step * b) & keep) - half
                for b in range(self.order + 1)]

    def cut_row(self, row):
        """The z2-row row, or a product of rows, cut to its slots a <= order."""
        bias, keep = self._row
        return ((row + bias) & keep) - bias

    def truncate(self, p, cap=None):
        """The packed table p, or a sum of its shifted copies and products,
        with every slot beyond the window at cap (default: order) cut."""
        bias, keep, keep_bias = self._mask(self.order if cap is None else cap)
        return ((p + bias) & keep) - keep_bias

    def widen(self, p, bits):
        """The rows b <= order of the table p at the slot width bits >= B,
        in the layout of the same window and room.

        The biased digits of the rows are spread in log-depth rounds: a
        block of 2h slots, h a power of two, keeps its lower h slots and
        moves its upper h up by h*(bits - B), one mask and one shift for all
        blocks at once, so the blocks of h slots then lie h*bits apart;
        after the last round every slot lies bits apart, and the bias comes
        back off at the new width."""
        assert bits >= self.bits, "slot width %d below the layout's %d" \
            % (bits, self.bits)
        count = (self.order + 1) * self.room
        q = (p + self._mask(self.order)[0]) & ((1 << self.bits * count) - 1)
        rounds, bias = self._spread(bits)
        for low, move in rounds:
            part = q & low
            q = part | ((q ^ part) << move)
        return q - bias

    def _spread(self, bits):
        """([(LOW, move)] of the rounds of `widen` to bits, its bias at
        bits)."""
        spread = self._masks.get(("widen", bits))
        if spread is None:
            count = (self.order + 1) * self.room
            half, rounds = 1 << (count - 1).bit_length(), []
            while half > 1:
                half //= 2
                rounds.append((_tile((1 << self.bits * half) - 1,
                                     2 * half * bits, -(-count // (2 * half))),
                               half * (bits - self.bits)))
            spread = self._masks[("widen", bits)] = (
                rounds, _tile(1 << (self.bits - 1), bits, count))
        return spread

    def read(self, rows):
        """The nonzero slots {(a, b): int} of the table whose z2-row b is the
        int rows[b], slots a < 0 included, at any slot width. A row is read
        from its lowest nonzero slot, the lowest set bit's, one signed digit
        at a time: a digit of 2^(B-1) or more is negative and carries one
        into the slots above it."""
        bits, digit = self.bits, (1 << self.bits) - 1
        half, full = 1 << (bits - 1), 1 << bits
        out = {}
        for b, row in enumerate(rows):
            if not row:
                continue
            a = ((row & -row).bit_length() - 1) // bits
            row >>= bits * a
            a -= self.off
            while row:
                v = row & digit
                row >>= bits
                if v >= half:
                    v -= full
                    row += 1
                if v:
                    out[(a, b)] = v
                a += 1
        return out


# ---------------------------------------------------------------------------
# wedge expansion: iterated Laurent series, z2 outermost, on packed z1-rows
#
# Every denominator a wedge factor creates is a product of (1 - z1^k), so a
# series is kept as integer Laurent polynomials in z1, one per z2-degree b,
# over one such product. Each polynomial is one int, a z2-row of a
# `PackedLayout`: the coefficient of z1^e sits at slot e + off, so times z1^p
# is a shift. `omega` updates the rows by shift-adds and extends the
# denominator, and `expand` multiplies each row once by the packed power
# series of 1/den. No polynomial gcd is taken.

class WedgeSeries:
    """Truncated series sum_b z2^b c_b(z1) / prod_{k in den} (1 - z1^k).

    c maps a z2-degree 0 <= b <= order to an integer Laurent polynomial,
    a dict z1-exponent -> nonzero int; den is a sorted tuple of positive k.
    No evaluator builds one; its product is the wedge-series oracle's.
    """

    __slots__ = ("order", "c", "den")

    def __init__(self, order, coeffs=None, den=()):
        self.order = order
        self.c = {}
        for b, num in (coeffs or {}).items():
            num = {e: v for e, v in num.items() if v}
            if 0 <= b <= order and num:
                self.c[b] = num
        self.den = tuple(sorted(den))

    def __mul__(self, other):
        D = self.order
        # inline per-term kernel; zeros are dropped once, by the constructor
        out = {}
        for b1, x in self.c.items():
            for b2, y in other.c.items():
                b = b1 + b2
                if b > D:
                    continue
                acc = out.setdefault(b, {})
                for e1, v1 in x.items():
                    for e2, v2 in y.items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + v1 * v2
        return WedgeSeries(D, out, self.den + other.den)


def split_monomials(char):
    """(shift, sign, den, steps) of the monomials m = z1^p z2^q, of
    multiplicity c, of a virtual character char, sorted as `omega` applies
    them. A large monomial (q < 0, or q = 0 > p) is made small,
    (1 - m)^(-1) = -m^(-1) / (1 - m^(-1)): its c copies shift the series by
    (-m^(-1))^c, so shift sums (-p, -q) times c and sign the signs. Then
    z1^p with p, c > 0 joins den, a list of k, c times, and every other
    monomial is a wedge step (p, q, c).
    """
    shift_p = shift_q = 0
    sign, den, steps = 1, [], []
    for (p, q), c in char.items_sorted():
        if (p, q) == (0, 0):
            raise ValueError("plethystic exponential undefined at the "
                             "trivial monomial")
        if c < 0 and q < 0:
            raise ValueError("cannot store z2-negative polynomial factor")
        if c > 0 and (q < 0 or q == 0 > p):
            p, q = -p, -q
            shift_p, shift_q, sign = shift_p + p * c, shift_q + q * c, \
                sign * (-1) ** c
        if c > 0 and q == 0:
            den += [p] * c
        else:
            steps.append((p, q, c))
    return (shift_p, shift_q), sign, den, steps


def omega(char, rows, den, layout):
    """Multiply sum_b z2^b rows[b] / prod_{k in den} (1 - z1^k) by the
    plethystic exponential of a virtual character, an XLaurent(2, ...) of
    weight multiplicities, and return the product as (rows, den).

    rows holds the layout.order + 1 z2-rows of `layout`, a `PackedLayout`,
    and is not changed. Omega(char) is the product over monomials
    m = z1^p z2^q of multiplicity c of (1 - m)^(-c), split by
    `split_monomials`: the series is shifted by the large monomials' shift
    before every other step, and rows shifted past the order are dropped.
    Then den grows, and for each wedge step row b gains z1^p times row
    b - q, bottom row up, to divide by 1 - m, and loses it, top row down,
    to multiply by 1 - m (c < 0, which needs q >= 0). No step lowers a
    z2-degree, so truncating at the order commutes with every step.

    Times z1^p is a shift by B*p, a right shift when p < 0. It is exact
    while no row reaches below its slot 0, z1^-off: the caller's depth
    `layout.off` must bound how deep the rows reach, and every right shift
    asserts that the bits it drops are zero. Every slot must stay within
    (-2^(B-1), 2^(B-1)), which the caller asserts with `check_width`.
    """
    order, bits = layout.order, layout.bits
    (shift_p, shift_q), sign, more, steps = split_monomials(char)
    rows = list(rows)
    if shift_p or shift_q:
        keep = max(0, order + 1 - shift_q)
        rows = [0] * (order + 1 - keep) + [
            sign * _times_z1(row, shift_p, bits) for row in rows[:keep]]
    for p, q, c in steps:
        for _ in range(abs(c)):
            for b in range(q, order + 1) if c > 0 else range(order, q - 1, -1):
                src = rows[b - q]
                if src:
                    src = _times_z1(src, p, bits)
                    rows[b] = rows[b] + src if c > 0 else rows[b] - src
    return rows, tuple(sorted((*den, *more)))


def _times_z1(row, p, bits):
    """A z2-row at slot width bits times z1^p; when p < 0 the slots it drops
    must be zero."""
    if p >= 0:
        return row << bits * p
    assert not row & ((1 << bits * -p) - 1), \
        "a z2-row reaches below the depth of its layout"
    return row >> bits * -p


@lru_cache(maxsize=None)
def den_series(den, length):
    """The coefficients of z1^0..z1^(length-1) of 1/prod_{k in den}(1 - z1^k),
    a tuple of nonnegative ints, nondecreasing when 1 is in den."""
    g = [1] + [0] * (length - 1)
    for k in den:
        for i in range(k, length):
            g[i] += g[i - k]
    return tuple(g)


@lru_cache(maxsize=None)
def _packed_den_series(den, length, bits):
    """`den_series(den, length)` as one z2-row of slot width bits."""
    return sum(v << bits * i for i, v in enumerate(den_series(den, length)))


def expand(rows, den, layout):
    """The z2-rows of sum_b z2^b rows[b] / prod_{k in den} (1 - z1^k), each
    cut to the window of `layout`, z1^-off..z1^order.

    A coefficient at z1^a, a <= order, takes the power series of 1/den only
    up to z1^(order + off), as no row reaches below z1^-off, so each row is
    multiplied once by that series, packed, and cut with `cut_row`. The
    slots of the window must stay within (-2^(B-1), 2^(B-1)); those above
    it only carry upwards, and the cut drops them.
    """
    g = _packed_den_series(den, layout.order + layout.off + 1, layout.bits)
    return [layout.cut_row(row * g) for row in rows]
