"""Truncated bivariate power series in z1, z2 with exact coefficients.

Coefficients are kept as given, int or Fraction, so integer work stays in
int.

The truncation is a per-variable degree cap: only exponents (a, b) with
0 <= a, b <= order are stored, and arithmetic closes over that window.

`PackedLayout` packs an integer series of the window, or a Laurent table
in z1 whose rows reach below it, into one Python int (Kronecker
substitution), so a product is one big-int multiply. A
univariate polynomial with nonnegative integer coefficients is packed the
same way as its value at z = 2^bits; `unpack` reads its coefficients back,
and `check_width` asserts that a slot width holds a bound.
"""

from fractions import Fraction

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
        return self.c.get((a, b), Fraction(0))

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
    """Integer series of the window -low <= a <= order, 0 <= b <= order,
    each packed into one Python int (Kronecker substitution; Harvey, J.
    Symbolic Comput. 44, 2009). low defaults to 0; a layout with low > 0
    holds Laurent tables in z1.

    Slot (a, b) holds a signed integer at bit B*((a + low)*(2*order + 1) + b),
    so a packed series is z1^low times its value at z2 = 2^B,
    z1 = 2^(B*(2*order + 1)), and sums and products are int + and *. A row
    is 2*order + 1 slots wide, so the product of two packed series, whose
    slots fill 0 <= b <= 2*order, never carries one row into the next. Every
    slot, of a packed series, of a product and of a sum of products, must
    lie in (-2^(B-1), 2^(B-1)); `check_width(B, bound)` asserts a bound on
    them.

    `truncate(p, cap)` cuts p to the window -low <= a <= cap,
    0 <= b <= cap in three int operations, ((p + BIAS) & KEEP) - KEEP_BIAS:
    BIAS puts 2^(B-1) in every slot of the rows a <= cap, which makes each
    of them a digit in [0, 2^B), so no borrow crosses a slot and the rows
    above cannot reach the bits below them; KEEP masks the digits of the
    window and KEEP_BIAS takes their bias back off. The masks of each cap
    are built once.

    `pack_table` and `unpack_table` convert Laurent tables in O(size): they
    need byte-aligned slots (B a multiple of 8) and go through
    `int.from_bytes` and `int.to_bytes` on the biased digits.
    """

    __slots__ = ("order", "bits", "stride", "low", "_masks")

    def __init__(self, order, bits, low=0):
        self.order = order
        self.bits = bits
        self.stride = 2 * order + 1
        self.low = low
        self._masks = {}

    def shift(self, a, b):
        """The left shift that multiplies a packed series by z1^a z2^b."""
        return self.bits * (a * self.stride + b)

    def _at(self, a, b):
        return self.shift(a + self.low, b)

    def _mask(self, cap):
        """(BIAS, KEEP, KEEP_BIAS) of the window -low <= a <= cap,
        0 <= b <= cap."""
        m = self._masks.get(cap)
        if m is None:
            half, digit = 1 << (self.bits - 1), (1 << self.bits) - 1
            cols = [self.shift(0, b) for b in range(self.stride)]
            row_bias = sum(half << at for at in cols)
            row_keep = sum(digit << at for at in cols[:cap + 1])
            row_half = sum(half << at for at in cols[:cap + 1])
            m = self._masks[cap] = tuple(
                _tile(row, self.shift(1, 0), self.low + cap + 1)
                for row in (row_bias, row_keep, row_half))
        return m

    def pack(self, series):
        """The int of an integer BiSeries of order at most this layout's."""
        return sum(v << self._at(a, b) for (a, b), v in series.c.items())

    def truncate(self, p, cap=None):
        """The packed series or product p with every slot beyond the window
        -low <= a <= cap, 0 <= b <= cap (default: order) cut."""
        bias, keep, keep_bias = self._mask(self.order if cap is None else cap)
        return ((p + bias) & keep) - keep_bias

    def unpack(self, p, cap):
        """BiSeries of order cap <= order of the slots 0 <= a, b <= cap of
        p, a packed series or an untruncated product."""
        q = p + self._mask(cap)[0]
        half, digit = 1 << (self.bits - 1), (1 << self.bits) - 1
        coeffs = {}
        for a in range(cap + 1):
            row = q >> self._at(a, 0)
            for b in range(cap + 1):
                v = ((row >> self.bits * b) & digit) - half
                if v:
                    coeffs[(a, b)] = v
        return BiSeries(cap, coeffs)

    def pack_table(self, table):
        """The int of a Laurent table {(a, b): int} of the window: every
        slot is written as its biased digit into one byte string, which is
        read as one int, and the bias is taken off."""
        bias = self._mask(self.order)[0]
        width, half = self.bits // 8, 1 << (self.bits - 1)
        low, stride = self.low, self.stride
        buf = bytearray(bias.to_bytes(self._at(self.order + 1, 0) // 8,
                                      "little"))
        digits = memoryview(buf)
        for (a, b), v in table.items():
            at = width * ((a + low) * stride + b)
            digits[at:at + width] = (v + half).to_bytes(width, "little")
        return int.from_bytes(buf, "little") - bias

    def unpack_table(self, p):
        """The nonzero slots {(a, b): int} of p, a packed series of the
        window, read from the byte string of its biased digits. The rows
        a < 0 are read only when p has a bit below row 0, which it has
        exactly when one of their slots is not zero."""
        width, half = self.bits // 8, 1 << (self.bits - 1)
        buf = (p + self._mask(self.order)[0]).to_bytes(
            self._at(self.order + 1, 0) // 8, "little")
        low = self.low if p & ((1 << self._at(0, 0)) - 1) else 0
        coeffs = {}
        for a in range(-low, self.order + 1):
            row = width * (a + self.low) * self.stride
            for b in range(self.order + 1):
                at = row + width * b
                v = int.from_bytes(buf[at:at + width], "little") - half
                if v:
                    coeffs[(a, b)] = v
        return coeffs
