"""Truncated bivariate power series in z1, z2 with exact coefficients.

Coefficients are kept as given, int or Fraction, so integer work stays in
int.

The truncation is a per-variable degree cap: only exponents (a, b) with
0 <= a, b <= order are stored, and arithmetic closes over that window.
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

    def __pow__(self, n):
        out = BiSeries.const(self.order, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.order == other.order and self.c == other.c

    def __hash__(self):
        return hash((self.order, frozenset(self.c.items())))

    def coeff(self, a, b):
        return self.c.get((a, b), Fraction(0))

    def swap_vars(self):
        s = BiSeries(self.order)
        s.c = {(b, a): v for (a, b), v in self.c.items()}
        return s

    def is_symmetric(self):
        return self == self.swap_vars()

    def is_nonneg_integral(self):
        return all(v >= 0 and v.denominator == 1 for v in self.c.values())

    def items_sorted(self):
        return sorted(self.c.items())

    def __repr__(self):
        terms = ", ".join("z1^%d*z2^%d: %s" % (a, b, v)
                          for (a, b), v in self.items_sorted())
        return "BiSeries(D=%d, {%s})" % (self.order, terms)


def geometric(order, axis):
    """Sum of z_axis^k over the window (axis 1 or 2)."""
    s = BiSeries(order)
    for k in range(order + 1):
        s.c[(k, 0) if axis == 1 else (0, k)] = 1
    return s

