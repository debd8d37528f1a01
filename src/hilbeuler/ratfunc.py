"""Exact univariate rational functions with integer-coefficient polynomials.

Polynomials are dense tuples indexed by degree. RationalFunction1 values are
always normalized: gcd(num, den) = 1 as polynomials, integer coefficients
whose joint content (the gcd of every coefficient of num and den) is 1, and
a positive lowest-degree nonzero denominator coefficient.

A constant, one int over one int, is normalised by one int gcd, and two
constants are added, multiplied and divided on ints without the polynomial
helpers; the general path gives a constant the same normal form.
"""

from fractions import Fraction
from math import gcd as int_gcd, lcm


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficients: int or Fraction)

def ptrim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p) if p else (0,)


def pis_zero(p):
    return all(not c for c in p)


def padd(a, b):
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def pneg(a):
    return tuple(-c for c in a)


def pmul(a, b):
    if pis_zero(a) or pis_zero(b):
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] += ca * cb
    return ptrim(out)


def pdegree(p):
    p = ptrim(p)
    return -1 if pis_zero(p) else len(p) - 1


def pdivmod(a, b):
    """Division with remainder over the rationals."""
    if pis_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    a = [Fraction(c) for c in ptrim(a)]
    b = [Fraction(c) for c in ptrim(b)]
    if pdegree(a) < pdegree(b):
        return (0,), ptrim(a)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    r = a[:]
    db, lb = len(b) - 1, b[-1]
    while not pis_zero(r) and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        c = r[-1] / lb
        q[shift] = c
        for i in range(len(b)):
            r[shift + i] -= c * b[i]
        while r and not r[-1]:
            r.pop()
        if not r:
            r = [Fraction(0)]
    return ptrim(q), ptrim(r)


def pgcd(a, b):
    """Monic polynomial gcd over the rationals."""
    a, b = ptrim(a), ptrim(b)
    while not pis_zero(b):
        _, r = pdivmod(a, b)
        a, b = b, r
    if pis_zero(a):
        return (0,)
    lead = Fraction(a[-1])
    return ptrim([Fraction(c) / lead for c in a])


def pmul_one_minus(p, ks):
    """p * prod_{k in ks} (1 - z^k): per factor q_i = p_i - p_{i-k}."""
    q = list(p)
    for k in ks:
        q += [0] * k
        for i in range(len(q) - 1, k - 1, -1):
            q[i] -= q[i - k]
    return ptrim(q)


def pdiv_one_minus(p, ks):
    """p / prod_{k in ks} (1 - z^k), for an integer polynomial p that the
    product divides. Each factor is a running sum q_i = p_i + q_{i-k}, the
    power series of p / (1 - z^k); it is a polynomial iff its top k terms
    vanish, and a ValueError is raised otherwise."""
    q = list(p)
    for k in ks:
        for i in range(k, len(q)):
            q[i] += q[i - k]
        top = max(len(q) - k, 0)
        if any(q[top:]):
            raise ValueError("%r is not divisible by 1 - z^%d" % (p, k))
        del q[top:]
    return ptrim(q)


class RationalFunction1:
    """Exact ratio of integer-coefficient polynomials in one parameter."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        if (len(num) == 1 == len(den)
                and type(num[0]) is int and type(den[0]) is int):
            # a constant: the gcd, negated with a negative denominator
            n, d = num[0], den[0]
            if not d:
                raise ZeroDivisionError("zero denominator")
            g = int_gcd(n, d)
            if d < 0:
                g = -g
            self.num, self.den = (n // g,), (d // g,)
            return
        num, den = ptrim(num), ptrim(den)
        if pis_zero(den):
            raise ZeroDivisionError("zero denominator")
        if pis_zero(num):
            self.num, self.den = (0,), (1,)
            return
        # a nonzero constant on either side makes the gcd 1
        if len(num) > 1 and len(den) > 1:
            g = pgcd(num, den)
            if pdegree(g) > 0:
                num, _ = pdivmod(num, g)
                den, _ = pdivmod(den, g)
        # one scale clears every denominator; dividing by the joint content,
        # negated if the lowest nonzero denominator coefficient is negative,
        # applies the sign rule
        scale = lcm(*(c.denominator for c in num + den))
        num = [int(c * scale) for c in num]
        den = [int(c * scale) for c in den]
        content = int_gcd(*num, *den)
        if next(c for c in den if c) < 0:
            content = -content
        self.num = tuple(c // content for c in num)
        self.den = tuple(c // content for c in den)

    # -- constructors -------------------------------------------------------
    @classmethod
    def const(cls, value):
        if type(value) is int:
            return cls((value,))
        f = Fraction(value)
        return cls((f.numerator,), (f.denominator,))

    @classmethod
    def z_power(cls, k):
        """z^k, with negative k represented as 1/z^(-k)."""
        if k >= 0:
            return cls((0,) * k + (1,))
        return cls((1,), (0,) * (-k) + (1,))

    # -- arithmetic ----------------------------------------------------------
    def __bool__(self):
        return not pis_zero(self.num)

    def __add__(self, other):
        other = _coerce(other)
        if _both_const(self, other):
            return RationalFunction1(
                (self.num[0] * other.den[0] + other.num[0] * self.den[0],),
                (self.den[0] * other.den[0],))
        return RationalFunction1(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        r = RationalFunction1.__new__(RationalFunction1)
        r.num, r.den = pneg(self.num), self.den
        return r

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if _both_const(self, other):
            return RationalFunction1((self.num[0] * other.num[0],),
                                     (self.den[0] * other.den[0],))
        return RationalFunction1(pmul(self.num, other.num),
                                 pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        if _both_const(self, other):
            return RationalFunction1((self.num[0] * other.den[0],),
                                     (self.den[0] * other.num[0],))
        return RationalFunction1(pmul(self.num, other.den),
                                 pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k):
        if k < 0:
            return RationalFunction1((1,)) / self ** (-k)
        out = RationalFunction1((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalFunction1):
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- queries -------------------------------------------------------------
    def is_polynomial(self):
        return pdegree(self.den) == 0

    def expand(self, order):
        """Taylor coefficients c_0..c_order about the origin.

        The normalized denominator must not vanish at zero, so its constant
        term is positive. When that term is 1 the recurrence never divides
        and the coefficients are ints; otherwise they are Fractions.
        """
        num, den = self.num, self.den
        if not den[0]:
            raise ValueError("not expandable at origin: denominator %r"
                             % (den,))
        out = []
        for k in range(order + 1):
            acc = num[k] if k < len(num) else 0
            for j in range(1, min(k, len(den) - 1) + 1):
                acc -= den[j] * out[k - j]
            out.append(acc if den[0] == 1 else Fraction(acc, den[0]))
        return out

    def __repr__(self):
        return "RationalFunction1(%r, %r)" % (self.num, self.den)

    def __str__(self):
        return rf_str(self)


def _both_const(a, b):
    return len(a.num) == len(a.den) == len(b.num) == len(b.den) == 1


def _coerce(x):
    if isinstance(x, RationalFunction1):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction1.const(x)
    raise TypeError("cannot coerce %r to RationalFunction1" % (x,))


RF0 = RationalFunction1((0,))
RF1 = RationalFunction1((1,))


# ---------------------------------------------------------------------------
# rendering

def poly_str(p):
    p = ptrim(p)
    if pis_zero(p):
        return "0"
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mono = "z" if i == 1 else "z^%d" % i
            if c == 1:
                term = mono
            elif c == -1:
                term = "-" + mono
            else:
                term = "%s*%s" % (c, mono)
            parts.append(term)
    s = parts[0]
    for t in parts[1:]:
        s += t if t.startswith("-") else "+" + t
    return s


def rf_str(r):
    ns = poly_str(r.num)
    if r.is_polynomial() and r.den == (1,):
        return ns
    ds = poly_str(r.den)
    if len(ptrim(r.num)) > 1 or ns.startswith("-"):
        ns = "(%s)" % ns
    return "%s/(%s)" % (ns, ds)
