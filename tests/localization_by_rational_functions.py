"""Fixed-point localization on gcd-normalised rational functions.

This is the localization evaluator as it was written before it moved to
integer Laurent numerators: every z2-coefficient is a RationalFunction1 in
z1, so each sum and product normalises by a polynomial gcd. It is slow but
plainly correct, and the tests use it as the oracle for `euler.omega`,
`euler.WedgeSeries` and `euler.euler_localization`.
"""

from hilbeuler.euler import fixed_point_data
from hilbeuler.partitions import partitions_of
from hilbeuler.ratfunc import RF0, RF1, RationalFunction1
from hilbeuler.series import BiSeries
from hilbeuler.symfunc import to_p


def _is_small(p, q):
    """Wedge rule: a monomial is expanded geometrically iff it is 'small'."""
    return q > 0 or (q == 0 and p > 0)


class WedgeSeries:
    """Truncated series in z2 whose coefficients are exact z1 rationals."""

    __slots__ = ("order", "c")

    def __init__(self, order, coeffs=None):
        self.order = order
        self.c = {}
        if coeffs:
            for b, v in coeffs.items():
                if 0 <= b <= order and v:
                    self.c[b] = v

    @classmethod
    def const(cls, order, rf):
        if not isinstance(rf, RationalFunction1):
            rf = RationalFunction1.const(rf)
        return cls(order, {0: rf})

    def __add__(self, other):
        out = dict(self.c)
        for b, v in other.c.items():
            nv = out.get(b, RF0) + v
            if nv:
                out[b] = nv
            else:
                out.pop(b, None)
        r = WedgeSeries(self.order)
        r.c = out
        return r

    def __mul__(self, other):
        D = self.order
        out = {}
        for b1, v1 in self.c.items():
            for b2, v2 in other.c.items():
                b = b1 + b2
                if b > D:
                    continue
                nv = out.get(b, RF0) + v1 * v2
                if nv:
                    out[b] = nv
                else:
                    out.pop(b, None)
        r = WedgeSeries(D)
        r.c = out
        return r

    def scale(self, rf):
        r = WedgeSeries(self.order)
        for b, v in self.c.items():
            nv = v * rf
            if nv:
                r.c[b] = nv
        return r

    def to_biseries(self):
        """Expand every z2-coefficient in z1; each must be holomorphic at 0."""
        D = self.order
        out = BiSeries(D)
        for b, rf in self.c.items():
            if not rf.den[0]:
                raise ArithmeticError(
                    "z2-coefficient of degree %d is not holomorphic at z1=0: "
                    "%s" % (b, rf))
            for a, v in enumerate(rf.expand(D)):
                if v:
                    out.c[(a, b)] = v
        return out


def wedge_inverse_factor(p, q, order):
    """(1 - z1^p z2^q)^(-1) expanded by the wedge rule."""
    if (p, q) == (0, 0):
        raise ValueError("plethystic exponential undefined at the trivial "
                         "monomial")
    ws = WedgeSeries(order)
    if _is_small(p, q):
        if q == 0:
            # 1/(1 - z1^p), p > 0: exact rational coefficient in degree 0
            ws.c[0] = RF1 / (RF1 - RationalFunction1.z_power(p))
        else:
            for k in range(order // q + 1):
                ws.c[k * q] = (ws.c.get(k * q, RF0)
                               + RationalFunction1.z_power(k * p))
    else:
        # large: (1 - m)^{-1} = -sum_{k>=1} m^{-k}
        if q == 0:
            # p < 0: -z1^{-p} / (1 - z1^{-p})
            zp = RationalFunction1.z_power(-p)
            ws.c[0] = -zp / (RF1 - zp)
        else:
            k = 1
            while -k * q <= order:
                ws.c[-k * q] = (ws.c.get(-k * q, RF0)
                                - RationalFunction1.z_power(-k * p))
                k += 1
    return ws


def wedge_poly_factor(p, q, order):
    """(1 - z1^p z2^q) as a wedge series (needs q >= 0)."""
    if q < 0:
        raise ValueError("cannot store z2-negative polynomial factor")
    ws = WedgeSeries(order, {0: RF1})
    if q <= order:
        ws.c[q] = ws.c.get(q, RF0) - RationalFunction1.z_power(p)
        if not ws.c[q]:
            del ws.c[q]
    return ws


def omega(char, order):
    """Plethystic exponential of a virtual character as a wedge series."""
    out = WedgeSeries.const(order, RF1)
    for (p, q), mult in char.items_sorted():
        if (p, q) == (0, 0):
            raise ValueError("plethystic exponential undefined at the "
                             "trivial monomial")
        if mult > 0:
            f = wedge_inverse_factor(p, q, order)
            for _ in range(mult):
                out = out * f
        else:
            f = wedge_poly_factor(p, q, order)
            for _ in range(-mult):
                out = out * f
    return out


def localization_by_rational_functions(f, n, order):
    """The fixed-point sum of f(taut) * Omega(cotangent), as a BiSeries."""
    fp = to_p(f)
    total = WedgeSeries(order)
    for mu in partitions_of(n):
        data = fixed_point_data(mu)
        feval = WedgeSeries(order)
        for lam, coef in fp.c.items():
            term = WedgeSeries.const(order, RF1)
            for k in lam:
                pk = WedgeSeries(order)
                for (p, q), mult in data.taut_char.c.items():
                    b = k * q
                    if b > order:
                        continue
                    pk.c[b] = (pk.c.get(b, RF0)
                               + RationalFunction1.z_power(k * p) * mult)
                term = term * pk
            feval = feval + term.scale(coef)
        total = total + feval * omega(data.cotangent_char, order)
    return total.to_biseries()


def from_rf_product(order, rf1, rf2):
    """BiSeries expansion of rf1(z1) * rf2(z2)."""
    c1 = rf1.expand(order)
    c2 = rf2.expand(order)
    s = BiSeries(order)
    for a, v1 in enumerate(c1):
        if not v1:
            continue
        for b, v2 in enumerate(c2):
            if v1 * v2:
                s.c[(a, b)] = v1 * v2
    return s
