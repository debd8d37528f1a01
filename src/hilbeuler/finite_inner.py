"""Finite-variable Hall-Littlewood inner product via its constant-term formula.

The pairing is (1/n!) [X]_1 f(X) g(1/X) * prod_{i != j} (1 - x_i/x_j) /
(1 - z x_i/x_j). For each unordered pair of variables, the two geometric
factors combine into an exact bilateral expansion

    (1-u)(1-1/u) / ((1-zu)(1-z/u)) = sum_m w(m) u^m,
    w(0) = 2/(1+z),   w(m) = -z^{|m|-1} (1-z)/(1+z)  for m != 0,

so the constant term is a finite sum plus explicitly summed geometric tails;
no truncation in z occurs anywhere.
"""

from functools import lru_cache

from .ratfunc import RF0, RF1, RationalFunction1
from .symfunc import to_finite_vars

_ONE_PLUS_Z = RationalFunction1((1, 1))
_ONE_MINUS_Z = RationalFunction1((1, -1))
_W_TAIL = -_ONE_MINUS_Z / _ONE_PLUS_Z  # coefficient of z^{|m|-1}, m != 0


@lru_cache(maxsize=None)
def _w(m):
    """Bilateral pair-kernel coefficient at u^m."""
    if m == 0:
        return RationalFunction1((2,)) / _ONE_PLUS_Z
    return _W_TAIL * RationalFunction1.z_power(abs(m) - 1)


@lru_cache(maxsize=None)
def _inner3(a, b):
    """Exact value of sum over m in Z of w(m) w(a - m) w(b + m)."""
    m_hi = max(0, a, -b) + 1
    m_lo = -(max(0, -a, b) + 1)
    acc = RF0
    for m in range(m_lo, m_hi + 1):
        acc = acc + _w(m) * _w(a - m) * _w(b + m)
    t3 = _W_TAIL ** 3
    geo3 = RF1 / RationalFunction1((1, 0, 0, -1))  # 1/(1 - z^3)
    # m > m_hi: exponent (m-1) + (m-a-1) + (m+b-1) = 3m - a + b - 3
    acc = acc + t3 * RationalFunction1.z_power(3 * (m_hi + 1) - a + b - 3) * geo3
    # m < m_lo: exponent (-m-1) + (a-m-1) + (-b-m-1) = -3m + a - b - 3
    acc = acc + t3 * RationalFunction1.z_power(-3 * (m_lo - 1) + a - b - 3) * geo3
    return acc


def hl_inner_finite(f, g, n):
    """Hall-Littlewood inner product in n variables, exact in the parameter.

    Supported for n <= 3 (the evaluators and the verification suites never
    need more); larger n raises.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if n > 3:
        raise ValueError("finite inner product is implemented exactly "
                         "for n <= 3 only (got n=%d)" % n)
    lhs = to_finite_vars(f, n)
    rhs = to_finite_vars(g, n, inverted=True)
    prod = lhs * rhs
    acc = RF0
    if n == 1:
        acc = prod.coeff((0,), RF0)
        return acc
    if n == 2:
        for (b1, b2), coef in prod.c.items():
            if b1 + b2 != 0:
                continue
            acc = acc + coef * _w(-b1)
        return acc / 2
    for (b1, b2, b3), coef in prod.c.items():
        if b1 + b2 + b3 != 0:
            continue
        acc = acc + coef * _inner3(-b1, -b2)
    return acc / 6
