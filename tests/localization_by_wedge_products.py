"""Fixed-point localization by wedge-series products.

This is the localization evaluator as it was written before it summed the
fixed points on packed ints: at every fixed point each p_lam term is built
as a product of `euler.WedgeSeries`, one power sum at a time, and expanded
on its own, and the expansions are summed in dicts. Omega and the
expansion are the dict wedge rule that `euler.omega` and `euler.expand`
replaced with packed z1-rows. It is slow but plainly correct, and the tests
use it as the oracle for `euler.euler_localization`, `euler.omega`,
`euler.expand` and `euler._localization_sums`.
"""

from hilbeuler.euler import (EulerResult, WedgeSeries, _apply_coefficients,
                             check_guards, fixed_point_data)
from hilbeuler.partitions import partitions_of
from hilbeuler.symfunc import to_p
from hilbeuler.xlaurent import add_terms


def omega(char, order, ws=None):
    """Multiply the wedge series ws (default 1) in place by the plethystic
    exponential of a virtual character, an XLaurent(2, ...) of weight
    multiplicities, and return it.

    Omega(char) is the product over monomials m = z1^p z2^q of multiplicity
    c of (1 - m)^(-c), each factor expanded by the wedge rule (z2
    outermost), one step per unit of c. A large monomial (q < 0, or
    q = 0 > p) is made small first: (1 - m)^(-1) = -m^(-1) / (1 - m^(-1)),
    so ws is shifted once by (-m^(-1))^c. Then z1^p with p > 0 joins den;
    otherwise row b gains z1^p times row b - q, bottom row up, to divide by
    1 - m, and loses it, top row down, to multiply by 1 - m (c < 0, which
    needs q >= 0). No step lowers a z2-degree, so truncating at order
    commutes with every step.
    """
    if ws is None:
        ws = WedgeSeries(order, {0: {0: 1}})
    for (p, q), c in char.items_sorted():
        if (p, q) == (0, 0):
            raise ValueError("plethystic exponential undefined at the "
                             "trivial monomial")
        if c < 0 and q < 0:
            raise ValueError("cannot store z2-negative polynomial factor")
        if c > 0 and (q < 0 or q == 0 > p):
            p, q, sign = -p, -q, (-1) ** c
            ws.c = {b + q * c: {e + p * c: sign * v for e, v in row.items()}
                    for b, row in ws.c.items() if b + q * c <= order}
        if c > 0 and q == 0:
            ws.den = tuple(sorted(ws.den + (p,) * c))
            continue
        rows = ws.c
        for _ in range(abs(c)):
            for b in range(q, order + 1) if c > 0 else range(order, q - 1, -1):
                src = rows.get(b - q)
                if src and not add_terms(rows.setdefault(b, {}), [
                        (e + p, v if c > 0 else -v) for e, v in src.items()]):
                    del rows[b]
    return ws


def expand(ws, hi):
    """Laurent coefficients {(a, b): int} for a <= hi of the wedge series
    ws: each numerator times the power series of 1/den, from its lowest z1
    exponent."""
    out = {}
    for b, num in ws.c.items():
        lo = min(num)
        if lo > hi:
            continue
        row = [0] * (hi - lo + 1)
        for e, v in num.items():
            if e <= hi:
                row[e - lo] = v
        for k in ws.den:
            for i in range(k, len(row)):
                row[i] += row[i - k]
        for i, v in enumerate(row):
            if v:
                out[(lo + i, b)] = v
    return out


def power_sum(char, k, order):
    """p_k of a character with nonnegative z2 powers, as a wedge series."""
    c = {}
    for (p, q), mult in char.c.items():
        num = c.setdefault(k * q, {})
        num[k * p] = num.get(k * p, 0) + mult
    return WedgeSeries(order, c)


def wedge_product_sums(lams, mus, order):
    """lam -> {(a, b): int}: the sum over the fixed points mus of
    Omega(cotangent_mu) p_lam(taut_mu), each term expanded for a <= order."""
    sums = {lam: {} for lam in lams}
    for mu in mus:
        data = fixed_point_data(mu)
        om = omega(data.cotangent_char, order)
        for lam, acc in sums.items():
            term = om
            for k in lam:
                term = term * power_sum(data.taut_char, k, order)
            add_terms(acc, expand(term, order).items())
    return sums


def localization_by_wedge_products(f, n, order):
    check_guards("localization", n, order)
    fp = to_p(f)
    sums = wedge_product_sums(fp.c, partitions_of(n), order)
    return EulerResult(_apply_coefficients(sums, fp.c, order))
