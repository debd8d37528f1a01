"""Fixed-point localization by wedge-series products.

This is the localization evaluator as it was written before it summed the
fixed points on packed ints: at every fixed point each p_lam term is built
as a product of `euler.WedgeSeries`, one power sum at a time, and expanded
on its own, and the expansions are summed in dicts. It is slow but plainly
correct, and the tests use it as the oracle for
`euler.euler_localization` and `euler._localization_sums`.
"""

from hilbeuler.euler import (EulerResult, WedgeSeries, _apply_coefficients,
                             check_guards, fixed_point_data, omega)
from hilbeuler.partitions import partitions_of
from hilbeuler.symfunc import to_p
from hilbeuler.xlaurent import add_terms


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
            add_terms(acc, term.expand(order).items())
    return sums


def localization_by_wedge_products(f, n, order):
    check_guards("localization", n, order)
    fp = to_p(f)
    sums = wedge_product_sums(fp.c, partitions_of(n), order)
    return EulerResult(_apply_coefficients(sums, fp.c, order))
