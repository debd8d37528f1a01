"""The e-Pieri rule and z-multinomials on integer coefficient tuples.

This is the Hall-Littlewood Pieri layer as it was written before the
theorem evaluator built its coefficients packed: every Gaussian binomial is
a coefficient tuple summed by `padd` from the q-Pascal recurrence, a
product of them is packed at a width of its own, multiplied and unpacked,
and each Pieri coefficient and z-multinomial is a tuple. It is slow but
plainly correct, and the tests use it as the oracle for the packed
`hall_littlewood.gaussian_binomial`, `z_multinomial` and `pieri_e`.
"""

from functools import lru_cache
from math import comb, prod
from types import MappingProxyType

from hilbeuler.hall_littlewood import _vertical_strips
from hilbeuler.partitions import as_partition, conjugate, multiplicities
from hilbeuler.ratfunc import padd
from hilbeuler.series import check_width, unpack


def pack(coeffs, bits):
    """The int sum_i coeffs[i] * 2^(bits*i) of a coefficient tuple whose
    entries lie in [0, 2^bits); it is the polynomial's value at z = 2^bits,
    so products and sums are int * and +."""
    return sum(v << bits * i for i, v in enumerate(coeffs) if v)


@lru_cache(maxsize=None)
def gaussian_binomial(a, b):
    """[a ; b]_z as an integer coefficient tuple; (0,) unless 0 <= b <= a."""
    if b < 0 or b > a:
        return (0,)
    if b == 0 or b == a:
        return (1,)
    # [a ; b] = [a-1 ; b-1] + z^b [a-1 ; b]
    return padd(gaussian_binomial(a - 1, b - 1),
                (0,) * b + gaussian_binomial(a - 1, b))


def gaussian_product(factors):
    """prod [a ; b]_z over (a, b) in factors, as an integer coefficient
    tuple, multiplied as packed ints and unpacked once. Every coefficient
    of every factor is nonnegative, so none of the product exceeds its
    value at z = 1, prod C(a, b), and that bound sets the slot width.
    Only factors with 0 < b < a are multiplied: the others are 1 (b = 0 or
    b = a) or 0 (b > a, which makes the bound and the product 0)."""
    bound = prod(comb(a, b) for a, b in factors)
    bits = bound.bit_length() + 1
    check_width(bits, bound)
    p = 1 if bound else 0
    for a, b in factors:
        if 0 < b < a:
            p *= pack(gaussian_binomial(a, b), bits)
    return unpack(p, bits)


def z_multinomial(lam, n):
    """[n]_z / b_{lam,n}(z) as an integer coefficient tuple: a product of
    Gaussian binomials over the multiplicities of lam, m_0 included."""
    factors, left = [], n
    for _, m in multiplicities(as_partition(lam), n):
        factors.append((left, m))
        left -= m
    return gaussian_product(factors)


@lru_cache(maxsize=None)
def pieri_e(mu, r, n):
    """e_r * P_mu on the P_lam with len(lam) <= n: read-only dict
    lam -> coefficient tuple of
    prod_i [lam'_i - lam'_(i+1) ; lam'_i - mu'_i]_z, over the vertical
    r-strips lam/mu in the order of `_vertical_strips`."""
    mu = as_partition(mu)
    if len(mu) > n:
        return MappingProxyType({})
    mc = conjugate(mu)
    out = {}
    for lam in _vertical_strips(mu + (0,) * (n - len(mu)), r):
        lc = conjugate(lam) + (0,)
        out[lam] = gaussian_product(
            [(lc[i] - lc[i + 1], lc[i] - (mc[i] if i < len(mc) else 0))
             for i in range(len(lc) - 1)])
    return MappingProxyType(out)
