"""The quiver constant-term formula on Fraction-valued series.

This is the constant-term evaluator as it was written before it moved to
integer kernels: the pair and delta kernels are dicts of BiSeries with
Fraction coefficients built by hand-written bilateral convolutions, f is
multiplied in as f(x_1..x_n) with its coefficients expanded in z1, and the
pairing carries the factors sum (z1z2)^k and (1 - z1z2) explicitly. It is
slow but plainly correct, and the tests use it as the oracle for
`euler.euler_constant_term`.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from hilbeuler.series import BiSeries
from hilbeuler.symfunc import to_finite_vars, to_p
from symfunc_helpers import degree

ONE = Fraction(1)


def geometric(order, axis):
    """Sum of z_axis^k over the window (axis 1 or 2)."""
    return BiSeries(order, {(k, 0) if axis == 1 else (0, k): ONE
                            for k in range(order + 1)})


def power(s, n):
    """The BiSeries s to the n-th power, n >= 0."""
    out = BiSeries.const(s.order, ONE)
    for _ in range(n):
        out = out * s
    return out


def geometric_z1z2(order):
    """Sum of (z1*z2)^k over the window."""
    return BiSeries(order, {(k, k): ONE for k in range(order + 1)})


def shift(s, da, db):
    """s times z1^da * z2^db (da, db >= 0)."""
    out = BiSeries(s.order)
    for (a, b), v in s.c.items():
        if a + da <= s.order and b + db <= s.order:
            out.c[(a + da, b + db)] = v
    return out


@lru_cache(maxsize=None)
def pair_kernel(order):
    """Bilateral expansion in u = x_i/x_j of the ordered-pair factors

    (1-u)(1-1/u)(1-z1z2*u)(1-z1z2/u) / ((1-z1*u)(1-z1/u)(1-z2*u)(1-z2/u))

    with the z-geometric factors truncated at the window order. Returns a
    dict u-exponent -> BiSeries.
    """
    one = BiSeries.const(order, ONE)
    z1z2 = BiSeries.monomial(order, 1, 1, ONE)
    factors = [
        {0: one, 1: -one},
        {0: one, -1: -one},
        {0: one, 1: -z1z2},
        {0: one, -1: -z1z2},
    ]
    for axis in (1, 2):
        up, down = {}, {}
        for k in range(order + 1):
            mono = BiSeries.monomial(order, k, 0, ONE) if axis == 1 \
                else BiSeries.monomial(order, 0, k, ONE)
            up[k] = mono
            down[-k] = down.get(-k, BiSeries(order)) + mono
        factors.append(up)
        factors.append(down)
    acc = {0: one}
    for fac in factors:
        nxt = {}
        for m1, b1 in acc.items():
            for m2, b2 in fac.items():
                prod = b1 * b2
                if not prod:
                    continue
                m = m1 + m2
                cur = nxt.get(m)
                nv = prod if cur is None else cur + prod
                if nv:
                    nxt[m] = nv
                else:
                    nxt.pop(m, None)
        acc = nxt
    return acc


@lru_cache(maxsize=None)
def delta_kernel(n, order, slack):
    """Product of pair kernels over all unordered variable pairs, as a dict
    exponent-vector -> BiSeries. Entries that cannot be raised back into the
    nonnegative orthant within the remaining budget are dropped."""
    pk = pair_kernel(order)
    acc = {(0,) * n: BiSeries.const(order, ONE)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for pi, (i, j) in enumerate(pairs):
        last = pi == len(pairs) - 1
        nxt = {}
        for v, bs in acc.items():
            for m, km in pk.items():
                prod = bs * km
                if not prod:
                    continue
                w = list(v)
                w[i] += m
                w[j] -= m
                w = tuple(w)
                if last and sum(-x for x in w if x < 0) > order + slack:
                    continue
                cur = nxt.get(w)
                nv = prod if cur is None else cur + prod
                if nv:
                    nxt[w] = nv
                else:
                    nxt.pop(w, None)
        acc = nxt
    return acc


def constant_term_by_fractions(f, n, order):
    """Pair delta_kernel * f(x_1..x_n) against Omega(1/X), as a BiSeries."""
    fp = to_p(f)
    fx = to_finite_vars(fp, n)
    kern = delta_kernel(n, order, degree(fp))
    # multiply in f(X), whose coefficients are rationals in z1
    prod = {}
    for v, bs in kern.items():
        for w, rf in fx.c.items():
            coef = BiSeries(order)
            for a, cv in enumerate(rf.expand(order)):
                if cv:
                    coef.c[(a, 0)] = cv
            term = bs * coef
            if not term:
                continue
            key = tuple(a + b for a, b in zip(v, w))
            cur = prod.get(key)
            nv = term if cur is None else cur + term
            if nv:
                prod[key] = nv
            else:
                prod.pop(key, None)
    # pair against Omega(1/X): sum over the nonnegative orthant, with the
    # Omega(z1z2 X) factor supplying the monomials that raise exponents
    shifted = BiSeries(order)
    for v, bs in prod.items():
        raise_cost = sum(-x for x in v if x < 0)
        if raise_cost > order:
            continue
        shifted = shifted + shift(bs, raise_cost, raise_cost)
    total = shifted * power(geometric_z1z2(order), n)
    prefactor = power((BiSeries.const(order, ONE)
                       - BiSeries.monomial(order, 1, 1, ONE))
                      * geometric(order, 1) * geometric(order, 2), n)
    return total * prefactor * Fraction(1, factorial(n))
