"""Equivariant Euler characteristics of tautological classes, three ways.

The evaluators are independent up to their last step: fixed-point
localization (iterated Laurent expansion, z2 outermost), the quiver
constant-term formula (nonnegative-orthant pairing), and the
Hall-Littlewood summation formula. Each builds, for every basis element of
f, a Laurent table in z1, z2 in integers, from series kept as packed
z1-rows, one int per z2-degree, over a product of (1 - z1^k) that
`expand` divides out: localization sums the expanded Omega of each fixed
point times the basis element on packed ints, and the other two expand one
such series per basis element, and reads the table from its z2-rows.
`_basis_tables` keeps each table per (method, n, order, basis element),
so a later call builds only the tables it lacks. `_apply_coefficients`
then multiplies in f's coefficients, integer polynomials in z1 that each
evaluator checks before it builds anything, and nothing comes after it.
The plethystic exponentials of the first two are applied to the rows by
`omega`, one shift-add per row and wedge-rule step. `cross_check`
compares the three coefficient by coefficient.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import groupby
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import add

from .partitions import arm_leg, as_partition, cells, partitions_of
from .series import (BiSeries, PackedLayout, WedgeSeries, check_width,
                     den_series, expand, omega, split_monomials, unpack)
from .symfunc import convert, p_in_x, schur_positive, to_p
from .xlaurent import XLaurent, add_terms
# perfbench/tracer.py rebinds expand_in_P, hl_P, k_exponent and multiply in
# this module by name, so they stay imported here although only k_exponent
# is called. It also wraps omega, fixed_point_data, WedgeSeries.__mul__,
# the three evaluators and _delta_kernel by name in this module, so omega
# and WedgeSeries are imported here too; euler_localization calls the first
# two through those names and euler_constant_term calls omega, so a traced
# run counts them. No evaluator builds a WedgeSeries: the class and its
# __mul__ stay for the tracer and for the test oracles.
from .hall_littlewood import (expand_in_P, hl_P, k_exponent, multiply,
                              pieri_e, z_multinomial)

#: the evaluators, by the names `evaluate` and the CLI take
METHODS = ("theorem", "localization", "constant-term")

#: honest desk-scale guards; at MAX_DEG_CONSTANT_TERM, chi of s[1] at
#: n = 3 by the constant-term evaluator takes under 10 s in a fresh process
#: (8.8-9.4 s on a 2-core x86_64 box, CPython 3.11; D = 34 takes 10.3-11 s)
MAX_N_CONSTANT_TERM = 3
MAX_DEG_CONSTANT_TERM = 33
MAX_N = 6


class GuardError(ValueError):
    pass


def check_guards(method, n, order, force=False):
    """Raise GuardError if the evaluator named method refuses n points at
    max degree order. Each evaluator calls it before any work, and
    cross_check calls it for every method before running any."""
    if n < 1:
        raise GuardError("n must be >= 1")
    if order < 0:
        raise GuardError("max degree must be >= 0")
    if method == "constant-term" and not force:
        for what, value, cap in (("n", n, MAX_N_CONSTANT_TERM),
                                 ("max degree", order, MAX_DEG_CONSTANT_TERM)):
            if value > cap:
                raise GuardError("constant-term evaluator refuses %s > %d "
                                 "(only the API can override: "
                                 "euler_constant_term(..., force=True))"
                                 % (what, cap))
    if n > MAX_N:
        raise GuardError("%s evaluator refuses n > %d" % (method, MAX_N))


# ---------------------------------------------------------------------------
# fixed-point data

#: characters at a fixed point: integer combinations of torus weights
#: z1^p z2^q, as XLaurent(2, {(p, q): multiplicity})
FixedPointData = namedtuple("FixedPointData", "taut_char cotangent_char")


def fixed_point_data(mu):
    """Tautological-fiber and cotangent-fiber characters at a fixed point.

    z1 tracks the arm (row) direction and z2 the leg (column) direction.
    The other orientation, which swaps z1 and z2, gives at mu the
    characters this one gives at the conjugate partition mu', so a sum over
    every mu of n has the same terms either way (the "row" convention of
    the CLI's JSON output).
    """
    mu = as_partition(mu)
    taut, cot = XLaurent(2), XLaurent(2)
    for (i, j) in cells(mu):
        a, l = arm_leg(mu, (i, j))
        add_terms(taut.c, [((j, i), 1)])
        add_terms(cot.c, [((a + 1, -l), 1), ((-a, l + 1), 1)])
    return FixedPointData(taut, cot)


# ---------------------------------------------------------------------------
# results

EulerResult = namedtuple("EulerResult", "series")


# ---------------------------------------------------------------------------
# one table per basis element, and f's coefficients, applied once for every
# evaluator

#: (method, n, order, lam) -> the Laurent table of the basis element lam,
#: which depends on nothing else, so every call in the process shares it
_TABLES = {}


def _basis_tables(method, n, order, lams, build):
    """lam -> Laurent table for every lam in lams, served from `_TABLES`;
    build(missing) gives the tables of the lams not cached yet."""
    missing = [lam for lam in lams if (method, n, order, lam) not in _TABLES]
    if missing:
        for lam, table in build(missing).items():
            _TABLES[(method, n, order, lam)] = table
    return {lam: _TABLES[(method, n, order, lam)] for lam in lams}


def _holomorphic_part(coeffs, order):
    """BiSeries of Laurent coefficients {(a, b): value} that vanish at a < 0."""
    coeffs = {key: v for key, v in coeffs.items() if v}
    poles = sorted((b, a) for a, b in coeffs if a < 0)
    if poles:
        b, a = poles[0]
        raise ArithmeticError(
            "z2-coefficient of degree %d is not holomorphic at z1=0: "
            "z1^%d has coefficient %s" % (b, a, coeffs[(a, b)]))
    return BiSeries(order, coeffs)


def _polynomial_coefficients(g):
    """The coefficients {lam: c} of the SymFunc g, each checked to be an
    integer polynomial in z1 over one positive integer: raise ValueError at
    the first that is not. Every f of the expression grammar passes, as the
    P/Q atoms have polynomial coefficients (Macdonald III.2), so a
    z-denominator only comes through the API."""
    for lam, c in g.c.items():
        if len(c.den) != 1:
            raise ValueError("the coefficient %s of %s[%s] is not a "
                             "polynomial in z1"
                             % (c, g.basis, ",".join(map(str, lam))))
    return g.c


def _apply_coefficients(tables, coeffs, order, den=1):
    """BiSeries of sum over lam of coeffs[lam] * tables[lam] / den.

    Each table is {(a, b): int}, a Laurent table in z1 that must be exact
    for a <= order, and each coefficient an integer polynomial in z1 over
    one positive integer (see `_polynomial_coefficients`), so a product
    term at a <= order needs table entries at a <= order only. The
    numerators are scaled to the common denominator, the sum is taken in
    ints, and each coefficient of it is divided by that denominator times
    den: an int where the division is exact, a Fraction only where it is
    not. The sum must be holomorphic at z1 = 0.
    """
    common = lcm(*(coeffs[lam].den[0] for lam in tables))
    # inline per-term kernel: every table entry meets every nonzero term of
    # its coefficient up to the window; zeros of the sum are dropped once,
    # by _holomorphic_part
    total = {}
    for lam, table in tables.items():
        num, scale = coeffs[lam].num, common // coeffs[lam].den[0]
        terms = [(i, w * scale) for i, w in enumerate(num) if w]
        for (a, b), v in table.items():
            for i, w in terms:
                if a + i > order:
                    break
                key = (a + i, b)
                total[key] = total.get(key, 0) + v * w
    common *= den
    if common != 1:
        for key, v in total.items():
            q, r = divmod(v, common)
            total[key] = Fraction(v, common) if r else q
    return _holomorphic_part(total, order)


# ---------------------------------------------------------------------------
# evaluator 1: fixed-point localization

def _omega_reach(char, order):
    """(depth, bound) of Omega(char) at a fixed point, expanded by `omega`
    and `expand` from the series 1: a depth that no row reaches below, and
    a bound on every slot of its rows and of its expansion.

    char is a cotangent character: every multiplicity is positive, and the
    corner cell of the partition brings the weights z1 and z2. Its large
    monomials z1^p z2^q (q < 0, so p > 0) shift the series by
    z1^-(pc) z2^(-qc) and then act as small ones, z1^-p z2^-q; its
    monomials with q = 0 have p > 0 and form den (`split_monomials`). After
    the shifts, every step adds to a row a shifted copy of another, and all
    of them carry the sign (-1)^(sum of the shifts' c), so no step cancels
    a term.

    Depth: the shifts take z1 down by S = sum pc and use T = sum -qc of the
    z2-degree, so a term in the window got at most B = order - T from the
    steps z1^p z2^q with q > 0, each of them at most -p/q lower per unit of
    z2-degree. So no row reaches below -(S + max floor(-p B / q)).

    Bound: with z1 set to 1, the steps leave in row T + b the coefficient
    N_b of z2^b in prod (1 - z2^q)^(-c), which is nondecreasing in b since
    one q is 1, so every slot of every row, at every step, is at most
    N_B. The series of 1/den is nonnegative and nondecreasing, since one
    k is 1, so a slot of the expansion at z1^a, a <= order, is at most
    N_B times its coefficient at z1^(order + depth). When B < 0 no term
    reaches the window and both are 0.
    """
    (shift_p, shift_q), _, den, steps = split_monomials(char)
    budget = order - shift_q
    if budget < 0:
        return 0, 0
    depth = -shift_p + max((-p * budget // q for p, q, _ in steps if p < 0),
                           default=0)
    counts = [1] + [0] * budget
    for _, q, c in steps:
        for _ in range(c):
            for b in range(q, budget + 1):
                counts[b] += counts[b - q]
    return depth, counts[budget] * den_series(tuple(sorted(den)),
                                               order + depth + 1)[-1]


def _localization_layout(lams, n, order, depth, bound):
    """The `PackedLayout` of `_localization_sums` for lams: rows down to depth,
    the slot width of `_localization_bound`, and room for the power sums'
    z1-shifts."""
    return PackedLayout(order,
                        _localization_bound(bound, lams, n).bit_length() + 1,
                        depth, _localization_room(lams, n, order, depth))


def _localization_bound(bound, lams, n):
    """Bound on every slot of the packed sums of `_localization_sums`:
    n^l * bound, with bound the sum over the fixed points of their
    `_omega_reach` bounds and l the largest length in lams.

    p_k(taut_mu) is a sum of n monomials z1^(kj) z2^(ki), one per cell
    (i, j) of mu, each of coefficient 1 and of nonnegative degrees. So a
    slot of E_mu times p_k(taut_mu), as of any partial sum of its shifted
    copies, is a sum of at most n slots of E_mu, and after the l power sums
    of p_lam a slot is at most n^l max|E_mu|; cutting to the window only
    drops slots. Summing over mu adds the bounds.
    """
    return n ** max(map(len, lams), default=0) * bound


def _localization_room(lams, n, order, depth):
    """Row room for the z1-shifts of p_k(taut_mu), k a part of lams: a cell
    (i, j) of mu has j <= n - 1 and shifts by kj, and a shift beyond
    order + depth takes the whole window past z1^order, so it is skipped."""
    part = max((max(lam) for lam in lams if lam), default=0)
    return order + depth + 1 + min(order + depth, part * (n - 1))


def _expanded_fixed_points(data, layout, bound):
    """[(taut_mu, E_mu)] for the `FixedPointData` of data: E_mu is
    Omega(cotangent_mu) expanded by `omega` and `expand` and placed in
    layout, whose depth must be at least every `_omega_reach` depth of the
    fixed points and whose slots must hold bound, the sum of their
    bounds."""
    check_width(layout.bits, bound)
    one = [1 << layout.bits * layout.off] + [0] * layout.order
    return [(d.taut_char, layout.place(expand(
        *omega(d.cotangent_char, one, (), layout), layout))) for d in data]


def _localization_sums(fixed, lams, n, layout, bound):
    """lam -> {(a, b): int}, a <= order: the sum over the fixed points
    (taut_mu, E_mu) of `fixed` of E_mu times p_lam(taut_mu), cut to the
    window of layout, whose slots must hold `_localization_bound` and whose
    room must hold `_localization_room` for the parts of lams.

    p_k(taut_mu) multiplies E_mu as one shift-add per cell of mu whose
    shift stays below the window's top, z2^order and z1^(order + depth),
    and the product is cut back to the window after every power sum.
    Products are shared between lams with a common prefix, the fixed
    points are summed as ints, and each sum is read once from its z2-rows,
    its slots a < 0 included, so `_holomorphic_part` sees any pole.
    """
    order, off = layout.order, layout.off
    check_width(layout.bits, _localization_bound(bound, lams, n))
    assert layout.room >= _localization_room(lams, n, order, off), \
        "row room %d too small for the power sums' shifts" % layout.room
    totals = dict.fromkeys(lams, 0)
    for taut, table in fixed:
        prods = {(): table}
        for lam in totals:
            for i, k in enumerate(lam):
                if lam[:i + 1] not in prods:
                    x = prods[lam[:i]]
                    prods[lam[:i + 1]] = layout.truncate(sum(
                        x << layout.shift(k * p, k * q) for p, q in taut.c
                        if k * q <= order and k * p <= order + off))
            totals[lam] += prods[lam]
    return {lam: layout.read(layout.rows(p)) for lam, p in totals.items()}


#: (n, order) -> [fixed-point data, depth, bound, layout, expanded fixed
#: points]: the fixed points of every localization call at (n, order),
#: expanded at the widest layout any call has needed yet
_FIXED = {}


def _fixed_points(n, order, lams):
    """(layout, fixed, bound) for `_localization_sums` of lams at n points:
    the fixed points of `_FIXED`, expanded again only when lams need more
    slot width or row room than their layout has."""
    entry = _FIXED.get((n, order))
    if entry is None:
        data = [fixed_point_data(mu) for mu in partitions_of(n)]
        reach = [_omega_reach(d.cotangent_char, order) for d in data]
        entry = _FIXED[(n, order)] = [
            data, max(depth for depth, _ in reach),
            sum(bound for _, bound in reach), None, None]
    data, depth, bound, layout, fixed = entry
    need = _localization_layout(lams, n, order, depth, bound)
    if layout is None or need.bits > layout.bits or need.room > layout.room:
        if layout is not None:
            need = PackedLayout(order, max(need.bits, layout.bits), depth,
                                max(need.room, layout.room))
        layout, fixed = entry[3:] = need, _expanded_fixed_points(
            data, need, bound)
    return layout, fixed, bound


def euler_localization(f, n, order):
    """Sum over fixed points mu of f(taut_mu) * Omega(cotangent_mu).

    With f = sum c_lam p_lam, the p_lam not in `_basis_tables` yet are
    summed by `_localization_sums` over the fixed points of `_FIXED`: each
    Omega(cotangent_mu) is expanded once per (n, order) into its packed
    table E_mu, and again only for a wider layout. `_apply_coefficients`
    then multiplies in c_lam, which is a polynomial in z1 for P/Q atoms.
    """
    check_guards("localization", n, order)
    coeffs = _polynomial_coefficients(to_p(f))

    def build(lams):
        layout, fixed, bound = _fixed_points(n, order, lams)
        return _localization_sums(fixed, lams, n, layout, bound)

    return EulerResult(_apply_coefficients(
        _basis_tables("localization", n, order, coeffs, build), coeffs, order))


# ---------------------------------------------------------------------------
# evaluator 2: quiver constant-term formula

def _kernel_layout(order, bits):
    """The `PackedLayout` of the constant-term kernel at slot width bits:
    no depth, and z2-rows of 2*order + 1 slots, so that a product of two
    tables is one int multiply."""
    return PackedLayout(order, bits, 0, 2 * order + 1)


def _pair_kernel(order, bits):
    """Bilateral expansion in u = x_i/x_j of the ordered-pair factors

    (1-u)(1-1/u)(1-z1z2*u)(1-z1z2/u) / ((1-z1*u)(1-z1/u)(1-z2*u)(1-z2/u)),

    truncated at the window order: u-exponent m -> its nonzero coefficient,
    one int of `_kernel_layout(order, bits)`. bits must hold
    2^4 (order + 1)^4.

    The series is kept as its u-coefficients, and each factor is one
    recurrence over m whose every step is a shift and a truncate. Times
    1 - c u^s (s = 1 or -1) is the difference new[m] = old[m] - c old[m - s];
    over 1 - c u^s, c = z1 or z2, is the running sum
    new[m] = old[m] + c new[m - s], taken in the direction of s. The running
    sum divides by the whole geometric series, whose terms past c^order
    leave the window, so it equals the product with the factor truncated at
    c^order.

    Bit width: a slot of a step, before its truncate, is a signed sum of
    distinct coefficients of the series before the step, so it is at most
    that series' l1 norm. After the step the series is the product with the
    truncated factor, cut to the window; the l1 norm of a product is at most
    the product of the l1 norms, and truncation only drops terms. So every
    slot is bounded by 2^4 (order + 1)^4: four binomials of norm 2 and four
    geometric series of order + 1 terms.

    Signs: u -> -u and z1, z2 -> -z1, -z2 turn every factor into one of
    nonnegative coefficients, (1+u)(1+1/u)(1+z1z2*u)(1+z1z2/u) over the same
    denominators, so the coefficient of u^m z1^a z2^b is (-1)^(m+a+b) times
    a nonnegative one, and sum_m |K_m| is that product at u = 1:
    4 (1 + z1z2)^2 / ((1 - z1)^2 (1 - z2)^2), cut to the window.
    """
    check_width(bits, 16 * (order + 1) ** 4)
    layout = _kernel_layout(order, bits)
    series = {0: 1}
    for a, b, sign in ((0, 0, -1), (1, 1, -1), (1, 0, 1), (0, 1, 1)):
        shift, reach = layout.shift(a, b), order if sign > 0 else 1
        for s in (1, -1):
            lo, hi = min(series), max(series)
            new = {}
            for m in (range(lo, hi + reach + 1) if s > 0
                      else range(hi, lo - reach - 1, -1)):
                prev = (new if sign > 0 else series).get(m - s, 0)
                new[m] = layout.truncate(series.get(m, 0)
                                         + (sign * prev << shift))
            series = new
    return {m: p for m, p in series.items() if p}


def _raise_cost(v):
    """z1z2-degree that Omega(z1z2 X) spends raising x^v into the
    nonnegative orthant."""
    return sum(-x for x in v if x < 0)


@lru_cache(maxsize=None)
def _orbit_size(w):
    """Number of distinct permutations of the exponent vector w, sorted."""
    size = factorial(len(w))
    for _, run in groupby(w):
        size //= factorial(len(list(run)))
    return size


def _row_end_caps(v, i, order, budget, top, mirror=False):
    """[(m, cap)] of the pair (i, n-1) that ends row i, from the state v:
    every m with |m| <= top whose target w = v + m(e_i - e_(n-1)) can still
    reach a final vector of cap >= 0, with the largest cap it reaches (see
    `_delta_kernel`). With k = n-i-1 and r = v[i+1] + ... + v[n-1], the m
    of w[i] * k >= r - m are m >= ceil((r - v[i] k)/(k + 1)), and those of
    w[i-1] >= w[i] are m <= v[i-1] - v[i]. With mirror, which the build
    sets at i = n-3, only the targets with w[n-2] >= w[n-1] are kept, the
    m >= v[n-1] - v[n-2] (see "Mirror" in `_delta_kernel`)."""
    k = len(v) - i - 1
    rest = sum(v[i + 1:])
    lo = max(-top, -((v[i] * k - rest) // (k + 1)))
    if mirror:
        lo = max(lo, v[-1] - v[-2])
    hi = min(top, v[i - 1] - v[i]) if i else top
    spent = budget - _raise_cost(v[:i])
    out = []
    for m in range(lo, hi + 1):
        cap = min(order, spent - max(0, -v[i] - m) - max(0, m - rest))
        if cap >= 0:
            out.append((m, cap))
    return out


def _majorants(order, stages):
    """The coefficients of S_1..S_stages, each a tuple indexed by
    b*(2*order + 1) + a: S_1 = M = sum_m |K_m| coefficientwise over the
    order-`order` pair kernel K, which is 4 (1 + z1z2)^2 / ((1 - z1)^2
    (1 - z2)^2) cut to the window (see `_pair_kernel`), and
    S_k = trunc(S_(k-1)) M, the product itself not truncated. They are
    nonnegative and at most L^stages, L the sum of M's coefficients, so they
    are taken on packed ints of that width."""
    total = {(a, b): 4 * sum(comb(2, t) * (a - t + 1) * (b - t + 1)
                             for t in range(min(a, b, 2) + 1))
             for a in range(order + 1) for b in range(order + 1)}
    width = (sum(total.values()) ** stages).bit_length() + 1
    layout = _kernel_layout(order, width)
    majorant = sum(v << layout.shift(a, b) for (a, b), v in total.items())
    out, s = [], 1
    for _ in range(stages):
        s = layout.truncate(s) * majorant
        out.append(unpack(s, layout.bits))
    return out


@lru_cache(maxsize=None)
def _kernel_bound(n, order):
    """Bound on every slot of a `_kernel_build` of n variables: the largest
    coefficient of the majorants S_1..S_#pairs, or the bound of
    `_pair_kernel`, which the build runs at its own width, if larger."""
    return max([16 * (order + 1) ** 4,
                *map(max, _majorants(order, n * (n - 1) // 2))])


def _kernel_build(n, order, slack, bits):
    """The kernel of `_delta_kernel(n, order, slack)` built from its pair
    kernels on packed ints at slot width bits, which must hold
    `_kernel_bound(n, order)`: the states after the pair (n-3, n-1) are
    those with v[n-2] >= v[n-1], and the last pair takes each of them with
    its mirror (see `_delta_kernel`)."""
    check_width(bits, _kernel_bound(n, order))
    budget = order + slack
    layout = _kernel_layout(order, bits)
    packed = _pair_kernel(order, bits)
    # the pair kernel cut to each cap: pair_cut[cap][m]
    pair_cut = [{m: layout.truncate(p, cap) for m, p in packed.items()}
                for cap in range(order + 1)]
    top = max(packed)
    acc = {(0,) * n: (1, order)}
    for i in range(n):
        for j in range(i + 1, n):
            out, caps = {}, {}
            for v, (x, reach) in acc.items():
                x_cut = {reach: x}
                # the mirror's u-exponent to the same target is m + d
                d = v[i] - v[j] if i == n - 2 else 0
                for m, cap in (_row_end_caps(v, i, order, budget, top,
                                             i == n - 3)
                               if j == n - 1 else
                               [(m, reach) for m in packed]):
                    cut = pair_cut[cap]
                    y = (cut.get(m, 0) + cut.get(m + d, 0) if d
                         else cut.get(m))
                    if not y:
                        continue
                    w = list(v)
                    w[i] += m
                    w[j] -= m
                    w = tuple(w)
                    xc = x_cut.get(cap)
                    if xc is None:
                        xc = x_cut[cap] = layout.truncate(x, cap)
                    out[w] = out.get(w, 0) + xc * y
                    caps[w] = cap
            acc = {}
            for w, p in out.items():
                p = layout.truncate(p, caps[w])
                if p:
                    acc[w] = (p, caps[w])
    return _Kernel(layout, ((w, p) for w, (p, _) in acc.items()))


class _Kernel(dict):
    """{w: entry} of a delta kernel, each entry one int of layout."""

    __slots__ = ("layout",)

    def __init__(self, layout, entries=()):
        super().__init__(entries)
        self.layout = layout


#: (n, order, slack) -> kernel of every `_delta_kernel` build in this
#: process, for serving the kernels they cover
_BUILDS = {}


@lru_cache(maxsize=None)
def _delta_kernel(n, order, slack):
    """Product of pair kernels over all unordered variable pairs, one entry
    per S_n orbit: a dict from sorted (descending) exponent vectors w with
    raise cost at most order + slack to the entry at w cut to cap(w), one
    int of the layout of the build it is read from, `kern.layout`.

    Symmetry: the pair kernel is invariant under u <-> 1/u, so the product
    is invariant under every permutation of x_1..x_n, and the entry at w is
    the entry at each vector of w's orbit.

    Cap: an entry is only ever multiplied by a monomial x^t of p_lam with
    t >= 0 and |t| <= slack, then shifted by (z1z2)^raise_cost(w + t), where
    raise_cost(w + t) >= raise_cost(w) - slack. Its terms of degree above
    cap(w) = min(order, order + slack - raise_cost(w)) in z1 or z2 therefore
    leave the window, and a vector with raise_cost(w) > order + slack
    contributes nothing. Each entry is read at its cap (truncation in z
    commutes with the product); one that vanishes below its cap is left
    out.

    Pruning and windows: the pairs run in row order (0, 1), ..., (0, n-1),
    (1, 2), ..., and pair (i, j) adds m to coordinate i and takes it from
    coordinate j. Once row i ends with pair (i, n-1), no later pair touches
    coordinates 0..i, and the later pairs keep the sum r of coordinates
    i+1..n-1. So a target w of that pair reaches only final vectors w' with
    w'[k] = w[k] for k <= i and w'[i+1] + ... + w'[n-1] = r. If such a w' is
    sorted within budget, then w[0] >= ... >= w[i], as its first entries;
    w[i] >= w'[i+1] >= r/(n-i-1), the first entry of a sorted suffix being
    at least its mean; and raise_cost(w') = raise_cost(w[0..i]) +
    sum_{k>i} max(0, -w'[k]) >= raise_cost(w[0..i]) + max(0, -r), so
    cap(w') <= reach(w) = min(order, budget - raise_cost(w[0..i]) -
    max(0, -r)). The states before the pair are sorted in their first i
    coordinates already, so for each state the first two conditions are
    one range of m, which `_row_end_caps` solves for, and it computes each
    reach in closed form; a target of negative reach reaches only vectors
    the kernel leaves out and is dropped. At the last pair (n-2, n-1) the
    reach is cap(w) itself. The pair kernel has no negative z-degree, so
    the terms of an entry above its reach only feed terms above the caps of
    the vectors it reaches: each entry is cut to its reach, and so are both
    operands of each product into it. A pair of row i keeps coordinates
    0..i-1 and the sum of the rest, so a target of a pair that ends no row
    has its sources' common reach, and the reach never rises from a source
    to a target. Cutting drops no entry; it shrinks the ints, most at the
    last pair, where most caps are far below order.

    Mirror: let sigma swap x_(n-2) and x_(n-1). It maps the set of pairs
    other than the last, (n-2, n-1), onto itself, and each pair kernel is
    invariant under u <-> 1/u, so the product of those pairs is invariant
    under sigma. The row-end pruning and the reach of the pair (n-3, n-1)
    and of the pairs before it depend only on coordinates 0..n-3 and on
    v[n-2] + v[n-1], so after (n-3, n-1) the entry at v equals the entry at
    sigma(v). That pair therefore keeps only targets with v[n-2] >= v[n-1]
    (one more lower bound on m in `_row_end_caps`). With d = v[n-2] -
    v[n-1], the last pair takes v to v + m(e_(n-2) - e_(n-1)) by K_m and
    sigma(v) to the same target by K_(m+d), so each kept v is multiplied
    once by K_m + K_(m+d), cut to the target's cap, or by K_m alone when
    d = 0, where v = sigma(v). The targets are sorted, d + 2m >= 0, so
    |m + d| <= top forces |m| <= top, and the range of m that
    `_row_end_caps` solves for v misses no target of sigma(v). Each new
    product is the sum of two products of the unmirrored build into the
    same target, so the entries and the bit width below are those of that
    build.

    Covering builds: the entry at w is the product of all pair kernels read
    at cap(w); the order-D pair kernel read at degrees <= order is the
    order one, and pruning changes no entry. So a build (n, D, s) with
    D >= order and D + s >= order + slack holds every entry of
    (n, order, slack) at a cap at least its own, and the kernel is read off
    it by truncation. The builds are kept in `_BUILDS`, which clearing this
    cache leaves as it is.

    Packing: every series is one int of `_kernel_layout(order, B)`, slot
    (a, b) at bit B*(b*(2*order + 1) + a), so a pair term is one int
    multiply, and `PackedLayout.truncate` cuts a sum of products to a
    window in three int operations, exact while every slot has absolute
    value below 2^(B-1). An entry stays in that layout, and so does each
    entry that a covered kernel reads off it.

    Bit width: let M = sum_m |K_m|, coefficientwise, over the pair kernel
    K, and A_k the coefficientwise sum of |entry| over the entries after k
    pairs (A_0 = 1). Each (source, m) has one target, and a product's
    coefficients are at most the products of its operands' absolute
    values, so every slot of every product, partial sum and entry of pair k
    is at most the matching coefficient of sum over (source, m) of
    |cut source| |cut K_m| <= trunc(A_(k-1)) M, its operands being cut to
    caps <= order and pruning only dropping terms; and A_k <= trunc(A_(k-1)
    M). By induction A_(k-1) <= trunc(S_(k-1)) for the majorants of
    `_majorants`, so pair k stays within S_k, and `_kernel_bound`, the
    largest coefficient of S_1..S_#pairs, bounds every slot: B = 33 for
    n = 3, D = 7, against 43 from the l1 bound L^#pairs. The pair kernel
    is built at B too, so B also holds its own bound.
    """
    budget = order + slack
    cover = min((key for key in _BUILDS if key[0] == n and key[1] >= order
                 and key[1] + key[2] >= budget), key=sum, default=None)
    if cover is not None:
        build = _BUILDS[cover]
        kern = _Kernel(build.layout)
        for w, p in build.items():
            cap = min(order, budget - _raise_cost(w))
            p = build.layout.truncate(p, cap) if cap >= 0 else 0
            if p:
                kern[w] = p
        return kern
    bits = _kernel_bound(n, order).bit_length() + 1
    kern = _BUILDS[(n, order, slack)] = _kernel_build(n, order, slack, bits)
    return kern


def _pairing_bound(kern, n, order, slack):
    """Bound on every slot of the packed sums of `_kernel_pairings` for
    every p_lam of degree at most slack, and of the z2-rows that
    Omega(n z1 + n z2) makes of them: n^slack sum_w orbit_size(w) K
    C(order + n, n)^2, with K = `_kernel_bound(n, D)` of the build at
    order D whose layout holds kern's entries. K bounds every slot of that
    build, and of every entry cut from it.

    A slot of sum_w orbit_size(w) K_w phi_w, phi_w = sum_k c_k (z1z2)^k,
    in the window or in the room of its row, is a sum over w and k of
    orbit_size(w) c_k times at most one slot of K_w. The c_k are the
    coefficients of p_lam(x_1..x_n), which are nonnegative, grouped by
    raise cost, so they sum to at most p_lam(1^n) = n^len(lam) <= n^slack.
    Omega(n z1 + n z2) = 1/((1 - z1)(1 - z2))^n then sums each slot's
    copies along z2, then along z1, over at most C(order + n, n) slots
    each, with coefficients that sum to C(order + n, n).
    """
    return (n ** slack * _kernel_bound(n, kern.layout.order)
            * sum(map(_orbit_size, kern)) * comb(order + n, n) ** 2)


def _kernel_pairings(kern, lams, n, layout):
    """lam -> the z2-rows, cut to the window of layout, of the sum over the
    kernel's orbit representatives w of orbit_size(w) K_w phi_w,
    phi_w = sum_t [x^t]p_lam (z1z2)^raise_cost(w + t), with kern a
    `_delta_kernel` for a slack of at least every degree in lams. layout
    has the room of kern's entries and a slot width that holds
    `_pairing_bound`.

    Each entry is widened once to that slot width and weighted by its orbit
    size. phi_w = sum_k c_k (z1z2)^k multiplies it as shift-adds, (z1z2)^k a
    shift by `layout.shift(k, k)`; the terms of degree k > order leave the
    window and are dropped, and those below keep every slot within its
    row, as a <= order and k <= order. Each sum is cut once into its
    z2-rows.
    """
    order = layout.order
    check_width(layout.bits,
                _pairing_bound(kern, n, order, max(map(sum, lams))))
    assert layout.room == kern.layout.room, "the kernel's rows do not fit"
    weighted = [(w, _orbit_size(w) * kern.layout.widen(p, layout.bits))
                for w, p in kern.items()]
    diag = layout.shift(1, 1)
    out = {}
    for lam in lams:
        monomials = p_in_x(lam, n, 1).c.items()
        total = 0
        for w, p in weighted:
            phi = {}
            for t, c in monomials:
                k = _raise_cost(map(add, w, t))
                if k <= order:
                    phi[k] = phi.get(k, 0) + c
            for k, c in phi.items():
                total += (p * c) << diag * k
        out[lam] = layout.rows(total)
    return out


def euler_constant_term(f, n, order, force=False):
    """Pair the delta kernel times f(x_1..x_n) against Omega(1/X).

    For each p_lam of f the kernel times p_lam(x_1..x_n) is summed over the
    nonnegative orthant in integers, with the Omega(z1z2 X) factor
    supplying the monomials that raise exponents into it. Omega(z1z2 X)
    times (1 - z1z2)^n is exactly 1 in the window, so the prefactor left
    is Omega(n z1 + n z2) = 1/((1 - z1)(1 - z2))^n; `omega` applies it to
    the z2-rows of each paired table, `expand` divides them by
    (1 - z1)^n, and `_apply_coefficients` then multiplies in c_lam / n!.

    The kernel, p_lam and the raise cost are all invariant under S_n, so
    the orthant sum over every exponent vector u of the kernel,
    sum_u K[u] phi(u) with phi(u) = sum_t [x^t]p_lam (z1z2)^raise_cost(u+t),
    is the sum over orbit representatives w of orbit_size(w) K[w] phi(w),
    which `_kernel_pairings` takes on the packed entries and cuts into
    z2-rows, in the layout of the kernel's rows at a slot width that
    `_pairing_bound` proves wide enough for `omega` and `expand` too. Each
    table is paired once per (n, order) and kept by `_basis_tables`: a call
    pairs only the p_lam not kept yet, against the kernel of the largest
    slack they need.
    """
    check_guards("constant-term", n, order, force)
    coeffs = _polynomial_coefficients(to_p(f))

    def build(lams):
        slack = max(map(sum, lams))
        kern = _delta_kernel(n, order, slack)
        layout = PackedLayout(order, _pairing_bound(
            kern, n, order, slack).bit_length() + 1, 0, kern.layout.room)
        prefactor = XLaurent(2, {(1, 0): n, (0, 1): n})
        return {lam: layout.read(expand(*omega(prefactor, rows, (), layout),
                                        layout))
                for lam, rows in _kernel_pairings(kern, lams, n,
                                                  layout).items()}

    return EulerResult(_apply_coefficients(
        _basis_tables("constant-term", n, order, coeffs, build), coeffs,
        order, factorial(n)))


# ---------------------------------------------------------------------------
# evaluator 3: the Hall-Littlewood summation formula

def _theorem_bound(rhos, n, order):
    """Bound on every coefficient that the packed theorem path holds:
    max over rho of e_rho(1^n) h_order(1^n), that is
    prod_i C(n, rho_i) * C(order + n - 1, n - 1).

    At z = 1, P_lam is the monomial function m_lam, so <e_rho P_mu, Q_nu>
    is the coefficient of m_nu in e_rho m_mu, and [n]_z / b_{nu,n} is
    m_nu(1^n). The numerator terms of (rho, m) therefore sum at z = 1 to
    sum over mu |- m of e_rho(1^n) m_mu(1^n) = e_rho(1^n) h_m(1^n), which
    grows with m. Every Gaussian binomial, Pieri coefficient and
    z-multinomial has nonnegative coefficients and a value of at least 1
    at z = 1, and every Pieri step with r <= n has a target (the first r
    rows can grow), while rho's parts run largest first, so a part r > n
    ends its chain before any product. Each factor, partial product and
    partial sum is thus coefficientwise at most the numerator it goes into,
    and each coefficient of that is at most its value at z = 1. Both
    summands of the q-Pascal recurrence [a;b] = [a-1;b-1] + z^b [a-1;b]
    are coefficientwise at most [a;b], so every intermediate of the
    Gaussian binomials stays within the bound too.
    """
    return max((prod(comb(n, r) for r in rho) for rho in rhos),
               default=0) * comb(order + n - 1, n - 1)


def _theorem_numerators(rhos, n, order, bits):
    """The numerators over [n]_z1 of the summation formula for each e_rho:
    rho -> z2-degree m -> polynomial in z1 packed at slot width bits, which
    must hold `_theorem_bound`. For each mu, e_rho * P_mu is taken on the
    P_nu with len(nu) <= n by the e-Pieri rule one part of rho at a time,
    and the products are shared between rhos with a common prefix. A
    term's z1^shift is a shift by bits*shift, and no term is unpacked."""
    check_width(bits, _theorem_bound(rhos, n, order))
    nums = {rho: {} for rho in rhos}
    for m in range(order + 1):
        for mu in partitions_of(m, n):
            prods, shifts = {(): {mu: 1}}, {}
            for rho, by_m in nums.items():
                for i, r in enumerate(rho):
                    if rho[:i + 1] not in prods:
                        nxt = {}
                        for lam, c in prods[rho[:i]].items():
                            for nu, cn in pieri_e(lam, r, n, bits):
                                nxt[nu] = nxt.get(nu, 0) + c * cn
                        prods[rho[:i + 1]] = nxt
                num = by_m.get(m, 0)
                for nu, c in prods[rho].items():
                    shift = shifts.get(nu)
                    if shift is None:
                        shift = shifts[nu] = m + k_exponent(mu, nu)
                    num += (c * z_multinomial(nu, n, bits)) << bits * shift
                by_m[m] = num
    return nums


def euler_theorem(f, n, order):
    """The summation formula: the z2^m coefficient is
    sum over mu |- m, nu of z1^(m + k(mu, nu)) <f P_mu, Q_nu> / b_{nu,n}.

    f is written once in the e-basis, so every matrix element comes from
    the e-Pieri rule as an integer polynomial. Over the common denominator
    [n]_z1 each term is z1^shift * <e_rho P_mu, Q_nu> * [n]_z1 / b_{nu,n},
    a polynomial with nonnegative integer coefficients. The terms of each
    (rho, m) are summed as ints packed at one slot width that
    `_theorem_bound`, times the top coefficient of 1/[n]_z1!, proves wide
    enough for the expansion too; per e_rho these numerators are the
    z2-rows of one series over [n]_z1!, `expand` divides each of them once,
    `_basis_tables` keeps the table read from them, and
    `_apply_coefficients` multiplies in the e-coefficients of f.

    No term needs a holomorphy check of its own: with a = mu'_i and
    b = nu'_i, k(mu, nu) = sum_i [C(a, 2) + C(b, 2) - ab]
    = sum_i [C(b - a, 2) - a], so the shift |mu| + k(mu, nu)
    = sum_i C(nu'_i - mu'_i, 2) is never negative and every term is a
    power series in z1.
    """
    check_guards("theorem", n, order)
    coeffs = _polynomial_coefficients(convert(to_p(f), "e"))

    def build(rhos):
        # 1/den is nonnegative and nondecreasing, so a slot of a numerator
        # times it is at most the numerator at z1 = 1 times its top slot
        den = tuple(range(1, n + 1))
        bound = _theorem_bound(rhos, n, order) * den_series(den, order + 1)[-1]
        layout = PackedLayout(order, bound.bit_length() + 1)
        return {rho: layout.read(expand(
                    [by_m[m] for m in range(order + 1)], den, layout))
                for rho, by_m in _theorem_numerators(rhos, n, order,
                                                     layout.bits).items()}

    return EulerResult(_apply_coefficients(
        _basis_tables("theorem", n, order, coeffs, build), coeffs, order))


def evaluate(method, f, n, order):
    if method == "localization":
        return euler_localization(f, n, order)
    if method == "constant-term":
        return euler_constant_term(f, n, order)
    if method == "theorem":
        return euler_theorem(f, n, order)
    raise ValueError("unknown method %r" % (method,))


# ---------------------------------------------------------------------------
# the partition-function oracle

def partition_function(n_max, order):
    """q-expansion of the double product of (1 - z1^i z2^j q)^(-1).

    Returns a list of BiSeries, index = power of q. Factors with i or j
    beyond the window cannot affect it and are skipped.
    """
    out = [BiSeries.const(order, 1)] + [BiSeries(order) for _ in range(n_max)]
    for i in range(order + 1):
        for j in range(order + 1):
            mono = BiSeries.monomial(order, i, j)
            powers = [BiSeries.const(order, 1)]
            for _ in range(n_max):
                powers.append(powers[-1] * mono)
            new = [BiSeries(order) for _ in range(n_max + 1)]
            for t in range(n_max + 1):
                for k in range(t + 1):
                    if not powers[k]:
                        continue
                    new[t] = new[t] + out[t - k] * powers[k]
            out = new
    return out


# ---------------------------------------------------------------------------
# cross-check driver

#: failures holds (check, method, (a, b), value) for the first coefficient
#: of the theorem's table, in sorted order, that breaks a required property
CrossCheckReport = namedtuple("CrossCheckReport",
                              "results mismatches failures passed")


def cross_check(f, n, order):
    """Check the guards of every evaluator, so a refusal comes before any
    work, then run them all and compare each table with the theorem's,
    coefficient by coefficient; failures are report content, not
    exceptions.

    The properties are judged on the theorem's table, which equals every
    other one when there is no mismatch. Symmetry in z1, z2 is required
    when every p-coefficient of f is constant in z1 (P/Q atoms bind the
    Hall-Littlewood parameter to z1, and then chi need not be symmetric);
    nonnegative integrality is required when f is Schur-positive.
    """
    for method in METHODS:
        check_guards(method, n, order)
    results = {method: evaluate(method, f, n, order) for method in METHODS}
    first = METHODS[0]
    mismatches = []
    base = results[first].series
    for other in METHODS[1:]:
        s = results[other].series
        for key in sorted(set(base.c) | set(s.c)):
            va, vb = base.coeff(*key), s.coeff(*key)
            if va != vb:
                mismatches.append((first, other, key, va, vb))
    required = []
    if all(c.is_polynomial() and len(c.num) == 1 for c in to_p(f).c.values()):
        required.append(("symmetry", lambda a, b, v: v == base.coeff(b, a)))
    if schur_positive(f):
        required.append(("nonnegativity",
                         lambda a, b, v: v >= 0 and v.denominator == 1))
    failures = []
    items = base.items_sorted()
    for check, holds in required:
        bad = next(((key, v) for key, v in items if not holds(*key, v)), None)
        if bad:
            failures.append((check, first) + bad)
    return CrossCheckReport(results, mismatches, failures,
                            not mismatches and not failures)
