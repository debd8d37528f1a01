"""The delta kernel's pair kernel and row-end pruning as they were written
before the build solved its row-end ranges.

The pair kernel is a product of its eight factors, each an XLaurent in u
of packed ints, truncated to the window after every product. The kernel
build tries every m of the pair kernel at each pair that ends a row and
keeps a target when `reach`, one call per m, is not negative; it packs at
the l1 width L^#pairs. The tests use them as oracles for
`euler._pair_kernel`, `euler._row_end_caps` and the slot width of
`euler._kernel_build`, and `pair_kernel` unpacks `euler._pair_kernel` for
the oracles that read it as series. `kernel_build_unmirrored` is the
kernel build as it was before the last pair took each state with its
mirror: every state after the pair (n-3, n-1) is kept and multiplied by
one pair kernel per target.
"""

from functools import lru_cache

from hilbeuler.euler import (_kernel_bound, _kernel_layout, _pair_kernel,
                             _raise_cost, _row_end_caps)
from symfunc_helpers import map_coeffs
from hilbeuler.series import check_width
from hilbeuler.xlaurent import XLaurent
from packed_tables import pack_table, read_series


@lru_cache(maxsize=None)
def pair_kernel(order):
    """`euler._pair_kernel` at the width of its own bound, as an XLaurent in
    u with BiSeries coefficients."""
    bits = (16 * (order + 1) ** 4).bit_length() + 1
    layout = _kernel_layout(order, bits)
    return XLaurent(1, {(m,): read_series(p, layout, order)
                        for m, p in _pair_kernel(order, bits).items()})


def pair_kernel_by_products(order):
    """The pair kernel as the product of its eight factors: each z-geometric
    factor truncated at the window order, every partial product truncated
    to the window, each coefficient unpacked once."""
    bound = 16 * (order + 1) ** 4
    layout = _kernel_layout(order, bound.bit_length() + 1)
    check_width(layout.bits, bound)

    def term(a, b):
        return pack_table(layout, {(a, b): 1})

    factors = [{(0,): 1, (u,): -term(a, a)} for a in (0, 1) for u in (1, -1)]
    factors += [{(u * k,): term(a * k, b * k) for k in range(order + 1)}
                for a, b in ((1, 0), (0, 1)) for u in (1, -1)]
    acc = XLaurent.const(1, 1)
    for fac in factors:
        acc = map_coeffs(acc * XLaurent(1, fac), layout.truncate)
    return map_coeffs(acc, lambda p: read_series(p, layout, order))


def reach(w, i, order, budget):
    """The largest cap, at most order, of a final vector that w, whose
    coordinates 0..i are final, can still reach sorted (descending) with
    raise cost at most budget; negative if it reaches none. w[0..i] must be
    sorted and w[i] at least the mean of the rest, and the raise cost of
    w[0..i] plus that of the rest's sum is a lower bound on the final raise
    cost."""
    rest = sum(w[i + 1:])
    if not (all(w[k] >= w[k + 1] for k in range(i))
            and w[i] * (len(w) - i - 1) >= rest):
        return -1
    return min(order, budget - _raise_cost(w[:i + 1]) - max(0, -rest))


def caps_by_reach(v, i, order, budget, top):
    """[(m, cap)] of the pair (i, n-1) from the state v: every |m| <= top
    whose target has a reach >= 0, by one `reach` call per m."""
    out = []
    for m in range(-top, top + 1):
        w = list(v)
        w[i] += m
        w[-1] -= m
        cap = reach(w, i, order, budget)
        if cap >= 0:
            out.append((m, cap))
    return out


def l1_width(n, order):
    """The slot width of the l1 bound L^#pairs, L = sum_m ||K_m||_1."""
    pair = pair_kernel(order).c.values()
    bound = sum(sum(map(abs, bs.c.values())) for bs in pair)
    return (bound ** (n * (n - 1) // 2)).bit_length() + 1


def kernel_stages(n, order, slack, row_end=caps_by_reach, observe=None):
    """The states of the pruned, cut delta kernel build, the initial one
    and the one after each pair, as {w: (packed entry, cap)}, and their
    layout, of slot width `l1_width(n, order)`.

    row_end(v, i, order, budget, top) gives the (m, cap) of the pair
    (i, n-1) from the state v; a pair that ends no row tries every m at the
    source's cap. observe(k, bits, p), when given, sees every product,
    partial sum and entry p of the k-th pair, k = 1, 2, ...
    """
    budget = order + slack
    layout = _kernel_layout(order, l1_width(n, order))
    packed = {m: pack_table(layout, bs.c)
              for (m,), bs in pair_kernel(order).c.items()}
    top = max(packed)
    acc = {(0,) * n: (1, order)}
    stages = [acc]
    for i in range(n):
        for j in range(i + 1, n):
            k = len(stages)
            out, caps = {}, {}
            for v, (x, cap_v) in acc.items():
                steps = (row_end(v, i, order, budget, top) if j == n - 1
                         else [(m, cap_v) for m in packed])
                for m, cap in steps:
                    y = layout.truncate(packed.get(m, 0), cap)
                    if not y:
                        continue
                    w = list(v)
                    w[i] += m
                    w[j] -= m
                    w = tuple(w)
                    product = layout.truncate(x, cap) * y
                    out[w] = out.get(w, 0) + product
                    caps[w] = cap
                    if observe:
                        observe(k, layout.bits, product)
                        observe(k, layout.bits, out[w])
            acc = {}
            for w, p in out.items():
                p = layout.truncate(p, caps[w])
                if p:
                    acc[w] = (p, caps[w])
                    if observe:
                        observe(k, layout.bits, p)
            stages.append(acc)
    return stages, layout


def kernel_build_unmirrored(n, order, slack, bits):
    """`euler._kernel_build` without the mirror step, at slot width bits,
    which must hold `euler._kernel_bound(n, order)`: each state of the last
    pair is multiplied by K_m alone, and its mirror is a state of its own."""
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
                for m, cap in (_row_end_caps(v, i, order, budget, top)
                               if j == n - 1 else
                               [(m, reach) for m in packed]):
                    y = pair_cut[cap].get(m)
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
    return {w: read_series(p, layout, cap) for w, (p, cap) in acc.items()}
