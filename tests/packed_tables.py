"""Slot-by-slot packing and reading of `series.PackedLayout` tables: the
test-side reader that packed kernel entries, pairings and layout results
are compared through, against dict and `BiSeries` oracles."""

from hilbeuler.series import BiSeries


def pack_table(layout, coeffs):
    """The int of the table {(a, b): int} in layout, one shift per slot."""
    return sum(v << layout.shift(a + layout.off, b)
               for (a, b), v in coeffs.items())


def read_table(p, layout):
    """{(a, b): int} of the nonzero slots of p, a packed table whose slots
    all lie in the rows b <= order of layout, their room included, read
    one slot at a time."""
    bits, count = layout.bits, (layout.order + 1) * layout.room
    half, digit = 1 << (bits - 1), (1 << bits) - 1
    q = p + sum(half << bits * i for i in range(count))
    assert q >> bits * count == 0, "a slot above the rows of the layout"
    out = {}
    for i in range(count):
        v = ((q >> bits * i) & digit) - half
        if v:
            b, s = divmod(i, layout.room)
            out[(s - layout.off, b)] = v
    return out


def read_series(p, layout, cap):
    """BiSeries of order cap of the slots 0 <= a, b <= cap of p, a packed
    series, product or sum of products of layout, which has no depth."""
    return BiSeries(cap, read_table(layout.truncate(p, cap), layout))
