"""Per-layer tracing for one benchmark sweep, installed from outside the package.

`install(tracer)` replaces each traced name where its caller looks it up
(a module global or a class attribute) with a wrapper that records a span.
The program's own files are not changed.

A span has a name (`layer.what`), a start, an end, the span that caused it
and the case it belongs to. Spans are kept in memory and written out by
`Tracer.dump`. Names in HOT are called up to millions of times per case;
those calls are summed per (name, case, parent span) instead of being kept
one by one, so memory stays bounded. A name's self time is its duration
minus the time covered by its child spans.
"""

import json
import time

from hilbeuler import cli, euler, hall_littlewood, ratfunc, series, symfunc
from hilbeuler import xlaurent

#: arithmetic-level names, aggregated rather than kept as single spans
HOT = frozenset([
    "ratfunc.normalize", "ratfunc.pgcd", "series.mul", "series.add",
    "euler.wedge_mul", "xlaurent.mul", "symfunc.to_p", "symfunc.hl_inner",
    "hall_littlewood.hl_Q", "hall_littlewood.k_exponent",
])


class Tracer:
    def __init__(self):
        self.case = None
        self.n = None
        # open frames: [time covered by children, index of the span that
        # children report to as their parent]
        self.stack = []
        self.spans = []      # [name, case, parent, start, end, self_s]
        self.hot = {}        # (name, case, parent) -> [calls, total_s, self_s]
        self.totals = {}     # name -> [calls, inclusive_s, self_s]
        self.counters = {}   # name -> count

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, name, fn):
        """A function that calls fn inside a span called name."""
        stack, spans, hot = self.stack, self.spans, self.hot
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        live = [0]  # open calls of this name, so recursion is counted once
        now = time.perf_counter
        is_hot = name in HOT
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if is_hot:
                frame = [0.0, parent]
            else:
                frame = [0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            live[0] += 1
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                live[0] -= 1
                dur = t1 - t0
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                total[0] += 1
                total[2] += own
                if not live[0]:
                    total[1] += dur
                if is_hot:
                    key = (name, tracer.case, parent)
                    agg = hot.get(key)
                    if agg is None:
                        hot[key] = [1, dur, own]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                        agg[2] += own
                else:
                    spans[frame[1]] = [name, tracer.case, parent, t0, t1, own]

        return traced

    def layer_self(self):
        out = {}
        for name, (_, _, own) in self.totals.items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "spans": [dict(zip(("name", "case", "parent", "start", "end",
                                    "self_s"), s)) for s in self.spans],
                "aggregated": [{"name": k[0], "case": k[1], "parent": k[2],
                                "calls": v[0], "total_s": v[1],
                                "self_s": v[2]}
                               for k, v in sorted(self.hot.items(),
                                                  key=lambda kv: repr(kv[0]))],
            }, fh)


def _patch(owner, attr, wrapper, undo):
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, wrapper)


def install(tracer):
    """Install every wrapper. Returns a function that removes them again
    and returns the (builds, hits) of each lru cache since installation."""
    undo = []
    t = tracer

    def patch(owners, attr, name):
        w = t.wrap(name, getattr(owners[0], attr))
        for owner in owners:
            _patch(owner, attr, w, undo)

    # ratfunc: normalisation happens in the constructor
    patch([ratfunc.RationalFunction1], "__init__", "ratfunc.normalize")
    patch([ratfunc], "pgcd", "ratfunc.pgcd")

    # series: BiSeries convolution, with its term products counted
    bimul = t.wrap("series.mul", series.BiSeries.__mul__)

    def bimul_counted(a, b):
        t.count("series.mul_term_products",
                len(a.c) * len(b.c) if isinstance(b, series.BiSeries)
                else len(a.c))
        return bimul(a, b)

    for attr in ("__mul__", "__rmul__"):
        _patch(series.BiSeries, attr, bimul_counted, undo)
    biadd = t.wrap("series.add", series.BiSeries.__add__)
    for attr in ("__add__", "__radd__"):
        _patch(series.BiSeries, attr, biadd, undo)

    # symfunc
    patch([symfunc, hall_littlewood, euler], "multiply", "symfunc.multiply")
    patch([symfunc, hall_littlewood, euler, cli], "to_p", "symfunc.to_p")
    patch([hall_littlewood], "hl_inner", "symfunc.hl_inner")

    # hall_littlewood: cache counts come from the lru objects themselves
    hl_q_cache, hl_p_cache = hall_littlewood.hl_Q, hall_littlewood.hl_P
    delta_cache = euler._delta_kernel
    start = {"hl_Q": hl_q_cache.cache_info(), "hl_P": hl_p_cache.cache_info(),
             "delta": delta_cache.cache_info()}
    patch([hall_littlewood], "hl_Q", "hall_littlewood.hl_Q")
    patch([euler], "hl_P", "hall_littlewood.hl_P")
    patch([euler], "k_exponent", "hall_littlewood.k_exponent")
    expand = t.wrap("hall_littlewood.expand_in_P", euler.expand_in_P)

    def expand_counted(f):
        for d in f.degrees():
            lams = hall_littlewood.partitions_of(d)
            t.count("hall_littlewood.P_coeffs_computed", len(lams))
            t.count("hall_littlewood.P_coeffs_kept",
                    sum(1 for lam in lams if len(lam) <= t.n))
        return expand(f)

    _patch(euler, "expand_in_P", expand_counted, undo)

    # euler
    patch([euler], "euler_theorem", "euler.theorem")
    patch([euler], "euler_localization", "euler.localization")
    patch([euler], "euler_constant_term", "euler.constant_term")
    patch([euler], "fixed_point_data", "euler.fixed_point_data")
    patch([euler], "omega", "euler.omega")
    patch([euler.WedgeSeries], "__mul__", "euler.wedge_mul")
    kernel = t.wrap("euler.delta_kernel", delta_cache)

    def kernel_counted(*args):
        misses = delta_cache.cache_info().misses
        out = kernel(*args)
        if delta_cache.cache_info().misses != misses:
            t.count("euler.delta_kernel_entries", len(out))
        return out

    _patch(euler, "_delta_kernel", kernel_counted, undo)

    # xlaurent, fexpr, cli
    patch([xlaurent.XLaurent], "__mul__", "xlaurent.mul")
    patch([cli], "parse", "fexpr.parse")
    patch([cli], "to_symfunc", "fexpr.to_symfunc")
    patch([cli], "_emit_table", "cli.emit")

    def cache_deltas():
        out = {}
        for key, cache in (("hl_Q", hl_q_cache), ("hl_P", hl_p_cache),
                           ("delta", delta_cache)):
            info = cache.cache_info()
            out[key] = (info.misses - start[key].misses,
                        info.hits - start[key].hits)
        return out

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        return cache_deltas()

    return uninstall


def metrics(tracer, caches, wall_s):
    """The per-layer metrics of one traced sweep; `caches` is what
    `install(...)()` returned."""
    tot = tracer.totals
    cnt = tracer.counters

    def calls(name):
        return tot[name][0]

    def secs(name):
        return tot[name][1]

    computed = cnt.get("hall_littlewood.P_coeffs_computed", 0)
    kept = cnt.get("hall_littlewood.P_coeffs_kept", 0)
    own = tracer.layer_self()
    m = {
        "ratfunc.normalize_calls": calls("ratfunc.normalize"),
        "ratfunc.normalize_s": secs("ratfunc.normalize"),
        "ratfunc.pgcd_calls": calls("ratfunc.pgcd"),
        "ratfunc.pgcd_s": secs("ratfunc.pgcd"),
        "ratfunc.normalize_share": secs("ratfunc.normalize") / wall_s,
        "series.mul_calls": calls("series.mul"),
        "series.mul_s": secs("series.mul"),
        "series.mul_term_products": cnt.get("series.mul_term_products", 0),
        "series.add_calls": calls("series.add"),
        "symfunc.multiply_calls": calls("symfunc.multiply"),
        "symfunc.multiply_s": secs("symfunc.multiply"),
        "symfunc.to_p_calls": calls("symfunc.to_p"),
        "symfunc.hl_inner_calls": calls("symfunc.hl_inner"),
        "symfunc.hl_inner_s": secs("symfunc.hl_inner"),
        "hall_littlewood.hl_Q_builds": caches["hl_Q"][0],
        "hall_littlewood.hl_Q_hits": caches["hl_Q"][1],
        "hall_littlewood.hl_Q_s": secs("hall_littlewood.hl_Q"),
        "hall_littlewood.hl_P_builds": caches["hl_P"][0],
        "hall_littlewood.hl_P_hits": caches["hl_P"][1],
        "hall_littlewood.expand_in_P_calls":
            calls("hall_littlewood.expand_in_P"),
        "hall_littlewood.expand_in_P_s": secs("hall_littlewood.expand_in_P"),
        "hall_littlewood.P_coeffs_computed": computed,
        "hall_littlewood.P_coeffs_kept": kept,
        "hall_littlewood.P_coeff_yield": kept / computed if computed else 0.0,
        "euler.theorem_s": secs("euler.theorem"),
        "euler.theorem_terms": calls("hall_littlewood.k_exponent"),
        "euler.localization_s": secs("euler.localization"),
        "euler.fixed_points": calls("euler.fixed_point_data"),
        "euler.omega_s": secs("euler.omega"),
        "euler.wedge_mul_calls": calls("euler.wedge_mul"),
        "euler.wedge_mul_s": secs("euler.wedge_mul"),
        "euler.constant_term_s": secs("euler.constant_term"),
        "euler.delta_kernel_builds": caches["delta"][0],
        "euler.delta_kernel_hits": caches["delta"][1],
        "euler.delta_kernel_s": secs("euler.delta_kernel"),
        "euler.delta_kernel_entries": cnt.get("euler.delta_kernel_entries", 0),
        "xlaurent.mul_calls": calls("xlaurent.mul"),
        "xlaurent.mul_s": secs("xlaurent.mul"),
        "fexpr.parse_s": secs("fexpr.parse") + secs("fexpr.to_symfunc"),
        "cli.emit_s": secs("cli.emit"),
    }
    for layer in ("ratfunc", "series", "symfunc", "hall_littlewood", "euler",
                  "xlaurent", "fexpr", "cli"):
        m[layer + ".self_s"] = own.get(layer, 0.0)
    return m
