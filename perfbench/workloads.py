"""Workload shapes, the seeded input generator and the exact reference check.

A case is one `chi` call. Its shape -- method, n, max degree D and the set
of degrees in which f has a nonzero component -- is fixed per workload, so
the cost of a case does not swing with the seed. The seed chooses which
Schur functions appear in each of those degrees and their coefficients.

Each drawn degree component must have full power-sum support (every p_kappa
with |kappa| = d has a nonzero coefficient). The evaluators' work depends
mostly on that support, not on the Schur coefficients, so this keeps the
work per case nearly the same for every seed. Draws that cancel a power sum
are redrawn.

Correctness is checked by exact linearity: chi_n(f) = sum c_lam chi_n(s_lam),
with chi_n(s_lam) read from the reference tables in `refs/`.
"""

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")

#: every Schur function the generator may use, |lam| <= 3
SCHUR = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]

#: power-sum expansions of the Schur functions above (character table / z)
_S_IN_P = {
    (): {(): Fraction(1)},
    (1,): {(1,): Fraction(1)},
    (2,): {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)},
    (1, 1): {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)},
    (3,): {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(1, 2),
           (3,): Fraction(1, 3)},
    (2, 1): {(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)},
    (1, 1, 1): {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(-1, 2),
                (3,): Fraction(1, 3)},
}

_P_SUPPORT = {0: 1, 1: 1, 2: 2, 3: 3}

# (method, n, D, degrees of f). The order is the order a sweep runs them in;
# later cases reuse the lru caches that earlier ones filled.
WORKLOADS = {
    # Hall-Littlewood summation formula: hl_Q/hl_P caches fill on the first
    # case and are hit by the later ones.
    "theorem": [
        ("theorem", 2, 5, (3, 1)),
        ("theorem", 3, 5, (2, 1, 0)),
        ("theorem", 2, 5, (2, 0)),
        ("theorem", 3, 5, (3, 2)),
        ("theorem", 2, 5, (3, 2, 1, 0)),
        ("theorem", 3, 5, (3, 1, 0)),
    ],
    # fixed-point localization: WedgeSeries products of z^k and 1/(1-z^p);
    # no Hall-Littlewood work and no lru cache.
    "localization": [
        ("localization", 5, 8, (3, 1)),
        ("localization", 5, 8, (2, 1, 0)),
        ("localization", 5, 8, (3, 2, 0)),
        ("localization", 6, 8, (1, 0)),
    ],
    # constant-term pairing: BiSeries convolution. _delta_kernel is keyed on
    # (n, D, deg f); this order makes three builds and five reuses.
    "constant-term": [
        ("constant-term", 3, 6, (3, 1)),
        ("constant-term", 3, 6, (3, 2, 0)),
        ("constant-term", 3, 7, (2, 1)),
        ("constant-term", 3, 7, (2, 0)),
        ("constant-term", 3, 6, (2, 1)),
        ("constant-term", 3, 6, (3,)),
        ("constant-term", 3, 7, (2, 1, 0)),
        ("constant-term", 3, 6, (2,)),
    ],
}


def grids():
    """Every (n, D) some workload uses, sorted."""
    return sorted({(n, d) for shapes in WORKLOADS.values()
                   for _, n, d, _ in shapes})


def _p_expansion(terms):
    out = {}
    for lam, c in terms:
        for kappa, v in _S_IN_P[lam].items():
            out[kappa] = out.get(kappa, 0) + c * v
    return {k: v for k, v in out.items() if v}


def _draw_component(rng, d):
    """Nonzero integer combination of s_lam, lam |- d, with full p-support."""
    lams = [lam for lam in SCHUR if sum(lam) == d]
    while True:
        chosen = [lam for lam in lams if rng.random() < 0.5] or \
            [rng.choice(lams)]
        terms = [(lam, rng.choice((1, 2, 3)) * rng.choice((1, -1)))
                 for lam in chosen]
        if len(_p_expansion(terms)) == _P_SUPPORT[d]:
            return terms


def render(terms):
    """Expression text for the CLI; the grammar has no unary minus."""
    out = ""
    for i, (lam, c) in enumerate(terms):
        atom = "s[%s]" % ",".join(map(str, lam))
        body = atom if abs(c) == 1 else "%d*%s" % (abs(c), atom)
        if i == 0:
            out = body if c > 0 else "0-" + body
        else:
            out += ("+" if c > 0 else "-") + body
    return out


def make_cases(workload, seed):
    """The workload's cases for this seed, as JSON-ready dicts."""
    rng = random.Random("%s:%d" % (workload, seed))
    cases = []
    for i, (method, n, d, degrees) in enumerate(WORKLOADS[workload]):
        terms = []
        for deg in sorted(degrees, reverse=True):
            terms += _draw_component(rng, deg)
        cases.append({"id": i, "method": method, "n": n, "max_deg": d,
                      "deg_f": max(degrees),
                      "terms": [[list(lam), c] for lam, c in terms],
                      "f": render(terms)})
    return cases


def argv(case):
    return ["chi", "--f", case["f"], "--n", str(case["n"]),
            "--max-deg", str(case["max_deg"]), "--method", case["method"],
            "--format", "json"]


def check_guards(cases, degree_bound, max_n, max_n_constant_term):
    """Raise ValueError if a case would trip an evaluator guard."""
    for case in cases:
        n, d = case["n"], case["max_deg"]
        if case["deg_f"] + d > degree_bound:
            raise ValueError("case %d: deg f + D = %d exceeds DEGREE_BOUND %d"
                             % (case["id"], case["deg_f"] + d, degree_bound))
        cap = max_n_constant_term if case["method"] == "constant-term" \
            else max_n
        if not 1 <= n <= cap:
            raise ValueError("case %d: n = %d outside the %s guard 1..%d"
                             % (case["id"], n, case["method"], cap))


# ---------------------------------------------------------------------------
# reference tables

def ref_path(n, d, refs_dir=REFS):
    return os.path.join(refs_dir, "n%d_D%d.json" % (n, d))


def lam_key(lam):
    return ",".join(map(str, lam))


def load_refs(cases, refs_dir=REFS):
    """{(n, D): {lam: {(a, b): Fraction}}} for every grid the cases use."""
    refs = {}
    for n, d in sorted({(c["n"], c["max_deg"]) for c in cases}):
        with open(ref_path(n, d, refs_dir)) as fh:
            doc = json.load(fh)
        if (doc["n"], doc["max_deg"]) != (n, d):
            raise ValueError("%s holds n=%d D=%d" % (ref_path(n, d, refs_dir),
                                                     doc["n"], doc["max_deg"]))
        tables = {}
        for key, table in doc["tables"].items():
            lam = tuple(int(x) for x in key.split(",")) if key else ()
            tables[lam] = {(a, b): Fraction(v)
                           for a, b, v in table["coefficients"]}
        refs[(n, d)] = tables
    return refs


def expected_table(case, refs):
    tables = refs[(case["n"], case["max_deg"])]
    d = case["max_deg"]
    out = {(a, b): Fraction(0) for a in range(d + 1) for b in range(d + 1)}
    for lam, c in case["terms"]:
        for key, v in tables[tuple(lam)].items():
            out[key] += c * v
    return out


def check_output(case, rc, stdout, refs):
    """None if the CLI output is exactly the expected table, else a reason."""
    if rc != 0:
        return "exit code %s" % rc
    try:
        doc = json.loads(stdout)
        got = {(a, b): Fraction(v) for a, b, v in doc["coefficients"]}
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable output: %s" % exc
    want = expected_table(case, refs)
    if got.keys() != want.keys():
        return "coefficient grid differs from the reference"
    bad = [k for k in sorted(want) if got[k] != want[k]]
    if bad:
        a, b = bad[0]
        return ("%d coefficients differ, first at z1^%d z2^%d: got %s, "
                "want %s" % (len(bad), a, b, got[bad[0]], want[bad[0]]))
    return None
