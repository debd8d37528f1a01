"""Equivariant Euler characteristics of tautological classes, three ways.

The evaluators share exact arithmetic but nothing else: fixed-point
localization (iterated Laurent expansion, z2 outermost), the quiver
constant-term formula (nonnegative-orthant pairing), and the Hall-Littlewood
summation formula. A cross-check driver compares them coefficient by
coefficient.
"""

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import arm_leg, as_partition, cells, partitions_of
from .ratfunc import RF0, RF1, RationalFunction1, padd, pmul
from .series import BiSeries, geometric, geometric_z1z2
from .symfunc import convert, schur_positive, to_finite_vars, to_p
# perfbench/tracer.py rebinds expand_in_P, hl_P, k_exponent and multiply in
# this module by name, so they stay imported here although only k_exponent
# is called.
from .hall_littlewood import (expand_in_P, hl_P, k_exponent, multiply,
                              pieri_e, z_bracket, z_multinomial)

log = logging.getLogger(__name__)

#: orientation of the fixed-point weight data; frozen by the calibration
#: test against the partition-function product for n = 1, 2, 3.
DEFAULT_CONVENTION = "row"

#: honest desk-scale guards
MAX_N_CONSTANT_TERM = 3
MAX_N = 6


class GuardError(ValueError):
    pass


# ---------------------------------------------------------------------------
# virtual characters

class VirtualCharacter:
    """Formal integer combination of torus weight monomials z1^p z2^q."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    self.c[tuple(k)] = int(v)

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        r = VirtualCharacter()
        r.c = out
        return r

    def __neg__(self):
        r = VirtualCharacter()
        r.c = {k: -v for k, v in self.c.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def swap_vars(self):
        r = VirtualCharacter()
        r.c = {(q, p): v for (p, q), v in self.c.items()}
        return r

    def __eq__(self, other):
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self.c == other.c

    def items_sorted(self):
        return sorted(self.c.items())

    def total(self):
        return sum(self.c.values())

    def __repr__(self):
        return "VirtualCharacter(%r)" % (self.c,)


# ---------------------------------------------------------------------------
# wedge expansion: iterated Laurent series, z2 outermost

def _is_small(p, q):
    """Wedge rule: a monomial is expanded geometrically iff it is 'small'."""
    return q > 0 or (q == 0 and p > 0)


class WedgeSeries:
    """Truncated series in z2 whose coefficients are exact z1 rationals."""

    __slots__ = ("order", "c")

    def __init__(self, order, coeffs=None):
        self.order = order
        self.c = {}
        if coeffs:
            for b, v in coeffs.items():
                if 0 <= b <= order and v:
                    self.c[b] = v

    @classmethod
    def const(cls, order, rf):
        if not isinstance(rf, RationalFunction1):
            rf = RationalFunction1.const(rf)
        return cls(order, {0: rf})

    def __add__(self, other):
        out = dict(self.c)
        for b, v in other.c.items():
            nv = out.get(b, RF0) + v
            if nv:
                out[b] = nv
            else:
                out.pop(b, None)
        r = WedgeSeries(self.order)
        r.c = out
        return r

    def __mul__(self, other):
        D = self.order
        out = {}
        for b1, v1 in self.c.items():
            for b2, v2 in other.c.items():
                b = b1 + b2
                if b > D:
                    continue
                nv = out.get(b, RF0) + v1 * v2
                if nv:
                    out[b] = nv
                else:
                    out.pop(b, None)
        r = WedgeSeries(D)
        r.c = out
        return r

    def scale(self, rf):
        r = WedgeSeries(self.order)
        for b, v in self.c.items():
            nv = v * rf
            if nv:
                r.c[b] = nv
        return r

    def to_biseries(self):
        """Expand every z2-coefficient in z1; each must be holomorphic at 0."""
        D = self.order
        out = BiSeries(D)
        for b, rf in self.c.items():
            if not rf.den[0]:
                raise ArithmeticError(
                    "z2-coefficient of degree %d is not holomorphic at z1=0: "
                    "%s" % (b, rf))
            for a, v in enumerate(rf.expand(D)):
                if v:
                    out.c[(a, b)] = v
        return out


def _wedge_inverse_factor(p, q, order):
    """(1 - z1^p z2^q)^(-1) expanded by the wedge rule."""
    if (p, q) == (0, 0):
        raise ValueError("plethystic exponential undefined at the trivial "
                         "monomial")
    ws = WedgeSeries(order)
    if _is_small(p, q):
        if q == 0:
            # 1/(1 - z1^p), p > 0: exact rational coefficient in degree 0
            ws.c[0] = RF1 / (RF1 - RationalFunction1.z_power(p))
        else:
            for k in range(order // q + 1):
                ws.c[k * q] = ws.c.get(k * q, RF0) + RationalFunction1.z_power(k * p)
    else:
        # large: (1 - m)^{-1} = -sum_{k>=1} m^{-k}
        if q == 0:
            # p < 0: -z1^{-p} / (1 - z1^{-p})
            zp = RationalFunction1.z_power(-p)
            ws.c[0] = -zp / (RF1 - zp)
        else:
            k = 1
            while -k * q <= order:
                ws.c[-k * q] = ws.c.get(-k * q, RF0) - RationalFunction1.z_power(-k * p)
                k += 1
    return ws


def _wedge_poly_factor(p, q, order):
    """(1 - z1^p z2^q) as a wedge series (needs q >= 0)."""
    if q < 0:
        raise ValueError("cannot store z2-negative polynomial factor")
    ws = WedgeSeries(order, {0: RF1})
    if q <= order:
        ws.c[q] = ws.c.get(q, RF0) - RationalFunction1.z_power(p)
        if not ws.c[q]:
            del ws.c[q]
    return ws


def omega(char, order):
    """Plethystic exponential of a virtual character as a wedge series.

    Product over monomials m with multiplicity c of (1 - m)^(-c), each
    factor expanded by the wedge rule (z2 outermost).
    """
    out = WedgeSeries.const(order, RF1)
    for (p, q), mult in char.items_sorted():
        if (p, q) == (0, 0):
            raise ValueError("plethystic exponential undefined at the "
                             "trivial monomial")
        if mult > 0:
            f = _wedge_inverse_factor(p, q, order)
            for _ in range(mult):
                out = out * f
        else:
            f = _wedge_poly_factor(p, q, order)
            for _ in range(-mult):
                out = out * f
    return out


# ---------------------------------------------------------------------------
# fixed-point data

@dataclass
class FixedPointData:
    mu: tuple
    taut_char: VirtualCharacter
    cotangent_char: VirtualCharacter


def fixed_point_data(mu, convention=DEFAULT_CONVENTION):
    """Tautological-fiber and cotangent-fiber characters at a fixed point."""
    mu = as_partition(mu)
    if convention not in ("row", "col"):
        raise ValueError("convention must be 'row' or 'col'")
    taut = {}
    cot = {}
    for (i, j) in cells(mu):
        # z1 tracks the arm (row) direction, z2 the leg (column) direction,
        # for both the tautological fiber and the cotangent weights
        taut[(j, i)] = taut.get((j, i), 0) + 1
        a, l = arm_leg(mu, (i, j))
        for key in ((a + 1, -l), (-a, l + 1)):
            cot[key] = cot.get(key, 0) + 1
    data = FixedPointData(mu, VirtualCharacter(taut), VirtualCharacter(cot))
    if convention == "col":
        data = FixedPointData(mu, data.taut_char.swap_vars(),
                              data.cotangent_char.swap_vars())
    return data


# ---------------------------------------------------------------------------
# results

@dataclass
class EulerResult:
    method: str
    series: BiSeries
    n: int
    order: int
    seconds: float = 0.0
    convention: str = DEFAULT_CONVENTION


# ---------------------------------------------------------------------------
# evaluator 1: fixed-point localization

def euler_localization(f, n, order, convention=DEFAULT_CONVENTION):
    if n < 1:
        raise GuardError("n must be >= 1")
    if order < 0:
        raise GuardError("max degree must be >= 0")
    if n > MAX_N:
        raise GuardError("localization evaluator refuses n > %d" % MAX_N)
    t0 = time.monotonic()
    fp = to_p(f)
    total = WedgeSeries(order)
    for mu in partitions_of(n):
        data = fixed_point_data(mu, convention)
        feval = WedgeSeries(order)
        for lam, coef in fp.c.items():
            term = WedgeSeries.const(order, RF1)
            for k in lam:
                pk = WedgeSeries(order)
                for (p, q), mult in data.taut_char.c.items():
                    b = k * q
                    if b > order:
                        continue
                    pk.c[b] = (pk.c.get(b, RF0)
                               + RationalFunction1.z_power(k * p) * mult)
                term = term * pk
            feval = feval + term.scale(coef)
        total = total + feval * omega(data.cotangent_char, order)
    series = total.to_biseries()
    return EulerResult("localization", series, n, order,
                       time.monotonic() - t0, convention)


# ---------------------------------------------------------------------------
# evaluator 2: quiver constant-term formula

@lru_cache(maxsize=None)
def _pair_kernel(order):
    """Bilateral expansion in u = x_i/x_j of the ordered-pair factors

    (1-u)(1-1/u)(1-z1z2*u)(1-z1z2/u) / ((1-z1*u)(1-z1/u)(1-z2*u)(1-z2/u))

    with the z-geometric factors truncated at the window order. Returns a
    dict u-exponent -> BiSeries.
    """
    one = BiSeries.const(order, 1)
    z1z2 = BiSeries.monomial(order, 1, 1)
    factors = [
        {0: one, 1: -one},
        {0: one, -1: -one},
        {0: one, 1: -z1z2},
        {0: one, -1: -z1z2},
    ]
    for axis in (1, 2):
        up, down = {}, {}
        for k in range(order + 1):
            mono = BiSeries.monomial(order, k, 0) if axis == 1 \
                else BiSeries.monomial(order, 0, k)
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
def _delta_kernel(n, order, slack):
    """Product of pair kernels over all unordered variable pairs, as a dict
    exponent-vector -> BiSeries. Entries that cannot be raised back into the
    nonnegative orthant within the remaining budget are dropped."""
    pk = _pair_kernel(order)
    acc = {(0,) * n: BiSeries.const(order, 1)}
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


def euler_constant_term(f, n, order, force=False):
    if n < 1:
        raise GuardError("n must be >= 1")
    if order < 0:
        raise GuardError("max degree must be >= 0")
    if n > MAX_N_CONSTANT_TERM and not force:
        raise GuardError("constant-term evaluator refuses n > %d "
                         "(pass force=True to override)" % MAX_N_CONSTANT_TERM)
    if n > MAX_N:
        raise GuardError("constant-term evaluator refuses n > %d" % MAX_N)
    t0 = time.monotonic()
    fp = to_p(f)
    degf = fp.degree()
    fx = to_finite_vars(fp, n)
    kern = _delta_kernel(n, order, degf)
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
        shifted = shifted + bs.shift(raise_cost, raise_cost)
    total = shifted * (geometric_z1z2(order) ** n)
    prefactor = ((BiSeries.const(order, 1) - BiSeries.monomial(order, 1, 1))
                 * geometric(order, 1) * geometric(order, 2)) ** n
    series = total * prefactor * Fraction(1, factorial(n))
    return EulerResult("constant-term", series, n, order,
                       time.monotonic() - t0)


# ---------------------------------------------------------------------------
# evaluator 3: the Hall-Littlewood summation formula

def _e_times_P(rho, mu, n):
    """e_rho * P_mu on the P_nu with len(nu) <= n: dict nu -> int poly."""
    out = {mu: (1,)}
    for r in rho:
        nxt = {}
        for lam, c in out.items():
            for nu, cn in pieri_e(lam, r, n).items():
                nxt[nu] = padd(nxt.get(nu, (0,)), pmul(c, cn))
        out = nxt
    return out


def euler_theorem(f, n, order):
    """The summation formula: the z2^m coefficient is
    sum over mu |- m, nu of z1^(m + k(mu, nu)) <f P_mu, Q_nu> / b_{nu,n}.

    f is written once in the e-basis, so every matrix element comes from
    the e-Pieri rule as an integer polynomial. Over the common denominator
    [n]_z1 each term is z1^shift * <e_rho P_mu, Q_nu> * [n]_z1 / b_{nu,n},
    a Laurent polynomial with integer coefficients.
    """
    if n < 1:
        raise GuardError("n must be >= 1")
    if order < 0:
        raise GuardError("max degree must be >= 0")
    if n > MAX_N:
        raise GuardError("theorem evaluator refuses n > %d" % MAX_N)
    t0 = time.monotonic()
    fe = convert(to_p(f), "e")
    den = z_bracket(n).num
    series = BiSeries(order)
    for m in range(order + 1):
        # numerators per e_rho, each as z1-shift -> integer polynomial
        nums = {rho: {} for rho in fe.c}
        for mu in partitions_of(m, n):
            shifts = {}
            for rho, num in nums.items():
                for nu, c in _e_times_P(rho, mu, n).items():
                    shift = shifts.get(nu)
                    if shift is None:
                        shift = shifts[nu] = m + k_exponent(mu, nu)
                        if shift < 0:
                            log.debug("term-level negative z1 exponent %d at "
                                      "mu=%r nu=%r", shift, mu, nu)
                    num[shift] = padd(num.get(shift, (0,)),
                                      pmul(c, z_multinomial(nu, n)))
        acc = RF0
        for rho, num in nums.items():
            lo = min(num, default=0)
            poly = (0,)
            for shift, p in num.items():
                poly = padd(poly, (0,) * (shift - lo) + p)
            term = RationalFunction1((0,) * max(lo, 0) + poly,
                                     (0,) * max(-lo, 0) + den)
            acc = acc + term * fe.c[rho]
        if not acc:
            continue
        if not acc.den[0]:
            raise ArithmeticError(
                "negative z1 exponent survives in the finalized series at "
                "z2-degree %d: %s" % (m, acc))
        for a, v in enumerate(acc.expand(order)):
            if v:
                series.c[(a, m)] = v
    return EulerResult("theorem", series, n, order, time.monotonic() - t0)


def evaluate(method, f, n, order, convention=DEFAULT_CONVENTION):
    if method == "localization":
        return euler_localization(f, n, order, convention)
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
                nxt = powers[-1] * mono
                powers.append(nxt)
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

@dataclass
class CrossCheckReport:
    f_repr: str
    n: int
    order: int
    results: dict
    agree: bool
    mismatches: list
    schur_positive: bool
    nonneg_ok: bool
    symmetric_ok: bool

    @property
    def passed(self):
        ok = self.agree and self.symmetric_ok
        if self.schur_positive:
            ok = ok and self.nonneg_ok
        return ok


def cross_check(f, n, order, methods=("theorem", "localization",
                                      "constant-term"),
                convention=DEFAULT_CONVENTION):
    """Run the requested evaluators and compare them coefficient by
    coefficient; failures are report content, not exceptions."""
    results = {}
    for method in methods:
        results[method] = evaluate(method, f, n, order, convention)
    names = list(results)
    mismatches = []
    base = results[names[0]].series
    for other in names[1:]:
        s = results[other].series
        keys = set(base.c) | set(s.c)
        for key in sorted(keys):
            va, vb = base.coeff(*key), s.coeff(*key)
            if va != vb:
                mismatches.append((names[0], other, key, va, vb))
    is_pos = schur_positive(f)
    nonneg_ok = all(r.series.is_nonneg_integral() for r in results.values())
    symmetric_ok = all(r.series.is_symmetric() for r in results.values())
    return CrossCheckReport(repr(f), n, order, results, not mismatches,
                            mismatches, is_pos, nonneg_ok, symmetric_ok)
