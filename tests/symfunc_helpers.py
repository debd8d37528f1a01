"""Helpers that only the tests use: the Hall inner product and the
principal specialization as independent checks on the symmetric-function
layer, the parameter specialization f|_{z = value} with the value of a
rational function at a point, the degree of a symmetric function, a
coefficient map of x-Laurent polynomials, `parse_symfunc`, three
plethystic arguments for the vertex-operator identities and the raising
half `gamma_plus` on any argument (Jing's operator takes it on -1/x only,
as `hilbeuler.hall_littlewood.lowering_half`), and the Hall-Littlewood
inner product summed term by term (`hl_inner_by_terms`), as
`hilbeuler.symfunc.hl_inner` computed it before it summed each degree over
one common denominator."""

from fractions import Fraction

from hilbeuler.fexpr import parse, to_symfunc
from hilbeuler.partitions import zee
from hilbeuler.ratfunc import RF0, RF1, RationalFunction1
from hilbeuler.symfunc import SymFunc, to_p
from hilbeuler.xlaurent import XLaurent, add_terms

ARG_ONE = ((0, RF1),)
ARG_X_ONE_MINUS_Z = ((1, RationalFunction1((1, -1))),)  # x*(1-z)
ARG_INV_ONE_MINUS_Z = ((0, RF1 / RationalFunction1((1, -1))),)  # (1-z)^{-1}


def subs_power(r, k):
    """The RationalFunction1 r with z -> z^k substituted."""
    def spread(p):
        out = [0] * ((len(p) - 1) * k + 1)
        out[::k] = p
        return out

    return RationalFunction1(spread(r.num), spread(r.den))


def adams(arg, k):
    """Evaluation of every symbol of a plethystic argument at its k-th
    power. An argument is a finite formal sum of monomials x^e * c(z),
    stored as a tuple of (x-exponent, coefficient) pairs, and x -> x^k,
    z -> z^k in every monomial."""
    return tuple((e * k, subs_power(coef, k)) for e, coef in arg)


def gamma_plus(arg, f):
    """The ring homomorphism p_k -> p_k + A_k, graded by x-degree."""
    fp = to_p(f)
    out = {}
    for lam, cf in fp.c.items():
        # states: (x-degree, kept parts tuple) -> coefficient
        states = {(0, ()): cf}
        for part in lam:
            nxt = {}
            ak = adams(arg, part)
            for (xd, kept), coef in states.items():
                add_terms(nxt, [((xd, kept + (part,)), coef)]
                          + [((xd + e, kept), coef * c) for e, c in ak])
            states = nxt
        for (xd, kept), coef in states.items():
            add_terms(out.setdefault(xd, SymFunc("p")).c,
                      [(tuple(sorted(kept, reverse=True)), coef)])
    return {xd: g for xd, g in out.items() if g}


def parse_symfunc(text):
    return to_symfunc(parse(text))


def rf_eval(r, x):
    """The value of the RationalFunction1 r at the rational x, by Horner's
    rule on its numerator and denominator."""
    def horner(p):
        v = Fraction(0)
        for c in reversed(p):
            v = v * x + c
        return v

    dv = horner(r.den)
    if not dv:
        raise ZeroDivisionError("denominator vanishes at %r" % (x,))
    return horner(r.num) / dv


def subs_z(f, value):
    """Evaluate every coefficient of f at a rational value of the
    parameter."""
    return SymFunc(f.basis, {k: rf_eval(v, value) for k, v in f.c.items()})


def degree(f):
    """The largest degree of a basis element of the SymFunc f, 0 if none."""
    return max((sum(k) for k in f.c), default=0)


def map_coeffs(x, fn):
    """The XLaurent of fn(v) for every coefficient v of x, zeros dropped."""
    r = XLaurent(x.nvars)
    for k, v in x.c.items():
        nv = fn(v)
        if nv:
            r.c[k] = nv
    return r


def hall_inner(f, g):
    """Standard Hall inner product (the z = 0 specialization)."""
    fp, gp = to_p(f), to_p(g)
    acc = Fraction(0)
    for k, v in fp.c.items():
        w = gp.c.get(k)
        if w:
            acc += rf_eval(v, 0) * rf_eval(w, 0) * zee(k)
    return acc


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            out[i + j] += x * y
    return out


def principal_spec(f, order):
    """Substitute x_i -> t^(i-1) for all i; truncated series in t.

    On p_k this is the substitution p_k -> 1/(1 - t^k). Coefficients of f
    must be parameter-free rationals.
    """
    fp = to_p(f)
    out = [Fraction(0)] * (order + 1)
    for lam, coef in fp.c.items():
        if not coef.is_polynomial() or len(coef.num) > 1:
            raise ValueError("principal specialization needs z-free "
                             "coefficients, got %s" % (coef,))
        c = Fraction(coef.num[0], coef.den[0])
        term = [Fraction(1)] + [Fraction(0)] * order
        for k in lam:
            geo = [Fraction(1 if i % k == 0 else 0) for i in range(order + 1)]
            term = _series_mul(term, geo, order)
        for i in range(order + 1):
            out[i] += c * term[i]
    return out


def _p_norm(lam):
    """(p_lam, p_lam)_z = zee(lam) * prod_i (1 - z^{lam_i})^{-1}."""
    r = RationalFunction1.const(zee(lam))
    for part in lam:
        r = r / RationalFunction1([1] + [0] * (part - 1) + [-1])
    return r


def hl_inner_by_terms(f, g):
    """The Hall-Littlewood inner product as one RationalFunction1 sum over
    the common p_k, each term over its own denominator."""
    fp, gp = to_p(f), to_p(g)
    acc = RF0
    for k, v in fp.c.items():
        w = gp.c.get(k)
        if w:
            acc = acc + v * w * _p_norm(k)
    return acc
