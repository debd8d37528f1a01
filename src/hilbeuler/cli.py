"""Command-line front end.

Subcommands:
  chi     evaluate the equivariant Euler characteristic coefficient table
  verify  run the built-in identity suites
  hl      Hall-Littlewood utilities (expansions, vertex operator, pairings)

The Hall-Littlewood parameter prints as "z" in `hl` subcommands; in `chi`
subcommands it is bound to z1.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .euler import (METHODS, GuardError, cross_check, euler_theorem,
                    evaluate, partition_function)
from .fexpr import ParseError, parse, parse_parts, render, to_symfunc
from .hall_littlewood import (b_norm, b_norm_finite, hl_P, hl_q_row,
                              jing_J, k_exponent, verify_lemma)
from .partitions import partitions_of, partitions_up_to
from .ratfunc import RF0, RF1, RationalFunction1, rf_str
from .symfunc import (DEGREE_BOUND, DegreeBoundError, SymFunc, convert,
                      hl_inner, to_p)
from .xlaurent import add_terms


# ---------------------------------------------------------------------------
# rendering

def _part_key(kv):
    k = kv[0]
    return (sum(k), tuple(-x for x in k))


def symfunc_str(f):
    """Render a symmetric function, e.g. "m[2] + (1-z)*m[1,1]"."""
    if not f.c:
        return "0"
    terms = []
    for k, v in sorted(f.c.items(), key=_part_key):
        coef = rf_str(v)
        if not coef.lstrip("-").isdigit() or coef.startswith("-"):
            coef = "(%s)" % coef
        if not k:
            terms.append(coef)
            continue
        atom = "%s[%s]" % (f.basis, ",".join(map(str, k)))
        terms.append(atom if v == RF1 else "%s*%s" % (coef, atom))
    return " + ".join(terms)


#: str writes an int of up to 640 digits whatever the process's
#: sys.get_int_max_str_digits() is, so longer ones go in chunks of 600
_CHUNK = 10 ** 600


def _int_str(k):
    """str(k) for an int of any length, its chunks split off by divmod."""
    head, chunks = abs(k), []
    while head >= _CHUNK:
        head, low = divmod(head, _CHUNK)
        chunks.append("%0600d" % low)
    sign = "-" if k < 0 else ""
    return sign + str(head) + "".join(reversed(chunks))


def _coeff_str(value):
    if type(value) is int:
        return _int_str(value)
    value = Fraction(value)
    text = _int_str(value.numerator)
    if value.denominator != 1:
        text += "/" + _int_str(value.denominator)
        import logging
        logging.getLogger(__name__).warning(
            "non-integral coefficient %s encountered", text)
    return text


# ---------------------------------------------------------------------------
# chi

def _emit_table(out, series, max_deg, fmt, meta, agreement=None):
    rows = [(a, b, _coeff_str(series.coeff(a, b)))
            for a in range(max_deg + 1) for b in range(max_deg + 1)]
    if fmt == "json":
        doc = dict(meta)
        doc["coefficients"] = [[a, b, v] for a, b, v in rows]
        if agreement is not None:
            doc["agreement"] = agreement
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    elif fmt == "csv":
        out.write("a,b,value\n")
        for a, b, v in rows:
            out.write("%d,%d,%s\n" % (a, b, v))
    else:
        out.write("chi_%d(%s), coefficients of z1^a z2^b for a,b <= %d "
                  "(method: %s)\n" % (meta["n"], meta["f"], max_deg,
                                      meta["method"]))
        width = max(len(v) for _, _, v in rows)
        header = "b\\a " + " ".join(str(a).rjust(width)
                                    for a in range(max_deg + 1))
        out.write(header + "\n")
        for b in range(max_deg + 1):
            # rows runs over a, then b, so one b's entries are every
            # (max_deg + 1)-th row
            vals = " ".join(v.rjust(width)
                            for _, _, v in rows[b::max_deg + 1])
            out.write("%-4s%s\n" % (b, vals))
        if agreement is not None:
            out.write("agreement: %s\n" % ("MATCH" if agreement
                                           else "MISMATCH"))


def cmd_chi(args):
    tree = parse(args.f)
    f = to_symfunc(tree)
    # fixed_point_data's orientation, a key of the JSON schema
    meta = {"method": args.method, "n": args.n, "f": render(tree),
            "max_deg": args.max_deg, "convention": "row"}
    if args.method == "all":
        report = cross_check(f, args.n, args.max_deg)
        series = report.results["theorem"].series
        _emit_table(sys.stdout, series, args.max_deg, args.format, meta,
                    agreement=report.passed)
        for m1, m2, (a, b), v1, v2 in report.mismatches:
            sys.stderr.write("mismatch at z1^%d z2^%d: %s=%s %s=%s\n"
                             % (a, b, m1, v1, m2, v2))
        for check, method, (a, b), v in report.failures:
            sys.stderr.write("%s fails at z1^%d z2^%d: %s=%s\n"
                             % (check, a, b, method, v))
        return 0 if report.passed else 1
    result = evaluate(args.method, f, args.n, args.max_deg)
    _emit_table(sys.stdout, result.series, args.max_deg, args.format, meta)
    return 0


# ---------------------------------------------------------------------------
# verify

def _report(out, cases):
    """cases: iterable of (label, ok). Prints one line per case."""
    failed = 0
    total = 0
    for label, ok in cases:
        total += 1
        if not ok:
            failed += 1
        out.write("%s %s\n" % ("PASS" if ok else "FAIL", label))
    out.write("%d/%d passed\n" % (total - failed, total))
    return 0 if failed == 0 else 1


def verify_lemma_suite(max_size):
    for mu in partitions_up_to(max_size):
        for nu in partitions_up_to(max_size):
            chk = verify_lemma(mu, nu)
            yield "lemma mu=%s nu=%s" % (list(mu), list(nu)), chk.ok


def verify_orthogonality_suite(n, max_size):
    from .finite_inner import hl_inner_finite
    one_minus_z = RationalFunction1((1, -1))
    for mu in partitions_up_to(max_size):
        if len(mu) > n:
            continue
        for nu in partitions_up_to(max_size):
            if len(nu) > n:
                continue
            val = hl_inner_finite(SymFunc.element("P", mu),
                                  SymFunc.element("P", nu), n)
            want = (one_minus_z ** n / b_norm_finite(mu, n)
                    if mu == nu else RF0)
            yield ("orthogonality n=%d mu=%s nu=%s"
                   % (n, list(mu), list(nu))), val == want


def verify_cauchy_suite(max_size):
    """Degree-by-degree expansion of the Hall-Littlewood Cauchy kernel:
    the x^d coefficient of Omega(x(1-z)XY), which is hl_q_row(d) on the
    diagonal of p tensor p, equals sum over lam of d of
    b_lam P_lam(X) P_lam(Y)."""
    for d in range(max_size + 1):
        lhs = {(kappa, kappa): v for kappa, v in hl_q_row(d).c.items()}
        rhs = {}
        for lam in partitions_of(d):
            p1 = to_p(SymFunc.element("P", lam))
            bl = b_norm(lam)
            for k1, c1 in p1.c.items():
                add_terms(rhs, (((k1, k2), bl * c1 * c2)
                                for k2, c2 in p1.c.items()))
        yield "cauchy degree=%d" % d, lhs == rhs


def verify_corollary_suite(n, max_deg):
    got = euler_theorem(SymFunc.one(), n, max_deg).series
    want = partition_function(n, max_deg)[n]
    yield "corollary n=%d max_deg=%d" % (n, max_deg), got == want


def verify_kprop_suite(max_size):
    yield "kprop empty-empty", k_exponent((), ()) == 0
    pairs = [(mu, nu) for mu in partitions_up_to(max_size)
             for nu in partitions_up_to(max_size)]
    ok_sym = all(k_exponent(mu, nu) == k_exponent(nu, mu)
                 for mu, nu in pairs)
    yield "kprop symmetry size<=%d" % max_size, ok_sym
    ok_rec = True
    for mu, nu in pairs:
        lo = max((mu[0] if mu else 0), (nu[0] if nu else 0), 1)
        for a in range(lo, lo + 3):
            lhs = k_exponent((a,) + mu, nu) - k_exponent(mu, nu)
            if lhs != sum(mu) - sum(nu):
                ok_rec = False
    yield "kprop recursion size<=%d" % max_size, ok_rec


def _check_verify_args(args):
    """Raise GuardError for a size or n the suite cannot run, before any
    case is built or written."""
    if args.suite != "corollary" and not 0 <= args.max_size <= DEGREE_BOUND:
        raise GuardError("--max-size must be in 0..%d" % DEGREE_BOUND)
    if args.suite == "orthogonality" and not 1 <= args.n <= 3:
        raise GuardError("--n must be in 1..3 (the finite inner product "
                         "is exact for n <= 3 only)")


def cmd_verify(args):
    _check_verify_args(args)
    if args.suite == "lemma":
        cases = verify_lemma_suite(args.max_size)
    elif args.suite == "orthogonality":
        cases = verify_orthogonality_suite(args.n, args.max_size)
    elif args.suite == "cauchy":
        cases = verify_cauchy_suite(args.max_size)
    elif args.suite == "corollary":
        cases = verify_corollary_suite(args.n, args.max_deg)
    else:
        cases = verify_kprop_suite(args.max_size)
    return _report(sys.stdout, cases)


# ---------------------------------------------------------------------------
# hl

def cmd_hl(args):
    out = sys.stdout
    if args.hl_cmd == "poly":
        lam = parse_parts(args.lam)
        out.write(symfunc_str(convert(hl_P(lam), args.basis)) + "\n")
        return 0
    if args.hl_cmd == "jing":
        f = to_symfunc(parse(args.apply))
        out.write(symfunc_str(jing_J(args.k, to_p(f))) + "\n")
        return 0
    f = to_symfunc(parse(args.f))
    g = to_symfunc(parse(args.g))
    if args.n is None:
        val = hl_inner(f, g)
    else:
        from .finite_inner import hl_inner_finite
        val = hl_inner_finite(f, g, args.n)
    out.write(rf_str(val) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _chi_arguments(chi):
    chi.add_argument("--f", required=True,
                     help="symmetric-function expression, e.g. 's[2,1]+2*p[1]'")
    chi.add_argument("--n", type=int, required=True, help="number of points")
    chi.add_argument("--max-deg", type=int, default=5,
                     help="truncation degree in each of z1, z2 (default 5)")
    chi.add_argument("--method", default="theorem",
                     choices=[*METHODS, "all"])
    chi.add_argument("--format", default="pretty",
                     choices=["json", "csv", "pretty"])


def _verify_arguments(ver):
    vsub = ver.add_subparsers(dest="suite", required=True)
    v = vsub.add_parser("lemma")
    v.add_argument("--max-size", type=int, default=4)
    v = vsub.add_parser("orthogonality")
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--max-size", type=int, default=3)
    v = vsub.add_parser("cauchy")
    v.add_argument("--max-size", type=int, default=4)
    v = vsub.add_parser("corollary")
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--max-deg", type=int, default=5)
    v = vsub.add_parser("kprop")
    v.add_argument("--max-size", type=int, default=5)


def _hl_arguments(hl):
    hsub = hl.add_subparsers(dest="hl_cmd", required=True)
    h = hsub.add_parser("poly", help="expand P_lambda in a classical basis")
    h.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated partition, e.g. '2,1'")
    h.add_argument("--basis", default="m", choices=["m", "p"])
    h = hsub.add_parser("jing", help="apply the vertex operator component J_k")
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--apply", required=True,
                   help="expression the operator acts on")
    h = hsub.add_parser("inner", help="Hall-Littlewood inner product")
    h.add_argument("--f", required=True)
    h.add_argument("--g", required=True)
    h.add_argument("--n", type=int, default=None,
                   help="number of variables (default: infinite)")


#: name -> (add_parser keywords, the function that adds its arguments)
_COMMANDS = {
    "chi": (dict(help="coefficient table of the equivariant Euler "
                      "characteristic",
                 description="The Hall-Littlewood parameter of P/Q atoms in "
                             "--f is bound to z1."),
            _chi_arguments),
    "verify": (dict(help="run a built-in identity suite"),
               _verify_arguments),
    "hl": (dict(help="Hall-Littlewood utilities",
                description="The Hall-Littlewood parameter prints as 'z' "
                            "here."),
           _hl_arguments),
}


@lru_cache(maxsize=None)
def build_parser(command=None):
    """The argument parser, built once per process and command; parsing
    leaves it unchanged. Every command is registered with its help and
    description, but with command given only that one gets its arguments
    and nested parsers: an argv that starts with command reads nothing else
    of the others, so it parses and prints as with the full parser."""
    ap = argparse.ArgumentParser(
        prog="hilbeuler",
        description="Exact equivariant Euler characteristics on Hilbert "
                    "schemes of points in the plane.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (keywords, add_arguments) in _COMMANDS.items():
        parser = sub.add_parser(name, **keywords)
        if command in (None, name):
            add_arguments(parser)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "chi":
            return cmd_chi(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_hl(args)
    except ParseError as exc:
        sys.stderr.write("error: parse: %s\n" % exc)
        return 2
    except (GuardError, DegreeBoundError) as exc:
        sys.stderr.write("error: guard: %s\n" % exc)
        return 2
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write("error: invalid: %s\n" % exc)
        return 2
    except MemoryError:
        sys.stderr.write("error: memory: out of memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
