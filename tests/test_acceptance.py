"""Acceptance suite: one test per criterion, exact rational equality
throughout, with a PASS/FAIL line printed per criterion (run with -s to see
them alongside the pytest dots)."""

import json
from fractions import Fraction

from hilbeuler.cli import main, verify_cauchy_suite
from hilbeuler.euler import (cross_check, euler_constant_term,
                             euler_localization, euler_theorem,
                             partition_function)
from hilbeuler.finite_inner import hl_inner_finite
from hilbeuler.hall_littlewood import (b_norm, b_norm_finite, expand_in_P,
                                       hl_P, hl_Q, k_exponent, verify_lemma,
                                       z_bracket)
from hilbeuler.partitions import partitions_of, partitions_up_to
from hilbeuler.ratfunc import RF0, RF1, RationalFunction1
from hilbeuler.symfunc import (SymFunc, hl_inner, multiply, schur_positive,
                               to_p)
from symfunc_helpers import principal_spec, subs_z
from test_partitions import part_multiplicity_partition

ONE = SymFunc.one()
ONE_MINUS_Z = RationalFunction1((1, -1))

F_BASKET = [
    ("1", ONE),
    ("p[1]", SymFunc.element("p", (1,))),
    ("s[2]", SymFunc.element("s", (2,))),
    ("s[1,1]", SymFunc.element("s", (1, 1))),
    ("s[2,1]", SymFunc.element("s", (2, 1))),
    ("h[2]", SymFunc.element("h", (2,))),
]


def _poly_coeffs(r):
    """Coefficients of a polynomial rational function, as Fractions."""
    if not r.is_polynomial():
        raise ValueError("not a polynomial: %r" % (r,))
    return tuple(Fraction(c, r.den[0]) for c in r.num)


def _verdict(name, ok):
    print("%s criterion %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


def test_criterion_01_corollary_oracle():
    D = 6
    Z = partition_function(4, D)
    ok = True
    for n in (1, 2, 3, 4):
        ok = ok and euler_theorem(ONE, n, D).series == Z[n]
        ok = ok and euler_localization(ONE, n, D).series == Z[n]
        if n <= 3:
            ok = ok and euler_constant_term(ONE, n, D).series == Z[n]
    _verdict("1 (partition-function oracle, n<=4, D=6)", ok)


# computed once, reused by criteria 2-4
_REPORTS = {}


def _reports():
    if not _REPORTS:
        for label, f in F_BASKET:
            for n in (1, 2, 3):
                _REPORTS[(label, n)] = cross_check(f, n, 5)
    return _REPORTS


def test_criterion_02_three_way_agreement():
    ok = all(not rep.mismatches for rep in _reports().values())
    _verdict("2 (three-way agreement, D=5)", ok)


def test_criterion_03_nonnegativity():
    ok = True
    for (label, n), rep in _reports().items():
        if schur_positive(dict(F_BASKET)[label]):
            ok = ok and rep.results["theorem"].series.is_nonneg_integral()
    _verdict("3 (nonnegative integer coefficients for Schur-positive f)", ok)


def test_criterion_04_symmetry():
    ok = all(rep.results["theorem"].series.is_symmetric()
             for rep in _reports().values())
    D = 6
    for n in (1, 2, 3, 4):
        ok = ok and euler_theorem(ONE, n, D).series.is_symmetric()
    _verdict("4 (z1 <-> z2 symmetry)", ok)


def test_criterion_05_lemma():
    ok = all(verify_lemma(mu, nu).ok
             for mu in partitions_up_to(4) for nu in partitions_up_to(4))
    _verdict("5 (summation lemma, |mu|,|nu| <= 4)", ok)


def test_criterion_06_orthogonality():
    ok = True
    for n in (1, 2, 3):
        for mu in partitions_up_to(3):
            if len(mu) > n:
                continue
            for nu in partitions_up_to(3):
                if len(nu) > n:
                    continue
                val = hl_inner_finite(SymFunc.element("P", mu),
                                      SymFunc.element("P", nu), n)
                want = (ONE_MINUS_Z ** n / b_norm_finite(mu, n)
                        if mu == nu else RF0)
                ok = ok and val == want
    for mu in partitions_up_to(5):
        for nu in partitions_up_to(5):
            val = hl_inner(hl_P(mu), hl_P(nu))
            want = RF1 / b_norm(mu) if mu == nu else RF0
            ok = ok and val == want
    _verdict("6 (orthogonality, finite and infinite)", ok)


def test_criterion_07_jing_vs_gram_schmidt():
    ok = True
    for d in range(6):
        # Gram-Schmidt over a dominance-compatible order, unitriangular in m
        oracle = {}
        for lam in sorted(partitions_of(d)):
            f = to_p(SymFunc.element("m", lam))
            for p in oracle.values():
                c = hl_inner(f, p) / hl_inner(p, p)
                if c:
                    f = f - p.scale(c)
            oracle[lam] = f
        for lam in partitions_of(d):
            ok = ok and to_p(hl_Q(lam)) == oracle[lam].scale(b_norm(lam))
    for lam in partitions_up_to(5):
        ok = ok and subs_z(hl_Q(lam), 0) == to_p(SymFunc.element("s", lam))
    _verdict("7 (vertex-operator Q vs Gram-Schmidt; z=0 Schur)", ok)


def test_criterion_08_cauchy_kernel():
    ok = all(ok for _, ok in verify_cauchy_suite(4))
    _verdict("8 (Cauchy kernel through degree 4)", ok)


def test_criterion_09_k_exponent():
    ok = all(k_exponent(mu, mu) == -sum(mu) for mu in partitions_up_to(6))
    ok = ok and k_exponent((), ()) == 0
    for mu in partitions_up_to(5):
        for nu in partitions_up_to(5):
            ok = ok and k_exponent(mu, nu) == k_exponent(nu, mu)
            lo = max(mu[0] if mu else 0, nu[0] if nu else 0, 1)
            for a in (lo, lo + 1, lo + 2):
                ok = ok and (k_exponent((a,) + mu, nu) - k_exponent(mu, nu)
                             == sum(mu) - sum(nu))
    _verdict("9 (k-exponent formula vs recursion)", ok)


def test_criterion_10_corollary_proof_identities():
    order = 10
    ok = True
    for lam in partitions_up_to(5):
        n = sum(lam)
        ps = principal_spec(SymFunc.element("m", lam) if lam
                            else SymFunc.one("m"), order)
        brute = [Fraction(0)] * (order + 1)
        for s in range(order + 1):
            for mu in partitions_of(s):
                if len(mu) <= n and part_multiplicity_partition(mu, n) == lam:
                    brute[s] += 1
        ok = ok and ps == brute
    for r in range(7):
        h = SymFunc.element("h", (r,)) if r else SymFunc.one()
        ok = ok and principal_spec(h, order) == \
            (RF1 / z_bracket(r)).expand(order)
    _verdict("10 (multiset and h-bracket identities)", ok)


def test_criterion_11_schur_positive_matrix_elements():
    ok = True
    for lam in ((2,), (1, 1), (2, 1)):
        f = to_p(SymFunc.element("s", lam))
        for d in range(4):
            for mu in partitions_of(d):
                for nu, c in expand_in_P(multiply(f, hl_P(mu))).items():
                    if not c.is_polynomial():
                        ok = False
                        continue
                    ok = ok and all(x >= 0 and x.denominator == 1
                                    for x in _poly_coeffs(c))
    _verdict("11 (matrix elements are nonneg integer z-polynomials)", ok)


def test_criterion_12_cli_determinism(capsys):
    runs = []
    for _ in range(3):
        code = main(["chi", "--f", "s[2]", "--n", "2", "--max-deg", "3",
                     "--method", "all", "--format", "json"])
        out = capsys.readouterr().out
        runs.append((code, out))
        code = main(["chi", "--f", "p[1]", "--n", "2", "--max-deg", "2",
                     "--format", "csv"])
        out = capsys.readouterr().out
        runs.append((code, out))
        code = main(["verify", "kprop", "--max-size", "3"])
        out = capsys.readouterr().out
        runs.append((code, out))
    third = len(runs) // 3
    ok = (runs[:third] == runs[third:2 * third] == runs[2 * third:]
          and all(c == 0 for c, _ in runs)
          and json.loads(runs[0][1])["agreement"] is True)
    _verdict("12 (byte-identical CLI output across runs)", ok)
