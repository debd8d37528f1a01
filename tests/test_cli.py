import collections
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hilbeuler
from hilbeuler import cli, euler, ratfunc
from hilbeuler.cli import _coeff_str, build_parser, main, symfunc_str
from hilbeuler.symfunc import SymFunc, convert
from hilbeuler.hall_littlewood import hl_P


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_trivial_table(capsys):
    code, out, err = run_cli(capsys, "chi", "--f", "s[]", "--n", "1",
                             "--max-deg", "2", "--method", "theorem")
    assert code == 0
    # all-ones 3x3 table
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 3
    for line in lines:
        assert line.split()[1:] == ["1", "1", "1"]


def test_chi_all_methods_json(capsys):
    code, out, err = run_cli(capsys, "chi", "--f", "s[2]", "--n", "2",
                             "--max-deg", "3", "--method", "all",
                             "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True
    assert doc["method"] == "all"
    assert doc["n"] == 2
    assert doc["f"] == "s[2]"
    coeffs = doc["coefficients"]
    assert coeffs == sorted(coeffs, key=lambda r: (r[0], r[1]))
    assert all(int(v) >= 0 for _, _, v in coeffs)


def test_chi_all_reports_mismatches_on_stderr(capsys, monkeypatch):
    argv = ("chi", "--f", "s[2]", "--n", "2", "--max-deg", "3",
            "--method", "all", "--format", "json")
    _, good, _ = run_cli(capsys, *argv)
    localization = euler.euler_localization
    want = localization(SymFunc.element("s", (2,)), 2, 3).series.coeff(1, 2)

    def off_by_one(*args):
        res = localization(*args)
        res.series.c[(1, 2)] += 1
        return res

    monkeypatch.setattr(euler, "euler_localization", off_by_one)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    # the table is the theorem's; only the agreement flag changes
    assert out == good.replace('"agreement":true', '"agreement":false')
    assert err.splitlines() == [
        "mismatch at z1^1 z2^2: theorem=%s localization=%s"
        % (want, want + 1)]


def test_chi_all_names_failed_property_checks_on_stderr(capsys,
                                                       monkeypatch):
    argv = ("chi", "--f", "s[2]", "--n", "2", "--max-deg", "3",
            "--method", "all", "--format", "csv")
    evaluate = euler.evaluate

    def negative_at_1_2(*args):
        res = evaluate(*args)
        res.series.c[(1, 2)] = -1
        return res

    # every evaluator agrees on a table that is neither symmetric nor
    # nonnegative, which s[2] (Schur-positive, constant coefficients) needs
    monkeypatch.setattr(euler, "evaluate", negative_at_1_2)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "1,2,-1\n" in out
    assert err.splitlines() == [
        "symmetry fails at z1^1 z2^2: theorem=-1",
        "nonnegativity fails at z1^1 z2^2: theorem=-1"]


def test_chi_all_does_not_require_symmetry_for_hall_littlewood_atoms(capsys):
    # Q[3] has p-coefficients in z1, and its chi is not symmetric in z1, z2
    code, out, err = run_cli(capsys, "chi", "--f", "Q[3]", "--n", "2",
                             "--max-deg", "2", "--method", "all",
                             "--format", "csv")
    assert code == 0
    assert "0,2,4\n" in out and "2,0,1\n" in out
    assert err == ""


@pytest.mark.parametrize("f, table", [
    ("m[9,2]", "0   0 0\n1   0 1\n"),
    ("s[4,4,4]", "0   0 0\n1   0 0\n"),
])
def test_chi_all_at_degree_eleven_and_twelve(capsys, f, table):
    # --method all converts f to s for its Schur-positivity check
    code, out, err = run_cli(capsys, "chi", "--f", f, "--n", "2",
                             "--max-deg", "1", "--method", "all")
    assert (code, err) == (0, "")
    assert out == ("chi_2(%s), coefficients of z1^a z2^b for a,b <= 1 "
                   "(method: all)\nb\\a 0 1\n%sagreement: MATCH\n"
                   % (f, table))


def test_chi_parse_error(capsys):
    code, out, err = run_cli(capsys, "chi", "--f", "s[1,2]", "--n", "1")
    assert code == 2
    assert err.startswith("error: parse:")


@pytest.mark.parametrize("text", ["+".join(["1"] * 1000),
                                  "(" * 1200 + "1" + ")" * 1200])
def test_chi_refuses_an_expression_nested_too_deep(capsys, text):
    code, out, err = run_cli(capsys, "chi", "--f", text, "--n", "1",
                             "--max-deg", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: parse:"), err
    assert "nests more than 200 levels" in err


_LONG_INTEGER = "1" * 4301


@pytest.mark.parametrize("argv", [
    ("chi", "--f", _LONG_INTEGER, "--n", "1", "--max-deg", "1"),
    ("chi", "--f", "s[%s]" % _LONG_INTEGER, "--n", "1", "--max-deg", "1"),
    ("hl", "poly", "--lambda", _LONG_INTEGER)])
def test_an_integer_of_too_many_digits_is_a_parse_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: parse: an integer has more than 4300 "
                          "digits"), err
    assert "Exceeds" not in err and "set_int_max_str_digits" not in err


def test_a_coefficient_of_more_digits_than_str_writes_prints_exactly(capsys):
    # (10^3000 - 1)^2 has 6000 digits: two accepted literals whose product
    # passes the 4300 digits that str writes by default
    nines = "9" * 3000
    want = "9" * 2999 + "8" + "0" * 2999 + "1"
    base = ["chi", "--f", "%s*%s" % (nines, nines), "--n", "1",
            "--max-deg", "1", "--method", "theorem", "--format"]
    code, out, err = run_cli(capsys, *base, "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"] == [
        [a, b, want] for a in (0, 1) for b in (0, 1)]
    code, out, err = run_cli(capsys, *base, "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["%d,%d,%s" % (a, b, want)
                                    for a in (0, 1) for b in (0, 1)]
    code, out, err = run_cli(capsys, *base, "pretty")
    assert (code, err) == (0, "")
    assert [line.split()[1:] for line in out.splitlines()[2:4]] == [
        [want, want]] * 2


_E600 = 10 ** 600


@pytest.mark.parametrize("value", [
    0, 1, -1, _E600 - 1, 1 - _E600, _E600, -_E600,
    int("1234567890" * 130)])
def test_an_int_coefficient_prints_as_its_fraction_does(value):
    # an int goes straight to _int_str; the same value as a Fraction takes
    # the numerator and denominator path, the reference text
    assert _coeff_str(value) == _coeff_str(Fraction(value))


def test_chi_carries_a_schur_combination_without_polynomial_arithmetic(
        capsys, monkeypatch):
    # every coefficient of an integer combination of Schur functions is a
    # constant, so RationalFunction1 keeps it on ints; P and Q atoms bring
    # in z and still take the polynomial path
    calls = collections.Counter()
    for name in ("pmul", "padd", "ptrim"):
        def counted(*args, name=name, inner=getattr(ratfunc, name)):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(ratfunc, name, counted)
    for f, polynomial in (("2*s[2,1]-s[1,1]+3*s[1]-s[]", False),
                          ("P[2]+Q[1]", True)):
        for method in ("theorem", "localization", "constant-term"):
            calls.clear()
            code, _, _ = run_cli(capsys, "chi", "--f", f, "--n", "3",
                                 "--max-deg", "4", "--method", method,
                                 "--format", "json")
            assert code == 0
            assert bool(calls) == polynomial, (f, method, calls)


def test_chi_guard_error(capsys):
    code, out, err = run_cli(capsys, "chi", "--f", "1", "--n", "9",
                             "--max-deg", "1")
    assert code == 2
    assert err.startswith("error: guard:")


def test_running_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    # exit 1 means a failed verification, so a MemoryError must not reach
    # the interpreter's handler; the stand-ins raise without allocating
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "evaluate", out_of_memory)
    monkeypatch.setattr(cli, "cross_check", out_of_memory)
    for method in ("theorem", "localization", "constant-term", "all"):
        code, out, err = run_cli(capsys, "chi", "--f", "s[1]", "--n", "2",
                                 "--max-deg", "1", "--method", method)
        assert (code, out) == (2, "")
        assert err == "error: memory: out of memory\n"


@pytest.mark.parametrize("argv", [
    ("chi", "--f", "p[13]", "--n", "2", "--max-deg", "1", "--method", method)
    for method in ("theorem", "localization", "constant-term", "all")] + [
    ("hl", "inner", "--f", "p[13]", "--g", "p[13]"),
    ("hl", "inner", "--f", "p[13]", "--g", "p[13]", "--n", "2"),
    ("hl", "jing", "--k", "1", "--apply", "p[13]-p[13]")])
def test_a_p_atom_past_the_degree_bound_is_refused(capsys, argv):
    assert run_cli(capsys, *argv) == (
        2, "", "error: guard: degree 13 exceeds the configured bound 12\n")


def test_hall_littlewood_commands_take_no_polynomial_gcd():
    # P_lam divides Q_lam's numerators exactly by b_lam and Jing's operator
    # keeps polynomial coefficients, so none of these commands meets a true
    # fraction; a fresh process starts with every cache empty
    argvs = [["chi", "--f", "P[3,2,1]+Q[2,2]", "--n", "3", "--max-deg", "3",
              "--method", "all"],
             ["hl", "poly", "--lambda", "3,2,1"],
             ["hl", "jing", "--k", "2", "--apply", "P[2,1]"],
             ["verify", "cauchy", "--max-size", "5"]]
    out, _ = _fresh_python(
        "import contextlib, io\n"
        "from hilbeuler import cli, ratfunc\n"
        "calls = []\n"
        "def pgcd(*args, inner=ratfunc.pgcd):\n"
        "    calls.append(args)\n"
        "    return inner(*args)\n"
        "ratfunc.pgcd = pgcd\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print(len(calls))\n" % argvs)
    assert out == "0\n" * len(argvs)


def test_chi_constant_term_guard_names_no_cli_option(capsys):
    # force=True exists only in the API, so the message must not offer it
    # as something to pass on the command line
    for method in ("constant-term", "all"):
        code, out, err = run_cli(capsys, "chi", "--f", "s[1]", "--n", "4",
                                 "--method", method)
        assert code == 2
        assert out == ""
        assert err.startswith("error: guard:")
        assert "pass force=True" not in err
        assert "euler_constant_term(..., force=True)" in err


def test_chi_constant_term_refuses_a_max_degree_past_its_guard(capsys):
    # refused before any work, as under --method all; the guard's max degree
    # itself is admitted, and the API can force a larger one
    line = ("error: guard: constant-term evaluator refuses max degree > %d "
            "(only the API can override: euler_constant_term(..., "
            "force=True))\n" % euler.MAX_DEG_CONSTANT_TERM)
    for method in ("constant-term", "all"):
        code, out, err = run_cli(
            capsys, "chi", "--f", "s[1]", "--n", "3", "--max-deg",
            str(euler.MAX_DEG_CONSTANT_TERM + 1), "--method", method)
        assert (code, out, err) == (2, "", line)
    euler.check_guards("constant-term", 3, euler.MAX_DEG_CONSTANT_TERM)
    euler.check_guards("constant-term", 3, euler.MAX_DEG_CONSTANT_TERM + 1,
                       force=True)


def test_chi_all_checks_every_guard_before_any_evaluator(capsys,
                                                       monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an evaluator ran before the guards")

    for name in ("euler_theorem", "euler_localization",
                 "euler_constant_term"):
        monkeypatch.setattr(euler, name, refuse)
    # the first refusal in method order: constant-term at n = 4, theorem
    # at n = 7
    for n, line in (
            ("4", "error: guard: constant-term evaluator refuses n > 3 "
                  "(only the API can override: euler_constant_term(..., "
                  "force=True))\n"),
            ("7", "error: guard: theorem evaluator refuses n > 6\n")):
        code, out, err = run_cli(capsys, "chi", "--f", "s[2,1]", "--n", n,
                                 "--max-deg", "14", "--method", "all")
        assert (code, out, err) == (2, "", line)


def test_chi_negative_max_deg_is_a_guard_error(capsys):
    for fmt in ("json", "pretty"):
        code, out, err = run_cli(capsys, "chi", "--f", "s[1]", "--n", "2",
                                 "--max-deg", "-1", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: guard:")


def test_chi_csv(capsys):
    code, out, err = run_cli(capsys, "chi", "--f", "1", "--n", "1",
                             "--max-deg", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,b,value", "0,0,1", "0,1,1", "1,0,1",
                                "1,1,1"]


def test_cli_determinism(capsys):
    args = ("chi", "--f", "s[2,1]", "--n", "2", "--max-deg", "3",
            "--method", "all", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_suites(capsys):
    for argv in (("verify", "lemma", "--max-size", "2"),
                 ("verify", "orthogonality", "--n", "2", "--max-size", "2"),
                 ("verify", "cauchy", "--max-size", "3"),
                 ("verify", "corollary", "--n", "2", "--max-deg", "3"),
                 ("verify", "kprop", "--max-size", "3"),
                 # the lower ends of the accepted ranges
                 ("verify", "lemma", "--max-size", "0"),
                 ("verify", "orthogonality", "--n", "1", "--max-size", "0"),
                 ("verify", "orthogonality", "--n", "3", "--max-size", "0"),
                 ("verify", "cauchy", "--max-size", "0"),
                 ("verify", "kprop", "--max-size", "0")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, out, err)
        assert "FAIL" not in out
        assert out.strip().endswith("passed")


def test_verify_lemma_at_size_five(capsys):
    # one pairing per (mu, lam), cached across nu: about 2 s, where a full
    # P-expansion per (mu, nu, lam) took a minute
    code, out, err = run_cli(capsys, "verify", "lemma", "--max-size", "5")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "361/361 passed"


# a size past DEGREE_BOUND, a negative size or an --n the finite inner
# product cannot take is refused before any case runs or is written
@pytest.mark.parametrize("argv", [
    ("orthogonality", "--n", "1", "--max-size", "13"),
    ("orthogonality", "--n", "-1", "--max-size", "1"),
    ("orthogonality", "--n", "4", "--max-size", "1"),
    ("cauchy", "--max-size", "-3"),
    ("cauchy", "--max-size", "13"),
    ("lemma", "--max-size", "-2"),
    ("lemma", "--max-size", "13"),
    ("kprop", "--max-size", "-1"),
    ("kprop", "--max-size", "13")])
def test_verify_refuses_a_bad_size_before_writing(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard:"), err


def test_hl_poly(capsys):
    code, out, err = run_cli(capsys, "hl", "poly", "--lambda", "2",
                             "--basis", "m")
    assert code == 0
    assert out.strip() == "m[2] + (1-z)*m[1,1]"


@pytest.mark.parametrize("lam", ["2,x", "0", "1,2", "+1", "1,,1"])
def test_hl_poly_lambda_follows_the_partition_rule(capsys, lam):
    code, out, err = run_cli(capsys, "hl", "poly", "--lambda", lam)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse:"), err


def test_hl_poly_lambda_accepts_spaces_and_the_empty_partition(capsys):
    assert run_cli(capsys, "hl", "poly", "--lambda", "2, 1") == \
        run_cli(capsys, "hl", "poly", "--lambda", "2,1")
    assert run_cli(capsys, "hl", "poly", "--lambda", "") == (0, "1\n", "")


def test_hl_inner(capsys):
    code, out, err = run_cli(capsys, "hl", "inner", "--f", "p[1]",
                             "--g", "p[1]")
    assert code == 0
    assert out.strip() == "1/(1-z)"
    code, out, err = run_cli(capsys, "hl", "inner", "--f", "1", "--g", "1",
                             "--n", "2")
    assert code == 0
    assert out.strip() == "1/(1+z)"


def test_hl_jing(capsys):
    code, out, err = run_cli(capsys, "hl", "jing", "--k", "1", "--apply", "1")
    assert code == 0
    assert out.strip() == "(1-z)*p[1]"


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "chi", "--f", "1", "--n", "1",
                   "--method", "bogus")[0] == 2
    assert run_cli(capsys, "hl", "poly", "--lambda", "2,3")[0] == 2
    # the fixed-point orientation is not an option: transposing every mu
    # gives the same sum
    assert run_cli(capsys, "chi", "--f", "1", "--n", "1",
                   "--convention", "row")[:2] == (2, "")


def test_one_parser_per_process_answers_like_fresh_processes():
    # main reuses one parser for every call in a process; an error call,
    # a valid call and another error call must each print and exit as the
    # same call does in a process of its own
    calls = [["chi", "--n", "2"],
             ["chi", "--f", "s[2,1]", "--n", "2", "--max-deg", "2"],
             ["chi", "--f", "s[1]", "--n", "two"]]
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(hilbeuler.__file__)))
    one_process = (
        "import contextlib, io, json, sys\n"
        "from hilbeuler.cli import main\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), "
        "contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    results.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n")
    run = subprocess.run([sys.executable, "-c", one_process,
                          json.dumps(calls)], env=env, capture_output=True,
                         text=True, check=True)
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "hilbeuler.cli"] + argv,
                              env=env, capture_output=True, text=True)
        fresh.append([proc.returncode, proc.stdout, proc.stderr])
    assert json.loads(run.stdout) == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 2]
    assert fresh[0][2] and fresh[1][1] and fresh[2][2]


def test_one_command_parser_answers_like_the_full_parser(capsys, monkeypatch):
    # main builds only the parser of the command argv starts with: its help,
    # its usage errors and their exit codes are those of the full parser,
    # and so are the top-level help and an unknown command
    monkeypatch.setenv("COLUMNS", "80")
    calls = [["chi", "--help"], ["chi", "--n", "2"],
             ["verify", "--help"], ["verify", "lemma", "--max-size", "x"],
             ["verify", "kprop", "--help"],
             ["hl", "--help"], ["hl", "poly"], ["hl", "inner", "--help"],
             ["chi", "--f", "1", "--n", "1", "verify"],
             ["--help"], ["bogus"], []]
    for argv in calls:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        assert run_cli(capsys, *argv) == (2 if exc.value.code else 0,
                                          want.out, want.err), argv
        assert want.out or want.err, argv
    # the other commands of a one-command parser take no arguments
    with pytest.raises(SystemExit):
        build_parser("chi").parse_args(["hl", "poly", "--lambda", "2"])
    assert "--lambda" in capsys.readouterr().err


def test_python_dash_m_hilbeuler_prints_what_main_prints(capsys):
    # `python -m hilbeuler` runs cli.main: the same exit code and the same
    # stdout bytes, for a table in every format and for a refused call
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(hilbeuler.__file__)))
    base = ["chi", "--f", "s[2,1]", "--n", "3", "--max-deg", "3",
            "--method", "all"]
    calls = [base + ["--format", fmt] for fmt in ("pretty", "json", "csv")]
    calls.append(["chi", "--f", "s[1]", "--n", "7"])
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "hilbeuler"] + argv,
                              env=env, capture_output=True)
        code = main(argv)
        out = capsys.readouterr().out
        assert proc.returncode == code, argv
        assert proc.stdout == out.encode(), argv
    assert code == 2 and not out


def _fresh_python(code):
    """(stdout, stderr) of code run in a fresh interpreter on this package."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(hilbeuler.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout, proc.stderr


def test_a_non_integral_coefficient_is_printed_and_warned_once():
    # logging is imported only on this path, which no table of integral
    # coefficients takes
    assert _fresh_python(
        "from fractions import Fraction\n"
        "from hilbeuler.cli import _coeff_str\n"
        "print(_coeff_str(Fraction(1, 2)))\n") == (
        "1/2\n", "non-integral coefficient 1/2 encountered\n")


def test_imports_load_only_what_the_command_needs():
    # the package imports no submodule, and the cli neither logging nor
    # finite_inner, which only a non-integral warning, `verify
    # orthogonality` and `hl inner --n` use
    out, _ = _fresh_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hilbeuler\n"
        "print(sorted(m for m in sys.modules if m.startswith('hilbeuler.')))\n"
        "import hilbeuler.cli\n"
        "print(sorted({'logging', 'hilbeuler.finite_inner'}\n"
        "             & set(sys.modules) - before))\n")
    assert out == "[]\n[]\n"


def test_symfunc_str():
    assert symfunc_str(convert(hl_P((2,)), "m")) == "m[2] + (1-z)*m[1,1]"
    assert symfunc_str(SymFunc.one()) == "1"
    assert symfunc_str(SymFunc("p")) == "0"
