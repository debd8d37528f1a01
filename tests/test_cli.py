import json

from hilbeuler.cli import main, symfunc_str
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


def test_chi_parse_error(capsys):
    code, out, err = run_cli(capsys, "chi", "--f", "s[1,2]", "--n", "1")
    assert code == 2
    assert err.startswith("error: parse:")


def test_chi_guard_error(capsys):
    code, out, err = run_cli(capsys, "chi", "--f", "1", "--n", "9",
                             "--max-deg", "1")
    assert code == 2
    assert err.startswith("error: guard:")


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
                 ("verify", "kprop", "--max-size", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, out, err)
        assert "FAIL" not in out
        assert out.strip().endswith("passed")


def test_hl_poly(capsys):
    code, out, err = run_cli(capsys, "hl", "poly", "--lambda", "2",
                             "--basis", "m")
    assert code == 0
    assert out.strip() == "m[2] + (1-z)*m[1,1]"


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


def test_symfunc_str():
    assert symfunc_str(convert(hl_P((2,)), "m")) == "m[2] + (1-z)*m[1,1]"
    assert symfunc_str(SymFunc.one()) == "1"
    assert symfunc_str(SymFunc("p")) == "0"
