import random
import re

import pytest

from hilbeuler.fexpr import (MAX_DEPTH, MAX_DIGITS, Atom, BinOp, Lit,
                             ParseError, parse, parse_parts, render,
                             to_symfunc)
from hilbeuler.symfunc import SymFunc, multiply, to_p
from parse_by_descent import parse_by_descent
from symfunc_helpers import parse_symfunc


def test_basic_parses():
    assert parse("1") == Lit(1)
    assert parse("s[2,1]") == Atom("s", (2, 1))
    assert parse("p[]") == Atom("p", ())
    assert parse("s[2,1]+2*s[1,1,1]") == BinOp(
        "+", Atom("s", (2, 1)), BinOp("*", Lit(2), Atom("s", (1, 1, 1))))
    assert parse(" h[ 2 ] - e[2] ") == BinOp("-", Atom("h", (2,)),
                                             Atom("e", (2,)))
    assert parse("(p[1]+p[2])*m[1]") == BinOp(
        "*", BinOp("+", Atom("p", (1,)), Atom("p", (2,))), Atom("m", (1,)))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("s[1,2]")  # parts must be weakly decreasing
    with pytest.raises(ParseError):
        parse("s[0]")
    with pytest.raises(ParseError):
        parse("q[1]")
    with pytest.raises(ParseError):
        parse("p[1")
    with pytest.raises(ParseError):
        parse("1 +")
    with pytest.raises(ParseError):
        parse("(p[1]")
    with pytest.raises(ParseError):
        parse("p[1] p[2]")
    err = None
    try:
        parse("s[1,2]")
    except ParseError as exc:
        err = exc
    assert err is not None and err.pos > 0


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return Lit(rng.randint(0, 9))
        basis = rng.choice("sphemPQ")
        size = rng.randint(0, 3)
        parts = tuple(sorted((rng.randint(1, 4) for _ in range(size)),
                             reverse=True))
        return Atom(basis, parts)
    op = rng.choice("+-*")
    return BinOp(op, _random_tree(rng, depth - 1),
                 _random_tree(rng, depth - 1))


def test_render_round_trip():
    rng = random.Random(19)
    for _ in range(200):
        tree = _random_tree(rng, 3)
        assert parse(render(tree)) == tree, render(tree)


def test_render_parenthesization():
    t = BinOp("*", BinOp("+", Lit(1), Lit(2)), Lit(3))
    assert render(t) == "(1 + 2)*3"
    t = BinOp("-", Lit(1), BinOp("+", Lit(2), Lit(3)))
    assert render(t) == "1 - (2 + 3)"
    t = BinOp("*", Lit(2), BinOp("*", Lit(3), Lit(4)))
    assert parse(render(t)) == t


def test_to_symfunc():
    assert parse_symfunc("1") == SymFunc.one()
    assert parse_symfunc("s[]") == SymFunc.one()
    p1 = SymFunc.element("p", (1,))
    assert parse_symfunc("p[1]*p[1]") == multiply(p1, p1)
    got = parse_symfunc("s[2,1]+2*s[1,1,1]")
    want = to_p(SymFunc.element("s", (2, 1))) + \
        to_p(SymFunc.element("s", (1, 1, 1))).scale(2)
    assert got == want
    # P/Q atoms elaborate through the Hall-Littlewood construction
    assert to_p(parse_symfunc("Q[1]")).c[(1,)].num == (1, -1)


def test_to_symfunc_returns_the_p_basis():
    # each atom is converted as it is read, so no sum is taken in the
    # basis of its left-most atom
    for text in ("s[1,1]+s[1]+2*s[]", "P[3]+s[2,1]", "Q[2]*e[1]-m[1,1]"):
        assert parse_symfunc(text).basis == "p", text
    want = to_p(SymFunc.element("P", (3,))) + \
        to_p(SymFunc.element("s", (2, 1)))
    assert parse_symfunc("P[3]+s[2,1]") == want


# ---------------------------------------------------------------------------
# the accepted language, against the recursive-descent parser it replaced

_LEAKS = ("int()", "literal", "Lit(", "Atom(", "BinOp(")


def _assert_same_language(texts):
    """parse gives parse_by_descent's tree wherever that gives one, and a
    ParseError that names the fault in words wherever that raises one.
    Returns the number of texts both accept."""
    accepted = 0
    for text in texts:
        try:
            want = parse_by_descent(text)
        except ParseError:
            with pytest.raises(ParseError) as info:
                parse(text)
            message = str(info.value)
            assert not any(leak in message for leak in _LEAKS), (text,
                                                                 message)
            if "trailing" in message:
                assert re.fullmatch(r"unexpected trailing input "
                                    r"\(at position \d+\)", message), message
            continue
        assert parse(text) == want, text
        accepted += 1
    return accepted


_TOKEN_TEXT = re.compile(r"\d+|[sphemPQ]\[|\S")


def test_rendered_trees_parse_as_by_descent():
    rng = random.Random(23)
    texts = []
    for _ in range(500):
        text = render(_random_tree(rng, 3))
        spaced = "".join(" " * rng.randint(0, 2) + tok
                         for tok in _TOKEN_TEXT.findall(text))
        texts += [text, spaced + " " * rng.randint(0, 2)]
    assert _assert_same_language(texts) == len(texts)


def test_random_strings_parse_as_by_descent():
    rng = random.Random(29)
    alphabet = "sphemPQq[](),+-*0123 "
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
             for _ in range(3000)]
    # atom-shaped strings, so that the bracket contents are varied often
    texts += ["%s[%s]%s" % (rng.choice("sphemPQq"),
                            "".join(rng.choice("0123, +") for _ in
                                    range(rng.randint(0, 6))),
                            rng.choice(["", "", "]", "*2", "+p[1", ")"]))
              for _ in range(2000)]
    assert _assert_same_language(texts) > 100


def test_bracket_contents_an_int_call_would_accept_are_refused():
    cases = ("s[+1]", "s[1_0]", "s[ 1 2 ]", "s[1,,1]", "s[1,]", "s[,1]",
             "s[-1]", "s[1.0]")
    assert _assert_same_language(cases) == 0
    with pytest.raises(ParseError, match=r"^expected '\]' \(at position 3\)"):
        parse("p[1")
    with pytest.raises(ParseError, match="^expected a partition entry"):
        parse("s[1,]")


def test_parse_parts_is_the_partition_rule():
    assert parse_parts("2, 1") == (2, 1)
    assert parse_parts(" ") == ()
    assert parse_parts("") == ()
    for text in ("2,x", "0", "1,2", "+1", "1,,1", "1 1", "1,"):
        with pytest.raises(ParseError):
            parse_parts(text)
    with pytest.raises(ParseError) as info:
        parse_parts("3,1,,1", 7)
    assert info.value.pos == 11


def test_nesting_is_refused_past_max_depth_at_the_token_that_passes_it():
    # each operator and each pair of parentheses is a level
    for text in ("+".join(["1"] * (MAX_DEPTH + 1)),
                 "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH,
                 "2*(" * (MAX_DEPTH // 2) + "1" + ")" * (MAX_DEPTH // 2)):
        tree = parse(text)
        assert parse(render(tree)) == tree
        assert to_symfunc(tree) is not None
    cases = (("+".join(["1"] * (MAX_DEPTH + 2)), 2 * MAX_DEPTH + 1),
             ("(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
             ("(" * MAX_DEPTH + "1+1" + ")" * MAX_DEPTH, MAX_DEPTH + 1),
             ("1*" * (MAX_DEPTH + 1) + "1", 2 * MAX_DEPTH + 1),
             ("2*(" * (MAX_DEPTH // 2 + 1) + "1" + ")" * (MAX_DEPTH // 2 + 1),
              3 * (MAX_DEPTH // 2) + 1))
    for text, pos in cases:
        with pytest.raises(ParseError, match="nests more than %d levels"
                           % MAX_DEPTH) as info:
            parse(text)
        assert info.value.pos == pos, text


def test_integers_are_refused_past_max_digits():
    digits = "7" * MAX_DIGITS
    assert parse(digits) == Lit(int(digits))
    for text, pos in (("1+" + digits + "0", 2), ("s[2,%s0]" % digits, 4)):
        with pytest.raises(ParseError, match="^an integer has more than "
                           "%d digits" % MAX_DIGITS) as info:
            parse(text)
        assert info.value.pos == pos
