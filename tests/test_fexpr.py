import random

import pytest

from hilbeuler.fexpr import Atom, BinOp, Lit, ParseError, parse, render
from hilbeuler.symfunc import SymFunc, multiply, to_p
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
