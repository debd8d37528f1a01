"""Parser for symmetric-function expressions used on the command line.

Grammar:

    expr    := operand (OP operand)*            OP in + - *
    operand := INT | ATOM | '(' expr ')'
    ATOM    := BASIS '[' parts ']'              BASIS in s p h e m P Q
    parts   := empty | INT (',' INT)*

`*` binds tighter than `+` and `-`, and every operator folds left. The
lexer reads an atom as one token and its parts through `parse_parts`,
which `hl poly --lambda` shares: entries are positive integers written in
digits and weakly decreasing. An integer has at most MAX_DIGITS digits,
and an expression nests at most MAX_DEPTH levels, where each operator and
each pair of parentheses is a level. `render` produces a canonical string
with minimal parentheses, so that parse(render(tree)) == tree.
"""

import re
from collections import namedtuple

from .partitions import as_partition
from .symfunc import SymFunc, _check_degree, to_p


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


Lit = namedtuple("Lit", "value")
Atom = namedtuple("Atom", "basis parts")
BinOp = namedtuple("BinOp", "op left right")


_TOKEN = re.compile(r"\s*(?P<tok>(?P<int>\d+)|(?P<basis>[sphemPQ])\["
                    r"(?P<parts>[\d,\s]*)(?P<close>\]?)|\S)")
_PRECEDENCE = {"+": 1, "-": 1, "*": 2}
#: Python's default limit on the digits int() converts
MAX_DIGITS = 4300
#: the parser, `render` and `to_symfunc` recurse once per level
MAX_DEPTH = 200


def _integer(digits, pos):
    if len(digits) > MAX_DIGITS:
        raise ParseError("an integer has more than %d digits" % MAX_DIGITS,
                         pos)
    return int(digits)


def _check_depth(depth, pos):
    if depth > MAX_DEPTH:
        raise ParseError("the expression nests more than %d levels deep"
                         % MAX_DEPTH, pos)


def parse_parts(text, pos=0):
    """The partition written in text as comma-separated parts, e.g. "2, 1";
    blank text is the empty partition. pos is where text starts in the
    input, so that an error points into it."""
    if not text.strip():
        return ()
    entries = []
    at = pos
    for piece in text.split(","):
        entry = piece.strip()
        if not entry.isdecimal():
            raise ParseError("partition entries are digits separated by "
                             "commas" if entry else
                             "expected a partition entry", at)
        entries.append(_integer(entry, at))
        at += len(piece) + 1
    try:
        return as_partition(entries)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def _tokens(text):
    """(item, pos) for each token of text, then (None, len(text)). An item
    is a Lit, an Atom, or one of the characters + - * ( )."""
    tokens = []
    # \S takes any character the other branches refuse, so the matches
    # cover text end to end except trailing whitespace
    for m in _TOKEN.finditer(text):
        tok, pos = m["tok"], m.start("tok")
        if m["int"] is not None:
            tok = Lit(_integer(tok, pos))
        elif m["basis"] is not None:
            if not m["close"]:
                raise ParseError("expected ']'", m.end())
            tok = Atom(m["basis"], parse_parts(m["parts"], m.start("parts")))
        elif tok not in "+-*()":
            raise ParseError("unexpected character %r" % tok, pos)
        tokens.append((tok, pos))
    tokens.append((None, len(text)))
    return tokens


def parse(text):
    tokens = _tokens(text)
    tree, _, i = _expr(tokens, 0, 1, 0)
    if tokens[i][0] is not None:
        raise ParseError("unexpected trailing input", tokens[i][1])
    return tree


def _expr(tokens, i, min_prec, depth):
    """The expression that starts at tokens[i] and has no operator binding
    looser than min_prec, its height in levels, and the index of the token
    after it. depth counts the levels known to enclose it; a level that
    would take depth plus height past MAX_DEPTH is refused at its token, so
    the recursion stays as shallow as the tree. The right operand of an
    operator is read with a higher min_prec, so the loop folds equal
    operators left."""
    tok, pos = tokens[i]
    if tok == "(":
        _check_depth(depth + 1, pos)
        tree, height, i = _expr(tokens, i + 1, 1, depth + 1)
        height += 1
        if tokens[i][0] != ")":
            raise ParseError("expected ')'", tokens[i][1])
    elif isinstance(tok, (Lit, Atom)):
        tree, height = tok, 0
    else:
        raise ParseError("expected an integer, a basis atom, or '('", pos)
    i += 1
    while True:
        op, pos = tokens[i]
        prec = _PRECEDENCE.get(op, 0)
        if prec < min_prec:
            return tree, height, i
        _check_depth(depth + height + 1, pos)
        right, right_height, i = _expr(tokens, i + 1, prec + 1, depth + 1)
        tree, height = BinOp(op, tree, right), max(height, right_height) + 1


def render(tree):
    """Canonical string form; parse(render(t)) == t."""
    return _render(tree, 0)


def _render(tree, parent_prec):
    if isinstance(tree, Lit):
        return str(tree.value)
    if isinstance(tree, Atom):
        return "%s[%s]" % (tree.basis, ",".join(map(str, tree.parts)))
    prec = 1 if tree.op in ("+", "-") else 2
    left = _render(tree.left, prec - 1)
    # +,-,* all left-associate, so the right child needs strictly higher
    # binding to avoid parentheses
    right = _render(tree.right, prec)
    text = "%s %s %s" % (left, tree.op, right) if prec == 1 \
        else "%s%s%s" % (left, tree.op, right)
    if prec <= parent_prec:
        return "(%s)" % text
    return text


def to_symfunc(tree):
    """Evaluate a parsed expression to a symmetric function in the p-basis;
    each atom is converted as it is read, so every operand is in it. The
    degree of every atom is checked against DEGREE_BOUND first, before any
    is converted."""
    for atom in _atoms(tree):
        _check_degree(sum(atom.parts))
    return _evaluate(tree)


def _atoms(tree):
    if isinstance(tree, BinOp):
        return _atoms(tree.left) + _atoms(tree.right)
    return [tree] if isinstance(tree, Atom) else []


def _evaluate(tree):
    if isinstance(tree, Lit):
        return SymFunc.one().scale(tree.value)
    if isinstance(tree, Atom):
        if not tree.parts:
            return SymFunc.one()
        return to_p(SymFunc.element(tree.basis, tree.parts))
    left = _evaluate(tree.left)
    right = _evaluate(tree.right)
    if tree.op == "+":
        return left + right
    if tree.op == "-":
        return left - right
    return left * right
