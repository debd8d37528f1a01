"""Parser for symmetric-function expressions used on the command line.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := INT | atom | '(' expr ')'
    atom   := BASIS '[' INT (',' INT)* ']'      BASIS in s p h e m P Q

Partition entries must be weakly decreasing positive integers. `render`
produces a canonical string with minimal parentheses, so that
parse(render(tree)) == tree.
"""

import re
from collections import namedtuple

from .symfunc import SymFunc, to_p


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


Lit = namedtuple("Lit", "value")
Atom = namedtuple("Atom", "basis parts")
BinOp = namedtuple("BinOp", "op left right")


_TOKEN = re.compile(r"\s*(?:(\d+)|([sphemPQ])\[|([+\-*()\[\],])|(\S))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group(1) is not None:
            tokens.append(("INT", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("BASIS", m.group(2), m.start(2)))
            tokens.append(("SYM", "[", m.end(2)))
        elif m.group(3) is not None:
            tokens.append(("SYM", m.group(3), m.start(3)))
        else:
            raise ParseError("unexpected character %r" % m.group(4),
                             m.start(4))
        pos = m.end()
    tokens.append(("END", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, value, pos = self.take()
        if kind != "SYM" or value != sym:
            raise ParseError("expected %r" % sym, pos)

    def parse(self):
        tree = self.expr()
        kind, value, pos = self.peek()
        if kind != "END":
            raise ParseError("unexpected trailing input %r" % (value,), pos)
        return tree

    def expr(self):
        tree = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "SYM" and value in ("+", "-"):
                self.take()
                tree = BinOp(value, tree, self.term())
            else:
                return tree

    def term(self):
        tree = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "SYM" and value == "*":
                self.take()
                tree = BinOp("*", tree, self.factor())
            else:
                return tree

    def factor(self):
        kind, value, pos = self.take()
        if kind == "INT":
            return Lit(value)
        if kind == "BASIS":
            return self.atom(value)
        if kind == "SYM" and value == "(":
            tree = self.expr()
            self.expect_sym(")")
            return tree
        raise ParseError("expected an integer, a basis atom, or '('", pos)

    def atom(self, basis):
        self.expect_sym("[")
        parts = []
        kind, value, pos = self.peek()
        if kind == "INT":
            while True:
                kind, value, pos = self.take()
                if kind != "INT":
                    raise ParseError("expected a partition entry", pos)
                if value < 1:
                    raise ParseError("partition entries must be positive", pos)
                parts.append(value)
                kind, value, pos = self.peek()
                if kind == "SYM" and value == ",":
                    self.take()
                    continue
                break
        kind, value, pos = self.take()
        if kind != "SYM" or value != "]":
            raise ParseError("expected ']'", pos)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ParseError("parts must be weakly decreasing", pos)
        return Atom(basis, tuple(parts))


def parse(text):
    return _Parser(text).parse()


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
    each atom is converted as it is read, so every operand is in it."""
    if isinstance(tree, Lit):
        return SymFunc.one().scale(tree.value)
    if isinstance(tree, Atom):
        if not tree.parts:
            return SymFunc.one()
        return to_p(SymFunc.element(tree.basis, tree.parts))
    left = to_symfunc(tree.left)
    right = to_symfunc(tree.right)
    if tree.op == "+":
        return left + right
    if tree.op == "-":
        return left - right
    return left * right
