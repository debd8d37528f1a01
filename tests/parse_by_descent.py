"""The expression parser as a tokenizer and a recursive-descent class.

This is `hilbeuler.fexpr.parse` as it was written before the lexer read
each atom `B[parts]` as one token: every integer, bracket and comma is a
token of its own, the whole input is tokenized first, and one method per
grammar rule (expr, term, factor, atom) checks the parts of an atom as it
reads them. The tests use it as the oracle for the accepted language: the
new parser must give the same tree wherever this one gives a tree, and
raise `ParseError` wherever this one raises it.
"""

import re

from hilbeuler.fexpr import Atom, BinOp, Lit, ParseError

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


def parse_by_descent(text):
    return _Parser(text).parse()
