"""Recursive-descent parser for polynomial expressions.

Grammar (no implicit multiplication, exponents are literal non-negative
integers, rationals are literal int/uint pairs):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := variable | int | int '/' uint | '(' expr ')'

A leading '-' is also accepted directly after '(' since a parenthesized
atom restarts expr.  Everything the Polynomial printer emits parses back to
an equal polynomial.
"""

from fractions import Fraction

from .errors import ParseError, PreconditionError

_SYMBOLS = set("+-*^/()")


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind  # "name" | "int" | "sym" | "end"
        self.value = value
        self.pos = pos


def _tokenize(text, line=None):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token("sym", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i, line=line)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, ring, line=None):
        self.text = text
        self.ring = ring
        self.line = line
        self.tokens = _tokenize(text, line=line)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_sym(self, sym):
        tok = self.peek()
        if tok.kind == "sym" and tok.value == sym:
            self.i += 1
            return True
        return False

    def fail(self, message, tok):
        raise ParseError(message, position=tok.pos, line=self.line)

    def expect_sym(self, sym):
        tok = self.advance()
        if tok.kind != "sym" or tok.value != sym:
            self.fail(f"expected {sym!r}", tok)

    def expect_uint(self):
        tok = self.advance()
        if tok.kind != "int":
            self.fail("expected a non-negative integer", tok)
        return tok.value

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected trailing input {self.describe(tok)}", tok)
        return p

    def describe(self, tok):
        if tok.kind == "end":
            return "end of input"
        return repr(str(tok.value))

    def expr(self):
        negate = self.accept_sym("-")
        p = self.term()
        if negate:
            p = -p
        while True:
            if self.accept_sym("+"):
                p = p + self.term()
            elif self.accept_sym("-"):
                p = p - self.term()
            else:
                return p

    def term(self):
        p = self.factor()
        while self.accept_sym("*"):
            p = p * self.factor()
        return p

    def factor(self):
        a = self.atom()
        if self.accept_sym("^"):
            return a ** self.expect_uint()
        return a

    def atom(self):
        tok = self.advance()
        if tok.kind == "name":
            try:
                return self.ring.var(self.ring.index(tok.value))
            except PreconditionError:
                self.fail(f"unknown variable {tok.value!r}", tok)
        if tok.kind == "int":
            numerator = tok.value
            if self.accept_sym("/"):
                denominator = self.expect_uint()
                if denominator == 0:
                    self.fail("zero denominator", tok)
                return self.ring.constant(Fraction(numerator, denominator))
            return self.ring.constant(numerator)
        if tok.kind == "sym" and tok.value == "(":
            p = self.expr()
            self.expect_sym(")")
            return p
        self.fail(f"unexpected token {self.describe(tok)}", tok)


def parse_polynomial(text, ring, line=None):
    """Parse `text` into a Polynomial over `ring`."""
    return _Parser(text, ring, line=line).parse()
