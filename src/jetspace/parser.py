"""The grammar of numbers and polynomial expressions in input text.

Expressions (no implicit multiplication, exponents are literal
non-negative integers, rationals are literal int/uint pairs):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := variable | int | int '/' uint | '(' expr ')'

A leading '-' is also accepted directly after '(' since a parenthesized
atom restarts expr.  Everything the Polynomial printer emits parses back to
an equal polynomial.  An int is a run of decimal digits of any script (what
`int` reads), a variable a letter or '_' then letters, digits or '_'.  Any
other character, nesting past the interpreter's recursion limit and an int
past its int-string digit limit are parse errors.  Point coordinates and
clause weights are read by `parse_rational`: [-+]int or [-+]int/uint.

Subexpressions are term dicts, combined by the helpers behind
Polynomial's operators, so a parse gives the operators' terms in their
order and builds one Polynomial.  Integer coefficients stay ints, which
add and multiply faster than Fractions, until that Polynomial is built.
"""

import re
from collections import namedtuple
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .poly import _from_clean, add_terms, mul_terms, pow_terms

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<sym>[-+*^/()])|(?P<bad>\S))")
_RATIONAL = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*")

# kind is "int", "name", "end" or the symbol itself
_Token = namedtuple("_Token", "kind value pos")


class _Parser:
    def __init__(self, text, ring, line):
        self.ring = ring
        self.line = line
        self.tokens = []
        for match in _TOKEN.finditer(text):
            kind = match.lastgroup
            value = match[kind]
            tok = _Token(value if kind == "sym" else kind, value, match.start(kind))
            if kind == "bad":
                self.fail(f"unexpected character {value!r}", tok)
            if kind == "int":
                try:
                    tok = tok._replace(value=int(value))
                except ValueError:  # more digits than the interpreter converts
                    self.fail("integer literal is too long", tok)
            self.tokens.append(tok)
        self.tokens.append(_Token("end", None, len(text)))
        self.tokens.reverse()  # the next token is the last one

    def accept(self, sym):
        if self.tokens[-1].kind == sym:
            self.tokens.pop()
            return True
        return False

    def fail(self, message, tok):
        raise ParseError(message, position=tok.pos, line=self.line)

    def expect(self, kind):
        """The value of the next token, which must be of `kind`."""
        tok = self.tokens.pop()
        if tok.kind != kind:
            what = "a non-negative integer" if kind == "int" else repr(kind)
            self.fail(f"expected {what}", tok)
        return tok.value

    def expr(self):
        if self.accept("-"):
            p = {e: -c for e, c in self.term().items()}
        else:
            p = self.term()
        while True:
            if self.accept("+"):
                p = add_terms(p, self.term())
            elif self.accept("-"):
                p = add_terms(p, {e: -c for e, c in self.term().items()})
            else:
                return p

    def term(self):
        p = self.factor()
        while self.accept("*"):
            p = mul_terms(p, self.factor())
        return p

    def factor(self):
        a = self.atom()
        return pow_terms(a, self.expect("int"), self.ring.ngens) if self.accept("^") else a

    def atom(self):
        """The term dict of the next atom, an int or Fraction coefficient."""
        tok = self.tokens.pop()
        if tok.kind == "name":
            try:
                i = self.ring.index(tok.value)
            except PreconditionError:
                self.fail(f"unknown variable {tok.value!r}", tok)
            return {(0,) * i + (1,) + (0,) * (self.ring.ngens - i - 1): 1}
        if tok.kind == "int":
            if self.accept("/"):
                denominator = self.expect("int")
                if denominator == 0:
                    self.fail("zero denominator", tok)
                c = Fraction(tok.value, denominator)
            else:
                c = tok.value
            return {(0,) * self.ring.ngens: c} if c else {}
        if tok.kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        what = "end of input" if tok.kind == "end" else repr(str(tok.value))
        self.fail(f"unexpected token {what}", tok)


def parse_polynomial(text, ring, line=None):
    """Parse `text` into a Polynomial over `ring`."""
    parser = _Parser(text, ring, line)
    try:
        p = parser.expr()
    except RecursionError:
        raise ParseError("expression is nested too deeply", line=line) from None
    tok = parser.tokens[-1]
    if tok.kind != "end":
        parser.fail(f"unexpected trailing input {str(tok.value)!r}", tok)
    return _from_clean(ring, {e: Fraction(c) for e, c in p.items()})


def parse_rational(text):
    """The Fraction `text` spells, spaces around it allowed; None for text
    off the rule, a zero denominator or an over-long int."""
    match = _RATIONAL.fullmatch(text)
    try:
        return Fraction(int(match[1]), int(match[2] or 1)) if match else None
    except (ValueError, ZeroDivisionError):
        return None
