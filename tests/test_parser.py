"""Expression parsing: the printer/parser round trip plus error positions."""

import random
from fractions import Fraction

import pytest

from jetspace.errors import ParseError
from jetspace.parser import parse_polynomial
from jetspace.poly import Polynomial, Ring


R = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))


def test_simple_forms():
    x, y = R.gens()
    assert parse_polynomial("x", R) == x
    assert parse_polynomial("x + y", R) == x + y
    assert parse_polynomial("x^2 - y", R) == x**2 - y
    assert parse_polynomial("-x", R) == -x
    assert parse_polynomial("7", R) == R.constant(7)
    assert parse_polynomial("0", R) == R.zero()
    assert parse_polynomial("3/2", R) == R.constant(Fraction(3, 2))
    assert parse_polynomial("1/2*x*y^2 + 1", R) == Fraction(1, 2) * x * y**2 + 1


def test_parentheses_and_powers():
    x, y = R.gens()
    assert parse_polynomial("(x + y)^2", R) == (x + y) ** 2
    assert parse_polynomial("(x + y)*(x - y)", R) == x**2 - y**2
    assert parse_polynomial("(-x)", R) == -x
    assert parse_polynomial("x^0", R) == R.one()
    assert parse_polynomial("2^3", R) == R.constant(8)
    assert parse_polynomial("x - (y - x)", R) == 2 * x - y


def test_whitespace_tolerance():
    x, y = R.gens()
    assert parse_polynomial("  x   +\ty ", R) == x + y
    assert parse_polynomial("x+y", R) == x + y


def test_rejects_malformed():
    for bad in [
        "",
        "x +",
        "2x",  # no implicit multiplication
        "x y",
        "x ^ y",
        "x^-1",
        "x / 2",
        "--x",
        "x + -y",
        "(x",
        "x)",
        "3/0",
        "*x",
        "x & y",
        "x^\u00b2",  # a superscript digit is no int
        "2\u00b2",
        "(" * 250 + "x" + ")" * 250,  # deeper than the recursion limit
    ]:
        with pytest.raises(ParseError):
            parse_polynomial(bad, R)


def test_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + q", R)
    assert "q" in str(err.value)


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + ?", R)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_polynomial("x ^ y", R)
    assert err.value.position == 4


def test_line_annotation():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + ", R, line=12)
    assert "line 12" in str(err.value)


def random_poly(rng, ring, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in ring.names)
        terms[exps] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return Polynomial(ring, terms)


def test_round_trip_random():
    """Whatever the canonical printer emits must parse back unchanged."""
    rng = random.Random(424242)
    for _ in range(200):
        p = random_poly(rng, R3)
        assert parse_polynomial(str(p), R3) == p


def test_underscore_names():
    ring = Ring(("x__0", "x__1"))
    a, b = ring.gens()
    assert parse_polynomial("x__0*x__1^2", ring) == a * b**2
