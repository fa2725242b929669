"""Polynomial arithmetic: ring axioms on random inputs, calculus rules,
canonical printing, and the exact-division contract."""

import random
from fractions import Fraction

import pytest

from jetspace.errors import PreconditionError, RingMismatchError
from jetspace.orders import GREVLEX, GRLEX, LEX
from jetspace.parser import parse_polynomial
from jetspace.poly import Polynomial, Ring, divide_exact, map_variables


R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))


def random_poly(rng, ring, max_terms=5, max_exp=3, denom=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in ring.names)
        num = rng.randrange(-6, 7)
        terms[exps] = Fraction(num, rng.randrange(1, denom))
    return Polynomial(ring, terms)


def test_ring_validation():
    with pytest.raises(PreconditionError):
        Ring(("x", "x"))
    with pytest.raises(PreconditionError):
        Ring(("2bad",))
    with pytest.raises(PreconditionError):
        Ring(("a-b",))
    Ring(("_ok", "Also_Ok2"))


def test_construction_normalizes():
    p = Polynomial(R2, {(1, 0): Fraction(0), (0, 1): 2})
    assert list(p.terms) == [(0, 1)]
    with pytest.raises(PreconditionError):
        Polynomial(R2, {(1, 0, 0): 1})
    with pytest.raises(PreconditionError):
        Polynomial(R2, {(1, 0): 0.5})


def test_basic_arithmetic():
    x, y = R2.gens()
    p = (x + y) * (x - y)
    assert p == x**2 - y**2
    assert (x + 1) ** 2 == x**2 + 2 * x + 1
    assert x - x == R2.zero()
    assert Fraction(1, 2) * (x + x) == x
    assert (x + y) ** 0 == R2.one()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        R2.var(0) + R3.var(0)


def test_ring_axioms_random():
    rng = random.Random(7011)
    for _ in range(120):
        f = random_poly(rng, R2)
        g = random_poly(rng, R2)
        h = random_poly(rng, R2)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + R2.zero() == f
        assert f * R2.one() == f
        assert f * R2.zero() == R2.zero()


def test_degrees():
    x, y = R2.gens()
    assert R2.zero().degree() == float("-inf")
    assert R2.zero().min_degree() == float("inf")
    assert (x**2 * y + x).degree() == 3
    assert (x**2 * y + x).min_degree() == 1
    assert R2.one().degree() == 0


def test_initial_form():
    x, y = R2.gens()
    f = x**3 + x * y + y**2 + y**5
    assert f.initial_form() == x * y + y**2
    assert R2.zero().initial_form() == R2.zero()
    assert (x + 1).initial_form() == R2.one()


def test_initial_form_multiplicative():
    rng = random.Random(99120)
    count = 0
    while count < 60:
        f = random_poly(rng, R2)
        g = random_poly(rng, R2)
        if f.is_zero() or g.is_zero():
            continue
        count += 1
        assert (f * g).initial_form() == f.initial_form() * g.initial_form()


def test_leading_data_by_order():
    x, y, z = R3.gens()
    f = x**2 * z + x * y**2
    assert f.leading_monomial(GRLEX) == (2, 0, 1)
    assert f.leading_monomial(GREVLEX) == (1, 2, 0)
    g = x + y**3
    assert g.leading_monomial(LEX) == (1, 0, 0)
    assert g.leading_coefficient(LEX) == 1
    assert (3 * x + y).monic(LEX) == x + Fraction(1, 3) * y
    with pytest.raises(PreconditionError):
        R3.zero().leading_monomial()


def test_partial_derivative_leibniz():
    rng = random.Random(5150)
    for _ in range(60):
        f = random_poly(rng, R2)
        g = random_poly(rng, R2)
        for i in range(2):
            lhs = (f * g).partial_derivative(i)
            rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
            assert lhs == rhs


def test_evaluate_and_translate():
    x, y = R2.gens()
    f = x**2 * y - 3 * y + Fraction(1, 2)
    assert f.evaluate([2, 3]) == 12 - 9 + Fraction(1, 2)
    point = [Fraction(1, 2), Fraction(-2)]
    shifted = f.translate(point)
    assert shifted.evaluate([0, 0]) == f.evaluate(point)
    # translating back is the identity
    assert shifted.translate([-c for c in point]) == f


def test_translate_random_inverse():
    rng = random.Random(303)
    for _ in range(30):
        f = random_poly(rng, R3)
        pt = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(3)]
        assert f.translate(pt).translate([-c for c in pt]) == f


def test_translate_zero_point_and_arity():
    x, y = R2.gens()
    f = x**2 * y - 3 * y + Fraction(1, 2)
    assert f.translate([0, Fraction(0)]) == f
    assert R2.zero().translate([0, 0]) == R2.zero()
    for bad in ([0], [0, 0, 0], [1]):
        with pytest.raises(PreconditionError):
            f.translate(bad)
    with pytest.raises(PreconditionError):
        f.translate([0.0, 0])
    # a nonzero point goes through substitution, as before
    assert f.translate([1, 0]) == (x + 1) ** 2 * y - 3 * y + Fraction(1, 2)
    assert f.translate([0, -2]) == x**2 * (y - 2) - 3 * (y - 2) + Fraction(1, 2)


def test_substitute():
    x, y = R2.gens()
    u, v, w = R3.gens()
    f = x**2 + 2 * x * y
    image = f.substitute({0: u + v, 1: w})
    assert image == (u + v) ** 2 + 2 * (u + v) * w
    assert f.substitute({0: x, 1: R2.zero()}) == x**2
    with pytest.raises(PreconditionError):
        f.substitute({0: u})  # y used but unmapped


def test_map_variables():
    x, y = R2.gens()
    f = x**2 - y
    g = map_variables(f, R3, {0: 2, 1: 0})
    u, v, w = R3.gens()
    assert g == w**2 - u
    with pytest.raises(PreconditionError):
        map_variables(f, R3, {0: 1})


def test_divide_exact():
    x, y = R2.gens()
    assert divide_exact(x**2 - y**2, x + y) == x - y
    assert divide_exact(R2.zero(), x) == R2.zero()
    with pytest.raises(PreconditionError):
        divide_exact(x**2 + 1, x)
    with pytest.raises(PreconditionError):
        divide_exact(x, R2.zero())


def test_divide_exact_random():
    rng = random.Random(88)
    done = 0
    while done < 40:
        f = random_poly(rng, R2, max_terms=4, max_exp=2)
        g = random_poly(rng, R2, max_terms=3, max_exp=2)
        if g.is_zero():
            continue
        done += 1
        assert divide_exact(f * g, g) == f


def test_str_canonical():
    x, y = R2.gens()
    assert str(R2.zero()) == "0"
    assert str(R2.one()) == "1"
    assert str(x**2 - y) == "x^2 - y"
    assert str(-x) == "-x"
    assert str(Fraction(3, 2) * x * y**2 + 1) == "3/2*x*y^2 + 1"
    assert str(y - x) == "-x + y"  # grevlex descending, x first
    assert str(x * y - x**2) == "-x^2 + x*y"
    assert str(R2.constant(Fraction(-1, 3))) == "-1/3"


def test_hash_and_dict_use():
    x, y = R2.gens()
    a = x + y
    b = y + x
    assert a == b and hash(a) == hash(b)
    d = {a: 1}
    assert d[b] == 1


# Arithmetic results skip Polynomial()'s validation, and the parser
# combines term dicts with the operators' own helpers.


def assert_clean(p):
    """p holds what Polynomial() would keep: nonzero exact Fractions on
    exponent tuples of the ring's arity, in the same order."""
    for e, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(e) is tuple and len(e) == p.ring.ngens
        assert all(type(a) is int and a >= 0 for a in e)
    rebuilt = Polynomial(p.ring, dict(p.terms))
    assert list(rebuilt.terms.items()) == list(p.terms.items())


def test_arithmetic_results_are_clean():
    rng = random.Random(2903)
    for _ in range(300):
        f, g = random_poly(rng, R3), random_poly(rng, R3)
        k = rng.randrange(-2, 3)
        results = [
            f + g, f - g, f - f, -f, f + k, k - f, f * g, f * k, Fraction(k, 3) * f,
            f ** rng.randrange(4), f.partial_derivative(rng.randrange(3)),
            f.monic(GREVLEX) if f.terms else f, f.initial_form(),
            map_variables(f, R3, {0: 2, 1: 0, 2: 1}),
            # x*y and x*z both land on x*y, so terms merge and may cancel
            map_variables(f, R2, {0: 0, 1: 1, 2: 1}),
        ]
        for p in results:
            assert_clean(p)


def random_expression(rng, ring):
    """(text, value) of a random expression in the parser's grammar: the
    value is built by Polynomial's operators in the grammar's grouping,
    with unary minus, parenthesized powers, 0, ^0 and rationals."""

    def expr(depth):
        text, value = term(depth)
        if rng.random() < 0.3:
            text, value = "-" + text, -value
        for _ in range(rng.randrange(3)):
            t, v = term(depth)
            if rng.random() < 0.5:
                text, value = f"{text} + {t}", value + v
            else:
                text, value = f"{text} - {t}", value - v
        return text, value

    def term(depth):
        text, value = factor(depth)
        for _ in range(rng.randrange(3)):
            t, v = factor(depth)
            text, value = f"{text}*{t}", value * v
        return text, value

    def factor(depth):
        text, value = atom(depth)
        if rng.random() < 0.3:
            k = rng.randrange(4)
            text, value = f"{text}^{k}", value**k
        return text, value

    def atom(depth):
        kind = rng.randrange(4 if depth < 3 else 3)
        if kind == 0:
            i = rng.randrange(ring.ngens)
            return ring.names[i], ring.var(i)
        if kind == 1:
            n = rng.randrange(4)
            return str(n), ring.constant(n)
        if kind == 2:
            n, d = rng.randrange(5), rng.randrange(1, 5)
            return f"{n}/{d}", ring.constant(Fraction(n, d))
        text, value = expr(depth + 1)
        return f"({text})", value

    return expr(0)


def test_parse_builds_what_the_operators_build():
    rng = random.Random(2904)
    for _ in range(1000):
        text, value = random_expression(rng, R3)
        p = parse_polynomial(text, R3)
        assert list(p.terms.items()) == list(value.terms.items()), text
        assert_clean(p)
