"""Monomial order behavior: classic separating examples plus the
order axioms on random exponent vectors."""

import random
from itertools import product

import pytest

from jetspace.orders import GREVLEX, GRLEX, LEX, Block, GrevLex, TermOrder, Weight


def rank(order, exps_list):
    """Sort monomials ascending under the order."""
    return sorted(exps_list, key=order.key)


def test_lex_basics():
    # x > y^3 under lex with x before y
    assert LEX.compare((1, 0), (0, 3)) == 1
    assert LEX.compare((0, 2), (0, 3)) == -1
    assert LEX.compare((2, 1), (2, 1)) == 0


def test_grlex_vs_grevlex_separation():
    # degree-3 pair in (x, y, z) that the two graded orders rank oppositely
    x2z = (2, 0, 1)
    xy2 = (1, 2, 0)
    assert GRLEX.compare(x2z, xy2) == 1
    assert GREVLEX.compare(x2z, xy2) == -1


def test_grevlex_degree_first():
    assert GREVLEX.compare((0, 4), (3, 0)) == 1
    assert GREVLEX.compare((1, 1), (0, 2)) == 1  # x*y > y^2 when x first


def test_block_elimination_property():
    # any monomial touching the first block beats any monomial avoiding it
    order = Block(1)
    assert order.compare((1, 0, 0), (0, 9, 9)) == 1
    assert order.compare((0, 1, 0), (0, 0, 5)) == -1  # inside tail: grevlex


def test_block_two_vars():
    order = Block(2)
    assert order.compare((0, 1, 0, 0), (0, 0, 7, 7)) == 1
    # ties in the head fall through to the tail order
    assert order.compare((1, 0, 1, 0), (1, 0, 0, 1)) == 1


def test_weight_order():
    w = Weight((1, 0))
    assert w.compare((1, 0), (0, 5)) == 1
    assert w.compare((2, 0), (1, 3)) == 1
    # equal weight: tiebreak decides
    assert w.compare((1, 0), (1, 2)) == -1


def test_weight_nesting():
    # degree first, then prefer a larger exponent on the first variable
    order = Weight((1, 1), Weight((1, 0)))
    assert order.compare((0, 3), (1, 1)) == 1  # degree wins
    assert order.compare((2, 0), (1, 1)) == 1  # same degree, more of var 0
    assert order.compare((1, 1), (1, 1)) == 0


def test_tags_and_equality():
    assert GREVLEX == GrevLex()
    assert hash(GREVLEX) == hash(GrevLex())
    assert Block(2) == Block(2)
    assert Block(2) != Block(3)
    assert Weight((1, 0)) != Weight((0, 1))
    assert GREVLEX != LEX


def test_weight_arity_mismatch():
    with pytest.raises(ValueError):
        Weight((1, 0)).key((1, 0, 0))
    with pytest.raises(ValueError):
        Weight((1, 0)).weights(3, 8)


def random_exps(rng, n, cap=6):
    return tuple(rng.randrange(cap) for _ in range(n))


def test_order_axioms_random():
    """Totality, antisymmetry, multiplication compatibility, 1 minimal."""
    rng = random.Random(20403)
    orders = [LEX, GRLEX, GREVLEX, Block(1), Weight((1, 1, 0), Weight((0, 1, 0)))]
    for _ in range(300):
        a = random_exps(rng, 3)
        b = random_exps(rng, 3)
        c = random_exps(rng, 3)
        for order in orders:
            cmp_ab = order.compare(a, b)
            assert cmp_ab == -order.compare(b, a)
            if a == b:
                assert cmp_ab == 0
            else:
                assert cmp_ab != 0  # keys separate distinct monomials
            shifted = order.compare(
                tuple(x + z for x, z in zip(a, c)),
                tuple(y + z for y, z in zip(b, c)),
            )
            assert shifted == cmp_ab
            one = (0, 0, 0)
            if a != one:
                assert order.compare(a, one) == 1


@pytest.mark.parametrize(
    "order",
    [
        LEX,
        GRLEX,
        GREVLEX,
        Block(2),
        Block(1, LEX),
        Weight((2, 0, 1, 3)),
        Weight((1, 1, 1, 1), Weight((1, 0, 0, 0), GREVLEX)),
    ],
    ids=repr,
)
def test_linear_weights_sort_like_key(order):
    """w.e ranks every monomial of degree <= the bound as key() does."""
    n, bound = 4, 6
    w = order.weights(n, bound)
    monomials = [e for e in product(range(bound + 1), repeat=n) if sum(e) <= bound]
    by_key = sorted(monomials, key=order.key)
    by_weight = sorted(monomials, key=lambda e: sum(a * b for a, b in zip(w, e)))
    assert by_weight == by_key
    # distinct monomials get distinct linear keys
    assert len({sum(a * b for a, b in zip(w, e)) for e in by_key}) == len(by_key)


@pytest.mark.parametrize("inner", [GREVLEX, LEX], ids=repr)
def test_closed_form_weights_equal_the_fold(inner):
    """GrevLex and Block(k, GREVLEX) compute their weights in closed form;
    they must equal the fold of rows(n) that TermOrder.weights makes."""
    for degree in (1, 2, 64, 128, 300):
        for n in range(31):
            if inner is GREVLEX:
                assert GREVLEX.weights(n, degree) == TermOrder.weights(GREVLEX, n, degree)
            for k in range(n + 2):
                order = Block(k, inner)
                assert order.weights(n, degree) == TermOrder.weights(order, n, degree), (n, k)
