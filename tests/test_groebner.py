"""Groebner engine checks: frozen textbook bases, structural properties of
reduced bases on random input, elimination, saturation, intersection,
gcd/lcm, dimension against a brute-force oracle, budget behavior, pinned
hashes of heavier bases, and sympy as an outside oracle."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from jetspace.errors import BudgetExhausted, PreconditionError
from jetspace.groebner import (
    Budget,
    Ideal,
    block_order,
    elimination_dimension,
    elimination_packing,
    gcd_poly,
    lcm_poly,
    normal_form,
    reduced_groebner,
)
from jetspace.jets import (
    ContactClause,
    contact_cell_dim,
    contact_ideal,
    jacobian_ideal,
    jet_ideal,
)
from jetspace.orders import GREVLEX, GRLEX, LEX, Block, Weight
from jetspace.parser import parse_polynomial
from jetspace.poly import Polynomial, Ring, map_variables


def mk(ring, *exprs):
    return tuple(parse_polynomial(e, ring) for e in exprs)


def ideal(ring, *exprs):
    return Ideal(ring, mk(ring, *exprs))


R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))


def test_circle_line_lex():
    gb = reduced_groebner(mk(R2, "x^2 + y^2 - 1", "x - y"), LEX)
    assert [str(g) for g in gb] == ["x - y", "y^2 - 1/2"]


def test_twisted_cubic_lex():
    gb = reduced_groebner(mk(R3, "y - x^2", "z - x^3"), LEX)
    assert gb == mk(R3, "x^2 - y", "x*y - z", "x*z - y^2", "y^3 - z^2")


def test_twisted_cubic_eliminate():
    I = ideal(R3, "y - x^2", "z - x^3")
    J = I.eliminate(1)
    assert J.ring.names == ("y", "z")
    assert [str(g) for g in J.groebner_basis()] == ["y^3 - z^2"]


def test_eliminate_two():
    I = ideal(R3, "x - z^2", "y - z^3")
    J = I.eliminate(2)
    assert J.ring.names == ("z",)
    assert J.groebner_basis() == ()


def test_eliminate_nothing_and_everything():
    I = ideal(R2, "x - y")
    assert I.eliminate(0) is I
    full = I.eliminate(2)
    assert full.ring.names == ()
    assert full.groebner_basis() == ()
    assert ideal(R2, "x", "x - 1").eliminate(2).is_trivial()


def test_zero_and_trivial_ideals():
    Z = Ideal(R2, ())
    assert Z.groebner_basis() == ()
    assert Z.is_zero_ideal()
    assert not Z.is_trivial()
    T = ideal(R2, "x", "x + 1")
    assert [str(g) for g in T.groebner_basis()] == ["1"]
    assert T.is_trivial()


def test_membership_frozen():
    I = ideal(R3, "y - x^2", "z - x^3")
    assert I.contains(parse_polynomial("y^3 - z^2", R3))
    assert not I.contains(parse_polynomial("x + y", R3))
    assert not I.contains(R3.one())


def test_normal_form_properties():
    x, y = R2.gens()
    I = ideal(R2, "x^2 - y", "y^2 - 1")
    f = x**4 + x * y + 3
    r = I.reduce(f)
    assert I.contains(f - r)
    assert I.reduce(r) == r


def test_saturations_frozen():
    x, y = R2.gens()
    assert ideal(R2, "x^2").saturate(x).equals(ideal(R2, "1"))
    assert ideal(R2, "x^2*y").saturate(x).equals(ideal(R2, "y"))
    assert ideal(R2, "x^2", "x*y").saturate(x).is_trivial()
    assert ideal(R2, "y^2").saturate(x).equals(ideal(R2, "y^2"))
    xz = Ring(("x", "y", "z"))
    I = ideal(xz, "x*y", "x*z")
    assert I.saturate(xz.var(0)).equals(ideal(xz, "y", "z"))
    # saturating by a nonzero constant changes nothing
    assert ideal(R2, "x*y").saturate(R2.constant(5)).equals(ideal(R2, "x*y"))
    with pytest.raises(PreconditionError):
        ideal(R2, "x").saturate(R2.zero())
    # several saturators at once: I : (g_1, ..., g_k)^inf
    assert ideal(R2, "x^2", "x*y").saturate((x, y)).equals(ideal(R2, "x"))
    with pytest.raises(PreconditionError):
        ideal(R2, "x").saturate((R2.zero(), R2.zero()))
    I = ideal(R2, "x^2", "x*y")
    assert I.saturate((x, R2.zero(), R2.constant(5))) is I


def test_intersections_frozen():
    assert (
        ideal(R2, "x + y").intersect_with(ideal(R2, "x - y")).equals(ideal(R2, "x^2 - y^2"))
    )
    assert ideal(R2, "x").intersect_with(ideal(R2, "y")).equals(ideal(R2, "x*y"))
    assert ideal(R2, "x^2").intersect_with(ideal(R2, "x")).equals(ideal(R2, "x^2"))


def test_gcd_lcm_frozen():
    x, y = R2.gens()
    assert gcd_poly(x**2 - y**2, x**2 + 2 * x * y + y**2) == x + y
    assert gcd_poly(x**2 * y, x * y**2) == x * y
    f = 3 * x**2 + 6 * y
    assert gcd_poly(f, f) == x**2 + 2 * y
    assert lcm_poly(x, y) == x * y
    assert gcd_poly(R2.zero(), f) == x**2 + 2 * y
    assert gcd_poly(x + 1, x) == R2.one()


def random_poly(rng, ring, max_terms=3, max_exp=2):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in ring.names)
        terms[exps] = Fraction(rng.randrange(-4, 5))
    return Polynomial(ring, terms)


def test_gcd_lcm_product_identity():
    rng = random.Random(616)
    done = 0
    while done < 50:
        f = random_poly(rng, R2)
        g = random_poly(rng, R2)
        if f.is_zero() or g.is_zero():
            continue
        done += 1
        d = gcd_poly(f, g)
        m = lcm_poly(f, g)
        assert d * m == (f * g).monic()
        # gcd divides both
        from jetspace.poly import divide_exact

        divide_exact(f, d)
        divide_exact(g, d)


def random_zero_constant_poly(rng, ring):
    """Random poly with zero constant term (keeps the ideal proper)."""
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        exps = tuple(rng.randrange(3) for _ in ring.names)
        if sum(exps) == 0:
            continue
        terms[exps] = Fraction(rng.randrange(-5, 6))
    return Polynomial(ring, terms)


def test_membership_random_round_trips():
    """Combinations of generators always reduce to zero; adding 1 to a
    member of a proper ideal never does."""
    rng = random.Random(112233)
    done = 0
    while done < 100:
        gens = [random_zero_constant_poly(rng, R2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        done += 1
        I = Ideal(R2, tuple(gens))
        f = R2.zero()
        for g in gens:
            f = f + random_poly(rng, R2) * g
        assert I.contains(f)
        assert not I.contains(f + 1)


def test_reduced_basis_structure_random():
    """Reduced bases are monic, sorted, with pairwise non-divisible leads
    and fully reduced tails."""
    rng = random.Random(9090)
    for _ in range(40):
        gens = [random_poly(rng, R2) for _ in range(rng.randrange(1, 4))]
        gb = reduced_groebner(gens, GREVLEX)
        keys = [GREVLEX.key(g.leading_monomial(GREVLEX)) for g in gb]
        assert keys == sorted(keys, reverse=True)
        for g in gb:
            assert g.leading_coefficient(GREVLEX) == 1
        lms = [g.leading_monomial(GREVLEX) for g in gb]
        for a, b in combinations(range(len(gb)), 2):
            assert not all(p <= q for p, q in zip(lms[a], lms[b]))
            assert not all(q <= p for p, q in zip(lms[a], lms[b]))
        for i, g in enumerate(gb):
            others = [h for j, h in enumerate(gb) if j != i]
            if others:
                assert normal_form(g, others, GREVLEX) == g


@pytest.mark.parametrize(
    "order",
    [GREVLEX, LEX, GRLEX, Block(1), Block(2, LEX), Weight((1, 1, 1), Weight((1, 0, 0), GREVLEX))],
    ids=["grevlex", "lex", "grlex", "block1", "block2-lex", "nested-weight"],
)
def test_one_generator_is_its_own_reduced_basis(order):
    """A single generator skips the kernel: it comes back monic with its
    terms largest first, the same value and term order as the kernel's
    basis of (g, 2*g); over the degree cap it still raises."""
    rng = random.Random(2929)
    for _ in range(40):
        scale = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        g = random_poly(rng, R3, max_terms=5, max_exp=3) * scale
        if g.is_zero():
            continue
        (alone,) = reduced_groebner([g], order)
        (kernel,) = reduced_groebner([g, 2 * g], order)
        assert alone == kernel
        assert list(alone.terms) == list(kernel.terms)
        assert list(alone.terms.values()) == list(kernel.terms.values())
        keys = [order.key(e) for e in alone.terms]
        assert keys == sorted(keys, reverse=True) and alone.terms[next(iter(alone.terms))] == 1
        if g.degree() > 0:
            with pytest.raises(BudgetExhausted):
                reduced_groebner([g], order, Budget(max_degree=g.degree() - 1))


def test_groebner_property_spoly_reduction():
    """Every S-polynomial of the output basis reduces to zero."""
    rng = random.Random(777)
    for _ in range(25):
        gens = [random_poly(rng, R2) for _ in range(2)]
        gb = reduced_groebner(gens, GREVLEX)
        for a, b in combinations(gb, 2):
            la = a.leading_monomial(GREVLEX)
            lb = b.leading_monomial(GREVLEX)
            lcm = tuple(max(p, q) for p, q in zip(la, lb))
            sa = a.ring.monomial(tuple(p - q for p, q in zip(lcm, la)))
            sb = b.ring.monomial(tuple(p - q for p, q in zip(lcm, lb)))
            s = sa * a - sb * b
            assert normal_form(s, gb, GREVLEX).is_zero()


def brute_monomial_dimension(supports, n):
    """Largest coordinate subspace avoiding every generator support."""
    best = -1
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if all(not set(sup) <= s for sup in supports):
                return size
    return best


def test_dimension_monomial_oracle():
    rng = random.Random(4321)
    names = ("a", "b", "c", "d")
    for _ in range(60):
        n = rng.randrange(1, 5)
        ring = Ring(names[:n])
        k = rng.randrange(1, 4)
        supports = []
        gens = []
        for _ in range(k):
            exps = tuple(rng.randrange(3) for _ in range(n))
            if sum(exps) == 0:
                continue
            supports.append([i for i, e in enumerate(exps) if e])
            gens.append(ring.monomial(exps))
        I = Ideal(ring, tuple(gens))
        expected = brute_monomial_dimension(supports, n) if gens else n
        res = I.krull_dimension()
        assert res.dimension == expected
        assert len(res.independent_set) == expected


def test_dimension_frozen():
    assert Ideal(R3, ()).krull_dimension().dimension == 3
    R4 = Ring(("x", "y", "z", "w"))
    assert ideal(R4, "x*y - z*w").krull_dimension().dimension == 3
    assert ideal(R2, "x", "y").krull_dimension() .dimension == 0
    assert ideal(R2, "x").krull_dimension().dimension == 1
    assert ideal(R2, "x", "x - 1").krull_dimension().dimension == -1
    assert ideal(R2, "x", "x - 1").krull_dimension().independent_set == ()
    res = ideal(R3, "y - x^2", "z - x^3").krull_dimension()
    assert res.dimension == 1
    assert len(res.independent_set) == 1


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_krull_dimension_of_one_generator_runs_no_basis(monkeypatch, nvars):
    """Krull's principal ideal theorem: a single nonconstant generator
    gives N - 1 and the independent set of the basis route, every
    variable but the first one of the grevlex lead; a constant gives -1.
    The basis route is the same ideal with its generator twice, so that
    it reaches the kernel.  A generator over the degree cap still raises
    reduced_groebner's BudgetExhausted."""
    import jetspace.groebner as groebner

    ring = Ring(("x", "y", "z", "w")[:nvars])
    rng = random.Random(30 + nvars)
    polys = [ring.one() * Fraction(-3, 2)]
    while len(polys) < 25:
        f = ring.zero()
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            f = f + ring.monomial(exps, Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2))))
        if not f.is_zero():
            polys.append(f)
    assert any(f.is_constant() for f in polys) and not all(f.is_constant() for f in polys)
    expected = [Ideal(ring, (f, 2 * f)).krull_dimension() for f in polys]

    def no_basis(*args, **kwargs):
        raise AssertionError("a principal ideal reached the kernel")

    monkeypatch.setattr(groebner, "reduced_groebner", no_basis)
    assert [Ideal(ring, (f,)).krull_dimension() for f in polys] == expected
    monkeypatch.undo()
    f = max(polys, key=lambda p: p.degree())
    tight = Budget(max_degree=f.degree() - 1)
    with pytest.raises(BudgetExhausted) as basis_route:
        reduced_groebner([f], GREVLEX, tight)
    with pytest.raises(BudgetExhausted) as principal:
        Ideal(ring, (f,)).krull_dimension(tight)
    assert str(principal.value) == str(basis_route.value)


def test_dimension_independent_set_is_independent():
    I = ideal(R3, "x*y", "x*z")
    res = I.krull_dimension()
    assert res.dimension == 2
    idx = {R3.names.index(v) for v in res.independent_set}
    for g in I.groebner_basis():
        support = {i for i, e in enumerate(g.leading_monomial()) if e}
        assert not support <= idx


def test_budget_pairs():
    with pytest.raises(BudgetExhausted):
        reduced_groebner(
            mk(R2, "x^2 + y^2 - 1", "x*y - 1"), GREVLEX, Budget(max_pairs=0)
        )


def test_budget_degree():
    with pytest.raises(BudgetExhausted):
        reduced_groebner(mk(R2, "x^9"), GREVLEX, Budget(max_degree=8))
    with pytest.raises(BudgetExhausted):
        # S-pair formation overflows the cap even though inputs fit
        reduced_groebner(
            mk(R2, "x^4 + y^3", "x^3*y^3 + x"), GREVLEX, Budget(max_degree=6)
        )


def test_gb_cache_identity():
    I = ideal(R2, "x^2 - y")
    assert I.groebner_basis() is I.groebner_basis()
    assert I.groebner_basis(LEX) is I.groebner_basis(LEX)


def test_ideal_sum_and_equals():
    A = ideal(R2, "x")
    B = ideal(R2, "y")
    assert (A + B).equals(ideal(R2, "x", "y"))
    assert ideal(R2, "x", "y").equals(ideal(R2, "y", "x"))
    assert not A.equals(B)


def test_translate_ideal():
    I = ideal(R2, "x^2 + y^2 - 1")
    J = I.translate([1, 0])
    assert J.contains(parse_polynomial("x^2 + 2*x + y^2", R2))


def test_block_order_gb_agrees_on_elimination():
    # block order with k=1 puts x-free elements in the basis
    gb = reduced_groebner(mk(R3, "y - x^2", "z - x^3"), Block(1))
    xfree = [g for g in gb if all(e[0] == 0 for e in g.terms)]
    assert any(str(g) == "y^3 - z^2" for g in xfree)


def test_budget_degree_in_a_reduction_step():
    # lex: x*z^3 is reduced by x - y^4 - y^3*z^3, whose shifted tail terms
    # have degrees 7 and 9; no S-pair is involved, and the message names
    # the first term over the cap, not the largest
    with pytest.raises(BudgetExhausted) as info:
        reduced_groebner(
            mk(R3, "x - y^4 - y^3*z^3", "x*z^3"), LEX, Budget(max_degree=6)
        )
    assert str(info.value) == "term degree 7 exceeds cap 6"
    assert info.value.degree == 7
    assert info.value.pairs_done is None


def test_normal_form_above_the_degree_cap():
    # the cap binds shifted reducers, not the input: x^70 has no reducer
    # and passes through, while reducing x^70*y by y - 1 would shift the
    # reducer to degree 71
    basis = mk(R2, "2*y - 1/3", "x*y^2 - 3")
    f = parse_polynomial("x^70 + 3/7*x*y^2 + 1/2*y", R2)
    for cap in (64, 4):
        r = normal_form(f, basis, GREVLEX, Budget(max_degree=cap))
        assert str(r) == "x^70 + 1/84*x + 1/12"
    with pytest.raises(BudgetExhausted, match=r"^term degree 71 exceeds cap 64$"):
        normal_form(parse_polynomial("x^70*y", R2), mk(R2, "y - 1"))


def test_normal_form_is_the_exact_rational_remainder():
    # 1/2*x^2 + 2/3*y modulo 3*x - 1/5: x = 1/15, so x^2 -> 1/225
    r = normal_form(parse_polynomial("1/2*x^2 + 2/3*y", R2), mk(R2, "3*x - 1/5"))
    assert r == parse_polynomial("2/3*y + 1/450", R2)
    # not a scalar multiple: normal forms are linear over Q
    rng = random.Random(5150)
    for _ in range(30):
        gb = reduced_groebner([random_poly(rng, R2) for _ in range(2)], GREVLEX)
        f = random_poly(rng, R2, max_terms=4) * Fraction(rng.randrange(1, 9), 7)
        c = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        r = normal_form(f, gb)
        assert normal_form(f * c, gb) == r * c
        assert Ideal(R2, gb).contains(f - r)


def reference_normal_form(f, divisors, order):
    """Remainder of f on division by the list `divisors` over Q: the
    largest remaining term first, each reduced by the first divisor in
    list order whose lead divides it."""
    leads = [(max(g.terms, key=order.key), g) for g in divisors]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for lm, g in leads:
            if all(a >= b for a, b in zip(m, lm)):
                q = c / g.terms[lm]
                for e, cg in g.terms.items():
                    if e != lm:
                        e = tuple(a + b - d for a, b, d in zip(e, m, lm))
                        work[e] = work.get(e, 0) - q * cg
                        if not work[e]:
                            del work[e]
                break
        else:
            remainder[m] = c
    return Polynomial(f.ring, remainder)


@pytest.mark.parametrize(
    "order",
    [LEX, GREVLEX, Block(1, GREVLEX), Block(2, LEX)],
    ids=["lex", "grevlex", "block-1-grevlex", "block-2-lex"],
)
def test_normal_form_matches_reference_reducer(order):
    # leading coefficients 2..6 and rational coefficients make most steps
    # change the scale, so terms the step leaves alone must be rescaled
    # when they are next read
    rng = random.Random(20261018)

    def rand_poly(lead_coeff=None):
        terms = {}
        for _ in range(rng.randint(2, 5)):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = Polynomial(R3, terms)
        if p.is_zero() or lead_coeff is None:
            return p
        return p.monic(order) * lead_coeff

    for _ in range(60):
        divisors = [rand_poly(rng.randint(2, 6)) for _ in range(rng.randint(1, 4))]
        divisors = [g for g in divisors if not g.is_zero()]
        f = sum((rand_poly() * g for g in divisors), rand_poly())
        assert normal_form(f, divisors, order) == reference_normal_form(
            f, divisors, order
        )
    # x*z reduces to a multiple of y*z that cancels the input's own y*z;
    # then y^2 brings y*z back, so a key dropped from the work polynomial
    # is pushed again while its stale heap entry is still waiting
    divisors = mk(R3, "2*x - 3*y", "5*y^2 - 7*y*z")
    f = parse_polynomial("4*x*z - 6*y*z + 3*y^2 + z^2", R3)
    expected = parse_polynomial("21/5*y*z + z^2", R3)
    assert reference_normal_form(f, divisors, order) == expected
    assert normal_form(f, divisors, order) == expected


def test_normal_form_uses_the_first_dividing_lead():
    # not a Groebner basis: both leads divide x*y^2, and the remainder
    # depends on which reduces it.  By 2*x*y - z: x*y^2 - y/2*(2*x*y - z)
    # = 1/2*y*z.  By 3*y^2 - 1: x*y^2 - x/3*(3*y^2 - 1) = 1/3*x.
    f = parse_polynomial("x*y^2", R3)
    g1, g2 = mk(R3, "2*x*y - z", "3*y^2 - 1")
    for order in (LEX, GREVLEX):
        assert normal_form(f, [g1, g2], order) == parse_polynomial("1/2*y*z", R3)
        assert normal_form(f, [g2, g1], order) == parse_polynomial("1/3*x", R3)


def test_reducer_memo_sees_leads_appended_later():
    # lex, x > y: x*y first turns up irreducible by the only lead so far,
    # x^2*y; once x - 2*y^2 is in the basis, x*y turns up again in an
    # S-polynomial and must be reduced by it, so a memo that remembered
    # "irreducible" for good would leave x*y in the basis
    gens = mk(R2, "x^3 - 2*x*y", "x^2*y - 2*y^2 + x")
    assert reduced_groebner(gens, LEX) == mk(R2, "x - 2*y^2", "y^3")


# SHA-256 of the newline-joined str() of each reduced basis.  The values
# were computed with the engine the integer kernel replaced (Fraction
# coefficients, exponent tuples, tuple sort keys), before the change;
# reduced bases are unique, so any engine must reproduce them.
GOLDEN_BASES = {
    "jets of x^3 - y^4, level 3, grevlex": (
        55,
        "8c8c3c5b8fabfef309d21ec0b5c5dd175d65b4f15b662587d95799b8a950f5a2",
    ),
    "jets of x^3 - y^4, level 4, grevlex": (
        115,
        "e426e97906d0811b70d9b096671bdaf01513018fd2e41f4cd0250a822562c63b",
    ),
    "cusp cell (m=5, e=2) at level 7, block elimination of levels 6, 7": (
        38,
        "2256b1694f84322bbe8ae8704bff466accfc8b89807d526fea4f7096dd84e21d",
    ),
    "tangent-cone weight basis of a space curve": (
        16,
        "bf87aefbb4aadd11835cd25cfb3bef2d425b33cf8ca26a5ed8d3ae8b068d4451",
    ),
}


def cusp_cell():
    """(closed, excluded) of the cusp cell (m=5, e=2) at level 7, as
    contact_ideal gives them."""
    X = ideal(R2, "x^2 - y^3")
    jac = jacobian_ideal(X, 1)
    clauses = [ContactClause(X, ">=", 8), ContactClause(jac, "==", 2)]
    return contact_ideal(clauses, 7, point=(0, 0))


def golden_input(name):
    """(generators, order) of the golden basis called `name`."""
    if name.startswith("jets of x^3 - y^4"):
        level = int(name.split("level ")[1][0])
        X = ideal(R2, "x^3 - y^4")
        return jet_ideal(X, level).ideal.gens, GREVLEX
    if name.startswith("cusp cell"):
        # the closed part of the cell, in image_dimension's variable order:
        # the 4 level-6 and level-7 variables first, then eliminated
        closed, _ = cusp_cell()
        names = closed.jet_ring.ring.names
        perm = Ring(names[12:] + names[:12])
        index_map = {i: i + 4 if i < 12 else i - 12 for i in range(len(names))}
        gens = [map_variables(g, perm, index_map) for g in closed.ideal.gens]
        return gens, Block(4, GREVLEX)
    # homogenized with h first and ordered as invariants.tangent_cone does
    H = Ring(("h", "x", "y", "z"))
    gens = []
    for g in mk(R3, "x*z - y^2 + 2*x^3", "y*z - x^3 + 3*z^4", "z^2 - x^2*y - y^5"):
        d = g.degree()
        gens.append(Polynomial(H, {(d - sum(e),) + e: c for e, c in g.terms.items()}))
    return gens, Weight((1, 1, 1, 1), Weight((1, 0, 0, 0), GREVLEX))


def golden_basis(name):
    return reduced_groebner(*golden_input(name))


@pytest.mark.parametrize("name", sorted(GOLDEN_BASES))
def test_golden_basis_hashes(name):
    size, digest = GOLDEN_BASES[name]
    gb = golden_basis(name)
    assert len(gb) == size
    assert hashlib.sha256("\n".join(map(str, gb)).encode()).hexdigest() == digest


# S-pairs each golden basis selects, first counted with the engine that
# took an order key for every Gebauer-Moeller candidate, chose each pair
# by a min over all open pairs and formed pairs with every basis element.
# Dropping elements whose lead a later lead divides from the pair-forming
# set selects no fewer pairs on these four.  A run that selects the same
# pairs stops at the same count; max_pairs = N - 1 stops on the N-th
# selection.
GOLDEN_PAIRS = {
    "jets of x^3 - y^4, level 3, grevlex": 198,
    "jets of x^3 - y^4, level 4, grevlex": 528,
    "cusp cell (m=5, e=2) at level 7, block elimination of levels 6, 7": 135,
    "tangent-cone weight basis of a space curve": 33,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PAIRS))
def test_golden_basis_pair_counts(name):
    pairs = GOLDEN_PAIRS[name]
    gens, order = golden_input(name)
    gb = reduced_groebner(gens, order, Budget(max_pairs=pairs))
    assert len(gb) == GOLDEN_BASES[name][0]
    with pytest.raises(BudgetExhausted) as info:
        reduced_groebner(gens, order, Budget(max_pairs=pairs - 1))
    assert info.value.pairs_done == pairs
    assert str(info.value) == f"pair budget {pairs - 1} exhausted"


# S-pairs selected on the cusp cell once each nonzero excluded coefficient
# g adds its saturation generator 1 - w*g, in image_dimension's variable
# order (w, the level-6 and level-7 variables, then the rest) with the
# first five eliminated.  Here dropping elements whose lead a later lead
# divides saves pairs: the engine that formed pairs with every basis
# element selected 1653 and 512.
SATURATED_CUSP_PAIRS = (1573, 442)


def test_saturated_cusp_cell_pair_counts():
    closed, excluded = cusp_cell()
    names = closed.jet_ring.ring.names
    perm = Ring(("w",) + names[12:] + names[:12])
    index_map = {i: i + 5 if i < 12 else i - 11 for i in range(len(names))}
    gens = [map_variables(g, perm, index_map) for g in closed.ideal.gens]
    saturators = [
        perm.one() - perm.var(0) * map_variables(g, perm, index_map)
        for g in excluded
        if not g.is_zero()
    ]
    assert len(saturators) == len(SATURATED_CUSP_PAIRS)
    order = Block(5, GREVLEX)
    for saturator, pairs in zip(saturators, SATURATED_CUSP_PAIRS):
        gb = reduced_groebner(gens + [saturator], order, Budget(max_pairs=pairs))
        assert [str(g) for g in gb] == ["1"]  # the cell is empty
        with pytest.raises(BudgetExhausted) as info:
            reduced_groebner(gens + [saturator], order, Budget(max_pairs=pairs - 1))
        assert info.value.pairs_done == pairs


def test_saturated_cusp_cell_pair_counts_on_the_cell_route():
    """contact_cell_dim runs the saturated bases of the same cell in its
    own ring, against the 1573 and 442 pairs of the ungraded selection
    that SATURATED_CUSP_PAIRS pins.  The cell's equations hold the pure
    powers x__1^2 and 2*x__1; with x__1 = 0, -y__1^3 and then x__2^2 are
    pure powers too, and elimination_dimension sets all three variables
    to 0 first.  Both excluded coefficients, 2*x__2 and -3*y__1^2, vanish
    there, so each saturator 1 - w*g leaves the constant 1: each piece is
    proved empty at its first input and selects no pair."""
    X = ideal(R2, "x^2 - y^3")
    clauses = [ContactClause(X, ">=", 8), ContactClause(jacobian_ideal(X, 1), "==", 2)]
    assert contact_cell_dim(clauses, 7, 5, point=(0, 0), budget=Budget(max_pairs=0)) == -1


R4W = Ring(("w", "x", "y", "z"))


@pytest.mark.parametrize(
    "texts, k",
    [
        # y^2 is a pure power only once x^2 has set x to 0
        (("x^2", "y^2 + x*z"), 0),
        # x and y are image-level coordinates fixed at 0, not free ones
        (("x^2", "y^2 + x*z"), 1),
        (("x^2", "y^2 + x*z", "1 - w*z"), 1),
        # a saturator that vanishes on x = y = 0 leaves a constant
        (("x^2", "y^2 + x*z", "1 - w*y"), 1),
        (("w^3", "x*w + y", "y*z - x^2"), 1),
        (("x*y", "z^2 - x"), 0),
        (("3", "x^2"), 0),
    ],
)
def test_elimination_dimension_sets_pure_powers_to_zero(texts, k):
    """elimination_dimension replaces each pure power c*x^a by x, round
    after round; the dimension stays the one of the reference route, in
    the prefix form and in the mask form, and the caller's dicts are left
    as they were."""
    polys = mk(R4W, *texts)
    expected = Ideal(R4W, polys).eliminate(k).krull_dimension().dimension
    for packed, mono, eliminated in _packed_forms(polys, k):
        before = [dict(p) for p in packed]
        assert elimination_dimension(packed, mono, eliminated) == expected
        assert packed == before


def _packed_forms(polys, k):
    """(packed, mono, eliminated) of `polys` in w, x, y, z with the first
    k eliminated, in two forms.  Prefix: one field per variable, in the
    ring's order.  Mask: w, x, y, z at fields 5, 2, 6 and 0 of a packing
    of 8 fields, the other four unused, as in a table's packing.  The
    order keys of the two forms are equal term for term."""
    degree = max(p.degree() for p in polys)
    forms = []
    for nfields, fields in ((4, (0, 1, 2, 3)), (8, (5, 2, 6, 0))):
        mono, eliminated = block_order(elimination_packing(nfields, degree), fields, k, degree)
        exps = [0] * nfields
        packed = []
        for p in polys:
            terms = {}
            for e, c in p.terms.items():
                for f, a in zip(fields, e):
                    exps[f] = a
                terms[mono.pack(exps)] = int(c)
            packed.append(terms)
        forms.append((packed, mono, eliminated))
    (prefix, short, _), (masked, wide, _) = forms
    assert [sorted(map(short.key, p)) for p in prefix] == [sorted(map(wide.key, p)) for p in masked]
    return forms


def _packed_system(rng, triangular):
    """2-3 random integer polynomials in w, x, y, z.  Triangular: each is
    v^a plus terms of lower degree for its own variable v, so the leads
    are pure powers of distinct variables, already a basis, and every
    kept lead has a single-variable support."""
    polys = []
    for v in rng.sample(range(4), rng.randint(2, 3)):
        a = rng.randint(1, 3)
        p = R4W.monomial(tuple(a if i == v else 0 for i in range(4)), rng.choice((1, -2, 3)))
        for _ in range(rng.randint(1, 3)):
            if triangular:
                exps = [0] * 4
                for _ in range(rng.randint(0, a - 1)):
                    exps[rng.randrange(4)] += 1
            else:
                exps = [rng.randint(0, 2) for _ in range(4)]
            p = p + R4W.monomial(tuple(exps), rng.randint(-3, 3))
        if not p.is_zero():
            polys.append(p)
    return polys


@pytest.mark.parametrize("triangular", [True, False])
def test_elimination_dimension_reads_lead_supports_as_masks(monkeypatch, triangular):
    """Seeded packed systems against Ideal.eliminate(k).krull_dimension:
    the triangular ones have only single-variable kept supports, whose
    variables are counted without _min_hitting_set; the others have
    mixed supports, which that search still sees."""
    import jetspace.groebner as groebner

    searched = []
    real = groebner._min_hitting_set

    def counting(supports, nvars):
        searched.append(supports)
        return real(supports, nvars)

    monkeypatch.setattr(groebner, "_min_hitting_set", counting)
    rng = random.Random(27 + triangular)
    dims = set()
    searched_here = 0
    for _ in range(40):
        polys = _packed_system(rng, triangular)
        k = rng.randint(0, 2)
        expected = Ideal(R4W, tuple(polys)).eliminate(k).krull_dimension().dimension
        for packed, mono, eliminated in _packed_forms(polys, k):
            del searched[:]  # the reference route searches too
            assert elimination_dimension(packed, mono, eliminated) == expected, (polys, k)
            assert all(any(len(s) > 1 for s in sups) for sups in searched)
            searched_here += len(searched)
        dims.add(expected)
    assert len(dims) >= 2
    assert (searched_here == 0) == triangular


def test_deep_cusp_cell_fits_a_small_pair_budget():
    """Cusp cell (m=7, e=3) at level 10 selects 160 and 0 pairs in its two
    pieces under sugar selection, with the pure powers set to 0 first;
    the ungraded selection of both full saturations took 2823 and 1159,
    past this budget."""
    X = ideal(R2, "x^2 - y^3")
    clauses = [ContactClause(X, ">=", 11), ContactClause(jacobian_ideal(X, 1), "==", 3)]
    assert contact_cell_dim(clauses, 10, 7, point=(0, 0), budget=Budget(max_pairs=1000)) == 6


# Jet-scheme cells of smooth lct rows, each under a pair budget that the
# layout with the top level first fits and the one with level 0 first
# does not: it selects 528 pairs on the first and 3,279 on the second,
# against 345 and 1,443 with the top level first.
LCT_ROW_CELLS = [
    ("x^3 - y^4", 5, 4, 6, 400),
    ("x^3 - y^5", 6, 5, 8, 2000),
]


@pytest.mark.parametrize("f, order, level, dim, pairs", LCT_ROW_CELLS)
def test_lct_row_cell_fits_its_pair_budget(f, order, level, dim, pairs):
    clauses = [ContactClause(ideal(R2, f), ">=", order)]
    assert contact_cell_dim(clauses, level, level, budget=Budget(max_pairs=pairs)) == dim


def test_surface_probe_cell_fits_its_pair_budget():
    """The check-main probe cell (m=1, e=4) of the D4 surface at level 8
    selects 78, 67 and 0 pairs in its three pieces with the eliminated
    levels ascending and the pure powers set to 0 first; from the top
    down its first piece took 251 before that pass."""
    X = ideal(R3, "x^2 + y^3 + z^3")
    clauses = [ContactClause(X, ">=", 9), ContactClause(jacobian_ideal(X, 1), "==", 4)]
    assert contact_cell_dim(clauses, 8, 1, point=(0, 0, 0), budget=Budget(max_pairs=200)) == 0


def criterion_6_ideals(count):
    """Random ideals drawn as acceptance criterion 6 draws them: 1-3
    generators in x, y, z, each with 1-3 terms of exponents 0..2 per
    variable, integer coefficients in -3..3 and no constant term."""
    rng = random.Random(20240817)

    def rand_poly():
        p = R3.zero()
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            if not any(exps):
                exps = (1, 0, 0)
            p = p + R3.monomial(exps, Fraction(rng.randint(-3, 3)))
        return p

    ideals = []
    while len(ideals) < count:
        gens = tuple(rand_poly() for _ in range(rng.randint(1, 3)))
        if not all(g.is_zero() for g in gens):
            ideals.append(gens)
    return ideals


@pytest.mark.parametrize("order_name, order", [("lex", LEX), ("grevlex", GREVLEX)])
def test_reduced_basis_matches_sympy(order_name, order):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("x y z")

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
            *syms,
            domain="QQ",
        )

    def from_sympy(p):
        return Polynomial(
            R3, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()}
        ).monic(order)

    for gens in criterion_6_ideals(60):
        ours = reduced_groebner(gens, order)
        theirs = sympy.groebner([to_sympy(g) for g in gens if not g.is_zero()],
                                *syms, order=order_name, domain="QQ")
        expected = sorted(
            (from_sympy(p) for p in theirs.polys),
            key=lambda p: order.key(p.leading_monomial(order)),
            reverse=True,
        )
        assert list(ours) == expected, f"{order_name} basis of {gens}"


def test_eliminated_ideal_keeps_its_grevlex_basis():
    """eliminate stores the kept block-order elements as the grevlex basis
    of the eliminated ideal; they must equal a fresh grevlex run."""
    for gens in criterion_6_ideals(30):
        I = Ideal(R3, gens)
        for k in range(R3.ngens + 1):
            J = I.eliminate(k)
            if 0 < k < R3.ngens:
                assert GREVLEX.tag() in J._gb_cache
            assert J.groebner_basis() == reduced_groebner(J.gens, GREVLEX), (gens, k)


def test_saturation_by_two_is_the_meet_of_saturations_by_each():
    """I : (g, h)^inf = (I : g^inf) intersected with (I : h^inf) on the
    criterion-6 ideals, with seeded random g and h."""
    rng = random.Random(24)
    for gens in criterion_6_ideals(30):
        I = Ideal(R3, gens)
        g, h = random_zero_constant_poly(rng, R3), random_zero_constant_poly(rng, R3)
        if g.is_zero() or h.is_zero():
            continue
        meet = I.saturate(g).intersect_with(I.saturate(h))
        assert I.saturate((g, h)).equals(meet), (gens, g, h)
