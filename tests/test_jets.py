"""Jet rings, truncated expansion, contact loci, liftable-image dims."""

import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest

import jetspace.jets as jets
from jetspace.errors import AgreementError, BudgetExhausted, PreconditionError
from jetspace.groebner import Budget, Ideal
from jetspace.invariants import check_mld_hat_equals_n
from jetspace.jets import (
    ContactClause,
    JetRing,
    contact_cell_dim,
    contact_ideal,
    jacobian_ideal,
    jacobian_of,
    jet_ideal,
    lambda_sequence,
    liftable_image_dim,
    pad_to_jet_ring,
    t_expand,
)
from jetspace.parser import parse_polynomial
from jetspace.poly import Polynomial, Ring, map_variables


R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "z", "w"))


def mk(ring, text):
    return parse_polynomial(text, ring)


def ideal(ring, *texts):
    return Ideal(ring, tuple(mk(ring, t) for t in texts))


def test_jet_ring_layout():
    jr = JetRing(R2, 2)
    assert jr.ring.names == ("x__0", "y__0", "x__1", "y__1", "x__2", "y__2")
    assert jr.index(0, 0) == 0
    assert jr.index(1, 2) == 5
    assert str(jr.var(1, 1)) == "y__1"
    assert jr.level_indices(1) == [2, 3]
    # level-major layout: lower levels are a prefix
    lo = JetRing(R2, 1)
    assert jr.ring.names[: lo.ring.ngens] == lo.ring.names


def test_jet_ring_bad_index():
    jr = JetRing(R2, 1)
    with pytest.raises(PreconditionError):
        jr.index(0, 2)
    with pytest.raises(PreconditionError):
        jr.index(2, 0)


def test_t_expand_single_variable():
    jr = JetRing(R2, 2)
    coeffs = t_expand(mk(R2, "x"), 2)
    assert coeffs == (jr.var(0, 0), jr.var(0, 1), jr.var(0, 2))


def test_t_expand_cusp_frozen():
    # x^2 - y^3 expanded to level 2
    jr = JetRing(R2, 2)
    big = jr.ring
    coeffs = t_expand(mk(R2, "x^2 - y^3"), 2)
    assert len(coeffs) == 3
    assert coeffs[0] == mk(big, "x__0^2 - y__0^3")
    assert coeffs[1] == mk(big, "2*x__0*x__1 - 3*y__0^2*y__1")
    assert coeffs[2] == mk(big, "x__1^2 + 2*x__0*x__2 - 3*y__0^2*y__2 - 3*y__0*y__1^2")


def test_t_expand_constant_and_zero():
    coeffs = t_expand(R2.constant(Fraction(5, 2)), 1)
    big = JetRing(R2, 1).ring
    assert coeffs == (big.constant(Fraction(5, 2)), big.zero())
    zc = t_expand(R2.zero(), 2)
    assert all(c.is_zero() for c in zc)


def _expand_on_arc(p, m, rng, jr):
    """Oracle: substitute explicit arc polynomials and read t-coefficients.

    Builds a univariate model by sampling rational jet coordinates, then
    compares against evaluating the t_expand coefficients at the samples.
    """
    samples = {}
    for i in range(p.ring.ngens):
        for j in range(m + 1):
            samples[jr.index(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    # oracle: expand p at x_i(t) = sum_j samples[i,j] t^j with exact arithmetic
    arc = [
        [samples[jr.index(i, j)] for j in range(m + 1)]
        for i in range(p.ring.ngens)
    ]

    def series_mul(a, b):
        out = [Fraction(0)] * (m + 1)
        for ia, va in enumerate(a):
            if va == 0:
                continue
            for ib in range(m + 1 - ia):
                out[ia + ib] += va * b[ib]
        return out

    total = [Fraction(0)] * (m + 1)
    for exps, coeff in p.terms.items():
        series = [Fraction(1)] + [Fraction(0)] * m
        for i, e in enumerate(exps):
            for _ in range(e):
                series = series_mul(series, arc[i])
        for k in range(m + 1):
            total[k] += coeff * series[k]
    got = [c.evaluate([samples[t] for t in range(jr.ring.ngens)]) for c in t_expand(p, m)]
    return total, got


def test_t_expand_matches_direct_substitution():
    rng = random.Random(90210)
    names = ("x", "y", "z")
    ring = Ring(names)
    for _ in range(100):
        m = rng.randint(0, 4)
        jr = JetRing(ring, m)
        nterms = rng.randint(1, 4)
        terms = {}
        for _ in range(nterms):
            exps = tuple(rng.randint(0, 2) for _ in names)
            terms[exps] = terms.get(exps, Fraction(0)) + Fraction(rng.randint(-3, 3))
        p = ring.zero()
        for exps, c in terms.items():
            p = p + ring.monomial(exps, c)
        expected, got = _expand_on_arc(p, m, rng, jr)
        assert expected == got


def test_t_expand_matches_direct_substitution_wide():
    # exponents up to 9 cross every packed field width from 1 to 4 bits;
    # levels up to 8, rational coefficients, and sums whose terms cancel
    rng = random.Random(31337)
    names = ("x", "y", "z")
    ring = Ring(names)

    def rand_poly():
        p = ring.zero()
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.choice((0, 0, 1, rng.randint(2, 9))) for _ in names)
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 6))
            p = p + ring.monomial(exps, c)
        return p

    for _ in range(40):
        m = rng.randint(0, 8)
        jr = JetRing(ring, m)
        f, h = rand_poly(), rand_poly()
        g = h - f  # f + g = h: every term of f cancels
        for p in (f, g, h):
            expected, got = _expand_on_arc(p, m, rng, jr)
            assert expected == got
        for cf, cg, ch in zip(t_expand(f, m), t_expand(g, m), t_expand(h, m)):
            assert cf + cg == ch


def test_t_expand_multiplicative():
    # coefficients of a product = truncated convolution of the factors'
    rng = random.Random(424401)
    for _ in range(100):
        m = rng.randint(0, 4)
        jr = JetRing(R2, m)

        def rand_poly():
            p = R2.zero()
            for _ in range(rng.randint(1, 3)):
                exps = (rng.randint(0, 2), rng.randint(0, 2))
                p = p + R2.monomial(exps, Fraction(rng.randint(-3, 3)))
            return p

        f, g = rand_poly(), rand_poly()
        cf, cg, cfg = t_expand(f, m), t_expand(g, m), t_expand(f * g, m)
        for k in range(m + 1):
            conv = jr.ring.zero()
            for i in range(k + 1):
                conv = conv + cf[i] * cg[k - i]
            assert conv == cfg[k]


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_arc_series_matches_substitution_with_t(nvars):
    """_arc_series on the table packing (_cell_layout) against
    Polynomial.substitute of x_i -> sum_j x_i__j t^j in a ring that holds
    t, with no _series_mul: the t^k coefficients for k <= m, at levels
    0-6, with the levels below `lowest` set to 0 (lowest 0 for a free base
    point, 1 through a point, m + 1 where no level is left and only the
    constant term survives).  Field 0 of the packing, w, stays 0, and
    field 1 + k is jet variable lowest * n + k."""
    rng = random.Random(2700 + nvars)
    ring = Ring(("x", "y", "z")[:nvars])
    for _ in range(30):
        p = ring.zero()
        for _ in range(rng.randint(1, 4)):
            # exponents up to 3, terms of degree up to 5: the untruncated
            # substitution stays small
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            while sum(exps) > 5:
                exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
            p = p + ring.monomial(exps, c)
        if p.is_zero():
            continue
        m = rng.randint(0, 6)
        jr = JetRing(ring, m)
        names = jr.ring.names
        T = Ring(names + ("t",))
        t = T.var(len(names))
        scale = lcm(*(c.denominator for c in p.terms.values()))
        for lowest in (0, 1, m + 1):
            arc = {
                i: sum((T.var(jr.index(i, j)) * t**j for j in range(lowest, m + 1)), T.zero())
                for i in range(nvars)
            }
            expected = [{} for _ in range(m + 1)]
            for exps, c in p.substitute(arc).terms.items():
                if exps[-1] <= m:
                    expected[exps[-1]][exps[:-1]] = c
            places, mono, _ = jets._cell_layout(ring, lowest, m, p.degree(), None)
            (got,) = jets._arc_series([p], m, places, scale)
            unpacked = [{mono.unpack(mm): Fraction(c, scale) for mm, c in coeff.items()}
                        for coeff in got]
            assert all(exps[0] == 0 for coeff in unpacked for exps in coeff)
            below = (0,) * (lowest * nvars)
            assert [
                {below + exps[1:]: c for exps, c in coeff.items()} for coeff in unpacked
            ] == expected, (p, m, lowest)


def test_t_expand_truncation_prefix_compatible():
    # dropping trailing levels of a deep expansion gives the shallow one
    rng = random.Random(5551212)
    for _ in range(60):
        p = R2.zero()
        for _ in range(rng.randint(1, 3)):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            p = p + R2.monomial(exps, Fraction(rng.randint(-3, 3)))
        hi = rng.randint(1, 4)
        lo = rng.randint(0, hi)
        deep = t_expand(p, hi)
        shallow = t_expand(p, lo)
        jr_hi = JetRing(R2, hi)
        for k in range(lo + 1):
            assert pad_to_jet_ring(shallow[k], jr_hi) == deep[k]


def test_pad_to_jet_ring_rejects_foreign_ring():
    other = Ring(("a", "b"))
    with pytest.raises(PreconditionError):
        pad_to_jet_ring(other.var(0), JetRing(R2, 1))


def test_jet_ideal_cusp():
    J = jet_ideal(ideal(R2, "x^2 - y^3"), 2)
    assert J.jet_ring.ring == JetRing(R2, 2).ring
    assert len(J.ideal.gens) == 3
    big = J.jet_ring.ring
    assert J.ideal.gens[0] == mk(big, "x__0^2 - y__0^3")
    assert J.ideal.gens[1] == mk(big, "2*x__0*x__1 - 3*y__0^2*y__1")


def test_jet_scheme_dimension_of_smooth_curve():
    # jets of the line V(y): each level contributes one free coordinate
    line = ideal(R2, "y")
    for m in range(4):
        J = jet_ideal(line, m)
        assert J.ideal.krull_dimension().dimension == m + 1


def test_jet_scheme_dimension_of_node():
    # nodal curve: level-m jet scheme has dimension m + 1 for all m
    node = ideal(R2, "x*y")
    for m in range(3):
        J = jet_ideal(node, m)
        assert J.ideal.krull_dimension().dimension == m + 1


def test_contact_ideal_basic_geq():
    # ord(x) >= 2 and ord(y) >= 1 at level 1: x0, x1, y0 all vanish
    clauses = [ContactClause(ideal(R2, "x"), ">=", 2), ContactClause(ideal(R2, "y"), ">=", 1)]
    closed, excluded = contact_ideal(clauses, 1)
    assert excluded == []
    jr = closed.jet_ring
    expected = Ideal(jr.ring, (jr.var(0, 0), jr.var(0, 1), jr.var(1, 0)))
    assert closed.ideal.equals(expected)


def test_contact_ideal_monomial_pair_dimension():
    # ord(x^2) >= 2 and ord(y^3) >= 2 at level 1 leaves x0 = y0 = 0 and
    # x1, y1 free: the locus is 2-dimensional inside the 4-dim jet space
    clauses = [ContactClause(ideal(R2, "x^2", "y^3"), ">=", 2)]
    closed, _ = contact_ideal(clauses, 1)
    assert closed.ideal.krull_dimension().dimension == 2


def test_contact_ideal_exact_clause():
    clauses = [ContactClause(ideal(R2, "x"), "==", 1)]
    closed, excluded = contact_ideal(clauses, 1)
    jr = closed.jet_ring
    assert closed.ideal.equals(Ideal(jr.ring, (jr.var(0, 0),)))
    assert excluded == [jr.var(0, 1)]


def test_contact_ideal_point_translation():
    # through the point (1, 1) on the node's smooth locus
    clauses = [ContactClause(ideal(R2, "x*y - 1"), ">=", 2)]
    closed, _ = contact_ideal(clauses, 1, point=(Fraction(1), Fraction(1)))
    jr = closed.jet_ring
    # translated generator (x+1)(y+1) - 1 = xy + x + y; coefficient of t:
    # x1 y0 + x0 y1 + x1 + y1, then level-0 vars pinned to 0
    big = jr.ring
    want = Ideal(big, (big.var(0), big.var(1), mk(big, "x__1 + y__1")))
    assert closed.ideal.equals(want)


def test_contact_ideal_rejects_unrealizable():
    with pytest.raises(PreconditionError):
        contact_ideal([ContactClause(ideal(R2, "x"), ">=", 3)], 1)
    with pytest.raises(PreconditionError):
        contact_ideal([ContactClause(ideal(R2, "x"), "==", 2)], 1)
    with pytest.raises(PreconditionError):
        contact_ideal(
            [
                ContactClause(ideal(R2, "x"), "==", 1),
                ContactClause(ideal(R2, "y"), "==", 1),
            ],
            2,
        )


def test_jacobian_ideal_hypersurface():
    J = jacobian_ideal(ideal(R4, "x*y - z*w"), 1)
    assert J.equals(ideal(R4, "y", "x", "-w", "-z"))


def test_jacobian_ideal_two_by_two():
    # (x, z) in 4 variables: the 2x2 minors of the identity-like Jacobian
    J = jacobian_ideal(ideal(R4, "x", "z"), 2)
    assert J.equals(Ideal(R4, (R4.one(),)))


def test_jacobian_ideal_cusp():
    J = jacobian_ideal(ideal(R2, "x^2 - y^3"), 1)
    assert J.equals(ideal(R2, "2*x", "-3*y^2"))


def test_jacobian_ideal_bad_size():
    with pytest.raises(PreconditionError):
        jacobian_ideal(ideal(R2, "x"), 2)


def test_contact_cell_dim_projection():
    # ord(x - y^2) >= 2 at level 1: the parabola's 1-jets, dimension 2,
    # whose level-0 image is the parabola
    clauses = [ContactClause(ideal(R2, "x - y^2"), ">=", 2)]
    assert contact_cell_dim(clauses, 1, 0) == 1
    assert contact_cell_dim(clauses, 1, 1) == 2


def test_contact_cell_dim_saturation():
    # x*y = 0 with x != 0: the closure is the line y = 0
    assert contact_cell_dim([ContactClause(ideal(R2, "x*y"), ">=", 1),
                             ContactClause(ideal(R2, "x"), "==", 0)], 0, 0) == 1
    # removing from the empty set leaves it empty
    assert contact_cell_dim([ContactClause(ideal(R2, "1"), ">=", 1),
                             ContactClause(ideal(R2, "x"), "==", 0)], 0, 0) == -1


@pytest.mark.parametrize(
    "point", [None, (0, 0), (Fraction(1), 1)], ids=["free", "origin", "off-origin"]
)
def test_views_are_the_substituted_coefficients(point):
    """contact_ideal's closed generators and excluded coefficients, read
    off the table packing, are the t-coefficients that
    Polynomial.substitute gives (_reference_coefficients), in the same
    sequence, for >= and == clauses with no point, at the origin and at
    (1, 1); jet_ideal's generators and t_expand's coefficients are the
    same construction."""
    X = ideal(R2, "x^2 - y^3")
    jac = ideal(R2, "x", "3/2*y^2 + x")
    for clauses, m in [
        ([ContactClause(X, ">=", 3), ContactClause(jac, "==", 1)], 2),
        ([ContactClause(X, ">=", 2), ContactClause(jac, "==", 0)], 3),
        ([ContactClause(ideal(R2, "x*y^2 - 1/3*x + y"), "==", 2)], 4),
        ([ContactClause(X, ">=", 0), ContactClause(jac, ">=", 2)], 1),
    ]:
        jr, closed, excluded = _reference_coefficients(clauses, m, point)
        got, got_excluded = contact_ideal(clauses, m, point)
        assert got.jet_ring.ring == jr.ring
        assert got.ideal.gens == tuple(g for g in closed if not g.is_zero()), (clauses, m)
        assert got_excluded == excluded, (clauses, m)
    if point is None:
        for m in range(4):
            jr, closed, _ = _reference_coefficients([ContactClause(X, ">=", m + 1)], m)
            assert jet_ideal(X, m).ideal.gens == tuple(g for g in closed if not g.is_zero())
        p = mk(R2, "x^2*y - 3/2*y^3 + x - 2")
        for m in range(5):
            _, closed, _ = _reference_coefficients([ContactClause(Ideal(R2, (p,)), ">=", m + 1)], m)
            assert t_expand(p, m) == tuple(closed)


def test_liftable_line_smooth_point():
    # 1-, 2-, 3-jets of a line through the origin: dim = m
    line = ideal(R2, "y")
    origin = (Fraction(0), Fraction(0))
    for m in (1, 2, 3):
        assert liftable_image_dim(line, origin, m, 0) == m


def test_liftable_node_origin():
    node = ideal(R2, "x*y")
    origin = (Fraction(0), Fraction(0))
    # e = 0 cell is empty at the singular point, e = 1 already attains m
    assert liftable_image_dim(node, origin, 2, 0) == -1
    assert liftable_image_dim(node, origin, 2, 1) == 2
    assert liftable_image_dim(node, origin, 1, 1) == 1


def test_liftable_cusp_origin():
    cusp = ideal(R2, "x^2 - y^3")
    origin = (Fraction(0), Fraction(0))
    # Jacobian contact along any arc on the cusp is a multiple of 3,
    # so the e = 1 and e = 2 cells are empty
    assert liftable_image_dim(cusp, origin, 1, 1) == -1
    assert liftable_image_dim(cusp, origin, 1, 2) == -1
    assert liftable_image_dim(cusp, origin, 1, 3) == 0
    assert liftable_image_dim(cusp, origin, 3, 3) == 2


def test_liftable_requires_point_on_variety():
    with pytest.raises(PreconditionError):
        liftable_image_dim(ideal(R2, "x*y"), (Fraction(1), Fraction(2)), 1, 0)


def test_liftable_extra_levels_stable():
    # demanding even deeper liftability must not change the answer: the
    # level-2 image of the (m=2, e=1) cell, built at level 5 instead of 3
    node = ideal(R2, "x*y")
    origin = (Fraction(0), Fraction(0))
    base = liftable_image_dim(node, origin, 2, 1)
    cell = [ContactClause(node, ">=", 6), ContactClause(jacobian_ideal(node, 1), "==", 1)]
    deeper = contact_cell_dim(cell, 5, 2, point=origin)
    assert base == deeper == 2


def test_lambda_node():
    report = lambda_sequence(ideal(R2, "x*y"), (0, 0), 2, e_max=2)
    assert report.n == 1
    assert [r.value for r in report.rows] == [0, 0]
    assert all(r.converged for r in report.rows)
    assert report.stabilized == 0
    assert report.mld_hat == 1
    assert report.singular_dim == 0


def test_lambda_cusp():
    report = lambda_sequence(ideal(R2, "x^2 - y^3"), (0, 0), 3, e_max=3)
    assert report.n == 1
    assert [r.value for r in report.rows] == [1, 1, 1]
    assert all(r.converged for r in report.rows)
    assert report.stabilized == 1
    assert report.mld_hat == 2


def test_lambda_cone():
    report = lambda_sequence(ideal(R4, "x*y - z*w"), (0, 0, 0, 0), 2, e_max=2)
    assert report.n == 3
    assert [r.value for r in report.rows] == [0, 0]
    assert report.mld_hat == 3


def test_lambda_smooth_point_of_node():
    report = lambda_sequence(ideal(R2, "x*y"), (Fraction(1), Fraction(0)), 2, e_max=1)
    assert [r.value for r in report.rows] == [0, 0]
    assert report.mld_hat == 1


def test_lambda_point_off_variety():
    with pytest.raises(PreconditionError):
        lambda_sequence(ideal(R2, "x*y"), (1, 1), 1)


def test_lambda_budget_exhaustion_is_reported():
    tiny = Budget(max_pairs=1, max_degree=4)
    report = lambda_sequence(ideal(R2, "x^2 - y^3"), (0, 0), 2, e_max=3, budget=tiny)
    assert report.budget_hit
    assert not report.rows[-1].converged
    assert report.rows[-1].note.startswith("budget exhausted")


def test_lambda_early_stop_keeps_cells_short():
    # the node converges at e = 1; the row must not probe past it
    report = lambda_sequence(ideal(R2, "x*y"), (0, 0), 1, e_max=3)
    assert report.rows[0].cells == ((0, -1), (1, 1))


# Dead contact orders: a cell proved empty in one lambda row is reported
# as (e, -1) in every later row without being computed again.


@pytest.mark.parametrize(
    "ring, text, m_max, e_max",
    [
        (R2, "x^2 - y^3", 4, 3),
        (R2, "x^3 - y^4", 2, 4),
        # row 1's probe is decided by reparametrization (bound 0), row 2's
        # (bound 2, dimension 1) is computed
        (R3, "x^2 + y^3 + z^3", 2, 3),
        (R3, "x^2 - y^2*z", 2, 3),
    ],
    ids=["cusp", "E6", "D4", "umbrella"],
)
def test_lambda_skipped_cells_match_direct_computation(ring, text, m_max, e_max):
    I = ideal(ring, text)
    point = (0,) * ring.ngens
    report = lambda_sequence(I, point, m_max, e_max=e_max)
    for row in report.rows:
        assert row.cells
        for e, d in row.cells:
            assert liftable_image_dim(I, point, row.m, e) == d, (row.m, e)


def test_lambda_computes_each_empty_cell_once(monkeypatch):
    calls = []
    real = jets.liftable_image_dim

    def counting(I, point, m, e, **kwargs):
        calls.append((m, e))
        return real(I, point, m, e, **kwargs)

    monkeypatch.setattr(jets, "liftable_image_dim", counting)
    cusp = lambda_sequence(ideal(R2, "x^2 - y^3"), (0, 0), 5, e_max=3)
    assert len(calls) == 9
    assert [r.value for r in cusp.rows] == [1] * 5
    assert all(r.converged for r in cusp.rows)
    for row in cusp.rows:
        assert [e for e, _ in row.cells] == [0, 1, 2, 3, 4]
    assert cusp.stabilized == 1

    calls.clear()
    lambda_sequence(ideal(R2, "x^3 - y^4"), (0, 0), 3, e_max=4)
    assert len(calls) == 6


def test_lambda_interrupted_cell_is_not_marked_dead(monkeypatch):
    calls = []

    def stub(I, point, m, e, **kwargs):
        calls.append((m, e))
        if (m, e) == (1, 2):
            raise BudgetExhausted("stub budget stop")
        return -1

    monkeypatch.setattr(jets, "liftable_image_dim", stub)
    report = lambda_sequence(ideal(R2, "x^2 - y^3"), (0, 0), 2, e_max=3)
    assert report.rows[0].note == "budget exhausted: stub budget stop"
    assert report.rows[0].cells == ((0, -1), (1, -1))
    assert (2, 2) in calls
    assert (2, 0) not in calls and (2, 1) not in calls
    assert report.rows[1].cells == ((0, -1), (1, -1), (2, -1), (3, -1), (4, -1))


def test_lambda_cell_above_the_ceiling_raises(monkeypatch):
    # a cell of dimension above m*n contradicts the fiber-dimension bound
    monkeypatch.setattr(jets, "liftable_image_dim", lambda I, point, m, e, **kwargs: m + 1)
    with pytest.raises(AgreementError, match=r"cell \(m=1, e=0\) has dimension 2 > 1;"):
        lambda_sequence(ideal(R2, "x^2 - y^3"), (0, 0), 1, e_max=3)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer_targets():
    """TARGETS of perfbench/tracer.py, loaded from its file; its install()
    is not called."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py")
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize(
    "module, owner, attr", [pytest.param(*t[:3], id=t[3]) for t in _tracer_targets()]
)
def test_every_tracer_target_resolves(module, owner, attr):
    """The benchmark's tracer wraps each of its targets by name: a
    removal or rename that leaves one unresolved fails here."""
    obj = importlib.import_module(module)
    assert callable(getattr(getattr(obj, owner) if owner else obj, attr))


def test_benchmark_tracer_sees_the_cells(tmp_path):
    """The benchmark's tracer wraps the cell functions at their module
    bindings; the row walks must keep calling them through those names."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")

    def traced(name):
        spec = {"argv": ["corpus", name], "trace": str(tmp_path / f"{name}.jsonl"),
                "label": name}
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "child.py")], cwd=ROOT,
            input=json.dumps(spec), capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["code"] == 0 and result["error"] is None, (proc.stderr, result["error"])
        return result["counters"]

    assert traced("cusp")["jets.liftable_image_dim.calls"] == 7
    lct = traced("cusp-lct")
    assert lct["jets.image_dimension.calls"] == 10
    assert lct["jets.cell_level.max"] == 6


@pytest.mark.parametrize(
    "ring, text",
    [
        (R2, "x^2 - y^3"),
        (R2, "x^3 - y^4"),
        (R2, "x*y"),
        (Ring(("x", "y", "z")), "x^2 + y^2 + z^3"),
    ],
    ids=["cusp", "E6", "node", "A2-surface"],
)
def test_contact_cell_emptiness_is_monotone_in_level(ring, text):
    X = ideal(ring, text)
    jac = jacobian_ideal(X, 1)
    origin = (0,) * ring.ngens
    for e in range(4):
        for L in range(max(e, 1), e + 4):
            cell = [ContactClause(X, ">=", L + 1), ContactClause(jac, "==", e)]
            if contact_cell_dim(cell, L, 1, point=origin) == -1:
                cell = [ContactClause(X, ">=", L + 2), ContactClause(jac, "==", e)]
                assert contact_cell_dim(cell, L + 1, 1, point=origin) == -1, (e, L)


# The tail cell of a row: jets of X through the point at level
# L = max(m, E) with ord(jac) >= E + 1, closed clauses only, measured at
# image level m.  Every cell beyond E truncates into it.


@pytest.mark.parametrize(
    "text, E, bounds",
    [
        ("x^2 - y^3", 3, {1: 0, 2: 1, 3: 2}),
        ("x*y", 2, {1: 0, 2: 0}),
        ("x^2 - y^4", 2, {1: 1, 2: 2}),
        ("x^3 - y^4", 8, {1: 0}),
    ],
    ids=["cusp", "node", "tacnode", "E6"],
)
def test_tail_cell_bounds_through_closed_clauses(text, E, bounds):
    X = ideal(R2, text)
    jac = jacobian_of(X)
    for m, bound in bounds.items():
        L = max(m, E)
        tail = [ContactClause(X, ">=", L + 1), ContactClause(jac, ">=", E + 1)]
        assert contact_cell_dim(tail, L, m, point=(0, 0)) == bound, m


# The Jacobian ideal comes from the codimension, not from the number of
# generators, so the rows depend on V(I) only.


@pytest.mark.parametrize(
    "text", ["x^2 - y^3", "x*y", "x^2 - y^4"], ids=["cusp", "node", "tacnode"]
)
def test_lambda_rows_do_not_depend_on_the_presentation(text):
    f = mk(R2, text)
    plain = lambda_sequence(Ideal(R2, (f,)), (0, 0), 2, e_max=3)
    padded = lambda_sequence(Ideal(R2, (f, mk(R2, "x") * f)), (0, 0), 2, e_max=3)
    assert padded.rows == plain.rows
    assert padded.singular_dim == plain.singular_dim == 0
    assert padded.mld_hat == plain.mld_hat


def test_twisted_cubic_rows():
    # smooth, with three generators in codimension two
    cubic = ideal(R3, "x*z - y^2", "y - x^2", "z - x*y")
    assert jacobian_of(cubic).equals(jacobian_ideal(cubic, 2))
    report = lambda_sequence(cubic, (0, 0, 0), 2, e_max=2)
    assert [r.value for r in report.rows] == [0, 0]
    assert all(r.converged for r in report.rows)
    assert report.singular_dim == -1
    assert report.mld_hat == 1


def _reference_coefficients(clauses, level, point=None):
    """(jet ring, closed, excluded) of contact clauses at jet level
    `level`, the long way round, sharing none of the series code: arc
    equations by Polynomial.substitute of x_i -> sum_j x_i__j t^j in a
    ring that holds t, from level 1 through `point` (level 0 is the point,
    whose variables are pinned by generators after the clauses).  `closed`
    keeps the zero coefficients."""
    base = clauses[0].ideal.ring
    jr = JetRing(base, level)
    names = jr.ring.names
    T = Ring(names + ("t",))
    t = T.var(len(names))
    lowest = int(point is not None)
    arc = {
        i: sum((T.var(jr.index(i, j)) * t**j for j in range(lowest, level + 1)), T.zero())
        for i in range(base.ngens)
    }

    def coefficients(g):
        by_power = [{} for _ in range(level + 1)]
        for exps, c in g.substitute(arc).terms.items():
            if exps[-1] <= level:
                by_power[exps[-1]][exps[:-1]] = c
        return [Polynomial(jr.ring, terms) for terms in by_power]

    closed, excluded = [], []
    for clause in clauses:
        gens = clause.ideal.translate(point).gens if point is not None else clause.ideal.gens
        for g in gens:
            coeffs = coefficients(g)
            closed.extend(coeffs[: clause.order])
            if clause.relation == "==":
                excluded.append(coeffs[clause.order])
    if point is not None:
        closed.extend(jr.ring.var(i) for i in jr.level_indices(0))
    return jr, closed, excluded


def _reference_cell_dim(clauses, level, image_level, point=None):
    """contact_cell_dim the long way round, sharing none of its series or
    kernel code: the arc equations of _reference_coefficients,
    map_variables into the ring (w, the levels above the image level, the
    image levels), then Ideal.eliminate and krull_dimension."""
    jr, closed, excluded = _reference_coefficients(clauses, level, point)
    names = jr.ring.names
    prefix = jr.base.ngens * (image_level + 1)
    trailing = len(names) - prefix
    perm = Ring(("w",) + names[prefix:] + names[:prefix])
    index_map = {i: 1 + trailing + i if i < prefix else 1 + i - prefix for i in range(len(names))}
    gens = [map_variables(g, perm, index_map) for g in closed]
    saturators = [
        [perm.one() - perm.var(0) * map_variables(g, perm, index_map)]
        for g in excluded
        if not g.is_zero()
    ] if excluded else [[]]
    return max(
        (
            Ideal(perm, tuple(gens + s)).eliminate(1 + trailing).krull_dimension().dimension
            for s in saturators
        ),
        default=-1,
    )


def _lambda_tables():
    """(ring, text, point, m_max, e_max) of the lambda tables in the
    reference table."""
    return [
        (R2, "x^2 - y^3", (0, 0), 3, 3),
        (R2, "x*y", (0, 0), 3, 2),
        (R2, "x^2 - y^4", (0, 0), 3, 2),
        (R2, "x^3 - y^4", (0, 0), 2, 3),
        (R3, "x^2 + y^2 + z^3", (0, 0, 0), 2, 2),
        (R3, "x^2 - y^4", (0, 0, 0), 2, 2),
        (R2, "x*y - 1", (1, 1), 2, 1),
    ]


def _reference_cells():
    """(label, clauses, level, image_level, point) of the reference table."""
    cells = []
    for ring, text, point, m_max, e_max in _lambda_tables():
        X = ideal(ring, text)
        jac = jacobian_ideal(X, 1)
        for m in range(1, m_max + 1):
            for e in range(e_max + 1):
                L = max(m, e) + e
                clauses = [ContactClause(X, ">=", L + 1), ContactClause(jac, "==", e)]
                cells.append((f"{text} at {point}, m={m} e={e}", clauses, L, m, point))
    # surfaces of the verdicts False shapes, with three nonzero excluded
    # coefficients: pieces after the first carry earlier ones as closed
    for text, m, e in [
        ("x^2 + y^3 + z^3", 1, 3),
        ("x^2 + y^2*z + z^4", 1, 4),
        ("x^2 + y^3 + y*z^3", 1, 3),
        ("x^3 + y^4 + z^4", 1, 3),
    ]:
        X = ideal(R3, text)
        L = max(m, e) + e
        clauses = [ContactClause(X, ">=", L + 1), ContactClause(jacobian_ideal(X, 1), "==", e)]
        cells.append((f"{text} at the origin, m={m} e={e}", clauses, L, m, (0, 0, 0)))
    # t^1 of x^2 is 2*x__0*x__1, zero once level 0 is pinned: no saturator
    x2 = ideal(R2, "x^2")
    cells.append(("x^2 == 1 at the origin", [ContactClause(x2, "==", 1)], 1, 1, (0, 0)))
    cells.append(("x^2 == 1 with a free base point", [ContactClause(x2, "==", 1)], 2, 0, None))
    # the constant 1 has contact 0 with every arc: a constant saturator
    one = Ideal(R2, (R2.one(),))
    cusp = ideal(R2, "x^2 - y^3")
    cells.append(
        ("cusp >= 3 and 1 == 0", [ContactClause(cusp, ">=", 3), ContactClause(one, "==", 0)],
         2, 1, (0, 0))
    )
    # the smooth lct rows of x^3 - y^4: no point, image level = jet level
    e6 = ideal(R2, "x^3 - y^4")
    for m in range(1, 5):
        cells.append((f"lct row m={m}", [ContactClause(e6, ">=", m)], m - 1, m - 1, None))
    # the smooth-row cells over the singular locus: pure powers such as
    # x__0^2 and y__0^3 cascade through the image-level variables
    for text in ("x^3 - y^4", "x^3 - y^5"):
        X = ideal(R2, text)
        jac = jacobian_ideal(X, 1)
        for m in range(1, 6):
            clauses = [ContactClause(X, ">=", m), ContactClause(jac, ">=", 1)]
            cells.append((f"{text} >= {m}, jac >= 1", clauses, m - 1, m - 1, None))
    return cells


@pytest.mark.parametrize(
    "clauses, level, image_level, point",
    [pytest.param(*cell, id=label) for label, *cell in _reference_cells()],
)
def test_contact_cell_dim_matches_reference_route(clauses, level, image_level, point):
    assert contact_cell_dim(clauses, level, image_level, point=point) == _reference_cell_dim(
        clauses, level, image_level, point
    )


@pytest.mark.parametrize(
    "clauses, level, image_level, point",
    [
        pytest.param(*cell, id=label)
        for label, *cell in _reference_cells()
        if any(clause.relation == "==" for clause in cell[0])
    ],
)
def test_contact_cell_dim_bound_keeps_the_value(clauses, level, image_level, point):
    """A proven upper bound only stops the pieces early: the value is the
    unbounded one, whether the bound is tight or one above."""
    value = contact_cell_dim(clauses, level, image_level, point=point)
    for bound in (value, value + 1):
        got = contact_cell_dim(clauses, level, image_level, point=point, bound=bound)
        assert got == value, bound


@pytest.mark.parametrize(
    "ring, text, point, m_max, e_max",
    _lambda_tables(),
    ids=[f"{text} at {point}" for _, text, point, _, _ in _lambda_tables()],
)
def test_probe_cell_lies_in_the_closed_tail(ring, text, point, m_max, e_max):
    """The probe cell (m, e_max + 1), computed without a bound, is at
    most the closed tail T(m, e_max) that lambda rows bound it by."""
    X = ideal(ring, text)
    jac = jacobian_ideal(X, 1)
    for m in range(1, m_max + 1):
        probe = liftable_image_dim(X, point, m, e_max + 1, jacobian=jac)
        L = max(m, e_max)
        tail = [ContactClause(X, ">=", L + 1), ContactClause(jac, ">=", e_max + 1)]
        assert probe <= contact_cell_dim(tail, L, m, point=point), m


def test_check_main_probe_stops_at_the_tail(monkeypatch):
    """check-main on the D4 surface: the tail (dimension 0) costs one
    cell, and the probe (m, e) = (1, 4) none: the tail bounds it by 0 and
    the nonempty cell (1, 2) makes it nonempty by t -> t^2, so it is 0
    with no basis run.  8 images in all; the row is unchanged."""
    images, cells = [], []
    real_image, real_cell = jets.image_dimension, jets.liftable_image_dim

    def image(*args, **kwargs):
        images.append(args[2])
        return real_image(*args, **kwargs)

    def cell(I, point, m, e, **kwargs):
        cells.append((m, e))
        return real_cell(I, point, m, e, **kwargs)

    monkeypatch.setattr(jets, "image_dimension", image)
    monkeypatch.setattr(jets, "liftable_image_dim", cell)
    report = check_mld_hat_equals_n(ideal(R3, "x^2 + y^3 + z^3"), (0, 0, 0))
    row = report.lambda_report.rows[0]
    assert row.cells == ((0, -1), (1, -1), (2, 1), (3, 0), (4, 0)) and row.converged
    assert len(images) == 8
    assert cells == [(1, e) for e in range(4)]


def _recording_images(monkeypatch):
    """Replace jets.image_dimension by a wrapper that records (jet level,
    image level, eliminated count, variable count) of every packed cell it
    is handed.  A cell's variables are the fields its order weighs, of
    the table's packing, and no term of the cell uses another field; the
    kept ones are those outside the mask."""
    seen = []
    real = jets.image_dimension

    def image(cell, jet_ring, image_level, *args, **kwargs):
        mono = cell.mono
        fields = [o for o, w in zip(mono.offsets, mono.weights) if w]
        outside = mono.var_values & ~sum(mono.field << o for o in fields)
        assert not any(m & outside for p in cell.closed for m in p)
        kept = [o for o in fields if not cell.eliminated >> o & 1]
        seen.append((jet_ring.level, image_level, len(fields) - len(kept), len(fields)))
        return real(cell, jet_ring, image_level, *args, **kwargs)

    monkeypatch.setattr(jets, "image_dimension", image)
    return seen


def test_zero_bound_cells_through_a_point_run_on_the_vertex_fiber(monkeypatch):
    """Every "==" reference cell through a point whose value is at most 0
    keeps that value under bound 0, computed on the vertex fiber: each
    system handed to the kernel holds the unit x_i__j of every image-level
    field, 1 <= j <= m, and after the zero-set pass no other term in those
    fields."""
    import jetspace.groebner as groebner

    cells = [
        cell
        for cell in _reference_cells()
        if cell[4] is not None and any(clause.relation == "==" for clause in cell[1])
    ]
    values = {label: contact_cell_dim(c, level, m, point=p) for label, c, level, m, p in cells}
    systems = []
    real = jets.elimination_dimension

    def recording(polys, mono, *args, **kwargs):
        systems.append((polys, mono))
        return real(polys, mono, *args, **kwargs)

    monkeypatch.setattr(jets, "elimination_dimension", recording)
    checked = set()
    ran = 0  # systems checked; an order-0 cell through the point runs none
    for label, clauses, level, image_level, point in cells:
        if values[label] > 0:
            continue
        systems.clear()
        got = contact_cell_dim(clauses, level, image_level, point=point, bound=0)
        assert got == values[label], label
        checked.add(got)
        ran += len(systems)
        n = clauses[0].ideal.ring.ngens
        for polys, mono in systems:
            # the table's fields: w, then x_i__j from level 1 up
            image = mono.offsets[1 : 1 + n * image_level]
            units = [{1 << o | 1 << mono.degree_offset: 1} for o in image]
            assert all(unit in polys for unit in units), label
            fields = sum(mono.field << o for o in image)
            rest = [p for p in groebner._zero_set_system(polys, mono) if p not in units]
            assert not any(m & fields for p in rest for m in p), label
    assert checked == {-1, 0} and ran


def test_zero_bound_cell_without_a_point_keeps_its_full_layout(monkeypatch):
    """Without a point the arcs are not stable under t -> c*t: bound 0
    stops the pieces but leaves the image levels in the layout."""
    clauses = [ContactClause(ideal(R2, "x^2"), "==", 1)]
    seen = _recording_images(monkeypatch)
    assert contact_cell_dim(clauses, 2, 0, bound=0) == -1
    assert seen == [(2, 0, 1 + 2 * 2, 1 + 2 * 3)]


def test_check_main_probe_runs_on_the_vertex_fiber(monkeypatch):
    """check-main on the E7 surface x^2 + y^3 + y*z^3: the tail bounds
    the probe (m, e) = (1, 4) by 0 and no divisor cell (1, 1), (1, 2) is
    nonempty, so the probe runs, on its vertex fiber.  D4's probe,
    decided by reparametrization, computes no image at level 8; its row
    is unchanged.  Under x -> x - 2y the E7 cone is not a power of a
    coordinate, and the fiber saves work: check-main there makes 357
    reductions (962 without the fiber)."""
    import jetspace.groebner as groebner

    seen = _recording_images(monkeypatch)
    report = check_mld_hat_equals_n(ideal(R3, "x^2 + y^3 + z^3"), (0, 0, 0))
    assert report.lambda_report.rows[0].cells == ((0, -1), (1, -1), (2, 1), (3, 0), (4, 0))
    assert not [s for s in seen if s[0] == 8]
    report = check_mld_hat_equals_n(ideal(R3, "x^2 + y^3 + y*z^3"), (0, 0, 0))
    assert report.lambda_report.rows[0].cells == ((0, -1), (1, -1), (2, -1), (3, 1), (4, -1))
    steps = []
    real = groebner._subtract

    def subtract(*args):
        steps.append(None)
        return real(*args)

    monkeypatch.setattr(groebner, "_subtract", subtract)
    report = check_mld_hat_equals_n(ideal(R3, "(x - 2*y)^2 + y^3 + y*z^3"), (0, 0, 0))
    assert report.lambda_report.rows[0].cells == ((0, -1), (1, -1), (2, -1), (3, 1), (4, -1))
    assert len(steps) == 357


# Reparametrization: t -> t^k maps a jet of cell (m, d) to an arc of
# contact k*d with the Jacobian ideal, deep enough for cell (m, k*d), so a
# nonempty (m, d) makes (m, k*d) nonempty.  lambda rows use it to decide a
# probe under bound 0; these tests check the lemma and the rule on direct
# cells.

REPARAMETRIZED = (
    (R2, "x^2 - y^3"),
    (R2, "x^2 - y^4"),
    (R2, "x*y"),
    (R2, "x^3 - y^4"),
    (R2, "x^2 - y^5"),
    (R3, "x^2 + y^3 + z^3"),  # D4
    (R3, "x^2 + y^2 + z^2"),  # A1
    (R3, "x^2 + y^3 + y*z^3"),  # E7
    (R3, "x^2 - y^2*z"),  # the umbrella
)


def test_nonempty_cells_stay_nonempty_under_reparametrization():
    """(m, d) >= 0 implies (m, k*d) >= 0, on direct cells: m and d in
    {1, 2}, k in {2, 3}, with k*d at most 6 on curves and 4 on
    surfaces."""
    implications = 0
    for ring, text in REPARAMETRIZED:
        I = ideal(ring, text)
        point = (0,) * ring.ngens
        deepest = 6 if ring.ngens == 2 else 4
        for m in (1, 2):
            for d in (1, 2):
                if liftable_image_dim(I, point, m, d) < 0:
                    continue
                for k in (2, 3):
                    if k * d <= deepest:
                        assert liftable_image_dim(I, point, m, k * d) >= 0, (text, m, d, k)
                        implications += 1
    assert implications == 22


def _verdicts_shapes():
    """The 12 surfaces of tests/test_verdicts_golden.py, loaded from its
    file."""
    spec = importlib.util.spec_from_file_location(
        "verdicts_golden", os.path.join(ROOT, "tests", "test_verdicts_golden.py")
    )
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return list(golden.GOLDEN)


def test_reparametrized_probes_match_direct_computation(monkeypatch):
    """Every check-main probe (1, 4) that the rule decides, with no cell
    run, equals the probe computed directly on its own table."""
    real = jets.liftable_image_dim
    calls = []

    def cell(I, point, m, e, **kwargs):
        calls.append((m, e))
        return real(I, point, m, e, **kwargs)

    monkeypatch.setattr(jets, "liftable_image_dim", cell)
    decided = []
    for f in _verdicts_shapes():
        I = ideal(R3, f)
        calls.clear()
        row = check_mld_hat_equals_n(I, (0, 0, 0)).lambda_report.rows[0]
        probe = dict(row.cells).get(4)
        if probe is not None and (1, 4) not in calls:
            assert probe == real(I, (0, 0, 0), 1, 4), f
            decided.append(f)
    assert len(decided) == 4


def test_reparametrized_probe_under_an_empty_tail_raises(monkeypatch):
    """A nonempty divisor cell makes the probe nonempty, so a tail of -1,
    which holds the probe, is a contradiction."""
    monkeypatch.setattr(jets, "liftable_image_dim", lambda I, point, m, e, **kwargs: min(e, 1) - 1)
    monkeypatch.setattr(jets.CellTable, "cell", lambda self, *args, **kwargs: -1)
    with pytest.raises(AgreementError, match=r"cell \(m=1, e=1\) is nonempty, so t -> t\^4"):
        lambda_sequence(ideal(R2, "x^2 - y^3"), (0, 0), 1, e_max=3)


# Coordinate changes that fix the origin, each as the image of x with the
# suffix of its test ids.  Under the linear x -> x - 2y the cones of the
# False shapes are no longer powers of a coordinate, and there the
# probe's vertex fiber saves work.
COORDINATE_CHANGES = (("x + y*z", ""), ("x - 2*y", " under x -> x - 2*y"))


@pytest.mark.parametrize(
    "f, image",
    [
        pytest.param(f, image, id=f + suffix)
        for image, suffix in COORDINATE_CHANGES
        for f in _verdicts_shapes()
    ],
)
def test_check_main_is_invariant_under_a_change_of_coordinates(f, image):
    """A change of coordinates fixing the origin maps contact loci to
    contact loci, so the jet row's cells, the cone verdict and the
    verdict stay."""
    before = check_mld_hat_equals_n(ideal(R3, f), (0, 0, 0))
    after = check_mld_hat_equals_n(ideal(R3, f.replace("x", f"({image})")), (0, 0, 0))
    assert after.lambda_report.rows == before.lambda_report.rows
    assert (after.cone_verdict, after.verdict) == (before.cone_verdict, before.verdict)


# Tables: every cell of a CellTable reads one packing and one arc expansion
# per clause ideal, and must equal the same cell computed alone.

# The benchmark's ladder rungs: cusp lambda m_max=5, the lct table of
# x^3 - y^4 at M=5, and E6 lambda.
LADDER = (
    "ring x, y\nideal X = x^2 - y^3\npoint 0, 0\ncommand lambda m_max=5 e_max=3\n",
    "ring x, y\nideal A = x^3 - y^4\ncommand lct-bound M=5\n",
    "ring x, y\nideal X = x^3 - y^4\npoint 0, 0\ncommand lambda m_max=3 e_max=4\n",
)

TABLE_SOURCES = ("lambda tables", "reference cells", "corpus", "ladder")


def _reference_tables():
    """The reference cells, one CellTable per clause ideals and point,
    each cell in it without a bound and, where that proves it (a value of
    at most 0 through a point, with an "==" clause), again under bound 0,
    on the vertex fiber: the same order, with the image levels' unit
    equations among its closed generators."""
    groups = {}
    for _, clauses, level, image_level, point in _reference_cells():
        key = (point, tuple(dict.fromkeys(c.ideal for c in clauses)))
        groups.setdefault(key, []).append((clauses, level, image_level))
    for (point, _), cells in groups.items():
        reads = [(c.ideal, c.order - (c.relation == ">=")) for cell in cells for c in cell[0]]
        table = jets.CellTable(point, max(level for _, level, _ in cells), reads)
        for clauses, level, image_level in cells:
            value = table.cell(clauses, level, image_level)
            if point is not None and value <= 0 and any(c.relation == "==" for c in clauses):
                table.cell(clauses, level, image_level, bound=0)


def _run_tables(source, tmp_path):
    """Run the tables of one source: lambda_sequence on _lambda_tables(),
    the reference tables, every corpus entry or the ladder rungs."""
    from jetspace.cli import main
    from jetspace.corpus import CORPUS

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if source == "lambda tables":
            for ring, text, point, m_max, e_max in _lambda_tables():
                lambda_sequence(ideal(ring, text), point, m_max, e_max=e_max)
        elif source == "reference cells":
            _reference_tables()
        elif source == "corpus":
            for name in sorted(CORPUS):
                main(["corpus", name])
        else:
            for i, text in enumerate(LADDER):
                path = tmp_path / f"rung{i}.jsp"
                path.write_text(text)
                main(["run", str(path)])


def _table_cells(monkeypatch, source, tmp_path):
    """(table, clauses, level, image_level, bound, value) of every cell
    that a source's tables compute."""
    seen = []
    real = jets.CellTable.cell

    def cell(self, clauses, level, image_level, bound=None):
        value = real(self, clauses, level, image_level, bound)
        seen.append((self, clauses, level, image_level, bound, value))
        return value

    monkeypatch.setattr(jets.CellTable, "cell", cell)
    _run_tables(source, tmp_path)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("source", TABLE_SOURCES)
def test_every_table_cell_equals_the_cell_alone(monkeypatch, tmp_path, source):
    """The cells of a table share its packing, its expansions (each made
    once to the first coefficient asked and once more to the deepest),
    its scale and its order keys; each value is still the lone
    contact_cell_dim call's, under the same bound."""
    cells = _table_cells(monkeypatch, source, tmp_path)
    tables = {id(table) for table, *_ in cells}
    assert len(tables) < len(cells)  # some table holds several cells
    for table, clauses, level, image_level, bound, value in cells:
        alone = contact_cell_dim(
            clauses, level, image_level, point=table.point, budget=table.budget, bound=bound
        )
        assert alone == value, (clauses, level, image_level, table.point, bound)


@pytest.mark.parametrize("source", TABLE_SOURCES)
def test_order_zero_cells_through_a_vanishing_point_need_no_expansion(
    monkeypatch, tmp_path, source
):
    """A cell with ord(g) == 0 through a point where every generator of
    the ideal vanishes is empty: every arc through the point has contact
    at least 1.  It is -1 before any expansion, as the reference route,
    which expands every clause, finds."""
    def vanishing(clause, point):
        return clause.relation == "==" and clause.order == 0 and all(
            g.evaluate(point) == 0 for g in clause.ideal.gens
        )

    cells = [
        (table.point, clauses, level, image_level)
        for table, clauses, level, image_level, _, _ in _table_cells(monkeypatch, source, tmp_path)
        if table.point is not None and any(vanishing(c, table.point) for c in clauses)
    ]
    assert cells
    expanded = []
    monkeypatch.setattr(jets, "_arc_series", lambda *args: expanded.append(args))
    for point, clauses, level, image_level in cells:
        assert contact_cell_dim(clauses, level, image_level, point=point) == -1
    assert not expanded
    monkeypatch.undo()
    for point, clauses, level, image_level in cells:
        assert _reference_cell_dim(clauses, level, image_level, point) == -1


@pytest.mark.parametrize("source", TABLE_SOURCES)
def test_a_constant_left_by_the_zero_set_pass_ends_before_any_basis(
    monkeypatch, tmp_path, source
):
    """When groebner._zero_set_system leaves a nonzero constant, the cell
    is empty, and elimination_dimension returns -1 with no basis run.
    The route without that stop, keys, processing order and
    _minimal_basis, ends at the same input: its basis is that constant,
    with no pair selected."""
    import jetspace.groebner as groebner

    calls = []
    real = jets.elimination_dimension

    def recording(polys, mono, eliminated, budget=None, grading=None, keys=None):
        value = real(polys, mono, eliminated, budget, grading, keys)
        calls.append((polys, mono, grading, value))
        return value

    runs = []
    real_basis = groebner._minimal_basis

    def basis(*args, **kwargs):
        runs.append(args)
        return real_basis(*args, **kwargs)

    monkeypatch.setattr(jets, "elimination_dimension", recording)
    monkeypatch.setattr(groebner, "_minimal_basis", basis)
    _run_tables(source, tmp_path)
    monkeypatch.undo()
    constant = [
        call for call in calls
        if any(p.keys() == {0} for p in groebner._zero_set_system(call[0], call[1]))
    ]
    monos = {id(mono) for _, mono, _, _ in calls}  # held by `calls`, so the ids stay theirs
    assert constant and sum(id(args[1]) in monos for args in runs) == len(calls) - len(constant)
    for polys, mono, grading, value in constant:
        assert value == -1
        inputs = sorted(
            (sorted((mono.key(m), m, c) for m, c in p.items())
             for p in groebner._zero_set_system(polys, mono)),
            key=groebner._processing_order,
        )
        leads = [lm for lm, _, _ in real_basis(inputs, mono, Budget(max_pairs=0), grading)]
        assert leads == [0]
