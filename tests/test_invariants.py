"""Tangent cones, the two-route discrepancy test, threshold tables."""

import random
from fractions import Fraction
from itertools import product

import pytest

import jetspace
import jetspace.groebner as groebner
import jetspace.invariants as invariants
from jetspace.cli import parse_input
from jetspace.corpus import CORPUS
from jetspace.errors import BudgetExhausted, PreconditionError
from jetspace.groebner import Budget, Ideal, gcd_poly, lcm_poly
from jetspace.invariants import (
    check_mld_hat_equals_n,
    has_multiplicity_one_factor,
    lct_hat_bound,
    mld_hat_bound,
    mld_hat_from_lambda,
    ord_blowup_origin,
    tangent_cone,
)
from jetspace.jets import (
    CellTable,
    ContactClause,
    JetRing,
    contact_cell_dim,
    contact_ideal,
    jacobian_ideal,
    jet_ideal,
    lambda_sequence,
    t_expand,
)
from jetspace.parser import parse_polynomial
from jetspace.poly import Polynomial, Ring


R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))
R4 = Ring(("x", "y", "z", "w"))


def mk(ring, text):
    return parse_polynomial(text, ring)


def ideal(ring, *texts):
    return Ideal(ring, tuple(mk(ring, t) for t in texts))


ORIGIN2 = (Fraction(0), Fraction(0))
ORIGIN3 = (Fraction(0), Fraction(0), Fraction(0))
ORIGIN4 = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))


def test_tangent_cone_cusp():
    cone = tangent_cone(ideal(R2, "x^2 - y^3"))
    assert cone.principal
    assert cone.generator == mk(R2, "x^2")
    assert cone.ideal.equals(ideal(R2, "x^2"))


def test_tangent_cone_homogeneous_is_itself():
    cone = tangent_cone(ideal(R4, "x*y - z*w"))
    assert cone.principal
    assert cone.generator == mk(R4, "x*y - z*w")


def test_tangent_cone_node_variant():
    cone = tangent_cone(ideal(R2, "y^2 - x^2 - x^3"))
    assert cone.principal
    assert cone.generator == mk(R2, "x^2 - y^2")


def test_tangent_cone_needs_groebner_step():
    # naive initial forms of the generators give (x, y^3); the cone needs
    # the S-polynomial x*y to appear via y^3 - y*(x + y^2)
    cone = tangent_cone(ideal(R2, "x + y^2", "y^3"))
    assert cone.ideal.equals(ideal(R2, "x", "y^3"))
    assert not cone.principal


def test_tangent_cone_space_curve():
    cone = tangent_cone(ideal(R3, "x - y^2", "x - z^2"))
    assert cone.ideal.equals(ideal(R3, "x", "y^2 - z^2"))
    assert not cone.principal


def test_tangent_cone_at_smooth_point():
    # node translated to (1, 0): x*y becomes (x+1)*y, initial form y
    cone = tangent_cone(ideal(R2, "x*y"), point=(Fraction(1), Fraction(0)))
    assert cone.principal
    assert cone.generator == mk(R2, "y")


def test_multiplicity_one_square():
    verdict, cert = has_multiplicity_one_factor(mk(R2, "x^2"))
    assert verdict is False
    assert cert.is_constant()


def test_multiplicity_one_mixed():
    verdict, cert = has_multiplicity_one_factor(mk(R2, "x^2*y"))
    assert verdict is True
    assert cert == mk(R2, "y")


def test_multiplicity_one_irreducible_quadric():
    f = mk(R4, "x*y - z*w")
    verdict, cert = has_multiplicity_one_factor(f)
    assert verdict is True
    assert cert == f


def test_multiplicity_one_triple_line():
    verdict, cert = has_multiplicity_one_factor(mk(R2, "x^3 + x^2*y - x*y^2 - y^3"))
    assert verdict is True
    assert cert == mk(R2, "x - y")


def test_multiplicity_one_pure_power():
    verdict, cert = has_multiplicity_one_factor(mk(R2, "(x^2 + y^2)^3"))
    assert verdict is False
    assert cert.is_constant()


def test_multiplicity_one_structured_random():
    rng = random.Random(31337)
    for _ in range(30):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        c1 = rng.randint(1, 5)
        c2 = rng.randint(1, 5)
        f = (mk(R2, f"x + {c1}") ** a) * (mk(R2, f"y + {c2}") ** b)
        verdict, cert = has_multiplicity_one_factor(f)
        assert verdict == (a == 1 or b == 1)
        expected = R2.one()
        if a == 1:
            expected = expected * mk(R2, f"x + {c1}")
        if b == 1:
            expected = expected * mk(R2, f"y + {c2}")
        assert cert == expected.monic()


def test_multiplicity_one_rejects_constant():
    with pytest.raises(PreconditionError):
        has_multiplicity_one_factor(R2.one())
    with pytest.raises(PreconditionError):
        has_multiplicity_one_factor(R2.zero())


def test_check_smooth_line():
    report = check_mld_hat_equals_n(ideal(R2, "y"), ORIGIN2)
    assert report.n == 1
    assert report.verdict is True
    assert report.cone_status == "decided"
    assert report.cone_verdict is True
    assert report.lambda_verdict is True
    assert report.agreement is True


def test_check_node():
    report = check_mld_hat_equals_n(ideal(R2, "x*y"), ORIGIN2)
    assert report.verdict is True
    assert report.agreement is True


def test_check_cusp():
    report = check_mld_hat_equals_n(ideal(R2, "x^2 - y^3"), ORIGIN2)
    assert report.verdict is False
    assert report.cone_verdict is False
    assert report.lambda_verdict is False
    assert report.agreement is True


def test_check_tacnode_routes_diverge():
    # two smooth branches, tangent: the cone is a double line (not
    # reduced) but the 1-jets already fill dimension 1, so for this
    # curve the jet route reports True and the divergence is noted
    report = check_mld_hat_equals_n(ideal(R2, "x^2 - y^4"), ORIGIN2)
    assert report.n == 1
    assert report.cone_verdict is False
    assert report.lambda_verdict is True
    assert report.agreement is False
    assert report.verdict is True
    assert any("disagree" in note for note in report.notes)


def test_check_umbrella():
    report = check_mld_hat_equals_n(ideal(R3, "x^2 - y^2*z"), ORIGIN3)
    assert report.n == 2
    assert report.verdict is False
    assert report.agreement is True


def test_check_quadric_cone():
    report = check_mld_hat_equals_n(ideal(R4, "x*y - z*w"), ORIGIN4)
    assert report.n == 3
    assert report.verdict is True
    assert report.agreement is True


def test_check_rational_point_free_cone():
    # x^2 + y^2 + z^2 = 0 has no rational point besides the origin, but
    # the algebra sees the full two-dimensional cone
    report = check_mld_hat_equals_n(ideal(R3, "x^2 + y^2 + z^2"), ORIGIN3)
    assert report.n == 2
    assert report.verdict is True
    assert report.agreement is True


def test_check_triple_line():
    report = check_mld_hat_equals_n(ideal(R2, "x^3 + x^2*y - x*y^2 - y^3"), ORIGIN2)
    assert report.n == 1
    assert report.verdict is True


def test_check_nonprincipal_cone_defers_to_jets():
    I = ideal(R3, "x - y^2", "x - z^2")
    report = check_mld_hat_equals_n(I, ORIGIN3)
    assert report.cone_status == "undecided-nonprincipal"
    assert report.cone_verdict is None
    assert report.lambda_verdict is True
    assert report.verdict is True


def test_check_smooth_point_of_singular_surface():
    report = check_mld_hat_equals_n(
        ideal(R3, "x^2 - y^2*z"), (Fraction(1), Fraction(1), Fraction(1))
    )
    assert report.verdict is True


def test_check_requires_point_on_variety():
    with pytest.raises(PreconditionError):
        check_mld_hat_equals_n(ideal(R2, "x*y"), (Fraction(1), Fraction(1)))


def test_lct_point_ideal():
    table = lct_hat_bound(ideal(R2, "x", "y"), 3)
    assert [r.ratio for r in table.rows] == [Fraction(2), Fraction(2), Fraction(2)]
    assert table.bound == Fraction(2)
    assert table.argmin == 1
    assert table.exact


def test_lct_double_point():
    table = lct_hat_bound(ideal(R2, "x^2"), 4)
    assert [r.ratio for r in table.rows] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(1, 2),
    ]
    assert table.bound == Fraction(1, 2)
    assert table.argmin == 2
    assert table.exact


def test_lct_cusp_pair():
    table = lct_hat_bound(ideal(R2, "x^2", "y^3"), 6)
    assert table.bound == Fraction(5, 6)
    assert table.argmin == 6
    # the minimizer sits on the window edge, so exactness is not claimed
    assert not table.exact


def test_lct_window_monotone():
    small = lct_hat_bound(ideal(R2, "x^2"), 2)
    large = lct_hat_bound(ideal(R2, "x^2"), 4)
    assert large.bound <= small.bound


def test_lct_rejects_degenerate_ideals():
    with pytest.raises(PreconditionError):
        lct_hat_bound(Ideal(R2, ()), 2)
    with pytest.raises(PreconditionError):
        lct_hat_bound(Ideal(R2, (R2.one(),)), 2)


def test_lct_computes_each_basis_under_the_callers_budget(monkeypatch):
    """The zero-ideal check needs no basis, so no basis of `a` is computed
    and cached under the default budget before the caller's cap applies."""
    a = ideal(R3, "x^2 + y*z - x", "y^2 + x*z - y", "z^2 + x*y - z")
    tight = Budget(max_pairs=1)
    budgets = []
    real = groebner.reduced_groebner

    def recording(gens, order=groebner.GREVLEX, budget=None):
        if tuple(gens) == a.gens:
            budgets.append(budget)
        return real(gens, order, budget)

    monkeypatch.setattr(groebner, "reduced_groebner", recording)
    with pytest.raises(BudgetExhausted):
        lct_hat_bound(a, 1, budget=tight)
    assert budgets == [tight]


def test_lct_on_singular_ambient_runs_and_is_deterministic():
    a = ideal(R2, "x", "y")
    X = ideal(R2, "x^2 - y^3")
    t1 = lct_hat_bound(a, 2, on=X)
    t2 = lct_hat_bound(a, 2, on=X)
    assert t1 == t2
    assert t1.bound is not None
    assert t1.bound > 0
    # every reported row carries at least one contact cell
    for row in t1.rows:
        if row.codim is not None:
            assert row.cells


def test_lct_on_singular_ambient_skipped_cells_match_direct_computation():
    # an empty cell (m, e) is skipped in later rows; recompute every cell
    a = ideal(R2, "x", "y")
    X = ideal(R2, "x^2 - y^3")
    jac = jacobian_ideal(X, 1)
    table = lct_hat_bound(a, 2, on=X)
    for row in table.rows:
        m = row.m
        expected = []
        for e in range(4):
            s = max(m - 1, e)
            clauses = (
                ContactClause(X, ">=", s + e + 1),
                ContactClause(jac, "==", e),
                ContactClause(a, ">=", m),
            )
            d = contact_cell_dim(clauses, s + e, s)
            if d != -1:
                expected.append((e, (s + 1) - d))  # the cusp is a curve: n = 1
        # empty cells are absent, every other cell carries its direct codim
        assert row.cells == tuple(expected)


def test_lct_on_singular_ambient_computes_each_empty_cell_once(monkeypatch):
    calls = []
    real = CellTable.cell

    def counting(self, clauses, *args, **kwargs):
        calls.extend(c.order for c in clauses if c.relation == "==")
        return real(self, clauses, *args, **kwargs)

    monkeypatch.setattr(CellTable, "cell", counting)
    table = lct_hat_bound(ideal(R2, "x", "y"), 4, on=ideal(R2, "x^2 - y^3"), e_max=3)
    # row 1 proves e = 0, 1, 2 empty; rows 2 and 3 compute e = 3 alone, and
    # once it is empty at row 3, row 4 computes nothing (16 cells otherwise)
    assert calls == [0, 1, 2, 3, 3, 3]
    assert [r.cells for r in table.rows] == [((3, 2),), ((3, 2),), (), ()]
    assert table.notes == (
        "row m=3 skipped: liftable contact lies beyond e_max=3",
        "row m=4 skipped: liftable contact lies beyond e_max=3",
    )


@pytest.mark.parametrize(
    "X, tails, note",
    [
        # the arcs x = t^6, y = t^4 reach ord(A) = 4 with Jacobian contact 6
        ("x^2 - y^3", (1, 0), "liftable contact lies beyond e_max=3"),
        # no arc of the line x = 1 meets the origin
        ("x - 1", (-1, -1), "no liftable contact found"),
    ],
)
def test_lct_on_skipped_row_note_reads_the_closed_tail(X, tails, note):
    a = ideal(R2, "x", "y")
    X = ideal(R2, X)
    jac = jacobian_ideal(X, 1)
    for m, dim in zip((3, 4), tails):
        L = max(m - 1, 3)
        tail = [ContactClause(X, ">=", L + 1), ContactClause(jac, ">=", 4),
                ContactClause(a, ">=", m)]
        assert contact_cell_dim(tail, L, L) == dim
    table = lct_hat_bound(a, 4, on=X, e_max=3)
    assert [r.note for r in table.rows if r.m >= 3] == [note, note]
    assert f"row m=3 skipped: {note}" in table.notes


def test_lct_on_table_does_not_depend_on_the_presentation():
    # (f) and (f, x*f) cut out the same cusp
    f = mk(R2, "x^2 - y^3")
    a = ideal(R2, "x", "y")
    plain = lct_hat_bound(a, 4, on=Ideal(R2, (f,)), e_max=3)
    padded = lct_hat_bound(a, 4, on=Ideal(R2, (f, mk(R2, "x") * f)), e_max=3)
    assert padded.rows == plain.rows
    assert (padded.bound, padded.argmin, padded.notes) == (plain.bound, plain.argmin, plain.notes)
    assert [r.codim for r in plain.rows] == [2, 2, None, None]


def _direct_dim(gens_by_order, ring, level):
    """Krull dimension of the contact locus {ord g >= k}, built from the
    arc expansions alone: the t^0..t^(k-1) coefficients of each g."""
    big = JetRing(ring, level).ring
    gens = []
    for g, k in gens_by_order:
        gens.extend(t_expand(g, level)[:k])
    return Ideal(big, tuple(gens)).krull_dimension().dimension


def _smooth_lct_cases():
    rng = random.Random(14)
    cases = [(ideal(R2, "x", "y"), 3), (ideal(R2, "x^2"), 2), (ideal(R2, "x^2", "y^3"), 6)]
    for _ in range(3):
        a, b = rng.randint(2, 4), rng.randint(2, 5)
        cases.append((ideal(R2, f"x^{a} - y^{b}"), 3))
    # hypersurfaces with and without smooth points, where lct_hat_bound
    # measures only the jets over the singular locus
    cases += [(ideal(R2, "x^2*y"), 4), (ideal(R2, "(x^2 - y^3)^2"), 4)]
    return cases


def test_smooth_table_rows_match_direct_jet_computations():
    # lct rows: codim of {ord a >= m} at level m - 1 is N*m minus the
    # dimension of the (m-1)-jet scheme of V(a)
    for a, M in _smooth_lct_cases():
        table = lct_hat_bound(a, M)
        for r in table.rows:
            dim = _direct_dim([(g, r.m) for g in a.gens], R2, r.m - 1)
            assert r.codim == 2 * r.m - dim, (a, r.m)
    # mld rows: the corpus entry and a seeded weighted binomial
    A = ideal(R4, "x*(x*y - z*w)", "z*(x*y - z*w)")
    W = ideal(R4, "x", "y", "z", "w")
    rng = random.Random(41)
    a, b = rng.randint(2, 4), rng.randint(2, 5)
    B = ideal(R2, f"x^{a} - y^{b}")
    for ring, weighted, center, M in (
        (R4, ((A, Fraction(1)),), W, 3),
        (R2, ((B, Fraction(1, 2)), (ideal(R2, "x", "y"), Fraction(1))), ideal(R2, "x", "y"), 2),
    ):
        table = mld_hat_bound(ring, weighted, center, M)
        for r in table.rows:
            p = max([m - 1 for m in r.indices if m >= 1], default=0)
            orders = [(g, 1) for g in center.gens]
            for (I, _), m in zip(weighted, r.indices):
                orders += [(g, m) for g in I.gens]
            dim = _direct_dim(orders, ring, p)
            assert r.codim == ring.ngens * (p + 1) - dim, r.indices
            assert r.value == r.codim - sum(m * w for (_, w), m in zip(weighted, r.indices))
    # the m-jet scheme is the closed part of ord >= m + 1, generator for
    # generator, in the order the arc expansion gives them
    for I in (ideal(R2, "x^2 - y^3"), ideal(R2, "x*y", "x^2 + y"), A):
        for m in range(3):
            expanded = tuple(c for g in I.gens for c in t_expand(g, m))
            closed, _ = contact_ideal([ContactClause(I, ">=", m + 1)], m)
            assert jet_ideal(I, m).ideal.gens == closed.ideal.gens == expanded


@pytest.mark.parametrize("ring, texts, M", [
    (R2, ("x - y^2",), 4),  # smooth: no jet over the singular locus
    (R2, ("x^2 - y^2 + 1",), 4),  # not through the origin
    (R2, ("x^3 - y^4",), 4),
    (R2, ("x*(x^2 - y^3)",), 4),
    (R2, ("x^2*y",), 4),  # non-reduced, with smooth points
    (R2, ("(x^2 - y^3)^2",), 4),  # no smooth point
    (R2, ("x^2",), 4),
    (R3, ("x^2 + y^3 + z^3",), 3),
    (R3, ("x^2 - y^2*z",), 3),  # singular along a line
    (R3, ("x*y*z",), 3),
    (R2, ("x", "y"), 3),  # a point: jac is (1)
    (R2, ("x^2", "y^3"), 4),  # a fat point: jac vanishes on it
    (R2, ("x^2", "x*y"), 4),  # a line with an embedded point
    (R2, ("x^2", "x*y^2"), 4),
    (R2, ("x*y", "x^2 + y"), 4),
    (R2, ("x^2 - y^3", "x*y"), 4),
    (R3, ("x*z - y^2", "y - x^2", "z - x*y"), 3),  # twisted cubic: c = 2, three generators
    (R3, ("y*z", "x*z", "x*y"), 3),  # the three axes
    (R3, ("x*y", "z"), 3),
    (R3, ("x^2 - y^3", "z"), 3),
    (R3, ("x*z", "y*z"), 3),  # a line meeting a plane: not pure
], ids=lambda v: ", ".join(v) if isinstance(v, tuple) else None)
def test_smooth_lct_rows_match_the_jet_scheme_cell(ring, texts, M):
    """Each row takes max(m*n, dim S_m) in place of the whole (m-1)-jet
    scheme [a >= m]; every row must equal that cell."""
    a = ideal(ring, *texts)
    N = ring.ngens
    direct = [N * m - contact_cell_dim([ContactClause(a, ">=", m)], m - 1, m - 1)
              for m in range(1, M + 1)]
    assert [r.codim for r in lct_hat_bound(a, M).rows] == direct


def test_smooth_lct_hypersurface_rows_fit_a_small_budget():
    """The jet scheme cells of these rows need 222 and 345 pairs; the cells
    over the singular locus fit in far fewer."""
    table = lct_hat_bound(ideal(R2, "x^2*y^2 + x^5 + y^5"), 4, budget=Budget(max_pairs=200))
    assert [r.codim for r in table.rows] == [1, 2, 2, 2]
    assert (table.bound, table.argmin) == (Fraction(1, 2), 4)
    table = lct_hat_bound(ideal(R2, "x^3 - y^4"), 5, budget=Budget(max_pairs=100))
    assert [r.codim for r in table.rows] == [1, 2, 2, 3, 4]
    assert (table.bound, table.argmin) == (Fraction(2, 3), 3)


def test_smooth_lct_rows_of_any_ideal_fit_a_small_budget():
    """Whole jet-scheme cells of these ideals exhaust 200 pairs; the cells
    over V(a, jac) fit.  The second ideal is F1's."""
    budget = Budget(max_pairs=200)
    for texts, codims in (
        (("1/2*x^3*y*z^2 + 2*y^2*z + 2*z - 2", "-x*z^3 - 3*z"), [2, 4, 6]),
        (("2*z^2 + 2*x*y*z^2", "3*y^3 + 2*y*z + 1/2*x^3*y^2*z^3"), [2, 2, 3]),
    ):
        table = lct_hat_bound(ideal(R3, *texts), 3, budget=budget)
        assert [r.codim for r in table.rows] == codims


def test_smooth_lct_tables_never_fall_below_howald():
    """The window minimum bounds the lct from above, so it is never below
    the closed form: min(1, 1/a + 1/b) for the non-degenerate x^a - y^b,
    and 1/a + 1/b for the monomial ideal (x^a, y^b) (Howald 2003, 2001).
    `exact` is left out: it is claimed on tables whose bound lies above
    the closed form, such as (x^3, y^4) at 2/3 against 7/12."""
    for p, q in product(range(2, 6), repeat=2):
        lct = Fraction(1, p) + Fraction(1, q)
        binomial = lct_hat_bound(ideal(R2, f"x^{p} - y^{q}"), 6)
        assert binomial.bound >= min(1, lct)
        monomial = lct_hat_bound(ideal(R2, f"x^{p}", f"y^{q}"), 6)
        assert monomial.bound >= lct


def _newton_codim(a, b, m):
    """Codimension of {ord(x^a - y^b) >= m} in the arc space of the
    plane: the least p + q over arcs with ord x = p and ord y = q, where
    the contact is min(a*p, b*q) unless a*p = b*q, where the two leading
    terms can cancel and each further order costs one condition."""
    codims = []
    for p, q in product(range(m + 1), repeat=2):
        if min(a * p, b * q) >= m:
            codims.append(p + q)
        elif a * p == b * q:
            codims.append(p + q + m - a * p)
    return min(codims)


@pytest.mark.parametrize("a, b", [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (3, 7)])
def test_deep_smooth_lct_rows_follow_the_newton_polygon(a, b):
    """Every row of x^a - y^b up to M = a*b has the codimension that its
    Newton polygon gives, and the window minimum is the lct 1/a + 1/b,
    reached at m = a*b.  `exact` is left out, as in the Howald test."""
    table = lct_hat_bound(ideal(R2, f"x^{a} - y^{b}"), a * b)
    assert [r.codim for r in table.rows] == [_newton_codim(a, b, m) for m in range(1, a * b + 1)]
    assert table.bound == Fraction(1, a) + Fraction(1, b)


def test_check_rejects_a_negative_e_max_before_the_tangent_cone(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("tangent cone built before e_max was checked")

    monkeypatch.setattr(invariants, "tangent_cone", unreachable)
    with pytest.raises(PreconditionError, match="e_max must be non-negative"):
        check_mld_hat_equals_n(ideal(R2, "x^2 - y^3"), ORIGIN2, e_max=-1)


def test_check_builds_the_tangent_cone_once(monkeypatch):
    """The cone route's cone also gives the jet route its local dimension."""
    calls = []
    real = invariants.tangent_cone

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "tangent_cone", counting)
    for I, point in ((ideal(R2, "x^2 - y^3"), ORIGIN2), (ideal(R3, "x^2 - y^2*z"), ORIGIN3),
                     (ideal(R3, "x - y^2", "x - z^2"), ORIGIN3)):
        calls.clear()
        check_mld_hat_equals_n(I, point)
        assert len(calls) == 1
    calls.clear()
    lambda_sequence(ideal(R2, "x^2 - y^3"), ORIGIN2, 1)
    assert len(calls) == 1


def test_cone_route_needs_no_intersection(monkeypatch):
    """The corpus check-main entries decide their cone route by one
    saturation: no gcd, so no intersection of ideals."""

    def refuse(*args, **kwargs):
        raise AssertionError("the cone route intersected two ideals")

    monkeypatch.setattr(Ideal, "intersect_with", refuse)
    expected = {
        "line": (True, "y"),
        "tacnode": (False, "1"),
        "umbrella": (False, "1"),
        "sphere": (True, "x^2 + y^2 + z^2"),
        "tripleline": (True, "x - y"),
    }
    for name, (verdict, certificate) in expected.items():
        doc = parse_input(CORPUS[name])
        report = check_mld_hat_equals_n(doc.ideals["X"], doc.point)
        assert report.cone_status == "decided", name
        assert (report.cone_verdict, str(report.cone_certificate)) == (verdict, certificate), name


def test_mld_bound_smooth_plane():
    table = mld_hat_bound(R2, (), ideal(R2, "x", "y"), 2)
    assert len(table.rows) == 1
    assert table.rows[0].value == Fraction(2)
    assert table.bound == Fraction(2)
    assert table.exact


def test_mld_bound_point_ideal_weight_one():
    table = mld_hat_bound(R2, ((ideal(R2, "x", "y"), Fraction(1)),), ideal(R2, "x", "y"), 2)
    assert [r.value for r in table.rows] == [Fraction(2), Fraction(1), Fraction(2)]
    assert table.bound == Fraction(1)
    assert table.argmin == (1,)
    assert table.exact


def test_mld_bound_product_ideal_in_four_space():
    A = ideal(R4, "x*(x*y - z*w)", "z*(x*y - z*w)")
    W = ideal(R4, "x", "y", "z", "w")
    table = mld_hat_bound(R4, ((A, Fraction(1)),), W, 3)
    assert [r.value for r in table.rows] == [
        Fraction(4),
        Fraction(3),
        Fraction(2),
        Fraction(1),
    ]
    assert table.bound == Fraction(1)
    assert table.argmin == (3,)
    assert not table.exact


def test_mld_bound_fractional_weight():
    table = mld_hat_bound(
        R2, ((ideal(R2, "x", "y"), Fraction(2, 3)),), ideal(R2, "x", "y"), 2
    )
    # row m=(1,): codim 2 - 2/3; m=(2,): codim 4 - 4/3
    assert table.rows[1].value == Fraction(4, 3)
    assert table.bound == Fraction(4, 3)


def test_mld_bound_rejects_bad_input():
    with pytest.raises(PreconditionError):
        mld_hat_bound(R2, ((ideal(R2, "x"), Fraction(0)),), ideal(R2, "x", "y"), 1)
    with pytest.raises(PreconditionError):
        mld_hat_bound(R2, (), Ideal(R2, ()), 1)


def test_ord_blowup_product_ideal():
    I = ideal(R4, "x*(x*y - z*w)", "z*(x*y - z*w)")
    result = ord_blowup_origin(I)
    assert result.vanishing_order == 3
    assert result.k_exceptional == 3
    assert result.log_discrepancy == 1


def test_ord_blowup_point_ideal():
    result = ord_blowup_origin(ideal(R2, "x", "y"))
    assert result.vanishing_order == 1
    assert result.k_exceptional == 1
    assert result.log_discrepancy == 1


def test_ord_blowup_plane_curve():
    result = ord_blowup_origin(ideal(R2, "x^2 + y^3"))
    assert result.vanishing_order == 2
    assert result.log_discrepancy == 0


def test_ord_blowup_zero_ideal():
    with pytest.raises(PreconditionError):
        ord_blowup_origin(Ideal(R2, ()))


def test_mld_hat_from_lambda():
    report = lambda_sequence(ideal(R2, "x*y"), ORIGIN2, 2, e_max=2)
    assert mld_hat_from_lambda(report) == 1
    short = lambda_sequence(ideal(R2, "x*y"), ORIGIN2, 1, e_max=2)
    with pytest.raises(PreconditionError):
        mld_hat_from_lambda(short)


def _sympy_bridge(sympy, ring):
    """(to_sympy, from_sympy) between jetspace Polynomials in `ring` and
    sympy expressions in symbols of the same names."""
    syms = sympy.symbols(ring.names)

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
            *syms,
            domain="QQ",
        ).as_expr()

    def from_sympy(expr):
        p = sympy.Poly(expr, *syms, domain="QQ")
        return Polynomial(ring, {e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()})

    return to_sympy, from_sympy


def _random_factor(rng, ring):
    """Nonconstant polynomial with 1-3 terms, exponents 0..1, coefficients
    in -3..3 and a random constant term."""
    while True:
        p = ring.constant(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 1) for _ in ring.names)
            p = p + ring.monomial(exps, Fraction(rng.randint(-3, 3)))
        if not p.is_constant():
            return p


def test_gcd_lcm_match_sympy():
    """gcd_poly and lcm_poly, public library beside the cone route,
    against sympy.gcd and sympy.lcm on pairs sharing a random factor."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4040)
    for ring in (R2, R3):
        to_sympy, from_sympy = _sympy_bridge(sympy, ring)
        for _ in range(20):
            common = _random_factor(rng, ring) ** rng.randint(0, 2)
            f = common * _random_factor(rng, ring)
            g = common * _random_factor(rng, ring) ** rng.randint(1, 2)
            sf, sg = to_sympy(f), to_sympy(g)
            assert gcd_poly(f, g) == from_sympy(sympy.gcd(sf, sg)).monic(), (f, g)
            assert lcm_poly(f, g) == from_sympy(sympy.lcm(sf, sg)).monic(), (f, g)


def _check_multiplicity_one_against_sqf(sympy, ring, f):
    """The verdict and certificate of has_multiplicity_one_factor against
    sympy's square-free decomposition: the certificate is the monic
    product of the multiplicity-1 factors, and the verdict is that it is
    not 1."""
    to_sympy, from_sympy = _sympy_bridge(sympy, ring)
    verdict, cert = has_multiplicity_one_factor(f)
    _, factors = sympy.sqf_list(to_sympy(f), *sympy.symbols(ring.names))
    expected = ring.one()
    for factor, multiplicity in factors:
        if multiplicity == 1:
            expected = expected * from_sympy(factor)
    assert cert == expected.monic(), f
    assert verdict is not expected.is_constant(), f


def _random_products(rng, ring, factor, count):
    """`count` nonconstant products of `factor(rng, ring)` to the powers
    1, 2 and 3, each present or not, times a constant."""
    out = []
    while len(out) < count:
        f = ring.constant(rng.choice((-2, 1, 3)))
        for power in (1, 2, 3):
            for _ in range(rng.randint(0, 1)):
                f = f * factor(rng, ring) ** power
        if not f.is_constant():
            out.append(f)
    return out


def test_multiplicity_one_matches_sympy_sqf():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5050)
    for ring in (R2, R3):
        for f in _random_products(rng, ring, _random_factor, 20):
            _check_multiplicity_one_against_sqf(sympy, ring, f)


def _random_form(rng, ring):
    """Nonzero form of degree 1 or 2 with 1-3 terms and coefficients in
    -3..3."""
    degree = rng.randint(1, 2)
    monomials = [e for e in product(range(degree + 1), repeat=ring.ngens) if sum(e) == degree]
    while True:
        p = ring.zero()
        for _ in range(rng.randint(1, 3)):
            p = p + ring.monomial(rng.choice(monomials), Fraction(rng.randint(-3, 3)))
        if not p.is_zero():
            return p


def test_multiplicity_one_on_forms_matches_sympy_sqf():
    """Products of forms, the tangent cones the cone route sees, and the
    same products shifted off the origin, which are no longer forms:
    both against sympy's square-free factorization."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6060)
    for ring in (R2, R3):
        for f in _random_products(rng, ring, _random_form, 20):
            assert f.degree() == f.min_degree()
            _check_multiplicity_one_against_sqf(sympy, ring, f)
            shifted = f.translate(tuple(rng.randint(-1, 1) for _ in ring.names))
            _check_multiplicity_one_against_sqf(sympy, ring, shifted)


# (record, fields in order, defaults) for every record the package exports
RECORDS = [
    ("Budget", "max_pairs max_degree", {"max_pairs": 200_000, "max_degree": 64}),
    ("DimensionResult", "dimension independent_set", {}),
    ("JetIdeal", "jet_ring ideal", {}),
    ("ContactClause", "ideal relation order", {}),
    ("LambdaRow", "m value cells converged note", {"note": ""}),
    (
        "LambdaReport",
        "point n m_max e_max rows stabilized mld_hat singular_dim notes budget_hit",
        {},
    ),
    ("TangentCone", "point ideal principal generator", {}),
    (
        "InvariantReport",
        "point n cone cone_status cone_verdict cone_certificate lambda_report "
        "lambda_verdict verdict agreement notes",
        {},
    ),
    ("ThresholdRow", "m codim ratio cells note", {"note": ""}),
    ("BoundTable", "M rows bound argmin exact notes", {}),
    ("MldRow", "indices codim value note", {"note": ""}),
    ("BlowupResult", "vanishing_order k_exceptional log_discrepancy", {}),
]


@pytest.mark.parametrize("name, fields, defaults", RECORDS, ids=[r[0] for r in RECORDS])
def test_exported_record_shape(name, fields, defaults):
    """Each record builds by keyword, fills its defaults, compares by value,
    shows its fields in order in its repr, and cannot be assigned to."""
    cls = getattr(jetspace, name)
    assert name in jetspace.__all__
    fields = fields.split()
    if name == "ContactClause":
        values = {"ideal": ideal(R2, "x"), "relation": ">=", "order": 1}
    else:
        values = {f: f"<{f}>" for f in fields if f not in defaults}
    record = cls(**values)
    expected = {**defaults, **values}
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={expected[f]!r}" for f in fields) + ")"
    assert record == cls(**values)
    for f in fields:
        assert getattr(record, f) == expected[f]
        with pytest.raises(AttributeError):
            setattr(record, f, None)
        if f not in defaults:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in values.items() if k != f})
    if name == "ContactClause":
        with pytest.raises(PreconditionError, match="unknown contact relation"):
            cls(ideal(R2, "x"), ">", 1)
        with pytest.raises(PreconditionError, match="non-negative"):
            cls(ideal(R2, "x"), ">=", -1)
        with pytest.raises(PreconditionError, match="nonzero ideal"):
            cls(Ideal(R2, ()), ">=", 1)
