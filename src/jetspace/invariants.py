"""Tangent cones, the reduced-component test, and jet-theoretic bounds
for log-canonical-threshold and minimal-log-discrepancy style invariants,
each table one jets.CellTable and each row or cell one of its cells.

The headline decision procedure, check_mld_hat_equals_n, answers whether
the Mather-style minimal log discrepancy at a point equals the variety's
dimension.  It runs two independent routes:

  * a tangent-cone route: the answer is yes exactly when the tangent
    cone at the point has an irreducible component of multiplicity one
    (decidable without factoring when the cone is principal, by one
    saturation of the cone's generator by its partial derivatives);
  * a jet route: the answer is yes exactly when the liftable 1-jets
    through the point already sweep out the maximal possible dimension.

The cone route is only a valid criterion when the variety has dimension
at least two; for curves the jet route is authoritative and the two can
genuinely differ (two smooth branches meeting tangentially have a
non-reduced cone but maximal jet dimension).
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product

from .errors import AgreementError, PreconditionError, RingMismatchError
from .groebner import Ideal, reduced_groebner
from .jets import (
    CellTable,
    ContactClause,
    _lambda_rows,
    _pure_jacobian,
    check_point_on,
    contact_cell_walk,
    jacobian_of,
)
from .orders import GREVLEX, Weight
from .poly import Polynomial, Ring, fresh_name


# The cone of initial forms of an ideal at a (translated) point.
# point: tuple of coordinates, or None for the origin
# ideal: generated by initial forms, canonically presented
# generator: the single reduced generator when principal, else None
TangentCone = namedtuple("TangentCone", "point ideal principal generator")


def tangent_cone(I, point=None, budget=None):
    """Ideal of initial forms of I at `point` (default: the origin).

    Single-generator ideals take the direct route.  Otherwise the
    generators are homogenized with a fresh variable placed first, a
    Groebner basis is computed under a total-degree order that prefers
    higher homogenizer powers (so leading terms track lowest x-degree
    parts), and the dehomogenized initial forms of the basis generate
    the cone.
    """
    here = I.translate(point) if point is not None else I
    base = here.ring
    gens = here.gens
    if not gens:
        return TangentCone(point, Ideal(base, ()), False, None)
    if len(gens) == 1:
        forms = [gens[0].initial_form()]
    else:
        h = fresh_name("h", base.names)
        hring = Ring((h,) + base.names)
        homogenized = []
        for g in gens:
            d = g.degree()
            terms = {}
            for exps, coeff in g.terms.items():
                terms[(d - sum(exps),) + exps] = coeff
            homogenized.append(Polynomial(hring, terms))
        order = Weight(
            (1,) * hring.ngens,
            Weight((1,) + (0,) * base.ngens, GREVLEX),
        )
        gb = reduced_groebner(tuple(homogenized), order, budget)
        forms = []
        for g in gb:
            dehom = Polynomial(base, {exps[1:]: c for exps, c in g.terms.items()})
            forms.append(dehom.initial_form())
    cone_gb = reduced_groebner(tuple(forms), GREVLEX, budget)
    cone = Ideal(base, cone_gb)
    cone._gb_cache[GREVLEX.tag()] = cone_gb  # its own reduced basis, as in eliminate
    if len(cone_gb) == 1:
        return TangentCone(point, cone, True, cone_gb[0])
    return TangentCone(point, cone, False, None)


def has_multiplicity_one_factor(f, budget=None):
    """Whether a polynomial has an irreducible factor of multiplicity one.

    Returns (verdict, certificate): the certificate is the monic product
    of the multiplicity-one irreducible factors (1 when there are none),
    found without factoring as (f) : (df/dx_1, ..., df/dx_N)^inf.  Proof,
    in characteristic zero: for f = prod p_i^e_i, (f) is the intersection
    of the primary ideals (p_i^e_i), and the saturation keeps those whose
    prime (p_i) misses a partial.  If e_i >= 2, p_i divides every partial.
    If e_i = 1, df/dx_j = (dp_i/dx_j) * f/p_i mod p_i, and p_i divides
    neither factor for an x_j that occurs in p_i.  The certificate is read
    off the reduced basis: with a constant partial the saturation is (f)
    itself, not made monic.
    """
    if f.is_zero() or f.is_constant():
        raise PreconditionError("multiplicity-one test needs a nonconstant polynomial")
    partials = [f.partial_derivative(i) for i in range(f.ring.ngens)]
    saturated = Ideal(f.ring, (f,)).saturate(partials, budget)
    (certificate,) = saturated.groebner_basis(GREVLEX, budget)
    return (not certificate.is_constant(), certificate)


# Outcome of the two-route maximal-discrepancy test at a point.
# cone_status: "decided" or "undecided-nonprincipal"
# cone_verdict: bool, or None when the cone route is undecided
# lambda_report: the LambdaReport of the jet row m=1, with singular_dim
#   None and no notes: only lambda_sequence computes the singular locus
# lambda_verdict: bool, or None when the jet row did not converge
# verdict: bool, or None when the routes leave the question open
# agreement: bool when both routes answered, else None
InvariantReport = namedtuple(
    "InvariantReport",
    "point n cone cone_status cone_verdict cone_certificate lambda_report "
    "lambda_verdict verdict agreement notes",
)


def check_mld_hat_equals_n(I, point, e_max=3, budget=None):
    """Decide whether the maximal Mather log discrepancy at `point`
    equals the dimension of V(I).

    Runs the tangent-cone test and the jet test.  For n >= 2 a
    disagreement between the two routes is an internal error and raises
    AgreementError.  For curves the cone test is not a valid criterion,
    so the verdict is the jet route's, None when its row did not
    converge, and a note records any divergence.  The jet route is
    lambda_sequence's row m=1 without the singular-locus dimension, which
    no verdict reads: lambda_report.singular_dim is None and its notes
    are empty.
    """
    if I.is_zero_ideal():
        raise PreconditionError("the mld-hat check needs a nonzero ideal, not the zero ideal")
    point = tuple(point)
    check_point_on(I, point)
    n = I.krull_dimension(budget).dimension
    if n < 1:
        raise PreconditionError(f"variety dimension is {n}; need a positive-dimensional variety")
    if e_max < 0:
        raise PreconditionError("e_max must be non-negative")

    notes = []
    cone = tangent_cone(I, point, budget)
    if cone.principal and not cone.generator.is_constant():
        verdict, certificate = has_multiplicity_one_factor(cone.generator, budget)
        cone_status = "decided"
        cone_verdict = verdict
        cone_certificate = certificate
    else:
        cone_status = "undecided-nonprincipal"
        cone_verdict = None
        cone_certificate = None
        notes.append(
            "tangent cone is not principal: the reduced-component test "
            "would need factorization, deferring to the jet route"
        )

    jac = _pure_jacobian(I, point, n, cone, budget)
    lambda_report = _lambda_rows(I, point, n, jac, 1, e_max, budget)
    row = lambda_report.rows[0]
    lambda_verdict = None
    if row.converged and row.value is not None:
        lambda_verdict = row.value == 0
    else:
        notes.append("jet route did not converge; its verdict is unavailable")

    agreement = None
    if cone_verdict is not None and lambda_verdict is not None:
        agreement = cone_verdict == lambda_verdict
        if not agreement:
            if n >= 2:
                raise AgreementError(
                    f"tangent-cone route says {cone_verdict} but jet route says "
                    f"{lambda_verdict} for an {n}-dimensional variety; the two "
                    "criteria must agree in dimension >= 2"
                )
            notes.append(
                "routes disagree: the reduced-component criterion is only valid "
                "in dimension >= 2, so for this curve the jet verdict is reported"
            )

    if n == 1:
        verdict = lambda_verdict
    else:
        verdict = cone_verdict if cone_verdict is not None else lambda_verdict
    return InvariantReport(
        point=point,
        n=n,
        cone=cone,
        cone_status=cone_status,
        cone_verdict=cone_verdict,
        cone_certificate=cone_certificate,
        lambda_report=lambda_report,
        lambda_verdict=lambda_verdict,
        verdict=verdict,
        agreement=agreement,
        notes=tuple(notes),
    )


# codim: int, or None for a skipped (empty) row
# ratio: Fraction codim/m, or None
# cells: ((e, codim_e), ...) on a singular ambient; () on smooth
ThresholdRow = namedtuple("ThresholdRow", "m codim ratio cells note", defaults=("",))


# The rows of an lct or mld bound window and the bound they give.
# rows: ThresholdRow or MldRow
# bound: Fraction, or None when every row was skipped
# argmin: first m (lct) or index tuple (mld) attaining the bound
# exact: True when the minimizer is interior to a smooth-ambient window
BoundTable = namedtuple("BoundTable", "M rows bound argmin exact notes")


def _bound_table(M, rows, entry, interior):
    """The BoundTable of a window's rows.

    `entry(row)` gives the row's (key, score), with score None for a
    skipped row.  The bound is the least score and argmin the key of the
    first row attaining it; `exact` is interior(argmin).  Each skipped
    row leaves the note "row m=<key> skipped: <its note>".
    """
    bound = None
    argmin = None
    notes = []
    for r in rows:
        key, score = entry(r)
        if score is None:
            notes.append(f"row m={key} skipped: {r.note}")
        elif bound is None or score < bound:
            bound = score
            argmin = key
    exact = bound is not None and interior(argmin)
    return BoundTable(M, tuple(rows), bound, argmin, exact, tuple(notes))


def lct_hat_bound(a, M, on=None, e_max=3, budget=None):
    """Upper-bound table for the (Mather) log canonical threshold of `a`.

    Smooth ambient (on=None): row m compares the codimension of the
    locus "ord(a) >= m" at jet level m - 1 against m; the threshold is
    the infimum of the ratios and the table minimum bounds it from
    above, exactly when the minimum occurs before the window's edge.
    That locus is the jet scheme J_{m-1}(V(a)) (Mustata, "Singularities
    of pairs via jet schemes", JAMS 15, 2002).

    Each row measures only the jets over V(a, jac), where jac is the
    Jacobian ideal of V = V(a) (jets.jacobian_of).  With n = dim V, N
    variables and c = N - n, row m has dimension max(m*n, dim S_m), where
    S_m is the cell [a >= m, jac >= 1] at level m - 1, and the whole jet
    scheme is never computed:
      * At least m*n: an n-dimensional component Z of V, with its reduced
        structure, is a closed subscheme of V(a) and generically smooth,
        so J_{m-1}(V(a)) contains J_{m-1}(Z), of dimension m*n.
      * At most m*n over U = V minus V(jac): at a point p of U some
        c x c minor is nonzero, so c of the generators cut out a smooth
        n-dimensional germ W containing V(a) near p.  The (m-1)-jets of
        V(a) over U lie in W's A^((m-1)n)-bundle (Mustata, "Jet schemes
        of locally complete intersection canonical singularities",
        Invent. Math. 145, 2001).
      * ord(jac) >= 1 reads level 0 only, so S_m is exactly the rest of
        the jet scheme.
      * jac is never the zero ideal: every nonempty fiber of the
        generators' map A^N -> A^k has dimension at least N minus its
        generic rank, so that rank is at least c.
    For a hypersurface, n = N - 1 and jac is the ideal of its partials.

    Singular ambient (on=X): the same contact condition is intersected
    with the liftable locus of X, split into Jacobian-contact cells, and
    codimension is measured against the expected jet dimension of X.
    Cell (m, e) sits at working level max(m - 1, e) + e and is measured
    at level max(m - 1, e).  Empty cells are left out of `cells`, and
    are not computed again in later rows (see contact_cell_walk).  The
    scan stops at e_max, so such a table is never exact.  A row whose
    cells are all empty is skipped; its note says the liftable contact
    lies beyond e_max unless the closed tail [X >= L+1, jac >= e_max+1,
    a >= m] at level L = max(m - 1, e_max), into which every later cell
    truncates, is empty too.
    """
    if M < 1:
        raise PreconditionError("window M must be at least 1")
    if a.is_zero_ideal():
        raise PreconditionError("threshold of the zero ideal is undefined")
    if on is not None and on.is_zero_ideal():
        raise PreconditionError("the ambient variety needs a nonzero ideal, not the zero ideal")
    if a.is_trivial(budget):
        raise PreconditionError("threshold needs a proper ideal")
    V = a if on is None else on
    if V.ring != a.ring:
        raise RingMismatchError("ideal and ambient variety live in different rings")
    n = V.krull_dimension(budget).dimension
    if on is not None and n < 1:
        raise PreconditionError(f"ambient variety dimension is {n}")
    jac = jacobian_of(V, budget)
    rows = []
    if on is None:
        N = a.ring.ngens
        smooth = ContactClause(jac, ">=", 1)
        table = CellTable(None, M - 1, ((a, M - 1), (jac, 0)), budget)
        for m in range(1, M + 1):
            cell = (ContactClause(a, ">=", m), smooth)
            codim = N * m - max(m * n, table.cell(cell, m - 1, m - 1))
            rows.append(ThresholdRow(m, codim, Fraction(codim, m), ()))
    else:
        # the cell (M, e_max) is the deepest; the tails read less
        deepest = max(M - 1, e_max) + e_max
        table = CellTable(None, deepest, ((V, deepest), (jac, e_max), (a, M - 1)), budget)

        def cell(m, e):
            s = max(m - 1, e)
            clauses = (ContactClause(V, ">=", s + e + 1), ContactClause(jac, "==", e),
                       ContactClause(a, ">=", m))
            return table.cell(clauses, s + e, s)

        walk = contact_cell_walk(cell)
        for m in range(1, M + 1):
            cells = tuple(
                (e, n * (max(m - 1, e) + 1) - d)
                for e, d in walk(m, range(e_max + 1))
                if d >= 0
            )
            if not cells:
                # every cell e > e_max truncates into the closed tail at level L
                L = max(m - 1, e_max)
                tail = (ContactClause(V, ">=", L + 1), ContactClause(jac, ">=", e_max + 1),
                        ContactClause(a, ">=", m))
                if table.cell(tail, L, L) >= 0:
                    note = f"liftable contact lies beyond e_max={e_max}"
                else:
                    note = "no liftable contact found"
                rows.append(ThresholdRow(m, None, None, (), note))
                continue
            best = min(codim for _, codim in cells)
            rows.append(ThresholdRow(m, best, Fraction(best, m), cells))
    return _bound_table(M, rows, lambda r: (r.m, r.ratio), lambda m: on is None and m < M)


# indices: one contact order per weighted ideal
# codim: int, or None for a skipped row
# value: Fraction codim - sum(m_i e_i), or None
MldRow = namedtuple("MldRow", "indices codim value note", defaults=("",))


def mld_hat_bound(ring, clauses, center, M, budget=None):
    """Upper-bound table for the minimal log discrepancy of a weighted
    combination of ideals along a center, on a smooth ambient space.

    `clauses` is a sequence of (ideal, weight) pairs with positive
    Fraction weights; `center` is the ideal of the locus the discrepancy
    is measured over.  Each row fixes contact orders (m_1..m_r) up to M
    for the weighted ideals, realizes "ord(a_i) >= m_i for all i, arc
    centered in V(center)" at the smallest sufficient jet level, and
    scores codim - sum m_i e_i.  The row minimum bounds the discrepancy
    from above; it is exact when the minimizer is interior.
    """
    if M < 0:
        raise PreconditionError("window M must be non-negative")
    if not center.gens:
        raise PreconditionError("center ideal needs generators")
    if center.ring != ring:
        raise RingMismatchError("center lives in a different ring")
    weighted = []
    for ideal_i, weight in clauses:
        if ideal_i.ring != ring:
            raise RingMismatchError("weighted ideal lives in a different ring")
        w = Fraction(weight)
        if w <= 0:
            raise PreconditionError("weights must be positive")
        weighted.append((ideal_i, w))
    N = ring.ngens
    # row (M, ..., M) is the deepest, at level M - 1
    deepest = max(M - 1, 0)
    reads = [(center, 0)] + [(ideal_i, M - 1) for ideal_i, _ in weighted]
    table = CellTable(None, deepest, reads, budget)
    rows = []
    for indices in product(range(M + 1), repeat=len(weighted)):
        p = max([m - 1 for m in indices if m >= 1], default=0)
        contact = [ContactClause(center, ">=", 1)]
        for (ideal_i, _), m in zip(weighted, indices):
            if m >= 1:
                contact.append(ContactClause(ideal_i, ">=", m))
        dim = table.cell(contact, p, p)
        if dim < 0:
            rows.append(MldRow(indices, None, None, "empty contact locus"))
            continue
        codim = N * (p + 1) - dim
        value = Fraction(codim) - sum(m * w for (_, w), m in zip(weighted, indices))
        rows.append(MldRow(indices, codim, value))
    return _bound_table(
        M, rows, lambda r: (r.indices, r.value), lambda argmin: all(m < M for m in argmin)
    )


BlowupResult = namedtuple("BlowupResult", "vanishing_order k_exceptional log_discrepancy")


def ord_blowup_origin(I):
    """Data of the exceptional divisor of the origin blowup: the order
    of vanishing of I along it, the divisor's canonical multiplicity,
    and the resulting log discrepancy k + 1 - ord."""
    if not I.gens:
        raise PreconditionError("vanishing order of the zero ideal is undefined")
    order = min(g.min_degree() for g in I.gens)
    k = I.ring.ngens - 1
    return BlowupResult(order, k, k + 1 - order)


def mld_hat_from_lambda(report):
    """Extract n + lambda from a stabilized lambda report."""
    if report.mld_hat is None:
        raise PreconditionError(
            "lambda rows did not stabilize; compute more levels or raise e_max"
        )
    return report.mld_hat
