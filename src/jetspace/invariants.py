"""Tangent cones, the reduced-component test, and jet-theoretic bounds
for log-canonical-threshold and minimal-log-discrepancy style invariants.

The headline decision procedure, check_mld_hat_equals_n, answers whether
the Mather-style minimal log discrepancy at a point equals the variety's
dimension.  It runs two independent routes:

  * a tangent-cone route: the answer is yes exactly when the tangent
    cone at the point has an irreducible component of multiplicity one
    (decidable without factoring when the cone is principal);
  * a jet route: the answer is yes exactly when the liftable 1-jets
    through the point already sweep out the maximal possible dimension.

The cone route is only a valid criterion when the variety has dimension
at least two; for curves the jet route is authoritative and the two can
genuinely differ (two smooth branches meeting tangentially have a
non-reduced cone but maximal jet dimension).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AgreementError, PreconditionError, RingMismatchError
from .groebner import Ideal, gcd_poly, reduced_groebner
from .jets import (
    ContactClause,
    check_point_on,
    contact_cell_dim,
    contact_ideal,
    jacobian_ideal,
    jet_ideal,
    lambda_sequence,
)
from .orders import GREVLEX, Weight
from .poly import Polynomial, Ring, divide_exact, fresh_name


@dataclass(frozen=True)
class TangentCone:
    """The cone of initial forms of an ideal at a (translated) point."""

    point: object  # tuple of coordinates, or None for the origin
    ideal: Ideal  # generated by initial forms, canonically presented
    principal: bool
    generator: object  # the single reduced generator when principal, else None


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
    gens = [g for g in here.gens if not g.is_zero()]
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
    if len(cone_gb) == 1:
        return TangentCone(point, cone, True, cone_gb[0])
    return TangentCone(point, cone, False, None)


def has_multiplicity_one_factor(f, budget=None):
    """Whether a polynomial has an irreducible factor of multiplicity one.

    Returns (verdict, certificate): the certificate is the product of
    all multiplicity-one irreducible factors (monic, possibly constant
    when there are none).  No factorization is performed; everything is
    gcds against partial derivatives, valid in characteristic zero.
    """
    if f.is_zero() or f.is_constant():
        raise PreconditionError("multiplicity-one test needs a nonconstant polynomial")
    repeated = f
    for i in range(f.ring.ngens):
        d = f.partial_derivative(i)
        if not d.is_zero():
            repeated = gcd_poly(repeated, d, budget)
    radical = divide_exact(f, repeated).monic()
    shared = gcd_poly(radical, repeated, budget)
    certificate = divide_exact(radical, shared).monic()
    return (not certificate.is_constant(), certificate)


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of the two-route maximal-discrepancy test at a point."""

    point: tuple
    n: int
    cone: TangentCone
    cone_status: str  # "decided" or "undecided-nonprincipal"
    cone_verdict: object  # bool, or None when the cone route is undecided
    cone_certificate: object
    lambda_report: object  # LambdaReport, or None when cross-checking is off
    lambda_verdict: object  # bool, or None when unavailable
    verdict: object  # bool, or None if neither route decided
    agreement: object  # bool when both routes answered, else None
    notes: tuple


def check_mld_hat_equals_n(I, point, cross_check=True, e_max=3, budget=None, jobs=1):
    """Decide whether the maximal Mather log discrepancy at `point`
    equals the dimension of V(I).

    Runs the tangent-cone test, and (by default, or whenever the cone is
    not principal) the jet test.  For n >= 2 a disagreement between the
    two routes is an internal error and raises AgreementError.  For
    curves the cone test is not a valid criterion, so the jet route wins
    and a note records any divergence.  `jobs` is accepted for
    compatibility and ignored.
    """
    point = tuple(point)
    check_point_on(I, point)
    n = I.krull_dimension(budget).dimension
    if n < 1:
        raise PreconditionError(f"variety dimension is {n}; need a positive-dimensional variety")

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

    lambda_report = None
    lambda_verdict = None
    if cross_check or cone_verdict is None:
        lambda_report = lambda_sequence(I, point, 1, e_max=e_max, budget=budget)
        row = lambda_report.rows[0]
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
        verdict = lambda_verdict if lambda_verdict is not None else cone_verdict
        if lambda_verdict is None and cone_verdict is not None:
            notes.append(
                "curve verdict rests on the cone test alone, which is only "
                "a proven criterion in dimension >= 2"
            )
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


@dataclass(frozen=True)
class ThresholdRow:
    m: int
    codim: object  # int, or None for a skipped (empty) row
    ratio: object  # Fraction codim/m, or None
    cells: tuple  # ((e, codim_e), ...) on a singular ambient; () on smooth
    note: str = ""


@dataclass(frozen=True)
class ThresholdTable:
    M: int
    rows: tuple
    bound: object  # Fraction, or None when every row was empty
    argmin: object  # first m attaining the bound
    exact: bool  # True when the minimizer is interior to the window
    notes: tuple


def lct_hat_bound(a, M, on=None, e_max=3, budget=None):
    """Upper-bound table for the (Mather) log canonical threshold of `a`.

    Smooth ambient (on=None): row m compares the codimension of the
    locus "ord(a) >= m" at jet level m - 1 against m; the threshold is
    the infimum of the ratios and the table minimum bounds it from
    above, exactly when the minimum occurs before the window's edge.

    Singular ambient (on=X): the same contact condition is intersected
    with the liftable locus of X, split into Jacobian-contact cells, and
    codimension is measured against the expected jet dimension of X.
    """
    if M < 1:
        raise PreconditionError("window M must be at least 1")
    if a.is_zero_ideal():
        raise PreconditionError("threshold of the zero ideal is undefined")
    if a.is_trivial(budget):
        raise PreconditionError("threshold needs a proper ideal")
    rows = []
    notes = []
    if on is None:
        N = a.ring.ngens
        for m in range(1, M + 1):
            J = jet_ideal(a, m - 1)
            dim = J.ideal.krull_dimension(budget).dimension
            if dim < 0:
                rows.append(ThresholdRow(m, None, None, (), "empty contact locus"))
                notes.append(f"row m={m} skipped: empty contact locus")
                continue
            codim = N * m - dim
            rows.append(ThresholdRow(m, codim, Fraction(codim, m), ()))
    else:
        X = on
        if X.ring != a.ring:
            raise RingMismatchError("ideal and ambient variety live in different rings")
        n = X.krull_dimension(budget).dimension
        if n < 1:
            raise PreconditionError(f"ambient variety dimension is {n}")
        jac = jacobian_ideal(X, len(X.gens))
        for m in range(1, M + 1):
            cells = []
            best = None
            contact = (ContactClause(a, ">=", m),)
            for e in range(e_max + 1):
                s = max(m - 1, e)
                dim_e = contact_cell_dim(X, jac, e, s + e, s, extra=contact, budget=budget)
                if dim_e < 0:
                    continue
                codim_e = n * (s + 1) - dim_e
                cells.append((e, codim_e))
                if best is None or codim_e < best:
                    best = codim_e
            if best is None:
                rows.append(ThresholdRow(m, None, None, (), "no liftable contact found"))
                notes.append(f"row m={m} skipped: no liftable contact found")
                continue
            rows.append(ThresholdRow(m, best, Fraction(best, m), tuple(cells)))
    bound = None
    argmin = None
    for r in rows:
        if r.ratio is not None and (bound is None or r.ratio < bound):
            bound = r.ratio
            argmin = r.m
    exact = bound is not None and argmin < M
    return ThresholdTable(M, tuple(rows), bound, argmin, exact, tuple(notes))


@dataclass(frozen=True)
class MldRow:
    indices: tuple  # one contact order per weighted ideal
    codim: object  # int, or None for a skipped row
    value: object  # Fraction codim - sum(m_i e_i), or None
    note: str = ""


@dataclass(frozen=True)
class MldTable:
    M: int
    rows: tuple
    bound: object  # Fraction, or None
    argmin: object  # the index tuple attaining the bound
    exact: bool
    notes: tuple


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
    from itertools import product

    rows = []
    notes = []
    for indices in product(range(M + 1), repeat=len(weighted)):
        p = max([m - 1 for m in indices if m >= 1], default=0)
        contact = [ContactClause(center, ">=", 1)]
        for (ideal_i, _), m in zip(weighted, indices):
            if m >= 1:
                contact.append(ContactClause(ideal_i, ">=", m))
        closed, _ = contact_ideal(contact, p)
        dim = closed.ideal.krull_dimension(budget).dimension
        if dim < 0:
            rows.append(MldRow(indices, None, None, "empty contact locus"))
            notes.append(f"row m={indices} skipped: empty contact locus")
            continue
        codim = N * (p + 1) - dim
        value = Fraction(codim) - sum(m * w for (_, w), m in zip(weighted, indices))
        rows.append(MldRow(indices, codim, value))
    bound = None
    argmin = None
    for r in rows:
        if r.value is not None and (bound is None or r.value < bound):
            bound = r.value
            argmin = r.indices
    exact = bound is not None and all(m < M for m in argmin)
    return MldTable(M, tuple(rows), bound, argmin, exact, tuple(notes))


@dataclass(frozen=True)
class BlowupResult:
    vanishing_order: int
    k_exceptional: int
    log_discrepancy: int


def ord_blowup_origin(I):
    """Data of the exceptional divisor of the origin blowup: the order
    of vanishing of I along it, the divisor's canonical multiplicity,
    and the resulting log discrepancy k + 1 - ord."""
    gens = [g for g in I.gens if not g.is_zero()]
    if not gens:
        raise PreconditionError("vanishing order of the zero ideal is undefined")
    order = min(g.min_degree() for g in gens)
    k = I.ring.ngens - 1
    return BlowupResult(order, k, k + 1 - order)


def mld_hat_from_lambda(report):
    """Extract n + lambda from a stabilized lambda report."""
    if report.mld_hat is None:
        raise PreconditionError(
            "lambda rows did not stabilize; compute more levels or raise e_max"
        )
    return report.mld_hat
