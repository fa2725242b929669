"""Jet rings, truncated arc expansion, contact loci, and the dimensions
of liftable-jet images.

A level-m jet ring adjoins variables name__j for every base variable and
every level 0 <= j <= m, in level-major order: all level-0 variables
first, then level 1, and so on.  That makes the level-p subring a prefix
of the level-m ring, so truncating a jet is literally dropping trailing
variables, and the closure of a truncation image is an elimination ideal
over the trailing block.

Budget discipline: all Groebner work is routed through the budget handed
in by the caller; this module adds no caps of its own.  The jet-ring and
arc-expansion caches are bounded LRU caches, sized far above the working
set of any single command.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import AgreementError, BudgetExhausted, PreconditionError, RingMismatchError
from .groebner import Ideal
from .poly import Polynomial, Ring, fresh_name, map_variables


class JetRing:
    """Coordinates of the space of m-jets of the affine space of `base`."""

    def __init__(self, base, level):
        if level < 0:
            raise PreconditionError("jet level must be non-negative")
        self.base = base
        self.level = level
        names = []
        for j in range(level + 1):
            for name in base.names:
                names.append(f"{name}__{j}")
        self.ring = Ring(tuple(names))

    def index(self, i, j):
        """Flat index of base variable i at level j."""
        if not (0 <= i < self.base.ngens and 0 <= j <= self.level):
            raise PreconditionError(f"jet variable ({i}, {j}) out of range")
        return j * self.base.ngens + i

    def var(self, i, j):
        return self.ring.var(self.index(i, j))

    def level_indices(self, j):
        n = self.base.ngens
        return list(range(j * n, (j + 1) * n))

    def __repr__(self):
        return f"JetRing({self.base!r}, level={self.level})"


# entries per cache; the heaviest known command touches a few dozen keys
_CACHE_SIZE = 1024


@lru_cache(maxsize=_CACHE_SIZE)
def get_jet_ring(base, level):
    return JetRing(base, level)


def _series_mul(a, b, m, zero):
    out = [zero] * (m + 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j in range(m + 1 - i):
            bj = b[j]
            if not bj.is_zero():
                out[i + j] = out[i + j] + ai * bj
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def t_expand(p, m):
    """Coefficients of t^0..t^m of p evaluated on a truncated arc.

    Substitutes each base variable x_i by sum_j x_i__j t^j and truncates
    past t^m.  Returns a tuple of m + 1 polynomials in the level-m jet
    ring of p's ring.
    """
    if m < 0:
        raise PreconditionError("truncation level must be non-negative")
    jr = get_jet_ring(p.ring, m)
    big = jr.ring
    zero = big.zero()
    one_series = [big.one()] + [zero] * m
    var_series = [
        [jr.var(i, j) for j in range(m + 1)] for i in range(p.ring.ngens)
    ]
    power_cache = {}

    def power(i, k):
        if k == 0:
            return one_series
        got = power_cache.get((i, k))
        if got is None:
            got = _series_mul(power(i, k - 1), var_series[i], m, zero)
            power_cache[(i, k)] = got
        return got

    total = [zero] * (m + 1)
    for exps, coeff in sorted(p.terms.items()):
        series = one_series
        for i, e in enumerate(exps):
            if e:
                series = _series_mul(series, power(i, e), m, zero)
        for k in range(m + 1):
            if not series[k].is_zero():
                total[k] = total[k] + series[k] * coeff
    return tuple(total)


def pad_to_jet_ring(poly, jet_ring):
    """Reinterpret a lower-level jet polynomial in a higher-level ring.

    Valid because lower levels are a prefix of higher ones.
    """
    big = jet_ring.ring
    if poly.ring == big:
        return poly
    width = big.ngens
    if poly.ring.names != big.names[: poly.ring.ngens]:
        raise RingMismatchError("polynomial ring is not a prefix of the jet ring")
    pad = width - poly.ring.ngens
    return Polynomial(big, {e + (0,) * pad: c for e, c in poly.terms.items()})


@dataclass(frozen=True)
class JetIdeal:
    """An ideal living in a jet ring, with a note on how it was built."""

    jet_ring: JetRing
    ideal: Ideal
    provenance: str


def jet_ideal(I, m):
    """Equations of the m-jet scheme of V(I)."""
    jr = get_jet_ring(I.ring, m)
    gens = []
    for g in I.gens:
        gens.extend(t_expand(g, m))
    return JetIdeal(jr, Ideal(jr.ring, tuple(gens)), f"jet scheme, level {m}")


@dataclass(frozen=True)
class ContactClause:
    """One contact condition: ord along the arc of every element of
    `ideal`, compared with `order` via `relation` (">=" or "==")."""

    ideal: Ideal
    relation: str
    order: int

    def __post_init__(self):
        if self.relation not in (">=", "=="):
            raise PreconditionError(f"unknown contact relation {self.relation!r}")
        if self.order < 0:
            raise PreconditionError("contact order must be non-negative")
        if not self.ideal.gens:
            raise PreconditionError("contact clause needs a nonzero ideal")


def contact_ideal(clauses, m, point=None):
    """Realize contact clauses at jet level m.

    Returns (closed, excluded): `closed` is a JetIdeal cutting out the
    conjunction of the closed conditions; `excluded` lists the level-e
    coefficient polynomials of the single allowed "==" clause, whose
    common zero locus must be removed to pass from ord >= e to ord == e.
    When `point` is given all clause ideals are first translated so the
    point sits at the origin, and the level-0 variables are pinned to 0.
    """
    if not clauses:
        raise PreconditionError("empty contact clause list")
    base = clauses[0].ideal.ring
    eq_seen = False
    for clause in clauses:
        if clause.ideal.ring != base:
            raise RingMismatchError("contact clauses live in different rings")
        if clause.relation == ">=" and clause.order > m + 1:
            raise PreconditionError(
                f"contact order >= {clause.order} is unrealizable at jet level {m}"
            )
        if clause.relation == "==":
            if clause.order > m:
                raise PreconditionError(
                    f"contact order == {clause.order} is unrealizable at jet level {m}"
                )
            if eq_seen:
                raise PreconditionError("at most one exact-contact clause is supported")
            eq_seen = True
    if point is not None and len(point) != base.ngens:
        raise PreconditionError("point arity does not match ring")

    jr = get_jet_ring(base, m)
    closed = []
    excluded = []
    for clause in clauses:
        ideal_here = clause.ideal.translate(point) if point is not None else clause.ideal
        for gen in ideal_here.gens:
            coeffs = t_expand(gen, m)
            closed.extend(coeffs[: clause.order])
            if clause.relation == "==":
                excluded.append(coeffs[clause.order])
    if point is not None:
        level0 = jr.level_indices(0)
        closed = [g.set_vars_zero(level0) for g in closed]
        excluded = [g.set_vars_zero(level0) for g in excluded]
        closed.extend(jr.ring.var(i) for i in level0)
    label = " and ".join(
        f"ord {c.relation} {c.order}" for c in clauses
    ) + (" through the point" if point is not None else "")
    return JetIdeal(jr, Ideal(jr.ring, tuple(closed)), label), excluded


def jacobian_ideal(I, c):
    """Ideal of all c x c minors of the Jacobian matrix of the generators."""
    k = len(I.gens)
    n = I.ring.ngens
    if c < 1 or c > k or c > n:
        raise PreconditionError(f"cannot take {c} x {c} minors of a {k} x {n} Jacobian")
    rows = [
        [g.partial_derivative(i) for i in range(n)] for g in I.gens
    ]

    def det(r_idx, c_idx):
        if len(r_idx) == 1:
            return rows[r_idx[0]][c_idx[0]]
        total = I.ring.zero()
        r0 = r_idx[0]
        rest = r_idx[1:]
        for pos, cc in enumerate(c_idx):
            entry = rows[r0][cc]
            if entry.is_zero():
                continue
            sub = det(rest, c_idx[:pos] + c_idx[pos + 1 :])
            term = entry * sub
            total = total + (term if pos % 2 == 0 else -term)
        return total

    minors = []
    for r_idx in combinations(range(k), c):
        for c_idx in combinations(range(n), c):
            minors.append(det(tuple(r_idx), tuple(c_idx)))
    return Ideal(I.ring, tuple(minors))


def image_dimension(closed, jet_ring, image_level, saturator=None, budget=None):
    """Dimension of the closure of the image, in the level-`image_level`
    jet space, of V(closed) minus V(saturator).

    `closed` is an Ideal in jet_ring.ring.  Returns -1 when empty.
    """
    if not 0 <= image_level <= jet_ring.level:
        raise PreconditionError("image level outside the jet ring's range")
    if saturator is not None:
        if saturator.is_zero():
            return -1  # nothing lies outside V(0)
        if saturator.is_constant():
            saturator = None
    n = jet_ring.base.ngens
    prefix = n * (image_level + 1)
    trailing = jet_ring.ring.ngens - prefix
    if saturator is None and trailing == 0:
        return closed.krull_dimension(budget).dimension

    names = jet_ring.ring.names
    w = fresh_name("w", names)
    perm = Ring((w,) + names[prefix:] + names[:prefix])
    index_map = {}
    for i in range(prefix):
        index_map[i] = 1 + trailing + i
    for i in range(prefix, prefix + trailing):
        index_map[i] = 1 + (i - prefix)
    gens = [map_variables(g, perm, index_map) for g in closed.gens]
    if saturator is not None:
        gens.append(perm.one() - perm.var(0) * map_variables(saturator, perm, index_map))
    shadow = Ideal(perm, tuple(gens)).eliminate(1 + trailing, budget)
    return shadow.krull_dimension(budget).dimension


def check_point_on(I, point):
    """Raise PreconditionError unless every generator of I vanishes at `point`."""
    if any(g.evaluate(point) != 0 for g in I.gens):
        raise PreconditionError("point does not lie on the variety")


def contact_cell_dim(X, jac, e, level, image_level, extra=(), point=None, budget=None):
    """Dimension of the level-`image_level` image of one Jacobian-contact
    cell of X.

    The cell is the locus, at jet level `level`, of jets that lift to
    level + 1 on X, meet the Jacobian ideal `jac` with contact exactly e,
    and satisfy the `extra` contact clauses (through `point` when given).
    Deeper-than-e Jacobian contact is removed by saturation, one excluded
    coefficient at a time, and the image is truncated by elimination.
    Returns -1 when the cell is empty.
    """
    clauses = [ContactClause(X, ">=", level + 1), ContactClause(jac, "==", e), *extra]
    closed, excluded = contact_ideal(clauses, level, point=point)
    best = -1
    for g in excluded:
        if not g.is_zero():
            d = image_dimension(
                closed.ideal, closed.jet_ring, image_level, saturator=g, budget=budget
            )
            best = max(best, d)
    return best


def liftable_image_dim(I, point, m, e, jacobian=None, budget=None, extra_levels=0):
    """Dimension of the level-m image of jets through `point` that lift
    far enough and meet the Jacobian ideal with contact exactly e.

    Builds the cell at working level max(m, e) + e (+ extra_levels, for
    stability testing) and measures its level-m image; see
    contact_cell_dim.  Returns -1 when the locus is empty.
    """
    if m < 1:
        raise PreconditionError("jet level m must be at least 1")
    if e < 0:
        raise PreconditionError("contact order e must be non-negative")
    check_point_on(I, point)
    jac = jacobian if jacobian is not None else jacobian_ideal(I, len(I.gens))
    level = max(m, e) + e + extra_levels
    return contact_cell_dim(I, jac, e, level, m, point=point, budget=budget)


@dataclass(frozen=True)
class LambdaRow:
    """One jet level of a lambda report."""

    m: int
    value: object  # int, or None when no cell was nonempty
    cells: tuple  # ((e, dim), ...) for the contact orders actually used
    converged: bool
    note: str = ""


@dataclass(frozen=True)
class LambdaReport:
    point: tuple
    n: int
    m_max: int
    e_max: int
    rows: tuple
    stabilized: object  # the stable lambda value, or None
    mld_hat: object  # n + lambda when stabilized, else None
    singular_dim: int
    notes: tuple
    budget_hit: bool


def lambda_sequence(I, point, m_max, e_max=3, budget=None, jobs=1):
    """Defect rows lambda_m^0 = m*n - dim(liftable image) for m = 1..m_max.

    Each row scans Jacobian-contact cells e = 0..e_max, stops early when a
    cell reaches the ceiling m*n, and otherwise probes e_max + 1 to decide
    convergence.  Rows run serially in level order; `jobs` is accepted for
    compatibility and does not change the work or the result.
    """
    if m_max < 1:
        raise PreconditionError("m_max must be at least 1")
    if e_max < 0:
        raise PreconditionError("e_max must be non-negative")
    point = tuple(point)
    check_point_on(I, point)
    n = I.krull_dimension(budget).dimension
    if n < 1:
        raise PreconditionError(f"variety dimension is {n}; need a positive-dimensional variety")
    jac = jacobian_ideal(I, len(I.gens))
    singular_dim = (I + jac).krull_dimension(budget).dimension

    def cell(m, e):
        d = liftable_image_dim(I, point, m, e, jacobian=jac, budget=budget)
        if d > m * n:
            raise AgreementError(
                f"cell (m={m}, e={e}) has dimension {d} > {m * n}; this contradicts "
                "the fiber-dimension bound and signals a bug"
            )
        return d

    def row(m):
        target = m * n
        cells = []
        best = -1
        converged = False
        note = ""
        try:
            stopped_early = False
            for e in range(e_max + 1):
                d = cell(m, e)
                cells.append((e, d))
                if d > best:
                    best = d
                if best == target:
                    converged = True
                    stopped_early = True
                    break
            if not stopped_early:
                probe = cell(m, e_max + 1)
                cells.append((e_max + 1, probe))
                if probe > best:
                    best = probe
                    converged = False
                    note = "probe cell improved the maximum; raise e_max"
                else:
                    converged = best > -1
                    if best == -1:
                        note = "no liftable jets found at any probed contact order"
        except BudgetExhausted as exc:
            return LambdaRow(
                m,
                target - best if best >= 0 else None,
                tuple(cells),
                False,
                f"budget exhausted: {exc}",
            )
        value = target - best if best >= 0 else None
        return LambdaRow(m, value, tuple(cells), converged, note)

    rows = tuple(row(m) for m in range(1, m_max + 1))

    budget_hit = any(r.note.startswith("budget exhausted") for r in rows)
    stabilized = None
    mld_hat = None
    if m_max >= 2:
        last, prev = rows[-1], rows[-2]
        if (
            last.converged
            and prev.converged
            and last.value is not None
            and last.value == prev.value
        ):
            stabilized = last.value
            mld_hat = n + stabilized
    notes = []
    if singular_dim <= 0:
        notes.append(
            "singular locus is empty or zero-dimensional: the liftable rows "
            "equal the full defect (isolated-singularity identification)"
        )
    else:
        notes.append(
            f"singular locus has dimension {singular_dim}: rows bound the full "
            "defect from above but may miss arc families inside the singular locus"
        )
    return LambdaReport(
        point=point,
        n=n,
        m_max=m_max,
        e_max=e_max,
        rows=rows,
        stabilized=stabilized,
        mld_hat=mld_hat,
        singular_dim=singular_dim,
        notes=tuple(notes),
        budget_hit=budget_hit,
    )
