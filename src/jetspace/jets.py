"""Jet rings, truncated arc expansion, contact loci, and the dimensions
of their images: contact_cell_dim, the one measurement under every table.

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

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

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


def _series_mul(a, b, m):
    """Truncated product of two arc series of packed monomials.

    A series is m + 1 dicts {packed monomial: int}, one per power of t;
    multiplying monomials is adding their packed ints.
    """
    out = [{} for _ in range(m + 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(m + 1 - i):
            bj = b[j]
            if not bj:
                continue
            acc = out[i + j]
            for ma, ca in ai.items():
                for mb, cb in bj.items():
                    mm = ma + mb
                    acc[mm] = acc.get(mm, 0) + ca * cb
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def t_expand(p, m):
    """Coefficients of t^0..t^m of p evaluated on a truncated arc.

    Substitutes each base variable x_i by sum_j x_i__j t^j and truncates
    past t^m.  Returns a tuple of m + 1 polynomials in the level-m jet
    ring of p's ring.

    The expansion runs on integers: jet variable (i, j) is the packed
    monomial 1 << width * jr.index(i, j), and p is scaled to integer
    coefficients.  A jet monomial from the term x^e spreads e_i over the
    fields of x_i, so no field exceeds p's largest exponent and `width`
    is that exponent's bit length.
    """
    if m < 0:
        raise PreconditionError("truncation level must be non-negative")
    jr = get_jet_ring(p.ring, m)
    big = jr.ring
    width = max((e for exps in p.terms for e in exps), default=0).bit_length() or 1
    den = lcm(*(c.denominator for c in p.terms.values()))
    one_series = [{0: 1}] + [{} for _ in range(m)]
    var_series = [
        [{1 << width * jr.index(i, j): 1} for j in range(m + 1)]
        for i in range(p.ring.ngens)
    ]
    powers = {}

    def power(i, k):
        if k == 0:
            return one_series
        got = powers.get((i, k))
        if got is None:
            got = _series_mul(power(i, k - 1), var_series[i], m)
            powers[(i, k)] = got
        return got

    total = [{} for _ in range(m + 1)]
    for exps, coeff in p.terms.items():
        scale = coeff.numerator * (den // coeff.denominator)
        series = one_series
        for i, e in enumerate(exps):
            if e:
                series = _series_mul(series, power(i, e), m)
        for acc, part in zip(total, series):
            for mono, c in part.items():
                acc[mono] = acc.get(mono, 0) + scale * c

    nvars = big.ngens
    mask = (1 << width) - 1

    def unpack(mono):
        exps = [0] * nvars
        while mono:
            field = ((mono & -mono).bit_length() - 1) // width
            shift = field * width
            exps[field] = (mono >> shift) & mask
            mono &= ~(mask << shift)
        return tuple(exps)

    return tuple(
        Polynomial(big, {unpack(mono): Fraction(c, den) for mono, c in acc.items()})
        for acc in total
    )


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


# An ideal living in a jet ring.
JetIdeal = namedtuple("JetIdeal", "jet_ring ideal")


def jet_ideal(I, m):
    """Equations of the m-jet scheme of V(I): the closed part of the
    contact condition ord(I) >= m + 1 at jet level m."""
    jr = get_jet_ring(I.ring, m)
    if not I.gens:
        return JetIdeal(jr, Ideal(jr.ring, ()))
    return contact_ideal([ContactClause(I, ">=", m + 1)], m)[0]


class ContactClause(namedtuple("ContactClause", "ideal relation order")):
    """One contact condition: ord along the arc of every element of
    `ideal`, compared with `order` via `relation` (">=" or "==")."""

    __slots__ = ()

    def __new__(cls, ideal, relation, order):
        if relation not in (">=", "=="):
            raise PreconditionError(f"unknown contact relation {relation!r}")
        if order < 0:
            raise PreconditionError("contact order must be non-negative")
        if not ideal.gens:
            raise PreconditionError("contact clause needs a nonzero ideal")
        return super().__new__(cls, ideal, relation, order)


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
    return JetIdeal(jr, Ideal(jr.ring, tuple(closed))), excluded


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


def jacobian_of(X, budget=None):
    """Jacobian ideal of V(X): the c x c minors for c = codim V(X), read off
    X's Krull dimension (c is X's generator count only for a complete
    intersection)."""
    return jacobian_ideal(X, X.ring.ngens - X.krull_dimension(budget).dimension)


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


def contact_cell_dim(clauses, level, image_level, point=None, budget=None):
    """Dimension of the level-`image_level` image of the locus that the
    contact `clauses` cut out at jet level `level` (through `point` when
    given); -1 when it is empty.

    With an "==" clause, deeper contact is removed by saturation by each
    nonzero excluded coefficient in turn and the largest image counts
    (-1 when all are zero).  The image is truncated by elimination;
    emptiness is monotone in the level (see contact_cell_walk).
    """
    closed, excluded = contact_ideal(clauses, level, point=point)
    saturators = [g for g in excluded if not g.is_zero()] if excluded else [None]
    return max(
        (image_dimension(closed.ideal, closed.jet_ring, image_level, g, budget) for g in saturators),
        default=-1,
    )


def liftable_image_dim(I, point, m, e, jacobian=None, budget=None):
    """Dimension of the level-m image of jets through `point` that lift
    far enough and meet the Jacobian ideal with contact exactly e: the
    cell [I >= L+1, jacobian == e] at level L = max(m, e) + e; -1 when
    empty.  `jacobian` defaults to jacobian_of(I).
    """
    if m < 1:
        raise PreconditionError("jet level m must be at least 1")
    if e < 0:
        raise PreconditionError("contact order e must be non-negative")
    check_point_on(I, point)
    jac = jacobian if jacobian is not None else jacobian_of(I, budget)
    L = max(m, e) + e
    clauses = [ContactClause(I, ">=", L + 1), ContactClause(jac, "==", e)]
    return contact_cell_dim(clauses, L, m, point=point, budget=budget)


def contact_cell_walk(cell):
    """Walk the Jacobian-contact cells (m, e) of a table, row by row.

    `cell(m, e)` computes one cell with contact_cell_dim and returns its
    dimension, -1 when empty.  Returns row(m, orders), a generator of
    (e, dim) for e in `orders`; rows must come in increasing m.

    Dead contact orders.  Take a cell [X >= L+1, jac == e, extra...] at
    level L, and L' <= L with e <= L' and every extra order at most
    L' + 1.  Truncating a level-L jet of the cell to level L' gives a
    jet of the level-L' cell with the same e, extra clauses and point:
    the t^k coefficient of an arc expansion depends only on jet levels
    <= k, and every clause at level L' reads coefficients k <= L' only
    (ord X >= L' + 1 reads t^0..t^L', ord jac == e reads t^0..t^e, an
    extra ord >= c reads t^0..t^(c-1)).  So emptiness is monotone in the
    level, whatever the image level: the truncation argument behind the
    Denef-Loeser lifting lemma.  `cell` must keep, for each e, a working
    level that never drops as m grows and extra clauses that only get
    stronger; then an empty cell (m, e) makes every later (m', e) empty,
    and later rows yield (e, -1) without computing it.  Only a cell that
    returns -1 marks e dead; one that raises marks nothing.
    """
    dead = set()

    def row(m, orders):
        for e in orders:
            if e in dead:
                yield e, -1
                continue
            d = cell(m, e)
            if d == -1:
                dead.add(e)
            yield e, d

    return row


# One jet level of a lambda report.
# value: int, or None when no cell was nonempty
# cells: ((e, dim), ...) for the contact orders actually used
LambdaRow = namedtuple("LambdaRow", "m value cells converged note", defaults=("",))


# stabilized: the stable lambda value, or None
# mld_hat: n + lambda when stabilized, else None
LambdaReport = namedtuple(
    "LambdaReport",
    "point n m_max e_max rows stabilized mld_hat singular_dim notes budget_hit",
)


def lambda_sequence(I, point, m_max, e_max=3, budget=None):
    """Defect rows lambda_m^0 = m*n - dim(liftable image) for m = 1..m_max.

    Each row scans Jacobian-contact cells e = 0..e_max, stops early when a
    cell reaches the ceiling m*n, and otherwise probes e_max + 1 to decide
    convergence.  Rows run serially in level order; a cell proved empty
    is not computed again in later rows (see contact_cell_walk).
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
    jac = jacobian_of(I, budget)
    singular_dim = (I + jac).krull_dimension(budget).dimension
    walk = contact_cell_walk(
        lambda m, e: liftable_image_dim(I, point, m, e, jacobian=jac, budget=budget)
    )

    def row(m):
        target = m * n
        cells = []
        best = -1
        gained = False  # the probe cell e_max + 1 raised the maximum
        try:
            for e, d in walk(m, range(e_max + 2)):
                if d > target:
                    raise AgreementError(
                        f"cell (m={m}, e={e}) has dimension {d} > {target}; this "
                        "contradicts the fiber-dimension bound and signals a bug"
                    )
                cells.append((e, d))
                gained = e > e_max and d > best
                best = max(best, d)
                if best == target:
                    break
        except BudgetExhausted as exc:
            note = f"budget exhausted: {exc}"
        else:
            note = ""
            if gained:
                note = "probe cell improved the maximum; raise e_max"
            elif best == -1:
                note = "no liftable jets found at any probed contact order"
        value = target - best if best >= 0 else None
        return LambdaRow(m, value, tuple(cells), not note, note)

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
