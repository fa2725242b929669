"""Jet rings, truncated arc expansion, contact loci, and the dimensions
of their images: CellTable.cell, the one measurement under every table.

A level-m jet ring adjoins variables name__j for every base variable and
every level 0 <= j <= m, in level-major order, so the level-p subring is
a prefix of the level-m ring.

Contact clauses expand as integer arc series of packed monomials.  A
series holds its nonzero terms only, each tagged with its t-order
(_arc_series), so expanding costs in proportion to the terms kept.
Contact cells come in tables (CellTable): a lambda table with its tails,
an lct or mld window, or a lone contact_cell_dim call, a table of one.
A table packs every cell into one layout (_cell_layout) and expands each
clause ideal once, to the first coefficient a cell reads, and once more
to the deepest when a later cell reads deeper; each cell reads its
coefficients from there and keys the shared packing by its own order.
Its cells never build the Ring of jet variable names, which JetRing
makes on first read, and the cells of one order share one memo of
order keys.  The Polynomial views read the same packing: contact_ideal
and jet_ideal build a CellTable through their point and take its
coefficients (CellTable.coefficients, which every cell uses too),
t_expand expands on a _cell_layout packing, and all three unpack
through _jet_polys.

Budget discipline: all Groebner work is routed through the budget handed
in by the caller; this module adds no caps of its own.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .errors import AgreementError, BudgetExhausted, PreconditionError, RingMismatchError
from .groebner import Ideal, block_order, elimination_dimension, elimination_packing
from .poly import Polynomial, Ring


class JetRing:
    """Coordinates of the space of m-jets of the affine space of `base`.

    The Ring of jet-variable names is built on first read: a cell's
    layout reads only the base ring and the level.
    """

    def __init__(self, base, level):
        if level < 0:
            raise PreconditionError("jet level must be non-negative")
        self.base = base
        self.level = level

    @cached_property
    def ring(self):
        return Ring(f"{name}__{j}" for j in range(self.level + 1) for name in self.base.names)

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


def _series_mul(a, b, limit):
    """Truncated product of two arc series, as a dict: the sums of their
    tagged monomials below `limit`, the first tag past the truncation
    order.  `a` is (tagged monomial, int) pairs, `b` such pairs in
    ascending order, so a row stops at its first sum past the limit."""
    out = {}
    for ma, ca in a:
        for mb, cb in b:
            mm = ma + mb
            if mm >= limit:
                break
            out[mm] = out.get(mm, 0) + ca * cb
    return out


def _arc_series(polys, m, places, scale):
    """Coefficients of t^0..t^m of scale * p, for each p in `polys`, on
    the arc x_i = sum_j x_i__j t^j with x_i__j the packed monomial
    places[i][j] (0 where None): m + 1 dicts {packed monomial: int} per
    p.  `scale` must clear every denominator.

    A series holds its nonzero terms only, each a monomial tagged with
    its t-order in the bits above `shift`, past every product of the
    units a term can make: multiplying terms adds their tagged ints,
    ascending tags ascend in order, and a product stays within t^m
    exactly when it is below the tag m + 1.  A term's series starts from
    the power of its first variable.
    """
    units = [u for row in places for u in row if u]
    degree = max((sum(e) for p in polys for e in p.terms), default=0)
    # a product of at most `degree` units is below degree * max(units)
    shift = max(units, default=0).bit_length() + degree.bit_length()
    limit = (m + 1) << shift
    # powers[i][k]: x_i^k as ascending (tagged monomial, int) pairs
    powers = [
        [None, [(u + (j << shift), 1) for j, u in enumerate(row[: m + 1]) if u]] for row in places
    ]
    mask = (1 << shift) - 1
    out = []
    for p in polys:
        total = {}
        for exps, coeff in p.terms.items():
            series = None
            for i, e in enumerate(exps):
                if e:
                    row = powers[i]
                    while len(row) <= e:
                        row.append(sorted(_series_mul(row[-1], row[1], limit).items()))
                    if series is None:
                        series = row[e]
                    else:
                        series = _series_mul(series, row[e], limit).items()
                    if not series:
                        break
            c = coeff.numerator * (scale // coeff.denominator)
            for mono, cc in ((0, 1),) if series is None else series:
                total[mono] = total.get(mono, 0) + c * cc
        coeffs = [{} for _ in range(m + 1)]
        for mono, c in total.items():
            if c:
                coeffs[mono >> shift][mono & mask] = c
        out.append(coeffs)
    return out


# A cell's equations for groebner.elimination_dimension: packed series on
# its table's common coefficient `scale`, in the table's packing keyed by
# the cell's order (`mono`, with the mask of its `eliminated` fields), the
# arc grading its pairs are selected by, and the order keys that the
# cells of one order share (elimination_dimension's `keys`).
PackedCell = namedtuple("PackedCell", "mono eliminated closed scale grading keys")


def _cell_layout(base, lowest, deepest, degree, budget):
    """(places, mono, grading) of a table of cells over the ring `base`:
    the one jet packing, which every cell of a CellTable shares and the
    Polynomial views unpack (_jet_polys).

    The fields are w (for saturation), then x_i__j level-major from
    `lowest` up to `deepest`: lowest is 0 for a free base point and 1
    through a point, where level 0 is the point.  places[i][j] is x_i__j
    as a packed unit monomial of `mono`, None below `lowest`.  The
    grading weighs x_i__j by j and w by 0: the t^e coefficient is
    weighted-homogeneous of degree e, and the cells' bases select their
    pairs by sugar in it.

    Each cell keys this packing by its own Block(k) grevlex order
    (_cell_order), on the variables w, the levels above its image level
    (eliminated, k variables in all) from the lowest up, then the image
    levels from the top down to `lowest`.  The order reaches the
    kernel as a weight per field, so every key, pair and basis is the one
    of a packing of the cell's variables alone, in that sequence; only
    the bit positions moved.  The reasons for that sequence, measured
    when each cell had a packing of its own: the t^e coefficient of f on
    an arc (e >= 1) is sum_i (d f/d x_i)(x__0) * x_i__e plus terms in the
    levels below e, so it is linear in its top level.  Grevlex ranks its
    last variable cheapest, so with the lowest level last the leads fall
    on the high levels, where the system is triangular, and not on
    powers of the low ones; level 0 first costs the jet-scheme cells of
    lct rows 1.5-2.3 times the S-pairs and up to ten times the time.  The
    eliminated block keeps its levels ascending: top down there costs the
    surface probe cells of check-main 5 % more normal forms, and with
    pure powers set to 0 before the basis run
    (groebner.elimination_dimension) it no longer speeds the E6 cell
    (m, e) = (2, 8) of lambda, 0.26 s either way.
    """
    n = base.ngens
    mono = elimination_packing(1 + n * (deepest + 1 - lowest), degree, budget)
    degree_bit = 1 << mono.degree_offset
    offsets = iter(mono.offsets[1:])
    places = [[None] * (deepest + 1) for _ in range(n)]
    for j in range(lowest, deepest + 1):
        for row in places:
            row[j] = 1 << next(offsets) | degree_bit
    return places, mono, (0,) + tuple(j for j in range(lowest, deepest + 1) for _ in range(n))


def _cell_order(mono, n, lowest, level, image_level):
    """(mono, eliminated) of a cell of a _cell_layout table, keyed by its
    Block(k) grevlex order."""
    levels = [*range(image_level + 1, level + 1), *range(image_level, lowest - 1, -1)]
    fields = [0] + [1 + (j - lowest) * n + i for j in levels for i in range(n)]
    return block_order(mono, fields, 1 + n * (level - image_level))


def _jet_polys(jr, mono, lowest, series, scale):
    """Packed coefficients of a _cell_layout packing, on `scale`, as
    Polynomials of the jet ring `jr`: field 1 + k holds jet variable
    lowest * n + k.  The variables below `lowest` read field 0, w, which
    no coefficient holds."""
    skip = lowest * jr.base.ngens
    offsets = mono.offsets[:1] * skip + mono.offsets[1 : 1 + jr.ring.ngens - skip]
    field = mono.field
    return [
        Polynomial(
            jr.ring,
            {
                tuple([(mm >> o) & field for o in offsets]): Fraction(c, scale)
                for mm, c in acc.items()
            },
        )
        for acc in series
    ]


def t_expand(p, m):
    """Coefficients of t^0..t^m of p evaluated on a truncated arc.

    Substitutes each base variable x_i by sum_j x_i__j t^j and truncates
    past t^m.  Returns a tuple of m + 1 polynomials in the level-m jet
    ring of p's ring.
    """
    if m < 0:
        raise PreconditionError("truncation level must be non-negative")
    jr = JetRing(p.ring, m)
    den = lcm(*(c.denominator for c in p.terms.values()))
    places, mono, _ = _cell_layout(p.ring, 0, m, p.degree(), None)
    return tuple(_jet_polys(jr, mono, 0, _arc_series([p], m, places, den)[0], den))


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
    jr = JetRing(I.ring, m)
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


def _check_clauses(clauses, m, point):
    """The ring of contact clauses at jet level m, once they are checked:
    one ring, every order realizable at level m, at most one "==" clause,
    and a point of the ring's arity."""
    if not clauses:
        raise PreconditionError("empty contact clause list")
    base = clauses[0].ideal.ring
    eq_seen = False
    for clause in clauses:
        if clause.ideal.ring != base:
            raise RingMismatchError("contact clauses live in different rings")
        if clause.order > m + (clause.relation == ">="):
            raise PreconditionError(
                f"contact order {clause.relation} {clause.order} is unrealizable at jet level {m}"
            )
        if clause.relation == "==":
            if eq_seen:
                raise PreconditionError("at most one exact-contact clause is supported")
            eq_seen = True
    if point is not None and len(point) != base.ngens:
        raise PreconditionError("point arity does not match ring")
    return base


def _top(clause):
    """The last arc coefficient a clause reads: t^order ("=="), or
    t^(order-1) (">=")."""
    return clause.order - (clause.relation == ">=")


def contact_ideal(clauses, m, point=None):
    """Realize contact clauses at jet level m.

    Returns (closed, excluded): `closed` is a JetIdeal cutting out the
    conjunction of the closed conditions; `excluded` lists the level-e
    coefficient polynomials of the single allowed "==" clause, whose
    common zero locus must be removed to pass from ord >= e to ord == e.
    When `point` is given all clause ideals are first translated so the
    point sits at the origin, and the level-0 variables are pinned to 0.
    """
    jr = JetRing(_check_clauses(clauses, m, point), m)
    table = CellTable(point, m, [(c.ideal, _top(c)) for c in clauses])
    closed, excluded = table.coefficients(clauses)
    mono = table._layout[1]
    closed = _jet_polys(jr, mono, table.lowest, closed, table.scale)
    if point is not None:
        closed.extend(jr.ring.var(i) for i in jr.level_indices(0))
    excluded = _jet_polys(jr, mono, table.lowest, excluded, table.scale)
    return JetIdeal(jr, Ideal(jr.ring, tuple(closed))), excluded


def jacobian_ideal(I, c):
    """Ideal of all c x c minors of the Jacobian matrix of the generators."""
    k = len(I.gens)
    n = I.ring.ngens
    if c < 1 or c > k or c > n:
        raise PreconditionError(f"cannot take {c} x {c} minors of a {k} x {n} Jacobian")
    rows = [[g.partial_derivative(i) for i in range(n)] for g in I.gens]

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


def image_dimension(cell, jet_ring, image_level, saturator=None, budget=None):
    """Dimension of the closure of the image, in the level-`image_level`
    jet space of `jet_ring`, of the zero set of the PackedCell `cell`
    minus V(saturator), a coefficient packed in the cell's layout; -1
    when empty.  `jet_ring` and `image_level` name the cell, whose
    layout already holds them.
    """
    mono, eliminated, gens, scale, grading, keys = cell
    if saturator is not None and saturator.keys() != {0}:  # a constant one removes nothing
        w = 1 << mono.offsets[0] | 1 << mono.degree_offset
        gens = gens + [{0: scale, **{mm + w: -c for mm, c in saturator.items()}}]
    return elimination_dimension(gens, mono, eliminated, budget, grading, keys)


def _is_origin(point):
    """True when every coordinate is an int or Fraction zero: there
    translating is the identity and evaluating reads constant terms."""
    return all(isinstance(c, (int, Fraction)) and not c for c in point)


def _vanishes(I, point):
    """Whether every generator of I vanishes at `point`; at the origin a
    generator vanishes exactly when it has no constant term."""
    n = I.ring.ngens
    if len(point) == n and _is_origin(point):
        return all((0,) * n not in g.terms for g in I.gens)
    return all(g.evaluate(point) == 0 for g in I.gens)


def check_point_on(I, point):
    """Raise PreconditionError unless every generator of I vanishes at `point`."""
    if not _vanishes(I, point):
        raise PreconditionError("point does not lie on the variety")


class CellTable:
    """The cells of one table, through `point` (None for a free base
    point) at jet levels up to `deepest`: one packing (_cell_layout) and
    one arc expansion per clause ideal, which every cell reads.

    `reads` pairs each clause ideal a cell may use with the last arc
    coefficient any cell reads of it.  The table translates every ideal
    to the point, takes the one scale of the table, the lcm of their
    denominators, and builds the packing.  An ideal is expanded to the
    coefficient its first cell reads, and once more to its last one when
    a later cell reads deeper.  One scale serves every cell: scaling
    every polynomial of a basis run by one positive factor leaves its
    processing order, its pairs and its primitive elements as they were.
    """

    def __init__(self, point, deepest, reads, budget=None):
        self.point = point
        self.deepest = deepest
        self.budget = budget
        self.reads = {}
        for ideal, top in reads:
            self.reads[ideal] = max(top, self.reads.get(ideal, top))
        moved = point is not None and not _is_origin(point)
        self._gens = {I: I.translate(point).gens if moved else I.gens for I in self.reads}
        self.scale = lcm(
            *(c.denominator for gens in self._gens.values() for g in gens for c in g.terms.values())
        )
        self.lowest = int(point is not None)
        base = next(iter(self.reads)).ring
        # with a saturator 1 - w*g
        degree = 1 + max((g.degree() for I in self.reads for g in I.gens), default=0)
        self._layout = _cell_layout(base, self.lowest, deepest, degree, budget)
        self._series = {}
        self._orders = {}

    def _expand(self, ideal, top):
        """The arc series of `ideal`'s generators, to t^top at least."""
        got = self._series.get(ideal)
        if got is None or got[0] < top:
            depth = top if got is None else max(top, self.reads[ideal])
            series = _arc_series(self._gens[ideal], depth, self._layout[0], self.scale)
            got = self._series[ideal] = (depth, series)
        return got[1]

    def coefficients(self, clauses):
        """(closed, excluded) of `clauses`, packed on the table's scale:
        the nonzero coefficients that the closed conditions set to 0, and
        the t^order coefficients of the "==" clause's generators."""
        closed = []
        excluded = []
        for clause in clauses:
            top = _top(clause)
            if top < 0:
                continue
            for coeffs in self._expand(clause.ideal, top):
                closed.extend(c for c in coeffs[: clause.order] if c)
                if clause.relation == "==":
                    excluded.append(coeffs[clause.order])
        return closed, excluded

    def cell(self, clauses, level, image_level, bound=None):
        """contact_cell_dim of `clauses` at `level`, imaged at
        `image_level`, through the table's point under its budget."""
        point = self.point
        base = _check_clauses(clauses, level, point)
        jr = JetRing(base, level)
        if not 0 <= image_level <= level:
            raise PreconditionError("image level outside the jet ring's range")
        if level > self.deepest:
            raise PreconditionError(f"cell level {level} lies past its table's {self.deepest}")
        if point is not None:
            for clause in clauses:
                # every arc through a point where the ideal vanishes has
                # contact at least 1 with it
                if clause.relation == "==" and not clause.order and _vanishes(clause.ideal, point):
                    return -1
        places, packing, grading = self._layout
        key = (level, image_level)
        order = self._orders.get(key)
        if order is None:
            order = self._orders[key] = (*_cell_order(packing, base.ngens, self.lowest, *key), {})
        mono, eliminated, keys = order
        closed, excluded = self.coefficients(clauses)
        if point is not None and bound is not None and bound <= 0:
            # the vertex fiber: x_i__j = 0 on the image levels 1..m
            closed += [{row[j]: 1} for j in range(1, image_level + 1) for row in places]
        cell = PackedCell(mono, eliminated, closed, self.scale, grading, keys)
        if not excluded:
            return image_dimension(cell, jr, image_level, None, self.budget)
        gs = [g for g in excluded if g]
        best = -1
        for i, g in enumerate(gs):
            piece = cell._replace(closed=cell.closed + gs[:i])
            best = max(best, image_dimension(piece, jr, image_level, g, self.budget))
            if bound is not None and best >= bound:
                break
        return best


def contact_cell_dim(clauses, level, image_level, point=None, budget=None, bound=None):
    """Dimension of the level-`image_level` image of the locus that the
    contact `clauses` cut out at jet level `level` (through `point` when
    given); -1 when it is empty.  A lone call is a CellTable of one cell;
    the tables of lambda_sequence, check-main, lct_hat_bound and
    mld_hat_bound call CellTable.cell, which computes the same value.

    With an "==" clause, deeper contact is removed in disjoint pieces:
    V minus V(g_1..g_r), for the nonzero excluded coefficients g_i, is
    the union of the (V cut by g_1..g_{i-1}) minus V(g_i), so piece i adds
    the earlier g's as closed generators and saturates by g_i.  The
    closure of a finite union is the union of the closures, so the
    largest piece image counts (-1 when all g are zero, as for an order-0
    "==" clause whose ideal vanishes at `point`, which is decided before
    any expansion).  The image is truncated by elimination; emptiness is
    monotone in the level (see contact_cell_walk).

    `bound`, when given, must be a proven upper bound on the cell's
    dimension.  The pieces then stop at the first one whose image
    reaches it: every piece lies in the cell, so that piece's dimension
    is at most the cell's, which is at most the bound, and the cell is
    the largest piece.  The result is the one computed without `bound`.

    Vertex fiber.  Through `point`, a bound of at most 0 computes the
    cell on {x__1 = ... = x__m = 0}, m = image_level: the arcs start at
    t^(m+1).  The cell takes the unit equations x_i__j = 0, 1 <= j <= m,
    as closed generators.  The zero-set pass of elimination_dimension
    drops every term in those variables before the basis run, and each
    unit stays to pin its variable, so the image is 0 or -1.  With the
    point at the origin, the t^k coefficient of an arc expansion is
    weighted-homogeneous of degree k when x_i__j weighs j, so t -> c*t,
    which maps x_i__j to c^j * x_i__j and w to c^(-e) * w, maps every
    piece to itself.  Its level-m image is then a cone for the positive
    weights 1..m: the orbit of an image point other than 0 is a curve in
    it, so an image of dimension <= 0 is empty or the point 0.  So the
    cell lies over x__1 = ... = x__m = 0, and it is nonempty exactly when
    its restriction there is.  Each restricted piece lies in the cell, so
    the stop rule above stays exact.  Without a point the arcs are not
    stable under t -> c*t, and the cell takes no unit equations.
    """
    _check_clauses(clauses, level, point)  # before the table translates and packs
    reads = [(c.ideal, _top(c)) for c in clauses]
    return CellTable(point, level, reads, budget).cell(clauses, level, image_level, bound)


def liftable_image_dim(I, point, m, e, jacobian=None, budget=None, bound=None, table=None):
    """Dimension of the level-m image of jets through `point` that lift
    far enough and meet the Jacobian ideal with contact exactly e: the
    cell [I >= L+1, jacobian == e] at level L = max(m, e) + e; -1 when
    empty.  `jacobian` defaults to jacobian_of(I).  `bound` is a proven
    upper bound on the result, handed to contact_cell_dim.  `table`, a
    CellTable through `point` that reads I and `jacobian`, computes the
    cell in place of a table of its own.
    """
    if m < 1:
        raise PreconditionError("jet level m must be at least 1")
    if e < 0:
        raise PreconditionError("contact order e must be non-negative")
    check_point_on(I, point)
    jac = jacobian if jacobian is not None else jacobian_of(I, budget)
    L = max(m, e) + e
    clauses = [ContactClause(I, ">=", L + 1), ContactClause(jac, "==", e)]
    if table is None:
        return contact_cell_dim(clauses, L, m, point=point, budget=budget, bound=bound)
    return table.cell(clauses, L, m, bound)


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
    returns -1 marks e dead; one that raises marks nothing.  A cell that
    `cell` decides by a proof instead (lambda's reparametrized probe,
    always 0) is never -1, so it marks no order dead.
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
# singular_dim: dim V(I + jac), with a note on what it means for the rows;
# only lambda_sequence computes it, so check-main's report has None and
# no notes
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

    Every cell is computed under a proven upper bound (contact_cell_dim's
    `bound`): the ceiling m*n, and for the probe also the closed tail
    T(m, E) = dim [I >= L+1, jac >= E+1] at level L = max(m, E), imaged
    at level m, with E = e_max.  A probe jet lives at level
    L' = max(m, E+1) + E+1 >= L; its truncation to level L still has
    ord I >= L+1 and ord jac = E+1 >= E+1, and every clause of the tail
    reads arc coefficients up to t^L only, so it lies in the tail cell
    (the truncation argument of contact_cell_walk) and the probe's image
    lies in the tail's.  The tail is computed only when a row reaches its
    probe, inside the row, so a budget it exhausts stops the row.  A
    probe whose tail is at most 0 runs on its vertex fiber, with the
    image levels set to 0 (see contact_cell_dim).

    Reparametrization decides a probe under bound 0 with no basis run
    (the monoid action t -> t^k on contact loci; Ein, Lazarsfeld and
    Mustata, Compositio 2004).  Let the row's cell (m, d) be nonempty for
    some d >= 1 dividing E+1, and k = (E+1)/d.  Take a level-L jet delta
    of that cell, L = max(m, d) + d: a polynomial arc through the point
    with ord I >= L+1 and ord jac = d exactly.  Then delta(t^k) is a
    polynomial arc through the point with ord I >= k(L+1) and
    ord jac = k*d = E+1 exactly.  Since k*max(m, d) >= max(m, k*d) and
    k >= 1, k(L+1) = k*max(m, d) + (E+1) + k >= L'+1 for the probe's
    level L' = max(m, E+1) + E+1.  Its truncation to level L' keeps every
    coefficient a probe clause reads (t^0..t^L' of I, t^0..t^(E+1) of
    jac), so it lies in the probe, which is therefore nonempty (only
    nonemptiness carries over, not the image).  Under a bound of 0 the
    probe is then exactly 0.  Under a bound below 0 the tail, which holds
    the probe, is empty, and the nonempty cell contradicts it:
    AgreementError, as for a cell above m*n.

    n is the dimension of V(I), and the rows need V(I) pure of dimension
    n near `point`.  A point where V(I) has smaller local dimension, read
    off the tangent cone, raises PreconditionError.  So does a point on a
    component of smaller dimension that meets an n-dimensional one: with
    c = N - n for N variables, an I with more than c generators (at most
    c make a complete intersection, unmixed by Macaulay's theorem) is
    saturated by each nonzero (c+1)-minor g of its Jacobian matrix.  The
    minors vanish on every n-dimensional component, where the Jacobian
    rank is at most c, but not on a generically reduced component of
    smaller dimension, where the rank is its codimension (the Jacobian
    criterion); so I : g^inf vanishing at the point names such a
    component through it.  A lower-dimensional component that is not
    generically reduced can escape this test, so the cone check stays:
    X = (x^2*z, y*z) at (0, 0, 1) is locally the doubled line
    x^2 = y = 0, and each of its minors 2*x*z^2, 2*x*y*z, -x^2*z
    saturates X to the unit ideal, but its cone there has dimension 1.

    The report's singular_dim is the dimension of V(I + jac), computed
    after these checks and before the rows.
    """
    if m_max < 1:
        raise PreconditionError("m_max must be at least 1")
    if e_max < 0:
        raise PreconditionError("e_max must be non-negative")
    if I.is_zero_ideal():
        raise PreconditionError("lambda rows need a nonzero ideal, not the zero ideal")
    point = tuple(point)
    check_point_on(I, point)
    n = I.krull_dimension(budget).dimension
    if n < 1:
        raise PreconditionError(f"variety dimension is {n}; need a positive-dimensional variety")
    from .invariants import tangent_cone  # invariants imports this module

    jac = _pure_jacobian(I, point, n, tangent_cone(I, point, budget), budget)
    singular_dim = (I + jac).krull_dimension(budget).dimension
    if singular_dim <= 0:
        note = (
            "singular locus is empty or zero-dimensional: the liftable rows "
            "equal the full defect (isolated-singularity identification)"
        )
    else:
        note = (
            f"singular locus has dimension {singular_dim}: rows bound the full "
            "defect from above but may miss arc families inside the singular locus"
        )
    report = _lambda_rows(I, point, n, jac, m_max, e_max, budget)
    return report._replace(singular_dim=singular_dim, notes=(note,))


def _pure_jacobian(I, point, n, cone, budget):
    """The Jacobian ideal of the n-dimensional V(I), once lambda_sequence's
    purity checks pass at `point`, where `cone` is V(I)'s tangent cone;
    check-main passes the cone it has built already."""
    # dim O_{X,p} is the dimension of its graded ring, the tangent cone's
    local = cone.ideal.krull_dimension(budget).dimension
    if local < n:
        raise PreconditionError(
            f"local dimension {local} at the point is below the variety's dimension "
            f"n = {n}; the point must lie on components of dimension n only"
        )
    c = I.ring.ngens - n
    if len(I.gens) > c:  # at most c generators: a complete intersection, unmixed
        for g in jacobian_ideal(I, c + 1).gens:
            rest = I.saturate(g, budget)
            if _vanishes(rest, point):
                raise PreconditionError(
                    f"X is not pure of dimension n = {n} at the point: the {c + 1} x {c + 1} "
                    f"Jacobian minor {g} is not zero on X : ({g})^inf = {rest}, which "
                    "passes through the point"
                )
    return jacobian_of(I, budget)


def _lambda_rows(I, point, n, jac, m_max, e_max, budget):
    """The rows of lambda_sequence for a point on the n-dimensional V(I)
    with Jacobian ideal `jac`, past every check; singular_dim None, no
    notes.  A probe under bound 0 with a nonempty divisor cell is 0 by
    reparametrization (see lambda_sequence), with no cell run; the rule
    never yields (e, -1), so the walk's dead orders stay those of the
    cells it computes."""

    # the probe (m_max, e_max + 1) is the deepest cell; the tails read less
    deepest = max(m_max, e_max + 1) + e_max + 1
    table = CellTable(point, deepest, ((I, deepest), (jac, e_max + 1)), budget)
    divisors = [d for d in range(1, e_max + 1) if (e_max + 1) % d == 0]
    nonempty = set()  # the cells (m, e) computed so far with dimension >= 0

    def tail(m):
        """T(m, e_max): the closed tail, the probe cell's upper bound."""
        L = max(m, e_max)
        clauses = [ContactClause(I, ">=", L + 1), ContactClause(jac, ">=", e_max + 1)]
        return table.cell(clauses, L, m)

    def cell(m, e):
        bound = m * n if e <= e_max else min(m * n, tail(m))
        if e > e_max and bound <= 0:
            d = next((d for d in divisors if (m, d) in nonempty), None)
            if d is not None:
                if bound < 0:
                    raise AgreementError(
                        f"cell (m={m}, e={d}) is nonempty, so t -> t^{e // d} makes the probe "
                        f"(m={m}, e={e}) nonempty, but its tail is empty; this signals a bug"
                    )
                return 0
        return liftable_image_dim(
            I, point, m, e, jacobian=jac, budget=budget, bound=bound, table=table
        )

    walk = contact_cell_walk(cell)

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
                if d >= 0:
                    nonempty.add((m, e))
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
    stabilized = mld_hat = None
    if m_max >= 2:
        last, prev = rows[-1], rows[-2]
        if last.converged and prev.converged and last.value == prev.value is not None:
            stabilized = last.value
            mld_hat = n + stabilized
    return LambdaReport(
        point=point, n=n, m_max=m_max, e_max=e_max, rows=rows, stabilized=stabilized,
        mld_hat=mld_hat, singular_dim=None, notes=(), budget_hit=budget_hit,
    )
