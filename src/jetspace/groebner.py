"""Groebner bases, ideals, and ideal-theoretic operations.

The engine is Buchberger's algorithm with Gebauer and Moeller's UPDATE
(J. Symb. Comput. 6, 1988): the coprime-head criterion, minimal-lcm
filtering among new pairs, the chain criterion on old pairs, and an
element whose lead a newer lead divides leaving the set that forms new
pairs (it stays a reducer).  The elements left in that set are the
minimal basis.  Pairs are selected normally, smallest lcm first, or,
given a grading, least sugar first (Giovini, Mora, Niesi, Robbiano and
Traverso, ISSAC 1991).  Selection changes the work, never the basis: on
a weighted-homogeneous ideal sugar walks up the degrees, where the
normal strategy on a block order runs ahead into pairs that reduce to
zero.  reduced_groebner then
fully reduces tails: its output is the reduced Groebner basis, unique per
(ideal, order), so results are reproducible byte for byte however the
computation was scheduled.  elimination_dimension stops at the minimal
basis: a dimension reads leading monomials only, which the minimal and
the reduced basis share, so it needs no interreduction.

elimination_dimension also computes on the zero set, not the ideal.  A
dimension of an elimination image is the dimension of the closure of
the projection of V(polys), which depends on V(polys) only.  A pure
power c*x^a puts V on x = 0, where every other polynomial equals itself
minus its terms in x; so replacing c*x^a by x and dropping the x-terms
elsewhere, round after round, keeps V.  The lowest arc coefficients of
a jet scheme are such powers, and their nilpotent structure is most of
the work of a basis run that no dimension reads.  reduced_groebner and
normal_form keep the ideal as given.

The inner loop runs on integers only, after Bachmann and Schoenemann,
"Monomial representations for Groebner bases computations" (ISSAC 1998):

- A monomial is one packed int with a field per variable and a field for
  the total degree, each topped by a guard bit.  Multiplying monomials is
  adding ints, and "a divides b" is one guard-bit test.
- A term's sort key is the integer -w.e, with w from the order's
  weights(); since the key is linear, a shifted term's key is a sum.
  Pair candidates are filtered by the degree field, which costs nothing
  to read, so only kept pairs pay for a key, read from the nonzero fields
  of the lcm's shift off the new lead; open pairs wait in a heap.
- Coefficients are ints.  Basis elements are primitive with a positive
  leading coefficient, and reduction is fraction-free: a step scales the
  work polynomial by the reducer's leading coefficient over a gcd instead
  of dividing.  Pair selection and the criteria read monomials only, so
  the run visits the leading monomials a monic rational engine would, and
  each output element is made monic over Q at the end.

A polynomial is a list of (key, monomial, coefficient) terms in
ascending key order, so the leading term comes first.  Reduction works
on heaps, after Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors" (CASC 2007), so a step costs
time in proportion to the reducer's length, not the work polynomial's:

- The work polynomial is a dict from key to term plus a heap of keys;
  the leading term is the smallest key not yet cancelled.
- Scaling is lazy: a term remembers the scale at which it was stored and
  is brought to the current scale only when touched or popped.
- Within one basis run the basis only grows by appending, so the first
  lead dividing a monomial never changes once found, and a monomial no
  lead divides is only checked against leads appended later.  A memo
  local to the run remembers both.

Budgets: every basis computation counts selected S-pairs and watches term
degrees.  Exceeding either cap raises BudgetExhausted instead of returning
a partial basis.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import islice
from math import gcd, lcm
from operator import lshift, mul

from .errors import BudgetExhausted, PreconditionError, RingMismatchError
from .orders import GREVLEX, Block
from .poly import Polynomial, Ring, _from_clean, divide_exact, fresh_name, map_variables


# Caps for a single Groebner basis run.
Budget = namedtuple("Budget", "max_pairs max_degree", defaults=(200_000, 64))


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------
# monomials packed into ints, with linear order keys
# ---------------------------------------------------------------------


class _Monomials:
    """Packed monomials in `nvars` variables of degree at most
    `max_degree`, keyed by `order`.

    A field holds 0..2*max_degree, room for the lcm of two such
    monomials.  The degree field sits above the variable fields, so a
    sum of packed monomials carries its own total degree.
    """

    def __init__(self, order, nvars, max_degree):
        width = (2 * max_degree + 1).bit_length() + 1
        guard = 1 << (width - 1)
        self.width = width
        self.offsets = tuple(i * width for i in range(nvars))
        self.degree_offset = nvars * width
        self.field = guard - 1
        self.units = sum(1 << o for o in self.offsets)
        self.guards = self.units * guard | (guard << self.degree_offset)
        self.var_values = self.units * self.field
        self.top = self.offsets[-1] if nvars else 0
        # negated, so keys ascend as monomials descend and a heap of
        # keys pops the leading term first
        self.weights = tuple(-w for w in order.weights(nvars, 2 * max_degree))

    def pack(self, exps):
        m = sum(map(lshift, exps, self.offsets))
        return m | (sum(exps) << self.degree_offset)

    def unpack(self, m):
        field = self.field
        return tuple((m >> o) & field for o in self.offsets)

    def key(self, m, weights=None):
        """Order key of m, read from its nonzero variable fields only; with
        `weights`, the dot product with those instead."""
        v = m & self.var_values
        width, field, weights = self.width, self.field, weights or self.weights
        k = 0
        while v:
            o = ((v & -v).bit_length() - 1) // width * width
            e = (v >> o) & field
            k += weights[o // width] * e
            v -= e << o
        return k

    def lcm(self, a, b):
        guards = self.guards
        a_ge_b = ((a | guards) - b) & guards
        take_a = a_ge_b - (a_ge_b >> (self.width - 1))
        v = ((a & take_a) | (b & ~take_a)) & self.var_values
        # one product sums the variable fields into the top one
        degree = ((v * self.units) >> self.top) & self.field
        return v | (degree << self.degree_offset)


@lru_cache(maxsize=64)
def _monomials(order, nvars, max_degree):
    return _Monomials(order, nvars, max_degree)


# ---------------------------------------------------------------------
# internal polynomials: list[(key, monomial, coefficient)] sorted by key,
# ascending, so largest monomial first; no zero coefficients
# ---------------------------------------------------------------------


def _terms(poly, mono):
    """poly's terms, rational coefficients kept."""
    weights = mono.weights
    items = [
        (sum(map(mul, weights, exps)), mono.pack(exps), c)
        for exps, c in poly.terms.items()
    ]
    items.sort()  # distinct monomials have distinct keys
    return items


def _integral(terms):
    """(den * terms, den) with den the least common denominator."""
    den = lcm(*(c.denominator for _, _, c in terms))
    return [(k, m, c.numerator * (den // c.denominator)) for k, m, c in terms], den


def _primitive(ip):
    """ip divided by its content, with a positive leading coefficient."""
    g = gcd(*(c for _, _, c in ip))
    if ip[0][2] < 0:
        g = -g
    if g == 1:
        return ip
    return [(k, m, c // g) for k, m, c in ip]


def _reducer(ip, mono):
    """Basis entry (leading monomial, largest term degree, ip)."""
    off = mono.degree_offset
    return (ip[0][1], max(m >> off for _, m, _ in ip), ip)


def _check_shift(entry, shift, cap, mono):
    """Raise unless every term of x^shift * entry stays within `cap`.

    Cheap test first; the rescan names the first term over the cap.
    """
    off = mono.degree_offset
    sdeg = shift >> off
    if sdeg and entry[1] + sdeg > cap:
        for _, m, _ in entry[2]:
            degree = (m >> off) + sdeg
            if degree > cap:
                raise BudgetExhausted(
                    f"term degree {degree} exceeds cap {cap}", degree=degree
                )


# ---------------------------------------------------------------------
# work polynomials: a dict key -> (monomial, coefficient, scale when
# stored) plus a heap of keys.  The true coefficient of a term is
# coefficient * (scale // scale when stored), so a fraction-free step
# scales only the terms it touches.  A key whose coefficient cancels
# leaves the dict; its heap entry goes stale and is skipped when popped.
# ---------------------------------------------------------------------


def _work(ip, ks=0, shift=0):
    """Work polynomial (terms, heap) of x^shift * ip at scale 1, where
    ks is the key of x^shift."""
    terms = {k + ks: (m + shift, c, 1) for k, m, c in ip}
    return terms, list(terms)  # ascending keys already form a heap


def _subtract(work, scale, b, g, ks, shift):
    """work -= b * x^shift * g[1:] at `scale`, where ks is the key of
    x^shift; the leading term of g is left out, since callers pick b so
    that it cancels."""
    terms, heap = work
    for kg, mg, cg in islice(g, 1, None):
        kg += ks
        t = terms.get(kg)
        if t is None:
            terms[kg] = (mg + shift, -b * cg, scale)
            heappush(heap, kg)
            continue
        m, c, at = t
        if at != scale:
            c *= scale // at
        c -= b * cg
        if c:
            terms[kg] = (m, c, scale)
        else:
            del terms[kg]


def _normal_form_ip(work, scale, basis, memo, mono, max_degree):
    """Full normal form of the work polynomial at `scale` against the
    basis entries, fraction-free.

    Each term is reduced by the first entry, in list order, whose lead
    divides it.  `memo` maps a monomial to that entry, or to the number
    of entries at the front of `basis` whose leads do not divide it; it
    stays valid while `basis` only grows by appending.

    Returns (remainder, final scale).  The remainder is final scale over
    initial scale times the work polynomial's normal form over Q, so it
    is final scale times the normal form when the initial scale is 1.
    """
    terms, heap = work
    guards = mono.guards
    done = []  # (key, monomial, coefficient, scale when emitted)
    while heap:
        key = heappop(heap)
        t = terms.pop(key, None)
        if t is None:
            continue  # cancelled, or popped already after a second push
        m, c, at = t
        if at != scale:
            c *= scale // at
        entry = memo.get(m, 0)
        if entry.__class__ is int:  # leads known not to divide m
            probe = m | guards
            for entry in islice(basis, entry, None):
                if (probe - entry[0]) & guards == guards:
                    break
            else:
                entry = len(basis)
            memo[m] = entry
            if entry.__class__ is int:
                done.append((key, m, c, scale))
                continue
        reducer = entry[2]
        lk, lm, lc = reducer[0]
        shift = m - lm
        _check_shift(entry, shift, max_degree, mono)
        g = gcd(c, lc)
        scale *= lc // g
        _subtract(work, scale, c // g, reducer, key - lk, shift)
    return [(k, m, c * (scale // at)) for k, m, c, at in done], scale


def _to_polynomial(ring, ip, mono, den):
    return _from_clean(ring, {mono.unpack(m): Fraction(c, den) for _, m, c in ip})


def _check_input_degree(degree, cap):
    if degree > cap:
        raise BudgetExhausted(f"input degree {degree} exceeds cap {cap}", degree=degree)


def _processing_order(ip):
    """Sort key: one processing order, whatever order the inputs came in."""
    return [-t[0] for t in ip], [t[2] for t in ip]


def _minimal_basis(inputs, mono, budget, grading=None):
    """Buchberger's loop over `inputs`, integral term lists in processing
    order: the minimal basis, as reducer entries of primitive polynomials.

    With a `grading` (a weight per variable), the open pair of least sugar
    in that grading is selected first, ties by the lcm as without one.  An
    input's sugar is its largest graded degree, a pair's the larger of its
    elements' sugars carried up to the lcm, and a new element keeps its
    pair's.

    An input or pair that reduces to a nonzero constant ends the run: the
    ideal is the unit ideal, whose minimal basis is that constant alone.
    """
    cap = budget.max_degree
    guards = mono.guards
    basis = []  # reducer entries, insertion order
    excess = []  # per entry, its sugar minus its lead's graded degree
    active = []  # indices of the entries whose lead no later lead divides
    pairs = {}  # open pairs: (i, j) i<j -> (lcm_key, lcm); smaller lcms have larger keys
    queue = []  # heap of (sugar, -lcm_key, i, j); entries no longer in `pairs` are skipped
    pairs_done = 0
    degree_offset = mono.degree_offset
    # for add_element's inlined copy of _Monomials.lcm
    width1, field = mono.width - 1, mono.field
    units, top, var_values = mono.units, mono.top, mono.var_values

    def add_element(ip, sugar):
        """Gebauer-Moeller update with the new (primitive) element."""
        nonlocal active
        t = len(basis)
        lk_t, lm_t, _ = ip[0]
        if grading:
            g_t = mono.key(lm_t, grading)
            excess.append(sugar - g_t)

        # one lcm per active element; coprime heads (lcm equal to the
        # product) give no pair, and elements whose lead lm_t divides
        # leave `active` but stay reducers with their open pairs
        lcms = {}
        candidates = []
        still = []
        for i in active:
            lm_i = basis[i][0]
            ge = ((lm_i | guards) - lm_t) & guards
            take = ge - (ge >> width1)
            v = ((lm_i & take) | (lm_t & ~take)) & var_values
            lcm_m = v | (((v * units) >> top) & field) << degree_offset
            lcms[i] = lcm_m
            if lcm_m != lm_i + lm_t:
                candidates.append((i, lcm_m))
            if ge != guards:
                still.append(i)
        still.append(t)
        active = still

        # keep only pairs whose lcm is not a multiple of the lcm of an
        # earlier-kept pair; the sort is stable and a proper divisor has
        # lower degree, so it has already been seen, and of equal lcms
        # the lowest index is kept
        candidates.sort(key=lambda c: c[1] >> degree_offset)
        kept = []  # (i, lcm)
        for i, lcm_m in candidates:
            probe = lcm_m | guards
            for _, other in kept:
                if (probe - other) & guards == guards:
                    break
            else:
                kept.append((i, lcm_m))

        # chain criterion against open pairs: an inactive element's lcm
        # is taken only when lm_t divides the pair's lcm
        doomed = []
        for ij, (_, lcm_ij) in pairs.items():
            if ((lcm_ij | guards) - lm_t) & guards != guards:
                continue
            for i in ij:
                lcm_m = lcms.get(i)
                if lcm_m is None:
                    lcm_m = mono.lcm(basis[i][0], lm_t)
                if lcm_m == lcm_ij:
                    break
            else:
                doomed.append(ij)
        for ij in doomed:
            del pairs[ij]

        # keys and gradings are linear: key(lcm) = key(lm_t) + key(lcm /
        # lm_t), and the shift has few nonzero fields; the pair's sugar is
        # the larger of its elements' sugars carried up to the lcm
        for i, lcm_m in kept:
            shift = lcm_m - lm_t
            lcm_k = lk_t + mono.key(shift)
            s = max(excess[i], excess[t]) + g_t + mono.key(shift, grading) if grading else 0
            pairs[(i, t)] = (lcm_k, lcm_m)
            heappush(queue, (s, -lcm_k, i, t))
        basis.append(_reducer(ip, mono))

    memo = {}  # for this run's basis, which only grows by appending
    for ip in inputs:
        nf, _ = _normal_form_ip(_work(ip), 1, basis, memo, mono, cap)
        if nf:
            if not nf[0][1]:  # a nonzero constant: the unit ideal, whose basis is {1}
                return [_reducer(_primitive(nf), mono)]
            sugar = max(mono.key(m, grading) for _, m, _ in ip) if grading else 0
            add_element(_primitive(nf), sugar)

    while pairs:
        sugar, _, i, j = heappop(queue)
        got = pairs.pop((i, j), None)
        if got is None:
            continue  # deleted by the chain criterion
        lcm_k, lcm_m = got
        pairs_done += 1
        if pairs_done > budget.max_pairs:
            raise BudgetExhausted(
                f"pair budget {budget.max_pairs} exhausted",
                pairs_done=pairs_done,
            )
        degree = lcm_m >> degree_offset
        if degree > cap:
            raise BudgetExhausted(
                f"S-pair degree {degree} exceeds cap {cap}",
                pairs_done=pairs_done,
                degree=degree,
            )
        entry_i, entry_j = basis[i], basis[j]
        fi, fj = entry_i[2], entry_j[2]
        shift_i, shift_j = lcm_m - fi[0][1], lcm_m - fj[0][1]
        _check_shift(entry_i, shift_i, cap, mono)
        _check_shift(entry_j, shift_j, cap, mono)
        # the S-polynomial a * x^shift_i * fi - b * x^shift_j * fj, with
        # x^shift_i * fi[1:] stored at scale 1 and read at scale a
        g = gcd(fi[0][2], fj[0][2])
        a = fj[0][2] // g
        work = _work(islice(fi, 1, None), lcm_k - fi[0][0], shift_i)
        _subtract(work, a, fi[0][2] // g, fj, lcm_k - fj[0][0], shift_j)
        nf, _ = _normal_form_ip(work, a, basis, memo, mono, cap)
        if nf:
            if not nf[0][1]:
                return [_reducer(_primitive(nf), mono)]
            add_element(_primitive(nf), sugar)

    # every element was reduced against those before it, so no earlier
    # lead divides its lead: the active elements are the minimal basis
    return [basis[i] for i in active]


def reduced_groebner(gens, order=GREVLEX, budget=None):
    """Reduced Groebner basis of the ideal generated by `gens`.

    Returns a tuple of monic Polynomials sorted by leading monomial,
    largest first, each with its terms largest first.  The zero ideal
    yields the empty tuple.  A single generator is its own reduced basis:
    it selects no pair and no lead divides a smaller term, so it is only
    made monic.
    """
    budget = budget or DEFAULT_BUDGET
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
        _check_input_degree(g.degree(), budget.max_degree)

    mono = _monomials(order, ring.ngens, budget.max_degree)
    if len(gens) == 1:
        weights = mono.weights  # negated: ascending keys, largest monomial first
        terms = sorted(gens[0].terms.items(), key=lambda t: sum(map(mul, weights, t[0])))
        lc = terms[0][1]
        return (_from_clean(ring, {e: c / lc for e, c in terms}),)
    inputs = sorted((_terms(g, mono) for g in gens), key=_processing_order)
    minimal = _minimal_basis([_integral(ip)[0] for ip in inputs], mono, budget)

    # interreduce tails against the whole list: a lead divides no term
    # smaller than itself, so an element never reduces its own tail, and
    # the lead comes back at the tail's scale
    reduced = []
    memo = {}  # a new list of entries, so a new memo
    for _, _, ip in minimal:
        lk, lm, lc = ip[0]
        tail = _work(islice(ip, 1, None))
        nf, scale = _normal_form_ip(tail, 1, minimal, memo, mono, budget.max_degree)
        reduced.append([(lk, lm, lc * scale)] + nf)

    reduced.sort(key=lambda ip: ip[0][0])
    return tuple(_to_polynomial(ring, ip, mono, ip[0][2]) for ip in reduced)


def normal_form(poly, basis_polys, order=GREVLEX, budget=None):
    """Normal form of `poly` modulo a list of polynomials.

    The remainder is exact over Q: reduction runs on integers and the
    accumulated scale is divided out at the end.
    """
    budget = budget or DEFAULT_BUDGET
    polys = [g for g in basis_polys if not g.is_zero()]
    # the degree cap binds shifted reducers only, so fields must also hold
    # the input's own terms
    degrees = [p.degree() for p in polys + [poly] if p.terms]
    bound = max([budget.max_degree, 0] + degrees)
    mono = _monomials(order, poly.ring.ngens, bound)
    entries = [_reducer(_primitive(_integral(_terms(g, mono))[0]), mono) for g in polys]
    work, den = _integral(_terms(poly, mono))
    nf, scale = _normal_form_ip(_work(work), 1, entries, {}, mono, budget.max_degree)
    return _to_polynomial(poly.ring, nf, mono, scale * den)


# Krull dimension plus a witnessing independent set of variables.
DimensionResult = namedtuple("DimensionResult", "dimension independent_set")


def _min_hitting_set(supports, nvars):
    """Smallest set of variable indices meeting every support.

    Branch and bound; deterministic.  `supports` is an iterable of
    non-empty frozensets of variable indices.
    """
    sups = sorted({frozenset(s) for s in supports}, key=lambda s: (len(s), sorted(s)))
    # discard supersets: hitting a subset hits the superset
    minimal = [s for s in sups if not any(t < s for t in sups)]
    best = [list(range(nvars))]  # worst case: all variables

    def lower_bound(remaining):
        # greedy count of pairwise disjoint supports
        count = 0
        used = set()
        for s in remaining:
            if not (s & used):
                count += 1
                used |= s
        return count

    def search(remaining, chosen):
        if not remaining:
            if len(chosen) < len(best[0]):
                best[0] = sorted(chosen)
            return
        if len(chosen) + lower_bound(remaining) >= len(best[0]):
            return
        pivot = min(remaining, key=lambda s: (len(s), sorted(s)))
        for v in sorted(pivot):
            rest = [s for s in remaining if v not in s]
            search(rest, chosen + [v])

    search(minimal, [])
    return best[0]


def elimination_packing(nvars, degree, budget=None):
    """Packing of `nvars` fields for terms of `degree` and the cap; see
    block_order for its keys."""
    cap = (budget or DEFAULT_BUDGET).max_degree
    return _monomials(GREVLEX, nvars, max(degree, cap))


def block_order(mono, fields, k, degree, budget=None):
    """(packing, eliminated) for elimination_dimension: `mono` keyed by
    Block(k) grevlex on the variables at `fields` (field indices, in that
    sequence), for terms of `degree` and the cap, and the mask of every
    field but fields[k:], the kept ones.  The keys are those of a packing
    of the variables in that sequence alone; fields outside `fields` hold
    no variable, get weight 0 and count as eliminated."""
    cap = (budget or DEFAULT_BUDGET).max_degree
    weights = [0] * len(mono.offsets)
    for i, w in zip(fields, Block(k, GREVLEX).weights(len(fields), 2 * max(degree, cap))):
        weights[i] = -w  # negated, as in _Monomials
    keyed = object.__new__(_Monomials)
    keyed.__dict__.update(mono.__dict__, weights=tuple(weights))
    full = (1 << mono.width) - 1
    kept = sum(full << mono.offsets[i] for i in fields[k:])
    everything = (1 << len(mono.offsets) * mono.width) - 1
    return keyed, everything & ~kept


def _zero_set_system(polys, mono):
    """Packed dicts with the zero set of `polys` and no pure power.

    A one-term c*x^a, a >= 1 in the single variable x, kills x: every
    term containing a killed variable is dropped from every polynomial,
    polynomials left empty go, and rounds repeat until none kills more.
    Each killed x then enters as the generator x, so its lead still pins
    it.  The zero set is unchanged: c*x^a puts it on x = 0, where every
    other polynomial equals itself minus its x-terms.  A one-term
    constant stays; a basis run ends at it.  New dicts are built, since
    callers share theirs between systems.
    """
    killed = 0  # the fields of the killed variables
    units = []
    polys = [p for p in polys if p]
    while True:
        mask = killed
        for p in polys:
            v = len(p) == 1 and next(iter(p)) & mono.var_values
            if not v:
                continue
            o = ((v & -v).bit_length() - 1) // mono.width * mono.width
            field = mono.field << o
            if not v & ~field and not mask & field:
                mask |= field
                units.append({1 << o | 1 << mono.degree_offset: 1})
        if mask == killed:
            return polys + units
        killed = mask
        polys = [q for q in ({m: c for m, c in p.items() if not m & killed} for p in polys) if q]


def elimination_dimension(polys, mono, eliminated, budget=None, grading=None, keys=None):
    """Dimension of the closure of V(polys) projected away from the
    variables whose fields are in the mask `eliminated`, -1 when V(polys)
    is empty; `polys` are dicts {packed monomial: int} in `mono`, from
    block_order, on one scale.  Every field outside the mask is a kept
    variable, whether or not a polynomial uses it.

    That closure, and so its dimension, depends on the zero set V(polys)
    only, so _zero_set_system first replaces each pure power c*x^a by x
    and drops the terms in x from the other polynomials.  A nonzero
    constant left by that pass proves V empty, and the result is -1
    before any key or basis run; a saturator 1 - w*g whose g vanishes
    once the killed variables are 0 leaves such a constant.

    Dimension reads only the leads of the basis elements free of the
    eliminated variables, and the minimal basis has the reduced basis's
    leads: no interreduction, no conversion to Polynomials.  A lead's
    support is read as a mask of the guard bits of its nonzero fields.
    A single-variable support puts its variable in every hitting set, so
    those variables are counted and the supports they meet dropped; only
    what is left goes to _min_hitting_set.  With `grading`, a weight per
    field of `mono`, pairs are selected by sugar in it; a contact cell
    passes its arc grading, in which every closed generator is
    weighted-homogeneous.  `keys`, a dict {packed monomial: order key}
    for `mono`, memoizes the keys across calls that share it.
    """
    budget = budget or DEFAULT_BUDGET
    system = _zero_set_system(polys, mono)
    for p in system:
        # the largest packed monomial has the largest degree field
        _check_input_degree(max(p) >> mono.degree_offset, budget.max_degree)
    if any(len(p) == 1 and 0 in p for p in system):
        return -1
    keys = {} if keys is None else keys
    inputs = []
    for p in system:
        ip = []
        for m, c in p.items():
            key = keys.get(m)
            if key is None:
                key = keys[m] = mono.key(m)
            ip.append((key, m, c))
        ip.sort()
        inputs.append(ip)
    inputs.sort(key=_processing_order)
    top = 1 << (mono.width - 1)  # a field's guard bit
    guards = mono.units * top
    forced = 0  # the guard bits of the single-variable supports
    mixed = []
    for lm, _, _ in _minimal_basis(inputs, mono, budget, grading):
        v = lm & mono.var_values
        if not v:
            return -1  # a constant lead
        if v & eliminated:
            continue
        # a field topped by its guard bit keeps that bit, less 1, just when nonzero
        support = ((v | guards) - mono.units) & guards
        if support & (support - 1):
            mixed.append(support)
        else:
            forced |= support
    nvars = len(mono.offsets)
    supports = [
        {i for i, o in enumerate(mono.offsets) if s >> o & top} for s in mixed if not s & forced
    ]
    hitting = len(_min_hitting_set(supports, nvars)) if supports else 0
    kept = nvars - (eliminated & mono.units).bit_count()
    return kept - forced.bit_count() - hitting


class Ideal:
    """An ideal of a polynomial ring, given by generators.

    Groebner bases are cached per term order.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        clean = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise PreconditionError("ideal generators must be Polynomials")
            if g.ring != ring:
                raise RingMismatchError("generator ring does not match ideal ring")
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self._gb_cache = {}

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside})"

    def groebner_basis(self, order=GREVLEX, budget=None):
        tag = order.tag()
        if tag not in self._gb_cache:
            self._gb_cache[tag] = reduced_groebner(self.gens, order, budget)
        return self._gb_cache[tag]

    def reduce(self, poly, order=GREVLEX, budget=None):
        gb = self.groebner_basis(order, budget)
        return normal_form(poly, gb, order, budget)

    def contains(self, poly, budget=None):
        return self.reduce(poly, GREVLEX, budget).is_zero()

    def is_trivial(self, budget=None):
        gb = self.groebner_basis(GREVLEX, budget)
        return any(g.is_constant() for g in gb)

    def is_zero_ideal(self):
        return not self.gens  # __init__ drops zero generators

    def equals(self, other, budget=None):
        if self.ring != other.ring:
            return False
        return self.groebner_basis(GREVLEX, budget) == other.groebner_basis(
            GREVLEX, budget
        )

    def __add__(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("ideal sum requires a common ring")
        return Ideal(self.ring, self.gens + other.gens)

    def translate(self, point):
        return Ideal(self.ring, tuple(g.translate(point) for g in self.gens))

    # -- elimination-based operations -----------------------------------

    def eliminate(self, k, budget=None):
        """Intersect with the subring omitting the first k variables."""
        if not 0 <= k <= self.ring.ngens:
            raise PreconditionError(f"cannot eliminate {k} of {self.ring.ngens} variables")
        if k == 0:
            return self
        target = Ring(self.ring.names[k:])
        order = Block(k, GREVLEX)
        gb = reduced_groebner(self.gens, order, budget)
        kept = [
            _from_clean(target, {e[k:]: c for e, c in g.terms.items()})
            for g in gb
            if not any(any(e[:k]) for e in g.terms)
        ]
        # the block order restricted to the kept variables is grevlex, so
        # the kept elements are already their ideal's reduced grevlex basis
        eliminated = Ideal(target, tuple(kept))
        eliminated._gb_cache[GREVLEX.tag()] = eliminated.gens
        return eliminated

    def saturate(self, f, budget=None):
        """I : (g_1, ..., g_k)^inf, for `f` one polynomial or a sequence of
        them (zeros are dropped): the fresh t_i eliminated from
        (I, 1 - t_1*g_1 - ... - t_k*g_k)."""
        gs = [g for g in ((f,) if isinstance(f, Polynomial) else f) if not g.is_zero()]
        if not gs:
            raise PreconditionError("cannot saturate by zero")
        if any(g.ring != self.ring for g in gs):
            raise RingMismatchError("saturation element in wrong ring")
        if any(g.is_constant() for g in gs):
            return self
        names, k = self.ring.names, len(gs)
        fresh = ()
        for _ in gs:
            fresh += (fresh_name("t", names + fresh),)
        big = Ring(fresh + names)
        # term dicts in the big ring: each g's exponents behind k fresh ones
        pad = (0,) * k
        lifted = [_from_clean(big, {pad + e: c for e, c in g.terms.items()}) for g in self.gens]
        last = {pad + (0,) * len(names): Fraction(1)}
        for i, g in enumerate(gs):
            t = pad[:i] + (1,) + pad[i + 1 :]
            last.update({t + e: -c for e, c in g.terms.items()})
        return Ideal(big, (*lifted, _from_clean(big, last))).eliminate(k, budget)

    def intersect_with(self, other, budget=None):
        if self.ring != other.ring:
            raise RingMismatchError("intersection requires a common ring")
        names = self.ring.names
        t = fresh_name("t", names)
        big = Ring((t,) + names)
        index_map = {i: i + 1 for i in range(len(names))}
        tv = big.var(0)
        gens = [tv * map_variables(g, big, index_map) for g in self.gens]
        gens += [(big.one() - tv) * map_variables(g, big, index_map) for g in other.gens]
        return Ideal(big, tuple(gens)).eliminate(1, budget)

    # -- dimension -------------------------------------------------------

    def krull_dimension(self, budget=None):
        """Dimension of the quotient ring, with a maximal independent set.

        The empty variety (trivial ideal) reports dimension -1.  A single
        nonconstant generator needs no basis run: by Krull's principal
        ideal theorem every component of V(f) has dimension n - 1, and the
        basis route, whose one element is f made monic, hits the first
        variable of f's grevlex leading monomial.  Its degree is checked
        against the budget as reduced_groebner would.
        """
        n = self.ring.ngens
        if len(self.gens) == 1:
            (f,) = self.gens
            _check_input_degree(f.degree(), (budget or DEFAULT_BUDGET).max_degree)
            if f.is_constant():
                return DimensionResult(-1, ())
            first = next(i for i, e in enumerate(f.leading_monomial(GREVLEX)) if e)
            return DimensionResult(n - 1, self.ring.names[:first] + self.ring.names[first + 1 :])
        gb = self.groebner_basis(GREVLEX, budget)
        if any(g.is_constant() for g in gb):
            return DimensionResult(-1, ())
        leads = [g.leading_monomial(GREVLEX) for g in gb]
        hitting = set(_min_hitting_set([{i for i, e in enumerate(lm) if e} for lm in leads], n))
        independent = tuple(x for i, x in enumerate(self.ring.names) if i not in hitting)
        return DimensionResult(n - len(hitting), independent)


def lcm_poly(f, g, budget=None):
    """Least common multiple of two polynomials, monic."""
    if f.is_zero() or g.is_zero():
        return f.ring.zero()
    meet = Ideal(f.ring, (f,)).intersect_with(Ideal(g.ring, (g,)), budget)
    gens = meet.groebner_basis(GREVLEX, budget)
    if len(gens) != 1:
        raise PreconditionError("intersection of principal ideals was not principal")
    return gens[0]


def gcd_poly(f, g, budget=None):
    """Greatest common divisor via lcm, normalized monic."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    m = lcm_poly(f, g, budget)
    return divide_exact(f * g, m).monic()
