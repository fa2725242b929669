"""Groebner bases, ideals, and ideal-theoretic operations.

The engine is Buchberger's algorithm with the Gebauer-Moeller pair
criteria (coprime-head criterion, minimal-lcm filtering among new pairs,
and the chain criterion on old pairs), normal pair selection, and full
tail reduction at the end.  Output is always the reduced Groebner basis,
which is unique per (ideal, order), so results are reproducible byte for
byte no matter how the computation was scheduled.

Polynomials are handled internally as lists of (sort_key, exponents,
coefficient) kept in descending key order; merging two such lists replaces
dictionary arithmetic in the inner loop.

Budgets: every basis computation counts selected S-pairs and watches term
degrees.  Exceeding either cap raises BudgetExhausted instead of returning
a partial basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExhausted, PreconditionError, RingMismatchError
from .orders import GREVLEX, Block
from .poly import Polynomial, Ring, divide_exact, fresh_name, map_variables


@dataclass(frozen=True)
class Budget:
    """Caps for a single Groebner basis run."""

    max_pairs: int = 200_000
    max_degree: int = 64


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------
# internal polynomial representation: list[(key, exps, coeff)] sorted by
# key, descending; no zero coefficients
# ---------------------------------------------------------------------


def _to_internal(poly, order):
    items = [(order.key(e), e, c) for e, c in poly.terms.items()]
    items.sort(key=lambda t: t[0], reverse=True)
    return items


def _from_internal(ring, ip):
    return Polynomial(ring, {e: c for _, e, c in ip})


def _divides(a, b):
    """Does monomial a divide monomial b?"""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _emax(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _is_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _shift_scaled(ip, shift, scale, order, max_degree):
    """scale * x^shift * ip, still sorted descending."""
    out = []
    if all(s == 0 for s in shift):
        for k, e, c in ip:
            out.append((k, e, c * scale))
        return out
    for _, e, c in ip:
        ne = tuple(x + y for x, y in zip(e, shift))
        if sum(ne) > max_degree:
            raise BudgetExhausted(
                f"term degree {sum(ne)} exceeds cap {max_degree}",
                degree=sum(ne),
            )
        out.append((order.key(ne), ne, c * scale))
    return out


def _merge_sub(f, g):
    """f - g for two internal polys (both sorted descending)."""
    out = []
    i = j = 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        kf, kg = f[i][0], g[j][0]
        if kf > kg:
            out.append(f[i])
            i += 1
        elif kf < kg:
            k, e, c = g[j]
            out.append((k, e, -c))
            j += 1
        else:
            c = f[i][2] - g[j][2]
            if c:
                out.append((f[i][0], f[i][1], c))
            i += 1
            j += 1
    out.extend(f[i:])
    for k, e, c in g[j:]:
        out.append((k, e, -c))
    return out


def _normal_form_ip(work, basis, order, max_degree):
    """Full normal form of `work` against the (monic) basis entries.

    basis entries are (lm_exps, lm_key, ip).  Returns a new internal poly.
    """
    result = []
    while work:
        key, exps, coeff = work[0]
        reducer = None
        for lm_e, _, rip in basis:
            if _divides(lm_e, exps):
                reducer = rip
                break
        if reducer is None:
            result.append(work[0])
            work = work[1:]
            continue
        shift = tuple(a - b for a, b in zip(exps, reducer[0][1]))
        scaled = _shift_scaled(reducer, shift, coeff, order, max_degree)
        work = _merge_sub(work, scaled)
    return result


def _monic_ip(ip):
    lc = ip[0][2]
    if lc == 1:
        return ip
    return [(k, e, c / lc) for k, e, c in ip]


def reduced_groebner(gens, order=GREVLEX, budget=None):
    """Reduced Groebner basis of the ideal generated by `gens`.

    Returns a tuple of monic Polynomials sorted by leading monomial,
    largest first.  The zero ideal yields the empty tuple.
    """
    budget = budget or DEFAULT_BUDGET
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
        if g.degree() > budget.max_degree:
            raise BudgetExhausted(
                f"input degree {g.degree()} exceeds cap {budget.max_degree}",
                degree=g.degree(),
            )

    inputs = [_to_internal(g, order) for g in gens]
    inputs.sort(key=lambda ip: ([t[0] for t in ip], [t[2] for t in ip]))

    basis = []  # (lm_exps, lm_key, ip), insertion order
    pairs = {}  # (i, j) i<j -> (lcm_key, lcm_exps)
    pairs_done = 0

    def add_element(ip):
        """Gebauer-Moeller update with the new (monic) element."""
        t = len(basis)
        lm_t = ip[0][1]

        candidates = []
        for i in range(t):
            lcm_e = _emax(basis[i][0], lm_t)
            candidates.append((order.key(lcm_e), lcm_e, i))
        candidates.sort(key=lambda x: (x[0], x[2]))

        # keep only pairs whose lcm is not a proper multiple of the lcm of
        # an earlier-kept pair; candidates are scanned in ascending order,
        # so any divisor has already been seen
        kept = []  # (lcm_key, lcm_exps, i)
        for lcm_k, lcm_e, i in candidates:
            if _is_coprime(basis[i][0], lm_t):
                continue
            if any(_divides(le2, lcm_e) for _, le2, _ in kept):
                continue
            kept.append((lcm_k, lcm_e, i))

        # chain criterion against existing pairs
        for (i, j), (lcm_k, lcm_e) in list(pairs.items()):
            if (
                _divides(lm_t, lcm_e)
                and _emax(basis[i][0], lm_t) != lcm_e
                and _emax(basis[j][0], lm_t) != lcm_e
            ):
                del pairs[(i, j)]

        for lcm_k, lcm_e, i in kept:
            pairs[(i, t)] = (lcm_k, lcm_e)
        basis.append((lm_t, ip[0][0], ip))

    for ip in inputs:
        nf = _normal_form_ip(ip, basis, order, budget.max_degree)
        if nf:
            add_element(_monic_ip(nf))

    while pairs:
        sel = min(pairs, key=lambda p: (pairs[p][0], p[0], p[1]))
        lcm_k, lcm_e = pairs.pop(sel)
        pairs_done += 1
        if pairs_done > budget.max_pairs:
            raise BudgetExhausted(
                f"pair budget {budget.max_pairs} exhausted",
                pairs_done=pairs_done,
            )
        if sum(lcm_e) > budget.max_degree:
            raise BudgetExhausted(
                f"S-pair degree {sum(lcm_e)} exceeds cap {budget.max_degree}",
                pairs_done=pairs_done,
                degree=sum(lcm_e),
            )
        i, j = sel
        fi, fj = basis[i][2], basis[j][2]
        shift_i = tuple(a - b for a, b in zip(lcm_e, fi[0][1]))
        shift_j = tuple(a - b for a, b in zip(lcm_e, fj[0][1]))
        s = _merge_sub(
            _shift_scaled(fi, shift_i, Fraction(1), order, budget.max_degree),
            _shift_scaled(fj, shift_j, Fraction(1), order, budget.max_degree),
        )
        nf = _normal_form_ip(s, basis, order, budget.max_degree)
        if nf:
            add_element(_monic_ip(nf))

    # minimalize: drop elements whose lead is divisible by another lead
    lms = [entry[0] for entry in basis]
    minimal = []
    for idx, (lm_e, lm_k, ip) in enumerate(basis):
        if any(
            other != idx and _divides(lms[other], lm_e) for other in range(len(basis))
        ):
            continue
        minimal.append((lm_e, lm_k, ip))

    # interreduce tails; leads are pairwise non-divisible so one pass works
    reduced = []
    for pos, (lm_e, lm_k, ip) in enumerate(minimal):
        others = [minimal[q] for q in range(len(minimal)) if q != pos]
        nf = _normal_form_ip(ip, others, order, budget.max_degree)
        reduced.append((lm_k, _monic_ip(nf)))

    reduced.sort(key=lambda t: t[0], reverse=True)
    return tuple(_from_internal(ring, ip) for _, ip in reduced)


def normal_form(poly, basis_polys, order=GREVLEX, budget=None):
    """Normal form of `poly` modulo a list of polynomials."""
    budget = budget or DEFAULT_BUDGET
    entries = []
    for g in basis_polys:
        if g.is_zero():
            continue
        gm = g.monic(order)
        ip = _to_internal(gm, order)
        entries.append((ip[0][1], ip[0][0], ip))
    work = _to_internal(poly, order)
    nf = _normal_form_ip(work, entries, order, budget.max_degree)
    return _from_internal(poly.ring, nf)


@dataclass(frozen=True)
class DimensionResult:
    """Krull dimension plus a witnessing independent set of variables."""

    dimension: int
    independent_set: tuple


def _min_hitting_set(supports, nvars):
    """Smallest set of variable indices meeting every support.

    Branch and bound; deterministic.  `supports` is an iterable of
    non-empty frozensets of variable indices.
    """
    sups = sorted({frozenset(s) for s in supports}, key=lambda s: (len(s), sorted(s)))
    # discard supersets: hitting a subset hits the superset
    minimal = []
    for s in sups:
        if not any(t < s for t in sups if t != s):
            if not any(t == s for t in minimal):
                minimal.append(s)
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

    def is_zero_ideal(self, budget=None):
        return not self.groebner_basis(GREVLEX, budget)

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
        if k == self.ring.ngens:
            # everything eliminated: constants only
            gb = self.groebner_basis(GREVLEX, budget)
            if any(g.is_constant() for g in gb):
                return Ideal(target, (target.one(),))
            return Ideal(target, ())
        order = Block(k, GREVLEX)
        gb = reduced_groebner(self.gens, order, budget)
        index_map = {i + k: i for i in range(self.ring.ngens - k)}
        kept = []
        for g in gb:
            if all(all(e[i] == 0 for i in range(k)) for e in g.terms):
                kept.append(map_variables(g, target, index_map))
        return Ideal(target, tuple(kept))

    def saturate(self, f, budget=None):
        """Saturation: everything that lands in the ideal after enough
        multiplications by f."""
        if f.is_zero():
            raise PreconditionError("cannot saturate by zero")
        if f.ring != self.ring:
            raise RingMismatchError("saturation element in wrong ring")
        if f.is_constant():
            return self
        names = self.ring.names
        w = fresh_name("t", names)
        big = Ring((w,) + names)
        index_map = {i: i + 1 for i in range(len(names))}
        lifted = [map_variables(g, big, index_map) for g in self.gens]
        f_big = map_variables(f, big, index_map)
        lifted.append(big.one() - big.var(0) * f_big)
        return Ideal(big, tuple(lifted)).eliminate(1, budget)

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

        The empty variety (trivial ideal) reports dimension -1.
        """
        gb = self.groebner_basis(GREVLEX, budget)
        n = self.ring.ngens
        if any(g.is_constant() for g in gb):
            return DimensionResult(-1, ())
        supports = []
        for g in gb:
            lm = g.leading_monomial(GREVLEX)
            supports.append(frozenset(i for i, e in enumerate(lm) if e))
        if not supports:
            return DimensionResult(n, self.ring.names)
        hitting = _min_hitting_set(supports, n)
        independent = tuple(
            self.ring.names[i] for i in range(n) if i not in set(hitting)
        )
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
