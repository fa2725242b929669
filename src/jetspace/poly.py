"""Sparse multivariate polynomials over the rationals.

A Polynomial stores {exponent_tuple: Fraction} with no zero coefficients.
All coefficients are exact Fractions; floats are rejected.  Polynomials are
immutable in practice: no method mutates terms after construction.

Only Polynomial() validates its terms.  Arithmetic results, already
clean, go through _from_clean; their term dicts come from add_terms,
mul_terms and pow_terms.  The parser calls those helpers too, on int or
Fraction coefficients, so a parse builds one Polynomial per expression
with the terms in the order the operators give them.

Printing is canonical: terms appear in descending grevlex order with
explicit '*' between factors and '^' for powers, so equal polynomials always
produce identical strings.  The parser in parser.py accepts everything the
printer emits.
"""

import re
from fractions import Fraction
from operator import add

from .errors import PreconditionError, RingMismatchError
from .orders import GREVLEX

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Ring:
    """A polynomial ring over the rationals with named variables."""

    __slots__ = ("names", "_index", "_hash")

    def __init__(self, names):
        names = tuple(names)
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise PreconditionError(f"invalid variable name: {name!r}")
            if name in seen:
                raise PreconditionError(f"duplicate variable name: {name!r}")
            seen.add(name)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_hash", hash(names))

    def __setattr__(self, key, value):
        raise AttributeError("Ring is immutable")

    @property
    def ngens(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise PreconditionError(f"unknown variable: {name!r}") from None

    def var(self, i):
        """The i-th variable as a polynomial."""
        if not 0 <= i < len(self.names):
            raise PreconditionError(f"variable index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return _from_clean(self, {exps: Fraction(1)})

    def gens(self):
        return tuple(self.var(i) for i in range(len(self.names)))

    def zero(self):
        return _from_clean(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = _coerce(c)
        if c == 0:
            return self.zero()
        return _from_clean(self, {(0,) * len(self.names): c})

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != len(self.names) or any(e < 0 for e in exps):
            raise PreconditionError(f"bad exponent vector {exps}")
        coeff = _coerce(coeff)
        if coeff == 0:
            return self.zero()
        return _from_clean(self, {exps: coeff})

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Ring({', '.join(self.names)})"


def _coerce(c):
    if c.__class__ is Fraction:
        return c
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise PreconditionError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class Polynomial:
    """Immutable sparse polynomial attached to a Ring."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        clean = {}
        n = ring.ngens
        for exps, coeff in terms.items():
            coeff = _coerce(coeff)
            if coeff == 0:
                continue
            if len(exps) != n:
                raise PreconditionError(
                    f"exponent vector {exps} does not match ring arity {n}"
                )
            clean[exps] = coeff
        self.terms = clean
        self._hash = None

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    # -- degree data --------------------------------------------------

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        return max(sum(e) for e in self.terms)

    def min_degree(self):
        """Smallest total degree among terms; +inf for zero."""
        if not self.terms:
            return float("inf")
        return min(sum(e) for e in self.terms)

    def initial_form(self):
        """Sum of the terms of lowest total degree."""
        if not self.terms:
            return self
        d = self.min_degree()
        return _from_clean(self.ring, {e: c for e, c in self.terms.items() if sum(e) == d})

    # -- leading data -------------------------------------------------

    def leading_monomial(self, order=GREVLEX):
        if not self.terms:
            raise PreconditionError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order=GREVLEX):
        return self.terms[self.leading_monomial(order)]

    def monic(self, order=GREVLEX):
        """Divide by the leading coefficient; zero stays zero."""
        if not self.terms:
            return self
        c = self.leading_coefficient(order)
        if c == 1:
            return self
        return _from_clean(self.ring, {e: v / c for e, v in self.terms.items()})

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"operands live in {self.ring!r} and {other.ring!r}"
            )

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        return _from_clean(self.ring, add_terms(self.terms, other.terms))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _from_clean(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is not Polynomial and isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if c == 0:
                return self.ring.zero()
            return _from_clean(self.ring, {e: v * c for e, v in self.terms.items()})
        self._check(other)
        return _from_clean(self.ring, mul_terms(self.terms, other.terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("exponent must be a non-negative integer")
        return _from_clean(self.ring, pow_terms(self.terms, n, self.ring.ngens))

    def _lift(self, other):
        if other.__class__ is Polynomial:
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        if isinstance(other, Polynomial):
            return other
        raise PreconditionError(f"cannot combine polynomial with {type(other).__name__}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self.terms.items()))
            self._hash = hash((self.ring, items))
        return self._hash

    # -- calculus and substitution -------------------------------------

    def partial_derivative(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            out[tuple(new)] = c * e[i]
        return _from_clean(self.ring, out)

    def evaluate(self, point):
        """Evaluate at a full point (sequence of Fractions); returns Fraction."""
        point = [_coerce(c) for c in point]
        if len(point) != self.ring.ngens:
            raise PreconditionError("point arity does not match ring")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for exp, val in zip(e, point):
                if exp:
                    v *= val**exp
            total += v
        return total

    def translate(self, point):
        """Substitute x_i -> x_i + point_i for every variable."""
        point = [_coerce(c) for c in point]
        if len(point) != self.ring.ngens:
            raise PreconditionError("point arity does not match ring")
        if not any(point):
            return self
        return self.substitute({i: self.ring.var(i) + c for i, c in enumerate(point)})

    def substitute(self, values):
        """Substitute polynomials for variables.

        `values` maps variable index -> Polynomial in some common target
        ring (or int/Fraction).  Every variable with a nonzero exponent in
        any term must be mapped.
        """
        target = None
        subs = {}
        for i, v in values.items():
            if isinstance(v, Polynomial):
                if target is None:
                    target = v.ring
                elif target != v.ring:
                    raise RingMismatchError("substitution images live in different rings")
                subs[i] = v
        if target is None:
            target = self.ring
        for i, v in values.items():
            if not isinstance(v, Polynomial):
                subs[i] = target.constant(v)
        total = target.zero()
        cache = {}

        def power(i, k):
            if (i, k) not in cache:
                if k == 0:
                    cache[(i, k)] = target.one()
                else:
                    cache[(i, k)] = power(i, k - 1) * subs[i]
            return cache[(i, k)]

        for e, c in self.terms.items():
            term = target.constant(c)
            for i, exp in enumerate(e):
                if not exp:
                    continue
                if i not in subs:
                    raise PreconditionError(
                        f"variable {self.ring.names[i]} used but not substituted"
                    )
                term = term * power(i, exp)
            total = total + term
        return total

    # -- printing -------------------------------------------------------

    def _monomial_str(self, exps):
        parts = []
        for name, e in zip(self.ring.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=GREVLEX.key, reverse=True)
        pieces = []
        for k, exps in enumerate(ordered):
            coeff = self.terms[exps]
            mono = self._monomial_str(exps)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if k == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                sign = " + " if coeff > 0 else " - "
                pieces.append(sign + body)
        return "".join(pieces)

    def __repr__(self):
        return f"<{self}>"


def _from_clean(ring, terms):
    """A Polynomial on `terms` as is, a dict known to be clean: nonzero
    Fraction coefficients on exponent tuples of the ring's arity."""
    p = object.__new__(Polynomial)
    p.ring = ring
    p.terms = terms
    p._hash = None
    return p


def add_terms(a, b):
    """The term dict of a + b, for term dicts with no zero coefficient:
    a's monomials in their order, then b's new ones."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        elif s := s + c:
            out[e] = s
        else:
            del out[e]
    return out


def mul_terms(a, b):
    """The term dict of a * b, for term dicts with no zero coefficient,
    each product monomial where the loop over a's terms, then b's, first
    makes it."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e)
            if s is None:
                out[e] = c1 * c2
            elif s := s + c1 * c2:
                out[e] = s
            else:
                del out[e]
    return out


def pow_terms(a, n, nvars):
    """The term dict of a^n, for a term dict in `nvars` variables with no
    zero coefficient, by repeated squaring."""
    result = None  # the unit 1, until the first factor
    while n:
        if n & 1:
            result = a if result is None else mul_terms(result, a)
        n >>= 1
        if n:
            a = mul_terms(a, a)
    return {(0,) * nvars: Fraction(1)} if result is None else result


def fresh_name(base, taken):
    """`base` with underscores prepended until it is not among `taken`."""
    taken = set(taken)
    while base in taken:
        base = "_" + base
    return base


def map_variables(poly, new_ring, index_map):
    """Reindex variables into another ring.

    index_map[old_index] = new_index; variables absent from the map must not
    occur in the polynomial.
    """
    n = new_ring.ngens
    out = {}
    for e, c in poly.terms.items():
        new = [0] * n
        for i, exp in enumerate(e):
            if not exp:
                continue
            if i not in index_map:
                raise PreconditionError(
                    f"variable {poly.ring.names[i]} has no image in target ring"
                )
            new[index_map[i]] = exp
        out[tuple(new)] = out.get(tuple(new), 0) + c
    # terms merge, and may cancel, only when index_map is not injective
    return _from_clean(new_ring, {e: c for e, c in out.items() if c})


def divide_exact(f, g):
    """Return f/g when g divides f exactly; raise otherwise."""
    if g.is_zero():
        raise PreconditionError("division by zero polynomial")
    if f.is_zero():
        return f
    if f.ring != g.ring:
        raise RingMismatchError("divide_exact operands in different rings")
    ring = f.ring
    quotient = ring.zero()
    remainder = f
    g_lm = g.leading_monomial(GREVLEX)
    g_lc = g.terms[g_lm]
    while not remainder.is_zero():
        r_lm = remainder.leading_monomial(GREVLEX)
        diff = tuple(a - b for a, b in zip(r_lm, g_lm))
        if any(d < 0 for d in diff):
            raise PreconditionError("division is not exact")
        c = remainder.terms[r_lm] / g_lc
        mono = ring.monomial(diff, c)
        quotient = quotient + mono
        remainder = remainder - mono * g
    return quotient
