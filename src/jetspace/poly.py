"""Sparse multivariate polynomials over the rationals.

A Polynomial stores {exponent_tuple: Fraction} with no zero coefficients.
All coefficients are exact Fractions; floats are rejected.  Polynomials are
immutable in practice: no method mutates terms after construction.

Printing is canonical: terms appear in descending grevlex order with
explicit '*' between factors and '^' for powers, so equal polynomials always
produce identical strings.  The parser in parser.py accepts everything the
printer emits.
"""

from __future__ import annotations

import re
from fractions import Fraction

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
        return Polynomial(self, {exps: Fraction(1)})

    def gens(self):
        return tuple(self.var(i) for i in range(len(self.names)))

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = _coerce(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * len(self.names): c})

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != len(self.names) or any(e < 0 for e in exps):
            raise PreconditionError(f"bad exponent vector {exps}")
        coeff = _coerce(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {exps: coeff})

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Ring({', '.join(self.names)})"


def _coerce(c):
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

    def constant_value(self):
        """The value of a constant polynomial as a Fraction."""
        if not self.is_constant():
            raise PreconditionError("polynomial is not constant")
        if not self.terms:
            return Fraction(0)
        return next(iter(self.terms.values()))

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
        return Polynomial(self.ring, {e: c for e, c in self.terms.items() if sum(e) == d})

    def homogeneous_part(self, d):
        return Polynomial(self.ring, {e: c for e, c in self.terms.items() if sum(e) == d})

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

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
        return Polynomial(self.ring, {e: v / c for e, v in self.terms.items()})

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands live in {self.ring!r} and {other.ring!r}"
            )

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _lift(self, other):
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
        return Polynomial(self.ring, out)

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
        return self.substitute({i: self.ring.var(i) + c for i, c in enumerate(point)})

    def set_vars_zero(self, indices):
        """Substitute 0 for the given variables (ring unchanged)."""
        idx = set(indices)
        out = {e: c for e, c in self.terms.items() if all(e[i] == 0 for i in idx)}
        return Polynomial(self.ring, out)

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
    return Polynomial(new_ring, out)


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
