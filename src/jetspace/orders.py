"""Monomial orders as sort keys and as integer matrices.

Every order exposes key(exps) returning a tuple that sorts ascending, so the
largest monomial under the order has the largest key.  Orders also expose a
hashable tag() used to cache Groebner bases per order, and compare(a, b)
returning -1/0/1 for callers that want a comparator.

Every order here is a matrix order: rows(n) gives integer rows whose dot
products with an exponent vector, compared lexicographically, rank
monomials exactly as key() does.  weights(n, degree) folds those rows,
mixed-radix, into one integer weight vector w, so that on monomials of
total degree at most `degree` the single integer w.e ranks them as key()
does.  Because w.e is linear, the weight of a product is the sum of the
weights; the Groebner kernel relies on that.

Exponent vectors are plain tuples of non-negative ints.  The key functions
never inspect a ring, so one order object works for any arity; rows(n) and
weights(n, degree) take the arity explicitly.
"""


class TermOrder:
    """Base class; subclasses implement key(), rows() and tag()."""

    def key(self, exps):
        raise NotImplementedError

    def rows(self, n):
        """Integer rows, each of length n, of this order's matrix."""
        raise NotImplementedError

    def tag(self):
        raise NotImplementedError

    def weights(self, n, degree):
        """One integer weight vector ranking monomials of total degree at
        most `degree` in n variables as key() does.

        Row r is scaled by the product of the radices of the rows after
        it; a row's radix exceeds the largest difference its dot product
        can take between two such monomials, so no later row can
        overturn an earlier one.
        """
        weights = [0] * n
        for row in self.rows(n):
            radix = (max((0, *row)) - min((0, *row))) * degree + 1
            weights = [w * radix + r for w, r in zip(weights, row)]
        return tuple(weights)

    def compare(self, a, b):
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    def __repr__(self):
        return str(self.tag())

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.tag() == other.tag()

    def __hash__(self):
        return hash(self.tag())


def _units(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class Lex(TermOrder):
    """Pure lexicographic: earlier variables dominate."""

    def key(self, exps):
        return exps

    def rows(self, n):
        return _units(n)

    def tag(self):
        return ("lex",)


class GrLex(TermOrder):
    """Total degree, ties broken lexicographically."""

    def key(self, exps):
        return (sum(exps), exps)

    def rows(self, n):
        return ((1,) * n,) + _units(n)

    def tag(self):
        return ("grlex",)


class GrevLex(TermOrder):
    """Total degree, ties broken by reverse lexicographic comparison.

    Between monomials of equal degree the one with the smaller exponent on
    the last differing variable (scanning from the right) is larger.
    """

    def key(self, exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def rows(self, n):
        return ((1,) * n,) + tuple(
            tuple(-u for u in unit) for unit in reversed(_units(n))
        )

    def weights(self, n, degree):
        """The fold of rows(n) in closed form: every row has radix
        R = degree + 1, so w_i = R^n - R^i."""
        radix = degree + 1
        return tuple(radix**n - radix**i for i in range(n))

    def tag(self):
        return ("grevlex",)


LEX = Lex()
GRLEX = GrLex()
GREVLEX = GrevLex()


class Block(TermOrder):
    """Eliminates the first k variables.

    The first block is compared by grevlex; any monomial containing one of
    the first k variables beats every monomial that avoids them, which is
    exactly the elimination property.  Ties fall through to `inner` on the
    remaining variables.
    """

    def __init__(self, k, inner=GREVLEX):
        if k < 0:
            raise ValueError("block size must be non-negative")
        self.k = k
        self.inner = inner

    def key(self, exps):
        head = exps[: self.k]
        tail = exps[self.k :]
        return (GREVLEX.key(head), self.inner.key(tail))

    def rows(self, n):
        k = min(self.k, n)
        head = tuple(row + (0,) * (n - k) for row in GREVLEX.rows(k))
        tail = tuple((0,) * k + row for row in self.inner.rows(n - k))
        return head + tail

    def weights(self, n, degree):
        """With a grevlex tail, the fold of rows(n) in closed form: the
        head's grevlex weights scaled by the radices R = degree + 1 of the
        tail's n - k + 1 rows (by 1 when k = n, where the tail's one row
        is zero), then the tail's grevlex weights."""
        if not isinstance(self.inner, GrevLex):
            return super().weights(n, degree)
        k = min(self.k, n)
        scale = (degree + 1) ** (n - k + 1) if k < n else 1
        head = GREVLEX.weights(k, degree)
        return tuple(w * scale for w in head) + GREVLEX.weights(n - k, degree)

    def tag(self):
        return ("block", self.k, self.inner.tag())


class Weight(TermOrder):
    """Compare by a weight vector first, then by a tiebreak order.

    Nesting Weight inside Weight builds matrix orders; the tangent-cone
    computation uses Weight(all-ones, Weight(unit-vector, GREVLEX)).
    """

    def __init__(self, vector, tiebreak=GREVLEX):
        self.vector = tuple(vector)
        self.tiebreak = tiebreak

    def key(self, exps):
        if len(exps) != len(self.vector):
            raise ValueError(
                f"weight vector has length {len(self.vector)}, "
                f"exponent vector has length {len(exps)}"
            )
        dot = sum(w * e for w, e in zip(self.vector, exps))
        return (dot, self.tiebreak.key(exps))

    def rows(self, n):
        if n != len(self.vector):
            raise ValueError(
                f"weight vector has length {len(self.vector)}, "
                f"exponent vector has length {n}"
            )
        return (self.vector,) + self.tiebreak.rows(n)

    def tag(self):
        return ("weight", self.vector, self.tiebreak.tag())
