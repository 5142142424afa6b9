"""Exact incremental echelon kernel over the rationals.

An Echelon holds the vectors added to it so far in semi-echelon form.  A
vector is reduced once against the stored rows; if something is left, it is
normalized to 1 at its first nonzero entry (the pivot) and stored as a new
row, otherwise its dependency coefficients over the stored vectors are
recovered by back-substitution.  Nothing is ever re-solved from scratch, so
a sequence of k additions of length-L vectors costs O(k * rank * L).

Entries are Fractions (ints are accepted); there is no floating point, so
rank and dependency are exact predicates.
"""

from __future__ import annotations

from fractions import Fraction

_ONE = Fraction(1)


class Echelon:
    """Incremental row echelon form of a growing list of equal-length
    vectors.

    Stored row k is (pivot, row, inverse, factors): row is the k-th stored
    vector minus sum(factors[i] * row_i for i < k), scaled by inverse so
    that row[pivot] == 1.  Every row is zero at the pivots before its own.
    """

    def __init__(self):
        self._rows = []
        self._length = None  # fixed by the first vector added

    @property
    def rank(self):
        """Number of stored (linearly independent) vectors."""
        return len(self._rows)

    def add(self, vec):
        """Store vec if it is independent of the stored vectors and return
        None; otherwise store nothing and return its coefficients over the
        stored vectors, in the order they were stored."""
        rem, factors = self._reduce(vec)
        if self._length is None:
            self._length = len(rem)
        pivot = next((i for i, x in enumerate(rem) if x), None)
        if pivot is None:
            return self._back_substitute(factors)
        inverse = _ONE / rem[pivot]
        self._rows.append((pivot, [x * inverse for x in rem], inverse, factors))
        return None

    def query(self, vec):
        """Coefficients of vec over the stored vectors, or None if vec is
        independent of them; nothing is stored."""
        rem, factors = self._reduce(vec)
        if any(rem):
            return None
        return self._back_substitute(factors)

    def _reduce(self, vec):
        """Subtract from vec its projection on every stored row, in order;
        returns the remainder and the multiple taken of each row."""
        rem = list(vec)
        if self._length is not None and len(rem) != self._length:
            raise ValueError("vector has length %d, expected %d" % (len(rem), self._length))
        factors = []
        for pivot, row, _, _ in self._rows:
            f = rem[pivot]
            if f:
                rem = [x - f * y if y else x for x, y in zip(rem, row)]
            factors.append(f)
        return rem, factors

    def _back_substitute(self, factors):
        """Rewrite sum(factors[k] * row_k) over the stored vectors."""
        g = list(factors)
        coeffs = [Fraction(0)] * len(g)
        for k in range(len(g) - 1, -1, -1):
            if not g[k]:
                continue
            _, _, inverse, row_factors = self._rows[k]
            c = g[k] * inverse
            coeffs[k] = c
            for i, f in enumerate(row_factors):
                if f:
                    g[i] -= c * f
        return coeffs
