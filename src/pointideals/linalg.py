"""Exact incremental echelon kernel over the rationals, on integer rows.

An incoming vector v is scaled by D, the lcm of its entries' denominators,
to the integer vector w = D * v, then reduced once against the stored rows
by fraction-free cross-multiplication: its entry a at the pivot of a row
with pivot entry b is cleared by multiplying it by b/g and subtracting the
row times a/g, where g = gcd(a, b).  An integer transform t rides along, so
that it always equals t_new * w + sum(t_j * w_j) over the stored vectors
w_j = D_j * v_j.  If something is left, it is stored, together with its
transform, divided by the gcd of all their entries and signed so that the
pivot (the first nonzero entry) is positive.  If nothing is left, v is
sum(c_j * v_j) with c_j = -t_j * D_j / (t_new * D): the only Fractions the
kernel builds.  Nothing is re-solved from scratch, so k additions of
length-L vectors cost O(k * rank * (L + rank)) operations on ints.

Entries are ints or Fractions; there is no floating point, so rank and
dependency are exact predicates and every coefficient is an exact rational.
"""

from fractions import Fraction
from math import gcd, lcm


class Echelon:
    """Incremental row echelon form of a growing list of equal-length
    vectors.

    Stored row k is (pivot, row, transform, D_k): the integer row equals
    sum(transform[j] * D_j * v_j for j <= k) over the stored vectors v_j.
    It is zero at the pivots before its own, and row[pivot] > 0.
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
        rem, transform, scale = self._reduce(vec)
        if self._length is None:
            self._length = len(rem)
        pivot = next((i for i, x in enumerate(rem) if x), None)
        if pivot is None:
            return self._coefficients(transform, scale)
        g = gcd(*rem, *transform) if rem[pivot] > 0 else -gcd(*rem, *transform)
        self._rows.append((pivot, [x // g for x in rem], [t // g for t in transform], scale))
        return None

    def _reduce(self, vec):
        """Clear vec of its pivot entries by cross-multiplication; returns
        the remainder, its transform (the last entry is vec's) and D."""
        if self._length is not None and len(vec) != self._length:
            raise ValueError("vector has length %d, expected %d" % (len(vec), self._length))
        scale = lcm(*(x.denominator for x in vec))
        rem = [x.numerator * (scale // x.denominator) for x in vec]
        transform = [0] * len(self._rows) + [1]
        for pivot, row, row_transform, _ in self._rows:
            a = rem[pivot]
            if a:
                g = gcd(a, row[pivot])
                a, b = a // g, row[pivot] // g
                rem = [b * x - a * y for x, y in zip(rem, row)]
                tail = [b * t for t in transform[len(row_transform) :]]
                transform = [b * t - a * u for t, u in zip(transform, row_transform)] + tail
        return rem, transform, scale

    def _coefficients(self, transform, scale):
        return [Fraction(-t * row[3], transform[-1] * scale) for t, row in zip(transform, self._rows)]
