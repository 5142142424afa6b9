"""Exact incremental echelon kernel over the rationals, on integer rows.

Callers clear denominators (cleared, or a scale of their own): each vector
v reaches the kernel as an int row w over one positive int D, v = w / D.
The row is reduced once against the stored rows by fraction-free
cross-multiplication: its entry a at the pivot of a row with pivot entry b
is cleared by multiplying it by b/g and subtracting the row times a/g,
where g = gcd(a, b).  An integer transform t rides along, so that it always
equals t_new * w + sum(t_j * w_j) over the stored rows w_j = D_j * v_j.  If
something is left, it is stored, together with its transform, divided by
the gcd of all their entries and signed so that the pivot (the first
nonzero entry) is positive.  If nothing is left, v is sum(c_j * v_j) with
c_j = -t_j * D_j / (t_new * D): the only Fractions the kernel builds.
Nothing is re-solved from scratch, so k additions of length-L vectors cost
O(k * rank * (L + rank)) operations on ints.

There is no floating point, so rank and dependency are exact predicates
and every coefficient is an exact rational.
"""

from fractions import Fraction
from math import gcd, lcm


def cleared(xs):
    """(row, den) of the rationals xs, the form in which Echelon takes a
    vector: den is the lcm of their denominators and row the ints den * x."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


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

    def add(self, row, den):
        """Store the vector row/den (row a list of ints, den a positive int)
        if it is independent of the stored vectors and return None;
        otherwise store nothing and return its coefficients over the stored
        vectors, in the order they were stored."""
        if self._length is None:
            self._length = len(row)
        elif len(row) != self._length:
            raise ValueError("vector has length %d, expected %d" % (len(row), self._length))
        transform = [0] * len(self._rows) + [1]
        for pivot, stored, stored_transform, _ in self._rows:
            a = row[pivot]
            if a:
                g = gcd(a, stored[pivot])
                a, b = a // g, stored[pivot] // g
                row = [b * x - a * y for x, y in zip(row, stored)]
                tail = [b * t for t in transform[len(stored_transform) :]]
                transform = [b * t - a * u for t, u in zip(transform, stored_transform)] + tail
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            return [Fraction(-t * r[3], transform[-1] * den) for t, r in zip(transform, self._rows)]
        g = gcd(*row, *transform) if row[pivot] > 0 else -gcd(*row, *transform)
        self._rows.append((pivot, [x // g for x in row], [t // g for t in transform], den))
        return None
