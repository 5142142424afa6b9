"""Exact incremental echelon kernel over the rationals, on integer rows.

Callers clear denominators (cleared, or a scale of their own): each vector
v of length n reaches the kernel as an int row w over one positive int D,
v = w / D.  It is reduced fraction-free as one list aug, w followed by an
int transform (t_j at n + j, t_new at n + k, k the rank), so that always
aug[:n] = t_new * w + sum(t_j * w_j) over the stored rows w_j = D_j * v_j.
Its entry a at the pivot of a stored row with pivot entry b is cleared in
place: aug is multiplied by b/g, only if that is not 1, and a/g times the
stored row's aug is subtracted over that row's support (its nonzero
entries) alone, g = gcd(a, b).  If aug[:n] is not zero, aug is stored with
its support, divided by its content and signed so that its pivot (first
nonzero entry) is positive.  Otherwise v is sum(c_j * v_j) with
c_j = -t_j * D_j / (t_new * D), returned as ints over one positive int
denominator in lowest terms: the kernel builds no Fraction.  Nothing is
re-solved from scratch, so k additions of length-L vectors cost
O(k * rank * (L + rank)) operations on ints.

There is no floating point, so rank and dependency are exact predicates
and every coefficient is an exact rational.
"""

from math import gcd, lcm


def cleared(xs):
    """(row, den) of the rationals xs, the form in which Echelon takes a
    vector: den is the lcm of their denominators and row the ints den * x."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


class Echelon:
    """Incremental row echelon form of a growing list of equal-length
    vectors.

    Stored row k is (pivot, aug[pivot], support, aug, D_k): aug[:n] is
    sum(aug[n + j] * D_j * v_j for j <= k), zero at the pivots before its
    own and positive at its own; support lists aug's nonzero indices.
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
        vectors, in the order they were stored, as (ints, positive int den)
        in lowest terms."""
        n = len(row)
        if self._length is None:
            self._length = n
        elif n != self._length:
            raise ValueError("vector has length %d, expected %d" % (n, self._length))
        aug = row + [0] * len(self._rows) + [1]
        for pivot, b, support, stored, _ in self._rows:
            a = aug[pivot]
            if a:
                g = gcd(a, b)
                if (b := b // g) != 1:
                    aug = [b * x for x in aug]
                a //= g
                for i in support:
                    aug[i] -= a * stored[i]
        pivot = next((i for i in range(n) if aug[i]), None)
        if pivot is None:
            t = aug[-1] * den  # t_new * D
            coeffs = [-aug[n + j] * r[4] for j, r in enumerate(self._rows)]
            g = gcd(t, *coeffs) if t > 0 else -gcd(t, *coeffs)
            return [c // g for c in coeffs], t // g
        g = gcd(*aug) if aug[pivot] > 0 else -gcd(*aug)
        aug = [x // g for x in aug]
        self._rows.append((pivot, aug[pivot], [i for i, x in enumerate(aug) if x], aug, den))
        return None
