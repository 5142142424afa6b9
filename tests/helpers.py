"""Shared random-instance generators for the test suite.

Coordinates are rationals p/q with |p| <= 5 and q <= 3 so exact
arithmetic stays cheap while still exercising non-integer points.
"""

from fractions import Fraction

from pointideals import affine_points, projective_points


def random_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def random_affine(rng, n, s):
    pts = set()
    while len(pts) < s:
        pts.add(tuple(random_fraction(rng) for _ in range(n)))
    return affine_points(n, [list(p) for p in sorted(pts)])


def random_projective(rng, n, s):
    pts = set()
    while len(pts) < s:
        row = tuple(random_fraction(rng) for _ in range(n + 1))
        if any(row):
            lead = next(x for x in row if x)
            pts.add(tuple(x / lead for x in row))
    return projective_points(n, [list(p) for p in sorted(pts)])


def rref(rows):
    """Dense Gauss-Jordan reduced row echelon form: the reference the
    incremental kernel is tested against.

    Returns (reduced rows, tuple of pivot columns); the pivot of each step
    is the first nonzero entry in column order.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def reference_solve(rows, b):
    """Solve rows * x = b by rref of the augmented matrix; free variables
    are zero.  Returns the solution tuple, or None if inconsistent."""
    if len(rows) != len(b):
        raise ValueError("right-hand side has length %d, expected %d" % (len(b), len(rows)))
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref([list(row) + [y] for row, y in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return tuple(x)
