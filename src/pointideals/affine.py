"""Finite rational point sets and their vanishing ideals.

The Groebner basis of the ideal of a finite affine point set is computed by
incremental evaluation-matrix rank tests: monomials are enumerated in
increasing term order, and a monomial whose evaluation vector depends
linearly on those already kept produces a basis element, otherwise it is a
standard monomial.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from operator import mul

from .linalg import Echelon, cleared
from .poly import (
    DEGLEX,
    GroebnerBasis,
    Polynomial,
    exp_divides,
    monomials_of_degree,
    order_key,
    total_degree,
)

AFFINE = "affine"
PROJECTIVE = "projective"


@dataclass(frozen=True)
class PointSet:
    """A finite list of rational coordinate vectors, affine or projective.

    For affine mode each point has `dimension` coordinates; for projective
    mode each point has dimension+1 homogeneous coordinates normalized so
    that the first nonzero one equals 1.
    """

    mode: str
    dimension: int
    points: tuple


def _check_duplicates(points, label):
    seen = {}
    for i, p in enumerate(points):
        if p in seen:
            raise ValueError(
                "duplicate %s point at indices %d and %d: %r"
                % (label, seen[p], i, [str(x) for x in p])
            )
        seen[p] = i


def affine_points(dimension, coords):
    """Build a validated affine PointSet; duplicates are rejected."""
    pts = []
    for row in coords:
        row = tuple(Fraction(x) for x in row)
        if len(row) != dimension:
            raise ValueError("affine point %r has %d coordinates, expected %d" % (row, len(row), dimension))
        pts.append(row)
    _check_duplicates(pts, "affine")
    return PointSet(AFFINE, dimension, tuple(pts))


def projective_points(dimension, coords):
    """Build a projective PointSet, scaling each vector so its first nonzero
    coordinate is 1; zero vectors and duplicates (after normalization) are
    rejected."""
    pts = []
    for row in coords:
        row = tuple(Fraction(x) for x in row)
        if len(row) != dimension + 1:
            raise ValueError(
                "projective point %r has %d coordinates, expected %d" % (row, len(row), dimension + 1)
            )
        lead = next((x for x in row if x != 0), None)
        if lead is None:
            raise ValueError("zero vector is not a projective point")
        pts.append(tuple(x / lead for x in row))
    _check_duplicates(pts, "projective")
    return PointSet(PROJECTIVE, dimension, tuple(pts))


@dataclass(frozen=True)
class Staircase:
    """The monomial staircase of an ideal, given by its corner set.

    C is the union of the upward cones of the corners; D is the complement
    (the standard monomials).
    """

    arity: int
    corners: tuple

    def contains(self, exp):
        """True iff exp lies in C."""
        if len(exp) != self.arity:
            raise ValueError("exponent %r does not match arity %d" % (exp, self.arity))
        return any(exp_divides(b, exp) for b in self.corners)

    def standard_monomials_upto(self, degree, order=DEGLEX):
        out = []
        for d in range(degree + 1):
            out.extend(e for e in monomials_of_degree(self.arity, d) if not self.contains(e))
        out.sort(key=order_key(order))
        return out

    def standard_monomials(self):
        """All standard monomials; raises if D is infinite."""
        bounds = []
        for i in range(self.arity):
            pure = [b[i] for b in self.corners if all(x == 0 for j, x in enumerate(b) if j != i)]
            if not pure:
                raise ValueError("staircase complement is infinite (no pure power in direction %d)" % (i + 1))
            bounds.append(min(pure))
        return [e for e in product(*(range(b) for b in bounds)) if not self.contains(e)]

    def max_corner_degree(self):
        return max((total_degree(b) for b in self.corners), default=0)


def staircase_of(gb):
    """Staircase of the initial ideal of a reduced Groebner basis."""
    if gb.is_zero_ideal():
        raise ValueError("zero ideal has no staircase arity; construct Staircase directly")
    return Staircase(gb.arity, tuple(sorted(gb.leading_exponents())))


def _value_columns(arity, vectors):
    """col(e): the values of X^e at the int vectors, memoised, each column
    one parent column (X^(e - e_i), i the index of e's largest entry) times
    coordinate column i: the one evaluator of monomials at points, for
    buchberger_moeller, the certificates and the projective kernel walks."""
    coordinates = [[v[i] for v in vectors] for i in range(arity)]
    table = {(0,) * arity: [1] * len(vectors)}

    def col(e):
        chain = []
        while e not in table:
            i = e.index(max(e))
            chain.append((e, i))
            e = e[:i] + (e[i] - 1,) + e[i + 1 :]
        values = table[e]
        for e, i in reversed(chain):
            values = table[e] = list(map(mul, values, coordinates[i]))
        return values

    return col


def buchberger_moeller(pointset, order):
    """Reduced Groebner basis of the vanishing ideal of an affine point set.

    Returns (basis, staircase, standard monomials in increasing order).
    The number of standard monomials equals the number of points.
    """
    if pointset.mode != AFFINE:
        raise ValueError("buchberger_moeller needs an affine point set")
    n = pointset.dimension
    pts = pointset.points
    origin = (0,) * n
    if not pts:
        gb = GroebnerBasis(order, (Polynomial.constant(n, 1),))
        return gb, Staircase(n, (origin,)), []
    key = order_key(order)
    heap = [(key(origin), origin)]
    # coordinate i is the ints c_i over q_i (cleared), so X^e's vector is col(e) over
    # the product of the q_i^e_i.  A popped X^e is a multiple of a corner unless each
    # X^(e - e_i) with e_i <= e, all popped before it, is standard and so pushed it:
    # pushes[e] counts those pushes, and X^e*X_i exceeds all popped, so is new iff absent
    columns = [cleared(xs) for xs in zip(*pts)]
    scales = [q for _, q in columns]
    col = _value_columns(n, [[c[k] for c, _ in columns] for k in range(len(pts))])
    pushes = Counter()
    standard = []
    ech = Echelon()
    corners = []
    basis = []
    while heap:
        _, exp = heapq.heappop(heap)
        if pushes.pop(exp, 0) != n - exp.count(0):
            continue
        dependency = ech.add(col(exp), prod(map(pow, scales, exp)))
        if dependency is not None:
            coeffs, q = dependency
            terms = [(exp, 1)]
            terms.extend((standard[j], Fraction(-c, q)) for j, c in enumerate(coeffs) if c)
            corners.append(exp)
            basis.append(Polynomial(n, terms))
        else:
            standard.append(exp)
            for i in range(n):
                ne = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
                if ne not in pushes:
                    heapq.heappush(heap, (key(ne), ne))
                pushes[ne] += 1
    if len(standard) != len(pts):
        raise ArithmeticError("standard monomial count must equal point count")
    # corners are found in increasing order, so the basis is sorted
    gb = GroebnerBasis(order, tuple(basis))
    return gb, Staircase(n, tuple(sorted(corners))), standard

