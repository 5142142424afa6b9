"""Finite rational point sets and their vanishing ideals.

The Groebner basis of the ideal of a finite affine point set is computed by
incremental evaluation-matrix rank tests: monomials are enumerated in
increasing term order, and a monomial whose evaluation vector depends
linearly on those already kept produces a basis element, otherwise it is a
standard monomial.
"""

from __future__ import annotations

import heapq
from collections import Counter, namedtuple
from fractions import Fraction
from math import prod
from operator import mul

from .linalg import Echelon, cleared
from .poly import (
    DEGLEX,
    GroebnerBasis,
    Polynomial,
    exp_divides,
    order_key,
    total_degree,
)

AFFINE = "affine"
PROJECTIVE = "projective"


class PointSet(namedtuple("PointSet", "mode dimension points")):
    """A finite list of rational coordinate vectors, affine or projective.

    For affine mode each point has `dimension` coordinates; for projective
    mode each point has dimension+1 homogeneous coordinates normalized so
    that the first nonzero one equals 1.  The points are distinct, as the
    Hilbert function's bound in projective._kernel_walk needs: a point of
    the wrong length, a duplicate, or a projective point not so normalized,
    raises ValueError.  A named tuple, so immutable; every way to build one
    checks its points: the call, _make, _replace (through _make) and
    unpickling (through __new__).
    """

    __slots__ = ()

    def __new__(cls, mode, dimension, points):
        seen = {}
        for i, p in enumerate(points):
            if len(p) != dimension + (mode == PROJECTIVE):
                where = (mode, [str(x) for x in p], len(p), dimension)
                raise ValueError("%s point %r has length %d in dimension %d" % where)
            if mode == PROJECTIVE and next((x for x in p if x), None) != 1:
                raise ValueError("projective point %r: first nonzero coordinate is not 1" % [str(x) for x in p])
            if seen.setdefault(p, i) != i:
                where = (mode, seen[p], i, [str(x) for x in p])
                raise ValueError("duplicate %s point at indices %d and %d: %r" % where)
        return super().__new__(cls, mode, dimension, points)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def affine_points(dimension, coords):
    """Build a validated affine PointSet; PointSet rejects a point of the
    wrong length and a duplicate."""
    return PointSet(AFFINE, dimension, tuple(tuple(map(Fraction, row)) for row in coords))


def projective_points(dimension, coords):
    """Build a projective PointSet, scaling each vector so its first nonzero
    coordinate is 1; a zero vector is rejected here, and a point of the
    wrong length or a duplicate (after normalization) by PointSet."""
    pts = []
    for row in coords:
        row = tuple(map(Fraction, row))
        lead = next((x for x in row if x != 0), None)
        if lead is None:
            raise ValueError("zero vector is not a projective point")
        pts.append(tuple(x / lead for x in row))
    return PointSet(PROJECTIVE, dimension, tuple(pts))


class Staircase(namedtuple("Staircase", "arity corners")):
    """The monomial staircase of an ideal, given by its corner set.

    C is the union of the upward cones of the corners; D is the complement
    (the standard monomials).
    """

    __slots__ = ()

    def contains(self, exp):
        """True iff exp lies in C."""
        if len(exp) != self.arity:
            raise ValueError("exponent %r does not match arity %d" % (exp, self.arity))
        return any(exp_divides(b, exp) for b in self.corners)

    def standard_monomials_upto(self, degree, order=DEGLEX):
        """The standard monomials of degree <= `degree`, in increasing `order`."""
        out, level = [], None
        for _ in range(degree + 1):
            level = _next_standard(self.arity, self.corners, level)
            out += level
        return sorted(out, key=order_key(order))

    def standard_monomials(self):
        """All standard monomials, in increasing tuple order; raises if D is infinite."""
        for i in range(self.arity):
            if not any(all(x == 0 for j, x in enumerate(b) if j != i) for b in self.corners):
                raise ValueError("staircase complement is infinite (no pure power in direction %d)" % (i + 1))
        out, level = [], _next_standard(self.arity, self.corners)
        while level:
            out += level
            level = _next_standard(self.arity, self.corners, level)
        return sorted(out)

    def max_corner_degree(self):
        return max((total_degree(b) for b in self.corners), default=0)


def _next_standard(arity, corners, standard=None):
    """Degree d+1's monomials that no corner divides, given degree d's
    `standard` (None: degree 0's): e is one iff it is not in `corners` and
    every e - e_i with e_i <= e is in `standard`, as a corner other than e
    divides e iff it divides such an e - e_i.  So the corners need not be
    minimal, nor need a caller (_kernel_walk) add a corner it drops."""
    if standard is None:
        border = Counter({(0,) * arity: 0})
    else:
        border = Counter(e[:i] + (e[i] + 1,) + e[i + 1 :] for e in standard for i in range(arity))
    # border[e] counts the i with e - e_i in standard
    return [e for e, k in border.items() if k == arity - e.count(0) and e not in corners]


def staircase_of(gb):
    """Staircase of the initial ideal of a reduced Groebner basis."""
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


def _basis(arity, order, relations):
    """The GroebnerBasis, in `arity` variables, of the X^lead - NF(X^lead),
    NF(X^lead) = sum(c * X^e) / den, of relations (lead, den, {e: c}) in
    increasing order of lead, as buchberger_moeller and the projective
    kernel walks make them: the one place where a basis's Polynomials are
    built."""
    elements = [[(lead, 1)] + [(e, Fraction(-c, den)) for e, c in terms.items()] for lead, den, terms in relations]
    return GroebnerBasis(order, tuple(Polynomial(arity, terms) for terms in elements), arity)


def buchberger_moeller(pointset, order):
    """Reduced Groebner basis of the vanishing ideal of an affine point set.

    Returns (basis, staircase, standard monomials in increasing order).
    The number of standard monomials equals the number of points.  The
    basis comes from int relations (_basis), whose leads are the corners;
    an empty set's origin has an empty vector, which depends on nothing.
    """
    if pointset.mode != AFFINE:
        raise ValueError("buchberger_moeller needs an affine point set")
    n = pointset.dimension
    pts = pointset.points
    origin = (0,) * n
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
    relations = []
    while heap:
        _, exp = heapq.heappop(heap)
        if pushes.pop(exp, 0) != n - exp.count(0):
            continue
        dependency = ech.add(col(exp), prod(map(pow, scales, exp)))
        if dependency is not None:
            coeffs, q = dependency
            relations.append((exp, q, {standard[j]: c for j, c in enumerate(coeffs) if c}))
        else:
            standard.append(exp)
            for i in range(n):
                ne = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
                if ne not in pushes:
                    heapq.heappush(heap, (key(ne), ne))
                pushes[ne] += 1
    if len(standard) != len(pts):
        raise ArithmeticError("standard monomial count must equal point count")
    # leads come in increasing order, so only the corners are sorted, as by staircase_of
    corners = tuple(sorted(lead for lead, _, _ in relations))
    return _basis(n, order, relations), Staircase(n, corners), standard
