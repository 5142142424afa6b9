"""Vanishing ideals of finite projective point sets.

A projective point set is split into charts by the index of the first
nonzero coordinate, and its basis is built chart by chart from the last:
each level of the recursion adds one chart's points to those found so far,
which lie on the level's hyperplane at infinity {X1 = 0} (_level), as a
kernel, degree by degree, on two sides: normal forms modulo the basis at
infinity, by multiplication (_normal_forms), not by division, and values
at the chart's points.  Each level hands its basis on as int relations,
and a part with no points is the unit ideal: the first level's part at
infinity, and the part at infinity of the cone over a chart (cone_basis).
Fed evaluation vectors at all the points, the same per-degree kernel gives
the deglex or degrevlex basis directly (projective_bm).  The kernel walks
degree by degree over the standard monomials of the corners found so far
(_kernel_walk), by the staircase's border rule (_next_standard), never
dividing, and ranks only a degree with more candidates than
min(s, H(d-1) + 1), a lower bound of the Hilbert function H of s distinct
points.
Every basis these engines return is certified independently (certify): a
basis whose elements vanish and whose staircase counts match the Hilbert
function, by the same kernel walk on evaluation vectors from the basis's
leading exponents, is accepted without S-pairs; any other basis is
rejected, and only then are its S-pairs reduced, so that the reasons name
each failing check.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count, islice, product, repeat
from math import gcd, lcm
from operator import itemgetter, mul

from .affine import (
    AFFINE,
    PROJECTIVE,
    Staircase,
    _basis,
    _next_standard,
    _value_columns,
    affine_points,
)
from .linalg import Echelon, cleared
from .poly import (
    DEGLEX,
    DEGREVLEX,
    exp_divides,
    normal_form,
    s_polynomial,
    total_degree,
)


# ---------------------------------------------------------------------------
# chart decomposition

def split_charts(pointset):
    """Partition a projective point set by the index of its first nonzero
    coordinate.  Chart j (1-based) collects the points whose first nonzero
    coordinate is the j-th, truncated to their trailing n+1-j coordinates."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("split_charts needs a projective point set")
    n = pointset.dimension
    buckets = [[] for _ in range(n + 1)]
    for p in pointset.points:
        j = next(i for i, x in enumerate(p) if x != 0)
        buckets[j].append(p[j + 1 :])
    return tuple(affine_points(n - j, buckets[j]) for j in range(n + 1))


# ---------------------------------------------------------------------------
# the per-degree kernel

def _evaluation_rows(pointset):
    """rows(candidates) for _kernel_walk: each candidate's values at the
    points, each point p taken at its integer vector q*p (cleared).  That
    scales p's entry of every degree-d vector by q^d, which leaves every
    dependency unchanged, so each row goes to the kernel over 1."""
    col = _value_columns(pointset.dimension + 1, [cleared(p)[0] for p in pointset.points])
    return lambda candidates: [(col(gamma), 1) for gamma in candidates]


def _kernel_walk(arity, order, s, rows, leads):
    """Walk the vanishing ideal I of s points degree by degree, from the
    corners `leads`, each the leading exponent of an element of I, yielding
    (d, standard, elements): the degree-d standard monomials of in(I), in
    increasing order, and the degree-d elements of I's reduced basis in
    `order` that no lead divides, each as its leading monomial's normal
    form (lead, den, {standard exponent: int}) in lowest terms, the format
    of _normal_forms' memo.

    A degree's candidates, the monomials no corner divides, come from the
    leads and degree d-1's standard monomials (_next_standard) and go, in
    increasing `order` (its only use), to one Echelon as
    rows(candidates): vectors v_d(gamma), each (int row, positive int den),
    of a linear map v_d with kernel I_d.  A candidate whose vector depends on
    those kept before it is a corner gamma, and the dependency is NF(gamma).

    - A candidate is independent iff it is standard.  A smaller monomial
      of degree d that is not a candidate is a multiple of a corner (a
      lead or one found), so it leads an element of I, and by induction
      its vector lies in the span of those of the smaller standard
      monomials.  So the kept candidates span what all smaller monomials
      span, and every tail lies on standard monomials: the elements are
      reduced.
    - Every standard monomial is a candidate, so the walk's counts are the
      standard counts of in(I), that is the Hilbert function H of the
      quotient by I.
    - Bound: H(d) >= min(s, H(d-1) + 1), H(-1) = 0, as the s points are
      distinct.  A linear form l vanishing at none of them (Q is infinite)
      is a nonzerodivisor modulo I, so H(d) - H(d-1) is the dimension of
      R/(I, l) in degree d, which stays 0 once 0 (R/(I, l) is generated in
      degree 1) and sums to s.  So a degree with no more candidates than
      that is all standard: rows is not called for it.
    - Stop rule: the walk ends after a degree d whose count c equals that
      of d-1, with c <= d-1 and no lead beyond degree d-1.  Macaulay's
      bound c^<d-1> = c caps degree d's candidates at c, so no element was
      found at d either: no corner lies beyond d-1, and by Gotzmann's
      persistence theorem the count is c in every higher degree."""
    # within one degree, sorted() by these keys, in C, orders as order_key (lex as deglex)
    sort = {"reverse": True} if order == DEGREVLEX else {"key": itemgetter(slice(None, None, -1))}
    leads = set(leads)
    top = max(map(sum, leads), default=0)  # the largest lead degree
    standard, prev = None, 0  # the previous degree's standard monomials and count
    for d in count():
        candidates = sorted(_next_standard(arity, leads, standard), **sort)
        standard, elements = candidates, []
        if len(candidates) > min(s, prev + 1):
            ech = Echelon()
            standard = []
            for gamma, (vec, den) in zip(candidates, rows(candidates)):
                dependency = ech.add(vec, den)
                if dependency is None:
                    standard.append(gamma)
                else:
                    coeffs, q = dependency
                    elements.append((gamma, q, {e: c for e, c in zip(standard, coeffs) if c}))
        yield d, standard, elements
        c = len(standard)
        if c == prev and c <= d - 1 and top <= d - 1:
            return
        prev = c


def _degree_kernel(arity, order, s, rows):
    """Reduced basis, in `order`, of the ideal _kernel_walk walks on rows
    from no leads, which must be the vanishing ideal of s points, as the
    walk's elements in increasing order (_basis makes them a
    GroebnerBasis).

    Its callers are _level, on normal forms at infinity and values on the
    chart, and projective_bm, on evaluation vectors.  The errors
    name the chart level, as only a level fed an inconsistent s or basis
    at infinity reaches them: the counts of s distinct points reach s, and
    the walk stops by degree s + 1."""
    elements = []
    for d, standard, new in _kernel_walk(arity, order, s, rows, ()):
        if d > 4 * s + 8:
            raise RuntimeError("chart level failed to stabilize by degree %d" % d)
        # corners are found degree by degree in increasing order
        elements += new
    if len(standard) != s:
        raise ValueError(
            "chart level stabilizes at %d standard monomials per degree, "
            "expected %d; its point sets are inconsistent" % (len(standard), s)
        )
    return elements


def _normal_forms(relations):
    """nf(e): the normal form of X^e modulo the reduced, monic basis with
    these relations (as _kernel_walk yields them), as
    (den, {standard exponent: int}) in lowest terms, memoised for the life
    of nf: _level's side at infinity.  Modulo the unit ideal, every normal
    form is zero.

    A standard e is its own normal form, and a leading exponent's is its
    relation's, which is standard as the basis is reduced.  Any other e
    lies strictly above a corner b, so some e_i with e - e_i still above b
    exists, and NF(X^e) = sum(c * NF(X^(m + e_i))) over the terms c*X^m of
    NF(X^(e - e_i)), by multiplication instead of division (FGLM).  Each
    such m is below e - e_i, so m + e_i is below e, and a term order is a
    well-order: the recursion ends.  The sum runs on ints, over the lcm of
    the NF(X^(m + e_i))'s denominators times NF(X^(e - e_i))'s.  A normal
    form modulo a Groebner basis is unique, so it equals the remainder of
    any division.  The memo is filled from an explicit stack, so no
    recursion limit is reached."""
    leads = [lead for lead, _, _ in relations]
    memo = {lead: (den, terms) for lead, den, terms in relations}

    def nf(exp):
        hit = memo.get(exp)
        if hit is not None:
            return hit
        stack = [exp]
        while stack:
            e = stack.pop()
            if e in memo:
                continue
            b = next((b for b in leads if exp_divides(b, e)), None)
            if b is None:
                memo[e] = (1, {e: 1})
                continue
            i = next(i for i, (x, y) in enumerate(zip(b, e)) if y > x)
            parent = e[:i] + (e[i] - 1,) + e[i + 1 :]
            den, terms = memo.get(parent, (1, {}))
            shifted = {m[:i] + (m[i] + 1,) + m[i + 1 :]: c for m, c in terms.items()}
            missing = [t for t in (parent, *shifted) if t not in memo]
            if missing:
                stack += [e, *missing]
                continue
            scale = lcm(*(memo[t][0] for t in shifted))
            acc = {}
            for t, c in shifted.items():
                c *= scale // memo[t][0]
                for f, d in memo[t][1].items():
                    acc[f] = acc.get(f, 0) + c * d
            g = gcd(den * scale, *acc.values())
            memo[e] = (den * scale // g, {f: c // g for f, c in acc.items() if c})
        return memo[exp]

    return nf


# ---------------------------------------------------------------------------
# chart levels

def _level(arity, s, infinite, chart):
    """Reduced deglex basis, as relations (_kernel_walk), of the ideal of the
    s points of one level of the chart recursion, in `arity` variables with
    X1 first: those on the hyperplane {X1 = 0}, whose ideal in the other
    variables has the reduced deglex basis with relations `infinite`, and
    those of the affine chart {X1 = 1}, `chart`.  No points at infinity is
    the unit ideal, whose one relation (origin, 1, {}) makes every normal
    form zero, and no points on the chart is no values, so an empty part
    needs no branch.

    A form F vanishes at a point (0, p) iff F(0, x) does at p, and at a
    point (1, p) iff F(1, x) does.  So F lies in the ideal iff NF(F(0, x))
    modulo `infinite` is zero and F vanishes at every (1, p).  The degree-d
    part of the ideal is the kernel of that map, walked by _degree_kernel.
    X^gamma restricts at infinity to x^gamma[1:] if gamma[0] is 0 and to
    zero otherwise, whose int normal form comes from one memo
    (_normal_forms) for the whole walk; a row's first columns are the
    degree's exponents at infinity, first seen first (the kernel's results
    do not depend on the column order).  Its last columns are X^gamma's
    values at the chart's points, each (1, p) taken at its integer vector
    (q, q*p) (cleared), from one table (_value_columns) per level: X^gamma
    takes q^d times its value at (1, p) there, and scaling a point's entry
    of every degree-d vector by q^d leaves every dependency unchanged, as
    in _evaluation_rows.  The normal form's denominator multiplies the
    values, and the row goes to the kernel over it.  The ideal of a part at
    infinity that is all of its space (a point of P^0) is zero, and
    _normal_forms of its empty basis is the identity: there, F(0, x) is in
    the ideal iff it is zero."""
    at_infinity = _normal_forms(infinite)
    values = _value_columns(arity, [[q, *v] for v, q in map(cleared, chart.points)])

    def rows(candidates):
        # at infinity, X1 * X^m restricts to 0
        infinity = [(1, {}) if gamma[0] else at_infinity(gamma[1:]) for gamma in candidates]
        index = dict(zip({e: None for _, terms in infinity for e in terms}, count()))
        for gamma, (den, terms) in zip(candidates, infinity):
            vec = [0] * len(index)
            for e, c in terms.items():
                vec[index[e]] = c
            yield vec + [den * v for v in values(gamma)], den

    return _degree_kernel(arity, DEGLEX, s, rows)


def cone_basis(chart):
    """Reduced deglex basis of the ideal of the lines through the chart's
    affine representatives, inside the ring with one extra (smallest)
    variable X1: the level (_level) whose part at infinity is the unit
    ideal."""
    if chart.mode != AFFINE:
        raise ValueError("cone_basis needs an affine chart")
    if not chart.points:
        raise ValueError("cone_basis needs a nonempty chart")
    n = chart.dimension
    return _basis(n + 1, DEGLEX, _level(n + 1, len(chart.points), [((0,) * n, 1, {})], chart))


def projective_bm(pointset, order):
    """Certified reduced deglex or degrevlex basis of the vanishing ideal of
    a projective point set, by the projective Buchberger-Moeller walk.

    The degree-d part of the ideal is the kernel of evaluation at the
    points (_evaluation_rows), walked by _degree_kernel."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("projective_bm needs a projective point set")
    if order not in (DEGLEX, DEGREVLEX):
        raise ValueError("projective_bm needs a degree-compatible order, got %r" % (order,))
    arity = pointset.dimension + 1
    relations = _degree_kernel(arity, order, len(pointset.points), _evaluation_rows(pointset))
    return _certified(_basis(arity, order, relations), pointset)


# ---------------------------------------------------------------------------
# the full recursion

def projective_gb(pointset):
    """Reduced deglex Groebner basis of the vanishing ideal of a projective
    point set, built chart by chart over the dimension and certified before
    return.

    The charts are walked from the last to the first.  The level of a
    chart holds the points of that chart and of the later ones, in the
    variables from the chart's own on; the basis of the later charts'
    points is its part at infinity (_level), handed on as int relations.
    The last chart's part at infinity is P^-1, which has no points: its
    ideal is the unit ideal, in no variables."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("projective_gb needs a projective point set")
    n = pointset.dimension
    current, s = [((), 1, {})], 0
    for j, chart in reversed(list(enumerate(split_charts(pointset)))):
        s += len(chart.points)
        current = _level(n + 1 - j, s, current, chart)
    return _certified(_basis(n + 1, DEGLEX, current), pointset)


# ---------------------------------------------------------------------------
# axis census

class AxisReport(namedtuple("AxisReport", "arity axes per_direction total")):
    """All axes contained in the staircase complement D.

    axes holds (direction j, base) pairs with 1-based directions and
    base[j-1] == 0; per_direction counts them by j."""

    __slots__ = ()


def axis_census(stair):
    """Enumerate every axis base + N*e_j contained in D.

    The axis lies in D iff no corner divides some translate, i.e. iff no
    corner is componentwise below the base outside direction j.  Bases are
    searched in the box bounded by the maximal corner entries."""
    m = stair.arity
    corners = stair.corners
    bounds = [max((b[i] for b in corners), default=0) for i in range(m)]
    axes = []
    per_direction = []
    for j in range(m):
        count = 0
        ranges = [range(bounds[i] + 1) if i != j else range(1) for i in range(m)]
        for base in product(*ranges):
            if not any(
                all(b[i] <= base[i] for i in range(m) if i != j) for b in corners
            ):
                axes.append((j + 1, base))
                count += 1
        per_direction.append(count)
    return AxisReport(m, tuple(axes), tuple(per_direction), len(axes))


# ---------------------------------------------------------------------------
# Hilbert function and certificate

def hilbert_function(pointset, d):
    """H(d) of the homogeneous coordinate ring: the d-th of hilbert_values,
    walked afresh on each call (a loop over d should read hilbert_values)."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("hilbert_function needs a projective point set")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return next(islice(hilbert_values(pointset), d, None))


def hilbert_values(pointset):
    """Yield the Hilbert function H(d) at d = 0, 1, 2, ..., without end.

    H(d) is the number of degree-d standard monomials of in(I), I the
    vanishing ideal: the count _kernel_walk yields on evaluation vectors.
    H(d) >= min(s, H(d-1) + 1) for s distinct points, as H(d) - H(d-1) is
    the dimension in degree d of R/(I, l), l a linear form vanishing at no
    point, which stays 0 once 0 and sums to s (_kernel_walk); so H rises to
    s, where the walk stops, and s repeats for ever, so that any degree can
    be read."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("hilbert_values needs a projective point set")
    s = len(pointset.points)
    for _, standard, _ in _kernel_walk(pointset.dimension + 1, DEGLEX, s, _evaluation_rows(pointset), ()):
        yield len(standard)
        if len(standard) == s:
            break
    yield from repeat(len(standard))


CertReport = namedtuple("CertReport", "passed reasons")


def _certify_core(gb, pointset, arity, homogeneous, count_reason):
    """Reasons from the checks certify and affine_certify share, in order,
    each in gb's own order.

    The arity check reads gb's own arity, which an empty basis carries
    too, and each element's.  After it and the element, vanishing and
    autoreducedness checks pass, count_reason(leads, col) compares the
    leading exponents' staircase with the points (col(e): the values of X^e
    at the points' integer vectors, from the vanishing check's table); it
    returns None only when that proves gb to be the reduced basis, and then
    no S-pair is reduced.  Otherwise every S-pair is reduced once: the
    failing ones are the reasons, and the comparison's reason stands only
    if every pair reduces to zero.  A zero element is reported and reduces
    nothing.

    The vanishing check sums ints: for g of top degree T, D the lcm of its
    coefficients' denominators and (q*p, q) a point's integer vector and
    scale (cleared), sum((D*c_e) * q^(T-|e|) * (q*p)^e) over g's terms
    c_e*X^e is D * q^T * g(p), zero iff g(p) is, homogeneous g or not.  A
    term's values q^(T-|e|) * (q*p)^e are those of X0^(T-|e|) * X^e at the
    vectors (q, q*p), one column of a table computed once per monomial, and
    each point's sum is one sum of products with the D*c_e across g's
    columns.  Autoreducedness lists, once per distinct term, the elements
    whose leading exponent divides it; element i is reducible by each other
    element listed for one of its terms."""
    elements = gb.elements
    mismatched = [a for a in (gb.arity, *(g.arity for g in elements)) if a != arity]
    if mismatched:
        return ["basis arity %d does not match ambient %d" % (mismatched[0], arity)]
    reasons = []
    # X0, before the first variable, takes each point's scale q
    col = _value_columns(arity + 1, [[q, *v] for v, q in map(cleared, pointset.points)])
    leads = [None] * len(elements)  # None for a zero element
    for idx, g in enumerate(elements):
        if g.is_zero():
            reasons.append("element %d is zero" % idx)
            continue
        if homogeneous and not g.is_homogeneous():
            reasons.append("element %d is not homogeneous: %s" % (idx, g))
        leads[idx], lc = g.leading(gb.order)
        if lc != 1:
            reasons.append("element %d is not monic" % idx)
        top = g.total_degree()
        columns = [col((top - total_degree(e),) + e) for e in g.terms]
        coeffs = cleared(g.terms.values())[0]
        bad = next((p for p, row in zip(pointset.points, zip(*columns)) if sum(map(mul, coeffs, row))), None)
        if bad is not None:
            reasons.append("element %d does not vanish at %r" % (idx, [str(x) for x in bad]))
    terms = {e for g in elements for e in g.terms}
    divisors = {e: [j for j, lh in enumerate(leads) if lh is not None and exp_divides(lh, e)] for e in terms}
    for i, g in enumerate(elements):
        for j in sorted({j for e in g.terms for j in divisors[e]} - {i}):
            reasons.append("element %d is reducible by element %d" % (i, j))
    if reasons:
        return reasons
    reason = count_reason(leads, lambda e: col((0,) + e))
    if reason is None:
        return []
    # not accepted: reduce every pair, so that the reasons name each failing one
    failing = [
        "S-polynomial of elements %d and %d does not reduce to zero" % (i, j)
        for i in range(len(elements))
        for j in range(i + 1, len(elements))
        if not normal_form(s_polynomial(elements[i], elements[j], gb.order), elements, gb.order).is_zero()
    ]
    return failing or [reason]


def certify(gb, pointset):
    """Certificate that gb is the reduced basis, in its order gb.order, of
    the vanishing ideal I of the point set.

    Checks: every element homogeneous, monic and vanishing at every point;
    autoreducedness; and the standard-monomial counts c_J(d) of J = <in(gb)>
    equal the Hilbert function H of I degree by degree, walked by
    _kernel_walk until its stop rule holds.  These prove it with no S-pair,
    in any term order, as on homogeneous elements the proof uses only counts:

    - Every element vanishes, so <gb> lies in I and J in in(I).  Hence
      c_J(d) >= H(d), with equality in every degree iff J = in(I), that is
      iff gb is a Groebner basis of I; monic and autoreduced, the reduced one.
    - The comparison is _kernel_walk on J's leading exponents and the
      points' values (the vanishing check's column table): as the leads
      lead vanishing elements, its counts are H, and it ranks only J's
      standard monomials, with no element yielded iff they are
      independent, that is iff H(d) = c_J(d).  A degree with no more of
      them than the walk's bound min(s, H(d-1) + 1) <= H(d) is not ranked.
    - The walk stops after a degree d whose count c equals that of d-1,
      with c <= d-1 and no corner of J beyond degree d-1.  Macaulay's bound
      gives c^<d-1> = c, so by Gotzmann's persistence theorem J's count is c
      in every degree from d-1 on.  H never decreases, is at most J's
      count, and equals c at d, so it is c from d on as well: the counts
      agree in every degree.
    - If the counts always agree, H stays at s from some degree on, and
      the stop rule holds by degree max(s, max corner degree) + 1; so the
      comparison ends, with a verdict, after finitely many degrees.

    The first degree d at which the walk yields an element is the first
    that differs, and the walk's count there is H(d), which the reason
    names; every S-pair is then reduced, so that each reason names a
    failing check."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("certify needs a projective point set")
    m = pointset.dimension + 1

    def hilbert_reason(leads, col):
        s = len(pointset.points)
        for d, standard, elements in _kernel_walk(m, gb.order, s, lambda cs: [(col(e), 1) for e in cs], leads):
            if elements:
                c = len(standard)
                return "degree %d: %d standard monomials but Hilbert function %d" % (d, c + len(elements), c)
        return None

    reasons = _certify_core(gb, pointset, m, homogeneous=True, count_reason=hilbert_reason)
    return CertReport(not reasons, tuple(reasons))


def affine_certify(gb, pointset):
    """Affine analogue of certify: vanishing, autoreducedness, and a finite
    staircase complement of size equal to the point count s.

    These prove gb to be the reduced basis of the vanishing ideal I with no
    S-pair: <gb> lies in I, so J = <in(gb)> lies in in(I), which has exactly
    s standard monomials; J has s as well, so J = in(I).  A basis that fails
    is rejected; only then are its S-pairs reduced, as in certify."""
    if pointset.mode != AFFINE:
        raise ValueError("affine_certify needs an affine point set")
    s = len(pointset.points)

    def colength_reason(leads, col):
        if not leads and pointset.dimension:
            return "zero ideal cannot be the ideal of a finite point set"
        try:
            std = Staircase(pointset.dimension, tuple(sorted(leads))).standard_monomials()
        except ValueError:
            return "staircase complement is infinite"
        return None if len(std) == s else "%d standard monomials but %d points" % (len(std), s)

    reasons = _certify_core(gb, pointset, pointset.dimension, homogeneous=False, count_reason=colength_reason)
    return CertReport(not reasons, tuple(reasons))


def _certified(gb, pointset):
    """gb, once the certificate of its point set's mode accepts it; one that
    fails is an engine's bug, raised as ArithmeticError."""
    report = (certify if pointset.mode == PROJECTIVE else affine_certify)(gb, pointset)
    if not report.passed:
        raise ArithmeticError("internal certification failed: %s" % "; ".join(report.reasons))
    return gb
