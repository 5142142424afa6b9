"""Vanishing ideals of finite projective point sets.

A projective point set is split into charts by the index of the first
nonzero coordinate, and its basis is built chart by chart from the last:
each level of the recursion adds one chart's points to those found so far,
which lie on the level's hyperplane at infinity {X1 = 0} (_level).  A form
vanishes on both parts iff its restriction F(0, x) lies in the ideal of the
part at infinity and F(1, x) in the chart's affine ideal, so the level's
ideal is, degree by degree, the kernel of the map to the two normal forms,
modulo the basis at infinity and the chart's lex basis, taken by
multiplication from a memo (_normal_forms), not by division.  The level
with no points at infinity is the cone over the chart (cone_basis).  Fed
evaluation vectors at the points, the same per-degree kernel gives the
deglex or degrevlex basis directly (projective_bm).  The kernel walks
degree by degree over the standard monomials of the corners found so far
(standard_walk), by set lookups, never dividing.
The chart recursion's result is certified independently: a basis whose
elements vanish (int sums by monomial columns, at the points' integer
vectors) and whose staircase counts match the Hilbert function (its own
standard monomials, independent at the points until their count reaches
the point count) is accepted without S-pairs; any other basis is
rejected, and only then are its S-pairs reduced, so that the reasons name
each failing check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count, islice, product, repeat
from math import gcd, lcm, prod

from .affine import (
    AFFINE,
    PROJECTIVE,
    affine_points,
    buchberger_moeller,
    staircase_of,
)
from .linalg import Echelon, cleared
from .poly import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    GroebnerBasis,
    Polynomial,
    exp_divides,
    normal_form,
    order_key,
    s_polynomial,
    total_degree,
    unit_basis,
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

def standard_walk(arity, corners, order):
    """Walk the standard monomials of the monomial ideal generated by
    `corners` degree by degree, and stop once their count persists.

    Yields (d, candidates) for d = 0, 1, ...: the degree-d monomials that no
    corner divides, in increasing order (the only use of `order`), found by
    set lookups: a one-variable multiple e of degree d-1's standard
    monomials is a candidate iff e is not a corner and every e - e_i with
    e_i <= e is standard.  A corner b other than e that divides e divides
    some such e - e_i, and no corner divides a divisor of e if none divides
    e; so the corners need not be minimal.  The caller may append corners
    of degree d or more to `corners` before resuming; those among the
    candidates are then not standard.  The walk ends after a degree d whose
    standard count c equals that of d-1, with c <= d-1 and no corner beyond
    degree d-1: then Macaulay's bound is c^<d-1> = c, so by Gotzmann's
    persistence theorem the count is c in every higher degree."""
    key = order_key(order)
    known = set(corners)
    # border[e] counts the i with e - e_i standard in degree d-1
    border = Counter({(0,) * arity: 0})
    prev = None  # standard count of the previous degree
    for d in count():
        candidates = sorted((e for e, k in border.items() if k == arity - e.count(0) and e not in known), key=key)
        seen = len(corners)
        yield d, candidates
        known.update(corners[seen:])
        standard = [e for e in candidates if e not in known]
        c = len(standard)
        if c == prev and c <= d - 1 and all(total_degree(b) <= d - 1 for b in corners):
            return
        prev = c
        border = Counter(e[:i] + (e[i] + 1,) + e[i + 1 :] for e in standard for i in range(arity))


def _evaluation_rows(pointset):
    """rows(candidates) for _kernel_walk: each candidate's values at the
    points, each point p taken at its integer vector q*p (cleared).  That
    scales p's entry of every degree-d vector by q^d, which leaves every
    dependency unchanged, so each row goes to the kernel over 1."""
    vectors = [cleared(p)[0] for p in pointset.points]

    def rows(candidates):
        return [([prod(map(pow, v, gamma)) for v in vectors], 1) for gamma in candidates]

    return rows


def _kernel_walk(arity, order, rows):
    """Walk the homogeneous ideal I whose degree-d part is the kernel of a
    linear map v_d along standard_walk, yielding (d, standard, elements):
    the degree-d standard monomials of in(I), in increasing order, and the
    degree-d elements of I's reduced basis in `order`.

    rows(candidates) gives the vectors v_d(gamma) of one degree's
    candidates, each as (int row, positive int den), or None if none of
    them can lead an element of I.  The vectors go to one Echelon in
    increasing order; a candidate whose vector depends on those kept
    before it is a corner gamma, with element gamma - sum(c_k * kept_k).

    - A candidate is independent iff it is standard.  A smaller monomial
      of degree d that is not a candidate is a multiple of a corner, so it
      leads an element of I, and by induction its vector lies in the span
      of those of the smaller standard monomials.  So the kept candidates
      span what all smaller monomials span, every tail lies on standard
      monomials, and the elements form the unique reduced basis.
    - Every standard monomial is a candidate, so the walk's counts are the
      standard counts of in(I), that is the Hilbert function of the
      quotient by I, and its stop rule (Gotzmann) ends the walk once they
      persist."""
    corners = []
    for d, candidates in standard_walk(arity, corners, order):
        vecs = rows(candidates)
        standard = candidates
        elements = []
        if vecs is not None:
            ech = Echelon()
            standard = []
            for gamma, (vec, den) in zip(candidates, vecs):
                coeffs = ech.add(vec, den)
                if coeffs is None:
                    standard.append(gamma)
                else:
                    elements.append(Polynomial(arity, [(gamma, 1)] + [(e, -c) for e, c in zip(standard, coeffs)]))
                    corners.append(gamma)
        yield d, standard, elements


def _degree_kernel(arity, order, s, rows):
    """Reduced basis, in `order`, of the ideal _kernel_walk walks on rows,
    which must be the vanishing ideal of s points.

    Its callers are _level, on normal forms by multiplication
    (_normal_forms), and projective_bm, on evaluation vectors;
    hilbert_values walks the same kernel on evaluation vectors for the
    counts alone.  Full-degree rule: once a degree has s standard
    monomials, a later degree with exactly s candidates is all standard,
    and rows is not called for it.  It needs the precondition: the
    standard counts are then the Hilbert function H of s points, which
    never decreases and never exceeds s, so H is s from there on, and the
    candidates include the H(d) standard monomials.  The errors name the
    chart level, as only a level fed an inconsistent s or basis at
    infinity reaches them: the counts of s distinct points reach s, and
    the walk stops by degree s + 1."""
    full = False  # some degree had s standard monomials

    def kernel_rows(candidates):
        return None if full and len(candidates) == s else rows(candidates)

    elements = []
    for d, standard, new in _kernel_walk(arity, order, kernel_rows):
        if d > 4 * s + 8:
            raise RuntimeError("chart level failed to stabilize by degree %d" % d)
        # corners are found degree by degree in increasing order
        elements += new
        full = full or len(standard) == s
    if len(standard) != s:
        raise ValueError(
            "chart level stabilizes at %d standard monomials per degree, "
            "expected %d; its point sets are inconsistent" % (len(standard), s)
        )
    return GroebnerBasis(order, tuple(elements))


def _normal_forms(gb):
    """nf(e): the normal form of X^e modulo the reduced, monic basis gb, as
    (den, {standard exponent: int}), the ints over den in lowest terms,
    memoised for the life of nf.

    A standard e is its own normal form, and a leading exponent's is minus
    its element's tail, which is standard as gb is reduced.  Any other e
    lies strictly above a corner b, so some e_i with e - e_i still above b
    exists, and NF(X^e) = sum(c * NF(X^(m + e_i))) over the terms c*X^m of
    NF(X^(e - e_i)), by multiplication instead of division (FGLM).  Each
    such m is below e - e_i, so m + e_i is below e, and a term order is a
    well-order: the recursion ends.  The sum runs on ints, over the lcm of
    the NF(X^(m + e_i))'s denominators times NF(X^(e - e_i))'s.  A normal
    form modulo a Groebner basis is unique, so it equals the remainder of
    any division.  The memo is filled from an explicit stack, so no
    recursion limit is reached."""
    leads = gb.leading_exponents()
    memo = {}
    for le, g in zip(leads, gb.elements):
        row, den = cleared([-c for c in g.terms.values()])
        memo[le] = (den, {e: c for e, c in zip(g.terms, row) if e != le})

    def nf(exp):
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
    """Reduced deglex basis of the ideal of the s points of one level of
    the chart recursion, in `arity` variables with X1 first: those on the
    hyperplane {X1 = 0}, whose ideal in the other variables has the reduced
    deglex basis `infinite` (None if there are none), and those of the
    affine chart {X1 = 1}, `chart` (which may be empty).

    A form F vanishes at a point (0, p) iff F(0, x) does at p, and at a
    point (1, p) iff F(1, x) does.  So F lies in the ideal iff F(0, x) lies
    in the ideal of the part at infinity and F(1, x) in the chart's affine
    ideal I, that is iff both normal forms vanish: NF(F(0, x)) modulo
    `infinite` and NF(F(1, x)) modulo the lex basis of I.  The degree-d
    part of the ideal is the kernel of that map, walked by _degree_kernel
    on the two sides' int normal forms over the lcm of their denominators,
    keyed by (side, exponent).  X^gamma restricts to x^gamma[1:] on the
    chart, and at infinity to x^gamma[1:] if gamma[0] is 0 and to zero
    otherwise.  A side is present only if it holds points.  Each side's
    normal forms come by multiplication from one memo (_normal_forms) for
    the whole walk.  The ideal of a part at infinity that is all of its
    space (a point of P^0) is zero, and _normal_forms of its empty basis is
    the identity, so it needs no branch: there, F(0, x) is in the ideal iff
    it is zero."""
    sides = []
    if infinite is not None:
        sides.append((0, _normal_forms(infinite)))
    if chart.points:
        sides.append((1, _normal_forms(buchberger_moeller(chart, LEX)[0])))

    def rows(candidates):
        vecs = []
        for gamma in candidates:
            # at infinity, X1 * X^m restricts to 0
            parts = [(side, nf(gamma[1:])) for side, nf in sides if side or not gamma[0]]
            den = lcm(*(d for _, (d, _) in parts))
            vec = {(side, e): c * (den // d) for side, (d, terms) in parts for e, c in terms.items()}
            vecs.append((vec, den))
        columns = sorted(set().union(*(vec for vec, _ in vecs)))
        return [([vec.get(col, 0) for col in columns], den) for vec, den in vecs]

    return _degree_kernel(arity, DEGLEX, s, rows)


def cone_basis(chart):
    """Reduced deglex basis of the ideal of the lines through the chart's
    affine representatives, inside the ring with one extra (smallest)
    variable X1: the level with no points at infinity (_level)."""
    if chart.mode != AFFINE:
        raise ValueError("cone_basis needs an affine chart")
    if not chart.points:
        raise ValueError("cone_basis needs a nonempty chart")
    return _level(chart.dimension + 1, len(chart.points), None, chart)


def projective_bm(pointset, order):
    """Reduced deglex or degrevlex basis of the vanishing ideal of a
    projective point set, by the projective Buchberger-Moeller walk.

    The degree-d part of the ideal is the kernel of evaluation at the
    points (_evaluation_rows), walked by _degree_kernel."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("projective_bm needs a projective point set")
    if order not in (DEGLEX, DEGREVLEX):
        raise ValueError("projective_bm needs a degree-compatible order, got %r" % (order,))
    return _degree_kernel(pointset.dimension + 1, order, len(pointset.points), _evaluation_rows(pointset))


# ---------------------------------------------------------------------------
# the full recursion

def projective_gb(pointset):
    """Reduced deglex Groebner basis of the vanishing ideal of a projective
    point set, built chart by chart over the dimension and certified before
    return.

    The charts are walked from the last to the first.  The level of a
    chart holds the points of that chart and of the later ones, in the
    variables from the chart's own on; the basis of the later charts'
    points is its part at infinity (_level).  Levels with no points so far
    are skipped."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("projective_gb needs a projective point set")
    n = pointset.dimension
    if not pointset.points:
        return unit_basis(n + 1)
    current, s = None, 0
    for j, chart in reversed(list(enumerate(split_charts(pointset)))):
        s += len(chart.points)
        if s:
            current = _level(n + 1 - j, s, current, chart)
    report = certify(current, pointset)
    if not report.passed:
        raise ArithmeticError("internal certification failed: %s" % "; ".join(report.reasons))
    return current


# ---------------------------------------------------------------------------
# axis census

@dataclass(frozen=True)
class AxisReport:
    """All axes contained in the staircase complement D.

    axes holds (direction j, base) pairs with 1-based directions and
    base[j-1] == 0; per_direction counts them by j."""

    arity: int
    axes: tuple
    per_direction: tuple
    total: int


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
    H never decreases and never exceeds the point count s, so the walk stops
    once H reaches s, and the last count repeats for ever (after a Gotzmann
    stop it persists as well).  certify zips these values with a basis's
    counts, which a finite generator would cut short."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("hilbert_values needs a projective point set")
    s = len(pointset.points)
    for _, standard, _ in _kernel_walk(pointset.dimension + 1, DEGLEX, _evaluation_rows(pointset)):
        yield len(standard)
        if len(standard) == s:
            break
    yield from repeat(len(standard))


@dataclass(frozen=True)
class CertReport:
    passed: bool
    reasons: tuple


def _certify_core(gb, pointset, arity, order, homogeneous, count_reason):
    """Reasons from the checks certify and affine_certify share, in order.

    After the arity, element, vanishing and autoreducedness checks pass,
    count_reason() compares the staircase with the points; it returns None
    only when that proves gb to be the reduced basis, and then no S-pair is
    reduced.  Otherwise every S-pair is reduced once: the failing ones are
    the reasons, and the comparison's reason stands only if every pair
    reduces to zero.  A zero element is reported and reduces nothing.

    The vanishing check sums ints: for g of top degree T, D the lcm of its
    coefficients' denominators and (q*p, q) a point's integer vector and
    scale (cleared), sum((D*c_e) * q^(T-|e|) * (q*p)^e) over g's terms
    c_e*X^e is D * q^T * g(p), zero iff g(p) is, homogeneous g or not.  It
    is summed by monomial columns, each monomial's values at all q*p
    computed once: a term adds its column times D*c_e (and q^(T-|e|) if not
    1) to g's sums at all points.  Autoreducedness lists, once per distinct
    term, the elements whose leading exponent divides it; element i is
    reducible by each other element listed for one of its terms."""
    elements = gb.elements
    mismatched = [g.arity for g in elements if g.arity != arity]
    if mismatched:
        return ["basis arity %d does not match ambient %d" % (mismatched[0], arity)]
    reasons = []
    points = [cleared(p) for p in pointset.points]
    columns = {e: [prod(map(pow, v, e)) for v, _ in points] for e in {e for g in elements for e in g.terms}}
    leads = [None] * len(elements)  # None for a zero element
    for idx, g in enumerate(elements):
        if g.is_zero():
            reasons.append("element %d is zero" % idx)
            continue
        if homogeneous and not g.is_homogeneous():
            reasons.append("element %d is not homogeneous: %s" % (idx, g))
        leads[idx], lc = g.leading(order)
        if lc != 1:
            reasons.append("element %d is not monic" % idx)
        top = g.total_degree()
        sums = [0] * len(points)
        for e, a in zip(g.terms, cleared(g.terms.values())[0]):
            scaled = [a * q**k for _, q in points] if (k := top - total_degree(e)) else repeat(a)
            sums = [x + c * y for x, c, y in zip(sums, scaled, columns[e])]
        bad = next((p for p, x in zip(pointset.points, sums) if x), None)
        if bad is not None:
            reasons.append("element %d does not vanish at %r" % (idx, [str(x) for x in bad]))
    divisors = {e: [j for j, lh in enumerate(leads) if lh is not None and exp_divides(lh, e)] for e in columns}
    for i, g in enumerate(elements):
        for j in sorted({j for e in g.terms for j in divisors[e]} - {i}):
            reasons.append("element %d is reducible by element %d" % (i, j))
    if reasons:
        return reasons
    reason = count_reason()
    if reason is None:
        return []
    # not accepted: reduce every pair, so that the reasons name each failing one
    failing = [
        "S-polynomial of elements %d and %d does not reduce to zero" % (i, j)
        for i in range(len(elements))
        for j in range(i + 1, len(elements))
        if not normal_form(s_polynomial(elements[i], elements[j], order), elements, order).is_zero()
    ]
    return failing or [reason]


def certify(gb, pointset):
    """Certificate that gb is the reduced deglex basis of the vanishing
    ideal I of the point set.

    Checks: every element homogeneous, monic and vanishing at every point;
    autoreducedness; and the standard-monomial counts c_J(d) of J = <in(gb)>
    equal the Hilbert function H of I degree by degree, walked by
    standard_walk until its stop rule holds.  These prove it with no S-pair:

    - Every element vanishes, so <gb> lies in I and J in in(I).  Hence
      c_J(d) >= H(d), with equality in every degree iff J = in(I), that is
      iff gb is a Groebner basis of I; monic and autoreduced, the reduced one.
    - Ranking only J's degree-d standard monomials at the points (a fresh
      Echelon per degree, never a corner) proves H(d) >= c_J(d) if they are
      independent.  Once c_J(d) = s, H is s from then on (it never decreases
      nor exceeds s), so ranking stops and later counts are compared with s.
    - The walk stops after a degree d whose count c equals that of d-1,
      with c <= d-1 and no corner of J beyond degree d-1.  Macaulay's bound
      gives c^<d-1> = c, so by Gotzmann's persistence theorem J's count is c
      in every degree from d-1 on.  H never decreases, is at most J's
      count, and equals c at d, so it is c from d on as well: the counts
      agree in every degree.
    - If the counts always agree, H stays at s from some degree on, and
      the stop rule holds by degree max(s, max corner degree) + 1; so the
      comparison ends, with a verdict, after finitely many degrees.

    A dependent vector or a count other than s rejects at that degree,
    the first that differs (every earlier one agreed): hilbert_values is
    read up to it for the reason, and every S-pair is reduced, so that
    each reason names a failing check."""
    m = pointset.dimension + 1

    def hilbert_reason():
        leads, rows, s = list(gb.leading_exponents()), _evaluation_rows(pointset), len(pointset.points)
        full = False  # some degree had s independent standard monomials: then only counts are compared
        for d, standard in standard_walk(m, leads, DEGLEX):
            ech = Echelon()
            if len(standard) != s if full else any(ech.add(row, den) is not None for row, den in rows(standard)):
                # the degrees before d agreed, so d is the first that differs
                hf = next(islice(hilbert_values(pointset), d, None))
                return "degree %d: %d standard monomials but Hilbert function %d" % (d, len(standard), hf)
            full = len(standard) == s
        return None

    reasons = _certify_core(gb, pointset, m, DEGLEX, homogeneous=True, count_reason=hilbert_reason)
    return CertReport(not reasons, tuple(reasons))


def affine_certify(gb, pointset):
    """Affine analogue of certify: vanishing, autoreducedness, and a finite
    staircase complement of size equal to the point count s.

    These prove gb to be the reduced basis of the vanishing ideal I with no
    S-pair: <gb> lies in I, so J = <in(gb)> lies in in(I), which has exactly
    s standard monomials; J has s as well, so J = in(I).  A basis that fails
    is rejected; only then are its S-pairs reduced, as in certify."""
    s = len(pointset.points)

    def colength_reason():
        if not gb.elements:
            return "zero ideal cannot be the ideal of a finite point set"
        try:
            std = staircase_of(gb).standard_monomials()
        except ValueError:
            return "staircase complement is infinite"
        return None if len(std) == s else "%d standard monomials but %d points" % (len(std), s)

    reasons = _certify_core(
        gb, pointset, pointset.dimension, gb.order, homogeneous=False, count_reason=colength_reason
    )
    return CertReport(not reasons, tuple(reasons))
