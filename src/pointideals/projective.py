"""Vanishing ideals of finite projective point sets.

A projective point set is split into charts by the index of the first
nonzero coordinate.  The deglex basis of the cone over the finite chart is
built from the lex basis of the affine chart (cone_basis): degree by degree,
its elements are the kernel of the map to lex normal forms.  The
hyperplane-at-infinity part is lifted, and the two bases are merged degree
by degree into the basis of the union by the same per-degree kernel, on
normal forms modulo both bases (merge), taken by multiplication from a memo
(_normal_forms), not by division.  Fed evaluation vectors at the points,
that kernel gives the deglex or degrevlex basis directly (projective_bm).
The kernel walks degree by degree over the standard monomials of the
corners found so far (standard_walk), by set lookups, never dividing.
The chart recursion's result is certified independently: a basis whose
elements vanish (an int sum per element and point, at the point's integer
vector) and whose staircase counts match the Hilbert function (the standard
counts of the same kernel walk on evaluation vectors, which stops once they
reach the point count) is accepted without S-pairs; any other basis is
rejected, and only then are its S-pairs reduced, so that the reasons name
each failing check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count, islice, product, repeat
from math import lcm, prod

from .affine import (
    AFFINE,
    PROJECTIVE,
    affine_points,
    buchberger_moeller,
    staircase_of,
)
from .linalg import Echelon
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
# chart-1 basis via homogenization

def cone_basis(chart, trace=None):
    """Reduced deglex basis of the ideal of the lines through the chart's
    affine representatives, inside the ring with one extra (smallest)
    variable X1.

    A form F of degree d vanishes on those lines iff F(1, x) lies in the
    affine ideal I, that is iff the normal form of F(1, x) modulo the lex
    basis of I is zero.  So the degree-d part of the cone ideal is the
    kernel of F -> NF(F(1, x)), walked by _degree_kernel.  The vector of a
    candidate gamma is taken over the s lex standard monomials at
    beta = gamma[1:]: the coefficients of NF(X^beta), taken by
    multiplication and memoised per beta (_normal_forms).

    When a dict is passed as `trace`, it maps every projected corner
    e[1:] of a leading exponent e to its degree offset e[0], the power of
    X1 by which its element's degree exceeds |e[1:]|, in increasing lex
    order of e[1:].
    """
    if chart.mode != AFFINE:
        raise ValueError("cone_basis needs an affine chart")
    if not chart.points:
        raise ValueError("cone_basis needs a nonempty chart")
    n = chart.dimension
    glex, _, dstd = buchberger_moeller(chart, LEX)
    nf = _normal_forms(glex)

    def rows(candidates):
        return [[v.get(beta, 0) for beta in dstd] for v in (nf(gamma[1:]) for gamma in candidates)]

    gb = _degree_kernel(n + 1, DEGLEX, len(dstd), rows)
    if trace is not None:
        lexkey = order_key(LEX)
        for e in sorted(gb.leading_exponents(), key=lambda e: lexkey(e[1:])):
            trace[e[1:]] = e[0]
    return gb


# ---------------------------------------------------------------------------
# lifting the part at infinity

def lift_infinite_part(gb_sub):
    """Re-embed the basis of a point set inside the hyperplane {X1 = 0}.

    Adds X1 as a generator and shifts every exponent by a leading zero;
    the result is again a reduced deglex basis in the enlarged ring."""
    if gb_sub.is_zero_ideal():
        # zero ideal of the sub-space: the hyperplane itself remains
        raise ValueError("lift of a zero ideal needs an explicit arity")
    arity = gb_sub.arity + 1
    if gb_sub.is_unit():
        return unit_basis(arity)
    elements = [Polynomial.variable(arity, 0)]
    for g in gb_sub.elements:
        elements.append(Polynomial(arity, [((0,) + e, c) for e, c in g.terms.items()]))
    key = order_key(DEGLEX)
    elements.sort(key=lambda h: key(h.leading(DEGLEX)[0]))
    return GroebnerBasis(DEGLEX, tuple(elements))


# ---------------------------------------------------------------------------
# merging

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


def _integer_points(pointset):
    """(q, q*p) for each point p: q is the lcm of p's denominators, so q*p
    is an int vector, p's integer representative."""
    scales = [lcm(*(x.denominator for x in p)) for p in pointset.points]
    return [(q, [x.numerator * (q // x.denominator) for x in p]) for q, p in zip(scales, pointset.points)]


def _evaluation_rows(pointset):
    """rows(candidates) for _kernel_walk: each candidate's values at the
    points, each point p taken at its integer vector q*p (_integer_points).
    That scales p's entry of every degree-d vector by q^d, which leaves
    every dependency unchanged and hands the kernel ints."""
    vectors = [v for _, v in _integer_points(pointset)]

    def rows(candidates):
        return [[prod(map(pow, v, gamma)) for v in vectors] for gamma in candidates]

    return rows


def _kernel_walk(arity, order, rows):
    """Walk the homogeneous ideal I whose degree-d part is the kernel of a
    linear map v_d along standard_walk, yielding (d, standard, elements):
    the degree-d standard monomials of in(I), in increasing order, and the
    degree-d elements of I's reduced basis in `order`.

    rows(candidates) gives the vectors v_d(gamma) of one degree's
    candidates, or None if none of them can lead an element of I.  The
    vectors go to one Echelon in increasing order; a candidate whose vector
    depends on those kept before it is a corner gamma, with element
    gamma - sum(c_k * kept_k).

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
            for gamma, vec in zip(candidates, vecs):
                coeffs = ech.add(vec)
                if coeffs is None:
                    standard.append(gamma)
                else:
                    elements.append(Polynomial(arity, [(gamma, 1)] + [(e, -c) for e, c in zip(standard, coeffs)]))
                    corners.append(gamma)
        yield d, standard, elements


def _degree_kernel(arity, order, s, rows):
    """Reduced basis, in `order`, of the ideal _kernel_walk walks on rows,
    whose standard count must settle at the point count s.

    Its callers are cone_basis and merge, on normal forms by multiplication
    (_normal_forms), and projective_bm, on evaluation vectors; hilbert_values
    walks the same kernel on evaluation vectors for the counts alone.  The
    errors name merge, the only caller that can reach them: for cone_basis
    and projective_bm the counts are the Hilbert function of s distinct
    points, which reaches s, and the walk stops by degree s + 1."""
    elements = []
    for d, standard, new in _kernel_walk(arity, order, rows):
        if d > 4 * s + 8:
            raise RuntimeError("merge failed to stabilize by degree %d" % d)
        # corners are found degree by degree in increasing order
        elements += new
    if len(standard) != s:
        raise ValueError(
            "merged staircase stabilizes at %d standard monomials per degree, "
            "expected %d; the merged point sets are inconsistent" % (len(standard), s)
        )
    return GroebnerBasis(order, tuple(elements))


def _normal_forms(gb):
    """nf(e): the normal form of X^e modulo the reduced, monic basis gb, as
    a dict {standard exponent: coefficient}, memoised for the life of nf.

    A standard e is its own normal form, and a leading exponent's is minus
    its element's tail, which is standard as gb is reduced.  Any other e
    lies strictly above a corner b, so some e_i with e - e_i still above b
    exists, and NF(X^e) = sum(c * NF(X^(m + e_i))) over the terms c*X^m of
    NF(X^(e - e_i)), by multiplication instead of division (FGLM).  Each
    such m is below e - e_i, so m + e_i is below e, and a term order is a
    well-order: the recursion ends.  A normal form modulo a Groebner basis
    is unique, so it equals the remainder of any division.  The memo is
    filled from an explicit stack, so no recursion limit is reached."""
    leads = gb.leading_exponents()
    memo = {le: {e: -c for e, c in g.terms.items() if e != le} for le, g in zip(leads, gb.elements)}

    def nf(exp):
        stack = [exp]
        while stack:
            e = stack.pop()
            if e in memo:
                continue
            b = next((b for b in leads if exp_divides(b, e)), None)
            if b is None:
                memo[e] = {e: 1}
                continue
            i = next(i for i, (x, y) in enumerate(zip(b, e)) if y > x)
            parent = e[:i] + (e[i] - 1,) + e[i + 1 :]
            shifted = {m[:i] + (m[i] + 1,) + m[i + 1 :]: c for m, c in memo.get(parent, {}).items()}
            missing = [t for t in (parent, *shifted) if t not in memo]
            if missing:
                stack += [e, *missing]
                continue
            acc = {}
            for t, c in shifted.items():
                for f, d in memo[t].items():
                    acc[f] = acc.get(f, 0) + c * d
            memo[e] = {f: c for f, c in acc.items() if c}
        return memo[exp]

    return nf


def merge(gb0, gb1, s):
    """Reduced deglex basis of the intersection of two homogeneous
    vanishing ideals, given their reduced deglex bases and the total point
    count s.

    The degree-d part of the intersection is the kernel of the linear map
    f -> (NF0(f), NF1(f)) to the normal forms modulo gb0 and gb1, walked by
    _degree_kernel with vectors keyed by (side, exponent).  A corner lies in
    C0 and C1, the staircases of gb0 and gb1: outside C0, NF0(gamma) = gamma
    is a term of no smaller monomial's NF0, so the vector of gamma is
    independent.  Hence a degree with no candidate in both is all standard,
    and no normal form is taken there.  Each side's normal forms come by
    multiplication from one memo (_normal_forms) for the whole walk."""
    if gb0.order != DEGLEX or gb1.order != DEGLEX:
        raise ValueError("merge needs deglex bases")
    if gb1.is_unit():
        return gb0
    if gb0.is_unit():
        return gb1
    if gb0.is_zero_ideal() or gb1.is_zero_ideal():
        return GroebnerBasis(DEGLEX, ())
    m = gb0.arity
    if gb1.arity != m:
        raise ValueError("arity mismatch: %d vs %d" % (m, gb1.arity))
    sides = ((_normal_forms(gb0), staircase_of(gb0)), (_normal_forms(gb1), staircase_of(gb1)))

    def rows(candidates):
        if not any(all(st.contains(g) for _, st in sides) for g in candidates):
            return None
        vecs = []
        for gamma in candidates:
            vec = {}
            for side, (nf, _) in enumerate(sides):
                vec.update(((side, e), c) for e, c in nf(gamma).items())
            vecs.append(vec)
        columns = sorted(set().union(*vecs))
        return [[vec.get(col, 0) for col in columns] for vec in vecs]

    return _degree_kernel(m, DEGLEX, s, rows)


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
    return."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("projective_gb needs a projective point set")
    n = pointset.dimension
    if not pointset.points:
        return unit_basis(n + 1)
    charts = split_charts(pointset)
    current = unit_basis(0)
    count = 0
    for j in range(n + 1, 0, -1):
        arity = n + 2 - j
        if current.is_zero_ideal():  # the ideal of all of {X1 = 0} is (X1)
            gb0 = GroebnerBasis(DEGLEX, (Polynomial.variable(arity, 0),))
        else:
            gb0 = lift_infinite_part(current)
        chart = charts[j - 1]
        if chart.points:
            gb1 = cone_basis(chart)
            count += len(chart.points)
        else:
            gb1 = unit_basis(arity)
        current = merge(gb0, gb1, count)
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
        raise ValueError("hilbert_function needs a projective point set")
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
    coefficients' denominators and (q, q*p) a point's integer pair
    (_integer_points), sum((D*c_e) * q^(T-|e|) * (q*p)^e) over g's terms
    c_e*X^e is D * q^T * g(p), zero iff g(p) is.  Every q^(T-|e|) is 1 for a
    homogeneous g, and the same sum serves non-homogeneous elements and
    affine points, so the verdicts and reasons are those over Q."""
    elements = gb.elements
    mismatched = [g.arity for g in elements if g.arity != arity]
    if mismatched:
        return ["basis arity %d does not match ambient %d" % (mismatched[0], arity)]
    reasons = []
    points = _integer_points(pointset)
    tables = [{} for _ in points]  # monomial values at q*p, shared by all elements
    for idx, g in enumerate(elements):
        if g.is_zero():
            reasons.append("element %d is zero" % idx)
            continue
        if homogeneous and not g.is_homogeneous():
            reasons.append("element %d is not homogeneous: %s" % (idx, g))
        if g.leading(order)[1] != 1:
            reasons.append("element %d is not monic" % idx)
        scale = lcm(*(c.denominator for c in g.terms.values()))
        top = g.total_degree()
        terms = [(e, c.numerator * (scale // c.denominator), top - total_degree(e)) for e, c in g.terms.items()]
        for p, (q, v), table in zip(pointset.points, points, tables):
            table.update((e, prod(map(pow, v, e))) for e in g.terms.keys() - table.keys())
            if sum(a * q**k * table[e] for e, a, k in terms):
                reasons.append("element %d does not vanish at %r" % (idx, [str(x) for x in p]))
                break
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            if i == j or h.is_zero():
                continue
            lh = h.leading(order)[0]
            if any(exp_divides(lh, e) for e in g.terms):
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
    autoreducedness; and the standard-monomial counts of J = <in(gb)> match
    the Hilbert function H of I degree by degree, walked by standard_walk
    until its stop rule holds.  These prove the claim with no S-pair:

    - Every element vanishes, so <gb> lies in I and J lies in in(I).  Hence
      J's count is at least H(d) in every degree, with equality in every
      degree iff J = in(I), that is iff gb is a Groebner basis of I; monic
      and autoreduced, it is then the reduced one.
    - The walk stops after a degree d whose count c equals that of d-1,
      with c <= d-1 and no corner of J beyond degree d-1.  Macaulay's bound
      gives c^<d-1> = c, so by Gotzmann's persistence theorem J's count is c
      in every degree from d-1 on.  H never decreases, is at most J's
      count, and equals c at d, so it is c from d on as well: the counts
      agree in every degree.
    - If the counts always agree, H stays at s from some degree on, and
      the stop rule holds by degree max(s, max corner degree) + 1; so the
      comparison ends, with a verdict, after finitely many degrees.
    - H comes from the walk and Echelon that build gb, but it keeps only
      independent vectors, so it can only undercount: a fault there rejects.

    A basis that fails the comparison is rejected; only then is every
    S-pair reduced, so that each reason names a failing check."""
    m = pointset.dimension + 1

    def hilbert_reason():
        walk = standard_walk(m, list(gb.leading_exponents()), DEGLEX)
        for (d, standard), hf in zip(walk, hilbert_values(pointset)):
            if len(standard) != hf:
                return "degree %d: %d standard monomials but Hilbert function %d" % (d, len(standard), hf)
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
