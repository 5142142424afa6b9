"""Shared random-instance generators and differential references for the
test suite.

Coordinates are rationals p/q with |p| <= 5 and q <= 3 so exact
arithmetic stays cheap while still exercising non-integer points.  The
references are the straightforward versions of faster library code: a
dense Gauss-Jordan rref, the echelon kernel on Fraction rows, the Hilbert
function as the rank of all degree-d monomials on Fraction rows, the normal
form and certificates that rebuild the remainder on every step and reduce
every S-pair, the merge that solves one linear system per candidate and
the lift of the part at infinity that it was fed, the cone_basis that
solves one per candidate and degree offset, and Buchberger's algorithm,
the reference of the per-degree evaluation walk in any degree order.
The term-order comparison, every monomial of a degree, monomial and
polynomial evaluation over the rationals, per-degree standard counts,
kernel-walk rows of fixed verdicts, a cone basis's degree offsets and a
basis's relations are brute-force helpers that only the tests use, and
large_sets names the large projective sets that CI times.
"""

import heapq
import random
from fractions import Fraction
from itertools import islice, product

from pointideals import (
    AFFINE,
    DEGLEX,
    LEX,
    PROJECTIVE,
    CertReport,
    GroebnerBasis,
    Polynomial,
    Staircase,
    affine_points,
    buchberger_moeller,
    projective_points,
    s_polynomial,
    staircase_of,
    unit_basis,
)
from pointideals.linalg import cleared
from pointideals.poly import (
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    homogenize,
    normal_form,
    order_key,
    total_degree,
)


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


def large_sets():
    """The projective sets, by name, at the sizes the north star names and
    the benchmark does not run: P^2 with 40 points (seeds 3 and 7), P^3 with
    25 (seed 1) and P^4 with 20 (seed 2), each random_projective on
    random.Random(seed), and the P^1 chain of 50 points, (1 : i/7) for
    i < 49 and (0 : 1)."""
    sets = {"P%d, %d points, seed %d" % (n, s, seed): random_projective(random.Random(seed), n, s)
            for n, s, seed in ((2, 40, 3), (2, 40, 7), (3, 25, 1), (4, 20, 2))}
    sets["P1 chain, 50 points"] = projective_points(1, [[1, Fraction(i, 7)] for i in range(49)] + [[0, 1]])
    return sets


PRIMES_TO_113 = [p for p in range(2, 114) if all(p % q for q in range(2, p))]


def prime_height_rows(rng, n, s):
    """s rows of n rationals whose denominators are distinct primes up to
    113 (so n * s <= 30), which makes their lcm as large as the primes
    allow; rows with distinct denominators are distinct points."""
    primes = iter(rng.sample(PRIMES_TO_113, n * s))
    return [[Fraction(rng.choice([-1, 1]) * rng.randint(1, p - 1), p) for p in islice(primes, n)] for _ in range(s)]


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


# ---------------------------------------------------------------------------
# the echelon kernel as first written, on Fraction rows: the differential
# reference of the kernel on integer rows

_ONE = Fraction(1)


class ReferenceEchelon:
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


# ---------------------------------------------------------------------------
# the Hilbert function as a rank on Fraction rows: the differential
# reference of the evaluation walk, sharing neither the walk nor the
# integer kernel with it


def reference_hilbert_function(pointset, d):
    """Rank of the evaluation matrix of all degree-d monomials at the
    normalized representatives; the degree-d Hilbert function of the
    homogeneous coordinate ring."""
    if pointset.mode != PROJECTIVE:
        raise ValueError("hilbert_function needs a projective point set")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    monos = list(monomials_of_degree(pointset.dimension + 1, d))
    ech = ReferenceEchelon()
    for p in pointset.points:
        ech.add([monomial_value(e, p) for e in monos])
    return ech.rank


# ---------------------------------------------------------------------------
# Buchberger-Moeller on Fraction rows: the differential reference of
# buchberger_moeller's integer rows over one denominator


def reference_buchberger_moeller(pointset, order):
    """Reduced basis of the ideal of an affine point set, by
    Buchberger-Moeller on Fraction rows: each monomial's evaluation vector
    at the points, from monomial_value, goes to a ReferenceEchelon in
    increasing order, and multiples of corners are skipped."""
    n = pointset.dimension
    key = order_key(order)
    heap, seen = [(key((0,) * n), (0,) * n)], {(0,) * n}
    ech = ReferenceEchelon()
    standard, corners, basis = [], [], []
    while heap:
        exp = heapq.heappop(heap)[1]
        if any(exp_divides(b, exp) for b in corners):
            continue
        coeffs = ech.add([monomial_value(exp, p) for p in pointset.points])
        if coeffs is not None:
            corners.append(exp)
            basis.append(Polynomial(n, [(exp, 1)] + [(e, -c) for e, c in zip(standard, coeffs)]))
            continue
        standard.append(exp)
        for i in range(n):
            ne = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
            if ne not in seen:
                seen.add(ne)
                heapq.heappush(heap, (key(ne), ne))
    return GroebnerBasis(order, tuple(sorted(basis, key=lambda g: key(g.leading(order)[0]))), n)


# ---------------------------------------------------------------------------
# a basis back in the relation format the kernel walks yield, to feed
# _normal_forms bases that no walk returned as relations


def relations_of(gb):
    """The relations (lead, den, {e: c}) of a reduced, monic basis gb, the
    format of the kernel walks and of _normal_forms: NF(X^lead) is minus
    the tail of lead's element, as ints over one denominator (cleared)."""
    out = []
    for lead, g in zip(gb.leading_exponents(), gb.elements):
        row, den = cleared([-c for c in g.terms.values()])
        out.append((lead, den, {e: c for e, c in zip(g.terms, row) if e != lead}))
    return out


# ---------------------------------------------------------------------------
# evaluation and standard counts by brute force


def compare(order, a, b):
    """Compare two exponent vectors; returns -1, 0 or 1."""
    if len(a) != len(b):
        raise ValueError("exponent vectors have different lengths: %d vs %d" % (len(a), len(b)))
    key = order_key(order)
    ka, kb = key(a), key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def monomial_value(exp, point):
    """Exact value of X^exp at a point whose coordinates are Fractions."""
    v = Fraction(1)
    for x, e in zip(point, exp):
        if e:
            v *= x**e
    return v


def evaluate(p, point):
    """Exact evaluation of p at a vector of rationals."""
    if len(point) != p.arity:
        raise ValueError("point has length %d, expected %d" % (len(point), p.arity))
    point = [Fraction(x) for x in point]
    total = Fraction(0)
    for exp, coeff in p.terms.items():
        total += coeff * monomial_value(exp, point)
    return total


def monomials_of_degree(arity, d):
    """Yield all exponent vectors of the given arity and total degree d."""
    if arity == 0:
        if d == 0:
            yield ()
        return
    for i in range(d + 1):
        for rest in monomials_of_degree(arity - 1, d - i):
            yield (i,) + rest


def standard_count(stair, degree):
    """Number of degree-d standard monomials of a Staircase."""
    return sum(1 for e in monomials_of_degree(stair.arity, degree) if not stair.contains(e))


def unit_rows(found=()):
    """rows(candidates) for _kernel_walk that fix each candidate's verdict:
    the zero vector for one in `found`, which the walk then finds as a
    corner, and its own unit vector for any other, which is independent
    and so standard.  Walked with an s that no degree's count reaches, the
    walk then follows the staircase of its leads and the corners found."""
    def rows(candidates):
        n = len(candidates)
        return [([int(i == j and e not in found) for j in range(n)], 1) for i, e in enumerate(candidates)]

    return rows


# ---------------------------------------------------------------------------
# the certificate and normal form as first written: the differential
# references of the faster single-pass normal form and the pruned S-pair
# certificate


def reference_normal_form(f, divisors, order):
    """Remainder of f on division by the listed divisors.

    Deterministic strategy: always reduce the order-largest reducible
    monomial of the running remainder, by the first applicable divisor in
    list order.  No monomial of the result is divisible by any divisor's
    leading monomial.
    """
    divisors = list(divisors)
    if any(g.is_zero() for g in divisors):
        raise ValueError("zero divisor in reduction list")
    leads = [g.leading(order) for g in divisors]
    key = order_key(order)
    r = f
    while True:
        step = None
        for exp in sorted(r.terms, key=key, reverse=True):
            for (le, lc), g in zip(leads, divisors):
                if exp_divides(le, exp):
                    step = (exp, le, lc, g)
                    break
            if step:
                break
        if step is None:
            return r
        exp, le, lc, g = step
        r = r - g.times(exp_sub(exp, le), r.terms[exp] / lc)


def reference_certify(gb, pointset):
    """Certificate that gb is the reduced basis, in its own order, of the
    vanishing ideal of the point set.

    Checks: every element homogeneous, monic and vanishing at every point;
    autoreducedness; every S-polynomial reduces to zero; and the staircase
    standard-monomial counts match the Hilbert function degree by degree
    until both stabilize at the point count."""
    reasons = []
    s = len(pointset.points)
    m = pointset.dimension + 1
    elements = gb.elements
    order = gb.order
    if gb.arity != m:
        reasons.append("basis arity %d does not match ambient %d" % (gb.arity, m))
        return CertReport(False, tuple(reasons))
    for idx, g in enumerate(elements):
        if g.is_zero():
            reasons.append("element %d is zero" % idx)
            continue
        if not g.is_homogeneous():
            reasons.append("element %d is not homogeneous: %s" % (idx, g))
        if g.leading(order)[1] != 1:
            reasons.append("element %d is not monic" % idx)
        for p in pointset.points:
            if evaluate(g, p) != 0:
                reasons.append("element %d does not vanish at %r" % (idx, [str(x) for x in p]))
                break
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            if i == j:
                continue
            lh = h.leading(order)[0]
            if any(exp_divides(lh, e) for e in g.terms):
                reasons.append("element %d is reducible by element %d" % (i, j))
    if not reasons:
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                r = reference_normal_form(s_polynomial(elements[i], elements[j], order), elements, order)
                if not r.is_zero():
                    reasons.append("S-polynomial of elements %d and %d does not reduce to zero" % (i, j))
    if not reasons:
        if elements:
            stair = staircase_of(gb)
        else:
            stair = Staircase(m, ())
        d = 0
        stable = 0
        max_deg = stair.max_corner_degree()
        while True:
            std = standard_count(stair, d)
            hf = reference_hilbert_function(pointset, d) if pointset.points else 0
            if std != hf:
                reasons.append(
                    "degree %d: %d standard monomials but Hilbert function %d" % (d, std, hf)
                )
                break
            stable = stable + 1 if std == s else 0
            if d >= max_deg + 1 and stable >= 2:
                break
            d += 1
            if d > 4 * max(s, 1) + max_deg + 8:
                reasons.append("Hilbert comparison failed to stabilize by degree %d" % d)
                break
    return CertReport(not reasons, tuple(reasons))


def reference_affine_certify(gb, pointset):
    """Affine analogue of certify: vanishing, autoreducedness, Buchberger's
    criterion, and a finite staircase complement of size equal to the point
    count."""
    reasons = []
    s = len(pointset.points)
    n = pointset.dimension
    elements = gb.elements
    if gb.arity != n:
        reasons.append("basis arity %d does not match ambient %d" % (gb.arity, n))
        return CertReport(False, tuple(reasons))
    order = gb.order
    for idx, g in enumerate(elements):
        if g.is_zero():
            reasons.append("element %d is zero" % idx)
            continue
        if g.leading(order)[1] != 1:
            reasons.append("element %d is not monic" % idx)
        for p in pointset.points:
            if evaluate(g, p) != 0:
                reasons.append("element %d does not vanish at %r" % (idx, [str(x) for x in p]))
                break
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            if i == j:
                continue
            lh = h.leading(order)[0]
            if any(exp_divides(lh, e) for e in g.terms):
                reasons.append("element %d is reducible by element %d" % (i, j))
    if not reasons:
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                r = reference_normal_form(s_polynomial(elements[i], elements[j], order), elements, order)
                if not r.is_zero():
                    reasons.append("S-polynomial of elements %d and %d does not reduce to zero" % (i, j))
    if not reasons:
        if not elements and n:
            # in no variables, the zero ideal is the ideal of the one point
            reasons.append("zero ideal cannot be the ideal of a finite point set")
        else:
            stair = staircase_of(gb)
            try:
                std = stair.standard_monomials()
            except ValueError:
                reasons.append("staircase complement is infinite")
            else:
                if len(std) != s:
                    reasons.append("%d standard monomials but %d points" % (len(std), s))
    return CertReport(not reasons, tuple(reasons))


# ---------------------------------------------------------------------------
# merge as first written: one linear system per candidate over the
# canonical elements of the free monomials of its degree; the differential
# reference of the one-kernel-per-degree merge


def _canonical_homogeneous(gb, exp, cache):
    if exp not in cache:
        mono = Polynomial.monomial(len(exp), exp)
        cache[exp] = mono - normal_form(mono, gb.elements, DEGLEX)
    return cache[exp]


def reference_merge(gb0, gb1, s):
    """Reduced deglex basis of the intersection of two homogeneous
    vanishing ideals, given their reduced deglex bases and the total point
    count s.

    Candidate leading exponents are the staircase intersection, enumerated
    in increasing deglex order; each candidate is accepted iff a linear
    system matching the two canonical-element expansions is solvable.
    Enumeration stops once the standard-monomial count is constant over two
    consecutive degrees at a value not exceeding the lower degree and no
    corner lies beyond it (Macaulay growth makes the count persist); the
    stabilized count must equal s."""
    if gb0.order != DEGLEX or gb1.order != DEGLEX:
        raise ValueError("merge needs deglex bases")
    if gb1.is_unit():
        return gb0
    if gb0.is_unit():
        return gb1
    if gb0.is_zero_ideal() or gb1.is_zero_ideal():
        return GroebnerBasis(DEGLEX, (), gb0.arity)
    m = gb0.arity
    if gb1.arity != m:
        raise ValueError("arity mismatch: %d vs %d" % (m, gb1.arity))
    s0 = staircase_of(gb0)
    s1 = staircase_of(gb1)
    key = order_key(DEGLEX)
    cache0 = {}
    cache1 = {}
    found = []
    elements = []
    prev = None  # standard-monomial count of the previous degree
    d = 0
    while True:
        monos = sorted(monomials_of_degree(m, d), key=key)
        for gamma in monos:
            if not (s0.contains(gamma) and s1.contains(gamma)):
                continue
            if any(exp_divides(b, gamma) for b in found):
                continue
            free = [
                e
                for e in monos
                if key(e) < key(gamma) and not any(exp_divides(b, e) for b in found)
            ]
            deltas = [e for e in free if s0.contains(e)]
            etas = [e for e in free if s1.contains(e)]
            f0g = _canonical_homogeneous(gb0, gamma, cache0)
            f1g = _canonical_homogeneous(gb1, gamma, cache1)
            f0s = [_canonical_homogeneous(gb0, e, cache0) for e in deltas]
            f1s = [_canonical_homogeneous(gb1, e, cache1) for e in etas]
            target = f0g - f1g
            support = set(target.terms)
            for poly in f0s + f1s:
                support.update(poly.terms)
            support = sorted(support)
            # columns: the f1s, then the negated f0s; a column dependent on
            # earlier ones gets coefficient 0
            ech = ReferenceEchelon()
            for p in f1s:
                ech.add([p.terms.get(e, 0) for e in support])
            n1 = ech.rank
            kept = [p for p in f0s if ech.add([-p.terms.get(e, 0) for e in support]) is None]
            coeffs = ech.query([target.terms.get(e, 0) for e in support])
            if coeffs is not None:
                fg = f0g
                for p, c in zip(kept, coeffs[n1:]):
                    if c:
                        fg = fg + p * c
                elements.append(fg)
                found.append(gamma)
        c = sum(1 for e in monos if not any(exp_divides(b, e) for b in found))
        if c == prev:
            max_corner = max((total_degree(b) for b in found), default=0)
            if max_corner <= d - 1 and c <= d - 1:
                if c != s:
                    raise ValueError(
                        "merged staircase stabilizes at %d standard monomials per degree, "
                        "expected %d; the merged point sets are inconsistent" % (c, s)
                    )
                break
        prev = c
        d += 1
        if d > 4 * s + 8:
            raise RuntimeError("merge failed to stabilize by degree %d" % d)
    elements.sort(key=lambda g: key(g.leading(DEGLEX)[0]))
    return GroebnerBasis(DEGLEX, tuple(elements))


# ---------------------------------------------------------------------------
# the part at infinity re-embedded, as the chart recursion first did before
# merging it with the cone basis; the reference_merge differential of each
# chart level takes it as its first basis


def reference_lift(gb_sub):
    """Re-embed the basis of a point set inside the hyperplane {X1 = 0}.

    Adds X1 as a generator and shifts every exponent by a leading zero;
    the result is again a reduced deglex basis in the enlarged ring; the
    zero ideal of the sub-space lifts to the hyperplane's ideal, (X1)."""
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
# cone_basis as first written: for each candidate projected corner and each
# degree offset, one linear system on canonical-element coefficients; the
# differential reference of the one-kernel-per-degree cone_basis


def canonical_element(sigma, gb):
    """The unique monic ideal element with leading exponent sigma whose
    other exponents are all standard."""
    stair = staircase_of(gb)
    if not stair.contains(sigma):
        raise ValueError("exponent %r is standard; the ideal has no element led by it" % (sigma,))
    mono = Polynomial.monomial(len(sigma), sigma)
    f = mono - normal_form(mono, gb.elements, gb.order)
    if not all(e == sigma or not stair.contains(e) for e in f.terms):
        raise ArithmeticError("canonical element tail must avoid the staircase")
    return f


def cone_offsets(gb):
    """For a cone basis, every projected corner e[1:] of a leading exponent
    e mapped to its degree offset e[0], the power of X1 by which its
    element's degree exceeds |e[1:]|, in increasing lex order of e[1:]."""
    return {e[1:]: e[0] for e in sorted(gb.leading_exponents(), key=lambda e: e[:0:-1])}


def reference_cone_basis(chart, trace=None):
    """Reduced deglex basis of the ideal of the lines through the chart's
    affine representatives, inside the ring with one extra (smallest)
    variable.

    Starts from the lex basis of the affine vanishing ideal; for each
    candidate leading projection, a linear system on canonical-element
    coefficients decides the minimal homogenized total degree.  When a
    dict is passed as `trace`, it records for every emitted projected
    corner the degree offset r at which its system first became solvable.
    """
    if chart.mode != AFFINE:
        raise ValueError("cone_basis needs an affine chart")
    if not chart.points:
        raise ValueError("cone_basis needs a nonempty chart")
    n = chart.dimension
    glex, stair, dstd = buchberger_moeller(chart, LEX)
    m = 2 + max((total_degree(b) for b in dstd), default=0)
    lexkey = order_key(LEX)
    canon = {}

    def f_of(beta):
        if beta not in canon:
            canon[beta] = canonical_element(beta, glex)
        return canon[beta]

    found = []  # (projected leading exponent, total degree of its g)
    found_full = []  # full-ring leading exponents emitted so far
    out = []
    for alpha in sorted(product(range(m + 1), repeat=n), key=lexkey):
        # a multiple of a corner ap emitted at offset 0 (dg == |ap|) would fail
        # the reducibility test below at any offset, as (0,) + ap divides it
        if not stair.contains(alpha) or any(
            dg == total_degree(ap) and exp_divides(ap, alpha) for ap, dg in found
        ):
            continue
        for r in range(m - total_degree(alpha) + 1):
            target = total_degree(alpha) + r
            ys = []
            for d in range(target + 1):
                for beta in monomials_of_degree(n, d):
                    if lexkey(beta) >= lexkey(alpha) or not stair.contains(beta):
                        continue
                    if all(
                        target + total_degree(ap) - dg < d
                        for ap, dg in found
                        if exp_divides(ap, beta)
                    ):
                        ys.append(beta)
            fa = f_of(alpha)
            fy = [f_of(b) for b in ys]
            high = sorted(
                {e for poly in [fa] + fy for e in poly.terms if total_degree(e) > target}
            )
            # a column dependent on earlier ones gets coefficient 0
            ech = ReferenceEchelon()
            kept = [f for f in fy if ech.add([f.terms.get(e, 0) for e in high]) is None]
            coeffs = ech.query([-fa.terms.get(e, 0) for e in high])
            if coeffs is not None:
                break
        else:
            continue
        g = fa
        for f, c in zip(kept, coeffs):
            if c:
                g = g + f * c
        lead_full = (g.total_degree() - total_degree(alpha),) + alpha
        if any(exp_divides(lf, lead_full) for lf in found_full):
            # reducible by an earlier output: not a corner, and larger r
            # only adds more powers of the homogenizing variable
            continue
        out.append(homogenize(g))
        found.append((alpha, g.total_degree()))
        found_full.append(lead_full)
        if trace is not None:
            trace[alpha] = r
    key = order_key(DEGLEX)
    out.sort(key=lambda h: key(h.leading(DEGLEX)[0]))
    return GroebnerBasis(DEGLEX, tuple(out), n + 1)


# ---------------------------------------------------------------------------
# Buchberger's algorithm with autoreduction: the reference of projective_bm,
# and of the reduced basis of any generating set


def _autoreduce(basis, order):
    """Minimalize and tail-reduce a basis whose S-pairs all reduce to zero."""
    key = order_key(order)
    basis = sorted((g.monic(order) for g in basis), key=lambda g: key(g.leading(order)[0]))
    minimal = []
    for g in basis:
        le = g.leading(order)[0]
        if not any(exp_divides(h.leading(order)[0], le) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        # minimality keeps each leading term, so the order is kept too
        reduced.append(normal_form(g, others, order).monic(order) if others else g)
    return tuple(reduced)


def buchberger(gens, order):
    """Reduced Groebner basis of the ideal generated by gens.

    Pair selection: smallest lcm of leading monomials under the active
    order first.  Pairs with coprime leading monomials are discarded.
    """
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise ValueError("all generators are zero")
    key = order_key(order)
    basis = []
    for g in polys:
        g = g.monic(order)
        if g not in basis:
            basis.append(g)
    leads = [g.leading(order)[0] for g in basis]
    pairs = [(key(exp_lcm(leads[i], leads[j])), i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if exp_lcm(leads[i], leads[j]) == exp_add(leads[i], leads[j]):
            continue
        r = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            basis.append(r.monic(order))
            leads.append(r.leading(order)[0])
            k = len(basis) - 1
            for i2 in range(k):
                heapq.heappush(pairs, (key(exp_lcm(leads[i2], leads[k])), i2, k))
    return GroebnerBasis(order, _autoreduce(basis, order))
