"""Tests for chart decomposition, chart levels, the per-degree kernel and
certification."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointideals
from helpers import (
    buchberger,
    cone_offsets,
    evaluate,
    large_sets,
    line_points,
    monomial_value,
    monomials_of_degree,
    p1_chain,
    prime_height_rows,
    random_affine,
    random_fraction,
    random_projective,
    reference_affine_certify,
    reference_certify,
    reference_cone_basis,
    reference_hilbert_function,
    reference_lift,
    reference_merge,
    relations_of,
    standard_count,
    unit_rows,
)
from pointideals import (
    DEGLEX,
    DEGREVLEX,
    GroebnerBasis,
    Polynomial,
    Staircase,
    affine_certify,
    affine_points,
    cone_basis,
    axis_census,
    buchberger_moeller,
    certify,
    hilbert_function,
    poly_str,
    projective_bm,
    projective_gb,
    projective_points,
    split_charts,
    staircase_of,
    unit_basis,
)
from pointideals import affine, io, projective
from pointideals.affine import _basis
from pointideals.linalg import Echelon
from pointideals.poly import LEX, exp_divides, normal_form, order_key, s_polynomial
from pointideals.projective import (
    _degree_kernel,
    _evaluation_rows,
    _kernel_walk,
    _level,
    _normal_forms,
    hilbert_values,
)

P1_THREE = [[1, 0], [1, 1], [0, 1]]
P2_COORD = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
RANK_ALL = 0  # an s that switches the walk's bound off: min(0, H(d-1) + 1) is 0


def _stair(gb, arity):
    return Staircase(arity, ()) if gb.is_zero_ideal() else staircase_of(gb)


# ---------------------------------------------------------------------------
# chart decomposition


def test_split_charts_p1():
    charts = split_charts(projective_points(1, P1_THREE))
    assert charts[0].dimension == 1
    assert charts[0].points == ((Fraction(0),), (Fraction(1),))
    assert charts[1].dimension == 0
    assert charts[1].points == ((),)


def test_split_charts_coordinate_points():
    charts = split_charts(projective_points(2, P2_COORD))
    assert [len(c.points) for c in charts] == [1, 1, 1]


def test_split_charts_needs_projective():
    with pytest.raises(ValueError):
        split_charts(affine_points(1, [[1]]))


# ---------------------------------------------------------------------------
# homogenized chart bases


def test_cone_basis_two_points_on_a_line():
    chart = affine_points(1, [[0], [1]])
    gb = cone_basis(chart)
    assert [poly_str(g) for g in gb.elements] == ["X2^2 - X1*X2"]


def test_cone_basis_parabola_chart():
    chart = affine_points(2, [[0, 0], [1, 1], [2, 4]])
    gb = cone_basis(chart)
    trace = cone_offsets(gb)
    assert [poly_str(g) for g in gb.elements] == [
        "X1*X3 - X2^2",
        "X2*X3 - 3*X2^2 + 2*X1*X2",
        "X3^2 - 7*X2^2 + 6*X1*X2",
        "X2^3 - 3*X1*X2^2 + 2*X1^2*X2",
    ]
    # the homogenization degree of the (0,1) corner is found one step above
    # the corner's own degree; every other corner homogenizes at offset zero
    assert trace[(0, 1)] == 1
    assert all(r == 0 for a, r in trace.items() if a != (0, 1))
    # corners are recorded in increasing lex order of the projection
    assert list(trace) == [(3, 0), (0, 1), (1, 1), (0, 2)]


def test_cone_basis_output_is_homogeneous_and_reduced():
    chart = affine_points(2, [[1, 2], [3, 4], [0, 1], [2, 2]])
    gb = cone_basis(chart)
    assert all(g.is_homogeneous() for g in gb.elements)
    leads = gb.leading_exponents()
    from pointideals.poly import exp_divides

    for g in gb.elements:
        lg = g.leading(DEGLEX)[0]
        for lh in leads:
            if lh != lg:
                assert not any(exp_divides(lh, e) for e in g.terms)


def _chart(rng, n, s, kind, height):
    """s distinct affine points in A^n with numerators up to `height`:
    generic, on a random line, or on the moment curve (t, t^2, ..., t^n)."""
    def param():
        return Fraction(rng.randint(-height, height), rng.randint(1, 3))

    base = [param() for _ in range(n)]
    direction = [rng.randint(1, 3) * rng.choice((-1, 1)) for _ in range(n)]
    pts = set()
    while len(pts) < s:
        t = param()
        if kind == "generic":
            pts.add(tuple(param() for _ in range(n)))
        elif kind == "line":
            pts.add(tuple(b + t * d for b, d in zip(base, direction)))
        else:
            pts.add(tuple(t ** (k + 1) for k in range(n)))
    return affine_points(n, [list(p) for p in sorted(pts)])


def test_cone_basis_matches_reference():
    # bases, and the offsets in the reference trace's insertion order,
    # against the solver of one linear system per candidate and offset
    rng = random.Random(808)
    shapes = [(n, s) for n, top in ((1, 10), (2, 10), (3, 8), (4, 5)) for s in range(1, top + 1)]
    offsets = set()
    for n, s in shapes:
        for kind in ("generic", "line", "moment"):
            chart = _chart(rng, n, s, kind, rng.choice((5, 10**3)))
            ref_trace = {}
            gb = cone_basis(chart)
            assert gb == reference_cone_basis(chart, trace=ref_trace)
            trace = cone_offsets(gb)
            assert list(trace.items()) == list(ref_trace.items())
            offsets.update(trace.values())
    assert max(offsets) >= 2


def test_cone_basis_rejects_empty_or_projective():
    with pytest.raises(ValueError):
        cone_basis(affine_points(1, []))
    with pytest.raises(ValueError):
        cone_basis(projective_points(1, [[1, 0]]))


# ---------------------------------------------------------------------------
# chart levels and the per-degree kernel


def test_all_exports_resolve():
    # a name left in __all__ after its function leaves the package fails here
    assert [name for name in pointideals.__all__ if not hasattr(pointideals, name)] == []


def test_degree_kernel_rejects_wrong_point_count():
    # the evaluation rows of three points of P^1 settle at 3 standard
    # monomials per degree, whether the count given is above or below
    rows = _evaluation_rows(projective_points(1, P1_THREE))
    for s in (5, 2):
        with pytest.raises(ValueError) as err:
            _degree_kernel(2, DEGLEX, s, rows)
        assert str(err.value) == (
            "chart level stabilizes at 3 standard monomials per degree, "
            "expected %d; its point sets are inconsistent" % s
        )


def test_degree_kernel_skips_full_degrees(monkeypatch):
    # a degree is ranked, each of its candidates added, iff it has more
    # candidates than min(s, H(d-1) + 1), which H(d) is at least: degree 0
    # is not, nor a degree with s candidates after H reached s (the walk is
    # run on its own, as projective_bm's certificate walks again)
    walked, adds = [], []

    def walk(*args):
        for d, standard, elements in _kernel_walk(*args):
            walked.append(len(standard) + len(elements))  # degree d's candidates
            yield d, standard, elements

    class Counted(Echelon):
        def add(self, row, den):
            adds.append(len(walked))  # the degree being ranked, not yet yielded
            return super().add(row, den)

    ps = random_projective(random.Random(10), 2, 10)
    hf = list(islice(hilbert_values(ps), 20))
    first_full = hf.index(10)
    monkeypatch.setattr(projective, "_kernel_walk", walk)
    monkeypatch.setattr(projective, "Echelon", Counted)
    for order in (DEGLEX, DEGREVLEX):
        walked.clear()
        adds.clear()
        _degree_kernel(3, order, 10, _evaluation_rows(ps))
        ranked = [d for d, c in enumerate(walked) if c > min(10, ([0] + hf)[d] + 1)]
        assert Counter(adds) == {d: walked[d] for d in ranked}
        assert 0 not in ranked and first_full in ranked
        assert any(walked[d] == 10 for d in range(first_full + 1, len(walked)) if d not in ranked)


# s points on a line, or of P^1, have H(d) = min(s, d + 1): the walk's bound
# min(s, H(d-1) + 1) is met in every degree
ON_A_LINE = {"P%d line, 7 points" % n: line_points(n, 7) for n in (2, 3, 4)}
ON_A_LINE["P1 chain, 50 points"] = p1_chain(50)


def _ranked_degrees(monkeypatch, run):
    """run()'s result, and every _kernel_walk it ran, in order: the set of
    degrees at which the walk added a row to an Echelon and the set of those
    at which it found an element."""
    walks = []

    def walk(*args):
        walks.append(([], set(), set()))
        walked, _, found = walks[-1]
        for d, standard, elements in _kernel_walk(*args):
            walked.append(d)
            if elements:
                found.add(d)
            yield d, standard, elements

    class Counted(Echelon):
        def add(self, row, den):
            walked, ranked, _ = walks[-1]
            ranked.add(len(walked))  # the degree being ranked, not yet yielded
            return super().add(row, den)

    monkeypatch.setattr(projective, "_kernel_walk", walk)
    monkeypatch.setattr(projective, "Echelon", Counted)
    result = run()
    monkeypatch.undo()
    return result, [(ranked, found) for _, ranked, found in walks]


@pytest.mark.parametrize("name", list(ON_A_LINE))
def test_walks_rank_only_corner_degrees_on_a_line(monkeypatch, name):
    # every walk, of a chart level, of projective_bm or of a certificate,
    # adds rows only at the degrees where it finds an element; a
    # certificate, which finds none, adds no row at all
    ps = ON_A_LINE[name]
    s = len(ps.points)
    assert list(islice(hilbert_values(ps), s + 2)) == [min(s, d + 1) for d in range(s + 2)]
    gb, walks = _ranked_degrees(monkeypatch, lambda: projective_gb(ps))
    assert all(ranked == found for ranked, found in walks)
    bm, ((ranked, found), certified) = _ranked_degrees(monkeypatch, lambda: projective_bm(ps, DEGREVLEX))
    assert ranked == found == {g.total_degree() for g in bm.elements}
    assert certified == (set(), set())
    assert _ranked_degrees(monkeypatch, lambda: certify(gb, ps))[1] == [(set(), set())]


def _spread_over_charts(rng, n, s):
    """A random projective set whose points have 0 to n leading zero
    coordinates, so they fall into up to n + 1 charts."""
    rows = set()
    while len(rows) < s:
        k = rng.randint(0, n)
        row = (Fraction(0),) * k + (Fraction(1),) + tuple(random_fraction(rng) for _ in range(n - k))
        rows.add(row)
    return projective_points(n, [list(r) for r in sorted(rows)])


def test_levels_match_reference_merge(monkeypatch):
    # every chart level projective_gb runs, recorded as (arity, point
    # count, basis at infinity, chart), against the merge of the lifted part
    # at infinity with the cone basis of the chart, as first computed
    calls = []

    def recording(arity, s, infinite, chart):
        relations = _level(arity, s, infinite, chart)
        # the level's int relations, and those it was fed, as bases
        calls.append((arity, s, _basis(arity - 1, DEGLEX, infinite), chart, _basis(arity, DEGLEX, relations)))
        return relations

    monkeypatch.setattr("pointideals.projective._level", recording)
    rng = random.Random(707)
    charts_used = []
    for i in range(40):
        n = rng.randint(1, 3)
        s = rng.randint(1, 7)
        if i % 2 == 0:
            ps = random_projective(rng, n, s)
        elif i % 4 == 1:
            ps = _with_points_at_infinity(rng, n, s)
        else:
            ps = _spread_over_charts(rng, rng.randint(2, 3), rng.randint(4, 8))
        charts_used.append(sum(1 for c in split_charts(ps) if c.points))
        projective_gb(ps)
    assert sum(1 for k in charts_used if k >= 3) >= 5
    both_sides = 0
    for arity, s, infinite, chart, gb in calls:
        gb0 = reference_lift(infinite)
        gb1 = reference_cone_basis(chart) if chart.points else unit_basis(arity)
        assert gb == reference_merge(gb0, gb1, s)
        # no points at infinity is the unit ideal there
        both_sides += not infinite.is_unit() and bool(chart.points)
    assert both_sides >= 20


def test_kernel_is_fed_int_rows(monkeypatch):
    # every feeder clears its own denominators: each vector reaches Echelon
    # as an int row over a positive int den, and no Fraction enters it
    fed = []

    class Checked(Echelon):
        def add(self, row, den):
            fed.append((row, den))
            return super().add(row, den)

    monkeypatch.setattr(affine, "Echelon", Checked)
    monkeypatch.setattr(projective, "Echelon", Checked)
    rng = random.Random(1414)
    spread = [_spread_over_charts(rng, 3, rng.randint(6, 9)) for _ in range(4)]
    assert all(sum(1 for c in split_charts(ps) if c.points) >= 3 for ps in spread)
    generic = [random_projective(rng, n, s) for n, s in ((2, 7), (3, 6))]
    runs = [
        ("buchberger_moeller", buchberger_moeller, [random_affine(rng, 2, 9), random_affine(rng, 3, 8)], (LEX, DEGLEX)),
        ("projective_gb", lambda ps, o: projective_gb(ps), spread, (None,)),
        ("projective_bm", projective_bm, spread + generic, (DEGLEX, DEGREVLEX)),
        ("hilbert_values", lambda ps, o: list(islice(hilbert_values(ps), 12)), spread + generic, (None,)),
    ]
    for name, run, sets, orders in runs:
        fed.clear()
        for ps in sets:
            for order in orders:
                run(ps, order)
        assert fed, name
        assert all(type(x) is int for row, _ in fed for x in row), name
        assert all(type(den) is int and den > 0 for _, den in fed), name
        # affine points and normal forms at infinity carry denominators; the
        # chart values, like all evaluation vectors, are ints
        assert (max(den for _, den in fed) > 1) == (name in ("buchberger_moeller", "projective_gb")), name


# ---------------------------------------------------------------------------
# normal forms by multiplication


def test_normal_forms_match_normal_form():
    # every exponent up to two degrees past the largest corner, in random
    # order, against division by the basis
    rng = random.Random(1010)
    bases = []
    for n, s in ((1, 3), (1, 7), (2, 3), (2, 6), (3, 2), (3, 5)):
        aff = random_affine(rng, n, s)
        bases.extend(buchberger_moeller(aff, order)[0] for order in (LEX, DEGLEX))
        for ps in (random_projective(rng, n, s), _with_points_at_infinity(rng, n, s)):
            gb = projective_gb(ps)
            bases.append(gb)
            bases.append(reference_lift(gb))
    for gb in bases:
        arity = gb.arity
        top = max(map(sum, gb.leading_exponents())) + 2
        exps = [e for d in range(top + 1) for e in monomials_of_degree(arity, d)]
        rng.shuffle(exps)
        nf = _normal_forms(relations_of(gb))
        for e in exps:
            den, terms = nf(e)
            assert den > 0 and gcd(den, *terms.values()) == 1
            assert {f: Fraction(c, den) for f, c in terms.items()} == normal_form(
                Polynomial.monomial(arity, e), gb.elements, gb.order
            ).terms


def test_normal_forms_deep_chain():
    # the point (1:2) of P^1: NF(X2^3000) is reached through 3000 nested
    # parents, far past the default recursion limit
    gb = projective_gb(projective_points(1, [[1, 2]]))
    assert [poly_str(g) for g in gb.elements] == ["X2 - 2*X1"]
    assert sys.getrecursionlimit() < 3000
    den, terms = _normal_forms(relations_of(gb))((0, 3000))
    assert {f: Fraction(c, den) for f, c in terms.items()} == {(3000, 0): 2**3000}


def test_chart_recursion_divides_nothing(monkeypatch):
    calls = []

    def counted(f, divisors, order):
        calls.append(f)
        return normal_form(f, divisors, order)

    monkeypatch.setattr("pointideals.projective.normal_form", counted)
    rng = random.Random(4321)
    rows = []
    for zeros, size in enumerate((4, 3, 2, 1)):
        chart = set()
        while len(chart) < size:
            chart.add((Fraction(0),) * zeros + (Fraction(1),) + tuple(random_fraction(rng) for _ in range(3 - zeros)))
        rows.extend(list(r) for r in sorted(chart))
    ps = projective_points(3, rows)
    assert [len(c.points) for c in split_charts(ps)] == [4, 3, 2, 1]
    assert certify(projective_gb(ps), ps).passed
    assert calls == []


def test_chart_recursion_builds_only_the_returned_polynomials(monkeypatch):
    # every level is handed on as int relations, and no chart has a basis
    # of its own: a Polynomial is built for each returned element and no other
    built = []
    init = Polynomial.__init__

    def counted(self, arity, terms=()):
        built.append(arity)
        init(self, arity, terms)

    rng = random.Random(2718)
    sets = [_spread_over_charts(rng, 3, rng.randint(6, 9)) for _ in range(3)]
    sets += [random_projective(rng, 2, 7), projective_points(2, []), projective_points(0, [[1]])]
    monkeypatch.setattr(Polynomial, "__init__", counted)
    for ps in sets:
        built.clear()
        gb = projective_gb(ps)
        assert built == [ps.dimension + 1] * len(gb.elements)


# ---------------------------------------------------------------------------
# the per-degree evaluation walk against the chart recursion and Buchberger


def _bm_references(ps):
    """projective_gb, and Buchberger's degrevlex basis of its elements."""
    gb = projective_gb(ps)
    if gb.is_zero_ideal():
        return gb, GroebnerBasis(DEGREVLEX, (), gb.arity)
    return gb, buchberger(gb.elements, DEGREVLEX)


def _assert_bm_matches(ps):
    deglex, degrevlex = _bm_references(ps)
    assert projective_bm(ps, DEGLEX) == deglex
    assert projective_bm(ps, DEGREVLEX) == degrevlex


def _high(rng):
    return Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))


BM_EDGE_CASES = {
    "empty P1": projective_points(1, []),
    "empty P3": projective_points(3, []),
    "P0": projective_points(0, [[7]]),
    "single point": projective_points(2, [[1, Fraction(2, 3), -5]]),
    "all at infinity": projective_points(2, [[0, 1, 0], [0, 1, 1], [0, 1, Fraction(-1, 2)], [0, 0, 1]]),
    "collinear": projective_points(2, [[1, k, 2 * k + 1] for k in range(5)]),
    "collinear at infinity": projective_points(3, [[0, 1, k, -k] for k in range(4)]),
    "conic": projective_points(2, [[1, k, k * k] for k in range(-2, 3)] + [[0, 0, 1]]),
    "twisted cubic": projective_points(3, [[1, k, k * k, k**3] for k in range(-2, 3)]),
    "coordinate points": projective_points(3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]),
    # equal numerators: the point vectors must be scaled by the denominators
    "denominators": projective_points(1, [[1, Fraction(1, k)] for k in (2, 3, 5)]),
}


@pytest.mark.parametrize("name", sorted(BM_EDGE_CASES))
def test_projective_bm_edge_cases(name):
    _assert_bm_matches(BM_EDGE_CASES[name])


def test_projective_bm_seeded_families():
    rng = random.Random(3131)
    for n in (1, 2, 3):
        # heights up to 10^3, all in chart 1
        _assert_bm_matches(projective_points(n, [[1] + [_high(rng) for _ in range(n)] for _ in range(4)]))
        # heights up to 10^3, spread over the charts
        rows = {(Fraction(0),) * k + (Fraction(1),) + tuple(_high(rng) for _ in range(n - k)) for k in range(n + 1)}
        _assert_bm_matches(projective_points(n, [list(r) for r in sorted(rows)]))
    # P^4 in deglex only, with few points
    for s in (1, 3, 5):
        ps = random_projective(rng, 4, s)
        assert projective_bm(ps, DEGLEX) == projective_gb(ps)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 6), st.sampled_from(["generic", "infinity", "spread"]))
def test_projective_bm_matches_references(seed, n, s, kind):
    rng = random.Random(seed)
    if kind == "generic":
        ps = random_projective(rng, n, s)
    elif kind == "infinity":
        ps = _with_points_at_infinity(rng, n, s)
    else:
        ps = _spread_over_charts(rng, n, s)
    _assert_bm_matches(ps)


def test_projective_bm_rejects_bad_input():
    with pytest.raises(ValueError):
        projective_bm(affine_points(1, [[1]]), DEGLEX)
    with pytest.raises(ValueError):
        projective_bm(projective_points(1, [[1, 0]]), LEX)


# ---------------------------------------------------------------------------
# full pipeline worked examples


def test_projective_gb_matches_bm_at_prime_heights():
    # coordinate denominators are distinct primes up to 113, generic and
    # spread over the charts, so that the chart values and the normal forms
    # at infinity are as large as the primes allow
    rng = random.Random(113)
    for n, s, spread in ((2, 14, False), (2, 13, True), (3, 9, False), (3, 9, True)):
        rows = []
        for free in prime_height_rows(rng, n, s):
            k = rng.randint(0, n - 1) if spread else 0
            rows.append([0] * k + [1] + free[: n - k])
        if spread:
            rows.append([0] * n + [1])
        ps = projective_points(n, rows)
        assert projective_gb(ps) == projective_bm(ps, DEGLEX)



def _wide_domain_sets(rng):
    """Seeded projective sets from domains the other tests leave out, as
    (kind, point set): n = 4 and 5, and P^4 with 12 and 14 points spread
    over the charts; heights up to 2^128, where the chart values are
    largest; every point in one chart other than the first, so that the
    last level's chart block has width 0; every point at infinity, and all
    but one, so that the top level's chart holds one point."""

    def coordinate(height):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def points(n, s, first_zeros, height):
        # each row: first_zeros() zeros, a 1, then coordinates up to height
        rows = set()
        while len(rows) < s:
            k = first_zeros()
            rows.add((Fraction(0),) * k + (Fraction(1),) + tuple(coordinate(height) for _ in range(n - k)))
        return projective_points(n, [list(r) for r in sorted(rows)])

    for n in (4, 5):
        for s in (2, 5, 8):
            yield "n = %d" % n, points(n, s, lambda: 0, 5)
            yield "n = %d, spread" % n, points(n, s, lambda: rng.randint(0, n - 1), 5)
    for s in (12, 14):
        yield "n = 4, 12+ points, spread", points(4, s, lambda: rng.randint(0, 3), 5)
    for n, s in ((1, 5), (2, 6), (3, 5), (4, 4)):
        yield "height 2^64", points(n, s, lambda: 0, 2**64)
        yield "height 2^64, spread", points(n, s, lambda: rng.randint(0, n - 1), 2**64)
    for n, s in ((2, 8), (3, 7)):
        yield "height 2^128, spread", points(n, s, lambda: rng.randint(0, n - 1), 2**128)
    # all in chart k + 1; chart n + 1 holds one point
    for n, k, s in ((2, 1, 4), (3, 1, 5), (3, 2, 3), (3, 3, 1), (4, 1, 4), (4, 2, 4), (4, 3, 2)):
        yield "one chart", points(n, s, lambda: k, 5)
    for n, s in ((2, 3), (3, 5), (4, 6), (5, 5)):
        yield "at infinity", points(n, s, lambda: rng.randint(1, n), 5)
    for n, s in ((2, 6), (3, 7), (4, 8)):
        rows = [list(p) for p in points(n, s - 1, lambda: rng.randint(1, n), 5).points]
        yield "all but one at infinity", projective_points(n, rows + [[1] + [coordinate(5) for _ in range(n)]])


def test_wide_domains_match_bm():
    # the chart recursion's basis document, byte for byte, is the
    # evaluation walk's, and its axes split like the charts; H, up to the
    # first degree where it reaches s, is the reference's rank of every
    # monomial of the degree, which shares no kernel walk code
    kinds = set()
    for seed in range(6):
        for kind, ps in _wide_domain_sets(random.Random(seed)):
            kinds.add(kind)
            gb = projective_gb(ps)
            assert io.dumps(io.basis_doc(gb)) == io.dumps(io.basis_doc(projective_bm(ps, DEGLEX))), kind
            census = axis_census(_stair(gb, ps.dimension + 1))
            assert list(census.per_direction) == [len(c.points) for c in split_charts(ps)], kind
            assert census.total == len(ps.points), kind
            for d, h in enumerate(hilbert_values(ps)):
                assert h == reference_hilbert_function(ps, d), (kind, d)
                if h == len(ps.points):
                    break
    assert len(kinds) == 11

def test_three_points_in_p1():
    gb = projective_gb(projective_points(1, P1_THREE))
    assert [poly_str(g) for g in gb.elements] == ["X1*X2^2 - X1^2*X2"]
    census = axis_census(staircase_of(gb))
    assert census.per_direction == (2, 1)
    assert census.total == 3
    assert {(j, b) for j, b in census.axes} == {
        (1, (0, 0)),
        (1, (0, 1)),
        (2, (0, 0)),
    }


def test_coordinate_points_in_p2():
    gb = projective_gb(projective_points(2, P2_COORD))
    assert [poly_str(g) for g in gb.elements] == ["X1*X2", "X1*X3", "X2*X3"]
    census = axis_census(staircase_of(gb))
    assert census.per_direction == (1, 1, 1)
    assert census.total == 3


def test_hilbert_function_values():
    p1 = projective_points(1, P1_THREE)
    assert [hilbert_function(p1, d) for d in range(4)] == [1, 2, 3, 3]
    p2 = projective_points(2, P2_COORD)
    assert [hilbert_function(p2, d) for d in range(3)] == [1, 3, 3]
    # s points on a line: H(d) = min(d + 1, s), so the walk runs to d = s - 1
    chain = projective_points(1, [[1, Fraction(i, 7)] for i in range(39)] + [[0, 1]])
    assert list(islice(hilbert_values(chain), 42)) == [min(d + 1, 40) for d in range(42)]


def _with_points_at_infinity(rng, n, s):
    """A random projective set in which about half the points have first
    coordinate 0."""
    rows = set()
    while len(rows) < s:
        row = (Fraction(rng.randint(0, 1)),) + tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)
        )
        if any(row):
            lead = next(x for x in row if x)
            rows.add(tuple(x / lead for x in row))
    return projective_points(n, [list(r) for r in sorted(rows)])


def test_hilbert_values_match_hilbert_function():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 3)
        s = rng.randint(0, 7)
        ps = random_projective(rng, n, s) if rng.random() < 0.5 else _with_points_at_infinity(rng, n, s)
        expected = [reference_hilbert_function(ps, d) for d in range(s + 3)]
        assert list(islice(hilbert_values(ps), s + 3)) == expected
        # the walk's bound: H(d) >= min(s, H(d-1) + 1), with H(-1) = 0
        assert all(h >= min(s, prev + 1) for h, prev in zip(expected, [0] + expected))
        # at most one per point and one per monomial of the degree
        assert all(h <= min(s, comb(n + d, n)) for d, h in enumerate(expected))


def _random_hilbert_points(rng, n, s):
    h, q = rng.choice([(1000, 1), (1, 1000), (1000, 1000)])
    rows = set()
    while len(rows) < s:
        row = tuple(Fraction(rng.randint(-h, h), rng.randint(1, q)) for _ in range(n + 1))
        if rng.random() < 0.3:
            row = (Fraction(0),) + row[1:]
        if any(row):
            rows.add(tuple(x / next(x for x in row if x) for x in row))
    return projective_points(n, [list(r) for r in sorted(rows)])


def test_hilbert_function_matches_reference():
    # heights and denominators up to 10^3, points at infinity, the empty set
    rng = random.Random(1013)
    for s in [0] + [rng.randint(1, 7) for _ in range(24)]:
        n = rng.randint(1, 3)
        ps = _random_hilbert_points(rng, n, s)
        for d in range(s + 3):
            assert hilbert_function(ps, d) == reference_hilbert_function(ps, d)
    # up to P^4 and 12 points; past the third degree at H = s, H stays at s
    rng = random.Random(1019)
    for _ in range(12):
        s, n = rng.randint(8, 12), rng.randint(1, 4)
        ps = _random_hilbert_points(rng, n, s)
        at_s = 0
        for d in range(s + 3):
            expected = reference_hilbert_function(ps, d)
            assert hilbert_function(ps, d) == expected
            at_s += expected == s
            if at_s == 3:
                break
    # equal numerators, distinct points: the denominators must count
    ps = projective_points(1, [[1, Fraction(1, k)] for k in (2, 3, 5)])
    assert [hilbert_function(ps, d) for d in range(4)] == [1, 2, 3, 3]


def _closed_form_cases():
    """(point set, H, basis degrees or None) for sets whose Hilbert function
    is known in closed form, with one point at infinity on the curve and
    the line.  The line's ideal is its n - 1 linear forms and one form of
    degree 7 vanishing at its points."""
    for n in (2, 3, 4):
        for s in (5, 9):
            # the rational normal curve (1 : t : ... : t^n), t = 0 ... s-2 and infinity
            rows = [[t ** k for k in range(n + 1)] for t in range(s - 1)] + [[0] * n + [1]]
            ps = projective_points(n, rows)
            yield pytest.param(ps, lambda d, n=n, s=s: min(s, n * d + 1), None, id="curve-n%d-s%d" % (n, s))
        # 7 points on the line (1 : t : 2t+1 : 3t-2 : t/2+1), t = -3 ... 2 and infinity
        rows = [[1, t, 2 * t + 1, 3 * t - 2, Fraction(t, 2) + 1][: n + 1] for t in range(-3, 3)]
        rows.append([0, 1, 2, 3, Fraction(1, 2)][: n + 1])
        yield pytest.param(projective_points(n, rows), lambda d: min(7, d + 1), [1] * (n - 1) + [7], id="line-n%d" % n)
    # the 3x4 grid (1 : i : j/3), a complete intersection of degrees 3 and 4
    rows = [[1, i, Fraction(j, 3)] for i in range(3) for j in range(4)]
    ps = projective_points(2, rows)
    yield pytest.param(ps, lambda d: sum(i + j <= d for i in range(3) for j in range(4)), None, id="grid-3x4")


@pytest.mark.parametrize("ps, h, basis_degrees", list(_closed_form_cases()))
def test_hilbert_function_closed_forms(ps, h, basis_degrees):
    # hilbert_values and the basis's staircase both count H(d) at d <= 40,
    # and the axis census counts the charts' points
    expected = [h(d) for d in range(41)]
    assert list(islice(hilbert_values(ps), 41)) == expected
    gb = projective_gb(ps)
    if basis_degrees is not None:
        assert [g.total_degree() for g in gb.elements] == basis_degrees
    stair = staircase_of(gb)
    degrees = [sum(e) for e in stair.standard_monomials_upto(40)]
    assert [degrees.count(d) for d in range(41)] == expected
    assert list(axis_census(stair).per_direction) == [len(c.points) for c in split_charts(ps)]


def test_empty_set_is_unit_ideal():
    assert projective_gb(projective_points(2, [])).is_unit()


def test_empty_set_is_certified(monkeypatch):
    # the unit ideal of no points is certified before it is returned, as
    # every other basis is
    calls = []

    def recording(gb, ps):
        report = certify(gb, ps)
        calls.append((gb, ps, report))
        return report

    monkeypatch.setattr(projective, "certify", recording)
    for n in (1, 3):
        calls.clear()
        ps = projective_points(n, [])
        gb = projective_gb(ps)
        assert gb == unit_basis(n + 1)
        assert [(g, p, r.passed) for g, p, r in calls] == [(gb, ps, True)]


def test_single_point_in_p0_is_zero_ideal():
    gb = projective_gb(projective_points(0, [[7]]))
    assert gb.is_zero_ideal()


def test_points_only_at_infinity():
    gb = projective_gb(projective_points(1, [[0, 1]]))
    assert [poly_str(g) for g in gb.elements] == ["X1"]


def test_projective_gb_needs_projective_input():
    with pytest.raises(ValueError):
        projective_gb(affine_points(1, [[1]]))


def test_hilbert_entry_points_name_themselves():
    aff = affine_points(1, [[1]])
    with pytest.raises(ValueError, match="^hilbert_function needs a projective point set$"):
        hilbert_function(aff, 0)
    with pytest.raises(ValueError, match="^hilbert_values needs a projective point set$"):
        next(hilbert_values(aff))
    # the certificates check the mode too: read as affine, (1:5) would be the
    # point 1, where x^2 - x vanishes
    with pytest.raises(ValueError, match="^certify needs a projective point set$"):
        certify(unit_basis(2), aff)
    x2_minus_x = GroebnerBasis(LEX, (Polynomial(1, [((2,), 1), ((1,), -1)]),))
    with pytest.raises(ValueError, match="^affine_certify needs an affine point set$"):
        affine_certify(x2_minus_x, projective_points(1, [[1, 5], [0, 1]]))


# ---------------------------------------------------------------------------
# axis census on explicit staircases


def test_axis_census_single_corner():
    census = axis_census(Staircase(2, ((1, 2),)))
    assert census.per_direction == (2, 1)
    assert {(j, b) for j, b in census.axes} == {
        (1, (0, 0)),
        (1, (0, 1)),
        (2, (0, 0)),
    }


def test_axis_census_zero_and_unit_ideal():
    assert axis_census(Staircase(2, ())).total == 2  # both coordinate axes
    assert axis_census(Staircase(2, ((0, 0),))).total == 0


# ---------------------------------------------------------------------------
# certificate


def test_certify_accepts_computed_basis():
    ps = projective_points(1, P1_THREE)
    assert certify(projective_gb(ps), ps).passed


def test_certify_rejects_coefficient_mutation():
    ps = projective_points(1, P1_THREE)
    gb = projective_gb(ps)
    g = gb.elements[0]
    exp = sorted(g.terms)[0]
    bad = g + Polynomial.monomial(g.arity, exp)
    report = certify(GroebnerBasis(DEGLEX, (bad,)), ps)
    assert not report.passed
    assert report.reasons


def test_certify_rejects_missing_element():
    ps = projective_points(2, P2_COORD)
    gb = projective_gb(ps)
    report = certify(GroebnerBasis(DEGLEX, gb.elements[:-1]), ps)
    assert not report.passed


def test_certify_rejects_inhomogeneous_element():
    ps = projective_points(1, P1_THREE)
    gb = projective_gb(ps)
    bad = gb.elements[0] + Polynomial.constant(2, 1)
    report = certify(GroebnerBasis(DEGLEX, (bad,)), ps)
    assert not report.passed
    assert any("homogeneous" in r for r in report.reasons)


def test_certify_reports_a_zero_element():
    zero = GroebnerBasis(DEGLEX, (Polynomial(2, []), Polynomial.variable(2, 0)))
    for check, ps in ((certify, projective_points(1, [[1, 2]])), (affine_certify, affine_points(2, [[1, 2]]))):
        assert check(zero, ps).reasons == ("element 0 is zero", "element 1 does not vanish at ['1', '2']")


def test_kernel_walk_does_not_stop_at_a_false_plateau():
    # J = (X1*X3^2, X1^3, X1*X2*X3) has standard counts 1, 3, 6, 7, 7, 8, 9:
    # equal at degrees 3 and 4, beyond every corner, but 7 > 3, so no stop
    leads = [(1, 0, 2), (3, 0, 0), (1, 1, 1)]
    walked = islice(_kernel_walk(3, DEGLEX, RANK_ALL, unit_rows(), leads), 7)
    assert [len(std) for _, std, _ in walked] == [1, 3, 6, 7, 7, 8, 9]


def test_kernel_walk_ends_after_a_corner_found_on_the_way():
    # X2^2 is found as a corner at degree 2: the counts are then 1, 2, 2, 2,
    # and the walk ends after degree 3, not with X2^2 counted
    walked = islice(_kernel_walk(2, DEGLEX, RANK_ALL, unit_rows({(0, 2)}), ()), 10)
    assert [(d, len(std), [e for e, _, _ in new]) for d, std, new in walked] == [
        (0, 1, []),
        (1, 2, []),
        (2, 2, [(0, 2)]),
        (3, 2, []),
    ]


def _found_at_random(rng, arity, degrees):
    """A random fifth of the monomials of the given degrees, to be found as
    corners (unit_rows)."""
    return {e for d in degrees for e in monomials_of_degree(arity, d) if rng.random() < 0.2}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_kernel_walk_takes_leads_and_corners_found(seed):
    # random leads, and a random fifth of each degree's candidates found as
    # corners: the candidates are always the monomials that no lead and no
    # corner found before divides, in order_key order
    rng = random.Random(seed)
    arity = rng.randint(1, 4)
    leads = [tuple(rng.randint(0, 3) for _ in range(arity)) for _ in range(rng.randint(0, 3))]
    rows = unit_rows(_found_at_random(rng, arity, range(10)))
    key = order_key(DEGLEX)
    corners = list(leads)
    degrees = 0
    for d, standard, elements in islice(_kernel_walk(arity, DEGLEX, RANK_ALL, rows, leads), 10):
        free = sorted((e for e in monomials_of_degree(arity, d) if not any(exp_divides(b, e) for b in corners)), key=key)
        found = [e for e, _, _ in elements]
        assert standard == [e for e in free if e not in found]
        assert found == [e for e in free if e in found]
        corners += found
        degrees += 1
    if degrees < 10:  # the walk stopped: its last count persists
        stair = Staircase(arity, tuple(corners))
        last = standard_count(stair, degrees - 1)
        assert all(standard_count(stair, e) == last for e in range(degrees, degrees + 5))


def test_kernel_walk_divides_nothing(monkeypatch):
    # candidates come from set lookups on the previous degree's standard
    # monomials, not from scanning the leads or the corners found
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return exp_divides(a, b)

    monkeypatch.setattr("pointideals.projective.exp_divides", counted)
    rng = random.Random(2718)
    walked = 0
    for _ in range(30):
        arity = rng.randint(1, 4)
        leads = [tuple(rng.randint(0, 3) for _ in range(arity)) for _ in range(rng.randint(1, 6))]
        rows = unit_rows(_found_at_random(rng, arity, range(12)))
        walk = islice(_kernel_walk(arity, DEGLEX, RANK_ALL, rows, leads), 12)
        walked += sum(len(std) + len(new) for _, std, new in walk)
    assert walked > 0
    assert calls == []


def test_kernel_walk_sorts_each_degree_by_order_key():
    # the within-degree sort keys run in C; on one degree they order as order_key
    for order in (DEGLEX, DEGREVLEX):
        for arity in range(1, 6):
            walked = list(islice(_kernel_walk(arity, order, RANK_ALL, unit_rows(), ()), 7))
            # with no corners, a single variable's count 1 persists from degree 2 on
            assert [d for d, _, _ in walked] == list(range(3 if arity == 1 else 7))
            for d, standard, _ in walked:
                assert standard == sorted(monomials_of_degree(arity, d), key=order_key(order))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_kernel_walk_matches_standard_count(seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 4)
    kind = rng.random()
    if kind < 0.1:
        leads = []
    elif kind < 0.2:
        leads = [(0,) * arity]  # the unit ideal
    else:
        leads = [
            tuple(rng.randint(0, 3) for _ in range(arity)) for _ in range(rng.randint(1, 5))
        ]
    stair = Staircase(arity, tuple(leads))
    counts = []
    for d, std, new in islice(_kernel_walk(arity, DEGLEX, RANK_ALL, unit_rows(), leads), 12):
        assert new == []
        assert len(std) == standard_count(stair, d)
        assert std == sorted(std, key=order_key(DEGLEX))
        counts.append(len(std))
    if len(counts) < 12:  # the walk stopped: its last count persists
        d = len(counts) - 1
        assert all(standard_count(stair, e) == counts[-1] for e in range(d + 1, d + 6))


# ---------------------------------------------------------------------------
# randomized cross-checks (small-scale; the acceptance suite runs at volume)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 6))
def test_axes_count_points(seed, n, s):
    rng = random.Random(seed)
    ps = random_projective(rng, n, s)
    gb = projective_gb(ps)
    census = axis_census(_stair(gb, n + 1))
    assert census.total == s
    assert list(census.per_direction) == [len(c.points) for c in split_charts(ps)]


def test_projective_gb_at_the_north_star_size():
    # 25 generic points of P^3, the largest projective size the benchmark
    # aims at: a certified basis whose axes split like the charts
    ps = random_projective(random.Random(2525), 3, 25)
    gb = projective_gb(ps)
    assert certify(gb, ps).passed
    census = axis_census(staircase_of(gb))
    assert census.total == 25
    assert list(census.per_direction) == [len(c.points) for c in split_charts(ps)]



def test_large_sets_have_their_stated_shapes():
    # the sets CI times, one projective_gb and one projective_bm each:
    # dimension and point count as named, and each chain's affine points
    # and one at infinity
    sets = large_sets()
    shapes = [(2, 40), (2, 40), (3, 25), (4, 20), (1, 50), (1, 100)]
    assert [(ps.dimension, len(ps.points)) for ps in sets.values()] == shapes
    # the chart recursion agrees with the evaluation walk where the chart
    # values are largest
    for name, ps in sets.items():
        assert projective_gb(ps) == projective_bm(ps, DEGLEX), name
    for s in (50, 100):
        assert [len(c.points) for c in split_charts(sets["P1 chain, %d points" % s])] == [s - 1, 1]

@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_basis_independent_of_point_order(seed):
    rng = random.Random(seed)
    ps = random_projective(rng, 2, 5)
    rows = [list(p) for p in ps.points]
    rng.shuffle(rows)
    assert projective_gb(projective_points(2, rows)) == projective_gb(ps)


# ---------------------------------------------------------------------------
# the certificate against the reference


def _candidates(gb, ps, other, rng):
    """The computed basis, two single-term mutations, every basis with one
    element dropped, and the basis checked against a different point set."""
    out = [(gb, ps), (gb, other)]
    for _ in range(2 if gb.elements else 0):
        i = rng.randrange(len(gb.elements))
        g = gb.elements[i]
        exp = sorted(g.terms)[rng.randrange(len(g.terms))]
        mutated = g + Polynomial.monomial(g.arity, exp)
        out.append((GroebnerBasis(gb.order, gb.elements[:i] + (mutated,) + gb.elements[i + 1 :]), ps))
    for i in range(len(gb.elements)):
        out.append((GroebnerBasis(gb.order, gb.elements[:i] + gb.elements[i + 1 :], gb.arity), ps))
    return out


def test_certificates_reject_an_element_of_another_arity():
    mixed = GroebnerBasis(DEGLEX, (Polynomial(2, [((1, 0), 1)]), Polynomial(3, [((0, 1, 0), 1)])))
    for check, ps in ((certify, projective_points(1, [[1, 0]])), (affine_certify, affine_points(2, [[0, 0]]))):
        report = check(mixed, ps)
        assert report.reasons == ("basis arity 3 does not match ambient 2",)


def test_certify_matches_reference():
    rng = random.Random(4242)
    spair_rejects = 0
    for _ in range(25):
        n = rng.randint(1, 3)
        s = rng.randint(1, 7)
        ps = random_projective(rng, n, s) if rng.random() < 0.5 else _with_points_at_infinity(rng, n, s)
        other = random_projective(rng, n, s)
        for basis in (projective_gb(ps), projective_bm(ps, DEGREVLEX)):
            for gb, points in _candidates(basis, ps, other, rng):
                report = certify(gb, points)
                assert report == reference_certify(gb, points)
                spair_rejects += any(r.startswith("S-polynomial") for r in report.reasons)
    assert spair_rejects > 0


def test_affine_certify_matches_reference():
    rng = random.Random(2424)
    spair_rejects = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        s = rng.randint(1, 8)
        ps = random_affine(rng, n, s)
        other = random_affine(rng, n, s)
        for order in (LEX, DEGLEX, DEGREVLEX):
            gb = buchberger_moeller(ps, order)[0]
            for cand, points in _candidates(gb, ps, other, rng):
                report = affine_certify(cand, points)
                assert report == reference_affine_certify(cand, points)
                spair_rejects += any(r.startswith("S-polynomial") for r in report.reasons)
    assert spair_rejects > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_certificates_match_reference_on_random_candidates(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        n = rng.randint(1, 3)
        s = rng.randint(1, 6)
        ps = random_projective(rng, n, s) if rng.random() < 0.5 else _with_points_at_infinity(rng, n, s)
        other = random_projective(rng, n, s)
        for gb, points in _candidates(projective_gb(ps), ps, other, rng):
            assert certify(gb, points) == reference_certify(gb, points)
    else:
        n = rng.randint(2, 3)
        s = rng.randint(1, 7)
        ps = random_affine(rng, n, s)
        other = random_affine(rng, n, s)
        gb = buchberger_moeller(ps, rng.choice([LEX, DEGLEX]))[0]
        for cand, points in _candidates(gb, ps, other, rng):
            assert affine_certify(cand, points) == reference_affine_certify(cand, points)


def _inhomogeneous_candidates(gb, ps, rng):
    """Per element: a lower-degree term added, a coefficient scaled by 7/3,
    and both, the added term chosen to make the element vanish at the first
    point.  That element vanishes there over Q, but a sum that weighted its
    terms by the wrong powers of the point's denominators would not."""
    out = []
    for i, g in enumerate(gb.elements):
        top = g.total_degree()
        if top == 0:
            continue
        low = rng.choice([e for d in range(top) for e in monomials_of_degree(g.arity, d)])
        exp = sorted(g.terms)[rng.randrange(len(g.terms))]
        scaled = Polynomial(g.arity, {**g.terms, exp: g.terms[exp] * Fraction(7, 3)})
        mutants = [g + Polynomial.monomial(g.arity, low, Fraction(rng.randint(1, 5), rng.randint(1, 4))), scaled]
        value = monomial_value(low, ps.points[0])
        residue = evaluate(scaled, ps.points[0])
        if value and residue:
            mutants.append(scaled - Polynomial.monomial(g.arity, low, residue / value))
        for h in mutants:
            out.append(GroebnerBasis(gb.order, gb.elements[:i] + (h,) + gb.elements[i + 1 :]))
    return out


def test_certificates_match_reference_on_inhomogeneous_candidates():
    # points with denominators 2 and 3, so that a point's integer vector is
    # q*p with q > 1, and q^(T - |e|) matters for a non-homogeneous element
    rng = random.Random(6060)
    vanish_at_first = 0
    for _ in range(10):
        n = rng.randint(1, 2)
        s = rng.randint(2, 5)
        rows = set()
        while len(rows) < s:
            rows.add((Fraction(1), Fraction(rng.choice([-5, -3, -1, 1, 3, 5]), 2))
                     + tuple(Fraction(rng.randint(-4, 4), 3) for _ in range(n - 1)))
        ps = projective_points(n, [list(r) for r in sorted(rows)])
        for cand in _inhomogeneous_candidates(projective_gb(ps), ps, rng):
            report = certify(cand, ps)
            assert report == reference_certify(cand, ps)
            assert not report.passed
            first = "does not vanish at %r" % ([str(x) for x in ps.points[0]],)
            vanish_at_first += not any(r.endswith(first) for r in report.reasons)
        aff = affine_points(n, sorted({
            tuple(Fraction(rng.choice([-5, -1, 1, 5]), rng.choice([2, 3])) for _ in range(n)) for _ in range(s)
        }))
        for order in (LEX, DEGLEX):
            for cand in _inhomogeneous_candidates(buchberger_moeller(aff, order)[0], aff, rng):
                assert affine_certify(cand, aff) == reference_affine_certify(cand, aff)
    assert vanish_at_first > 0


def test_accepted_bases_reduce_no_s_pair(monkeypatch):
    pairs = []

    def counted(f, g, order):
        pairs.append((f, g))
        return s_polynomial(f, g, order)

    monkeypatch.setattr("pointideals.projective.s_polynomial", counted)
    rng = random.Random(77)
    for _ in range(8):
        ps = random_projective(rng, rng.randint(1, 3), rng.randint(2, 7))
        assert certify(projective_gb(ps), ps).passed
        aff = random_affine(rng, rng.randint(2, 3), rng.randint(2, 7))
        for order in (LEX, DEGLEX):
            assert affine_certify(buchberger_moeller(aff, order)[0], aff).passed
    assert pairs == []
    # a dropped-element basis is rejected, and then every pair is reduced
    ps = projective_points(2, [[1, 0, 0], [1, 1, 1], [1, 2, 4], [0, 0, 1]])
    dropped = GroebnerBasis(DEGLEX, projective_gb(ps).elements[:-1])
    report = certify(dropped, ps)
    assert report == reference_certify(dropped, ps)
    assert any(r.startswith("S-polynomial") for r in report.reasons)
    k = len(dropped.elements)
    reduced = {(dropped.elements.index(f), dropped.elements.index(g)) for f, g in pairs}
    assert {(i, j) for j in range(k) for i in range(j)} <= reduced


def _other_on_a_line(ps):
    """A set of ps's shape on another line, or chain."""
    n, s = ps.dimension, len(ps.points)
    return p1_chain(s, Fraction(1, 5)) if n == 1 else line_points(n, s, 2)


@pytest.mark.parametrize("name", list(ON_A_LINE))
def test_certify_on_a_line_matches_reference(name):
    # the bound skips every rank of these certificates, so their verdicts
    # rest on it: of the computed bases, two single-term mutations of each,
    # every dropped-element basis and the bases against another line, only
    # the computed bases pass, with the reference's reasons (against which
    # the chain of 50 takes seconds per basis, so the chain of 20 stands in)
    ps = ON_A_LINE[name]
    rng = random.Random(2525)
    for points in [ps] if ps.dimension > 1 else [ps, p1_chain(20)]:
        for basis in (projective_gb(points), projective_bm(points, DEGREVLEX)):
            for k, (gb, pts) in enumerate(_candidates(basis, points, _other_on_a_line(points), rng)):
                report = certify(gb, pts)
                assert report.passed == (k == 0)
                if len(points.points) < 50:
                    assert report == reference_certify(gb, pts)
    if ps.dimension == 1:
        zero = GroebnerBasis(DEGLEX, (), 2)
        assert certify(zero, ps).reasons == ("degree 50: 51 standard monomials but Hilbert function 50",)


# ---------------------------------------------------------------------------
# the certificate's fast paths


def _unreduced_candidates(gb, same_degree):
    """Bases that are not autoreduced, built from a reduced one: an element
    plus another element with a smaller leading monomial (of its degree if
    same_degree), so that its tail holds that leading monomial verbatim; an
    element's one-variable multiple appended, whose leading exponent the
    element's divides; and an element repeated."""
    key = order_key(gb.order)
    els = gb.elements
    leads = gb.leading_exponents()
    out = []
    for i, g in enumerate(els):
        for j, h in enumerate(els):
            if key(leads[j]) < key(leads[i]) and (not same_degree or sum(leads[j]) == sum(leads[i])):
                out.append(GroebnerBasis(gb.order, els[:i] + (g + h,) + els[i + 1 :]))
                break
    for k, h in enumerate(els):
        x = Polynomial.variable(gb.arity, k % gb.arity)
        out.append(GroebnerBasis(gb.order, els + (x * h,)))
        out.append(GroebnerBasis(gb.order, els[: k + 1] + (h,) + els[k + 1 :]))
    return out


def test_certificates_match_reference_on_unreduced_bases():
    # a tail term equal to another element's leading monomial must be caught
    # although a set of all terms would hold it only once
    rng = random.Random(5150)
    tails_with_a_lead = 0
    for _ in range(8):
        n = rng.randint(1, 3)
        ps = random_projective(rng, n, rng.randint(2, 7))
        gb = projective_gb(ps)
        for cand in _unreduced_candidates(gb, same_degree=True):
            report = certify(cand, ps)
            assert report == reference_certify(cand, ps)
            assert any("reducible" in r for r in report.reasons)
            tails_with_a_lead += len(cand.elements) == len(gb.elements)
        aff = random_affine(rng, rng.randint(2, 3), rng.randint(2, 7))
        for order in (LEX, DEGLEX):
            agb = buchberger_moeller(aff, order)[0]
            for cand in _unreduced_candidates(agb, same_degree=False):
                report = affine_certify(cand, aff)
                assert report == reference_affine_certify(cand, aff)
                assert any("reducible" in r for r in report.reasons)
                tails_with_a_lead += len(cand.elements) == len(agb.elements)
    assert tails_with_a_lead > 0


def test_certify_checks_autoreducedness_once_per_basis(monkeypatch):
    # each distinct term against every leading exponent once, not every
    # ordered pair of elements against every term
    ps = random_projective(random.Random(2525), 3, 25)
    gb = projective_gb(ps)
    leads = gb.leading_exponents()
    tails = {e for g, lead in zip(gb.elements, leads) for e in g.terms if e != lead}
    bound = len(leads) * (len(tails) + len(leads))
    assert bound < (len(leads) - 1) * sum(len(g.terms) for g in gb.elements)
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return exp_divides(a, b)

    monkeypatch.setattr("pointideals.projective.exp_divides", counted)
    assert certify(gb, ps).passed
    assert 0 < len(calls) <= bound


def _over_three_charts(rng, n, s):
    while True:
        ps = _spread_over_charts(rng, n, s)
        if sum(bool(c.points) for c in split_charts(ps)) >= 3:
            return ps


def test_certify_accepts_without_the_hilbert_function(monkeypatch):
    # a basis is proved or rejected by the kernel walk from its leading
    # exponents, whose counts are the Hilbert function: hilbert_values is
    # called on neither path
    calls = []

    def counted(pointset):
        calls.append(pointset)
        return hilbert_values(pointset)

    monkeypatch.setattr(projective, "hilbert_values", counted)
    rng = random.Random(1515)
    sets = [random_projective(rng, n, rng.randint(1, 9)) for n in (1, 2, 3)]
    sets += [_over_three_charts(rng, n, rng.randint(4, 10)) for n in (2, 3, 3)]
    for ps in sets:
        gb = projective_gb(ps)
        assert certify(gb, ps).passed
    assert calls == []
    hilbert_reasons = 0
    for ps in sets:
        gb = projective_gb(ps)
        for i in range(len(gb.elements)):
            dropped = GroebnerBasis(DEGLEX, gb.elements[:i] + gb.elements[i + 1 :], gb.arity)
            report = certify(dropped, ps)
            assert report == reference_certify(dropped, ps)
            hilbert_reasons += any("Hilbert function" in r for r in report.reasons)
    assert hilbert_reasons > 0
    assert calls == []


def test_kernel_walk_from_leads_counts_the_hilbert_function():
    # started from the leading exponents of vanishing elements, the walk's
    # standard counts are H(d) in every degree it walks, whether the leads
    # are those of the whole reduced basis or of one with an element dropped
    rng = random.Random(1919)
    sets = [random_projective(rng, n, rng.randint(2, 8)) for n in (1, 2, 3)]
    sets += [_over_three_charts(rng, n, rng.randint(4, 9)) for n in (2, 3)]
    found = 0
    for ps in sets:
        leads = projective_gb(ps).leading_exponents()
        rows = _evaluation_rows(ps)
        for drop in (None, *range(len(leads))):
            seed = [b for i, b in enumerate(leads) if i != drop]
            for d, standard, elements in _kernel_walk(ps.dimension + 1, DEGLEX, len(ps.points), rows, seed):
                assert len(standard) == reference_hilbert_function(ps, d)
                assert drop is not None or elements == []
                found += len(elements)
    assert found > 0


def test_certify_names_the_hilbert_value_of_the_first_differing_degree():
    # four collinear points of P^2 with the line dropped from their basis:
    # degree 1 is the first to differ, and H(1) = 2 while H(2) = 3
    ps = projective_points(2, [[1, 0, 1], [1, 1, 2], [1, 2, 3], [1, 3, 4]])
    gb = projective_gb(ps)
    line = [g for g in gb.elements if g.total_degree() == 1]
    assert len(line) == 1
    dropped = GroebnerBasis(DEGLEX, tuple(g for g in gb.elements if g is not line[0]))
    report = certify(dropped, ps)
    assert report == reference_certify(dropped, ps)
    assert "degree 1: 3 standard monomials but Hilbert function 2" in report.reasons


def test_certify_ranks_until_the_count_reaches_s(monkeypatch):
    # one Echelon.add per standard monomial of J in each degree d with more
    # of them than min(s, H(d-1) + 1), up to the first degree with s of
    # them; the other degrees only compare their count with that bound
    adds = []

    class Counted(Echelon):
        def add(self, row, den):
            adds.append(row)
            return super().add(row, den)

    rng = random.Random(1616)
    for ps in (random_projective(rng, 2, 9), _over_three_charts(rng, 3, 10)):
        gb = projective_gb(ps)
        stair = staircase_of(gb)
        counts = [standard_count(stair, 0)]
        while counts[-1] != len(ps.points):
            counts.append(standard_count(stair, len(counts)))
        monkeypatch.setattr(projective, "Echelon", Counted)
        adds.clear()
        assert certify(gb, ps).passed
        monkeypatch.undo()
        ranked = [c for c, prev in zip(counts, [0] + counts) if c > min(len(ps.points), prev + 1)]
        assert len(adds) == sum(ranked) < sum(counts)


def test_hilbert_values_build_no_polynomial(monkeypatch):
    built = []
    init = Polynomial.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    rng = random.Random(1818)
    sets = [random_projective(rng, 2, 9), _over_three_charts(rng, 3, 10), random_projective(rng, 1, 12)]
    monkeypatch.setattr(Polynomial, "__init__", counted)
    for ps in sets:
        assert list(islice(hilbert_values(ps), 16))[-1] == len(ps.points)
    assert built == []
