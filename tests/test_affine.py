"""Tests for point sets, staircases and the evaluation-matrix basis builder."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    canonical_element,
    evaluate,
    monomial_value,
    monomials_of_degree,
    prime_height_rows,
    random_affine,
    reference_buchberger_moeller,
    standard_count,
)
from pointideals import (
    AFFINE,
    DEGLEX,
    LEX,
    PROJECTIVE,
    AxisReport,
    CertReport,
    GroebnerBasis,
    PointSet,
    Polynomial,
    Staircase,
    affine_certify,
    affine_points,
    buchberger_moeller,
    poly_str,
    projective_points,
    staircase_of,
)
from pointideals import affine
from pointideals.poly import exp_divides, order_key

# ---------------------------------------------------------------------------
# point-set construction


def test_affine_points_validates_length():
    with pytest.raises(ValueError):
        affine_points(2, [[1, 2, 3]])


def test_duplicate_points_rejected_with_both_indices():
    with pytest.raises(ValueError) as exc:
        affine_points(1, [[1], [2], [1]])
    assert "0" in str(exc.value) and "2" in str(exc.value)


def test_projective_normalization():
    ps = projective_points(1, [[2, 0], [3, 6]])
    assert ps.points == ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(2)))


def test_projective_zero_vector_rejected():
    with pytest.raises(ValueError):
        projective_points(1, [[0, 0]])


def test_projective_duplicates_detected_after_scaling():
    with pytest.raises(ValueError):
        projective_points(1, [[1, 2], [2, 4]])


@pytest.mark.parametrize(
    "mode, dimension, points, message",
    [
        (AFFINE, 1, ((1,), (2,), (1,)), "duplicate affine point at indices 0 and 2: ['1']"),
        (PROJECTIVE, 1, ((1, 0), (1, 0)), "duplicate projective point at indices 0 and 1: ['1', '0']"),
        # scaled duplicates: (2 : 4) is (1 : 2), but not normalized
        (PROJECTIVE, 1, ((1, 2), (2, 4)), "projective point ['2', '4']: first nonzero coordinate is not 1"),
        (PROJECTIVE, 2, ((0, 3, 1),), "projective point ['0', '3', '1']: first nonzero coordinate is not 1"),
        (PROJECTIVE, 1, ((0, 0),), "projective point ['0', '0']: first nonzero coordinate is not 1"),
        # a third coordinate, which certify would not read: it accepted the
        # basis of {(1 : 0), (1 : 1)} for these points
        (PROJECTIVE, 1, ((1, 0, 5), (1, 1, 7)), "projective point ['1', '0', '5'] has length 3 in dimension 1"),
        (AFFINE, 2, ((1, 2), (3,)), "affine point ['3'] has length 1 in dimension 2"),
        # a duplicate added to {(1 : 0), (1 : 1)}
        (PROJECTIVE, 1, ((1, 0), (1, 1), (1, 0)), "duplicate projective point at indices 0 and 2: ['1', '0']"),
        # valid points: every path builds the same set
        (PROJECTIVE, 1, ((1, 0), (1, 1)), None),
    ],
)
def test_raw_point_sets_are_distinct_and_normalized(mode, dimension, points, message):
    # PointSet itself rejects a point of the wrong length, a duplicate and,
    # in projective mode, a point whose first nonzero coordinate is not 1,
    # which may be a scaled duplicate: the Hilbert function's bound that the
    # kernel walk and the certificate rest on holds for distinct points only.
    # Every path that builds one checks: the call, _make, _replace and
    # unpickling; only tuple.__new__ skips the checks, to make a set to pickle
    raw = tuple.__new__(PointSet, (mode, dimension, points))
    paths = [
        lambda: PointSet(mode, dimension, points),
        lambda: PointSet._make(raw),
        lambda: PointSet(mode, dimension, ())._replace(points=points),
        lambda: pickle.loads(pickle.dumps(raw)),
    ]
    for build in paths:
        if message is None:
            assert build() == raw
            continue
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_records_keep_their_contract():
    # each record takes its fields by keyword or by position, prints them by
    # name, equals and hashes like a record of equal fields and refuses
    # assignment; GroebnerBasis takes its arity from its first element
    x = Polynomial(1, {(1,): 1})
    cases = [
        (
            PointSet,
            dict(mode=AFFINE, dimension=1, points=((Fraction(1),),)),
            "PointSet(mode='affine', dimension=1, points=((Fraction(1, 1),),))",
        ),
        (Staircase, dict(arity=1, corners=((1,),)), "Staircase(arity=1, corners=((1,),))"),
        (
            GroebnerBasis,
            dict(order=DEGLEX, elements=(x,), arity=1),
            "GroebnerBasis(order='deglex', elements=(Polynomial(1, [((1,), Fraction(1, 1))]),), arity=1)",
        ),
        (
            AxisReport,
            dict(arity=1, axes=((1, (0,)),), per_direction=(1,), total=1),
            "AxisReport(arity=1, axes=((1, (0,)),), per_direction=(1,), total=1)",
        ),
        (CertReport, dict(passed=True, reasons=()), "CertReport(passed=True, reasons=())"),
    ]
    for cls, fields, text in cases:
        record = cls(**fields)
        assert repr(record) == text
        twin = cls(*fields.values())
        assert record == twin and hash(record) == hash(twin)
        for name, value in fields.items():
            assert getattr(record, name) == value
            with pytest.raises(AttributeError):
                setattr(record, name, value)
    assert PointSet(AFFINE, 1, ()) != PointSet(AFFINE, 2, ())
    assert GroebnerBasis(DEGLEX, (x,)).arity == 1
    assert GroebnerBasis(order=DEGLEX, elements=(), arity=3).arity == 3
    with pytest.raises(ValueError):
        GroebnerBasis(DEGLEX, ())


# ---------------------------------------------------------------------------
# staircases


def test_staircase_membership_and_counts():
    stair = Staircase(2, ((1, 2), (3, 0)))
    assert stair.contains((1, 2))
    assert stair.contains((2, 5))
    assert not stair.contains((0, 7))
    # degree 3: (0,3) and (2,1) avoid both corner cones, (1,2) and (3,0) don't
    assert standard_count(stair, 3) == 2


def test_staircase_contains_rejects_another_arity():
    with pytest.raises(ValueError, match=r"exponent \(1, 2, 0\) does not match arity 2"):
        Staircase(2, ((1, 2),)).contains((1, 2, 0))


def test_standard_monomials_finite_and_infinite():
    finite = Staircase(2, ((2, 0), (0, 2)))
    assert sorted(finite.standard_monomials()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError):
        Staircase(2, ((1, 2),)).standard_monomials()


def _outcome(method, *args):
    try:
        return method(*args)
    except ValueError as e:
        return "ValueError: %s" % e


def test_standard_monomials_match_brute_force():
    # the walks against every monomial tested against every corner, on random
    # corner sets that need not be minimal, with or without pure powers, and
    # the unit and zero ideals, in arity 0-4
    rng = random.Random(21)
    for _ in range(600):
        n = rng.randint(0, 4)
        corners = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        corners += [tuple(rng.randint(1, 4) if j == i else 0 for j in range(n)) for i in range(n) if rng.random() < 0.7]
        if rng.random() < 0.05:
            corners.append((0,) * n)
        stair = Staircase(n, tuple(rng.sample(corners, len(corners))))
        cap = rng.randint(0, 6)
        for order in (LEX, DEGLEX):
            upto = [e for d in range(cap + 1) for e in monomials_of_degree(n, d) if not stair.contains(e)]
            assert stair.standard_monomials_upto(cap, order) == sorted(upto, key=order_key(order))
        pure = [[sum(b) for b in corners if sum(b) == b[i]] for i in range(n)]
        if all(pure):
            top = sum(map(min, pure))
            everything = [e for d in range(top + 1) for e in monomials_of_degree(n, d) if not stair.contains(e)]
            expected = sorted(everything)
        else:
            i = [bool(p) for p in pure].index(False)
            expected = "ValueError: staircase complement is infinite (no pure power in direction %d)" % (i + 1)
        assert _outcome(stair.standard_monomials) == expected


def test_standard_monomials_upto_walks_only_the_output():
    # C(2004, 4), about 7e11 monomials of degree <= 2000 in 4 variables, and
    # 2001 standard ones
    stair = Staircase(4, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert stair.standard_monomials_upto(2000) == [(k, 0, 0, 0) for k in range(2001)]


def test_staircase_of_zero_ideal_has_no_corners():
    # the zero ideal carries its arity as data, so its staircase is empty
    from pointideals.poly import GroebnerBasis

    assert staircase_of(GroebnerBasis(DEGLEX, (), 2)) == Staircase(2, ())
    with pytest.raises(ValueError, match="needs its arity"):
        GroebnerBasis(DEGLEX, ())


# ---------------------------------------------------------------------------
# vanishing-ideal bases


def test_single_point_basis():
    gb, stair, std = buchberger_moeller(affine_points(2, [[3, 5]]), LEX)
    assert [poly_str(g, LEX, 2) for g in gb.elements] == ["X2 - 3", "X3 - 5"]
    assert std == [(0, 0)]


def test_empty_point_set_gives_unit_ideal():
    gb, stair, std = buchberger_moeller(affine_points(2, []), LEX)
    assert gb.is_unit()
    assert std == []
    assert stair.corners == ((0, 0),)


def test_parabola_lex_basis():
    pts = affine_points(2, [[0, 0], [1, 1], [2, 4]])
    gb, stair, std = buchberger_moeller(pts, LEX)
    # elements are sorted by increasing leading exponent; X1^3 precedes X2 in lex
    assert [poly_str(g, LEX, 1) for g in gb.elements] == [
        "X1^3 - 3*X1^2 + 2*X1",
        "X2 - X1^2",
    ]
    assert std == [(0, 0), (1, 0), (2, 0)]
    assert stair.corners == ((0, 1), (3, 0))


def test_parabola_deglex_basis_differs():
    pts = affine_points(2, [[0, 0], [1, 1], [2, 4]])
    gb, stair, std = buchberger_moeller(pts, DEGLEX)
    assert len(std) == 3
    assert sorted(std) == [(0, 0), (0, 1), (1, 0)]


def test_basis_vanishes_and_certifies():
    pts = affine_points(2, [[1, 2], [Fraction(1, 2), 0], [-3, 1], [0, 0]])
    for order in (LEX, DEGLEX):
        gb, stair, std = buchberger_moeller(pts, order)
        for g in gb.elements:
            for p in pts.points:
                assert evaluate(g, p) == 0
        assert len(std) == 4
        assert affine_certify(gb, pts).passed


def test_incremental_evaluation_vectors_match_monomial_value(monkeypatch):
    """The kernel is fed, in increasing term order, the evaluation vector of
    every standard monomial and every corner."""
    fed = []

    class Recording(affine.Echelon):
        def add(self, row, den):
            fed.append([Fraction(x, den) for x in row])
            return super().add(row, den)

    monkeypatch.setattr(affine, "Echelon", Recording)
    rng = random.Random(505)
    for k in range(20):
        ps = random_affine(rng, 2 + k % 2, rng.randint(1, 12))
        for order in (LEX, DEGLEX):
            fed.clear()
            _, stair, standard = buchberger_moeller(ps, order)
            exps = sorted(standard + list(stair.corners), key=order_key(order))
            assert fed == [[monomial_value(e, p) for p in ps.points] for e in exps]


def test_buchberger_moeller_divides_nothing(monkeypatch):
    # a popped monomial is a candidate iff every divisor e - e_i pushed it,
    # counted as it is pushed: no scan of the corners
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return exp_divides(a, b)

    monkeypatch.setattr(affine, "exp_divides", counted)
    rng = random.Random(2929)
    corners = 0
    for n, s in ((2, 9), (3, 8), (2, 15), (3, 14)):
        ps = random_affine(rng, n, s)
        for order in (LEX, DEGLEX):
            gb, stair, std = buchberger_moeller(ps, order)
            assert len(std) == s
            corners += len(stair.corners)
    assert corners > 0
    assert calls == []


def test_buchberger_moeller_computes_only_the_columns_it_ranks(monkeypatch):
    # each ranked monomial's column is computed once, as it is ranked, and
    # every divisor X^(e - e_i) it may be built from was ranked before it, so
    # the table holds no other monomial
    computed, added = [], []
    value_columns = affine._value_columns

    def recorded_columns(arity, vectors):
        col = value_columns(arity, vectors)

        def recorded(e):
            computed.append((e, col(e)))
            return computed[-1][1]

        return recorded

    class Recorded(affine.Echelon):
        def add(self, row, den):
            added.append(row)
            return super().add(row, den)

    monkeypatch.setattr(affine, "_value_columns", recorded_columns)
    monkeypatch.setattr(affine, "Echelon", Recorded)
    rng = random.Random(3030)
    for n, s in ((2, 9), (3, 8), (2, 15), (3, 14)):
        ps = random_affine(rng, n, s)
        for order in (LEX, DEGLEX):
            computed.clear()
            added.clear()
            gb, stair, std = buchberger_moeller(ps, order)
            ranked = [e for e, _ in computed]
            assert sorted(ranked) == sorted(std + list(stair.corners))
            assert len(set(ranked)) == len(ranked) == len(added)
            assert all(row is values for (_, values), row in zip(computed, added))
            for k, e in enumerate(ranked):
                for i in range(n):
                    if e[i]:
                        assert e[:i] + (e[i] - 1,) + e[i + 1 :] in ranked[:k]


def test_matches_reference_buchberger_moeller():
    # small heights, and coordinate denominators that are distinct primes up
    # to 113: X^e's row is scaled by the product of q_i^e_i, with q_i the lcm
    # of coordinate i's denominators, a product of half the primes or more
    rng = random.Random(113)
    sets = [random_affine(rng, n, s) for n, s in ((2, 1), (2, 7), (3, 9))]
    sets += [affine_points(n, prime_height_rows(rng, n, s)) for n, s in ((2, 8), (2, 15), (3, 6), (3, 10))]
    sets.append(affine_points(2, []))
    for ps in sets:
        for order in (LEX, DEGLEX):
            assert buchberger_moeller(ps, order)[0] == reference_buchberger_moeller(ps, order)


def test_requires_affine_mode():
    with pytest.raises(ValueError):
        buchberger_moeller(projective_points(1, [[1, 1]]), LEX)


# ---------------------------------------------------------------------------
# canonical elements


def test_canonical_element_tail_is_standard():
    pts = affine_points(2, [[0, 0], [1, 1], [2, 4]])
    gb, stair, _ = buchberger_moeller(pts, LEX)
    f = canonical_element((1, 1), gb)
    assert f.leading(LEX)[0] == (1, 1)
    assert all(e == (1, 1) or not stair.contains(e) for e in f.terms)
    for p in pts.points:
        assert evaluate(f, p) == 0


def test_canonical_element_rejects_standard_exponent():
    gb, _, _ = buchberger_moeller(affine_points(1, [[0], [1]]), LEX)
    with pytest.raises(ValueError):
        canonical_element((0,), gb)


# ---------------------------------------------------------------------------
# randomized count law (small-scale; the acceptance suite runs it at volume)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 5))
def test_standard_count_equals_point_count(seed, n, s):
    rng = random.Random(seed)
    pts = random_affine(rng, n, s)
    for order in (LEX, DEGLEX):
        gb, stair, std = buchberger_moeller(pts, order)
        assert len(std) == s
        assert len(stair.standard_monomials()) == s
