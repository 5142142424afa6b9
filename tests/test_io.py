"""Tests for the JSON interchange format."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointideals import DEGLEX, LEX, buchberger_moeller, affine_points, projective_gb, projective_points
from pointideals.io import (
    InputError,
    basis_doc,
    dumps,
    parse_basis,
    parse_points,
    parse_rational,
    points_doc,
    rational_str,
)


def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(4) == 4


@pytest.mark.parametrize("bad", ["", "1/0", "1.5", "a", "1/-2", None, [1], True])
def test_parse_rational_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


@given(st.fractions(max_denominator=50))
def test_rational_roundtrip(q):
    assert parse_rational(rational_str(q)) == q


def test_parse_points_projective_normalizes():
    ps = parse_points('{"space":"projective","dim":1,"points":[["2","0"],["1","1"]]}')
    assert ps.points[0] == (1, 0)


def test_parse_points_roundtrip():
    ps = parse_points(
        '{"space":"affine","dim":2,"points":[["1/2","-3"],["0","5/3"]]}'
    )
    assert parse_points(dumps(points_doc(ps))) == ps


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"space":"weird","dim":1,"points":[]}',
        '{"space":"affine","dim":-1,"points":[]}',
        '{"space":"affine","dim":1,"points":[["1","2"]]}',
        '{"space":"projective","dim":1,"points":[["0","0"]]}',
        '{"space":"projective","dim":1,"points":[["1","2"],["2","4"]]}',
        '{"space":"affine","dim":1,"points":"nope"}',
        '{"space":"affine","dim":true,"points":[["1"]]}',
        '{"space":"projective","dim":1,"points":[["1","2","3"]]}',
    ],
)
def test_parse_points_rejects_malformed(text):
    with pytest.raises(InputError):
        parse_points(text)


def test_basis_roundtrip_affine():
    ps = affine_points(2, [[1, 2], [3, Fraction(1, 2)]])
    gb, _, _ = buchberger_moeller(ps, LEX)
    doc = basis_doc(gb, first_var=2)
    back, first_var = parse_basis(dumps(doc))
    assert back == gb
    assert first_var == 2
    assert back.arity == 2


def test_basis_roundtrip_projective():
    ps = projective_points(1, [[1, 0], [1, 1], [0, 1]])
    gb = projective_gb(ps)
    back, _ = parse_basis(dumps(basis_doc(gb)))
    assert back == gb


def test_basis_terms_are_sorted_decreasing():
    ps = projective_points(1, [[1, 0], [1, 1], [0, 1]])
    doc = basis_doc(projective_gb(ps))
    terms = doc["basis"][0]
    assert terms[0][0] == [1, 2]  # leading term first
    assert terms == sorted(terms, key=lambda t: (sum(t[0]), t[0][::-1]), reverse=True)


@pytest.mark.parametrize(
    "text",
    [
        '{"order":"mystery","variables":2,"basis":[]}',
        '{"order":"deglex","variables":"x","basis":[]}',
        '{"order":"deglex","variables":2,"basis":[[[[1],"1"]]]}',
        '{"order":"deglex","variables":2,"basis":[[[[1,-1],"1"]]]}',
        '{"order":"deglex","variables":2,"basis":[["oops"]]}',
        '{"order":"deglex","variables":true,"basis":[[[[1],"1"]]]}',
        '{"order":"deglex","variables":2,"basis":[[[[true,0],"1"]]]}',
        '{"order":"deglex","variables":2,"first_variable":"x","basis":[]}',
        '{"order":"deglex","variables":2,"basis":5}',
        '{"order":"deglex","variables":2,"basis":[7]}',
        '{"order":"deglex","variables":1}',
    ],
)
def test_parse_basis_rejects_malformed(text):
    with pytest.raises(InputError):
        parse_basis(text)


def test_dumps_is_deterministic():
    ps = projective_points(1, [[1, 0], [1, 1], [0, 1]])
    a = dumps(basis_doc(projective_gb(ps)))
    b = dumps(basis_doc(projective_gb(ps)))
    assert a == b
    assert a.endswith("\n")
