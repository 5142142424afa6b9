"""Tests for the incremental exact echelon kernel, against a dense
Gauss-Jordan reference and the kernel on Fraction rows."""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceEchelon, reference_solve, rref
from pointideals.linalg import Echelon, cleared

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=4)
# ints beside Fractions with large denominators, so that a vector's ints must
# be scaled by the lcm of its denominators like its Fractions
mixed = st.one_of(
    st.just(0),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9),
)


def matrices(max_dim=4):
    """Lists of equal-length rows."""
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(fractions, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    )


def rank(rows):
    ech = Echelon()
    for row in rows:
        ech.add(*cleared(row))
    return ech.rank


def coefficients(dependency):
    """Echelon.add's result with its (ints, den) dependency as Fractions."""
    if dependency is None:
        return None
    ints, den = dependency
    return [Fraction(c, den) for c in ints]


@contextmanager
def counting_fractions():
    """Collect the arguments of every Fraction constructed in the block."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", staticmethod(counted)):
        yield built


def solve(rows, b):
    """Solve rows * x = b on a throwaway kernel: add the columns in order,
    then b last; a column dependent on earlier ones gets 0.  A dependent b
    stores nothing and returns its coefficients; an independent one means
    the system is inconsistent."""
    ech = Echelon()
    independent = [ech.add(*cleared(col)) is None for col in zip(*rows)]
    coeffs = coefficients(ech.add(*cleared(b)))
    if coeffs is None:
        return None
    stored = iter(coeffs)
    return tuple(next(stored) if ind else Fraction(0) for ind in independent)


def test_rref_known():
    r, pivots = rref([[1, 2, 3], [2, 4, 7]])
    assert pivots == (0, 2)
    assert r == [[1, 2, 0], [0, 0, 1]]


def test_rank_examples():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0


def test_add_returns_dependency_coefficients():
    ech = Echelon()
    assert ech.add([1, 1, 0], 1) is None
    assert ech.add([0, 1, 1], 1) is None
    assert coefficients(ech.add([2, 3, 1], 1)) == [2, 1]
    assert coefficients(ech.add([0, 0, 0], 1)) == [0, 0]
    assert coefficients(ech.add([1, 2, 1], 1)) == [1, 1]
    assert ech.rank == 2
    assert ech.add([0, 0, 1], 1) is None
    assert coefficients(ech.add([1, 0, 0], 1)) == [1, -1, 1]


def test_add_returns_ints_over_one_den_in_lowest_terms():
    ech = Echelon()
    ech.add([2, 0], 1)
    ech.add([0, 3], 1)
    # (1/2, 1/3) = (1/4) * (2, 0) + (1/9) * (0, 3)
    assert ech.add([3, 2], 6) == ([9, 4], 36)
    assert ech.add([0, 0], 5) == ([0, 0], 1)
    # a negative t_new is folded into the ints, not the den
    assert ech.add([-4, 0], 1) == ([-2, 0], 1)


def test_solve_unique():
    assert solve([[2, 0], [0, 3]], [4, 9]) == (2, 3)


def test_solve_underdetermined_sets_free_vars_to_zero():
    assert solve([[1, 1]], [5]) == (5, 0)
    assert solve([[0, 1, 1]], [5]) == (0, 5, 0)


def test_solve_inconsistent():
    assert solve([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve([[1]], [1, 2])
    ech = Echelon()
    ech.add([0, 0], 1)
    with pytest.raises(ValueError):
        ech.add([1, 2, 3], 1)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_is_idempotent_and_rank_preserving(m):
    r, pivots = rref(m)
    r2, pivots2 = rref(r)
    assert r2 == r
    assert pivots2 == pivots
    assert rank(m) == len(pivots)
    assert rank(list(zip(*m))) == len(pivots)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_satisfies_system(m, data):
    cols = len(m[0])
    x = data.draw(st.lists(fractions, min_size=cols, max_size=cols))
    b = [sum(row[j] * x[j] for j in range(cols)) for row in m]
    sol = solve(m, b)
    assert sol is not None
    for row, y in zip(m, b):
        assert sum(row[j] * sol[j] for j in range(cols)) == y


@settings(max_examples=100, deadline=None)
@given(matrices(5), st.data())
def test_kernel_matches_reference(m, data):
    cols = len(m[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(fractions, min_size=cols, max_size=cols))
        b = [sum(row[j] * x[j] for j in range(cols)) for row in m]
    else:
        b = data.draw(st.lists(fractions, min_size=len(m), max_size=len(m)))
    assert rank(m) == len(rref(m)[1])
    assert solve(m, b) == reference_solve(m, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_kernel_matches_reference_echelon(length, data):
    ech, ref = Echelon(), ReferenceEchelon()
    drawn = []
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(["fresh", "zero", "multiple", "combination", "unit", "sparse"]))
        if kind == "zero":
            vec = [data.draw(st.sampled_from([0, Fraction(0)])) for _ in range(length)]
        elif kind == "unit":
            # often stored as is, with pivot entry 1, so later rows meet b/g = 1
            vec = [0] * length
            vec[data.draw(st.integers(0, length - 1))] = data.draw(st.sampled_from([1, Fraction(1)]))
        elif kind == "sparse":
            # at least half of the entries zero: updates over a short support
            vec = [0] * length
            for i in data.draw(st.sets(st.integers(0, length - 1), max_size=length // 2)):
                vec[i] = data.draw(mixed)
        elif kind == "multiple" and drawn:
            c = data.draw(mixed)
            vec = [c * x for x in data.draw(st.sampled_from(drawn))]
        elif kind == "combination" and drawn:
            coeffs = data.draw(st.lists(mixed, min_size=len(drawn), max_size=len(drawn)))
            vec = [sum(c * v[i] for c, v in zip(coeffs, drawn)) for i in range(length)]
        else:
            vec = data.draw(st.lists(mixed, min_size=length, max_size=length))
        drawn.append(vec)
        row, den = cleared(vec)
        # a common factor k of the row and its denominator changes nothing
        k = data.draw(st.sampled_from([1, 1, 2, 6, 35, 2**61 - 1]))
        with counting_fractions() as built:
            dependency = ech.add([k * x for x in row], k * den)
        assert built == []
        assert coefficients(dependency) == ref.add(vec)
        if dependency is not None:
            ints, q = dependency
            assert q > 0 and gcd(q, *ints) == 1
        assert ech.rank == ref.rank
