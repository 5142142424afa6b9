"""Tests for sparse polynomials, term orders, division and Buchberger."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import buchberger, compare, evaluate, monomials_of_degree, reference_normal_form
from pointideals.poly import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    GroebnerBasis,
    Polynomial,
    dehomogenize,
    exp_divides,
    homogenize,
    normal_form,
    order_key,
    poly_str,
    s_polynomial,
    unit_basis,
)

ORDERS = (LEX, DEGLEX, DEGREVLEX)

exponents = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple)
)


def exponent_pairs():
    return st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple),
            st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple),
        )
    )


def polynomials_of_arity(n, max_deg=5):
    exps = st.lists(st.integers(0, max_deg), min_size=n, max_size=n).map(tuple)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    return st.lists(st.tuples(exps, coeffs), min_size=0, max_size=6).map(
        lambda terms: Polynomial(n, terms)
    )


def polynomials(min_arity=1, max_arity=4, max_deg=5):
    return st.integers(min_arity, max_arity).flatmap(lambda n: polynomials_of_arity(n, max_deg))


def division_problems():
    """(f, divisors, order): divisors are nonzero, share f's arity and are
    almost never a Groebner basis."""

    def build(n):
        divisors = st.lists(polynomials_of_arity(n, max_deg=3).filter(bool), max_size=4)
        return st.tuples(polynomials_of_arity(n), divisors, st.sampled_from(ORDERS))

    return st.integers(1, 4).flatmap(build)


# ---------------------------------------------------------------------------
# term orders


def test_index_zero_is_the_smallest_variable():
    # X1 corresponds to index 0 and is smaller than X2 in every order
    x1, x2 = (1, 0), (0, 1)
    for order in ORDERS:
        assert compare(order, x1, x2) < 0


def test_lex_ignores_degree():
    # (0,2) exceeds (2,1) in lex despite lower total degree
    assert compare(LEX, (0, 2), (2, 1)) > 0
    assert compare(DEGLEX, (0, 2), (2, 1)) < 0


def test_deglex_degree_first_then_lex():
    assert compare(DEGLEX, (3, 0), (0, 2)) > 0  # degree 3 beats degree 2
    assert compare(DEGLEX, (1, 2), (2, 1)) > 0  # equal degree: lex decides


def test_degrevlex_differs_from_deglex():
    # degree 2 in three variables: X1*X3 vs X2^2
    a, b = (1, 0, 1), (0, 2, 0)
    assert compare(DEGLEX, a, b) > 0
    assert compare(DEGREVLEX, a, b) < 0


@given(exponent_pairs())
def test_orders_are_total_and_antisymmetric(pair):
    a, b = pair
    for order in ORDERS:
        c = compare(order, a, b)
        assert c == -compare(order, b, a)
        assert (c == 0) == (a == b)


@settings(max_examples=150)
@given(exponent_pairs(), exponents)
def test_orders_are_multiplicative(pair, c):
    a, b = pair
    if len(c) != len(a):
        c = (c + (0,) * len(a))[: len(a)]
    for order in ORDERS:
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        assert compare(order, a, b) == compare(order, ac, bc)


@given(exponents)
def test_one_is_the_minimum(e):
    origin = (0,) * len(e)
    for order in ORDERS:
        assert compare(order, origin, e) <= 0


def test_monomials_of_degree_counts():
    assert len(list(monomials_of_degree(3, 4))) == 15  # C(6,2)
    assert list(monomials_of_degree(2, 0)) == [(0, 0)]


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_zero_terms_are_dropped():
    p = Polynomial(2, [((1, 0), Fraction(1)), ((0, 1), Fraction(0))])
    assert set(p.terms) == {(1, 0)}


def test_terms_are_collected_as_fractions():
    # int, str and Fraction coefficients; a repeated exponent is summed in
    # place, one that cancels is dropped and starts afresh if it repeats
    p = Polynomial(
        2,
        [
            ((1, 0), 1),
            ((0, 1), "1/2"),
            ((1, 0), Fraction(-1, 3)),
            ((0, 0), 0),
            ((0, 1), Fraction(-1, 2)),
            ((2, 0), "-3/4"),
            ((2, 0), 2),
            ((0, 1), 3),
            ((1, 0), "1/3"),
        ],
    )
    assert list(p.terms.items()) == [((1, 0), 1), ((2, 0), Fraction(5, 4)), ((0, 1), 3)]
    assert all(type(c) is Fraction for c in p.terms.values())
    assert Polynomial(1, [((2,), "2/4"), ((2,), Fraction(-1, 2))]).is_zero()
    assert Polynomial(1, {(3,): Fraction(6, 4)}).terms == {(3,): Fraction(3, 2)}


def test_arithmetic_and_evaluation():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert evaluate(p, (Fraction(3), Fraction(2))) == 5


X1 = Polynomial.variable(2, 0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: order_key("revlex"), ValueError, "unknown term order 'revlex'"),
        (lambda: Polynomial(2, [((1,), 1)]), ValueError, r"exponent \(1,\) does not match arity 2"),
        (lambda: Polynomial(2, [((1, -1), 1)]), ValueError, r"negative exponent in \(1, -1\)"),
        (lambda: setattr(X1, "arity", 3), AttributeError, "Polynomial is immutable"),
        (lambda: X1 + 1, TypeError, "unsupported operand"),
        (lambda: X1 + Polynomial.variable(3, 0), ValueError, "arity mismatch: 2 vs 3"),
        (lambda: X1 * None, TypeError, "unsupported operand"),
        (lambda: X1 * Polynomial.variable(3, 0), ValueError, "arity mismatch: 2 vs 3"),
        (lambda: Polynomial.zero(2).total_degree(), ValueError, "zero polynomial has no total degree"),
        (lambda: s_polynomial(X1, Polynomial.zero(2), DEGLEX), ValueError, "S-polynomial of a zero polynomial"),
    ],
    ids=["order", "exponent-length", "negative-exponent", "assignment", "add-int", "add-arity",
         "mul-none", "mul-arity", "zero-degree", "zero-s-polynomial"],
)
def test_invalid_arguments_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_leading_depends_on_order():
    p = Polynomial(2, [((0, 2), Fraction(1)), ((3, 0), Fraction(2))])
    assert p.leading(LEX)[0] == (0, 2)
    assert p.leading(DEGLEX) == ((3, 0), Fraction(2))


def test_monic_divides_by_leading_coefficient():
    p = Polynomial(1, [((2,), Fraction(3)), ((0,), Fraction(6))])
    q = p.monic(DEGLEX)
    assert q.leading(DEGLEX)[1] == 1
    assert q.terms[(0,)] == 2


# ---------------------------------------------------------------------------
# homogenization


def test_homogenize_pads_with_smallest_variable():
    # X3 - X2^2 in two chart variables -> X1*X3 - X2^2
    g = Polynomial(2, [((0, 1), Fraction(1)), ((2, 0), Fraction(-1))])
    h = homogenize(g)
    assert h.arity == 3
    assert set(h.terms) == {(1, 0, 1), (0, 2, 0)}
    assert h.is_homogeneous()


def test_dehomogenize_sets_smallest_variable_to_one():
    h = Polynomial(3, [((1, 0, 1), Fraction(1)), ((0, 2, 0), Fraction(-1))])
    g = dehomogenize(h)
    assert set(g.terms) == {(0, 1), (2, 0)}


@settings(max_examples=200)
@given(polynomials())
def test_homogenize_roundtrip(g):
    if g.is_zero():
        with pytest.raises(ValueError):
            homogenize(g)
        return
    h = homogenize(g)
    assert h.is_homogeneous()
    assert dehomogenize(h) == g
    assert h.total_degree() == g.total_degree()


@settings(max_examples=300)
@given(polynomials())
def test_lex_lead_of_dehomogenization_is_projected_deglex_lead(g):
    # for homogeneous h with nonzero dehomogenization, dropping the first
    # coordinate of the deglex lead gives the lex lead downstairs
    if g.is_zero():
        return
    h = homogenize(g)
    lead = h.leading(DEGLEX)[0]
    assert dehomogenize(h).leading(LEX)[0] == lead[1:]


# ---------------------------------------------------------------------------
# division, S-polynomials, Buchberger


def test_normal_form_removes_reducible_monomials():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    divisor = x2 * x2 - x1  # lead X2^2 in deglex
    f = x2 * x2 * x2 + x1
    r = normal_form(f, [divisor], DEGLEX)
    lead = divisor.leading(DEGLEX)[0]
    assert all(not exp_divides(lead, e) for e in r.terms)
    assert r == x1 * x2 + x1


@settings(max_examples=200, deadline=None)
@given(division_problems())
def test_normal_form_matches_reference(problem):
    f, divisors, order = problem
    assert normal_form(f, divisors, order) == reference_normal_form(f, divisors, order)


def test_normal_form_rejects_zero_divisor_and_arity_mismatch():
    x1 = Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        normal_form(x1, [Polynomial.zero(2)], DEGLEX)
    with pytest.raises(ValueError):
        normal_form(x1, [Polynomial.variable(3, 0)], DEGLEX)


def test_s_polynomial_cancels_leading_terms():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    f = x2 * x2 - x1
    g = x1 * x2 - x1
    s = s_polynomial(f, g, DEGLEX)
    lcm = (1, 2)
    assert all(e != lcm for e in s.terms)


def test_buchberger_known_basis():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    gens = [x1 * x2 - Polynomial.constant(2, 1), x2 * x2 - Polynomial.constant(2, 1)]
    gb = buchberger(gens, LEX)
    # reduced lex basis of <X1*X2 - 1, X2^2 - 1>
    assert gb.elements == (x1 * x1 - Polynomial.constant(2, 1), x2 - x1)


def test_buchberger_output_is_reduced_and_closed():
    x1 = Polynomial.variable(3, 0)
    x2 = Polynomial.variable(3, 1)
    x3 = Polynomial.variable(3, 2)
    gens = [x3 * x3 - x1 * x2, x2 * x3 - x1 * x1, x2 * x2 * x2 - x1 * x3]
    gb = buchberger(gens, DEGLEX)
    for i, g in enumerate(gb.elements):
        assert g.leading(DEGLEX)[1] == 1
        for j, h in enumerate(gb.elements):
            if i != j:
                lh = h.leading(DEGLEX)[0]
                assert not any(exp_divides(lh, e) for e in g.terms)
    for i in range(len(gb.elements)):
        for j in range(i + 1, len(gb.elements)):
            s = s_polynomial(gb.elements[i], gb.elements[j], DEGLEX)
            assert normal_form(s, gb.elements, DEGLEX).is_zero()
    for g in gens:
        assert normal_form(g, gb.elements, DEGLEX).is_zero()


def test_unit_basis():
    gb = unit_basis(3)
    assert gb.is_unit()
    assert not gb.is_zero_ideal()


# ---------------------------------------------------------------------------
# printing


def test_poly_str_examples():
    p = Polynomial(2, [((1, 2), Fraction(1)), ((2, 1), Fraction(-1))])
    assert poly_str(p, DEGLEX, 1) == "X1*X2^2 - X1^2*X2"
    q = Polynomial(2, [((1, 0), Fraction(1)), ((0, 0), Fraction(-3))])
    assert poly_str(q, LEX, 2) == "X2 - 3"
    assert poly_str(Polynomial.zero(2)) == "0"
    half = Polynomial.constant(1, Fraction(1, 2))
    assert "1/2" in poly_str(half)
