"""JSON interchange for point sets and Groebner bases.

Rationals travel as strings "p/q" (or "p" when q = 1) so no precision is
lost in the interchange format.  All emitted documents are deterministic:
terms are sorted in decreasing active order and elements by increasing
leading exponent, so golden-file comparisons are byte-stable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .affine import AFFINE, PROJECTIVE, affine_points, projective_points
from .poly import GroebnerBasis, Polynomial, order_key

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class InputError(ValueError):
    """Malformed or inconsistent user input."""


def parse_rational(text):
    """Parse "p" or "p/q" into an exact Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise InputError("malformed rational %r (expected \"p\" or \"p/q\")" % (text,))
    return Fraction(text)


def _is_natural(x):
    """True for a nonnegative JSON integer (booleans excluded)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _load_object(text, what):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError("invalid JSON: %s" % e) from e
    if not isinstance(doc, dict):
        raise InputError("%s document must be a JSON object" % what)
    return doc


def rational_str(q):
    return str(Fraction(q))


def parse_points(text):
    """Parse a point-set document into a validated, normalized PointSet.

    Schema: {"space": "affine"|"projective", "dim": n, "points": [[...], ...]}.
    """
    doc = _load_object(text, "point")
    space = doc.get("space")
    if space not in (AFFINE, PROJECTIVE):
        raise InputError("space must be \"affine\" or \"projective\", got %r" % (space,))
    dim = doc.get("dim")
    if not _is_natural(dim):
        raise InputError("dim must be a nonnegative integer, got %r" % (dim,))
    rows = doc.get("points")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("points must be a list of coordinate lists")
    coords = [[parse_rational(x) for x in row] for row in rows]
    try:
        if space == AFFINE:
            return affine_points(dim, coords)
        return projective_points(dim, coords)
    except ValueError as e:
        raise InputError(str(e)) from e


def points_doc(pointset):
    return {
        "space": pointset.mode,
        "dim": pointset.dimension,
        "points": [[rational_str(x) for x in p] for p in pointset.points],
    }


def basis_doc(gb, first_var=1, extra=None):
    """Serialize a Groebner basis: each element is a list of
    [exponent-vector, coefficient-string] pairs in decreasing order."""
    key = order_key(gb.order)
    elements = []
    for g in gb.elements:
        terms = [
            [list(e), rational_str(g.terms[e])]
            for e in sorted(g.terms, key=key, reverse=True)
        ]
        elements.append(terms)
    doc = {
        "order": gb.order,
        "variables": gb.arity,
        "first_variable": first_var,
        "basis": elements,
    }
    if extra:
        doc.update(extra)
    return doc


def parse_basis(text):
    """Parse a basis document back into (GroebnerBasis, first_var); the
    basis takes its arity from the document's `variables`."""
    doc = _load_object(text, "basis")
    order = doc.get("order")
    if order not in ("lex", "deglex", "degrevlex"):
        raise InputError("unknown order %r" % (order,))
    arity = doc.get("variables")
    if not _is_natural(arity):
        raise InputError("variables must be a nonnegative integer")
    first_var = doc.get("first_variable", 1)
    if not _is_natural(first_var) or first_var == 0:
        raise InputError("first_variable must be a positive integer, got %r" % (first_var,))
    raws = doc.get("basis")
    if not isinstance(raws, list) or not all(isinstance(raw, list) for raw in raws):
        raise InputError("basis must be a list of term lists")
    elements = []
    for raw in raws:
        terms = []
        for pair in raw:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise InputError("malformed term %r" % (pair,))
            exp, coeff = pair
            if not (isinstance(exp, list) and all(_is_natural(x) for x in exp)):
                raise InputError("malformed exponent vector %r" % (exp,))
            if len(exp) != arity:
                raise InputError("exponent vector %r does not match %d variables" % (exp, arity))
            terms.append((tuple(exp), parse_rational(coeff)))
        elements.append(Polynomial(arity, terms))
    return GroebnerBasis(order, tuple(elements), arity), first_var


def dumps(doc):
    """Deterministic JSON rendering used for all CLI output."""
    return json.dumps(doc, indent=2) + "\n"
