"""Sparse multivariate polynomials over Q, term orders, division and S-polynomials.

Variable convention, fixed for the whole package: index 0 of an exponent
vector is the smallest variable.  In the full ring of a projective problem
that index is X1, the homogenizing variable, and the variables satisfy
X1 < X2 < ... < X{n+1}.  lex therefore compares the exponent of the largest
variable (the last index) first.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction

LEX = "lex"
DEGLEX = "deglex"
DEGREVLEX = "degrevlex"
ORDERS = (LEX, DEGLEX, DEGREVLEX)


# ---------------------------------------------------------------------------
# exponent vectors

def total_degree(exp):
    return sum(exp)


def exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def exp_divides(a, b):
    """True if X^a divides X^b, i.e. a <= b componentwise."""
    return all(map(operator.le, a, b))


def exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# term orders

_ORDER_KEYS = {
    LEX: lambda e: e[::-1],
    DEGLEX: lambda e: (sum(e),) + e[::-1],
    # ties broken at the smallest variable: larger exponent there loses
    DEGREVLEX: lambda e: (sum(e),) + tuple(-x for x in e),
}


def order_key(order):
    """Sort key realizing the order: key(a) < key(b) iff X^a < X^b.  Keys are
    flat tuples of integers, so negating every entry reverses the order."""
    if order not in _ORDER_KEYS:
        raise ValueError("unknown term order %r" % (order,))
    return _ORDER_KEYS[order]


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Sparse polynomial: map from exponent vector to nonzero Fraction.

    Instances are treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != arity:
                raise ValueError("exponent %r does not match arity %d" % (exp, arity))
            if min(exp, default=0) < 0:
                raise ValueError("negative exponent in %r" % (exp,))
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if exp in acc:
                coeff += acc[exp]
            if coeff:
                acc[exp] = coeff
            else:
                acc.pop(exp, None)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", acc)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, arity):
        return cls(arity)

    @classmethod
    def constant(cls, arity, c):
        return cls(arity, [((0,) * arity, c)])

    @classmethod
    def monomial(cls, arity, exp, c=1):
        return cls(arity, [(exp, c)])

    @classmethod
    def variable(cls, arity, i):
        exp = tuple(int(j == i) for j in range(arity))
        return cls(arity, [(exp, 1)])

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __neg__(self):
        return Polynomial(self.arity, [(e, -c) for e, c in self.terms.items()])

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))
        return Polynomial(self.arity, list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.arity, [(e, c * other) for e, c in self.terms.items()])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))
        out = []
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out.append((exp_add(e1, e2), c1 * c2))
        return Polynomial(self.arity, out)

    __rmul__ = __mul__

    def times(self, exp, coeff=1):
        """Multiply by the single term coeff * X^exp."""
        return Polynomial(self.arity, [(exp_add(e, exp), c * coeff) for e, c in self.terms.items()])

    def total_degree(self):
        if not self.terms:
            raise ValueError("zero polynomial has no total degree")
        return max(total_degree(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {total_degree(e) for e in self.terms}
        return len(degrees) <= 1

    def leading(self, order):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=order_key(order))
        return exp, self.terms[exp]

    def monic(self, order):
        _, c = self.leading(order)
        return self * (Fraction(1) / c)

    def __repr__(self):
        return "Polynomial(%d, %r)" % (self.arity, sorted(self.terms.items()))

    def __str__(self):
        return poly_str(self)


# ---------------------------------------------------------------------------
# homogenization

def homogenize(g):
    """Homogenize by a fresh smallest variable prepended at index 0.

    Each monomial is padded with the smallest power of the new variable
    bringing its total degree up to the total degree of g.
    """
    if g.is_zero():
        raise ValueError("cannot homogenize the zero polynomial")
    d = g.total_degree()
    return Polynomial(
        g.arity + 1,
        [((d - total_degree(e),) + e, c) for e, c in g.terms.items()],
    )


def dehomogenize(h):
    """Substitute 1 for the smallest variable (index 0) and re-collect."""
    return Polynomial(h.arity - 1, [(e[1:], c) for e, c in h.terms.items()])


# ---------------------------------------------------------------------------
# division and S-polynomials

def normal_form(f, divisors, order):
    """Remainder of f on division by the listed divisors.

    Deterministic strategy: always reduce the order-largest reducible
    monomial of the running remainder, by the first applicable divisor in
    list order.  No monomial of the result is divisible by any divisor's
    leading monomial.

    A reduction at exp only adds terms below exp, so pending monomials are
    popped from a heap largest first and each one is final when popped.
    """
    reducers = []  # (leading exponent, tail divided by the leading coefficient)
    for g in divisors:
        if g.arity != f.arity:
            raise ValueError("arity mismatch: %d vs %d" % (f.arity, g.arity))
        le, lc = g.leading(order)  # raises for a zero divisor
        reducers.append((le, [(e, c / lc) for e, c in g.terms.items() if e != le]))
    key = order_key(order)
    pending = dict(f.terms)  # an entry may fall to 0; it is still on the heap
    heap = [(tuple(-x for x in key(e)), e) for e in pending]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        exp = heapq.heappop(heap)[1]
        c = pending.pop(exp)
        if not c:
            continue
        for le, tail in reducers:
            if exp_divides(le, exp):
                shift = exp_sub(exp, le)
                for e, t in tail:
                    e = exp_add(e, shift)
                    if e in pending:
                        pending[e] -= c * t
                    else:
                        pending[e] = -c * t
                        heapq.heappush(heap, (tuple(-x for x in key(e)), e))
                break
        else:
            remainder[exp] = c
    return Polynomial(f.arity, remainder)


def s_polynomial(f, g, order):
    """Standard S-polynomial of f and g."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    l = exp_lcm(ef, eg)
    return f.times(exp_sub(l, ef), Fraction(1) / cf) - g.times(exp_sub(l, eg), Fraction(1) / cg)


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis together with its term order and number of
    variables.

    elements are monic and sorted by increasing leading exponent.  An empty
    element tuple denotes the zero ideal, which must be given its arity; a
    single nonzero constant denotes the unit ideal.  Otherwise the arity
    defaults to the first element's.
    """

    order: str
    elements: tuple
    arity: int = None

    def __post_init__(self):
        if self.arity is None:
            if not self.elements:
                raise ValueError("a zero-ideal basis needs its arity")
            object.__setattr__(self, "arity", self.elements[0].arity)

    def is_zero_ideal(self):
        return not self.elements

    def is_unit(self):
        return any(
            len(g.terms) == 1 and next(iter(g.terms)) == (0,) * g.arity
            for g in self.elements
        )

    def leading_exponents(self):
        return tuple(g.leading(self.order)[0] for g in self.elements)


def unit_basis(arity, order=DEGLEX):
    return GroebnerBasis(order, (Polynomial.constant(arity, 1),))


# ---------------------------------------------------------------------------
# text rendering

def poly_str(p, order=DEGLEX, first_var=1):
    """Canonical text form: terms in decreasing order, variables X{first_var}...

    Examples: "X1*X2^2 - X1^2*X2", "X2 - 3", "0".
    """
    if p.is_zero():
        return "0"
    key = order_key(order)
    parts = []
    for exp in sorted(p.terms, key=key, reverse=True):
        coeff = p.terms[exp]
        mono = "*".join(
            "X%d" % (i + first_var) if e == 1 else "X%d^%d" % (i + first_var, e)
            for i, e in enumerate(exp)
            if e
        )
        if not mono:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = "%s*%s" % (abs(coeff), mono)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)
