"""Seeded instance generators and the per-workload round layouts.

Coordinates follow the test suite's model: rationals p/q with |p| <= 5 and
1 <= q <= 3.  Every generator takes an explicit random.Random, so a
(workload, seed, round) triple always yields the same point sets.

A workload's inputs form a pool of ROUNDS rounds.  Every round has the same
layout (the same shapes in the same order); only the coordinates differ.
The measured loop runs whole rounds, so each run sees every shape equally
often, whatever the run length.  Sizes are kept small enough that several
rounds fit in one run at the speed of the first benchmarked commit, and
they are spaced so that operation costs have no wide gap near the median.
"""

from __future__ import annotations

import random
from fractions import Fraction

ROUNDS = 8

# (dimension, points); each set is solved in lex and in deglex.
AFFINE_SHAPES = [(2, 16), (3, 16), (2, 18), (3, 18), (2, 20), (3, 20), (2, 22), (3, 22)]

# (dimension, points, chart sizes or None).  None draws generic points,
# which land almost all in chart 1; chart sizes place that many points in
# each chart by zeroing leading coordinates.
PROJECTIVE_SHAPES = [
    (2, 8, None),
    (2, 9, None),
    (2, 10, None),
    (3, 8, None),
    (2, 10, (5, 4, 1)),
    (2, 12, (6, 5, 1)),
    (2, 14, (7, 6, 1)),
    (3, 10, (4, 3, 2, 1)),
    (3, 11, (4, 4, 2, 1)),
    (3, 12, (4, 4, 4, 0)),
]

# Small inputs for the CLI loop: name -> (space, dimension, points, chart sizes).
CLI_INPUTS = {
    "A": ("affine", 2, 8, None),
    "P": ("projective", 2, 7, None),
    "Q": ("projective", 2, 8, (4, 3, 1)),
}

# The CLI loop, in order: (input name, argv after the input path, expected
# exit code, basis file read, basis file written).  An op that writes "X"
# saves its stdout as the basis "X.gb" and a single-term mutation of it as
# "X.bad", which later `verify` steps of the same round read.
CLI_STEPS = [
    ("A", ["gb"], 0, None, None),
    ("A", ["gb", "--order", "lex", "--verify"], 0, None, "A"),
    ("P", ["gb"], 0, None, "P"),
    ("Q", ["gb", "--verify", "--output", "text"], 0, None, None),
    ("A", ["staircase", "--render"], 0, None, None),
    ("Q", ["staircase", "--render", "--output", "text"], 0, None, None),
    ("Q", ["axes"], 0, None, None),
    ("P", ["hilbert"], 0, None, None),
    ("Q", ["compare-orders"], 0, None, None),
    ("P", ["verify"], 0, "P.gb", None),
    ("P", ["verify"], 1, "P.bad", None),
    ("A", ["verify", "--output", "text"], 0, "A.gb", None),
]

# One tiny round per workload for the self-check.
TINY = {
    "affine-bm": [(2, 4)],
    "projective-gb": [(2, 4, None), (2, 5, (2, 2, 1))],
    "cli-mixed": {"A": ("affine", 2, 3, None), "P": ("projective", 2, 4, None), "Q": ("projective", 2, 4, (2, 1, 1))},
}


def rng_for(workload, seed, round_index):
    # str seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random("%s/%d/%d" % (workload, seed, round_index))


def rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def affine_coords(rng, n, s):
    pts = set()
    while len(pts) < s:
        pts.add(tuple(rational(rng) for _ in range(n)))
    return sorted(pts)


def projective_coords(rng, n, s):
    """s distinct generic points of P^n, scaled so the first nonzero
    coordinate is 1."""
    pts = set()
    while len(pts) < s:
        row = tuple(rational(rng) for _ in range(n + 1))
        if any(row):
            lead = next(x for x in row if x)
            pts.add(tuple(x / lead for x in row))
    return sorted(pts)


def spread_coords(rng, n, sizes):
    """Points of P^n with sizes[j] of them in chart j+1: the first j
    coordinates are zero and the (j+1)-th is one.  The last chart holds at
    most the single point (0, ..., 0, 1)."""
    if len(sizes) != n + 1 or sizes[-1] > 1:
        raise ValueError("chart sizes %r do not fit P^%d" % (sizes, n))
    pts = []
    for j, c in enumerate(sizes):
        chart = set()
        while len(chart) < c:
            chart.add((Fraction(0),) * j + (Fraction(1),) + tuple(rational(rng) for _ in range(n - j)))
        pts.extend(sorted(chart))
    return pts


def input_coords(rng, space, n, s, sizes):
    if space == "affine":
        return affine_coords(rng, n, s)
    if sizes is None:
        return projective_coords(rng, n, s)
    return spread_coords(rng, n, sizes)


def mutate_basis(doc, rng):
    """Single-term mutation of a basis document: one coefficient of one
    element, a non-leading term when the element has one, moves by one."""
    doc = {**doc, "basis": [[list(t) for t in g] for g in doc["basis"]]}
    g = doc["basis"][rng.randrange(len(doc["basis"]))]
    term = g[rng.randrange(1, len(g))] if len(g) > 1 else g[0]
    c = Fraction(term[1])
    term[1] = str(c + 1 if c != -1 else c - 1)
    return doc
