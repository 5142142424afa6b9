"""Acceptance suite.

Each test prints a single PASS/FAIL line for its criterion (past pytest's
capture, so the verdicts are visible in any run) and then asserts.
Instance counts are fixed; randomness is seeded for reproducibility.
"""

import contextlib
import io as _io
import json
import random
from fractions import Fraction

from helpers import buchberger, cone_offsets, random_affine, random_projective
from pointideals import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    GroebnerBasis,
    Polynomial,
    Staircase,
    cone_basis,
    axis_census,
    buchberger_moeller,
    certify,
    dehomogenize,
    hilbert_function,
    poly_str,
    projective_gb,
    projective_points,
    split_charts,
    staircase_of,
)
from pointideals.cli import main
from pointideals.poly import exp_divides, monomials_of_degree, total_degree


def report(capsys, label, failures):
    with capsys.disabled():
        print("%s  %s" % ("FAIL" if failures else "PASS", label), flush=True)
    assert not failures, "%s: %s" % (label, failures[:5])


def _stair(gb, arity):
    return Staircase(arity, ()) if gb.is_zero_ideal() else staircase_of(gb)


def test_criterion_1_affine_count_law(capsys):
    rng = random.Random(101)
    failures = []
    for i in range(200):
        n = rng.randint(1, 3)
        s = rng.randint(1, 8)
        ps = random_affine(rng, n, s)
        for order in (LEX, DEGLEX):
            _, _, std = buchberger_moeller(ps, order)
            if len(std) != s:
                failures.append((i, order, n, s, len(std)))
    report(capsys, "criterion 1: affine standard-monomial count equals point count (200 instances)", failures)


def test_criterion_2_axis_census_matches_charts(capsys):
    rng = random.Random(202)
    failures = []
    for i in range(200):
        n = rng.randint(1, 3)
        s = rng.randint(1, 8)
        ps = random_projective(rng, n, s)
        gb = projective_gb(ps)
        census = axis_census(_stair(gb, n + 1))
        charts = split_charts(ps)
        if list(census.per_direction) != [len(c.points) for c in charts]:
            failures.append((i, "per-direction", census.per_direction))
            continue
        if census.total != s:
            failures.append((i, "total", census.total, s))
            continue
        for j, chart in enumerate(charts, start=1):
            got = {base for d, base in census.axes if d == j}
            if chart.points:
                _, _, std = buchberger_moeller(chart, LEX)
                expected = {(0,) * j + sigma for sigma in std}
            else:
                expected = set()
            if got != expected:
                failures.append((i, "bases", j, got, expected))
    report(capsys, "criterion 2: projective axes match chart standard monomials (200 instances)", failures)


def test_criterion_3_worked_example_p1(capsys):
    gb = projective_gb(projective_points(1, [[1, 0], [1, 1], [0, 1]]))
    census = axis_census(staircase_of(gb))
    failures = []
    if [poly_str(g) for g in gb.elements] != ["X1*X2^2 - X1^2*X2"]:
        failures.append([poly_str(g) for g in gb.elements])
    if census.per_direction != (2, 1) or census.total != 3:
        failures.append(census)
    report(capsys, "criterion 3: three points in the projective line, exact basis and axes", failures)


def test_criterion_4_worked_example_p2(capsys):
    ps = projective_points(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    gb = projective_gb(ps)
    census = axis_census(staircase_of(gb))
    failures = []
    if [poly_str(g) for g in gb.elements] != ["X1*X2", "X1*X3", "X2*X3"]:
        failures.append([poly_str(g) for g in gb.elements])
    if census.per_direction != (1, 1, 1) or census.total != 3:
        failures.append(census)
    if [hilbert_function(ps, d) for d in range(4)] != [1, 3, 3, 3]:
        failures.append("hilbert")
    report(capsys, "criterion 4: coordinate points in the projective plane, exact basis, axes, Hilbert", failures)


def test_criterion_5_homogenization_degree_jump(capsys):
    from pointideals import affine_points

    gb = cone_basis(affine_points(2, [[0, 0], [1, 1], [2, 4]]))
    trace = cone_offsets(gb)
    failures = []
    if "X1*X3 - X2^2" not in [poly_str(g) for g in gb.elements]:
        failures.append([poly_str(g) for g in gb.elements])
    if trace.get((0, 1)) != 1:
        failures.append(("r", trace))
    report(capsys, "criterion 5: parabola chart homogenizes the (0,1) corner at degree offset 1", failures)


def _mutation_pool(rng):
    """Certified bases from the worked examples plus random instances."""
    pool = []
    for ps in (
        projective_points(1, [[1, 0], [1, 1], [0, 1]]),
        projective_points(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ):
        pool.append((projective_gb(ps), ps))
    while len(pool) < 12:
        ps = random_projective(rng, rng.randint(1, 2), rng.randint(1, 6))
        gb = projective_gb(ps)
        if gb.elements:
            pool.append((gb, ps))
    return pool


def test_criterion_6_certificate_soundness(capsys):
    rng = random.Random(606)
    failures = []
    pool = _mutation_pool(rng)
    for idx, (gb, ps) in enumerate(pool):
        if not certify(gb, ps).passed:
            failures.append(("clean basis rejected", idx))
    for k in range(50):
        gb, ps = pool[rng.randrange(len(pool))]
        i = rng.randrange(len(gb.elements))
        g = gb.elements[i]
        exp = sorted(g.terms)[rng.randrange(len(g.terms))]
        mutated = g + Polynomial.monomial(g.arity, exp)
        bad = GroebnerBasis(DEGLEX, gb.elements[:i] + (mutated,) + gb.elements[i + 1 :])
        if certify(bad, ps).passed:
            failures.append(("mutation accepted", k, poly_str(mutated)))
    # every basis with one element dropped, from the pool and from larger
    # sets in P2 and P3; many pass every check before the S-pairs, so they
    # gate the pruned S-pair stage
    big_rng = random.Random(6060)
    big = [random_projective(big_rng, big_rng.randint(2, 3), big_rng.randint(5, 9)) for _ in range(8)]
    dropped = spair_rejects = 0
    for idx, (gb, ps) in enumerate(pool + [(projective_gb(ps), ps) for ps in big]):
        for i in range(len(gb.elements)):
            bad = GroebnerBasis(DEGLEX, gb.elements[:i] + gb.elements[i + 1 :], gb.arity)
            result = certify(bad, ps)
            dropped += 1
            if result.passed:
                failures.append(("dropped element accepted", idx, i))
            spair_rejects += any(r.startswith("S-polynomial of elements") for r in result.reasons)
    if not spair_rejects:
        failures.append("no dropped-element basis was rejected at the S-pair stage")
    report(
        capsys,
        "criterion 6: certificate accepts computed bases, rejects 50 single-term mutations "
        "and %d dropped-element bases (%d at the S-pairs)" % (dropped, spair_rejects),
        failures,
    )


def test_criterion_7_dehomogenized_leading_exponent(capsys):
    rng = random.Random(707)
    failures = []
    checked = 0
    while checked < 500:
        m = rng.randint(2, 4)
        d = rng.randint(0, 6)
        monos = list(monomials_of_degree(m, d))
        rng.shuffle(monos)
        terms = [
            (e, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for e in monos[: rng.randint(1, min(5, len(monos)))]
        ]
        h = Polynomial(m, terms)
        if h.is_zero():
            continue
        g = dehomogenize(h)
        if g.is_zero():
            continue
        checked += 1
        if g.leading(LEX)[0] != h.leading(DEGLEX)[0][1:]:
            failures.append((h, g))
    report(capsys, "criterion 7: lex lead downstairs is the projected deglex lead (500 polynomials)", failures)


def test_criterion_8_projected_staircase_equals_lex_staircase(capsys):
    from itertools import product

    rng = random.Random(808)
    failures = []
    for i in range(100):
        n = rng.randint(1, 3)
        s = rng.randint(1, 6)
        chart = random_affine(rng, n, s)
        hom = cone_basis(chart)
        _, lex_stair, std = buchberger_moeller(chart, LEX)
        projected = [b[1:] for b in hom.leading_exponents()]
        m = 2 + max((total_degree(e) for e in std), default=0)
        for e in product(range(m + 1), repeat=n):
            in_proj = any(exp_divides(p, e) for p in projected)
            if in_proj != lex_stair.contains(e):
                failures.append((i, e))
                break
    report(capsys, "criterion 8: projected homogeneous corners span the lex staircase (100 charts)", failures)


def test_criterion_9_axis_total_is_order_independent(capsys):
    rng = random.Random(909)
    failures = []
    for i in range(50):
        n = rng.randint(1, 3)
        s = rng.randint(1, 6)
        ps = random_projective(rng, n, s)
        gb = projective_gb(ps)
        if gb.is_zero_ideal():
            revlex_stair = Staircase(n + 1, ())
        else:
            revlex_stair = staircase_of(buchberger(gb.elements, DEGREVLEX))
        total = axis_census(revlex_stair).total
        if total != s or axis_census(_stair(gb, n + 1)).total != total:
            failures.append((i, total, s))
    report(capsys, "criterion 9: axis totals agree between deglex and degrevlex (50 instances)", failures)


def test_criterion_10_determinism(capsys, tmp_path):
    rng = random.Random(1010)
    failures = []
    for i in range(20):
        n = rng.randint(1, 2)
        s = rng.randint(2, 6)
        ps = random_projective(rng, n, s)
        rows = [[str(x) for x in p] for p in ps.points]
        outputs = set()
        for k in range(3):
            rng.shuffle(rows)
            path = tmp_path / ("pts_%d_%d.json" % (i, k))
            path.write_text(json.dumps({"space": "projective", "dim": n, "points": rows}))
            buf = _io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["gb", str(path)])
            if code != 0:
                failures.append((i, k, "exit", code))
            outputs.add(buf.getvalue())
        if len(outputs) != 1:
            failures.append((i, "cli bytes differ"))
        gb = projective_gb(ps)
        if gb.elements:
            gens = list(gb.elements)
            for _ in range(3):
                rng.shuffle(gens)
                if buchberger(gens, DEGLEX) != gb:
                    failures.append((i, "generator order changed the reduced basis"))
                    break
    report(capsys, "criterion 10: emitted reduced bases are byte-stable under permutations (20 instances)", failures)
