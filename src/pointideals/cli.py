"""Command-line interface.

Subcommands: gb, staircase, axes, hilbert, verify, compare-orders, render.
compare-orders takes its deglex basis from projective_gb and its degrevlex
basis from the per-degree evaluation walk projective_bm.  Every basis a
command computes is certified before it is used: projective_gb and
projective_bm certify their own, and _compute_gb certifies
Buchberger-Moeller's; --verify is accepted and does nothing.  verify
certifies a basis document in its own order.
Exit codes: 0 success, 1 verification failure, 2 input or parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from . import io
from .affine import AFFINE, PROJECTIVE, buchberger_moeller, staircase_of
from .poly import DEGLEX, DEGREVLEX, LEX, Polynomial, poly_str
from .projective import (
    _certified,
    affine_certify,
    axis_census,
    certify,
    hilbert_values,
    projective_bm,
    projective_gb,
    split_charts,
)
from .render import RenderError, render_staircase

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
DEGREE_CAP_LIMIT = 10**5  # the largest (cap + 1) * max(s, 1) that --degree-cap may ask for on s points


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise io.InputError("cannot read %s: %s" % (path, e.strerror)) from e


def _first_var(pointset):
    # affine variables are X2..X{n+1}: index 0 of an affine exponent vector
    # is the variable that becomes X2 after homogenization
    return 2 if pointset.mode == AFFINE else 1


def _compute_gb(pointset, order):
    if pointset.mode == AFFINE:
        return _certified(buchberger_moeller(pointset, order)[0], pointset)
    if order != DEGLEX:
        raise io.InputError("projective bases are computed in deglex only")
    return projective_gb(pointset)


def _mono_str(exp, first_var):
    return poly_str(Polynomial.monomial(len(exp), exp), first_var=first_var)


def _emit(args, doc, text_lines):
    if args.output == "json":
        sys.stdout.write(io.dumps(doc))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def cmd_gb(args, ps):
    gb = _compute_gb(ps, args.order)
    first_var = _first_var(ps)
    doc = io.basis_doc(gb, first_var=first_var, extra={"space": ps.mode, "dim": ps.dimension})
    _emit(args, doc, [poly_str(g, gb.order, first_var) for g in gb.elements])
    return EXIT_OK


def cmd_staircase(args, ps):
    gb = _compute_gb(ps, args.order)
    stair = staircase_of(gb)
    cap = args.degree_cap if args.degree_cap is not None else stair.max_corner_degree() + 1
    standard = stair.standard_monomials_upto(cap, order=gb.order)
    first_var = _first_var(ps)
    doc = {
        "space": ps.mode,
        "dim": ps.dimension,
        "order": gb.order,
        "first_variable": first_var,
        "degree_cap": cap,
        "corners": [list(b) for b in stair.corners],
        "standard": [list(e) for e in standard],
    }
    lines = ["corners:"]
    lines.extend("  " + _mono_str(b, first_var) for b in stair.corners)
    lines.append("standard monomials up to degree %d:" % cap)
    lines.extend("  " + _mono_str(e, first_var) for e in standard)
    if args.render:
        picture = render_staircase(stair, first_var=first_var)
        doc["render"] = picture
        lines.append(picture.rstrip("\n"))
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_axes(args, ps):
    gb = projective_gb(ps)
    stair = staircase_of(gb)
    census = axis_census(stair)
    charts = split_charts(ps)
    expected = [len(c.points) for c in charts]
    matches = (
        list(census.per_direction) == expected and census.total == len(ps.points)
    )
    doc = {
        "space": ps.mode,
        "dim": ps.dimension,
        "points": len(ps.points),
        "axes": [{"direction": j, "base": list(base)} for j, base in census.axes],
        "per_direction": list(census.per_direction),
        "chart_sizes": expected,
        "total": census.total,
        "matches": matches,
    }
    lines = [
        "axes per direction: %s" % (list(census.per_direction),),
        "chart sizes:        %s" % (expected,),
        "total axes: %d, points: %d" % (census.total, len(ps.points)),
        "matches: %s" % ("true" if matches else "false"),
    ]
    _emit(args, doc, lines)
    return EXIT_OK if matches else EXIT_VERIFY


def cmd_hilbert(args, ps):
    cap = args.degree_cap if args.degree_cap is not None else len(ps.points) + 1
    values = list(islice(hilbert_values(ps), cap + 1))
    doc = {"space": ps.mode, "dim": ps.dimension, "degree_cap": cap, "values": values}
    lines = ["d=%d: %d" % (d, v) for d, v in enumerate(values)]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_verify(args, ps):
    gb, _ = io.parse_basis(_read(args.basis))
    report = (affine_certify if ps.mode == AFFINE else certify)(gb, ps)
    doc = {"passed": report.passed, "reasons": list(report.reasons)}
    lines = ["passed: %s" % ("true" if report.passed else "false")]
    lines.extend("  " + r for r in report.reasons)
    _emit(args, doc, lines)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_compare_orders(args, ps):
    gb_deglex = projective_gb(ps)
    gb_revlex = projective_bm(ps, DEGREVLEX)
    census_deglex = axis_census(staircase_of(gb_deglex))
    census_revlex = axis_census(staircase_of(gb_revlex))
    matches = census_deglex.total == census_revlex.total == len(ps.points)
    doc = {
        "space": ps.mode,
        "dim": ps.dimension,
        "points": len(ps.points),
        "deglex": {
            "per_direction": list(census_deglex.per_direction),
            "total": census_deglex.total,
        },
        "degrevlex": {
            "per_direction": list(census_revlex.per_direction),
            "total": census_revlex.total,
        },
        "matches": matches,
    }
    lines = [
        "deglex axes:    %s total %d" % (list(census_deglex.per_direction), census_deglex.total),
        "degrevlex axes: %s total %d" % (list(census_revlex.per_direction), census_revlex.total),
        "points: %d" % len(ps.points),
        "matches: %s" % ("true" if matches else "false"),
    ]
    _emit(args, doc, lines)
    return EXIT_OK if matches else EXIT_VERIFY


def cmd_render(args, ps):
    gb = _compute_gb(ps, args.order)
    picture = render_staircase(staircase_of(gb), first_var=_first_var(ps))
    _emit(args, {"render": picture}, [picture.rstrip("\n")])
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pointideals",
        description="Groebner bases of vanishing ideals of finite rational point sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, basis_arg=False):
        p = sub.add_parser(name)
        p.add_argument("input", help="point-set JSON file")
        if basis_arg:
            p.add_argument("basis", help="basis JSON file")
        p.add_argument("--order", choices=(LEX, DEGLEX, DEGREVLEX), default=DEGLEX)
        p.add_argument("--output", choices=("json", "text"), default="json")
        p.add_argument("--verify", action="store_true")
        p.add_argument("--degree-cap", type=int, default=None)
        p.add_argument("--render", action="store_true")
        p.set_defaults(func=func)

    add("gb", cmd_gb)
    add("staircase", cmd_staircase)
    add("axes", cmd_axes)
    add("hilbert", cmd_hilbert)
    add("verify", cmd_verify, basis_arg=True)
    add("compare-orders", cmd_compare_orders)
    add("render", cmd_render)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.order == DEGREVLEX and args.command != "compare-orders":
        print("degrevlex is permitted only for compare-orders", file=sys.stderr)
        return EXIT_INPUT
    if args.degree_cap is not None and args.degree_cap < 0:
        print("--degree-cap must be nonnegative, got %d" % args.degree_cap, file=sys.stderr)
        return EXIT_INPUT
    try:
        ps = io.parse_points(_read(args.input))
        if args.degree_cap is not None and (args.degree_cap + 1) * max(len(ps.points), 1) > DEGREE_CAP_LIMIT:
            raise io.InputError("--degree-cap %d asks for over %d values" % (args.degree_cap, DEGREE_CAP_LIMIT))
        if args.command in ("axes", "hilbert", "compare-orders") and ps.mode != PROJECTIVE:
            raise io.InputError("the %s command needs a projective point set" % args.command)
        return args.func(args, ps)
    except (io.InputError, RenderError) as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print("internal error: %s" % e, file=sys.stderr)
        return EXIT_INTERNAL


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
