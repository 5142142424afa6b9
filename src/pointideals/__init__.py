"""Groebner bases of vanishing ideals of finite rational point sets.

Exact-rational computation of reduced Groebner bases for the ideal of a
finite set of points in affine or projective space, plus the staircase
combinatorics (corners, standard monomials, axes) that recover the number
of points from the basis alone.
"""

from .affine import (
    AFFINE,
    PROJECTIVE,
    PointSet,
    Staircase,
    affine_points,
    buchberger_moeller,
    projective_points,
    staircase_of,
)
from .poly import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    GroebnerBasis,
    Polynomial,
    dehomogenize,
    homogenize,
    normal_form,
    poly_str,
    s_polynomial,
    unit_basis,
)
from .projective import (
    AxisReport,
    CertReport,
    axis_census,
    certify,
    hilbert_values,
    projective_bm,
    projective_gb,
    split_charts,
)
from .render import RenderError, render_staircase

__all__ = [
    "AFFINE",
    "PROJECTIVE",
    "LEX",
    "DEGLEX",
    "DEGREVLEX",
    "PointSet",
    "Staircase",
    "GroebnerBasis",
    "Polynomial",
    "AxisReport",
    "CertReport",
    "RenderError",
    "affine_points",
    "projective_points",
    "buchberger_moeller",
    "staircase_of",
    "normal_form",
    "s_polynomial",
    "homogenize",
    "dehomogenize",
    "poly_str",
    "unit_basis",
    "projective_bm",
    "projective_gb",
    "split_charts",
    "axis_census",
    "hilbert_values",
    "certify",
    "render_staircase",
]
