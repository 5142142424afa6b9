"""Text rendering of monomial staircases.

Cells: '.' is a standard monomial (D), '#' lies in the staircase C, 'B' is
a corner.  Arrows mark the axes contained in D: '>' at the end of a row
for an axis along the first displayed variable, '^' above a column for an
axis along the second.
"""

from __future__ import annotations

from .projective import axis_census


class RenderError(ValueError):
    """Staircase arity not drawable as a character grid."""


def _cell(stair, exp):
    if exp in stair.corners:
        return "B"
    return "#" if stair.contains(exp) else "."


def _grid(stair, width, height, fix=None):
    """Rows for a 2-D slice; fix = (index, value) pins a third coordinate."""
    lines = []
    for y in range(height - 1, -1, -1):
        cells = []
        for x in range(width):
            exp = [x, y]
            if fix is not None:
                exp.insert(fix[0], fix[1])
            cells.append(_cell(stair, tuple(exp)))
        lines.append((y, cells))
    return lines


def render_staircase(stair, first_var=1):
    """Character picture of a staircase of arity 2 or 3."""
    m = stair.arity
    if m not in (2, 3):
        raise RenderError("staircase rendering supports arity 2 or 3, got %d" % m)
    bounds = [max((b[i] for b in stair.corners), default=0) for i in range(m)]
    width = bounds[0] + 2
    height = bounds[1] + 2
    census = axis_census(stair)
    names = ["X%d" % (first_var + i) for i in range(m)]
    out = []
    if m == 2:
        row_axes = {base[1] for j, base in census.axes if j == 1}
        col_axes = {base[0] for j, base in census.axes if j == 2}
        out.append("     " + " ".join("^" if x in col_axes else " " for x in range(width)))
        for y, cells in _grid(stair, width, height):
            arrow = " >" if y in row_axes else ""
            out.append("%2d | %s%s" % (y, " ".join(cells), arrow))
        out.append("   +" + "-" * (2 * width))
        out.append("     " + " ".join(str(x) for x in range(width)))
    else:
        depth = bounds[2] + 2
        for z in range(depth):
            out.append("%s = %d" % (names[2], z))
            for y, cells in _grid(stair, width, height, fix=(2, z)):
                out.append("%2d | %s" % (y, " ".join(cells)))
            out.append("   +" + "-" * (2 * width))
            out.append("     " + " ".join(str(x) for x in range(width)))
    out.append("rows: %s exponent, columns: %s exponent" % (names[1], names[0]))
    for j, count in enumerate(census.per_direction):
        out.append("axes along %s: %d" % (names[j], count))
    out.append("axes total: %d" % census.total)
    return "\n".join(out) + "\n"
