"""From an affine lex basis to a homogeneous deglex basis.

Homogenizing the elements of an affine reduced basis does not in general
give a basis of the ideal of the cone over the points: some corners need
extra powers of the homogenizing variable.  The parabola points below
exhibit the jump: the affine element X3 - X2^2 only becomes part of the
homogeneous basis as X1*X3 - X2^2, one degree above its affine lead.
"""

from pointideals import LEX, affine_points, cone_basis, buchberger_moeller, poly_str

chart = affine_points(2, [[0, 0], [1, 1], [2, 4]])
gb_lex, _, _ = buchberger_moeller(chart, LEX)
print("affine lex basis (variables X2, X3):")
for g in gb_lex.elements:
    print("  ", poly_str(g, LEX, first_var=2))

gb_hom = cone_basis(chart)
# X1 is the first variable: e[0] is the offset of the projected corner e[1:]
trace = {e[1:]: e[0] for e in sorted(gb_hom.leading_exponents(), key=lambda e: e[:0:-1])}
print("\nhomogeneous deglex basis of the cone (X1 is the new smallest variable):")
for g in gb_hom.elements:
    print("  ", poly_str(g))

print("\ndegree offsets per projected corner:", trace)
print("the (0,1) corner (affine lead X3) homogenized at offset %d" % trace[(0, 1)])
