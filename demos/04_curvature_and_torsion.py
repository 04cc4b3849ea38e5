"""Curvature and torsion, computed two independent ways and compared.

The component formulas evaluated at points from jets on the compiled tape
(``ProbeForms``) on one side; brute-force operator evaluation (D_X D_Y -
D_Y D_X - D_[X,Y], and D_X Y - D_Y X - [X,Y]) through the derivation
action on the other.  Their agreement is the library's standing
self-check; the test suite keeps the operator oracles and the symbolic
forms in tests/reference.py.
"""

import numpy as np

from normframes import (
    Chart,
    Connection,
    Const,
    FrameField,
    ProbeForms,
    TensorField,
    WTemplate,
    apply_derivation,
    commutator,
    is_flat,
    is_torsion_free,
    torsion_tensor_at,
)
from normframes.expr import Sym, cos, sin

# The unit sphere: curvature shows up in R^1_{212} = sin^2(theta).
sphere = Chart(("theta", "phi"), ((0.4, 2.7), (0.0, 6.2)))
th, ph = sphere.symbols
g = np.empty((2, 2, 2), dtype=object)
g[...] = Const(0.0)
g[0, 1, 1] = -(sin(Sym(th)) * cos(Sym(th)))
g[1, 0, 1] = cos(Sym(th)) / sin(Sym(th))
g[1, 1, 0] = cos(Sym(th)) / sin(Sym(th))
sphere_conn = Connection(FrameField.coordinate(sphere), g)

at = np.array([np.pi / 4, 0.3])
# [point, form, i, j, k, l]: a connection has one form, its curvature tensor
tensor = ProbeForms(sphere_conn).at(at[None])[0][0, 0]
print("sphere R^1_{212} at theta=pi/4:", tensor[0, 1, 0, 1])

e1 = sphere_conn.frame.coordinate_vector(0)
e2 = sphere_conn.frame.coordinate_vector(1)
# R(E_1, E_2) E_2 = D_1 D_2 E_2 - D_2 D_1 E_2 - D_[E_1, E_2] E_2, by the action on vectors
z = TensorField.from_vector(e2)
d12 = apply_derivation(sphere_conn, e1, apply_derivation(sphere_conn, e2, z))
d21 = apply_derivation(sphere_conn, e2, apply_derivation(sphere_conn, e1, z))
d_brk = apply_derivation(sphere_conn, commutator(e1, e2), z)
print("tensor column:     ", tensor[:, 1, 0, 1])  # R(E_1, E_2)^i_2 = R^i_{212}
print("operator route:    ", d12.evaluate_at(at) - d21.evaluate_at(at) - d_brk.evaluate_at(at))

print("sphere flat?        ", bool(is_flat(sphere_conn)))
print("sphere torsion-free?", bool(is_torsion_free(sphere_conn)))

# A flat connection with torsion: Gamma^1_{12} = 1 on the plane.
plane = Chart(("x1", "x2"), ((-0.5, 0.5), (-0.5, 0.5)))
gt = np.empty((2, 2, 2), dtype=object)
gt[...] = Const(0.0)
gt[0, 0, 1] = Const(1.0)
torsion_conn = Connection(FrameField.coordinate(plane), gt)

print("fixture flat?        ", bool(is_flat(torsion_conn)))
print("fixture torsion-free?", bool(is_torsion_free(torsion_conn)))
origin = np.zeros((1, 2))
t = torsion_tensor_at(torsion_conn, origin)[0]
print("T^1_{12} =", t[0, 0, 1], "  T^1_{21} =", t[0, 1, 0])
# the W template W_X = Gamma_k X^k is the same derivation, with one form per probe pair
pairs = ProbeForms(WTemplate(torsion_conn.frame, torsion_conn.w_template))
print("T(E_1, E_2) components:", pairs.at(origin)[1][0, 0])
