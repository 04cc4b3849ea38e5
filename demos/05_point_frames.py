"""Frames that cancel derivation components at a single point.

Two constructions: a first-order seed frame for a fixed field (works for
any derivation), and the linear-connection frame that kills every
component at the anchor at once.  Certificates decide when the frames can
be realized by coordinates (holonomic case).
"""

import numpy as np

from normframes import (
    Chart,
    Connection,
    Const,
    FrameField,
    LieType,
    NoFrameExistsError,
    PointFrameSpec,
    VectorField,
    frame_at_point_connection,
    frame_at_point_general,
    identity_seed,
    shell_component_growth,
    symmetrize_connection,
)
from normframes.expr import Sym, to_source

plane = Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
x1, x2 = plane.symbols
lie = LieType(FrameField.coordinate(plane))
field = VectorField(lie.frame, [Sym(x1), Const(0.0)])
anchor = np.array([1.0, 0.0])

# fixed-field construction: W_X(x0) is absorbed by the frame's first-order part
result = frame_at_point_general(
    lie, field, PointFrameSpec(anchor=anchor, a=identity_seed(field.at(anchor)))
)
print("constructed A:")
for i in range(2):
    print("  ", [to_source(result.transform.entries[i, j]) for j in range(2)])
print("components at the anchor after the transform:", result.residual)

# existence has a sharp boundary: a field vanishing at the anchor whose
# components do not vanish admits no such frame
bad_field = VectorField(lie.frame, [Sym(x1) - Const(1.0), Const(0.0)])
try:
    frame_at_point_general(
        lie, bad_field, PointFrameSpec(anchor=anchor, a=identity_seed(np.array([1.0, 0.0])))
    )
except NoFrameExistsError as err:
    print("rejected:", err)

# factorized seeds make the second-derivative certificate symmetric, the
# witness that a coordinate realization exists; generic seeds break it
holo = frame_at_point_general(
    lie, field, PointFrameSpec(anchor=anchor, a_factors=(np.ones(2), np.eye(2)))
)
print("factorized-seed certificate asymmetry:", holo.certificate_symmetry_residual)
rng = np.random.default_rng(1)
a = rng.uniform(-1, 1, (2, 2, 2))
a[:, :, 0] += 2 * np.eye(2)
generic = frame_at_point_general(lie, field, PointFrameSpec(anchor=anchor, a=a))
print("generic-seed certificate asymmetry:   ", generic.certificate_symmetry_residual)

# linear connections: every component vanishes at the anchor; growth away
# from it is first order (the curvature's doing)
sphere = Chart(("theta", "phi"), ((0.4, 2.7), (0.0, 6.2)))
th, _ = sphere.symbols
from normframes.expr import cos, sin

g = np.empty((2, 2, 2), dtype=object)
g[...] = Const(0.0)
g[0, 1, 1] = -(sin(Sym(th)) * cos(Sym(th)))
g[1, 0, 1] = cos(Sym(th)) / sin(Sym(th))
g[1, 1, 0] = cos(Sym(th)) / sin(Sym(th))
sphere_conn = Connection(FrameField.coordinate(sphere), g)

at = np.array([np.pi / 4, 0.5])
point_frame = frame_at_point_connection(sphere_conn, PointFrameSpec(anchor=at))
print("sphere components at the anchor:", point_frame.residual)
growth = shell_component_growth(sphere_conn, point_frame.transform, at)
print("max |components| at distance 1e-2 and 1e-3:", growth)

# with torsion there is no holonomic frame at a point, but the symmetric
# part of the connection admits one
plane2 = Chart(("x1", "x2"), ((-0.5, 0.5), (-0.5, 0.5)))
gt = np.empty((2, 2, 2), dtype=object)
gt[...] = Const(0.0)
gt[0, 0, 1] = Const(1.0)
torsion_conn = Connection(FrameField.coordinate(plane2), gt)
sym_conn = symmetrize_connection(torsion_conn)
print("symmetrized Gamma^1_{12} =", sym_conn.gamma[0, 0, 1],
      " Gamma^1_{21} =", sym_conn.gamma[0, 1, 0])
