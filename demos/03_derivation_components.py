"""Component matrices W_X of derivations and their transformation law.

A derivation D assigns each field X an operator D_X; its components in a
frame are the matrix W_X with D_X E_j = (W_X)^i_j E_i.  Linear connections
have W_X = Gamma_k X^k; Lie derivatives and free templates do not.
"""

import numpy as np

from normframes import (
    Chart,
    Connection,
    Const,
    FrameField,
    LieType,
    SymbolicTransform,
    VectorField,
    linearity_probe,
    transformed_components,
    w_of,
)
from normframes.expr import Sym

polar = Chart(("r", "theta"), ((1.0, 2.0), (0.0, 1.5)))
r, theta = polar.symbols
frame = FrameField.coordinate(polar)

gamma = np.empty((2, 2, 2), dtype=object)
gamma[...] = Const(0.0)
gamma[0, 1, 1] = -Sym(r)          # Gamma^1_{22} = -r
gamma[1, 0, 1] = 1 / Sym(r)       # Gamma^2_{12} = 1/r
gamma[1, 1, 0] = 1 / Sym(r)       # Gamma^2_{21} = 1/r
euclid = Connection(frame, gamma)

# For the angular direction the connection's component matrix is the familiar
# rotation generator scaled by r:
x = VectorField(frame, [Const(0.0), Const(1.0)])
w = w_of(euclid, x)
print("W_X for X = d_theta at r=1.5:")
print(w.evaluate_at([1.5, 0.3]))

# A Lie-type derivation differentiates the field itself, so its components
# see E_j(X^i) terms that no connection produces:
lie = LieType(frame)
x_lin = VectorField(frame, [Sym(r), Const(0.0)])
print("Lie-type W for X = r d_r:")
print(w_of(lie, x_lin).evaluate_at([1.5, 0.3]))

# The transformation law W' = A^{-1}(W_X A + X(A)) under the frame change
# E_k' = A^a_k' E_a, evaluated at points along every new direction E_k':
# entry [p, k'] is W' at point p for X = E_k'.  Here E_2' = d_theta = X.
transform = SymbolicTransform(frame, [[Sym(r), Const(0.0)], [Const(0.0), Const(1.0)]])
w_prime = transformed_components(euclid, transform, [[1.5, 0.3]])
print("transformed W along E_2' at (1.5, 0.3):")
print(w_prime[0, 1])

# Probing tells connections apart from everything else: components must
# vanish with the field and superpose linearly.
print("connection linear at (1.5, 0.3):", linearity_probe(euclid, [1.5, 0.3]).is_linear)
verdict = linearity_probe(lie, [1.5, 0.3])
print("Lie-type linear at (1.5, 0.3):  ", verdict.is_linear,
      "| witness field:", verdict.witness["components"])
