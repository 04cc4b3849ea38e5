"""Curvature and torsion: component forms, tensors and verdicts.

The closed component expressions here are what verdicts and the CLI use.
The test suite keeps them in agreement with brute-force operator
evaluation through the derivation action, D_X D_Y - D_Y D_X - D_[X,Y] and
D_X Y - D_Y X - [X,Y], its ground truth.  Sign conventions follow the component formulas
verbatim; recorded signs on the fixtures are outputs, never inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import Const, Expr, simplify
from .geometry import (
    DEFAULT_SEED,
    IDENTITY_TOL,
    FrameField,
    TensorField,
    VectorField,
    commutator,
    vanishes_on_chart,
)
from .derivation import (
    Connection,
    Derivation,
    VariantError,
    seeded_affine_fields,
    w_derivatives,
    w_of,
)
from .rng import Generator


def curvature_matrix(deriv: Derivation, x: VectorField, y: VectorField) -> TensorField:
    """(R(X,Y))^i_k = X(W_Y) - Y(W_X) + W_X W_Y - W_Y W_X - W_{[X,Y]}, a
    (1,1) tensor field for the fixed pair of fields.  W_X, W_Y, W_{[X,Y]}
    and the frame derivatives are the ones ``deriv`` keeps per field."""
    w_x, w_y = w_of(deriv, x).components, w_of(deriv, y).components
    x_wy = x.contract(w_derivatives(deriv, y))
    y_wx = y.contract(w_derivatives(deriv, x))
    w_brk = w_of(deriv, commutator(x, y)).components
    # "+ -e", not "- e": a - b builds Sub, a different tree from Add(a, Neg(b))
    total = x_wy + -y_wx + (w_x @ w_y + -(w_y @ w_x)) + -w_brk
    return TensorField(deriv.frame, 1, 1, simplify(total))


def torsion_vector(deriv: Derivation, x: VectorField, y: VectorField) -> VectorField:
    """(W_X)^i_l Y^l - (W_Y)^i_l X^l - C^i_{kl} X^k Y^l."""
    frame = deriv.frame
    n = frame.dimension
    w_x, w_y = w_of(deriv, x).components, w_of(deriv, y).components
    C = frame.anholonomy()
    holonomic = C.is_zero
    comps = []
    for i in range(n):
        acc: Expr = Const(0.0)
        for l in range(n):
            acc = acc + w_x[i, l] * y.components[l] - w_y[i, l] * x.components[l]
        if not holonomic:
            for k in range(n):
                for l in range(n):
                    acc = acc - C.components[i, k, l] * x.components[k] * y.components[l]
        comps.append(simplify(acc))
    return VectorField(frame, comps)


def curvature_tensor(deriv: Connection) -> TensorField:
    """R^i_{jkl} = -E_l(G^i_{jk}) + E_k(G^i_{jl}) - G^m_{jk} G^i_{ml}
    + G^m_{jl} G^i_{mk} - G^i_{jm} C^m_{kl}, with G the connection array;
    a (1,3) tensor field."""
    if not isinstance(deriv, Connection):
        raise VariantError("the curvature tensor requires the connection variant")
    frame = deriv.frame
    n = frame.dimension
    g = deriv.gamma
    C = frame.anholonomy()
    holonomic = C.is_zero
    dg = frame.frame_derivatives(g)  # dg[l, i, j, k] = E_l(G^i_{jk})
    out = np.empty((n, n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc: Expr = -dg[l, i, j, k] + dg[k, i, j, l]
                    for m in range(n):
                        acc = acc - g[m, j, k] * g[i, m, l] + g[m, j, l] * g[i, m, k]
                    if not holonomic:
                        for m in range(n):
                            acc = acc - g[i, j, m] * C.components[m, k, l]
                    out[i, j, k, l] = simplify(acc)
    return TensorField(frame, 1, 3, out)


def torsion_tensor(deriv: Derivation) -> TensorField:
    """T^i_{kl} = -((W_{E_l})^i_k - (W_{E_k})^i_l) - C^i_{kl}, a (1,2)
    tensor field.

    Built from the frame-direction component matrices of any derivation;
    for a connection (W_{E_l})^i_k = G^i_{kl}.  The result is a tensor only
    for linear connections.
    """
    frame = deriv.frame
    n = frame.dimension
    w_frames = [w_of(deriv, frame.coordinate_vector(k)).components for k in range(n)]
    C = frame.anholonomy()
    holonomic = C.is_zero
    out = np.empty((n, n, n), dtype=object)
    for i, k, l in np.ndindex(out.shape):
        acc: Expr = -(w_frames[l][i, k] - w_frames[k][i, l])
        if not holonomic:
            acc = acc - C.components[i, k, l]
        out[i, k, l] = simplify(acc)
    return TensorField(frame, 1, 2, out)


@dataclass
class Verdict:
    """A boolean decision plus the residual that justifies it."""

    value: bool
    max_residual: float
    tol: float

    def __bool__(self) -> bool:
        return self.value


def _probe_pairs(frame: FrameField, seed: int) -> list[tuple[VectorField, VectorField]]:
    """Frame-field pairs plus seeded random polynomial fields."""
    n = frame.dimension
    base = [frame.coordinate_vector(i) for i in range(n)]
    pairs = [(base[i], base[j]) for i in range(n) for j in range(i + 1, n)]
    rand = seeded_affine_fields(frame, Generator(seed), 4)
    pairs.extend(
        [(rand[0], rand[1]), (rand[1], rand[2]), (rand[2], rand[3]), (rand[3], rand[0])]
    )
    return pairs


class ProbeForms:
    """The forms :func:`is_flat` and :func:`is_torsion_free` test, for one
    derivation and probe seed, built one at a time by :meth:`curvature` and
    :meth:`torsion`.  A connection has one of each, its curvature and
    torsion tensors.  Any other variant has one per probe pair (the frame
    pairs (E_i, E_j), i < j, first); while the pairs live, the derivation
    keeps each probe field's W_X and E_k(W_X), so the curvature and torsion
    forms build them once between them."""

    def __init__(self, deriv: Derivation, seed: int = DEFAULT_SEED):
        self.deriv = deriv
        self.seed = seed

    @cached_property
    def pairs(self) -> list[tuple[VectorField, VectorField]]:
        return _probe_pairs(self.deriv.frame, self.seed)

    def curvature(self):
        if isinstance(self.deriv, Connection):
            yield curvature_tensor(self.deriv)
            return
        for x, y in self.pairs:
            yield curvature_matrix(self.deriv, x, y)

    def torsion(self):
        if isinstance(self.deriv, Connection):
            yield torsion_tensor(self.deriv)
            return
        for x, y in self.pairs:
            yield torsion_vector(self.deriv, x, y)


def sampled_verdict(forms, chart, seed: int = DEFAULT_SEED, tol: float = IDENTITY_TOL) -> Verdict:
    """Largest |component| of the forms (tensor or vector fields) over the
    chart's sample cloud.  Each form gets one compiled evaluation; given one
    at a time, only one form's trees and code stay alive."""
    worst = max(vanishes_on_chart(np.ravel(form.components), chart, tol=tol, seed=seed)[1]
                for form in forms)
    return Verdict(worst <= tol, worst, tol)


def is_flat(deriv: Derivation, seed: int = DEFAULT_SEED, tol: float = IDENTITY_TOL) -> Verdict:
    """Identity-test the curvature over the chart's sample cloud.

    Connections test the full tensor; other variants probe the matrix form
    over a deterministic family of field pairs.
    """
    return sampled_verdict(ProbeForms(deriv, seed).curvature(), deriv.chart, seed, tol)


def is_torsion_free(
    deriv: Derivation, seed: int = DEFAULT_SEED, tol: float = IDENTITY_TOL
) -> Verdict:
    return sampled_verdict(ProbeForms(deriv, seed).torsion(), deriv.chart, seed, tol)
