"""Curvature and torsion: their component forms at points, and verdicts.

The forms are computed numerically at the points where they are read, from
first-order jets (value plus the frame derivatives E_k = B^a_k d/dx^a) run
on the compiled tape of their symbolic inputs: the W template, the probe
fields' components and E_k(X^i), the anholonomy C and the connection
coefficients.  No curvature or torsion expression is built.  For a field
pair,

    R(X,Y) = X(W_Y) - Y(W_X) + W_X W_Y - W_Y W_X - W_[X,Y],
    T(X,Y) = W_X Y - W_Y X - C(X,Y),

with X(W_Y) = X^k E_k(W_Y) from the template's jets at X's components and
frame derivatives, and W_[X,Y] from the template's values at the bracket
[X,Y]^i = X(Y^i) - Y(X^i) + C^i_{jk} X^j Y^k and its E_l, which the jets of
X, Y and C give.  For a connection,

    R^i_{jkl} = -E_l(G^i_{jk}) + E_k(G^i_{jl}) - G^m_{jk} G^i_{ml}
                + G^m_{jl} G^i_{mk} - G^i_{jm} C^m_{kl},
    T^i_{kl} = -((W_{E_l})^i_k - (W_{E_k})^i_l) - C^i_{kl},

with (W_{E_l})^i_k = G^i_{kl}.  The test suite keeps these in agreement
with the symbolic forms of ``tests/reference.py`` and with brute-force
operator evaluation through the derivation action, D_X D_Y - D_Y D_X -
D_[X,Y] and D_X Y - D_Y X - [X,Y], its ground truth.  Sign conventions
follow the component formulas verbatim; recorded signs on the fixtures are
outputs, never inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matops
from .expr import ZERO, Const, compile_exprs
from .geometry import DEFAULT_SEED, IDENTITY_TOL, FrameField, VectorField
from .derivation import Connection, Derivation, seeded_affine_fields
from .rng import Generator


@dataclass
class Verdict:
    """A boolean decision plus the residual that justifies it, and where
    the residual sits: (point, form, component) indices into the sampled
    forms, the first of the largest."""

    value: bool
    max_residual: float
    tol: float
    worst: tuple

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


def _frame_seeds(frame: FrameField, points) -> list:
    """Each coordinate's tangent along the frame, B^a_k as [k, point] (a
    unit column on a coordinate frame): seeded with these, jets carry E_k."""
    n = frame.dimension
    if frame.is_coordinate:
        return list(np.eye(n)[:, :, None])
    b = matops.evaluate_points(frame.matrix, frame.chart.symbols, points)  # [P, a, k]
    return [b[:, a].T for a in range(n)]


def _jets(exprs, frame: FrameField, points, seeds):
    """Values [expr, P] and frame derivatives E_k [expr, k, P] of
    coordinate-only expressions."""
    return compile_exprs(exprs, frame.chart.symbols).jets(points.T, seeds)


def _anholonomy(frame: FrameField, points, seeds):
    """C^i_{jk} [i, P] and E_l(C^i_{jk}) [l, i, P] for each column (j, k)
    holding a nonzero entry, and those columns."""
    C = frame.anholonomy().components
    n = frame.dimension
    columns = [(j, k) for j, k in np.ndindex(n, n) if not all(e == ZERO for e in C[:, j, k])]
    if not columns:
        return [], [], []
    c, dc = _jets([e for j, k in columns for e in C[:, j, k]], frame, points, seeds)
    return (np.split(c, len(columns)), np.split(np.moveaxis(dc, 1, 0), len(columns), axis=1),
            columns)


def _torsion(w, c):
    """T^i_{kl} [i, k, l, P] from W_{E_k} as w[k, i, j, P] and C (or None)."""
    t = w.transpose(1, 0, 2, 3) - w.transpose(1, 2, 0, 3)
    return t if c is None else t - c


def _connection_forms(deriv: Connection, points, seeds, c):
    """The curvature [i, j, k, l, P] and torsion [i, k, l, P] tensors."""
    n, count = deriv.frame.dimension, len(points)
    g, dg = _jets(deriv.gamma.ravel(), deriv.frame, points, seeds)
    g, dg = g.reshape(n, n, n, count), dg.reshape(n, n, n, n, count)  # dg[i,j,k,l] = E_l(G^i_jk)
    r = dg.swapaxes(2, 3) - dg
    gg = 0.0  # sum_m G^i_{ml} G^m_{jk}, as [i, j, k, l]
    for m in range(n):
        gg = gg + g[:, m, None, None] * g[m, None, :, :, None]
    r += gg.swapaxes(2, 3) - gg
    if c is not None:
        for m in range(n):
            r -= g[:, :, m, None, None] * c[m]
    return r, _torsion(g.transpose(2, 0, 1, 3), c)


def _template_jets(deriv: Derivation, points, seeds, fields) -> tuple[list, list]:
    """W [i, j, P] and E_k(W) [i, j, k, P] of each field, from the template
    tape's jets.  An input whose E_l vanish identically (a constant component
    or frame derivative) keeps the tangent None: what a fold drops raises nothing."""
    n = deriv.frame.dimension
    slots = [(i, j) for _, i, j in deriv.template_derivatives]
    stack = lambda parts: np.stack(parts, axis=-1)  # [..., P] per field -> [..., P, field]
    rows = [*points.T[:, :, None], *stack([f.x for f in fields])]
    rows += [stack([f.dx[j, i] for f in fields]) for i, j in slots]
    tangents = [s[:, :, None] for s in seeds]
    tangents += [stack([f.dx[:, m] for f in fields]) if fields[0].varies[m] else None
                 for m in range(n)]
    tangents += [stack([f.ddx[j, i] for f in fields]) if fields[0].varies[n + k] else None
                 for k, (i, j) in enumerate(slots)]
    w, dw = deriv.template_tape.jets(rows, tangents)
    return (list(np.moveaxis(w.reshape((n, n) + w.shape[1:]), -1, 0)),
            list(np.moveaxis(dw.reshape((n, n, n) + w.shape[1:]), -1, 0)))


class _Field:
    """A probe field at the points: x [i, P], dx [k, i, P] = E_k(X^i), ddx
    [k, i, l, P] = E_l(E_k(X^i)) (None where every E_k(X^i) is constant),
    and which template inputs vary: each X^m, then each slot's E_j(X^i)."""

    def __init__(self, x, dx, ddx, varies):
        self.x, self.dx, self.ddx, self.varies = x, dx, ddx, varies


def _fields_at(fields, slots, frame: FrameField, points, seeds) -> list:
    """Each field's :class:`_Field`: the components and E_k(X^i) from one
    tape, and E_l(E_k(X^i)) from the jets of the fields whose E_k(X^i) vary."""
    n, count = frame.dimension, len(points)
    exprs = [e for f in fields for e in (*f.components, *f.component_derivatives.flat)]
    values = matops.evaluate_points(exprs, frame.chart.symbols, points).T
    varying = [f for f in fields if not all(isinstance(e, Const) for e in f.component_derivatives.flat)]
    ddx = {}
    if varying:
        _, tangents = _jets([e for f in varying for e in f.component_derivatives.flat],
                            frame, points, seeds)
        ddx = dict(zip(map(id, varying), tangents.reshape(len(varying), n, n, n, count)))
    out = []
    for f, rows in zip(fields, np.split(values, len(fields))):
        varies = [not isinstance(e, Const) for e in f.components]
        varies += [not isinstance(f.component_derivatives[j, i], Const) for i, j in slots]
        out.append(_Field(rows[:n], rows[n:].reshape(n, n, count), ddx.get(id(f)), varies))
    return out


def _pair_forms(deriv: Derivation, pairs, points, seeds):
    """R(X,Y) [i, j, P] and T(X,Y) [i, P] of each pair, stacked along a
    first axis."""
    curvature, torsion, brackets = _pair_terms(deriv, pairs, points, seeds)
    # after the fields' jets are gone: [X,Y]^i [P, pair, i], E_l([X,Y]^i) [P, pair, l, i]
    brk = np.stack([b for b, _ in brackets]).transpose(2, 0, 1)
    dbrk = np.stack([d for _, d in brackets]).transpose(3, 0, 1, 2)
    w_brk = deriv.w_at(points[:, None], brk, dbrk)
    return np.stack(curvature) - np.moveaxis(w_brk, 0, -1), np.stack(torsion)


def _pair_terms(deriv: Derivation, pairs, points, seeds):
    """Of each pair: R(X,Y) + W_[X,Y], T(X,Y), and [X,Y] with its E_l, as
    the template's inputs."""
    frame = deriv.frame
    n = frame.dimension
    unique = list({id(f): f for pair in pairs for f in pair}.values())
    slots = [(i, j) for _, i, j in deriv.template_derivatives]
    fields = dict(zip(map(id, unique), _fields_at(unique, slots, frame, points, seeds)))
    # fields whose template inputs vary alike share a jet run
    groups = {}
    for f in fields.values():
        groups.setdefault(tuple(f.varies), []).append(f)
    for group in groups.values():
        for f, w, dw in zip(group, *_template_jets(deriv, points, seeds, group)):
            f.w, f.dw = w, dw
    c, dc, columns = _anholonomy(frame, points, seeds)

    curvature, torsion, brackets = [], [], []
    for p, q in pairs:
        a, b = fields[id(p)], fields[id(q)]
        r = 0.0  # X(W_Y) - Y(W_X) + W_X W_Y - W_Y W_X
        t = 0.0  # W_X Y - W_Y X - C(X,Y)
        brk = 0.0  # [X,Y]^i = X(Y^i) - Y(X^i) + C(X,Y)^i
        dbrk = 0.0  # E_l([X,Y]^i), as [l, i]
        for k in range(n):
            r = r + a.x[k] * b.dw[:, :, k] - b.x[k] * a.dw[:, :, k]
            r = r + a.w[:, k, None] * b.w[k] - b.w[:, k, None] * a.w[k]
            t = t + a.w[:, k] * b.x[k] - b.w[:, k] * a.x[k]
            brk = brk + a.x[k] * b.dx[k] - b.x[k] * a.dx[k]
            dbrk = dbrk + a.dx[:, k, None] * b.dx[k] - b.dx[:, k, None] * a.dx[k]
            if b.ddx is not None:
                dbrk = dbrk + a.x[k] * b.ddx[k].swapaxes(0, 1)
            if a.ddx is not None:
                dbrk = dbrk - b.x[k] * a.ddx[k].swapaxes(0, 1)
        for (j, k), c_jk, dc_jk in zip(columns, c, dc):
            xy = a.x[j] * b.x[k]
            brk = brk + c_jk * xy
            t = t - c_jk * xy
            dbrk = dbrk + dc_jk * xy + c_jk * (a.dx[:, j, None] * b.x[k] + a.x[j] * b.dx[:, k, None])
        curvature.append(r)
        torsion.append(t)
        brackets.append((brk, dbrk))
    return curvature, torsion, brackets


class ProbeForms:
    """The forms :func:`is_flat` and :func:`is_torsion_free` test, for one
    derivation and probe seed.  A connection has one of each, its curvature
    and torsion tensors.  Any other variant has one per probe pair: the
    frame pairs (E_i, E_j), i < j, first, then (with ``seeded``) four pairs
    of seeded affine fields.  :meth:`at` evaluates both kinds at once."""

    def __init__(self, deriv: Derivation, seed: int = DEFAULT_SEED, seeded: bool = True):
        self.deriv = deriv
        self.seed = seed
        self.seeded = seeded

    @cached_property
    def pairs(self) -> list[tuple[VectorField, VectorField]]:
        pairs = _probe_pairs(self.deriv.frame, self.seed)
        n = self.deriv.frame.dimension
        return pairs if self.seeded else pairs[:n * (n - 1) // 2]

    def labels(self) -> list:
        """Each form's name in a report: "E1,E2" for a frame pair, else its
        index (0 for a connection's one tensor)."""
        if isinstance(self.deriv, Connection):
            return [0]
        n = self.deriv.frame.dimension
        frame_pairs = [f"E{i + 1},E{j + 1}" for i in range(n) for j in range(i + 1, n)]
        return frame_pairs + list(range(len(frame_pairs), len(self.pairs)))

    def at(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The curvature and torsion forms at the points [P, n], as arrays over
        [point, form, component]: [P, 1, n, n, n, n] and [P, 1, n, n, n] for a
        connection, [P, pair, n, n] and [P, pair, n] otherwise."""
        frame = self.deriv.frame
        points = np.asarray(points, dtype=float)
        seeds = _frame_seeds(frame, points)
        if isinstance(self.deriv, Connection):
            r, t = _connection_forms(self.deriv, points, seeds, _values_of_c(frame, points))
            return np.moveaxis(r, -1, 0)[:, None], np.moveaxis(t, -1, 0)[:, None]
        r, t = _pair_forms(self.deriv, self.pairs, points, seeds)
        return np.moveaxis(r, -1, 0), np.moveaxis(t, -1, 0)


def _values_of_c(frame: FrameField, points):
    """C^i_{jk} [i, j, k, P], or None on a holonomic frame."""
    C = frame.anholonomy()
    if C.is_zero:
        return None
    values = matops.evaluate_points(C.components, frame.chart.symbols, points)
    return np.moveaxis(values, 0, -1)


def torsion_tensor_at(deriv: Derivation, points) -> np.ndarray:
    """T^i_{kl} at the points [P, n], as [P, i, k, l]: the torsion formula on
    W_{E_k} of any derivation (a tensor only for linear connections)."""
    frame = deriv.frame
    n = frame.dimension
    points = np.asarray(points, dtype=float)
    c = _values_of_c(frame, points)
    # W_{E_k}: X^i = delta_ik, E_l(X^i) = 0, as [k, i, j, P]
    w = np.moveaxis(deriv.w_at(points[:, None], np.eye(n), np.zeros((n, n, n))), 0, -1)
    return np.moveaxis(_torsion(w, c), -1, 0)


def sampled_verdict(forms: np.ndarray, tol: float = IDENTITY_TOL) -> Verdict:
    """Largest |component| of the forms [point, form, component...] and
    where it sits: the first such entry in row-major order."""
    magnitude = np.abs(forms)
    residual = float(np.max(magnitude))
    worst = tuple(int(i) for i in np.argwhere(magnitude == residual)[0])
    return Verdict(residual <= tol, residual, tol, worst)


def is_flat(deriv: Derivation, seed: int = DEFAULT_SEED, tol: float = IDENTITY_TOL) -> Verdict:
    """Identity-test the curvature over the chart's sample cloud.

    Connections test the full tensor; other variants probe the matrix form
    over a deterministic family of field pairs.
    """
    points = deriv.chart.sample_points(seed=seed)
    return sampled_verdict(ProbeForms(deriv, seed).at(points)[0], tol)


def is_torsion_free(
    deriv: Derivation, seed: int = DEFAULT_SEED, tol: float = IDENTITY_TOL
) -> Verdict:
    points = deriv.chart.sample_points(seed=seed)
    return sampled_verdict(ProbeForms(deriv, seed).at(points)[1], tol)
