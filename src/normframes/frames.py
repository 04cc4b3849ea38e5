"""Constructions of frames in which derivation components vanish.

Three loci are supported, each with its own existence conditions and its
own verifier (constructions are never trusted, always re-checked through
the transformation law):

* a single point, for a fixed field (first-order seed construction) or for
  a derivation that is a linear connection at that point,
* an integral curve of a fixed field (matrix transport ODE),
* a whole neighborhood, for flat linear connections (grid integration of
  the frame equations, with a path-independence audit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

import numpy as np

from . import matops
from .expr import Const, Expr, Sym, Symbol, compile_exprs, differentiate, evaluate, simplify
from .geometry import (
    Chart,
    DEGENERACY_TOL,
    FrameField,
    VectorField,
)
from .derivation import (
    Derivation,
    LinearityVerdict,
    SymbolicTransform,
    _vanishing_fields,
    linearity_probe,
    transform_w,
    w_of,
)
from .curvature import integrability_residual, is_flat

POINT_TOL = 1e-10
CERT_TOL = 1e-12
GRID_TOL = 1e-6
DEFAULT_STEP = 1e-3
ZERO_FIELD_TOL = 1e-12


class ConstructionError(Exception):
    pass


class NoFrameExistsError(ConstructionError):
    """Existence condition violated: the field vanishes at the anchor but
    its component matrix does not."""


class NotFlatError(ConstructionError):
    def __init__(self, message: str, obstruction_norm: float):
        super().__init__(message)
        self.obstruction_norm = obstruction_norm


class NotLinearConnectionError(ConstructionError):
    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class CurveError(ConstructionError):
    pass


class GridTooCoarseError(ConstructionError):
    """Requested tolerance sits below the centered-difference floor."""


class VerificationError(ConstructionError):
    pass


# ---------------------------------------------------------------------------
# point constructions


@dataclass
class PointFrameSpec:
    """Seed data for the point constructions.

    ``a`` is the first-order seed array a[j, j', k] contracted against the
    field value at the anchor; ``a_factors = (a_vec, a_mat)`` is the
    rank-factorized form a[j, j', k] = a_vec[j'] * a_mat[j, k] used by the
    holonomic construction.  ``quadratic`` optionally supplies b[j, j', alpha,
    beta] expressions multiplying second-order offsets; the default zero is
    the minimal representative of the solution family.  For the
    linear-connection construction ``b_matrix`` seeds A(x0) = B and
    ``b_quadratic`` plays the same second-order role.
    """

    anchor: Sequence
    a: Optional[np.ndarray] = None
    a_factors: Optional[tuple] = None
    quadratic: Optional[np.ndarray] = None
    b_matrix: Optional[np.ndarray] = None
    b_quadratic: Optional[np.ndarray] = None
    holonomic: bool = False

    def seed_array(self, n: int) -> np.ndarray:
        if self.a_factors is not None:
            a_vec, a_mat = self.a_factors
            a_vec = np.asarray(a_vec, dtype=float)
            a_mat = np.asarray(a_mat, dtype=float)
            if np.any(a_vec == 0.0):
                raise ValueError("factorized seed requires nonzero scale entries")
            if abs(np.linalg.det(a_mat)) <= DEGENERACY_TOL:
                raise ValueError("factorized seed requires an invertible matrix factor")
            return np.einsum("q,jk->jqk", a_vec, a_mat)
        if self.a is not None:
            return np.asarray(self.a, dtype=float).reshape((n, n, n))
        raise ValueError("no first-order seed provided")


def identity_seed(x_value: np.ndarray) -> np.ndarray:
    """Seed a[j, j', k] with a[. , ., k] X^k(x0) = identity.

    Picks a covector u with u . X(x0) = 1 and sets a[j, j', k] =
    delta_{j j'} u_k.
    """
    x_value = np.asarray(x_value, dtype=float)
    n = len(x_value)
    k = int(np.argmax(np.abs(x_value)))
    if x_value[k] == 0.0:
        raise ValueError("cannot build an identity seed for a vanishing field value")
    u = np.zeros(n)
    u[k] = 1.0 / x_value[k]
    return np.einsum("jq,k->jqk", np.eye(n), u)


@dataclass
class PointFrameResult:
    transform: SymbolicTransform
    anchor: np.ndarray
    residual: float
    field: Optional[VectorField] = None
    certificate: Optional[np.ndarray] = None
    certificate_symmetry_residual: Optional[float] = None
    anchor_determinant: Optional[float] = None
    gammas: Optional[np.ndarray] = None
    verdict: Optional[LinearityVerdict] = dataclass_field(default=None, repr=False)


def _offset_exprs(chart: Chart, x0: np.ndarray) -> list[Expr]:
    return [Sym(s) - Const(float(v)) for s, v in zip(chart.symbols, x0)]


def _first_order_transform(
    frame: FrameField,
    x0: np.ndarray,
    constant: np.ndarray,
    linear: np.ndarray,
    quadratic: Optional[np.ndarray],
) -> np.ndarray:
    """Entries constant[i,j] + linear[i,j,alpha] dx^alpha (+ quadratic)."""
    n = frame.dimension
    offsets = _offset_exprs(frame.chart, x0)
    entries = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            e: Expr = Const(float(constant[i, j]))
            for alpha in range(n):
                c = float(linear[i, j, alpha])
                if c != 0.0:
                    e = e + Const(c) * offsets[alpha]
            if quadratic is not None:
                for alpha in range(n):
                    for beta in range(n):
                        q = quadratic[i, j, alpha, beta]
                        if isinstance(q, Expr):
                            e = e + q * offsets[alpha] * offsets[beta]
                        elif float(q) != 0.0:
                            e = e + Const(float(q)) * offsets[alpha] * offsets[beta]
            entries[i, j] = simplify(e)
    return entries


def frame_at_point_general(
    deriv: Derivation, x: VectorField, spec: PointFrameSpec
) -> PointFrameResult:
    """Frame in which the components along the fixed field vanish at the anchor.

    Existence: always when X(x0) != 0; when X(x0) = 0 a frame exists only
    if W_X(x0) = 0 already, in which case every frame qualifies and the
    identity is returned.
    """
    frame = deriv.frame
    chart = frame.chart
    n = frame.dimension
    x0 = chart.point(spec.anchor)
    w_x = w_of(deriv, x)
    w0 = w_x.evaluate_at(x0)
    x_val = x.at(x0)

    if float(np.max(np.abs(x_val))) <= ZERO_FIELD_TOL:
        w_norm = float(np.max(np.abs(w0)))
        if w_norm > POINT_TOL:
            raise NoFrameExistsError(
                "the field vanishes at the anchor but its component matrix "
                f"does not (max |W| = {w_norm:.3e}); no frame can cancel it there"
            )
        transform = SymbolicTransform.identity(frame)
        return PointFrameResult(transform, x0, w_norm, field=x, anchor_determinant=1.0)

    a = spec.seed_array(n)
    a0 = a @ x_val  # A(x0)[j, j'] = a[j, j', k] X^k(x0)
    det0 = float(np.linalg.det(a0))
    if not spec.holonomic and abs(det0) <= DEGENERACY_TOL:
        raise ValueError(
            f"seed produces a degenerate anchor matrix (det = {det0!r}); "
            "choose a seed with a[., ., k] X^k(x0) invertible"
        )
    b_inv0 = frame.inverse_at(x0)  # B^k_alpha(x0)
    # linear coefficient of (x^alpha - x0^alpha): -a[l, j', k] W0[j, l] B^k_alpha(x0)
    linear = -np.einsum("jl,lqk,ka->jqa", w0, a, b_inv0)
    entries = _first_order_transform(frame, x0, a0, linear, spec.quadratic)
    transform = SymbolicTransform(frame, entries, _validate=False)

    residual = anchor_residual(deriv, x, transform, x0)
    if residual > POINT_TOL:
        raise VerificationError(
            f"constructed frame fails its own check at the anchor (residual {residual:.3e})"
        )
    return PointFrameResult(transform, x0, residual, field=x, anchor_determinant=det0)


def anchor_residual(deriv: Derivation, x: VectorField, transform: SymbolicTransform, x0) -> float:
    """max |W'_X(x0)|: the components along X in the transformed frame at the anchor.

    A singular anchor matrix (the rank-one factorized seed) spans no
    transformed frame, so the uninverted form W(x0) A(x0) + X(A)(x0) = 0
    is checked instead.
    """
    w_x = w_of(deriv, x)
    a0 = transform.evaluate_at(x0)
    if abs(float(np.linalg.det(a0))) > DEGENERACY_TOL:
        return float(np.max(np.abs(transform_w(w_x, x, transform).evaluate_at(x0))))
    xa0 = matops.evaluate_array(x.apply_to_matrix(transform.entries), deriv.chart.assignment(x0))
    return float(np.max(np.abs(w_x.evaluate_at(x0) @ a0 + xa0)))


def point_frame_certificate(
    deriv: Derivation, x: VectorField, spec: PointFrameSpec
) -> tuple[np.ndarray, float]:
    """Second-derivative data cert[j, k', j'] = -A^k_{k'}(x0) a[l, j', k] W[j, l].

    Symmetry of cert[j] in (k', j') is the obstruction-free witness for
    realizing the frame as a coordinate (holonomic) basis at the anchor.
    Returns (certificate, max asymmetry).
    """
    frame = deriv.frame
    n = frame.dimension
    x0 = frame.chart.point(spec.anchor)
    w0 = w_of(deriv, x).evaluate_at(x0)
    x_val = x.at(x0)
    a = spec.seed_array(n)
    a0 = a @ x_val
    # cert[j, k', j'] = - (a[k, k', m] X^m(x0)) (a[l, j', k]) W[j, l]
    cert = -np.einsum("kq,lpk,jl->jqp", a0, a, w0)
    asym = float(np.max(np.abs(cert - np.transpose(cert, (0, 2, 1)))))
    return cert, asym


def frame_at_point_holonomic(
    deriv: Derivation, x: VectorField, spec: PointFrameSpec
) -> PointFrameResult:
    """Point construction from a factorized seed, with its symmetry certificate.

    The factorized seed makes the second-derivative certificate symmetric,
    which is what permits holonomic (coordinate) realizations; the
    first-order transform itself is returned verbatim.  Note the factorized
    zeroth-order matrix is rank one for n >= 2, so ``anchor_determinant``
    is reported and downstream use should rely on the certificate.
    """
    if spec.a_factors is None:
        raise ValueError("holonomic construction requires the factorized seed")
    spec = PointFrameSpec(
        anchor=spec.anchor,
        a_factors=spec.a_factors,
        quadratic=spec.quadratic,
        holonomic=True,
    )
    result = frame_at_point_general(deriv, x, spec)
    cert, asym = point_frame_certificate(deriv, x, spec)
    if asym > CERT_TOL:
        raise VerificationError(
            f"factorized seed produced an asymmetric certificate ({asym:.3e})"
        )
    result.certificate = cert
    result.certificate_symmetry_residual = asym
    return result


def frame_at_point_connection(
    deriv: Derivation,
    spec: PointFrameSpec,
    seed: int = 42,
    tol: float = POINT_TOL,
) -> PointFrameResult:
    """Frame with vanishing connection components at the anchor.

    Requires the derivation to act as a linear connection at the anchor
    (probed), and a coordinate source frame.  A(y) = B - Gamma_k B dx^k
    (+ optional quadratic seed terms).
    """
    frame = deriv.frame
    chart = frame.chart
    n = frame.dimension
    if not frame.is_coordinate:
        raise ValueError("the linear-connection construction expects a coordinate source frame")
    x0 = chart.point(spec.anchor)
    verdict = linearity_probe(deriv, x0, seed=seed)
    if not verdict.is_linear:
        raise NotLinearConnectionError(
            "the derivation is not a linear connection at the anchor "
            f"(probe residual {verdict.max_residual:.3e})",
            verdict,
        )
    gammas = verdict.gammas  # [i, j, k]
    b = np.eye(n) if spec.b_matrix is None else np.asarray(spec.b_matrix, dtype=float)
    if abs(np.linalg.det(b)) <= DEGENERACY_TOL:
        raise ValueError("anchor seed matrix must be invertible")
    linear = -np.einsum("ijk,jq->iqk", gammas, b)
    entries = _first_order_transform(frame, x0, b, linear, spec.b_quadratic)
    transform = SymbolicTransform(frame, entries, _validate=False)

    residual = transformed_components_max(deriv, transform, x0)
    if residual > tol:
        raise VerificationError(
            f"constructed frame fails its own check at the anchor (residual {residual:.3e})"
        )
    return PointFrameResult(
        transform, x0, residual, gammas=gammas, verdict=verdict,
        anchor_determinant=float(np.linalg.det(b)),
    )


def transformed_components_max(deriv: Derivation, transform: SymbolicTransform, point) -> float:
    """max |Gamma'| at a point: components of the derivation along every
    transformed frame direction, computed through the transformation law."""
    frame = deriv.frame
    n = frame.dimension
    worst = 0.0
    for kp in range(n):
        x_kp = VectorField(frame, [transform.entries[k, kp] for k in range(n)])
        w_prime = transform_w(w_of(deriv, x_kp), x_kp, transform)
        worst = max(worst, float(np.max(np.abs(w_prime.evaluate_at(point)))))
    return worst


def shell_component_growth(
    deriv: Derivation,
    transform: SymbolicTransform,
    anchor,
    distances: Sequence[float] = (1e-2, 1e-3),
) -> dict[float, float]:
    """max |Gamma'| on axis-aligned shells at the given coordinate distances."""
    chart = deriv.frame.chart
    x0 = chart.point(anchor)
    n = chart.dimension
    out = {}
    for d in distances:
        worst = 0.0
        for alpha in range(n):
            for sign in (+1.0, -1.0):
                pt = x0.copy()
                pt[alpha] += sign * d
                worst = max(worst, transformed_components_max(deriv, transform, pt))
        out[d] = worst
    return out


# ---------------------------------------------------------------------------
# the transport kernel: dA/dt = -M(t) A is linear in A, so carrying any A
# along a segment is one matrix product with the segment's propagator P.


def _matrices(rows: np.ndarray, n: int) -> np.ndarray:
    """Compiled (n*n, ...) component rows as a (..., n, n) stack."""
    return np.moveaxis(rows, 0, -1).reshape(rows.shape[1:] + (n, n))


def _step_counts(lengths: np.ndarray, h: float) -> np.ndarray:
    """RK4 steps per segment: the fewest whose length is at most h."""
    return np.maximum(1, np.ceil(np.abs(lengths) / h - 1e-12)).astype(int)


def _rk4_propagators(m_fn, n: int, starts, direction, lengths, steps) -> np.ndarray:
    """Propagators of dP/dt = -M(start + t direction) P, P(0) = I, for many
    straight segments at once.

    ``starts`` is (E, d) and ``direction`` broadcasts against it; segment e
    runs t from 0 to lengths[e] in steps[e] classical RK4 steps (``steps``
    may be one count for all).  ``m_fn`` is a compiled M taking the d point
    coordinates.  Segments are grouped by step count; each step evaluates M
    once, at the stacked midpoints and endpoints of its group, and only the
    current (E, n, n) state is held.
    """
    lengths = np.asarray(lengths, dtype=float)
    steps = np.broadcast_to(steps, lengths.shape)
    out = np.empty((len(lengths), n, n))
    for count in np.unique(steps):
        rows = np.flatnonzero(steps == count)
        twice = np.concatenate([starts[rows], starts[rows]])
        dt = (lengths[rows] / count)[:, None]
        h = dt[:, :, None]
        p = np.tile(np.eye(n), (len(rows), 1, 1))
        m_prev = _matrices(m_fn(*starts[rows].T), n)
        for i in range(count):
            t0 = i * dt
            points = twice + np.concatenate([t0 + 0.5 * dt, t0 + dt]) * direction
            m_mid, m_next = np.split(_matrices(m_fn(*points.T), n), 2)
            k1 = -(m_prev @ p)
            k2 = -(m_mid @ (p + 0.5 * h * k1))
            k3 = -(m_mid @ (p + 0.5 * h * k2))
            k4 = -(m_next @ (p + h * k3))
            p = p + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            m_prev = m_next
        out[rows] = p
    return out


def _edge_defects(carried: np.ndarray, target: np.ndarray) -> np.ndarray:
    """max |A_next^{-1} (carried - A_next)| per edge."""
    return np.max(np.abs(np.linalg.solve(target, carried - target)), axis=(-2, -1))


def _curve_matrix_function(deriv: Derivation, x: VectorField, exprs, parameter: Symbol):
    """Compiled M(s) = W_X(curve(s)) of the curve parameter."""
    w_fn = compile_exprs(list(w_of(deriv, x).entries.flat), deriv.chart.symbols)
    curve_fn = compile_exprs(exprs, [parameter])
    return lambda s: w_fn(*curve_fn(s))


# ---------------------------------------------------------------------------
# transport along integral curves


@dataclass
class CurveSpec:
    """A parametrized curve given by coordinate expressions of one parameter."""

    exprs: tuple
    interval: tuple[float, float]
    s0: float
    step: float = DEFAULT_STEP
    parameter: Symbol = Symbol("s")

    def __post_init__(self):
        lo, hi = self.interval
        if not (lo <= self.s0 <= hi):
            raise ValueError("s0 must lie inside the parameter interval")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def node_values(self) -> np.ndarray:
        lo, hi = self.interval
        k_min = -int(math.floor((self.s0 - lo) / self.step + 1e-9))
        k_max = int(math.floor((hi - self.s0) / self.step + 1e-9))
        return self.s0 + self.step * np.arange(k_min, k_max + 1)

    def point_at(self, s: float) -> np.ndarray:
        assignment = {self.parameter.name: s}
        return np.array([evaluate(e, assignment) for e in self.exprs])

    def velocity_exprs(self) -> tuple:
        return tuple(differentiate(e, self.parameter) for e in self.exprs)


@dataclass
class CurveFrame:
    """Transport result: node parameters, points, and frame matrices."""

    curve: CurveSpec
    field: VectorField
    s_values: np.ndarray
    points: np.ndarray
    matrices: np.ndarray
    directional_residuals: np.ndarray
    max_directional_residual: float

    @property
    def base_index(self) -> int:
        return int(np.argmin(np.abs(self.s_values - self.curve.s0)))


def transport_along_curve(
    deriv: Derivation,
    x: VectorField,
    curve: CurveSpec,
    b0,
    integral_curve_tol: float = 1e-6,
) -> CurveFrame:
    """Solve dA/ds = -W_X(curve(s)) A with A(s0) = b0 on the curve nodes.

    One classical RK4 step per node interval, forward and backward from the
    node nearest s0.
    """
    frame = deriv.frame
    chart = frame.chart
    n = frame.dimension
    b0 = np.asarray(b0, dtype=float)
    if b0.shape != (n, n) or abs(np.linalg.det(b0)) <= DEGENERACY_TOL:
        raise ValueError("initial matrix must be square and invertible")

    s_values = curve.node_values()
    points = compile_exprs(curve.exprs, [curve.parameter])(s_values).T
    lo, hi = np.array(chart.domain).T
    outside = ~np.all((lo <= points) & (points <= hi), axis=1)
    if outside.any():
        pt = points[int(np.argmax(outside))]
        raise CurveError(f"curve leaves the chart domain at {pt.tolist()}")

    # the curve must follow the field: dcurve/ds = (coordinate components of X)
    velocity = compile_exprs(curve.velocity_exprs(), [curve.parameter])(s_values).T
    b_nodes = _matrices(compile_exprs(list(frame.matrix.flat), chart.symbols)(*points.T), n)
    x_nodes = compile_exprs(x.components, chart.symbols)(*points.T).T
    v_field = np.einsum("kab,kb->ka", b_nodes, x_nodes)
    off = np.max(np.abs(velocity - v_field), axis=1) > integral_curve_tol
    if off.any():
        i = int(np.argmax(off))
        raise CurveError(
            f"curve is not an integral curve of the field at s={float(s_values[i])!r}: "
            f"velocity {velocity[i].tolist()} vs field {v_field[i].tolist()}"
        )

    m_fn = _curve_matrix_function(deriv, x, curve.exprs, curve.parameter)
    base = int(np.argmin(np.abs(s_values - curve.s0)))
    # segment i steps forward from s_i at and after the base node, backward from s_{i+1} before it
    ahead = np.arange(len(s_values) - 1) >= base
    starts = np.where(ahead, s_values[:-1], s_values[1:])[:, None]
    signed = np.where(ahead, 1.0, -1.0) * np.diff(s_values)
    props = _rk4_propagators(m_fn, n, starts, 1.0, signed, 1)
    matrices = _fill_lattice((len(s_values),), (base,), b0, [props], [props])

    degenerate = np.abs(np.linalg.det(matrices)) <= DEGENERACY_TOL
    if degenerate.any():
        s = float(s_values[int(np.argmax(degenerate))])
        raise ConstructionError(f"transported frame degenerates at s={s!r}")

    residuals = np.zeros(len(s_values))
    if len(s_values) > 2:
        defect = (matrices[2:] - matrices[:-2]) / (2.0 * curve.step) + (
            _matrices(m_fn(s_values[1:-1]), n) @ matrices[1:-1]
        )
        residuals[1:-1] = np.max(np.abs(defect), axis=(1, 2))
    return CurveFrame(
        curve=curve,
        field=x,
        s_values=s_values,
        points=points,
        matrices=matrices,
        directional_residuals=residuals,
        max_directional_residual=float(np.max(residuals)) if len(residuals) else 0.0,
    )


def curve_segment_residual(
    deriv: Derivation, x: VectorField, exprs, parameter: Symbol, s_values, matrices
) -> tuple[float, Optional[int]]:
    """Transformed components along a curve frame, in integrated form.

    Carries each node's matrix one RK4 step to the next node and measures
    A_next^{-1} (carried - A_next) per unit parameter.  Returns the worst
    value and the index of its segment (None when every value is zero).
    """
    n = deriv.frame.dimension
    lengths = np.diff(s_values)
    m_fn = _curve_matrix_function(deriv, x, exprs, parameter)
    props = _rk4_propagators(m_fn, n, s_values[:-1, None], 1.0, lengths, 1)
    values = _edge_defects(props @ matrices[:-1], matrices[1:]) / np.abs(lengths)
    if not len(values) or not values.max() > 0.0:
        return 0.0, None
    worst = int(np.argmax(values))
    return float(values[worst]), worst


# ---------------------------------------------------------------------------
# neighborhood construction on a grid


@dataclass
class GridSpec:
    """Lattice with per-axis node counts; spans the chart's domain box
    unless a tighter box is given."""

    counts: tuple[int, ...]
    base_index: Optional[tuple[int, ...]] = None
    box: Optional[tuple[tuple[float, float], ...]] = None

    def axes(self, chart: Chart) -> list[np.ndarray]:
        if len(self.counts) != chart.dimension:
            raise ValueError("one node count per axis is required")
        if any(c < 2 for c in self.counts):
            raise ValueError("each axis needs at least two nodes")
        box = chart.domain if self.box is None else self.box
        for (lo, hi), (clo, chi) in zip(box, chart.domain):
            if lo < clo - 1e-12 or hi > chi + 1e-12:
                raise ValueError("grid box must sit inside the chart domain")
        return [np.linspace(lo, hi, c) for (lo, hi), c in zip(box, self.counts)]

    def base(self) -> tuple[int, ...]:
        return self.base_index if self.base_index is not None else tuple(0 for _ in self.counts)


@dataclass
class GridFrame:
    """Numeric frame transform on a lattice, with verifier data attached."""

    chart: Chart
    axes: list
    base_index: tuple[int, ...]
    matrices: np.ndarray  # shape counts + (n, n)
    gamma_prime_residual: float
    path_audit_deviation: float
    deriv: Derivation = dataclass_field(repr=False)
    m_functions: list = dataclass_field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)

    def point_at(self, index: tuple[int, ...]) -> np.ndarray:
        return np.array([self.axes[a][i] for a, i in enumerate(index)])

    def matrix_at(self, index: tuple[int, ...]) -> np.ndarray:
        return self.matrices[tuple(index)]

    def partial_derivatives_at(self, index: tuple[int, ...], delta: float = 1e-5) -> np.ndarray:
        """d A / d x^alpha at a node by short refreshed transports.

        Re-integrates the construction ODE one step of +delta and one of
        -delta along each axis from the stored node matrix; centered
        difference of the two fresh values.  Returns an array [alpha, i, j].
        """
        pt = self.point_at(index)
        a = self.matrix_at(index)
        n = a.shape[0]
        starts = np.stack([pt, pt])
        out = np.empty((self.dimension, n, n))
        for alpha, m_fn in enumerate(self.m_functions):
            direction = np.eye(self.dimension)[alpha]
            plus, minus = _rk4_propagators(m_fn, n, starts, direction, [delta, -delta], 1) @ a
            out[alpha] = (plus - minus) / (2.0 * delta)
        return out


def direction_functions(deriv: Derivation) -> list:
    """M_alpha = B^k_alpha W_{E_k}, compiled over the chart coordinates, one
    per axis; the frame equations read dA/dx^alpha = -M_alpha A."""
    frame = deriv.frame
    n = frame.dimension
    mats = [w_of(deriv, frame.coordinate_vector(k)).entries for k in range(n)]
    if not frame.is_coordinate:
        inv = frame.inverse_exprs()  # inv[k, alpha] = B^k_alpha
        w_frames, mats = mats, []
        for alpha in range(n):
            acc = None
            for k in range(n):
                scaled = matops.map_exprs(lambda e, k=k: simplify(inv[k, alpha] * e), w_frames[k])
                acc = scaled if acc is None else matops.matadd(acc, scaled)
            mats.append(acc)
    return [compile_exprs(list(m.flat), frame.chart.symbols) for m in mats]


def edge_propagators(m_fn, axes: list, axis: int, h: float, backward: bool = False) -> np.ndarray:
    """Propagators of every lattice edge along one axis, at RK4 step h.

    ``m_fn`` is the axis's entry of :func:`direction_functions`.  The result
    has the lattice shape, one shorter along ``axis``, plus (n, n): entry
    [idx] carries A from node idx to idx + e_axis, or back from idx + e_axis
    to idx when ``backward``.
    """
    n = len(axes)
    ax = axes[axis]
    lo, hi = (ax[1:], ax[:-1]) if backward else (ax[:-1], ax[1:])
    mesh = np.meshgrid(*[lo if d == axis else a for d, a in enumerate(axes)], indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=-1)
    lengths = np.take(hi - lo, np.indices(mesh[0].shape)[axis]).ravel()
    props = _rk4_propagators(m_fn, n, starts, np.eye(n)[axis], lengths, _step_counts(lengths, h))
    return props.reshape(mesh[0].shape + (n, n))


def grid_edge_residual(axes, matrices, propagators) -> tuple[float, Optional[dict]]:
    """Transformed components on a grid frame, in integrated form.

    Carries each node's matrix across each lattice edge with that edge's
    propagator (``propagators[axis]`` from :func:`edge_propagators`) and
    measures A_next^{-1} (carried - A_next) per unit length.  Returns the
    worst value and its edge as {"node": [...], "axis": a}, or None when
    every value is zero.
    """
    n = len(axes)
    worst, worst_at = 0.0, None
    for axis, props in enumerate(propagators):
        head, tail = np.delete(matrices, -1, axis), np.delete(matrices, 0, axis)
        spacing = np.diff(axes[axis]).reshape([-1 if d == axis else 1 for d in range(n)])
        values = _edge_defects(props @ head, tail) / spacing
        k = int(np.argmax(values))
        if values.flat[k] > worst:
            worst = float(values.flat[k])
            worst_at = {"node": [int(i) for i in np.unravel_index(k, values.shape)], "axis": axis}
    return worst, worst_at


def _pointwise_linearity_gate(deriv: Derivation, seed: int, tol: float = 1e-9):
    """Vanishing fields must have vanishing components at every sample point."""
    chart = deriv.chart
    rng = np.random.default_rng(seed)
    for pt in chart.sample_points():
        for probe in _vanishing_fields(deriv.frame, chart.point(pt), rng, extra=1):
            w0 = w_of(deriv, probe).evaluate_at(pt)
            residual = float(np.max(np.abs(w0)))
            if residual > tol:
                raise NotLinearConnectionError(
                    "derivation components do not vanish with the field at "
                    f"{np.asarray(pt).tolist()} (residual {residual:.3e}); "
                    "a vanishing-component frame would force linear-connection structure",
                )


def _fill_lattice(shape, base, b0, forward, backward) -> np.ndarray:
    """Fill the lattice along axis-ordered polylines from the base node:
    along axis 0 first, then every filled node's fibre along axis 1, and so on."""
    values = np.full(shape + b0.shape, np.nan)
    values[base] = b0
    for axis in range(len(shape)):
        def at(i, axis=axis):
            return (slice(None),) * axis + (i,) + tuple(base[axis + 1 :])

        for i in range(base[axis], shape[axis] - 1):
            values[at(i + 1)] = forward[axis][at(i)] @ values[at(i)]
        for i in range(base[axis], 0, -1):
            values[at(i - 1)] = backward[axis][at(i - 1)] @ values[at(i)]
    return values


def _polyline_product(forward, backward, base, target, order, b0) -> np.ndarray:
    """Carry b0 from the base node to the target node along the given axis order."""
    a = b0
    current = list(base)
    for axis in order:
        while current[axis] < target[axis]:
            a = forward[axis][tuple(current)] @ a
            current[axis] += 1
        while current[axis] > target[axis]:
            current[axis] -= 1
            a = backward[axis][tuple(current)] @ a
    return a


def flat_frame_neighborhood(
    deriv: Derivation,
    grid: GridSpec,
    b0=None,
    h: float = DEFAULT_STEP,
    seed: int = 42,
    gamma_tol: float = GRID_TOL,
    audit_tol: float = GRID_TOL,
) -> GridFrame:
    """Frame with vanishing components on a whole grid; flat connections only.

    Integrates the frame equations along axis-ordered polylines from the
    base node, audits path independence by re-integrating seeded nodes in
    reverse axis order, and verifies the transformed components at every
    node in integrated (edge-transport) form.
    """
    chart = deriv.chart
    n = deriv.frame.dimension

    flat = is_flat(deriv)
    if not flat:
        frame = deriv.frame
        obstruction = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                report = integrability_residual(
                    deriv,
                    frame.coordinate_vector(i),
                    frame.coordinate_vector(j),
                    SymbolicTransform.identity(frame),
                )
                obstruction = max(obstruction, report.obstruction_norm)
        raise NotFlatError(
            f"derivation is not flat (max curvature entry {obstruction:.6g}); "
            "no neighborhood-wide vanishing-component frame exists",
            obstruction,
        )
    axes = grid.axes(chart)
    base_index = grid.base()
    base_point = np.array([axes[a][i] for a, i in enumerate(base_index)])
    verdict = linearity_probe(deriv, base_point, seed=seed)
    if not verdict.is_linear:
        raise NotLinearConnectionError(
            "derivation is not a linear connection at the base node "
            f"(probe residual {verdict.max_residual:.3e})",
            verdict,
        )
    _pointwise_linearity_gate(deriv, seed)

    b0 = np.eye(n) if b0 is None else np.asarray(b0, dtype=float)
    if abs(np.linalg.det(b0)) <= DEGENERACY_TOL:
        raise ValueError("base matrix must be invertible")

    m_fns = direction_functions(deriv)
    forward = [edge_propagators(m_fns[a], axes, a, h) for a in range(n)]
    backward = [
        edge_propagators(m_fns[a], axes, a, h, backward=True) if base_index[a] > 0 else None
        for a in range(n)
    ]
    shape = tuple(len(ax) for ax in axes)
    values = _fill_lattice(shape, base_index, b0, forward, backward)

    # path-independence audit: reverse axis order at seeded nodes
    rng = np.random.default_rng(seed)
    audit_dev = 0.0
    for _ in range(10):
        target = tuple(int(rng.integers(0, s)) for s in shape)
        alt = _polyline_product(forward, backward, base_index, target, reversed(range(n)), b0)
        audit_dev = max(audit_dev, float(np.max(np.abs(alt - values[target]))))
    if audit_dev > audit_tol:
        raise VerificationError(
            f"path-independence audit failed (deviation {audit_dev:.3e} > {audit_tol:.1e})"
        )

    # transformed components at every node, in integrated form: carry each
    # node across each lattice edge and compare with the stored endpoint.
    gamma_resid, _ = grid_edge_residual(axes, values, forward)
    if gamma_resid > gamma_tol:
        raise VerificationError(
            f"transformed components exceed tolerance on the grid "
            f"({gamma_resid:.3e} > {gamma_tol:.1e})"
        )

    degenerate = np.abs(np.linalg.det(values)) <= DEGENERACY_TOL
    if degenerate.any():
        idx = tuple(int(i) for i in np.argwhere(degenerate)[0])
        raise ConstructionError(f"frame degenerates at node {idx}")

    return GridFrame(
        chart=chart,
        axes=axes,
        base_index=base_index,
        matrices=values,
        gamma_prime_residual=gamma_resid,
        path_audit_deviation=audit_dev,
        deriv=deriv,
        m_functions=m_fns,
    )


# ---------------------------------------------------------------------------
# holonomicity and constancy checks


@dataclass
class HolonomicityVerdict:
    holonomic: bool
    max_commutator: float
    tol: float
    method: str
    torsion_match_residual: Optional[float] = None
    fd_max_commutator: Optional[float] = None
    fd_tol: Optional[float] = None


def _torsion_exprs(deriv: Derivation) -> np.ndarray:
    """T^i_{ab} from the frame-direction component matrices and anholonomy."""
    frame = deriv.frame
    n = frame.dimension
    w_frames = [w_of(deriv, frame.coordinate_vector(k)).entries for k in range(n)]
    C = frame.anholonomy()
    out = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for a in range(n):
            for b in range(n):
                acc: Expr = -(w_frames[b][i, a] - w_frames[a][i, b])
                if not C.is_zero:
                    acc = acc - C.entry(i, a, b)
                out[i, a, b] = simplify(acc)
    return out


def holonomicity_check(
    transform,
    at=None,
    tol: Optional[float] = None,
    deriv: Optional[Derivation] = None,
    refine_delta: float = 1e-5,
    seed: int = 42,
    method: str = "refined",
) -> HolonomicityVerdict:
    """Do the transformed frame vectors commute?

    Symbolic transforms are answered through the anholonomy of the
    composed frame (identity test over the chart sample cloud, or at a
    point).  Grid frames get two estimates: lattice-spacing centered
    differences (method "fd", tolerance scaled as 10 h^2 to match the
    truncation order) and short refreshed transports of the construction
    ODE (method "refined", the default, which is what tight tolerances
    need).  When the locus has vanishing components the commutator is also
    cross-checked against minus the torsion pairing.
    """
    if isinstance(transform, SymbolicTransform):
        sym_tol = 1e-10 if tol is None else tol
        if at is None:
            composed = transform.composed_frame()
            anhol = composed.anholonomy()
            from .geometry import vanishes_on_chart

            ok, worst = vanishes_on_chart(
                anhol.coefficients.flat, composed.chart, tol=sym_tol
            )
            result = HolonomicityVerdict(ok, worst, sym_tol, "symbolic")
        else:
            a_val, comm = _symbolic_commutator_values(transform.frame, transform.entries, at)
            inv_a = np.linalg.inv(a_val)
            n = transform.frame.dimension
            worst = 0.0
            for ip in range(n):
                for jp in range(ip + 1, n):
                    worst = max(worst, float(np.max(np.abs(inv_a @ comm[:, ip, jp]))))
            result = HolonomicityVerdict(worst <= sym_tol, worst, sym_tol, "symbolic")
        if deriv is not None and at is not None:
            result.torsion_match_residual = _torsion_commutator_residual_symbolic(
                deriv, transform, at
            )
        return result

    if isinstance(transform, GridFrame):
        return _holonomicity_grid(
            transform, tol=tol, refine_delta=refine_delta, seed=seed, method=method
        )
    raise TypeError("expected a SymbolicTransform or a GridFrame")


def _symbolic_commutator_values(frame: FrameField, entries: np.ndarray, at):
    """Source-frame components of [E_i', E_j'] for a symbolic transform.

    comm[k, i', j'] = A^a_{i'} E_a(A^k_{j'}) - A^a_{j'} E_a(A^k_{i'})
                    + C^k_{ab} A^a_{i'} A^b_{j'}, evaluated at the point.
    """
    n = frame.dimension
    assignment = frame.chart.assignment(at)
    a_val = matops.evaluate_array(entries, assignment)
    ea = np.empty((n, n, n))  # [a, k, j']
    for a in range(n):
        for k in range(n):
            for jp in range(n):
                ea[a, k, jp] = evaluate(frame.frame_derivative(a, entries[k, jp]), assignment)
    c_val = frame.anholonomy().evaluate_at(at)
    comm = np.empty((n, n, n))
    for ip in range(n):
        for jp in range(n):
            comm[:, ip, jp] = (
                np.einsum("a,ak->k", a_val[:, ip], ea[:, :, jp])
                - np.einsum("a,ak->k", a_val[:, jp], ea[:, :, ip])
                + np.einsum("kab,a,b->k", c_val, a_val[:, ip], a_val[:, jp])
            )
    return a_val, comm


def _torsion_commutator_residual_symbolic(deriv, transform: SymbolicTransform, at) -> float:
    """|[E_i', E_j'] + T(E_i', E_j')| at a vanishing-component point."""
    frame = deriv.frame
    n = frame.dimension
    assignment = frame.chart.assignment(at)
    t_val = matops.evaluate_array(_torsion_exprs(deriv), assignment)
    a_val, comm = _symbolic_commutator_values(frame, transform.entries, at)
    worst = 0.0
    for ip in range(n):
        for jp in range(n):
            tors = np.einsum("kab,a,b->k", t_val, a_val[:, ip], a_val[:, jp])
            worst = max(worst, float(np.max(np.abs(comm[:, ip, jp] + tors))))
    return worst


def _holonomicity_grid(
    grid_frame: GridFrame,
    tol: Optional[float],
    refine_delta: float,
    seed: int,
    method: str = "refined",
) -> HolonomicityVerdict:
    deriv = grid_frame.deriv
    frame = deriv.frame
    chart = grid_frame.chart
    n = frame.dimension
    axes = grid_frame.axes
    shape = tuple(len(ax) for ax in axes)
    spacing = max(grid_frame.spacings)
    fd_tol = 10.0 * spacing * spacing
    if method == "fd":
        requested = fd_tol if tol is None else tol
        if requested < spacing * spacing:
            raise GridTooCoarseError(
                f"grid too coarse for tolerance {requested:.1e}: centered "
                f"differences floor at about {spacing * spacing:.1e}"
            )

    frame_fn = compile_exprs(list(frame.matrix.flat), chart.symbols)
    frame_vals = _matrices(frame_fn(*np.meshgrid(*axes, indexing="ij")), n)
    composed = np.einsum("...ab,...bc->...ac", frame_vals, grid_frame.matrices)

    # centered differences at interior nodes, lattice spacing
    def interior(beta=None, part=slice(1, -1)):
        return tuple(part if d == beta else slice(1, -1) for d in range(n))

    db = np.stack(  # [..., beta, alpha, j'] of the composed frame
        [
            (composed[interior(b, slice(2, None))] - composed[interior(b, slice(None, -2))])
            / (axes[b][2:] - axes[b][:-2]).reshape([-1 if d == b else 1 for d in range(n)] + [1, 1])
            for b in range(n)
        ],
        axis=-3,
    )
    bc = composed[interior()]
    # [E_i', E_j'] in source-frame components, then in the composed frame
    half = np.einsum("...bi,...baj->...aij", bc, db)
    comm = np.einsum("...ka,...aij->...kij", np.linalg.inv(bc), half - np.swapaxes(half, -1, -2))
    fd_worst = float(np.max(np.abs(comm))) if comm.size else 0.0

    # sharper estimate: short refreshed transports at seeded nodes + base
    rng = np.random.default_rng(seed)
    sample_nodes = [grid_frame.base_index] + [
        tuple(int(rng.integers(0, s)) for s in shape) for _ in range(10)
    ]
    t_exprs = _torsion_exprs(deriv)
    anhol = frame.anholonomy()
    refined_worst = 0.0
    torsion_resid = 0.0
    for node in sample_nodes:
        pt = grid_frame.point_at(node)
        assignment = chart.assignment(pt)
        a_val = grid_frame.matrix_at(node)
        da = grid_frame.partial_derivatives_at(node, delta=refine_delta)  # [alpha, i, j]
        b_val = frame.evaluate_at(pt)
        c_val = anhol.evaluate_at(pt)
        t_val = matops.evaluate_array(t_exprs, assignment)
        # E_a(A)_{ij} = B^alpha_a dA_{ij}/dx^alpha
        ea_a = np.einsum("Aa,Aij->aij", b_val, da)
        for ip in range(n):
            for jp in range(ip + 1, n):
                comm = (
                    np.einsum("a,ak->k", a_val[:, ip], ea_a[:, :, jp])
                    - np.einsum("a,ak->k", a_val[:, jp], ea_a[:, :, ip])
                    + np.einsum("kab,a,b->k", c_val, a_val[:, ip], a_val[:, jp])
                )
                refined_worst = max(refined_worst, float(np.max(np.abs(comm))))
                tors = np.einsum("kab,a,b->k", t_val, a_val[:, ip], a_val[:, jp])
                torsion_resid = max(torsion_resid, float(np.max(np.abs(comm + tors))))

    if method == "fd":
        requested = fd_tol if tol is None else tol
        return HolonomicityVerdict(
            holonomic=fd_worst <= requested,
            max_commutator=fd_worst,
            tol=requested,
            method="fd",
            torsion_match_residual=torsion_resid,
            fd_max_commutator=fd_worst,
            fd_tol=fd_tol,
        )
    return HolonomicityVerdict(
        holonomic=refined_worst <= (tol if tol is not None else GRID_TOL),
        max_commutator=refined_worst,
        tol=tol if tol is not None else GRID_TOL,
        method="refined",
        torsion_match_residual=torsion_resid,
        fd_max_commutator=fd_worst,
        fd_tol=fd_tol,
    )


@dataclass
class ConstancyVerdict:
    constant: bool
    matrix: np.ndarray
    max_deviation: float
    tol: float
    derivative_residual: Optional[float] = None
    shell_deviation: Optional[float] = None


def constancy_check(first, second, tol: Optional[float] = None) -> ConstancyVerdict:
    """Relate two vanishing-component frames: A12 = A1^{-1} A2.

    Grid frames over the same lattice: A12 must be constant node to node.
    Point frames at the same anchor: the frame derivatives of A12 must
    vanish at the anchor (constancy holds only there; the deviation on a
    1e-2 shell is reported, not asserted).
    """
    if isinstance(first, GridFrame) and isinstance(second, GridFrame):
        tol = GRID_TOL if tol is None else tol
        if first.matrices.shape != second.matrices.shape:
            raise ValueError("grid frames must share a lattice")
        ref = np.linalg.solve(first.matrix_at(first.base_index), second.matrix_at(first.base_index))
        a12 = np.linalg.solve(first.matrices, second.matrices)
        worst = float(np.max(np.abs(a12 - ref)))
        return ConstancyVerdict(worst <= tol, ref, worst, tol)

    if isinstance(first, PointFrameResult) and isinstance(second, PointFrameResult):
        tol = 1e-8 if tol is None else tol
        if not np.allclose(first.anchor, second.anchor):
            raise ValueError("point frames must share an anchor")
        for result in (first, second):
            if result.residual > POINT_TOL:
                raise ValueError("point frames must be verified before comparison")
        frame = first.transform.frame
        x0 = first.anchor
        inv1 = first.transform.inverse_entries()
        a12 = matops.matmul(inv1, second.transform.entries)
        worst = 0.0
        n = frame.dimension
        for k in range(n):
            d_entries = matops.map_exprs(lambda e, k=k: frame.frame_derivative(k, e), a12)
            vals = matops.evaluate_array(d_entries, frame.chart.assignment(x0))
            worst = max(worst, float(np.max(np.abs(vals))))
        ref = matops.evaluate_array(a12, frame.chart.assignment(x0))
        shell = 0.0
        for alpha in range(n):
            for sign in (+1.0, -1.0):
                pt = x0.copy()
                pt[alpha] += sign * 1e-2
                vals = matops.evaluate_array(a12, frame.chart.assignment(pt))
                shell = max(shell, float(np.max(np.abs(vals - ref))))
        return ConstancyVerdict(
            worst <= tol, ref, worst, tol, derivative_residual=worst, shell_deviation=shell
        )
    raise TypeError("expected two GridFrames or two PointFrameResults")
