"""Constructions of frames in which derivation components vanish.

Three loci are supported, each with its own existence conditions
(constructions are never trusted, always re-checked through the
transformation law):

* a single point, for a fixed field (first-order seed construction) or for
  a derivation that is a linear connection at that point,
* an integral curve of a fixed field (matrix transport ODE),
* a whole neighborhood, for flat linear connections (grid integration of
  the frame equations, with a path-independence audit).

Every lattice fills forward from its node 0: a frame is unique up to a
constant matrix, so any other base node would give the same frame times a
constant.  A curve frame is the 1-D lattice of its node parameters, with
the one direction function M(s) = W_X(curve(s)); below its base node it is
the lattice of the parameters taken downward.  So curves and grids share
one transport, one fill, one edge verifier and one set of file checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Optional, Sequence

import numpy as np

from . import matops
from .expr import Const, DomainError, Expr, Sym, Symbol, compile_exprs, differentiate, simplify
from .geometry import (
    DEFAULT_SEED,
    DEGENERACY_TOL,
    IDENTITY_TOL,
    Chart,
    FrameField,
    VectorField,
    require_invertible,
)
from .derivation import (
    PROBE_TOL,
    Derivation,
    LinearityVerdict,
    SymbolicTransform,
    linearity_probe,
    vanishing_w,
    w_of,
)
from .curvature import ProbeForms, is_flat, sampled_verdict, torsion_tensor_at
from .rng import Generator

POINT_TOL = 1e-10
CERT_TOL = 1e-12
GRID_TOL = 1e-6
DEFAULT_STEP = 1e-3
CURVE_PARAMETER = Symbol("s")  # the one parameter of every curve's coordinate expressions
ZERO_FIELD_TOL = 1e-12
INTEGRAL_CURVE_TOL = 1e-6  # max |curve velocity - field| at a curve node
SHELL_DISTANCES = (1e-2, 1e-3)  # shell radii of shell_component_growth
# Transport budget of one grid or curve frame, checked before anything is
# allocated: grid nodes times the RK4 sub-steps of one edge along each axis
# (GridSpec.rk4_steps), or curve nodes (CurveSpec.node_count).
MAX_RK4_STEPS = 1_000_000
# Points where the RK4 kernel samples M per block of steps, over all its
# jobs; larger blocks of steps measured slower (cache traffic).
_M_CALL_POINTS = 1 << 12
# How far a grid may reach past the chart's domain box.
_BOX_SLACK = 1e-12


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


class VerificationError(ConstructionError):
    pass


# ---------------------------------------------------------------------------
# point constructions


@dataclass
class PointFrameSpec:
    """Seed data for the point constructions.

    ``a`` is the first-order seed array a[j, j', k] contracted against the
    field value at the anchor; ``a_factors = (a_vec, a_mat)`` is the
    rank-factorized form a[j, j', k] = a_vec[j'] * a_mat[j, k], the
    holonomic seed: :func:`frame_at_point_general` requires its certificate
    to be symmetric.  Its anchor matrix is rank one for n >= 2, so the
    result's ``anchor_determinant`` is reported but not required nonzero.
    ``quadratic`` optionally supplies b[j, j', alpha, beta] expressions
    multiplying second-order offsets; the default zero is the minimal
    representative of the solution family.  For the linear-connection
    construction ``b_matrix`` seeds A(x0) = B and ``b_quadratic`` plays the
    same second-order role.
    """

    anchor: Sequence
    a: Optional[np.ndarray] = None
    a_factors: Optional[tuple] = None
    quadratic: Optional[np.ndarray] = None
    b_matrix: Optional[np.ndarray] = None
    b_quadratic: Optional[np.ndarray] = None

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

    Whenever the spec carries a seed, the result also holds the
    second-derivative certificate cert[j, k', j'] = -A^k_{k'}(x0) a[l, j', k]
    W[j, l] and its largest asymmetry in (k', j').  Symmetry is the witness
    for realizing the frame as a coordinate (holonomic) basis at the anchor.
    A factorized seed is the holonomic construction: its certificate must be
    symmetric to within CERT_TOL, or VerificationError is raised.
    """
    frame = deriv.frame
    chart = frame.chart
    n = frame.dimension
    x0 = chart.point(spec.anchor)
    try:
        x_val, dx = (v[0] for v in matops.evaluate_arrays(
            [np.array(x.components, dtype=object), x.component_derivatives], chart.symbols,
            x0[None]))
        w0 = deriv.w_at(x0, x_val, dx)
    except DomainError:
        w0 = w_of(deriv, x).evaluate_at(x0)  # before X's components, which W may not read
        x_val = x.at(x0)

    if float(np.max(np.abs(x_val))) <= ZERO_FIELD_TOL:
        w_norm = float(np.max(np.abs(w0)))
        if w_norm > POINT_TOL:
            raise NoFrameExistsError(
                "the field vanishes at the anchor but its component matrix "
                f"does not (max |W| = {w_norm:.3e}); no frame can cancel it there"
            )
        result = PointFrameResult(
            SymbolicTransform.identity(frame), x0, w_norm, field=x, anchor_determinant=1.0
        )
        if spec.a is None and spec.a_factors is None:
            return result
        a = spec.seed_array(n)
    else:
        a = spec.seed_array(n)
        a0 = a @ x_val  # A(x0)[j, j'] = a[j, j', k] X^k(x0)
        det0 = float(np.linalg.det(a0))
        # a factorized seed is rank one by design, so only a full seed must be invertible here
        if spec.a_factors is None and abs(det0) <= DEGENERACY_TOL:
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
        result = PointFrameResult(transform, x0, residual, field=x, anchor_determinant=det0)

    # cert[j, k', j'] = - (a[k, k', m] X^m(x0)) (a[l, j', k]) W[j, l]
    cert = -np.einsum("kq,lpk,jl->jqp", a @ x_val, a, w0)
    asym = float(np.max(np.abs(cert - np.transpose(cert, (0, 2, 1)))))
    if spec.a_factors is not None and asym > CERT_TOL:
        raise VerificationError(f"factorized seed produced an asymmetric certificate ({asym:.3e})")
    result.certificate = cert
    result.certificate_symmetry_residual = asym
    return result


def anchor_residual(deriv: Derivation, x: VectorField, transform: SymbolicTransform, x0) -> float:
    """max |W'_X(x0)|: the components along X in the transformed frame at the anchor.

    A singular anchor matrix (the rank-one factorized seed) spans no
    transformed frame, so the uninverted form W(x0) A(x0) + X(A)(x0) = 0
    is checked instead.  Both read one evaluation of the law's terms.
    """
    points = deriv.chart.point(x0)[None]
    ea = deriv.frame.frame_derivatives(transform.entries)
    a, inner = _law_terms(deriv, transform, ea, points, x)
    if abs(float(np.linalg.det(a[0]))) > DEGENERACY_TOL:
        inner = np.linalg.solve(a[:, None], inner)
    return float(np.max(np.abs(inner)))


def frame_at_point_connection(
    deriv: Derivation,
    spec: PointFrameSpec,
    seed: int = DEFAULT_SEED,
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
    if residual > POINT_TOL:
        raise VerificationError(
            f"constructed frame fails its own check at the anchor (residual {residual:.3e})"
        )
    return PointFrameResult(
        transform, x0, residual, gammas=gammas, verdict=verdict,
        anchor_determinant=float(np.linalg.det(b)),
    )


def _law_terms(deriv: Derivation, transform: SymbolicTransform, ea, points, x=None):
    """A and W_X A + X(A) [P, X, i, j] at the points [P, n], X(A) = X^k E_k(A)
    from the E_k(A) ``ea``, for the field ``x`` or else each column field
    E_k' = A^i_k' E_i.  A, E_k(A), X^i and E_k(X^i) come from one tape, W_X
    from the template's, or after a DomainError from the fields' W trees."""
    symbols = deriv.chart.symbols
    own = [] if x is None else [np.array(x.components, dtype=object), x.component_derivatives]
    try:
        a, eav, *inputs = matops.evaluate_arrays([transform.entries, ea, *own], symbols, points)
        # X^i as [P, X, i] and E_k(X^i) as [P, X, k, i]
        xs, dxs = ((a.swapaxes(1, 2), eav.transpose(0, 3, 1, 2)) if x is None
                   else (inputs[0][:, None], inputs[1][:, None]))
        w = deriv.w_at(points[:, None], xs, dxs)
    except DomainError:
        fields = [x] if x is not None else [VectorField(deriv.frame, list(col))
                                             for col in transform.entries.T]
        a, eav, w, xs = matops.evaluate_arrays(
            [transform.entries, ea, np.stack([w_of(deriv, f).components for f in fields]),
             [f.components for f in fields]], symbols, points)
    return a, w @ a[:, None] + np.einsum("pxk,pkij->pxij", xs, eav)


def transformed_components(deriv: Derivation, transform: SymbolicTransform, points) -> np.ndarray:
    """The transformation law W' = A^{-1}(W_X A + X(A)) along every
    transformed frame direction E_k' = A^a_k' E_a, at the points [P, n], as
    [P, k', i, j].  A singular A raises DegenerateFrameError naming the point.
    E_k(A) is derived once; the column fields read their E_k(A^i_k') from it."""
    points = np.asarray(points, dtype=float)
    ea = deriv.frame.frame_derivatives(transform.entries)  # [k, i, j]
    a, inner = _law_terms(deriv, transform, ea, points)
    require_invertible(points, a)
    return np.linalg.solve(a[:, None], inner)


def transformed_components_max(deriv: Derivation, transform: SymbolicTransform, point) -> float:
    """max |Gamma'| at a point: components of the derivation along every
    transformed frame direction, computed through the transformation law."""
    point = deriv.chart.point(point)
    return float(np.max(np.abs(transformed_components(deriv, transform, point[None]))))


def shell_component_growth(
    deriv: Derivation,
    transform: SymbolicTransform,
    anchor,
) -> dict[float, float]:
    """max |Gamma'| on axis-aligned shells at the coordinate distances SHELL_DISTANCES."""
    chart = deriv.frame.chart
    x0 = chart.point(anchor)
    n = chart.dimension
    unit_steps = np.concatenate([np.eye(n), -np.eye(n)])  # +e_alpha, then -e_alpha
    steps = np.multiply.outer(np.asarray(SHELL_DISTANCES), unit_steps)
    values = transformed_components(deriv, transform, (x0 + steps).reshape(-1, n))
    worst = np.max(np.abs(values), axis=(1, 2, 3)).reshape(len(steps), 2 * n).max(axis=1)
    return {d: float(w) for d, w in zip(SHELL_DISTANCES, worst)}


# ---------------------------------------------------------------------------
# the transport kernel: dA/dt = -M(t) A is linear in A, so carrying any A
# along a segment is one matrix product with the segment's propagator P.


def _matrices(rows: np.ndarray, n: int) -> np.ndarray:
    """Compiled (n*n, ...) component rows as a (..., n, n) stack."""
    return np.moveaxis(rows, 0, -1).reshape(rows.shape[1:] + (n, n))


def _step_counts(lengths: np.ndarray, h: float) -> np.ndarray:
    """RK4 steps per segment: the fewest whose length is at most h."""
    return np.maximum(1, np.ceil(np.abs(lengths) / h - 1e-12)).astype(int)


def _require_budget(steps: float, what: str) -> None:
    if steps > MAX_RK4_STEPS:
        raise ValueError(f"{what} needs {steps:.4g} RK4 steps, over the budget of {MAX_RK4_STEPS}")


def _rk4_kernel(jobs) -> list:
    """Propagators of dP/dt = -M(start + t direction) P, P(0) = I, for the
    straight segments of several jobs, advanced in one RK4 time loop per
    chunk of rows.

    A job is ``(m_fn, starts, direction, lengths, steps)``: ``starts`` is
    (E, d) and ``direction`` broadcasts against it; segment e runs t from 0
    to lengths[e] in steps[e] classical RK4 steps (``steps`` may be one
    count for all).  ``m_fn`` is a compiled M taking the d point
    coordinates; the frame size n comes from its n*n rows.  Returns one
    (E, n, n) array per job, or (0, 0, 0) arrays when no job has a segment
    (M is never called).

    The rows of all jobs are sorted by step count, most first, and advanced
    in consecutive chunks of at most _M_CALL_POINTS // 2 rows, one chunk
    after another (:func:`_rk4_chunk`).  Rows are independent, so the
    chunks change no bit of any propagator; they bound the state and every
    M call, and only the result is allocated for all rows.
    """
    lengths = [np.asarray(job[3], dtype=float) for job in jobs]
    steps = [np.broadcast_to(job[4], ln.shape) for job, ln in zip(jobs, lengths)]
    bounds = np.cumsum([0] + [len(ln) for ln in lengths])
    counts = np.concatenate(steps)
    order = np.argsort(-counts, kind="stable")  # state row -> row of all jobs
    if not len(order):
        return [np.empty((0, 0, 0)) for _ in jobs]
    props = None
    for start in range(0, len(order), _M_CALL_POINTS // 2):
        rows = order[start : start + _M_CALL_POINTS // 2]
        p = _rk4_chunk(jobs, lengths, steps, bounds, rows, counts[rows])
        if props is None:
            props = np.empty((len(order),) + p.shape[1:])
        props[rows] = p  # back in the jobs' row order
        del p  # freed before the next chunk allocates
    return [props[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _rk4_chunk(jobs, lengths, steps, bounds, order, ends) -> np.ndarray:
    """The propagators of the rows ``order`` of all jobs (as indexed by
    ``bounds``), whose step counts ``ends`` run from most to fewest, in
    that order: one RK4 time loop of :func:`_rk4_kernel`.

    The rows still running at any step are a prefix of the state.  The
    state P, three stage arrays (k2 + k3 and then k4 share one) and one
    scratch array are allocated once and updated in place; each row runs
    the same numpy operations as a loop over its own step count alone, so
    every propagator is bit for bit the same.  The points where M is
    sampled do not depend on the state, so M is evaluated once per block of
    steps in which the running rows do not change, at the midpoints and
    endpoints of every step of the block, with one call per job: at most
    _M_CALL_POINTS points per block over all jobs, as the rows are at most
    half as many.
    """
    m_prev = None
    dt = np.empty(len(order))
    sampled = []  # per job with rows: its m_fn, and per row in state order its data and state row
    for (m_fn, starts, direction, _, _), ln, count, lo, hi in zip(
        jobs, lengths, steps, bounds[:-1], bounds[1:]
    ):
        at = np.flatnonzero((order >= lo) & (order < hi))
        if not len(at):
            continue
        local = order[at] - lo
        job_dt = (ln[local] / count[local])[:, None]
        dt[at] = job_dt[:, 0]
        origins = np.asarray(starts)[local]
        rows = m_fn(*origins.T)
        if m_prev is None:
            n = math.isqrt(len(rows))
            m_prev = np.empty((len(order), n, n))
        # -M throughout: (-M) @ P is -(M @ P) bit for bit
        m_prev[at] = -_matrices(rows, n)
        del rows  # not kept alive through the time loop
        # a slice where the job's rows are adjacent (the usual case): much faster to fill
        if at[-1] - at[0] == len(at) - 1:
            at = slice(at[0], at[-1] + 1)
        sampled.append((m_fn, origins, direction, job_dt, count[local], at))
    h = dt[:, None, None]
    half_h, sixth_h = 0.5 * h, h / 6.0
    first = 0
    while first < ends[0]:
        running = int(np.count_nonzero(ends > first))
        last = min(first + max(1, _M_CALL_POINTS // (2 * running)), int(ends[running - 1]))
        m = np.empty((2, last - first, running, n * n))
        t = np.arange(first, last)[:, None, None]
        for m_fn, origins, direction, job_dt, count, at in sampled:
            k = int(np.count_nonzero(count > first))
            if k:
                dt_k = job_dt[:k]
                t0 = t * dt_k
                points = origins[:k] + np.stack([t0 + 0.5 * dt_k, t0 + dt_k]) * direction
                rows = slice(at.start, at.start + k) if isinstance(at, slice) else at[:k]
                m[:, :, rows] = np.moveaxis(m_fn(*np.moveaxis(points, -1, 0)), 0, -1)
                del t0, points  # not kept alive through the time loop
        m = np.negative(m, out=m).reshape(m.shape[:3] + (n, n))
        if not first:  # after the first block's M calls, whose temporaries are freed by now
            p, k1, k23, k34, scratch = (np.empty_like(m_prev) for _ in range(5))
            p[:] = np.eye(n)
        pk, a1, a23, a34, s = (x[:running] for x in (p, k1, k23, k34, scratch))
        hh, hf, h6 = h[:running], half_h[:running], sixth_h[:running]
        mp = m_prev[:running]
        for m_mid, m_next in zip(m[0], m[1]):
            # k1 = M P, k2 = M_mid (P + h/2 k1), k3 = M_mid (P + h/2 k2),
            # k4 = M_next (P + h k3), P += h/6 (k1 + 2 (k2 + k3) + k4)
            np.matmul(mp, pk, out=a1)
            np.add(pk, np.multiply(hf, a1, out=s), out=s)
            np.matmul(m_mid, s, out=a23)
            np.add(pk, np.multiply(hf, a23, out=s), out=s)
            np.matmul(m_mid, s, out=a34)
            np.add(pk, np.multiply(hh, a34, out=s), out=s)
            np.add(a23, a34, out=a23)
            np.matmul(m_next, s, out=a34)
            np.multiply(2.0, a23, out=s)
            np.add(np.add(a1, s, out=s), a34, out=s)
            np.add(pk, np.multiply(h6, s, out=s), out=pk)
            mp = m_next
        m_prev[:running] = mp
        first = last
    return p


def curve_direction_function(deriv: Derivation, x: VectorField, exprs):
    """The direction function of a curve frame's 1-D lattice: M(s) =
    W_X(curve(s)), compiled over the curve parameter."""
    w_fn = compile_exprs(list(w_of(deriv, x).components.flat), deriv.chart.symbols)
    curve_fn = compile_exprs(exprs, [CURVE_PARAMETER])
    return lambda s: w_fn(*curve_fn(s))


def curve_points(chart: Chart, exprs, s_values) -> np.ndarray:
    """The curve's points at the parameters ``s_values``, one row each.
    Raises CurveError when one leaves the chart's domain box."""
    points = compile_exprs(exprs, [CURVE_PARAMETER])(s_values).T
    lo, hi = np.array(chart.domain).T
    outside = ~np.all((lo <= points) & (points <= hi), axis=1)
    if outside.any():
        i = int(np.argmax(outside))
        raise CurveError(
            f"curve leaves the chart domain at s={float(s_values[i])!r}: {points[i].tolist()}"
        )
    return points


# ---------------------------------------------------------------------------
# transport along integral curves


@dataclass
class CurveSpec:
    """A parametrized curve given by coordinate expressions of
    ``CURVE_PARAMETER``, the symbol s."""

    exprs: tuple
    interval: tuple[float, float]
    s0: float
    step: float = DEFAULT_STEP

    def __post_init__(self):
        lo, hi = self.interval
        if not (lo <= self.s0 <= hi):
            raise ValueError("s0 must lie inside the parameter interval")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step!r}")

    def _steps_each_side(self) -> tuple[float, float]:
        lo, hi = self.interval
        return (self.s0 - lo) / self.step + 1e-9, (hi - self.s0) / self.step + 1e-9

    def node_count(self) -> float:
        """How many values :meth:`node_values` holds, counted without
        building them (inf when too many to count)."""
        below, above = self._steps_each_side()
        if not max(below, above) < 2.0**53:
            return math.inf
        return float(math.floor(below) + math.floor(above) + 1)

    def node_values(self) -> np.ndarray:
        """s0 + k step for every node in the interval; the end nodes, which
        rounding can put just outside it, are clipped to it."""
        below, above = self._steps_each_side()
        values = self.s0 + self.step * np.arange(-math.floor(below), math.floor(above) + 1)
        return np.clip(values, *self.interval, out=values)


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


def transport_along_curve(
    deriv: Derivation,
    x: VectorField,
    curve: CurveSpec,
    b0,
) -> CurveFrame:
    """Solve dA/ds = -W_X(curve(s)) A with A(s0) = b0 on the curve nodes.

    The nodes are two 1-D lattices that start at the node nearest s0: its
    parameters up to the last node, and down to the first.  Each fills
    forward from b0, in one classical RK4 step per node interval.
    """
    frame = deriv.frame
    chart = frame.chart
    n = frame.dimension
    b0 = _base_matrix(b0, n)
    _require_budget(curve.node_count(), f"a curve at step {curve.step!r}")
    s_values = curve.node_values()
    points = curve_points(chart, curve.exprs, s_values)

    # the curve must follow the field: dcurve/ds = (coordinate components of X)
    velocity = compile_exprs([differentiate(e, CURVE_PARAMETER) for e in curve.exprs],
                             [CURVE_PARAMETER])(s_values).T
    b_nodes, x_nodes = matops.evaluate_arrays([frame.matrix, x.components], chart.symbols, points)
    v_field = np.einsum("kab,kb->ka", b_nodes, x_nodes)
    off = np.max(np.abs(velocity - v_field), axis=1) > INTEGRAL_CURVE_TOL
    if off.any():
        i = int(np.argmax(off))
        raise CurveError(
            f"curve is not an integral curve of the field at s={float(s_values[i])!r}: "
            f"velocity {velocity[i].tolist()} vs field {v_field[i].tolist()}"
        )
    del velocity, b_nodes, x_nodes, v_field  # they die before the transport allocates

    m_fn = curve_direction_function(deriv, x, curve.exprs)
    base = int(np.argmin(np.abs(s_values - curve.s0)))
    up, down = (_fill_lattice((len(ax),), b0, lattice_propagators([m_fn], [ax], None))
                for ax in (s_values[base:], s_values[base::-1]))
    matrices = np.concatenate([down[:0:-1], up])

    degenerate = np.abs(np.linalg.det(matrices)) <= DEGENERACY_TOL
    if degenerate.any():
        s = float(s_values[int(np.argmax(degenerate))])
        raise ConstructionError(f"transported frame degenerates at s={s!r}")

    # the centred-difference defect at each interior node, in blocks of _M_CALL_POINTS nodes
    residuals = np.zeros(len(s_values))
    for lo in range(1, len(s_values) - 1, _M_CALL_POINTS):
        hi = min(lo + _M_CALL_POINTS, len(s_values) - 1)
        defect = (matrices[lo + 1 : hi + 1] - matrices[lo - 1 : hi - 1]) / (2.0 * curve.step) + (
            _matrices(m_fn(s_values[lo:hi]), n) @ matrices[lo:hi]
        )
        residuals[lo:hi] = np.max(np.abs(defect), axis=(1, 2))
    return CurveFrame(
        curve=curve,
        field=x,
        s_values=s_values,
        points=points,
        matrices=matrices,
        directional_residuals=residuals,
        max_directional_residual=float(np.max(residuals)) if len(residuals) else 0.0,
    )


# ---------------------------------------------------------------------------
# neighborhood construction on a grid


@dataclass
class GridSpec:
    """Lattice with per-axis node counts; spans the chart's domain box
    unless a tighter box is given."""

    counts: tuple[int, ...]
    box: Optional[tuple[tuple[float, float], ...]] = None

    def _box(self, chart: Chart) -> tuple[tuple[float, float], ...]:
        if len(self.counts) != chart.dimension:
            raise ValueError("one node count per axis is required")
        if any(c < 2 for c in self.counts):
            raise ValueError("each axis needs at least two nodes")
        box = chart.domain if self.box is None else self.box
        for (lo, hi), (clo, chi) in zip(box, chart.domain):
            if lo < clo - _BOX_SLACK or hi > chi + _BOX_SLACK:
                raise ValueError("grid box must sit inside the chart domain")
        return box

    def axes(self, chart: Chart) -> list[np.ndarray]:
        return [np.linspace(lo, hi, c) for (lo, hi), c in zip(self._box(chart), self.counts)]

    def rk4_steps(self, chart: Chart, h: float) -> float:
        """Nodes times the RK4 sub-steps at step ``h`` of one edge along each
        axis, counted without building the lattice (inf when too many to
        count): the work of the forward transport."""
        box = self._box(chart)
        nodes = math.prod(self.counts)
        per_edge = [abs(hi - lo) / (c - 1) / h - 1e-12 for (lo, hi), c in zip(box, self.counts)]
        if not max(nodes, *per_edge) < 2.0**53:
            return math.inf
        return float(nodes * sum(max(1, math.ceil(e)) for e in per_edge))


@dataclass
class GridFrame:
    """Numeric frame transform on a lattice, with verifier data attached;
    its base node is node 0."""

    chart: Chart
    axes: list
    matrices: np.ndarray  # shape counts + (n, n)
    gamma_prime_residual: float
    path_audit_deviation: float
    deriv: Derivation = dataclass_field(repr=False)
    m_functions: list = dataclass_field(repr=False)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)


def direction_functions(deriv: Derivation) -> list:
    """M_alpha = B^k_alpha W_{E_k}, compiled over the chart coordinates, one
    per axis; the frame equations read dA/dx^alpha = -M_alpha A."""
    frame = deriv.frame
    n = frame.dimension
    mats = [w_of(deriv, frame.coordinate_vector(k)).components for k in range(n)]
    if not frame.is_coordinate:
        inv = frame.inverse_exprs()  # inv[k, alpha] = B^k_alpha
        mats = [simplify(sum(inv[k, alpha] * mats[k] for k in range(n))) for alpha in range(n)]
    return [compile_exprs(list(m.flat), frame.chart.symbols) for m in mats]


def check_lattice_axes(axes: list, h: Optional[float], box=None) -> None:
    """Refuse the node axes of a frame file before any edge is transported,
    at RK4 step ``h`` or, when ``h`` is None, in one step per edge.

    Each axis must be strictly increasing and finite, and re-transporting
    every edge must fit MAX_RK4_STEPS.  With ``box`` (one [lo, hi] per axis)
    the axes are a grid's, and each must also have two or more nodes inside
    its interval (with GridSpec's slack); without, the one axis holds a
    curve's parameters.  Raises ValueError otherwise.
    """
    grid = box is not None
    for a, ax in enumerate(axes):
        name = f"grid axis {a}" if grid else "curve parameters"
        if grid and len(ax) < 2:
            raise ValueError(f"{name} needs at least two nodes")
        if not np.all(ax[1:] > ax[:-1]):
            raise ValueError(f"{name} must be strictly increasing")
        if grid and not np.all((ax >= box[a][0] - _BOX_SLACK) & (ax <= box[a][1] + _BOX_SLACK)):
            raise ValueError(f"{name} leaves the chart domain [{box[a][0]!r}, {box[a][1]!r}]")
        if not np.isfinite(ax).all():
            raise ValueError(f"{name} must be finite")
    nodes = math.prod(len(ax) for ax in axes)
    steps = 0
    for ax in axes:
        if h is None:
            line = len(ax) - 1
        elif (float(ax[-1]) - float(ax[0])) / h <= MAX_RK4_STEPS:
            line = int(_step_counts(np.diff(ax), h).sum())
        else:  # a line's steps sum to at least span / h: over budget on that alone
            line = math.inf
        steps += nodes // len(ax) * line
    _require_budget(steps, f"re-transporting the {'grid edges' if grid else 'curve segments'}")


def lattice_propagators(m_fns: list, axes: list, h: Optional[float]) -> list:
    """Propagators of the lattice edges in one kernel call, at RK4 step
    ``h`` or, when ``h`` is None, in one step per edge.

    ``m_fns`` holds one compiled M per axis (:func:`direction_functions`, or
    :func:`curve_direction_function` for a curve).  Returns one array per
    axis a, of the lattice shape, one shorter along a, plus (n, n): entry
    [idx] carries A from node idx to idx + e_a, all that a fill from node 0
    reads.  An axis may run downward, as a curve's parameters below its
    base node do; its edges then have negative lengths.
    """
    jobs, shapes = [], []
    for a, ax in enumerate(axes):
        mesh = np.meshgrid(*[ax[:-1] if d == a else other for d, other in enumerate(axes)],
                           indexing="ij")
        lengths = np.take(np.diff(ax), np.indices(mesh[0].shape)[a]).ravel()
        starts = np.stack([m.ravel() for m in mesh], axis=-1)
        steps = 1 if h is None else _step_counts(lengths, h)
        jobs.append((m_fns[a], starts, np.eye(len(axes))[a], lengths, steps))
        shapes.append(mesh[0].shape)
    return [p.reshape(s + p.shape[1:]) for p, s in zip(_rk4_kernel(jobs), shapes)]


def grid_edge_residual(axes, matrices, propagators) -> tuple[float, Optional[dict]]:
    """Transformed components on a lattice frame, in integrated form.

    Carries each node's matrix across each lattice edge with that edge's
    propagator (``propagators[axis]``, as :func:`lattice_propagators`
    returns them) and measures A_next^{-1} (carried - A_next) per unit
    length.  Returns the worst value and its edge as {"node": [...],
    "axis": a}, or None when every value is zero (or there is no edge).
    The edges are measured in blocks of lattice rows along axis 0, at most
    _M_CALL_POINTS // 2 edges each, as the kernel's chunks; each edge's value
    is the same, bit for bit.
    """
    worst, worst_at = 0.0, None
    for axis, (ax, props) in enumerate(zip(axes, propagators)):
        if len(ax) < 2:
            continue
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        values = np.empty(props.shape[:-2])
        rows = max(1, (_M_CALL_POINTS // 2) // values[0].size)
        for lo in range(0, len(values), rows):
            block = matrices[lo : lo + rows + (axis == 0)]  # axis 0 reaches one row further
            a_next = block[tail]
            values[lo : lo + rows] = np.max(
                np.abs(np.linalg.solve(a_next, props[lo : lo + rows] @ block[head] - a_next)),
                axis=(-2, -1))
        values /= np.diff(ax).reshape([-1 if d == axis else 1 for d in range(len(axes))])
        k = int(np.argmax(values))
        if values.flat[k] > worst:
            worst = float(values.flat[k])
            worst_at = {"node": [int(i) for i in np.unravel_index(k, values.shape)], "axis": axis}
    return worst, worst_at


def _pointwise_linearity_gate(deriv: Derivation, seed: int):
    """Vanishing fields must have vanishing components at every sample point.

    At each point p of the cloud, the fields of :func:`vanishing_fields`
    anchored at p, with one seeded mix, are evaluated there in one run
    (:func:`vanishing_w`).
    """
    chart = deriv.chart
    n = chart.dimension
    points = chart.sample_points(seed=seed)
    # one mix per point, drawn point by point from the seeded stream
    mixes = np.round(Generator(seed).uniform(-1.0, 1.0, size=(len(points), 1, n, n)), 6)
    residuals = np.max(np.abs(vanishing_w(deriv, points, mixes)), axis=(-2, -1))  # [point, probe]
    failing = np.argwhere(residuals > PROBE_TOL)
    if failing.size:
        row, probe = failing[0]
        raise NotLinearConnectionError(
            "derivation components do not vanish with the field at "
            f"{points[row].tolist()} (residual {residuals[row, probe]:.3e}); "
            "a vanishing-component frame would force linear-connection structure",
        )


def _fill_lattice(shape, b0, forward) -> np.ndarray:
    """Fill the lattice along axis-ordered polylines from node 0: along
    axis 0 first, then every filled node's fibre along axis 1, and so on."""
    values = np.full(shape + b0.shape, np.nan)
    values[(0,) * len(shape)] = b0
    for axis in range(len(shape)):
        # the nodes filled so far and their edges along axis, position along axis first
        line = (slice(None),) * (axis + 1) + (0,) * (len(shape) - axis - 1)
        v = np.moveaxis(values[line], axis, 0)
        f = np.moveaxis(forward[axis][line], axis, 0)
        for i in range(shape[axis] - 1):
            np.matmul(f[i], v[i], out=v[i + 1])
    return values


def _fill_lattice_reversed(shape, b0, forward) -> np.ndarray:
    """:func:`_fill_lattice` in reverse axis order, the last axis first: the
    same fill on the axis-reversed lattice, transposed back."""
    flip = tuple(reversed(range(len(shape)))) + (len(shape), len(shape) + 1)
    forward = [p.transpose(flip) for p in forward[::-1]]
    return _fill_lattice(shape[::-1], b0, forward).transpose(flip)


def _base_matrix(b0, n: int) -> np.ndarray:
    """The matrix a frame starts from, as floats: ``b0``, or the identity
    when None.  Raises ValueError unless it is a finite, invertible n x n
    matrix."""
    b0 = np.eye(n) if b0 is None else np.asarray(b0, dtype=float)
    if b0.shape != (n, n) or not np.isfinite(b0).all() or abs(np.linalg.det(b0)) <= DEGENERACY_TOL:
        raise ValueError(f"base matrix must be a finite, invertible {n}x{n} matrix")
    return b0


def flat_frame_neighborhood(
    deriv: Derivation,
    grid: GridSpec,
    b0=None,
    h: float = DEFAULT_STEP,
    seed: int = DEFAULT_SEED,
) -> GridFrame:
    """Frame with vanishing components on a whole grid; flat connections only.

    Integrates the frame equations along axis-ordered polylines from node
    0, where the frame is ``b0`` (default: the identity).  Path
    independence is audited with the same fill in reverse axis order, from
    the same edge propagators, compared at every node.
    The transformed components are verified at every node in integrated
    (edge-transport) form.  ``seed`` drives the flatness test, the
    obstruction reported when it fails, the linearity probe, and the
    pointwise gate's cloud and mixes.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step must be finite and positive, got {h!r}")
    chart = deriv.chart
    n = deriv.frame.dimension
    counts = "x".join(str(c) for c in grid.counts)
    _require_budget(grid.rk4_steps(chart, h), f"a {counts} grid at step {h!r}")

    flat = is_flat(deriv, seed)
    if not flat:
        # |R(E_i, E_j)| over the cloud: a connection's tensor, else the frame pairs
        frame_pairs = ProbeForms(deriv, seed, seeded=False).at(chart.sample_points(seed=seed))[0]
        obstruction = sampled_verdict(frame_pairs).max_residual
        raise NotFlatError(
            f"derivation is not flat (max curvature entry {obstruction:.6g}); "
            "no neighborhood-wide vanishing-component frame exists",
            obstruction,
        )
    axes = grid.axes(chart)
    base_point = np.array([ax[0] for ax in axes])
    verdict = linearity_probe(deriv, base_point, seed=seed)
    if not verdict.is_linear:
        raise NotLinearConnectionError(
            "derivation is not a linear connection at the base node "
            f"(probe residual {verdict.max_residual:.3e})",
            verdict,
        )
    _pointwise_linearity_gate(deriv, seed)

    b0 = _base_matrix(b0, n)
    m_fns = direction_functions(deriv)
    forward = lattice_propagators(m_fns, axes, h)
    shape = tuple(len(ax) for ax in axes)
    values = _fill_lattice(shape, b0, forward)

    # path-independence audit: the same fill in reverse axis order, at every node
    alt = _fill_lattice_reversed(shape, b0, forward)
    audit_dev = float(np.max(np.abs(alt - values)))
    if audit_dev > GRID_TOL:
        raise VerificationError(
            f"path-independence audit failed (deviation {audit_dev:.3e} > {GRID_TOL:.1e})"
        )

    # transformed components at every node, in integrated form: carry each
    # node across each lattice edge and compare with the stored endpoint.
    gamma_resid, _ = grid_edge_residual(axes, values, forward)
    if gamma_resid > GRID_TOL:
        raise VerificationError(
            f"transformed components exceed tolerance on the grid "
            f"({gamma_resid:.3e} > {GRID_TOL:.1e})"
        )

    degenerate = np.abs(np.linalg.det(values)) <= DEGENERACY_TOL
    if degenerate.any():
        idx = tuple(int(i) for i in np.argwhere(degenerate)[0])
        raise ConstructionError(f"frame degenerates at node {idx}")

    return GridFrame(
        chart=chart,
        axes=axes,
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


def holonomicity_check(
    transform,
    at=None,
    tol: Optional[float] = None,
    deriv: Optional[Derivation] = None,
) -> HolonomicityVerdict:
    """Do the transformed frame vectors E_i' = A^a_{i'} E_a commute?

    Every estimate is one formula on a point set, ``_commutators``, read in
    the transformed frame: A^{-1} [E_i', E_j'].  Only the source of E_a(A)
    differs.  A symbolic transform differentiates its entries and evaluates
    them on the chart's sample cloud, or at ``at``.  A grid frame is decided
    by the "refined" estimate, dA/dx^alpha = -M_alpha A from the
    construction's equations at every node.  Centered differences of the
    stored matrices at the interior nodes, the only estimate that checks
    them, are reported beside it as ``fd_max_commutator`` with the tolerance
    ``fd_tol`` = 10 h^2 that matches their truncation order.  Whenever a
    derivation is given (a grid frame carries its own), the commutator is
    cross-checked against minus the torsion pairing, which it equals where
    the components vanish.  A singular A raises DegenerateFrameError.
    """
    if isinstance(transform, SymbolicTransform):
        frame = transform.frame
        chart = frame.chart
        points = chart.sample_points() if at is None else chart.point(at)[None]
        arrays = [transform.entries, frame.frame_derivatives(transform.entries),
                  frame.anholonomy().components]
        torsion = () if deriv is None else (torsion_tensor_at(deriv, points),)
        worst, twisted = _commutator_maxima(
            points, *matops.evaluate_arrays(arrays, chart.symbols, points), *torsion)
        sym_tol = IDENTITY_TOL if tol is None else tol
        return HolonomicityVerdict(worst <= sym_tol, worst, sym_tol, "symbolic",
                                   torsion_match_residual=twisted)

    if isinstance(transform, GridFrame):
        return _holonomicity_grid(transform, tol=tol)
    raise TypeError("expected a SymbolicTransform or a GridFrame")


def _pairing(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """t^k_{ab} A^a_{i'} A^b_{j'} as [..., k, i', j']."""
    return np.einsum("...kab,...ai,...bj->...kij", t, a, a)


def _commutators(a: np.ndarray, ea: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Source-frame components of [E_i', E_j'] as [..., k, i', j']:
    A^a_{i'} E_a(A^k_{j'}) - A^a_{j'} E_a(A^k_{i'}) + C^k_{ab} A^a_{i'} A^b_{j'},
    given ea[..., a, k, j'] = E_a(A^k_{j'}) and the anholonomy C of the source frame."""
    half = np.einsum("...ai,...akj->...kij", a, ea)
    return half - np.swapaxes(half, -1, -2) + _pairing(c, a)


def _commutator_maxima(points, a, ea, c, t=None) -> tuple[float, Optional[float]]:
    """Over the points [..., n] of A, E_a(A), C (and T): the largest i' < j'
    component of A^{-1} [E_i', E_j'], and the largest |[E_i', E_j'] +
    T(E_i', E_j')| (None without T)."""
    require_invertible(points, a)
    comm = _commutators(a, ea, c)
    upper = np.triu_indices(a.shape[-1], 1)
    worst = float(np.max(np.abs(np.linalg.solve(a, comm[..., upper[0], upper[1]])), initial=0.0))
    if t is None:
        return worst, None
    twisted = (comm + _pairing(t, a))[..., upper[0], upper[1]]
    return worst, float(np.max(np.abs(twisted), initial=0.0))


def _holonomicity_grid(grid_frame: GridFrame, tol: Optional[float]) -> HolonomicityVerdict:
    deriv = grid_frame.deriv
    frame = deriv.frame
    n = frame.dimension
    a = grid_frame.matrices
    mesh = np.meshgrid(*grid_frame.axes, indexing="ij")
    nodes = np.stack(mesh, axis=-1)
    flat_nodes = nodes.reshape(-1, n)
    b, c, t = (v.reshape(a.shape[:-2] + v.shape[1:]) for v in matops.evaluate_arrays(
        [frame.matrix, frame.anholonomy().components], frame.chart.symbols, flat_nodes)
        + [torsion_tensor_at(deriv, flat_nodes)])

    def maxima(part, da, *torsion):
        ea = np.einsum("...Aa,...Aij->...aij", b[part], da)  # E_a(A) = B^alpha_a dA/dx^alpha
        return _commutator_maxima(nodes[part], a[part], ea, c[part], *torsion)

    # refined: the frame equations dA/dx^alpha = -M_alpha A at every node
    da = np.stack([-_matrices(m_fn(*mesh), n) @ a for m_fn in grid_frame.m_functions], axis=-3)
    refined, torsion_resid = maxima(..., da, t)
    # centered differences of the stored matrices at the interior nodes
    inner = (slice(1, -1),) * n
    fd_da = np.stack([np.gradient(a, ax, axis=alpha) for alpha, ax in enumerate(grid_frame.axes)],
                     axis=-3)
    fd_worst, _ = maxima(inner, fd_da[inner])

    requested = GRID_TOL if tol is None else tol
    spacing = max(grid_frame.spacings)
    return HolonomicityVerdict(
        holonomic=refined <= requested,
        max_commutator=refined,
        tol=requested,
        method="refined",
        torsion_match_residual=torsion_resid,
        fd_max_commutator=fd_worst,
        fd_tol=10.0 * spacing * spacing,
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
        base = (0,) * len(first.axes)
        ref = np.linalg.solve(first.matrices[base], second.matrices[base])
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
        n = frame.dimension
        points = x0 + np.concatenate([np.zeros((1, n)), 1e-2 * np.eye(n), -1e-2 * np.eye(n)])
        a1, a2 = first.transform.entries, second.transform.entries
        a1, a2, ea1, ea2 = matops.evaluate_arrays(
            [a1, a2, frame.frame_derivatives(a1), frame.frame_derivatives(a2)],
            frame.chart.symbols, points)
        require_invertible(points, a1)
        a12 = np.linalg.solve(a1, a2)
        ref = a12[0]
        # E_k(A12) = A1^{-1} (E_k(A2) - E_k(A1) A12) at the anchor
        derivatives = np.linalg.solve(a1[:1], ea2[0] - ea1[0] @ ref)
        worst = float(np.max(np.abs(derivatives)))
        shell = float(np.max(np.abs(a12[1:] - ref)))
        return ConstancyVerdict(
            worst <= tol, ref, worst, tol, derivative_residual=worst, shell_deviation=shell
        )
    raise TypeError("expected two GridFrames or two PointFrameResults")
