"""A reference evaluator for the differential tests of the compiled tape.

``evaluate_tree`` walks an expression recursively over Python floats and the
``math`` module, one node at a time.  It shares no code with
``expr.compile_exprs``, the library's one numeric evaluator, so a
disagreement between the two points to a fault in one of them.

Its domain policy differs from the tape's in one way: an intermediate
overflow of ``+ - * /`` gives inf, which a later operation may map back to a
finite number (``1/(exp(r)*exp(r))`` is 0.0 at r = 400), where the tape
raises ``DomainError``.  Only a non-finite result, a pole, or a ``math``
failure raises here.

The module also keeps the symbolic references that the library's numeric
or closed-form routes are compared against:

* the fold walk in its former shape, ``fold_oracle`` and
  ``rewrite_oracle``: every child folded, then one chain of rules at the
  node, so a zero factor's other factor is folded too.  ``expr.simplify``
  and ``expr.substitute`` (one rule per node kind, zero factors cut short)
  must give the same trees.

* the push-forward of components through a frame change,
  ``transform_w`` (W' = A^{-1}(W A + X(A)) as expressions in the composed
  frame B A), ``transform_connection``, ``change_vector_frame`` and
  ``compose_frame``.  They take the adjugate inverse of A, so they serve
  n <= 4; the numeric law ``frames.transformed_components`` has no such
  limit.
* the sampled identity test of expressions, ``vanishes_on_chart``, and
  the symbolic curvature and torsion forms, ``curvature_matrix``,
  ``curvature_tensor``, ``torsion_vector`` and ``torsion_tensor`` (with
  ``w_derivatives``, E_k(W_X)): folded expression trees, against
  which the library's numeric forms at points (``curvature.ProbeForms``,
  jets on the compiled tape) are checked.
* the operator oracles ``curvature_operator_oracle`` and
  ``torsion_operator_oracle``, which apply D_X D_Y - D_Y D_X - D_[X,Y] and
  D_X Y - D_Y X - [X,Y] through the derivation action, against which the
  closed curvature and torsion forms are checked.
* the linearity probe over concrete fields, ``linearity_probe_oracle``:
  one W build and one evaluation per seeded probe field, against which
  ``derivation.linearity_probe`` (one run of the template tape) is
  checked bit for bit.
* the lattice fill node by node, ``polyline_product``: a matrix carried
  from node 0 to one target node along the given axis order, one edge at a
  time, against which ``frames._fill_lattice`` and the path
  audit's reversed fill are checked bit for bit.
* the transport compatibility identity, ``integrability_residual``:
  [X,Y](A) + (R(X,Y) + W_{[X,Y]}) A at sample points, which vanishes for a
  transform of vanishing components and measures the curvature
  obstruction otherwise.

and three readers of library objects that only tests need: ``to_vector``
(a (1,0) tensor field as a vector field), ``transform_at`` (a symbolic
transform's matrix at a point) and ``node_point`` (the coordinates of a
grid frame's node).
"""

import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from normframes.expr import (
    Add,
    Call,
    Const,
    Div,
    DomainError,
    FUNCTIONS,
    MissingSymbolError,
    Mul,
    Neg,
    ONE,
    Pow,
    Sub,
    Sym,
    Symbol,
    ZERO,
    neg,
    to_source,
)
from normframes import matops
from normframes.derivation import (
    PROBE_PAIRS,
    PROBE_TOL,
    Connection,
    Derivation,
    LinearityVerdict,
    VariantError,
    apply_derivation,
    vanishing_fields,
    w_of,
)
from normframes.expr import Expr, simplify
from normframes.geometry import (
    DEFAULT_SEED,
    IDENTITY_TOL,
    FrameField,
    TensorField,
    VectorField,
    commutator,
)

MATH_FUNCS = {name: getattr(math, name) for name in FUNCTIONS}


def evaluate_tree(e, assignment) -> float:
    """The value of ``e`` at ``assignment`` (symbol or name -> value)."""
    values = {}
    for key, val in assignment.items():
        values[key.name if isinstance(key, Symbol) else str(key)] = float(val)
    result = _walk(e, values, {})
    if not math.isfinite(result):
        raise DomainError(f"evaluation produced a non-finite value for {to_source(e)}")
    return result


def _walk(e, values: dict, memo: dict) -> float:
    """The value of ``e``, recorded in ``memo`` (node id -> value) so a
    subtree that occurs many times is evaluated once."""
    kind = type(e)
    if kind is Const:
        return e.value
    if kind is Sym:
        try:
            return values[e.symbol.name]
        except KeyError:
            raise MissingSymbolError(f"no value supplied for symbol {e.symbol.name!r}") from None
    out = memo.get(id(e))
    if out is not None:
        return out
    if kind is Add:
        out = _walk(e.left, values, memo) + _walk(e.right, values, memo)
    elif kind is Mul:
        out = _walk(e.left, values, memo) * _walk(e.right, values, memo)
    elif kind is Sub:
        out = _walk(e.left, values, memo) - _walk(e.right, values, memo)
    elif kind is Neg:
        out = -_walk(e.arg, values, memo)
    elif kind is Div:
        denom = _walk(e.right, values, memo)
        if denom == 0.0:
            raise DomainError("division by zero")
        out = _walk(e.left, values, memo) / denom
    elif kind is Pow:
        base = _walk(e.base, values, memo)
        expo = _walk(e.exponent, values, memo)
        try:
            out = math.pow(base, expo)
        except (ValueError, OverflowError) as err:
            raise DomainError(f"{base!r}^{expo!r} is undefined: {err}") from None
    elif kind is Call:
        arg = _walk(e.arg, values, memo)
        try:
            out = MATH_FUNCS[e.func](arg)
        except (ValueError, OverflowError) as err:
            raise DomainError(f"{e.func}({arg!r}) is undefined: {err}") from None
    else:
        raise TypeError(f"not an Expr: {e!r}")
    memo[id(e)] = out
    return out



# ---------------------------------------------------------------------------
# the fold walk as it was before its per-kind rules and zero short-cut


def _is_const(e, value: float) -> bool:
    return type(e) is Const and e.value == value


def _finite_const(value: float):
    """A folded constant, or None when the IEEE result is not finite and the
    node is kept."""
    return Const(value) if math.isfinite(value) else None


def _inexact_const(value: float, *operands):
    """A folded product, quotient, power or function value, or None when the
    node is kept: the IEEE result is not finite, or it underflowed (0 or
    below the normal range while no operand is 0)."""
    if abs(value) < sys.float_info.min and 0.0 not in operands:
        return None
    return _finite_const(value)


def fold_oracle(e, bindings, memo: dict):
    """``expr._fold`` by its former walk: every child folded, then one rule
    chain (:func:`rewrite_oracle`) at the node.  A product with a zero
    factor folds both factors before giving ZERO."""
    kind = type(e)
    if kind is Const:
        return e
    if kind is Sym:
        return bindings.get(e.symbol, e) if bindings else e
    key = id(e)
    out = memo.get(key)
    if out is None:
        if kind in (Add, Sub, Mul, Div):
            left = fold_oracle(e.left, bindings, memo)
            out = rewrite_oracle(e, left, fold_oracle(e.right, bindings, memo))
        elif kind is Neg or kind is Call:
            out = rewrite_oracle(e, fold_oracle(e.arg, bindings, memo), None)
        elif kind is Pow:
            base = fold_oracle(e.base, bindings, memo)
            out = rewrite_oracle(e, base, fold_oracle(e.exponent, bindings, memo))
        else:
            raise TypeError(f"not an Expr: {e!r}")
        memo[key] = out
    return out


def rewrite_oracle(e, left, right):
    """The rules at the composite node ``e`` whose children are already
    folded to ``left`` and ``right`` (None for one child), as one chain."""
    kind = type(e)
    if kind is Neg:
        if isinstance(left, Const):
            return Const(-left.value)
        if isinstance(left, Neg):
            return left.arg
        return e if left is e.arg else Neg(left)
    if kind is Add:
        if _is_const(left, 0.0):
            return right
        if _is_const(right, 0.0):
            return left
        if isinstance(left, Const) and isinstance(right, Const):
            folded = _finite_const(left.value + right.value)
            if folded is not None:
                return folded
        if isinstance(right, Neg) and right.arg == left:
            return ZERO
        if isinstance(left, Neg) and left.arg == right:
            return ZERO
        return e if left is e.left and right is e.right else Add(left, right)
    if kind is Sub:
        if _is_const(right, 0.0):
            return left
        if _is_const(left, 0.0):
            return neg(right) if not isinstance(right, Neg) else right.arg
        if isinstance(left, Const) and isinstance(right, Const):
            folded = _finite_const(left.value - right.value)
            if folded is not None:
                return folded
        if left == right:
            return ZERO
        return e if left is e.left and right is e.right else Sub(left, right)
    if kind is Mul:
        if _is_const(left, 0.0) or _is_const(right, 0.0):
            return ZERO
        if _is_const(left, 1.0):
            return right
        if _is_const(right, 1.0):
            return left
        if isinstance(left, Const) and isinstance(right, Const):
            folded = _inexact_const(left.value * right.value, left.value, right.value)
            if folded is not None:
                return folded
        return e if left is e.left and right is e.right else Mul(left, right)
    if kind is Div:
        if _is_const(right, 1.0):
            return left
        if _is_const(left, 0.0) and not _is_const(right, 0.0):
            return ZERO
        if isinstance(left, Const) and isinstance(right, Const) and right.value != 0.0:
            folded = _inexact_const(left.value / right.value, left.value, right.value)
            if folded is not None:
                return folded
        return e if left is e.left and right is e.right else Div(left, right)
    if kind is Pow:
        base, expo = left, right
        if _is_const(expo, 1.0):
            return base
        if _is_const(expo, 0.0):
            return ONE
        if isinstance(base, Const) and isinstance(expo, Const):
            try:
                value = math.pow(base.value, expo.value)
            except (ValueError, OverflowError):
                value = math.inf
            folded = _inexact_const(value, base.value, expo.value)
            if folded is not None:
                return folded
        return e if base is e.base and expo is e.exponent else Pow(base, expo)
    if isinstance(left, Const):
        try:
            value = MATH_FUNCS[e.func](left.value)
        except (ValueError, OverflowError):
            value = math.inf
        # a log is 0 only at 1, exactly, and never below the normal range
        folded = (_finite_const(value) if e.func == "log"
                  else _inexact_const(value, left.value))
        if folded is not None:
            return folded
    return e if left is e.arg else Call(e.func, left)

# ---------------------------------------------------------------------------
# the symbolic push-forward through a frame change


_COMPOSED = weakref.WeakKeyDictionary()  # transform -> its composed frame


def compose_frame(frame: FrameField, entries) -> FrameField:
    """New frame E_i' = A^i_{i'} E_i, i.e. B' = B A as coordinate matrices."""
    return FrameField(frame.chart, simplify(frame.matrix @ entries))


def composed_frame(transform) -> FrameField:
    """The composed frame of a transform, the same object on every call, so
    results pushed through one transform share their frame."""
    frame = _COMPOSED.get(transform)
    if frame is None:
        frame = _COMPOSED[transform] = compose_frame(transform.frame, transform.entries)
    return frame


def inverse_entries(transform) -> np.ndarray:
    """The adjugate inverse of A (n <= 4)."""
    return matops.inverse(transform.entries)


def transform_w(w: TensorField, x: VectorField, transform) -> TensorField:
    """Push W through a frame change: W' = A^{-1}(W A + X(A)), in the
    composed frame; ``x`` and ``w`` are given in the transform's source frame."""
    if w.frame is not transform.frame or x.frame is not transform.frame:
        raise ValueError("W, the field and the transform must share a frame")
    a = transform.entries
    inner = simplify(w.components @ a + x.apply_to(a))
    outer = simplify(inverse_entries(transform) @ inner)
    return TensorField(composed_frame(transform), 1, 1, outer)


def change_vector_frame(x: VectorField, transform) -> VectorField:
    """X^{i'} = (A^{-1})^{i'}_i X^i, in the composed frame."""
    comps = np.array(x.components, dtype=object)
    return VectorField(composed_frame(transform), simplify(inverse_entries(transform) @ comps))


def transform_connection(deriv: Connection, transform) -> Connection:
    """Connection coefficients in the composed frame:
    Gamma'^{i'}_{j'k'} = A^{i'}_i A^j_{j'} A^k_{k'} Gamma^i_{jk}
                       + A^{i'}_i A^k_{k'} E_k(A^i_{j'})."""
    if transform.frame is not deriv.frame:
        raise ValueError("transform must start from the derivation's frame")
    a = transform.entries
    ainv = inverse_entries(transform)
    ek_a = deriv.frame.frame_derivatives(a)  # [k, i, j']
    n = deriv.frame.dimension
    gamma = np.empty((n, n, n), dtype=object)
    for ip, jp, kp in np.ndindex(n, n, n):
        acc = Const(0.0)
        for i, j, k in np.ndindex(n, n, n):
            acc = acc + ainv[ip, i] * a[j, jp] * a[k, kp] * deriv.gamma[i, j, k]
        for i, k in np.ndindex(n, n):
            acc = acc + ainv[ip, i] * a[k, kp] * ek_a[k, i, jp]
        gamma[ip, jp, kp] = simplify(acc)
    return Connection(composed_frame(transform), gamma)


# ---------------------------------------------------------------------------
# the symbolic curvature and torsion forms


def vanishes_on_chart(
    exprs,
    chart,
    tol: float = IDENTITY_TOL,
    seed: int = DEFAULT_SEED,
) -> tuple[bool, float]:
    """Probabilistic identity test: evaluate on the chart's sample cloud.

    Returns (verdict, max |value| observed).
    """
    values = matops.evaluate_points(list(exprs), chart.symbols, chart.sample_points(seed=seed))
    worst = float(np.max(np.abs(values), initial=0.0))
    return worst <= tol, worst




def w_derivatives(deriv: Derivation, x: VectorField) -> np.ndarray:
    """E_k(W_X) stacked along k, as [k, i, j]."""
    return deriv.frame.frame_derivatives(w_of(deriv, x).components)


def curvature_matrix(deriv: Derivation, x: VectorField, y: VectorField) -> TensorField:
    """(R(X,Y))^i_k = X(W_Y) - Y(W_X) + W_X W_Y - W_Y W_X - W_{[X,Y]}, a
    (1,1) tensor field for the fixed pair of fields."""
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
    tensor field, from the frame-direction component matrices of any
    derivation; for a connection (W_{E_l})^i_k = G^i_{kl}."""
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


# ---------------------------------------------------------------------------
# operator oracles


def curvature_operator_oracle(deriv, x: VectorField, y: VectorField, z: TensorField) -> TensorField:
    """Brute-force D_X D_Y - D_Y D_X - D_{[X,Y]} applied to a tensor field."""
    dxy = apply_derivation(deriv, x, apply_derivation(deriv, y, z))
    dyx = apply_derivation(deriv, y, apply_derivation(deriv, x, z))
    dbrk = apply_derivation(deriv, commutator(x, y), z)
    out = simplify(dxy.components - dyx.components - dbrk.components)
    return TensorField(deriv.frame, z.p, z.q, out)


def torsion_operator_oracle(deriv, x: VectorField, y: VectorField) -> VectorField:
    """Brute-force D_X Y - D_Y X - [X,Y]."""
    dxy = to_vector(apply_derivation(deriv, x, TensorField.from_vector(y)))
    dyx = to_vector(apply_derivation(deriv, y, TensorField.from_vector(x)))
    brk = commutator(x, y)
    return VectorField(deriv.frame, [simplify(a - b - c) for a, b, c in
                                     zip(dxy.components, dyx.components, brk.components)])


# ---------------------------------------------------------------------------
# the linearity probe over concrete fields


def seeded_affine_fields(frame: FrameField, rng, count: int) -> list:
    """``count`` fields with affine components c_0 + c_a x^a, drawn one
    component at a time from ``rng`` and rounded to 6 decimals."""
    n = frame.dimension
    syms = frame.chart.symbols
    fields = []
    for _ in range(count):
        comps = []
        for _i in range(n):
            coeffs = rng.uniform(-1.0, 1.0, size=n + 1)
            e = Const(round(coeffs[0], 6))
            for a in range(n):
                e = e + Const(round(coeffs[a + 1], 6)) * Sym(syms[a])
            comps.append(simplify(e))
        fields.append(VectorField(frame, comps))
    return fields


def probe_residuals(deriv, x0: np.ndarray, rng):
    """(kind, field, residual) for each sampled condition of the linearity
    probe, in order: |W_X(x0)| for the fields vanishing at x0, then
    |W_{aX+bY} - a W_X - b W_Y|(x0) for seeded pairs (field X)."""
    frame = deriv.frame
    n = frame.dimension
    anchor = [Const(float(v)) for v in x0]
    mixes = matops.constant_exprs(np.round(rng.uniform(-1.0, 1.0, size=(2, n, n)), 6))
    for probe in vanishing_fields(frame, anchor, mixes):
        yield "vanishing-field", probe, float(np.max(np.abs(w_of(deriv, probe).evaluate_at(x0))))
    pairs = seeded_affine_fields(frame, rng, 2 * PROBE_PAIRS)
    for xf, yf in zip(pairs[::2], pairs[1::2]):
        a_val = round(rng.uniform(-2.0, 2.0), 6)
        b_val = round(rng.uniform(-2.0, 2.0), 6)
        combined = xf.scaled(a_val) + yf.scaled(b_val)
        w_comb, w_x, w_y = (w_of(deriv, f).evaluate_at(x0) for f in (combined, xf, yf))
        yield "superposition", xf, float(np.max(np.abs(w_comb - a_val * w_x - b_val * w_y)))


def linearity_probe_oracle(deriv, x0, seed: int = DEFAULT_SEED, tol: float = PROBE_TOL):
    """The linearity probe with one concrete field per condition: the
    verdict ``derivation.linearity_probe`` must give bit for bit."""
    frame = deriv.frame
    n = frame.dimension
    x0 = frame.chart.point(x0)
    max_residual = 0.0
    witness = None
    for kind, probe, residual in probe_residuals(deriv, x0, np.random.default_rng(seed)):
        max_residual = max(max_residual, residual)
        if witness is None and residual > tol:
            witness = {
                "kind": kind,
                "components": [str(c) for c in probe.components],
                "residual": residual,
            }
    if witness is not None:
        return LinearityVerdict(False, max_residual, x0, tol, witness=witness)
    gammas = np.empty((n, n, n), dtype=float)
    for k in range(n):
        gammas[:, :, k] = w_of(deriv, frame.coordinate_vector(k)).evaluate_at(x0)
    return LinearityVerdict(True, max_residual, x0, tol, gammas=gammas)


def polyline_product(forward, target, order, b0) -> np.ndarray:
    """Carry b0 from node 0 to the target node along the given axis order,
    one edge propagator at a time."""
    a = b0
    current = [0] * len(target)
    for axis in order:
        while current[axis] < target[axis]:
            a = forward[axis][tuple(current)] @ a
            current[axis] += 1
    return a


# ---------------------------------------------------------------------------
# the transport compatibility identity


@dataclass
class IntegrabilityReport:
    """Residual of the transport compatibility identity at sample points.

    residual(p) = [X,Y](A)(p) + (R(X,Y)(p) + W_{[X,Y]}(p)) A(p); the
    obstruction norm is the largest |R(X,Y)| entry seen, which does not
    depend on A.
    """

    points: np.ndarray
    residuals: np.ndarray  # (count, n, n)
    max_residual: float
    obstruction_norm: float


def integrability_residual(deriv, x: VectorField, y: VectorField, transform,
                           points=None) -> IntegrabilityReport:
    """The identity for the transform A (a SymbolicTransform) and the pair
    (X, Y), at ``points`` or on the chart's sample cloud."""
    chart = deriv.chart
    if points is None:
        pts = chart.sample_points()
    else:
        pts = np.array([chart.point(p) for p in points])
    brk = commutator(x, y)
    r_val, w_val, a_val, brk_a_val = matops.evaluate_arrays([
        curvature_matrix(deriv, x, y).components,
        w_of(deriv, brk).components,
        transform.entries,
        brk.apply_to(transform.entries),
    ], chart.symbols, pts)
    residuals = brk_a_val + (r_val + w_val) @ a_val
    return IntegrabilityReport(
        points=pts,
        residuals=residuals,
        max_residual=float(np.max(np.abs(residuals), initial=0.0)),
        obstruction_norm=float(np.max(np.abs(r_val), initial=0.0)),
    )


# ---------------------------------------------------------------------------
# readers of library objects


def to_vector(t: TensorField) -> VectorField:
    """A (1,0) tensor field as a vector field."""
    if (t.p, t.q) != (1, 0):
        raise ValueError("only (1,0) tensors convert to vector fields")
    return VectorField(t.frame, list(t.components))


def transform_at(transform, point) -> np.ndarray:
    """The matrix A of a symbolic transform at ``point``."""
    return matops.evaluate_array(transform.entries, transform.frame.chart.assignment(point))


def node_point(grid_frame, index) -> np.ndarray:
    """The coordinates of the grid frame's node at ``index``."""
    return np.array([ax[i] for ax, i in zip(grid_frame.axes, index)])
