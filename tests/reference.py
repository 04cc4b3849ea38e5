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

* the push-forward of components through a frame change,
  ``transform_w`` (W' = A^{-1}(W A + X(A)) as expressions in the composed
  frame B A), ``transform_connection``, ``change_vector_frame`` and
  ``compose_frame``.  They take the adjugate inverse of A, so they serve
  n <= 4; the numeric law ``frames.transformed_components`` has no such
  limit.
* the operator oracles ``curvature_operator_oracle`` and
  ``torsion_operator_oracle``, which apply D_X D_Y - D_Y D_X - D_[X,Y] and
  D_X Y - D_Y X - [X,Y] through the derivation action, against which the
  closed curvature and torsion forms are checked.
"""

import math
import weakref

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
    Pow,
    Sub,
    Sym,
    Symbol,
    to_source,
)
from normframes import matops
from normframes.derivation import Connection, apply_derivation
from normframes.expr import simplify
from normframes.geometry import FrameField, TensorField, VectorField, commutator

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
    dxy = apply_derivation(deriv, x, TensorField.from_vector(y)).to_vector()
    dyx = apply_derivation(deriv, y, TensorField.from_vector(x)).to_vector()
    brk = commutator(x, y)
    return VectorField(deriv.frame, [simplify(a - b - c) for a, b, c in
                                     zip(dxy.components, dyx.components, brk.components)])
