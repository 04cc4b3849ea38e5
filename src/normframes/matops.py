"""Matrices of expressions: products, determinants, adjugate inverses.

Matrices are numpy object arrays holding :class:`~normframes.expr.Expr`
entries.  Symbolic inversion uses the adjugate/determinant form and is
restricted to n <= 4 to keep expression growth bounded; every consumer
that needs larger frames evaluates numerically per point instead.

Numeric evaluation has two entry points: :func:`evaluate_array` walks the
trees at one point, :func:`evaluate_points` compiles an array once and
evaluates it on a whole point set (sample cloud, shell, lattice nodes).
"""

from __future__ import annotations

import numpy as np

from .expr import Const, Div, Expr, compile_exprs, evaluate, simplify

MAX_SYMBOLIC_INVERSE = 4


def expr_matrix(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[i, j] = entry if isinstance(entry, Expr) else Const(float(entry))
    return out


def identity_exprs(n: int) -> np.ndarray:
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = Const(1.0 if i == j else 0.0)
    return out


def constant_exprs(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape, dtype=object)
    for idx in np.ndindex(values.shape):
        out[idx] = Const(values[idx])
    return out


def map_exprs(fn, matrix: np.ndarray) -> np.ndarray:
    out = np.empty(matrix.shape, dtype=object)
    for idx in np.ndindex(matrix.shape):
        out[idx] = fn(matrix[idx])
    return out


def simplify_all(matrix: np.ndarray) -> np.ndarray:
    return map_exprs(simplify, matrix)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = a.shape
    m2, p = b.shape
    if m != m2:
        raise ValueError("shape mismatch in symbolic matrix product")
    out = np.empty((n, p), dtype=object)
    for i in range(n):
        for j in range(p):
            acc: Expr = Const(0.0)
            for k in range(m):
                acc = acc + a[i, k] * b[k, j]
            out[i, j] = simplify(acc)
    return out


def matadd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty(a.shape, dtype=object)
    for idx in np.ndindex(a.shape):
        out[idx] = simplify(a[idx] + b[idx])
    return out


def determinant(matrix: np.ndarray) -> Expr:
    """Cofactor-expansion determinant (symbolic, small n only)."""
    n = matrix.shape[0]
    if n == 1:
        return matrix[0, 0]
    acc: Expr | None = None
    for j in range(n):
        minor = np.delete(np.delete(matrix, 0, axis=0), j, axis=1)
        term = matrix[0, j] * determinant(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return simplify(acc)


def inverse(matrix: np.ndarray) -> np.ndarray:
    """Adjugate inverse; entries are quotients by the determinant."""
    n = matrix.shape[0]
    if n > MAX_SYMBOLIC_INVERSE:
        raise ValueError(
            f"symbolic inversion is limited to n <= {MAX_SYMBOLIC_INVERSE}; "
            "use per-point numeric inversion for larger frames"
        )
    det = determinant(matrix)
    out = np.empty((n, n), dtype=object)
    if n == 1:
        out[0, 0] = simplify(Div(Const(1.0), det))
        return out
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(matrix, j, axis=0), i, axis=1)
            cof = determinant(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            out[i, j] = simplify(Div(cof, det))
    return out


def evaluate_array(matrix: np.ndarray, assignment) -> np.ndarray:
    """Evaluate every entry of an object ndarray of Exprs at one point."""
    out = np.empty(matrix.shape, dtype=float)
    for idx in np.ndindex(matrix.shape):
        out[idx] = evaluate(matrix[idx], assignment)
    return out


def evaluate_points(matrix, symbols, points) -> np.ndarray:
    """Evaluate every entry of an Expr array at many points in one call.

    ``points`` holds one row of coordinate values per point, in the order
    of ``symbols``; the result has shape ``(len(points),) + matrix.shape``.
    The array is compiled once; non-finite values and domain failures raise
    :class:`~normframes.expr.DomainError`, as in :func:`evaluate_array`.
    """
    matrix = np.asarray(matrix, dtype=object)
    symbols = list(symbols)
    points = np.asarray(points, dtype=float).reshape(len(points), len(symbols))
    values = compile_exprs(matrix.flat, symbols)(*points.T)
    return values.T.reshape((len(points),) + matrix.shape)
