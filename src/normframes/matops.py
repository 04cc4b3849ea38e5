"""What numpy lacks for matrices of expressions: coercion, determinants,
adjugate inverses and evaluation.

Symbolic matrices are numpy object arrays of :class:`~normframes.expr.Expr`.
Sums, products and negation are numpy's ``+``, ``@`` and unary ``-``, and
each result is simplified once with :func:`~normframes.expr.simplify`, a
single folding pass (:func:`~normframes.expr.substitute` folds as it binds,
so instantiated templates need no further pass).
Symbolic inversion uses the adjugate/determinant form and is
restricted to n <= 4 to keep expression growth bounded.  Only a
non-coordinate frame's own inverse takes it, for its anholonomy and
direction functions; a frame change is inverted numerically per point
(the transformation law, holonomicity and constancy checks).

Numeric evaluation compiles an array once with
:func:`~normframes.expr.compile_exprs` and runs the tape on a point set
(:func:`evaluate_points`: sample cloud, shell, lattice nodes), several
arrays on one point set from one tape (:func:`evaluate_arrays`), or at one
point (:func:`evaluate_array`, the same call with a single point).
"""

from __future__ import annotations

import numpy as np

from .expr import Const, Div, Expr, Symbol, compile_exprs, simplify

MAX_SYMBOLIC_INVERSE = 4


def expr_matrix(rows) -> np.ndarray:
    """Rows of Exprs or numbers as an object array; an ndarray passes through."""
    if isinstance(rows, np.ndarray):
        return rows
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[i, j] = entry if isinstance(entry, Expr) else Const(float(entry))
    return out


def constant_exprs(values) -> np.ndarray:
    return np.vectorize(Const, otypes=[object])(np.asarray(values, dtype=float))


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only in place: a cache hands it to every caller."""
    arr.flags.writeable = False
    return arr


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


def evaluate_array(matrix, assignment) -> np.ndarray:
    """Evaluate every entry of an Expr array at one point: :func:`evaluate_points`
    at the point that ``assignment`` (symbol or name -> value) gives."""
    symbols = [key if isinstance(key, Symbol) else Symbol(str(key)) for key in assignment]
    return evaluate_points(matrix, symbols, [list(assignment.values())])[0, ...]


def evaluate_points(matrix, symbols, points) -> np.ndarray:
    """Evaluate every entry of an Expr array at many points in one call.

    ``points`` holds one row of coordinate values per point, in the order
    of ``symbols``; the result has shape ``(len(points),) + matrix.shape``.
    The array is compiled once; non-finite values and domain failures raise
    :class:`~normframes.expr.DomainError`.
    """
    matrix = np.asarray(matrix, dtype=object)
    symbols = list(symbols)
    points = np.asarray(points, dtype=float).reshape(len(points), len(symbols))
    values = compile_exprs(matrix.flat, symbols)(*points.T)
    return values.T.reshape((len(points),) + matrix.shape)


def evaluate_arrays(arrays, symbols, points) -> list[np.ndarray]:
    """Each Expr array at every point, as [P, *shape]: :func:`evaluate_points`
    of all their entries, so one compiled tape serves them all."""
    arrays = [np.asarray(arr, dtype=object) for arr in arrays]
    values = evaluate_points(np.concatenate([arr.ravel() for arr in arrays]), symbols, points)
    cuts = np.cumsum([arr.size for arr in arrays])[:-1]
    return [part.reshape((len(values),) + arr.shape)
            for part, arr in zip(np.split(values, cuts, axis=1), arrays)]
