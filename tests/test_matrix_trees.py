"""Symbolic matrix results keep their trees.

Symbolic matrices are numpy object arrays: the library multiplies, adds and
negates them with numpy's ``@``, ``+`` and unary ``-`` and simplifies each
result once.  The reference helpers below are the former per-step forms: a
``Const(0)``-seeded product simplified entry by entry, an entry-wise
simplified sum, and entry-wise negation.  Every result must be the very same
tree, entry by entry, on every demo and benchmark spec.
"""

from pathlib import Path

import numpy as np
import pytest

from normframes import frames, matops
from normframes.cli import load_manifold_spec
from normframes.curvature import _probe_pairs, curvature_matrix
from normframes.derivation import SymbolicTransform, transform_w, w_of
from normframes.expr import Const, Expr, Sym, simplify
from normframes.frames import PointFrameResult, constancy_check, direction_functions
from normframes.geometry import commutator, compose_frame

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted((ROOT / "demos" / "specs").glob("*.json")) + sorted(
    (ROOT / "benchmarks" / "specs").glob("*.json")
)


def ref_matmul(a, b):
    out = np.empty((a.shape[0], b.shape[1]), dtype=object)
    for i, j in np.ndindex(out.shape):
        acc: Expr = Const(0.0)
        for k in range(a.shape[1]):
            acc = acc + a[i, k] * b[k, j]
        out[i, j] = simplify(acc)
    return out


def ref_matadd(a, b):
    out = np.empty(a.shape, dtype=object)
    for idx in np.ndindex(a.shape):
        out[idx] = simplify(a[idx] + b[idx])
    return out


def ref_neg(a):
    out = np.empty(a.shape, dtype=object)
    for idx in np.ndindex(a.shape):
        out[idx] = -a[idx]
    return out


def assert_same_trees(got, want):
    assert got.shape == want.shape and got.dtype == object
    for idx in np.ndindex(want.shape):
        assert got[idx] == want[idx], idx


def affine_transform(frame, seed: int) -> SymbolicTransform:
    """Lower-triangular A = I + L (x - centre), L seeded and small against
    the domain box; triangular keeps the 4-D symbolic inverse small."""
    chart = frame.chart
    n = frame.dimension
    rng = np.random.default_rng(seed)
    entries = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        e: Expr = Const(1.0 if i == j else 0.0)
        if j > i:
            entries[i, j] = e
            continue
        for a, (lo, hi) in enumerate(chart.domain):
            coeff = round(float(rng.uniform(-0.2, 0.2)) / (hi - lo), 6)
            e = e + Const(coeff) * (Sym(chart.symbols[a]) - Const((lo + hi) / 2.0))
        entries[i, j] = simplify(e)
    return SymbolicTransform(frame, entries)


@pytest.fixture(scope="module", params=SPEC_FILES, ids=lambda p: f"{p.parent.parent.name}/{p.stem}")
def setup(request):
    return load_manifold_spec(str(request.param))


def test_curvature_matrix_trees(setup):
    deriv = setup.deriv
    for x, y in _probe_pairs(deriv.frame, 42):
        w_x, w_y = w_of(deriv, x).entries, w_of(deriv, y).entries
        w_brk = w_of(deriv, commutator(x, y)).entries
        comm = ref_matadd(ref_matmul(w_x, w_y), ref_neg(ref_matmul(w_y, w_x)))
        total = ref_matadd(x.apply_to(w_y), ref_neg(y.apply_to(w_x)))
        total = ref_matadd(ref_matadd(total, comm), ref_neg(w_brk))
        assert_same_trees(curvature_matrix(deriv, x, y).entries, simplify(total))


def test_transform_trees(setup, monkeypatch):
    deriv = setup.deriv
    frame = deriv.frame
    first, second = affine_transform(frame, 1), affine_transform(frame, 2)
    x = _probe_pairs(frame, 42)[-1][0]
    w = w_of(deriv, x)
    a = first.entries
    inner = ref_matadd(ref_matmul(w.entries, a), x.apply_to(a))
    assert_same_trees(transform_w(w, x, first).entries, ref_matmul(first.inverse_entries(), inner))
    assert_same_trees(compose_frame(frame, a).matrix, ref_matmul(frame.matrix, a))

    shells = []
    evaluate_points = matops.evaluate_points

    def capture(matrix, symbols, points):
        shells.append(matrix)
        return evaluate_points(matrix, symbols, points)

    monkeypatch.setattr(matops, "evaluate_points", capture)
    anchor = np.array([(lo + hi) / 2.0 for lo, hi in frame.chart.domain])
    constancy_check(PointFrameResult(first, anchor, 0.0), PointFrameResult(second, anchor, 0.0))
    assert_same_trees(shells[-1], ref_matmul(first.inverse_entries(), second.entries))


def test_direction_function_trees(setup, monkeypatch):
    deriv = setup.deriv
    frame = deriv.frame
    n = frame.dimension
    compiled = []
    compile_exprs = frames.compile_exprs

    def capture(exprs, symbols):
        compiled.append(list(exprs))
        return compile_exprs(compiled[-1], symbols)

    monkeypatch.setattr(frames, "compile_exprs", capture)
    direction_functions(deriv)
    mats = [w_of(deriv, frame.coordinate_vector(k)).entries for k in range(n)]
    if not frame.is_coordinate:
        inv = frame.inverse_exprs()
        want = []
        for alpha in range(n):
            acc = None
            for k in range(n):
                scaled = np.empty((n, n), dtype=object)
                for idx in np.ndindex(n, n):
                    scaled[idx] = simplify(inv[k, alpha] * mats[k][idx])
                acc = scaled if acc is None else ref_matadd(acc, scaled)
            want.append(acc)
        mats = want
    assert len(compiled) == n
    for got, want in zip(compiled, mats):
        assert_same_trees(np.array(got, dtype=object), want.ravel())
