"""Symbolic matrix results keep their trees.

Symbolic matrices are numpy object arrays: the library multiplies, adds and
negates them with numpy's ``@``, ``+`` and unary ``-`` and simplifies each
result once.  The reference helpers below are the former per-step forms: a
``Const(0)``-seeded product simplified entry by entry, an entry-wise
simplified sum, and entry-wise negation; the ``ref_*`` loops further down
are the former index loops of frame derivatives, field actions, the
anholonomy, commutators, the connection template and the vanishing probe
fields.  Every result must be the very same tree, entry by entry, on every
demo and benchmark spec.  The numeric transformation law has no tree; it is
compared with the symbolic push-forward of ``reference.py`` at sample points.
"""

from pathlib import Path

import numpy as np
import pytest

from normframes import frames, matops
from normframes.cli import load_manifold_spec
from normframes.curvature import _probe_pairs
from normframes.derivation import (
    Connection,
    SymbolicTransform,
    seeded_affine_fields,
    vanishing_fields,
    w_of,
)
from normframes.expr import (
    Const,
    Expr,
    Sym,
    Symbol,
    component_symbols,
    differentiate,
    simplify,
    substitute,
)
from normframes.frames import PointFrameResult, constancy_check, direction_functions
from normframes.geometry import VectorField, commutator

from reference import composed_frame, curvature_matrix, inverse_entries, transform_w

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
        # repr, not ==: Const(-0.0) == Const(0.0), and a flipped zero sign shows in reports
        assert repr(got[idx]) == repr(want[idx]), idx


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
        w_x, w_y = w_of(deriv, x).components, w_of(deriv, y).components
        w_brk = w_of(deriv, commutator(x, y)).components
        comm = ref_matadd(ref_matmul(w_x, w_y), ref_neg(ref_matmul(w_y, w_x)))
        total = ref_matadd(x.apply_to(w_y), ref_neg(y.apply_to(w_x)))
        total = ref_matadd(ref_matadd(total, comm), ref_neg(w_brk))
        assert_same_trees(curvature_matrix(deriv, x, y).components, simplify(total))


def test_transform_law_matches_the_symbolic_push_forward(setup):
    # differential: the numeric law at points against the symbolic
    # push-forward of tests/reference.py, evaluated at the same points
    deriv = setup.deriv
    frame = deriv.frame
    chart = frame.chart
    first, second = affine_transform(frame, 1), affine_transform(frame, 2)
    points = chart.sample_points(8, 11)
    want = np.stack([
        matops.evaluate_points(transform_w(w_of(deriv, x), x, first).components, chart.symbols, points)
        for x in (VectorField(frame, list(first.entries[:, k])) for k in range(frame.dimension))
    ], axis=1)
    np.testing.assert_allclose(frames.transformed_components(deriv, first, points), want,
                               rtol=1e-10, atol=1e-10)

    # constancy at a shared anchor: A12 = A1^{-1} A2 and its frame derivatives there
    anchor = np.array([(lo + hi) / 2.0 for lo, hi in chart.domain])
    a12 = simplify(inverse_entries(first) @ second.entries)
    verdict = constancy_check(PointFrameResult(first, anchor, 0.0),
                              PointFrameResult(second, anchor, 0.0))
    at = chart.assignment(anchor)
    np.testing.assert_allclose(verdict.matrix, matops.evaluate_array(a12, at), rtol=1e-10, atol=1e-10)
    derivatives = matops.evaluate_array(frame.frame_derivatives(a12), at)
    assert abs(verdict.derivative_residual - float(np.max(np.abs(derivatives)))) <= 1e-10


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
    mats = [w_of(deriv, frame.coordinate_vector(k)).components for k in range(n)]
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


def ref_frame_derivative(frame, i, f):
    acc: Expr = Const(0.0)
    for a in range(frame.dimension):
        acc = acc + frame.matrix[a, i] * differentiate(f, frame.chart.symbols[a])
    return simplify(acc)


def ref_apply_to(x, f):
    acc: Expr = Const(0.0)
    for k in range(x.frame.dimension):
        acc = acc + x.components[k] * ref_frame_derivative(x.frame, k, f)
    return simplify(acc)


def ref_anholonomy(frame):
    n = frame.dimension
    zero = Const(0.0)
    C = np.empty((n, n, n), dtype=object)
    C[...] = zero
    if frame.is_coordinate:
        return C
    inv = frame.inverse_exprs()
    for j in range(n):
        for k in range(j + 1, n):
            for i in range(n):
                acc: Expr = zero
                for a in range(n):
                    diff = ref_frame_derivative(frame, j, frame.matrix[a, k]) - \
                        ref_frame_derivative(frame, k, frame.matrix[a, j])
                    acc = acc + inv[i, a] * diff
                acc = simplify(acc)
                C[i, j, k] = acc
                C[i, k, j] = zero if acc == zero else -acc
    return C


def ref_commutator(x, y, C):
    n = x.frame.dimension
    is_zero = all(c == Const(0.0) for c in C.flat)
    comps = []
    for i in range(n):
        acc: Expr = ref_apply_to(x, y.components[i]) - ref_apply_to(y, x.components[i])
        if not is_zero:
            for j in range(n):
                for k in range(n):
                    acc = acc + C[i, j, k] * x.components[j] * y.components[k]
        comps.append(simplify(acc))
    return np.array(comps, dtype=object)


def ref_connection_template(gamma):
    n = gamma.shape[0]
    xs = [Sym(s) for s in component_symbols(n)]
    out = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        out[i, j] = sum((g * x for g, x in zip(gamma[i, j], xs)), Const(0.0))
    return out


def ref_mixed_fields(frame, anchor, mixes):
    offsets = [Sym(s) - x0 for s, x0 in zip(frame.chart.symbols, anchor)]
    fields = []
    for mix in mixes:
        comps = []
        for row in mix:
            e: Expr = Const(0.0)
            for c, offset in zip(row, offsets):
                e = e + c * offset
            comps.append(simplify(e))
        fields.append(np.array(comps, dtype=object))
    return fields


def probe_fields(frame):
    return [f for pair in _probe_pairs(frame, 42) for f in pair]


def test_frame_derivative_and_field_action_trees(setup):
    deriv = setup.deriv
    frame = deriv.frame
    fields = probe_fields(frame)
    for x, y in zip(fields, fields[1:]):
        ys = np.array(y.components, dtype=object)
        for k in range(frame.dimension):
            assert_same_trees(frame.frame_derivative(k, ys), ref_frame_derivative(frame, k, ys))
            scalar = y.components[0]
            assert frame.frame_derivative(k, scalar) == ref_frame_derivative(frame, k, scalar)
        assert_same_trees(x.apply_to(ys), ref_apply_to(x, ys))


@pytest.mark.parametrize("composed", [False, True], ids=["spec-frame", "composed-frame"])
def test_anholonomy_and_commutator_trees(setup, composed):
    frame = setup.frame
    pairs = _probe_pairs(frame, 42)
    if composed:
        # a full lower triangle, as the spec frames are diagonal; one seeded
        # pair keeps the 4-D case short
        frame = composed_frame(affine_transform(frame, 1))
        pairs = _probe_pairs(frame, 42)[-1:]
    C = ref_anholonomy(frame)
    assert_same_trees(frame.anholonomy().components, C)
    for x, y in pairs:
        got = np.array(commutator(x, y).components, dtype=object)
        assert_same_trees(got, ref_commutator(x, y, C))


def test_connection_template_trees(setup):
    deriv = setup.deriv
    frame = deriv.frame
    if not isinstance(deriv, Connection):
        # seeded affine coefficients in the spec's frame
        fields = seeded_affine_fields(frame, np.random.default_rng(3), frame.dimension ** 2)
        deriv = Connection(frame, np.array([f.components for f in fields], dtype=object))
    template = ref_connection_template(deriv.gamma)
    for x in probe_fields(frame):
        bindings = dict(zip(component_symbols(frame.dimension), x.components))
        assert_same_trees(w_of(deriv, x).components, simplify(substitute(template, bindings)))


def test_vanishing_field_trees(setup):
    frame = setup.frame
    n = frame.dimension
    centre = [Const((lo + hi) / 2.0) for lo, hi in frame.chart.domain]
    draws = np.round(np.random.default_rng(7).uniform(-1.0, 1.0, (2, n, n)), 6)
    placeholders = [Sym(Symbol(f"@p{a}")) for a in range(n)]
    symbolic_mix = np.array([Sym(Symbol(f"@c{i}")) for i in range(n * n)], dtype=object)
    cases = [(centre, matops.constant_exprs(draws)), (placeholders, symbolic_mix.reshape(1, n, n))]
    for anchor, mixes in cases:
        got = vanishing_fields(frame, anchor, mixes)[n * n:]
        want = ref_mixed_fields(frame, anchor, mixes)
        assert len(got) == len(want)
        for field, comps in zip(got, want):
            assert_same_trees(np.array(field.components, dtype=object), comps)
