"""Curvature/torsion forms, tensors, operator oracles, and verdicts."""

import json
from pathlib import Path

import numpy as np
import pytest

from normframes import expr, matops
from normframes import (
    Connection,
    Const,
    FrameField,
    LieType,
    ProbeForms,
    SymbolicTransform,
    TensorField,
    VectorField,
    is_flat,
    is_torsion_free,
)
from normframes.cli import build_analysis_report, load_manifold_spec
from normframes.curvature import sampled_verdict
from normframes.geometry import IDENTITY_TOL
from normframes.expr import Sym, evaluate, simplify

from conftest import affine_fields, coordinate_spec, riemann_classical
from reference import (
    curvature_matrix,
    curvature_operator_oracle,
    curvature_tensor,
    integrability_residual,
    inverse_entries,
    to_vector,
    torsion_operator_oracle,
    torsion_tensor,
    torsion_vector,
    transform_connection,
    vanishes_on_chart,
)


def frame_pair(deriv):
    return deriv.frame.coordinate_vector(0), deriv.frame.coordinate_vector(1)


# ---------------------------------------------------------------------------
# matrix form


def test_zero_connection_curvature_matrix_vanishes(zero_connection):
    x, y = frame_pair(zero_connection)
    form = curvature_matrix(zero_connection, x, y)
    assert all(form.components[i, j] == Const(0.0) for i in range(2) for j in range(2))


def test_polar_curvature_matrix_vanishes_at_random_points(polar, polar_connection):
    x, y = frame_pair(polar_connection)
    form = curvature_matrix(polar_connection, x, y)
    rng = np.random.default_rng(139)
    for _ in range(20):
        pt = np.array([rng.uniform(1.0, 2.0), rng.uniform(0.0, 1.5)])
        assert np.max(np.abs(form.evaluate_at(pt))) <= 1e-10


def test_polar_flatness_against_classical_riemann_oracle(polar, polar_connection):
    oracle = riemann_classical(polar, polar_connection.gamma)
    ok, worst = vanishes_on_chart(oracle.flat, polar)
    assert ok, worst


def test_sphere_curvature_matrix_magnitude(sphere, sphere_connection):
    x, y = frame_pair(sphere_connection)
    form = curvature_matrix(sphere_connection, x, y)
    at = np.array([np.pi / 4, 0.3])
    vals = form.evaluate_at(at)
    # |R^1_2| = sin^2(pi/4) = 0.5; the sign is whatever the formula produces
    assert abs(abs(vals[0, 1]) - 0.5) <= 1e-10
    oracle = to_vector(curvature_operator_oracle(
        sphere_connection, x, y, TensorField.from_vector(y)
    ))
    assert abs(vals[0, 1] - oracle.at(at)[0]) <= 1e-10


def test_curvature_matrix_antisymmetric_in_fields(sphere, sphere_connection):
    fields = affine_fields(sphere_connection.frame, 149, 2)
    x, y = fields
    fwd = curvature_matrix(sphere_connection, x, y)
    rev = curvature_matrix(sphere_connection, y, x)
    for pt in sphere.sample_points(10, 151):
        assert np.max(np.abs(fwd.evaluate_at(pt) + rev.evaluate_at(pt))) <= 1e-10


def test_curvature_matrix_function_linear_in_x(sphere, sphere_connection):
    th, ph = sphere.symbols
    frame = sphere_connection.frame
    x = VectorField(frame, [Const(1.0), Sym(th)])
    y = VectorField(frame, [Sym(ph), Const(1.0)])
    f = Sym(th) * Sym(th) + Const(0.5)
    scaled = curvature_matrix(sphere_connection, x.scaled(f), y)
    plain = curvature_matrix(sphere_connection, x, y)
    rng = np.random.default_rng(157)
    for _ in range(10):
        pt = np.array([rng.uniform(0.5, 2.5), rng.uniform(0.2, 6.0)])
        f_val = evaluate(f, sphere.assignment(pt))
        assert np.max(np.abs(scaled.evaluate_at(pt) - f_val * plain.evaluate_at(pt))) <= 1e-9


# ---------------------------------------------------------------------------
# torsion vector


def test_torsion_vector_antisymmetry_in_same_field(polar, polar_connection):
    frame = polar_connection.frame
    r, th = polar.symbols
    x = VectorField(frame, [Sym(th), Sym(r)])
    out = torsion_vector(polar_connection, x, x)
    assert [simplify(c) for c in out.components] == [Const(0.0), Const(0.0)]


def test_polar_torsion_vanishes_on_probe_pairs(polar, polar_connection):
    fields = [polar_connection.frame.coordinate_vector(i) for i in range(2)]
    fields += affine_fields(polar_connection.frame, 163, 2)
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            out = torsion_vector(polar_connection, fields[i], fields[j])
            _, worst = vanishes_on_chart(out.components, polar)
            assert worst <= 1e-10


def test_torsion_fixture_components(torsion_plane):
    x, y = frame_pair(torsion_plane)
    out = torsion_vector(torsion_plane, x, y)
    # Eq-level evaluation: W_{E1} column contraction gives (-1, 0)
    assert [simplify(c) for c in out.components] == [Const(-1.0), Const(0.0)]
    # cross-check through the S-template identity form: S_X Y - S_Y X + [X,Y]
    oracle = torsion_operator_oracle(torsion_plane, x, y)
    assert [simplify(c) for c in oracle.components] == [Const(-1.0), Const(0.0)]


# ---------------------------------------------------------------------------
# tensors


def test_zero_connection_tensors_vanish(zero_connection):
    r_tensor = curvature_tensor(zero_connection)
    t_tensor = torsion_tensor(zero_connection)
    assert all(e == Const(0.0) for e in r_tensor.components.flat)
    assert all(e == Const(0.0) for e in t_tensor.components.flat)


def test_polar_curvature_tensor_vanishes_identically(polar, polar_connection):
    tensor = curvature_tensor(polar_connection)
    ok, worst = vanishes_on_chart(tensor.components.flat, polar)
    assert ok, worst


def test_sphere_curvature_tensor_value_and_sign(sphere, sphere_connection):
    tensor = curvature_tensor(sphere_connection)
    for pt in sphere.sample_points(10, 167):
        vals = tensor.evaluate_at(pt)
        s2 = np.sin(pt[0]) ** 2
        # recorded output of the component formula: R^1_{212} = +sin^2(theta)
        assert abs(vals[0, 1, 0, 1] - s2) <= 1e-10
        assert abs(vals[0, 1, 1, 0] + s2) <= 1e-10  # antisymmetry in the last legs


def test_curvature_tensor_antisymmetric_in_last_indices(sphere, sphere_connection):
    tensor = curvature_tensor(sphere_connection)
    for pt in sphere.sample_points(8, 173):
        vals = tensor.evaluate_at(pt)
        assert np.max(np.abs(vals + np.swapaxes(vals, 2, 3))) <= 1e-12


def test_symmetric_gamma_coordinate_frame_torsion_free(polar, polar_connection):
    tensor = torsion_tensor(polar_connection)
    ok, worst = vanishes_on_chart(tensor.components.flat, polar)
    assert ok, worst


def test_torsion_tensor_fixture_values(torsion_plane):
    tensor = torsion_tensor(torsion_plane)
    assert tensor.components[0, 0, 1] == Const(-1.0)
    assert tensor.components[0, 1, 0] == Const(1.0)
    others = [
        tensor.components[idx]
        for idx in np.ndindex(2, 2, 2)
        if idx not in ((0, 0, 1), (0, 1, 0))
    ]
    assert all(e == Const(0.0) for e in others)


ROOT = Path(__file__).resolve().parent.parent
CONNECTION_SPECS = [
    ROOT / "demos" / "specs" / f"{name}.json"
    for name in ("polar_euclidean", "unit_sphere", "flat_with_torsion", "orthonormal_polar",
                 "zero_connection")
] + [ROOT / "benchmarks" / "specs" / "sph3_orthonormal.json"]


@pytest.mark.parametrize("path", CONNECTION_SPECS, ids=lambda p: p.stem)
def test_torsion_tensor_of_a_connection_is_the_gamma_formula(path):
    # T^i_{kl} = -(G^i_{kl} - G^i_{lk}) - C^i_{kl}, tree for tree
    deriv = load_manifold_spec(str(path)).deriv
    n = deriv.frame.dimension
    g, C = deriv.gamma, deriv.frame.anholonomy()
    tensor = torsion_tensor(deriv)
    for i, k, l in np.ndindex(n, n, n):
        acc = -(g[i, k, l] - g[i, l, k])
        if not C.is_zero:
            acc = acc - C.components[i, k, l]
        assert tensor.components[i, k, l] == simplify(acc), (path.stem, i, k, l)


def test_torsion_tensor_of_lie_type_is_the_torsion_on_frame_pairs(polar, polar_orthonormal_frame):
    # for the Lie type T(E_k, E_l) = [E_k, E_l] = C^i_{kl} E_i; not a tensor, but
    # its frame-pair values still match the torsion form
    deriv = LieType(polar_orthonormal_frame)
    tensor = torsion_tensor(deriv)
    forms = [tensor.components[i, k, l] - c for (i, k, l), c in
             np.ndenumerate(polar_orthonormal_frame.anholonomy().components)]
    for k in range(2):
        for l in range(2):
            e_k, e_l = (polar_orthonormal_frame.coordinate_vector(a) for a in (k, l))
            t_kl = torsion_vector(deriv, e_k, e_l).components
            forms += [tensor.components[i, k, l] - t_kl[i] for i in range(2)]
    ok, worst = vanishes_on_chart(forms, polar)
    assert ok, worst


def test_zero_gamma_in_anholonomic_frame_torsion_is_minus_c(polar, polar_orthonormal_frame):
    deriv = Connection(polar_orthonormal_frame, np.zeros((2, 2, 2)))
    tensor = torsion_tensor(deriv)
    anhol = polar_orthonormal_frame.anholonomy()
    for pt in polar.sample_points(10, 179):
        t_vals = tensor.evaluate_at(pt)
        c_vals = anhol.evaluate_at(pt)
        assert np.max(np.abs(t_vals + c_vals)) <= 1e-12
        assert np.max(np.abs(c_vals)) > 0.1  # genuinely anholonomic


# ---------------------------------------------------------------------------
# operator oracles


def test_oracle_zero_everything(zero_connection):
    x, y = frame_pair(zero_connection)
    z = TensorField.from_vector(y)
    out = curvature_operator_oracle(zero_connection, x, y, z)
    assert all(e == Const(0.0) for e in out.components.flat)


def test_curvature_operator_on_scalar_vanishes(sphere, sphere_connection):
    frame = sphere_connection.frame
    th, ph = sphere.symbols
    fields = affine_fields(frame, 181, 2)
    f = TensorField(frame, 0, 0, Sym(th) * Sym(ph))
    out = curvature_operator_oracle(sphere_connection, fields[0], fields[1], f)
    _, worst = vanishes_on_chart([out.components[()]], sphere)
    assert worst <= 1e-9


def test_sphere_oracle_matches_matrix_columns(sphere, sphere_connection):
    x, y = frame_pair(sphere_connection)
    form = curvature_matrix(sphere_connection, x, y)
    rng = np.random.default_rng(191)
    for j in range(2):
        ej = sphere_connection.frame.coordinate_vector(j)
        out = to_vector(curvature_operator_oracle(
            sphere_connection, x, y, TensorField.from_vector(ej)
        ))
        for _ in range(20):
            pt = np.array([rng.uniform(0.5, 2.5), rng.uniform(0.2, 6.0)])
            assert np.max(np.abs(out.at(pt) - form.evaluate_at(pt)[:, j])) <= 1e-8


def test_lie_torsion_oracle_equals_component_form(lie_plane, plane):
    fields = affine_fields(lie_plane.frame, 193, 2)
    x, y = fields
    op = torsion_operator_oracle(lie_plane, x, y)
    comp = torsion_vector(lie_plane, x, y)
    rng = np.random.default_rng(197)
    for _ in range(10):
        pt = rng.uniform(-0.9, 0.9, 2)
        assert np.max(np.abs(op.at(pt) - comp.at(pt))) <= 1e-10


def test_torsion_fixture_oracle_agreement(torsion_plane):
    fields = affine_fields(torsion_plane.frame, 199, 2)
    x, y = fields
    op = torsion_operator_oracle(torsion_plane, x, y)
    comp = torsion_vector(torsion_plane, x, y)
    rng = np.random.default_rng(211)
    for _ in range(10):
        pt = rng.uniform(-0.4, 0.4, 2)
        assert np.max(np.abs(op.at(pt) - comp.at(pt))) <= 1e-10


# ---------------------------------------------------------------------------
# cross-route equivalences over every fixture (the heart of the suite)


def _probe_points(chart, rng, count=20):
    lo = np.array([a for a, _ in chart.domain])
    hi = np.array([b for _, b in chart.domain])
    return lo + rng.random((count, chart.dimension)) * (hi - lo)


def test_curvature_three_routes_agree_on_all_fixtures(all_fixture_derivations):
    rng = np.random.default_rng(223)
    for name, deriv in all_fixture_derivations.items():
        frame = deriv.frame
        x, y = frame.coordinate_vector(0), frame.coordinate_vector(1)
        form = curvature_matrix(deriv, x, y)
        columns = []
        for j in range(2):
            ej = frame.coordinate_vector(j)
            columns.append(
                to_vector(curvature_operator_oracle(deriv, x, y, TensorField.from_vector(ej)))
            )
        tensor = curvature_tensor(deriv) if isinstance(deriv, Connection) else None
        for pt in _probe_points(deriv.chart, rng):
            m = form.evaluate_at(pt)
            for j in range(2):
                assert np.max(np.abs(columns[j].at(pt) - m[:, j])) <= 1e-8, name
            if tensor is not None:
                r_vals = tensor.evaluate_at(pt)
                contracted = r_vals[:, :, 0, 1]  # X = E_1, Y = E_2
                assert np.max(np.abs(contracted - m)) <= 1e-8, name


def test_torsion_three_routes_agree_on_all_fixtures(all_fixture_derivations):
    rng = np.random.default_rng(227)
    for name, deriv in all_fixture_derivations.items():
        frame = deriv.frame
        x, y = frame.coordinate_vector(0), frame.coordinate_vector(1)
        comp = torsion_vector(deriv, x, y)
        op = torsion_operator_oracle(deriv, x, y)
        tensor = torsion_tensor(deriv) if isinstance(deriv, Connection) else None
        for pt in _probe_points(deriv.chart, rng):
            a = comp.at(pt)
            b = op.at(pt)
            assert np.max(np.abs(a - b)) <= 1e-9, name
            if tensor is not None:
                t_vals = tensor.evaluate_at(pt)
                assert np.max(np.abs(t_vals[:, 0, 1] - a)) <= 1e-9, name


def test_curvature_tensor_frame_covariance(polar, polar_connection):
    frame = polar_connection.frame
    r, th = polar.symbols
    transform = SymbolicTransform(frame, [[Sym(r), Const(0.0)], [Sym(th), Const(1.0)]])
    pushed = transform_connection(polar_connection, transform)
    direct = curvature_tensor(pushed)
    source = curvature_tensor(polar_connection)
    a = transform.entries
    a_inv = inverse_entries(transform)
    rng = np.random.default_rng(229)
    from normframes import matops

    for _ in range(10):
        pt = np.array([rng.uniform(1.0, 2.0), rng.uniform(0.05, 1.5)])
        asg = polar.assignment(pt)
        a_val = matops.evaluate_array(a, asg)
        inv_val = matops.evaluate_array(a_inv, asg)
        r_val = source.evaluate_at(pt)
        expected = np.einsum("Ii,ijkl,jJ,kK,lL->IJKL", inv_val, r_val, a_val, a_val, a_val)
        assert np.max(np.abs(direct.evaluate_at(pt) - expected)) <= 1e-8


# ---------------------------------------------------------------------------
# integrability residual and verdicts


def test_integrability_zero_connection_identity_transform(zero_connection):
    x, y = frame_pair(zero_connection)
    report = integrability_residual(
        zero_connection, x, y, SymbolicTransform.identity(zero_connection.frame)
    )
    assert report.max_residual <= 1e-12
    assert report.obstruction_norm <= 1e-12


def test_integrability_sphere_obstruction_at_quarter_pi(sphere, sphere_connection):
    x, y = frame_pair(sphere_connection)
    report = integrability_residual(
        sphere_connection,
        x,
        y,
        SymbolicTransform.identity(sphere_connection.frame),
        points=[np.array([np.pi / 4, 0.3])],
    )
    assert report.obstruction_norm >= 0.1
    # the (1,2) entry is sin^2(pi/4) = 0.5 exactly
    form = curvature_matrix(sphere_connection, x, y)
    assert abs(form.evaluate_at([np.pi / 4, 0.3])[0, 1]) == pytest.approx(0.5, abs=1e-10)


def test_verdicts_on_fixture_matrix(all_fixture_derivations):
    flat_expect = {"zero": True, "polar": True, "sphere": False, "torsion": True, "lie": True}
    tfree_expect = {"zero": True, "polar": True, "sphere": True, "torsion": False, "lie": False}
    for name, deriv in all_fixture_derivations.items():
        flat = is_flat(deriv)
        tfree = is_torsion_free(deriv)
        assert bool(flat) == flat_expect[name], (name, flat.max_residual)
        assert bool(tfree) == tfree_expect[name], (name, tfree.max_residual)
        if not flat_expect[name]:
            assert flat.max_residual > 1e-3
        if not tfree_expect[name]:
            assert tfree.max_residual > 1e-3


def test_integrability_residual_on_transported_closed_form(polar, polar_connection):
    # the Cartesian frame in polar coordinates solves the frame equations,
    # so the compatibility identity must hold for it along any field pair
    from normframes.expr import parse_expr

    entries = [
        [parse_expr("cos(theta)", polar.symbols), parse_expr("sin(theta)", polar.symbols)],
        [parse_expr("-sin(theta)/r", polar.symbols), parse_expr("cos(theta)/r", polar.symbols)],
    ]
    transform = SymbolicTransform(polar_connection.frame, entries)
    x, y = frame_pair(polar_connection)
    report = integrability_residual(polar_connection, x, y, transform)
    assert report.max_residual <= 1e-6
    assert report.obstruction_norm <= 1e-10


def test_torsion_vector_antisymmetric_under_swap(torsion_plane):
    fields = affine_fields(torsion_plane.frame, 239, 2)
    x, y = fields
    fwd = torsion_vector(torsion_plane, x, y)
    rev = torsion_vector(torsion_plane, y, x)
    op = torsion_operator_oracle(torsion_plane, x, x)
    rng = np.random.default_rng(241)
    for _ in range(10):
        pt = rng.uniform(-0.4, 0.4, 2)
        assert np.max(np.abs(fwd.at(pt) + rev.at(pt))) <= 1e-10
        assert np.max(np.abs(op.at(pt))) <= 1e-12  # oracle with X = Y


def _analyze_spec(name: str):
    """Load a benchmark spec and build its analysis report; the setup."""
    setup = load_manifold_spec(str(ROOT / "benchmarks" / "specs" / f"{name}.json"))
    build_analysis_report(setup, np.array([(lo + hi) / 2.0 for lo, hi in setup.chart.domain]), 42)
    return setup


@pytest.mark.parametrize("name", ["s4_template", "lie_plane", "sph3_orthonormal"])
def test_analysis_builds_one_w_per_field(w_builds, name):
    _analyze_spec(name)
    # no W tree at all: the forms run jets of the connection coefficients, or
    # of the W template at the probe fields, and the linearity probe and its
    # Gammas are one run of the template tape on the probe fields' numbers
    assert w_builds == []


def test_warm_analysis_derives_each_field_once(monkeypatch):
    _analyze_spec("s4_template")
    calls = []
    real = FrameField.frame_derivatives

    def recording(frame, f):
        calls.append(f)
        return real(frame, f)

    monkeypatch.setattr(FrameField, "frame_derivatives", recording)
    _analyze_spec("s4_template")
    # the anholonomy, and E_k(X^i) of the 8 probe fields of the forms (they
    # take every other derivative from jets, and build no commutator field);
    # the linearity probe derives nothing, its E_k(X^i) are sums over the
    # frame matrix, and its witness is built, not derived
    assert len(calls) == 1 + 8


def test_field_caches_are_read_only_shared_and_change_no_tree(lie_plane):
    forms = ProbeForms(lie_plane)
    x, y = forms.pairs[-1]
    cached = x.component_derivatives
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = Const(1.0)
    assert x.component_derivatives is cached
    frame = lie_plane.frame
    assert all(frame.coordinate_vector(k) is frame.coordinate_vector(k) for k in range(2))
    # caching changes no value: the forms match those of new objects, a new
    # frame's basis fields and a new derivation, whose caches are empty
    points = lie_plane.chart.sample_points()
    fresh = ProbeForms(LieType(FrameField(lie_plane.chart)))
    for got, want in zip(forms.at(points), fresh.at(points)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [4, 6])
def test_curvature_tensor_compares_expressions_o_n4_times(n, tmp_path, monkeypatch):
    # one zero test of the anholonomy per call, not one per (i, j, k, l) entry
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(coordinate_spec(n)))
    deriv = load_manifold_spec(str(spec)).deriv
    calls = []
    equal = expr._Record.__eq__

    def counting(self, other):
        calls.append(None)
        return equal(self, other)

    monkeypatch.setattr(expr._Record, "__eq__", counting)
    curvature_tensor(deriv)
    assert len(calls) <= n**4


# ---------------------------------------------------------------------------
# the numeric forms against the symbolic oracle of tests/reference.py

SPEC_FILES = sorted((ROOT / "demos" / "specs").glob("*.json")) + sorted(
    (ROOT / "benchmarks" / "specs").glob("*.json")
)


def _oracle_forms(forms, points):
    """The symbolic forms of tests/reference.py at the points, shaped as
    ProbeForms.at gives them."""
    deriv = forms.deriv
    symbols = deriv.chart.symbols
    if isinstance(deriv, Connection):
        r = matops.evaluate_points(curvature_tensor(deriv).components, symbols, points)
        t = matops.evaluate_points(torsion_tensor(deriv).components, symbols, points)
        return r[:, None], t[:, None]
    r = [curvature_matrix(deriv, x, y).components for x, y in forms.pairs]
    t = [np.array(torsion_vector(deriv, x, y).components, dtype=object) for x, y in forms.pairs]
    r, t = matops.evaluate_arrays([np.stack(r), np.stack(t)], symbols, points)
    return r, t


@pytest.mark.parametrize("source", SPEC_FILES + [4, 5, 6],
                         ids=lambda s: f"{s}-D" if isinstance(s, int) else f"{s.parent.parent.name}/{s.stem}")
def test_numeric_forms_match_the_symbolic_oracle(tmp_path, source):
    if isinstance(source, int):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(coordinate_spec(source)))
        source = path
    setup = load_manifold_spec(str(source))
    chart = setup.chart
    centre = np.array([(lo + hi) / 2.0 for lo, hi in chart.domain])
    points = np.vstack([centre, chart.sample_points()])  # --at, then the cloud
    forms = ProbeForms(setup.deriv)
    for got, want in zip(forms.at(points), _oracle_forms(forms, points)):
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))).all()
        # the verdict each gives on the cloud
        worst = float(np.max(np.abs(want[1:])))
        assert bool(sampled_verdict(got[1:])) == (worst <= IDENTITY_TOL)


def test_analyze_folds_a_quarter_of_what_the_symbolic_forms_folded():
    # at the parent of the numeric forms, analyze s4_template made 59,164 _fold
    # visits, most of them building the curvature and torsion trees
    setup = load_manifold_spec(str(ROOT / "benchmarks" / "specs" / "s4_template.json"))
    calls = []
    real = expr._fold

    def counting(*args):
        calls.append(None)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "_fold", counting)
        build_analysis_report(setup, np.array([(lo + hi) / 2.0 for lo, hi in setup.chart.domain]), 42)
    assert 0 < len(calls) <= 59164 // 4
