"""Charts, frames, anholonomy, commutators, frame changes."""

import numpy as np
import pytest

from normframes import (
    Chart,
    Const,
    DegenerateFrameError,
    DomainError,
    FrameField,
    SymbolicTransform,
    VectorField,
    anholonomy_coefficients,
    commutator,
)
from normframes import geometry, matops
from normframes.expr import Sym, evaluate, simplify

from conftest import affine_fields
from reference import change_vector_frame, curvature_tensor, torsion_tensor, vanishes_on_chart


def test_chart_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Chart(("x", "x"), ((0.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize("name", ["@p0", "x 1", "1x"])
def test_chart_rejects_names_expressions_cannot_reference(name):
    with pytest.raises(ValueError, match="identifiers"):
        Chart((name, "y"), ((0.0, 1.0), (0.0, 1.0)))


def test_chart_rejects_empty_interval():
    with pytest.raises(ValueError):
        Chart(("x",), ((1.0, 1.0),))


def test_sample_points_deterministic(polar):
    a = polar.sample_points(16, seed=9)
    b = polar.sample_points(16, seed=9)
    assert np.array_equal(a, b)
    for pt in a:
        assert polar.contains(pt)


def test_sample_cloud_is_drawn_once_per_chart_count_and_seed(monkeypatch):
    chart = Chart(("r", "theta"), ((1.0, 2.0), (0.0, 1.6)))
    draws, stream = [], geometry.Generator
    monkeypatch.setattr(geometry, "Generator", lambda seed: draws.append(seed) or stream(seed))
    cloud = chart.sample_points()
    assert chart.sample_points() is cloud and chart.sample_points(64, 42) is cloud
    small = chart.sample_points(16, seed=9)
    assert chart.sample_points(16, seed=9) is small and draws == [42, 9]
    with pytest.raises(ValueError, match="read-only"):
        cloud[0, 0] = 0.0
    # numpy's default_rng cloud, bit for bit; the cache is no part of a chart's identity
    lo, hi = np.array([1.0, 0.0]), np.array([2.0, 1.6])
    assert cloud.tobytes() == (lo + np.random.default_rng(42).random((64, 2)) * (hi - lo)).tobytes()
    twin = Chart(chart.coordinates, chart.domain)
    assert twin == chart and hash(twin) == hash(chart)


# ---------------------------------------------------------------------------
# frame derivatives


def test_coordinate_frame_derivative_is_partial(plane, plane_frame):
    x1, x2 = plane.symbols
    f = Sym(x1) * Sym(x2)
    e1f = plane_frame.frame_derivative(0, f)
    for pt in plane.sample_points(8, 3):
        assert evaluate(e1f, plane.assignment(pt)) == pytest.approx(pt[1], rel=1e-14)


def test_orthonormal_polar_frame_derivative(polar, polar_orthonormal_frame):
    _, theta = polar.symbols
    e2_theta = polar_orthonormal_frame.frame_derivative(1, Sym(theta))
    for pt in polar.sample_points(8, 4):
        assert evaluate(e2_theta, polar.assignment(pt)) == pytest.approx(1.0 / pt[0], rel=1e-13)


def test_frame_derivative_of_constant_vanishes(polar_orthonormal_frame):
    for i in range(2):
        assert simplify(polar_orthonormal_frame.frame_derivative(i, Const(3.0))) == Const(0.0)


def test_degenerate_frame_rejected(plane):
    x1, _ = plane.symbols
    with pytest.raises(DegenerateFrameError):
        FrameField(plane, [[Sym(x1), Sym(x1)], [Const(1.0), Const(1.0)]])


def test_singular_frame_and_transform_messages_print_plain_floats(plane):
    singular = [[Const(1.0), Const(1.0)], [Const(1.0), Const(1.0)]]
    with pytest.raises(DegenerateFrameError, match=r"^frame determinant 0\.0 at \["):
        FrameField(plane, singular)
    with pytest.raises(DegenerateFrameError, match=r"^transform is singular at \[.*\] \(det=0\.0\)$"):
        SymbolicTransform(FrameField(plane), singular)


# ---------------------------------------------------------------------------
# anholonomy


def test_coordinate_frame_anholonomy_vanishes(polar_connection):
    anhol = polar_connection.frame.anholonomy()
    ok, worst = vanishes_on_chart(anhol.components.flat, polar_connection.chart)
    assert ok and worst == 0.0


def test_constant_frame_anholonomy_vanishes(plane):
    frame = FrameField(plane, [[Const(2.0), Const(1.0)], [Const(0.0), Const(1.0)]])
    anhol = anholonomy_coefficients(frame)
    assert anhol.is_zero


def test_orthonormal_polar_anholonomy(polar, polar_orthonormal_frame):
    anhol = anholonomy_coefficients(polar_orthonormal_frame)
    for pt in polar.sample_points(12, 5):
        vals = anhol.evaluate_at(pt)
        r = pt[0]
        expected = np.zeros((2, 2, 2))
        expected[1, 0, 1] = -1.0 / r
        expected[1, 1, 0] = +1.0 / r
        assert np.max(np.abs(vals - expected)) <= 1e-12


def test_anholonomy_against_nested_derivative_oracle(polar, polar_orthonormal_frame):
    # [E_j, E_k](x^a) = E_j(E_k(x^a)) - E_k(E_j(x^a)) must equal C^i_{jk} B^a_i
    frame = polar_orthonormal_frame
    anhol = frame.anholonomy()
    syms = polar.symbols
    for j in range(2):
        for k in range(2):
            for a in range(2):
                lhs = simplify(
                    frame.frame_derivative(j, frame.frame_derivative(k, Sym(syms[a])))
                    - frame.frame_derivative(k, frame.frame_derivative(j, Sym(syms[a])))
                )
                rhs = simplify(
                    anhol.components[0, j, k] * frame.matrix[a, 0]
                    + anhol.components[1, j, k] * frame.matrix[a, 1]
                )
                for pt in polar.sample_points(6, 8):
                    asg = polar.assignment(pt)
                    assert evaluate(lhs, asg) == pytest.approx(evaluate(rhs, asg), abs=1e-11)


def test_anholonomy_antisymmetric_by_construction(polar_orthonormal_frame):
    anhol = polar_orthonormal_frame.anholonomy()
    for i in range(2):
        for j in range(2):
            for k in range(2):
                total = simplify(anhol.components[i, j, k] + anhol.components[i, k, j])
                assert total == Const(0.0)


# ---------------------------------------------------------------------------
# commutators


def test_commutator_with_self_vanishes(plane, plane_frame):
    x1, x2 = plane.symbols
    x = VectorField(plane_frame, [Sym(x1) * Sym(x2), Sym(x2)])
    brk = commutator(x, x)
    for c in brk.components:
        assert simplify(c) == Const(0.0)


def test_commutator_hand_cases(plane, plane_frame):
    x1, x2 = plane.symbols
    x = VectorField(plane_frame, [Sym(x1), Const(0.0)])
    y = VectorField(plane_frame, [Const(0.0), Const(1.0)])
    brk = commutator(x, y)
    assert [simplify(c) for c in brk.components] == [Const(0.0), Const(0.0)]

    x = VectorField(plane_frame, [Sym(x2), Const(0.0)])
    brk = commutator(x, y)
    assert [simplify(c) for c in brk.components] == [Const(-1.0), Const(0.0)]


def test_jacobi_identity(plane, plane_frame):
    fields = affine_fields(plane_frame, 21, 3)
    x, y, z = fields
    total = [
        commutator(x, commutator(y, z)),
        commutator(y, commutator(z, x)),
        commutator(z, commutator(x, y)),
    ]
    rng = np.random.default_rng(13)
    for _ in range(20):
        pt = rng.uniform(-0.9, 0.9, 2)
        acc = sum(term.at(pt) for term in total)
        assert np.max(np.abs(acc)) <= 1e-8


def test_commutator_frame_covariance(polar, polar_connection, polar_orthonormal_frame):
    # same geometric fields, two frames: coordinate components of [X,Y] agree
    coord = polar_connection.frame
    orth = polar_orthonormal_frame
    r, th = polar.symbols

    # X = r d_r, Y = d_theta expressed in both frames
    x_coord = VectorField(coord, [Sym(r), Const(0.0)])
    y_coord = VectorField(coord, [Const(0.0), Const(1.0)])
    x_orth = VectorField(orth, [Sym(r), Const(0.0)])
    y_orth = VectorField(orth, [Const(0.0), Sym(r)])  # d_theta = r * (1/r d_theta)

    brk_coord = commutator(x_coord, y_coord)
    brk_orth = commutator(x_orth, y_orth)
    for pt in polar.sample_points(20, 17):
        coord_components = brk_coord.coordinate_components_at(pt)
        orth_components = brk_orth.coordinate_components_at(pt)
        assert np.max(np.abs(coord_components - orth_components)) <= 1e-9


# ---------------------------------------------------------------------------
# frame changes


def test_change_frame_identity(plane, plane_frame):
    x1, _ = plane.symbols
    x = VectorField(plane_frame, [Sym(x1), Const(1.0)])
    out = change_vector_frame(x, SymbolicTransform.identity(plane_frame))
    for pt in plane.sample_points(6, 19):
        assert np.allclose(out.at(pt), x.at(pt))


def test_change_frame_scaling_halves_components(plane, plane_frame):
    x1, _ = plane.symbols
    x = VectorField(plane_frame, [Sym(x1), Const(1.0)])
    doubled = SymbolicTransform(plane_frame, matops.constant_exprs(2.0 * np.eye(2)))
    out = change_vector_frame(x, doubled)
    for pt in plane.sample_points(6, 23):
        assert np.allclose(out.at(pt), 0.5 * x.at(pt))


def test_change_frame_preserves_geometric_vector(polar, polar_connection):
    frame = polar_connection.frame
    r, th = polar.symbols
    x = VectorField(frame, [Sym(th) + 1, Sym(r)])
    entries = [[Sym(r), Const(0.0)], [Sym(th), Const(1.0)]]
    transform = SymbolicTransform(frame, entries)
    out = change_vector_frame(x, transform)
    rng = np.random.default_rng(29)
    for _ in range(20):
        pt = np.array([rng.uniform(1.0, 2.0), rng.uniform(0.05, 1.5)])
        before = x.coordinate_components_at(pt)
        after = out.coordinate_components_at(pt)
        assert np.max(np.abs(before - after)) <= 1e-10


# ---------------------------------------------------------------------------
# one compiled evaluation path for point sets


@pytest.fixture(scope="module")
def fixture_arrays(polar, sphere, polar_connection, sphere_connection, torsion_plane,
                   polar_orthonormal_frame):
    return {
        "polar curvature": (curvature_tensor(polar_connection).components, polar),
        "sphere curvature": (curvature_tensor(sphere_connection).components, sphere),
        "sphere torsion": (torsion_tensor(sphere_connection).components, sphere),
        "plane torsion": (torsion_tensor(torsion_plane).components, torsion_plane.chart),
        "orthonormal anholonomy": (polar_orthonormal_frame.anholonomy().components, polar),
    }


@pytest.mark.parametrize(
    "name",
    ["polar curvature", "sphere curvature", "sphere torsion", "plane torsion",
     "orthonormal anholonomy"],
)
def test_evaluate_points_matches_pointwise_tree_walk(fixture_arrays, name):
    array, chart = fixture_arrays[name]
    points = chart.sample_points()
    expected = np.stack([matops.evaluate_array(array, chart.assignment(p)) for p in points])
    got = matops.evaluate_points(array, chart.symbols, points)
    assert got.shape == (len(points),) + array.shape
    assert np.all(np.abs(got - expected) <= 1e-12 * (1.0 + np.abs(expected)))


@pytest.mark.parametrize(
    "name, pole", [("sphere curvature", [0.0, 1.0]), ("orthonormal anholonomy", [0.0, 0.5])]
)
def test_evaluate_points_raises_at_a_pole_like_the_tree_walk(fixture_arrays, name, pole):
    array, chart = fixture_arrays[name]
    with pytest.raises(DomainError):
        matops.evaluate_array(array, chart.assignment(pole))
    with pytest.raises(DomainError):
        matops.evaluate_points(array, chart.symbols, [chart.sample_points()[0], pole])
