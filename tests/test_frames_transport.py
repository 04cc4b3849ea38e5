"""Matrix transport along integral curves: correctness and convergence order."""

import numpy as np
import pytest

from normframes import (
    Chart,
    Connection,
    Const,
    CurveError,
    CurveSpec,
    FrameField,
    Symbol,
    VectorField,
    WTemplate,
    transport_along_curve,
)
from normframes import frames
from normframes.expr import Sym

S = Symbol("s")


@pytest.fixture(scope="module")
def line_chart():
    return Chart(("u",), ((-2.0, 2.0),))


def test_zero_components_transport_is_constant(zero_connection):
    curve = CurveSpec(exprs=(Sym(Symbol("s")), Const(0.0)), interval=(-0.9, 0.9), s0=0.0, step=1e-2)
    x = VectorField(zero_connection.frame, [Const(1.0), Const(0.0)])
    b0 = np.array([[2.0, 1.0], [0.0, 1.0]])
    result = transport_along_curve(zero_connection, x, curve, b0)
    for mat in result.matrices:
        assert np.allclose(mat, b0, atol=1e-14)


def test_constant_coefficient_transport_matches_exponential(line_chart):
    # W = -z with z = 1: A(s) = e^{s - s0} B0
    deriv = WTemplate(FrameField.coordinate(line_chart), [[Const(-1.0)]])
    x = VectorField(deriv.frame, [Const(1.0)])
    curve = CurveSpec(exprs=(Sym(S),), interval=(0.0, 1.0), s0=0.0, step=1e-3)
    result = transport_along_curve(deriv, x, curve, np.eye(1))
    idx = np.argmin(np.abs(result.s_values - 1.0))
    assert abs(result.s_values[idx] - 1.0) < 1e-9
    assert abs(result.matrices[idx][0, 0] - np.e) <= 1e-8


def test_backward_transport_from_interior_start(line_chart):
    deriv = WTemplate(FrameField.coordinate(line_chart), [[Const(-1.0)]])
    x = VectorField(deriv.frame, [Const(1.0)])
    curve = CurveSpec(exprs=(Sym(S),), interval=(-1.0, 1.0), s0=0.5, step=1e-3)
    result = transport_along_curve(deriv, x, curve, np.eye(1))
    for s, mat in zip(result.s_values[::97], result.matrices[::97]):
        assert abs(mat[0, 0] - np.exp(s - 0.5)) <= 1e-8


@pytest.fixture(scope="module")
def polar_circle(polar, polar_connection):
    curve = CurveSpec(
        exprs=(Const(1.0), Sym(S)), interval=(0.0, np.pi / 2), s0=0.0, step=1e-3
    )
    x = VectorField(polar_connection.frame, [Const(0.0), Const(1.0)])
    return curve, x


def rotation(s):
    return np.array([[np.cos(s), np.sin(s)], [-np.sin(s), np.cos(s)]])


def test_polar_circle_transport_matches_rotation(polar_connection, polar_circle):
    curve, x = polar_circle
    result = transport_along_curve(polar_connection, x, curve, np.eye(2))
    worst = max(
        float(np.max(np.abs(mat - rotation(s))))
        for s, mat in zip(result.s_values, result.matrices)
    )
    assert worst <= 1e-10
    # directional residual is the O(h^2) centered-difference defect
    assert result.max_directional_residual <= 10.0 * curve.step**2


def one_job_curve_matrices(deriv, x, curve, b0):
    """Reference: every segment of the curve in one kernel job, forward from
    s_i at and after the node nearest s0 and backward from s_{i+1} before it,
    carried node by node from b0 at that node."""
    s_values = curve.node_values()
    m_fn = frames.curve_direction_function(deriv, x, curve.exprs)
    base = int(np.argmin(np.abs(s_values - curve.s0)))
    ahead = np.arange(len(s_values) - 1) >= base
    starts = np.where(ahead, s_values[:-1], s_values[1:])[:, None]
    signed = np.where(ahead, 1.0, -1.0) * np.diff(s_values)
    props = frames._rk4_kernel([(m_fn, starts, 1.0, signed, 1)])[0]
    matrices = np.empty((len(s_values),) + b0.shape)
    matrices[base] = b0
    for i in range(base, len(s_values) - 1):
        matrices[i + 1] = props[i] @ matrices[i]
    for i in range(base, 0, -1):
        matrices[i - 1] = props[i - 1] @ matrices[i]
    return matrices


@pytest.mark.parametrize("s0", [0.0, 0.75, np.pi / 2], ids=["first", "interior", "last"])
def test_curve_lattice_equals_one_job_transport_bit_for_bit(polar_connection, polar_circle, s0):
    curve, x = polar_circle
    curve = CurveSpec(curve.exprs, curve.interval, s0, curve.step)
    b0 = np.array([[1.0, 0.5], [-0.25, 2.0]])
    result = transport_along_curve(polar_connection, x, curve, b0)
    assert np.array_equal(result.matrices, one_job_curve_matrices(polar_connection, x, curve, b0))


def test_directional_residuals_in_blocks_equal_the_whole_array_defect(polar_connection,
                                                                      polar_circle):
    curve, x = polar_circle
    curve = CurveSpec(curve.exprs, curve.interval, 0.75, 2e-4)  # 7,854 nodes: two blocks
    result = transport_along_curve(polar_connection, x, curve, np.eye(2))
    a, s = result.matrices, result.s_values
    assert len(s) > frames._M_CALL_POINTS + 2
    m_fn = frames.curve_direction_function(polar_connection, x, curve.exprs)
    defect = (a[2:] - a[:-2]) / (2.0 * curve.step) + frames._matrices(m_fn(s[1:-1]), 2) @ a[1:-1]
    assert np.array_equal(result.directional_residuals[1:-1], np.max(np.abs(defect), axis=(1, 2)))
    assert result.directional_residuals[0] == result.directional_residuals[-1] == 0.0


def test_polar_circle_components_vanish_along_tangent(polar_connection, polar_circle):
    # integrated form: re-transport every segment and normalize; this is the
    # transformed-component magnitude along the curve, free of FD error
    curve, x = polar_circle
    result = transport_along_curve(polar_connection, x, curve, np.eye(2))
    from normframes.expr import compile_exprs
    from normframes import w_of

    w_fn = compile_exprs(list(w_of(polar_connection, x).components.flat), polar_connection.chart.symbols)
    worst = 0.0
    h = curve.step
    for i in range(len(result.s_values) - 1):
        a = result.matrices[i]
        def m_at(s):
            point = frames.curve_points(result.field.chart, curve.exprs, [s])
            return np.array(w_fn(*point[0]), dtype=float).reshape(2, 2)
        s0 = float(result.s_values[i])
        m0, mm, m1 = m_at(s0), m_at(s0 + 0.5 * h), m_at(s0 + h)
        k1 = -(m0 @ a)
        k2 = -(mm @ (a + 0.5 * h * k1))
        k3 = -(mm @ (a + 0.5 * h * k2))
        k4 = -(m1 @ (a + h * k3))
        carried = a + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        target = result.matrices[i + 1]
        worst = max(worst, float(np.max(np.abs(np.linalg.solve(target, carried - target)))) / h)
    assert worst <= 1e-8


def test_polar_circle_orthogonality_preserved(polar_connection, polar_circle):
    curve, x = polar_circle
    result = transport_along_curve(polar_connection, x, curve, np.eye(2))
    for mat in result.matrices[::50]:
        assert np.max(np.abs(mat @ mat.T - np.eye(2))) <= 1e-8
        assert abs(np.linalg.det(mat) - 1.0) <= 1e-8


def test_fine_step_oracle_agreement(polar_connection, polar_circle):
    curve, x = polar_circle
    coarse = transport_along_curve(polar_connection, x, curve, np.eye(2))
    fine_curve = CurveSpec(curve.exprs, curve.interval, curve.s0, curve.step / 10.0)
    fine = transport_along_curve(polar_connection, x, fine_curve, np.eye(2))
    # coarse node k sits at fine node 10k
    for k in range(0, len(coarse.s_values), 100):
        assert abs(coarse.s_values[k] - fine.s_values[10 * k]) < 1e-9
        assert np.max(np.abs(coarse.matrices[k] - fine.matrices[10 * k])) <= 1e-8


def test_transport_fourth_order_convergence(polar_connection, polar_circle):
    curve, x = polar_circle
    errors = {}
    for h in (4e-3, 2e-3, 1e-3):
        spec = CurveSpec(curve.exprs, curve.interval, curve.s0, h)
        result = transport_along_curve(polar_connection, x, spec, np.eye(2))
        errors[h] = max(
            float(np.max(np.abs(mat - rotation(s))))
            for s, mat in zip(result.s_values, result.matrices)
        )
    assert errors[4e-3] / errors[2e-3] >= 8.0
    assert errors[2e-3] / errors[1e-3] >= 8.0


def test_transport_linear_in_initial_condition(polar_connection, polar_circle):
    curve, x = polar_circle
    c1 = np.array([[1.0, 0.5], [0.0, 2.0]])
    c2 = np.array([[0.0, -1.0], [1.0, 1.0]])
    combined = transport_along_curve(polar_connection, x, curve, c1 @ c2)
    base = transport_along_curve(polar_connection, x, curve, c1)
    for k in range(0, len(base.s_values), 157):
        assert np.max(np.abs(combined.matrices[k] - base.matrices[k] @ c2)) <= 1e-8


def test_non_integral_curve_rejected(polar_connection):
    # radial motion is not an integral curve of the angular field
    curve = CurveSpec(exprs=(Sym(S), Const(0.2)), interval=(1.0, 1.8), s0=1.0, step=1e-2)
    x = VectorField(polar_connection.frame, [Const(0.0), Const(1.0)])
    with pytest.raises(CurveError, match="integral curve"):
        transport_along_curve(polar_connection, x, curve, np.eye(2))


def test_curve_leaving_domain_rejected(polar_connection):
    curve = CurveSpec(exprs=(Const(1.0), Sym(S)), interval=(0.0, 3.0), s0=0.0, step=1e-2)
    x = VectorField(polar_connection.frame, [Const(0.0), Const(1.0)])
    with pytest.raises(CurveError, match="domain"):
        transport_along_curve(polar_connection, x, curve, np.eye(2))


def test_anholonomic_frame_transport(polar, polar_orthonormal_frame):
    # same geometry through a non-coordinate frame: W along E_2 is constant
    deriv = Connection(polar_orthonormal_frame, np.zeros((2, 2, 2)))
    curve = CurveSpec(exprs=(Const(1.0), Sym(S)), interval=(0.0, 1.5), s0=0.0, step=1e-3)
    r, _ = polar.symbols
    # integral curve of (1/r) d_theta at r=1 runs at unit angular speed
    x = VectorField(polar_orthonormal_frame, [Const(0.0), Const(1.0)])
    result = transport_along_curve(deriv, x, curve, np.eye(2))
    # Gamma = 0 in this frame means W_X = 0: transport is constant
    for mat in result.matrices[::100]:
        assert np.allclose(mat, np.eye(2), atol=1e-12)
