"""Neighborhood-wide frames on grids: construction, audits, holonomicity,
constancy of the relating transforms."""

import math

import numpy as np
import pytest

from normframes import (
    Connection,
    Const,
    GridSpec,
    GridTooCoarseError,
    NotFlatError,
    NotLinearConnectionError,
    PointFrameSpec,
    SymbolicTransform,
    constancy_check,
    flat_frame_neighborhood,
    frame_at_point_connection,
    holonomicity_check,
    torsion_tensor,
)
from normframes.frames import direction_functions, edge_propagators


def cartesian_in_polar(r, theta):
    """The Cartesian frame written in polar coordinates; the closed-form
    solution family of the polar frame equations (up to a constant factor)."""
    return np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta) / r, np.cos(theta) / r]]
    )


# ---------------------------------------------------------------------------
# construction


def test_zero_connection_grid_is_constant(zero_connection):
    b0 = np.array([[1.0, 1.0], [0.0, 2.0]])
    frame = flat_frame_neighborhood(zero_connection, GridSpec((7, 7)), b0=b0, h=1e-3)
    for idx in np.ndindex(7, 7):
        assert np.allclose(frame.matrices[idx], b0, atol=1e-13)


def test_polar_flat_frame_meets_tolerances(polar_flat_frame):
    assert polar_flat_frame.gamma_prime_residual <= 1e-6
    assert polar_flat_frame.path_audit_deviation <= 1e-6


def test_polar_flat_frame_matches_cartesian_oracle(polar_flat_frame):
    p0 = polar_flat_frame.point_at(polar_flat_frame.base_index)
    correction = np.linalg.inv(cartesian_in_polar(*p0))
    worst = 0.0
    for idx in np.ndindex(*(len(ax) for ax in polar_flat_frame.axes)):
        pt = polar_flat_frame.point_at(idx)
        oracle = cartesian_in_polar(*pt) @ correction
        worst = max(worst, float(np.max(np.abs(polar_flat_frame.matrices[idx] - oracle))))
    assert worst <= 1e-5


def test_interior_base_grid_matches_oracle_and_base_zero_grid(polar_connection):
    # an interior base node fills by backward as well as forward sweeps
    grid = GridSpec((11, 11), base_index=(5, 5))
    frame = flat_frame_neighborhood(polar_connection, grid, h=1e-3)
    assert frame.gamma_prime_residual <= 1e-6
    assert frame.path_audit_deviation <= 1e-6
    assert np.array_equal(frame.matrix_at((5, 5)), np.eye(2))
    correction = np.linalg.inv(cartesian_in_polar(*frame.point_at((5, 5))))
    worst = 0.0
    for idx in np.ndindex(11, 11):
        oracle = cartesian_in_polar(*frame.point_at(idx)) @ correction
        worst = max(worst, float(np.max(np.abs(frame.matrices[idx] - oracle))))
    assert worst <= 1e-5
    base_zero = flat_frame_neighborhood(polar_connection, GridSpec((11, 11)), h=1e-3)
    verdict = constancy_check(base_zero, frame)
    assert verdict.constant
    assert verdict.max_deviation <= 1e-9


def polar_direction_matrix(point, axis):
    """M_alpha[i, j] = Gamma^i_{j alpha} of the flat polar connection, by hand."""
    r = point[0]
    if axis == 0:
        return np.array([[0.0, 0.0], [0.0, 1.0 / r]])
    return np.array([[0.0, -r], [1.0 / r, 0.0]])


def scalar_rk4_propagator(start, axis, length, h):
    """Reference: one edge at a time, one RK4 step at a time."""
    steps = max(1, int(math.ceil(abs(length) / h - 1e-12)))
    dt = length / steps

    def m_at(t):
        q = start.copy()
        q[axis] += t
        return polar_direction_matrix(q, axis)

    p = np.eye(2)
    for i in range(steps):
        t0 = i * dt
        m0, mm, m1 = m_at(t0), m_at(t0 + 0.5 * dt), m_at(t0 + dt)
        k1 = -(m0 @ p)
        k2 = -(mm @ (p + 0.5 * dt * k1))
        k3 = -(mm @ (p + 0.5 * dt * k2))
        k4 = -(m1 @ (p + dt * k3))
        p = p + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return p


def test_edge_propagators_match_scalar_loop(polar_connection):
    axes = GridSpec((11, 11)).axes(polar_connection.chart)
    m_fns = direction_functions(polar_connection)
    worst = 0.0
    for axis in range(2):
        for backward in (False, True):
            props = edge_propagators(m_fns[axis], axes, axis, 1e-3, backward=backward)
            assert props.shape == tuple(10 if d == axis else 11 for d in range(2)) + (2, 2)
            for idx in np.ndindex(props.shape[:2]):
                lo = np.array([axes[d][idx[d]] for d in range(2)])
                hi = lo.copy()
                hi[axis] = axes[axis][idx[axis] + 1]
                start, end = (hi, lo) if backward else (lo, hi)
                ref = scalar_rk4_propagator(start, axis, float(end[axis] - start[axis]), 1e-3)
                worst = max(worst, float(np.max(np.abs(props[idx] - ref))))
    assert worst <= 1e-12


def test_sphere_rejected_with_obstruction(sphere_connection):
    with pytest.raises(NotFlatError) as err:
        flat_frame_neighborhood(sphere_connection, GridSpec((5, 5)), h=1e-2)
    assert err.value.obstruction_norm >= 0.1


def test_lie_type_rejected_as_nonlinear(lie_plane):
    with pytest.raises(NotLinearConnectionError):
        flat_frame_neighborhood(lie_plane, GridSpec((5, 5)), h=1e-2)


def test_torsion_fixture_builds_flat_frame(torsion_flat_frame):
    assert torsion_flat_frame.gamma_prime_residual <= 1e-6
    # closed form: A = diag(exp(-x2), 1) relative to the base node
    base_pt = torsion_flat_frame.point_at(torsion_flat_frame.base_index)
    for idx in np.ndindex(*(len(ax) for ax in torsion_flat_frame.axes)):
        pt = torsion_flat_frame.point_at(idx)
        expected = np.diag([np.exp(-(pt[1] - base_pt[1])), 1.0])
        assert np.max(np.abs(torsion_flat_frame.matrices[idx] - expected)) <= 1e-9


# ---------------------------------------------------------------------------
# holonomicity


def test_polar_flat_frame_is_holonomic(polar_flat_frame):
    verdict = holonomicity_check(polar_flat_frame)
    assert verdict.holonomic
    assert verdict.max_commutator <= 1e-6
    # the lattice-spacing FD estimate carries its own h^2-scaled tolerance
    assert verdict.fd_max_commutator <= verdict.fd_tol


def test_fd_method_respects_its_tolerance(polar_flat_frame):
    verdict = holonomicity_check(polar_flat_frame, method="fd")
    assert verdict.method == "fd"
    assert verdict.holonomic
    with pytest.raises(GridTooCoarseError):
        holonomicity_check(polar_flat_frame, tol=1e-8, method="fd")


def test_torsion_frame_is_anholonomic_with_matching_commutator(torsion_flat_frame, torsion_plane):
    verdict = holonomicity_check(torsion_flat_frame)
    assert not verdict.holonomic
    assert verdict.max_commutator > 0.5
    # at vanishing-component nodes the commutator equals minus the torsion pairing
    assert verdict.torsion_match_residual <= 1e-8
    # independent hand value at the base node: [E_1', E_2'] = +E_1' while
    # T(E_1', E_2') = -E_1' there (A = identity at the base)
    t_vals = torsion_tensor(torsion_plane).evaluate_at(
        torsion_flat_frame.point_at(torsion_flat_frame.base_index)
    )
    assert t_vals[0, 0, 1] == -1.0


def test_symbolic_holonomicity_identity_transform(polar_connection):
    verdict = holonomicity_check(SymbolicTransform.identity(polar_connection.frame))
    assert verdict.holonomic
    assert verdict.max_commutator <= 1e-12


def test_symbolic_holonomicity_constant_transform(polar_connection):
    transform = SymbolicTransform.constant(
        polar_connection.frame, np.array([[2.0, 1.0], [0.0, 1.0]])
    )
    verdict = holonomicity_check(transform)
    assert verdict.holonomic


def test_symbolic_anholonomic_frame_detected(polar, polar_connection):
    from normframes.expr import Sym

    r, _ = polar.symbols
    transform = SymbolicTransform(
        polar_connection.frame, [[Const(1.0), Const(0.0)], [Const(0.0), 1 / Sym(r)]]
    )
    verdict = holonomicity_check(transform)
    assert not verdict.holonomic


def test_point_frame_commutator_equals_minus_torsion(torsion_plane):
    # torsion-commutator identity at a vanishing-component point, symbolic route
    at = np.array([0.1, -0.1])
    result = frame_at_point_connection(torsion_plane, PointFrameSpec(anchor=at))
    verdict = holonomicity_check(result.transform, at=at, deriv=torsion_plane)
    assert not verdict.holonomic
    assert verdict.torsion_match_residual <= 1e-8


def test_point_frame_of_torsion_free_connection_holonomic_at_anchor(polar_connection):
    at = np.array([1.4, 0.6])
    result = frame_at_point_connection(polar_connection, PointFrameSpec(anchor=at))
    verdict = holonomicity_check(result.transform, at=at, deriv=polar_connection)
    assert verdict.holonomic
    assert verdict.torsion_match_residual <= 1e-8


# ---------------------------------------------------------------------------
# constancy


def test_grid_constancy_trivial_factor(polar_connection, polar_flat_frame, polar_grid_spec):
    c = np.array([[1.0, 2.0], [0.0, 1.0]])
    second = flat_frame_neighborhood(polar_connection, polar_grid_spec, b0=c, h=1e-3)
    verdict = constancy_check(polar_flat_frame, second)
    assert verdict.constant
    assert verdict.max_deviation <= 1e-6
    assert np.max(np.abs(verdict.matrix - c)) <= 1e-6


def test_grid_constancy_seed_ratio(polar_connection, polar_flat_frame, polar_grid_spec):
    b2 = np.array([[2.0, 1.0], [0.0, 1.0]])
    second = flat_frame_neighborhood(polar_connection, polar_grid_spec, b0=b2, h=1e-3)
    verdict = constancy_check(polar_flat_frame, second)
    assert verdict.constant
    assert verdict.max_deviation <= 1e-6
    assert np.max(np.abs(verdict.matrix - b2)) <= 1e-6


def test_point_constancy_zero_quadratic_seeds_globally_constant(polar_connection):
    # with zero second-order seeds the anchor matrix enters as a right factor,
    # so the relating transform is constant everywhere, not just at the anchor
    at = np.array([1.2, 0.4])
    first = frame_at_point_connection(polar_connection, PointFrameSpec(anchor=at))
    second = frame_at_point_connection(
        polar_connection,
        PointFrameSpec(anchor=at, b_matrix=np.array([[2.0, 1.0], [0.0, 1.0]])),
    )
    verdict = constancy_check(first, second)
    assert verdict.constant
    assert verdict.derivative_residual <= 1e-12
    assert verdict.shell_deviation <= 1e-12


def test_point_constancy_derivatives_vanish_at_anchor_only(polar_connection):
    at = np.array([1.2, 0.4])
    first = frame_at_point_connection(polar_connection, PointFrameSpec(anchor=at))
    quad = np.zeros((2, 2, 2, 2))
    quad[0, 0, 0, 0] = 0.7  # a different representative of the solution family
    second = frame_at_point_connection(
        polar_connection,
        PointFrameSpec(anchor=at, b_matrix=np.array([[2.0, 1.0], [0.0, 1.0]]), b_quadratic=quad),
    )
    verdict = constancy_check(first, second)
    assert verdict.constant
    assert verdict.derivative_residual <= 1e-8
    # constancy holds at the point only: on a 1e-2 shell the factor drifts
    assert verdict.shell_deviation > 1e-6


def test_point_constancy_requires_shared_anchor(polar_connection):
    first = frame_at_point_connection(polar_connection, PointFrameSpec(anchor=[1.2, 0.4]))
    second = frame_at_point_connection(polar_connection, PointFrameSpec(anchor=[1.5, 0.4]))
    with pytest.raises(ValueError, match="anchor"):
        constancy_check(first, second)


# ---------------------------------------------------------------------------
# structural details


def test_grid_box_override_respected(polar_flat_frame):
    assert polar_flat_frame.axes[0][0] == 1.0
    assert polar_flat_frame.axes[0][-1] == 2.0
    assert polar_flat_frame.axes[1][-1] == pytest.approx(1.0)
    assert polar_flat_frame.matrices.shape == (21, 21, 2, 2)


def test_grid_refined_partial_derivatives(polar_flat_frame, polar_connection):
    # dA/dtheta at the base node must equal -Gamma_theta A (the frame equations)
    base = polar_flat_frame.base_index
    derivs = polar_flat_frame.partial_derivatives_at(base)
    a0 = polar_flat_frame.matrix_at(base)
    pt = polar_flat_frame.point_at(base)
    gamma = polar_connection.gamma_at(pt)
    for alpha in range(2):
        expected = -gamma[:, :, alpha] @ a0
        assert np.max(np.abs(derivs[alpha] - expected)) <= 1e-9


def test_template_disguised_connection_builds_same_frame(torsion_plane, torsion_flat_frame):
    # a W-template carrying Gamma^i_{jk} X^k passes the linearity gates and
    # integrates to the same frame as the connection variant
    from normframes import WTemplate
    from normframes.derivation import template_symbols
    from normframes.expr import parse_expr

    chart = torsion_plane.chart
    syms = template_symbols(chart, 2)
    entries = [["X2", "0"], ["0", "0"]]  # W^1_1 = Gamma^1_{12} X^2 = X^2
    disguised = WTemplate(
        torsion_plane.frame, [[parse_expr(e, syms) for e in row] for row in entries]
    )
    frame = flat_frame_neighborhood(disguised, GridSpec((11, 11)), h=1e-3)
    assert frame.gamma_prime_residual <= 1e-6
    assert np.max(np.abs(frame.matrices - torsion_flat_frame.matrices)) <= 1e-9


def test_grid_frame_over_anholonomic_source_frame(polar, polar_orthonormal_frame):
    # zero coefficients in the orthonormal polar frame: already a
    # vanishing-component frame, so the construction returns the constant
    # seed; the frame itself is anholonomic and the commutator equals the
    # negated torsion (which is minus the anholonomy here) at every node
    deriv = Connection.zero(polar_orthonormal_frame)
    grid = GridSpec((7, 7), box=((1.0, 2.0), (0.0, 1.0)))
    frame = flat_frame_neighborhood(deriv, grid, h=1e-3)
    for idx in np.ndindex(7, 7):
        assert np.allclose(frame.matrices[idx], np.eye(2), atol=1e-12)
    verdict = holonomicity_check(frame)
    assert not verdict.holonomic
    assert verdict.max_commutator >= 0.4  # |C^2_{12}| = 1/r on r in [1, 2]
    assert verdict.torsion_match_residual <= 1e-8
