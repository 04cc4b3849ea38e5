"""Point constructions: fixed-field frames, holonomic certificates,
linear-connection frames and their growth behavior."""

import numpy as np
import pytest

from normframes import (
    Connection,
    Const,
    NoFrameExistsError,
    NotLinearConnectionError,
    PointFrameSpec,
    VectorField,
    VerificationError,
    frame_at_point_connection,
    frame_at_point_general,
    identity_seed,
    shell_component_growth,
    symmetrize_connection,
    w_of,
)
from normframes import frames
from normframes.expr import Sym, evaluate

from reference import transform_at, transform_w


@pytest.fixture
def lie_field(lie_plane, plane):
    x1, _ = plane.symbols
    return VectorField(lie_plane.frame, [Sym(x1), Const(0.0)])


ANCHOR = np.array([1.0, 0.0])


# ---------------------------------------------------------------------------
# general construction for a fixed field


def test_zero_connection_identity_seed_gives_identity(zero_connection, plane):
    x1, _ = plane.symbols
    x = VectorField(zero_connection.frame, [Const(1.0), Const(0.0)])
    at = np.array([0.0, 0.0])
    result = frame_at_point_general(
        zero_connection, x, PointFrameSpec(anchor=at, a=identity_seed(x.at(at)))
    )
    vals = transform_at(result.transform, at)
    assert np.allclose(vals, np.eye(2))
    # no linear term at all: W = 0 makes the correction coefficient vanish
    far = transform_at(result.transform, [0.5, -0.5])
    assert np.allclose(far, np.eye(2))
    assert result.residual <= 1e-12


def test_lie_fixture_first_order_data(lie_plane, lie_field):
    result = frame_at_point_general(
        lie_plane, lie_field, PointFrameSpec(anchor=ANCHOR, a=identity_seed(lie_field.at(ANCHOR)))
    )
    assert result.residual <= 1e-12
    # frame-derivative data at the anchor: E_k(A)|x0 = -a[l,j',k] W[j,l]
    w0 = w_of(lie_plane, lie_field).evaluate_at(ANCHOR)
    assert np.allclose(w0, np.diag([-1.0, 0.0]))
    frame = lie_plane.frame
    for k in range(2):
        derived = np.empty((2, 2))
        for j in range(2):
            for jp in range(2):
                e = frame.frame_derivative(k, result.transform.entries[j, jp])
                derived[j, jp] = evaluate(e, frame.chart.assignment(ANCHOR))
        expected = -identity_seed(lie_field.at(ANCHOR))[:, :, k].T @ w0.T
        # with the identity seed: E_1(A)|x0 = -W^T restricted, E_2(A)|x0 = 0
        if k == 0:
            assert np.allclose(derived, -w0)
        else:
            assert np.allclose(derived, 0.0)


def test_lie_fixture_transform_law_residual(lie_plane, lie_field):
    result = frame_at_point_general(
        lie_plane, lie_field, PointFrameSpec(anchor=ANCHOR, a=identity_seed(lie_field.at(ANCHOR)))
    )
    w = w_of(lie_plane, lie_field)
    transformed = transform_w(w, lie_field, result.transform)
    assert np.max(np.abs(transformed.evaluate_at(ANCHOR))) <= 1e-12
    # (for this particular field the frame x1*d_1, d_2 happens to absorb the
    # components globally: X has constant components in it, so no assertion
    # about nonvanishing away from the anchor is available here)


def test_vanishing_field_with_nonzero_components_rejected(lie_plane, plane):
    x1, _ = plane.symbols
    x = VectorField(lie_plane.frame, [Sym(x1) - Const(1.0), Const(0.0)])
    with pytest.raises(NoFrameExistsError):
        frame_at_point_general(
            lie_plane, x, PointFrameSpec(anchor=ANCHOR, a=identity_seed(np.array([1.0, 0.0])))
        )


def test_vanishing_field_with_vanishing_components_any_frame(zero_connection, plane):
    x1, _ = plane.symbols
    x = VectorField(zero_connection.frame, [Sym(x1) - Const(1.0), Const(0.0)])
    result = frame_at_point_general(
        zero_connection, x, PointFrameSpec(anchor=ANCHOR, a=identity_seed(np.array([1.0, 0.0])))
    )
    assert np.allclose(transform_at(result.transform, ANCHOR), np.eye(2))
    assert result.residual <= 1e-12


def test_degenerate_seed_rejected(lie_plane, lie_field):
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = 1.0  # rank-deficient contraction
    with pytest.raises(ValueError, match="degenerate"):
        frame_at_point_general(lie_plane, lie_field, PointFrameSpec(anchor=ANCHOR, a=bad))


def test_quadratic_seed_terms_do_not_disturb_anchor(lie_plane, lie_field, plane):
    x1, x2 = plane.symbols
    quad = np.empty((2, 2, 2, 2), dtype=object)
    quad[...] = Const(0.0)
    quad[0, 0, 0, 0] = Sym(x2) + Const(1.0)
    result = frame_at_point_general(
        lie_plane,
        lie_field,
        PointFrameSpec(anchor=ANCHOR, a=identity_seed(lie_field.at(ANCHOR)), quadratic=quad),
    )
    assert result.residual <= 1e-12
    # second-order term changes values away from the anchor
    off = transform_at(result.transform, [1.3, 0.2])
    plain = transform_at(frame_at_point_general(
        lie_plane, lie_field, PointFrameSpec(anchor=ANCHOR, a=identity_seed(lie_field.at(ANCHOR)))
    ).transform, [1.3, 0.2])
    assert np.max(np.abs(off - plain)) > 1e-3


# ---------------------------------------------------------------------------
# holonomic certificates


def test_zero_connection_certificate_vanishes(zero_connection):
    x = VectorField(zero_connection.frame, [Const(1.0), Const(0.0)])
    spec = PointFrameSpec(anchor=np.zeros(2), a_factors=(np.ones(2), np.eye(2)))
    result = frame_at_point_general(zero_connection, x, spec)
    assert np.max(np.abs(result.certificate)) == 0.0
    assert result.certificate_symmetry_residual == 0.0


def test_factorized_seed_certificate_symmetric(lie_plane, lie_field):
    spec = PointFrameSpec(anchor=ANCHOR, a_factors=(np.array([1.0, 1.0]), np.eye(2)))
    result = frame_at_point_general(lie_plane, lie_field, spec)
    assert result.certificate_symmetry_residual <= 1e-14
    # the rank-one anchor matrix is a property of the factorized family
    assert abs(result.anchor_determinant) <= 1e-12


def test_holonomic_point_frame_builds_no_w(lie_plane, lie_field, w_builds):
    # the construction, its anchor check and its certificate read W_X(x0) off
    # the template tape, fed X's components and E_k(X^i) at the anchor
    spec = PointFrameSpec(anchor=ANCHOR, a_factors=(np.array([1.0, 1.0]), np.eye(2)))
    frame_at_point_general(lie_plane, lie_field, spec)
    assert w_builds == []


def test_connection_point_frame_builds_no_w(polar_connection, w_builds):
    # the linearity probe, its Gammas and the anchor check run the template tape
    frame_at_point_connection(polar_connection, PointFrameSpec(anchor=[1.3, 0.7]))
    assert w_builds == []


def test_factorized_seed_refuses_an_asymmetric_certificate(lie_plane, lie_field, monkeypatch):
    # no tolerance admits even the exactly symmetric certificate
    monkeypatch.setattr(frames, "CERT_TOL", -1.0)
    spec = PointFrameSpec(anchor=ANCHOR, a_factors=(np.array([1.0, 1.0]), np.eye(2)))
    with pytest.raises(VerificationError, match="asymmetric certificate"):
        frame_at_point_general(lie_plane, lie_field, spec)


def test_full_seed_returns_an_asymmetric_certificate(lie_plane, lie_field):
    a = identity_seed(lie_field.at(ANCHOR))
    a[0, 0, 1] = 1.0  # A(x0) stays the identity, since X^2(x0) = 0
    result = frame_at_point_general(lie_plane, lie_field, PointFrameSpec(anchor=ANCHOR, a=a))
    assert result.residual <= 1e-12
    assert result.certificate_symmetry_residual > frames.CERT_TOL
    cert = result.certificate
    assert result.certificate_symmetry_residual == np.max(np.abs(cert - cert.transpose(0, 2, 1)))


def test_nonfactorized_seeds_break_symmetry(lie_plane, lie_field):
    rng = np.random.default_rng(233)
    asymmetries = []
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        a[:, :, 0] += 2.0 * np.eye(2)  # keep the anchor matrix invertible
        result = frame_at_point_general(lie_plane, lie_field, PointFrameSpec(anchor=ANCHOR, a=a))
        asymmetries.append(result.certificate_symmetry_residual)
    assert max(asymmetries) > 1e-3
    assert all(a >= 0.0 for a in asymmetries)


# ---------------------------------------------------------------------------
# linear-connection construction


def test_zero_connection_constant_transform(zero_connection):
    b = np.array([[2.0, 1.0], [0.0, 1.0]])
    result = frame_at_point_connection(
        zero_connection, PointFrameSpec(anchor=np.zeros(2), b_matrix=b)
    )
    for pt in ([0.0, 0.0], [0.4, -0.3], [-0.9, 0.9]):
        assert np.allclose(transform_at(result.transform, pt), b)
    assert result.residual <= 1e-12


def test_polar_connection_point_frame(polar, polar_connection):
    at = np.array([1.0, 0.0])
    result = frame_at_point_connection(polar_connection, PointFrameSpec(anchor=at))
    assert result.residual <= 1e-10
    gamma_r = result.gammas[:, :, 0]
    gamma_th = result.gammas[:, :, 1]
    assert np.allclose(gamma_r, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
    assert np.allclose(gamma_th, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    # A(y) = I - Gamma_r dr - Gamma_th dtheta at first order
    vals = transform_at(result.transform, [1.1, 0.2])
    expected = np.eye(2) - gamma_r * 0.1 - gamma_th * 0.2
    assert np.allclose(vals, expected, atol=1e-12)


def test_polar_point_frame_growth_is_first_order(polar, polar_connection):
    at = np.array([1.5, 0.5])
    result = frame_at_point_connection(polar_connection, PointFrameSpec(anchor=at))
    growth = shell_component_growth(polar_connection, result.transform, at)
    ratio = growth[1e-2] / growth[1e-3]
    assert 8.0 <= ratio <= 12.0


def test_sphere_point_frame_curvature_obstruction(sphere, sphere_connection):
    at = np.array([np.pi / 4, 0.5])
    result = frame_at_point_connection(sphere_connection, PointFrameSpec(anchor=at))
    assert result.residual <= 1e-10
    # vanishing at the anchor only: at coordinate distance 1e-2 the components
    # are back (curvature obstructs any neighborhood-wide vanishing)
    growth = shell_component_growth(sphere_connection, result.transform, at)
    assert growth[1e-2] > 1e-3


def test_lie_type_rejected_for_connection_construction(lie_plane):
    with pytest.raises(NotLinearConnectionError):
        frame_at_point_connection(lie_plane, PointFrameSpec(anchor=ANCHOR))


# ---------------------------------------------------------------------------
# holonomicity certificate for connection frames (symmetric part story)


def connection_certificate_asymmetry(deriv: Connection, at) -> float:
    """(k' <-> j') asymmetry of E_{k'}(A^j_{j'})|x0 = -B^k_{k'} G^j_{lk} B^l_{j'}.

    For the Eq-style first-order frame with seed B = identity this reduces
    to the Gamma index swap: symmetric iff the connection is torsion free
    at the anchor (coordinate frame).
    """
    gammas = deriv.gamma_at(at)  # [j, l, k]
    cert = -np.einsum("jlk->jkl", gammas)  # cert[j, k', j'] with B = identity
    return float(np.max(np.abs(cert - np.transpose(cert, (0, 2, 1)))))


def test_sphere_connection_holonomic_certificate_passes(sphere, sphere_connection):
    at = np.array([np.pi / 4, 0.5])
    assert connection_certificate_asymmetry(sphere_connection, at) <= 1e-12


def test_torsion_fixture_certificate_fails_until_symmetrized(torsion_plane):
    at = np.array([0.1, -0.2])
    assert connection_certificate_asymmetry(torsion_plane, at) > 1e-3
    fixed = symmetrize_connection(torsion_plane)
    assert connection_certificate_asymmetry(fixed, at) <= 1e-12
    # and the symmetrized connection still builds a verified point frame
    result = frame_at_point_connection(fixed, PointFrameSpec(anchor=at))
    assert result.residual <= 1e-10
