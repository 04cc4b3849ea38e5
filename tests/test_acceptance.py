"""Acceptance criteria, one test each, every tolerance pinned.

Each test prints a single PASS line on success (run with -s or read the
captured output); failures surface as ordinary assertion errors with the
offending residual.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from normframes import (
    Chart,
    Connection,
    Const,
    CurveSpec,
    FrameField,
    GridSpec,
    NotFlatError,
    PointFrameSpec,
    Symbol,
    SymbolicTransform,
    TensorField,
    VectorField,
    WTemplate,
    constancy_check,
    flat_frame_neighborhood,
    frame_at_point_connection,
    frame_at_point_general,
    holonomicity_check,
    identity_seed,
    linearity_probe,
    shell_component_growth,
    symmetrize_connection,
    transport_along_curve,
)
from normframes.cli import (
    EXIT_FLATNESS,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    main as cli_main,
)
from normframes.expr import Sym, differentiate, evaluate, parse_expr, to_source

from conftest import affine_fields
from reference import (
    curvature_matrix,
    curvature_operator_oracle,
    curvature_tensor,
    integrability_residual,
    node_point,
    to_vector,
    torsion_operator_oracle,
    torsion_tensor,
    torsion_vector,
)
from test_expr import random_expr

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def seeded_points(chart, count=20, seed=2024):
    rng = np.random.default_rng(seed)
    lo = np.array([a for a, _ in chart.domain])
    hi = np.array([b for _, b in chart.domain])
    return lo + rng.random((count, chart.dimension)) * (hi - lo)


def test_criterion_01_curvature_oracle_equivalence(all_fixture_derivations):
    start = time.monotonic()
    worst = 0.0
    for name, deriv in all_fixture_derivations.items():
        frame = deriv.frame
        pairs = [(frame.coordinate_vector(0), frame.coordinate_vector(1))]
        pairs.append(tuple(affine_fields(frame, 241, 2)))
        for x, y in pairs:
            form = curvature_matrix(deriv, x, y)
            columns = [
                to_vector(curvature_operator_oracle(
                    deriv, x, y, TensorField.from_vector(frame.coordinate_vector(j))
                ))
                for j in range(2)
            ]
            tensor = curvature_tensor(deriv) if isinstance(deriv, Connection) else None
            for pt in seeded_points(deriv.chart):
                m = form.evaluate_at(pt)
                for j in range(2):
                    worst = max(worst, float(np.max(np.abs(columns[j].at(pt) - m[:, j]))))
                if tensor is not None:
                    r_vals = tensor.evaluate_at(pt)
                    x_v, y_v = x.at(pt), y.at(pt)
                    contracted = np.einsum("ijkl,k,l->ij", r_vals, x_v, y_v)
                    worst = max(worst, float(np.max(np.abs(contracted - m))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-8, worst
    assert elapsed < 10.0, elapsed
    report(1, f"curvature routes agree on all fixtures (max residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_torsion_oracle_equivalence(all_fixture_derivations):
    worst = 0.0
    for name, deriv in all_fixture_derivations.items():
        frame = deriv.frame
        pairs = [(frame.coordinate_vector(0), frame.coordinate_vector(1))]
        pairs.append(tuple(affine_fields(frame, 251, 2)))
        for x, y in pairs:
            comp = torsion_vector(deriv, x, y)
            oper = torsion_operator_oracle(deriv, x, y)
            tensor = torsion_tensor(deriv) if isinstance(deriv, Connection) else None
            for pt in seeded_points(deriv.chart):
                a = comp.at(pt)
                worst = max(worst, float(np.max(np.abs(a - oper.at(pt)))))
                if tensor is not None:
                    t_vals = tensor.evaluate_at(pt)
                    x_v, y_v = x.at(pt), y.at(pt)
                    contracted = np.einsum("ikl,k,l->i", t_vals, x_v, y_v)
                    worst = max(worst, float(np.max(np.abs(contracted - a))))
    assert worst <= 1e-9, worst
    report(2, f"torsion routes agree on all fixtures (max residual {worst:.2e})")


def test_criterion_03_flat_frame_neighborhood_positive(polar_flat_frame):
    start = time.monotonic()
    assert polar_flat_frame.matrices.shape == (21, 21, 2, 2)
    assert polar_flat_frame.gamma_prime_residual <= 1e-6
    assert polar_flat_frame.path_audit_deviation <= 1e-6

    def cartesian(r, theta):
        return np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta) / r, np.cos(theta) / r]]
        )

    p0 = node_point(polar_flat_frame, (0, 0))  # the base node
    correction = np.linalg.inv(cartesian(*p0))
    oracle_worst = 0.0
    for idx in np.ndindex(21, 21):
        pt = node_point(polar_flat_frame, idx)
        oracle_worst = max(
            oracle_worst,
            float(np.max(np.abs(polar_flat_frame.matrices[idx] - cartesian(*pt) @ correction))),
        )
    elapsed = time.monotonic() - start
    assert oracle_worst <= 1e-5, oracle_worst
    assert elapsed < 60.0
    report(
        3,
        "polar flat frame: components "
        f"{polar_flat_frame.gamma_prime_residual:.2e}, audit "
        f"{polar_flat_frame.path_audit_deviation:.2e}, oracle {oracle_worst:.2e}",
    )


def test_criterion_04_flat_frame_rejects_sphere(sphere_connection):
    with pytest.raises(NotFlatError) as err:
        flat_frame_neighborhood(sphere_connection, GridSpec((5, 5)), h=1e-2)
    assert err.value.obstruction_norm >= 0.1
    frame = sphere_connection.frame
    local = integrability_residual(
        sphere_connection,
        frame.coordinate_vector(0),
        frame.coordinate_vector(1),
        SymbolicTransform.identity(frame),
        points=[np.array([np.pi / 4, 0.4])],
    )
    assert local.obstruction_norm >= 0.1
    report(
        4,
        f"sphere rejected (obstruction {err.value.obstruction_norm:.3f}, "
        f"at theta=pi/4: {local.obstruction_norm:.3f})",
    )


def test_criterion_05_flat_frames_constant_related(
    polar_connection, polar_flat_frame, polar_grid_spec
):
    b2 = np.array([[2.0, 1.0], [0.0, 1.0]])
    second = flat_frame_neighborhood(polar_connection, polar_grid_spec, b0=b2, h=1e-3)
    verdict = constancy_check(polar_flat_frame, second)
    assert verdict.constant
    assert verdict.max_deviation <= 1e-6
    seed_ratio = np.linalg.solve(np.eye(2), b2)
    assert np.max(np.abs(verdict.matrix - seed_ratio)) <= 1e-6
    report(
        5,
        f"two flat frames differ by the seed ratio (deviation {verdict.max_deviation:.2e})",
    )


def test_criterion_06_holonomicity_dichotomy(polar_flat_frame, torsion_flat_frame, torsion_plane):
    polar_verdict = holonomicity_check(polar_flat_frame)
    assert polar_verdict.holonomic
    assert polar_verdict.max_commutator <= 1e-6

    torsion_verdict = holonomicity_check(torsion_flat_frame)
    assert not torsion_verdict.holonomic
    assert torsion_verdict.torsion_match_residual <= 1e-8
    report(
        6,
        f"polar frame holonomic ({polar_verdict.max_commutator:.2e}); torsion frame "
        f"anholonomic, commutator = -torsion ({torsion_verdict.torsion_match_residual:.2e})",
    )


def test_criterion_07_point_constructions(lie_plane, plane):
    x1, _ = plane.symbols
    x = VectorField(lie_plane.frame, [Sym(x1), Const(0.0)])
    anchor = np.array([1.0, 0.0])
    general = frame_at_point_general(
        lie_plane, x, PointFrameSpec(anchor=anchor, a=identity_seed(x.at(anchor)))
    )
    assert general.residual <= 1e-10

    holo = frame_at_point_general(
        lie_plane, x, PointFrameSpec(anchor=anchor, a_factors=(np.array([1.0, 1.0]), np.eye(2)))
    )
    assert holo.certificate_symmetry_residual <= 1e-12

    rng = np.random.default_rng(233)
    broken = 0.0
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
        a[:, :, 0] += 2.0 * np.eye(2)
        generic = frame_at_point_general(lie_plane, x, PointFrameSpec(anchor=anchor, a=a))
        broken = max(broken, generic.certificate_symmetry_residual)
    assert broken > 1e-3
    report(
        7,
        f"point frame residual {general.residual:.1e}; factorized certificate "
        f"{holo.certificate_symmetry_residual:.1e}; generic-seed asymmetry {broken:.2e}",
    )


def test_criterion_08_connection_point_frame_and_symmetric_part(
    sphere_connection, torsion_plane
):
    at = np.array([np.pi / 4, 0.5])
    result = frame_at_point_connection(sphere_connection, PointFrameSpec(anchor=at))
    assert result.residual <= 1e-10
    growth = shell_component_growth(sphere_connection, result.transform, at)
    ratio = growth[1e-2] / growth[1e-3]
    assert 8.0 <= ratio <= 12.0

    def certificate_asymmetry(deriv, point):
        gammas = deriv.gamma_at(point)
        cert = -np.einsum("jlk->jkl", gammas)
        return float(np.max(np.abs(cert - np.transpose(cert, (0, 2, 1)))))

    x0 = np.array([0.1, -0.2])
    assert certificate_asymmetry(torsion_plane, x0) > 1e-3
    symmetric = symmetrize_connection(torsion_plane)
    assert certificate_asymmetry(symmetric, x0) <= 1e-12
    sym_frame = frame_at_point_connection(symmetric, PointFrameSpec(anchor=x0))
    assert sym_frame.residual <= 1e-10
    report(
        8,
        f"sphere point frame residual {result.residual:.1e} with O(h) growth ratio "
        f"{ratio:.2f}; symmetric part passes the holonomic certificate",
    )


def test_criterion_09_transport_order(polar_connection):
    curve_exprs = (Const(1.0), Sym(Symbol("s")))
    x = VectorField(polar_connection.frame, [Const(0.0), Const(1.0)])

    def rotation(s):
        return np.array([[np.cos(s), np.sin(s)], [-np.sin(s), np.cos(s)]])

    errors = {}
    for h in (2e-3, 1e-3):
        curve = CurveSpec(curve_exprs, (0.0, np.pi / 2), 0.0, h)
        result = transport_along_curve(polar_connection, x, curve, np.eye(2))
        errors[h] = max(
            float(np.max(np.abs(mat - rotation(s))))
            for s, mat in zip(result.s_values, result.matrices)
        )
    ratio = errors[2e-3] / errors[1e-3]
    assert ratio >= 8.0, errors

    line = FrameField.coordinate(Chart(("u",), ((-2.0, 2.0),)))
    deriv = WTemplate(line, [[Const(-1.0)]])
    xu = VectorField(line, [Const(1.0)])
    curve = CurveSpec((Sym(Symbol("s")),), (0.0, 1.0), 0.0, 1e-3)
    result = transport_along_curve(deriv, xu, curve, np.eye(1))
    idx = int(np.argmin(np.abs(result.s_values - 1.0)))
    exp_err = abs(result.matrices[idx][0, 0] - np.e)
    assert exp_err <= 1e-8
    report(9, f"transport order ratio {ratio:.1f} (>= 8); exponential error {exp_err:.1e}")


def test_criterion_10_linearity_probe(polar_connection, lie_plane):
    for pt in ([1.2, 0.3], [1.7, 0.9], [1.05, 1.4]):
        verdict = linearity_probe(polar_connection, pt, seed=42, tol=1e-9)
        assert verdict.is_linear, pt
    lie_verdict = linearity_probe(lie_plane, [0.5, -0.3], seed=42, tol=1e-9)
    assert not lie_verdict.is_linear
    assert lie_verdict.witness is not None
    again = linearity_probe(lie_plane, [0.5, -0.3], seed=42, tol=1e-9)
    assert again.max_residual == lie_verdict.max_residual
    assert again.witness == lie_verdict.witness
    report(
        10,
        "connection linear everywhere; Lie-type refused with witness "
        f"{lie_verdict.witness['components']} (deterministic at seed 42)",
    )


def test_criterion_11_expression_layer(polar, sphere, polar_connection, sphere_connection,
                                        polar_orthonormal_frame):
    # derivative vs central differences on the fixture function set
    h = 1e-5
    worst = 0.0
    fixture_exprs = [
        (polar, e)
        for e in list(polar_connection.gamma.flat) + list(polar_orthonormal_frame.matrix.flat)
        if not isinstance(e, Const)
    ]
    fixture_exprs += [
        (sphere, e) for e in sphere_connection.gamma.flat if not isinstance(e, Const)
    ]
    for chart, e in fixture_exprs:
        for pt in chart.sample_points(6, 271):
            asg = chart.assignment(pt)
            for name, sym_ in zip(chart.coordinates, chart.symbols):
                d_val = evaluate(differentiate(e, sym_), asg)
                plus = dict(asg)
                minus = dict(asg)
                plus[name] += h
                minus[name] -= h
                fd = (evaluate(e, plus) - evaluate(e, minus)) / (2.0 * h)
                worst = max(worst, abs(d_val - fd) / (1.0 + abs(d_val)))
    assert worst <= 1e-6, worst

    rng = random.Random(20240)
    syms = polar.symbols
    for _ in range(100):
        tree = random_expr(rng, syms, 4)
        assert parse_expr(to_source(tree), syms) == tree
    report(
        11,
        f"symbolic vs central differences {worst:.1e} (<= 1e-6); "
        "100 seeded trees round-trip exactly",
    )


def test_criterion_12_cli_end_to_end(tmp_path):
    start = time.monotonic()
    polar = str(SPECS / "polar_euclidean.json")
    sphere = str(SPECS / "unit_sphere.json")
    torsion = str(SPECS / "flat_with_torsion.json")
    zero = str(SPECS / "zero_connection.json")
    lie = str(SPECS / "lie_plane.json")

    analyze_points = {
        polar: "r=1,theta=0.5",
        sphere: "theta=0.785398,phi=0",
        torsion: "x1=0.1,x2=0.1",
        zero: "x1=0,x2=0",
        lie: "x1=0.3,x2=0.2",
    }
    for spec, at in analyze_points.items():
        out = tmp_path / (Path(spec).stem + "_report.json")
        assert cli_main(["analyze", spec, "--at", at, "--out", str(out)]) == EXIT_OK

    pipelines = []
    fp = tmp_path / "polar_point.json"
    assert cli_main(["frame", polar, "point", "--at", "r=1,theta=0", "--out", str(fp)]) == EXIT_OK
    pipelines.append((polar, fp))
    fc = tmp_path / "polar_curve.json"
    assert (
        cli_main(
            ["frame", polar, "curve", "--field", "angular", "--curve", "unit_circle",
             "--out", str(fc)]
        )
        == EXIT_OK
    )
    pipelines.append((polar, fc))
    ff = tmp_path / "polar_flat.json"
    assert cli_main(["frame", polar, "flat", "--grid", "11x11", "--out", str(ff)]) == EXIT_OK
    pipelines.append((polar, ff))
    fs = tmp_path / "sphere_point.json"
    assert (
        cli_main(["frame", sphere, "point", "--at", "theta=0.785398,phi=0.5", "--out", str(fs)])
        == EXIT_OK
    )
    pipelines.append((sphere, fs))
    ft = tmp_path / "torsion_flat.json"
    assert cli_main(["frame", torsion, "flat", "--grid", "7x7", "--out", str(ft)]) == EXIT_OK
    pipelines.append((torsion, ft))
    fz = tmp_path / "zero_flat.json"
    assert cli_main(["frame", zero, "flat", "--grid", "5x5", "--out", str(fz)]) == EXIT_OK
    pipelines.append((zero, fz))
    fl = tmp_path / "lie_point.json"
    assert (
        cli_main(
            ["frame", lie, "point", "--at", "x1=1,x2=0", "--field", "dilation", "--out", str(fl)]
        )
        == EXIT_OK
    )
    pipelines.append((lie, fl))

    for spec, frame_file in pipelines:
        verdict_file = str(frame_file) + ".verify"
        assert (
            cli_main(["verify", spec, str(frame_file), "--tol", "1e-6", "--out", verdict_file])
            == EXIT_OK
        )

    corrupted = tmp_path / "corrupted.json"
    doc = json.loads(fc.read_text())
    doc["data"]["matrices"][50][1][1] += 0.1
    corrupted.write_text(json.dumps(doc))
    assert (
        cli_main(
            ["verify", polar, str(corrupted), "--tol", "1e-6",
             "--out", str(tmp_path / "corrupted.verify")]
        )
        == EXIT_VERIFY_FAIL
    )

    reject = tmp_path / "reject.json"
    assert (
        cli_main(["frame", sphere, "flat", "--grid", "5x5", "--out", str(reject)])
        == EXIT_FLATNESS
    )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(12, f"CLI pipeline green on all fixtures ({elapsed:.1f}s)")
