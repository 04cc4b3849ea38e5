"""CLI pipeline: spec loading, analyze/frame/verify, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np

from normframes.cli import (
    EXIT_DOMAIN,
    EXIT_EXISTENCE,
    EXIT_FLATNESS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    dumps_report,
    load_manifold_spec,
    main,
)

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"

POLAR = str(SPECS / "polar_euclidean.json")
SPHERE = str(SPECS / "unit_sphere.json")
TORSION = str(SPECS / "flat_with_torsion.json")
ZERO = str(SPECS / "zero_connection.json")
LIE = str(SPECS / "lie_plane.json")


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# loading and input errors


def test_load_polar_spec():
    setup = load_manifold_spec(POLAR)
    assert setup.chart.dimension == 2
    assert setup.variant == "connection"
    assert set(setup.fields) == {"radial", "angular"}
    assert "unit_circle" in setup.curves


def test_malformed_expression_exits_2(tmp_path, capsys):
    doc = json.loads(Path(POLAR).read_text())
    doc["derivation"]["connection"]["1,2,2"] = "-r*"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("analyze", str(bad), "--at", "r=1,theta=0.5") == EXIT_INPUT
    err = capsys.readouterr().err
    assert "position" in err


def test_unknown_identifier_exits_2(tmp_path):
    doc = json.loads(Path(POLAR).read_text())
    doc["derivation"]["connection"]["1,2,2"] = "-q"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("analyze", str(bad), "--at", "r=1,theta=0.5") == EXIT_INPUT


def test_two_variant_keys_rejected(tmp_path):
    doc = json.loads(Path(POLAR).read_text())
    doc["derivation"]["lie"] = {}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("analyze", str(bad), "--at", "r=1,theta=0.5") == EXIT_INPUT


def test_missing_file_exits_2():
    assert run("analyze", "/nonexistent/spec.json", "--at", "r=1,theta=0.5") == EXIT_INPUT


def test_point_outside_domain_exits_3():
    assert run("analyze", POLAR, "--at", "r=9,theta=0.5") == EXIT_DOMAIN


# ---------------------------------------------------------------------------
# analyze


def test_analyze_polar_verdicts(tmp_path):
    out = tmp_path / "report.json"
    assert run("analyze", POLAR, "--at", "r=1,theta=0.5", "--out", str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["verdicts"]["flat"]["value"] is True
    assert report["verdicts"]["flat"]["residual"] <= 1e-10
    assert report["verdicts"]["torsion_free"]["value"] is True
    assert report["verdicts"]["linear_at_point"]["value"] is True
    assert report["tables"]["curvature_tensor"] is not None


def test_analyze_sphere_reports_obstruction(tmp_path):
    out = tmp_path / "report.json"
    assert run("analyze", SPHERE, "--at", "theta=0.785398,phi=0", "--out", str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["verdicts"]["flat"]["value"] is False
    r_table = np.asarray(report["tables"]["curvature_tensor"], dtype=float)
    assert abs(abs(r_table[0, 1, 0, 1]) - 0.5) <= 1e-5


def test_analyze_lie_reports_witness(tmp_path):
    out = tmp_path / "report.json"
    assert run("analyze", LIE, "--at", "x1=0.3,x2=0.1", "--out", str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    verdict = report["verdicts"]["linear_at_point"]
    assert verdict["value"] is False
    assert verdict["witness"]["kind"] == "vanishing-field"
    assert "curvature_matrix" in report["tables"]


def test_analyze_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("analyze", POLAR, "--at", "r=1.5,theta=0.25", "--out", str(a)) == EXIT_OK
    assert run("analyze", POLAR, "--at", "r=1.5,theta=0.25", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_probe_seed_changes_probe_but_not_verdict(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("analyze", POLAR, "--at", "r=1.5,theta=0.25", "--out", str(a)) == EXIT_OK
    assert (
        run("analyze", POLAR, "--at", "r=1.5,theta=0.25", "--probe-seed", "7", "--out", str(b))
        == EXIT_OK
    )
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["probe_seed"] == 42 and rb["probe_seed"] == 7
    assert ra["verdicts"]["flat"]["value"] == rb["verdicts"]["flat"]["value"]


# ---------------------------------------------------------------------------
# frame + verify, symbolic


def test_frame_point_connection_and_verify(tmp_path):
    frame = tmp_path / "frame.json"
    assert run("frame", POLAR, "point", "--at", "r=1,theta=0", "--out", str(frame)) == EXIT_OK
    doc = json.loads(frame.read_text())
    assert doc["kind"] == "symbolic"
    assert doc["verifier"]["anchor_residual"] <= 1e-10
    assert run("verify", POLAR, str(frame), "--tol", "1e-6") == EXIT_OK


def test_frame_point_with_field_and_verify(tmp_path):
    frame = tmp_path / "frame.json"
    assert (
        run("frame", LIE, "point", "--at", "x1=1,x2=0", "--field", "dilation", "--out", str(frame))
        == EXIT_OK
    )
    doc = json.loads(frame.read_text())
    assert doc["field"] is not None
    assert run("verify", LIE, str(frame), "--tol", "1e-8") == EXIT_OK


def test_frame_point_holonomic_emits_certificate(tmp_path):
    frame = tmp_path / "frame.json"
    assert (
        run(
            "frame", LIE, "point", "--at", "x1=1,x2=0", "--field", "dilation",
            "--holonomic", "--out", str(frame),
        )
        == EXIT_OK
    )
    doc = json.loads(frame.read_text())
    assert doc["verifier"]["certificate_symmetry_residual"] <= 1e-12


def test_holonomic_point_frame_verifies(tmp_path):
    # the factorized seed makes A(x0) rank one, so verify checks the
    # uninverted W(x0) A(x0) + X(A)(x0) like the construction does
    frame = tmp_path / "frame.json"
    out = tmp_path / "verdict.json"
    argv = ("frame", SPHERE, "point", "--at", "theta=1.0,phi=0.5", "--field", "meridian")
    assert run(*argv, "--holonomic", "--out", str(frame)) == EXIT_OK
    assert run("verify", SPHERE, str(frame), "--out", str(out)) == EXIT_OK
    verdict = json.loads(out.read_text())
    assert verdict["pass"] is True
    assert verdict["detail"]["anchor_residual"] <= 1e-10


def test_degenerate_spec_frame_exits_2_without_traceback(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "dimension": 2,
        "coordinates": ["x", "y"],
        "domain": [[0.0, 1.0], [0.0, 1.0]],
        "frame": [["1", "x"], ["1", "x"]],
        "derivation": {"lie": {}},
    }))
    assert run("analyze", str(spec), "--at", "x=0.5,y=0.5") == EXIT_INPUT
    err = capsys.readouterr().err
    assert "determinant" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_frame_point_vanishing_field_exits_4(tmp_path):
    frame = tmp_path / "frame.json"
    code = run(
        "frame", LIE, "point", "--at", "x1=1,x2=0", "--field", "shifted", "--out", str(frame)
    )
    assert code == EXIT_EXISTENCE


def test_corrupted_symbolic_frame_fails_verify(tmp_path):
    frame = tmp_path / "frame.json"
    assert run("frame", POLAR, "point", "--at", "r=1,theta=0", "--out", str(frame)) == EXIT_OK
    doc = json.loads(frame.read_text())
    doc["data"][0][1] = doc["data"][0][1] + "+0.1"
    frame.write_text(json.dumps(doc))
    assert run("verify", POLAR, str(frame), "--tol", "1e-6") == EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# frame + verify, curve and grid


def test_frame_curve_and_verify(tmp_path):
    frame = tmp_path / "frame.json"
    assert (
        run(
            "frame", POLAR, "curve", "--field", "angular", "--curve", "unit_circle",
            "--out", str(frame),
        )
        == EXIT_OK
    )
    doc = json.loads(frame.read_text())
    assert doc["kind"] == "curve"
    assert run("verify", POLAR, str(frame), "--tol", "1e-6") == EXIT_OK


def test_corrupted_curve_frame_localized(tmp_path):
    frame = tmp_path / "frame.json"
    out = tmp_path / "verdict.json"
    assert (
        run(
            "frame", POLAR, "curve", "--field", "angular", "--curve", "unit_circle",
            "--out", str(frame),
        )
        == EXIT_OK
    )
    doc = json.loads(frame.read_text())
    doc["data"]["matrices"][100][0][0] += 0.1
    frame.write_text(json.dumps(doc))
    assert run("verify", POLAR, str(frame), "--tol", "1e-6", "--out", str(out)) == EXIT_VERIFY_FAIL
    verdict = json.loads(out.read_text())
    assert verdict["pass"] is False
    assert verdict["detail"]["worst_segment"] in (99, 100)


def test_corrupted_grid_frame_localized(tmp_path):
    frame = tmp_path / "frame.json"
    out = tmp_path / "verdict.json"
    assert run("frame", POLAR, "flat", "--grid", "9x7", "--out", str(frame)) == EXIT_OK
    doc = json.loads(frame.read_text())
    node = (4, 2)
    doc["data"]["matrices"][node[0]][node[1]][0][1] += 0.1
    frame.write_text(json.dumps(doc))
    assert run("verify", POLAR, str(frame), "--tol", "1e-6", "--out", str(out)) == EXIT_VERIFY_FAIL
    verdict = json.loads(out.read_text())
    assert verdict["pass"] is False
    edge = verdict["detail"]["worst_edge"]
    start = tuple(edge["node"])
    end = tuple(v + (d == edge["axis"]) for d, v in enumerate(start))
    assert node in (start, end)


def test_frame_flat_zero_connection_identity(tmp_path):
    frame = tmp_path / "frame.json"
    assert run("frame", ZERO, "flat", "--grid", "5x5", "--out", str(frame)) == EXIT_OK
    doc = json.loads(frame.read_text())
    matrices = np.asarray(doc["data"]["matrices"], dtype=float)
    assert np.allclose(matrices, np.broadcast_to(np.eye(2), matrices.shape))
    assert run("verify", ZERO, str(frame), "--tol", "1e-12") == EXIT_OK


def test_frame_flat_sphere_exits_5(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    assert run("frame", SPHERE, "flat", "--grid", "5x5", "--out", str(frame)) == EXIT_FLATNESS
    err = capsys.readouterr().err
    assert "not flat" in err


def test_frame_flat_torsion_fixture_and_verify(tmp_path):
    frame = tmp_path / "frame.json"
    assert run("frame", TORSION, "flat", "--grid", "7x7", "--out", str(frame)) == EXIT_OK
    assert run("verify", TORSION, str(frame), "--tol", "1e-6") == EXIT_OK


def test_verify_dimension_mismatch_exits_2(tmp_path):
    frame = tmp_path / "frame.json"
    assert run("frame", POLAR, "point", "--at", "r=1,theta=0", "--out", str(frame)) == EXIT_OK
    doc = json.loads(frame.read_text())
    doc["dimension"] = 3
    frame.write_text(json.dumps(doc))
    assert run("verify", POLAR, str(frame)) == EXIT_INPUT


# ---------------------------------------------------------------------------
# emitter


def test_dumps_report_is_stable_and_17g():
    doc = {"a": 0.1, "b": [1.0, 2.5e-17], "c": {"d": True, "e": None}, "f": "x"}
    text = dumps_report(doc)
    assert text == dumps_report(doc)
    assert "0.10000000000000001" in text
    parsed = json.loads(text)
    assert parsed["a"] == 0.1
    assert parsed["b"][1] == 2.5e-17


def test_identity_frame_verifies_on_zero_spec(tmp_path):
    frame = tmp_path / "frame.json"
    doc = {
        "kind": "symbolic",
        "dimension": 2,
        "field": None,
        "data": [["1", "0"], ["0", "1"]],
        "locus": {"point": [0.0, 0.0]},
        "verifier": {},
    }
    frame.write_text(json.dumps(doc))
    assert run("verify", ZERO, str(frame), "--tol", "1e-12") == EXIT_OK


def test_analyze_orthonormal_frame_spec(tmp_path):
    # zero connection in the anholonomic orthonormal polar frame: flat, but
    # the torsion equals minus the anholonomy, hence nonzero
    spec = str(SPECS / "orthonormal_polar.json")
    out = tmp_path / "report.json"
    assert run("analyze", spec, "--at", "r=1.5,theta=0.3", "--out", str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    anhol = np.asarray(report["tables"]["anholonomy"], dtype=float)
    assert abs(anhol[1, 0, 1] + 1.0 / 1.5) <= 1e-12
    assert report["verdicts"]["flat"]["value"] is True
    assert report["verdicts"]["torsion_free"]["value"] is False
    torsion = np.asarray(report["tables"]["torsion_tensor"], dtype=float)
    assert np.max(np.abs(torsion + anhol)) <= 1e-12


def test_template_spec_through_cli_pipeline(tmp_path):
    # a component template that is secretly a (flat, torsionful) connection
    # passes the probing gates and drives the whole pipeline
    spec = str(SPECS / "torsion_template.json")
    report = tmp_path / "report.json"
    assert run("analyze", spec, "--at", "x1=0.1,x2=0.2", "--out", str(report)) == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["verdicts"]["flat"]["value"] is True
    assert doc["verdicts"]["torsion_free"]["value"] is False
    assert doc["verdicts"]["linear_at_point"]["value"] is True

    frame = tmp_path / "frame.json"
    assert run("frame", spec, "flat", "--grid", "7x7", "--out", str(frame)) == EXIT_OK
    assert run("verify", spec, str(frame), "--tol", "1e-6") == EXIT_OK
