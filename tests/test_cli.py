"""CLI pipeline: spec loading, analyze/frame/verify, exit codes, determinism."""

import functools
import hashlib
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from normframes import ProbeForms, cli, matops
from normframes.expr import MAX_DEPTH, Symbol, _depth, compile_exprs, parse_expr
from normframes.frames import POINT_TOL
from normframes.cli import (
    EXIT_DOMAIN,
    EXIT_EXISTENCE,
    EXIT_FLATNESS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    _load_frame_document,
    dumps_report,
    load_manifold_spec,
    main,
    write_report,
)

from conftest import coordinate_spec

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "demos" / "specs"
BENCH_SPECS = ROOT / "benchmarks" / "specs"

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


@pytest.mark.parametrize("command", [("analyze",), ("frame", "point")], ids=["analyze", "point"])
def test_a_coordinate_given_twice_in_at_is_an_input_error(tmp_path, capsys, command):
    out = tmp_path / "out.json"
    capsys.readouterr()
    argv = (command[0], LIE, *command[1:], "--at", "x1=0.5,x2=0.5,x2=0.7", "--out", str(out))
    assert run(*argv) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: coordinate 'x2' is given twice in --at\n"
    assert not out.exists()


@pytest.mark.parametrize("spec", [SPHERE, LIE, str(BENCH_SPECS / "s4_template.json"),
                                  str(BENCH_SPECS / "sph3_orthonormal.json")],
                         ids=lambda p: Path(p).stem)
def test_verdicts_name_where_their_worst_residual_sits(tmp_path, spec):
    setup = load_manifold_spec(spec)
    centre = ",".join(f"{c}={(lo + hi) / 2.0!r}"
                      for c, (lo, hi) in zip(setup.chart.coordinates, setup.chart.domain))
    out = tmp_path / "report.json"
    assert run("analyze", spec, "--at", centre, "--out", str(out)) == EXIT_OK
    verdicts = json.loads(out.read_text())["verdicts"]
    forms = ProbeForms(setup.deriv, 42)
    cloud = setup.chart.sample_points()
    for key, kind in (("flat", 0), ("torsion_free", 1)):
        verdict = verdicts[key]
        worst = verdict["worst"]
        point = setup.chart.point(worst["point"])
        assert any((point == row).all() for row in cloud), key  # a sample point
        form = forms.labels().index(worst["form"])
        value = forms.at(point[None])[kind][0, form][tuple(worst["component"])]
        assert abs(value) == pytest.approx(verdict["residual"], rel=1e-12, abs=1e-300), key
    # the same keys, in the same order, on every run
    again = tmp_path / "again.json"
    assert run("analyze", spec, "--at", centre, "--out", str(again)) == EXIT_OK
    assert again.read_bytes() == out.read_bytes()


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
    # the construction also holds the seed's certificate; only --holonomic files carry it
    assert list(doc["verifier"]) == ["anchor_residual"]
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


def test_holonomic_point_frame_compiles_five_arrays(tmp_path, monkeypatch):
    # X(x0) for the seed, then X(x0) and E_k(X^i)(x0), the W template and B^-1(x0) for
    # the construction and one tape for its anchor check; the certificate reuses the
    # construction's W_X(x0) and X(x0)
    compiles = []

    def counting(exprs, symbols):
        compiles.append(1)
        return compile_exprs(exprs, symbols)

    for name, module in list(sys.modules.items()):
        if name.startswith("normframes") and vars(module).get("compile_exprs") is compile_exprs:
            monkeypatch.setattr(module, "compile_exprs", counting)
    argv = ("frame", SPHERE, "point", "--at", "theta=1.0,phi=0.5", "--field", "meridian")
    assert run(*argv, "--holonomic", "--out", str(tmp_path / "frame.json")) == EXIT_OK
    assert len(compiles) == 5


def test_no_command_compiles_a_placeholder_symbol(tmp_path, monkeypatch):
    # W at points comes from numbers fed to the compiled W template, so no
    # command compiles a placeholder: an '@' name, which no expression can spell
    names = []

    def recording(exprs, symbols):
        symbols = list(symbols)
        names.extend(s.name for s in symbols)
        return compile_exprs(exprs, symbols)

    for name, module in list(sys.modules.items()):
        if name.startswith("normframes") and vars(module).get("compile_exprs") is compile_exprs:
            monkeypatch.setattr(module, "compile_exprs", recording)
    at, frame = "r=1.5,theta=0.8", str(tmp_path / "frame.json")
    modes = [("point", "--at", at), ("point", "--at", at, "--field", "radial", "--holonomic"),
             ("flat", "--grid", "5x5"),
             ("curve", "--field", "angular", "--curve", "unit_circle", "--step", "0.05")]
    assert run("analyze", POLAR, "--at", at, "--out", str(tmp_path / "analysis.json")) == EXIT_OK
    for mode in modes:
        assert run("frame", POLAR, *mode, "--out", frame) == EXIT_OK
        assert run("verify", POLAR, frame, "--out", str(tmp_path / "verify.json")) == EXIT_OK
    assert names and not [name for name in names if name.startswith("@")]


def _point_ops(fields):
    """The point frame kinds: the connection form, then each field with and without --holonomic."""
    return [()] + [(*field, *hol) for name in fields
                   for field in [("--field", name)] for hol in [(), ("--holonomic",)]]


@pytest.mark.parametrize("n", [5, 6])
def test_point_frames_and_verify_in_any_dimension(tmp_path, n):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(coordinate_spec(n)))
    at = ",".join(f"x{i}=1.5" for i in range(1, n + 1))
    for k, extra in enumerate(_point_ops(["swirl"])):
        frame, out = tmp_path / f"frame{k}.json", tmp_path / f"verify{k}.json"
        assert run("frame", str(spec), "point", "--at", at, *extra, "--out", str(frame)) == EXIT_OK
        assert json.loads(frame.read_text())["verifier"]["anchor_residual"] <= POINT_TOL
        assert run("verify", str(spec), str(frame), "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["detail"]["anchor_residual"] <= POINT_TOL


COORDINATE_FRAME_SPECS = [
    path for path in sorted(SPECS.glob("*.json")) + sorted(BENCH_SPECS.glob("*.json"))
    if json.loads(path.read_text()).get("frame") is None
]


def _spec_id(source):
    return f"{source}-D" if isinstance(source, int) else f"{source.parent.parent.name}/{source.stem}"


@pytest.mark.parametrize("source", COORDINATE_FRAME_SPECS + [5, 6], ids=_spec_id)
def test_point_ops_take_no_symbolic_inverse(tmp_path, monkeypatch, source):
    # the transformation law at points solves numerically; catches indirect callers too
    def refuse(matrix):
        raise AssertionError("symbolic inverse taken")

    monkeypatch.setattr(matops, "inverse", refuse)
    if isinstance(source, int):
        doc = coordinate_spec(source)
        source = tmp_path / "spec.json"
        source.write_text(json.dumps(doc))
    doc = json.loads(source.read_text())
    centre = [(lo + hi) / 2.0 for lo, hi in doc["domain"]]
    at = ",".join(f"{c}={v!r}" for c, v in zip(doc["coordinates"], centre))
    built = 0
    for k, extra in enumerate(_point_ops(doc.get("fields", {}))):
        frame = tmp_path / f"frame{k}.json"
        code = run("frame", str(source), "point", "--at", at, *extra, "--out", str(frame))
        # a derivation that is no linear connection (5), or a field vanishing
        # with nonzero components (4), is refused before any frame is built
        assert code in (EXIT_OK, EXIT_EXISTENCE, EXIT_FLATNESS), extra
        if code == EXIT_OK:
            built += 1
            assert run("verify", str(source), str(frame)) == EXIT_OK, extra
    assert built


def test_singular_symbolic_frame_verify_exits_2_naming_the_point(tmp_path, capsys):
    frame = tmp_path / "frame.json"
    assert run("frame", POLAR, "point", "--at", "r=1.5,theta=0.5", "--out", str(frame)) == EXIT_OK
    doc = json.loads(frame.read_text())
    doc["data"] = [["r-1.5", "0"], ["0", "1"]]
    frame.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", POLAR, str(frame)) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: transform is singular at [1.5, 0.5] (det=0.0)\n"


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


def test_singular_frame_message_prints_a_plain_float(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "dimension": 2,
        "coordinates": ["x", "y"],
        "domain": [[0.0, 1.0], [0.0, 1.0]],
        "frame": [["1", "1"], ["1", "1"]],
        "derivation": {"lie": {}},
    }))
    capsys.readouterr()
    assert run("analyze", str(spec), "--at", "x=0.5,y=0.5") == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: frame determinant 0.0 at [")
    assert "np.float64" not in err and len(err.strip().splitlines()) == 1


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


def test_curve_end_nodes_round_into_the_interval(tmp_path, capsys):
    # from s0 = 0.7, 0.7 - 700 * 0.001 rounds to -1.1e-16, just below theta's domain
    doc = json.loads(Path(POLAR).read_text())
    doc["curves"]["unit_circle"]["s0"] = 0.7
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    frame = tmp_path / "frame.json"
    argv = ("frame", str(spec), "curve", "--field", "angular", "--curve", "unit_circle",
            "--out", str(frame))
    assert run(*argv) == EXIT_OK
    s_values = json.loads(frame.read_text())["locus"]["curve"]["s"]
    assert s_values[0] == 0.0 and s_values[-1] <= doc["curves"]["unit_circle"]["interval"][1]
    assert run("verify", str(spec), str(frame), "--tol", "1e-6") == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["frame", "analyze", "verify"])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, command):
    frame = tmp_path / "frame.json"
    assert run("frame", POLAR, "flat", "--grid", "5x5", "--out", str(frame)) == EXIT_OK
    argv = {
        "frame": ("frame", POLAR, "flat", "--grid", "5x5"),
        "analyze": ("analyze", POLAR, "--at", "r=1.5,theta=0.5"),
        "verify": ("verify", POLAR, str(frame)),
    }[command]
    out = tmp_path / "missing" / "out.json"
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot write {str(out)!r}")
    assert len(err.strip().splitlines()) == 1 and not out.exists()


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


def polar_curve_frame(tmp_path, capsys, step="0.01"):
    """A written polar curve frame file along the unit circle, and its document."""
    frame = tmp_path / "frame.json"
    argv = ("frame", POLAR, "curve", "--field", "angular", "--curve", "unit_circle",
            "--step", step, "--out", str(frame))
    assert run(*argv) == EXIT_OK
    capsys.readouterr()
    return frame, json.loads(frame.read_text())


@pytest.mark.parametrize("moved, node", [
    ({100: [1.7, 0.3]}, 100),
    ({k: [9e9, -1.0] for k in range(158)}, 0),
    ({5: [1.0, float("nan")], 7: [1.0 + 1e-6, 0.07]}, 5),
], ids=["one-node", "every-node", "nan-before-offset"])
def test_curve_frame_points_off_the_curve_exit_2(tmp_path, capsys, moved, node):
    frame, doc = polar_curve_frame(tmp_path, capsys)
    curve = doc["locus"]["curve"]
    assert len(curve["points"]) == 158
    for k, point in moved.items():
        curve["points"][k] = point
    frame.write_text(json.dumps(doc))
    out = tmp_path / "verdict.json"
    assert run("verify", POLAR, str(frame), "--out", str(out)) == EXIT_INPUT
    s = float(curve["s"][node])
    assert capsys.readouterr().err == (
        f"input error: curve point at s={s!r} is {curve['points'][node]}, but the curve passes "
        f"through {[1.0, s]} (tolerance 1e-09)\n")
    assert not out.exists()


def test_curve_frame_points_within_tolerance_verify(tmp_path, capsys):
    frame, doc = polar_curve_frame(tmp_path, capsys)
    doc["locus"]["curve"]["points"][100][1] *= 1.0 + 5e-10
    frame.write_text(json.dumps(doc))
    assert run("verify", POLAR, str(frame), "--out", str(tmp_path / "verdict.json")) == EXIT_OK


@pytest.mark.parametrize("key, value, message", [
    ("matrices", [[[1.0, 0.0], [0.0, "x"]]], "frame matrices must be numbers"),
    ("points", [[1.0, 0.0], [1.0]], "curve points must be numbers"),
    ("points", [[1.0, 0.0]], "curve points and matrices disagree"),
    ("s", {"first": 0.0}, "curve parameters must be numbers"),
    ("matrices", [[[True, "0"], ["0.0", True]]], "frame matrices must be numbers"),
    ("matrices", [[[1.0, 0.0], [0.0, None]]], "frame matrices must be numbers"),
    ("points", [[1.0, 0.0], [1.0, False]], "curve points must be numbers"),
    ("points", None, "curve points must be numbers"),
    ("s", ["0", 0.5], "curve parameters must be numbers"),
    ("s", [0.0, None], "curve parameters must be numbers"),
], ids=["matrices-string", "points-ragged", "points-count", "s-object", "matrices-bool-and-string",
        "matrices-null", "points-bool", "points-null", "s-string", "s-null"])
def test_curve_frame_node_arrays_keep_their_messages(tmp_path, capsys, key, value, message):
    # the node arrays turn into float arrays as the file is parsed; a value that cannot stays
    # as it was, and the verifier refuses it: only JSON numbers count as numbers
    frame, doc = polar_curve_frame(tmp_path, capsys)
    loaded = _load_frame_document(str(frame), 2)
    assert all(isinstance(v, np.ndarray) for v in (loaded["data"]["matrices"],
                                                   loaded["locus"]["curve"]["s"],
                                                   loaded["locus"]["curve"]["points"]))
    block = doc["data"] if key == "matrices" else doc["locus"]["curve"]
    block[key] = value
    frame.write_text(json.dumps(doc))
    assert run("verify", POLAR, str(frame)) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


JSON_NUMBERS = st.from_regex(r"-?(0|[1-9][0-9]{0,20})(\.[0-9]{1,20})?([eE][+-]?[0-9]{1,3})?",
                             fullmatch=True)
NODE_ARRAY_PATHS = (("data", "matrices"), ("locus", "curve", "s"), ("locus", "curve", "points"))


def _render(obj, indent, newline, depth=1) -> str:
    """JSON text of ``obj``, whose leaves are number texts: one line (``indent`` None) or
    indented."""
    if isinstance(obj, dict):
        items = [f"{json.dumps(k)}: {_render(v, indent, newline, depth + 1)}"
                 for k, v in obj.items()]
    elif isinstance(obj, list):
        items = [_render(v, indent, newline, depth + 1) for v in obj]
    else:
        return obj
    opening, closing = "{}" if isinstance(obj, dict) else "[]"
    if indent is None or not items:
        return opening + ",".join(items) + closing
    pad, end = newline + " " * (indent * depth), newline + " " * (indent * (depth - 1))
    return opening + pad + ("," + pad).join(items) + end + closing


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(0, 40),
    shapes=st.permutations([(), (2,), (3, 3)]),
    numbers=st.lists(JSON_NUMBERS, min_size=1, max_size=9),
    indent=st.sampled_from([None, 0, 2, 5]),
    newline=st.sampled_from(["\n", "\r\n"]),
    piece_bytes=st.sampled_from([1, 16, 64, 1 << 15]),
)
def test_node_arrays_in_pieces_equal_one_json_parse(rows, shapes, numbers, indent, newline,
                                                     piece_bytes):
    # every spelling of a JSON number, cut anywhere: the arrays equal json.loads and
    # np.asarray bit for bit
    spellings = itertools.cycle(numbers)

    def array(shape):
        return [np.reshape([next(spellings) for _ in range(math.prod(shape))], shape).tolist()
                for _ in range(rows)]

    doc = {"kind": '"curve"', "data": {"matrices": array(shapes[0])},
           "locus": {"curve": {"s": array(shapes[1]), "points": array(shapes[2])}}}
    data = _render(doc, indent, newline).encode()
    expected = json.loads(data)
    with mock.patch.object(cli, "_PIECE_BYTES", piece_bytes):
        loaded = cli._parse_frame_text(data)
        pieces = [cli._parse_node_array(data, at) for at in cli._node_array_starts(data)]
    assert len(pieces) == 3
    for path, piece in zip(NODE_ARRAY_PATHS, pieces):
        want = np.asarray(functools.reduce(operator.getitem, path, expected), dtype=float)
        got = functools.reduce(operator.getitem, path, loaded)
        assert isinstance(got, np.ndarray) == bool(rows)  # an empty array stays a list
        got = np.asarray(got, dtype=float)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if rows:  # taken in pieces, up to the ']' that closes it
            assert piece[0].shape == want.shape and piece[0].tobytes() == want.tobytes()
            assert data[piece[1] - 1] == ord("]")
        else:  # an empty array stays in the text
            assert piece is None


def test_node_array_keys_count_only_as_object_keys():
    data = (b'{"a": ["s", [1], "points"], "t": "matrices", "m": {"s" : [2], "matrices":\n [3]},'
            b' "points": 4, "u": ["x", "s"], "\\u0073": [5]}')
    assert [data[at : at + 3] for at in cli._node_array_starts(data)] == [b"[2]", b"[3]"]


@pytest.mark.parametrize("piece_bytes", [1, 1 << 15])
@pytest.mark.parametrize("text", [
    b"[]", b"[1, 2,]", b"[, 1]", b"[1,, 2]", b"[[1, 2], [3, 4, 5]]", b"[[1, 2], 3]", b"[1, 2",
    b'["1,]", 2]', b'[1, "\xc3\xa9"]', b"[01]", b"[.5]", b"[+1]", b"[" + b"9" * 400 + b"]",
    b'[1e999, "2"]', b"[1e999, true]", b"[1e999, null]", b"[[1, 2], [3, false]]",
])
def test_node_array_pieces_refuse_what_is_not_rows_of_numbers(text, piece_bytes):
    with mock.patch.object(cli, "_PIECE_BYTES", piece_bytes):
        assert cli._parse_node_array(text, 0) is None


@pytest.mark.parametrize("piece_bytes", [1, 1 << 15])
@pytest.mark.parametrize("text, value, end", [
    (b"[1] 2]", [1.0], 3),
    (b"[[1, 2], [3, 4]]], [5", [[1.0, 2.0], [3.0, 4.0]], 16),
    (b"[1e999, -0, 1E+2] 2]", [np.inf, -0.0, 100.0], 17),
], ids=["text-after", "brackets-after", "json-conversions"])
def test_node_array_pieces_end_at_the_closing_bracket(text, value, end, piece_bytes):
    # what follows the array is the whole-document parse's to judge
    with mock.patch.object(cli, "_PIECE_BYTES", piece_bytes):
        parsed, at = cli._parse_node_array(text, 0)
    assert at == end and np.array_equal(parsed, value, equal_nan=True)


def test_frame_file_load_memory_is_bounded_by_the_file(tmp_path, capsys):
    # the benchmark's 7,854-node curve frame file: about 2.1 MB of indented text
    frame, _ = polar_curve_frame(tmp_path, capsys, step="2e-4")
    tracemalloc.start()
    try:
        doc = _load_frame_document(str(frame), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc["data"]["matrices"].shape == (7854, 2, 2)
    assert peak <= frame.stat().st_size + 1_000_000


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-0.0"])
def test_verify_tol_must_be_finite_and_not_negative(tmp_path, capsys, tol):
    frame, out = tmp_path / "frame.json", tmp_path / "verdict.json"
    assert run("frame", ZERO, "flat", "--grid", "3x3", "--out", str(frame)) == EXIT_OK
    capsys.readouterr()
    code = run("verify", ZERO, str(frame), "--tol", tol, "--out", str(out))
    if tol == "-0.0":  # zero, and the residual of the zero connection's frame is zero
        assert code == EXIT_OK and json.loads(out.read_text())["max_residual"] == 0.0
        return
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"input error: --tol must be a finite number >= 0, got {float(tol)!r}\n")
    assert not out.exists()


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


@pytest.mark.parametrize("point", [[-5.0, 0.5], [1.0, float("nan")], [1.0, 99.0]],
                         ids=["below", "nan", "above"])
def test_point_outside_domain_is_one_domain_error_for_every_command(tmp_path, capsys, point):
    # a symbolic frame file's locus is checked like the --at of analyze and frame point
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"dimension": 2, "kind": "symbolic",
                                 "data": [["1", "0"], ["0", "1"]], "locus": {"point": point}}))
    at = ",".join(f"{c}={v!r}" for c, v in zip(("r", "theta"), point))
    message = f"domain error: point {point} lies outside the chart domain\n"
    for argv in (("analyze", POLAR, "--at", at), ("frame", POLAR, "point", "--at", at),
                 ("verify", POLAR, str(frame))):
        capsys.readouterr()
        assert run(*argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == message


def test_verify_dimension_mismatch_exits_2(tmp_path):
    frame = tmp_path / "frame.json"
    assert run("frame", POLAR, "point", "--at", "r=1,theta=0", "--out", str(frame)) == EXIT_OK
    doc = json.loads(frame.read_text())
    doc["dimension"] = 3
    frame.write_text(json.dumps(doc))
    assert run("verify", POLAR, str(frame)) == EXIT_INPUT


def _grid_frame(tmp_path):
    frame = tmp_path / "frame.json"
    assert run("frame", ZERO, "flat", "--grid", "5x5", "--out", str(frame)) == EXIT_OK
    return ZERO, frame


def _curve_frame(tmp_path):
    frame = tmp_path / "frame.json"
    argv = ("frame", POLAR, "curve", "--field", "angular", "--curve", "unit_circle",
            "--step", "0.05", "--out", str(frame))
    assert run(*argv) == EXIT_OK
    return POLAR, frame


def _set(doc, path, value):
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "make, corrupt, message",
    [
        (_grid_frame, lambda doc: [doc], "frame file root must be an object"),
        (_grid_frame, lambda doc: dict(doc, data=[doc["data"]]),
         "grid frame 'data' must be a JSON dict"),
        (_grid_frame, lambda doc: dict(doc, locus=[doc["locus"]]),
         "grid frame 'locus' must be an object with a 'grid' entry"),
        (_grid_frame, lambda doc: _set(doc, ("data", "matrices"), {"a": 1}),
         "frame matrices must be numbers"),
        (_grid_frame, lambda doc: _set(doc, ("locus", "grid", "axes", 0), {"a": 1}),
         "grid axis 0 must be numbers"),
        (_grid_frame, lambda doc: _set(doc, ("locus", "grid", "axes"), {"a": 1}),
         "grid frame files carry per-axis node arrays"),
        (_grid_frame, lambda doc: _set(doc, ("locus", "grid", "axes", 0), 0.5),
         "grid axes must be node arrays"),
        (_curve_frame, lambda doc: _set(doc, ("locus", "curve", "points"), {"a": 1}),
         "curve points must be numbers"),
        (_curve_frame, lambda doc: _set(doc, ("locus", "curve", "points"), 0.5),
         "curve points and matrices disagree"),
        (_curve_frame, lambda doc: _set(doc, ("locus", "curve", "s"), {"a": 1}),
         "curve parameters must be numbers"),
        (_curve_frame, lambda doc: _set(doc, ("locus", "curve", "exprs", 0), 1),
         "locus[curve][exprs][0]: expression must be a string, not int"),
        (_curve_frame, lambda doc: _set(doc, ("field",), 1), "field: expected a list of 2 entries"),
        (_grid_frame, lambda doc: dict(doc, kind=["grid"]), "unknown frame kind ['grid']"),
        (_grid_frame, lambda doc: dict(doc, kind={"grid": 1}), "unknown frame kind {'grid': 1}"),
    ],
    ids=["root-list", "data-list", "locus-list", "grid-matrices-object", "grid-axis-object",
         "grid-axes-object", "grid-axis-number", "curve-points-object", "curve-points-number",
         "curve-s-object", "curve-expr-number", "curve-field-number", "kind-list",
         "kind-object"],
)
def test_malformed_frame_document_exits_2(tmp_path, capsys, make, corrupt, message):
    spec, frame = make(tmp_path)
    frame.write_text(json.dumps(corrupt(json.loads(frame.read_text()))))
    capsys.readouterr()
    assert run("verify", spec, str(frame)) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {message}\n"


_NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")


def _with_number(data: bytes, k: int, text: bytes) -> bytes:
    """``data`` with the k-th number after its "matrices" key replaced by ``text``."""
    match = next(itertools.islice(_NUMBER.finditer(data, data.index(b'"matrices"')), k, None))
    return data[: match.start()] + text + data[match.end() :]


def _inserted(data: bytes, key: bytes, text: bytes) -> bytes:
    """``data`` with ``text`` 2,000 bytes past its quoted ``key``."""
    at = data.index(b'"%s"' % key) + 2_000
    return data[:at] + text + data[at:]


# The polar curve frame file at step 0.01 (158 nodes), its bytes corrupted: number 401 after
# "matrices" is in node 100; "points" comes after "matrices" and "s", so a refusal there is
# placed in the file's text as a whole.
FRAME_BYTE_REFUSALS = {
    "truncated-in-matrices": (
        lambda d: d[: d.index(b'"matrices"') + 20_000],
        "frame file is not valid JSON: Expecting value: line 1124 column 9 (char 20246)"),
    "string-in-row": (lambda d: _with_number(d, 401, b'"x"'), "frame matrices must be numbers"),
    "nan-in-row": (lambda d: _with_number(d, 401, b"NaN"), "frame matrices must be finite numbers"),
    "ragged-row": (lambda d: _with_number(d, 401, b"0, 7"), "frame matrices must be numbers"),
    "leading-zero": (lambda d: _with_number(d, 401, b"01"),
                     "frame file is not valid JSON: Expecting ',' delimiter: line 1018 column 12 "
                     "(char 18317)"),
    "leading-dot": (lambda d: _with_number(d, 401, b".5"),
                    "frame file is not valid JSON: Expecting value: line 1018 column 11 "
                    "(char 18316)"),
    "plus-sign": (lambda d: _with_number(d, 401, b"+1"),
                  "frame file is not valid JSON: Expecting value: line 1018 column 11 "
                  "(char 18316)"),
    "trailing-comma-in-points": (
        lambda d: d.replace(b']\n      ],\n      "s0"', b'],\n      ],\n      "s0"'),
        "frame file is not valid JSON: Expecting value: line 2396 column 7 (char 42079)"),
    "key-in-string": (
        lambda d: d.replace(b'"verifier": {', b'"verifier": {"note": "a, "matrices": [1, 2]", '),
        "frame file is not valid JSON: Expecting ',' delimiter: line 2401 column 29 (char 42154)"),
    "crlf-trailing-comma-in-points": (
        lambda d: d.replace(b']\n      ],\n      "s0"', b'],\n      ],\n      "s0"').replace(
            b"\n", b"\r\n"),
        "frame file is not valid JSON: Expecting value: line 2396 column 7 (char 42079)"),
    # the float literal the spliced arrays stand in for must not be one the file holds
    "placeholder-literal": (lambda d: d.replace(b'"dimension": 2', b'"dimension": 1e-9990'),
                            "frame dimension 0.0 does not match spec dimension 2"),
    "utf8-bom": (lambda d: b"\xef\xbb\xbf" + d,
                 "frame file is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                 "line 1 column 1 (char 0)"),
    "utf16": (lambda d: d.decode().encode("utf-16"),
              "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "invalid-utf8-in-points": (lambda d: _inserted(d, b"points", b"\xff"),
                               "'utf-8' codec can't decode byte 0xff in position 34702: "
                               "invalid start byte"),
}


@pytest.mark.parametrize("piece_bytes", [64, cli._PIECE_BYTES], ids=["small-pieces", "pieces"])
@pytest.mark.parametrize("case", list(FRAME_BYTE_REFUSALS))
def test_frame_file_bytes_keep_their_refusals(tmp_path, capsys, monkeypatch, case, piece_bytes):
    # the node arrays are parsed from the bytes in pieces; every refusal keeps the exit code
    # and message of one json.loads of the file's text
    corrupt, message = FRAME_BYTE_REFUSALS[case]
    frame, _ = polar_curve_frame(tmp_path, capsys)
    data = frame.read_bytes()
    frame.write_bytes(corrupt(data))
    assert frame.read_bytes() != data
    monkeypatch.setattr(cli, "_PIECE_BYTES", piece_bytes)
    assert run("verify", POLAR, str(frame)) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {message}\n")


FRAME_BYTE_EQUIVALENTS = {
    "compact": lambda d: json.dumps(json.loads(d), separators=(",", ":")).encode(),
    "crlf": lambda d: d.replace(b"\n", b"\r\n"),
    "escaped-key": lambda d: d.replace(b'"s": [', b'"\\u0073": ['),
    "key-text-in-string": lambda d: d.replace(b'"name": "normframes"',
                                              b'"name": "a, \\"matrices\\": [1, 2]"'),
    # node 0 is the identity
    "number-forms": lambda d: functools.reduce(
        lambda t, kv: _with_number(t, *kv), enumerate([b"10E-1", b"-0", b"0.0e+7", b"1e0"]), d),
}


@pytest.mark.parametrize("piece_bytes", [64, cli._PIECE_BYTES], ids=["small-pieces", "pieces"])
@pytest.mark.parametrize("case", list(FRAME_BYTE_EQUIVALENTS))
def test_frame_file_layouts_verify_alike(tmp_path, capsys, monkeypatch, case, piece_bytes):
    frame, _ = polar_curve_frame(tmp_path, capsys)
    assert run("verify", POLAR, str(frame)) == EXIT_OK
    report = capsys.readouterr().out
    data = frame.read_bytes()
    frame.write_bytes(FRAME_BYTE_EQUIVALENTS[case](data))
    assert frame.read_bytes() != data
    monkeypatch.setattr(cli, "_PIECE_BYTES", piece_bytes)
    assert run("verify", POLAR, str(frame)) == EXIT_OK
    assert capsys.readouterr() == (report, "")


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: dict(doc, fields=[doc["fields"]]),
        lambda doc: dict(doc, curves=[doc["curves"]]),
        lambda doc: _set(doc, ("curves", "unit_circle", "exprs", 0), 1),
        lambda doc: _set(doc, ("curves", "unit_circle", "interval"), [None, 1]),
        lambda doc: _set(doc, ("curves", "unit_circle", "step"), "fine"),
        lambda doc: _set(doc, ("domain", 0), [None, 2.0]),
        lambda doc: _set(doc, ("curves", "unit_circle", "step"), "0.5"),
        lambda doc: _set(doc, ("curves", "unit_circle", "s0"), False),
        lambda doc: _set(doc, ("domain", 0), ["1.0", 2.0]),
        lambda doc: _set(doc, ("curves", "unit_circle", "step"), 10**400),
    ],
    ids=["fields-list", "curves-list", "curve-expr-number", "interval-null", "step-string",
         "domain-null", "step-number-string", "s0-bool", "domain-number-string", "step-huge-int"],
)
def test_malformed_spec_exits_2(tmp_path, capsys, corrupt):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(corrupt(json.loads(Path(POLAR).read_text()))))
    capsys.readouterr()
    argv = ("frame", str(spec), "curve", "--field", "angular", "--curve", "unit_circle",
            "--out", str(tmp_path / "frame.json"))
    assert run(*argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key", ["fields", "curves"])
@pytest.mark.parametrize("value", [0, "", False, []],
                         ids=["zero", "empty-string", "false", "list"])
def test_falsy_named_blocks_are_not_read_as_none(tmp_path, capsys, key, value):
    # only a missing key or null means "none"
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec.write_text(json.dumps(dict(json.loads(Path(POLAR).read_text()), **{key: value})))
    capsys.readouterr()
    assert run("analyze", str(spec), "--at", "r=1,theta=0.5", "--out", str(out)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"input error: '{key}' must be an object keyed by name\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "corrupt, entry",
    [
        (lambda doc: dict(doc, frame="1"), "frame"),
        (lambda doc: dict(doc, frame=[["1", "0"], ["0"]]), "frame[1]"),
        (lambda doc: dict(doc, derivation={"w_template": [["0", "0"], ["0", 1]]}),
         "w_template[1][1]"),
        (lambda doc: dict(doc, derivation={"s_template": [["X1"], ["0", "0"]]}), "s_template[0]"),
        (lambda doc: _set(doc, ("derivation", "connection", "2,1,2"), 1), "connection[2,1,2]"),
        (lambda doc: _set(doc, ("derivation", "connection", "2,1,2"), "1/"), "connection[2,1,2]"),
        (lambda doc: _set(doc, ("fields", "angular", 1), 1), "fields[angular][1]"),
        (lambda doc: _set(doc, ("fields", "angular"), ["0"]), "fields[angular]"),
        (lambda doc: _set(doc, ("curves", "unit_circle", "exprs", 1), 1.5),
         "curves[unit_circle][exprs][1]"),
        (lambda doc: _set(doc, ("curves", "unit_circle", "exprs", 1), "r"),
         "curves[unit_circle][exprs][1]"),
    ],
    ids=["frame-string", "frame-ragged", "w-template-number", "s-template-ragged",
         "connection-number", "connection-unparsable", "field-number", "field-short",
         "curve-expr-number", "curve-expr-coordinate"],
)
def test_malformed_spec_entry_is_named(tmp_path, capsys, corrupt, entry):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(corrupt(json.loads(Path(POLAR).read_text()))))
    out = tmp_path / "frame.json"
    capsys.readouterr()
    assert run("frame", str(spec), "flat", "--grid", "5x5", "--out", str(out)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {entry}: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and not out.exists()


def _symbolic_field_frame(tmp_path):
    frame = tmp_path / "frame.json"
    argv = ("frame", POLAR, "point", "--at", "r=1.5,theta=0.5", "--field", "angular",
            "--out", str(frame))
    assert run(*argv) == EXIT_OK
    return POLAR, frame


@pytest.mark.parametrize(
    "make, corrupt, entry",
    [
        (_symbolic_field_frame, lambda doc: _set(doc, ("data", 0, 1), 1), "data[0][1]"),
        (_symbolic_field_frame, lambda doc: _set(doc, ("data", 1, 0), "r*"), "data[1][0]"),
        (_symbolic_field_frame, lambda doc: _set(doc, ("data", 1), ["1"]), "data[1]"),
        (_symbolic_field_frame, lambda doc: _set(doc, ("field",), ["0"]), "field"),
        (_symbolic_field_frame, lambda doc: _set(doc, ("field", 1), 1), "field[1]"),
        (_symbolic_field_frame, lambda doc: _set(doc, ("field",), 0), "field"),
        (_curve_frame, lambda doc: _set(doc, ("field",), ["0", "1", "0"]), "field"),
        (_curve_frame, lambda doc: _set(doc, ("field", 0), 0), "field[0]"),
        (_curve_frame, lambda doc: _set(doc, ("locus", "curve", "exprs"), ["1"]),
         "locus[curve][exprs]"),
        (_curve_frame, lambda doc: _set(doc, ("locus", "curve", "exprs", 1), "theta"),
         "locus[curve][exprs][1]"),
    ],
    ids=["data-number", "data-unparsable", "data-ragged", "symbolic-field-short",
         "symbolic-field-number", "symbolic-field-zero", "curve-field-long", "curve-field-number", "curve-exprs-short",
         "curve-expr-unknown-symbol"],
)
def test_malformed_frame_entry_is_named(tmp_path, capsys, make, corrupt, entry):
    spec, frame = make(tmp_path)
    frame.write_text(json.dumps(corrupt(json.loads(frame.read_text()))))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run("verify", spec, str(frame), "--out", str(out)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {entry}: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and not out.exists()


def test_deep_chain_entry_frame_flat_exits_0(tmp_path):
    # 261 chained terms nest deeper than Python's parser allows in one expression
    doc = json.loads(Path(POLAR).read_text())
    doc["derivation"]["connection"]["1,2,2"] = "-r" + "+theta-theta" * 130
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps(doc))
    frame = tmp_path / "frame.json"
    assert run("frame", str(spec), "flat", "--grid", "5x5", "--out", str(frame)) == EXIT_OK
    assert run("verify", str(spec), str(frame), "--tol", "1e-6") == EXIT_OK


@pytest.mark.parametrize(
    "command, entry",
    [
        ("analyze", "+".join(["0*x1"] * 3000)),
        ("flat", "+".join(["0*x1"] * 3000)),
        ("analyze", "(" * 3000 + "x1" + ")" * 3000),
        ("analyze", "-" * 3000 + "x1"),
    ],
    ids=["sum-analyze", "sum-frame-flat", "parentheses", "unary-minus"],
)
def test_deep_connection_entry_exits_2(tmp_path, capsys, command, entry):
    doc = json.loads(Path(ZERO).read_text())
    doc["derivation"]["connection"]["1,1,1"] = entry
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps(doc))
    argv = {
        "analyze": ("analyze", str(spec), "--at", "x1=0.5,x2=0.5"),
        "flat": ("frame", str(spec), "flat", "--grid", "5x5", "--out", str(tmp_path / "f.json")),
    }[command]
    capsys.readouterr()
    assert run(*argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and len(err.strip().splitlines()) == 1


def _sum_at_max_depth(first, leaf, last):
    """``first+leaf-leaf+...+leaf-last``: MAX_DEPTH leaves joined left to
    right, so the tree is exactly MAX_DEPTH nodes deep and, for
    first == leaf == last, sums to zero."""
    return first + f"-{leaf}+{leaf}" * ((MAX_DEPTH - 2) // 2) + f"-{last}"


def _deep_entry_spec(tmp_path, where):
    doc = json.loads(Path(ZERO).read_text())
    if where == "connection":
        doc["derivation"]["connection"]["1,1,1"] = _sum_at_max_depth("x1", "x1", "x1")
    elif where.startswith("w_template"):
        # dX[1,2] leaves do not fold away, so the rules compare trees of the full depth
        leaf = "X1" if where == "w_template" else "dX[1,2]"
        doc["derivation"] = {"w_template": [[_sum_at_max_depth("X1", leaf, "X1"), "0"], ["0", "0"]]}
    else:
        # 1 + (x1 - x1 + ... - 0): the identity frame, MAX_DEPTH deep
        doc["frame"] = [[_sum_at_max_depth("1", "x1", "0"), "0"], ["0", "1"]]
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps(doc))
    return str(spec)


def _run_with_frame_budget(levels, *argv):
    """``run(*argv)`` allowed at most ``levels`` stack frames above the caller's."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + levels)
    try:
        return run(*argv)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("where", ["connection", "w_template", "w_template-dX", "frame"])
def test_sum_entry_at_max_depth_runs_analyze_and_flat(tmp_path, capsys, where):
    # Every tree walk keeps one stack frame per level (the memo lookup sits
    # inside the walk), so a budget of MAX_DEPTH levels plus 100 for the CLI's
    # own frames and the few levels derived trees add is enough; a walk with
    # two frames per level would need twice MAX_DEPTH.
    x1 = Symbol("x1")
    assert _depth(parse_expr(_sum_at_max_depth("x1", "x1", "x1"), [x1])) == MAX_DEPTH
    spec = _deep_entry_spec(tmp_path, where)
    budget = MAX_DEPTH + 100
    capsys.readouterr()
    argv = ("analyze", spec, "--at", "x1=0.5,x2=0.5", "--out", str(tmp_path / "a.json"))
    assert _run_with_frame_budget(budget, *argv) == EXIT_OK
    argv = ("frame", spec, "flat", "--grid", "5x5", "--out", str(tmp_path / "frame.json"))
    assert _run_with_frame_budget(budget, *argv) == EXIT_OK
    assert capsys.readouterr().err == ""


# a connection entry of each node kind, and the frames its walks may take: sums
# and negations as deep as the parse budget, products whose derivative is about
# twice as deep, and quotients and powers, three times as deep
_DEEP_ENTRIES = {
    "product": ("*".join(["(1+0.001*x1)"] * (MAX_DEPTH - 2)), 2 * MAX_DEPTH + 100),
    "negation": ("-" * (MAX_DEPTH - 1) + "x1", MAX_DEPTH + 100),
    "quotient": ("/".join(["(2+x1)"] * 200), 3 * 200 + 100),
    "power": ("1^" * 200 + "x1", 3 * 200 + 100),
}


@pytest.mark.parametrize("kind", _DEEP_ENTRIES)
def test_deep_entry_of_every_kind_runs_analyze_and_flat(tmp_path, capsys, kind):
    # the budgets have about 100 frames to spare; a walk that took two frames
    # per level of any node kind would need about twice as many
    entry, budget = _DEEP_ENTRIES[kind]
    spec = _zero_spec_with_entry(tmp_path, entry)
    capsys.readouterr()
    argv = ("analyze", spec, "--at", "x1=0.5,x2=0.5", "--out", str(tmp_path / "a.json"))
    assert _run_with_frame_budget(budget, *argv) == EXIT_OK
    argv = ("frame", spec, "flat", "--grid", "5x5", "--out", str(tmp_path / "frame.json"))
    assert _run_with_frame_budget(budget, *argv) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("terms, argv", [
    (MAX_DEPTH - 1, ("analyze", "--at", "x1=0.5,x2=0.5")),
    (MAX_DEPTH - 1, ("frame", "flat", "--grid", "5x5", "--out", "frame.json")),
], ids=["analyze", "flat"])
def test_deep_quotient_runs_at_the_default_recursion_limit(tmp_path, terms, argv):
    # a connection entry of terms (2+x1) joined by /, as deep as the parse budget
    # allows, runs in a fresh CLI process: no walk of a command recurses along
    # its derivatives, which are about three times as deep
    spec = _zero_spec_with_entry(tmp_path, "/".join(["(2+x1)"] * terms))
    proc = run_fresh(tmp_path, "-m", "normframes.cli", argv[0], spec, *argv[1:])
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


def _zero_spec_with_entry(tmp_path, entry):
    doc = json.loads(Path(ZERO).read_text())
    doc["derivation"]["connection"]["1,1,1"] = entry
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    return str(spec)


@pytest.mark.parametrize("entry, names", [
    ("1e308*10", "1e+308*10.0 is undefined: overflow encountered in multiply"),
    ("1e308*10*x1", "1e+308*10.0*x1 is undefined: overflow encountered in multiply"),
    ("x1*(1e308*10)", "x1*(1e+308*10.0) is undefined: overflow encountered in multiply"),
    ("1e308+1e308", "1e+308+1e+308 is undefined: overflow encountered in add"),
    ("-1e308-1e308", "-1e+308-1e+308 is undefined: overflow encountered in subtract"),
    ("1e308/0.1", "1e+308/0.1 is undefined: overflow encountered in divide"),
    # the derivative's fold 2*1e308 overflows too, and keeps its node
    ("1e308^2", "1e+308^2.0 is undefined: overflow encountered in power"),
    ("exp(1000)", "exp(1000.0) is undefined: overflow encountered in exp"),
])
def test_constant_overflow_is_a_domain_error_naming_the_expression(tmp_path, capsys, entry, names):
    # a constant fold whose IEEE result is not finite keeps its node, so the
    # evaluation overflows and names the expression, as a call's fold does
    spec = _zero_spec_with_entry(tmp_path, entry)
    capsys.readouterr()
    assert run("analyze", spec, "--at", "x1=0.5,x2=0.5") == EXIT_DOMAIN
    assert capsys.readouterr().err == f"domain error: {names}\n"


@pytest.mark.parametrize(
    "make_argv, code",
    [
        # within the parse budget; each derivative roughly doubles the depth,
        # and the walks still fit the stack
        (lambda tmp: ("analyze", _zero_spec_with_entry(tmp, "*".join(["(1+0.001*x1)"] * 170)),
                      "--at", "x1=0.5,x2=0.5"), EXIT_OK),
        (lambda tmp: ("analyze", _zero_spec_with_entry(tmp, "/".join(["(2+x1)"] * 115)),
                      "--at", "x1=0.5,x2=0.5"), EXIT_OK),
        # no symbolic derivative of the connection is taken any more (the
        # curvature comes from jets on the entry's tape), so the entry at the
        # parse budget runs
        (lambda tmp: ("analyze", _zero_spec_with_entry(tmp, "/".join(["(2+x1)"] * 399)),
                      "--at", "x1=0.5,x2=0.5"), EXIT_OK),
        (lambda tmp: ("frame", _zero_spec_with_entry(tmp, "/".join(["(2+x1)"] * 399)),
                      "flat", "--grid", "5x5", "--out", str(tmp / "frame.json")), EXIT_OK),
        # the radial field does not follow the unit circle
        (lambda tmp: ("frame", POLAR, "curve", "--field", "radial", "--curve", "unit_circle",
                      "--out", str(tmp / "frame.json")), EXIT_INPUT),
    ],
    ids=["deep-product", "deep-quotient", "deeper-quotient-analyze", "deeper-quotient-flat",
         "curve-off-field"],
)
def test_recursion_and_curve_errors_exit_2(tmp_path, capsys, make_argv, code):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == ""
    else:
        assert err.startswith("input error: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "frame.json").exists()


@pytest.mark.parametrize("mode", ["flat", "curve"])
@pytest.mark.parametrize("step", ["0", "-1", "inf", "nan"])
def test_step_must_be_finite_and_positive(tmp_path, capsys, mode, step):
    extra = {"flat": ("--grid", "5x5"), "curve": ("--field", "angular", "--curve", "unit_circle")}
    out = tmp_path / "frame.json"
    capsys.readouterr()
    assert run("frame", POLAR, mode, *extra[mode], "--step", step, "--out", str(out)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: step must be finite and positive")
    assert len(err.strip().splitlines()) == 1 and not out.exists()


@pytest.mark.parametrize("mode, extra, flag", [
    ("point", ("--at", "r=1,theta=0.5"), "--holonomic"),
    ("curve", ("--field", "angular", "--curve", "unit_circle"), "--holonomic"),
    ("flat", (), "--holonomic"),
    ("point", ("--at", "r=1,theta=0.5"), ("--grid", "3x3")),
    ("curve", ("--field", "angular", "--curve", "unit_circle"), ("--grid", "3x3")),
    ("point", ("--at", "r=1,theta=0.5"), ("--curve", "unit_circle")),
    ("flat", (), ("--curve", "unit_circle")),
    ("point", ("--at", "r=1,theta=0.5", "--field", "angular"), ("--step", "0.1")),
    ("flat", ("--grid", "5x5"), ("--at", "r=9,theta=9")),
    ("curve", ("--field", "angular", "--curve", "unit_circle"), ("--at", "r=9,theta=9")),
    ("flat", ("--grid", "5x5"), ("--field", "angular")),
    ("curve", ("--field", "angular", "--curve", "unit_circle"), ("--probe-seed", "7")),
], ids=["holonomic-point-no-field", "holonomic-curve", "holonomic-flat", "grid-point", "grid-curve",
        "curve-point", "curve-flat", "step-point", "at-flat", "at-curve", "field-flat",
        "probe-seed-curve"])
def test_frame_flag_the_mode_does_not_read_exits_2(tmp_path, capsys, mode, extra, flag):
    out = tmp_path / "frame.json"
    flag = (flag,) if isinstance(flag, str) else flag
    capsys.readouterr()
    assert run("frame", POLAR, mode, *extra, *flag, "--out", str(out)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {flag[0]} applies only to frame ")
    assert len(err.strip().splitlines()) == 1 and not out.exists()


def test_probe_seed_is_accepted_by_point_frames_with_a_field(tmp_path):
    # no construction of a field point frame reads the seed, but it stays accepted there
    with_seed, without = tmp_path / "seeded.json", tmp_path / "default.json"
    argv = ("frame", POLAR, "point", "--at", "r=1.5,theta=0.5", "--field", "angular")
    assert run(*argv, "--probe-seed", "42", "--out", str(with_seed)) == EXIT_OK
    assert run(*argv, "--out", str(without)) == EXIT_OK
    assert with_seed.read_bytes() == without.read_bytes()


def test_failed_self_check_exits_1_with_one_line(tmp_path, capsys):
    # a finite positive but coarse step passes validation and fails the path-independence audit
    spec = str(SPECS.parent.parent / "benchmarks" / "specs" / "sph3_orthonormal.json")
    out = tmp_path / "frame.json"
    capsys.readouterr()
    argv = ("frame", spec, "flat", "--grid", "3x3x3", "--step", "10", "--out", str(out))
    assert run(*argv) == EXIT_VERIFY_FAIL
    err = capsys.readouterr().err
    assert err.startswith("construction failed: path-independence audit failed")
    assert len(err.strip().splitlines()) == 1 and not out.exists()


def test_memory_error_exits_2_with_one_line(monkeypatch, capsys):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr("normframes.cli.load_manifold_spec", exhausted)
    capsys.readouterr()
    assert run("analyze", POLAR, "--at", "r=1,theta=0.5") == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and len(err.strip().splitlines()) == 1


def test_transport_domain_failure_in_a_late_block_exits_3(tmp_path, capsys):
    spec = json.loads(Path(ZERO).read_text())
    spec["domain"][0] = [0.0, 1.0]
    spec["derivation"]["connection"]["1,1,1"] = "sqrt(0.9 - x1)"
    spec_path, frame, report = tmp_path / "spec.json", tmp_path / "frame.json", tmp_path / "r.json"
    spec_path.write_text(json.dumps(spec))
    # 41 lines along x1 take 49 RK4 steps per M evaluation: x1 passes 0.9 in the 19th of 21 blocks
    frame.write_text(json.dumps({
        "kind": "grid", "dimension": 2, "field": None,
        "data": {"matrices": np.broadcast_to(np.eye(2), (2, 41, 2, 2)).tolist()},
        "locus": {"grid": {"axes": [[0.0, 1.0], np.linspace(-1, 1, 41).tolist()],
                           "base_index": [0, 0]}},
    }))
    capsys.readouterr()
    assert run("verify", str(spec_path), str(frame), "--out", str(report)) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("domain error: sqrt(0.9-x1) is undefined")
    assert len(err.strip().splitlines()) == 1 and not report.exists()


def test_an_underflowing_constant_fold_keeps_the_entry_in_the_message(tmp_path, capsys):
    # 1e308/1e-308 overflows and stays a node; its derivative's (1e-308)^2 underflows to 0
    # and must stay a node too, or the message names a derived 0/0, not the entry
    spec = json.loads(Path(ZERO).read_text())
    spec["derivation"]["connection"] = {"1,1,1": "1e308/1e-308"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    capsys.readouterr()
    assert run("analyze", str(spec_path), "--at", "x1=0.1,x2=0.2",
               "--out", str(tmp_path / "a.json")) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("domain error: 1e+308/1e-308 is undefined: ")


@pytest.mark.parametrize("entry, named", [
    ("s+1/0", "s+1.0/0.0"),
    ("s+1e300*1e300", "s+1e+300*1e+300"),
])
def test_constant_only_curve_subtree_exits_3(tmp_path, capsys, entry, named):
    spec = json.loads(Path(POLAR).read_text())
    spec["curves"]["bad"] = {"exprs": ["1", entry], "interval": [0.0, 1.0], "s0": 0.0, "step": 0.001}
    spec_path, frame = tmp_path / "spec.json", tmp_path / "frame.json"
    spec_path.write_text(json.dumps(spec))
    capsys.readouterr()
    argv = ("frame", str(spec_path), "curve", "--field", "angular", "--curve", "bad", "--out", str(frame))
    assert run(*argv) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: {named} is undefined: ")
    assert len(err.strip().splitlines()) == 1 and not frame.exists()


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


EMITTED_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2e-308, 1e16, -1e16, 1e-300, 3.0, -7.0, 0.1]),
)


@settings(max_examples=200, deadline=None)
@given(
    arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
                   elements=EMITTED_FLOATS),
    depth=st.integers(1, 3),
)
def test_float_arrays_emit_the_bytes_of_their_lists(arr, depth):
    def nested(value):
        for _ in range(depth - 1):
            value = {"o": value}
        return {"a": value}

    assert dumps_report(nested(arr)) == dumps_report(nested(arr.tolist()))


def test_empty_and_non_finite_float_arrays():
    assert dumps_report({"a": np.empty(0)}) == '{\n  "a": []\n}\n'
    assert dumps_report({"a": np.empty((2, 0))}) == '{\n  "a": [\n    [],\n    []\n  ]\n}\n'
    for bad in (np.nan, np.inf, -np.inf):
        arr = np.array([[0.5, 1.0], [2.0, bad]])
        for value in (arr, arr.tolist()):
            with pytest.raises(ValueError, match="reports must not contain non-finite numbers"):
                dumps_report({"a": value})


@pytest.mark.parametrize("value", [
    np.linspace(-1.0, 1.0, 10_001),
    np.random.default_rng(3).standard_normal((1500, 2, 2)) * 1e3,
    np.empty(0),
    np.empty((3, 0)),
    np.empty((0, 2, 2)),
], ids=["1d-three-pieces", "3d-two-pieces", "empty", "empty-rows", "no-rows"])
def test_written_report_equals_dumps_report(tmp_path, value):
    # a float array is emitted in pieces of whole rows, about 4,096 floats each
    doc = {"a": {"b": value, "c": [1.5, value]}, "d": None}
    out = tmp_path / "report.json"
    write_report(doc, str(out))
    assert out.read_text() == dumps_report(doc)
    assert dumps_report(doc) == dumps_report({"a": {"b": value.tolist(), "c": [1.5, value.tolist()]},
                                              "d": None})


@pytest.mark.parametrize("bad", [np.array([0.5, np.nan]), float("inf"), object()],
                         ids=["nan-array", "inf", "unserializable"])
def test_refused_report_leaves_no_file(tmp_path, bad):
    # refused after the first pieces reached the file: the file goes, and nothing else is left
    doc = {"first": np.ones(20_000), "bad": bad}
    with pytest.raises((ValueError, TypeError)):
        write_report(doc, str(tmp_path / "report.json"))
    assert list(tmp_path.iterdir()) == []


def test_write_report_memory_is_bounded_by_its_pieces(tmp_path):
    # the matrices of a 7,854-node curve frame: a 1.4 MB text, written one piece at a time
    matrices = np.random.default_rng(1).standard_normal((7854, 2, 2))
    out = tmp_path / "frame.json"
    tracemalloc.start()
    try:
        write_report({"data": {"matrices": matrices}}, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 1_400_000
    assert peak < 1_000_000


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


# ---------------------------------------------------------------------------
# start-up footprint: every op is a fresh interpreter


def run_fresh(tmp_path, *argv):
    """``python`` with ``argv`` in a fresh interpreter that imports this checkout's src/."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_ops_load_neither_numpy_random_nor_openssl(tmp_path):
    # seeded draws come from normframes.rng and the spec digest from the
    # interpreter's builtin SHA-256, so no op pays for numpy.random's
    # extensions or for OpenSSL (hashlib's _hashlib, which secrets imports)
    s4 = str(BENCH_SPECS / "s4_template.json")
    ops = [
        ("analyze", POLAR, "--at", "r=1.5,theta=0.8", "--out", "analysis.json"),
        ("analyze", s4, "--at", "x1=0.5,x2=0.5,x3=0.5,x4=0.5", "--out", "s4.json"),
        ("frame", POLAR, "point", "--at", "r=1.5,theta=0.8", "--out", "point.json"),
        ("frame", POLAR, "point", "--at", "r=1.5,theta=0.8", "--field", "radial",
         "--out", "field.json"),
        ("frame", POLAR, "flat", "--grid", "5x5", "--out", "flat.json"),
        ("frame", POLAR, "curve", "--field", "angular", "--curve", "unit_circle",
         "--out", "curve.json"),
    ] + [("verify", POLAR, f"{name}.json", "--out", f"verify_{name}.json")
         for name in ("point", "field", "flat", "curve")]
    script = (
        "import json, sys\n"
        "from normframes.cli import main\n"
        f"codes = [main(list(op)) for op in {ops!r}]\n"
        "loaded = [m for m in ('numpy.random', '_hashlib', 'secrets') if m in sys.modules]\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    proc = run_fresh(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * len(ops) and loaded == []


@pytest.mark.parametrize(
    "spec",
    sorted(SPECS.glob("*.json")) + sorted(BENCH_SPECS.glob("*.json"))
    + [ROOT / "tools" / "specs" / "w_pole.json"],
    ids=lambda p: f"{p.parent.parent.name}/{p.stem}",
)
def test_input_digest_is_the_sha256_of_the_spec_bytes(spec):
    assert load_manifold_spec(str(spec)).digest == hashlib.sha256(spec.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", [
    ("analyze", POLAR, "--at", "r=1.5,theta=0.8"),
    ("frame", POLAR, "point", "--at", "r=1.5,theta=0.8"),
    ("frame", POLAR, "flat", "--grid", "5x5"),
], ids=lambda mode: "-".join(mode[:1] + mode[2:3]))
def test_negative_probe_seed_exits_2_with_numpys_message(tmp_path, mode):
    # a fresh process, so that a seed split which never ends fails by timeout
    proc = run_fresh(tmp_path, "-m", "normframes.cli", *mode, "--probe-seed", "-3")
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr == "input error: expected non-negative integer\n"
    assert proc.stdout == ""
