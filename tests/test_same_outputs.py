"""tools/same_outputs.py: byte-identity of CLI results between two source trees."""

import importlib.util
import json
from pathlib import Path

from conftest import coordinate_spec

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_same_source_gives_same_outputs_on_one_demo_spec():
    tool = load_tool()
    group = tool.demo_runs(tool.DEMO_SPECS / "zero_connection.json")
    # analyze, then a frame and its verify for the connection point, the one field
    # without and with --holonomic, and the grid
    assert [argv[0] for argv in group] == ["analyze"] + ["frame", "verify"] * 4
    assert tool.compare(tool.SRC, [group]) == []


def test_every_differing_part_is_reported():
    tool = load_tool()
    group = [("analyze", "spec.json", "--out", "a.json")]
    same = [(0, b"", b"", b"{}")]
    assert tool.mismatches(group, same, same) == []
    changed = [(1, b"x", b"y", None)]
    assert tool.mismatches(group, same, changed) == [
        f"analyze spec.json --out a.json: {part} differs" for part in tool.PARTS
    ]


def test_a_differing_output_file_is_measured():
    tool = load_tool()
    group = [("analyze", "spec.json", "--out", "a.json")]
    doc = {"t": [1.0, -2.0, 3], "v": {"value": True, "kind": "x"}}
    left = [(0, b"", b"", json.dumps(doc).encode())]
    doc["t"][1], doc["t"][2] = -2.5, 3.25
    numbers = [(0, b"", b"", json.dumps(doc).encode())]
    assert tool.mismatches(group, left, numbers) == [
        "analyze spec.json --out a.json: output file differs: largest numeric difference "
        "0.5 (relative 0.2) at $.t[1]; no boolean, string or key differs"]
    doc["v"] = {"value": False, "kind": "x", "extra": None}
    doc["t"] = [1.0, -2.0, 3]
    flipped = [(0, b"", b"", json.dumps(doc).encode())]
    assert tool.mismatches(group, left, flipped) == [
        "analyze spec.json --out a.json: output file differs: no number differs; "
        "booleans, strings or keys differ at $.v, $.v.value"]
    # an output that is not JSON on one side is reported as differing, no more
    broken = [(0, b"", b"", b"{")]
    assert tool.mismatches(group, left, broken) == [
        "analyze spec.json --out a.json: output file differs"]


def test_failing_ops_are_compared_with_their_messages():
    tool = load_tool()
    pole = tool.run_group(tool.SRC, tool.pole_runs())
    # analyze and both point frames at the pole, then away from it, then the flat frame
    assert [code for code, *_ in pole] == [3, 3, 3, 0, 0, 0, 3]
    assert all(err.startswith(b"domain error: ") for code, _, err, _ in pole if code == 3)
    # a flat frame that only the pointwise linearity gate refuses, with its residual
    ((code, out, err, report),) = tool.run_group(tool.SRC, tool.gate_runs())
    assert (code, out, report) == (5, b"", None)
    assert b"do not vanish with the field" in err and b"(residual 1.000e+00)" in err
    refused = tool.run_group(tool.SRC, tool.probe_seed_runs(-3))
    assert [code for code, *_ in refused] == [2, 2, 2, 2]
    assert refused[0][2] == b"input error: expected non-negative integer\n"
    wide = tool.run_group(tool.SRC, tool.probe_seed_runs(2**70))
    assert [code for code, *_ in wide] == [0, 0, 0, 0]


def test_tool_frame_files_verify_or_are_refused_with_one_line():
    tool = load_tool()
    group = tool.frame_file_runs()
    assert [Path(argv[2]).name for argv in group] == [
        "frame_curve_compact.json", "frame_curve_crlf.json", "frame_curve_point_off.json",
        "frame_curve_ragged.json", "frame_curve_strings.json", "frame_curve_truncated.json",
        "frame_kind_list.json", "frame_locus_nan.json", "frame_locus_outside.json"]
    results = tool.run_group(tool.SRC, group)
    assert [(code, out, err) for code, out, err, _ in results] == [
        (0, b"", b""),
        (0, b"", b""),
        (2, b"", b"input error: curve point at s=0.75 is [1.2, 0.75], but the curve passes "
                 b"through [1.0, 0.75] (tolerance 1e-09)\n"),
        (2, b"", b"input error: frame matrices must be numbers\n"),
        (2, b"", b"input error: frame matrices must be numbers\n"),
        (2, b"", b"input error: frame file is not valid JSON: Expecting value: line 40 column 8 "
                 b"(char 646)\n"),
        (2, b"", b"input error: unknown frame kind ['grid']\n"),
        (3, b"", b"domain error: point [1.0, nan] lies outside the chart domain\n"),
        (3, b"", b"domain error: point [-5.0, 0.5] lies outside the chart domain\n"),
    ]
    # the two layouts of one frame verify alike
    assert results[0][3] == results[1][3] and b'"pass": true' in results[0][3]
    assert all(report is None for *_, report in results[2:])


def test_flags_no_construction_reads_are_refused_with_one_line():
    tool = load_tool()
    results = tool.run_group(tool.SRC, tool.flag_runs())
    assert [(code, out, err) for code, out, err, _ in results] == [
        (0, b"", b""),
        (2, b"", b"input error: --tol must be a finite number >= 0, got -1.0\n"),
        (2, b"", b"input error: --tol must be a finite number >= 0, got nan\n"),
        (2, b"", b"input error: --probe-seed applies only to frame point and flat\n"),
    ]
    assert [report is None for *_, report in results] == [False, True, True, True]


def test_dimension_ops_run_the_6d_coordinate_spec():
    tool = load_tool()
    assert json.loads(tool.COORDINATE6_SPEC.read_text()) == coordinate_spec(6)
    results = tool.run_group(tool.SRC, tool.dimension_runs())
    assert [(code, out, err) for code, out, err, _ in results] == [
        (0, b"", b""),
        (5, b"", b"flatness violation: derivation is not flat (max curvature entry 1.97957); "
                 b"no neighborhood-wide vanishing-component frame exists\n"),
    ]
