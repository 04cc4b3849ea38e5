"""Workload op lists, their expected outcomes, and how a result is judged.

Each workload is a fixed list of CLI invocations on the specs in
``benchmarks/specs``.  The workload seed only picks the ``--at`` anchors of
``analyze`` and ``point`` ops, uniformly in the inner half of the spec's
domain box; grids, curves, steps and ``--probe-seed 42`` are fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks

SPECS = Path(__file__).resolve().parent / "specs"
PROBE_SEED = "42"
VERIFY_TOL = 1e-6
CURVE_STEP = 0.0002

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("grid", "symbolic", "curve_point")

# The factorized seed of the holonomic point frame is rank one by design, so
# `verify` reaches the FrameField nondegeneracy check through transform_w and
# crashes with exit 1 and a DegenerateFrameError traceback at any anchor.  The
# expected outcome is exit 0 with no traceback, matching the library's own
# uninverted anchor check; until that is fixed the op counts as failed.
HOLONOMIC_VERIFY_DEFECT = "verify of a holonomic point frame crashes with DegenerateFrameError"


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    expect_exit: int
    out: Optional[str]
    check: Callable[[Optional[dict]], list]
    known_defect: Optional[str] = None


@dataclass
class OpResult:
    exit_code: int
    stderr: str
    seconds: float
    out_doc: Optional[dict]
    rss_mb: float = 0.0


def classify(op: Op, result: OpResult) -> tuple[str, list]:
    """'ok', 'known-defect' (the documented failure, still a failure) or 'unexpected'."""
    problems = []
    if result.exit_code != op.expect_exit:
        problems.append(f"exit {result.exit_code}, expected {op.expect_exit}")
    if checks.TRACEBACK in result.stderr:
        problems.append("stderr carries a traceback")
    if not problems:
        try:
            problems.extend(op.check(result.out_doc))
        except (KeyError, IndexError, TypeError, ValueError, AttributeError,
                SyntaxError, NameError, ZeroDivisionError) as err:
            problems.append(f"output does not have the expected form: {err!r}")
    if not problems:
        return "ok", []
    if (op.known_defect == HOLONOMIC_VERIFY_DEFECT and result.exit_code == 1
            and "DegenerateFrameError" in result.stderr):
        return "known-defect", problems
    return "unexpected", problems


def spec_doc(name: str) -> dict:
    return json.loads((SPECS / f"{name}.json").read_text())


def spec_path(name: str) -> str:
    return str(SPECS / f"{name}.json")


def _anchor(rng: random.Random, doc: dict):
    values = []
    for lo, hi in doc["domain"]:
        quarter = (hi - lo) / 4.0
        values.append(rng.uniform(lo + quarter, hi - quarter))
    text = ",".join(f"{c}={v!r}" for c, v in zip(doc["coordinates"], values))
    return values, text


def _require_doc(check):
    def run(doc):
        return ["no readable output file was written"] if doc is None else check(doc)

    return run


def _no_output(doc):
    return [] if doc is None else ["an output file was written for a rejected op"]


def _verify_op(spec: str, frame_file: str, kind: str, known_defect=None) -> Op:
    out = frame_file.replace(".json", "_verify.json")
    return Op(
        "verify",
        ("verify", spec_path(spec), frame_file, "--tol", repr(VERIFY_TOL), "--out", out),
        expect_exit=0,
        out=out,
        check=_require_doc(lambda doc: checks.check_verify_report(doc, kind, VERIFY_TOL)),
        known_defect=known_defect,
    )


def _grid_ops(spec: str, counts: tuple, check) -> list:
    doc = spec_doc(spec)
    out = f"{spec}_grid.json"
    grid = "x".join(str(c) for c in counts)
    frame = Op(
        "frame",
        ("frame", spec_path(spec), "flat", "--grid", grid, "--probe-seed", PROBE_SEED, "--out", out),
        expect_exit=0,
        out=out,
        check=_require_doc(lambda d: check(d, doc["domain"], counts)),
    )
    return [frame, _verify_op(spec, out, "grid")]


def _point_ops(rng, spec: str, field=None, holonomic=False, known_defect=None) -> list:
    doc = spec_doc(spec)
    anchor, at = _anchor(rng, doc)
    out = f"{spec}_point_{field or 'connection'}.json"
    argv = ["frame", spec_path(spec), "point", "--at", at]
    if field:
        argv += ["--field", field]
    if holonomic:
        argv.append("--holonomic")
    argv += ["--probe-seed", PROBE_SEED, "--out", out]

    def check(d):
        return checks.check_point_frame(d, spec, doc["coordinates"], field, anchor, holonomic)

    frame = Op("frame", tuple(argv), expect_exit=0, out=out, check=_require_doc(check))
    return [frame, _verify_op(spec, out, "symbolic", known_defect)]


def _analyze_op(rng, spec: str) -> Op:
    doc = spec_doc(spec)
    anchor, at = _anchor(rng, doc)
    out = f"{spec}_analysis.json"
    return Op(
        "analyze",
        ("analyze", spec_path(spec), "--at", at, "--probe-seed", PROBE_SEED, "--out", out),
        expect_exit=0,
        out=out,
        check=_require_doc(lambda d: checks.check_analysis(d, spec, doc, anchor)),
    )


def build_ops(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "grid":
        return (_grid_ops("polar_euclidean", (41, 41), checks.check_polar_grid)
                + _grid_ops("sph3_orthonormal", (4, 4, 4), checks.check_sph3_grid))
    if workload == "symbolic":
        ops = [_analyze_op(rng, s)
               for s in ("s4_template", "sph3_orthonormal", "torsion_template", "lie_plane")]
        ops.append(Op(
            "frame",
            ("frame", spec_path("unit_sphere"), "flat", "--grid", "11x11",
             "--probe-seed", PROBE_SEED, "--out", "unit_sphere_grid.json"),
            expect_exit=5,
            out="unit_sphere_grid.json",
            check=_no_output,
        ))
        return ops
    if workload == "curve_point":
        polar = spec_doc("polar_euclidean")["curves"]["unit_circle"]
        out = "polar_euclidean_curve.json"
        curve = Op(
            "frame",
            ("frame", spec_path("polar_euclidean"), "curve", "--field", "angular",
             "--curve", "unit_circle", "--step", repr(CURVE_STEP), "--out", out),
            expect_exit=0,
            out=out,
            check=_require_doc(lambda d: checks.check_circle_curve(d, polar["interval"], CURVE_STEP)),
        )
        return ([curve, _verify_op("polar_euclidean", out, "curve")]
                + _point_ops(rng, "unit_sphere")
                + _point_ops(rng, "unit_sphere", "meridian", holonomic=True,
                             known_defect=HOLONOMIC_VERIFY_DEFECT)
                + _point_ops(rng, "s4_template", "e1")
                + _point_ops(rng, "torsion_template", "unit1"))
    raise KeyError(workload)


def workload_specs(workload: str) -> list:
    """Every spec file a workload's ops read."""
    paths = []
    for op in build_ops(workload, 0):
        path = op.argv[1]
        if path not in paths:
            paths.append(path)
    return paths
