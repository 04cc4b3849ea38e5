"""File-driven front end: load a manifold spec, analyze, build frames, verify.

Spec files and outputs are JSON.  Reports are written through a
deterministic emitter (stable key order, floats at 17 significant digits)
so identical inputs and seed produce byte-identical files.

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 domain error,
4 existence-condition violation, 5 flatness violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .expr import (
    DomainError,
    ExprError,
    Symbol,
    evaluate,
    parse_expr,
    to_source,
)
from .geometry import Chart, FrameField, GeometryError, VectorField
from .derivation import (
    Connection,
    Derivation,
    LieType,
    STemplate,
    SymbolicTransform,
    WTemplate,
    linearity_probe,
    template_symbols,
)
from .curvature import (
    curvature_matrix,
    curvature_tensor,
    is_flat,
    is_torsion_free,
    torsion_tensor,
    torsion_vector,
)
from .frames import (
    DEFAULT_STEP,
    CurveSpec,
    GridSpec,
    NoFrameExistsError,
    NotFlatError,
    NotLinearConnectionError,
    PointFrameSpec,
    anchor_residual,
    curve_segment_residual,
    direction_functions,
    edge_propagators,
    flat_frame_neighborhood,
    frame_at_point_connection,
    frame_at_point_general,
    frame_at_point_holonomic,
    grid_edge_residual,
    identity_seed,
    transformed_components_max,
    transport_along_curve,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_EXISTENCE = 4
EXIT_FLATNESS = 5


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic JSON emitter (floats at 17 significant digits)


def _emit(obj, pieces: list, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            pieces.append(pad + "  " + json.dumps(str(key)) + ": ")
            _emit(val, pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj.tolist() if isinstance(obj, np.ndarray) else obj)
        if not items:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, val in enumerate(items):
            pieces.append(pad + "  ")
            _emit(val, pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(items) else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("reports must not contain non-finite numbers")
        pieces.append(format(value, ".17g"))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif obj is None:
        pieces.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(obj: dict) -> str:
    pieces: list[str] = []
    _emit(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def write_report(obj: dict, path: Optional[str]):
    text = dumps_report(obj)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# manifold spec loading


@dataclass
class ManifoldSetup:
    chart: Chart
    frame: FrameField
    deriv: Derivation
    fields: dict
    curves: dict
    digest: str
    variant: str


def _require(cond: bool, message: str):
    if not cond:
        raise InputError(message)


def load_manifold_spec(path: str) -> ManifoldSetup:
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise InputError(f"cannot read spec file {path!r}: {err}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError(f"spec file is not valid JSON: {err}") from None
    _require(isinstance(doc, dict), "spec root must be an object")

    n = doc.get("dimension")
    _require(isinstance(n, int) and n >= 1, "'dimension' must be a positive integer")
    coords = doc.get("coordinates")
    _require(
        isinstance(coords, list) and len(coords) == n and all(isinstance(c, str) for c in coords),
        "'coordinates' must list one name per dimension",
    )
    domain = doc.get("domain")
    _require(
        isinstance(domain, list) and len(domain) == n
        and all(isinstance(iv, list) and len(iv) == 2 for iv in domain),
        "'domain' must list one [lo, hi] interval per coordinate",
    )
    try:
        chart = Chart(tuple(coords), tuple((float(a), float(b)) for a, b in domain))
    except ValueError as err:
        raise InputError(str(err)) from None

    def parse_in_chart(text, context):
        _require(isinstance(text, str), f"{context}: expression entries must be strings")
        try:
            return parse_expr(text, chart.symbols)
        except ExprError as err:
            raise InputError(f"{context}: {err}") from None

    frame_entries = doc.get("frame")
    if frame_entries is None:
        frame = FrameField.coordinate(chart)
    else:
        _require(
            isinstance(frame_entries, list) and len(frame_entries) == n
            and all(isinstance(row, list) and len(row) == n for row in frame_entries),
            "'frame' must be an n x n array of expression strings",
        )
        frame = FrameField(
            chart,
            [[parse_in_chart(e, f"frame[{i}][{j}]") for j, e in enumerate(row)]
             for i, row in enumerate(frame_entries)],
        )

    deriv_block = doc.get("derivation")
    _require(isinstance(deriv_block, dict), "'derivation' object is required")
    variants = [k for k in ("connection", "lie", "w_template", "s_template") if k in deriv_block]
    _require(len(variants) == 1, "'derivation' must contain exactly one variant key")
    variant = variants[0]

    if variant == "connection":
        table = deriv_block["connection"]
        _require(isinstance(table, dict), "'connection' must map 'i,j,k' strings to expressions")
        gamma = np.empty((n, n, n), dtype=object)
        from .expr import Const

        gamma[...] = Const(0.0)
        for key, text in table.items():
            parts = str(key).split(",")
            _require(len(parts) == 3, f"connection key {key!r} must be 'i,j,k'")
            try:
                i, j, k = (int(p) for p in parts)
            except ValueError:
                raise InputError(f"connection key {key!r} must hold integers") from None
            _require(
                all(1 <= v <= n for v in (i, j, k)),
                f"connection key {key!r} out of range 1..{n}",
            )
            gamma[i - 1, j - 1, k - 1] = parse_in_chart(text, f"connection[{key}]")
        deriv: Derivation = Connection(frame, gamma)
    elif variant == "lie":
        _require(deriv_block["lie"] in ({}, None, True), "'lie' takes no parameters")
        deriv = LieType(frame)
    else:
        table = deriv_block[variant]
        _require(
            isinstance(table, list) and len(table) == n
            and all(isinstance(row, list) and len(row) == n for row in table),
            f"'{variant}' must be an n x n array of expression strings",
        )
        symbols = template_symbols(chart, n)
        entries = []
        for i, row in enumerate(table):
            parsed_row = []
            for j, text in enumerate(row):
                _require(isinstance(text, str), f"{variant}[{i}][{j}] must be a string")
                try:
                    parsed_row.append(parse_expr(text, symbols))
                except ExprError as err:
                    raise InputError(f"{variant}[{i}][{j}]: {err}") from None
            entries.append(parsed_row)
        deriv = WTemplate(frame, entries) if variant == "w_template" else STemplate(frame, entries)

    fields = {}
    for name, comps in (doc.get("fields") or {}).items():
        _require(
            isinstance(comps, list) and len(comps) == n,
            f"field {name!r} must list {n} component expressions",
        )
        fields[name] = VectorField(
            frame, [parse_in_chart(c, f"fields[{name}][{i}]") for i, c in enumerate(comps)]
        )

    curves = {}
    s_symbol = Symbol("s")
    for name, block in (doc.get("curves") or {}).items():
        _require(isinstance(block, dict), f"curve {name!r} must be an object")
        exprs = block.get("exprs")
        _require(
            isinstance(exprs, list) and len(exprs) == n,
            f"curve {name!r} must list {n} coordinate expressions",
        )
        parsed = []
        for i, text in enumerate(exprs):
            try:
                parsed.append(parse_expr(text, [s_symbol]))
            except ExprError as err:
                raise InputError(f"curves[{name}][{i}]: {err}") from None
        interval = block.get("interval")
        _require(
            isinstance(interval, list) and len(interval) == 2,
            f"curve {name!r} needs an [a, b] interval",
        )
        s0 = block.get("s0", interval[0])
        step = block.get("step", 1e-3)
        curves[name] = CurveSpec(
            exprs=tuple(parsed),
            interval=(float(interval[0]), float(interval[1])),
            s0=float(s0),
            step=float(step),
            parameter=s_symbol,
        )

    return ManifoldSetup(chart, frame, deriv, fields, curves, digest, variant)


def parse_point(text: str, chart: Chart) -> np.ndarray:
    values = {}
    for item in text.split(","):
        if "=" not in item:
            raise InputError(f"--at expects name=value pairs, got {item!r}")
        name, _, val = item.partition("=")
        name = name.strip()
        if name not in chart.coordinates:
            raise InputError(f"unknown coordinate {name!r} in --at")
        try:
            values[name] = float(val)
        except ValueError:
            raise InputError(f"bad number {val!r} in --at") from None
    missing = [c for c in chart.coordinates if c not in values]
    if missing:
        raise InputError(f"--at is missing coordinates {missing}")
    return chart.point(values)


# ---------------------------------------------------------------------------
# analyze


def _verdict_dict(verdict) -> dict:
    return {"value": bool(verdict), "residual": verdict.max_residual, "tol": verdict.tol}


def build_analysis_report(setup: ManifoldSetup, at: np.ndarray, seed: int) -> dict:
    chart = setup.chart
    deriv = setup.deriv
    frame = setup.frame
    n = chart.dimension
    if not chart.contains(at):
        raise DomainError(f"point {at.tolist()} lies outside the chart domain")

    anhol = frame.anholonomy()
    tables: dict = {"anholonomy": anhol.evaluate_at(at)}
    if isinstance(deriv, Connection):
        tables["curvature_tensor"] = curvature_tensor(deriv).evaluate_at(at)
        tables["torsion_tensor"] = torsion_tensor(deriv).evaluate_at(at)
        tables["connection"] = deriv.gamma_at(at)
    else:
        assignment = chart.assignment(at)
        pair_curv = {}
        pair_tors = {}
        for i in range(n):
            for j in range(i + 1, n):
                label = f"E{i + 1},E{j + 1}"
                ei = frame.coordinate_vector(i)
                ej = frame.coordinate_vector(j)
                pair_curv[label] = curvature_matrix(deriv, ei, ej).evaluate_at(at)
                pair_tors[label] = [
                    evaluate(c, assignment) for c in torsion_vector(deriv, ei, ej).components
                ]
        tables["curvature_matrix"] = pair_curv
        tables["torsion_vector"] = pair_tors

    flat = is_flat(deriv, seed=seed)
    tfree = is_torsion_free(deriv, seed=seed)
    linear = linearity_probe(deriv, at, seed=seed)
    verdicts = {
        "flat": _verdict_dict(flat),
        "torsion_free": _verdict_dict(tfree),
        "linear_at_point": {
            "value": linear.is_linear,
            "residual": linear.max_residual,
            "tol": 1e-9,
            "gammas": linear.gammas if linear.gammas is not None else None,
            "witness": linear.witness,
        },
    }
    return {
        "tool": {"name": "normframes", "version": __version__},
        "input_digest": setup.digest,
        "probe_seed": seed,
        "at": {name: float(v) for name, v in zip(chart.coordinates, at)},
        "tables": tables,
        "verdicts": verdicts,
    }


def cmd_analyze(args) -> int:
    setup = load_manifold_spec(args.spec)
    at = parse_point(args.at, setup.chart)
    report = build_analysis_report(setup, at, args.probe_seed)
    write_report(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# frame construction


def _frame_header(setup: ManifoldSetup, kind: str) -> dict:
    return {
        "tool": {"name": "normframes", "version": __version__},
        "input_digest": setup.digest,
        "kind": kind,
        "dimension": setup.chart.dimension,
    }


def cmd_frame(args) -> int:
    setup = load_manifold_spec(args.spec)
    chart = setup.chart
    deriv = setup.deriv
    n = chart.dimension

    if args.mode == "point":
        if not args.at:
            raise InputError("frame point needs --at")
        at = parse_point(args.at, chart)
        if not chart.contains(at):
            raise DomainError(f"point {at.tolist()} lies outside the chart domain")
        if args.field:
            if args.field not in setup.fields:
                raise InputError(f"spec declares no field named {args.field!r}")
            x = setup.fields[args.field]
            x_val = x.at(at)
            vanishing = float(np.max(np.abs(x_val))) <= 1e-12
            if args.holonomic:
                a_mat = np.eye(n) if vanishing else _holonomic_matrix_seed(x_val)
                spec = PointFrameSpec(anchor=at, a_factors=(np.ones(n), a_mat))
                result = frame_at_point_holonomic(deriv, x, spec)
            else:
                # the existence check for a vanishing field never reads the seed
                seed = None if vanishing else identity_seed(x_val)
                spec = PointFrameSpec(anchor=at, a=seed)
                result = frame_at_point_general(deriv, x, spec)
            verifier = {"anchor_residual": result.residual}
            if result.certificate_symmetry_residual is not None:
                verifier["certificate_symmetry_residual"] = result.certificate_symmetry_residual
                verifier["certificate"] = result.certificate
        else:
            result = frame_at_point_connection(
                deriv, PointFrameSpec(anchor=at), seed=args.probe_seed
            )
            verifier = {"anchor_residual": result.residual}
        doc = _frame_header(setup, "symbolic")
        doc["field"] = (
            [to_source(c) for c in setup.fields[args.field].components] if args.field else None
        )
        doc["data"] = [
            [to_source(result.transform.entries[i, j]) for j in range(n)] for i in range(n)
        ]
        doc["locus"] = {"point": [float(v) for v in at]}
        doc["verifier"] = verifier
        write_report(doc, args.out)
        return EXIT_OK

    if args.mode == "curve":
        if not args.field or args.field not in setup.fields:
            raise InputError("curve transport needs --field naming a spec field")
        if not args.curve or args.curve not in setup.curves:
            raise InputError("curve transport needs --curve naming a spec curve")
        x = setup.fields[args.field]
        curve = setup.curves[args.curve]
        if args.step:
            curve = CurveSpec(curve.exprs, curve.interval, curve.s0, args.step, curve.parameter)
        frame_result = transport_along_curve(deriv, x, curve, np.eye(n))
        doc = _frame_header(setup, "curve")
        doc["field"] = [to_source(c) for c in x.components]
        doc["data"] = {"matrices": frame_result.matrices}
        doc["locus"] = {
            "curve": {
                "exprs": [to_source(e) for e in curve.exprs],
                "s": frame_result.s_values,
                "points": frame_result.points,
                "s0": curve.s0,
                "step": curve.step,
            }
        }
        doc["verifier"] = {
            "max_directional_residual": frame_result.max_directional_residual,
        }
        write_report(doc, args.out)
        return EXIT_OK

    if args.mode == "flat":
        counts = _parse_grid(args.grid, n)
        grid = GridSpec(counts)
        result = flat_frame_neighborhood(
            deriv, grid, h=args.step or 1e-3, seed=args.probe_seed
        )
        doc = _frame_header(setup, "grid")
        doc["field"] = None
        doc["data"] = {"matrices": result.matrices}
        doc["locus"] = {
            "grid": {
                "axes": [ax for ax in result.axes],
                "base_index": list(result.base_index),
            }
        }
        doc["verifier"] = {
            "gamma_prime_residual": result.gamma_prime_residual,
            "path_audit_deviation": result.path_audit_deviation,
        }
        write_report(doc, args.out)
        return EXIT_OK

    raise InputError(f"unknown frame mode {args.mode!r}")


def _holonomic_matrix_seed(x_value: np.ndarray) -> np.ndarray:
    """Invertible matrix factor with a well-scaled contraction against X(x0)."""
    n = len(x_value)
    k = int(np.argmax(np.abs(x_value)))
    if x_value[k] == 0.0:
        raise NoFrameExistsError("holonomic seed needs a nonvanishing field value")
    a_mat = np.eye(n)
    a_mat[:, k] /= x_value[k]
    return a_mat


def _parse_grid(text: Optional[str], n: int) -> tuple[int, ...]:
    if not text:
        return tuple(11 for _ in range(n))
    parts = text.lower().split("x")
    try:
        counts = tuple(int(p) for p in parts)
    except ValueError:
        raise InputError(f"bad --grid {text!r}; expected like 21x21") from None
    if len(counts) != n:
        raise InputError(f"--grid needs {n} axis counts")
    return counts


# ---------------------------------------------------------------------------
# verify


def _verify_symbolic(setup: ManifoldSetup, doc: dict, tol: float) -> tuple[float, dict]:
    chart = setup.chart
    n = chart.dimension
    entries = doc.get("data")
    _require(
        isinstance(entries, list) and len(entries) == n,
        "symbolic frame data must be an n x n expression array",
    )
    parsed = [
        [parse_expr(entries[i][j], chart.symbols) for j in range(n)] for i in range(n)
    ]
    transform = SymbolicTransform(setup.frame, parsed, _validate=False)
    locus = doc.get("locus", {})
    _require("point" in locus, "symbolic frame files carry a point locus")
    at = chart.point(locus["point"])
    if doc.get("field"):
        x = VectorField(setup.frame, [parse_expr(c, chart.symbols) for c in doc["field"]])
        residual = anchor_residual(setup.deriv, x, transform, at)
    else:
        residual = transformed_components_max(setup.deriv, transform, at)
    return residual, {"anchor_residual": residual}


def _verify_nodes_by_transport(setup, doc, tol, kind) -> tuple[float, dict]:
    chart = setup.chart
    n = chart.dimension
    data = doc.get("data", {})
    matrices = np.asarray(data.get("matrices"), dtype=float)
    _require(bool(np.isfinite(matrices).all()), "frame matrices must be finite numbers")
    locus = doc.get("locus", {})

    if kind == "curve":
        block = locus.get("curve", {})
        points = np.asarray(block.get("points"), dtype=float)
        _require(matrices.ndim == 3 and matrices.shape[1:] == (n, n), "bad curve matrices")
        _require(len(points) == len(matrices), "curve points and matrices disagree")
        field_comps = doc.get("field")
        _require(field_comps is not None, "curve frame files carry the transported field")
        x = VectorField(setup.frame, [parse_expr(c, chart.symbols) for c in field_comps])
        s_vals = np.asarray(block.get("s"), dtype=float)
        _require(s_vals.shape == (len(matrices),), "curve parameters and matrices disagree")
        # re-transport every inter-node segment from the raw data
        param = Symbol("s")
        exprs = [parse_expr(e, [param]) for e in block.get("exprs", [])]
        _require(len(exprs) == n, "curve frame files carry the curve expressions")
        worst, worst_at = curve_segment_residual(setup.deriv, x, exprs, param, s_vals, matrices)
        return worst, {"max_residual": worst, "worst_segment": worst_at}

    block = locus.get("grid", {})
    axes = [np.asarray(ax, dtype=float) for ax in block.get("axes", [])]
    _require(len(axes) == n, "grid frame files carry per-axis node arrays")
    shape = tuple(len(ax) for ax in axes)
    _require(matrices.shape == shape + (n, n), "grid matrices disagree with axes")
    # re-transported at the default step, whatever step built the file
    propagators = [
        edge_propagators(m_fn, axes, axis, DEFAULT_STEP)
        for axis, m_fn in enumerate(direction_functions(setup.deriv))
    ]
    worst, worst_at = grid_edge_residual(axes, matrices, propagators)
    return worst, {"max_residual": worst, "worst_edge": worst_at}


def cmd_verify(args) -> int:
    setup = load_manifold_spec(args.spec)
    try:
        doc = json.loads(Path(args.frame).read_text())
    except OSError as err:
        raise InputError(f"cannot read frame file: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"frame file is not valid JSON: {err}") from None
    if doc.get("dimension") != setup.chart.dimension:
        raise InputError(
            f"frame dimension {doc.get('dimension')} does not match spec "
            f"dimension {setup.chart.dimension}"
        )
    kind = doc.get("kind")
    if kind == "symbolic":
        residual, detail = _verify_symbolic(setup, doc, args.tol)
    elif kind in ("curve", "grid"):
        residual, detail = _verify_nodes_by_transport(setup, doc, args.tol, kind)
    else:
        raise InputError(f"unknown frame kind {kind!r}")
    report = {
        "tool": {"name": "normframes", "version": __version__},
        "input_digest": setup.digest,
        "kind": kind,
        "tol": args.tol,
        "max_residual": residual,
        "pass": residual <= args.tol,
        "detail": detail,
    }
    write_report(report, args.out)
    return EXIT_OK if residual <= args.tol else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normframes",
        description=(
            "Analyze derivations of tensor algebras over a chart and build "
            "frames in which their components vanish."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="component tables and verdicts at a point")
    p_an.add_argument("spec", help="manifold spec file (JSON)")
    p_an.add_argument("--at", required=True, help="evaluation point, e.g. r=1,theta=0.5")
    p_an.add_argument("--probe-seed", type=int, default=42)
    p_an.add_argument("--out", default=None, help="report path (default stdout)")
    p_an.set_defaults(func=cmd_analyze)

    p_fr = sub.add_parser("frame", help="construct a vanishing-component frame")
    p_fr.add_argument("spec")
    p_fr.add_argument("mode", choices=["point", "curve", "flat"])
    p_fr.add_argument("--at", help="anchor point for mode=point")
    p_fr.add_argument("--field", help="spec field name (fixed-field constructions)")
    p_fr.add_argument("--curve", help="spec curve name (mode=curve)")
    p_fr.add_argument("--holonomic", action="store_true", help="factorized-seed construction")
    p_fr.add_argument("--grid", help="node counts for mode=flat, e.g. 21x21")
    p_fr.add_argument("--step", type=float, default=None, help="integration step")
    p_fr.add_argument("--probe-seed", type=int, default=42)
    p_fr.add_argument("--out", default=None)
    p_fr.set_defaults(func=cmd_frame)

    p_ve = sub.add_parser("verify", help="recheck a frame file against a spec")
    p_ve.add_argument("spec")
    p_ve.add_argument("frame")
    p_ve.add_argument("--tol", type=float, default=1e-6)
    p_ve.add_argument("--out", default=None)
    p_ve.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, GeometryError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except ExprError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NoFrameExistsError as err:
        print(f"no frame exists: {err}", file=sys.stderr)
        return EXIT_EXISTENCE
    except (NotFlatError, NotLinearConnectionError) as err:
        print(f"flatness violation: {err}", file=sys.stderr)
        return EXIT_FLATNESS
    except ValueError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
