"""File-driven front end: load a manifold spec, analyze, build frames, verify.

Spec files and outputs are JSON.  Reports are written through a
deterministic emitter (stable key order, floats at 17 significant digits)
so identical inputs and seed produce byte-identical files.

Exit codes: 0 ok, 1 verification failure (also a construction that fails
its own checks), 2 input error (also exhausted memory), 3 domain error,
4 existence-condition violation, 5 flatness violation.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

try:  # the interpreter's builtin SHA-256; hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .expr import (
    Const,
    DomainError,
    ExprError,
    parse_expr,
    to_source,
)
from .geometry import DEFAULT_SEED, Chart, FrameField, GeometryError, VectorField
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
from .curvature import ProbeForms, sampled_verdict
from .frames import (
    CURVE_PARAMETER,
    DEFAULT_STEP,
    ZERO_FIELD_TOL,
    ConstructionError,
    CurveError,
    CurveSpec,
    GridSpec,
    NoFrameExistsError,
    NotFlatError,
    NotLinearConnectionError,
    PointFrameSpec,
    anchor_residual,
    check_lattice_axes,
    curve_direction_function,
    curve_points,
    direction_functions,
    flat_frame_neighborhood,
    frame_at_point_connection,
    frame_at_point_general,
    grid_edge_residual,
    identity_seed,
    lattice_propagators,
    transformed_components_max,
    transport_along_curve,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_EXISTENCE = 4
EXIT_FLATNESS = 5


# ---------------------------------------------------------------------------
# deterministic JSON emitter (floats at 17 significant digits)


# floats formatted per piece of a float array: the writer's working set
_FLOATS_PER_PIECE = 1 << 12


def _emit(obj, indent: int):
    """The report text of ``obj`` at nesting level ``indent``, in pieces."""
    pad = "  " * indent
    if isinstance(obj, np.ndarray) and not obj.ndim:
        obj = obj.item()
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{\n"
        for i, (key, val) in enumerate(obj.items()):
            yield pad + "  " + json.dumps(str(key)) + ": "
            yield from _emit(val, indent + 1)
            yield ",\n" if i + 1 < len(obj) else "\n"
        yield pad + "}"
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.size:
        yield from _float_array_text(obj, indent)
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj.tolist() if isinstance(obj, np.ndarray) else obj)
        if not items:
            yield "[]"
            return
        yield "[\n"
        for i, val in enumerate(items):
            yield pad + "  "
            yield from _emit(val, indent + 1)
            yield ",\n" if i + 1 < len(items) else "\n"
        yield pad + "]"
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("reports must not contain non-finite numbers")
        yield format(value, ".17g")
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif obj is None:
        yield "null"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_array_text(arr: np.ndarray, indent: int):
    """What :func:`_emit` writes for ``arr.tolist()``, in pieces of whole
    rows along the first axis, about _FLOATS_PER_PIECE floats each: one
    ``%`` per piece over the rows' template, built one nesting level at a
    time from "%.17g" placeholders (``'%.17g' % v`` is ``format(v, '.17g')``)."""
    if not np.isfinite(arr).all():
        raise ValueError("reports must not contain non-finite numbers")
    row = "%.17g"
    for level in reversed(range(1, arr.ndim)):
        pad = "\n" + "  " * (indent + level)
        row = "[" + pad + "  " + ("," + pad + "  ").join([row] * arr.shape[level]) + pad + "]"
    pad = "\n" + "  " * indent
    comma = "," + pad + "  "
    rows = max(1, _FLOATS_PER_PIECE * len(arr) // arr.size)
    yield "[" + pad + "  "
    for first in range(0, len(arr), rows):
        if first:
            yield comma
        block = arr[first : first + rows]
        yield comma.join([row] * len(block)) % tuple(block.ravel().tolist())
    yield pad + "]"


def _report_text(obj: dict):
    yield from _emit(obj, 0)
    yield "\n"


def dumps_report(obj: dict) -> str:
    return "".join(_report_text(obj))


def write_report(obj: dict, path: Optional[str]):
    """Write the report to stdout (``path`` None or ``-``) or to the file
    ``path`` piece by piece as it is emitted.  A report refused part way (a
    non-finite number, an unserializable value) or a failed write removes
    the file it began, so nothing is left at ``path``."""
    if path is None or path == "-":
        sys.stdout.write(dumps_report(obj))
        return
    try:
        out = open(path, "w")
    except OSError as err:
        raise ValueError(f"cannot write {path!r}: {err.strerror or err}") from None
    try:
        with out:
            out.writelines(_report_text(obj))
    except BaseException as err:
        if Path(path).is_file():  # never a device such as /dev/null
            Path(path).unlink()
        if isinstance(err, OSError):
            raise ValueError(f"cannot write {path!r}: {err.strerror or err}") from None
        raise


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
        raise ValueError(message)


def _numbers(value, what: str, array: bool = False):
    """``value``, a JSON number, as a float, or nested lists of them as a
    float array; a node array parsed in pieces arrives as a float array
    already.  Anything else, a string, a boolean or null among it, is an
    input error."""
    if isinstance(value, np.ndarray):
        return value
    items = [value]
    for item in items:  # grows by the items of each list met
        if array and isinstance(item, list):
            items.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{what} must be numbers")
    try:
        return np.asarray(value, dtype=float) if array else float(value)
    except (ValueError, OverflowError):
        raise ValueError(f"{what} must be numbers") from None


def _expressions(value, shape: tuple, symbols, what: str):
    """``value``, a JSON nested list of expression strings of exactly
    ``shape`` (a lone string for ``()``), parsed entry by entry against
    ``symbols``: an Expr, or nested lists of them.  Anything else is an
    input error that names ``what`` and the entry's index."""
    if not shape:
        try:
            return parse_expr(value, symbols)
        except ExprError as err:
            raise ValueError(f"{what}: {err}") from None
    _require(isinstance(value, list) and len(value) == shape[0],
             f"{what}: expected a list of {shape[0]} entries")
    return [_expressions(v, shape[1:], symbols, f"{what}[{i}]") for i, v in enumerate(value)]


def _named_blocks(doc: dict, key: str):
    blocks = doc.get(key)  # missing or null: none
    _require(blocks is None or isinstance(blocks, dict),
             f"'{key}' must be an object keyed by name")
    return (blocks or {}).items()


def load_manifold_spec(path: str) -> ManifoldSetup:
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise ValueError(f"cannot read spec file {path!r}: {err}") from None
    digest = sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ValueError(f"spec file is not valid JSON: {err}") from None
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
    bounds = tuple(tuple(_numbers(v, "'domain' bounds") for v in iv) for iv in domain)
    chart = Chart(tuple(coords), bounds)

    frame_entries = doc.get("frame")
    if frame_entries is None:
        frame = FrameField.coordinate(chart)
    else:
        frame = FrameField(chart, _expressions(frame_entries, (n, n), chart.symbols, "frame"))

    deriv_block = doc.get("derivation")
    _require(isinstance(deriv_block, dict), "'derivation' object is required")
    variants = [k for k in ("connection", "lie", "w_template", "s_template") if k in deriv_block]
    _require(len(variants) == 1, "'derivation' must contain exactly one variant key")
    variant = variants[0]

    if variant == "connection":
        table = deriv_block["connection"]
        _require(isinstance(table, dict), "'connection' must map 'i,j,k' strings to expressions")
        gamma = np.empty((n, n, n), dtype=object)
        gamma[...] = Const(0.0)
        for key, text in table.items():
            parts = str(key).split(",")
            _require(len(parts) == 3, f"connection key {key!r} must be 'i,j,k'")
            try:
                i, j, k = (int(p) for p in parts)
            except ValueError:
                raise ValueError(f"connection key {key!r} must hold integers") from None
            _require(
                all(1 <= v <= n for v in (i, j, k)),
                f"connection key {key!r} out of range 1..{n}",
            )
            gamma[i - 1, j - 1, k - 1] = _expressions(text, (), chart.symbols,
                                                      f"connection[{key}]")
        deriv: Derivation = Connection(frame, gamma)
    elif variant == "lie":
        _require(deriv_block["lie"] in ({}, None, True), "'lie' takes no parameters")
        deriv = LieType(frame)
    else:
        entries = _expressions(deriv_block[variant], (n, n), template_symbols(chart, n), variant)
        deriv = WTemplate(frame, entries) if variant == "w_template" else STemplate(frame, entries)

    fields = {}
    for name, comps in _named_blocks(doc, "fields"):
        fields[name] = VectorField(frame, _expressions(comps, (n,), chart.symbols,
                                                       f"fields[{name}]"))

    curves = {}
    for name, block in _named_blocks(doc, "curves"):
        _require(isinstance(block, dict), f"curve {name!r} must be an object")
        exprs = _expressions(block.get("exprs"), (n,), [CURVE_PARAMETER],
                             f"curves[{name}][exprs]")
        interval = block.get("interval")
        _require(
            isinstance(interval, list) and len(interval) == 2,
            f"curve {name!r} needs an [a, b] interval",
        )
        a, b = (_numbers(v, f"curve {name!r} interval") for v in interval)
        curves[name] = CurveSpec(
            exprs=tuple(exprs),
            interval=(a, b),
            s0=_numbers(block.get("s0", a), f"curve {name!r} s0"),
            step=_numbers(block.get("step", DEFAULT_STEP), f"curve {name!r} step"),
        )

    return ManifoldSetup(chart, frame, deriv, fields, curves, digest, variant)


def _domain_point(value, chart: Chart) -> np.ndarray:
    """``value`` as a point of the chart; a point outside its domain box, or
    with a NaN coordinate, is a domain error."""
    at = chart.point(value)
    if not chart.contains(at):
        raise DomainError(f"point {at.tolist()} lies outside the chart domain")
    return at


def parse_point(text: str, chart: Chart) -> np.ndarray:
    """The ``--at`` text ``name=value,...`` as a point of the chart's domain."""
    values = {}
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"--at expects name=value pairs, got {item!r}")
        name, _, val = item.partition("=")
        name = name.strip()
        if name not in chart.coordinates:
            raise ValueError(f"unknown coordinate {name!r} in --at")
        if name in values:
            raise ValueError(f"coordinate {name!r} is given twice in --at")
        try:
            values[name] = float(val)
        except ValueError:
            raise ValueError(f"bad number {val!r} in --at") from None
    missing = [c for c in chart.coordinates if c not in values]
    if missing:
        raise ValueError(f"--at is missing coordinates {missing}")
    return _domain_point(values, chart)


# ---------------------------------------------------------------------------
# analyze


def _verdict_dict(verdict, chart: Chart, points, labels) -> dict:
    """A sampled verdict: value, residual and tolerance, and where the
    residual sits: the sample point, the form's label and the component."""
    point, form, *component = verdict.worst
    worst = {"point": {name: float(v) for name, v in zip(chart.coordinates, points[point])},
             "form": labels[form], "component": component}
    return {"value": bool(verdict), "residual": verdict.max_residual, "tol": verdict.tol,
            "worst": worst}


def build_analysis_report(setup: ManifoldSetup, at: np.ndarray, seed: int) -> dict:
    chart = setup.chart
    deriv = setup.deriv
    frame = setup.frame
    n = chart.dimension
    anhol = frame.anholonomy()
    tables: dict = {"anholonomy": anhol.evaluate_at(at)}
    # one evaluation: the tables read the forms at --at, the verdicts on the cloud
    forms = ProbeForms(deriv, seed)
    names = forms.labels()
    cloud = chart.sample_points(seed=seed)
    curvature, torsion = forms.at(np.vstack([at, cloud]))
    if isinstance(deriv, Connection):
        tables["curvature_tensor"] = curvature[0, 0]
        tables["torsion_tensor"] = torsion[0, 0]
        tables["connection"] = deriv.gamma_at(at)
    else:
        frame_pairs = names[:n * (n - 1) // 2]  # the frame pairs come first
        tables["curvature_matrix"] = dict(zip(frame_pairs, curvature[0]))
        tables["torsion_vector"] = dict(zip(frame_pairs, torsion[0]))

    flat = sampled_verdict(curvature[1:])
    tfree = sampled_verdict(torsion[1:])
    linear = linearity_probe(deriv, at, seed=seed)
    verdicts = {
        "flat": _verdict_dict(flat, chart, cloud, names),
        "torsion_free": _verdict_dict(tfree, chart, cloud, names),
        "linear_at_point": {
            "value": linear.is_linear,
            "residual": linear.max_residual,
            "tol": linear.tol,
            "gammas": linear.gammas,
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


def _refuse_unread_flags(args) -> None:
    """A frame flag that the mode would ignore is an input error."""
    if args.holonomic and not (args.mode == "point" and args.field):
        raise ValueError("--holonomic applies only to frame point with --field")
    for flag, value, modes in (
        ("--at", args.at, ("point",)),
        ("--field", args.field, ("point", "curve")),
        ("--grid", args.grid, ("flat",)),
        ("--curve", args.curve, ("curve",)),
        ("--step", args.step, ("curve", "flat")),
        ("--probe-seed", args.probe_seed, ("point", "flat")),
    ):
        if value is not None and args.mode not in modes:
            raise ValueError(f"{flag} applies only to frame {' and '.join(modes)}")


def cmd_frame(args) -> int:
    _refuse_unread_flags(args)
    setup = load_manifold_spec(args.spec)
    chart = setup.chart
    deriv = setup.deriv
    n = chart.dimension
    probe_seed = DEFAULT_SEED if args.probe_seed is None else args.probe_seed

    if args.mode == "point":
        if not args.at:
            raise ValueError("frame point needs --at")
        at = parse_point(args.at, chart)
        if args.field:
            if args.field not in setup.fields:
                raise ValueError(f"spec declares no field named {args.field!r}")
            x = setup.fields[args.field]
            x_val = x.at(at)
            vanishing = float(np.max(np.abs(x_val))) <= ZERO_FIELD_TOL
            if args.holonomic:
                a_mat = np.eye(n) if vanishing else _holonomic_matrix_seed(x_val)
                spec = PointFrameSpec(anchor=at, a_factors=(np.ones(n), a_mat))
            else:
                # the existence check for a vanishing field never reads the seed
                seed = None if vanishing else identity_seed(x_val)
                spec = PointFrameSpec(anchor=at, a=seed)
            result = frame_at_point_general(deriv, x, spec)
        else:
            result = frame_at_point_connection(
                deriv, PointFrameSpec(anchor=at), seed=probe_seed
            )
        verifier = {"anchor_residual": result.residual}
        if args.holonomic:
            verifier["certificate_symmetry_residual"] = result.certificate_symmetry_residual
            verifier["certificate"] = result.certificate
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
            raise ValueError("curve transport needs --field naming a spec field")
        if not args.curve or args.curve not in setup.curves:
            raise ValueError("curve transport needs --curve naming a spec curve")
        x = setup.fields[args.field]
        curve = setup.curves[args.curve]
        if args.step is not None:
            curve = CurveSpec(curve.exprs, curve.interval, curve.s0, args.step)
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
        h = DEFAULT_STEP if args.step is None else args.step
        result = flat_frame_neighborhood(deriv, grid, h=h, seed=probe_seed)
        doc = _frame_header(setup, "grid")
        doc["field"] = None
        doc["data"] = {"matrices": result.matrices}
        doc["locus"] = {
            "grid": {
                "axes": [ax for ax in result.axes],
                "base_index": [0] * n,  # every lattice fills from node 0
            }
        }
        doc["verifier"] = {
            "gamma_prime_residual": result.gamma_prime_residual,
            "path_audit_deviation": result.path_audit_deviation,
        }
        write_report(doc, args.out)
        return EXIT_OK

    raise ValueError(f"unknown frame mode {args.mode!r}")


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
        raise ValueError(f"bad --grid {text!r}; expected like 21x21") from None
    if len(counts) != n:
        raise ValueError(f"--grid needs {n} axis counts")
    return counts


# ---------------------------------------------------------------------------
# verify


# JSON type of "data", key of the locus entry and that entry's type, per frame kind
_FRAME_LAYOUT = {"symbolic": (list, "point", list), "curve": (dict, "curve", dict),
                "grid": (dict, "grid", dict)}
# largest |file point - curve(s)| per coordinate of a curve frame file, relative to
# max(1, |curve(s)|); the files this program writes hold curve(s) to the last bit
_CURVE_POINT_TOL = 1e-9


# bytes of a node array's text parsed at a time: about 250 numbers as this
# program writes them; larger pieces measured a higher peak, smaller ones slower
_PIECE_BYTES = 1 << 13
# the keys of a curve or grid frame file that hold one number, or one array, per node
_NODE_KEYS = frozenset({b"matrices", b"s", b"points"})
_NODE_KEY_BYTES = max(map(len, _NODE_KEYS)) + 1  # a key and its opening quote
_JSON_SPACE = re.compile(rb"[ \t\n\r]*")
_JSON_DECODER = json.JSONDecoder()
# every byte of a JSON array of numbers: digits, signs, '.', exponents, brackets, commas, space
_NUMBER_BYTES = b"0123456789+-.eE[], \t\n\r"


def _decoded(data: bytes) -> str:
    """``data`` decoded as ``Path.read_text`` decodes a file: the default
    text encoding, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding=io.text_encoding(None)).read()


def _node_array_starts(data: bytes) -> list:
    """The index of the '[' of each node array's value in ``data``, in order.
    Every quote is taken as the start of a string up to the next quote; a
    key of _NODE_KEYS counts when it is followed, past whitespace, by ':'
    and '['.  In valid JSON that is an object key and its array, whatever
    the quotes around it; in text that is not, the whole-document parse
    refuses the rest along with it."""
    starts = []
    end = data.find(b'"')
    while end >= 0:
        at, end = end, data.find(b'"', end + 1)
        if end < 0 or end - at > _NODE_KEY_BYTES or data[at + 1 : end] not in _NODE_KEYS:
            continue
        colon = _JSON_SPACE.match(data, end + 1).end()
        bracket = _JSON_SPACE.match(data, colon + 1).end()
        if data[colon : colon + 1] == b":" and data[bracket : bracket + 1] == b"[":
            starts.append(bracket)
    return starts


def _parse_node_array(data: bytes, start: int):
    """The JSON array whose '[' is ``data[start]`` as a float array, and the
    index past its ']'; None when it is not one.

    The array is cut at its top-level commas, found with ``find`` and bracket
    ``count``s, into pieces of about _PIECE_BYTES; each piece is parsed as
    a list (``raw_decode``, which also finds the ']' that closes the array)
    and converted on its own.  Each piece must parse as a non-empty list,
    hold only _NUMBER_BYTES up to the end of the array, and convert to rows
    of the first piece's shape, so the array text is valid JSON, its
    entries are numbers and its value is ``np.asarray`` of the whole list.
    An array with a string, boolean or null in it is left to the
    whole-document parse and :func:`_numbers`, which refuses it."""
    rows, cut, at, depth = [], start + 1, start + 1, 1
    while True:
        comma = data.find(b",", max(at, cut + _PIECE_BYTES))
        stop = len(data) if comma < 0 else comma
        depth += data.count(b"[", at, stop) - data.count(b"]", at, stop)
        at = stop + 1
        if depth > 1 and comma >= 0:
            continue  # a comma inside a row
        text = "[" + data[cut:stop].decode("ascii", "replace") + "]"
        try:
            values, end = _JSON_DECODER.raw_decode(text)
            if data[cut : cut + end - 1].translate(None, _NUMBER_BYTES):
                return None  # up to the ']' that closes the array, or the comma that ends the piece
            piece = np.asarray(values, dtype=float)
        except (ValueError, OverflowError, RecursionError):
            return None
        if not len(piece) or (rows and piece.shape[1:] != rows[0].shape[1:]):
            return None
        rows.append(piece)
        if end < len(text):  # the array closed at text[end - 1]
            return np.concatenate(rows), cut + end - 1
        if comma < 0:
            return None  # not closed before the end of the file
        cut = at


def _parse_frame_text(data: bytes):
    """``json.loads`` of the text of ``data`` (read as ``Path.read_text``
    reads it), without holding the text together with the nested lists of
    every number.

    Each node array that :func:`_parse_node_array` takes is parsed from the
    bytes in pieces, then spliced back into the one whole-document parse as
    a float literal that occurs nowhere in the text around the arrays, which
    ``parse_float`` maps back to the array.  An array it refuses stays in
    the text and reaches :func:`_numbers` as nested lists.  When that
    text is refused (not valid JSON, bytes the encoding refuses), the whole
    of ``data`` is parsed at once, so the error and its position are those
    of the file."""
    values, kept, pos = [], [], 0  # the parsed arrays, and the text around them
    for start in _node_array_starts(data):
        parsed = _parse_node_array(data, start) if start >= pos else None
        if parsed is not None:
            kept.append(data[pos:start])
            values.append(parsed[0])
            pos = parsed[1]
    if values:
        kept.append(data[pos:])
        stem = b"1e-999"
        while any(stem in part for part in kept):
            stem += b"9"
        tokens = [stem + b"%d" % i for i in range(len(values))]
        arrays = dict(zip((token.decode() for token in tokens), values))
        text = kept[0] + b"".join(token + b" " + part  # the space ends the number
                                  for token, part in zip(tokens, kept[1:]))
        try:
            return json.loads(_decoded(text),
                              parse_float=lambda s: arrays[s] if s in arrays else float(s))
        except ValueError:
            pass
    return json.loads(_decoded(data))


def _load_frame_document(path: str, n: int) -> dict:
    """Read a frame file and check the layout every verifier relies on.
    The node arrays are parsed in pieces (:func:`_parse_frame_text`), so the
    peak is the file's bytes plus the float arrays, not the decoded text
    plus a Python list and float per number; what is accepted or refused,
    and each message, is what ``json.loads(Path(path).read_text())`` gives."""
    try:
        doc = _parse_frame_text(Path(path).read_bytes())
    except OSError as err:
        raise ValueError(f"cannot read frame file: {err}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"frame file is not valid JSON: {err}") from None
    _require(isinstance(doc, dict), "frame file root must be an object")
    _require(
        doc.get("dimension") == n,
        f"frame dimension {doc.get('dimension')} does not match spec dimension {n}",
    )
    kind = doc.get("kind")
    _require(isinstance(kind, str) and kind in _FRAME_LAYOUT, f"unknown frame kind {kind!r}")
    data_type, locus_key, locus_type = _FRAME_LAYOUT[kind]
    _require(isinstance(doc.get("data"), data_type),
             f"{kind} frame 'data' must be a JSON {data_type.__name__}")
    locus = doc.get("locus")
    _require(isinstance(locus, dict) and isinstance(locus.get(locus_key), locus_type),
             f"{kind} frame 'locus' must be an object with a {locus_key!r} entry")
    return doc


def _verify_symbolic(setup: ManifoldSetup, doc: dict) -> tuple[float, dict]:
    chart = setup.chart
    n = chart.dimension
    parsed = _expressions(doc["data"], (n, n), chart.symbols, "data")
    transform = SymbolicTransform(setup.frame, parsed, _validate=False)
    at = _domain_point(doc["locus"]["point"], chart)
    if doc.get("field") is not None:
        x = VectorField(setup.frame, _expressions(doc["field"], (n,), chart.symbols, "field"))
        residual = anchor_residual(setup.deriv, x, transform, at)
    else:
        residual = transformed_components_max(setup.deriv, transform, at)
    return residual, {"anchor_residual": residual}


def _require_on_curve(points, expected, s_vals) -> None:
    """A curve file's ``points`` must be the curve's, ``expected``, to within
    _CURVE_POINT_TOL; otherwise an input error names the first node off it.
    Compared in blocks of about _FLOATS_PER_PIECE coordinates."""
    rows = max(1, _FLOATS_PER_PIECE // points.shape[1])
    for lo in range(0, len(points), rows):
        got, want = points[lo : lo + rows], expected[lo : lo + rows]
        scale = _CURVE_POINT_TOL * np.maximum(1.0, np.abs(want))
        off = ~np.all(np.abs(got - want) <= scale, axis=1)  # a NaN coordinate is off too
        if off.any():
            i = lo + int(np.argmax(off))
            raise ValueError(
                f"curve point at s={float(s_vals[i])!r} is {points[i].tolist()}, but the curve "
                f"passes through {expected[i].tolist()} (tolerance {_CURVE_POINT_TOL:g})"
            )


def _verify_nodes_by_transport(setup, doc, kind) -> tuple[float, dict]:
    """Re-transport every edge of a grid, or of a curve's 1-D lattice of node parameters."""
    chart = setup.chart
    n = chart.dimension
    matrices = _numbers(doc["data"].get("matrices"), "frame matrices", array=True)
    _require(bool(np.isfinite(matrices).all()), "frame matrices must be finite numbers")
    block = doc["locus"][kind]

    if kind == "curve":
        # taken out of the document, so the points are freed once checked
        points = _numbers(block.pop("points", None), "curve points", array=True)
        _require(matrices.ndim == 3 and matrices.shape[1:] == (n, n), "bad curve matrices")
        _require(points.shape == (len(matrices), n), "curve points and matrices disagree")
        x = VectorField(setup.frame, _expressions(doc.get("field"), (n,), chart.symbols, "field"))
        s_vals = _numbers(block.get("s"), "curve parameters", array=True)
        _require(s_vals.shape == (len(matrices),), "curve parameters and matrices disagree")
        exprs = _expressions(block.get("exprs"), (n,), [CURVE_PARAMETER], "locus[curve][exprs]")
        axes, h = [s_vals], None  # one RK4 step per segment
        check_lattice_axes(axes, h)
        _require_on_curve(points, curve_points(chart, exprs, s_vals), s_vals)
        del points
        m_fns = [curve_direction_function(setup.deriv, x, exprs)]
    else:
        axes = block.get("axes")
        _require(isinstance(axes, list) and len(axes) == n,
                 "grid frame files carry per-axis node arrays")
        axes = [_numbers(ax, f"grid axis {a}", array=True) for a, ax in enumerate(axes)]
        _require(all(ax.ndim == 1 for ax in axes), "grid axes must be node arrays")
        shape = tuple(len(ax) for ax in axes)
        _require(matrices.shape == shape + (n, n), "grid matrices disagree with axes")
        h = DEFAULT_STEP  # whatever step built the file
        check_lattice_axes(axes, h, chart.domain)
        m_fns = direction_functions(setup.deriv)
    propagators = lattice_propagators(m_fns, axes, h)
    worst, worst_at = grid_edge_residual(axes, matrices, propagators)
    if kind == "grid":
        return worst, {"max_residual": worst, "worst_edge": worst_at}
    # segment i joins curve nodes i and i + 1
    return worst, {"max_residual": worst, "worst_segment": worst_at and worst_at["node"][0]}


def cmd_verify(args) -> int:
    if not 0.0 <= args.tol < float("inf"):  # NaN fails both comparisons
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    setup = load_manifold_spec(args.spec)
    doc = _load_frame_document(args.frame, setup.chart.dimension)
    kind = doc["kind"]
    if kind == "symbolic":
        residual, detail = _verify_symbolic(setup, doc)
    else:
        residual, detail = _verify_nodes_by_transport(setup, doc, kind)
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
    p_an.add_argument("--probe-seed", type=int, default=DEFAULT_SEED)
    p_an.add_argument("--out", default=None, help="report path (default stdout)")
    p_an.set_defaults(func=cmd_analyze)

    p_fr = sub.add_parser("frame", help="construct a vanishing-component frame")
    p_fr.add_argument("spec")
    p_fr.add_argument("mode", choices=["point", "curve", "flat"])
    p_fr.add_argument("--at", help="anchor point for mode=point")
    p_fr.add_argument("--field", help="spec field name (fixed-field constructions)")
    p_fr.add_argument("--curve", help="spec curve name (mode=curve)")
    p_fr.add_argument("--holonomic", action="store_true", help="factorized seed (point, --field)")
    p_fr.add_argument("--grid", help="node counts for mode=flat, e.g. 21x21")
    p_fr.add_argument("--step", type=float, default=None, help="integration step (curve, flat)")
    p_fr.add_argument("--probe-seed", type=int, default=None,
                      help=f"probe seed (point, flat; default {DEFAULT_SEED})")
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
    except (GeometryError, CurveError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        # deep products and quotients grow with each derivative past the parse budget
        print("input error: an expression nests too deeply to process", file=sys.stderr)
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
    except ConstructionError as err:
        # failed self-checks: the audit and self-check verifications, degenerate nodes and curves
        print(f"construction failed: {err}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except ValueError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("input error: the input needs more memory than is available", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
