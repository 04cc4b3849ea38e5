"""The transport budget: over-budget grid and curve requests are refused
before anything is allocated.  Only computed budgets are checked here; no
test runs a large transport."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from normframes import frames
from normframes.cli import EXIT_INPUT, EXIT_OK, load_manifold_spec, main
from normframes.frames import DEFAULT_STEP, MAX_RK4_STEPS, CurveSpec, GridSpec, _step_counts

ROOT = Path(__file__).resolve().parent.parent
BENCH_SPECS = ROOT / "benchmarks" / "specs"
DEMO_SPECS = ROOT / "demos" / "specs"
POLAR = str(DEMO_SPECS / "polar_euclidean.json")


@pytest.mark.parametrize("counts, h", [((41, 41), 1e-3), ((9, 7), 0.05), ((2, 2), 10.0)])
def test_grid_budget_counts_the_kernel_sub_steps(counts, h):
    chart = load_manifold_spec(POLAR).chart
    grid = GridSpec(counts)
    per_node = sum(int(_step_counts(np.diff(ax)[:1], h)[0]) for ax in grid.axes(chart))
    assert grid.rk4_steps(chart, h) == math.prod(counts) * per_node


@pytest.mark.parametrize("step", [1e-3, 2e-4, 0.37, 2.0])
def test_curve_budget_counts_the_nodes(step):
    curve = load_manifold_spec(POLAR).curves["unit_circle"]
    curve = CurveSpec(curve.exprs, curve.interval, curve.s0, step)
    assert curve.node_count() == len(curve.node_values())


def test_budgets_beyond_counting_are_infinite():
    chart = load_manifold_spec(POLAR).chart
    curve = load_manifold_spec(POLAR).curves["unit_circle"]
    assert CurveSpec(curve.exprs, curve.interval, curve.s0, 1e-300).node_count() == math.inf
    assert GridSpec((10**30, 2)).rk4_steps(chart, DEFAULT_STEP) == math.inf
    assert GridSpec((3, 3)).rk4_steps(chart, 5e-324) == math.inf


def _benchmark_requests():
    """(spec, --grid counts or None, --step or None, curve name or None) of
    every benchmark op that transports."""
    import sys
    sys.path.insert(0, str(ROOT / "benchmarks"))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(ROOT / "benchmarks"))
    requests = []
    for name in workloads.WORKLOADS:
        for op in workloads.build_ops(name, 7):
            argv = list(op.argv)
            if argv[0] != "frame" or argv[2] not in ("flat", "curve"):
                continue
            opt = dict(zip(argv[3:], argv[4:]))  # each option with the word after it
            grid = tuple(int(c) for c in opt["--grid"].split("x")) if "--grid" in opt else None
            step = float(opt["--step"]) if "--step" in opt else None
            requests.append((argv[1], grid, step, opt.get("--curve")))
    return requests


def _demo_requests():
    """The demo and test ops: 5x5 (or 5x5x5) grids and every spec curve at its own step."""
    requests = []
    for spec in sorted(DEMO_SPECS.glob("*.json")) + sorted(BENCH_SPECS.glob("*.json")):
        doc = json.loads(spec.read_text())
        requests.append((str(spec), (5,) * doc["dimension"], None, None))
        requests.extend((str(spec), None, None, name) for name in doc.get("curves", {}))
    return requests + [(POLAR, (41, 41), None, None), (POLAR, (9, 7), None, None)]


@pytest.mark.parametrize("spec, grid, step, curve", _benchmark_requests() + _demo_requests())
def test_benchmark_demo_and_test_requests_are_within_budget(spec, grid, step, curve):
    setup = load_manifold_spec(spec)
    if grid is not None:
        steps = GridSpec(grid).rk4_steps(setup.chart, DEFAULT_STEP if step is None else step)
    else:
        c = setup.curves[curve]
        steps = CurveSpec(c.exprs, c.interval, c.s0, c.step if step is None else step).node_count()
    assert steps <= MAX_RK4_STEPS


@pytest.fixture
def nothing_allocated(monkeypatch):
    """Fail at once if a refused request reached the verdicts or the lattice or node arrays."""
    def reached(*args, **kwargs):
        raise AssertionError("an over-budget request got past the budget check")

    monkeypatch.setattr(frames, "is_flat", reached)
    monkeypatch.setattr(GridSpec, "axes", reached)
    monkeypatch.setattr(CurveSpec, "node_values", reached)


@pytest.mark.parametrize(
    "argv",
    [
        ("flat", "--grid", "2000x2000"),
        ("flat", "--grid", "99999999999999999999x2"),
        ("flat", "--grid", "5x5", "--step", "1e-7"),
        ("curve", "--field", "angular", "--curve", "unit_circle", "--step", "1e-9"),
        ("curve", "--field", "angular", "--curve", "unit_circle", "--step", "1e-300"),
    ],
    ids=["grid-nodes", "grid-huge-count", "grid-step", "curve-step", "curve-tiny-step"],
)
def test_over_budget_request_exits_2_before_allocating(tmp_path, capsys, nothing_allocated, argv):
    out = tmp_path / "frame.json"
    capsys.readouterr()
    assert main(["frame", POLAR, *argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and f"over the budget of {MAX_RK4_STEPS}" in err
    assert len(err.strip().splitlines()) == 1 and not out.exists()


@pytest.fixture
def nothing_transported(monkeypatch):
    """Fail at once if a refused frame file reached the compiler or the RK4 kernel."""
    def reached(*args, **kwargs):
        raise AssertionError("a refused grid frame file got past the axis checks")

    monkeypatch.setattr(frames, "_rk4_kernel", reached)
    monkeypatch.setattr("normframes.cli.direction_functions", reached)


@pytest.mark.parametrize(
    "domain0, axis0, message",
    [
        # 1,000,001 steps of h = 1e-3 on each of the 3 lines along axis 0
        ([-1.0, 2000.0], [-1.0, 0.0, 1000.0], f"over the budget of {MAX_RK4_STEPS}"),
        ([-1.0, 1.0], [-1.0, 0.0, 1000.0], "grid axis 0 leaves the chart domain [-1.0, 1.0]"),
        ([-1.0, 1.0], [-1.0, 0.0, 1.5], "grid axis 0 leaves the chart domain [-1.0, 1.0]"),
        ([-1.0, 1.0], [-1.0, 1.0, 0.0], "grid axis 0 must be strictly increasing"),
        ([-1.0, 1.0], [-1.0, 0.5, 0.5], "grid axis 0 must be strictly increasing"),
        ([-1.0, 1.0], [-1.0, float("nan"), 1.0], "grid axis 0 must be strictly increasing"),
        ([-1e308, 1e308], [-1e308, 0.0, 1e308], f"over the budget of {MAX_RK4_STEPS}"),
        ([-1.0, 1.0], [0.0], "grid axis 0 needs at least two nodes"),
    ],
    ids=["over-budget", "far-outside-box", "outside-box", "decreasing", "repeated", "nan",
         "huge-span", "one-node"],
)
def test_verify_refuses_bad_grid_axes_before_transporting(tmp_path, capsys, nothing_transported,
                                                          domain0, axis0, message):
    spec = json.loads((DEMO_SPECS / "zero_connection.json").read_text())
    spec["domain"][0] = domain0
    spec_path, frame, report = tmp_path / "spec.json", tmp_path / "frame.json", tmp_path / "r.json"
    spec_path.write_text(json.dumps(spec))
    frame.write_text(json.dumps({
        "kind": "grid", "dimension": 2, "field": None,
        "data": {"matrices": np.broadcast_to(np.eye(2), (len(axis0), 3, 2, 2)).tolist()},
        "locus": {"grid": {"axes": [axis0, [-1.0, 0.0, 1.0]], "base_index": [0, 0]}},
    }))
    capsys.readouterr()
    assert main(["verify", str(spec_path), str(frame), "--out", str(report)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert len(err.strip().splitlines()) == 1 and not report.exists()


def test_verify_budget_counts_every_edge_of_the_retransport(monkeypatch):
    chart = load_manifold_spec(str(DEMO_SPECS / "zero_connection.json")).chart
    # 3 lines of 2,000 steps along axis 0, and 2 lines of 1 + 1,008 steps along axis 1
    axes = [np.array([-1.0, 1.0]), np.array([-1.0, -0.999, 0.009])]
    monkeypatch.setattr(frames, "MAX_RK4_STEPS", 8018)
    frames.check_lattice_axes(axes, 1e-3, chart.domain)
    monkeypatch.setattr(frames, "MAX_RK4_STEPS", 8017)
    with pytest.raises(ValueError, match="needs 8018 RK4 steps, over the budget of 8017"):
        frames.check_lattice_axes(axes, 1e-3, chart.domain)


def circle_frame(s_values) -> dict:
    """A frame file of the unit circle of the polar demo spec at the given
    parameters, holding the rotations that solve its transport exactly."""
    s = np.asarray(s_values, dtype=float)
    c, t = np.cos(s), np.sin(s)
    return {
        "kind": "curve", "dimension": 2, "field": ["0", "1"],
        "data": {"matrices": np.stack([c, t, -t, c], axis=-1).reshape(-1, 2, 2).tolist()},
        "locus": {"curve": {"exprs": ["1", "s"], "s": s.tolist(),
                            "points": np.stack([np.ones_like(s), s], axis=-1).tolist(),
                            "s0": 0.0, "step": 0.01}},
    }


@pytest.fixture
def no_curve_transported(monkeypatch):
    """Fail at once if a refused curve frame file reached the compiler of M or the RK4 kernel."""
    def reached(*args, **kwargs):
        raise AssertionError("a refused curve frame file got past the curve checks")

    monkeypatch.setattr(frames, "_rk4_kernel", reached)
    monkeypatch.setattr("normframes.cli.curve_direction_function", reached)


def _repeat(doc):
    """Node 101 a copy of node 100, matrix and all: a segment of length 0
    whose defect 0/0 passed as a residual of 0."""
    doc["locus"]["curve"]["s"][101] = doc["locus"]["curve"]["s"][100]
    doc["data"]["matrices"][101] = doc["data"]["matrices"][100]


def _swap(doc):
    s = doc["locus"]["curve"]["s"]
    s[50], s[51] = s[51], s[50]


def _nan(doc):
    doc["locus"]["curve"]["s"][7] = float("nan")


def _infinite(doc):
    doc["locus"]["curve"]["s"][-1] = float("inf")


@pytest.mark.parametrize(
    "s_values, edit, budget, message",
    [
        (np.linspace(0.0, 1.5, 151), _repeat, None, "curve parameters must be strictly increasing"),
        (np.linspace(0.0, 1.5, 151), _swap, None, "curve parameters must be strictly increasing"),
        (np.linspace(0.0, 1.5, 151), _nan, None, "curve parameters must be strictly increasing"),
        (np.linspace(0.0, 1.5, 151), _infinite, None, "curve parameters must be finite"),
        # built on a spec whose theta domain reaches 3.1; the polar spec's stops at 1.6
        (np.linspace(0.0, 3.1, 311), None, None,
         "curve leaves the chart domain at s=1.61: [1.0, 1.61]"),
        (np.linspace(0.0, 1.5, 151), None, 149,
         "re-transporting the curve segments needs 150 RK4 steps, over the budget of 149"),
    ],
    ids=["repeated", "decreasing", "nan", "infinite", "leaves-domain", "over-budget"],
)
def test_verify_refuses_bad_curve_parameters_before_transporting(
        tmp_path, capsys, monkeypatch, no_curve_transported, s_values, edit, budget, message):
    doc = circle_frame(s_values)
    if edit is not None:
        edit(doc)
    if budget is not None:
        monkeypatch.setattr(frames, "MAX_RK4_STEPS", budget)
    frame, report = tmp_path / "frame.json", tmp_path / "r.json"
    frame.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", POLAR, str(frame), "--out", str(report)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"input error: {message}\n" and not report.exists()


def test_one_node_curve_file_verifies(tmp_path):
    frame, report = tmp_path / "frame.json", tmp_path / "r.json"
    frame.write_text(json.dumps(circle_frame([0.5])))
    assert main(["verify", POLAR, str(frame), "--out", str(report)]) == EXIT_OK
    detail = json.loads(report.read_text())["detail"]
    assert detail == {"max_residual": 0.0, "worst_segment": None}
    # the same circle at 151 nodes passes, its worst segment named
    frame.write_text(json.dumps(circle_frame(np.linspace(0.0, 1.5, 151))))
    assert main(["verify", POLAR, str(frame), "--out", str(report)]) == EXIT_OK
    assert isinstance(json.loads(report.read_text())["detail"]["worst_segment"], int)
