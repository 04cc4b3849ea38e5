"""Neighborhood-wide frames on grids: construction, audits, holonomicity,
constancy of the relating transforms."""

import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from normframes import (
    Chart,
    Connection,
    Const,
    CurveSpec,
    DegenerateFrameError,
    FrameField,
    GridSpec,
    NotFlatError,
    NotLinearConnectionError,
    PointFrameSpec,
    SymbolicTransform,
    VectorField,
    constancy_check,
    flat_frame_neighborhood,
    frame_at_point_connection,
    holonomicity_check,
    transport_along_curve,
)
from normframes import frames, matops
from normframes.cli import EXIT_OK, load_manifold_spec, main
from normframes.expr import DomainError, Sym, Symbol, compile_exprs, parse_expr
from normframes.geometry import DEFAULT_SAMPLES, DEFAULT_SEED
from normframes.frames import (
    _pointwise_linearity_gate,
    _rk4_kernel,
    _step_counts,
    direction_functions,
)

from reference import (
    compose_frame,
    integrability_residual,
    node_point,
    polyline_product,
    torsion_tensor,
)

BENCH_SPECS = Path(__file__).resolve().parent.parent / "benchmarks" / "specs"
SPH3 = str(BENCH_SPECS / "sph3_orthonormal.json")


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
    p0 = node_point(polar_flat_frame, (0, 0))  # the base node
    correction = np.linalg.inv(cartesian_in_polar(*p0))
    worst = 0.0
    for idx in np.ndindex(*(len(ax) for ax in polar_flat_frame.axes)):
        pt = node_point(polar_flat_frame, idx)
        oracle = cartesian_in_polar(*pt) @ correction
        worst = max(worst, float(np.max(np.abs(polar_flat_frame.matrices[idx] - oracle))))
    assert worst <= 1e-5


@pytest.mark.parametrize("b0", [np.eye(3), [[1.0, 2.0]], [[1.0, 0.0], [0.0, np.inf]],
                                [[1.0, 2.0], [2.0, 4.0]]],
                         ids=["3x3", "1x2", "infinite", "singular"])
def test_grids_and_curves_refuse_a_bad_base_matrix_alike(polar_connection, b0):
    # one check: an n x n matrix of finite entries with |det| > DEGENERACY_TOL
    message = re.escape("base matrix must be a finite, invertible 2x2 matrix")
    with pytest.raises(ValueError, match=message):
        flat_frame_neighborhood(polar_connection, GridSpec((5, 5)), b0=b0, h=1e-2)
    curve = CurveSpec((Const(1.0), Sym(Symbol("s"))), (0.0, 1.0), 0.5, 1e-2)
    x = VectorField(polar_connection.frame, [Const(0.0), Const(1.0)])
    with pytest.raises(ValueError, match=message):
        transport_along_curve(polar_connection, x, curve, b0)


def test_linearity_gate_rejects_lie_type_at_first_sample_point(lie_plane):
    first = lie_plane.chart.sample_points()[0].tolist()
    with pytest.raises(NotLinearConnectionError, match=re.escape(str(first))):
        _pointwise_linearity_gate(lie_plane, seed=42)


def test_linearity_gate_passes_linear_connections(polar_connection, torsion_plane):
    _pointwise_linearity_gate(polar_connection, seed=42)
    _pointwise_linearity_gate(torsion_plane, seed=42)


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
    props = frames.lattice_propagators(direction_functions(polar_connection), axes, 1e-3)
    worst = 0.0
    for axis in range(2):
        assert props[axis].shape == tuple(10 if d == axis else 11 for d in range(2)) + (2, 2)
        for idx in np.ndindex(props[axis].shape[:2]):
            start = np.array([axes[d][idx[d]] for d in range(2)])
            length = float(axes[axis][idx[axis] + 1] - start[axis])
            ref = scalar_rk4_propagator(start, axis, length, 1e-3)
            worst = max(worst, float(np.max(np.abs(props[axis][idx] - ref))))
    assert worst <= 1e-12


def per_step_rk4_propagators(m_fn, n, starts, direction, lengths, steps):
    """Reference: the kernel with one M evaluation per RK4 step of a group."""
    lengths = np.asarray(lengths, dtype=float)
    steps = np.broadcast_to(steps, lengths.shape)
    out = np.empty((len(lengths), n, n))
    for count in np.unique(steps):
        rows = np.flatnonzero(steps == count)
        twice = np.concatenate([starts[rows], starts[rows]])
        dt = (lengths[rows] / count)[:, None]
        h = dt[:, :, None]
        p = np.tile(np.eye(n), (len(rows), 1, 1))
        m_prev = frames._matrices(m_fn(*starts[rows].T), n)
        for i in range(count):
            t0 = i * dt
            points = twice + np.concatenate([t0 + 0.5 * dt, t0 + dt]) * direction
            m_mid, m_next = np.split(frames._matrices(m_fn(*points.T), n), 2)
            k1 = -(m_prev @ p)
            k2 = -(m_mid @ (p + 0.5 * h * k1))
            k3 = -(m_mid @ (p + 0.5 * h * k2))
            k4 = -(m_next @ (p + h * k3))
            p = p + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            m_prev = m_next
        out[rows] = p
    return out


def compiled_m(entries, names):
    symbols = [Symbol(name) for name in names]
    return compile_exprs([parse_expr(e, symbols) for e in entries], symbols)


M2 = compiled_m(["sin(x1)*x2", "1/(2+x1)", "-x2", "cos(x1+x2)"], ["x1", "x2"])
M3 = compiled_m(
    ["0", "exp(-x1)", "x2*x3", "-exp(-x1)", "0.5", "sin(x3)", "x1", "-sin(x3)", "cos(x2)*x1"],
    ["x1", "x2", "x3"],
)
M_CURVE = compiled_m(["0", "1/(2+s)", "-1/(2+s)", "sin(3*s)"], ["s"])


def counted(m_fn, points):
    """``m_fn`` recording the number of points of each call in ``points``."""
    def wrapped(*coords):
        points.append(math.prod(np.broadcast_shapes(*(np.shape(c) for c in coords))))
        return m_fn(*coords)
    return wrapped


def kernel_cases():
    rng = np.random.default_rng(5)
    mixed = rng.uniform(-0.05, 0.05, 60)
    wide = rng.uniform(-0.004, 0.004, 2500)
    return {
        # several step counts at h = 1e-3, negative lengths among them
        "mixed-counts": (M2, 2, rng.uniform(-0.5, 0.5, (60, 2)), np.array([1.0, 0.0]),
                         mixed, _step_counts(mixed, 1e-3)),
        # 100 rows make 20 steps a block: 57 steps are blocks of 20, 20 and 17
        "partial-last-block": (M2, 2, rng.uniform(-0.5, 0.5, (100, 2)), np.array([0.6, -0.8]),
                               np.full(100, -0.3), 57),
        "scalar-direction": (M2, 2, rng.uniform(-0.5, 0.5, (30, 2)), 0.5,
                             rng.uniform(-0.2, 0.2, 30), 300),
        "n3-vector-direction": (M3, 3, rng.uniform(-0.5, 0.5, (48, 3)), np.eye(3)[2],
                                rng.uniform(-0.3, 0.3, 48), np.repeat([40, 250, 301], 16)),
        "one-long-segment": (M3, 3, np.array([[0.1, 0.2, 0.3]]), np.array([0.0, 1.0, 0.0]),
                             np.array([-1.0]), 4500),
        # a curve: one parameter, one step per segment, thousands of segments
        "curve": (M_CURVE, 2, np.linspace(0.0, 6.0, 5001)[:-1, None], 1.0,
                  np.where(np.arange(5000) < 2000, -1.0, 1.0) * 6.0 / 5000, 1),
        # more rows than one chunk holds, with 1 to 4 steps: step groups straddle a chunk boundary
        "chunk-boundary": (M2, 2, rng.uniform(-0.5, 0.5, (2500, 2)), np.array([0.0, 1.0]),
                           wide, _step_counts(wide, 1e-3)),
    }


@pytest.mark.parametrize("case", list(kernel_cases()))
def test_kernel_equals_per_step_loop_bit_for_bit(case):
    m_fn, n, starts, direction, lengths, steps = kernel_cases()[case]
    expected = per_step_rk4_propagators(m_fn, n, starts, direction, lengths, steps)
    assert np.array_equal(_rk4_kernel([(m_fn, starts, direction, lengths, steps)])[0], expected)


@pytest.mark.parametrize("case", list(kernel_cases()))
def test_kernel_evaluates_m_once_per_bounded_block(case):
    m_fn, n, starts, direction, lengths, steps = kernel_cases()[case]
    points = []
    _rk4_kernel([(counted(m_fn, points), starts, direction, lengths, steps)])
    assert max(points) <= frames._M_CALL_POINTS
    # per chunk of step-sorted rows: one call at its start points, and one per block of
    # steps; a block, cut at each step count, runs _M_CALL_POINTS // (2 x chunk rows) or more
    rows = frames._M_CALL_POINTS // 2
    ends = np.sort(np.broadcast_to(steps, np.shape(lengths)))[::-1]
    bound = 0
    for chunk in (ends[i : i + rows] for i in range(0, len(ends), rows)):
        block = frames._M_CALL_POINTS // (2 * len(chunk))
        bound += 1 + sum(-(-int(c) // block) for c in np.unique(chunk))
    assert len(points) <= bound


def test_jobs_sharing_chunks_equal_per_step_loop_bit_for_bit():
    # 7,500 rows of two jobs in four chunks: the one-step rows of both jobs share chunks
    cases = kernel_cases()
    jobs = [cases["chunk-boundary"], cases["curve"]]
    props = _rk4_kernel([(m_fn, *job) for m_fn, _, *job in jobs])
    for got, (m_fn, n, *job) in zip(props, jobs):
        assert np.array_equal(got, per_step_rk4_propagators(m_fn, n, *job))


def test_kernel_memory_is_bounded_by_its_chunks():
    # 7,853 one-step rows, as on a 7,854-node curve: the state and every M call are chunk
    # sized, so the peak is the (7853, 2, 2) result (251 kB) and well under 1 MB more
    s = np.linspace(0.0, 6.0, 7854)
    job = (M_CURVE, s[:-1, None], 1.0, np.diff(s), 1)
    tracemalloc.start()
    try:
        props = _rk4_kernel([job])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert props.shape == (7853, 2, 2)
    assert peak - props.nbytes < 1_000_000


def test_domain_failure_in_a_late_block_raises_domain_error():
    m_fn = compiled_m(["sqrt(0.9 - x1)", "0", "0", "x2"], ["x1", "x2"])
    starts = np.stack([np.zeros(64), np.linspace(-1.0, 1.0, 64)], axis=1)
    points = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=re.escape("sqrt(0.9-x1) is undefined")):
            _rk4_kernel([(counted(m_fn, points), starts, np.array([1.0, 0.0]),
                          np.ones(64), _step_counts(np.ones(64), 1e-3))])
    # x1 passes 0.9 in step 899 or 900 of 1,000: with 64 rows a block is 32 steps, the 29th of 32
    block = frames._M_CALL_POINTS // (2 * 64)
    assert block > 1 and len(points) - 1 in {899 // block + 1, 900 // block + 1}


def edge_segments(axes, axis):
    """Start points and signed lengths of every lattice edge along ``axis``,
    node by node, and the lattice shape of the edges."""
    shape = tuple(len(ax) - (d == axis) for d, ax in enumerate(axes))
    starts, lengths = [], []
    for idx in np.ndindex(*shape):
        starts.append([axes[d][i] for d, i in enumerate(idx)])
        lengths.append(axes[axis][idx[axis] + 1] - axes[axis][idx[axis]])
    return np.array(starts), np.array(lengths), shape


# RK4 steps per edge at h = 1e-3: 100 along axis 0; 200, 50 and 250 along axis 1 and 20
# and 150 along axis 2, whose uneven edges fall into several step groups; axis 0 runs
# downward, as a curve's parameters below its base node do
LATTICE_AXES = [np.linspace(0.0, -0.3, 4), np.array([-0.2, 0.0, 0.05, 0.3]),
                np.array([0.1, 0.12, 0.27])]


def test_lattice_propagators_equal_per_step_loop_bit_for_bit():
    points = []
    m_fns = [counted(M3, points) for _ in range(3)]
    props = frames.lattice_propagators(m_fns, LATTICE_AXES, 1e-3)
    for axis in range(3):
        starts, lengths, shape = edge_segments(LATTICE_AXES, axis)
        expected = per_step_rk4_propagators(M3, 3, starts, np.eye(3)[axis], lengths,
                                            _step_counts(lengths, 1e-3))
        assert np.array_equal(props[axis], expected.reshape(shape + (3, 3)))
    assert points and max(points) <= frames._M_CALL_POINTS


def fill_lattice_by_node(shape, b0, forward):
    """Reference: the lattice fill indexing one line position at a time."""
    values = np.full(shape + b0.shape, np.nan)
    values[(0,) * len(shape)] = b0
    for axis in range(len(shape)):
        def at(i, axis=axis):
            return (slice(None),) * axis + (i,) + (0,) * (len(shape) - axis - 1)

        for i in range(shape[axis] - 1):
            values[at(i + 1)] = forward[axis][at(i)] @ values[at(i)]
    return values


def random_edges(shape):
    """Seeded propagators of every lattice edge, and a base matrix: 3 x 3
    on every lattice, so that no two products commute."""
    rng = np.random.default_rng(11)
    n = 3
    edges = [shape[:a] + (shape[a] - 1,) + shape[a + 1 :] + (n, n) for a in range(len(shape))]
    forward = [np.eye(n) + 0.1 * rng.standard_normal(s) for s in edges]
    return forward, np.eye(n) + 0.1 * rng.standard_normal((n, n))


LATTICES = [(9,), (5, 4), (4, 3, 5)]


@pytest.mark.parametrize("shape", [(70, 40), (30, 10, 10)], ids=["2d", "3d"])
def test_edge_residual_in_blocks_equals_the_whole_array_form(shape):
    # more than _M_CALL_POINTS // 2 edges along each axis: measured in several blocks
    rng = np.random.default_rng(5)
    matrices = rng.standard_normal(shape + (2, 2)) + 3.0 * np.eye(2)
    axes = [np.cumsum(rng.uniform(0.5, 1.5, c)) for c in shape]
    props = [rng.standard_normal(tuple(c - (d == a) for d, c in enumerate(shape)) + (2, 2))
             for a in range(len(shape))]
    expected = (0.0, None)
    for axis, (ax, p) in enumerate(zip(axes, props)):
        assert p.size // 4 > frames._M_CALL_POINTS // 2
        head = matrices[(slice(None),) * axis + (slice(None, -1),)]
        tail = matrices[(slice(None),) * axis + (slice(1, None),)]
        spacing = np.diff(ax).reshape([-1 if d == axis else 1 for d in range(len(shape))])
        values = np.max(np.abs(np.linalg.solve(tail, p @ head - tail)), axis=(-2, -1)) / spacing
        k = int(np.argmax(values))
        if values.flat[k] > expected[0]:
            node = [int(i) for i in np.unravel_index(k, values.shape)]
            expected = (float(values.flat[k]), {"node": node, "axis": axis})
    assert frames.grid_edge_residual(axes, matrices, props) == expected


@pytest.mark.parametrize("shape", LATTICES)
def test_fill_lattice_equals_node_by_node_fill_bit_for_bit(shape):
    forward, b0 = random_edges(shape)
    values = frames._fill_lattice(shape, b0, forward)
    assert not np.isnan(values).any()
    assert np.array_equal(values, fill_lattice_by_node(shape, b0, forward))


@pytest.mark.parametrize("reverse", [False, True], ids=["axis-order", "reverse-axis-order"])
@pytest.mark.parametrize("shape", LATTICES)
def test_fill_equals_polyline_product_at_every_node_bit_for_bit(shape, reverse):
    # the path audit compares the two fills: each must be its polyline product, edge by edge
    forward, b0 = random_edges(shape)
    fill = frames._fill_lattice_reversed if reverse else frames._fill_lattice
    values = fill(shape, b0, forward)
    order = list(range(len(shape)))[::-1 if reverse else 1]
    for node in np.ndindex(shape):
        assert np.array_equal(values[node], polyline_product(forward, node, order, b0))


def test_path_audit_compares_every_node_whatever_the_seed(polar_connection):
    # the deviation is the largest difference of the two fills over the whole lattice
    grid, h = GridSpec((9, 7)), 1e-2
    built = [flat_frame_neighborhood(polar_connection, grid, h=h, seed=seed) for seed in (3, 42)]
    forward = frames.lattice_propagators(built[0].m_functions, built[0].axes, h)
    alt = frames._fill_lattice_reversed((9, 7), np.eye(2), forward)
    worst = float(np.max(np.abs(alt - built[0].matrices)))
    assert worst > 0.0 and [frame.path_audit_deviation for frame in built] == [worst, worst]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The arguments of every entry into the RK4 kernel, one tuple each."""
    calls = []
    kernel = frames._rk4_kernel

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(frames, "_rk4_kernel", counting)
    return calls


def test_one_kernel_call_per_lattice(tmp_path, kernel_calls):
    deriv = load_manifold_spec(SPH3).deriv
    flat_frame_neighborhood(deriv, GridSpec((4, 4, 4)), h=1e-2)
    assert len(kernel_calls) == 1
    frame, report = tmp_path / "frame.json", tmp_path / "report.json"
    assert main(["frame", SPH3, "flat", "--grid", "4x4x4", "--out", str(frame)]) == EXIT_OK
    assert len(kernel_calls) == 2
    assert main(["verify", SPH3, str(frame), "--out", str(report)]) == EXIT_OK
    assert len(kernel_calls) == 3
    # a curve is two lattices from its base node, half_turn's node 750 of 1,501: one call
    # for the 750 segments up from it, one for the 750 down from it; its verify
    # re-transports all 1,500 in one call
    polar = str(Path(__file__).resolve().parent.parent / "demos" / "specs" / "polar_euclidean.json")
    assert main(["frame", polar, "curve", "--field", "angular", "--curve", "half_turn",
                 "--out", str(frame)]) == EXIT_OK
    assert main(["verify", polar, str(frame), "--out", str(report)]) == EXIT_OK
    lengths = [[np.asarray(job[3]) for job in jobs] for jobs, in kernel_calls[3:]]
    assert [[len(ln) for ln in jobs] for jobs in lengths] == [[750], [750], [1500]]
    assert (lengths[0][0] > 0).all() and (lengths[1][0] < 0).all()


def test_sphere_rejected_with_obstruction(sphere_connection):
    with pytest.raises(NotFlatError) as err:
        flat_frame_neighborhood(sphere_connection, GridSpec((5, 5)), h=1e-2)
    assert err.value.obstruction_norm >= 0.1


def test_flat_refusal_at_seed_7_reads_the_seed_7_cloud(tmp_path):
    # at seed 42 the obstruction is 0x1.0000000000002p+0; seed 7 draws another cloud
    sphere = str(Path(__file__).resolve().parent.parent / "demos" / "specs" / "unit_sphere.json")
    with pytest.raises(NotFlatError) as err:
        flat_frame_neighborhood(load_manifold_spec(sphere).deriv, GridSpec((5, 5)), seed=7)
    assert err.value.obstruction_norm.hex() == "0x1.0000000000004p+0"
    report = tmp_path / "analysis.json"
    assert main(["analyze", sphere, "--at", "theta=1.0,phi=0.5", "--probe-seed", "7",
                 "--out", str(report)]) == EXIT_OK
    flat = json.loads(report.read_text())["verdicts"]["flat"]
    assert flat["residual"] == err.value.obstruction_norm and not flat["value"]


def test_flat_frame_samples_only_the_clouds_of_its_seed(polar_connection, monkeypatch):
    seeds = []
    sample_points = Chart.sample_points

    def recording(chart, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
        seeds.append(seed)
        return sample_points(chart, count, seed)

    monkeypatch.setattr(Chart, "sample_points", recording)
    flat_frame_neighborhood(polar_connection, GridSpec((5, 5)), h=1e-2, seed=7)
    # the flatness test and the pointwise gate
    assert len(seeds) >= 2 and set(seeds) == {7}


def test_flat_frame_builds_w_only_for_its_direction_functions(polar_connection, w_builds):
    # the linearity probe and the pointwise gate run the template tape; the
    # transport compiles the folded W_{E_k}, one per direction function
    flat_frame_neighborhood(polar_connection, GridSpec((3, 3)), h=1e-2)
    assert len(w_builds) == 2


@pytest.mark.parametrize(
    "spec, builds", [("unit_sphere", 0), ("s4_template", 0)], ids=["connection", "template"]
)
def test_flat_refusal_reports_the_frame_pair_curvature(spec, builds, w_builds):
    # the refusal reads |R(E_i, E_j)| off the frame-pair forms, which jets on the
    # compiled tapes give without building any W; the integrability report
    # builds each bracket and its W
    deriv = load_manifold_spec(str(BENCH_SPECS / f"{spec}.json")).deriv
    frame = deriv.frame
    n = frame.dimension
    with pytest.raises(NotFlatError) as err:
        flat_frame_neighborhood(deriv, GridSpec((3,) * n), h=1e-2)
    assert len(w_builds) == builds
    identity = SymbolicTransform.identity(frame)
    expected = max(
        integrability_residual(
            deriv, frame.coordinate_vector(i), frame.coordinate_vector(j), identity
        ).obstruction_norm
        for i in range(n)
        for j in range(i + 1, n)
    )
    assert err.value.obstruction_norm == pytest.approx(expected, rel=1e-12)


def test_lie_type_rejected_as_nonlinear(lie_plane):
    with pytest.raises(NotLinearConnectionError):
        flat_frame_neighborhood(lie_plane, GridSpec((5, 5)), h=1e-2)


def test_torsion_fixture_builds_flat_frame(torsion_flat_frame):
    assert torsion_flat_frame.gamma_prime_residual <= 1e-6
    # closed form: A = diag(exp(-x2), 1) relative to the base node
    base_pt = node_point(torsion_flat_frame, (0, 0))
    for idx in np.ndindex(*(len(ax) for ax in torsion_flat_frame.axes)):
        pt = node_point(torsion_flat_frame, idx)
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


def test_grid_verdict_is_refined_with_fd_reported_beside_it(polar_flat_frame):
    # a tolerance far below the centred-difference floor still decides on the refined estimate
    verdict = holonomicity_check(polar_flat_frame, tol=1e-8)
    assert verdict.method == "refined" and verdict.holonomic
    assert verdict.max_commutator <= 1e-8 < verdict.fd_tol
    assert 1e-8 < verdict.fd_max_commutator <= verdict.fd_tol


def test_torsion_frame_is_anholonomic_with_matching_commutator(torsion_flat_frame, torsion_plane):
    verdict = holonomicity_check(torsion_flat_frame)
    assert not verdict.holonomic
    assert verdict.max_commutator > 0.5
    # at vanishing-component nodes the commutator equals minus the torsion pairing
    assert verdict.torsion_match_residual <= 1e-8
    # independent hand value at the base node: [E_1', E_2'] = +E_1' while
    # T(E_1', E_2') = -E_1' there (A = identity at the base)
    t_vals = torsion_tensor(torsion_plane).evaluate_at(
        node_point(torsion_flat_frame, (0, 0))
    )
    assert t_vals[0, 0, 1] == -1.0


def test_grid_holonomicity_one_tape_equals_one_compile_per_array(
        polar_flat_frame, torsion_flat_frame, monkeypatch):
    # B, C and T of every node from one tape, and from one compile each
    grids = [polar_flat_frame, torsion_flat_frame,
             flat_frame_neighborhood(load_manifold_spec(SPH3).deriv,
                                     GridSpec((4, 4, 4)), h=1e-2)]
    one_tape = [holonomicity_check(grid) for grid in grids]
    monkeypatch.setattr(matops, "evaluate_arrays", lambda arrays, symbols, points: [
        matops.evaluate_points(arr, symbols, points) for arr in arrays])
    for grid, verdict in zip(grids, one_tape):
        separate = holonomicity_check(grid)
        for name in ("max_commutator", "fd_max_commutator", "torsion_match_residual"):
            assert np.array_equal(getattr(verdict, name), getattr(separate, name))


def test_symbolic_holonomicity_identity_transform(polar_connection):
    verdict = holonomicity_check(SymbolicTransform.identity(polar_connection.frame))
    assert verdict.holonomic
    assert verdict.max_commutator <= 1e-12


def test_symbolic_holonomicity_constant_transform(polar_connection):
    transform = SymbolicTransform(
        polar_connection.frame, matops.constant_exprs([[2.0, 1.0], [0.0, 1.0]])
    )
    verdict = holonomicity_check(transform)
    assert verdict.holonomic


def test_symbolic_anholonomic_frame_detected(polar, polar_connection):
    r, _ = polar.symbols
    transform = SymbolicTransform(
        polar_connection.frame, [[Const(1.0), Const(0.0)], [Const(0.0), 1 / Sym(r)]]
    )
    verdict = holonomicity_check(transform)
    assert not verdict.holonomic


def test_point_frame_commutator_equals_minus_torsion(torsion_plane, monkeypatch):
    # torsion-commutator identity at a vanishing-component point, symbolic route
    at = np.array([0.1, -0.1])
    result = frame_at_point_connection(torsion_plane, PointFrameSpec(anchor=at))
    evaluations = []
    commutators = frames._commutators

    def counting(*args):
        evaluations.append(1)
        return commutators(*args)

    monkeypatch.setattr(frames, "_commutators", counting)
    verdict = holonomicity_check(result.transform, at=at, deriv=torsion_plane)
    assert not verdict.holonomic
    assert verdict.torsion_match_residual <= 1e-8
    # the verdict and the torsion cross-check read one evaluation of the commutators
    assert len(evaluations) == 1


def test_point_frame_of_torsion_free_connection_holonomic_at_anchor(polar_connection):
    at = np.array([1.4, 0.6])
    result = frame_at_point_connection(polar_connection, PointFrameSpec(anchor=at))
    verdict = holonomicity_check(result.transform, at=at, deriv=polar_connection)
    assert verdict.holonomic
    assert verdict.torsion_match_residual <= 1e-8


SYMBOLIC_TRANSFORMS = {
    "identity": lambda polar, connection, torsion: SymbolicTransform.identity(connection.frame),
    "constant": lambda polar, connection, torsion: SymbolicTransform(
        connection.frame, matops.constant_exprs([[2.0, 1.0], [0.0, 1.0]])),
    "inverse_r": lambda polar, connection, torsion: SymbolicTransform(
        connection.frame, [[Const(1.0), Const(0.0)], [Const(0.0), 1 / Sym(polar.symbols[0])]]),
    "polar_point": lambda polar, connection, torsion: frame_at_point_connection(
        connection, PointFrameSpec(anchor=np.array([1.4, 0.6]))).transform,
    "torsion_point": lambda polar, connection, torsion: frame_at_point_connection(
        torsion, PointFrameSpec(anchor=np.array([0.1, -0.1]))).transform,
}


@pytest.mark.parametrize("name", sorted(SYMBOLIC_TRANSFORMS))
def test_symbolic_holonomicity_equals_the_composed_frame_anholonomy(
    polar, polar_connection, torsion_plane, name
):
    # oracle: the anholonomy of the composed frame B A, built symbolically
    transform = SYMBOLIC_TRANSFORMS[name](polar, polar_connection, torsion_plane)
    chart = transform.frame.chart
    composed = compose_frame(transform.frame, transform.entries).anholonomy().components
    values = matops.evaluate_points(composed, chart.symbols, chart.sample_points())
    verdict = holonomicity_check(transform)
    assert verdict.method == "symbolic"
    assert abs(verdict.max_commutator - float(np.max(np.abs(values)))) <= 1e-12


def test_symbolic_holonomicity_needs_no_symbolic_inverse(polar, polar_connection, monkeypatch):
    def refuse(matrix):
        raise AssertionError("symbolic inverse taken")

    monkeypatch.setattr(matops, "inverse", refuse)
    r, _ = polar.symbols
    transform = SymbolicTransform(
        polar_connection.frame, [[Const(1.0), Const(0.0)], [Const(0.0), 1 / Sym(r)]]
    )
    verdict = holonomicity_check(transform)
    # [d_r, d_theta / r] = -(1/r) (d_theta / r): the largest |C'| is 1/r at the smallest sample r
    assert not verdict.holonomic
    assert verdict.max_commutator == pytest.approx(1.0 / polar.sample_points()[:, 0].min(), abs=1e-12)


def test_symbolic_holonomicity_in_five_dimensions():
    # beyond the symbolic inverse's n <= 4: E_2' = x1 d_2, so [E_1', E_2'] = E_2' / x1
    chart = Chart(tuple(f"x{i}" for i in range(1, 6)), ((1.0, 2.0),) * 5)
    frame = FrameField.coordinate(chart)
    entries = matops.constant_exprs(np.eye(5))
    entries[1, 1] = Sym(chart.symbols[0])
    verdict = holonomicity_check(SymbolicTransform(frame, entries))
    assert not verdict.holonomic
    assert verdict.max_commutator == pytest.approx(1.0 / chart.sample_points()[:, 0].min(), abs=1e-12)
    assert holonomicity_check(SymbolicTransform(frame, matops.constant_exprs(np.eye(5) + 0.5))).holonomic


def test_singular_transform_raises_degenerate_frame_error(plane):
    x1, _ = plane.symbols
    frame = FrameField.coordinate(plane)
    zero_row = SymbolicTransform(frame, [[Const(1.0), Const(0.0)], [Const(0.0), Const(0.0)]],
                                 _validate=False)
    first = plane.sample_points()[0].tolist()
    with pytest.raises(DegenerateFrameError, match=re.escape(f"singular at {first}")):
        holonomicity_check(zero_row)
    scaled = SymbolicTransform(frame, [[Const(1.0), Const(0.0)], [Const(0.0), Sym(x1)]])
    with pytest.raises(DegenerateFrameError, match=re.escape("singular at [0.0, 0.5]")):
        holonomicity_check(scaled, at=[0.0, 0.5])


def test_torsion_cross_check_runs_whenever_a_derivation_is_given(polar_connection):
    at = np.array([1.4, 0.6])
    transform = frame_at_point_connection(polar_connection, PointFrameSpec(anchor=at)).transform
    assert holonomicity_check(transform).torsion_match_residual is None
    # torsion-free: the cross-check is |[E_i', E_j']|, zero at the anchor only
    on_cloud = holonomicity_check(transform, deriv=polar_connection)
    at_anchor = holonomicity_check(transform, at=at, deriv=polar_connection)
    assert at_anchor.torsion_match_residual <= 1e-12 < on_cloud.torsion_match_residual


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


def test_grid_refined_partial_derivatives(polar_flat_frame, polar_connection, polar_grid_spec):
    # "refined" holonomicity reads dA/dx^alpha = -Gamma_alpha A off the frame
    # equations; centred differences of the stored lattice approach it as O(h^2)
    def defects(frame):
        """Per axis, centred difference + Gamma_alpha A at every node (0 at the ends)."""
        mesh = np.meshgrid(*frame.axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        gamma = matops.evaluate_points(polar_connection.gamma, frame.chart.symbols, points)
        gamma = gamma.reshape(frame.matrices.shape[:2] + (2, 2, 2))
        a = frame.matrices
        out = []
        for alpha, h in enumerate(frame.spacings):
            def part(s):
                return tuple(s if d == alpha else slice(None) for d in range(2))

            inner = part(slice(1, -1))
            defect = np.zeros_like(a)
            defect[inner] = (a[part(slice(2, None))] - a[part(slice(None, -2))]) / (2.0 * h)
            defect[inner] += gamma[inner][..., alpha] @ a[inner]
            out.append(defect)
        return out

    coarse_spec = GridSpec((11, 11), box=polar_grid_spec.box)
    coarse = defects(flat_frame_neighborhood(polar_connection, coarse_spec, h=1e-3))
    fine = defects(polar_flat_frame)  # half the spacing; its even nodes are the coarse nodes
    for c, f in zip(coarse, fine):
        worst_coarse, worst_fine = np.max(np.abs(c)), np.max(np.abs(f[::2, ::2]))
        assert worst_fine <= 1e-2
        assert 3.9 <= worst_coarse / worst_fine <= 4.1


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
    deriv = Connection(polar_orthonormal_frame, np.zeros((2, 2, 2)))
    grid = GridSpec((7, 7), box=((1.0, 2.0), (0.0, 1.0)))
    frame = flat_frame_neighborhood(deriv, grid, h=1e-3)
    for idx in np.ndindex(7, 7):
        assert np.allclose(frame.matrices[idx], np.eye(2), atol=1e-12)
    verdict = holonomicity_check(frame)
    assert not verdict.holonomic
    assert verdict.max_commutator >= 0.4  # |C^2_{12}| = 1/r on r in [1, 2]
    assert verdict.torsion_match_residual <= 1e-8
    # A is constant, so the centered differences see only C: 1/r at the first interior r = 7/6
    assert verdict.fd_max_commutator == pytest.approx(6.0 / 7.0, abs=1e-9)
