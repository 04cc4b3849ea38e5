"""Shared fixtures: the standard charts/derivations and independent oracles.

The connection coefficients used by the fixtures are frozen values that the
metric-based oracle tests (test_derivation) re-derive independently.
"""

import numpy as np
import pytest

from normframes import (
    Chart,
    Connection,
    Const,
    FrameField,
    GridSpec,
    LieType,
    VectorField,
    flat_frame_neighborhood,
)
from normframes import derivation
from normframes.expr import Sym, cos, sin


def _gamma_array(n):
    g = np.empty((n, n, n), dtype=object)
    g[...] = Const(0.0)
    return g


@pytest.fixture(scope="session")
def plane():
    return Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))


@pytest.fixture(scope="session")
def plane_frame(plane):
    return FrameField.coordinate(plane)


@pytest.fixture(scope="session")
def zero_connection(plane_frame):
    return Connection(plane_frame, np.zeros((2, 2, 2)))


@pytest.fixture(scope="session")
def lie_plane(plane_frame):
    return LieType(plane_frame)


@pytest.fixture(scope="session")
def torsion_plane():
    # own chart: the flat-with-torsion frame construction wants a smaller box
    chart = Chart(("x1", "x2"), ((-0.5, 0.5), (-0.5, 0.5)))
    g = _gamma_array(2)
    g[0, 0, 1] = Const(1.0)
    return Connection(FrameField.coordinate(chart), g)


@pytest.fixture(scope="session")
def polar():
    # theta range covers the quarter circle used by the transport fixture
    return Chart(("r", "theta"), ((1.0, 2.0), (0.0, 1.6)))


@pytest.fixture(scope="session")
def polar_connection(polar):
    r, _ = polar.symbols
    g = _gamma_array(2)
    g[0, 1, 1] = -Sym(r)
    g[1, 0, 1] = 1 / Sym(r)
    g[1, 1, 0] = 1 / Sym(r)
    return Connection(FrameField.coordinate(polar), g)


@pytest.fixture(scope="session")
def polar_orthonormal_frame(polar):
    r, _ = polar.symbols
    return FrameField(polar, [[Const(1.0), Const(0.0)], [Const(0.0), 1 / Sym(r)]])


@pytest.fixture(scope="session")
def sphere():
    return Chart(("theta", "phi"), ((0.4, 2.7), (0.0, 6.2)))


@pytest.fixture(scope="session")
def sphere_connection(sphere):
    th, _ = sphere.symbols
    g = _gamma_array(2)
    g[0, 1, 1] = -(sin(Sym(th)) * cos(Sym(th)))
    g[1, 0, 1] = cos(Sym(th)) / sin(Sym(th))
    g[1, 1, 0] = cos(Sym(th)) / sin(Sym(th))
    return Connection(FrameField.coordinate(sphere), g)


@pytest.fixture(scope="session")
def all_fixture_derivations(
    zero_connection, polar_connection, sphere_connection, torsion_plane, lie_plane
):
    return {
        "zero": zero_connection,
        "polar": polar_connection,
        "sphere": sphere_connection,
        "torsion": torsion_plane,
        "lie": lie_plane,
    }


@pytest.fixture(scope="session")
def polar_grid_spec():
    return GridSpec((21, 21), box=((1.0, 2.0), (0.0, 1.0)))


@pytest.fixture(scope="session")
def polar_flat_frame(polar_connection, polar_grid_spec):
    return flat_frame_neighborhood(polar_connection, polar_grid_spec, h=1e-3)


@pytest.fixture(scope="session")
def torsion_flat_frame(torsion_plane):
    return flat_frame_neighborhood(torsion_plane, GridSpec((11, 11)), h=1e-3)


# ---------------------------------------------------------------------------
# independent oracles


def christoffel_from_metric(chart, metric):
    """Levi-Civita coefficients from a metric given as an (n, n) Expr array.

    G^i_{jk} = 1/2 g^{il} (E_j g_{lk} + E_k g_{lj} - E_l g_{jk}) in the
    coordinate frame; a deliberately separate code path from the library's
    connection handling.
    """
    from normframes import matops
    from normframes.expr import differentiate, simplify

    n = chart.dimension
    syms = chart.symbols
    ginv = matops.inverse(np.asarray(metric, dtype=object))
    out = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = Const(0.0)
                for l in range(n):
                    term = (
                        differentiate(metric[l][k], syms[j])
                        + differentiate(metric[j][l], syms[k])
                        - differentiate(metric[j][k], syms[l])
                    )
                    acc = acc + Const(0.5) * ginv[i, l] * term
                out[i, j, k] = simplify(acc)
    return out


def riemann_classical(chart, gamma):
    """Coordinate-frame Riemann tensor from connection coefficients.

    R^i_{jkl} = E_k G^i_{jl} - E_l G^i_{jk} + G^i_{mk} G^m_{jl}
              - G^i_{ml} G^m_{jk}; written independently of the library's
    curvature code (no anholonomy term: coordinate frames only).
    """
    from normframes.expr import differentiate, simplify

    n = chart.dimension
    syms = chart.symbols
    out = np.empty((n, n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    acc = differentiate(gamma[i, j, l], syms[k]) - differentiate(
                        gamma[i, j, k], syms[l]
                    )
                    for m in range(n):
                        acc = acc + gamma[i, m, k] * gamma[m, j, l]
                        acc = acc - gamma[i, m, l] * gamma[m, j, k]
                    out[i, j, k, l] = simplify(acc)
    return out


def eval_exprs(exprs, chart, point):
    from normframes.expr import evaluate

    assignment = chart.assignment(point)
    return np.array([evaluate(e, assignment) for e in exprs])


def polar_metric(polar):
    r, _ = polar.symbols
    return [[Const(1.0), Const(0.0)], [Const(0.0), Sym(r) * Sym(r)]]


def sphere_metric(sphere):
    th, _ = sphere.symbols
    return [[Const(1.0), Const(0.0)], [Const(0.0), sin(Sym(th)) * sin(Sym(th))]]


def affine_fields(frame, seed, count):
    """Seeded random affine vector fields, for probe families in tests."""
    rng = np.random.default_rng(seed)
    syms = frame.chart.symbols
    n = frame.dimension
    fields = []
    for _ in range(count):
        comps = []
        for _i in range(n):
            c = rng.uniform(-1.0, 1.0, n + 1)
            e = Const(round(float(c[0]), 6))
            for a in range(n):
                e = e + Const(round(float(c[a + 1]), 6)) * Sym(syms[a])
            comps.append(e)
        fields.append(VectorField(frame, comps))
    return fields


def coordinate_spec(n: int) -> dict:
    """A spec document in n >= 4 dimensions with a coordinate frame: the
    polar connection on (x1, x2), one more coefficient Gamma^n_{n3} = x3 x4,
    and a field ``swirl`` whose components vary, on the box [1, 2]^n."""
    return {
        "dimension": n,
        "coordinates": [f"x{i}" for i in range(1, n + 1)],
        "domain": [[1.0, 2.0]] * n,
        "derivation": {"connection": {
            "1,2,2": "-x1", "2,1,2": "1/x1", "2,2,1": "1/x1", f"{n},{n},3": "x3*x4"}},
        "fields": {"swirl": ["x2"] + ["1"] * (n - 2) + ["x3"]},
    }


@pytest.fixture
def w_builds(monkeypatch):
    """One entry per W_X tree built while the test runs (a call of w_of,
    which instantiates the W template)."""
    builds = []
    real = derivation.substitute_unchecked

    def recording(template, bindings):
        builds.append(template)
        return real(template, bindings)

    monkeypatch.setattr(derivation, "substitute_unchecked", recording)
    return builds
