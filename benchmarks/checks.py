"""Output checks that do not come from normframes itself.

Grid and curve frames are compared with hand-derived closed forms; point
frames with the uninverted vanishing condition W(x0) A(x0) + X(A)(x0) = 0,
where W is written out by hand for each spec and X(A) is a central
difference of the frame file's own expressions; analyze reports with a
hand-written verdict table.  Every check returns a list of problems (empty
when the output is right); an output of the wrong shape raises, and the
caller counts that as a problem too.
"""

from __future__ import annotations

import math

import numpy as np

TRACEBACK = "Traceback (most recent call last)"
CLOSED_FORM_TOL = 1e-9
POINT_TOL = 1e-8
FD_STEP = 1e-5

_MATH = {name: getattr(math, name) for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")}


def evaluate_source(text: str, values: dict[str, float]) -> float:
    """Evaluate a spec or frame-file expression with Python's own arithmetic."""
    namespace = dict(_MATH)
    namespace.update(values)
    return float(eval(text.replace("^", "**"), {"__builtins__": {}}, namespace))  # noqa: S307


# ---------------------------------------------------------------------------
# closed forms


def polar_grid_frame(r, theta):
    """Cartesian frame (d/dx, d/dy) in polar components."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, s], -1), np.stack([-s / r, c / r], -1)], -2)


def spherical_basis(th, ph):
    """Columns e_r, e_th, e_ph in Cartesian components."""
    e_r = [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
    e_th = [np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)]
    e_ph = [-np.sin(ph), np.cos(ph), np.zeros_like(th)]
    return np.stack([np.stack(e, -1) for e in (e_r, e_th, e_ph)], -1)


def sph3_grid_frame(th, ph, th0, ph0):
    return np.swapaxes(spherical_basis(th, ph), -1, -2) @ spherical_basis(th0, ph0)


def circle_curve_frame(s):
    c, si = np.cos(s), np.sin(s)
    return np.stack([np.stack([c, si], -1), np.stack([-si, c], -1)], -2)


def _grid_problems(doc, domain, counts, closed_form) -> list[str]:
    grid = doc["locus"]["grid"]
    axes = [np.asarray(ax, dtype=float) for ax in grid["axes"]]
    base = tuple(grid["base_index"])
    mats = np.asarray(doc["data"]["matrices"], dtype=float)
    n = len(counts)
    expected_axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(domain, counts)]
    if len(axes) != n or any(a.shape != e.shape or np.max(np.abs(a - e)) > 1e-12
                             for a, e in zip(axes, expected_axes)):
        return ["grid axes differ from the requested lattice"]
    if mats.shape != tuple(counts) + (n, n):
        return [f"grid matrices have shape {mats.shape}"]
    mesh = np.meshgrid(*axes, indexing="ij")
    base_point = [ax[i] for ax, i in zip(axes, base)]
    ref = closed_form(mesh, base_point)
    dev = float(np.max(np.abs(mats - ref)))
    return [] if dev <= CLOSED_FORM_TOL else [f"grid frame deviates from the closed form by {dev:.3e}"]


def check_polar_grid(doc, domain, counts) -> list[str]:
    def closed(mesh, base):
        r, th = mesh
        return polar_grid_frame(r, th) @ np.linalg.inv(polar_grid_frame(*map(np.asarray, base)))

    return _grid_problems(doc, domain, counts, closed)


def check_sph3_grid(doc, domain, counts) -> list[str]:
    def closed(mesh, base):
        _, th, ph = mesh
        return sph3_grid_frame(th, ph, base[1], base[2])

    return _grid_problems(doc, domain, counts, closed)


def check_circle_curve(doc, interval, step) -> list[str]:
    block = doc["locus"]["curve"]
    s = np.asarray(block["s"], dtype=float)
    pts = np.asarray(block["points"], dtype=float)
    mats = np.asarray(doc["data"]["matrices"], dtype=float)
    nodes = int(math.floor((interval[1] - interval[0]) / step + 1e-9)) + 1
    if s.shape != (nodes,) or mats.shape != (nodes, 2, 2) or pts.shape != (nodes, 2):
        return [f"curve file holds {s.shape} nodes, expected {nodes}"]
    problems = []
    if np.max(np.abs(s - (interval[0] + step * np.arange(nodes)))) > 1e-9:
        problems.append("curve parameters are not the requested step sequence")
    if np.max(np.abs(pts - np.stack([np.ones_like(s), s], -1))) > 1e-12:
        problems.append("curve points are not (1, s)")
    dev = float(np.max(np.abs(mats - circle_curve_frame(s))))
    if not dev <= CLOSED_FORM_TOL:
        problems.append(f"curve frame deviates from the closed form by {dev:.3e}")
    return problems


# ---------------------------------------------------------------------------
# point frames


def _sphere_gammas(th):
    """Gamma_k[i][j] = Gamma^i_{jk} of the round unit sphere, k = theta, phi."""
    cot = math.cos(th) / math.sin(th)
    g_theta = np.array([[0.0, 0.0], [0.0, cot]])
    g_phi = np.array([[0.0, -math.sin(th) * math.cos(th)], [cot, 0.0]])
    return [g_theta, g_phi]


def _s4_w_e1(x):
    """W_X for X = E_1 of the 4-D S-template: S part plus [E_1, E_j] = 0.1 E_1 for j = 2."""
    w = np.zeros((4, 4))
    w[0, 0], w[1, 3], w[2, 2], w[3, 1] = x[0], x[1], x[2], x[3]
    w[0, 1] += 0.1
    return w


def point_conditions(spec: str, field, x0):
    """(W, direction) pairs whose vanishing condition the frame must meet."""
    if spec == "unit_sphere" and field is None:
        g = _sphere_gammas(x0[0])
        return [(g[0], np.array([1.0, 0.0])), (g[1], np.array([0.0, 1.0]))]
    if spec == "unit_sphere" and field == "meridian":
        return [(_sphere_gammas(x0[0])[0], np.array([1.0, 0.0]))]
    if spec == "s4_template" and field == "e1":
        return [(_s4_w_e1(x0), np.eye(4)[0])]
    if spec == "torsion_template" and field == "unit1":
        return [(np.zeros((2, 2)), np.array([1.0, 0.0]))]
    raise KeyError((spec, field))


def check_point_frame(doc, spec: str, coords, field, anchor, holonomic: bool) -> list[str]:
    entries = doc["data"]
    point = [float(v) for v in doc["locus"]["point"]]
    n = len(coords)
    if np.max(np.abs(np.asarray(point) - anchor)) > 1e-12:
        return ["frame locus differs from the requested anchor"]

    def a_at(x):
        values = dict(zip(coords, (float(v) for v in x)))
        return np.array([[evaluate_source(entries[i][j], values) for j in range(n)] for i in range(n)])

    a0 = a_at(anchor)
    problems = []
    for w, direction in point_conditions(spec, field, anchor):
        xa = (a_at(anchor + FD_STEP * direction) - a_at(anchor - FD_STEP * direction)) / (2 * FD_STEP)
        dev = float(np.max(np.abs(w @ a0 + xa)))
        if not dev <= POINT_TOL:
            problems.append(f"W A + X(A) at the anchor is {dev:.3e}")
    rank = int(np.linalg.matrix_rank(a0, tol=1e-9))
    # the factorized (holonomic) seed is rank one by design; the others are invertible
    if rank != (1 if holonomic else n):
        problems.append(f"anchor matrix has rank {rank}")
    return problems


# ---------------------------------------------------------------------------
# analyze and verify reports

VERDICTS = {
    # spec: (flat, torsion_free, linear_at_point), derived by hand
    "s4_template": (False, False, False),
    "sph3_orthonormal": (True, True, True),
    "torsion_template": (True, False, True),
    "lie_plane": (True, False, False),
}


def check_analysis(doc, spec: str, spec_doc: dict, anchor) -> list[str]:
    verdicts = doc["verdicts"]
    got = tuple(verdicts[k]["value"] for k in ("flat", "torsion_free", "linear_at_point"))
    at = [doc["at"][c] for c in spec_doc["coordinates"]]
    tables = doc["tables"]
    problems = []
    if got != VERDICTS[spec]:
        problems.append(f"verdicts {got} differ from {VERDICTS[spec]}")
    for key in ("flat", "torsion_free"):
        v = verdicts[key]
        if (v["residual"] <= v["tol"]) != v["value"]:
            problems.append(f"{key} verdict disagrees with its residual")
    if np.max(np.abs(np.asarray(at) - anchor)) > 1e-12:
        problems.append("report point differs from the requested anchor")
    table = spec_doc["derivation"].get("connection")
    if table is not None:
        n = spec_doc["dimension"]
        values = dict(zip(spec_doc["coordinates"], (float(v) for v in anchor)))
        gamma = np.zeros((n, n, n))
        for key, text in table.items():
            i, j, k = (int(p) - 1 for p in key.split(","))
            gamma[i, j, k] = evaluate_source(text, values)
        dev = float(np.max(np.abs(np.asarray(tables["connection"], dtype=float) - gamma)))
        if not dev <= CLOSED_FORM_TOL:
            problems.append(f"connection table deviates from the spec by {dev:.3e}")
    if spec == "sph3_orthonormal":
        # flat space in an orthonormal frame: curvature and torsion vanish identically
        for key in ("curvature_tensor", "torsion_tensor"):
            dev = float(np.max(np.abs(np.asarray(tables[key], dtype=float))))
            if not dev <= CLOSED_FORM_TOL:
                problems.append(f"{key} is {dev:.3e}, expected 0")
    return problems


def check_verify_report(doc, kind: str, tol: float) -> list[str]:
    ok = doc["kind"] == kind and doc["pass"] is True and doc["max_residual"] <= tol
    return [] if ok else [f"verify report does not pass: {doc.get('max_residual')!r}"]
