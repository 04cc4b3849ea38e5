"""An independent symbolic oracle: sympy re-derives curvature and torsion.

For every demo and benchmark spec, sympy rebuilds the derivation from the
spec file alone and derives, exactly, the curvature R(X,Y) = D_X D_Y -
D_Y D_X - D_[X,Y] on the frame vectors and the torsion T(X,Y) = D_X Y -
D_Y X - [X,Y].  Brackets are taken in coordinates, so neither the
anholonomy formula nor any normframes tree enters the derivation.  The
sympy forms are then evaluated in floating point and compared with the
``analyze`` report: its ``--at`` tables and its sampled flat and
torsion-free verdicts, which sample the same forms on the same 64 points.

The same oracle checks the numeric transformation law: from a point frame
file's entries A, sympy derives W_{E_k'} A + E_k'(A) along every E_k' =
A^a_k' E_a exactly; evaluated on the shell points and divided through by A
(``numpy.linalg.solve``), it must match ``frames.transformed_components``.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

sp = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import parse_expr as sympy_parse  # noqa: E402
from sympy.parsing.sympy_parser import rationalize, standard_transformations  # noqa: E402

from normframes.cli import load_manifold_spec, main  # noqa: E402
from normframes.curvature import _probe_pairs  # noqa: E402
from normframes.derivation import SymbolicTransform  # noqa: E402
from normframes.expr import parse_expr, to_source  # noqa: E402
from normframes.frames import SHELL_DISTANCES, transformed_components  # noqa: E402

from conftest import coordinate_spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted((ROOT / "demos" / "specs").glob("*.json")) + sorted(
    (ROOT / "benchmarks" / "specs").glob("*.json")
)
SEED = 42
TOL = 1e-10  # the report's verdict tolerance
TRANSFORMS = standard_transformations + (rationalize,)


class Oracle:
    """A spec's frame and derivation in sympy, built from the spec file.

    Components are sympy expressions, or, when every input is a polynomial
    in the coordinates, elements of the exact polynomial ring QQ[coords],
    which keeps the 4-D template fast.  Vectors and matrices are numpy
    object arrays of either.
    """

    def __init__(self, doc):
        self.n = n = doc["dimension"]
        self.coords = [sp.Symbol(c, real=True) for c in doc["coordinates"]]
        self.xs = [sp.Symbol(f"X{i}") for i in range(1, n + 1)]
        self.dxs = {(i, j): sp.Symbol(f"dX_{i}_{j}") for i in range(1, n + 1) for j in range(1, n + 1)}
        self.names = {str(s): s for s in self.coords + self.xs + list(self.dxs.values())}
        frame = doc.get("frame") or [["1" if a == i else "0" for i in range(n)] for a in range(n)]
        b = sp.Matrix([[self.parse(e) for e in row] for row in frame])  # b[a, i] = B^a_i
        b_inv = b.inv().applyfunc(sp.cancel)
        block = doc["derivation"]
        self.variant = next(iter(block))
        gamma, self.template = {}, []
        if self.variant == "connection":
            for key, text in block["connection"].items():
                i, j, k = (int(p) - 1 for p in key.split(","))
                gamma[i, j, k] = self.parse(text)
        elif self.variant in ("w_template", "s_template"):
            # the template as a polynomial in X and dX with coefficients over the coordinates
            placeholders = self.xs + list(self.dxs.values())
            self.template = [[sp.Poly(self.parse(e), *placeholders).terms() for e in row]
                             for row in block[self.variant]]
        inputs = list(b) + list(b_inv) + list(gamma.values()) + [
            c for row in self.template for terms in row for _, c in terms]
        if all(e.is_polynomial(*self.coords) is True for e in inputs):
            ring, *gens = sp.ring(self.coords, sp.QQ)
            self.convert = ring.from_expr
            self.diff = lambda f, a: f.diff(gens[a])
            self.numeric = self._polynomial_values
        else:
            self.convert = sp.sympify
            self.diff = lambda f, a: sp.diff(f, self.coords[a])
            self.numeric = self._expression_values
        self.b, self.b_inv = self.array(b.tolist()), self.array(b_inv.tolist())
        self.gamma = {key: self.convert(e) for key, e in gamma.items()}
        self.zero, self.one = self.convert(0), self.convert(1)

    def parse(self, text):
        text = re.sub(r"dX\[(\d+),(\d+)\]", r"dX_\1_\2", text).replace("^", "**")
        return sympy_parse(text, local_dict=self.names, transformations=TRANSFORMS)

    def array(self, exprs):
        out = np.empty(np.shape(exprs), dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = self.convert(np.asarray(exprs, dtype=object)[idx])
        return out

    def along(self, i, f):
        """E_i(f) = sum_a B^a_i df/dx^a."""
        return sum(self.b[a, i] * self.diff(f, a) for a in range(self.n))

    def apply(self, x, f):
        """X(f) for frame components x."""
        return sum(x[k] * self.along(k, f) for k in range(self.n))

    def bracket(self, x, y):
        """[X,Y] in frame components, through the coordinate components B X, B Y."""
        u, v = self.b @ x, self.b @ y
        coord = np.array([sum(u[c] * self.diff(v[a], c) - v[c] * self.diff(u[a], c)
                              for c in range(self.n)) for a in range(self.n)], dtype=object)
        return self.b_inv @ coord

    def field(self, components):
        """Frame components of a normframes vector field, reparsed from their printed form."""
        return self.array([self.parse(to_source(c)) for c in components])

    def basis(self, j):
        return np.array([self.one if i == j else self.zero for i in range(self.n)], dtype=object)

    def w(self, x):
        """W_X, defined by D_X E_j = (W_X)^i_j E_i."""
        n = self.n
        if self.variant == "connection":
            return np.array([[sum(self.gamma.get((i, j, k), self.zero) * x[k] for k in range(n))
                              for j in range(n)] for i in range(n)], dtype=object)
        lie = np.stack([self.bracket(x, self.basis(j)) for j in range(n)], axis=1)
        if self.variant == "lie":
            return lie
        values = list(x) + [self.along(j - 1, x[i - 1]) for i, j in self.dxs]
        given = np.array([[sum(self.convert(c) * math.prod((v ** p for v, p in zip(values, powers) if p),
                                                        start=self.one)
                               for powers, c in terms) for terms in row]
                          for row in self.template], dtype=object)
        return given if self.variant == "w_template" else given + lie

    def act(self, x, w_x, y):
        """D_X Y = X(Y^i) E_i + Y^j D_X E_j, given W_X."""
        return np.array([self.apply(x, f) for f in y], dtype=object) + w_x @ y

    def curvature_and_torsion(self, x, y):
        """R(X,Y) as a matrix (column j is R(X,Y) E_j) and T(X,Y)."""
        brk = self.bracket(x, y)
        w_x, w_y, w_brk = self.w(x), self.w(y), self.w(brk)
        curvature = np.stack([
            self.act(x, w_x, self.act(y, w_y, e)) - self.act(y, w_y, self.act(x, w_x, e))
            - self.act(brk, w_brk, e)
            for e in (self.basis(j) for j in range(self.n))
        ], axis=1)
        return curvature, self.act(x, w_x, y) - self.act(y, w_y, x) - brk

    def _expression_values(self, exprs, points):
        """Every component at every point, as a (len(points), len(exprs)) array."""
        fn = sp.lambdify(self.coords, list(exprs), "numpy", cse=True)
        return np.stack([np.broadcast_to(np.asarray(v, dtype=float), (len(points),))
                         for v in fn(*points.T)], axis=1)

    def _polynomial_values(self, polys, points):
        """The same for ring elements, summed term by term."""
        return np.stack([sum((float(c) * np.prod(points ** np.array(m), axis=1) for m, c in f.terms()),
                             np.zeros(len(points))) for f in polys], axis=1)


def _pair_forms(oracle, setup):
    """(R, T) of each field pair the verdicts probe: every frame pair (E_k, E_l)
    for a connection, whose verdicts test the full tensors, otherwise the
    probe pairs of the library's verdicts, frame pairs first."""
    if oracle.variant == "connection":
        n = oracle.n
        fields = [(oracle.basis(k), oracle.basis(l)) for k in range(n) for l in range(n)]
    else:
        fields = [(oracle.field(x.components), oracle.field(y.components))
                  for x, y in _probe_pairs(setup.frame, SEED)]
    return [oracle.curvature_and_torsion(x, y) for x, y in fields]


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: f"{p.parent.parent.name}/{p.stem}")
def test_sympy_oracle_matches_analyze_tables_and_verdicts(tmp_path, path):
    doc = json.loads(path.read_text())
    centre = [(lo + hi) / 2.0 for lo, hi in doc["domain"]]
    at = ",".join(f"{c}={v!r}" for c, v in zip(doc["coordinates"], centre))
    out = tmp_path / "analysis.json"
    assert main(["analyze", str(path), "--at", at, "--probe-seed", str(SEED), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    tables, verdicts = report["tables"], report["verdicts"]

    oracle = Oracle(doc)
    setup = load_manifold_spec(str(path))
    forms = _pair_forms(oracle, setup)
    n = oracle.n
    point = np.array([centre])

    # tables at --at
    if oracle.variant == "connection":
        r_at = oracle.numeric([e for r, _ in forms for e in r.flat], point)[0].reshape(n, n, n, n)
        t_at = oracle.numeric([e for _, t in forms for e in t.flat], point)[0].reshape(n, n, n)
        # R^i_{jkl} = (R(E_k, E_l))^i_j and T^i_{kl} = T(E_k, E_l)^i
        _close(tables["curvature_tensor"], np.einsum("klij->ijkl", r_at))
        _close(tables["torsion_tensor"], np.einsum("kli->ikl", t_at))
    else:
        labels = [f"E{i + 1},E{j + 1}" for i in range(n) for j in range(i + 1, n)]
        assert list(tables["curvature_matrix"]) == labels
        for label, (r, t) in zip(labels, forms):
            _close(tables["curvature_matrix"][label], oracle.numeric(r.flat, point)[0].reshape(n, n))
            _close(tables["torsion_vector"][label], oracle.numeric(t.flat, point)[0])
    brackets = [oracle.bracket(oracle.basis(j), oracle.basis(k)) for j in range(n) for k in range(n)]
    c_at = oracle.numeric([c for b in brackets for c in b], point)[0].reshape(n, n, n)
    _close(tables["anholonomy"], np.einsum("jki->ijk", c_at))  # C^i_{jk} = [E_j, E_k]^i

    # the sampled verdicts: the same forms on the chart's 64-point cloud
    points = setup.chart.sample_points(seed=SEED)
    for key, index in (("flat", 0), ("torsion_free", 1)):
        exprs = [e for pair in forms for e in pair[index].flat]
        worst = float(np.max(np.abs(oracle.numeric(exprs, points))))
        verdict = verdicts[key]
        assert verdict["value"] == (worst <= TOL), key
        assert abs(verdict["residual"] - worst) <= 1e-9 * max(1.0, worst), key


@pytest.mark.parametrize("source", sorted((ROOT / "demos" / "specs").glob("*.json")) + [5],
                         ids=lambda s: f"{s}-D" if isinstance(s, int) else s.stem)
def test_sympy_oracle_matches_the_transformation_law_on_the_shells(tmp_path, source):
    if isinstance(source, int):
        doc = coordinate_spec(source)
        source = tmp_path / "spec.json"
        source.write_text(json.dumps(doc))
    doc = json.loads(source.read_text())
    centre = [(lo + hi) / 2.0 for lo, hi in doc["domain"]]
    at = ",".join(f"{c}={v!r}" for c, v in zip(doc["coordinates"], centre))
    setup = load_manifold_spec(str(source))
    oracle = Oracle(doc)
    n = oracle.n
    steps = np.concatenate([np.eye(n), -np.eye(n)])
    points = (np.array(centre) + np.multiply.outer(np.asarray(SHELL_DISTANCES), steps)).reshape(-1, n)
    frame_file = tmp_path / "frame.json"
    built = 0
    # every point frame that builds at the centre: the connection form and each field's
    for extra in [[]] + [["--field", name] for name in doc.get("fields", {})]:
        if main(["frame", str(source), "point", "--at", at, *extra, "--out", str(frame_file)]) != 0:
            continue
        built += 1
        data = json.loads(frame_file.read_text())["data"]
        a = oracle.array([[oracle.parse(e) for e in row] for row in data])
        inner = [oracle.w(a[:, k]) @ a
                 + np.array([[oracle.apply(a[:, k], e) for e in row] for row in a], dtype=object)
                 for k in range(n)]
        a_at = oracle.numeric(a.flat, points).reshape(-1, n, n)
        inner_at = oracle.numeric([e for m in inner for e in m.flat], points).reshape(-1, n, n, n)
        symbols = setup.chart.symbol_table()
        transform = SymbolicTransform(setup.frame, [[parse_expr(e, symbols) for e in row] for row in data])
        _close(transformed_components(setup.deriv, transform, points),
               np.linalg.solve(a_at[:, None], inner_at))
    assert built
