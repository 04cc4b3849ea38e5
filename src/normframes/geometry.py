"""Charts, frame fields and their anholonomy, vector fields and tensor fields.

A chart is a single coordinate patch with a sampling box; every identity
verdict in the library ("vanishes identically", "frame nondegenerate") is
decided by evaluation on a deterministic pseudo-random sample of points
drawn from that box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from . import matops
from .expr import (
    COORDINATE,
    Const,
    Expr,
    Symbol,
    coordinate_symbols,
    directional_derivatives,
    free_symbols,
    linear_combination,
    simplify,
)
from .rng import Generator

IDENTITY_TOL = 1e-10
DEGENERACY_TOL = 1e-12
DEFAULT_SAMPLES = 64
DEFAULT_SEED = 42


class GeometryError(Exception):
    pass


class DegenerateFrameError(GeometryError):
    """The frame matrix is singular (|det| below threshold) at a sample point."""


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: names plus a closed sampling box per coordinate."""

    coordinates: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    _clouds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.coordinates)) != len(self.coordinates):
            raise ValueError("coordinate names must be distinct")
        # expressions can name only identifiers, so no other name could be used
        if not all(c.isascii() and c.isidentifier() for c in self.coordinates):
            raise ValueError("coordinate names must be identifiers")
        if len(self.domain) != len(self.coordinates):
            raise ValueError("one domain interval per coordinate is required")
        for lo, hi in self.domain:
            if not hi > lo:
                raise ValueError("domain intervals must have positive length")

    @property
    def dimension(self) -> int:
        return len(self.coordinates)

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return coordinate_symbols(self.coordinates)

    def symbol_table(self) -> dict[str, Symbol]:
        return {s.name: s for s in self.symbols}

    def point(self, value) -> np.ndarray:
        """Normalize a point given as a sequence or a name->value mapping."""
        if isinstance(value, Mapping):
            missing = [c for c in self.coordinates if c not in value]
            if missing:
                raise ValueError(f"point is missing coordinates {missing}")
            arr = np.array([float(value[c]) for c in self.coordinates])
        else:
            arr = np.asarray(value, dtype=float)
            if arr.shape != (self.dimension,):
                raise ValueError(
                    f"expected {self.dimension} coordinates, got shape {arr.shape}"
                )
        return arr

    def assignment(self, point) -> dict[str, float]:
        pt = self.point(point)
        return dict(zip(self.coordinates, pt))

    def contains(self, point) -> bool:
        pt = self.point(point)
        return all(lo <= v <= hi for v, (lo, hi) in zip(pt, self.domain))

    def sample_points(self, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> np.ndarray:
        """``count`` seeded points of the box, as [count, dimension]; drawn
        once per chart, count and seed, and read-only."""
        points = self._clouds.get((count, seed))
        if points is None:
            lo = np.array([a for a, _ in self.domain])
            hi = np.array([b for _, b in self.domain])
            cloud = lo + Generator(seed).random((count, self.dimension)) * (hi - lo)
            points = self._clouds[count, seed] = matops.read_only(cloud)
        return points


def require_invertible(points, matrices, describe=None) -> None:
    """Raise DegenerateFrameError at the first of the points [..., n] where
    the matrix [..., n, n] has |det| at most DEGENERACY_TOL;
    ``describe(point, det)`` words the message (default: the transform is
    singular there)."""
    dets = np.linalg.det(matrices)
    singular = np.argwhere(np.abs(dets) <= DEGENERACY_TOL)
    if singular.size:
        first = tuple(singular[0])
        point, det = points[first].tolist(), float(dets[first])
        raise DegenerateFrameError(describe(point, det) if describe else
                                   f"transform is singular at {point} (det={det!r})")


def require_nondegenerate(matrix: np.ndarray, chart: Chart, describe=None) -> None:
    """:func:`require_invertible` for an Expr matrix on the chart's sample cloud."""
    points = chart.sample_points()
    require_invertible(points, matops.evaluate_points(matrix, chart.symbols, points), describe)


class FrameField:
    """A frame E_i = B^a_i d/dx^a given by an invertible matrix of Exprs.

    Rows of ``matrix`` are coordinate (a) indices, columns are frame (i)
    indices.  Nondegeneracy is enforced on the chart's sample cloud at
    construction time.
    """

    def __init__(self, chart: Chart, matrix=None):
        self.chart = chart
        n = chart.dimension
        if matrix is None:
            self.matrix = matops.constant_exprs(np.eye(n))
            self._is_identity = True
        else:
            self.matrix = matops.expr_matrix(matrix)
            if self.matrix.shape != (n, n):
                raise ValueError(f"frame matrix must be {n}x{n}")
            self._is_identity = all(
                self.matrix[i, j] == Const(1.0 if i == j else 0.0)
                for i in range(n)
                for j in range(n)
            )
        for e in self.matrix.flat:
            bad = [s for s in free_symbols(e) if s.kind != COORDINATE]
            if bad:
                raise ValueError(f"frame entries must be coordinate-only, found {bad}")
        self._inverse_exprs = None
        self._anholonomy = None
        if not self._is_identity:
            require_nondegenerate(self.matrix, chart, lambda pt, det: (
                f"frame determinant {det!r} at {pt} is below {DEGENERACY_TOL}"))

    @classmethod
    def coordinate(cls, chart: Chart) -> "FrameField":
        return cls(chart)

    @property
    def dimension(self) -> int:
        return self.chart.dimension

    @property
    def is_coordinate(self) -> bool:
        return self._is_identity

    def evaluate_at(self, point) -> np.ndarray:
        return matops.evaluate_array(self.matrix, self.chart.assignment(point))

    def inverse_at(self, point) -> np.ndarray:
        x = self.chart.point(point)
        mat = self.evaluate_at(x)
        require_invertible(x[None], mat[None], lambda *_: (
            f"singular frame at {np.asarray(point).tolist()}"))
        return np.linalg.inv(mat)

    def inverse_exprs(self) -> np.ndarray:
        """Symbolic inverse B^i_a (adjugate form, n <= 4)."""
        if self._inverse_exprs is None:
            if self._is_identity:
                self._inverse_exprs = matops.constant_exprs(np.eye(self.dimension))
            else:
                self._inverse_exprs = matops.inverse(self.matrix)
        return self._inverse_exprs

    def frame_derivative(self, i: int, f):
        """E_i(f) = sum_a B^a_i df/dx^a.  Frame index i is 0-based; ``f`` is
        an Expr or an object array of them."""
        return self.frame_derivatives(f)[i]

    def frame_derivatives(self, f) -> np.ndarray:
        """Every E_i(f), stacked along a new first axis; each partial
        df/dx^a is taken once."""
        return directional_derivatives(f, self.chart.symbols, self.matrix)

    def coordinate_vector(self, i: int) -> "VectorField":
        """The i-th frame field E_i, as a vector field in this frame; the
        same object on every call, so what is cached per field is shared."""
        return self._basis[i]

    @cached_property
    def _basis(self) -> tuple["VectorField", ...]:
        n = self.dimension
        return tuple(VectorField(self, [Const(1.0 if j == i else 0.0) for j in range(n)])
                     for i in range(n))

    def anholonomy(self) -> "TensorField":
        """The anholonomy C^i_{jk} as a (1,2) tensor field."""
        if self._anholonomy is None:
            self._anholonomy = anholonomy_coefficients(self)
        return self._anholonomy


class VectorField:
    """X = X^i E_i with coordinate-only component Exprs."""

    def __init__(self, frame: FrameField, components):
        self.frame = frame
        n = frame.dimension
        comps = []
        for c in components:
            e = c if isinstance(c, Expr) else Const(float(c))
            bad = [s for s in free_symbols(e) if s.kind != COORDINATE]
            if bad:
                raise ValueError(f"vector components must be coordinate-only, found {bad}")
            comps.append(e)
        if len(comps) != n:
            raise ValueError(f"expected {n} components")
        self.components = tuple(comps)

    @property
    def chart(self) -> Chart:
        return self.frame.chart

    def at(self, point) -> np.ndarray:
        return matops.evaluate_array(self.components, self.chart.assignment(point))

    @cached_property
    def component_derivatives(self) -> np.ndarray:
        """E_k(X^i) as [k, i], derived once and read-only."""
        comps = np.array(self.components, dtype=object)
        return matops.read_only(self.frame.frame_derivatives(comps))

    def coordinate_components_at(self, point) -> np.ndarray:
        """Components against d/dx^a, i.e. B X; frame-independent data."""
        return self.frame.evaluate_at(point) @ self.at(point)

    def apply_to(self, f):
        """X(f) = X^k E_k(f); ``f`` is an Expr or an object array of them."""
        return self.contract(self.frame.frame_derivatives(f))

    def contract(self, derivatives):
        """X^k D_k, simplified, for the stack D_k = E_k(f) that
        :meth:`FrameField.frame_derivatives` returns: X(f) from E_k(f)."""
        return simplify(linear_combination(self.components, derivatives))

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_frame(self, other)
        return VectorField(
            self.frame,
            [simplify(a + b) for a, b in zip(self.components, other.components)],
        )

    def scaled(self, factor) -> "VectorField":
        f = factor if isinstance(factor, Expr) else Const(float(factor))
        return VectorField(self.frame, [simplify(f * c) for c in self.components])


def _require_same_frame(a, b):
    if a.frame is not b.frame:
        raise ValueError("fields must live in the same frame")


@dataclass
class TensorField:
    """Type (p,q) tensor; components stored densely, upper indices first.

    The one frame-attached component array: the anholonomy C^i_{jk} is
    (1,2) and W_X is (1,1).
    """

    frame: FrameField
    p: int
    q: int
    components: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.frame.dimension
        rank = self.p + self.q
        comps = np.asarray(self.components, dtype=object)
        expected = (n,) * rank
        if comps.shape != expected:
            comps = comps.reshape(expected)
        self.components = comps

    @classmethod
    def from_vector(cls, x: VectorField) -> "TensorField":
        return cls(x.frame, 1, 0, np.array(x.components, dtype=object))

    def evaluate_at(self, point) -> np.ndarray:
        return matops.evaluate_array(self.components, self.frame.chart.assignment(point))

    @property
    def is_zero(self) -> bool:
        zero = Const(0.0)
        return all(c == zero for c in self.components.flat)


def anholonomy_coefficients(frame: FrameField) -> TensorField:
    """C^i_{jk} = B^i_a (E_j(B^a_k) - E_k(B^a_j)), exact antisymmetry: the
    (k,j) entry is the negation of the (j,k) entry node."""
    n = frame.dimension
    zero = Const(0.0)
    C = np.full((n, n, n), zero, dtype=object)
    if not frame.is_coordinate:
        inv, eb = frame.inverse_exprs(), frame.frame_derivatives(frame.matrix)
        for j, k in zip(*np.triu_indices(n, 1)):
            # the commutator [E_j, E_k] in coordinate components, then in the frame
            bracket = eb[j][:, k] - eb[k][:, j]
            col = simplify(inv @ bracket)
            C[:, j, k] = col
            C[:, k, j] = [zero if c == zero else -c for c in col]
    return TensorField(frame, 1, 2, C)


def commutator(x: VectorField, y: VectorField) -> VectorField:
    """[X,Y]^i = X(Y^i) - Y(X^i) + C^i_{jk} X^j Y^k."""
    _require_same_frame(x, y)
    C = x.frame.anholonomy()
    acc = x.contract(y.component_derivatives) - y.contract(x.component_derivatives)
    if not C.is_zero:
        n = x.frame.dimension
        xs, ys = x.components, y.components
        acc = sum((C.components[:, j, k] * xs[j] * ys[k] for j, k in np.ndindex(n, n)), acc)
    return VectorField(x.frame, simplify(acc))
