"""Derivations of the tensor algebra and their component matrices.

A derivation D assigns to each vector field X an operator D_X acting on
tensor fields.  Its components in a frame are the matrix W_X defined by
D_X E_j = (W_X)^i_j E_i.  Every variant is a case of one formula,
(W_X)^i_j = (S_X)^i_j - E_j(X^i) + C^i_{kj} X^k, so each is held as its W
template: W_X as expressions in the coordinates, the component symbols
X1..Xn and the frame derivatives dX[i,j] = E_j(X^i); :func:`w_of` is one
substitution into it.  A derivation keeps W_X for each live field X,
read-only, so it is built once however many readers it has.
Four variants are supported:

* :class:`Connection` -- coefficients Gamma^i_{jk} (k is the direction leg),
  template Gamma_k X^k,
* :class:`LieType`    -- D_X is the Lie derivative along X (S = 0),
* :class:`WTemplate`  -- the W template given directly,
* :class:`STemplate`  -- the (1,1)-tensor part S_X given as a template.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import islice
from functools import cached_property
from typing import Optional

import numpy as np

from . import matops
from .expr import (
    COORDINATE,
    Const,
    DomainError,
    Expr,
    Sym,
    Symbol,
    component_symbols,
    frame_derivative_symbol,
    free_symbols,
    simplify,
    substitute_unchecked,
)
from .geometry import (
    DEFAULT_SEED,
    Chart,
    FrameField,
    TensorField,
    VectorField,
    require_nondegenerate,
)
from .rng import Generator

PROBE_TOL = 1e-9
PROBE_PAIRS = 8


class DerivationError(Exception):
    pass


class VariantError(DerivationError):
    """Operation applied to the wrong derivation variant."""


class SymbolicTransform:
    """Invertible matrix A^i_{i'} of Exprs over a chart; a frame change.

    ``frame`` is the source frame; the transformed frame is E_{i'} =
    A^i_{i'} E_i.  Invertibility is checked on the chart's sample cloud.
    """

    def __init__(self, frame: FrameField, entries, _validate: bool = True):
        self.frame = frame
        self.entries = matops.expr_matrix(entries)
        n = frame.dimension
        if self.entries.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix")
        if _validate:
            require_nondegenerate(self.entries, frame.chart)

    @classmethod
    def identity(cls, frame: FrameField) -> "SymbolicTransform":
        return cls(frame, matops.constant_exprs(np.eye(frame.dimension)), _validate=False)


def _frame_derivative_slots(n: int) -> list[tuple[Symbol, int, int]]:
    """(dX[i+1,j+1], i, j) for every frame derivative E_j(X^i)."""
    return [(frame_derivative_symbol(i + 1, j + 1), i, j) for i, j in np.ndindex(n, n)]


class Derivation:
    """Base of the variants.  Each supplies its W template (see the module
    docstring), which is built once, on first use."""

    def __init__(self, frame: FrameField):
        self.frame = frame
        # W_X keyed by field identity: an entry dies with its field
        self._w = weakref.WeakKeyDictionary()

    @property
    def chart(self) -> Chart:
        return self.frame.chart

    def _build_template(self) -> np.ndarray:
        raise VariantError(f"unknown derivation variant {type(self).__name__}")

    @cached_property
    def w_template(self) -> np.ndarray:
        """W_X as an n x n Expr array over coordinates, X1..Xn and dX[i,j]."""
        return self._build_template()

    @cached_property
    def template_derivatives(self) -> list[tuple[Symbol, int, int]]:
        """(dX[i+1,j+1], i, j) for each frame derivative E_j(X^i) the W
        template reads."""
        used = set().union(*map(free_symbols, self.w_template.flat))
        return [slot for slot in _frame_derivative_slots(self.frame.dimension) if slot[0] in used]


def _lie_template(frame: FrameField) -> np.ndarray:
    """-dX[i,j] + C^i_{kj} X^k, the S = 0 case of the component formula."""
    n = frame.dimension
    C = frame.anholonomy()
    xs = [Sym(s) for s in component_symbols(n)]
    ks = () if C.is_zero else range(n)
    out = np.empty((n, n), dtype=object)
    for s, i, j in _frame_derivative_slots(n):
        out[i, j] = sum((C.components[i, k, j] * xs[k] for k in ks), -Sym(s))
    return out


class Connection(Derivation):
    """Linear connection with coefficients Gamma^i_{jk} (object array (n,n,n)).

    Index order: i output, j differentiated leg, k direction, so that
    nabla_X E_j = (Gamma^i_{jk} X^k) E_i.
    """

    def __init__(self, frame: FrameField, gamma):
        super().__init__(frame)
        n = frame.dimension
        arr = np.asarray(gamma, dtype=object).reshape((n, n, n))
        out = np.empty((n, n, n), dtype=object)
        for idx in np.ndindex(arr.shape):
            e = arr[idx]
            e = e if isinstance(e, Expr) else Const(float(e))
            bad = [s for s in free_symbols(e) if s.kind != COORDINATE]
            if bad:
                raise ValueError(f"connection coefficients must be coordinate-only: {bad}")
            out[idx] = e
        self.gamma = out

    def _build_template(self) -> np.ndarray:
        xs = np.array([Sym(s) for s in component_symbols(self.frame.dimension)], dtype=object)
        return self.gamma @ xs

    def gamma_at(self, point) -> np.ndarray:
        return matops.evaluate_array(self.gamma, self.chart.assignment(point))


class LieType(Derivation):
    """S = 0: D_X is the Lie derivative along X."""

    def _build_template(self) -> np.ndarray:
        return _lie_template(self.frame)


class _Template(Derivation):
    def __init__(self, frame: FrameField, entries):
        super().__init__(frame)
        self.entries = matops.expr_matrix(entries)
        allowed = set(template_symbols(frame.chart, frame.dimension).values())
        for e in self.entries.flat:
            for s in free_symbols(e):
                if s not in allowed:
                    raise ValueError(f"template references undeclared symbol {s.name!r}")


class WTemplate(_Template):
    """Component matrix given directly as a template over X-symbols."""

    def _build_template(self) -> np.ndarray:
        return self.entries


class STemplate(_Template):
    """S_X as a template; W_X is assembled through the component formula."""

    def _build_template(self) -> np.ndarray:
        return self.entries + _lie_template(self.frame)


def template_symbols(chart: Chart, n: int) -> dict[str, Symbol]:
    """Symbol table for parsing template entries: coords + X-i + dX[i,j]."""
    table = chart.symbol_table()
    for s in component_symbols(n) + tuple(slot[0] for slot in _frame_derivative_slots(n)):
        table[s.name] = s
    return table


def w_of(deriv: Derivation, x: VectorField) -> TensorField:
    """Component matrix W_X of the derivation for the field X, in D's frame:
    its W template with X1..Xn bound to X's components and each dX[i,j] it
    uses bound to E_j(X^i); a (1,1) tensor field.  The components are built
    once per field and derivation, and are read-only."""
    frame = deriv.frame
    if x.frame is not frame:
        raise ValueError("vector field must be given in the derivation's frame")
    w = deriv._w.get(x)
    if w is None:
        bindings: dict[Symbol, Expr] = dict(zip(component_symbols(frame.dimension), x.components))
        slots = deriv.template_derivatives
        if slots:
            dx = x.component_derivatives  # dx[j, i] = E_j(X^i)
            bindings.update((s, dx[j, i]) for s, i, j in slots)
        # VectorField holds coordinate-only components, and E_j of one is coordinate-only
        w = deriv._w[x] = matops.read_only(substitute_unchecked(deriv.w_template, bindings))
    return TensorField(frame, 1, 1, w)


def apply_derivation(deriv: Derivation, x: VectorField, t: TensorField) -> TensorField:
    """Componentwise action of D_X on a (p,q) tensor field.

    Each upper index contracts against W_X with a plus sign, each lower
    index with a minus sign; that is the unique choice under which D_X
    commutes with contractions, consistently with the Lie-derivative case.
    """
    if t.frame is not deriv.frame:
        raise ValueError("tensor must be given in the derivation's frame")
    frame = deriv.frame
    n = frame.dimension
    w = w_of(deriv, x).components
    p, q = t.p, t.q
    out = np.empty(t.components.shape, dtype=object)
    for idx in np.ndindex(t.components.shape):
        acc: Expr = x.apply_to(t.components[idx])
        for a in range(p):
            for k in range(n):
                swapped = list(idx)
                swapped[a], orig = k, idx[a]
                acc = acc + w[orig, k] * t.components[tuple(swapped)]
        for b in range(q):
            for k in range(n):
                swapped = list(idx)
                swapped[p + b], orig = k, idx[p + b]
                acc = acc - w[k, orig] * t.components[tuple(swapped)]
        out[idx] = simplify(acc)
    return TensorField(frame, p, q, out)


def symmetrize_connection(deriv: Connection) -> Connection:
    """Connection built from the symmetric part of the coefficients."""
    if not isinstance(deriv, Connection):
        raise VariantError("symmetrization requires the connection variant")
    g = deriv.gamma
    return Connection(deriv.frame, simplify(Const(0.5) * (g + g.transpose(0, 2, 1))))


# ---------------------------------------------------------------------------
# linearity probe


@dataclass
class LinearityVerdict:
    """Outcome of probing whether W_X(x0) has the form Gamma_k X^k(x0)."""

    is_linear: bool
    max_residual: float
    point: np.ndarray
    tol: float
    gammas: Optional[np.ndarray] = None  # (n, n, n) values, [i, j, k]
    witness: Optional[dict] = field(default=None, repr=False)


def _affine_field(frame: FrameField, coeffs) -> VectorField:
    """The field with components c[i, 0] + c[i, a+1] x^a, for an (n, n+1)
    array of Exprs: constants, or placeholder symbols."""
    syms = frame.chart.symbols
    comps = []
    for row in coeffs:
        e: Expr = row[0]
        for c, s in zip(row[1:], syms):
            e = e + c * Sym(s)
        comps.append(simplify(e))
    return VectorField(frame, comps)


def seeded_affine_fields(frame: FrameField, rng, count: int) -> list[VectorField]:
    """``count`` fields with affine components c_0 + c_a x^a, coefficients
    drawn from ``rng`` and rounded to 6 decimals."""
    n = frame.dimension
    coeffs = np.round(rng.uniform(-1.0, 1.0, size=(count, n, n + 1)), 6)
    return [_affine_field(frame, matops.constant_exprs(c)) for c in coeffs]


def vanishing_fields(frame: FrameField, anchor, mixes) -> list[VectorField]:
    """Fields vanishing where x = ``anchor``: with d^a = x^a - anchor^a, d^a E_l
    for every (a, l), then sum_a mix[i, a] d^a E_i for each (n, n) ``mixes``
    entry.  Anchor and mixes hold Exprs: constants, or placeholder symbols.
    The d^a E_l fields read their E_k(X^i) off the E_k(d^a), derived once."""
    n = frame.dimension
    offsets = np.array([Sym(s) - x0 for s, x0 in zip(frame.chart.symbols, anchor)], dtype=object)
    zero = Const(0.0)
    slopes = frame.frame_derivatives(offsets)  # E_k(d^a) as [k, a]
    fields = []
    for a, l in np.ndindex(n, n):
        derivatives = np.full((n, n), zero, dtype=object)  # E_k of a zero component is zero
        derivatives[:, l] = slopes[:, a]
        comps = [offsets[a] if i == l else zero for i in range(n)]
        fields.append(VectorField(frame, comps, _derivatives=derivatives))
    return fields + [VectorField(frame, simplify(mix @ offsets)) for mix in mixes]


def _placeholders(name: str, shape) -> np.ndarray:
    """Sym nodes @name<index> in an object array of ``shape``: placeholder
    coordinates, whose '@' names no chart coordinate or template can use."""
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = Sym(Symbol(f"@{name}{','.join(map(str, idx))}"))
    return out


class PlaceholderW:
    """W of probe fields built once over placeholder symbols, stacked as
    [field, i, j].  Evaluating it at rows of chart coordinates and
    placeholder values gives W of the concrete fields of the family, from
    one compiled tape: a placeholder keeps every tree shape, and the folds
    a constant would trigger are the same IEEE operations on the tape.
    A row's values follow the ``placeholders`` arrays, each in row-major order."""

    def __init__(self, deriv: Derivation, fields, *placeholders: np.ndarray):
        self.chart = deriv.chart
        names = tuple(e.symbol for arr in placeholders for e in arr.flat)
        self.symbols = self.chart.symbols + names
        self.w = np.stack([w_of(deriv, x).components for x in fields])

    def at(self, points, values) -> np.ndarray:
        """W at the points [P, n] and placeholder values [P, m], as [P, field, i, j]."""
        rows = np.hstack([points, np.reshape(values, (len(points), -1))])
        return matops.evaluate_points(self.w, self.symbols, rows)


def vanishing_family(deriv: Derivation) -> PlaceholderW:
    """:func:`vanishing_fields` at a placeholder anchor p with one placeholder
    mix c: n*n fields d^a E_l, then the mixed one; its values are p, then c."""
    n = deriv.frame.dimension
    anchor, mix = _placeholders("p", (n,)), _placeholders("c", (n, n))
    return PlaceholderW(deriv, vanishing_fields(deriv.frame, anchor, mix[None]), anchor, mix)


def _superposition_families(deriv: Derivation) -> tuple[PlaceholderW, PlaceholderW]:
    """W_X and W_{aX+bY} for affine X and Y with placeholder coefficients
    and scales, in the shapes :func:`seeded_affine_fields` and
    :meth:`VectorField.scaled` build.  W_Y is W_X at Y's coefficients.  The
    values of W_X are X's coefficients; those of W_{aX+bY} are X's, Y's,
    then a and b."""
    frame = deriv.frame
    n = frame.dimension
    cx, cy = _placeholders("x", (n, n + 1)), _placeholders("y", (n, n + 1))
    ab = _placeholders("s", (2,))
    x, y = _affine_field(frame, cx), _affine_field(frame, cy)
    return (PlaceholderW(deriv, [x], cx),
            PlaceholderW(deriv, [x.scaled(ab[0]) + y.scaled(ab[1])], cx, cy, ab))


def _concrete_probe_fields(frame: FrameField, x0, mixes, coeffs, scales):
    """The probe's fields with constant coefficients, built one at a time in
    the order of its conditions: the vanishing fields, then aX + bY, X and
    Y of each pair."""
    yield from vanishing_fields(frame, matops.constant_exprs(x0), matops.constant_exprs(mixes))
    for (a, b), pair in zip(scales.tolist(), coeffs.reshape((-1, 2) + coeffs.shape[1:])):
        x, y = (_affine_field(frame, matops.constant_exprs(c)) for c in pair)
        yield from (x.scaled(a) + y.scaled(b), x, y)


def linearity_probe(
    deriv: Derivation,
    x0,
    seed: int = DEFAULT_SEED,
    tol: float = PROBE_TOL,
    family: Optional[PlaceholderW] = None,
) -> LinearityVerdict:
    """Decide whether the derivation acts as a linear connection at x0.

    Two sampled conditions: (i) W_X(x0) = 0 for probe fields vanishing at
    x0 (the n*n fields d^a E_l and two seeded mixes), and (ii) W is
    additive and homogeneous in X at x0, |W_{aX+bY} - a W_X - b W_Y|(x0)
    for PROBE_PAIRS seeded affine pairs.  Each family of probe fields is
    built once over placeholders and evaluated at every seeded draw; a
    caller that also needs :func:`vanishing_family` passes it as
    ``family``.  The witness of a failure is the first condition over
    ``tol``, in that order; its field (X of a pair) is the one concrete
    field the probe builds.  On success the matrices Gamma_k := W_{E_k}(x0)
    are extracted.
    """
    frame = deriv.frame
    n = frame.dimension
    x0 = frame.chart.point(x0)
    rng = Generator(seed)
    mixes = np.round(rng.uniform(-1.0, 1.0, size=(2, n, n)), 6)
    coeffs = np.round(rng.uniform(-1.0, 1.0, size=(2 * PROBE_PAIRS, n, n + 1)), 6)
    # a and b of each pair, rounded as Python floats
    scales = np.reshape([round(v, 6) for v in rng.uniform(-2.0, 2.0, 2 * PROBE_PAIRS).tolist()],
                        (PROBE_PAIRS, 2))

    try:
        family = vanishing_family(deriv) if family is None else family
        w = family.at(np.tile(x0, (2, 1)), np.hstack([np.tile(x0, (2, 1)), mixes.reshape(2, -1)]))
        single, combined = _superposition_families(deriv)
        wx = single.at(np.tile(x0, (2 * PROBE_PAIRS, 1)), coeffs)[:, 0]  # X, then Y, of each pair
        wc = combined.at(np.tile(x0, (PROBE_PAIRS, 1)),
                         np.hstack([coeffs.reshape(PROBE_PAIRS, -1), scales]))[:, 0]
    except DomainError:
        # name the W that fails in the concrete field's terms, not the placeholders'
        for probe in _concrete_probe_fields(frame, x0, mixes, coeffs, scales):
            w_of(deriv, probe).evaluate_at(x0)
        raise
    vanishing = np.max(np.abs(w), axis=(-2, -1))  # [mix, field]
    a, b = scales[:, 0, None, None], scales[:, 1, None, None]
    superposition = np.max(np.abs(wc - a * wx[::2] - b * wx[1::2]), axis=(-2, -1))
    residuals = np.concatenate([vanishing[0], vanishing[1, -1:], superposition]).tolist()

    max_residual = max(residuals)
    first = next((k for k, r in enumerate(residuals) if r > tol), None)
    if first is not None:
        probes = len(residuals) - PROBE_PAIRS
        # a pair's witness is its X, the second of (aX + bY, X, Y)
        at = first if first < probes else probes + 3 * (first - probes) + 1
        probe = next(islice(_concrete_probe_fields(frame, x0, mixes, coeffs, scales), at, None))
        witness = {
            "kind": "vanishing-field" if first < probes else "superposition",
            "components": [str(c) for c in probe.components],
            "residual": residuals[first],
        }
        return LinearityVerdict(False, max_residual, x0, tol, witness=witness)

    basis = np.stack([w_of(deriv, frame.coordinate_vector(k)).components for k in range(n)])
    values = matops.evaluate_points(basis, frame.chart.symbols, x0[None])[0]
    gammas = np.moveaxis(values, 0, -1).copy()  # [k, i, j] -> [i, j, k], C-ordered
    return LinearityVerdict(True, max_residual, x0, tol, gammas=gammas)
