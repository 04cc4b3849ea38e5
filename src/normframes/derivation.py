"""Derivations of the tensor algebra and their component matrices.

A derivation D assigns to each vector field X an operator D_X acting on
tensor fields.  Its components in a frame are the matrix W_X defined by
D_X E_j = (W_X)^i_j E_i.  Every variant is a case of one formula,
(W_X)^i_j = (S_X)^i_j - E_j(X^i) + C^i_{kj} X^k, so each is held as its W
template: W_X as expressions in the coordinates, the component symbols
X1..Xn and the frame derivatives dX[i,j] = E_j(X^i); :func:`w_of` is one
substitution into it where a tree is the result.  W at points is one run of
the template's compiled tape on numbers, X^i and E_k(X^i) (:meth:`Derivation.w_at`).
Four variants are supported:

* :class:`Connection` -- coefficients Gamma^i_{jk} (k is the direction leg),
  template Gamma_k X^k,
* :class:`LieType`    -- D_X is the Lie derivative along X (S = 0),
* :class:`WTemplate`  -- the W template given directly,
* :class:`STemplate`  -- the (1,1)-tensor part S_X given as a template.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from functools import cached_property, reduce
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
    compile_exprs,
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

    @cached_property
    def template_tape(self):
        """The W template compiled once over the coordinates, X1..Xn and the
        dX[i,j] it reads: the one evaluator of W at points."""
        symbols = (self.chart.symbols + component_symbols(self.frame.dimension)
                   + tuple(s for s, _, _ in self.template_derivatives))
        return compile_exprs(self.w_template.ravel(), symbols)

    def w_at(self, points, x, dx) -> np.ndarray:
        """W_X [..., i, j] from the points [..., n], X^i [..., i] and E_k(X^i)
        [..., k, i], broadcast together: many fields and points in one run."""
        rows = [*np.moveaxis(points, -1, 0), *np.moveaxis(x, -1, 0)]
        w = self.template_tape(*rows, *(dx[..., j, i] for _, i, j in self.template_derivatives))
        return np.moveaxis(w, 0, -1).reshape(w.shape[1:] + (self.frame.dimension,) * 2)


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
    uses bound to E_j(X^i); a (1,1) tensor field, built on every call."""
    frame = deriv.frame
    if x.frame is not frame:
        raise ValueError("vector field must be given in the derivation's frame")
    bindings: dict[Symbol, Expr] = dict(zip(component_symbols(frame.dimension), x.components))
    slots = deriv.template_derivatives
    if slots:
        dx = x.component_derivatives  # dx[j, i] = E_j(X^i)
        bindings.update((s, dx[j, i]) for s, i, j in slots)
    # VectorField holds coordinate-only components, and E_j of one is coordinate-only
    return TensorField(frame, 1, 1, substitute_unchecked(deriv.w_template, bindings))


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
    array of constant Exprs."""
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
    entry.  Anchor and mixes hold Exprs."""
    n = frame.dimension
    offsets = np.array([Sym(s) - x0 for s, x0 in zip(frame.chart.symbols, anchor)], dtype=object)
    zero = Const(0.0)
    fields = [VectorField(frame, [offsets[a] if i == l else zero for i in range(n)])
              for a, l in np.ndindex(n, n)]
    return fields + [VectorField(frame, simplify(mix @ offsets)) for mix in mixes]


# The probe fields' X^i and E_k(X^i) at points, worked out from their
# coefficients as what the concrete fields' compiled trees give there.  A
# folded sum has no term that is Const 0, so these sums leave such terms out.
# Where the probe's tape run raises DomainError, the concrete fields' W trees
# are evaluated instead: the tape also runs terms that a fold drops (a pole
# times a component that is Const 0), and a tree names a failing field.


def _folded_sums(terms, keep) -> np.ndarray:
    """sum_a terms[..., a] over the a where ``keep``, left to right from the
    first kept term; +0 where none is kept."""
    terms = np.where(keep, terms, -0.0)  # x + -0.0 is x, for either zero too
    total = reduce(np.add, np.moveaxis(terms, -1, 0))
    total[~keep.any(axis=-1)] = 0.0
    return total


def _frame_derivative_values(frame: FrameField, points, partials) -> np.ndarray:
    """E_k(X^i) = sum_a B^a_k d X^i/dx^a [P, field, k, i] at the points [P, n]
    from the constant partials [P, field, i, a], with B's entries folded as
    E_k(X^i) holds them and no term whose partial or folded entry is 0."""
    folded = simplify(frame.matrix)
    dropped = np.array([[type(e) is Const and e.value == 0.0 for e in row] for row in folded])
    b = matops.evaluate_points(folded, frame.chart.symbols, points)[:, None]  # [P, 1, a, k]
    c = partials[..., None, :, :]
    return _folded_sums(np.swapaxes(b, -1, -2)[..., :, None, :] * c, ~dropped.T[:, None] & (c != 0))


def _vanishing_terms(points, mixes):
    """X^i [P, field, i] and d X^i/dx^a [P, field, i, a] of
    :func:`vanishing_fields` anchored at each of the points [P, n], there,
    with its mixes [P, m, n, n]."""
    count, n = points.shape
    # d (d^a E_l)^i/dx^c is 1 where i = l and c = a, else 0
    unit = np.eye(n * n).reshape(n, n, n, n).swapaxes(0, 1).reshape(n * n, n, n)
    partials = np.concatenate([np.broadcast_to(unit, (count,) + unit.shape), mixes], axis=1)
    # d^a is +0 at the anchor, or the tree x^a where the anchor's x^a is 0
    offsets = np.where(points == 0.0, points, 0.0)[:, None, None, :]
    return np.concatenate([np.zeros((count, n * n, n)),
                           _folded_sums(mixes * offsets, mixes != 0.0)], axis=1), partials


def vanishing_w(deriv: Derivation, points, mixes) -> np.ndarray:
    """W [P, field, i, j] of :func:`vanishing_fields` anchored at each of the
    points [P, n], there, with its mixes [P, m, n, n]."""
    x, partials = _vanishing_terms(points, mixes)
    return deriv.w_at(points[:, None], x, _frame_derivative_values(deriv.frame, points, partials))


def _probe_inputs(x0, mixes, coeffs, scales):
    """X^i [field, i] and d X^i/dx^a [field, i, a] at x0 of the vanishing
    fields, then of aX + bY, X and Y of each pair: X and Y alternate in the
    affine ``coeffs``, and ``scales`` holds a and b."""
    n = len(x0)
    xy = _folded_sums(np.concatenate([coeffs[..., :1], coeffs[..., 1:] * x0], axis=-1),
                      coeffs != 0.0).reshape(-1, 2, n)
    slopes = coeffs[..., 1:].reshape(-1, 2, n, n)
    ab = scales[:, :, None]
    # a X^i is left out where a is 0 or X^i is the tree 0
    kept = (ab != 0.0) & (coeffs != 0.0).any(axis=-1).reshape(-1, 2, n)
    combined = _folded_sums((ab * xy).swapaxes(1, 2), kept.swapaxes(1, 2))
    combined_slopes = ab[:, 0, :, None] * slopes[:, 0] + ab[:, 1, :, None] * slopes[:, 1]
    x, partials = (v[0] for v in _vanishing_terms(x0[None], mixes[None]))
    x = np.concatenate([x, np.concatenate([combined[:, None], xy], axis=1).reshape(-1, n)])
    return x, np.concatenate([partials, np.concatenate([combined_slopes[:, None], slopes], axis=1)
                              .reshape(-1, n, n)])


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
) -> LinearityVerdict:
    """Decide whether the derivation acts as a linear connection at x0.

    Two sampled conditions: (i) W_X(x0) = 0 for probe fields vanishing at
    x0 (the n*n fields d^a E_l and two seeded mixes), and (ii) W is
    additive and homogeneous in X at x0, |W_{aX+bY} - a W_X - b W_Y|(x0)
    for PROBE_PAIRS seeded affine pairs.  One run of the template tape on
    the fields' X^i and E_k(X^i) at x0 gives every W.  The witness of a
    failure is the first condition over ``tol``, in that order; its field
    (X of a pair) is built concretely.  On success the matrices Gamma_k :=
    W_{E_k}(x0) are extracted.
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

    x, partials = _probe_inputs(x0, mixes, coeffs, scales)
    try:
        w = deriv.w_at(x0, x, _frame_derivative_values(frame, x0[None], partials[None])[0])
    except DomainError:
        fields = _concrete_probe_fields(frame, x0, mixes, coeffs, scales)
        w = np.stack([w_of(deriv, f).evaluate_at(x0) for f in fields])
    probes = n * n + 2
    wc, wx, wy = (w[probes + k:probes + 3 * PROBE_PAIRS:3] for k in range(3))
    a, b = scales[:, 0, None, None], scales[:, 1, None, None]
    residuals = np.concatenate([np.max(np.abs(w[:probes]), axis=(-2, -1)),
                                np.max(np.abs(wc - a * wx - b * wy), axis=(-2, -1))]).tolist()

    max_residual = max(residuals)
    first = next((k for k, r in enumerate(residuals) if r > tol), None)
    if first is not None:
        # a pair's witness is its X, the second of (aX + bY, X, Y)
        at = first if first < probes else probes + 3 * (first - probes) + 1
        probe = next(islice(_concrete_probe_fields(frame, x0, mixes, coeffs, scales), at, None))
        witness = {
            "kind": "vanishing-field" if first < probes else "superposition",
            "components": [str(c) for c in probe.components],
            "residual": residuals[first],
        }
        return LinearityVerdict(False, max_residual, x0, tol, witness=witness)

    # W_{E_k}(x0) is W at X = 0, dX = 0 plus its jet along X^k alone, which
    # keeps only the terms of X^k, as the fold of W_{E_k} does
    inputs = [*x0[:, None], *np.zeros((n + len(deriv.template_derivatives), 1))]
    try:
        jets = [deriv.template_tape.jets(inputs, [np.ones((1, 1)) if m == n + k else None
                                                  for m in range(len(inputs))]) for k in range(n)]
        gammas = np.stack([np.where(w == 0.0, dw[:, 0], w + dw[:, 0]).reshape(n, n)
                           for w, dw in jets], axis=-1)  # [i, j, k]
    except DomainError:
        gammas = np.stack([w_of(deriv, frame.coordinate_vector(k)).evaluate_at(x0)
                           for k in range(n)], axis=-1)
    return LinearityVerdict(True, max_residual, x0, tol, gammas=gammas)
