"""Component matrices, the transformation law, tensor action, linearity."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normframes import (
    Chart,
    Connection,
    Const,
    Derivation,
    FrameField,
    LieType,
    STemplate,
    SymbolicTransform,
    TensorField,
    VectorField,
    WTemplate,
    apply_derivation,
    commutator,
    linearity_probe,
    symmetrize_connection,
    template_symbols,
    w_of,
)
from normframes import derivation, expr, frames, matops
from normframes.cli import load_manifold_spec
from normframes.derivation import PROBE_TOL, VariantError, vanishing_fields
from normframes.expr import (
    DomainError,
    Symbol,
    UnknownSymbolError,
    Sym,
    component_symbols,
    evaluate,
    frame_derivative_symbol,
    parse_expr,
    simplify,
    substitute,
)

from conftest import (
    affine_fields,
    christoffel_from_metric,
    coordinate_spec,
    polar_metric,
    sphere_metric,
)
from reference import (
    change_vector_frame,
    composed_frame,
    evaluate_tree,
    inverse_entries,
    linearity_probe_oracle,
    seeded_affine_fields as reference_affine_fields,
    to_vector,
    torsion_tensor,
    transform_w,
    vanishes_on_chart,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted((ROOT / "benchmarks" / "specs").glob("*.json")) + sorted(
    (ROOT / "demos" / "specs").glob("*.json"))


# ---------------------------------------------------------------------------
# fixture coefficients against the metric oracle


def test_polar_coefficients_match_levi_civita_oracle(polar, polar_connection):
    oracle = christoffel_from_metric(polar, polar_metric(polar))
    for pt in polar.sample_points(12, 31):
        asg = polar.assignment(pt)
        for idx in np.ndindex(2, 2, 2):
            assert evaluate(polar_connection.gamma[idx], asg) == pytest.approx(
                evaluate(oracle[idx], asg), abs=1e-12
            )


def test_sphere_coefficients_match_levi_civita_oracle(sphere, sphere_connection):
    oracle = christoffel_from_metric(sphere, sphere_metric(sphere))
    for pt in sphere.sample_points(12, 37):
        asg = sphere.assignment(pt)
        for idx in np.ndindex(2, 2, 2):
            assert evaluate(sphere_connection.gamma[idx], asg) == pytest.approx(
                evaluate(oracle[idx], asg), abs=1e-11
            )


# ---------------------------------------------------------------------------
# w_of


def test_zero_connection_components_vanish(zero_connection, plane):
    x1, _ = plane.symbols
    x = VectorField(zero_connection.frame, [Sym(x1), Const(2.0)])
    w = w_of(zero_connection, x)
    assert all(w.components[i, j] == Const(0.0) for i in range(2) for j in range(2))


def test_lie_components_hand_case(lie_plane, plane):
    x1, _ = plane.symbols
    x = VectorField(lie_plane.frame, [Sym(x1), Const(0.0)])
    w = w_of(lie_plane, x)
    expected = np.array([[-1.0, 0.0], [0.0, 0.0]])
    for pt in plane.sample_points(6, 41):
        assert np.allclose(w.evaluate_at(pt), expected)


def test_polar_component_matrix_for_angular_field(polar, polar_connection):
    x = VectorField(polar_connection.frame, [Const(0.0), Const(1.0)])
    w = w_of(polar_connection, x)
    for pt in polar.sample_points(8, 43):
        r = pt[0]
        expected = np.array([[0.0, -r], [1.0 / r, 0.0]])
        assert np.max(np.abs(w.evaluate_at(pt) - expected)) <= 1e-13


def test_w_template_instantiation(polar, polar_connection):
    syms = template_symbols(polar, 2)
    entries = [
        ["-r*X2", "-r*X1 + dX[1,2]"],
        ["(1/r)*X2 + dX[2,1]", "(1/r)*X1"],
    ]
    deriv = WTemplate(
        polar_connection.frame, [[parse_expr(e, syms) for e in row] for row in entries]
    )
    r, th = polar.symbols
    x = VectorField(deriv.frame, [Sym(th), Sym(r) * Sym(th)])
    w = w_of(deriv, x)
    for pt in polar.sample_points(6, 47):
        r_v, th_v = pt
        x1_v, x2_v = th_v, r_v * th_v
        # dX[1,2] = E_2(X^1) = d(theta)/dtheta = 1; dX[2,1] = E_1(X^2) = theta
        expected = np.array(
            [
                [-r_v * x2_v, -r_v * x1_v + 1.0],
                [x2_v / r_v + th_v, x1_v / r_v],
            ]
        )
        assert np.max(np.abs(w.evaluate_at(pt) - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# every variant is a W template: pinned against the per-variant formulas


def _reference_bindings(frame, x):
    n = frame.dimension
    bindings = dict(zip(component_symbols(n), x.components))
    for i in range(n):
        for j in range(n):
            bindings[frame_derivative_symbol(i + 1, j + 1)] = frame.frame_derivative(
                j, x.components[i]
            )
    return bindings


def _reference_lie(frame, x):
    """-E_j(X^i) + C^i_{kj} X^k."""
    n = frame.dimension
    C = frame.anholonomy()
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = -frame.frame_derivative(j, x.components[i])
            if not C.is_zero:
                for k in range(n):
                    acc = acc + C.components[i, k, j] * x.components[k]
            out[i, j] = simplify(acc)
    return out


def _reference_w(deriv, x):
    """W_X by the formula of each variant: Gamma_k X^k, the Lie formula, the
    substituted W template, and the substituted S template plus the Lie formula."""
    frame = deriv.frame
    n = frame.dimension
    if isinstance(deriv, Connection):
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                acc = Const(0.0)
                for k in range(n):
                    acc = acc + deriv.gamma[i, j, k] * x.components[k]
                out[i, j] = simplify(acc)
        return out
    if isinstance(deriv, LieType):
        return _reference_lie(frame, x)
    bindings = _reference_bindings(frame, x)
    subst = np.vectorize(lambda e: simplify(substitute(e, bindings)), otypes=[object])
    if isinstance(deriv, WTemplate):
        return subst(deriv.entries)
    s_x, lie = subst(deriv.entries), _reference_lie(frame, x)
    return np.vectorize(lambda a, b: simplify(a + b), otypes=[object])(s_x, lie)


@pytest.fixture(scope="module")
def variants(polar, polar_connection, polar_orthonormal_frame):
    # the orthonormal frame has nonzero anholonomy, so the C X term is live
    frame = polar_orthonormal_frame
    syms = template_symbols(polar, 2)

    def parsed(rows):
        return [[parse_expr(e, syms) for e in row] for row in rows]

    return {
        "connection": polar_connection,
        "lie": LieType(frame),
        "w_template": WTemplate(frame, parsed(
            [["r*X2 - dX[1,2]", "sin(theta)*X1 + dX[2,1]*dX[1,1]"], ["0", "X1*X2/r"]]
        )),
        "s_template": STemplate(frame, parsed(
            [["dX[1,2] + X2", "-r*X2"], ["(1/r)*X1 - dX[1,2]", "0*X1"]]
        )),
    }


def _probe_fields(frame):
    n = frame.dimension
    anchor = [Sym(Symbol(f"@p{a}")) for a in range(n)]
    mix = [[[Sym(Symbol(f"@c{i},{a}")) for a in range(n)] for i in range(n)]]
    return (
        [frame.coordinate_vector(k) for k in range(n)]
        + affine_fields(frame, 11, 3)
        + vanishing_fields(frame, anchor, mix)[-1:]
    )


def test_w_of_skips_the_binding_check_that_substitute_keeps(variants, monkeypatch):
    # w_of binds coordinate-only values by construction, so it walks none of them again
    deriv = variants["w_template"]
    fields = _probe_fields(deriv.frame)
    walked = []
    free_symbols = expr.free_symbols
    monkeypatch.setattr(expr, "free_symbols", lambda e: walked.append(e) or free_symbols(e))
    for x in fields:
        w_of(deriv, x)
    assert walked == []
    x1, x2 = component_symbols(2)
    with pytest.raises(UnknownSymbolError, match="introduces non-coordinate symbol 'X2'"):
        substitute(deriv.entries, {x1: Sym(x2)})
    assert walked


@pytest.mark.parametrize("name", ["connection", "lie", "w_template", "s_template"])
def test_w_of_matches_the_per_variant_formula(variants, name):
    deriv = variants[name]
    for x in _probe_fields(deriv.frame):
        got = w_of(deriv, x).components
        expected = _reference_w(deriv, x)
        assert all(a == b for a, b in zip(got.flat, expected.flat)), (name, x.components)


def test_bare_derivation_has_no_template(polar_connection):
    bare = Derivation(polar_connection.frame)
    with pytest.raises(VariantError):
        w_of(bare, polar_connection.frame.coordinate_vector(0))


def test_substitute_array_matches_entries_and_checks_bindings(polar):
    syms = template_symbols(polar, 2)
    r, th = polar.symbols
    entries = np.array(
        [[parse_expr(e, syms) for e in row] for row in [["X1*r + dX[1,2]", "X2"], ["theta", "1"]]],
        dtype=object,
    )
    bindings = {
        component_symbols(2)[0]: Sym(th),
        component_symbols(2)[1]: Sym(r) * Sym(th),
        frame_derivative_symbol(1, 2): parse_expr("1", []),
    }
    out = substitute(entries, bindings)
    assert out.shape == entries.shape
    assert all(out[idx] == substitute(entries[idx], bindings) for idx in np.ndindex(out.shape))
    with pytest.raises(ValueError, match="coordinate"):
        substitute(entries, {r: Sym(th)})
    with pytest.raises(UnknownSymbolError):
        substitute(entries, {component_symbols(2)[0]: Sym(component_symbols(2)[1])})


# ---------------------------------------------------------------------------
# transformation law


def test_transform_by_identity_is_noop(polar, polar_connection):
    frame = polar_connection.frame
    r, th = polar.symbols
    x = VectorField(frame, [Sym(th), Const(1.0)])
    w = w_of(polar_connection, x)
    out = transform_w(w, x, SymbolicTransform.identity(frame))
    for pt in polar.sample_points(6, 53):
        assert np.max(np.abs(out.evaluate_at(pt) - w.evaluate_at(pt))) <= 1e-12


def test_transform_by_constant_is_conjugation(polar, polar_connection):
    frame = polar_connection.frame
    c = np.array([[2.0, 1.0], [0.0, 1.0]])
    transform = SymbolicTransform(frame, matops.constant_exprs(c))
    x = VectorField(frame, [Const(1.0), Const(1.0)])
    w = w_of(polar_connection, x)
    out = transform_w(w, x, transform)
    c_inv = np.linalg.inv(c)
    for pt in polar.sample_points(6, 59):
        expected = c_inv @ w.evaluate_at(pt) @ c
        assert np.max(np.abs(out.evaluate_at(pt) - expected)) <= 1e-12


def test_transform_round_trip(polar, polar_connection):
    frame = polar_connection.frame
    r, th = polar.symbols
    entries = [[Sym(r), Const(0.0)], [Sym(th), Const(1.0)]]
    transform = SymbolicTransform(frame, entries)
    x = VectorField(frame, [Sym(th) + 1, Sym(r)])
    w = w_of(polar_connection, x)
    forward = transform_w(w, x, transform)
    x_new = change_vector_frame(x, transform)
    inverse = SymbolicTransform(composed_frame(transform), inverse_entries(transform), _validate=False)
    back = transform_w(forward, x_new, inverse)
    rng = np.random.default_rng(61)
    for _ in range(10):
        pt = np.array([rng.uniform(1.0, 2.0), rng.uniform(0.05, 1.5)])
        assert np.max(np.abs(back.evaluate_at(pt) - w.evaluate_at(pt))) <= 1e-10


def test_transform_cocycle_composition(polar, polar_connection):
    frame = polar_connection.frame
    r, th = polar.symbols
    a1 = SymbolicTransform(frame, [[Sym(r), Const(0.0)], [Const(0.0), Const(1.0)]])
    composed = composed_frame(a1)
    a2_entries = [[Const(1.0), Sym(th)], [Const(0.0), Const(2.0)]]
    a2 = SymbolicTransform(composed, a2_entries)
    x = VectorField(frame, [Sym(th) + 1, Sym(r)])
    w = w_of(polar_connection, x)

    step1 = transform_w(w, x, a1)
    x1 = change_vector_frame(x, a1)
    step2 = transform_w(step1, x1, a2)

    product = SymbolicTransform(frame, simplify(a1.entries @ np.array(a2_entries, dtype=object)))
    direct = transform_w(w, x, product)
    rng = np.random.default_rng(67)
    for _ in range(10):
        pt = np.array([rng.uniform(1.0, 2.0), rng.uniform(0.05, 1.5)])
        assert np.max(np.abs(step2.evaluate_at(pt) - direct.evaluate_at(pt))) <= 1e-9


# ---------------------------------------------------------------------------
# action on tensors


def test_scalar_action_is_directional_derivative(polar, polar_connection):
    frame = polar_connection.frame
    r, th = polar.symbols
    f = Sym(r) * Sym(th)
    x = VectorField(frame, [Sym(th), Const(1.0)])
    out = apply_derivation(polar_connection, x, TensorField(frame, 0, 0, f))
    expected = x.apply_to(f)
    for pt in polar.sample_points(6, 71):
        asg = polar.assignment(pt)
        assert evaluate(out.components[()], asg) == pytest.approx(
            evaluate(expected, asg), abs=1e-13
        )


def test_lie_action_on_vector_equals_commutator(lie_plane, plane):
    frame = lie_plane.frame
    x1, x2 = plane.symbols
    x = VectorField(frame, [Sym(x1) * Sym(x2), Const(1.0)])
    y = VectorField(frame, [Sym(x2), Sym(x1)])
    out = to_vector(apply_derivation(lie_plane, x, TensorField.from_vector(y)))
    brk = commutator(x, y)
    rng = np.random.default_rng(73)
    for _ in range(10):
        pt = rng.uniform(-0.9, 0.9, 2)
        assert np.max(np.abs(out.at(pt) - brk.at(pt))) <= 1e-10


def test_zero_connection_action_hand_case(zero_connection, plane):
    frame = zero_connection.frame
    x1, x2 = plane.symbols
    t = VectorField(frame, [Sym(x2), Const(0.0)])
    x = VectorField(frame, [Const(1.0), Const(0.0)])
    out = to_vector(apply_derivation(zero_connection, x, TensorField.from_vector(t)))
    assert [simplify(c) for c in out.components] == [Const(0.0), Const(0.0)]


def test_frame_vector_action_reproduces_w_column(polar, polar_connection):
    # the derivation applied to the j-th frame vector gives column j of W
    frame = polar_connection.frame
    r, th = polar.symbols
    x = VectorField(frame, [Sym(th) + 1, Sym(r)])
    w = w_of(polar_connection, x)
    for j in range(2):
        ej = frame.coordinate_vector(j)
        out = to_vector(apply_derivation(polar_connection, x, TensorField.from_vector(ej)))
        for pt in polar.sample_points(6, 79):
            got = out.at(pt)
            expected = w.evaluate_at(pt)[:, j]
            assert np.max(np.abs(got - expected)) <= 1e-10


def test_leibniz_rule_on_scaled_tensor(polar, polar_connection):
    frame = polar_connection.frame
    r, th = polar.symbols
    f = Sym(th) * Sym(th) + Sym(r)
    x = VectorField(frame, [Sym(th), Const(1.0)])
    y = VectorField(frame, [Const(1.0), Sym(r)])
    t = TensorField.from_vector(y)
    scaled = TensorField.from_vector(y.scaled(f))
    lhs = to_vector(apply_derivation(polar_connection, x, scaled))
    d_t = to_vector(apply_derivation(polar_connection, x, t))
    xf = x.apply_to(f)
    rng = np.random.default_rng(83)
    for _ in range(10):
        pt = np.array([rng.uniform(1.0, 2.0), rng.uniform(0.05, 1.5)])
        asg = polar.assignment(pt)
        rhs = evaluate(xf, asg) * y.at(pt) + evaluate(f, asg) * d_t.at(pt)
        assert np.max(np.abs(lhs.at(pt) - rhs)) <= 1e-9


def test_covector_action_matches_lie_oracle(lie_plane, plane):
    # (L_X w)(Y) = X(w(Y)) - w([X,Y]): fixes the sign of the lower-index sum
    frame = lie_plane.frame
    x1, x2 = plane.symbols
    x = VectorField(frame, [Sym(x1) * Sym(x2), Const(1.0)])
    w_comps = [Sym(x2), Sym(x1) * Sym(x1)]
    omega = TensorField(frame, 0, 1, w_comps)
    out = apply_derivation(lie_plane, x, omega)
    ys = [frame.coordinate_vector(0), frame.coordinate_vector(1)]
    ys += affine_fields(frame, 89, 1)
    rng = np.random.default_rng(97)
    for y in ys:
        pairing = simplify(w_comps[0] * y.components[0] + w_comps[1] * y.components[1])
        x_pairing = x.apply_to(pairing)
        brk = commutator(x, y)
        w_brk = simplify(w_comps[0] * brk.components[0] + w_comps[1] * brk.components[1])
        for _ in range(5):
            pt = rng.uniform(-0.9, 0.9, 2)
            asg = plane.assignment(pt)
            oracle = evaluate(x_pairing, asg) - evaluate(w_brk, asg)
            got = float(out.evaluate_at(pt) @ y.at(pt))
            assert got == pytest.approx(oracle, abs=1e-12)


def test_derivation_commutes_with_contraction(polar, polar_connection):
    frame = polar_connection.frame
    r, th = polar.symbols
    x = VectorField(frame, [Sym(th), Sym(r)])
    y = VectorField(frame, [Const(1.0), Sym(r) * Sym(th)])
    w_comps = [parse_expr("sin(theta)", polar.symbols), Sym(r)]
    omega = TensorField(frame, 0, 1, w_comps)
    d_omega = apply_derivation(polar_connection, x, omega)
    d_y = to_vector(apply_derivation(polar_connection, x, TensorField.from_vector(y)))
    pairing = simplify(w_comps[0] * y.components[0] + w_comps[1] * y.components[1])
    lhs = x.apply_to(pairing)
    for pt in polar.sample_points(10, 101):
        asg = polar.assignment(pt)
        rhs = float(d_omega.evaluate_at(pt) @ y.at(pt)) + float(
            np.array([evaluate(c, asg) for c in w_comps]) @ d_y.at(pt)
        )
        assert evaluate(lhs, asg) == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# the sigma map


def test_sigma_template_reproduces_connection_components(polar, polar_connection):
    # build S_X as a template from the sigma map and compare W matrices
    n = 2
    syms = template_symbols(polar, n)
    gamma = polar_connection.gamma

    def s_entry(i, j):
        e = parse_expr(f"dX[{i + 1},{j + 1}]", syms)
        for k in range(n):
            e = e + gamma[i, j, k] * parse_expr(f"X{k + 1}", syms)
        return simplify(e)

    s_deriv = STemplate(
        polar_connection.frame, [[s_entry(i, j) for j in range(n)] for i in range(n)]
    )
    r, th = polar.symbols
    x = VectorField(polar_connection.frame, [Sym(th) + 1, Sym(r) * Sym(th)])
    w_conn = w_of(polar_connection, x)
    w_sig = w_of(s_deriv, x)
    rng = np.random.default_rng(103)
    for _ in range(10):
        pt = np.array([rng.uniform(1.0, 2.0), rng.uniform(0.05, 1.5)])
        assert np.max(np.abs(w_conn.evaluate_at(pt) - w_sig.evaluate_at(pt))) <= 1e-10


# ---------------------------------------------------------------------------
# linearity in X


def test_connection_components_linear_in_field(polar, polar_connection):
    frame = polar_connection.frame
    fields = affine_fields(frame, 109, 4)
    rng = np.random.default_rng(113)
    for i in range(0, 4, 2):
        x, y = fields[i], fields[i + 1]
        a, b = rng.uniform(-2, 2, 2)
        combined = x.scaled(a) + y.scaled(b)
        w_c = w_of(polar_connection, combined)
        w_x = w_of(polar_connection, x)
        w_y = w_of(polar_connection, y)
        for pt in polar.sample_points(6, 127):
            got = w_c.evaluate_at(pt)
            expected = a * w_x.evaluate_at(pt) + b * w_y.evaluate_at(pt)
            assert np.max(np.abs(got - expected)) <= 1e-10


def test_linearity_probe_connection_yes(polar, polar_connection):
    verdict = linearity_probe(polar_connection, [1.3, 0.7])
    assert verdict.is_linear
    assert verdict.max_residual <= verdict.tol == PROBE_TOL
    expected = polar_connection.gamma_at([1.3, 0.7])
    assert np.max(np.abs(verdict.gammas - expected)) <= 1e-12


def test_linearity_probe_lie_no_with_witness(lie_plane):
    verdict = linearity_probe(lie_plane, [1.0, 0.0], tol=1e-6)
    assert not verdict.is_linear
    assert verdict.max_residual > verdict.tol == 1e-6
    assert verdict.witness is not None
    assert verdict.witness["kind"] == "vanishing-field"


def test_linearity_probe_template_depends_on_point(polar, polar_connection):
    # linear exactly at r=1: the frame-derivative term carries weight (r-1)
    syms = template_symbols(polar, 2)
    entries = [
        ["0", "-r*X2 + (r-1)*dX[1,1]"],
        ["(1/r)*X2", "(1/r)*X1"],
    ]
    deriv = WTemplate(
        polar_connection.frame, [[parse_expr(e, syms) for e in row] for row in entries]
    )
    assert linearity_probe(deriv, [1.0, 0.5]).is_linear
    assert not linearity_probe(deriv, [1.4, 0.5]).is_linear


def _assert_same_verdict(got, want):
    assert got.is_linear == want.is_linear
    assert got.max_residual.hex() == want.max_residual.hex()
    assert got.witness == want.witness
    if want.gammas is None:
        assert got.gammas is None
    else:
        assert got.gammas.tobytes() == want.gammas.tobytes()


def _seeded_points(chart, seed, count=2):
    """The centre of the domain box, then ``count`` seeded points in its inner half."""
    lo, hi = np.array(chart.domain).T
    rng = np.random.default_rng(seed)
    return [(lo + hi) / 2.0] + list(lo + (hi - lo) * rng.uniform(0.25, 0.75, (count, len(lo))))


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: f"{p.parent.parent.name}/{p.stem}")
def test_linearity_probe_matches_the_concrete_field_oracle(path):
    deriv = load_manifold_spec(str(path)).deriv
    for at in _seeded_points(deriv.chart, 5):
        for seed in (42, 7):
            _assert_same_verdict(linearity_probe(deriv, at, seed=seed),
                                 linearity_probe_oracle(deriv, at, seed=seed))


def test_linearity_probe_matches_the_oracle_in_five_dimensions(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(coordinate_spec(5)))
    deriv = load_manifold_spec(str(spec)).deriv
    for at in _seeded_points(deriv.chart, 11):
        verdict = linearity_probe(deriv, at)
        assert verdict.is_linear
        _assert_same_verdict(verdict, linearity_probe_oracle(deriv, at))


def test_linearity_probe_matches_the_oracle_on_a_quadratic_template(polar):
    # W quadratic in X and free of dX: zero for every field vanishing at the
    # point, not additive, so the witness is a superposition pair's X
    syms = template_symbols(polar, 2)
    entries = [["X1*X2", "r*X1^2"], ["0", "X2*X2/r"]]
    deriv = WTemplate(FrameField.coordinate(polar),
                      [[parse_expr(e, syms) for e in row] for row in entries])
    for at in _seeded_points(polar, 13):
        verdict = linearity_probe(deriv, at)
        assert verdict.witness["kind"] == "superposition"
        assert all("r" in c and "theta" in c for c in verdict.witness["components"])
        _assert_same_verdict(verdict, linearity_probe_oracle(deriv, at))


_TEMPLATE = [["X1/(x1-2)", "-x2*X2"], ["0", "X2/(x1+3)"]]


@pytest.mark.parametrize("connection, template, at", [
    ({"1,1,1": "-x1", "1,1,2": "x2", "2,1,2": "-sin(x2)", "2,2,1": "x1/(x2-3)"}, None, [0.0, 0.0]),
    ({"1,1,1": "-x1", "1,2,2": "-(x1*x2)", "2,1,1": "1/(x1-2)"}, None, [0.0, 0.5]),
    (None, _TEMPLATE, [-0.5, 0.0]),
    (None, _TEMPLATE, [0.5, 0.0]),
], ids=["connection-origin", "connection-axis", "template-left", "template-right"])
def test_linearity_probe_gammas_keep_the_signs_of_exact_zeros(connection, template, at):
    # W_{E_k}(x0) keeps only the terms of X^k, so a zero keeps the sign the
    # folded W_{E_k} gives it: -0 for -x1 at x1 = 0, +0 for X1/(x1-2) at X1 = 0
    chart = Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
    frame = FrameField.coordinate(chart)
    if template:
        syms = template_symbols(chart, 2)
        deriv = WTemplate(frame, [[parse_expr(e, syms) for e in row] for row in template])
    else:
        gamma = np.full((2, 2, 2), Const(0.0), dtype=object)
        for key, text in connection.items():
            gamma[tuple(int(v) - 1 for v in key.split(","))] = parse_expr(text, chart.symbols)
        deriv = Connection(frame, gamma)
    verdict = linearity_probe(deriv, at)
    assert verdict.is_linear and np.signbit(verdict.gammas).any()
    _assert_same_verdict(verdict, linearity_probe_oracle(deriv, at))


def test_seeded_affine_fields_draw_as_the_reference_loop():
    # one draw for all coefficients: the same stream, rounding and trees
    for path in SPEC_FILES:
        frame = load_manifold_spec(str(path)).frame
        got = derivation.seeded_affine_fields(frame, np.random.default_rng(3), 5)
        want = reference_affine_fields(frame, np.random.default_rng(3), 5)
        assert [repr(x.components) for x in got] == [repr(x.components) for x in want]


_FRACTIONS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: f"{p.parent.parent.name}/{p.stem}")
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spots=st.lists(_FRACTIONS, min_size=4, max_size=4),
       zero=st.integers(2, 9), one=st.integers(2, 9))
def test_probe_inputs_are_the_compiled_values_of_the_concrete_fields(path, seed, spots, zero,
                                                                    one):
    # X^i and E_k(X^i) at x0 of the vanishing fields and the pairs' aX + bY, X
    # and Y, worked out from their coefficients, bit for bit what the
    # concrete fields' compiled trees give; exact zeros and ones among the
    # coefficients and scales take the fold's identity rules
    frame = load_manifold_spec(str(path)).frame
    n = frame.dimension
    lo, hi = np.array(frame.chart.domain).T
    x0 = lo + np.array(spots[:n]) * (hi - lo)
    rng = np.random.default_rng(seed)
    mixes = np.round(rng.uniform(-1.0, 1.0, (2, n, n)), 6)
    coeffs = np.round(rng.uniform(-1.0, 1.0, (2 * derivation.PROBE_PAIRS, n, n + 1)), 6)
    scales = np.round(rng.uniform(-2.0, 2.0, (derivation.PROBE_PAIRS, 2)), 6)
    for arr in (mixes, coeffs, scales):
        arr.flat[::zero], arr.flat[1::one] = 0.0, 1.0
    x, partials = derivation._probe_inputs(x0, mixes, coeffs, scales)
    dx = derivation._frame_derivative_values(frame, x0[None], partials[None])[0]
    fields = list(derivation._concrete_probe_fields(frame, x0, mixes, coeffs, scales))
    assert len(fields) == len(x)
    for field, got_x, got_dx in zip(fields, x, dx):
        want_x, want_dx = matops.evaluate_arrays(
            [np.array(field.components, dtype=object), field.component_derivatives],
            frame.chart.symbols, x0[None])
        assert got_x.tobytes() == want_x[0].tobytes(), field.components
        assert got_dx.tobytes() == want_dx[0].tobytes(), field.components


@pytest.mark.parametrize("entry, at", [("X1/(r-1)", [1.0, 0.2]), ("log(X1+1)", [1.5, 0.5])],
                         ids=["vanishing-field", "superposition"])
def test_linearity_probe_domain_error_names_the_concrete_field(polar, entry, at):
    # W undefined at x0 for a field vanishing there, or for a seeded aX + bY:
    # the error names the W of that concrete field, as the oracle's does
    deriv = WTemplate(FrameField.coordinate(polar),
                      [[parse_expr(e, template_symbols(polar, 2)) for e in row]
                       for row in [[entry, "0"], ["0", "X2"]]])
    with pytest.raises(DomainError) as want:
        linearity_probe_oracle(deriv, at)
    with pytest.raises(DomainError) as got:
        linearity_probe(deriv, at)
    assert "@" not in str(got.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["s4_template", "polar_euclidean"])
def test_linearity_probe_compiles_a_fixed_number_of_tapes(monkeypatch, name):
    # the W template, and the frame matrix for the probe fields' E_k(X^i),
    # however many pairs; the Gammas are fields of the template's one run
    calls = []
    real = matops.compile_exprs

    def recording(exprs, symbols):
        calls.append(1)
        return real(exprs, symbols)

    monkeypatch.setattr(matops, "compile_exprs", recording)
    monkeypatch.setattr(derivation, "compile_exprs", recording)
    path = str(ROOT / "benchmarks" / "specs" / f"{name}.json")
    counts = []
    for pairs in (8, 16):
        monkeypatch.setattr(derivation, "PROBE_PAIRS", pairs)
        setup = load_manifold_spec(path)
        at = _seeded_points(setup.chart, 17, 0)[0]
        calls.clear()
        linearity_probe(setup.deriv, at)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 2


def test_transformed_components_derives_the_transform_once(monkeypatch):
    # the column fields read their E_k(X^i) off the one E_k(A)
    setup = load_manifold_spec(str(ROOT / "benchmarks" / "specs" / "s4_template.json"))
    frame = setup.frame
    n = frame.dimension
    at = _seeded_points(setup.chart, 19, 0)[0]
    entries = matops.constant_exprs(np.eye(n)) + np.array(
        [[Const(0.1 * (i + 1)) * Sym(frame.chart.symbols[j]) for j in range(n)] for i in range(n)],
        dtype=object)
    transform = SymbolicTransform(frame, simplify(entries))
    calls = []
    real = FrameField.frame_derivatives

    def recording(self, f):
        calls.append(f)
        return real(self, f)

    frames.transformed_components(setup.deriv, transform, at[None])  # builds the W template
    monkeypatch.setattr(FrameField, "frame_derivatives", recording)
    got = frames.transformed_components(setup.deriv, transform, at[None])[0]
    assert len(calls) == 1
    monkeypatch.undo()
    # the symbolic push-forward of each column field, which derives its own E_k(X^i)
    for k in range(n):
        column = VectorField(frame, list(transform.entries[:, k]))
        want = transform_w(w_of(setup.deriv, column), column, transform).evaluate_at(at)
        np.testing.assert_allclose(got[k], want, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_fixed_point(polar, polar_connection):
    out = symmetrize_connection(polar_connection)
    for pt in polar.sample_points(6, 131):
        assert np.max(np.abs(out.gamma_at(pt) - polar_connection.gamma_at(pt))) <= 1e-13


def test_symmetrize_torsion_fixture(torsion_plane):
    out = symmetrize_connection(torsion_plane)
    assert evaluate(out.gamma[0, 0, 1], {"x1": 0.1, "x2": 0.2}) == 0.5
    assert evaluate(out.gamma[0, 1, 0], {"x1": 0.1, "x2": 0.2}) == 0.5


def test_symmetrized_connection_is_torsion_free(torsion_plane):
    out = symmetrize_connection(torsion_plane)
    tensor = torsion_tensor(out)
    ok, worst = vanishes_on_chart(tensor.components.flat, torsion_plane.chart)
    assert ok, worst


def test_symmetrization_preserves_nothing_spurious(torsion_plane):
    # the unsymmetrized fixture does carry torsion
    tensor = torsion_tensor(torsion_plane)
    ok, _ = vanishes_on_chart(tensor.components.flat, torsion_plane.chart)
    assert not ok


# ---------------------------------------------------------------------------
# one-point evaluation is the many-point tape at a single point


@pytest.mark.parametrize(
    "bad, at",
    [("1/r", 0.0), ("1/(exp(r)*exp(r))", 400.0)],
    ids=["pole", "intermediate-overflow"],
)
def test_one_point_and_many_point_evaluation_agree(bad, at):
    chart = Chart(("r", "theta"), ((0.0, 500.0), (0.0, 1.0)))
    frame = FrameField.coordinate(chart)
    good = ["r*sin(theta)", "exp(theta)/(1+r)", "sqrt(r+theta)^3", "cosh(theta)-log(2+r)"]
    entries = [parse_expr(text, chart.symbols) for text in good + [bad] + good[:3]]
    gamma = np.array(entries, dtype=object).reshape(2, 2, 2)
    pair = [entries[0], entries[4]]

    def each_entry(pt):
        return np.array([evaluate(e, chart.assignment(pt)) for e in entries])

    cases = [  # name, the one-point path, the array it evaluates
        ("evaluate", each_entry, entries),
        ("evaluate_array", lambda pt: matops.evaluate_array(gamma, chart.assignment(pt)), gamma),
        ("TensorField.evaluate_at", TensorField(frame, 1, 2, gamma).evaluate_at, gamma),
        ("gamma_at", Connection(frame, gamma).gamma_at, gamma),
        ("VectorField.at", VectorField(frame, pair).at, pair),
    ]
    regular, singular = np.array([1.5, 0.3]), np.array([at, 0.3])
    for name, one_point, array in cases:
        expected = matops.evaluate_points(array, chart.symbols, [regular])[0]
        got = one_point(regular)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name
        # only the bad entry fails there, and every path raises
        with pytest.raises(DomainError):
            matops.evaluate_points(array, chart.symbols, [singular])
        with pytest.raises(DomainError):
            one_point(singular)
    if at:  # the reference walk absorbs the overflow of exp(r)*exp(r); the tape does not
        assert evaluate_tree(entries[4], {"r": at}) == 0.0
