"""Expression layer: grammar, calculus, evaluation, substitution."""

import math
import random
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normframes.expr as expr_module
from normframes.expr import (
    Add,
    Call,
    Const,
    Div,
    MAX_DEPTH,
    FUNCTIONS,
    DomainError,
    ExprError,
    ExprSyntaxError,
    MissingSymbolError,
    Mul,
    Neg,
    Pow,
    Sub,
    Sym,
    Symbol,
    UnknownSymbolError,
    ZERO,
    _depth,
    compile_exprs,
    component_symbols,
    coordinate_symbols,
    differentiate,
    directional_derivatives,
    evaluate,
    frame_derivative_symbol,
    free_symbols,
    parse_expr,
    simplify,
    substitute,
    to_source,
)

from reference import evaluate_tree

R, THETA = coordinate_symbols(("r", "theta"))
POLAR_SYMS = (R, THETA)


# ---------------------------------------------------------------------------
# parsing


def test_parse_depth_budget():
    assert parse_expr("+".join(["r"] * MAX_DEPTH), POLAR_SYMS) is not None
    with pytest.raises(ExprError, match="depth"):
        parse_expr("+".join(["r"] * (MAX_DEPTH + 1)), POLAR_SYMS)
    with pytest.raises(ExprError, match="too deeply"):
        parse_expr("(" * 3000 + "r" + ")" * 3000, POLAR_SYMS)


def test_single_token_symbol():
    assert parse_expr("r", POLAR_SYMS) == Sym(R)


def test_unary_minus_binds_looser_than_power():
    e = parse_expr("-(r^2)*sin(theta)", POLAR_SYMS)
    assert e == Mul(Neg(Pow(Sym(R), Const(2.0))), Call("sin", Sym(THETA)))
    # without parentheses the meaning is identical: -r^2 is -(r^2)
    assert parse_expr("-r^2", POLAR_SYMS) == Neg(Pow(Sym(R), Const(2.0)))


def test_unknown_identifier_rejected():
    with pytest.raises(UnknownSymbolError, match="q"):
        parse_expr("1/r + q", POLAR_SYMS)


def test_power_is_right_associative():
    e = parse_expr("r^2^3", POLAR_SYMS)
    assert e == Pow(Sym(R), Pow(Const(2.0), Const(3.0)))


def test_precedence_product_over_sum():
    e = parse_expr("1+r*theta", POLAR_SYMS)
    assert e == Add(Const(1.0), Mul(Sym(R), Sym(THETA)))


def test_syntax_error_carries_position_and_expectations():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("r + ", POLAR_SYMS)
    assert err.value.position == 4
    assert err.value.expected


def test_function_requires_argument_list():
    with pytest.raises(ExprSyntaxError, match="argument"):
        parse_expr("sin + r", POLAR_SYMS)


def test_calling_non_function_rejected():
    with pytest.raises(UnknownSymbolError, match="function"):
        parse_expr("r(theta)", POLAR_SYMS)


def test_brackets_only_on_dx():
    n = 2
    table = list(POLAR_SYMS) + list(component_symbols(n)) + [
        frame_derivative_symbol(i, j) for i in range(1, 3) for j in range(1, 3)
    ]
    e = parse_expr("dX[1,2]*sin(theta)", table)
    assert e == Mul(Sym(frame_derivative_symbol(1, 2)), Call("sin", Sym(THETA)))
    with pytest.raises(ExprSyntaxError, match="dX"):
        parse_expr("r[1,2]", table)
    with pytest.raises(UnknownSymbolError):
        parse_expr("dX[9,9]", table)


def test_negative_literals_fold_to_constants():
    assert parse_expr("-2.5", POLAR_SYMS) == Const(-2.5)
    # but exponentiation still wins over the leading minus
    assert parse_expr("-2^2", POLAR_SYMS) == Neg(Pow(Const(2.0), Const(2.0)))


# ---------------------------------------------------------------------------
# printing round-trip


def random_expr(rng: random.Random, symbols, depth: int):
    """Deterministic random tree over the public constructors."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Sym(rng.choice(symbols))
        return Const(round(rng.uniform(-5.0, 5.0), 3))
    pick = rng.randrange(7)
    if pick == 0:
        return Add(random_expr(rng, symbols, depth - 1), random_expr(rng, symbols, depth - 1))
    if pick == 1:
        return Sub(random_expr(rng, symbols, depth - 1), random_expr(rng, symbols, depth - 1))
    if pick == 2:
        return Mul(random_expr(rng, symbols, depth - 1), random_expr(rng, symbols, depth - 1))
    if pick == 3:
        return Div(random_expr(rng, symbols, depth - 1), random_expr(rng, symbols, depth - 1))
    if pick == 4:
        return Pow(random_expr(rng, symbols, depth - 1), Const(float(rng.randrange(-3, 4))))
    if pick == 5:
        inner = random_expr(rng, symbols, depth - 1)
        return Const(-inner.value) if isinstance(inner, Const) else Neg(inner)
    func = rng.choice(["sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh"])
    return Call(func, random_expr(rng, symbols, depth - 1))


def test_roundtrip_evaluates_exactly_on_100_points():
    e = parse_expr("-(r^2)*sin(theta) + exp(theta/2)/r - sqrt(r)", POLAR_SYMS)
    again = parse_expr(to_source(e), POLAR_SYMS)
    assert again == e
    rng = random.Random(314)
    for _ in range(100):
        point = {"r": rng.uniform(0.5, 2.0), "theta": rng.uniform(0.0, 1.5)}
        assert evaluate(again, point) == evaluate(e, point)


def test_roundtrip_on_100_seeded_trees():
    rng = random.Random(20240)
    eval_rng = random.Random(77)
    exact_checks = 0
    for _ in range(100):
        tree = random_expr(rng, POLAR_SYMS, 4)
        text = to_source(tree)
        again = parse_expr(text, POLAR_SYMS)
        assert again == tree, text
        # where evaluation is defined, the reparsed tree evaluates bit-identically
        point = {"r": eval_rng.uniform(0.5, 2.0), "theta": eval_rng.uniform(0.1, 1.0)}
        try:
            expected = evaluate(tree, point)
        except (DomainError, OverflowError):
            continue
        assert evaluate(again, point) == expected
        exact_checks += 1
    assert exact_checks >= 40


# ---------------------------------------------------------------------------
# differentiation


def test_power_product_rule():
    e = parse_expr("r^2*sin(theta)", POLAR_SYMS)
    d = differentiate(e, R)
    expected = parse_expr("2*r*sin(theta)", POLAR_SYMS)
    for r_val, th_val in [(1.0, 0.3), (2.0, 1.2), (0.7, 0.9)]:
        point = {"r": r_val, "theta": th_val}
        assert evaluate(d, point) == pytest.approx(evaluate(expected, point), rel=1e-14)


def test_derivative_of_independent_symbol_is_zero():
    assert simplify(differentiate(Sym(R), THETA)) == Const(0.0)


def test_log_derivative_matches_central_difference_at_stated_step():
    e = Call("log", Sym(R))
    d = differentiate(e, R)
    h = 1e-5
    fd = (evaluate(e, {"r": 2.0 + h}) - evaluate(e, {"r": 2.0 - h})) / (2.0 * h)
    sym = evaluate(d, {"r": 2.0})
    assert abs(sym - fd) / abs(sym) <= 1e-9


@pytest.mark.parametrize(
    "source",
    [
        "r^3 + theta",
        "sin(r)*cos(theta)",
        "exp(r/2)",
        "log(r+2)",
        "sqrt(r+1.5)",
        "tan(theta/2)",
        "sinh(theta)*cosh(r/3)",
        "r^2/(1+theta^2)",
        "1/r",
        "r^theta",
    ],
)
def test_derivatives_match_central_differences(source):
    e = parse_expr(source, POLAR_SYMS)
    h = 1e-5
    rng = np.random.default_rng(11)
    for _ in range(5):
        r_val = rng.uniform(0.8, 2.0)
        th_val = rng.uniform(0.2, 1.2)
        for sym_, name in ((R, "r"), (THETA, "theta")):
            d = evaluate(differentiate(e, sym_), {"r": r_val, "theta": th_val})
            plus = dict(r=r_val, theta=th_val)
            minus = dict(r=r_val, theta=th_val)
            plus[name] += h
            minus[name] -= h
            fd = (evaluate(e, plus) - evaluate(e, minus)) / (2.0 * h)
            assert abs(d - fd) <= 1e-6 * (1.0 + abs(d))


def test_general_power_rule_with_symbolic_exponent():
    e = Pow(Sym(R), Sym(THETA))
    d = differentiate(e, THETA)
    point = {"r": 1.7, "theta": 0.6}
    expected = (1.7 ** 0.6) * math.log(1.7)
    assert evaluate(d, point) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_examples():
    assert evaluate(Call("sin", Sym(THETA)), {"theta": 0.0}) == 0.0
    e = parse_expr("r^2*sin(theta)", POLAR_SYMS)
    assert evaluate(e, {"r": 2.0, "theta": math.pi / 6}) == pytest.approx(2.0, abs=1e-12)


def test_evaluate_pole_is_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse_expr("1/r", POLAR_SYMS), {"r": 0.0})


def test_evaluate_missing_symbol():
    with pytest.raises(MissingSymbolError):
        evaluate(parse_expr("r+theta", POLAR_SYMS), {"r": 1.0})


@pytest.mark.parametrize(
    "source, point",
    [
        ("log(r)", {"r": -1.0}),
        ("log(r)", {"r": 0.0}),
        ("sqrt(r)", {"r": -2.0}),
        ("r^(0-2)", {"r": 0.0}),
        ("exp(r)", {"r": 1e4}),
        ("r*10^308", {"r": 2.0}),
        ("1/r", {"r": 0.0}),
    ],
)
def test_domain_errors_never_silent(source, point):
    e = parse_expr(source, POLAR_SYMS)
    with pytest.raises(DomainError):
        evaluate(e, point)
    # the compiled path keeps the policy for scalar and array arguments,
    # and names the failing expression
    compiled = compile_exprs([Sym(THETA), e], POLAR_SYMS)
    with pytest.raises(DomainError, match=re.escape(to_source(e))):
        compiled(point["r"], 0.5)
    with pytest.raises(DomainError, match=re.escape(to_source(e))):
        compiled(np.array([1.5, point["r"]]), 0.5)


# ---------------------------------------------------------------------------
# simplification


def test_identity_rules():
    e = parse_expr("0*sin(theta)+r*1", POLAR_SYMS)
    assert simplify(e) == Sym(R)


def test_constant_folding():
    assert simplify(parse_expr("2+3", POLAR_SYMS)) == Const(5.0)


@pytest.mark.parametrize("source", ["1e-200*1e-200", "1e-300/1e300", "1e-308^2", "exp(-1000)",
                                    "1e-310*0.5"])
def test_a_fold_that_underflows_keeps_its_node(source):
    # 0 or subnormal from nonzero operands is an underflow, as inf is an overflow
    e = parse_expr(source, POLAR_SYMS)
    assert simplify(e) == e


@pytest.mark.parametrize("source, value", [("1-1", 0.0), ("1e-308-1e-308", 0.0),
                                           ("1e-308-9e-309", 1e-308 - 9e-309), ("0*2", 0.0),
                                           ("0^2", 0.0), ("0/3", 0.0), ("sin(0)", 0.0),
                                           ("log(1)", 0.0), ("log(1)*r", 0.0)])
def test_exact_and_zero_operand_folds_still_fold(source, value):
    # a sum or difference is exact below the normal range, a log is 0 only at 1,
    # and a zero operand makes a true zero
    assert simplify(parse_expr(source, POLAR_SYMS)) == Const(value)


def test_no_trig_rewriting():
    e = parse_expr("sin(theta)^2+cos(theta)^2", POLAR_SYMS)
    assert simplify(e) == e


def test_simplify_preserves_value_on_random_trees():
    rng = random.Random(5)
    eval_rng = random.Random(6)
    checked = 0
    while checked < 60:
        tree = random_expr(rng, POLAR_SYMS, 4)
        point = {"r": eval_rng.uniform(0.5, 2.0), "theta": eval_rng.uniform(0.1, 1.5)}
        try:
            before = evaluate(tree, point)
            after = evaluate(simplify(tree), point)
        except DomainError:
            continue
        assert abs(after - before) <= 1e-12 * (1.0 + abs(before))
        checked += 1


def test_simplify_array_is_entrywise_and_keeps_shape():
    rng = random.Random(17)
    trees = np.empty((2, 3, 2), dtype=object)
    for idx in np.ndindex(trees.shape):
        trees[idx] = random_expr(rng, POLAR_SYMS, 4)
    out = simplify(trees)
    assert out.shape == trees.shape and out.dtype == object
    for idx in np.ndindex(trees.shape):
        assert out[idx] == simplify(trees[idx])


# ---------------------------------------------------------------------------
# substitution


def test_substitute_component_symbol():
    (x1, x2) = component_symbols(2)
    e = Add(Sym(x1), Sym(R))
    out = substitute(e, {x1: Sym(R)})
    assert out == Add(Sym(R), Sym(R))


def test_substitute_frame_derivative_to_zero():
    d12 = frame_derivative_symbol(1, 2)
    e = Mul(Sym(d12), Call("sin", Sym(THETA)))
    out = simplify(substitute(e, {d12: Const(0.0)}))
    assert out == Const(0.0)


def test_substitute_reproduces_contraction_column():
    # Gamma^i_{jk} X^k with X = (1, 0) gives back column k=1
    x1, x2 = component_symbols(2)
    gamma = [[Sym(R), Sym(THETA)], [Const(2.0), Mul(Sym(R), Sym(THETA))]]
    template = [
        Add(Mul(gamma[j][0], Sym(x1)), Mul(gamma[j][1], Sym(x2))) for j in range(2)
    ]
    for j in range(2):
        out = simplify(substitute(template[j], {x1: Const(1.0), x2: Const(0.0)}))
        point = {"r": 1.3, "theta": 0.4}
        assert evaluate(out, point) == evaluate(gamma[j][0], point)


def test_substitute_keeps_unbound_subtrees_shared():
    x1, x2 = component_symbols(2)
    gamma = parse_expr("sin(r)*theta^2-r/(1+theta)", POLAR_SYMS)
    assert substitute(gamma, {x1: Sym(R)}) is gamma
    # the shape of a connection's W template entry: Const(0) + G1*X1 + G2*X2
    template = Add(Add(Const(0.0), Mul(gamma, Sym(x1))), Mul(Neg(gamma), Sym(x2)))
    out = substitute(template, {x1: Sym(THETA), x2: Const(2.0)})
    assert out == Add(Mul(gamma, Sym(THETA)), Mul(Neg(gamma), Const(2.0)))
    assert out.left.left is gamma
    assert out.right.left is template.right.left


def test_substitute_rejects_nondeclared_symbols_in_binding():
    x1, _ = component_symbols(2)
    other = component_symbols(3)[2]  # X3: a component symbol, not coordinate-only
    with pytest.raises(UnknownSymbolError):
        substitute(Sym(x1), {x1: Sym(other)})


def test_substitute_rejects_coordinate_keys():
    with pytest.raises(ValueError):
        substitute(Sym(R), {R: Const(1.0)})


# ---------------------------------------------------------------------------
# hypothesis properties

_leaf = st.sampled_from([Sym(R), Sym(THETA), Const(1.0), Const(-2.0), Const(0.5)])


def _extend(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(lambda a: Neg(a) if not isinstance(a, Const) else Const(-a.value), children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sinh", "cosh"]), children),
        st.builds(lambda b: Pow(b, Const(2.0)), children),
    )


_trees = st.recursive(_leaf, _extend, max_leaves=20)


@settings(max_examples=120, derandomize=True)
@given(_trees)
def test_printed_form_reparses_to_identical_tree(tree):
    assert parse_expr(to_source(tree), POLAR_SYMS) == tree


@settings(max_examples=80, derandomize=True)
@given(_trees, st.floats(0.5, 2.0), st.floats(0.1, 1.5))
def test_simplify_agrees_with_original(tree, r_val, th_val):
    point = {"r": r_val, "theta": th_val}
    try:
        before = evaluate(tree, point)
    except DomainError:
        return
    after = evaluate(simplify(tree), point)
    assert abs(after - before) <= 1e-9 * (1.0 + abs(before))


# an outer exp(exp(.)) and wide points make overflow, hence DomainError, common
_overflow_prone = st.one_of(_trees, _trees.map(lambda t: Call("exp", Call("exp", t))))


@settings(max_examples=150, derandomize=True)
@given(_overflow_prone, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_compiled_agrees_with_evaluate(tree, r_val, th_val):
    # against the reference walk: evaluate itself runs on the tape
    compiled = compile_exprs([tree], POLAR_SYMS)
    try:
        expected = evaluate_tree(tree, {"r": r_val, "theta": th_val})
    except DomainError:
        with pytest.raises(DomainError):
            compiled(r_val, th_val)
        with pytest.raises(DomainError):
            compiled(np.array([r_val, 1.0]), np.array([th_val, 0.5]))
        return
    try:
        got = compiled(np.array([r_val]), th_val)
    except DomainError:
        return  # stricter is allowed: an intermediate overflow that the walk absorbs
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - expected) <= 1e-9 * (1.0 + abs(expected))
    assert compiled(r_val, th_val)[0] == pytest.approx(got[0, 0], rel=1e-15, abs=0.0)


# jet mode: the compiled tape carrying first derivatives

_jet_leaf = st.sampled_from([Sym(R), Sym(THETA), Const(1.0), Const(-2.0), Const(0.5), Const(3.0)])


def _extend_jets(children):
    return st.one_of(
        _extend(children),
        st.builds(Div, children, children),
        st.builds(Call, st.sampled_from(["tan", "log", "sqrt"]), children),
        st.builds(Pow, children, children),
    )


_jet_trees = st.recursive(_jet_leaf, _extend_jets, max_leaves=16)
UNIT = [np.array([1.0, 0.0])[:, None], np.array([0.0, 1.0])[:, None]]  # d/dr, d/dtheta


@settings(max_examples=150, derandomize=True)
@given(st.lists(_jet_trees, min_size=1, max_size=3), st.floats(0.5, 2.0), st.floats(0.1, 1.5))
def test_jet_values_are_the_compiled_values_bit_for_bit(trees, r_val, th_val):
    compiled = compile_exprs(trees, POLAR_SYMS)
    points = (np.array([r_val, 1.25]), np.array([th_val, 0.7]))
    try:
        want = compiled(*points)
    except DomainError:
        with pytest.raises(DomainError):
            compiled.jets(points, UNIT)
        return
    try:
        got, tangents = compiled.jets(points, UNIT)
    except DomainError:
        return  # a derivative's pole: see test_jet_domain_errors_name_the_expression
    assert got.tobytes() == want.tobytes()
    assert tangents.shape == (len(trees), 2, 2) and np.isfinite(tangents).all()


@settings(max_examples=150, derandomize=True)
@given(_jet_trees, st.floats(0.5, 2.0), st.floats(0.1, 1.5))
def test_jet_tangents_match_differentiate(tree, r_val, th_val):
    compiled = compile_exprs([tree], POLAR_SYMS)
    derivatives = compile_exprs([differentiate(tree, s) for s in POLAR_SYMS], POLAR_SYMS)
    try:
        _, tangents = compiled.jets((np.array([r_val]), np.array([th_val])), UNIT)
        want = derivatives(r_val, th_val)
    except DomainError:
        return
    got = tangents[0, :, 0]
    scale = 1.0 + np.abs(want)
    assert (np.abs(got - want) <= 1e-12 * scale).all(), (to_source(tree), got, want)


def test_jet_tangent_of_an_input_that_does_not_vary_is_none():
    # d/dr only: theta's tangent is None, so sqrt(theta) at 0 raises nothing
    e = parse_expr("r*sqrt(theta)", POLAR_SYMS)
    values, tangents = compile_exprs([e], POLAR_SYMS).jets((2.0, 0.0), [np.ones(1), None])
    assert values[0] == 0.0 and tangents.shape == (1, 1) and tangents[0, 0] == 0.0
    # a root that does not vary has zero tangents; scalar points take (m,) tangents
    _, tangents = compile_exprs([Const(2.0), Sym(THETA)], POLAR_SYMS).jets(
        (1.0, 1.0), [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert (tangents == [[0.0, 0.0], [0.0, 1.0]]).all()


@pytest.mark.parametrize("source, r_val, th_val", [
    ("sqrt(r)", 0.0, 1.0),  # the value is 0, its derivative has a pole
    ("theta/(r-1)", 1.0, 1.0),  # a quotient's pole
    ("(r-1)^theta", 1.0, 0.0),  # u^v at 0^0: the value is 1, d/dr needs log(0)
    ("log(r)", 0.0, 1.0),
    ("log(r)", -1.0, 1.0),
    ("sqrt(r*theta)", 0.0, 0.0),
], ids=["sqrt-at-0", "quotient-pole", "pow-0-0", "log-0", "log-negative", "sqrt-of-product"])
def test_jet_domain_errors_name_the_expression(source, r_val, th_val):
    e = parse_expr(source, POLAR_SYMS)
    compiled = compile_exprs([e], POLAR_SYMS)
    with pytest.raises(DomainError, match=re.escape(to_source(e))):
        compiled.jets((np.array([r_val]), np.array([th_val])), UNIT)


def test_compiled_deep_trees_agree_with_evaluate():
    # deep chains and nests run on the tape like any other tree
    chain = parse_expr("-r" + "+theta-theta" * 150, POLAR_SYMS)
    nested = Sym(R)
    for _ in range(300):
        nested = Call("sin", nested)
    compiled = compile_exprs([chain, nested], POLAR_SYMS)
    r_vals, th_vals = np.array([0.5, 1.25, 2.0]), np.array([0.1, 0.7, 1.5])
    got = compiled(r_vals, th_vals)
    for k, (r_val, th_val) in enumerate(zip(r_vals, th_vals)):
        point = {"r": r_val, "theta": th_val}
        # arithmetic only: same operations, same bits
        assert got[0, k] == evaluate_tree(chain, point)
        assert got[1, k] == pytest.approx(evaluate_tree(nested, point), rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# shared subtrees: every walk visits each distinct node once

DOUBLINGS = 40


def _doubling_dag(leaf, k=DOUBLINGS):
    """e_0 = leaf, e_{j+1} = e_j*e_j + leaf: 2k distinct composite nodes
    with 4k child references, but 2^k copies of e_0 as a printed tree."""
    e = leaf
    for _ in range(k):
        e = Add(Mul(e, e), leaf)
    return e


def _count_calls(monkeypatch, name):
    """Count the calls of expr.<name>; the walks recurse through the module
    name, so every level is counted.  A walk that revisits shared subtrees
    stops at once instead of running 2^DOUBLINGS steps."""
    original = getattr(expr_module, name)
    calls = []

    def counted(*args):
        calls.append(args[0])
        if len(calls) > 100 * DOUBLINGS:
            raise AssertionError(f"expr.{name} revisits shared subtrees")
        return original(*args)

    monkeypatch.setattr(expr_module, name, counted)
    return calls


def _count_rules(monkeypatch):
    """Count the nodes the fold expands: the calls of the per-kind rules in
    expr._RULES, one per composite node whose children were folded."""
    expanded = []
    for kind, rule in list(expr_module._RULES.items()):
        def counted(e, a, b, _rule=rule):
            expanded.append(e)
            if len(expanded) > 100 * DOUBLINGS:
                raise AssertionError("the fold expands shared subtrees again")
            return _rule(e, a, b)

        monkeypatch.setitem(expr_module._RULES, kind, counted)
    return expanded


# one call at the root plus one per child reference; each distinct node is expanded once
WALK_CALLS = 1 + 4 * DOUBLINGS
EXPANSIONS = 2 * DOUBLINGS
# the fold folds leaves in place: one call at the root plus one per reference
# to a composite child (each Add holds its Mul, each Mul but the first two e_j)
FOLD_CALLS = 1 + DOUBLINGS + 2 * (DOUBLINGS - 1)


def _expanded_once(expanded):
    return len({id(e) for e in expanded}) == len(expanded) == EXPANSIONS


def test_simplify_walks_each_distinct_node_once(monkeypatch):
    dag = _doubling_dag(Sym(R))
    calls, expanded = _count_calls(monkeypatch, "_fold"), _count_rules(monkeypatch)
    assert simplify(dag) is dag  # nothing folds, so the DAG comes back as it is
    assert len(calls) == FOLD_CALLS and _expanded_once(expanded)


def test_substitute_walks_each_distinct_node_once(monkeypatch):
    x1 = component_symbols(1)[0]
    dag = _doubling_dag(Sym(x1))
    calls, expanded = _count_calls(monkeypatch, "_fold"), _count_rules(monkeypatch)
    out = substitute(dag, {x1: Sym(R)})
    # and one call for the binding, folded once up front
    assert len(calls) == FOLD_CALLS + 1 and _expanded_once(expanded)
    monkeypatch.undo()
    assert out.right == Sym(R) and out.left.left is out.left.right  # the result shares as the input
    assert free_symbols(out) == {R}


@pytest.mark.parametrize("product", [
    lambda dag: Mul(dag, Const(0.0)),
    lambda dag: Mul(Const(-0.0), dag),
    lambda dag: Mul(Sub(Sym(THETA), Sym(THETA)), dag),  # the left factor folds to 0
], ids=["raw-right-zero", "raw-left-zero", "left-folds-to-zero"])
def test_fold_never_expands_a_subtree_times_zero(monkeypatch, product):
    dag = _doubling_dag(Sym(R))
    e = product(dag)
    calls, expanded = _count_calls(monkeypatch, "_fold"), _count_rules(monkeypatch)
    assert simplify(e) is ZERO
    assert not any(node is dag or node is dag.left for node in expanded)
    assert len(expanded) == (1 if type(e.left) is Sub else 0)
    assert len(calls) == 1 + len(expanded)


def test_differentiate_walks_each_distinct_node_once(monkeypatch):
    dag = _doubling_dag(Sym(R))
    calls, expanded = _count_calls(monkeypatch, "_diff"), _count_calls(monkeypatch, "_derivative")
    derivative = differentiate(dag, R)
    assert (len(calls), len(expanded)) == (WALK_CALLS, EXPANSIONS)
    monkeypatch.undo()
    # z -> z*z + x and its derivative dz -> (dz*z + z*dz) + 1, the same operations in numpy
    x = np.linspace(-1.0, 0.25, 11)
    z, dz = x.copy(), np.ones_like(x)
    for _ in range(DOUBLINGS):
        z, dz = z * z + x, (dz * z + z * dz) + 1.0
    got = compile_exprs([dag, derivative], [R])(x)
    assert np.array_equal(got[0], z) and np.array_equal(got[1], dz)


def test_free_symbols_visits_each_distinct_node_once(monkeypatch):
    dag = _doubling_dag(Sym(R)) * Sym(THETA)
    expanded = _count_calls(monkeypatch, "_children")
    assert free_symbols(dag) == {R, THETA}
    assert len(expanded) == EXPANSIONS + 1


def _count_ufunc_calls(monkeypatch):
    """Count the numpy operations that compiled callables run.
    compile_exprs binds np.add, np.sin, ... as it builds, so callables
    compiled after this call count every operation they apply."""
    calls = []
    for name in ("add", "subtract", "multiply", "divide", "power", "negative", *FUNCTIONS):
        def counted(*args, _ufunc=getattr(np, name)):
            calls.append(_ufunc)
            return _ufunc(*args)

        monkeypatch.setattr(np, name, counted)
    return calls


def test_evaluate_walks_each_distinct_node_once(monkeypatch):
    dag = _doubling_dag(Sym(R))
    calls = _count_ufunc_calls(monkeypatch)
    value = evaluate(dag, {R: 0.2})
    assert len(calls) == EXPANSIONS  # one tape operation per distinct composite node
    z = 0.2
    for _ in range(DOUBLINGS):
        z = z * z + 0.2
    assert value == z


def test_compiled_runs_each_distinct_node_once(monkeypatch):
    dag = _doubling_dag(Sym(R))
    x = np.linspace(-1.0, 0.25, 11)
    calls = _count_ufunc_calls(monkeypatch)
    one = compile_exprs([dag], [R])
    three = compile_exprs([dag, dag * dag, Call("sin", dag)], [R])
    assert calls == []
    got = one(x)
    assert len(calls) == EXPANSIONS
    calls.clear()
    # a subtree shared across expressions is computed once too
    got_three = three(x)
    assert len(calls) == EXPANSIONS + 2
    monkeypatch.undo()
    z = x.copy()
    for _ in range(DOUBLINGS):
        z = z * z + x
    assert np.array_equal(got[0], z)
    assert np.array_equal(got_three, np.stack([z, z * z, np.sin(z)]))


def test_domain_error_names_the_first_expression_sharing_a_failing_subtree():
    failing = Call("log", Sub(Sym(THETA), Const(1.0)))
    exprs = [Sym(R) * Sym(R), Sym(R) + failing, failing * Sym(R)]
    compiled = compile_exprs(exprs, POLAR_SYMS)
    r_vals = np.array([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (np.array([2.0, 0.5]), 1.0):  # log of a negative number, then of zero
            with pytest.raises(DomainError, match="^" + re.escape(to_source(exprs[1]) + " is undefined")):
                compiled(r_vals, theta)
    # where every expression is defined, the shared subtree gives each row its own values
    theta = np.array([2.0, 3.5])
    alone = [compile_exprs([e], POLAR_SYMS)(r_vals, theta)[0] for e in exprs]
    assert np.array_equal(compiled(r_vals, theta), np.stack(alone))


def test_compiled_takes_one_value_per_symbol():
    compiled = compile_exprs([Sym(R) + 1.0], POLAR_SYMS)
    for vals in ((1.0,), (1.0, 2.0, 3.0)):
        with pytest.raises(TypeError):
            compiled(*vals)


def test_compiled_deep_chain_runs_within_a_few_stack_frames():
    links = 10_000
    chain = Sym(R)
    for _ in range(links):
        chain = Add(Mul(Const(0.5), chain), Sym(THETA))  # two levels per link
    r_vals, th_vals = np.array([0.5, 1.25, 2.0]), np.array([0.1, 0.7, 1.5])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        got = compile_exprs([chain], POLAR_SYMS)(r_vals, th_vals)
    finally:
        sys.setrecursionlimit(limit)
    z = r_vals.copy()
    for _ in range(links):
        z = 0.5 * z + th_vals
    assert np.array_equal(got[0], z)


def _within_frames(levels, fn, *args):
    """``fn(*args)`` allowed at most ``levels`` stack frames above the caller's."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + levels)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


# a chain of MAX_DEPTH - 1 nodes of one kind over the leaf x: MAX_DEPTH levels
_CHAINS = {
    "sum": lambda x: Add(x, Sym(THETA)),
    "difference": lambda x: Sub(Sym(THETA), x),
    "product": lambda x: Mul(x, Sym(R)),
    "quotient": lambda x: Div(x, Sym(R)),
    "power": lambda x: Pow(x, Const(-1.0)),
    "negation": Neg,
    "call": lambda x: Call("sin", x),
}
FRAME_SLACK = 20  # the public call, the memo's array loop, a rule and a node constructor


@pytest.mark.parametrize("kind", _CHAINS)
def test_every_walk_takes_one_stack_frame_per_level(kind):
    x1 = component_symbols(1)[0]
    chain = Sym(x1)
    for _ in range(MAX_DEPTH - 1):
        chain = _CHAINS[kind](chain)
    assert _depth(chain) == MAX_DEPTH
    levels = MAX_DEPTH + FRAME_SLACK
    bound = _within_frames(levels, substitute, chain, {x1: Sym(R)})
    _within_frames(levels, simplify, chain)
    derivative = _within_frames(levels, differentiate, bound, R)
    # frame derivatives differentiate and fold in one walk of the input
    identity = np.array([[Const(1.0), Const(0.0)], [Const(0.0), Const(1.0)]], dtype=object)
    _within_frames(levels, directional_derivatives, bound, POLAR_SYMS, identity)
    # derived trees are deeper than their inputs; the fold still takes one frame a level
    folded = _within_frames(_depth(derivative) + FRAME_SLACK, simplify, derivative)
    compiled = _within_frames(FRAME_SLACK, compile_exprs, [bound, folded], POLAR_SYMS)
    assert compiled(np.array([0.5, 1.5]), np.array([0.25, 0.5])).shape == (2, 2)


def test_compiled_run_holds_only_live_values():
    # 400 terms on 4,096 points: an array kept for each of the 1,200 nodes
    # would hold about 40 MB; each one is dropped after its last read
    total = Const(0.0)
    for k in range(400):
        total = total + Call("sin", Sym(R) * Const(1.0 + k * 1e-3))
    compiled = compile_exprs([total, total * Sym(R)], [R])
    x = np.linspace(0.0, 1.0, 4096)
    tracemalloc.start()
    try:
        got = compiled(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    want = sum(np.sin(x * (1.0 + k * 1e-3)) for k in range(400))
    assert np.array_equal(got, np.stack([want, want * x]))


@st.composite
def _shared_trees(draw):
    """Trees whose nodes reuse earlier nodes as children, so subtrees occur
    many times as one object."""
    nodes = draw(st.lists(_leaf, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 10))):
        a, b = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        nodes.append(draw(st.sampled_from([
            Add(a, b), Sub(a, b), Mul(a, b), Mul(a, a), Div(a, Add(Mul(b, b), Const(1.0))),
            Neg(a), Call("sin", a), Call("exp", Call("cos", a)), Pow(a, Const(2.0)),
        ])))
    return nodes[-1]


@settings(max_examples=150, derandomize=True)
@given(_shared_trees())
def test_compiled_shared_trees_equal_their_unshared_reparse(tree):
    unshared = parse_expr(to_source(tree), POLAR_SYMS)
    points = (np.array([0.5, 1.0, 2.0]), np.array([0.1, 0.7, 1.5]))
    try:
        expected = compile_exprs([unshared], POLAR_SYMS)(*points)
    except DomainError:
        with pytest.raises(DomainError):
            compile_exprs([tree], POLAR_SYMS)(*points)
        return
    assert np.array_equal(compile_exprs([tree], POLAR_SYMS)(*points), expected)


def test_compiled_doubling_dag_equals_its_unshared_reparse():
    dag = _doubling_dag(Sym(R), k=8)
    unshared = parse_expr(to_source(dag), POLAR_SYMS)
    x = np.linspace(-1.0, 0.25, 11)
    assert np.array_equal(compile_exprs([dag], [R])(x), compile_exprs([unshared], [R])(x))


# ---------------------------------------------------------------------------
# node semantics: slot records that behave as the frozen dataclasses they replaced


FIELDS = {Symbol: ("name", "kind"), Const: ("value",), Sym: ("symbol",), Neg: ("arg",),
          Call: ("func", "arg"), Pow: ("base", "exponent"), Add: ("left", "right"),
          Sub: ("left", "right"), Mul: ("left", "right"), Div: ("left", "right")}


def _sample_nodes():
    tree = parse_expr("sin(r)^2 - -theta/r + -(2*r)", POLAR_SYMS)
    return [tree, R, Const(-0.0), Sym(THETA), Neg(Sym(R)), Call("exp", Const(1.5)),
            Pow(Sym(R), Const(3.0)), Add(Sym(R), Sym(THETA)), Sub(Sym(R), Sym(THETA)),
            Mul(Sym(R), Sym(THETA)), Div(Sym(R), Sym(THETA))]


def test_nodes_and_symbols_carry_no_dict_and_reject_writes():
    for node in _sample_nodes():
        assert not hasattr(node, "__dict__")
        field = FIELDS[type(node)][0]
        with pytest.raises(AttributeError):
            setattr(node, field, Const(1.0))
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = 1


def test_node_repr_eq_and_hash_match_the_dataclass_forms():
    tree = parse_expr("sin(r)^2 - -theta/r + -(2*r)", POLAR_SYMS)
    assert repr(tree) == (
        "Add(left=Sub(left=Pow(base=Call(func='sin', arg=Sym(r)), exponent=Const(2.0)), "
        "right=Div(left=Neg(arg=Sym(theta)), right=Sym(r))), "
        "right=Neg(arg=Mul(left=Const(2.0), right=Sym(r))))"
    )
    assert repr(R) == "Symbol(name='r', kind='coordinate')"
    # equal class and equal fields: a second parse is equal, with the same hash
    again = parse_expr("sin(r)^2 - -theta/r + -(2*r)", POLAR_SYMS)
    assert again is not tree and again == tree and hash(again) == hash(tree)
    for node in _sample_nodes():
        assert hash(node) == hash(tuple(getattr(node, f) for f in FIELDS[type(node)]))
    assert Const(-0.0) == Const(0.0) and hash(Const(-0.0)) == hash(Const(0.0))
    # the hash ignores the class, equality does not
    add, sub = Add(Sym(R), Sym(THETA)), Sub(Sym(R), Sym(THETA))
    assert hash(add) == hash(sub) and add != sub
    assert Const(1.0) != 1.0 and Symbol("r") == R and Symbol("r", "other") != R


def test_const_coerces_to_a_finite_float_and_call_checks_its_name():
    assert type(Const(2).value) is float and Const("1.5").value == 1.5
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Const(bad)
    with pytest.raises(ValueError, match="unknown function 'asin'"):
        Call("asin", Sym(R))


def test_symbol_repr_in_a_frame_error():
    from normframes.geometry import Chart, FrameField

    x1 = component_symbols(1)[0]
    chart = Chart(("r",), ((1.0, 2.0),))
    with pytest.raises(ValueError) as err:
        FrameField(chart, [[Sym(x1)]])
    assert str(err.value) == (
        "frame entries must be coordinate-only, found [Symbol(name='X1', kind='vector-component')]"
    )
