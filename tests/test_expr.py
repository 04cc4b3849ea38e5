"""Expression layer: grammar, calculus, evaluation, substitution."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normframes.expr import (
    Add,
    Call,
    Const,
    Div,
    DomainError,
    ExprSyntaxError,
    MissingSymbolError,
    Mul,
    Neg,
    Pow,
    Sub,
    Sym,
    UnknownSymbolError,
    compile_exprs,
    component_symbols,
    coordinate_symbols,
    differentiate,
    evaluate,
    frame_derivative_symbol,
    parse_expr,
    simplify,
    substitute,
    to_source,
)

R, THETA = coordinate_symbols(("r", "theta"))
POLAR_SYMS = (R, THETA)


# ---------------------------------------------------------------------------
# parsing


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
    compiled = compile_exprs([tree], POLAR_SYMS)
    try:
        expected = evaluate(tree, {"r": r_val, "theta": th_val})
    except DomainError:
        with pytest.raises(DomainError):
            compiled(r_val, th_val)
        with pytest.raises(DomainError):
            compiled(np.array([r_val, 1.0]), np.array([th_val, 0.5]))
        return
    try:
        got = compiled(np.array([r_val]), th_val)
    except DomainError:
        return  # stricter is allowed: an intermediate overflow that evaluate absorbs
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - expected) <= 1e-9 * (1.0 + abs(expected))
    assert compiled(r_val, th_val)[0] == pytest.approx(got[0, 0], rel=1e-15, abs=0.0)
