"""The one rewrite walk: ``simplify`` and ``substitute`` are each a single
``_fold`` pass, and the walks memoise shared subtrees without changing a tree.

The reference code below is the former form: ``ref_subst`` rebuilt the
tree around the bound values without folding, and ``ref_simplify`` repeated
fold passes until one changed nothing.  Trees are compared by ``repr``, not
``==``: ``Const(-0.0) == Const(0.0)``, so ``==`` cannot see a flipped zero
sign, and a flipped sign shows in report tables.

``ref_fold`` and ``ref_diff`` are the walks without a memo: every copy of a
shared subtree is folded or differentiated again.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normframes.cli import load_manifold_spec
from normframes.curvature import _probe_pairs
from normframes.derivation import w_of
from normframes.expr import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Pow,
    Sub,
    Sym,
    _fold,
    component_symbols,
    coordinate_symbols,
    differentiate,
    directional_derivatives,
    frame_derivative_symbol,
    simplify,
    substitute,
)

from reference import fold_oracle, rewrite_oracle

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted((ROOT / "demos" / "specs").glob("*.json")) + sorted(
    (ROOT / "benchmarks" / "specs").glob("*.json")
)

R, THETA = coordinate_symbols(("r", "theta"))
PLACEHOLDERS = component_symbols(2) + (frame_derivative_symbol(1, 2), frame_derivative_symbol(2, 1))


def ref_subst(e, bindings):
    """The bound symbols replaced, nothing folded; a subtree with nothing to
    bind is returned as the same object."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Sym):
        return bindings.get(e.symbol, e)
    if isinstance(e, (Neg, Call)):
        arg = ref_subst(e.arg, bindings)
        if arg is e.arg:
            return e
        return Neg(arg) if isinstance(e, Neg) else Call(e.func, arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        left, right = ref_subst(e.left, bindings), ref_subst(e.right, bindings)
        return e if left is e.left and right is e.right else type(e)(left, right)
    base, expo = ref_subst(e.base, bindings), ref_subst(e.exponent, bindings)
    return e if base is e.base and expo is e.exponent else Pow(base, expo)


def ref_simplify(e):
    """Fold passes until one changes nothing."""
    for _ in range(1000):
        nxt = _fold(e, {}, {})
        if nxt is e:
            return e
        e = nxt
    raise AssertionError("no fixed point after 1000 fold passes")


def ref_fold(e):
    """One fold pass, without a memo."""
    if isinstance(e, (Const, Sym)):
        return e
    if isinstance(e, (Neg, Call)):
        return rewrite_oracle(e, ref_fold(e.arg), None)
    if isinstance(e, Pow):
        return rewrite_oracle(e, ref_fold(e.base), ref_fold(e.exponent))
    return rewrite_oracle(e, ref_fold(e.left), ref_fold(e.right))


def ref_diff(e, s):
    """The derivative rules, recursing into every copy of a subtree."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Sym):
        return Const(1.0) if e.symbol == s else Const(0.0)
    if isinstance(e, Neg):
        return Neg(ref_diff(e.arg, s))
    if isinstance(e, Add):
        return Add(ref_diff(e.left, s), ref_diff(e.right, s))
    if isinstance(e, Sub):
        return Sub(ref_diff(e.left, s), ref_diff(e.right, s))
    if isinstance(e, Mul):
        return Add(Mul(ref_diff(e.left, s), e.right), Mul(e.left, ref_diff(e.right, s)))
    if isinstance(e, Div):
        num = Sub(Mul(ref_diff(e.left, s), e.right), Mul(e.left, ref_diff(e.right, s)))
        return Div(num, Pow(e.right, Const(2.0)))
    if isinstance(e, Pow):
        base, expo = e.base, e.exponent
        if isinstance(expo, Const):
            return Mul(Mul(expo, Pow(base, Const(expo.value - 1.0))), ref_diff(base, s))
        du, dv = ref_diff(base, s), ref_diff(expo, s)
        return Mul(e, Add(Mul(dv, Call("log", base)), Mul(expo, Div(du, base))))
    u = e.arg
    outer = {
        "sin": Call("cos", u),
        "cos": Neg(Call("sin", u)),
        "tan": Div(Const(1.0), Pow(Call("cos", u), Const(2.0))),
        "exp": Call("exp", u),
        "log": Div(Const(1.0), u),
        "sqrt": Div(Const(1.0), Mul(Const(2.0), Call("sqrt", u))),
        "sinh": Call("cosh", u),
        "cosh": Call("sinh", u),
    }[e.func]
    return Mul(outer, ref_diff(u, s))


def assert_same_tree(got, want):
    assert repr(got) == repr(want)


_constants = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0]).map(Const)
_coordinates = st.sampled_from([Sym(R), Sym(THETA)])


def _extend(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, children),
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
        # the structural cancellations x-x, x+(-x) and (-x)+x
        children.map(lambda a: Sub(a, a)),
        children.map(lambda a: Add(a, Neg(a))),
        children.map(lambda a: Add(Neg(a), a)),
    )


_coordinate_trees = st.recursive(st.one_of(_constants, _coordinates), _extend, max_leaves=12)
_templates = st.recursive(
    st.one_of(_constants, _coordinates, st.sampled_from([Sym(s) for s in PLACEHOLDERS])),
    _extend,
    max_leaves=16,
)
_bindings = st.dictionaries(st.sampled_from(PLACEHOLDERS), _coordinate_trees)


@settings(max_examples=300, derandomize=True)
@given(_templates)
def test_one_pass_is_the_fixed_point(tree):
    once = simplify(tree)
    assert_same_tree(once, ref_simplify(tree))
    assert simplify(once) is once


@settings(max_examples=300, derandomize=True)
@given(_templates, _bindings)
def test_substitute_folds_as_it_binds(template, bindings):
    assert_same_tree(substitute(template, bindings), ref_simplify(ref_subst(template, bindings)))


@st.composite
def _shared(draw, leaves):
    """Trees whose nodes reuse earlier nodes as children, so subtrees occur
    many times as one object."""
    nodes = draw(st.lists(leaves, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 10))):
        a, b = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        kind = draw(st.sampled_from([Add, Sub, Mul, Div, Pow, Neg, Call, "x-x", "x+(-x)"]))
        if kind is Call:
            node = Call(draw(st.sampled_from(FUNCTIONS)), a)
        elif kind is Neg:
            node = Neg(a)
        elif kind == "x-x":
            node = Sub(a, a)
        elif kind == "x+(-x)":
            node = Add(a, Neg(a))
        else:
            node = kind(a, b)
        nodes.append(node)
    return nodes[-1]


_shared_coordinate_trees = _shared(st.one_of(_constants, _coordinates))
_shared_templates = _shared(
    st.one_of(_constants, _coordinates, st.sampled_from([Sym(s) for s in PLACEHOLDERS]))
)


@settings(max_examples=300, derandomize=True)
@given(_shared_coordinate_trees)
def test_differentiate_shared_trees_as_without_memo(tree):
    assert_same_tree(differentiate(tree, R), ref_diff(tree, R))
    assert_same_tree(differentiate(tree, THETA), ref_diff(tree, THETA))


@settings(max_examples=300, derandomize=True)
@given(_shared_templates, _bindings)
def test_fold_shared_trees_as_without_memo(template, bindings):
    assert_same_tree(simplify(template), ref_fold(template))
    assert_same_tree(substitute(template, bindings), ref_fold(ref_subst(template, bindings)))


def test_memo_shares_results_between_array_entries():
    shared = Mul(Add(Sym(R), Const(0.0)), Sym(THETA))
    entries = np.array([Neg(shared), Call("sin", shared)], dtype=object)
    folded = simplify(entries)
    assert folded[0].arg is folded[1].arg  # one fold for the subtree both entries hold
    derivative = differentiate(entries, R)
    assert derivative[0].arg is derivative[1].right


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: f"{p.parent.parent.name}/{p.stem}")
def test_w_templates_instantiate_as_before(path):
    deriv = load_manifold_spec(str(path)).deriv
    frame = deriv.frame
    template = deriv.w_template
    for x in [f for pair in _probe_pairs(frame, 42) for f in pair]:
        bindings = dict(zip(component_symbols(frame.dimension), x.components))
        for s, i, j in deriv.template_derivatives:
            bindings[s] = frame.frame_derivative(j, x.components[i])
        got = w_of(deriv, x).components
        for idx in np.ndindex(template.shape):
            assert_same_tree(got[idx], ref_simplify(ref_subst(template[idx], bindings)))


# ---------------------------------------------------------------------------
# the fold against its former walk (reference.fold_oracle) on shared DAGs

_SIGNED_CONSTANTS = [Const(0.0), Const(-0.0), Const(1.0), Const(-1.0), Const(2.0), Const(0.5)]


@st.composite
def _dags(draw, leaves):
    """A DAG grown from a pool: each new node takes its children from the
    nodes made so far, so subtrees are shared many times.  Beside every
    node kind it makes Neg chains, the cancellations x-x and x+(-x), and
    zero factors, raw or folded, over the largest node so far."""
    nodes = draw(st.lists(leaves, min_size=2, max_size=6))
    for _ in range(draw(st.integers(4, 24))):
        a, b = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        big = nodes[-1]
        shape = draw(st.sampled_from([Add, Sub, Mul, Div, Pow, Neg, Call, "--x", "x-x", "x+(-x)",
                                      "(-x)+x", "big*0", "0*big", "(x-x)*big", "big*(x-x)"]))
        if shape is Call:
            node = Call(draw(st.sampled_from(FUNCTIONS)), a)
        elif shape is Neg:
            node = Neg(a)
        elif shape == "--x":
            node = Neg(Neg(a))
        elif shape == "x-x":
            node = Sub(a, a)
        elif shape == "x+(-x)":
            node = Add(a, Neg(a))
        elif shape == "(-x)+x":
            node = Add(Neg(a), a)
        elif shape == "big*0":
            node = Mul(big, draw(st.sampled_from([Const(0.0), Const(-0.0)])))
        elif shape == "0*big":
            node = Mul(draw(st.sampled_from([Const(0.0), Const(-0.0)])), big)
        elif shape == "(x-x)*big":
            node = Mul(Sub(a, a), big)
        elif shape == "big*(x-x)":
            node = Mul(big, Sub(a, a))
        else:
            node = shape(a, b)
        nodes.append(node)
    return nodes[-1]


_dag_coordinate_trees = _dags(st.one_of(st.sampled_from(_SIGNED_CONSTANTS), _coordinates))
_dag_templates = _dags(st.one_of(st.sampled_from(_SIGNED_CONSTANTS), _coordinates,
                                 st.sampled_from([Sym(s) for s in PLACEHOLDERS])))
_dag_bindings = st.dictionaries(st.sampled_from(PLACEHOLDERS), _dag_coordinate_trees)


def assert_fold_matches_oracle(got, want, source):
    assert got == want
    assert_same_tree(got, want)  # and the same sign on every zero
    if want is source:
        assert got is source  # nothing folded: the input itself, still shared


@settings(max_examples=400, derandomize=True)
@given(_dag_templates)
def test_simplify_matches_the_former_fold(tree):
    assert_fold_matches_oracle(simplify(tree), fold_oracle(tree, {}, {}), tree)


@settings(max_examples=400, derandomize=True)
@given(_dag_templates, _dag_bindings)
def test_substitute_matches_the_former_fold(template, bindings):
    memo: dict = {}
    folded = {key: fold_oracle(val, {}, memo) for key, val in bindings.items()}
    want = fold_oracle(template, folded, memo)
    assert_fold_matches_oracle(substitute(template, bindings), want, template)


@settings(max_examples=200, derandomize=True)
@given(st.lists(_dag_templates, min_size=2, max_size=4))
def test_simplify_of_an_array_matches_the_former_fold_entry_by_entry(trees):
    entries = np.empty(len(trees), dtype=object)
    entries[:] = trees
    memo: dict = {}
    got = simplify(entries)
    for tree, out in zip(trees, got):
        assert_fold_matches_oracle(out, fold_oracle(tree, {}, memo), tree)


# every node kind over every pair of children from a pool of leaves and
# small folded or foldable trees, including constants that overflow together
_X1 = PLACEHOLDERS[0]
_POOL = [*_SIGNED_CONSTANTS, Const(-2.0), Const(1e308), Sym(R), Sym(THETA), Sym(_X1),
         Neg(Sym(R)), Neg(Sym(_X1)), Sub(Sym(R), Sym(R)), Add(Sym(R), Neg(Sym(R))),
         Mul(Sym(R), Const(0.0)), Pow(Sym(R), Const(2.0)), Call("sin", Sym(R)),
         Div(Const(1.0), Const(0.0)), Add(Sym(_X1), Const(0.0))]
_ONE_NODE = ([kind(a, b) for kind in (Add, Sub, Mul, Div, Pow) for a in _POOL for b in _POOL]
             + [Neg(a) for a in _POOL] + [Call(name, a) for name in FUNCTIONS for a in _POOL])


def test_every_rule_matches_the_former_fold_on_every_pair_of_children():
    bindings = {_X1: Sub(Sym(THETA), Const(0.0))}
    for tree in _ONE_NODE:
        assert_fold_matches_oracle(simplify(tree), fold_oracle(tree, {}, {}), tree)
        memo: dict = {}
        folded = {key: fold_oracle(val, {}, memo) for key, val in bindings.items()}
        want = fold_oracle(tree, folded, memo)
        assert_fold_matches_oracle(substitute(tree, bindings), want, tree)


# ---------------------------------------------------------------------------
# frame derivatives folded as they are built, against the raw partials folded


def sharing(entries):
    """The DAG under ``entries`` up to renaming: each distinct node numbered
    in first-visit order, with its kind, field values and child numbers.
    Constants count by object, as the tape gives each its own register;
    symbols count by name, as the tape reads them."""
    numbers, out = {}, []

    def visit(e):
        if isinstance(e, Sym):
            return e.symbol.name
        if id(e) not in numbers:
            if isinstance(e, Const):
                fields = (repr(e.value),)
            else:
                fields = tuple(visit(c) if isinstance(c, Expr) else c
                               for c in (getattr(e, name) for name in e._fields))
            numbers[id(e)] = len(numbers)
            out.append((type(e).__name__, fields))
        return numbers[id(e)]

    return [visit(e) for e in np.asarray(entries, dtype=object).flat], out


def raw_directional_derivatives(e, symbols, matrix):
    """The sums over the raw partials of differentiate, simplified once."""
    partials = [differentiate(e, s) for s in symbols]
    return simplify(np.stack([np.asarray(sum(matrix[a, i] * p for a, p in enumerate(partials)),
                                         dtype=object) for i in range(matrix.shape[1])]))


_frame_entries = st.one_of(st.sampled_from([Const(0.0), Const(-0.0), Const(1.0), Const(2.0)]),
                           _dag_coordinate_trees)


@settings(max_examples=300, derandomize=True)
@given(st.lists(_dag_coordinate_trees, min_size=1, max_size=3),
       st.lists(_frame_entries, min_size=4, max_size=4))
def test_directional_derivatives_build_the_trees_of_the_raw_partials(trees, entries):
    f = np.empty(len(trees), dtype=object)
    f[:] = trees
    matrix = np.array(entries, dtype=object).reshape(2, 2)
    got = directional_derivatives(f, (R, THETA), matrix)
    want = raw_directional_derivatives(f, (R, THETA), matrix)
    assert got.shape == want.shape == (2, len(trees))
    assert sharing(got) == sharing(want)


@pytest.mark.parametrize("f", [
    Pow(Neg(Const(0.0)), Sym(R)),  # Neg's zero derivative is -0.0, which a quotient keeps
    Div(Const(1.0), Sub(Sym(THETA), Sym(THETA))),  # 0/0 stays a quotient
    Pow(Sub(Sym(THETA), Sym(THETA)), Sym(THETA)),  # so does u^v's
    Add(Neg(Sym(THETA)), Neg(Const(0.0))),
], ids=["neg-zero-base", "zero-quotient", "zero-power", "neg-zero-sum"])
def test_directional_derivatives_keep_what_a_zero_derivative_folds_to(f):
    matrix = np.array([[Const(1.0), Const(0.0)], [Sym(R), Const(1.0)]], dtype=object)
    got = directional_derivatives(f, (R, THETA), matrix)
    assert sharing(got) == sharing(raw_directional_derivatives(f, (R, THETA), matrix))
