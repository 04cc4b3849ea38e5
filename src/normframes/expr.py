"""Symbolic expression DSL: parsing, differentiation, evaluation, substitution.

Every component function in this library (frame matrices, connection
coefficients, templates) is an :class:`Expr` over a declared set of
:class:`Symbol` objects.  Expressions are immutable trees that may share
subtrees: one node object can be a child of many parents.  Nodes are
``__slots__`` records without a per-instance ``__dict__``; two nodes are
``==`` when they have the same class and equal fields, as frozen dataclasses
would be.  Folding, differentiation, free symbols and compilation visit each
distinct node once; the first two through a memo keyed by node identity that
lives for one public call.  The fold applies one rule per node kind and skips
the other factor of a zero product; frame derivatives are folded as built.
Compilation lays the nodes out as one tape of numpy operations, generating no
Python source: the one numeric evaluator, at one point (:func:`evaluate`) as
on a point set, and in jet mode with first derivatives beside the values.  All operations are pure, so concurrent reads are safe.

Grammar (whitespace insignificant between tokens)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base
    base   := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")"
            | IDENT "[" INT "," INT "]" | "(" expr ")"

Unary minus binds looser than "^", so ``-r^2`` means ``-(r^2)``.  The
bracket form ``IDENT[i,j]`` is legal only for the ``dX`` identifier.
Negative number literals are folded into constants at parse time, which
keeps printing/parsing a bijection on trees built through the public
constructors.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import FrozenInstanceError
from typing import Iterable, Mapping, Union

import numpy as np

# Symbol kinds
COORDINATE = "coordinate"
VECTOR_COMPONENT = "vector-component"
FRAME_DERIVATIVE = "frame-derivative"

# The fixed function vocabulary.  Kept deliberately small: enough for the
# usual chart data (polar, sphere, exponential coefficients) while keeping
# differentiation total.
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")

_MATH_FUNCS = {name: getattr(math, name) for name in FUNCTIONS}
_SMALLEST_NORMAL = 2.0**-1022  # a fold of nonzero operands below it has underflowed


class ExprError(Exception):
    """Base class for all expression-layer errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UnknownSymbolError(ExprError):
    pass


class EvaluationError(ExprError):
    pass


class MissingSymbolError(EvaluationError):
    pass


class DomainError(EvaluationError):
    """Evaluation left the operation's domain (pole, log of non-positive, ...)."""


_set = object.__setattr__  # how a record's __init__ sets its fields


class _Record:
    """An immutable record of the fields named in ``_fields``, held in
    ``__slots__`` (no per-instance ``__dict__``) and set once by
    ``__init__``; assigning or deleting a field raises
    :class:`dataclasses.FrozenInstanceError`, an ``AttributeError``.
    ``==``, ``hash`` and ``repr`` are a frozen dataclass's: the same class
    and equal field tuples (so ``Const(-0.0) == Const(0.0)``), the hash of
    the field tuple, and ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Symbol(_Record):
    """A named leaf with a kind.

    Coordinate symbols come from a chart's declared coordinate list.
    Vector-component symbols are written ``X1..Xn``; frame-derivative
    symbols are written ``dX[i,j]`` and stand for the j-th frame vector
    applied to the i-th component of a vector field.
    """

    __slots__ = _fields = ("name", "kind")

    def __init__(self, name: str, kind: str = COORDINATE):
        _set(self, "name", name)
        _set(self, "kind", kind)

    def _values(self) -> tuple:
        # spelled out: symbols are hashed and compared in the hot walks
        # (binding lookups in _fold, _diff's leaf test), nodes are not
        return (self.name, self.kind)

    def __str__(self) -> str:
        return self.name


def coordinate_symbols(names: Iterable[str]) -> tuple[Symbol, ...]:
    return tuple(Symbol(name, COORDINATE) for name in names)


def component_symbols(n: int) -> tuple[Symbol, ...]:
    return tuple(Symbol(f"X{i}", VECTOR_COMPONENT) for i in range(1, n + 1))


def frame_derivative_symbol(i: int, j: int) -> Symbol:
    return Symbol(f"dX[{i},{j}]", FRAME_DERIVATIVE)


NumberLike = Union[int, float, "Expr"]


class Expr(_Record):
    """Base class of the expression tree.  Instances are immutable."""

    __slots__ = ()

    def _coerce(self, other: NumberLike) -> "Expr":
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, float)):
            return Const(float(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return Add(self, other) if other is not NotImplemented else NotImplemented

    def __radd__(self, other):
        other = self._coerce(other)
        return Add(other, self) if other is not NotImplemented else NotImplemented

    def __sub__(self, other):
        other = self._coerce(other)
        return Sub(self, other) if other is not NotImplemented else NotImplemented

    def __rsub__(self, other):
        other = self._coerce(other)
        return Sub(other, self) if other is not NotImplemented else NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        return Mul(self, other) if other is not NotImplemented else NotImplemented

    def __rmul__(self, other):
        other = self._coerce(other)
        return Mul(other, self) if other is not NotImplemented else NotImplemented

    def __truediv__(self, other):
        other = self._coerce(other)
        return Div(self, other) if other is not NotImplemented else NotImplemented

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return Div(other, self) if other is not NotImplemented else NotImplemented

    def __pow__(self, other):
        other = self._coerce(other)
        return Pow(self, other) if other is not NotImplemented else NotImplemented

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_source(self)


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("expression constants must be finite")
        _set(self, "value", value)

    def __repr__(self):
        return f"Const({self.value!r})"


class Sym(Expr):
    __slots__ = _fields = ("symbol",)

    def __init__(self, symbol: Symbol):
        _set(self, "symbol", symbol)

    def __repr__(self):
        return f"Sym({self.symbol.name})"


class Neg(Expr):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)


class _Binary(Expr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Call(Expr):
    __slots__ = _fields = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        _set(self, "func", func)
        _set(self, "arg", arg)


ZERO = Const(0.0)
ONE = Const(1.0)

_BINARY_OPS = frozenset((Add, Sub, Mul, Div))


def neg(e: Expr) -> Expr:
    """Negation, folding negated constants so printing stays a bijection."""
    if isinstance(e, Const):
        return Const(-e.value)
    return Neg(e)


def _make_call_builder(name):
    def build(arg: NumberLike) -> Call:
        if not isinstance(arg, Expr):
            arg = Const(float(arg))
        return Call(name, arg)

    build.__name__ = name
    build.__qualname__ = name
    build.__doc__ = f"Build a {name}(...) expression node."
    return build


sin = _make_call_builder("sin")
cos = _make_call_builder("cos")
tan = _make_call_builder("tan")
exp = _make_call_builder("exp")
log = _make_call_builder("log")
sqrt = _make_call_builder("sqrt")
sinh = _make_call_builder("sinh")
cosh = _make_call_builder("cosh")


def _children(e: Expr) -> tuple:
    kind = type(e)
    if kind in _BINARY_OPS:
        return (e.left, e.right)
    if kind is Neg or kind is Call:
        return (e.arg,)
    if kind is Pow:
        return (e.base, e.exponent)
    return ()


def free_symbols(e: Expr) -> frozenset[Symbol]:
    """The symbols ``e`` uses; each distinct node is visited once."""
    if isinstance(e, Sym):
        return frozenset((e.symbol,))
    out: set[Symbol] = set()
    seen: set[int] = set()
    stack = [e]
    while stack:
        for child in _children(stack.pop()):
            kind = type(child)
            if kind is Sym:
                out.add(child.symbol)
            elif kind is not Const and id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return frozenset(out)


def _depth(e: Expr) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursing."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in _children(node))
    return deepest


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[+\-*/^()\[\],])"
    r")"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            where = len(source) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {source[where]!r}", where)
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, symbols: Mapping[str, Symbol]):
        self.source = source
        self.symbols = symbols
        self.tokens = _tokenize(source)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(f"unexpected token {text or 'end of input'!r}", pos, (repr(op),))

    def parse(self) -> Expr:
        e = self.parse_expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing token {text!r}", pos, ("end of input",))
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_term()
                e = Add(e, rhs) if text == "+" else Sub(e, rhs)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_factor()
                e = Mul(e, rhs) if text == "*" else Div(e, rhs)
            else:
                return e

    def parse_factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            inner = self.parse_factor()
            return neg(inner) if isinstance(inner, Const) else Neg(inner)
        return self.parse_base()

    def parse_base(self) -> Expr:
        e = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(e, self.parse_factor())
        return e

    def parse_atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "number":
            return Const(float(text))
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise UnknownSymbolError(
                        f"unknown function {text!r} at position {pos}"
                    )
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(text, arg)
            if nxt_kind == "op" and nxt_text == "[":
                if text != "dX":
                    raise ExprSyntaxError(
                        f"bracket indices are only legal on 'dX', not {text!r}", pos
                    )
                self.advance()
                i = self._parse_int()
                self.expect_op(",")
                j = self._parse_int()
                self.expect_op("]")
                name = f"dX[{i},{j}]"
                symbol = self.symbols.get(name)
                if symbol is None:
                    raise UnknownSymbolError(
                        f"undeclared frame-derivative symbol {name!r} at position {pos}"
                    )
                return Sym(symbol)
            if text in FUNCTIONS:
                raise ExprSyntaxError(
                    f"function {text!r} needs an argument list", pos, ("'('",)
                )
            symbol = self.symbols.get(text)
            if symbol is None:
                raise UnknownSymbolError(f"unknown identifier {text!r} at position {pos}")
            return Sym(symbol)
        if kind == "op" and text == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            f"unexpected token {text or 'end of input'!r}",
            pos,
            ("number", "identifier", "'('", "'-'"),
        )

    def _parse_int(self) -> int:
        kind, text, pos = self.advance()
        if kind != "number" or not text.isdigit():
            raise ExprSyntaxError(f"expected integer index, got {text!r}", pos, ("integer",))
        return int(text)


# Longest root-to-leaf path, in nodes, that parse_expr accepts.  Folding,
# differentiation and printing recurse with one stack frame per level of any
# node kind (the fold's rules and its _same are leaf calls), and derived trees
# (W templates, frame derivatives, curvature) are a few levels deeper than
# their inputs.  Under the CLI, at Python's default recursion limit, a sum of
# terms first overflows at depth 984 in a template entry, 980 in a connection
# entry and 984 in a frame entry under `analyze` (982, 976 and 978 under
# `frame ... flat`).  Quotients are the exception: each derivative roughly
# triples their depth, so a connection entry of 330 terms `(2+x1)` joined by
# `/` overflows under `analyze` (328 under `frame ... flat`).
MAX_DEPTH = 400


def parse_expr(source: str, symbols: Iterable[Symbol] | Mapping[str, Symbol]) -> Expr:
    """Parse ``source`` against a declared symbol set.

    Every identifier must resolve to a declared symbol or to one of the
    known functions; anything else raises :class:`UnknownSymbolError`.
    Input that nests too deeply for the parser, or whose tree is deeper
    than ``MAX_DEPTH`` (400) nodes, raises :class:`ExprError`.
    """
    if not isinstance(source, str):
        raise ExprError(f"expression must be a string, not {type(source).__name__}")
    if isinstance(symbols, Mapping):
        table = dict(symbols)
    else:
        table = {s.name: s for s in symbols}
    try:
        tree = _Parser(source, table).parse()
    except RecursionError:
        raise ExprError("expression nests too deeply to parse") from None
    depth = _depth(tree)
    if depth > MAX_DEPTH:
        raise ExprError(f"expression tree depth {depth} exceeds the budget of {MAX_DEPTH}")
    return tree


# ---------------------------------------------------------------------------
# printing

# Precedence levels mirror the grammar: 0 expr, 1 term, 2 factor, 3 base, 4 atom.


def _level(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return 0
    if isinstance(e, (Mul, Div)):
        return 1
    if isinstance(e, Neg):
        return 2
    if isinstance(e, Pow):
        return 3
    if isinstance(e, Const) and e.value < 0:
        return 2  # prints with a leading minus, i.e. as a factor
    return 4


def _print(e: Expr, min_level: int) -> str:
    text = _print_bare(e)
    if _level(e) < min_level:
        return "(" + text + ")"
    return text


def _print_bare(e: Expr) -> str:
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + repr(-e.value)
        return repr(e.value)
    if isinstance(e, Sym):
        return e.symbol.name
    if isinstance(e, Neg):
        return "-" + _print(e.arg, 2)
    if isinstance(e, Add):
        return _print(e.left, 0) + "+" + _print(e.right, 1)
    if isinstance(e, Sub):
        return _print(e.left, 0) + "-" + _print(e.right, 1)
    if isinstance(e, Mul):
        return _print(e.left, 1) + "*" + _print(e.right, 2)
    if isinstance(e, Div):
        return _print(e.left, 1) + "/" + _print(e.right, 2)
    if isinstance(e, Pow):
        return _print(e.base, 4) + "^" + _print(e.exponent, 2)
    if isinstance(e, Call):
        return e.func + "(" + _print(e.arg, 0) + ")"
    raise TypeError(f"not an Expr: {e!r}")


def to_source(e: Expr) -> str:
    """Print ``e`` so that reparsing yields an identical tree."""
    return _print(e, 0)


# ---------------------------------------------------------------------------
# calculus


def differentiate(e, s: Symbol):
    """Partial derivative of ``e`` with respect to the coordinate symbol ``s``.

    ``e`` is an Expr or an object array of them, differentiated entry by
    entry; each distinct node is differentiated once per call.
    """
    if s.kind != COORDINATE:
        raise ValueError(f"can only differentiate along coordinate symbols, got {s.kind}")
    return _entrywise(_diff, e, s)


def _diff(e: Expr, s: Symbol, memo: dict, fold=None) -> Expr:
    """d e / d s, recorded in ``memo`` (node id -> derivative) so a subtree
    that occurs many times is differentiated once; its copies share the
    result.  With ``fold`` = (a fold memo, a list that keeps what it maps
    alive), each node's derivative is folded as soon as it is built, and is
    its own fold in that memo, so no fold walks it again."""
    kind = type(e)
    if kind is Const:
        return ZERO
    if kind is Sym:
        return ONE if e.symbol == s else ZERO
    key = id(e)
    out = memo.get(key)
    if out is None:
        if kind in _BINARY_OPS:
            da, db = _diff(e.left, s, memo, fold), _diff(e.right, s, memo, fold)
        elif kind is Neg or kind is Call:
            da, db = _diff(e.arg, s, memo, fold), None
        elif kind is Pow:
            da, db = _diff(e.base, s, memo, fold), _diff(e.exponent, s, memo, fold)
        else:
            raise TypeError(f"not an Expr: {e!r}")
        if fold is None:
            out = _derivative(e, da, db)
        # below zero derivatives these kinds' derivatives fold to ZERO; Neg's
        # folds to -0.0, and a quotient's or u^v's keeps a 0/0 where one occurs
        elif (da is ZERO and (db is ZERO or db is None) and kind is not Neg and kind is not Div
              and (kind is not Pow or type(e.exponent) is Const)):
            out = ZERO
        else:
            raw = _derivative(e, da, db)
            out = _fold(raw, {}, fold[0])
            fold[0][id(out)] = out
            fold[1].extend((raw, out))
        memo[key] = out
    return out


def _derivative(e: Expr, da: Expr, db) -> Expr:
    """The derivative of the composite node ``e``, given those of its
    children (``db`` is None for one child)."""
    if isinstance(e, Neg):
        return Neg(da)
    if isinstance(e, Add):
        return Add(da, db)
    if isinstance(e, Sub):
        return Sub(da, db)
    if isinstance(e, Mul):
        return Add(Mul(da, e.right), Mul(e.left, db))
    if isinstance(e, Div):
        num = Sub(Mul(da, e.right), Mul(e.left, db))
        return Div(num, Pow(e.right, Const(2.0)))
    if isinstance(e, Pow):
        base, expo = e.base, e.exponent
        if isinstance(expo, Const):
            return Mul(Mul(expo, Pow(base, Const(expo.value - 1.0))), da)
        # general u^v: u^v * (v' log u + v u'/u)
        return Mul(e, Add(Mul(db, Call("log", base)), Mul(expo, Div(da, base))))
    u = e.arg
    outer = {
        "sin": lambda: Call("cos", u),
        "cos": lambda: Neg(Call("sin", u)),
        "tan": lambda: Div(ONE, Pow(Call("cos", u), Const(2.0))),
        "exp": lambda: Call("exp", u),
        "log": lambda: Div(ONE, u),
        "sqrt": lambda: Div(ONE, Mul(Const(2.0), Call("sqrt", u))),
        "sinh": lambda: Call("cosh", u),
        "cosh": lambda: Call("sinh", u),
    }[e.func]()
    return Mul(outer, da)


# ---------------------------------------------------------------------------
# simplification

# Value-preserving rules only: constant folding plus the identity rules
# x+0, 0+x, x-0, 0-x, x*1, 1*x, x*0, 0*x, x/1, 0/x, x^1, x^0, --x,
# and structural cancellation x-x, x+(-x).  A constant fold whose IEEE
# result is not finite keeps its node, so the tape raises DomainError on it.
# No canonicalization and no trig rewriting: downstream verdicts are decided
# numerically at sample points, so a canonical form buys nothing and risks
# changing evaluation behavior.


def _same(a: Expr, b: Expr) -> bool:
    """``a == b``, the nodes' field-by-field equality, compared without
    recursing: the same node classes with ``Const`` values equal as floats
    (so -0.0 equals 0.0), the same symbols and function names, and
    identical subtrees skipped."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is Const:
            if a.value != b.value:
                return False
        elif kind is Sym:
            if a.symbol != b.symbol:
                return False
        elif kind is Call and a.func != b.func:
            return False
        else:
            stack.extend(zip(_children(a), _children(b)))
    return True


def _fold(e: Expr, bindings: Mapping[Symbol, Expr], memo: dict) -> Expr:
    """The one rewrite walk: a single bottom-up pass that replaces each bound
    symbol by its value (already folded) and applies the rules above.

    One pass is the fixed point.  Every rule returns a folded child, a
    constant, or a node whose children are folded and on which no rule fires;
    folding any of these again changes nothing.  Returns ``e`` itself when
    nothing changes anywhere in it, so such subtrees stay shared.  ``memo``
    (node id -> folded node) lives for one public call, so a subtree that
    occurs many times is folded once and its copies share the result.

    Each composite node is expanded by the rule of its kind in ``_RULES``;
    ``Const`` and ``Sym`` children are folded in place, without a call, so
    the walk takes one stack frame per tree level.  A product whose raw
    right factor is 0, or whose left factor folds to 0, is ``ZERO`` without
    folding the other factor, as the product rule would give."""
    kind = type(e)
    if kind is Const:
        return e
    if kind is Sym:
        return bindings.get(e.symbol, e) if bindings else e
    key = id(e)
    out = memo.get(key)
    if out is not None:
        return out
    if kind in _BINARY_OPS:
        a, b = e.left, e.right
    elif kind is Neg or kind is Call:
        a, b = e.arg, None
    elif kind is Pow:
        a, b = e.base, e.exponent
    else:
        raise TypeError(f"not an Expr: {e!r}")
    if kind is Mul and type(b) is Const and b.value == 0.0:
        out = ZERO
    else:
        child = type(a)
        if child is Sym:
            a = bindings.get(a.symbol, a) if bindings else a
        elif child is not Const:
            a = _fold(a, bindings, memo)
        if kind is Mul and type(a) is Const and a.value == 0.0:
            out = ZERO
        else:
            child = type(b)
            if child is Sym:
                b = bindings.get(b.symbol, b) if bindings else b
            elif child is not Const and b is not None:
                b = _fold(b, bindings, memo)
            out = _RULES[kind](e, a, b)
    memo[key] = out
    return out


# The rules at a composite node ``e`` whose children are already folded to
# ``a`` and ``b`` (None for one child); each returns ``e`` itself when its
# children did not change and no rule fires.


def _const_fold(fn, *values):
    """``Const(fn(*values))``, or None where the IEEE result is not finite or
    underflowed: 0 or subnormal from nonzero operands.  A sum or difference is
    exact there and a log is 0 only at 1, so ``1 - 1`` and ``log(1)`` fold to 0."""
    try:
        value = fn(*values)
    except (ValueError, OverflowError):
        return None
    if not math.isfinite(value):
        return None
    exact = fn in (operator.add, operator.sub, math.log)
    if abs(value) < _SMALLEST_NORMAL and all(values) and not exact:
        return None
    return Const(value)


def _fold_neg(e: Neg, a: Expr, _) -> Expr:
    kind = type(a)
    if kind is Const:
        return Const(-a.value)
    if kind is Neg:
        return a.arg
    return e if a is e.arg else Neg(a)


def _fold_add(e: Add, a: Expr, b: Expr) -> Expr:
    ka, kb = type(a), type(b)
    if ka is Const and a.value == 0.0:
        return b
    if kb is Const:
        if b.value == 0.0:
            return a
        if ka is Const and (c := _const_fold(operator.add, a.value, b.value)):
            return c
    if (kb is Neg and _same(b.arg, a)) or (ka is Neg and _same(a.arg, b)):
        return ZERO
    return e if a is e.left and b is e.right else Add(a, b)


def _fold_sub(e: Sub, a: Expr, b: Expr) -> Expr:
    ka, kb = type(a), type(b)
    if kb is Const and b.value == 0.0:
        return a
    if ka is Const:
        if a.value == 0.0:
            return b.arg if kb is Neg else neg(b)
        if kb is Const and (c := _const_fold(operator.sub, a.value, b.value)):
            return c
    if _same(a, b):
        return ZERO
    return e if a is e.left and b is e.right else Sub(a, b)


def _fold_mul(e: Mul, a: Expr, b: Expr) -> Expr:
    ka, kb = type(a), type(b)
    if (ka is Const and a.value == 0.0) or (kb is Const and b.value == 0.0):
        return ZERO
    if ka is Const and a.value == 1.0:
        return b
    if kb is Const:
        if b.value == 1.0:
            return a
        if ka is Const and (c := _const_fold(operator.mul, a.value, b.value)):
            return c
    return e if a is e.left and b is e.right else Mul(a, b)


def _fold_div(e: Div, a: Expr, b: Expr) -> Expr:
    ka, kb = type(a), type(b)
    if kb is Const and b.value == 1.0:
        return a
    if ka is Const and not (kb is Const and b.value == 0.0):
        if a.value == 0.0:
            return ZERO
        if kb is Const and (c := _const_fold(operator.truediv, a.value, b.value)):
            return c
    return e if a is e.left and b is e.right else Div(a, b)


def _fold_pow(e: Pow, base: Expr, expo: Expr) -> Expr:
    if type(expo) is Const:
        if expo.value == 1.0:
            return base
        if expo.value == 0.0:
            return ONE
        if type(base) is Const and (c := _const_fold(math.pow, base.value, expo.value)):
            return c
    return e if base is e.base and expo is e.exponent else Pow(base, expo)


def _fold_call(e: Call, a: Expr, _) -> Expr:
    if type(a) is Const and (c := _const_fold(_MATH_FUNCS[e.func], a.value)):
        return c
    return e if a is e.arg else Call(e.func, a)


_RULES = {Add: _fold_add, Sub: _fold_sub, Mul: _fold_mul, Div: _fold_div, Pow: _fold_pow,
          Neg: _fold_neg, Call: _fold_call}


def _entrywise(fn, e, arg, memo=None):
    """``fn(e, arg, memo)``, or, for an object array ``e``, ``fn`` applied
    entry by entry into an array of the same shape.  One memo (a new one
    unless given) serves every entry and is dropped on return.  A loop, not
    np.vectorize: numpy would report the IEEE flags that a failed constant
    fold (say sqrt(-1)) leaves set as RuntimeWarnings."""
    memo = {} if memo is None else memo
    if not isinstance(e, np.ndarray):
        return fn(e, arg, memo)
    out = np.empty(e.shape, dtype=object)
    for idx in np.ndindex(e.shape):
        out[idx] = fn(e[idx], arg, memo)
    return out


def simplify(e):
    """Rewrite to the fixed point of the folding rules: one :func:`_fold`
    pass with nothing bound.  Value-preserving.

    ``e`` is an Expr or an object array of them; an array is simplified
    entry by entry and keeps its shape.
    """
    return _entrywise(_fold, e, {})


def linear_combination(coefficients, items):
    """``0 + c1*x1 + c2*x2 + ...`` over the pairs whose coefficient is not a
    zero constant, unsimplified: the terms left out fold away.  When every
    coefficient is zero, ``0 * items[0]``, which folds to ZERO (an array of
    ZERO shaped like one item)."""
    terms = [c * x for c, x in zip(coefficients, items) if c != ZERO]
    return sum(terms) if terms else 0 * items[0]


def directional_derivatives(e, symbols, matrix) -> np.ndarray:
    """``simplify`` of ``sum_a matrix[a, i] * d e/d symbols[a]`` for each
    column i of ``matrix``, stacked along a new first axis: E_i(e) for the
    frame E_i = matrix[a, i] d/dx^a.  ``e`` is an Expr or an object array.

    The trees are those that simplifying the sums of :func:`differentiate`'s
    partials gives, built without the raw partials: each node's derivative
    is folded as soon as it is built, and a node whose children have the
    derivative ZERO gets ZERO, without a node built, wherever its
    derivative would fold to ZERO.  One fold memo serves the whole call."""
    for s in symbols:
        if s.kind != COORDINATE:
            raise ValueError(f"can only differentiate along coordinate symbols, got {s.kind}")
    fold = ({}, [])  # the fold memo, and what it maps by id, alive until the call returns
    partials = [_entrywise(lambda f, s, memo: _diff(f, s, memo, fold), e, s) for s in symbols]
    sums = [np.asarray(linear_combination(column, partials), dtype=object) for column in matrix.T]
    return _entrywise(_fold, np.stack(sums), {}, fold[0])


# ---------------------------------------------------------------------------
# substitution


def substitute(e, bindings: Mapping[Symbol, Expr]):
    """Replace vector-component / frame-derivative symbols by expressions
    and simplify the result, in the one :func:`_fold` pass.

    Bindings must map non-coordinate symbols to coordinate-only expressions;
    this is how W templates get instantiated at a concrete vector field.
    Each binding is folded once, however often its symbol occurs.  ``e`` is
    an Expr or an object array of them; an array is substituted entry by
    entry, with the bindings checked once.
    """
    for key, val in bindings.items():
        if key.kind == COORDINATE:
            raise ValueError(f"cannot bind coordinate symbol {key.name!r}")
        for free in free_symbols(val):
            if free.kind != COORDINATE:
                raise UnknownSymbolError(
                    f"binding for {key.name!r} introduces non-coordinate symbol {free.name!r}"
                )
    return substitute_unchecked(e, bindings)


def substitute_unchecked(e, bindings: Mapping[Symbol, Expr]):
    """:func:`substitute` without its check of the bindings, for a caller
    whose keys are non-coordinate and whose values are coordinate-only by
    construction; other bindings give wrong results, not an error."""
    # binding values are coordinate-only, so their folds are the same with or
    # without the bindings and the template walk can share their memo
    memo: dict = {}
    folded = {key: _fold(val, {}, memo) for key, val in bindings.items()}
    return _entrywise(_fold, e, folded, memo)


# ---------------------------------------------------------------------------
# compilation: the one numeric evaluator, at one point or at many


def compile_exprs(exprs, symbols: Iterable[Symbol]):
    """Compile a flat sequence of Exprs to one numpy callable.

    The callable takes the symbol values in the order of ``symbols``,
    as scalars or arrays that broadcast together, and returns an ndarray
    of shape ``(len(exprs),) + broadcast shape``.  Arithmetic runs under
    ``np.errstate`` raising on division by zero, invalid operations and
    overflow, of the results and of every intermediate value; those
    failures and any non-finite result surface as :class:`DomainError`
    naming the expression, so no NaN or inf is ever returned.  A symbol
    missing from ``symbols`` raises :class:`MissingSymbolError`.

    The expressions become one tape over a list of registers: the symbol
    values, then the constants (Python floats), then one result per entry.
    An entry ``(ufunc, out, a, b)`` stores ``ufunc(r[a], r[b])``, or
    ``ufunc(r[a])`` when ``b`` is -1, in ``r[out]``.  One iterative
    post-order pass over the distinct nodes of all expressions, in order,
    builds the tape, so a subtree shared within or across expressions is
    computed once, in the segment of the first expression that holds it.
    Each entry applies the numpy operation of its node to the same operands
    as in the unshared tree, so the values are bit-identical to it.  The
    segments run in order and each root's row is written as its segment
    ends, so a :class:`DomainError` names the first expression whose
    evaluation fails.  A result register is emptied after its last read,
    so a run holds the live values only, not one array per node.

    ``compiled.jets(values, tangents)`` runs the same tape in jet mode:
    each register also carries its tangent, the derivative along ``m``
    directions stacked on a new first axis.  ``tangents`` gives one per
    symbol, an array that broadcasts to ``(m,) + shape``, or None where
    the symbol does not vary.  Each entry keeps its ufunc call, so the
    values are bit-identical to ``compiled(*values)``, and adds the tangent
    rule of its operation (:data:`_TANGENTS`); a tangent stays None, and
    costs nothing, until a varying operand reaches it.  Returns the values
    ``(len(exprs),) + shape`` and the tangents ``(len(exprs), m) + shape``
    (zero where None).  The tangents run under the same ``errstate``,
    register release and non-finite check as the values, so a pole of a
    derivative raises :class:`DomainError` naming the expression too.
    Seeding each coordinate's tangent with the frame matrix row B^a_k makes
    the tangents the frame derivatives E_k = B^a_k d/dx^a (forward mode:
    Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13).
    """
    exprs = list(exprs)
    order = list(symbols)
    slots = {s.name: i for i, s in enumerate(order)}
    ufuncs = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide,
              Pow: np.power, Neg: np.negative}
    registers: list = [None] * len(order)  # a constant's value, else None until a call fills it
    slot_of: dict[int, int] = {}  # node id -> register

    def leaf_slot(node):
        """The register of a leaf, assigned now; None for a composite node."""
        kind = type(node)
        if kind is Sym:
            name = node.symbol.name
            if name not in slots:
                raise MissingSymbolError(
                    f"symbol {name!r} is not part of the compilation signature")
            slot = slots[name]
        elif kind is Const:
            slot = len(registers)
            registers.append(node.value)
        elif kind is Call or kind in ufuncs:
            return None
        else:
            raise TypeError(f"not an Expr: {node!r}")
        slot_of[id(node)] = slot
        return slot

    segments = []  # (entries, root register) per expression
    for root in exprs:
        entries: list = []
        # the path from the root to the composite node being expanded; a node
        # leaves it once both its children have registers
        stack = [] if id(root) in slot_of or leaf_slot(root) is not None else [root]
        while stack:
            node = stack[-1]
            kind = type(node)
            if kind is Neg or kind is Call:
                a, b = node.arg, None
            elif kind is Pow:
                a, b = node.base, node.exponent
            else:
                a, b = node.left, node.right
            ra = slot_of.get(id(a))
            if ra is None and (ra := leaf_slot(a)) is None:
                stack.append(a)
                continue
            rb = -1 if b is None else slot_of.get(id(b))
            if rb is None and (rb := leaf_slot(b)) is None:
                stack.append(b)
                continue
            stack.pop()
            fn = getattr(np, node.func) if kind is Call else ufuncs[kind]
            slot_of[id(node)] = len(registers)
            entries.append((fn, len(registers), ra, rb))
            registers.append(None)
        segments.append((entries, slot_of[id(root)]))
    segments = _release_dead_results(segments, registers, len(order))

    def compiled(*vals):
        if len(vals) != len(order):
            raise TypeError(f"expected {len(order)} coordinate values, got {len(vals)}")
        r = [np.asarray(v, dtype=float) for v in vals]
        out = np.empty((len(segments),) + np.broadcast_shapes(*(a.shape for a in r)))
        r += registers[len(r):]
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            for i, (entries, root, dead) in enumerate(segments):
                try:
                    for fn, dst, a, b, free in entries:
                        r[dst] = fn(r[a]) if b < 0 else fn(r[a], r[b])
                        for k in free:
                            r[k] = None
                except FloatingPointError as err:
                    raise DomainError(f"{to_source(exprs[i])} is undefined: {err}") from None
                out[i] = r[root]
                for k in dead:
                    r[k] = None
        _require_finite(exprs, out)
        return out

    def jets(vals, tangents):
        if len(vals) != len(order) or len(tangents) != len(order):
            raise TypeError(f"expected {len(order)} coordinate values and tangents")
        r = list(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in vals)))
        shape = r[0].shape if r else ()
        m = next((np.shape(d)[0] for d in tangents if d is not None), 0)
        t = [None if d is None else np.broadcast_to(d, (m,) + shape) for d in tangents]
        r += registers[len(r):]
        t += [None] * (len(registers) - len(t))
        out = np.empty((len(segments),) + shape)
        tout = np.zeros((len(segments), m) + shape)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            for i, (entries, root, dead) in enumerate(segments):
                try:
                    for fn, dst, a, b, free in entries:
                        u, du = r[a], t[a]
                        if b < 0:
                            w = r[dst] = fn(u)
                            if du is not None:
                                t[dst] = _TANGENTS[fn](u, w, du)
                        else:
                            v, dv = r[b], t[b]
                            w = r[dst] = fn(u, v)
                            if du is not None or dv is not None:
                                t[dst] = _TANGENTS[fn](u, v, w, du, dv)
                        for k in free:
                            r[k] = t[k] = None
                except FloatingPointError as err:
                    raise DomainError(f"{to_source(exprs[i])} is undefined: {err}") from None
                out[i] = r[root]
                if t[root] is not None:
                    tout[i] = t[root]
                for k in dead:
                    r[k] = t[k] = None
        _require_finite(exprs, out)
        _require_finite(exprs, tout)
        return out, tout

    compiled.jets = jets
    return compiled


def _require_finite(exprs, rows) -> None:
    if not np.isfinite(rows).all():
        bad = next(e for e, row in zip(exprs, rows) if not np.isfinite(row).all())
        raise DomainError(f"evaluation produced a non-finite value for {to_source(bad)}")


# Tangent rules of the jet mode, one per tape operation: given the operand
# values u (and v), the result w and the operand tangents du (and dv, either
# None where it is zero), the result's tangent.  The power rule is that of
# ``_derivative``: c u^(c-1) du for an exponent that does not vary, else
# u^v (dv log u + v du/u).


def _mul_tangent(u, v, w, du, dv):
    return du * v if dv is None else u * dv if du is None else du * v + u * dv


def _div_tangent(u, v, w, du, dv):
    return du / v if dv is None else -(w * dv) / v if du is None else (du - w * dv) / v


def _pow_tangent(u, v, w, du, dv):
    if dv is None:
        return (v * np.power(u, v - 1.0)) * du
    grow = dv * np.log(u)
    return w * (grow if du is None else grow + v * (du / u))


_TANGENTS = {
    np.add: lambda u, v, w, du, dv: du if dv is None else dv if du is None else du + dv,
    np.subtract: lambda u, v, w, du, dv: du if dv is None else -dv if du is None else du - dv,
    np.multiply: _mul_tangent,
    np.divide: _div_tangent,
    np.power: _pow_tangent,
    np.negative: lambda u, w, du: -du,
    np.sin: lambda u, w, du: np.cos(u) * du,
    np.cos: lambda u, w, du: -np.sin(u) * du,
    np.tan: lambda u, w, du: du / np.cos(u) ** 2,
    np.exp: lambda u, w, du: w * du,
    np.log: lambda u, w, du: du / u,
    np.sqrt: lambda u, w, du: du / (2.0 * w),
    np.sinh: lambda u, w, du: np.cosh(u) * du,
    np.cosh: lambda u, w, du: np.sinh(u) * du,
}


def _release_dead_results(segments, registers, inputs: int) -> list:
    """The tape with each result register dropped after its last read:
    ``(entries, root, dead)`` per segment, an entry ``(ufunc, out, a, b,
    free)`` emptying the registers in ``free`` once it has run and ``dead``
    those emptied once the root's row is written.  One backward pass: a
    result register first met there is at its last read.  A run then holds
    only the live values, not one per node of the whole tape."""
    # the symbol values, the constants and b = -1 (no operand) are never dropped
    read = {k for k, value in enumerate(registers) if k < inputs or value is not None}
    read.add(-1)
    out = []
    for entries, root in reversed(segments):
        dead = () if root in read else (root,)
        read.add(root)
        tape = []
        for fn, dst, a, b in reversed(entries):
            free_a = a not in read
            read.add(a)
            free_b = b not in read
            read.add(b)
            tape.append((fn, dst, a, b, (a, b) if free_a and free_b else (a,) if free_a
                         else (b,) if free_b else ()))
        tape.reverse()
        out.append((tape, root, dead))
    out.reverse()
    return out


def _normalize_assignment(assignment: Mapping) -> dict[str, float]:
    values = {}
    for key, val in assignment.items():
        name = key.name if isinstance(key, Symbol) else str(key)
        values[name] = float(val)
    return values


def evaluate(e: Expr, assignment: Mapping) -> float:
    """Evaluate ``e`` at a point, given values for every symbol it uses: the
    tape of :func:`compile_exprs` run at that one point.

    Raises :class:`MissingSymbolError` when a symbol has no value and
    :class:`DomainError` on poles, logs of non-positive numbers, negative
    square roots, ``0^negative`` and overflow, of the result or of any
    intermediate value.  Never returns NaN or inf.
    """
    values = _normalize_assignment(assignment)
    compiled = compile_exprs([e], [Symbol(name) for name in values])
    return float(compiled(*([v] for v in values.values())).flat[0])
