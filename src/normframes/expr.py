"""Symbolic expression DSL: parsing, differentiation, evaluation, substitution.

Every component function in this library (frame matrices, connection
coefficients, templates) is an :class:`Expr` over a declared set of
:class:`Symbol` objects.  Expressions are immutable trees; all operations
here are pure functions, so concurrent read access is safe.

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
import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Symbol:
    """A named leaf with a kind.

    Coordinate symbols come from a chart's declared coordinate list.
    Vector-component symbols are written ``X1..Xn``; frame-derivative
    symbols are written ``dX[i,j]`` and stand for the j-th frame vector
    applied to the i-th component of a vector field.
    """

    name: str
    kind: str = COORDINATE

    def __str__(self) -> str:
        return self.name


def coordinate_symbols(names: Iterable[str]) -> tuple[Symbol, ...]:
    return tuple(Symbol(name, COORDINATE) for name in names)


def component_symbols(n: int) -> tuple[Symbol, ...]:
    return tuple(Symbol(f"X{i}", VECTOR_COMPONENT) for i in range(1, n + 1))


def frame_derivative_symbol(i: int, j: int) -> Symbol:
    return Symbol(f"dX[{i},{j}]", FRAME_DERIVATIVE)


def frame_derivative_symbols(n: int) -> tuple[Symbol, ...]:
    return tuple(
        frame_derivative_symbol(i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


NumberLike = Union[int, float, "Expr"]


class Expr:
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


@dataclass(frozen=True, eq=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError("expression constants must be finite")

    def __repr__(self):
        return f"Const({self.value!r})"


@dataclass(frozen=True, eq=True)
class Sym(Expr):
    symbol: Symbol

    def __repr__(self):
        return f"Sym({self.symbol.name})"


@dataclass(frozen=True, eq=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True, eq=True)
class Call(Expr):
    func: str
    arg: Expr

    def __post_init__(self):
        if self.func not in FUNCTIONS:
            raise ValueError(f"unknown function {self.func!r}")


ZERO = Const(0.0)
ONE = Const(1.0)


def neg(e: Expr) -> Expr:
    """Negation, folding negated constants so printing stays a bijection."""
    if isinstance(e, Const):
        return Const(-e.value)
    return Neg(e)


def sym(s: Symbol) -> Sym:
    return Sym(s)


def call(func: str, arg: Expr) -> Call:
    return Call(func, arg)


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


def free_symbols(e: Expr) -> frozenset[Symbol]:
    out: set[Symbol] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.add(node.symbol)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Pow):
            stack.append(node.base)
            stack.append(node.exponent)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return frozenset(out)


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


def parse_expr(source: str, symbols: Iterable[Symbol] | Mapping[str, Symbol]) -> Expr:
    """Parse ``source`` against a declared symbol set.

    Every identifier must resolve to a declared symbol or to one of the
    known functions; anything else raises :class:`UnknownSymbolError`.
    """
    if isinstance(symbols, Mapping):
        table = dict(symbols)
    else:
        table = {s.name: s for s in symbols}
    return _Parser(source, table).parse()


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
# calculus and evaluation


def differentiate(e: Expr, s: Symbol) -> Expr:
    """Partial derivative of ``e`` with respect to the coordinate symbol ``s``."""
    if s.kind != COORDINATE:
        raise ValueError(f"can only differentiate along coordinate symbols, got {s.kind}")
    return _diff(e, s)


def _diff(e: Expr, s: Symbol) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.symbol == s else ZERO
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, s))
    if isinstance(e, Add):
        return Add(_diff(e.left, s), _diff(e.right, s))
    if isinstance(e, Sub):
        return Sub(_diff(e.left, s), _diff(e.right, s))
    if isinstance(e, Mul):
        return Add(Mul(_diff(e.left, s), e.right), Mul(e.left, _diff(e.right, s)))
    if isinstance(e, Div):
        num = Sub(Mul(_diff(e.left, s), e.right), Mul(e.left, _diff(e.right, s)))
        return Div(num, Pow(e.right, Const(2.0)))
    if isinstance(e, Pow):
        base, expo = e.base, e.exponent
        if isinstance(expo, Const):
            return Mul(
                Mul(expo, Pow(base, Const(expo.value - 1.0))),
                _diff(base, s),
            )
        # general u^v: u^v * (v' log u + v u'/u)
        du, dv = _diff(base, s), _diff(expo, s)
        return Mul(
            e,
            Add(Mul(dv, Call("log", base)), Mul(expo, Div(du, base))),
        )
    if isinstance(e, Call):
        inner = _diff(e.arg, s)
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
        return Mul(outer, inner)
    raise TypeError(f"not an Expr: {e!r}")


def _normalize_assignment(assignment: Mapping) -> dict[str, float]:
    values = {}
    for key, val in assignment.items():
        name = key.name if isinstance(key, Symbol) else str(key)
        values[name] = float(val)
    return values


def evaluate(e: Expr, assignment: Mapping) -> float:
    """Evaluate ``e`` at a point, given values for every symbol it uses.

    Raises :class:`MissingSymbolError` when a symbol has no value and
    :class:`DomainError` on poles, logs of non-positive numbers, negative
    square roots, ``0^negative`` and overflow.  Never returns NaN or inf.
    """
    values = _normalize_assignment(assignment)
    result = _eval(e, values)
    if not math.isfinite(result):
        raise DomainError(f"evaluation produced a non-finite value for {to_source(e)}")
    return result


def _eval(e: Expr, values: dict[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        try:
            return values[e.symbol.name]
        except KeyError:
            raise MissingSymbolError(f"no value supplied for symbol {e.symbol.name!r}") from None
    if isinstance(e, Neg):
        return -_eval(e.arg, values)
    if isinstance(e, Add):
        return _eval(e.left, values) + _eval(e.right, values)
    if isinstance(e, Sub):
        return _eval(e.left, values) - _eval(e.right, values)
    if isinstance(e, Mul):
        return _eval(e.left, values) * _eval(e.right, values)
    if isinstance(e, Div):
        denom = _eval(e.right, values)
        if denom == 0.0:
            raise DomainError("division by zero")
        return _eval(e.left, values) / denom
    if isinstance(e, Pow):
        base = _eval(e.base, values)
        expo = _eval(e.exponent, values)
        try:
            return math.pow(base, expo)
        except (ValueError, OverflowError) as err:
            raise DomainError(f"{base!r}^{expo!r} is undefined: {err}") from None
    if isinstance(e, Call):
        arg = _eval(e.arg, values)
        try:
            return _MATH_FUNCS[e.func](arg)
        except (ValueError, OverflowError) as err:
            raise DomainError(f"{e.func}({arg!r}) is undefined: {err}") from None
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# simplification

# Value-preserving rules only: constant folding plus the identity rules
# x+0, 0+x, x-0, 0-x, x*1, 1*x, x*0, 0*x, x/1, 0/x, x^1, x^0, --x,
# and structural cancellation x-x, x+(-x).
# No canonicalization and no trig rewriting: downstream verdicts are decided
# numerically at sample points, so a canonical form buys nothing and risks
# changing evaluation behavior.


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _fold(e: Expr) -> Expr:
    """One bottom-up rewriting pass."""
    if isinstance(e, (Const, Sym)):
        return e
    if isinstance(e, Neg):
        arg = _fold(e.arg)
        if isinstance(arg, Const):
            return Const(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(e, Add):
        left, right = _fold(e.left), _fold(e.right)
        if _is_const(left, 0.0):
            return right
        if _is_const(right, 0.0):
            return left
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value + right.value)
        if isinstance(right, Neg) and right.arg == left:
            return ZERO
        if isinstance(left, Neg) and left.arg == right:
            return ZERO
        return Add(left, right)
    if isinstance(e, Sub):
        left, right = _fold(e.left), _fold(e.right)
        if _is_const(right, 0.0):
            return left
        if _is_const(left, 0.0):
            return neg(right) if not isinstance(right, Neg) else right.arg
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value - right.value)
        if left == right:
            return ZERO
        return Sub(left, right)
    if isinstance(e, Mul):
        left, right = _fold(e.left), _fold(e.right)
        if _is_const(left, 0.0) or _is_const(right, 0.0):
            return ZERO
        if _is_const(left, 1.0):
            return right
        if _is_const(right, 1.0):
            return left
        if isinstance(left, Const) and isinstance(right, Const):
            return Const(left.value * right.value)
        return Mul(left, right)
    if isinstance(e, Div):
        left, right = _fold(e.left), _fold(e.right)
        if _is_const(right, 1.0):
            return left
        if _is_const(left, 0.0) and not _is_const(right, 0.0):
            return ZERO
        if isinstance(left, Const) and isinstance(right, Const) and right.value != 0.0:
            return Const(left.value / right.value)
        return Div(left, right)
    if isinstance(e, Pow):
        base, expo = _fold(e.base), _fold(e.exponent)
        if _is_const(expo, 1.0):
            return base
        if _is_const(expo, 0.0):
            return ONE
        if isinstance(base, Const) and isinstance(expo, Const):
            try:
                value = math.pow(base.value, expo.value)
            except (ValueError, OverflowError):
                return Pow(base, expo)
            if math.isfinite(value):
                return Const(value)
        return Pow(base, expo)
    if isinstance(e, Call):
        arg = _fold(e.arg)
        if isinstance(arg, Const):
            try:
                value = _MATH_FUNCS[e.func](arg.value)
            except (ValueError, OverflowError):
                return Call(e.func, arg)
            if math.isfinite(value):
                return Const(value)
        return Call(e.func, arg)
    raise TypeError(f"not an Expr: {e!r}")


def simplify(e: Expr) -> Expr:
    """Rewrite to a fixed point of the folding rules.  Value-preserving."""
    current = e
    for _ in range(1000):
        nxt = _fold(current)
        if nxt == current:
            return current
        current = nxt
    return current  # pragma: no cover - the rules strictly shrink the tree


# ---------------------------------------------------------------------------
# substitution


def substitute(e: Expr, bindings: Mapping[Symbol, Expr]) -> Expr:
    """Replace vector-component / frame-derivative symbols by expressions.

    Bindings must map non-coordinate symbols to coordinate-only expressions;
    this is how W/S templates get instantiated at a concrete vector field.
    """
    for key, val in bindings.items():
        if key.kind == COORDINATE:
            raise ValueError(f"cannot bind coordinate symbol {key.name!r}")
        for free in free_symbols(val):
            if free.kind != COORDINATE:
                raise UnknownSymbolError(
                    f"binding for {key.name!r} introduces non-coordinate symbol {free.name!r}"
                )
    return _subst(e, dict(bindings))


def _subst(e: Expr, bindings: dict[Symbol, Expr]) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Sym):
        return bindings.get(e.symbol, e)
    if isinstance(e, Neg):
        return Neg(_subst(e.arg, bindings))
    if isinstance(e, Add):
        return Add(_subst(e.left, bindings), _subst(e.right, bindings))
    if isinstance(e, Sub):
        return Sub(_subst(e.left, bindings), _subst(e.right, bindings))
    if isinstance(e, Mul):
        return Mul(_subst(e.left, bindings), _subst(e.right, bindings))
    if isinstance(e, Div):
        return Div(_subst(e.left, bindings), _subst(e.right, bindings))
    if isinstance(e, Pow):
        return Pow(_subst(e.base, bindings), _subst(e.exponent, bindings))
    if isinstance(e, Call):
        return Call(e.func, _subst(e.arg, bindings))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# compilation (hot numeric loops: ODE right-hand sides, grid sweeps)


def _pysource(e: Expr, names: dict[str, str]) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Sym):
        try:
            return names[e.symbol.name]
        except KeyError:
            raise MissingSymbolError(
                f"symbol {e.symbol.name!r} is not part of the compilation signature"
            ) from None
    if isinstance(e, Neg):
        return f"(-{_pysource(e.arg, names)})"
    if isinstance(e, Add):
        return f"({_pysource(e.left, names)}+{_pysource(e.right, names)})"
    if isinstance(e, Sub):
        return f"({_pysource(e.left, names)}-{_pysource(e.right, names)})"
    if isinstance(e, Mul):
        return f"({_pysource(e.left, names)}*{_pysource(e.right, names)})"
    if isinstance(e, Div):
        return f"({_pysource(e.left, names)}/{_pysource(e.right, names)})"
    if isinstance(e, Pow):
        return f"_pow({_pysource(e.base, names)},{_pysource(e.exponent, names)})"
    if isinstance(e, Call):
        return f"_{e.func}({_pysource(e.arg, names)})"
    raise TypeError(f"not an Expr: {e!r}")


def compile_exprs(exprs, symbols: Iterable[Symbol]):
    """Compile a flat sequence of coordinate-only Exprs to one numpy callable.

    The callable takes the coordinate values in the order of ``symbols``,
    as scalars or arrays that broadcast together, and returns an ndarray
    of shape ``(len(exprs),) + broadcast shape``.  Arithmetic runs under
    ``np.errstate`` raising on division by zero, invalid operations and
    overflow; those failures and any non-finite result surface as
    :class:`DomainError` naming the expression, the same policy as
    :func:`evaluate`.
    """
    exprs = list(exprs)
    order = list(symbols)
    names = {s.name: f"v{i}" for i, s in enumerate(order)}
    args = ",".join(names[s.name] for s in order)
    source = "".join(
        f"def _e{i}({args}):\n    return {_pysource(e, names)}\n" for i, e in enumerate(exprs)
    )
    namespace = {"_pow": np.power, **{f"_{name}": getattr(np, name) for name in FUNCTIONS}}
    exec(source, namespace)  # noqa: S102 - generated from a closed grammar
    parts = [namespace[f"_e{i}"] for i in range(len(exprs))]

    def compiled(*vals):
        arrays = [np.asarray(v, dtype=float) for v in vals]
        out = np.empty((len(parts),) + np.broadcast_shapes(*(a.shape for a in arrays)))
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            for i, part in enumerate(parts):
                try:
                    out[i] = part(*arrays)
                except (FloatingPointError, ZeroDivisionError) as err:
                    raise DomainError(f"{to_source(exprs[i])} is undefined: {err}") from None
        if not np.isfinite(out).all():
            bad = next(e for e, row in zip(exprs, out) if not np.isfinite(row).all())
            raise DomainError(f"evaluation produced a non-finite value for {to_source(bad)}")
        return out

    return compiled
