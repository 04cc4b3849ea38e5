"""A reference evaluator for the differential tests of the compiled tape.

``evaluate_tree`` walks an expression recursively over Python floats and the
``math`` module, one node at a time.  It shares no code with
``expr.compile_exprs``, the library's one numeric evaluator, so a
disagreement between the two points to a fault in one of them.

Its domain policy differs from the tape's in one way: an intermediate
overflow of ``+ - * /`` gives inf, which a later operation may map back to a
finite number (``1/(exp(r)*exp(r))`` is 0.0 at r = 400), where the tape
raises ``DomainError``.  Only a non-finite result, a pole, or a ``math``
failure raises here.
"""

import math

from normframes.expr import (
    Add,
    Call,
    Const,
    Div,
    DomainError,
    FUNCTIONS,
    MissingSymbolError,
    Mul,
    Neg,
    Pow,
    Sub,
    Sym,
    Symbol,
    to_source,
)

MATH_FUNCS = {name: getattr(math, name) for name in FUNCTIONS}


def evaluate_tree(e, assignment) -> float:
    """The value of ``e`` at ``assignment`` (symbol or name -> value)."""
    values = {}
    for key, val in assignment.items():
        values[key.name if isinstance(key, Symbol) else str(key)] = float(val)
    result = _walk(e, values, {})
    if not math.isfinite(result):
        raise DomainError(f"evaluation produced a non-finite value for {to_source(e)}")
    return result


def _walk(e, values: dict, memo: dict) -> float:
    """The value of ``e``, recorded in ``memo`` (node id -> value) so a
    subtree that occurs many times is evaluated once."""
    kind = type(e)
    if kind is Const:
        return e.value
    if kind is Sym:
        try:
            return values[e.symbol.name]
        except KeyError:
            raise MissingSymbolError(f"no value supplied for symbol {e.symbol.name!r}") from None
    out = memo.get(id(e))
    if out is not None:
        return out
    if kind is Add:
        out = _walk(e.left, values, memo) + _walk(e.right, values, memo)
    elif kind is Mul:
        out = _walk(e.left, values, memo) * _walk(e.right, values, memo)
    elif kind is Sub:
        out = _walk(e.left, values, memo) - _walk(e.right, values, memo)
    elif kind is Neg:
        out = -_walk(e.arg, values, memo)
    elif kind is Div:
        denom = _walk(e.right, values, memo)
        if denom == 0.0:
            raise DomainError("division by zero")
        out = _walk(e.left, values, memo) / denom
    elif kind is Pow:
        base = _walk(e.base, values, memo)
        expo = _walk(e.exponent, values, memo)
        try:
            out = math.pow(base, expo)
        except (ValueError, OverflowError) as err:
            raise DomainError(f"{base!r}^{expo!r} is undefined: {err}") from None
    elif kind is Call:
        arg = _walk(e.arg, values, memo)
        try:
            out = MATH_FUNCS[e.func](arg)
        except (ValueError, OverflowError) as err:
            raise DomainError(f"{e.func}({arg!r}) is undefined: {err}") from None
    else:
        raise TypeError(f"not an Expr: {e!r}")
    memo[id(e)] = out
    return out
