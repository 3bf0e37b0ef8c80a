"""Minimal arithmetic grammar for angle arguments: numbers, pi, + - * /,
unary minus, parentheses and the functions sqrt(...) and acos(...).

A number is a maximal run of digits and dots read by float(), so 01, 5.
and Unicode digits are numbers and 1..2 is not; a run that overflows is
inf, allowed on the way (2/1e400 is 0) but not as the result. A run
followed directly by pi is one atom, times pi: 1/3pi is 1/(3 pi). Each
atom becomes a placeholder name, Python's own parser parses the text (no
eval), and only the nodes of this grammar are evaluated. Other characters
or syntax, more than 200 nested parentheses (the parser's limit), a tree
deeper than the recursion limit (about 1,000 unary minuses or chained
operators), division by zero, an argument outside a function's domain, or
a value that is not finite raise ExprError."""

from __future__ import annotations

import ast
import math
import operator
import re


class ExprError(ValueError):
    pass


# a function name must come with its "(": the parser alone takes (sqrt)(2)
_CHARS = re.compile(r"(?:[\d.\s+\-*/()]|pi|(?:sqrt|acos)(?=\s*\())*")
_ATOM = re.compile(r"([\d.]+)(pi)?")
_FUNCTIONS = {"sqrt": math.sqrt, "acos": math.acos}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def parse_angle(text: str) -> float:
    """The finite value of text; text outside the grammar, or whose value
    overflows to inf or NaN, raises ExprError."""
    if not _CHARS.fullmatch(text):
        raise ExprError(f"{text!r} uses characters outside the grammar")
    names = {"pi": math.pi}

    def atom(m):
        name = f"_{len(names)}"
        names[name] = float(m[1]) * math.pi if m[2] else float(m[1])
        return name

    try:
        source = " ".join(_ATOM.sub(atom, text).split())
        val = _evaluate(ast.parse(source, mode="eval").body, names)
    except SyntaxError as e:
        raise ExprError(f"not in the grammar: {e.msg}") from None
    except (RecursionError, MemoryError):
        raise ExprError("expression nested too deeply") from None
    except (ZeroDivisionError, ValueError) as e:   # 1..2, 1/0, sqrt(-1)
        raise ExprError(str(e)) from None
    if not math.isfinite(val):
        raise ExprError(f"{text!r} is not a finite angle")
    return val


def _evaluate(node, names: dict) -> float:
    """Value of a parsed node; a node outside the grammar raises
    SyntaxError, as text outside Python's grammar does."""
    match node:
        case ast.Name(id=name) if name in names:
            return names[name]
        case ast.UnaryOp(op=ast.USub(), operand=arg):
            return -_evaluate(arg, names)
        case ast.BinOp(left=a, op=op, right=b) if type(op) in _BINARY:
            return _BINARY[type(op)](_evaluate(a, names), _evaluate(b, names))
        case ast.Call(func=ast.Name(id=f), args=[arg]) if f in _FUNCTIONS:
            return _FUNCTIONS[f](_evaluate(arg, names))
    raise SyntaxError(type(getattr(node, "op", node)).__name__)
