"""Minimal arithmetic grammar for angle arguments: numbers, pi, + - * /,
parentheses and the functions sqrt(...) and acos(...), parsed by recursive
descent. No eval, no names other than pi, sqrt and acos; a malformed number,
nesting deeper than the recursion limit, an argument outside a function's
domain, or a value that is not finite, raises ExprError."""

from __future__ import annotations

import math


class ExprError(ValueError):
    pass


_FUNCTIONS = {"sqrt": math.sqrt, "acos": math.acos}


def parse_angle(text: str) -> float:
    """The finite value of text; text outside the grammar, or whose value
    overflows to inf or NaN, raises ExprError."""
    p = _Parser(text)
    try:
        val = p.expr()
    except RecursionError:
        raise ExprError("expression nested too deeply") from None
    p.skip_ws()
    if p.pos != len(p.text):
        raise ExprError(f"trailing input at {p.pos}: {text[p.pos:]!r}")
    if not math.isfinite(val):
        raise ExprError(f"{text!r} is not a finite angle")
    return val


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> float:
        val = self.term()
        while self.peek() and self.peek() in "+-":
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self) -> float:
        val = self.factor()
        while self.peek() and self.peek() in "*/":
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.factor()
            if op == "/":
                if rhs == 0:
                    raise ExprError("division by zero")
                val = val / rhs
            else:
                val = val * rhs
        return val

    def factor(self) -> float:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -self.factor()
        return self.atom()

    def atom(self) -> float:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            val = self.expr()
            if self.peek() != ")":
                raise ExprError("missing closing parenthesis")
            self.pos += 1
            return val
        if self.text.startswith("pi", self.pos):
            self.pos += 2
            return math.pi
        for name, fn in _FUNCTIONS.items():
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                if self.peek() != "(":
                    raise ExprError(f"expected '(' after {name}")
                arg = self.atom()
                try:
                    return fn(arg)
                except ValueError:
                    raise ExprError(
                        f"{name}({arg!r}) is outside its domain") from None
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                             or self.text[self.pos] == "."):
            self.pos += 1
        if self.pos == start:
            raise ExprError(f"expected number, pi, sqrt, acos or '(' "
                            f"at {start}")
        try:
            val = float(self.text[start:self.pos])
        except ValueError:
            raise ExprError(f"bad number at {start}: "
                            f"{self.text[start:self.pos]!r}") from None
        # implicit multiplication like 3pi
        if self.text.startswith("pi", self.pos):
            self.pos += 2
            val *= math.pi
        return val
