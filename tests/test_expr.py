import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from ctxupb.expr import ExprError, parse_angle


def test_pyramid_row_label():
    assert parse_angle("acos((sqrt(5)-1)/2)") == math.acos(
        (math.sqrt(5) - 1) / 2)


@pytest.mark.parametrize("text,value", [("3pi/4", 3 * math.pi / 4),
                                        ("-sqrt(2)/2", -math.sqrt(2) / 2),
                                        ("acos(-1)", math.pi)])
def test_values(text, value):
    assert parse_angle(text) == value


BIG = "9" * 400   # parses to inf
DEEP = "(" * 2000 + "1" + ")" * 2000
DEEP_SQRT = "sqrt(" * 600 + "1" + ")" * 600


@pytest.mark.parametrize("text", ["sqrt(-1)", "acos(2)", "sqrt 2", "cos(1)",
                                  "acos(1", BIG, f"{BIG}-{BIG}",
                                  f"sqrt({BIG})", "1..2", ".", "1.2.3",
                                  pytest.param(DEEP, id="parens-2000"),
                                  pytest.param(DEEP_SQRT, id="sqrt-600")])
def test_rejected(text):
    with pytest.raises(ExprError):
        parse_angle(text)


# Values recorded from the recursive-descent parser this grammar started
# with: float.hex of the value, or None where the text is refused.
PINNED = {
    "acos((sqrt(5)-1)/2)": "0x1.cf2214ccccd43p-1",
    "3pi/4": "0x1.2d97c7f3321d2p+1",
    "pi/3": "0x1.0c152382d7365p+0",
    "pi/6": "0x1.0c152382d7365p-1",
    "pi/12": "0x1.0c152382d7365p-2",
    "1/3pi": "0x1.b2995e7b7b604p-4",      # 3pi is one atom: 1/(3 pi)
    "5*-3pi": "-0x1.78fdb9effea46p+5",
    "2pi/3pi": "0x1.5555555555555p-1",
    ".5pi": "0x1.921fb54442d18p+0",
    "3.pi": "0x1.2d97c7f3321d2p+3",
    "٣pi": "0x1.2d97c7f3321d2p+3",   # an Arabic-Indic three
    "01": "0x1.0000000000000p+0",
    "--1": "0x1.0000000000000p+0",
    "1\n+2": "0x1.8000000000000p+1",
    " sqrt (2)": "0x1.6a09e667f3bcdp+0",
    "2/" + "9" * 400: "0x0.0p+0",         # divides by an infinite atom
    "(" * 199 + "1" + ")" * 199: "0x1.0000000000000p+0",
    "1/-0": None, "+1": None, "2**3": None, "2//3": None, "2(3)": None,
    "pi2": None, "3pipi": None, "sqrt()": None, "sqrt(1,2)": None,
    "(sqrt)(2)": None, "sqrt(*2)": None, "sqrt(**2)": None, "()": None,
    "1 2": None, "3 pi": None,
}


@pytest.mark.parametrize("text", PINNED,
                         ids=lambda t: t if len(t) <= 30 else f"{t[:5]}x{len(t)}")
def test_pinned_corpus(text):
    if PINNED[text] is None:
        with pytest.raises(ExprError):
            parse_angle(text)
    else:
        assert parse_angle(text).hex() == PINNED[text]


class Tree(NamedTuple):
    """An expression drawn from the grammar: its text, its precedence (3
    atom, call or parentheses, 2 unary minus, 1 * and /, 0 + and -) and
    its value, computed from the tree without a parser; None where a step
    divides by zero or leaves a function's domain."""
    text: str
    prec: int
    value: float | None


def _apply(fn, *args):
    if None in args:
        return None
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError):
        return None


_WS = st.sampled_from(["", "", " ", "\t", " \n "])
_DIGITS = st.text(alphabet="0123456789\u0663", min_size=1, max_size=4)
_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b}


@st.composite
def _number(draw):
    head = draw(st.one_of(_DIGITS, st.just("9" * 400)))
    token = draw(st.sampled_from([head, head + ".", "." + head,
                                  head + "." + draw(_DIGITS)]))
    if draw(st.booleans()):
        return Tree(token + "pi", 3, float(token) * math.pi)
    return Tree(token, 3, float(token))


def _binary(args):
    op, left, right, ws1, ws2 = args
    prec = 0 if op in "+-" else 1
    lt = left.text if left.prec >= prec else f"({left.text})"
    rt = right.text if right.prec > prec else f"({right.text})"
    return Tree(f"{lt}{ws1}{op}{ws2}{rt}", prec,
                _apply(_OPS[op], left.value, right.value))


def _negate(args):
    arg, ws = args
    text = arg.text if arg.prec >= 2 else f"({arg.text})"
    return Tree(f"-{ws}{text}", 2, _apply(lambda x: -x, arg.value))


def _call(args):
    name, arg, ws = args
    return Tree(f"{name}{ws}({arg.text})", 3,
                _apply(getattr(math, name), arg.value))


def _paren(args):
    arg, ws = args
    return Tree(f"({ws}{arg.text}{ws})", 3, arg.value)


_TREES = st.recursive(
    st.one_of(_number(), st.just(Tree("pi", 3, math.pi))),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(sorted(_OPS)), kids, kids, _WS,
                  _WS).map(_binary),
        st.tuples(kids, _WS).map(_negate),
        st.tuples(st.sampled_from(["sqrt", "acos"]), kids, _WS).map(_call),
        st.tuples(kids, _WS).map(_paren)),
    max_leaves=12)


@given(_TREES)
@settings(max_examples=300, deadline=None)
def test_grammar_trees_match_float_arithmetic(tree):
    if tree.value is None or not math.isfinite(tree.value):
        with pytest.raises(ExprError):
            parse_angle(tree.text)
    else:
        assert parse_angle(tree.text).hex() == tree.value.hex()


def test_nesting_limit_is_the_parsers():
    # Python's parser takes 200 nested parentheses and refuses 201
    assert parse_angle("(" * 200 + "pi" + ")" * 200) == math.pi
    with pytest.raises(ExprError, match="too many nested parentheses"):
        parse_angle("(" * 201 + "pi" + ")" * 201)
