import math

import pytest

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


@pytest.mark.parametrize("text", ["sqrt(-1)", "acos(2)", "sqrt 2", "cos(1)",
                                  "acos(1", BIG, f"{BIG}-{BIG}",
                                  f"sqrt({BIG})"])
def test_rejected(text):
    with pytest.raises(ExprError):
        parse_angle(text)
