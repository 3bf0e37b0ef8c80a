"""Deterministic JSON emission: dict key order is preserved as constructed
and every float is rendered with 12 significant digits, so identical inputs
produce byte-identical output. numpy integer, bool and floating scalars are
written exactly as the Python int, bool and float of the same value, and a
float ndarray exactly as its nested lists.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np


def format_float(x: float) -> str:
    if x != x or math.isinf(x):
        raise ValueError("non-finite float in output")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    s = format(float(x), ".12g")
    return s


@functools.lru_cache(maxsize=16)
def _template(shape: tuple) -> str:
    """%-format template of nested lists of the given shape, one %.12g per
    entry."""
    if not shape:
        return "%.12g"
    return "[" + ",".join([_template(shape[1:])] * shape[0]) + "]"


def dumps(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        # format_float's rules on every entry: + 0.0 turns -0.0 into 0
        if not np.isfinite(obj).all():
            raise ValueError("non-finite float in output")
        parts.append(_template(obj.shape)
                     % tuple((obj + 0.0).ravel().tolist()))
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def loads(text: str):
    return json.loads(text)
