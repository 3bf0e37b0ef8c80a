"""Timing spans around the public functions of each ctxupb layer.

Inside ``with tracer.installed():`` every module-level binding of a public
function defined in a layer module (including names imported into ``cli``,
``upb`` and the other modules) is a wrapper that records a span; the
originals are put back on exit. Spans are aggregated as they close: calls and
inclusive time per function, self time per layer, and a few exact work
counts derived from arguments and results. Whatever a job spends outside
every layer span is the ``cli`` remainder.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("families", "graphs", "upb", "contextuality", "entanglement",
          "linalg", "jsonio")


def _subsets(args: dict, result) -> int:
    # max_nonspanning scans every (dim-1)-subset of the vectors
    k, r = len(args["vectors"]), min(args["dim"] - 1, len(args["vectors"]))
    return math.comb(k, r) if r > 0 else 0


def _pair_updates(args: dict, result) -> int:
    # one Jacobi sweep mixes every row pair of every restart once; every
    # benchmark job passes --L, so L is never left to its rank-based default
    L = args["L"]
    return args["restarts"] * L * (L - 1) // 2


def _bytes(args: dict, result) -> int:
    return len(result.encode())


# function key -> (counter name, counter from bound arguments and result)
COUNTERS = {
    "upb.max_nonspanning": ("upb.max_nonspanning.subsets", _subsets),
    "entanglement.lee_upper_bound": ("entanglement.pair_updates",
                                     _pair_updates),
    "jsonio.dumps": ("jsonio.dumps.bytes", _bytes),
}


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._stack: list = []          # open frames: [key, layer, child_s]
        self._open_keys: Counter = Counter()
        self._open_layers: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)  # outermost calls
        self.layer_s: defaultdict = defaultdict(float)    # outermost spans
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans = 0

    # ------------------------------------------------------------ spans

    def _enter(self, key: str, layer: str) -> list:
        frame = [key, layer, 0.0]
        self._stack.append(frame)
        self._open_keys[key] += 1
        self._open_layers[layer] += 1
        return frame

    def _exit(self, frame: list, dt: float) -> None:
        key, layer, child = frame
        self._stack.pop()
        self._open_keys[key] -= 1
        self._open_layers[layer] -= 1
        self.spans += 1
        self.calls[key] += 1
        self.self_s[layer] += dt - child
        if not self._open_keys[key]:
            self.inclusive[key] += dt
        if not self._open_layers[layer]:
            self.layer_s[layer] += dt
        if self._stack:
            self._stack[-1][2] += dt

    def timed(self, key: str, layer: str, fn, *args):
        """Run fn(*args) inside a root span; returns (seconds, result)."""
        frame = self._enter(key, layer)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            dt = perf_counter() - t0
            self._exit(frame, dt)
        return dt, result

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, layer: str):
        key = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(key)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(key, layer)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, perf_counter() - t0)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[counter[0]] += counter[1](bound.arguments, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public layer function for the duration of the block."""
        layer_modules = {f"ctxupb.{name}": name for name in LAYERS}
        wrappers: dict = {}
        patched: list = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ctxupb" or name.startswith("ctxupb.")]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if (inspect.isfunction(value)
                        and value.__module__ in layer_modules
                        and not value.__name__.startswith("_")):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(
                            value, layer_modules[value.__module__])
                    setattr(mod, name, wrappers[value])
                    patched.append((mod, name, value))
        try:
            yield self
        finally:
            for mod, name, value in reversed(patched):
                setattr(mod, name, value)
