"""The value classes are ctxupb.record.Record subclasses; they must behave
like the dataclass(frozen=True) classes they replaced, whose twins, built
with dataclasses.make_dataclass, are the reference here."""

import dataclasses
import importlib
import inspect
import itertools
import pkgutil
import sys

import numpy as np
import pytest

import ctxupb
from ctxupb.entanglement import Decomposition, LeeResult
from ctxupb.graphs import GaloisField, Graph, edge_colored_graph
from ctxupb.linalg import Tolerances
from ctxupb.record import Record
from ctxupb.upb import UpbVerdict, one_param_upb

RECORD_CLASSES = ("Tolerances", "Graph", "GaloisField", "EdgeColoredGraph",
                  "VectorFamily", "LoorReport", "ProductSet", "UpbVerdict",
                  "DensityMatrix", "StrengthReport", "ThetaValue",
                  "Decomposition", "LeeResult")

def hidden(default=()):
    return dataclasses.field(default=default, repr=False, compare=False)


def twin(name, fields):
    return dataclasses.make_dataclass(name, fields, frozen=True)


DECOMP = Decomposition((1.0,), ((1.0, 0.0),))   # hashable, unlike arrays
COLORED = edge_colored_graph(2, {(0, 1): {0}})

# class, its twin, and argument tuples (positional, then keywords); among
# each class's tuples some give equal records and some do not
CASES = [
    (Tolerances, twin("Tolerances", [("atol", float,
                                      dataclasses.field(default=1e-9))]),
     [((), {}), ((1e-9,), {}), ((0.5,), {}), ((), {"atol": 0.5})]),
    (Graph, twin("Graph", [("n", int), ("edges", frozenset)]),
     [((3, frozenset()), {}), ((3, frozenset({(0, 1)})), {}),
      ((3,), {"edges": frozenset({(0, 1)})}),
      ((), {"edges": frozenset(), "n": 4})]),
    (GaloisField, twin("GaloisField", [("p", int), ("degree", int),
                                       ("s", int, dataclasses.field(default=0))]),
     [((5, 1), {}), ((5, 1, 0), {}), ((3, 2, 2), {}),
      ((3,), {"degree": 2, "s": 2}), ((7, 1), {"s": 0})]),
    (UpbVerdict, twin("UpbVerdict", [
        ("status", str), ("condition1", bool),
        ("witness", object, dataclasses.field(default=None)),
        ("certificate", object, dataclasses.field(default=None)),
        ("colored_graph", object, hidden(None)), ("checks", tuple, hidden())]),
     [(("UPB", True), {}), (("UPB", True, None, None, COLORED), {}),
      (("UPB", True), {"checks": (("gram", 0.0),)}),
      (("CertifiedUnextendible", True), {"certificate": (2, 2)}),
      (("CertifiedUnextendible", True, None, (2, 2)), {"checks": ("walk",)}),
      (("Extendible", True, (1.0, 2.0)), {})]),
    (LeeResult, twin("LeeResult", [
        ("value", float), ("best", object), ("restarts_used", int),
        ("converged", bool), ("seed", int), ("restart_values", tuple, hidden()),
        ("iterations", tuple, hidden()), ("evaluations", tuple, hidden())]),
     [((0.25, DECOMP, 4, True, 7), {}),
      ((0.25, DECOMP, 4, True, 7, (0.3, 0.25), (9, 8), (20, 18)), {}),
      ((0.25, DECOMP, 4, True, 7), {"iterations": (1,), "evaluations": (2,)}),
      ((0.25, DECOMP, 4), {"converged": False, "seed": 7}),
      ((0.5,), {"best": DECOMP, "restarts_used": 4, "converged": True,
                "seed": 7, "restart_values": (0.5,)})]),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, ref, calls", CASES, ids=IDS)
def test_fields_eq_hash_repr_match_dataclass(cls, ref, calls):
    for args, kwargs in calls:
        got, want = cls(*args, **kwargs), ref(*args, **kwargs)
        assert vars(got) == vars(want)   # hidden fields too
        assert repr(got) == repr(want)
        assert hash(got) == hash(want)
        assert got == cls(*args, **kwargs)
        assert got != want and want != got   # another class is never equal
    for (a1, k1), (a2, k2) in itertools.combinations(calls, 2):
        assert (cls(*a1, **k1) == cls(*a2, **k2)) == (ref(*a1, **k1)
                                                      == ref(*a2, **k2))


@pytest.mark.parametrize("cls, ref, calls", CASES, ids=IDS)
def test_frozen_like_dataclass(cls, ref, calls):
    args, kwargs = calls[0]
    for obj in (cls(*args, **kwargs), ref(*args, **kwargs)):
        for name in (*inspect.signature(ref).parameters, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)


@pytest.mark.parametrize("cls, ref, calls", CASES, ids=IDS)
def test_bad_arguments_type_error_like_dataclass(cls, ref, calls):
    names = list(inspect.signature(ref).parameters)
    full = ref(*calls[0][0], **calls[0][1])
    args = tuple(getattr(full, n) for n in names)   # every field, in order
    bad = [(args + (0,), {}), (args, {"other": 0}), (args[:-1], {"x": 0}),
           (args, {names[0]: args[0]}), (args, {names[-1]: args[-1]})]
    if cls is not Tolerances:   # the one class whose fields all have defaults
        bad += [((), {}), (args[:1], {})]
    for a, k in bad:
        with pytest.raises(TypeError):
            ref(*a, **k)
        with pytest.raises(TypeError):
            cls(*a, **k)


def test_signature_lists_fields_and_defaults():
    assert str(inspect.signature(GaloisField)) == "(p, degree, s=0)"
    assert GaloisField(5, 1).s == 0 and GaloisField.s == 0


def test_post_init_validates_every_way_of_calling():
    for args, kwargs in [((0.0,), {}), ((), {"atol": -1.0}),
                         ((float("inf"),), {})]:
        with pytest.raises(ValueError):
            Tolerances(*args, **kwargs)


def test_equality_ignores_diagnostic_fields():
    lee = [LeeResult(0.25, DECOMP, 4, True, 7, v, i, e) for v, i, e in
           [((), (), ()), ((0.3, 0.25), (9, 8), (20, 18)), ((1.0,), (), (2,))]]
    assert lee[0] == lee[1] == lee[2]
    assert len({hash(r) for r in lee}) == 1
    assert "restart_values" not in repr(lee[1])
    verdicts = [UpbVerdict("UPB", True, None, (2, 2), g, c) for g, c in
                [(None, ()), (COLORED, (("gram", 0.0), ("walk", None)))]]
    assert verdicts[0] == verdicts[1]
    assert hash(verdicts[0]) == hash(verdicts[1])
    assert repr(verdicts[1]) == ("UpbVerdict(status='UPB', condition1=True, "
                                 "witness=None, certificate=(2, 2))")
    assert verdicts[0] != UpbVerdict("UPB", True, None, (2, 3))


def test_full_vectors_built_once_and_read_only():
    ps = one_param_upb(np.pi / 3)
    first = ps.full_vectors()
    assert ps.full_vectors() is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0


def _package_classes():
    for info in pkgutil.iter_modules(ctxupb.__path__):
        module = importlib.import_module(f"ctxupb.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def test_no_dataclass_in_package():
    classes = list(_package_classes())
    assert not [c for c in classes if hasattr(c, "__dataclass_fields__")]
    records = sorted(c.__name__ for c in classes if issubclass(c, Record)
                     and c is not Record)
    assert records == sorted(RECORD_CLASSES)


def test_fresh_import_processes_no_dataclass(monkeypatch):
    """Importing ctxupb.cli afresh, as on every CLI call, builds no class
    through dataclasses."""
    processed = []
    original = dataclasses._process_class

    def counting(cls, *args, **kwargs):
        processed.append(cls.__qualname__)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(dataclasses, "_process_class", counting)
    ours = [n for n in sys.modules if n == "ctxupb" or n.startswith("ctxupb.")]
    saved = {n: sys.modules.pop(n) for n in ours}
    try:
        importlib.import_module("ctxupb.cli")
    finally:
        for n in [n for n in sys.modules
                  if n == "ctxupb" or n.startswith("ctxupb.")]:
            del sys.modules[n]
        sys.modules.update(saved)
    assert processed == []
