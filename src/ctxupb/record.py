"""Record, the frozen base of the package's value classes. A subclass lists
its fields as annotations, each with an optional plain default or hidden(),
and behaves like a dataclass(frozen=True) class; the methods are the ones
below, written once for every class, so defining a class generates no code.
"""

from __future__ import annotations

import inspect
from dataclasses import FrozenInstanceError

_EMPTY = inspect.Parameter.empty
_setattr = object.__setattr__


class hidden:
    """The default of a diagnostic field, which repr, == and hash skip."""

    def __init__(self, default):
        self.default = default


class Record:
    def __init_subclass__(cls):
        table, shown = {}, []
        for name in inspect.get_annotations(cls):
            d = vars(cls).get(name, _EMPTY)
            if isinstance(d, hidden):
                d = d.default
                setattr(cls, name, d)   # the class attribute, as in a dataclass
            else:
                shown.append(name)
            table[name] = d
        # ValueError if a field without a default follows one with a default,
        # so the defaults are a tail of _fields
        cls.__signature__ = inspect.Signature(
            [inspect.Parameter(n, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                               default=d) for n, d in table.items()])
        cls._fields = tuple(table)
        cls._defaults = tuple(d for d in table.values() if d is not _EMPTY)
        cls._required = len(table) - len(cls._defaults)
        cls._shown = tuple(shown)   # the fields repr, == and hash read

    def __init__(self, *args, **kwargs):
        if not kwargs and self._required <= len(args) <= len(self._fields):
            args += self._defaults[len(args) - self._required:]
        else:   # keywords, or a TypeError naming what is missing or surplus
            bound = self.__signature__.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        # not self.__dict__.update: on CPython 3.11 a materialised instance
        # dict makes every later attribute read several times slower
        for name, value in zip(self._fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, n) for n in self._shown])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
