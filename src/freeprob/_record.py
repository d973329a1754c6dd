"""Value classes with named fields, without ``dataclasses``.

A ``Record`` subclass names its fields, in order, in ``_fields`` and sets them
in its own ``__init__``.  It gets the equality and repr of a dataclass:
instances of the same class are equal when their field tuples are, and the
repr lists the fields by name.  Mutable records are unhashable.  A
``FrozenRecord`` also hashes its field tuple and refuses assignment, as
``dataclass(frozen=True)`` does; its ``__init__`` fills ``__dict__`` directly.

``import dataclasses`` brings ``inspect`` and builds each class by ``exec``;
together they were a third of ``import freeprob.cli`` (notes/decisions.md).
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._fields:  # _key: the field tuple, read by one attrgetter
            get = attrgetter(*cls._fields)
            cls._key = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
