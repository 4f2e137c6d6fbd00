"""``dataclass(slots=True)`` for every supported Python, 3.9 included.

A DES fleet holds several dataclass instances per station and one per
queued port report; an instance ``__dict__`` costs more than the fields
it holds.  :func:`slotted` rebuilds a dataclass with one slot per field
and no ``__dict__``, as ``dataclass(slots=True)`` does from 3.10 on.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields
from typing import Type, TypeVar

T = TypeVar("T")


def slotted(cls: Type[T]) -> Type[T]:
    """``cls``, a dataclass, rebuilt with ``__slots__`` for its fields.

    A frozen class also gets a ``__reduce__`` through its constructor:
    pickle and ``copy`` would otherwise restore slot state with
    ``setattr``, which a frozen class refuses; so every field of a
    frozen class must be an ``__init__`` argument.  Its ``__setattr__``
    and ``__delattr__`` are replaced too: the generated ones name the
    class they were made for, not the rebuilt one, and would raise
    ``TypeError`` for a name that is not a field.
    """
    names = tuple(field.name for field in fields(cls))
    namespace = {
        key: value
        for key, value in cls.__dict__.items()
        if key not in names and key not in ("__dict__", "__weakref__")
    }
    namespace["__slots__"] = names
    if cls.__dataclass_params__.frozen:  # type: ignore[attr-defined]

        def __reduce__(self):
            return (type(self), tuple(getattr(self, name) for name in names))

        def __setattr__(self, name, value):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise FrozenInstanceError(f"cannot delete field {name!r}")

        namespace.update(
            __reduce__=__reduce__, __setattr__=__setattr__, __delattr__=__delattr__
        )
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    rebuilt.__qualname__ = cls.__qualname__
    return rebuilt
