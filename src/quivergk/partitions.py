"""The package's input boundary: partitions as plain tuples, the readers
of exact integer input, the one input error and the immutable ``Record``
that the package's records are built on.

Every layer reads integers through ``integers``, the outer levels of
nested input through ``sequence``, and partitions through ``normalize``;
each rejects bad input with ``QuiverError``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable

Partition = tuple[int, ...]


class QuiverError(ValueError):
    """Bad input to any part of the package: every module raises and re-exports this one."""


class Record:
    """An immutable record whose fields are the class's ``_fields``, each stored once by its
    ``__init__`` with ``object.__setattr__``: equal to a record of the same class with equal fields,
    hashed as the field tuple and shown as ``Name(f=v, ...)``.  Records key memos, so assigning or
    deleting an attribute raises AttributeError."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), self._values()


def integers(values: Iterable[int]) -> tuple[int, ...]:
    """``values`` as exact ints, the package's one reader of integer input:
    anything without ``__index__`` (0.5, 2.0, "1"), or ``values`` not
    iterable, raises QuiverError rather than being truncated or parsed."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise QuiverError(f"expected integers: {exc}") from None


def sequence(values: object, length: int | None = None) -> tuple:
    """``values`` as a tuple of ``length`` entries (any if None), else QuiverError:
    the reader of nested input's outer levels, whose innermost ``integers`` reads."""
    try:
        seq = tuple(values)
    except TypeError as exc:
        raise QuiverError(str(exc)) from None
    if length is not None and len(seq) != length:
        raise QuiverError(f"expected {length} entries, got {seq}")
    return seq


def instance(value: object, cls: type) -> object:
    """``value`` if it is a ``cls``, else QuiverError: the reader of the package's own types."""
    if not isinstance(value, cls):
        raise QuiverError(f"expected {cls.__name__}, got {type(value).__name__}")
    return value


def normalize(parts: Iterable[int]) -> Partition:
    """Canonical form of a partition: trailing zeros stripped.

    Raises QuiverError if an entry is not an integer, is negative or
    increases.
    """
    seq = integers(parts)
    if any(a < b for a, b in zip(seq, seq[1:])):
        raise QuiverError(f"not weakly decreasing: {seq}")
    if seq and seq[-1] < 0:
        raise QuiverError(f"negative part in {seq}")
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq
