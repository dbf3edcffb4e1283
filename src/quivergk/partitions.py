"""The package's input boundary: partitions as plain tuples, the readers
of exact integer input, and the one input error.

Every layer reads integers through ``integers``, the outer levels of
nested input through ``sequence``, and partitions through ``normalize``;
each rejects bad input with ``QuiverError``.
"""

from __future__ import annotations

import operator
from typing import Any, Iterable

Partition = tuple[int, ...]


class QuiverError(ValueError):
    """Bad input to any part of the package: every module raises and re-exports this one."""


def integers(values: Iterable[int]) -> tuple[int, ...]:
    """``values`` as exact ints, the package's one reader of integer input:
    anything without ``__index__`` (0.5, 2.0, "1"), or ``values`` not
    iterable, raises QuiverError rather than being truncated or parsed."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise QuiverError(f"expected integers: {exc}") from None


def sequence(values: Any, length: int | None = None) -> tuple:
    """``values`` as a tuple of ``length`` entries (any if None), else QuiverError:
    the reader of nested input's outer levels, whose innermost ``integers`` reads."""
    try:
        seq = tuple(values)
    except TypeError as exc:
        raise QuiverError(str(exc)) from None
    if length is not None and len(seq) != length:
        raise QuiverError(f"expected {length} entries, got {seq}")
    return seq


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
