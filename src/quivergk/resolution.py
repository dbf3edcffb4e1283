"""Directed partitions of positive roots and the resolution data they induce.

A directed partition splits a set of positive roots into blocks that are
mutually non-negative under the Euler form within each block, and
one-directional across blocks.  Each block contributes a segment of
(vertex, rank) steps; the concatenated steps drive the recursive operator
formula in :mod:`quivergk.engine`, and also carry enough information to
compute the orbit closure's codimension directly.

An orbit's steps come in one pass (``orbit_steps``): its roots are looked up in
per-quiver bitmasks of the Euler form (a vector that is not a positive root raises
``QuiverError``), greedy blocks are peeled on them, and each block's weighted root
sum gives steps walked over a stage vector that runs down from the orbit's dimension
vector.  ``directed_partition`` shares the peel; ``pair_steps`` and ``codim`` the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .partitions import instance, integers, sequence
from .quiver import (
    OrbitSpec,
    Quiver,
    QuiverError,
    Vector,
    _euler_table,
    check_roots,
    positive_roots,
)


@dataclass(frozen=True)
class DirectedPartition:
    """Ordered blocks of roots; order matters across blocks."""

    blocks: tuple[tuple[Vector, ...], ...]

    def __post_init__(self) -> None:
        blocks = (map(integers, sequence(blk)) for blk in sequence(self.blocks))
        blocks = (sorted(blk, key=lambda d: (sum(d), d)) for blk in blocks)
        object.__setattr__(self, "blocks", tuple(map(tuple, blocks)))

    @property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(r for blk in self.blocks for r in blk)


@dataclass(frozen=True)
class ResolutionPair:
    """The (vertex, rank) step sequence extracted from a directed partition."""

    vertices: tuple[int, ...]
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", integers(self.vertices))
        object.__setattr__(self, "ranks", integers(self.ranks))
        if len(self.vertices) != len(self.ranks):
            raise QuiverError("vertex and rank lists differ in length")
        if any(r < 1 for r in self.ranks):
            raise QuiverError("ranks must be positive")

    def steps(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.vertices, self.ranks))


def validate_directed(q: Quiver, dp: DirectedPartition) -> None:
    """Raise unless the blocks are non-empty, disjoint and directed (``_check_directed``)."""
    blocks = instance(dp, DirectedPartition).blocks
    _check_directed(q, [_weigh(q, [(r, 0) for r in blk]) for blk in blocks])


def directed_partition_from_blocks(q: Quiver, blocks: Iterable[Iterable[Vector]]) -> DirectedPartition:
    dp = DirectedPartition(blocks)
    validate_directed(q, dp)
    return dp


@cache
def _root_masks(q: Quiver) -> dict[Vector, tuple[int, int, int, Vector]]:
    """Per positive root a: (its bit, the bits of the roots b with <a, b> < 0,
    of those with <b, a> > 0, a); the k-th of ``positive_roots`` has bit 1 << k."""
    roots, form = positive_roots(q), _euler_table(q)
    bits = lambda keep: sum(1 << k for k, b in enumerate(roots) if keep(b))
    return {
        a: (1 << k, bits(lambda b: form[a, b] < 0), bits(lambda b: form[b, a] > 0), a)
        for k, a in enumerate(roots)
    }


def greedy_block(q: Quiver, roots: Iterable[Vector]) -> tuple[Vector, ...]:
    """First block of the greedy directed partition of ``roots``: keep the
    roots a with <a, b> >= 0 for every b, then drop in passes every a with
    <b, a> > 0 for some b outside, until none is left to drop.  It is never
    empty: the path algebra is representation-directed (Ringel, LNM 1099),
    so Hom(M_b, M_a) != 0 or Ext^1(M_a, M_b) != 0 puts b before a, and a
    root with none of ``roots`` before it passes both filters.  Each test
    ANDs a's bitmask of the b with <a, b> < 0 (<b, a> > 0) with the roots
    given (outside): the same pairwise test, so the same fixpoint."""
    blocks = directed_partition(q, roots).blocks
    if not blocks:
        raise QuiverError("no roots given")
    return blocks[0]


def _weigh(q: Quiver, mults: Sequence[tuple[Vector, int]]) -> list[tuple]:
    """Each (root, multiplicity) as its ``_root_masks`` entry, the multiplicity appended.
    The lookup is the root check: a vector that is not a positive root raises QuiverError."""
    masks = _root_masks(q)
    try:
        return [masks[r] + (m,) for r, m in mults]
    except KeyError:
        check_roots(q, [r for r, _ in mults])  # names the vector that is not a root
        raise


def _check_directed(q: Quiver, blocks: list[list[tuple]]) -> None:
    """Raise unless the blocks of ``_weigh`` entries are non-empty, hold no root twice and are
    directed: no root a has <a, b> < 0 for a b in its own block or a later one, nor <b, a> > 0
    for a b in a later one.  Each test ANDs one of a's bitmasks with the roots from there on."""
    bits = [t[0] for blk in blocks for t in blk]
    if not all(blocks):
        raise QuiverError("empty block")
    if len(set(bits)) < len(bits):
        raise QuiverError("a root appears twice")
    left = sum(bits)
    for blk in blocks:
        later = left - sum([t[0] for t in blk])
        for _, neg, pos, a, _ in blk:
            if neg & left or pos & later:
                b = positive_roots(q)[(neg & left or pos & later).bit_length() - 1]
                raise QuiverError(f"<{a},{b}> < 0" if neg & left else f"<{b},{a}> > 0 across blocks")
        left = later


def _peel(todo: list[tuple]) -> list[list[tuple]]:
    """The greedy blocks (``greedy_block``) of ``_weigh``'s entries, each in the order given.
    Each pairs non-negatively with every root left, none of which dominates it: directed."""
    blocks, left = [], sum([t[0] for t in todo])
    while left:
        block = [t for t in todo if not t[1] & left]
        outside = left - sum([t[0] for t in block])
        while drop := [t for t in block if t[2] & outside]:
            block = [t for t in block if not t[2] & outside]
            outside += sum([t[0] for t in drop])
        blocks.append(block)
        left, todo = outside, [t for t in todo if t[0] & outside]
    return blocks


def directed_partition(q: Quiver, roots: Iterable[Vector]) -> DirectedPartition:
    """Greedy directed partition: peel greedy blocks until exhausted."""
    todo = sorted(_weigh(q, [(r, 1) for r in set(map(integers, sequence(roots)))]))
    return DirectedPartition(tuple(tuple(t[3] for t in blk) for blk in _peel(todo)))


def _walk(q: Quiver, cur: list[int], steps: Iterable[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Steps (v, r) as (v, r, c), left to right over the stage vector ``cur``, which loses r at v
    after each: c is the width of the r x c rectangle the step prepends, the rank of the arrows
    into v less s_v - r.  A v outside 1..n or an r outside 0..s_v raises QuiverError."""
    tails, out = q.tails, []
    for v, r in steps:
        if not 1 <= v <= q.n:
            raise QuiverError(f"step vertex {v} out of range 1..{q.n}")
        if not 0 <= r <= cur[v - 1]:
            raise QuiverError(f"rank {r} is not in 0..{cur[v - 1]} at vertex {v}")
        out.append((v, r, sum([cur[t - 1] for t in tails[v]]) - cur[v - 1] + r))
        cur[v - 1] -= r
    return out


def orbit_steps(q: Quiver, orbit: OrbitSpec, dp: DirectedPartition | None = None) -> list[tuple]:
    """The steps (v, r, c) of the resolution of an orbit and a directed partition, by default
    the greedy one of its support, in one pass: each block's weighted root sum p = sum of
    m_alpha alpha gives the vertices with p_v != 0 in topological order, ranks p_v, walked
    down from ``orbit.dim``.  Roots of ``dp`` outside the support weigh zero, and a ``dp`` that
    is not directed raises ``QuiverError`` (``_check_directed``); the greedy one is by making."""
    mults = instance(orbit, OrbitSpec).mults
    if dp is None:
        blocks = _peel(_weigh(q, mults))
    else:
        mult = dict(mults)
        if mult.keys() - set(instance(dp, DirectedPartition).roots):
            raise QuiverError("directed partition misses roots of the orbit")
        blocks = [_weigh(q, [(r, mult.get(r, 0)) for r in blk]) for blk in dp.blocks]
        _check_directed(q, blocks)
    steps = []
    for blk in blocks:
        p = [0] * q.n
        for t in blk:
            p = [x + t[4] * y for x, y in zip(p, t[3])]
        steps += [(v, p[v - 1]) for v in q.order if p[v - 1]]
    return _walk(q, list(orbit.dim), steps)


def resolution_pair(q: Quiver, orbit: OrbitSpec, dp: DirectedPartition | None = None) -> ResolutionPair:
    """The (vertex, rank) steps of ``orbit_steps(q, orbit, dp)``, by default of the greedy partition."""
    steps = orbit_steps(q, orbit, dp)
    return ResolutionPair(tuple(s[0] for s in steps), tuple(s[1] for s in steps))


def pair_steps(q: Quiver, e: Iterable[int], pair: ResolutionPair) -> list[tuple[int, int, int]]:
    """The steps (v, r, c) of ``pair`` walked over the dimension vector ``e``, which the pair
    must resolve in full: a stage left non-zero after the last step raises QuiverError."""
    cur = list(instance(q, Quiver).check_vector(e))
    steps = _walk(q, cur, instance(pair, ResolutionPair).steps())
    if any(cur):
        raise QuiverError(f"the pair leaves the stage vector {tuple(cur)} unresolved")
    return steps


def codim(q: Quiver, e: Iterable[int], pair: ResolutionPair) -> int:
    """Codimension of the image of the resolution inside the representation
    space: ambient dimension minus total space dimension.

    Each step (v, r) over stage vector s trades r(s_v - r) fibre directions
    for r * rank(M_v) zero-locus equations, with stages consumed left to
    right; the difference is the area r * c of the rectangle it prepends.
    """
    return sum(r * c for _, r, c in pair_steps(q, e, pair))
