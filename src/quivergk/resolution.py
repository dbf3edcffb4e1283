"""Directed partitions of positive roots and the resolution data they induce.

A directed partition splits a set of positive roots into blocks that are
mutually non-negative under the Euler form within each block, and
one-directional across blocks.  Each block contributes a segment of
(vertex, rank) steps; the concatenated steps drive the recursive operator
formula in :mod:`quivergk.engine`, and also carry enough information to
compute the orbit closure's codimension directly.

Pairings are looked up in the Euler table of positive roots that membership
reads too, so a vector that is not a positive root raises ``QuiverError``.
Greedy blocks read it once per quiver, as per-root bitmasks (``greedy_block``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

from .partitions import integers, sequence
from .quiver import (
    OrbitSpec,
    Quiver,
    QuiverError,
    Vector,
    _euler_table,
    check_roots,
    positive_roots,
    source_rank,
)


@dataclass(frozen=True)
class DirectedPartition:
    """Ordered blocks of roots; order matters across blocks."""

    blocks: tuple[tuple[Vector, ...], ...]

    def __post_init__(self) -> None:
        blocks = (map(integers, sequence(blk)) for blk in sequence(self.blocks))
        blocks = (sorted(blk, key=lambda d: (sum(d), d)) for blk in blocks)
        object.__setattr__(self, "blocks", tuple(map(tuple, blocks)))

    @classmethod
    def _trusted(cls, blocks: tuple[tuple[Vector, ...], ...]) -> "DirectedPartition":
        """Wrap ``blocks`` as is: tuples of roots, each block in (sum, d) order."""
        self = object.__new__(cls)
        object.__setattr__(self, "blocks", blocks)
        return self

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

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], ranks: tuple[int, ...]) -> "ResolutionPair":
        """Wrap the tuples as is: ints, equally long, ranks positive."""
        self = object.__new__(cls)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "ranks", ranks)
        return self

    def __len__(self) -> int:
        return len(self.vertices)

    def steps(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.vertices, self.ranks))


def validate_directed(q: Quiver, dp: DirectedPartition) -> None:
    """Raise unless the blocks are non-empty, disjoint and directed."""
    roots = dp.roots
    form = check_roots(q, roots)
    if not all(dp.blocks):
        raise QuiverError("empty block")
    if len(set(roots)) < len(roots):
        raise QuiverError("a root appears twice")
    done = 0
    for blk in dp.blocks:
        done += len(blk)
        for a in blk:
            for b in blk + roots[done:]:
                if form[a, b] < 0:
                    raise QuiverError(f"<{a},{b}> = {form[a, b]} < 0")
            for b in roots[done:]:
                if form[b, a] > 0:
                    raise QuiverError(f"<{b},{a}> = {form[b, a]} > 0 across blocks")


def directed_partition_from_blocks(q: Quiver, blocks: Iterable[Iterable[Vector]]) -> DirectedPartition:
    dp = DirectedPartition(tuple(blocks))
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


def directed_partition(q: Quiver, roots: Iterable[Vector]) -> DirectedPartition:
    """Greedy directed partition: peel greedy blocks until exhausted.  Each
    pairs non-negatively with every root left and none of those dominates
    it, so the output is directed by construction and is not validated."""
    rest = set(map(integers, sequence(roots)))
    check_roots(q, rest)
    todo = sorted(map(_root_masks(q).__getitem__, rest))  # by bit: positive_roots order
    left = sum(t[0] for t in todo)
    blocks = []
    while todo:
        block = [t for t in todo if not t[1] & left]
        outside = left - sum(t[0] for t in block)
        while drop := [t for t in block if t[2] & outside]:
            block = [t for t in block if not t[2] & outside]
            outside += sum(t[0] for t in drop)
        blocks.append(tuple(t[3] for t in block))
        left = outside
        todo = [t for t in todo if t[0] & left]
    return DirectedPartition._trusted(tuple(blocks))


@cache
def _step_table(q: Quiver) -> tuple[tuple[int, ...], tuple[Vector, ...], tuple[Vector, ...]]:
    """Per-quiver facts of the steps: the vertices in topological order
    (longest-path rank, ties by vertex index), then per vertex v (index v;
    index 0 unused) the tails of its in-arrows and the sorted heads of its
    out-arrows, a parallel arrow once per copy."""
    order = tuple(v for _, v in sorted(zip(source_rank(q), range(1, q.n + 1))))
    tails = tuple(tuple(t for t, h in q.arrows if h == v) for v in range(q.n + 1))
    heads = tuple(tuple(sorted(h for t, h in q.arrows if t == v)) for v in range(q.n + 1))
    return order, tails, heads


def resolution_pair(q: Quiver, orbit: OrbitSpec, dp: DirectedPartition) -> ResolutionPair:
    """Steps of the resolution attached to an orbit and a directed partition.

    Every block contributes its weighted root sum p = sum of m_alpha alpha;
    the vertices carrying a non-zero coordinate are listed in topological
    order (``_step_table``) with p as their ranks.  Roots of the partition
    outside the orbit's support weigh zero and add nothing.
    """
    mult, roots = dict(orbit.mults), dp.roots
    if mult.keys() - set(roots):
        raise QuiverError("directed partition misses roots of the orbit")
    check_roots(q, roots)
    order = _step_table(q)[0]
    steps = []
    for blk in dp.blocks:
        p = [0] * q.n
        for root in blk:
            if m := mult.get(root):
                p = [x + m * y for x, y in zip(p, root)]
        steps += [(v, p[v - 1]) for v in order if p[v - 1]]
    return ResolutionPair._trusted(tuple(v for v, _ in steps), tuple(r for _, r in steps))


def pair_stages(
    q: Quiver, e: Iterable[int], pair: ResolutionPair
) -> Iterator[tuple[int, int, Vector]]:
    """Walk the steps of ``pair`` left to right over the dimension vector
    ``e``: yield each step's vertex v, rank r and the stage vector it acts
    on, then take r away at v.

    Raises QuiverError when v is not a vertex of ``q`` or r exceeds the
    stage dimension at v.
    """
    cur = list(q.check_vector(e))
    for v, r in pair.steps():
        if not 1 <= v <= q.n:
            raise QuiverError(f"step vertex {v} out of range 1..{q.n}")
        if r > cur[v - 1]:
            raise QuiverError(f"rank {r} exceeds stage dimension {cur[v - 1]} at vertex {v}")
        yield v, r, tuple(cur)
        cur[v - 1] -= r


def rectangle_width(q: Quiver, stage: Vector, v: int, r: int) -> int:
    """Width c of the r x c rectangle that step (v, r) over stage vector
    ``stage`` prepends: the rank of the arrows into v, less s_v - r."""
    return sum([stage[t - 1] for t in _step_table(q)[1][v]]) - stage[v - 1] + r


def codim(q: Quiver, e: Iterable[int], pair: ResolutionPair) -> int:
    """Codimension of the image of the resolution inside the representation
    space: ambient dimension minus total space dimension.

    Each step (v, r) over stage vector s trades r(s_v - r) fibre directions
    for r * rank(M_v) zero-locus equations, with stages consumed left to
    right; the difference is the area r * c of the rectangle it prepends.
    """
    return sum(r * rectangle_width(q, stage, v, r) for v, r, stage in pair_stages(q, e, pair))
