"""Directed partitions of positive roots and the resolution data they induce.

A directed partition splits a set of positive roots into blocks that are
mutually non-negative under the Euler form within each block, and
one-directional across blocks.  Each block contributes a segment of
(vertex, rank) steps; the concatenated steps drive the recursive operator
formula in :mod:`quivergk.engine`, and also carry enough information to
compute the orbit closure's codimension directly.

An orbit's steps come in one pass (``orbit_steps``): its roots are looked up in per-quiver bitmasks
of the Euler form (a non-root raises ``QuiverError``) and grouped by level (``_levels``), in type A
among all roots, in D/E among the support; each block's weighted root sum gives steps walked down a
stage vector from ``orbit.dim``.  ``directed_partition`` shares the levels, ``pair_steps`` the walk."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from .partitions import Record, instance, integers, sequence
from .quiver import BIT, LEVEL, NEG, PLACE, POS, ROOT  # the fields of a _root_index entry
from .quiver import (
    OrbitSpec,
    Quiver,
    QuiverError,
    Vector,
    _levels,
    _root_index,
    check_roots,
    positive_roots,
)


class DirectedPartition(Record):
    """Ordered blocks of roots; order matters across blocks."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[Vector, ...], ...]) -> None:
        blocks = (map(integers, sequence(blk)) for blk in sequence(blocks))
        blocks = (sorted(blk, key=lambda d: (sum(d), d)) for blk in blocks)
        object.__setattr__(self, "blocks", tuple(map(tuple, blocks)))

    @property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(r for blk in self.blocks for r in blk)


class ResolutionPair(Record):
    """The (vertex, rank) step sequence extracted from a directed partition."""

    __slots__ = _fields = ("vertices", "ranks")

    def __init__(self, vertices: tuple[int, ...], ranks: tuple[int, ...]) -> None:
        object.__setattr__(self, "vertices", vertices := integers(vertices))
        object.__setattr__(self, "ranks", ranks := integers(ranks))
        if len(vertices) != len(ranks):
            raise QuiverError("vertex and rank lists differ in length")
        if any(r < 1 for r in ranks):
            raise QuiverError("ranks must be positive")

    def steps(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.vertices, self.ranks))


def validate_directed(q: Quiver, dp: DirectedPartition) -> None:
    """Raise unless the blocks are non-empty, disjoint and directed (``_check_directed``)."""
    blocks = instance(dp, DirectedPartition).blocks
    _check_directed(q, [_weigh(q, [(r, 0) for r in blk]) for blk in blocks])


def greedy_block(q: Quiver, roots: Iterable[Vector]) -> tuple[Vector, ...]:
    """First block of the greedy directed partition of ``roots``, whose blocks are levels: a root's
    is the largest of 0, level(b) + 1 over the b with <a, b> < 0 and level(b) over the b != a with
    <b, a> > 0 (``_levels``).  The path algebra is representation-directed (Ringel, LNM 1099), so
    these pairs, Ext^1(M_a, M_b) != 0 and Hom(M_b, M_a) != 0, are acyclic: levels exist."""
    blocks = directed_partition(q, roots).blocks
    if not blocks:
        raise QuiverError("no roots given")
    return blocks[0]


def _weigh(q: Quiver, mults: Sequence[tuple[Vector, int]]) -> list[tuple]:
    """Each (root, multiplicity) as its ``_root_index`` entry, the multiplicity appended.
    The lookup is the root check: a vector that is not a positive root raises QuiverError."""
    index = _root_index(q)
    try:
        return [index[r] + (m,) for r, m in mults]
    except KeyError:
        check_roots(q, [r for r, _ in mults])  # names the vector that is not a root
        raise


def _check_directed(q: Quiver, blocks: list[list[tuple]]) -> None:
    """Raise unless the blocks of ``_weigh`` entries are non-empty, hold no root twice and are
    directed: no root a has <a, b> < 0 for a b in its own block or a later one, nor <b, a> > 0
    for a b in a later one.  Each test ANDs one of a's bitmasks with the roots from there on."""
    bits = [t[BIT] for blk in blocks for t in blk]
    if not all(blocks):
        raise QuiverError("empty block")
    if len(set(bits)) < len(bits):
        raise QuiverError("a root appears twice")
    left = sum(bits)
    for blk in blocks:
        later = left - sum([t[BIT] for t in blk])
        for t in blk:
            if hit := t[NEG] & left or t[POS] & later:
                a, b = t[ROOT], positive_roots(q)[hit.bit_length() - 1]
                raise QuiverError(f"<{a},{b}> < 0" if t[NEG] & left else f"<{b},{a}> > 0 across blocks")
        left = later


def directed_partition(q: Quiver, roots: Iterable[Vector]) -> DirectedPartition:
    """Greedy directed partition (``greedy_block``): the roots' levels, in the index's order."""
    todo = _weigh(q, [(r, 1) for r in set(map(integers, sequence(roots)))])
    return DirectedPartition([[t[ROOT] for t in blk] for blk in _levels(sorted(todo, key=itemgetter(PLACE)))])


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
    """The steps (v, r, c) of the resolution of an orbit and a directed partition, in one pass: each
    block's weighted root sum p = sum of m_alpha alpha, summed from the roots' sparse steps (``_root_index``;
    a one-root block's are its root's times m), gives the vertices with p_v != 0 in topological order,
    ranks p_v, walked down from ``orbit.dim``.  Roots of ``dp`` outside the support weigh zero; a ``dp``
    that is not directed raises ``QuiverError``.  The default's blocks are levels (``_levels``): in type
    A among all roots, read off the index, as tables there do not depend on them (A3-in <= 6 took 24-26
    s, not 32-35 s, with the support's); in D/E among the support, whose codim slice alone is proven."""
    mults = instance(orbit, OrbitSpec).mults
    if dp is None:
        todo = _weigh(q, mults)
        if todo and todo[0][LEVEL] is None:  # D/E: the index stores no level
            blocks = _levels(sorted(todo, key=itemgetter(PLACE)))
        else:
            groups = {}
            for t in todo:
                groups.setdefault(t[LEVEL], []).append(t)
            blocks = [groups[k] for k in sorted(groups)]
    else:
        mult = dict(mults)
        if mult.keys() - set(instance(dp, DirectedPartition).roots):
            raise QuiverError("directed partition misses roots of the orbit")
        blocks = [_weigh(q, [(r, mult.get(r, 0)) for r in blk]) for blk in dp.blocks]
        _check_directed(q, blocks)
    steps = []
    for blk in blocks:
        if len(blk) == 1:
            *_, root_steps, m = blk[0]
            steps += root_steps if m == 1 else [(v, m * x) for v, x in root_steps if m]
            continue
        p = [0] * (q.n + 1)
        for *_, root_steps, m in blk:
            for v, x in root_steps:
                p[v] += m * x
        steps += [(v, p[v]) for v in q.order if p[v]]
    return _walk(q, list(orbit.dim), steps)


def resolution_pair(q: Quiver, orbit: OrbitSpec, dp: DirectedPartition | None = None) -> ResolutionPair:
    """The (vertex, rank) steps of ``orbit_steps(q, orbit, dp)``; by default the pair the table is
    folded from, of the greedy partition of all roots in type A and of the support in D/E."""
    steps = orbit_steps(q, orbit, dp)
    return ResolutionPair(tuple(s[0] for s in steps), tuple(s[1] for s in steps))


def pair_steps(q: Quiver, e: Iterable[int], pair: ResolutionPair) -> list[tuple[int, int, int]]:
    """The steps (v, r, c) of ``pair`` walked over the dimension vector ``e``, which the pair
    must resolve in full: a stage left non-zero after the last step raises QuiverError, as does
    a negative codimension (the sum of r * c; one step's c may be negative, no closure's sum)."""
    cur = list(instance(q, Quiver).check_vector(e))
    steps = _walk(q, cur, instance(pair, ResolutionPair).steps())
    if any(cur):
        raise QuiverError(f"the pair leaves the stage vector {tuple(cur)} unresolved")
    if (cd := sum(r * c for _, r, c in steps)) < 0:
        raise QuiverError(f"the pair has negative codimension {cd}")
    return steps


def codim(q: Quiver, e: Iterable[int], pair: ResolutionPair) -> int:
    """Codimension of the image of the resolution inside the representation
    space: ambient dimension minus total space dimension.

    Each step (v, r) over stage vector s trades r(s_v - r) fibre directions
    for r * rank(M_v) zero-locus equations, with stages consumed left to
    right; the difference is the area r * c of the rectangle it prepends.
    """
    return sum(r * c for _, r, c in pair_steps(q, e, pair))
