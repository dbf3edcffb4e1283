"""Acyclic quivers of Dynkin type and their orbit data.

Vertices are numbered 1..n.  Orbits of the representation space for a
dimension vector are encoded by root multiplicities.  A representation
V lies in the closure of an orbit when dim Hom(M_alpha, V) is at least
dim Hom(M_alpha, rep(orbit)) for every positive root alpha.  The left
side is solved by fraction-free integer elimination.  The right side
needs no matrices: a Dynkin path algebra is representation-directed
(Ringel, LNM 1099), so dim Hom(M_alpha, M_beta) = max(0, <alpha, beta>)
for the Euler form, and the orbit side is a sum of those.  It is built
once per (quiver, orbit), with the orbit's roots checked; a query checks
only its representation.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from functools import cache
from itertools import accumulate
from operator import mul

from .partitions import QuiverError, Record, instance, integers, sequence

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class Quiver(Record):
    """A finite quiver without directed cycles; parallel arrows allowed.  It keeps, read-only,
    the facts the resolution steps read: ``order``, the vertices in topological order (by
    ``source_rank``, then index), and per vertex v at index v (0 unused) ``tails[v]``, its
    in-arrows' tails, and ``heads[v]``, its out-arrows' sorted heads, one per parallel arrow."""

    __slots__ = ("n", "arrows", "_hash", "order", "tails", "heads")
    _fields = ("n", "arrows")

    def __init__(self, n: int, arrows: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "n", integers((n,))[0])
        if self.n < 1:
            raise QuiverError("need at least one vertex")
        object.__setattr__(self, "arrows", arrows := tuple(map(integers, sequence(arrows))))
        for arrow in arrows:
            if len(arrow) != 2 or not all(1 <= v <= self.n for v in arrow):
                raise QuiverError(f"arrow {arrow} is not a pair in 1..{self.n}")
        object.__setattr__(self, "_hash", hash((self.n, arrows)))
        rank, vs = source_rank(self), range(self.n + 1)  # raises on a cycle
        object.__setattr__(self, "order", tuple(sorted(vs[1:], key=lambda v: (rank[v - 1], v))))
        object.__setattr__(self, "tails", tuple(tuple(t for t, h in arrows if h == v) for v in vs))
        object.__setattr__(self, "heads", tuple(tuple(sorted(h for t, h in arrows if t == v)) for v in vs))

    def __hash__(self) -> int:  # every cache keyed on a quiver hashes it
        return self._hash

    def check_vector(self, d: Iterable[int]) -> Vector:
        vec = integers(d)
        if len(vec) != self.n or any(x < 0 for x in vec):
            raise QuiverError(f"bad dimension vector {vec} for n={self.n}")
        return vec


def opposite(q: Quiver) -> Quiver:
    """The quiver with every arrow reversed.  An orbit carries over with its root
    multiplicities: transposing fixes dimension vectors and matches indecomposables."""
    return Quiver(instance(q, Quiver).n, tuple((h, t) for t, h in q.arrows))


def euler_form(q: Quiver, a: Iterable[int], b: Iterable[int]) -> int:
    """The (non-symmetric) homological bilinear form of the quiver."""
    av, bv = integers(a), integers(b)
    if len(av) != instance(q, Quiver).n or len(bv) != q.n:
        raise QuiverError(f"vectors {av}, {bv} do not both have {q.n} entries")
    total = sum(x * y for x, y in zip(av, bv))
    for t, h in q.arrows:
        total -= av[t - 1] * bv[h - 1]
    return total


def tits_form(q: Quiver, d: Iterable[int]) -> int:
    dv = integers(d)
    return euler_form(q, dv, dv)


def source_rank(q: Quiver) -> Vector:
    """Longest-path distance from the sources, per vertex (a topological rank).

    The arrows are relaxed pass by pass until a pass changes nothing.  A
    longest path has at most n - 1 arrows, so an acyclic quiver settles
    by pass n; a rank still moving in pass n means a directed cycle, which
    raises ``QuiverError``.
    """
    rank = [0] * (instance(q, Quiver).n + 1)
    for _ in range(q.n):
        moved = False
        for t, h in q.arrows:
            if rank[h] <= rank[t]:
                rank[h] = rank[t] + 1
                moved = True
        if not moved:
            return tuple(rank[1:])
    raise QuiverError("quiver has a directed cycle")


# ---------------------------------------------------------------------------
# Dynkin type


def is_dynkin(q: Quiver) -> bool:
    """Whether every component of ``q`` is of type A, D or E.

    By Gabriel's theorem these are the quivers whose Tits form is
    positive definite.  Sylvester's criterion tests that on the symmetric
    Tits matrix (2 on the diagonal, minus the number of arrows between i
    and j off it): every leading principal minor must be positive.
    Fraction-free (Bareiss) elimination without pivoting leaves those
    minors, exactly, as its pivots.
    """
    m = [[2 * (i == j) for j in range(q.n)] for i in range(instance(q, Quiver).n)]
    for t, h in q.arrows:
        m[t - 1][h - 1] -= 1
        m[h - 1][t - 1] -= 1
    prev = 1
    for k in range(q.n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, q.n):
            for j in range(k + 1, q.n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return True


def dynkin_type(q: Quiver) -> str:
    """Simply-laced type of the underlying graph, per component.

    Returns e.g. "A3", "D4", or "A1+A2" for disconnected quivers, in order
    of each component's smallest vertex; a Tits form that is not positive
    definite (Gabriel, see ``is_dynkin``) makes the answer "not-Dynkin".
    A component is the support of a root whose support no other root's
    support contains (its highest root), and its n vertices and R roots
    name it: R = n(n+1)/2 for A_n, n(n-1) for D_n, and 36, 63 or 120 for
    E6, E7 or E8.  No two types with equally many vertices share R.
    """
    if not is_dynkin(q):
        return "not-Dynkin"
    supports = [frozenset(i for i, x in enumerate(r) if x) for r in positive_roots(q)]
    labels = []
    for comp in sorted({s for s in supports if not any(s < t for t in supports)}, key=min):
        n, count = len(comp), sum(s <= comp for s in supports)
        letter = "A" if 2 * count == n * (n + 1) else "D" if count == n * (n - 1) else "E"
        labels.append(f"{letter}{n}")
    return "+".join(labels)


# ---------------------------------------------------------------------------
# roots and orbits

@cache
def positive_roots(q: Quiver) -> tuple[Vector, ...]:
    """All positive roots of a Dynkin quiver, in graded lexicographic order.

    Simple-root closure: start from the simple roots and add a simple
    root to each root found while the Tits form stays 1.  Two classical
    facts make this exact.  By Gabriel's theorem the positive roots are
    the non-zero non-negative vectors of Tits form 1; and in a
    simply-laced finite root system every non-simple positive root
    beta has a simple alpha_i with beta - alpha_i a positive root
    (Bourbaki, Lie Groups VI 1.6), so each root is reached.  A vector
    spread over two components has Tits form at least 2, so disconnected
    quivers need no special case.  The closure ends because the Tits form
    is positive definite (Sylvester's criterion in ``is_dynkin``, which
    runs first): a definite integral form takes the value 1 on finitely
    many vectors.  On any other quiver it may run forever.
    As q(beta + alpha_v) = q(beta) + 1 + (beta, alpha_v), a root beta grows by alpha_v
    exactly when (beta, alpha_v) = 2 beta_v - sum of beta over v's arrows' other ends = -1.
    """
    if not is_dynkin(q):
        raise QuiverError("positive roots need a Dynkin quiver, got not-Dynkin")
    simple = [tuple(int(j == i) for j in range(q.n)) for i in range(q.n)]
    ends = [q.tails[v] + q.heads[v] for v in range(1, q.n + 1)]
    roots = set(simple)
    frontier = simple
    while frontier:
        grown = []
        for beta in frontier:
            for i, near in enumerate(ends):
                if 2 * beta[i] - sum([beta[t - 1] for t in near]) == -1:
                    raised = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                    if raised not in roots:
                        roots.add(raised)
                        grown.append(raised)
        frontier = grown
    return tuple(sorted(roots, key=lambda d: (sum(d), d)))


class OrbitSpec(Record):
    """An orbit of the representation space, as root multiplicities.

    ``mults`` lists (root, multiplicity) with multiplicity >= 1, sorted by
    root in graded lexicographic order; the multiplicities must sum to
    ``dim`` root-wise.
    """

    __slots__ = ("dim", "mults", "_hash")
    _fields = ("dim", "mults")

    def __init__(self, dim: Vector, mults: tuple[tuple[Vector, int], ...]) -> None:
        object.__setattr__(self, "dim", dim := integers(dim))
        pairs = (sequence(rm, 2) for rm in sequence(mults))
        mults = ((integers(r), integers((m,))[0]) for r, m in pairs)
        object.__setattr__(self, "mults", mults := tuple(sorted(mults, key=lambda rm: (sum(rm[0]), rm[0]))))
        if any(m < 1 for _, m in mults):
            raise QuiverError("orbit multiplicities must be >= 1")
        if len({r for r, _ in mults}) != len(mults):
            raise QuiverError("duplicate root in orbit")
        total = [0] * len(dim)
        for r, m in mults:
            if len(r) != len(dim):
                raise QuiverError("root length does not match dim")
            for i, x in enumerate(r):
                total[i] += m * x
        if tuple(total) != dim:
            raise QuiverError(f"multiplicities sum to {tuple(total)}, dim is {dim}")

    @classmethod
    def _trusted(cls, dim: Vector, mults: tuple[tuple[Vector, int], ...]) -> "OrbitSpec":
        """Wrap the tuples as is: ``mults`` sorted, positive and summing to ``dim``."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "mults", mults)
        return self

    def __hash__(self) -> int:  # computed on first use: a sweep builds orbits it never hashes
        if (h := getattr(self, "_hash", None)) is None:
            object.__setattr__(self, "_hash", h := hash((self.dim, self.mults)))
        return h

    def mult_of(self, root: Vector) -> int:
        for r, m in self.mults:
            if r == root:
                return m
        return 0

    @property
    def support(self) -> tuple[Vector, ...]:
        return tuple(r for r, _ in self.mults)


@cache
def _orbit_plan(q: Quiver) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """What ``orbits`` reads of the roots, once per quiver: (index in ``positive_roots``, vertex,
    root) per simple root in index order, and the non-simple roots by falling index, tallest first
    as the order is graded, each as (index, root, support bitmask, the (i, root_i) of the support)."""
    roots = positive_roots(q)
    simple = sorted((roots.index(tuple(int(j == i) for j in range(q.n))), i) for i in range(q.n))
    tall = []
    for k in range(len(roots) - 1, q.n - 1, -1):
        ent = tuple((i, x) for i, x in enumerate(roots[k]) if x)
        tall.append((k, roots[k], sum(1 << i for i, _ in ent), ent))
    return tuple((k, i, roots[k]) for k, i in simple), tuple(tall)


def orbits(q: Quiver, e: Iterable[int]) -> list[OrbitSpec]:
    """All orbits for dimension vector ``e``: decompositions of ``e`` as a
    non-negative combination of positive roots (Gabriel), ordered by their
    multiplicity vectors over ``positive_roots`` order.

    The walk picks the non-simple roots of non-zero multiplicity, tallest
    first, each with every multiplicity that fits the remainder.  A root
    whose support meets the remainder's zeros cannot fit, and a bitmask
    test skips it.  Once the picks stop, the remainder is a non-negative
    vector, and a non-negative vector is exactly one sum of simple roots,
    so each call of the walk closes one orbit, built from the (root, m)
    pairs picked: its cost is the orbit's support, not the root system.
    The number of calls is the number of orbits, Kostant's partition
    function of ``e``.
    """
    ev = instance(q, Quiver).check_vector(e)
    simple, plan = _orbit_plan(q)
    zeros = sum(1 << i for i, x in enumerate(ev) if not x)
    found: list[tuple[tuple[tuple[int, int], ...], OrbitSpec]] = []

    # the picks come by falling index, so each is put in front: key and mults stay in index order
    def dfs(start: int, rest: list[int], zeros: int, key: tuple, mults: tuple) -> None:
        for t in range(start, len(plan)):
            k, root, support, ent = plan[t]
            if support & zeros:
                continue
            for m in range(1, min(rest[i] // x for i, x in ent) + 1):
                left, gone = rest[:], zeros
                for i, x in ent:
                    left[i] -= m * x
                    if not left[i]:
                        gone |= 1 << i
                dfs(t + 1, left, gone, ((-k, m),) + key, ((root, m),) + mults)
        # index order is positive_roots order, simple roots first, and the (-k, m) compare as
        # multiplicity vectors do; the sums are exact
        low = [(k, root, rest[i]) for k, i, root in simple if rest[i]]
        key = tuple([(-k, m) for k, _, m in low]) + key
        found.append((key, OrbitSpec._trusted(ev, tuple([(root, m) for _, root, m in low]) + mults)))

    dfs(0, list(ev), zeros, (), ())
    found.sort(key=lambda pair: pair[0])
    return [orbit for _, orbit in found]


# ---------------------------------------------------------------------------
# representations


class QuiverRep(Record):
    """Matrices of a representation; ``mats[k]`` belongs to ``arrows[k]``
    and has shape dims[head] x dims[tail] (row-major tuples)."""

    __slots__ = _fields = ("dims", "mats")

    def __init__(self, dims: Vector, mats: tuple[Matrix, ...]) -> None:
        object.__setattr__(self, "dims", dims := integers(dims))
        if any(x < 0 for x in dims):
            raise QuiverError(f"negative dimension in {dims}")
        object.__setattr__(self, "mats", tuple(tuple(map(integers, sequence(m))) for m in sequence(mats)))


def validate_rep(q: Quiver, rep: QuiverRep) -> None:
    dims = instance(rep, QuiverRep).dims
    if len(dims) != instance(q, Quiver).n or len(rep.mats) != len(q.arrows):
        raise QuiverError("representation shape does not match quiver")
    for (t, h), mat in zip(q.arrows, rep.mats):
        rows, cols = dims[h - 1], dims[t - 1]
        if len(mat) == rows:
            for row in mat:
                if len(row) != cols:
                    break
            else:
                continue
        raise QuiverError(f"matrix for arrow ({t},{h}) is not {rows}x{cols}")


def indecomposable_rep(q: Quiver, root: Iterable[int]) -> QuiverRep:
    """The indecomposable representation M_root of a positive root.

    A 0/1 root gets its interval model: identity maps on arrows inside
    the support, zero elsewhere.  Any other root (types D and E) gets
    integer matrices drawn from a ``random.Random`` seeded by the arrows
    and the root, the first draw with End = k.  End = k makes a
    representation indecomposable, and by Gabriel's theorem the only
    indecomposable of dimension ``root`` is M_root.  Its orbit is dense
    (Ext^1(M_root, M_root) = 0), so the draws that miss it lie on a
    hypersurface and draws soon land in it.  The entry range widens every
    ``_DRAWS_PER_RANGE`` draws, which drives the chance of a miss to zero
    (Schwartz-Zippel), so the loop ends.  Each
    probe is built once per (quiver, root) and shared, which is safe
    because representations are frozen.  A vector that is not a positive
    root raises ``QuiverError``.
    """
    return _probe(q, instance(q, Quiver).check_vector(root))


_DRAWS_PER_RANGE = 16


@cache
def _probe(q: Quiver, rv: Vector) -> QuiverRep:
    check_roots(q, (rv,))
    if max(rv) == 1:  # [1] on arrows inside the support; the rest have a side 0
        return QuiverRep(rv, tuple(((1,) * rv[t - 1],) * rv[h - 1] for t, h in q.arrows))
    rng = random.Random(repr((q.arrows, rv)))
    draws = 0
    while True:
        k = 1 + draws // _DRAWS_PER_RANGE
        draws += 1
        rep = QuiverRep(
            rv,
            tuple(
                tuple(tuple(rng.randint(-k, k) for _ in range(rv[t - 1])) for _ in range(rv[h - 1]))
                for t, h in q.arrows
            ),
        )
        if _solve(_layout(q, rep, rv), rep) == 1:
            return rep


def _bareiss_rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination, row by row, in place.
    Each row under a pivot pv becomes (pv * row - f * top) // prev, f its entry in the pivot
    column, prev the last pivot: a row with f = 0 too, as pv * row // prev.  After k pivots the
    rows under them hold (k+1)-minors (Sylvester's identity), so every division is exact."""
    rows, rank, prev = len(m), 0, 1
    for c in range(len(m[0]) if m else 0):
        for p in range(rank, rows):
            if m[p][c]:
                break
        else:
            continue
        top = m[p]
        m[p], m[rank] = m[rank], top
        pv = top[c]
        for i in range(rank + 1, rows):
            f = m[i][c]
            if f:
                m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], top)]
            elif pv != prev:
                m[i] = [pv * a // prev for a in m[i]]
        prev, rank = pv, rank + 1
        if rank == rows:
            break
    return rank


Layout = tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, int, slice], ...]]
Side = tuple[Vector, tuple[tuple[Layout, int], ...]]  # an orbit's hom column and open probes


def _layout(q: Quiver, f_rep: QuiverRep, e: Vector) -> Layout:
    """Hom(``f_rep``, V) for every V of dims ``e``, V's entries left out.
    The unknowns are beta_i (e_i x f_i), vertex by vertex; arrow k = (t, h)
    gives rows (phi_k beta_t - beta_h psi_k)[x, y] = 0, x < e_h, y < f_t.
    Per row: a base (-psi_k placed, zeros elsewhere) and a fill (k, x, the
    slice of beta_t[:, y] where row x of phi_k goes; t != h, so it misses
    the base's entries).  Returns (number of unknowns, bases, fills)."""
    f = f_rep.dims
    off = [0, *accumulate(x * y for x, y in zip(e, f))]
    bases, fills = [], []
    for k, (t, h) in enumerate(q.arrows):
        for x in range(e[h - 1]):
            for y in range(f[t - 1]):
                base = [0] * off[-1]
                at = off[h - 1] + x * f[h - 1]
                base[at : at + f[h - 1]] = (-row[y] for row in f_rep.mats[k])
                bases.append(tuple(base))
                fills.append((k, x, slice(off[t - 1] + y, off[t], f[t - 1])))
    return off[-1], tuple(bases), tuple(fills)


def _solve(layout: Layout, rep: QuiverRep) -> int:
    """dim Hom(F, ``rep``) from F's ``_layout`` for rep.dims: each row is its base with
    rep's row x of matrix k put in at its fill's slice, built in one pass, and the kernel
    dimension is the unknowns less ``_bareiss_rank``; ``rep`` is trusted to fit the quiver,
    as ``validate_rep`` checks."""
    ncols, bases, fills = layout
    mats, m = rep.mats, []
    for base, (k, x, cut) in zip(bases, fills):
        row = list(base)
        row[cut] = mats[k][x]
        m.append(row)
    return ncols - _bareiss_rank(m)


@cache
def _probe_layout(q: Quiver, root: Vector, e: Vector) -> Layout:
    """``_layout`` of the probe M_root (a positive root of ``q``) for dims ``e``."""
    return _layout(q, _probe(q, root), e)


def hom_dim(q: Quiver, f_rep: QuiverRep, e_rep: QuiverRep) -> int:
    """Dimension of the space of homomorphisms from ``f_rep`` to ``e_rep``.

    A morphism is a tuple of matrices (one per vertex) intertwining the
    arrow maps.  Once both are checked, ``f_rep``'s half of that linear
    system is laid out (``_layout``), ``e_rep``'s matrices fill the rest
    and the kernel dimension is returned (``_solve``).
    """
    validate_rep(q, f_rep)
    validate_rep(q, e_rep)
    return _solve(_layout(q, f_rep, e_rep.dims), e_rep)


# the positions of a ``_root_index`` entry; STEPS is last, where ``orbit_steps`` unpacks it
BIT, NEG, POS, ROOT, PLACE, LEVEL, ROW, STEPS = range(8)


@cache
def _root_index(q: Quiver) -> dict[Vector, tuple]:
    """Per positive root a, in ``positive_roots`` order, built once, a tuple of: BIT 1 << k for the k-th
    root, NEG the bits of the b with <a, b> < 0, POS those of the b with <b, a> > 0, ROOT a, PLACE a round
    of Kahn's algorithm that puts every such b != a in an earlier one, LEVEL in type A its level among all
    roots (``_levels``) and else None, ROW its <a, b> = sum_v (a_v - sum_{t -> v} a_t) b_v over the roots
    b, each b dotted with a's linear form, and STEPS its steps (v, a_v) for a_v != 0 in ``q.order``."""
    roots, tails = positive_roots(q), q.tails
    lins = ([x - sum([a[t - 1] for t in tails[v]]) for v, x in enumerate(a, 1)] for a in roots)
    rows = [tuple([sum(map(mul, lin, b)) for b in roots]) for lin in lins]
    neg = [sum([1 << j for j, x in enumerate(row) if x < 0]) for row in rows]
    pos = [sum([1 << j for j, row in enumerate(rows) if row[k] > 0]) for k in range(len(rows))]
    place: dict[int, int] = {}  # a round's place: the roots placed before it; pos[k] holds k's own bit
    while len(place) < len(roots):
        done = sum([1 << k for k in place])
        place |= {k: len(place) for k in range(len(roots)) if (neg[k] | pos[k]) & ~done == 1 << k}
    blocks = _levels([(1 << k, neg[k], pos[k], k) for k in place]) if max(map(max, roots)) < 2 else []
    level = dict.fromkeys(place) | {t[ROOT]: j for j, blk in enumerate(blocks) for t in blk}
    steps = [tuple((v, a[v - 1]) for v in q.order if a[v - 1]) for a in roots]
    return {a: (1 << k, neg[k], pos[k], a, place[k], level[k], rows[k], steps[k]) for k, a in enumerate(roots)}


def _levels(entries: list[tuple]) -> list[list[tuple]]:
    """The greedy directed partition (``greedy_block``) of ``_root_index`` entries given in its
    order, by level: a root's is the largest of 0, level(b) + 1 over the earlier b with <a, b> < 0
    and level(b) over the earlier b != a with <b, a> > 0.  Each test is one AND with a level's bits."""
    masks, blocks = [], []
    for t in entries:
        k = len(masks)
        while k and not (t[NEG] | t[POS]) & masks[k - 1]:
            k -= 1
        if k and not t[NEG] & masks[k - 1]:
            k -= 1
        if k == len(masks):
            masks.append(0)
            blocks.append([])
        masks[k] |= t[BIT]
        blocks[k].append(t)
    return blocks


def check_roots(q: Quiver, vectors: Iterable[Vector]) -> dict[Vector, tuple]:
    """The root index of ``q`` (``_root_index``); raise ``QuiverError`` unless
    every one of ``vectors`` is a positive root of ``q``, that is, a key of it."""
    index = _root_index(q)
    for r in vectors:
        if r not in index:
            raise QuiverError(f"{list(r)} is not a positive root of this quiver")
    return index


@cache
def _orbit_side(q: Quiver, orbit: OrbitSpec) -> Side:
    """The orbit's side of membership, once per (quiver, orbit): the roots
    are checked (a failure raises ``QuiverError``, memoising nothing), then
    per positive root alpha, need = dim Hom(M_alpha, rep(orbit)) = sum of
    m * max(0, <alpha, beta>) over the orbit.  Returns that column and
    (``_probe_layout``, need) for each alpha with need > max(0, <alpha, e>),
    e = orbit.dim: as dim Hom(M_alpha, V) - dim Ext^1(M_alpha, V) =
    <alpha, e> on a hereditary algebra (Ringel), no other root can fail.  Each
    <alpha, beta> is read from alpha's ROW in ``_root_index`` at k, beta's BIT being 1 << k."""
    index = check_roots(q, orbit.support)
    at = [(index[b][BIT].bit_length() - 1, m) for b, m in orbit.mults]
    column = tuple(sum(m * max(0, t[ROW][k]) for k, m in at) for t in index.values())
    return column, tuple(
        (_probe_layout(q, a, orbit.dim), need)
        for (a, t), need in zip(index.items(), column)
        if need > max(0, sum(m * t[ROW][k] for k, m in at))
    )


def _check_query(q: Quiver, rep: QuiverRep, orbit: OrbitSpec) -> Side:
    """``_orbit_side(q, orbit)`` once ``rep`` fits ``q`` and has the orbit's
    dims; ``QuiverError`` otherwise, shape first, then dims, then roots."""
    validate_rep(q, rep)
    if rep.dims != instance(orbit, OrbitSpec).dim:
        raise QuiverError(f"dimension vectors differ: {rep.dims} vs {orbit.dim}")
    return _orbit_side(q, orbit)


def hom_table(q: Quiver, rep: QuiverRep, orbit: OrbitSpec) -> list[tuple[Vector, int, int]]:
    """Per positive root alpha: (alpha, dim Hom(M_alpha, rep),
    dim Hom(M_alpha, rep(orbit))), the first solved from M_alpha's
    memoised layout, the second the orbit's column of ``_orbit_side``.
    Inputs are checked as in ``in_orbit_closure``."""
    column = _check_query(q, rep, orbit)[0]
    return [
        (root, _solve(_probe_layout(q, root, rep.dims), rep), need)
        for root, need in zip(positive_roots(q), column)
    ]


def in_orbit_closure(q: Quiver, rep: QuiverRep, orbit: OrbitSpec) -> bool:
    """Numerical closure test: the representation lies in the closure of
    the orbit iff every indecomposable M_alpha sees at least as many homs
    into it as into the orbit representative.

    A malformed representation, a dimension mismatch or an orbit made of
    vectors that are not positive roots raises ``QuiverError``, in that
    order.  Only the orbit's open probes (see ``_orbit_side``) are
    solved, in root order, and the query stops at the first that falls
    short.
    """
    for layout, need in _check_query(q, rep, orbit)[1]:
        if _solve(layout, rep) < need:
            return False
    return True
