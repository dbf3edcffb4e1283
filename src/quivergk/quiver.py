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
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import mul
from typing import Any, Iterable

from .partitions import integers

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class QuiverError(ValueError):
    """Bad quiver/orbit/representation input."""


def as_ints(values: Iterable[Any]) -> Vector:
    """``values`` as exact ints: anything without ``__index__`` (0.5, 2.0,
    "1") raises ``QuiverError`` rather than being truncated or parsed."""
    try:
        return integers(values)
    except ValueError as exc:
        raise QuiverError(str(exc)) from None


@dataclass(frozen=True)
class Quiver:
    """A finite quiver without directed cycles; parallel arrows allowed."""

    n: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_ints((self.n,))[0])
        if self.n < 1:
            raise QuiverError("need at least one vertex")
        object.__setattr__(self, "arrows", tuple(as_ints((t, h)) for t, h in self.arrows))
        for t, h in self.arrows:
            if not (1 <= t <= self.n and 1 <= h <= self.n):
                raise QuiverError(f"arrow ({t},{h}) out of range 1..{self.n}")
        object.__setattr__(self, "_hash", hash((self.n, self.arrows)))
        source_rank(self)

    def __hash__(self) -> int:  # every cache keyed on a quiver hashes it
        return self._hash

    def check_vector(self, d: Iterable[int]) -> Vector:
        vec = as_ints(d)
        if len(vec) != self.n or any(x < 0 for x in vec):
            raise QuiverError(f"bad dimension vector {vec} for n={self.n}")
        return vec


def opposite(q: Quiver) -> Quiver:
    """The quiver with every arrow reversed.  An orbit carries over with its root
    multiplicities: transposing fixes dimension vectors and matches indecomposables."""
    return Quiver(q.n, tuple((h, t) for t, h in q.arrows))


def euler_form(q: Quiver, a: Iterable[int], b: Iterable[int]) -> int:
    """The (non-symmetric) homological bilinear form of the quiver."""
    av, bv = tuple(a), tuple(b)
    if len(av) != q.n or len(bv) != q.n:
        raise QuiverError(f"vectors {av}, {bv} do not both have {q.n} entries")
    total = sum(x * y for x, y in zip(av, bv))
    for t, h in q.arrows:
        total -= av[t - 1] * bv[h - 1]
    return total


def tits_form(q: Quiver, d: Iterable[int]) -> int:
    dv = tuple(d)
    return euler_form(q, dv, dv)


def incoming_rank(q: Quiver, e: Iterable[int], i: int) -> int:
    """Dimension of the source sum of all arrows into vertex i."""
    if not 1 <= i <= q.n:
        raise QuiverError(f"vertex {i} out of range 1..{q.n}")
    ev = tuple(e)
    return sum(ev[t - 1] for t, h in q.arrows if h == i)


@cache
def source_rank(q: Quiver) -> Vector:
    """Longest-path distance from the sources, per vertex (a topological rank).

    The arrows are relaxed pass by pass until a pass changes nothing.  A
    longest path has at most n - 1 arrows, so an acyclic quiver settles
    by pass n; a rank still moving in pass n means a directed cycle, which
    raises ``QuiverError``.
    """
    rank = [0] * (q.n + 1)
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
    m = [[2 * (i == j) for j in range(q.n)] for i in range(q.n)]
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
    """
    if not is_dynkin(q):
        raise QuiverError("positive roots need a Dynkin quiver, got not-Dynkin")
    simple = [tuple(int(j == i) for j in range(q.n)) for i in range(q.n)]
    roots = set(simple)
    frontier = simple
    while frontier:
        grown = []
        for beta in frontier:
            for i in range(q.n):
                raised = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                if raised not in roots and tits_form(q, raised) == 1:
                    roots.add(raised)
                    grown.append(raised)
        frontier = grown
    return tuple(sorted(roots, key=lambda d: (sum(d), d)))


@dataclass(frozen=True)
class OrbitSpec:
    """An orbit of the representation space, as root multiplicities.

    ``mults`` lists (root, multiplicity) with multiplicity >= 1, sorted by
    root in graded lexicographic order; the multiplicities must sum to
    ``dim`` root-wise.
    """

    dim: Vector
    mults: tuple[tuple[Vector, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", as_ints(self.dim))
        mults = ((as_ints(r), as_ints((m,))[0]) for r, m in self.mults)
        object.__setattr__(self, "mults", tuple(sorted(mults, key=lambda rm: (sum(rm[0]), rm[0]))))
        if any(m < 1 for _, m in self.mults):
            raise QuiverError("orbit multiplicities must be >= 1")
        if len({r for r, _ in self.mults}) != len(self.mults):
            raise QuiverError("duplicate root in orbit")
        total = [0] * len(self.dim)
        for r, m in self.mults:
            if len(r) != len(self.dim):
                raise QuiverError("root length does not match dim")
            for i, x in enumerate(r):
                total[i] += m * x
        if tuple(total) != self.dim:
            raise QuiverError(f"multiplicities sum to {tuple(total)}, dim is {self.dim}")

    @classmethod
    def _trusted(cls, dim: Vector, mults: tuple[tuple[Vector, int], ...]) -> "OrbitSpec":
        """Wrap the tuples as is: ``mults`` sorted, positive and summing to ``dim``."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "mults", mults)
        return self

    def mult_of(self, root: Vector) -> int:
        for r, m in self.mults:
            if r == root:
                return m
        return 0

    @property
    def support(self) -> tuple[Vector, ...]:
        return tuple(r for r, _ in self.mults)


def orbits(q: Quiver, e: Iterable[int]) -> list[OrbitSpec]:
    """All orbits for dimension vector ``e``: decompositions of ``e`` as a
    non-negative combination of positive roots (Gabriel), ordered by their
    multiplicity vectors over ``positive_roots`` order.

    The walk picks the multiplicities of the non-simple roots, tallest
    first, each from its largest possible value down to 0.  Roots that do
    not fit under ``e`` are dropped up front, and a multiplicity of 0 hands
    the remainder on as it is.  Once the multiplicities are fixed, the
    remainder is a non-negative vector, and a non-negative vector is
    exactly one sum of simple roots, so each leaf closes in one step and is
    an orbit.  The number of leaves is the number of orbits, Kostant's
    partition function of ``e``.
    """
    ev = q.check_vector(e)
    roots = positive_roots(q)
    fits = [k for k, r in enumerate(roots) if sum(r) > 1 and all(map(int.__le__, r, ev))]
    tall = sorted(fits, key=lambda k: -sum(roots[k]))
    simple = [roots.index(tuple(int(j == i) for j in range(q.n))) for i in range(q.n)]
    mult = [0] * len(roots)
    found: list[tuple[tuple[int, ...], OrbitSpec]] = []

    def dfs(t: int, rest: list[int]) -> None:
        if t == len(tall):
            for k, m in zip(simple, rest):
                mult[k] = m
            picked = tuple((roots[k], m) for k, m in enumerate(mult) if m)
            # positive_roots order is the sorted order, and the sums are exact
            found.append((tuple(mult), OrbitSpec._trusted(ev, picked)))
            return
        root = roots[tall[t]]
        for m in range(min(x // y for x, y in zip(rest, root) if y), -1, -1):
            mult[tall[t]] = m
            dfs(t + 1, [x - m * y for x, y in zip(rest, root)] if m else rest)

    dfs(0, list(ev))
    found.sort(key=lambda pair: pair[0])
    return [orbit for _, orbit in found]


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class QuiverRep:
    """Matrices of a representation; ``mats[k]`` belongs to ``arrows[k]``
    and has shape dims[head] x dims[tail] (row-major tuples)."""

    dims: Vector
    mats: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", as_ints(self.dims))
        object.__setattr__(self, "mats", tuple(tuple(map(as_ints, m)) for m in self.mats))


def validate_rep(q: Quiver, rep: QuiverRep) -> None:
    if len(rep.dims) != q.n or len(rep.mats) != len(q.arrows):
        raise QuiverError("representation shape does not match quiver")
    for (t, h), mat in zip(q.arrows, rep.mats):
        rows, cols = rep.dims[h - 1], rep.dims[t - 1]
        if len(mat) != rows or any(len(row) != cols for row in mat):
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
    return _probe(q, q.check_vector(root))


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


def direct_sum(q: Quiver, reps: Iterable[QuiverRep]) -> QuiverRep:
    """Block-diagonal sum of representations."""
    parts = list(reps)
    dims = tuple(sum(r.dims[i] for r in parts) for i in range(q.n))
    mats = []
    for k, (t, h) in enumerate(q.arrows):
        rows, left = [], 0
        for r in parts:
            right = dims[t - 1] - left - r.dims[t - 1]
            rows += [(0,) * left + row + (0,) * right for row in r.mats[k]]
            left += r.dims[t - 1]
        mats.append(tuple(rows))
    return QuiverRep(dims, tuple(mats))


def orbit_rep(q: Quiver, orbit: OrbitSpec) -> QuiverRep:
    """Canonical representative: multiplicity-many copies of each
    indecomposable, in root order.  A dimension vector that does not fit
    ``q`` or a vector that is not a positive root raises ``QuiverError``."""
    q.check_vector(orbit.dim)
    check_roots(q, orbit.support)
    pieces = []
    for root, m in orbit.mults:
        pieces.extend([indecomposable_rep(q, root)] * m)
    return direct_sum(q, pieces)


def _bareiss_rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination, in place."""
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        for i in range(rank + 1, rows):
            factor = m[i][c]
            for j in range(c + 1, cols):
                m[i][j] = (pv * m[i][j] - factor * m[rank][j]) // prev
            m[i][c] = 0
        prev = pv
        rank += 1
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
    """dim Hom(F, ``rep``) from F's ``_layout`` for rep.dims; ``rep`` is
    trusted to fit the quiver, as ``validate_rep`` checks."""
    ncols, bases, fills = layout
    m = list(map(list, bases))
    for row, (k, x, cut) in zip(m, fills):
        row[cut] = rep.mats[k][x]
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


@cache
def _euler_table(q: Quiver) -> dict[tuple[Vector, Vector], int]:
    """<alpha, beta> for every pair of positive roots of ``q``, from each alpha's linear
    form, built once: <alpha, beta> = sum_j (alpha_j - sum_{t -> j} alpha_t) * beta_j."""
    roots = positive_roots(q)
    lin = [(a, [x - incoming_rank(q, a, j) for j, x in enumerate(a, 1)]) for a in roots]
    return {(a, b): sum(map(mul, la, b)) for a, la in lin for b in roots}


def check_roots(q: Quiver, vectors: Iterable[Vector]) -> dict[tuple[Vector, Vector], int]:
    """The Euler table of ``q``; raise ``QuiverError`` unless every one of
    ``vectors`` is a positive root of ``q``, that is, a key of the table."""
    form = _euler_table(q)
    for r in vectors:
        if (r, r) not in form:
            raise QuiverError(f"{list(r)} is not a positive root of this quiver")
    return form


@cache
def _orbit_side(q: Quiver, orbit: OrbitSpec) -> Side:
    """The orbit's side of membership, once per (quiver, orbit): the roots
    are checked (a failure raises ``QuiverError``, memoising nothing), then
    per positive root alpha, need = dim Hom(M_alpha, rep(orbit)) = sum of
    m * max(0, <alpha, beta>) over the orbit.  Returns that column and
    (``_probe_layout``, need) for each alpha with need > max(0, <alpha, e>),
    e = orbit.dim: as dim Hom(M_alpha, V) - dim Ext^1(M_alpha, V) =
    <alpha, e> on a hereditary algebra (Ringel), no other root can fail."""
    form, roots = check_roots(q, orbit.support), positive_roots(q)
    column = tuple(sum(m * max(0, form[a, b]) for b, m in orbit.mults) for a in roots)
    return column, tuple(
        (_probe_layout(q, a, orbit.dim), need)
        for a, need in zip(roots, column)
        if need > max(0, sum(m * form[a, b] for b, m in orbit.mults))
    )


def _check_query(q: Quiver, rep: QuiverRep, orbit: OrbitSpec) -> Side:
    """``_orbit_side(q, orbit)`` once ``rep`` fits ``q`` and has the orbit's
    dims; ``QuiverError`` otherwise, shape first, then dims, then roots."""
    validate_rep(q, rep)
    if rep.dims != orbit.dim:
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
    return all(_solve(layout, rep) >= need for layout, need in _check_query(q, rep, orbit)[1])
