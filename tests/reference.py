"""Reference answers that the tests check the package against.

Nothing here runs in the package.  Each routine is a slow, direct route to
a number that ``quivergk`` computes another way:

- brute-force tableau combinatorics: skew shapes, set-valued tableaux and
  their one enumerator ``enumerate_svt``, reading words, rook strips, and
  the single-class polynomial expansion ``expand_single``;
- ``rectangle_coproduct_coeff``, a coproduct coefficient as a product
  against a rectangle through ``lr_coeff``: Buch's rule in the orientation
  that ``gamma.coproduct`` does not walk, which ``coproduct`` must equal;
- the A3 count routes ``inbound_c`` and ``outbound_d``, signed counts of
  set-valued tableaux that the closed-form tables of ``oracle_a3`` must
  equal key by key, and ``brute_force_mults``, the A3 orbits found by
  trying every multiplicity tuple, which ``all_mults``, the same orbits
  read off ``quiver.orbits`` by ``oracle_a3.mults_from_orbit``, must list;
- the A2 closed form ``porteous``: a rank stratum of two vertices is one
  rectangle class, the stratum ``a2_orbit`` names by its multiplicities;
- ``pair_stages``, the stage vector each step of a resolution pair acts
  on, for ``engine.phi``;
- ``fold_every_head``, the step fold that splits every out-slot of a
  step, empty or not, which ``engine._fold``, splitting only the
  occupied out-slots and skipping or rewriting steps into empty slots,
  must equal;
- ``validate_directed_pairwise``, the directedness rule of a partition
  tested pair by pair on the Euler table, which the bitmask test of
  ``resolution.validate_directed`` must agree with;
- ``orbit_rep``, an orbit's canonical representative built by ``direct_sum``
  of its indecomposables, whose hom column solved by matrices the closed
  form behind ``quiver.in_orbit_closure`` must equal;
- ``tensor_mul_at``, one tensor slot times a ring element, the product
  behind ``psi``'s long way that ``engine.psi`` must equal;
- classical Littlewood-Richardson numbers, the same tableau count at
  excess 0;
- the straightening law at every ascent, the hook-content formula, and
  rank by Fraction row reduction.

Reference code need not meet the package's input contract: some routines
check their input with ``normalize`` and ``integers``, others trust it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from quivergk.engine import _absorb, _shifted, _split_absorb, psi
from quivergk.gamma import TensorElement, _add_term, _mul_basis, append_unit, basis, lr_coeff, straighten
from quivergk.oracle_a3 import INBOUND, A3OrbitMults, mults_from_orbit
from quivergk.partitions import Partition, QuiverError, instance, integers, normalize, sequence
from quivergk.quiver import OrbitSpec, Quiver, QuiverRep, check_roots, euler_form, indecomposable_rep, orbits
from quivergk.resolution import DirectedPartition, ResolutionPair, pair_steps

A2 = Quiver(2, ((1, 2),))

# ---------------------------------------------------------------------------
# partitions, set-valued tableaux and their words


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram of ``lam``, a partition (checked)."""
    lam = normalize(lam)
    return tuple(sum(1 for part in lam if part >= j) for j in range(1, lam[0] + 1)) if lam else ()


def contains(outer: Partition, inner: Partition) -> bool:
    """Containment of Young diagrams, inner inside outer."""
    if len(inner) > len(outer):
        return False
    return all(o >= i for o, i in zip(outer, inner))


def partitions_fitting(rows: int, cols: int) -> Iterator[Partition]:
    """All partitions with at most ``rows`` parts, each at most ``cols``.

    Emitted in graded order (by size, then lexicographically) so callers
    iterating a rectangle get a stable sequence.  The arguments are
    checked at the call; the partitions come from an inner generator.
    """
    rows, cols = integers((rows, cols))
    if rows < 0 or cols < 0:
        raise QuiverError(f"negative box {rows} x {cols}")

    def fill(size: int, rows: int, cap: int) -> Iterator[Partition]:
        # partitions of ``size`` in a rows x cap box, smallest first part first
        if size == 0:
            yield ()
        elif size <= rows * cap:
            for first in range(1, min(size, cap) + 1):
                for rest in fill(size - first, rows - 1, first):
                    yield (first,) + rest

    return (part for size in range(rows * cols + 1) for part in fill(size, rows, cols))


@dataclass(frozen=True)
class SkewShape:
    """A skew diagram outer/inner; ``inner == ()`` gives a straight shape."""

    outer: Partition
    inner: Partition = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outer", normalize(self.outer))
        object.__setattr__(self, "inner", normalize(self.inner))
        if not contains(self.outer, self.inner):
            raise QuiverError(f"inner {self.inner} not contained in outer {self.outer}")

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def row_bounds(self) -> tuple[tuple[int, int], ...]:
        """Per row, the half-open column range (start, stop) of its boxes."""
        inner = self.inner + (0,) * (len(self.outer) - len(self.inner))
        return tuple(zip(inner, self.outer))

    def boxes(self) -> tuple[tuple[int, int], ...]:
        """Boxes as (row, col), 1-indexed, in row-major reading order."""
        out = []
        for r, (start, stop) in enumerate(self.row_bounds(), start=1):
            out.extend((r, c) for c in range(start + 1, stop + 1))
        return tuple(out)


def as_shape(shape: SkewShape | Iterable[int]) -> SkewShape:
    return shape if isinstance(shape, SkewShape) else SkewShape(shape)


@dataclass(frozen=True)
class SetValuedTableau:
    """A filling of a skew shape by finite non-empty sets of positive ints.

    ``rows[i]`` holds the cells of row i+1 left to right, each cell a
    sorted tuple.  The shape, rows and cells are read with ``instance``,
    ``sequence`` and ``integers``, and semistandardness (row max <= right min, column
    max < below min) is checked on construction.
    """

    shape: SkewShape
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        bounds = instance(self.shape, SkewShape).row_bounds()
        rows = tuple(
            tuple(integers(cell) for cell in sequence(row, stop - start))
            for row, (start, stop) in zip(sequence(self.rows, len(bounds)), bounds)
        )
        object.__setattr__(self, "rows", rows)
        grid: dict[tuple[int, int], tuple[int, ...]] = {}
        for r, (row, (start, _)) in enumerate(zip(rows, bounds), start=1):
            for k, cell in enumerate(row):
                if not cell or list(cell) != sorted(set(cell)) or cell[0] < 1:
                    raise QuiverError(f"bad cell {cell!r}")
                grid[(r, start + 1 + k)] = cell
        for (r, c), cell in grid.items():
            right = grid.get((r, c + 1))
            if right is not None and cell[-1] > right[0]:
                raise QuiverError(f"row condition fails at {(r, c)}")
            below = grid.get((r + 1, c))
            if below is not None and cell[-1] >= below[0]:
                raise QuiverError(f"column condition fails at {(r, c)}")

    @property
    def size(self) -> int:
        """Total number of entries, multiplicity of sets included."""
        return sum(len(cell) for row in self.rows for cell in row)

    @property
    def excess(self) -> int:
        return self.size - self.shape.size


def word(tableau: SetValuedTableau) -> tuple[int, ...]:
    """Reading word: rows bottom to top, each left to right, sets increasing."""
    out: list[int] = []
    for row in reversed(tableau.rows):
        for cell in row:
            out.extend(cell)
    return tuple(out)


def u_word(mu: Partition) -> tuple[int, ...]:
    """The word (l^{mu_l}, ..., 2^{mu_2}, 1^{mu_1}) for a partition mu."""
    out: list[int] = []
    for i in range(len(mu), 0, -1):
        out.extend([i] * mu[i - 1])
    return tuple(out)


def content(w: Iterable[int]) -> tuple[int, ...]:
    """Occurrence counts of 1, 2, ... in ``w`` (a composition).

    The length is the largest letter appearing; internal zeros are kept.
    """
    counts: dict[int, int] = {}
    top = 0
    for v in integers(w):
        if v < 1:
            raise QuiverError(f"letters must be positive, got {v}")
        counts[v] = counts.get(v, 0) + 1
        top = max(top, v)
    return tuple(counts.get(i, 0) for i in range(1, top + 1))


def is_reverse_lattice(w: Iterable[int]) -> bool:
    """True if every i >= 2 is followed, strictly after it, by more
    occurrences of i-1 than of i."""
    counts: dict[int, int] = {}
    for v in reversed(integers(w)):
        if v >= 2 and counts.get(v - 1, 0) <= counts.get(v, 0):
            return False
        counts[v] = counts.get(v, 0) + 1
    return True


def enumerate_svt(
    shape: SkewShape | Iterable[int],
    max_entry: int,
    max_excess: int,
) -> Iterator[SetValuedTableau]:
    """All set-valued tableaux of ``shape`` with entries <= max_entry and
    excess <= max_excess, boxes filled in row-major order.

    The enumeration is deterministic: boxes row-major, and each box runs
    through its admissible sets in lexicographic order.
    """
    sh = as_shape(shape)
    boxes = sh.boxes()
    bounds = sh.row_bounds()
    max_entry, max_excess = integers((max_entry, max_excess))
    if max_entry < 0 or max_excess < 0:
        raise QuiverError("bounds must be non-negative")

    grid: dict[tuple[int, int], tuple[int, ...]] = {}

    def admissible_sets(r: int, c: int, budget: int) -> Iterator[tuple[int, ...]]:
        left = grid.get((r, c - 1))
        above = grid.get((r - 1, c))
        lo = 1 if left is None else left[-1]
        if above is not None:
            lo = max(lo, above[-1] + 1)
        pool = range(lo, max_entry + 1)
        for k in range(1, budget + 2):
            yield from itertools.combinations(pool, k)

    def rows_from_grid() -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(
            tuple(grid[(r, c)] for c in range(start + 1, stop + 1))
            for r, (start, stop) in enumerate(bounds, start=1)
        )

    def fill(idx: int, excess: int) -> Iterator[SetValuedTableau]:
        if idx == len(boxes):
            yield SetValuedTableau(sh, rows_from_grid())
            return
        r, c = boxes[idx]
        for cell in admissible_sets(r, c, max_excess - excess):
            grid[(r, c)] = cell
            yield from fill(idx + 1, excess + len(cell) - 1)
        grid.pop((r, c), None)

    return fill(0, 0)


def expand_single(lam: Partition, num_vars: int, max_deg: int) -> dict[tuple[int, ...], int]:
    """Truncation of the stable Grothendieck series of ``lam`` in
    ``num_vars`` variables, up to total degree ``max_deg``.

    Returns a sparse polynomial keyed by exponent vectors of length
    ``num_vars``; each set-valued tableau T contributes
    (-1)^(excess) x^(multiset of entries).
    """
    lam = normalize(lam)
    num_vars, max_deg = integers((num_vars, max_deg))
    if num_vars < 0 or max_deg < 0:
        raise QuiverError("bounds must be non-negative")
    out: dict[tuple[int, ...], int] = {}
    if sum(lam) > max_deg or len(lam) > num_vars:
        return out
    for t in enumerate_svt(SkewShape(lam), num_vars, max_deg - sum(lam)):
        counts = content(word(t))
        expo = counts + (0,) * (num_vars - len(counts))
        sign = -1 if t.excess % 2 else 1
        out[expo] = out.get(expo, 0) + sign
        if out[expo] == 0:
            del out[expo]
    return out


def is_rook_strip(outer: Partition, inner: Partition) -> bool:
    """True if the skew diagram outer/inner has at most one box in every
    row and every column."""
    outer = normalize(outer)
    inner = normalize(inner)
    if not contains(outer, inner):
        return False

    def inner_at(i: int) -> int:
        return inner[i - 1] if i <= len(inner) else 0

    for i in range(1, len(outer) + 1):
        if outer[i - 1] - inner_at(i) > 1:
            return False  # two boxes in row i
        if i >= 2 and outer[i - 1] > inner_at(i - 1):
            return False  # boxes stacked in one column
    return True


def rook_strip_complement(rect: Partition, placed: Partition, rotated: Partition) -> bool:
    """Test a rectangle-tiling condition for a pair of partitions.

    ``placed`` sits in the top-left of the rectangle ``rect``; ``rotated``
    is rotated by 180 degrees into the bottom-right corner.  True when the
    two diagrams cover the rectangle and their overlap is a rook strip
    (no two overlap boxes share a row or a column).

    In the p x q rectangle, ``rotated`` leaves uncovered the partition
    ``rest`` with rest_i = q - rotated_{p+1-i}.  The two diagrams cover
    the rectangle exactly when ``placed`` contains ``rest``, and their
    overlap is then the skew diagram placed/rest.
    """
    rect = normalize(rect)
    if rect and len(set(rect)) != 1:
        raise QuiverError(f"not a rectangle: {rect}")
    p = len(rect)
    q = rect[0] if rect else 0
    placed = normalize(placed)
    rotated = normalize(rotated)
    if not contains(rect, placed) or not contains(rect, rotated):
        return False
    rest = tuple(q - x for x in reversed(rotated + (0,) * (p - len(rotated))))
    return is_rook_strip(placed, rest)


def rectangle_coproduct_coeff(lam, mu, nu, rect: Partition | None = None) -> int:
    """Coefficient of (lam, mu) in the coproduct of nu, through the package's
    ``lr_coeff`` in the orientation ``coproduct`` does not walk.

    With R = p x q a rectangle containing ``lam`` and ``mu`` (``rect``, or the
    tightest one if None), the coefficient is that of rho = (q + mu, lam), mu
    padded to p rows, in the product of R and ``nu``; Buch's rule counts it by
    filling R with ``nu``'s word appended.  The answer does not depend on R.
    """
    lam, mu = normalize(lam), normalize(mu)
    if rect is None:
        rect = (max(lam[:1] + mu[:1], default=0),) * max(len(lam), len(mu))
    rect = normalize(rect)
    if rect and len(set(rect)) != 1:
        raise QuiverError(f"not a rectangle: {rect}")
    if not (contains(rect, lam) and contains(rect, mu)):
        raise QuiverError(f"rectangle {rect} does not contain {lam} and {mu}")
    p, q = len(rect), (rect[0] if rect else 0)
    rho = tuple(q + x for x in mu) + (q,) * (p - len(mu)) + lam
    return lr_coeff(rect, nu, normalize(rho))


# ---------------------------------------------------------------------------
# the A3 count routes


def brute_force_mults(max_dim: int) -> list[A3OrbitMults]:
    """Every A3 orbit with all three dimensions at most ``max_dim``: each of the
    (max_dim + 1)^6 multiplicity tuples whose dimension vector fits, in tuple order."""
    out = []
    for values in itertools.product(range(max_dim + 1), repeat=6):
        m = A3OrbitMults(*values)
        if max(m.dim) <= max_dim:
            out.append(m)
    return out


def all_mults(max_dim: int) -> list[A3OrbitMults]:
    """Every A3 orbit with all three dimensions at most ``max_dim``, from ``quiver.orbits`` on the
    inbound quiver, sorted by the six multiplicities (m11, m12, m13, m22, m23, m33)."""
    dims = itertools.product(range(max_dim + 1), repeat=3)
    found = [mults_from_orbit(orbit) for e in dims for orbit in orbits(INBOUND, e)]
    return sorted(found, key=lambda m: tuple(m.as_dict().values()))


def _lattice_fillings(shape: SkewShape, mu: Partition, tail: tuple[int, ...] = ()) -> int:
    """Set-valued tableaux of ``shape`` whose reading word followed by
    ``tail`` has content ``mu`` and is a reverse lattice word."""
    excess = sum(mu) - shape.size - len(tail)
    if excess < 0:
        return 0
    count = 0
    for t in enumerate_svt(shape, len(mu), excess):
        w = word(t) + tail
        if content(w) == mu and is_reverse_lattice(w):
            count += 1
    return count


def inbound_c(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    m: A3OrbitMults,
) -> int:
    """Coefficient of the reduced key (lam, mu, nu) for an inbound orbit,
    by a signed tableau count; ``inbound_table`` reaches it by contraction.

    ``mu`` is the middle-slot partition *after* removing the forced
    rectangle prefix.
    """
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    r1 = (m.m33,) * m.m12
    r2 = (m.m11,) * m.m23
    count = 0
    for sigma in partitions_fitting(m.m12, m.m33):
        if not rook_strip_complement(r1, sigma, lam):
            continue
        for theta in partitions_fitting(m.m23, m.m11):
            if rook_strip_complement(r2, theta, nu):
                count += _lattice_fillings(SkewShape(theta), mu, u_word(sigma))
    sign = sum(lam) + sum(mu) + sum(nu) - m.m33 * m.m12 - m.m11 * m.m23
    return (-1 if sign % 2 else 1) * count


def outbound_d(
    rect: Partition,
    lam: Partition,
    mu: Partition,
    nu: Partition,
) -> int:
    """Coefficient of (lam, mu, nu) in the double coproduct of a rectangle
    class, by a signed count of skew fillings between two partitions
    interleaved in the rectangle; ``outbound_table`` reads it from ``coproduct2``."""
    rect = normalize(rect)
    if rect and len(set(rect)) != 1:
        raise QuiverError(f"need a rectangle, got {rect}")
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    p = len(rect)
    q = rect[0] if rect else 0
    count = 0
    for tau in partitions_fitting(p, q):
        # lam must sit inside tau: the rook strip lam/sigma is the part
        # of lam carried over from the first tensor slot, and it lives
        # in the subdiagram that tau contributes.  Dropping this
        # containment overcounts pairs with tau = sigma.
        if not (rook_strip_complement(rect, tau, nu) and contains(tau, lam)):
            continue
        for sigma in partitions_fitting(p, q):
            if contains(tau, sigma) and contains(lam, sigma) and is_rook_strip(lam, sigma):
                count += _lattice_fillings(SkewShape(tau, sigma), mu)
    sign = sum(lam) + sum(mu) + sum(nu) - p * q
    return (-1 if sign % 2 else 1) * count


# ---------------------------------------------------------------------------
# the A2 closed form, the stages and fold of a resolution pair, directedness pair by pair


def porteous(e1: int, e2: int, r: int) -> TensorElement:
    """Expansion of the rank <= r locus of e2 x e1 matrices: a single
    rectangle term of e2 - r rows and width e1 - r in the second slot."""
    e1, e2, r = integers((e1, e2, r))
    if not 0 <= r <= min(e1, e2):
        raise QuiverError(f"rank {r} out of range for {(e1, e2)}")
    return TensorElement(2, {((), normalize((e1 - r,) * (e2 - r))): 1})


def a2_orbit(m11: int, m12: int, m22: int) -> OrbitSpec:
    """The A2 orbit with m11 copies of (1, 0), m12 of (1, 1) and m22 of (0, 1)."""
    e = (m11 + m12, m12 + m22)
    mults = [(r, m) for r, m in [((1, 0), m11), ((1, 1), m12), ((0, 1), m22)] if m]
    return OrbitSpec(e, tuple(mults))


def pair_stages(q: Quiver, e: Iterable[int], pair: ResolutionPair) -> list[tuple[int, int, tuple[int, ...]]]:
    """Each step's vertex v, rank r and the stage vector it acts on, walked as by ``pair_steps``."""
    cur, stages = list(q.check_vector(e)), []
    for v, r, _ in pair_steps(q, e, pair):
        stages.append((v, r, tuple(cur)))
        cur[v - 1] -= r
    return stages


def fold_every_head(p: TensorElement, q: Quiver, steps: list[tuple[int, int, int]]) -> TensorElement:
    """The steps (vertex, rank, rectangle width c) applied to ``p``, right to left, splitting the
    slot of every out-arrow's head, also a slot that is G_() in every term.  A vertex without
    out-arrows keeps a unit working slot, so its row (c)^r goes straight into slot i by
    ``_absorb``: no working slot is built, where ``_fold`` runs ``a_op`` on an appended one."""
    heads = q.heads
    for i, r, c in reversed(steps):
        if not heads[i]:
            out: dict[tuple, int] = {}
            row = _shifted((), r, c)
            for key, coeff in p.terms.items():
                _absorb(out, key[: i - 1], key[i:], *row, key[i - 1], coeff)
            p = TensorElement._trusted(p.arity, {k: v for k, v in out.items() if v})
            continue
        p = append_unit(p)
        for head in heads[i][:-1]:
            p = psi(p, head, r)
        p = _split_absorb(p, heads[i][-1], i, r, c)
    return p


def validate_directed_pairwise(q: Quiver, dp: DirectedPartition) -> None:
    """Raise unless the blocks are non-empty, disjoint and directed, pair by pair: no root a
    has <a, b> < 0 for a b in its own block or a later one, nor <b, a> > 0 for a later b.
    Each <a, b> is ``euler_form``'s loop over the arrows, not the root index."""
    roots = dp.roots
    check_roots(q, roots)
    if not all(dp.blocks):
        raise QuiverError("empty block")
    if len(set(roots)) < len(roots):
        raise QuiverError("a root appears twice")
    done = 0
    for blk in dp.blocks:
        done += len(blk)
        for a in blk:
            for b in blk + roots[done:]:
                if (x := euler_form(q, a, b)) < 0:
                    raise QuiverError(f"<{a},{b}> = {x} < 0")
            for b in roots[done:]:
                if (x := euler_form(q, b, a)) > 0:
                    raise QuiverError(f"<{b},{a}> = {x} > 0 across blocks")


# ---------------------------------------------------------------------------
# an orbit's representative by matrices, and the product in one tensor slot


def direct_sum(q: Quiver, reps: Iterable[QuiverRep]) -> QuiverRep:
    """Block-diagonal sum of representations of ``q``."""
    reps = list(reps)
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(q.n))
    mats = []
    for k, (t, h) in enumerate(q.arrows):
        rows, left = [], 0
        for r in reps:
            right = dims[t - 1] - left - r.dims[t - 1]
            rows += [(0,) * left + row + (0,) * right for row in r.mats[k]]
            left += r.dims[t - 1]
        mats.append(tuple(rows))
    return QuiverRep(dims, tuple(mats))


def orbit_rep(q: Quiver, orbit: OrbitSpec) -> QuiverRep:
    """Canonical representative: multiplicity-many copies of each indecomposable
    (``indecomposable_rep`` checks its root), in root order.  Its hom column, solved by
    matrices, is the one that the closed form behind ``in_orbit_closure`` must equal.  A
    dimension vector of the wrong length raises ``QuiverError``: no summand would show it."""
    q.check_vector(orbit.dim)
    return direct_sum(q, [indecomposable_rep(q, root) for root, m in orbit.mults for _ in range(m)])


def tensor_mul_at(p: TensorElement, slot: int, g: TensorElement) -> TensorElement:
    """Tensor slot ``slot`` (1-based) of ``p`` times the ring element ``g``, by the basis
    products of ``_mul_basis``.  A bad slot raises ``QuiverError``: the trusted result would
    otherwise hold keys of the wrong length."""
    (slot,) = integers((slot,))
    if not 1 <= slot <= p.arity:
        raise QuiverError(f"slot {slot} out of range for arity {p.arity}")
    out: dict[tuple, int] = {}
    for key, c in p.terms.items():
        for (lam,), cg in g.terms.items():
            for nu, cc in _mul_basis(key[slot - 1], lam):
                _add_term(out, key[: slot - 1] + (nu,) + key[slot:], c * cg * cc)
    return TensorElement._trusted(p.arity, out)


# ---------------------------------------------------------------------------
# classical and linear-algebra oracles


def classical_lr(lam, mu, nu) -> int:
    """Littlewood-Richardson number c^nu_{lam,mu}: the set-valued count at
    excess 0, i.e. the semistandard fillings of nu/lam with content mu
    whose reading word is reverse lattice."""
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if sum(nu) != sum(lam) + sum(mu) or not contains(nu, lam):
        return 0
    return _lattice_fillings(SkewShape(nu, lam), mu)


def straightening_law(seq):
    """Yield each class that the straightening law equates with
    ``straighten(seq)``: the signed sum of the rewrites at every ascent
    (not only the leftmost or rightmost), the class without a trailing
    negative entry, and a partition's own basis class.

    Every rewrite raises one entry and keeps those before it, and the drop
    shortens the sequence, so each rule refers only to sequences later in
    the order (-length, sequence); together the rules fix ``straighten``.
    """
    if seq and seq[-1] < 0:
        yield straighten(seq[:-1])
    elif all(a >= b for a, b in zip(seq, seq[1:])):
        yield basis(seq)
    for t in range(len(seq) - 1):
        p, q = seq[t], seq[t + 1]
        if p < q:
            head, rest = seq[:t], seq[t + 2 :]
            rhs = TensorElement(1)
            for k in range(p + 1, q + 1):
                rhs += straighten(head + (q, k) + rest)
            for k in range(p + 1, q):
                rhs -= straighten(head + (q - 1, k) + rest)
            yield rhs


def hook_content_count(lam, k) -> int:
    """Number of semistandard tableaux of straight shape lam with entries
    <= k, via the hook content formula s_lam(1^k)."""
    lam = tuple(lam)
    if len(lam) > k:
        return 0
    num = Fraction(1)
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            num *= Fraction(k + j - i, hook)
    assert num.denominator == 1
    return int(num)


def fraction_rank(mat) -> int:
    """Rank of an integer matrix by Gaussian elimination over Fraction.

    Kept separate from the library's fraction-free elimination so rank
    claims are checked by a second, unrelated routine.
    """
    m = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / inv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank
