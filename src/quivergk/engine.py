"""Recursive operator computation of orbit-closure classes.

The class of an orbit closure is expanded in the basis of tensor products
of stable Grothendieck classes, one tensor slot per vertex.  The expansion
is driven by the steps (vertex, rank, rectangle width) that
``resolution.orbit_steps`` reads off an orbit in one pass, the table's
codim included.  They are consumed right to left: each step splits off a coproduct along every
arrow leaving its vertex, then absorbs the working slot through a straightened rectangle-shift.
G_() is the unit of the bialgebra, so a split of a slot empty in every term is skipped.  The
slot occupancy (the slots that may hold a partition) is read off the keys once and marked by
every split and every row with a positive entry.  A step takes one of three paths.  With no
occupied out-slot and slot i empty, it is the identity step when its row (c)^r has no positive
entry, else a key rewrite (the row into an empty slot).  Any other step appends a unit working
slot, splits each occupied out-slot but the last, and ends with the fused split below, or, at a
sink into an occupied slot, with ``a_op``.  Of 3,179 / 3,179 / 8,477 steps over A3-out <= 4,
A3-in <= 4 and D4 <= 2 with E7 <= 1, 1,787 / 1,726 / 4,953 are identity steps, 1,142 / 737 /
2,692 rows into an empty slot, 250 / 716 / 748 splits and 0 / 0 / 84 sinks.
The last split runs fused with the absorption, so its working slot is
never stored: each (split, working partition, lam) triple is expanded
once per step (r, c) into the merged pairs it writes into the split slot
and slot i (each row through ``_absorb``, the one place that straightens or prepends), those
that cancel dropped, memoised across calls and orbits by ``_landing_pairs``, and spliced into
each term's context in slot order.  The lowest total degree of the result is the orbit
closure's codimension.  Type A tables do not depend on the directed partition, so type A runs
the greedy partition of all roots, its levels stored in the root index, and D/E that of the
support (``orbit_steps``).

A step of rank r keeps only the terms whose working partition has at
most r rows.  Every partition in a product of stable Grothendieck classes
contains both factors (Buch's Littlewood-Richardson rule for K-theory),
so the working slot never loses rows on its way through the splits; the
bound is therefore applied where terms are made, in the splits and in the
row-capped ``coproduct``, and the expansion is exactly the one that
building every term and dropping the long ones at ``a_op`` would give.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Callable, Iterable, Iterator
from functools import cache

from .gamma import (
    TensorElement,
    TensorKey,
    append_unit,
    coproduct,
    key_degree,
    min_degree,
    _mul_basis,
    project_degree,
    straighten,
)
from .oracle_a3 import INBOUND, OUTBOUND, inbound_table, mults_from_orbit, outbound_table
from .partitions import Partition, QuiverError, Record, instance, integers
from .quiver import LEVEL, OrbitSpec, Quiver, _root_index, orbits, positive_roots
from .resolution import (
    DirectedPartition,
    ResolutionPair,
    _walk,
    codim,  # unused here: kept so the benchmark tracer can wrap it
    directed_partition,
    orbit_steps,
    pair_steps,
    resolution_pair,
)

CAVEAT_FLAG = "conjectural-under-rational-singularities"


def caveat_for(q: Quiver) -> str | None:
    """The caveat of ``q``'s tables: a quiver with a D or E component, one with a root entry >= 2 (A's roots
    are 0/1, the highest of D_n or E_n has a 2) and so no type-A level in its index, is flagged, as only the
    degree-equals-codim slice rests on the positivity/rationality hypotheses.  Non-Dynkin: ``QuiverError``."""
    return CAVEAT_FLAG if next(iter(_root_index(q).values()))[LEVEL] is None else None


class CoefficientTable(Record):
    """Tensor and codim of ``orbit`` (dimension vector ``orbit.dim``), of the default partition from
    ``quiver_coefficients`` or of a given one's pair as ``CoefficientTable(q, *coefficients(q, e,
    resolution_pair(q, orbit, dp)), orbit)``; the caveat is read off the quiver by ``caveat_for``."""

    __slots__ = _fields = ("quiver", "tensor", "codim", "orbit")

    def __init__(self, quiver: Quiver, tensor: TensorElement, codim: int, orbit: OrbitSpec) -> None:
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "orbit", orbit)

    @property
    def caveat(self) -> str | None:
        return caveat_for(self.quiver)


def psi(p: TensorElement, i: int, max_rows: int | None = None) -> TensorElement:
    """Coproduct split of slot ``i`` against the working (last) slot.

    With ``max_rows`` set, only the terms whose working partition has at
    most that many rows are built.  A product of stable Grothendieck
    classes contains both factors, so a working partition never loses
    rows: a term past the bound here would stay past it in every later
    ``psi`` and be dropped by ``a_op`` anyway.
    """
    i, max_rows = integers((i, sys.maxsize if max_rows is None else max_rows))
    if not 1 <= i < instance(p, TensorElement).arity:
        raise QuiverError(f"psi slot {i} out of range for arity {p.arity}")
    if max_rows < 0:
        raise QuiverError("negative rank")
    out: dict[tuple, int] = {}
    for key, c in p.terms.items():
        head, mid = key[: i - 1], key[i:-1]
        for (sigma, nu), d in _split_terms(key[i - 1], key[-1], max_rows):
            k = head + (sigma,) + mid + (nu,)
            out[k] = out.get(k, 0) + c * d
    return TensorElement._trusted(p.arity, {k: v for k, v in out.items() if v})


def _split_terms(split: Partition, work: Partition, r: int) -> Iterable[tuple[TensorKey, int]]:
    """The terms ((sigma, nu), coeff) of ``split``'s coproduct sigma (x) tau, tau times ``work``
    expanded, nu of at most ``r`` rows; r past len(split) shares one memo entry.  With ``work``
    empty (G_() the unit) they are the memoised coproduct's own items, its row cap bounding tau."""
    terms = coproduct(split, min(r, len(split))).terms.items()
    if not work:
        return terms
    return [
        ((sigma, nu), d * cc)
        for (sigma, tau), d in terms
        for nu, cc in _mul_basis(tau, work)
        if len(nu) <= r
    ]


def a_op(p: TensorElement, i: int, r: int, c: int) -> TensorElement:
    """Absorb the working slot into slot ``i`` through a shifted rectangle.

    Terms whose working partition has more than ``r`` rows vanish; the
    others prepend (c + nu_1, ..., c + nu_r) to slot ``i``; only sequences
    with an ascent need straightening.  The arity drops by one.
    """
    i, r, c = integers((i, r, c))
    if not 1 <= i < instance(p, TensorElement).arity:
        raise QuiverError(f"a_op slot {i} out of range for arity {p.arity}")
    if r < 0:
        raise QuiverError("negative rank")
    out: dict[tuple, int] = {}
    for key, coeff in p.terms.items():
        if len(key[-1]) <= r:
            _absorb(out, key[: i - 1], key[i:-1], *_shifted(key[-1], r, c), key[i - 1], coeff)
    return TensorElement._trusted(p.arity - 1, {k: v for k, v in out.items() if v})


def _shifted(nu: Partition, r: int, c: int) -> tuple[tuple[int, ...], Partition]:
    """The row (c + nu_1, ..., c + nu_r) for ``nu`` of at most r rows, and its positive part."""
    row = tuple([c + x for x in nu] + [c] * (r - len(nu)))
    return row, row if c > 0 else tuple(x for x in row if x > 0)


def _absorb(out: dict, head: tuple, mid: tuple, row: tuple, pos: tuple, lam: tuple, n: int) -> None:
    """Add ``n`` times the straightened ``row + lam`` to ``out`` between ``head`` and ``mid``; a
    row ending at or above lam_1 straightens to its positive part ``pos`` followed by lam."""
    if lam and row and row[-1] < lam[0]:
        for (kappa,), s in straighten(row + lam).terms.items():
            k = head + (kappa,) + mid
            out[k] = out.get(k, 0) + n * s
    else:  # pos is the row itself when lam is not empty, and shared when it is
        k = head + (pos + lam,) + mid
        out[k] = out.get(k, 0) + n


@cache
def _landing_pairs(split: Partition, work: Partition, lam: Partition, r: int, c: int) -> tuple:
    """The merged pairs one fused step writes for a term with ``split`` in the split slot,
    ``work`` in the working slot and ``lam`` in slot i, flat as (sigma_1, kappa_1, d_1, ...),
    sigma for the split slot and kappa for slot i.  Each split term ((sigma, nu), d) lands its
    shifted row, built once per nu, through ``_absorb`` with sigma as the head.  The pairs that
    cancel are dropped."""
    pairs: dict[tuple, int] = {}
    shifts: dict[Partition, tuple] = {}
    for (sigma, nu), d in _split_terms(split, work, r):
        row, pos = shifts.get(nu) or shifts.setdefault(nu, _shifted(nu, r, c))
        _absorb(pairs, (sigma,), (), row, pos, lam, d)
    return tuple(x for (sigma, kappa), d in pairs.items() if d for x in (sigma, kappa, d))


def _split_absorb(p: TensorElement, h: int, i: int, r: int, c: int) -> TensorElement:
    """``a_op(psi(p, h, r), i, r, c)`` in one pass for slots h != i, so no working slot is
    stored: each term's context is spliced, in slot order, around the ``_landing_pairs`` of
    its (split, working partition, lam) triple, memoised across calls for the step's (r, c)."""
    out: dict[tuple, int] = {}
    lo, hi = min(h, i), max(h, i)
    for key, coeff in p.terms.items():
        flat = _landing_pairs(key[h - 1], key[-1], key[i - 1], r, c)
        a, b, z = key[: lo - 1], key[lo : hi - 1], key[hi:-1]
        it = iter(flat)
        for x, y, d in zip(it, it, it):
            k = a + (x,) + b + (y,) + z if h < i else a + (y,) + b + (x,) + z
            out[k] = out.get(k, 0) + coeff * d
    return TensorElement._trusted(p.arity - 1, {k: v for k, v in out.items() if v})


def phi(p: TensorElement, q: Quiver, stage_e: tuple[int, ...], i: int, r: int) -> TensorElement:
    """One resolution step at vertex ``i`` with rank ``r`` over stage
    dimension vector ``stage_e``, on a tensor with a slot per vertex."""
    i, r = integers((i, r))
    if instance(p, TensorElement).arity != instance(q, Quiver).n:
        raise QuiverError(f"tensor arity {p.arity} does not match {q.n} vertices")
    return _fold(p, q, _walk(q, list(q.check_vector(stage_e)), [(i, r)]))


def _fold(p: TensorElement, q: Quiver, steps: list[tuple[int, int, int]]) -> TensorElement:
    """Apply steps (vertex, rank, rectangle width c) to ``p``, right to left, splitting only the
    occupied out-slots (``filled``; psi of a slot that is G_() in every term is the identity, the
    working partitions having at most r rows).  A step with none into an empty slot i rewrites
    slot i of each key to its row (c)^r, or skips if the row has no positive entry; any other step
    absorbs a unit working slot, by ``a_op`` when it has nothing to split.  Terms pass as a dict."""
    heads, arity, terms = q.heads, p.arity, p.terms
    filled = {h for key in terms for h, lam in enumerate(key, 1) if lam}
    for i, r, c in reversed(steps):
        live = [h for h in heads[i] if h in filled]
        if live or i in filled:
            filled.add(i)
            p = append_unit(TensorElement._trusted(arity, terms))
            for head in live[:-1]:
                p = psi(p, head, r)
            terms = (_split_absorb(p, live[-1], i, r, c) if live else a_op(p, i, r, c)).terms
        elif c > 0 and r:  # slot i is () in every term, so each key maps to one key
            filled.add(i)
            row = (c,) * r
            terms = {key[: i - 1] + (row,) + key[i:]: v for key, v in terms.items()}
    return TensorElement._trusted(arity, terms)


def coefficients(q: Quiver, e: tuple[int, ...], pair: ResolutionPair) -> tuple[TensorElement, int]:
    """Tensor (a slot per vertex) and codim (sum of r * c) of a pair, a partition's from ``resolution_pair``."""
    steps, unit = pair_steps(q, e, pair), TensorElement._trusted(q.n, {((),) * q.n: 1})
    return _fold(unit, q, steps), sum(r * c for _, r, c in steps)


def quiver_coefficients(q: Quiver, e: tuple[int, ...], orbit: OrbitSpec) -> CoefficientTable:
    """Full expansion of one orbit closure.

    The steps, and the codim read off them, come from ``orbit_steps`` in one pass for the greedy
    partition of all roots in type A and of the orbit's support in D/E, where the table is
    flagged (see ``caveat_for``); a given partition's is ``coefficients(q, e, resolution_pair(q,
    orbit, dp))``.  An orbit that uses a vector which is not a positive root of ``q`` raises
    ``QuiverError`` where the pass looks it up in the root bitmasks.
    """
    ev = instance(q, Quiver).check_vector(e)
    if instance(orbit, OrbitSpec).dim != ev:
        raise QuiverError(f"orbit has dim {orbit.dim}, expected {ev}")
    steps, unit = orbit_steps(q, orbit), TensorElement._trusted(q.n, {((),) * q.n: 1})
    return CoefficientTable(q, _fold(unit, q, steps), sum(r * c for _, r, c in steps), orbit)


def cohomological_part(table: CoefficientTable) -> TensorElement:
    """The degree-equals-codim slice (the cohomology-ring shadow)."""
    return project_degree(instance(table, CoefficientTable).tensor, table.codim)


def check_alternating(table: CoefficientTable) -> list[tuple[tuple, int]]:
    """Terms violating the alternating sign prediction
    sign = (-1)^(degree - codim); empty list means all signs conform."""
    tensor, codim = instance(table, CoefficientTable).tensor, table.codim
    bad = {key: c for key, c in tensor.terms.items() if (c < 0) != ((key_degree(key) - codim) & 1)}
    return TensorElement._trusted(tensor.arity, bad).sorted_terms()


# ---------------------------------------------------------------------------
# sweeps over every small orbit


def _orbit_payload(orbit: OrbitSpec) -> dict:
    return {
        "dim": list(orbit.dim),
        "mults": [{"root": list(r), "m": m} for r, m in orbit.mults],
    }


def _terms_payload(terms: Iterable[tuple[TensorKey, int]]) -> list[dict]:
    return [{"mu": [list(part) for part in key], "coeff": c} for key, c in terms]


def _check_signs(table: CoefficientTable, _: None) -> dict | None:
    bad = check_alternating(table)
    return {"violations": _terms_payload(bad)} if bad else None


def _check_codim(table: CoefficientTable, _: None) -> dict | None:
    lowest = min_degree(table.tensor)
    return None if lowest == table.codim else {"codim": table.codim, "min_degree": lowest}


def _check_independence(table: CoefficientTable, all_roots: DirectedPartition | None) -> dict | None:
    """Fold the greedy partition the default does not run through its pair, as ``scripts/evidence.py``
    does: the support's, compared in full, in type A; ``all_roots`` (all roots') under the caveat,
    compared on the degree-equals-codim slice.  Report both pairs."""
    q, orbit = table.quiver, table.orbit
    pair = resolution_pair(q, orbit, all_roots or directed_partition(q, orbit.support))
    tensor, cd = coefficients(q, orbit.dim, pair)
    if all_roots:
        agree = cohomological_part(table) == project_degree(tensor, cd)
    else:
        agree = table.tensor == tensor
    if agree and table.codim == cd:
        return None
    pairs = {"pair_a": resolution_pair(q, orbit), "pair_b": pair}
    return {name: {"i": list(p.vertices), "r": list(p.ranks)} for name, p in pairs.items()}


def _oracle_reference(q: Quiver) -> Callable[..., TensorElement]:
    if q.n == 3:
        arrows = sorted(q.arrows)
        if arrows == sorted(INBOUND.arrows):
            return inbound_table
        if arrows == sorted(OUTBOUND.arrows):
            return outbound_table
    raise QuiverError("oracle-a3 needs the inbound (1->2<-3) or outbound (1<-2->3) A3 quiver")


def _check_oracle(table: CoefficientTable, reference: Callable[..., TensorElement]) -> dict | None:
    expected = reference(mults_from_orbit(table.orbit))
    if table.tensor == expected:
        return None
    return {
        "engine": _terms_payload(table.tensor.sorted_terms()),
        "oracle": _terms_payload(expected.sorted_terms()),
    }


# suite name -> (per-quiver setup, per-orbit check); a check takes the
# default table and what the setup returned, and gives the failure's keys
# after "orbit", or None
SUITES = {
    "signs": (lambda q: None, _check_signs),
    "oracle-a3": (_oracle_reference, _check_oracle),
    "independence": (lambda q: caveat_for(q) and directed_partition(q, positive_roots(q)), _check_independence),
    "codim": (lambda q: None, _check_codim),
}


def sweep(q: Quiver, max_dim: int, suite: str) -> Iterator[tuple[CoefficientTable, dict | None]]:
    """Check every orbit of ``q`` whose dimension entries are at most
    ``max_dim`` against one of the ``SUITES``.

    Yields ``(table, failure)`` per orbit, dimension vectors in
    ``itertools.product`` order and the orbits of each in ``orbits``
    order.  ``table`` is the greedy ``CoefficientTable``; ``failure`` is
    None, or a dict whose ``"orbit"`` key names the orbit.  A negative or
    non-integer ``max_dim``, an unknown suite or a quiver the suite cannot
    check raises ``QuiverError`` as iteration starts, before any orbit.
    """
    (max_dim,) = integers((max_dim,))
    if max_dim < 0:
        raise QuiverError(f"negative max_dim {max_dim}")
    if not isinstance(suite, str) or suite not in SUITES:
        raise QuiverError(f"unknown suite {suite!r}")
    setup, check = SUITES[suite]
    context = setup(instance(q, Quiver))
    for e in itertools.product(range(max_dim + 1), repeat=q.n):
        for orbit in orbits(q, e):
            table = quiver_coefficients(q, e, orbit)
            extra = check(table, context)
            yield table, None if extra is None else {"orbit": _orbit_payload(orbit), **extra}
