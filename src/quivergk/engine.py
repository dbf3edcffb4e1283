"""Recursive operator computation of orbit-closure classes.

The class of an orbit closure is expanded in the basis of tensor products
of stable Grothendieck classes, one tensor slot per vertex.  The expansion
is driven by the steps (vertex, rank, rectangle width) that
``resolution.orbit_steps`` reads off an orbit in one pass, the table's
codim included.  They are consumed right to left: each step
splits off a coproduct along every arrow leaving its vertex, then absorbs
the working slot through a straightened rectangle-shift.  G_() is the
unit of the bialgebra, so splitting a slot that is empty in every term
changes nothing and is skipped; a step with no filled out-slot runs as a
sink step.  That is 4,259 of the 5,003 split steps over D4 <= 2 and
E7 <= 1, 801 of 1,105 over A3-out <= 4, 1,302 of 2,028 over A3-in <= 4.
The last split runs fused with the absorption, term by term, so its
working slot is never stored; within a step each (split, working
partition) pair is expanded once and each shifted row built once.  The
lowest total degree of the result is the codimension of the orbit
closure, and for Dynkin type A the table is independent of the chosen
directed partition.

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
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator

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
from .partitions import Partition, QuiverError, instance, integers
from .quiver import OrbitSpec, Quiver, orbits, positive_roots
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


@cache
def caveat_for(q: Quiver) -> str | None:
    """The caveat a table of ``q`` carries: away from type A only its
    degree-equals-codim slice is backed by the positivity/rationality
    hypotheses, so a quiver with a D or E component is flagged.  Those are
    the quivers with a root entry >= 2: type A roots are 0/1 vectors, and
    the highest root of D_n or E_n has a 2.  Non-Dynkin raises ``QuiverError``.
    """
    return CAVEAT_FLAG if any(max(root) >= 2 for root in positive_roots(q)) else None


@dataclass(frozen=True)
class CoefficientTable:
    """Result bundle of one orbit-closure expansion: tensor and codim of ``orbit`` (dimension
    vector ``orbit.dim``); a directed partition's pair is ``resolution_pair(quiver, orbit, dp)``."""

    quiver: Quiver
    tensor: TensorElement
    codim: int
    orbit: OrbitSpec
    caveat: str | None = None


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
        for sigma, nu, d in _split_terms(key[i - 1], key[-1], max_rows):
            k = head + (sigma,) + mid + (nu,)
            out[k] = out.get(k, 0) + c * d
    return TensorElement._trusted(p.arity, {k: v for k, v in out.items() if v})


def _split_terms(split: Partition, work: Partition, r: int) -> list[tuple[Partition, Partition, int]]:
    """The terms (sigma, nu, coeff) of ``split``'s coproduct sigma (x) tau, tau times ``work``
    expanded (G_() the unit), nu of at most ``r`` rows; r past len(split) shares one memo entry."""
    return [
        (sigma, nu, d * cc)
        for (sigma, tau), d in coproduct(split, min(r, len(split))).terms.items()
        for nu, cc in (_mul_basis(tau, work) if work else ((tau, 1),))
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


def _split_absorb(p: TensorElement, h: int, i: int, r: int, c: int) -> TensorElement:
    """``a_op(psi(p, h, r), i, r, c)`` in one pass for slots h != i, so no working slot is
    stored; each (split, working partition) pair is expanded once, each shifted row built once."""
    out: dict[tuple, int] = {}
    parts_of: dict[tuple[Partition, Partition], list] = {}
    shifts: dict[Partition, tuple] = {}
    lo, hi = min(h, i), max(h, i)
    for key, coeff in p.terms.items():
        work, split, lam = key[-1], key[h - 1], key[i - 1]
        parts = parts_of.get((split, work))
        if parts is None:
            parts = parts_of[split, work] = [
                (sigma, d, *(shifts.get(nu) or shifts.setdefault(nu, _shifted(nu, r, c))))
                for sigma, nu, d in _split_terms(split, work, r)
            ]
        a, b, z = key[: lo - 1], key[lo : hi - 1], key[hi:-1]
        for sigma, d, row, pos in parts:
            head, mid = (a + (sigma,) + b, z) if h < i else (a, b + (sigma,) + z)
            _absorb(out, head, mid, row, pos, lam, coeff * d)
    return TensorElement._trusted(p.arity - 1, {k: v for k, v in out.items() if v})


def phi(p: TensorElement, q: Quiver, stage_e: tuple[int, ...], i: int, r: int) -> TensorElement:
    """One resolution step at vertex ``i`` with rank ``r`` over stage
    dimension vector ``stage_e``, on a tensor with a slot per vertex."""
    i, r = integers((i, r))
    if instance(p, TensorElement).arity != instance(q, Quiver).n:
        raise QuiverError(f"tensor arity {p.arity} does not match {q.n} vertices")
    return _fold(p, q, _walk(q, list(q.check_vector(stage_e)), [(i, r)]))


def _fold(p: TensorElement, q: Quiver, steps: list[tuple[int, int, int]]) -> TensorElement:
    """Apply steps (vertex, rank, rectangle width c) to ``p``, right to left.  Only the out-slots
    holding a partition in some term are split: psi of a slot that is G_() in every term is the
    identity (the unit law, the working partitions having at most r rows).  A step left with no
    such slot keeps a unit working slot, so its row (c)^r goes straight into slot i."""
    heads = q.heads
    for i, r, c in reversed(steps):
        live = [h for h in heads[i] if any(key[h - 1] for key in p.terms)]
        if not live:
            out: dict[tuple, int] = {}
            row = _shifted((), r, c)
            for key, coeff in p.terms.items():
                _absorb(out, key[: i - 1], key[i:], *row, key[i - 1], coeff)
            p = TensorElement._trusted(p.arity, {k: v for k, v in out.items() if v})
            continue
        p = append_unit(p)
        for head in live[:-1]:
            p = psi(p, head, r)
        p = _split_absorb(p, live[-1], i, r, c)
    return p


def coefficients(q: Quiver, e: tuple[int, ...], pair: ResolutionPair) -> tuple[TensorElement, int]:
    """Tensor (one slot per vertex) and codim (the steps' sum of r * c) of a resolution pair."""
    steps = pair_steps(q, e, pair)
    return _fold(TensorElement.unit(q.n), q, steps), sum(r * c for _, r, c in steps)


def quiver_coefficients(
    q: Quiver,
    e: tuple[int, ...],
    orbit: OrbitSpec,
    dp: DirectedPartition | None = None,
) -> CoefficientTable:
    """Full expansion of one orbit closure.

    The steps come from ``orbit_steps`` in one pass (their pair is
    ``resolution_pair(q, orbit, dp)``); the directed partition defaults to the
    greedy one on the orbit's support, and the codim is read off the same
    steps.  For quivers with a D or E component the table is flagged (see
    ``caveat_for``).  An orbit that uses a vector which is not a positive root
    of ``q`` raises ``QuiverError`` where the pass looks it up in the root bitmasks.
    """
    ev = instance(q, Quiver).check_vector(e)
    if instance(orbit, OrbitSpec).dim != ev:
        raise QuiverError(f"orbit has dim {orbit.dim}, expected {ev}")
    steps = orbit_steps(q, orbit, dp)
    tensor, cd = _fold(TensorElement.unit(q.n), q, steps), sum(r * c for _, r, c in steps)
    return CoefficientTable(q, tensor, cd, orbit, caveat_for(q))


def cohomological_part(table: CoefficientTable) -> TensorElement:
    """The degree-equals-codim slice (the cohomology-ring shadow)."""
    return project_degree(instance(table, CoefficientTable).tensor, table.codim)


def check_alternating(table: CoefficientTable) -> list[tuple[tuple, int]]:
    """Terms violating the alternating sign prediction
    sign = (-1)^(degree - codim); empty list means all signs conform."""
    bad = []
    for key, c in instance(table, CoefficientTable).tensor.sorted_terms():
        expected = -1 if (key_degree(key) - table.codim) % 2 else 1
        if c * expected < 0:
            bad.append((key, c))
    return bad


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


def _check_independence(table: CoefficientTable, dp: DirectedPartition) -> dict | None:
    """Compare with the table of a second directed partition: in full in
    type A, and only the degree-equals-codim slice under the caveat."""
    q, orbit = table.quiver, table.orbit
    other = quiver_coefficients(q, orbit.dim, orbit, dp=dp)
    if table.caveat:
        agree = cohomological_part(table) == cohomological_part(other)
    else:
        agree = table.tensor == other.tensor
    if agree and table.codim == other.codim:
        return None
    pairs = {"pair_a": resolution_pair(q, orbit), "pair_b": resolution_pair(q, orbit, dp)}
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
# greedy table and what the setup returned, and gives the failure's keys
# after "orbit", or None
SUITES = {
    "signs": (lambda q: None, _check_signs),
    "oracle-a3": (_oracle_reference, _check_oracle),
    "independence": (lambda q: directed_partition(q, positive_roots(q)), _check_independence),
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
