"""Acceptance gate: eleven checks, one test (and one verdict line) apiece.

Run ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  The corpora used by several criteria are built once by the
cached helpers below and shared; every comparison here is exact integer
equality, and the handful of stated wall-clock budgets are asserted.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import cache

from reference import A2, classical_lr, fraction_rank, porteous, straightening_law
from quivergk.engine import (
    CAVEAT_FLAG,
    check_alternating,
    quiver_coefficients,
)
from quivergk.gamma import (
    TensorElement,
    basis,
    coproduct,
    coproduct2,
    coproduct_coeff,
    min_degree,
    mul,
    straighten,
)
from quivergk.oracle_a3 import (
    INBOUND,
    OUTBOUND,
    all_mults,
    inbound_table,
    outbound_table,
)
from quivergk.quiver import (
    OrbitSpec,
    Quiver,
    QuiverRep,
    in_orbit_closure,
    orbits,
    positive_roots,
    tits_form,
)
from quivergk.resolution import codim, directed_partition, resolution_pair

D4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
D4_ORIENTATIONS = (
    D4,
    Quiver(4, ((4, 1), (4, 2), (4, 3))),
    Quiver(4, ((1, 4), (4, 2), (4, 3))),
)

TYPE_A = (
    A2,
    Quiver(3, ((1, 2), (2, 3))),
    INBOUND,
    OUTBOUND,
    Quiver(4, ((1, 2), (2, 3), (3, 4))),
    Quiver(4, ((1, 2), (3, 2), (3, 4))),
)


def partitions_of(n):
    def build(rem, cap):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, cap), 0, -1):
            for rest in build(rem - first, first):
                yield (first,) + rest

    yield from build(n, n)


PARTS4 = [p for n in range(5) for p in partitions_of(n)]
PARTS3 = [p for p in PARTS4 if sum(p) <= 3]


# ---------------------------------------------------------------------------
# shared corpora (built lazily, once)


def a2_rank_orbit(e1: int, e2: int, r: int) -> OrbitSpec:
    mults = tuple(
        (root, m)
        for root, m in (((1, 1), r), ((1, 0), e1 - r), ((0, 1), e2 - r))
        if m
    )
    return OrbitSpec((e1, e2), mults)


@cache
def a2_corpus():
    out = []
    for e1 in range(5):
        for e2 in range(5):
            for r in range(min(e1, e2) + 1):
                table = quiver_coefficients(A2, (e1, e2), a2_rank_orbit(e1, e2, r))
                out.append((e1, e2, r, table))
    return out


@cache
def inbound_corpus():
    return [
        (m, quiver_coefficients(INBOUND, m.dim, m.orbit())) for m in all_mults(4)
    ]


@cache
def outbound_corpus():
    return [
        (m, quiver_coefficients(OUTBOUND, m.dim, m.orbit())) for m in all_mults(4)
    ]


@cache
def type_a_corpus():
    """Triples (greedy table, full positive-root-partition table, that
    partition), type A."""
    out = []
    for q in TYPE_A:
        full = directed_partition(q, positive_roots(q))
        dims = [(1,) * q.n, (2,) * q.n, tuple(1 + (i % 3) for i in range(q.n))]
        for e in dims:
            for orbit in orbits(q, e):
                out.append(
                    (
                        quiver_coefficients(q, e, orbit),
                        quiver_coefficients(q, e, orbit, dp=full),
                        full,
                    )
                )
    return out


@cache
def d4_corpus():
    """Triples (greedy table, full positive-root-partition table, that
    partition) for every orbit with entries at most 2, on three orientations
    of the star."""
    out = []
    for q in D4_ORIENTATIONS:
        full = directed_partition(q, positive_roots(q))
        for e in itertools.product(range(3), repeat=q.n):
            for orbit in orbits(q, e):
                out.append(
                    (
                        quiver_coefficients(q, e, orbit),
                        quiver_coefficients(q, e, orbit, dp=full),
                        full,
                    )
                )
    return out


def every_table():
    """Every corpus table, with the directed partition it was computed from
    (None for the greedy one)."""
    for _, _, _, table in a2_corpus():
        yield table, None
    for _, table in inbound_corpus():
        yield table, None
    for _, table in outbound_corpus():
        yield table, None
    for a, b, full in type_a_corpus() + d4_corpus():
        yield a, None
        yield b, full


def pairs_moved(triples) -> int:
    """How many orbits get a different resolution pair from the full partition."""
    return sum(
        resolution_pair(a.quiver, a.orbit) != resolution_pair(a.quiver, a.orbit, full)
        for a, _, full in triples
    )


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_01_rank_stratum_single_term():
    """Every rank stratum on two vertices yields exactly the one expected
    rectangle class with coefficient 1, within the stated time budget."""
    t0 = time.monotonic()
    for e1, e2, r, table in a2_corpus():
        assert table.tensor == porteous(e1, e2, r), (e1, e2, r)
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_inbound_engine_matches_oracle():
    t0 = time.monotonic()
    for m, table in inbound_corpus():
        assert table.tensor == inbound_table(m), m
    assert time.monotonic() - t0 < 300.0


def test_criterion_03_outbound_engine_matches_oracle():
    t0 = time.monotonic()
    for m, table in outbound_corpus():
        assert table.tensor == outbound_table(m), m
    assert time.monotonic() - t0 < 300.0


def test_criterion_04_resolution_pair_independence():
    """Tables are identical under two different directed partitions: in
    type A, and on every small orbit of three orientations of the star,
    where only the degree-equals-codim slice is covered by the theory."""
    pairs = type_a_corpus()
    # zero-rank steps drop out, so the two partitions can induce the same
    # pair on dense-ish orbits; demand plenty of genuinely different ones
    assert pairs_moved(pairs) >= 20
    for a, b, _ in pairs:
        assert a.tensor == b.tensor, (a.quiver, a.orbit)
        assert a.codim == b.codim

    stars = d4_corpus()
    for q in D4_ORIENTATIONS:
        own = [(a, b, full) for a, b, full in stars if a.quiver == q]
        assert len(own) == 448, q
        assert pairs_moved(own) >= 80, q
    for a, b, _ in stars:
        assert a.codim == b.codim
        assert a.tensor == b.tensor, (a.quiver, a.orbit)


def test_criterion_05_ring_axioms():
    # commutativity and associativity of the product
    for lam, mu in itertools.combinations(PARTS4, 2):
        assert mul(basis(lam), basis(mu)) == mul(basis(mu), basis(lam))
    for lam, mu, nu in itertools.product(PARTS4, repeat=3):
        a = mul(mul(basis(lam), basis(mu)), basis(nu))
        b = mul(basis(lam), mul(basis(mu), basis(nu)))
        assert a == b, (lam, mu, nu)

    # coassociativity, both iteration orders, against the arity-3 splitting
    for nu in PARTS4:
        left: dict = {}
        right: dict = {}
        for (a, b), c in coproduct(nu).terms.items():
            for (x, y), c2 in coproduct(a).terms.items():
                key = (x, y, b)
                left[key] = left.get(key, 0) + c * c2
            for (x, y), c2 in coproduct(b).terms.items():
                key = (a, x, y)
                right[key] = right.get(key, 0) + c * c2
        assert TensorElement(3, left) == TensorElement(3, right) == coproduct2(nu)

    # counit: collapsing either slot of the coproduct at the empty
    # partition recovers the class itself
    for nu in PARTS4:
        split = coproduct(nu).terms
        assert {b: c for (a, b), c in split.items() if a == ()} == {nu: 1}
        assert {a: c for (a, b), c in split.items() if b == ()} == {nu: 1}

    # product and coproduct are compatible: splitting a product equals the
    # componentwise product of the splittings
    for lam, mu in itertools.combinations_with_replacement(PARTS3, 2):
        lhs: dict = {}
        for (nu,), c in mul(basis(lam), basis(mu)).terms.items():
            for key, c2 in coproduct(nu).terms.items():
                lhs[key] = lhs.get(key, 0) + c * c2
        rhs: dict = {}
        for (l1, m1), c1 in coproduct(lam).terms.items():
            for (l2, m2), c2 in coproduct(mu).terms.items():
                for (x,), cx in mul(basis(l1), basis(l2)).terms.items():
                    for (y,), cy in mul(basis(m1), basis(m2)).terms.items():
                        key = (x, y)
                        rhs[key] = rhs.get(key, 0) + c1 * c2 * cx * cy
        assert TensorElement(2, lhs) == TensorElement(2, rhs), (lam, mu)

    # the enclosing rectangle used to extract splitting coefficients is
    # immaterial
    boxes = [p for p in PARTS4 if len(p) <= 2 and (not p or p[0] <= 2)]
    for lam, mu in itertools.product(boxes, repeat=2):
        for nu in PARTS4:
            vals = {
                coproduct_coeff(lam, mu, nu, rect)
                for rect in [None, (2, 2), (3, 3, 3), (4, 4, 4, 4)]
            }
            assert len(vals) == 1, (lam, mu, nu)
            assert vals.pop() == coproduct(nu).terms.get((lam, mu), 0)


def test_criterion_06_lowest_degree_is_classical():
    """The degree-(|lam|+|mu|) slice of every small product agrees with a
    brute-force semistandard-tableau count of the classical coefficients."""
    for lam, mu in itertools.combinations_with_replacement(PARTS4, 2):
        product = mul(basis(lam), basis(mu))
        floor = sum(lam) + sum(mu)
        for nu in partitions_of(floor):
            assert product.terms.get((nu,), 0) == classical_lr(lam, mu, nu), (
                lam,
                mu,
                nu,
            )


def test_criterion_07_straightening_obeys_its_law():
    """On every sequence of length <= 4 with entries in -2..4, the law
    holds at every ascent, a trailing negative entry drops and a partition
    is fixed; by the well-founded order these rules fix ``straighten``."""
    identities = 0
    for n in range(5):
        for seq in itertools.product(range(-2, 5), repeat=n):
            got = straighten(seq)
            for rhs in straightening_law(seq):
                assert got == rhs, seq
                identities += 1
    assert identities == 4328  # 3,402 ascents, 800 trailing negatives, 126 partitions


def test_criterion_08_lowest_degree_equals_codimension():
    for table, dp in every_table():
        expected = codim(table.quiver, table.orbit.dim, resolution_pair(table.quiver, table.orbit, dp))
        assert table.codim == expected
        assert min_degree(table.tensor) == expected, (table.quiver, table.orbit)


def test_criterion_09_signs_alternate():
    # product structure constants
    for lam, mu in itertools.combinations_with_replacement(PARTS4, 2):
        for (nu,), c in mul(basis(lam), basis(mu)).terms.items():
            assert (-1) ** (sum(nu) - sum(lam) - sum(mu)) * c > 0, (lam, mu, nu)
    # splitting structure constants
    for nu in PARTS4:
        for (lam, mu), c in coproduct(nu).terms.items():
            assert (-1) ** (sum(lam) + sum(mu) - sum(nu)) * c > 0, (nu, lam, mu)
    # orbit tables over the entire corpus
    for table, _ in every_table():
        assert check_alternating(table) == [], (table.quiver, table.orbit)


def test_criterion_10_root_systems():
    t0 = time.monotonic()
    census = [
        (A2, 3),
        (Quiver(3, ((1, 2), (2, 3))), 6),
        (Quiver(4, ((1, 2), (2, 3), (3, 4))), 10),
        (D4, 12),
        (Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))), 36),
    ]
    for q, count in census:
        roots = positive_roots(q)
        assert len(roots) == count, q
        for root in roots:
            assert tits_form(q, root) == 1, (q, root)
    assert time.monotonic() - t0 < 30.0


def test_criterion_11_membership_matches_rank_conditions():
    """Hom-dimension membership agrees with the three defining rank bounds
    of inbound orbit closures on 100 random integer points per orbit."""
    rng = random.Random(1153)
    for m in all_mults(3):
        e1, e2, e3 = m.dim
        orbit = m.orbit()
        for k in range(100):
            lo, hi = (-1, 1) if k % 2 else (-2, 2)
            phi1 = tuple(
                tuple(rng.randint(lo, hi) for _ in range(e1)) for _ in range(e2)
            )
            phi3 = tuple(
                tuple(rng.randint(lo, hi) for _ in range(e3)) for _ in range(e2)
            )
            rep = QuiverRep(m.dim, (phi1, phi3))
            expected = (
                fraction_rank(phi1) <= m.m12 + m.m13
                and fraction_rank(phi3) <= m.m23 + m.m13
                and fraction_rank([a + b for a, b in zip(phi1, phi3)])
                <= m.m12 + m.m23 + m.m13
            )
            assert in_orbit_closure(INBOUND, rep, orbit) == expected, (m, rep)
