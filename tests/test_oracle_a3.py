import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergk.gamma import coproduct2, min_degree
from quivergk.oracle_a3 import (
    INBOUND,
    OUTBOUND,
    A3OrbitMults,
    _INTERVALS,
    inbound_table,
    interval_root,
    mults_from_orbit,
    outbound_table,
)
from quivergk.partitions import normalize
from quivergk.quiver import QuiverError
from quivergk.resolution import codim, directed_partition, resolution_pair

from reference import all_mults, brute_force_mults, contains, inbound_c, outbound_d, partitions_fitting, porteous


SAMPLE = [
    A3OrbitMults(1, 1, 0, 1, 1, 1),
    A3OrbitMults(0, 1, 1, 0, 1, 0),
    A3OrbitMults(2, 1, 0, 0, 1, 2),
    A3OrbitMults(0, 2, 0, 1, 0, 2),
    A3OrbitMults(1, 0, 1, 1, 0, 1),
    A3OrbitMults(0, 0, 2, 1, 1, 0),
]


# ---------------------------------------------------------------------------
# bookkeeping types


def test_interval_roots():
    assert interval_root(1, 3) == (1, 1, 1)
    assert interval_root(2, 2) == (0, 1, 0)
    with pytest.raises(QuiverError):
        interval_root(3, 1)


def test_dim_vector():
    m = A3OrbitMults(m12=1, m33=1)
    assert m.dim == (1, 1, 1)
    assert A3OrbitMults(1, 1, 1, 1, 1, 1).dim == (3, 4, 3)


def test_rejects_negative_multiplicity():
    with pytest.raises(QuiverError):
        A3OrbitMults(m11=-1)


@pytest.mark.parametrize("value", [0.5, 1.0, "1", None])
def test_rejects_non_integer_multiplicity(value):
    # as OrbitSpec does; a float must not reach a table
    with pytest.raises(QuiverError, match="expected integers"):
        A3OrbitMults(m23=value)


def test_orbit_round_trip():
    for m in SAMPLE:
        assert mults_from_orbit(m.orbit()) == m


@pytest.mark.parametrize("interval", _INTERVALS, ids=lambda ij: "m%d%d" % ij)
def test_interval_table(interval):
    # the unit orbit of one interval: its dimension vector is the interval's root, and the one
    # table of intervals runs in the record's field order, the constructor's positional order,
    # through as_dict and back
    i, j = interval
    m = A3OrbitMults(**{f"m{i}{j}": 1})
    assert m.dim == interval_root(i, j)
    field_order = [(int(f[1]), int(f[2])) for f in A3OrbitMults._fields]
    assert list(m.as_dict()) == list(_INTERVALS) == field_order
    assert A3OrbitMults(*(int(ij == interval) for ij in _INTERVALS)) == m
    assert mults_from_orbit(m.orbit()) == m


def test_all_mults_census():
    # hand count for max_dim=1: one orbit apiece for the six dimension
    # vectors supported on <=2 vertices, four for e=(1,1,1), plus zero
    assert len(all_mults(1)) == 13
    assert len(all_mults(3)) == 280
    for d in range(4):
        assert all_mults(d) == brute_force_mults(d)


# ---------------------------------------------------------------------------
# rank stratum on two vertices


def test_porteous_frozen():
    assert porteous(3, 2, 1).terms == {((), (2,)): 1}
    assert porteous(2, 2, 0).terms == {((), (2, 2)): 1}
    assert porteous(4, 3, 3).terms == {((), ()): 1}
    with pytest.raises(QuiverError):
        porteous(2, 2, 3)


@pytest.mark.parametrize("args", [(1.5, 1, 1), (2, 2.0, 1), (2, 2, "1"), (2, 2, None)])
def test_porteous_rejects_non_integer_arguments(args):
    with pytest.raises(QuiverError, match="expected integers"):
        porteous(*args)


# ---------------------------------------------------------------------------
# inbound orientation


def test_inbound_zero_orbit():
    m = A3OrbitMults(m11=1, m22=1, m33=1)
    assert inbound_table(m).terms == {((), (2,), ()): 1}


def test_inbound_two_simple_summands():
    m = A3OrbitMults(m12=1, m33=1)
    assert inbound_table(m).terms == {
        ((1,), (), ()): 1,
        ((), (1,), ()): 1,
        ((1,), (1,), ()): -1,
    }
    # and its reflection through the middle vertex
    m = A3OrbitMults(m11=1, m23=1)
    assert inbound_table(m).terms == {
        ((), (1,), ()): 1,
        ((), (), (1,)): 1,
        ((), (1,), (1,)): -1,
    }


def test_inbound_middle_only():
    m = A3OrbitMults(m22=2)
    assert inbound_table(m).terms == {((), (), ()): 1}


def test_inbound_dense_orbit():
    # generic 1 -> 2 <- 3 with e = (1,2,1) decomposes without simples
    m = A3OrbitMults(m12=1, m23=1)
    assert inbound_table(m).terms == {((), (), ()): 1}


def test_inbound_table_is_the_tableau_count():
    """Every key of every inbound table with dims <= 3 is its tableau
    count, and so is every absent key near it: lam and nu over their
    rectangles, mu over the table's middle keys (prefix stripped) and the
    2 x 2 box.  A mu wider than the prefix has no key."""
    for m in all_mults(3):
        table = inbound_table(m).terms
        width = m.m11 + m.m13 + m.m33
        lams = partitions_fitting(m.m12, m.m33)
        mus = set(partitions_fitting(2, 2)) | {mid[m.m22 :] for _, mid, _ in table}
        seen = set()
        for lam, mu, nu in itertools.product(lams, mus, partitions_fitting(m.m23, m.m11)):
            want = 0
            if not mu or mu[0] <= width:
                key = (lam, normalize((width,) * m.m22 + mu), nu)
                want = table.get(key, 0)
                seen.add(key)
            assert inbound_c(lam, mu, nu, m) == want, (m, lam, mu, nu)
        assert seen >= table.keys(), m


def test_inbound_c_vanishes_outside_the_rectangles():
    # lam lives in the m12 x m33 rectangle and nu in the m23 x m11 one
    box = list(partitions_fitting(2, 2))
    for m in SAMPLE:
        for lam, mu, nu in itertools.product(box, repeat=3):
            if not (contains((m.m33,) * m.m12, lam) and contains((m.m11,) * m.m23, nu)):
                assert inbound_c(lam, mu, nu, m) == 0, (m, lam, mu, nu)


def test_inbound_sign_law():
    for m in SAMPLE:
        width = m.m11 + m.m13 + m.m33
        for (lam, mid, nu), c in inbound_table(m).terms.items():
            mu = mid[m.m22 :]
            par = sum(lam) + sum(mu) + sum(nu) - m.m33 * m.m12 - m.m11 * m.m23
            assert (-1) ** par * c > 0
            # prefix rows must genuinely dominate the attached partition
            assert all(x == width for x in mid[: m.m22])
            assert not mu or mu[0] <= m.m11 + m.m33


def test_inbound_table_min_degree_is_codim():
    for m in SAMPLE:
        orbit = m.orbit()
        pair = resolution_pair(
            INBOUND, orbit, directed_partition(INBOUND, orbit.support)
        )
        assert min_degree(inbound_table(m)) == codim(INBOUND, m.dim, pair)


# ---------------------------------------------------------------------------
# outbound orientation


def test_outbound_zero_orbit():
    m = A3OrbitMults(m11=1, m22=1, m33=1)
    assert outbound_table(m).terms == {((1,), (), (1,)): 1}


def test_outbound_one_simple():
    m = A3OrbitMults(m12=1, m33=1)
    assert outbound_table(m).terms == {((), (), (1,)): 1}


def test_outbound_no_middle_overlap():
    # m13 = 0 collapses the rectangle sum to a single term
    m = A3OrbitMults(m11=2, m12=1, m22=1, m23=1, m33=1)
    want = ((2,) * 2, (), (2,))
    assert outbound_table(m).terms == {want: 1}


def test_rectangle_double_coproducts_are_the_tableau_count():
    # outbound_table reads coproduct2(rect); every triple in the rectangle
    # is certified, and the table has no key outside it
    for rect in [(), (1,), (2,), (1, 1), (2, 2), (3,), (2, 2, 2)]:
        p, q = len(rect), rect[0] if rect else 0
        triples = list(itertools.product(partitions_fitting(p, q), repeat=3))
        table = coproduct2(rect).terms
        for key in triples:
            assert outbound_d(rect, *key) == table.get(key, 0), (rect, key)
        assert set(triples) >= table.keys(), rect


def test_outbound_d_frozen():
    assert outbound_d((), (), (), ()) == 1
    assert outbound_d((), (1,), (), ()) == 0
    assert outbound_d((1,), (1,), (), ()) == 1
    assert outbound_d((1,), (1,), (1,), (1,)) == 1
    # not contained in the rectangle
    assert outbound_d((1,), (2,), (), ()) == 0
    with pytest.raises(QuiverError):
        outbound_d((2, 1), (), (), ())


def test_outbound_d_vanishes_outside_rectangle():
    for lam in [(3,), (1, 1, 1), (2, 2, 1)]:
        assert outbound_d((2, 2), lam, (), (2, 2)) == 0


def test_outbound_table_min_degree_is_codim():
    for m in SAMPLE:
        orbit = m.orbit()
        pair = resolution_pair(
            OUTBOUND, orbit, directed_partition(OUTBOUND, orbit.support)
        )
        assert min_degree(outbound_table(m)) == codim(OUTBOUND, m.dim, pair)
