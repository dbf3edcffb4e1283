import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergk.partitions import QuiverError, normalize

from conftest import partitions
from reference import (
    SetValuedTableau,
    SkewShape,
    conjugate,
    contains,
    content,
    enumerate_svt,
    expand_single,
    hook_content_count,
    is_reverse_lattice,
    is_rook_strip,
    partitions_fitting,
    rook_strip_complement,
    u_word,
    word,
)


# ---------------------------------------------------------------------------
# basic partition plumbing


def test_normalize_strips_trailing_zeros():
    assert normalize((2, 1, 0, 0)) == (2, 1)
    assert normalize([]) == ()
    assert normalize((3,)) == (3,)


@pytest.mark.parametrize("bad", [(1, 2), (2, -1), (0, 1)])
def test_normalize_rejects_non_partitions(bad):
    with pytest.raises(ValueError):
        normalize(bad)


@pytest.mark.parametrize("bad", [0.5, 1.7, 2.0, "1"])
def test_normalize_rejects_non_integers(bad):
    with pytest.raises(ValueError):
        normalize((3, bad))
    with pytest.raises(ValueError):
        normalize((bad,))


def test_normalize_reads_booleans_as_integers():
    assert normalize((2, True, False)) == (2, 1)
    assert all(type(part) is int for part in normalize((True,)))


# the reference layer's own input checks: each once raised TypeError, a bare ValueError,
# or returned a wrong answer
REFERENCE_BAD_CALLS = {
    "negative box rows": lambda: list(partitions_fitting(-1, 2)),
    "negative box columns": lambda: list(partitions_fitting(2, -1)),
    "negative variable count": lambda: expand_single((1,), -1, 2),
    "negative degree": lambda: expand_single((1,), 1, -1),
    "conjugate of an increasing sequence": lambda: conjugate((1, 2)),
    "float letter": lambda: content([1.5]),
    "string letter": lambda: is_reverse_lattice(["a"]),
    "shape not a sequence": lambda: enumerate_svt(5, 1, 0),
}


@pytest.mark.parametrize("call", REFERENCE_BAD_CALLS.values(), ids=REFERENCE_BAD_CALLS)
def test_reference_bad_input_raises_quiver_error(call):
    with pytest.raises(QuiverError):
        call()


@pytest.mark.parametrize(
    "lam,expected",
    [((3, 2), (2, 2, 1)), ((), ()), ((1, 1, 1), (3,)), ((4,), (1, 1, 1, 1))],
)
def test_conjugate(lam, expected):
    assert conjugate(lam) == expected


@given(partitions())
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_contains():
    assert contains((3, 2), (2, 2))
    assert contains((3, 2), ())
    assert not contains((3, 2), (2, 2, 1))
    assert not contains((1,), (2,))


def test_partitions_fitting_box_count():
    # partitions inside a p x q box are counted by binomial(p+q, p)
    from math import comb

    for p, q in [(2, 2), (3, 2), (1, 5), (0, 3), (3, 3)]:
        got = list(partitions_fitting(p, q))
        assert len(got) == comb(p + q, p)
        assert len(set(got)) == len(got)
        assert all(contains((q,) * p, lam) for lam in got)
    # the same sequence as filtering every tuple in the box, up to 4 x 4
    for p, q in itertools.product(range(5), repeat=2):
        box = {
            normalize(lam)
            for lam in itertools.product(range(q + 1), repeat=p)
            if all(a >= b for a, b in zip(lam, lam[1:]))
        }
        assert list(partitions_fitting(p, q)) == sorted(box, key=lambda l: (sum(l), l))


# ---------------------------------------------------------------------------
# tableaux and words


def test_tableau_word_reads_bottom_row_first():
    t = SetValuedTableau(
        SkewShape((3, 2)),
        (((1, 2), (2,), (2, 5, 8)), ((4,), (7, 8))),
    )
    assert word(t) == (4, 7, 8, 1, 2, 2, 2, 5, 8)
    assert t.size == 9
    assert t.excess == 4


def test_tableau_word_small():
    one = SetValuedTableau(SkewShape((1,)), (((1,),),))
    assert word(one) == (1,)
    t = SetValuedTableau(SkewShape((2,)), (((1,), (1, 3)),))
    assert word(t) == (1, 1, 3)


def test_tableau_rejects_bad_fillings():
    # row condition: max of a cell must be <= min of the cell to its right
    with pytest.raises(ValueError):
        SetValuedTableau(SkewShape((2,)), (((3,), (1,)),))
    # column condition is strict
    with pytest.raises(ValueError):
        SetValuedTableau(SkewShape((1, 1)), (((2,),), ((2,),)))
    with pytest.raises(ValueError):
        SetValuedTableau(SkewShape((1,)), (((),),))


def test_u_word():
    assert u_word((3, 2)) == (2, 2, 1, 1, 1)
    assert u_word(()) == ()
    assert u_word((2,)) == (1, 1)


def test_content():
    assert content((4, 7, 8, 1, 2, 2, 2, 5, 8)) == (1, 3, 0, 1, 1, 0, 1, 2)
    assert content(()) == ()


@pytest.mark.parametrize(
    "w,ok",
    [((2, 1, 1), True), ((1, 2), False), ((), True), ((1, 1, 2, 1), True), ((2,), False)],
)
def test_is_reverse_lattice(w, ok):
    assert is_reverse_lattice(w) is ok


@given(partitions())
def test_u_word_content_round_trip(mu):
    assert content(u_word(mu)) == mu
    # the column word of any partition is itself reverse lattice
    assert is_reverse_lattice(u_word(mu))


# ---------------------------------------------------------------------------
# set-valued enumeration


def test_enumerate_svt_single_box():
    got = [t.rows[0][0] for t in enumerate_svt(SkewShape((1,)), 2, 1)]
    assert sorted(got) == [(1,), (1, 2), (2,)]
    got = list(enumerate_svt(SkewShape((1,)), 1, 0))
    assert len(got) == 1 and got[0].rows == (((1,),),)


def test_enumerate_svt_hook_shape():
    assert sum(1 for _ in enumerate_svt(SkewShape((2, 1)), 2, 0)) == 2


def test_enumerate_svt_no_duplicates_and_valid():
    seen = set()
    for t in enumerate_svt(SkewShape((2, 1), (1,)), 3, 2):
        assert t.excess <= 2
        assert max(x for row in t.rows for c in row for x in c) <= 3
        key = t.rows
        assert key not in seen
        seen.add(key)
    assert seen  # non-empty stream


@pytest.mark.parametrize("lam", [(1,), (2,), (2, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_semistandard_count_matches_hook_content(lam, k):
    got = sum(1 for _ in enumerate_svt(SkewShape(lam), k, 0))
    assert got == hook_content_count(lam, k)


# ---------------------------------------------------------------------------
# single-G expansion


def test_expand_single_one_box():
    assert expand_single((1,), 1, 3) == {(1,): 1}
    assert expand_single((1,), 2, 2) == {(1, 0): 1, (0, 1): 1, (1, 1): -1}
    assert expand_single((), 2, 2) == {(0, 0): 1}


def test_expand_single_symmetric():
    for lam in [(1,), (2,), (2, 1)]:
        poly = expand_single(lam, 3, 4)
        for mono, c in poly.items():
            for perm in itertools.permutations(range(3)):
                assert poly[tuple(mono[i] for i in perm)] == c


def test_expand_single_vanishes_past_length():
    # a two-row shape needs at least two variables
    assert expand_single((1, 1), 1, 4) == {}


@pytest.mark.parametrize(
    "func,args",
    [
        (partitions_fitting, (1.5, 2)),
        (partitions_fitting, (2, "2")),
        (enumerate_svt, ((1,), 1.5, 0)),
        (enumerate_svt, ((1,), 1, 0.5)),
        (expand_single, ((1,), 2.0, 1)),
        (expand_single, ((1,), 2, 1.5)),
    ],
)
def test_counts_must_be_integers(func, args):
    # the error normalize raises, not a TypeError from inside range()
    with pytest.raises(ValueError, match="expected integers"):
        list(func(*args))


# ---------------------------------------------------------------------------
# rook strips


@pytest.mark.parametrize(
    "outer,inner,ok",
    [
        ((2, 1), (1,), True),
        ((2,), (), False),
        ((1, 1), (), False),
        ((1,), (), True),
        ((2, 2), (1,), False),
        ((3, 1), (2,), True),
        ((2, 2), (2, 1), True),
    ],
)
def test_is_rook_strip(outer, inner, ok):
    assert is_rook_strip(outer, inner) is ok


def test_rook_strip_complement_frozen():
    assert rook_strip_complement((1,), (1,), (1,)) is True
    assert rook_strip_complement((2, 2), (2, 2), ()) is True
    assert rook_strip_complement((2, 2), (1,), (1,)) is False
    # union covers but the overlap has two boxes in one row
    assert rook_strip_complement((2,), (2,), (2,)) is False


def tiles_by_boxes(p, q, placed, rotated):
    """The tiling condition read off box sets: ``placed`` in the top-left
    corner and ``rotated`` turned by 180 degrees into the bottom-right one
    stay in the p x q rectangle, cover it, and overlap in boxes with
    distinct rows and distinct columns."""
    rect = {(i, j) for i in range(1, p + 1) for j in range(1, q + 1)}
    top = {(i, j) for i, part in enumerate(placed, 1) for j in range(1, part + 1)}
    turned = {
        (p + 1 - i, q + 1 - j) for i, part in enumerate(rotated, 1) for j in range(1, part + 1)
    }
    if not top <= rect or not turned <= rect or top | turned != rect:
        return False
    overlap = top & turned
    return len({i for i, _ in overlap}) == len(overlap) == len({j for _, j in overlap})


def test_rook_strip_complement_matches_box_sets():
    # every pair of partitions up to one row and one column past the rectangle
    for p, q in itertools.product(range(5), repeat=2):
        shapes = list(partitions_fitting(p + 1, q + 1))
        for placed, rotated in itertools.product(shapes, repeat=2):
            assert rook_strip_complement((q,) * p, placed, rotated) == tiles_by_boxes(
                p, q, placed, rotated
            ), (p, q, placed, rotated)


@given(partitions(max_size=6, max_part=3, max_rows=3), partitions(max_size=6, max_part=3, max_rows=3))
@settings(max_examples=200)
def test_rook_strip_complement_symmetric(placed, rotated):
    # rotating the whole picture by 180 degrees swaps the two diagrams
    rect = (3, 3, 3)
    assert rook_strip_complement(rect, placed, rotated) == rook_strip_complement(
        rect, rotated, placed
    )


def test_rook_strip_complement_rejects_oversized():
    assert rook_strip_complement((2, 2), (3,), ()) is False
    assert rook_strip_complement((2, 2), (), (1, 1, 1)) is False
