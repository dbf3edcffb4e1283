import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quivergk.engine import (
    CAVEAT_FLAG,
    CoefficientTable,
    a_op,
    caveat_for,
    check_alternating,
    coefficients,
    cohomological_part,
    phi,
    psi,
    quiver_coefficients,
    sweep,
)
from quivergk import clear_caches, engine
from quivergk.gamma import (
    TensorElement,
    append_unit,
    basis,
    coproduct,
    min_degree,
    straighten,
)
from quivergk.oracle_a3 import INBOUND, OUTBOUND, A3OrbitMults, inbound_table
from quivergk.quiver import (
    OrbitSpec,
    Quiver,
    QuiverError,
    euler_form,
    in_orbit_closure,
    opposite,
    orbits,
    positive_roots,
)
from quivergk.resolution import (
    ResolutionPair,
    codim,
    directed_partition,
    orbit_steps,
    resolution_pair,
)

from reference import a2_orbit, conjugate, fold_every_head, orbit_rep, pair_stages, partitions_fitting, tensor_mul_at


# ---------------------------------------------------------------------------
# operator building blocks


def test_fractional_pair_vertex_is_an_input_error():
    # a float vertex used to reach a TypeError inside the engine
    a2 = Quiver(2, ((1, 2),))
    with pytest.raises(QuiverError):
        coefficients(a2, (1, 1), ResolutionPair((1.5,), (1,)))


@pytest.mark.parametrize("vertex", [0, 4])
def test_pair_vertex_out_of_range(vertex):
    # vertex 0 must not wrap round to vertex 3, nor vertex 4 reach an IndexError
    q = Quiver(3, ((1, 2), (3, 2)))
    pair = ResolutionPair((2, vertex), (1, 1))
    with pytest.raises(QuiverError, match="out of range"):
        coefficients(q, (1, 1, 1), pair)
    with pytest.raises(QuiverError, match="out of range"):
        codim(q, (1, 1, 1), pair)
    with pytest.raises(QuiverError, match="out of range"):
        phi(TensorElement.unit(3), q, (1, 1, 1), vertex, 1)


def test_psi_on_pure_tensor():
    # splitting a G_(1) slot against an empty working slot
    p = tensor_mul_at(TensorElement.unit(2), 1, basis((1,)))
    got = psi(p, 1)
    assert got.terms == {
        ((1,), ()): 1,
        ((), (1,)): 1,
        ((1,), (1,)): -1,
    }


def test_psi_slot_bounds():
    with pytest.raises(QuiverError):
        psi(TensorElement.unit(2), 2)  # the working slot is not splittable
    with pytest.raises(QuiverError):
        psi(TensorElement.unit(1), 1)


def test_a_op_prepends_and_straightens():
    # working slot (1) at r=1, c=1 lands as (2) prefix on an empty slot
    p = TensorElement(2, {((), (1,)): 1})
    assert a_op(p, 1, 1, 1).terms == {((2,),): 1}
    # rows beyond r are annihilated
    p = TensorElement(2, {((), (1, 1)): 1})
    assert a_op(p, 1, 1, 1).terms == {}
    # c = 0, r = 2: plain padding
    p = TensorElement(2, {((), (2, 1)): 1})
    assert a_op(p, 1, 2, 0).terms == {((2, 1),): 1}


def test_a_op_straightening_kicks_in():
    # prefix (1) in front of an existing (2) forces a rewrite
    p = TensorElement(2, {((2,), (1,)): 1})
    got = a_op(p, 1, 1, 0)
    assert got.arity == 1
    assert got.terms == {((2, 2),): 1}


def test_a_op_passes_partitions_through(monkeypatch):
    """a_op equals straightening every prepended sequence, for every lam
    and nu in the 3 x 3 box, r in 0..3 and c in -2..3 (c + nu_r = 0 and
    negative c included), and only hands ``straighten`` the sequences with
    an ascent: a weakly decreasing one is its positive entries."""
    clear_caches()
    handed = []

    def spy(seq):
        handed.append(seq)
        return straighten(seq)

    monkeypatch.setattr(engine, "straighten", spy)
    box = list(partitions_fitting(3, 3))
    for lam, nu, r, c in itertools.product(box, box, range(4), range(-2, 4)):
        got = a_op(TensorElement(2, {(lam, nu): 1}), 1, r, c)
        want = {}
        if len(nu) <= r:
            seq = tuple(c + x for x in nu) + (c,) * (r - len(nu)) + lam
            want = straighten(seq).terms
        assert got.terms == want, (lam, nu, r, c)
    assert handed
    for seq in handed:
        assert any(x < y for x, y in zip(seq, seq[1:])), seq


def test_phi_rejects_a_stage_vector_of_the_wrong_length(inbound):
    with pytest.raises(QuiverError, match="bad dimension vector"):
        phi(TensorElement.unit(3), inbound, (1, 1), 2, 1)


def test_phi_respects_stage_bound(a2):
    with pytest.raises(QuiverError):
        phi(TensorElement.unit(2), a2, (1, 1), 1, 2)


@pytest.mark.parametrize(
    "arity, stage, vertex, rank",
    [
        (2, (1, 1, 1), 2, 1),  # a tensor without one slot per vertex
        (4, (1, 1, 1), 2, 1),
        (3, (1, 1, 1), 1, -1),  # negative rank at a vertex with an out-arrow
        (3, (1, 1, 1), 2, -1),  # and at a sink
        (3, (1, 1, 1), 1.5, 1),
        (3, (1, 1, 1), 2.0, 1),
        (3, (1, 1, 1), 2, 0.5),
        (3, (1, 1, 1), 2, 1.0),
        (3, (1, -1, 1), 1, 1),
        (3, (1, 1.5, 1), 1, 1),
        (3, (1, "1", 1), 1, 1),
    ],
)
def test_phi_rejects_bad_input(inbound, arity, stage, vertex, rank):
    with pytest.raises(QuiverError):
        phi(TensorElement.unit(arity), inbound, stage, vertex, rank)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: psi(p, 1.0, 1),
        lambda p: psi(p, 1, 1.5),
        lambda p: a_op(p, 1.0, 1, 0),
        lambda p: a_op(p, 1, 1.0, 0),
        lambda p: a_op(p, 1, 1, 0.5),
    ],
    ids=["psi-slot", "psi-rows", "a_op-slot", "a_op-rank", "a_op-width"],
)
def test_operators_reject_non_integer_arguments(call):
    # a_op(unit, 1, 1, 0.5) used to return a tensor keyed by G[0.5]
    with pytest.raises(QuiverError, match="expected integers"):
        call(TensorElement.unit(3))


def test_operators_check_their_arguments_once_per_call(monkeypatch):
    # the arguments, plain ints or not (True here), are converted once
    # per call, not once per term
    p = TensorElement(3, {((k,), (), (j,)): 1 for k in range(4) for j in range(2)})
    want = psi(p, 1, 2), a_op(p, 1, 2, 1)
    seen = []
    convert = engine.integers
    monkeypatch.setattr(engine, "integers", lambda v: seen.append(v) or convert(v))
    assert (psi(p, 1, 2), a_op(p, 1, 2, 1)) == want
    assert seen == [(1, 2), (1, 2, 1)]
    assert (psi(p, True, 2), a_op(p, True, 2, True)) == want
    assert seen[2:] == [(True, 2), (True, 2, True)]


@pytest.mark.parametrize(
    "q, max_dim",
    [
        (Quiver(3, ((1, 2), (3, 2))), 2),
        (Quiver(3, ((2, 1), (2, 3))), 2),
        (Quiver(4, ((4, 1), (4, 2), (4, 3))), 1),
        (Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))), 1),
    ],
    ids=["A3-in", "A3-out", "D4-out", "E6"],
)
def test_phi_folds_to_the_engine_table(q, max_dim):
    # phi applied right to left along the default pair's stages is the engine
    for e in itertools.product(range(max_dim + 1), repeat=q.n):
        for orbit in orbits(q, e):
            table = quiver_coefficients(q, e, orbit)
            p = TensorElement.unit(q.n)
            for v, r, stage in reversed(list(pair_stages(q, e, resolution_pair(q, orbit)))):
                p = phi(p, q, stage, v, r)
            assert p == table.tensor, orbit


@st.composite
def small_tensors(draw, arity=4):
    from conftest import partitions

    n = draw(st.integers(min_value=1, max_value=3))
    terms = {}
    for _ in range(n):
        key = tuple(
            draw(partitions(max_size=2, max_part=2, max_rows=2)) for _ in range(arity)
        )
        terms[key] = draw(st.integers(min_value=-2, max_value=2))
    return TensorElement(arity, terms)


@given(small_tensors(), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_psi_slots_commute(p, j, k):
    assert psi(psi(p, j), k).terms == psi(psi(p, k), j).terms


def rows_at_most(p, r):
    """The terms of ``p`` whose working (last) slot has at most r rows."""
    return {key: c for key, c in p.terms.items() if len(key[-1]) <= r}


def test_psi_row_bound_is_a_restriction():
    """Pruning inside psi equals building every term and dropping the
    working partitions past the bound, also across a chain of splits."""
    box = list(partitions_fitting(2, 2))
    rng = random.Random(20070826)
    for _ in range(100):
        terms = {tuple(rng.choice(box) for _ in range(3)): rng.choice((-2, -1, 1, 2)) for _ in range(3)}
        p = TensorElement(3, terms)
        i = rng.randint(1, 2)
        single, chained = psi(p, i), psi(psi(p, 1), 2)
        for r in range(5):
            assert psi(p, i, r).terms == rows_at_most(single, r), (terms, i, r)
            assert psi(psi(p, 1, r), 2, r).terms == rows_at_most(chained, r), (terms, r)


def psi_long_way(p, i, max_rows):
    """psi built the long way: the full coproduct of slot ``i``, its second
    factors past ``max_rows`` dropped and the rest multiplied into the
    working slot, then the working partitions past ``max_rows`` dropped."""
    out = TensorElement(p.arity)
    for key, c in p.terms.items():
        for (sigma, tau), d in coproduct(key[i - 1]).terms.items():
            if len(tau) <= max_rows:
                pure = TensorElement(p.arity, {key[: i - 1] + (sigma,) + key[i:]: c * d})
                out = out + tensor_mul_at(pure, p.arity, basis(tau))
    return TensorElement(p.arity, rows_at_most(out, max_rows))


@pytest.mark.parametrize("working", ["empty", "filled"])
def test_psi_matches_the_long_way(working):
    """With an empty working slot psi multiplies by the unit without a
    product lookup; both slot kinds must give the long way's tensor."""
    box = list(partitions_fitting(2, 2))
    filled = [lam for lam in box if lam]
    rng = random.Random(20070827)
    for _ in range(40):
        terms = {}
        for _ in range(3):
            lam = () if working == "empty" else rng.choice(filled)
            terms[(rng.choice(box), rng.choice(box), lam)] = rng.choice((-2, -1, 1, 2))
        p = TensorElement(3, terms)
        i = rng.randint(1, 2)
        for r in range(4):
            assert psi(p, i, r) == psi_long_way(p, i, r), (terms, i, r)


def test_psi_rejects_negative_bound():
    with pytest.raises(QuiverError):
        psi(TensorElement.unit(2), 1, -1)


@st.composite
def fused_cases(draw):
    """(p, h, i, r, c) for the fused last split: arity 3 or 4, two distinct
    non-working slots, a working slot that is empty in every term or
    filled in some, slot partitions of up to 4 columns and long enough that
    a shifted row can end below lam_1, and c from -3, where many working
    partitions reach one positive part with opposite signs.  At arity 4 the
    first (split, work, lam), and maybe others, fill two terms that differ in
    the free slot, so their landing pairs merge and cancel in each context."""
    from conftest import partitions

    arity = draw(st.integers(min_value=3, max_value=4))
    h, i = draw(st.permutations(range(1, arity)))[:2]
    filled = draw(st.booleans())
    slot = partitions(max_size=4, max_part=4, max_rows=2)
    terms = {}
    for n in range(draw(st.integers(min_value=1, max_value=3))):
        split, lam = draw(slot), draw(slot)
        work = draw(partitions(max_size=2, max_part=2, max_rows=2)) if filled else ()
        shared = arity == 4 and (n == 0 or draw(st.booleans()))
        for free in draw(st.lists(slot, min_size=2, max_size=2, unique=True)) if shared else [draw(slot)]:
            key = [free] * (arity - 1)
            key[h - 1], key[i - 1] = split, lam
            terms[(*key, work)] = draw(st.integers(min_value=-2, max_value=2))
    r = draw(st.integers(min_value=0, max_value=3))
    return TensorElement(arity, terms), h, i, r, draw(st.integers(min_value=-3, max_value=2))


@given(fused_cases())
@settings(max_examples=200, deadline=None)
def test_split_absorb_is_a_op_after_psi(case):
    p, h, i, r, c = case
    assert engine._split_absorb(p, h, i, r, c) == a_op(psi(p, h, r), i, r, c)


def test_split_absorb_through_two_inbound_steps_from_a_square():
    """The inbound A3 tensor with (4,4,4,4) in slot 2 through the steps (3, 2, -2)
    and then (1, 2, -2): at c = -2 many working partitions share a positive part,
    with opposite signs, so landing pairs merge and cancel.  Each fused step equals
    ``a_op`` after ``psi``, and ``_fold`` runs the two steps to the same tensor."""
    start = p = TensorElement(3, {((), (4, 4, 4, 4), ()): 1})
    for v in (3, 1):
        want = a_op(psi(append_unit(p), 2, 2), v, 2, -2)
        p = engine._split_absorb(append_unit(p), 2, v, 2, -2)
        assert p == want and p.terms, v
    assert engine._fold(start, INBOUND, [(1, 2, -2), (3, 2, -2)]) == p


def test_split_absorb_expands_each_split_work_lam_once(monkeypatch):
    """Each distinct (split, work, lam) of a fused step's input is expanded once
    for the step's (r, c), however many terms share it in different contexts and
    however many calls meet it: 48 terms, 8 triples, and each (split, work) pair
    twice, once per lam.  Another r or c expands the triples again, and one triple
    serves both slot orders."""
    clear_caches()
    split_terms, calls = engine._split_terms, []
    monkeypatch.setattr(engine, "_split_terms", lambda s, w, r: calls.append((s, w)) or split_terms(s, w, r))
    keys = [
        (free, split, lam, work)
        for free in partitions_fitting(2, 2)
        for split in ((1,), (2, 1))
        for lam in ((), (2,))
        for work in ((), (1,))
    ]
    p = TensorElement(4, {key: 1 + n % 3 for n, key in enumerate(keys)})
    got = engine._split_absorb(p, 2, 3, 2, -1)
    triples = {(split, work, lam) for _, split, lam, work in keys}
    assert len(calls) == len(triples) == 8 < len(p.terms)
    assert sorted(calls) == sorted((split, work) for split, work, _ in triples)
    assert engine._split_absorb(p, 2, 3, 2, -1) == got and len(calls) == 8
    moved = {}
    for r, c in ((2, 0), (1, -1)):
        del calls[:]
        moved[r, c] = engine._split_absorb(p, 2, 3, r, c)
        assert len(calls) == 8, (r, c)
    del calls[:]
    before = engine._landing_pairs.cache_info().currsize
    low = TensorElement(3, {((2, 1), (2,), (1,)): 2})
    high = TensorElement(3, {((2,), (2, 1), (1,)): 2})
    fused = engine._split_absorb(low, 1, 2, 2, -2), engine._split_absorb(high, 2, 1, 2, -2)
    assert len(calls) == engine._landing_pairs.cache_info().currsize - before == 1
    monkeypatch.undo()
    assert got == a_op(psi(p, 2, 2), 3, 2, -1)
    assert all(moved[r, c] == a_op(psi(p, 2, r), 3, r, c) for r, c in moved)
    assert fused == (a_op(psi(low, 1, 2), 2, 2, -2), a_op(psi(high, 2, 2), 1, 2, -2))
    assert len({sigma for sigma, _ in fused[0].terms}) > 1 and any(s != k for s, k in fused[0].terms)


def test_split_absorb_straightens_rows_that_end_below_lam(monkeypatch):
    """Both slot orders, empty and filled working slots, and slot-i
    partitions whose first row beats the shifted row's last entry, so
    the fused pass reaches ``straighten``."""
    handed = []

    def spy(seq):
        handed.append(seq)
        return straighten(seq)

    monkeypatch.setattr(engine, "straighten", spy)
    p = TensorElement(3, {((2, 1), (3, 3), ()): 1, ((1,), (3,), ()): -2, ((2,), (1,), (1,)): 3})
    cases = [(h, i, r, c) for h, i in ((1, 2), (2, 1)) for r in range(4) for c in (-1, 0, 1, 2)]
    fused = [engine._split_absorb(p, *case) for case in cases]
    assert handed
    for got, (h, i, r, c) in zip(fused, cases):
        assert got == a_op(psi(p, h, r), i, r, c), (h, i, r, c)


def test_landing_pairs_into_empty_slots_are_the_coproduct_of_the_straightened_row():
    """With the working slot and slot i empty, the pairs that ``nu``'s split writes at a step
    (r, c) with c <= 0 are sum(a_lam * coproduct(lam)), where sum(a_lam * G_lam) straightens
    the row (nu_1 + c, ..., nu_r + c), nu padded with zeros to r entries.  The law is measured,
    not proved: every nu in the 4 x 4 box, r = len(nu)..4 and c = 0..-4, 630 cases, here, and
    the 5 x 5 box with r <= 6 and c >= -6, 4,998 cases, once."""
    cases = 0
    for nu in partitions_fitting(4, 4):
        for r, c in itertools.product(range(len(nu), 5), range(0, -5, -1)):
            it = iter(engine._landing_pairs(nu, (), (), r, c))
            want = TensorElement(2)
            for (lam,), a in straighten([x + c for x in nu] + [c] * (r - len(nu))).terms.items():
                want = want + a * coproduct(lam)
            assert {(sigma, kappa): d for sigma, kappa, d in zip(it, it, it)} == want.terms, (nu, r, c)
            cases += 1
    assert cases == 630


def test_fold_at_a_vertex_with_three_out_arrows(monkeypatch):
    """The centre of D4 with every arrow outwards splits along arrows to
    1 and 3 with ``psi`` and fuses the split to 4: a step there, and every
    table up to dimension 2, equal the step-by-step composition."""
    q = Quiver(4, ((2, 1), (2, 3), (2, 4)))
    assert q.heads[2] == (1, 3, 4)
    box = list(partitions_fitting(2, 2))
    rng = random.Random(20070828)
    for _ in range(30):
        keys = [tuple(rng.choice(box) for _ in range(4)) for _ in range(3)]
        p = TensorElement(4, {key: rng.choice((-2, -1, 1, 2)) for key in keys})
        r, c = rng.randint(0, 3), rng.randint(-1, 2)
        step = TensorElement(5, {key + ((),): v for key, v in p.terms.items()})
        for h in (1, 3, 4):
            step = psi(step, h, r)
        assert engine._fold(p, q, [(2, r, c)]) == a_op(step, 2, r, c), (p, r, c)
    found = [(e, orb) for e in itertools.product(range(3), repeat=4) for orb in orbits(q, e)]
    fused = [quiver_coefficients(q, e, orb).tensor for e, orb in found]
    monkeypatch.setattr(engine, "_split_absorb", lambda p, h, i, r, c: a_op(psi(p, h, r), i, r, c))
    assert [quiver_coefficients(q, e, orb).tensor for e, orb in found] == fused


def test_fold_at_a_vertex_without_out_arrows():
    """A step at a sink puts the row (c)^r into its slot, straightened where it
    ends below the slot's first part: ``fold_every_head`` absorbs it directly."""
    cases = [
        (Quiver(3, ((1, 2), (3, 2))), 2),
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), 4),
        (Quiver(4, ((2, 1), (2, 3), (2, 4))), 3),
    ]
    box = list(partitions_fitting(3, 3))
    rng = random.Random(20070829)
    straightened = zeros = 0
    for q, i in cases:
        assert q.heads[i] == ()
        for _ in range(40):
            keys = [tuple(rng.choice(box) for _ in range(q.n)) for _ in range(4)]
            p = TensorElement(q.n, {key: rng.choice((-2, -1, 1, 2)) for key in keys})
            r, c = rng.randint(0, 3), rng.randint(-1, 2)
            want = fold_every_head(p, q, [(i, r, c)])
            assert engine._fold(p, q, [(i, r, c)]) == want, (q, i, p, r, c)
            straightened += r > 0 and any(key[i - 1][:1] > (c,) for key in p.terms)
            zeros += c == 0
    assert straightened > 20 and zeros > 20


D4_OUT = Quiver(4, ((4, 1), (4, 2), (4, 3)))
E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))


@pytest.mark.parametrize(
    "q, max_dim",
    [
        (Quiver(3, ((1, 2), (3, 2))), 3),
        (Quiver(3, ((2, 1), (2, 3))), 3),
        (Quiver(4, ((1, 2), (3, 2), (3, 4))), 2),
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), 2),
        (D4_OUT, 2),
        (Quiver(4, ((1, 2), (2, 3), (2, 4))), 2),
        (E6, 1),
        (Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))), 1),
    ],
    ids=["A3-in", "A3-out", "A4-mixed", "D4-in", "D4-out", "D4-mixed", "E6", "E7"],
)
def test_fold_equals_splitting_every_out_slot(q, max_dim):
    """Splitting only the out-slots that hold a partition, and running a
    step with none as a sink step, gives every orbit's table exactly as
    splitting every out-slot does."""
    for e in itertools.product(range(max_dim + 1), repeat=q.n):
        for orbit in orbits(q, e):
            steps, unit = orbit_steps(q, orbit), TensorElement.unit(q.n)
            assert engine._fold(unit, q, steps) == fold_every_head(unit, q, steps), orbit


@st.composite
def empty_slot_cases(draw):
    """(p, h, r): slot h of ``p`` is G_() in every term and every working
    (last) partition has at most r rows."""
    from conftest import partitions

    arity = draw(st.integers(min_value=2, max_value=5))
    h = draw(st.integers(min_value=1, max_value=arity - 1))
    r = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        key = [draw(partitions(max_size=4, max_part=3, max_rows=3)) for _ in range(arity - 1)]
        key[h - 1] = ()
        work = draw(partitions(max_size=4, max_part=3, max_rows=r))
        terms[tuple(key) + (work,)] = draw(st.integers(min_value=-2, max_value=2))
    return TensorElement(arity, terms), h, r


@given(empty_slot_cases())
@settings(max_examples=200, deadline=None)
def test_psi_of_a_slot_empty_in_every_term_is_the_identity(case):
    # the unit law: the coproduct of G_() is G_() (x) G_(), and G_() times a
    # working partition of at most r rows is that partition
    p, h, r = case
    assert psi(p, h, r) == p


@pytest.mark.parametrize("q, max_dim, splits", [(E6, 1, False), (D4_OUT, 2, True)], ids=["E6", "D4-out"])
def test_no_step_splits_a_slot_empty_in_every_term(monkeypatch, q, max_dim, splits):
    """No call of ``psi`` or ``_split_absorb`` gets a split slot that is G_()
    in every term.  No E6 <= 1 table ever fills an out-slot, so all its steps
    run as sink steps; D4-out <= 2 splits filled slots with both."""
    filled = {"psi": [], "_split_absorb": []}

    def spy(name):
        split = getattr(engine, name)

        def call(p, h, *rest):
            filled[name].append(any(key[h - 1] for key in p.terms))
            return split(p, h, *rest)

        return call

    for name in filled:
        monkeypatch.setattr(engine, name, spy(name))
    assert all(failure is None for _, failure in sweep(q, max_dim, "codim"))
    assert all(filled["psi"]) and all(filled["_split_absorb"])
    assert bool(filled["psi"]) == bool(filled["_split_absorb"]) == splits


def test_steps_into_empty_slots_absorb_nothing(monkeypatch):
    """A step whose slot and out-slots are G_() in every term is the
    identity when its row (c)^r has no positive entry, and otherwise puts
    the row into its slot by a key rewrite: neither ``_absorb`` nor
    ``straighten`` is called, and the fold equals splitting every out-slot."""
    rng = random.Random(20070830)
    box = list(partitions_fitting(2, 2))
    kinds = {"identity": 0, "row": 0}
    for q in (Quiver(3, ((1, 2), (3, 2))), D4_OUT, E6):
        for _ in range(40):
            filled = set(rng.sample(range(1, q.n + 1), rng.randint(0, 2)))
            keys = [tuple(rng.choice(box) if v in filled else () for v in range(1, q.n + 1)) for _ in range(3)]
            p = TensorElement(q.n, {key: rng.choice((-2, -1, 1, 2)) for key in keys})
            steps = []  # built in the order of application, then reversed: the fold runs right to left
            for _ in range(rng.randint(1, 6)):
                free = [v for v in range(1, q.n + 1) if v not in filled and filled.isdisjoint(q.heads[v])]
                if not free:
                    break
                i, r, c = rng.choice(free), rng.randint(0, 3), rng.randint(-2, 2)
                steps.append((i, r, c))
                if c > 0 and r:
                    filled.add(i)
                kinds["row" if c > 0 and r else "identity"] += 1
            steps.reverse()
            want = fold_every_head(p, q, steps)
            with monkeypatch.context() as m:
                for name in ("_absorb", "straighten"):
                    m.setattr(engine, name, lambda *args: pytest.fail("a step absorbed a row"))
                assert engine._fold(p, q, steps) == want, (q, p, steps)
    assert min(kinds.values()) > 50


@st.composite
def fold_cases(draw):
    """(p, q, steps): ``p`` not the unit, some slot G_() in every term, and
    steps (v, r, c) with c in -2..2 and r in 0..3."""
    from conftest import partitions

    q = draw(st.sampled_from([Quiver(3, ((1, 2), (3, 2))), Quiver(4, ((1, 2), (3, 2), (3, 4))), D4_OUT]))
    empty = draw(st.sets(st.integers(min_value=1, max_value=q.n), min_size=1, max_size=q.n - 1))
    slot = partitions(max_size=3, max_part=2, max_rows=2)
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        key = tuple(() if v in empty else draw(slot) for v in range(1, q.n + 1))
        terms[key] = draw(st.sampled_from((-2, -1, 1, 2)))
    assume(any(any(key) for key in terms))
    step = st.tuples(st.integers(min_value=1, max_value=q.n), st.integers(0, 3), st.integers(-2, 2))
    return TensorElement(q.n, terms), q, draw(st.lists(step, min_size=1, max_size=4))


@given(fold_cases())
@settings(max_examples=150, deadline=None)
def test_fold_reads_occupancy_off_any_tensor(case):
    p, q, steps = case
    assert engine._fold(p, q, steps) == fold_every_head(p, q, steps)


# ---------------------------------------------------------------------------
# full expansions, frozen


def test_zero_orbit_of_a2(a2):
    table = quiver_coefficients(a2, (1, 1), a2_orbit(1, 0, 1))
    assert table.tensor.terms == {((), (1,)): 1}
    assert table.codim == 1
    assert table.caveat is None
    assert resolution_pair(a2, table.orbit).steps() == ((2, 1), (1, 1))


def test_rank_one_orbit_2x2(a2):
    table = quiver_coefficients(a2, (2, 2), a2_orbit(1, 1, 1))
    assert table.tensor.terms == {((), (1,)): 1}
    assert table.codim == 1


def test_rank_one_orbit_3x2(a2):
    table = quiver_coefficients(a2, (3, 2), a2_orbit(2, 1, 1))
    assert table.tensor.terms == {((), (2,)): 1}
    assert table.codim == 2


def test_rank_zero_orbit_2x2(a2):
    table = quiver_coefficients(a2, (2, 2), a2_orbit(2, 0, 2))
    assert table.tensor.terms == {((), (2, 2)): 1}
    assert table.codim == 4


def test_dense_orbit_is_unit(a2, inbound):
    table = quiver_coefficients(a2, (2, 2), a2_orbit(0, 2, 0))
    assert table.tensor.terms == {((), ()): 1}
    assert table.codim == 0
    orb = OrbitSpec((1, 2, 1), (((1, 1, 0), 1), ((0, 1, 1), 1)))
    table = quiver_coefficients(inbound, (1, 2, 1), orb)
    assert table.tensor.terms == {((), (), ()): 1}


def test_empty_dimension_vector_orbit(a2):
    table = quiver_coefficients(a2, (0, 0), OrbitSpec((0, 0), ()))
    assert table.tensor.terms == {((), ()): 1}
    assert table.codim == 0


def test_row_bound_by_dimension(inbound):
    # slot i never shows partitions with more than e_i rows
    for e in [(2, 2, 1), (1, 3, 2)]:
        for orb in orbits(inbound, e):
            table = quiver_coefficients(inbound, e, orb)
            for key in table.tensor.terms:
                for part, cap in zip(key, e):
                    assert len(part) <= cap


def test_coefficients_returns_the_tensor_and_its_codim(inbound):
    # the codim is the one the resolution layer computes on its own
    for e in [(1, 1, 1), (2, 1, 2), (2, 2, 2)]:
        for orb in orbits(inbound, e):
            table = quiver_coefficients(inbound, e, orb)
            pair = resolution_pair(inbound, orb)
            assert coefficients(inbound, e, pair) == (table.tensor, codim(inbound, e, pair))


def test_coefficients_rejects_overconsumption(a2):
    with pytest.raises(QuiverError):
        coefficients(a2, (1, 1), ResolutionPair((1, 1), (1, 1)))


def test_orbit_dim_mismatch(a2):
    with pytest.raises(QuiverError):
        quiver_coefficients(a2, (2, 2), a2_orbit(1, 0, 1))


def test_orbit_of_non_roots_rejected(inbound):
    # (1,0,1) has a disconnected support, so it is not a root of A3
    fake = OrbitSpec((1, 0, 1), (((1, 0, 1), 1),))
    with pytest.raises(QuiverError, match="not a positive root"):
        quiver_coefficients(inbound, (1, 0, 1), fake)
    with pytest.raises(QuiverError, match="not a positive root"):
        quiver_coefficients(opposite(inbound), (1, 0, 1), fake)


# ---------------------------------------------------------------------------
# invariants


def test_min_degree_equals_codim_a2(a2):
    for m11, m12, m22 in itertools.product(range(3), repeat=3):
        if not m11 + m12 + m22:
            continue
        orb = a2_orbit(m11, m12, m22)
        table = quiver_coefficients(a2, orb.dim, orb)
        assert min_degree(table.tensor) == table.codim


@pytest.mark.parametrize(
    "q, max_dim",
    [
        (Quiver(3, ((1, 2), (3, 2))), 3),
        (Quiver(3, ((2, 1), (2, 3))), 3),
        (Quiver(3, ((1, 2), (2, 3))), 3),
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), 2),
        (Quiver(4, ((4, 1), (4, 2), (4, 3))), 2),
        (Quiver(4, ((1, 4), (4, 2), (4, 3))), 2),
        (Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5))), 1),
        (Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))), 1),
        (Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))), 1),
    ],
    ids=["A3-in", "A3-out", "A3-linear", "D4-in", "D4-out", "D4-mixed", "D5", "E6", "E7"],
)
def test_codim_is_the_dimension_of_self_extensions(q, max_dim):
    # the codimension of an orbit closure is dim Ext^1(M, M) (Voigt's lemma),
    # and a Dynkin quiver is representation-directed, so between indecomposables
    # dim Ext^1(M_b, M_g) = max(0, -<b, g>); the step walk that gives codim is not used
    for e in itertools.product(range(max_dim + 1), repeat=q.n):
        for orbit in orbits(q, e):
            mults = orbit.mults
            ext = sum(m * k * max(0, -euler_form(q, b, g)) for b, m in mults for g, k in mults)
            assert quiver_coefficients(q, e, orbit).codim == ext, orbit


@pytest.mark.parametrize(
    "q, max_dim, pairs",
    [
        (Quiver(3, ((1, 2), (3, 2))), 3, 471),
        (Quiver(3, ((2, 1), (2, 3))), 3, 471),
        (Quiver(4, ((1, 2), (3, 2), (3, 4))), 2, 1010),
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), 2, 974),
        (Quiver(4, ((4, 1), (4, 2), (4, 3))), 2, 974),
        (Quiver(4, ((1, 4), (4, 2), (4, 3))), 2, 1051),
        (Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5))), 1, 529),
        (Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))), 1, 1716),
        (Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))), 1, 5462),
    ],
    ids=["A3-in", "A3-out", "A4-mixed", "D4-in", "D4-out", "D4-mixed", "D5", "E6", "E7"],
)
def test_an_ext_orthogonal_summand_keeps_the_table(q, max_dim, pairs):
    """Stability: for a positive root beta with <alpha, beta> >= 0 and <beta, alpha> >= 0 for
    every root alpha of the orbit, so Ext^1 vanishes both ways between M_beta and the orbit's
    representation, the orbit plus M_beta in dimension e + beta has the orbit's tensor and
    codim.  The codim half is codim = dim Ext^1(V, V); with beta the full interval of an
    equioriented A_n it is the stability of quiver coefficients; the rest is measured here."""
    seen = 0
    for e in itertools.product(range(max_dim + 1), repeat=q.n):
        for orbit in orbits(q, e):
            table = quiver_coefficients(q, e, orbit)
            for beta in positive_roots(q):
                if any(euler_form(q, a, beta) < 0 or euler_form(q, beta, a) < 0 for a in orbit.support):
                    continue
                mults = dict(orbit.mults)
                mults[beta] = mults.get(beta, 0) + 1
                dim = tuple(x + y for x, y in zip(e, beta))
                bigger = quiver_coefficients(q, dim, OrbitSpec(dim, tuple(mults.items())))
                assert (bigger.tensor, bigger.codim) == (table.tensor, table.codim), (orbit, beta)
                seen += 1
    assert seen == pairs


@pytest.mark.parametrize(
    "q, degenerations",
    [
        (INBOUND, 109),
        (OUTBOUND, 109),
        (Quiver(4, ((1, 2), (3, 2), (3, 4))), 1454),
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), 1871),
        (Quiver(4, ((1, 2), (2, 3), (2, 4))), 1871),
    ],
    ids=["A3-in", "A3-out", "A4-mixed", "D4-in", "D4-mixed"],
)
def test_a_degeneration_raises_codim(q, degenerations):
    """An orbit in the closure of another orbit of its dimension vector lies in the closure's
    boundary, so its codim is larger.  Membership is ``in_orbit_closure`` on the representative
    ``orbit_rep``, the codims are the tables', so this ties the membership layer to the engine;
    entries <= 2, which on D4 reach the root (1, 1, 1, 2)."""
    seen = 0
    for e in itertools.product(range(3), repeat=q.n):
        found = [(orbit, orbit_rep(q, orbit), quiver_coefficients(q, e, orbit).codim) for orbit in orbits(q, e)]
        for (orbit, _, cd), (other, rep, other_cd) in itertools.permutations(found, 2):
            if in_orbit_closure(q, rep, orbit):
                assert other_cd > cd, (orbit, other)
                seen += 1
    assert seen == degenerations


@pytest.mark.parametrize(
    "q, sigma, max_dim, pairs",
    [
        (INBOUND, (3, 2, 1), 3, 280),
        (OUTBOUND, (3, 2, 1), 3, 280),
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), (2, 1, 3, 4), 2, 448),
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), (2, 3, 1, 4), 2, 448),
        (Quiver(4, ((4, 1), (4, 2), (4, 3))), (2, 1, 3, 4), 2, 448),
        (Quiver(4, ((4, 1), (4, 2), (4, 3))), (2, 3, 1, 4), 2, 448),
        (Quiver(6, ((1, 2), (2, 3), (4, 3), (5, 4), (6, 3))), (5, 4, 3, 2, 1, 6), 1, 242),
    ],
    ids=["A3-in-13", "A3-out-13", "D4-in-12", "D4-in-123", "D4-out-12", "D4-out-123", "E6-15-24"],
)
def test_an_automorphism_permutes_the_slots(q, sigma, max_dim, pairs):
    """A permutation sigma of the vertices (vertex v goes to sigma[v - 1]) that maps the arrows
    onto themselves relabels every representation, and so every orbit closure, of the quiver:
    the table of sigma(orbit) is the orbit's table with slot v moved to slot sigma(v), at the
    same codim."""
    assert sorted((sigma[t - 1], sigma[h - 1]) for t, h in q.arrows) == sorted(q.arrows)

    def move(vector):
        out = [None] * q.n
        for v, x in enumerate(vector):
            out[sigma[v] - 1] = x
        return tuple(out)

    seen = 0
    for e in itertools.product(range(max_dim + 1), repeat=q.n):
        for orbit in orbits(q, e):
            table = quiver_coefficients(q, e, orbit)
            image = OrbitSpec(move(e), tuple((move(r), m) for r, m in orbit.mults))
            moved = quiver_coefficients(q, image.dim, image)
            assert moved.tensor.terms == {move(key): c for key, c in table.tensor.terms.items()}, orbit
            assert moved.codim == table.codim
            seen += 1
    assert seen == pairs


@pytest.mark.parametrize(
    "edges, max_dim, counts",
    [
        (((1, 2), (2, 3), (3, 4)), 2, (3240, 8872)),
        (((1, 4), (2, 4), (3, 4)), 2, (3584, 14874)),
        (((1, 2), (2, 3), (3, 4), (3, 5)), 1, (1472, 2193)),
        (((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)), 1, (7744, 13607)),
    ],
    ids=["A4", "D4", "D5", "E6"],
)
def test_every_orientation_obeys_the_degree_laws(edges, max_dim, counts):
    """Every orientation of the Dynkin graph (each edge flipped or not): no sign against
    (-1)^(degree - codim), lowest degree = codim, and the other greedy directed partition gives
    the same full table and codim.  The other partition is the one the ``independence`` suite
    folds through its pair, as ``scripts/evidence.py`` does: all roots' on D and E, where the
    default is the support's, and the support's in type A (the suite compares D and E on the
    degree-equals-codim slice only).  The sign law is proved only for equioriented type A
    (``buch:alternating``, ``miller:alternating``); on the other orientations and on D and E it
    is evidence."""
    seen = terms = 0
    for flips in itertools.product((False, True), repeat=len(edges)):
        q = Quiver(max(map(max, edges)), tuple((h, t) if f else (t, h) for (t, h), f in zip(edges, flips)))
        all_roots = caveat_for(q) and directed_partition(q, positive_roots(q))
        for table, failure in sweep(q, max_dim, "signs"):
            orbit = table.orbit
            assert failure is None
            assert min_degree(table.tensor) == table.codim, orbit
            pair = resolution_pair(q, orbit, all_roots or directed_partition(q, orbit.support))
            assert coefficients(q, orbit.dim, pair) == (table.tensor, table.codim), orbit
            seen += 1
            terms += len(table.tensor.terms)
    assert (seen, terms) == counts


def test_alternating_signs_clean_a3(inbound):
    for e in itertools.product(range(3), repeat=3):
        for orb in orbits(inbound, e):
            table = quiver_coefficients(inbound, e, orb)
            assert check_alternating(table) == []


def test_dim_5_inbound_orbit_matches_the_closed_form(inbound):
    """One dim-(5,5,5) orbit, past the small dims the suite's sweeps reach."""
    m = A3OrbitMults(m11=3, m12=2, m23=3, m33=2)
    table = quiver_coefficients(inbound, m.dim, m.orbit())
    assert len(table.tensor.terms) == 6602
    assert table.tensor == inbound_table(m)


def test_check_alternating_flags_violations(a2):
    good = quiver_coefficients(a2, (1, 1), a2_orbit(1, 0, 1))
    forged = CoefficientTable(
        quiver=good.quiver,
        tensor=TensorElement(2, {((), (1,)): 1, ((), (1, 1)): 1}),
        codim=good.codim,
        orbit=good.orbit,
    )
    assert check_alternating(forged) == [(((), (1, 1)), 1)]
    # violations at three degrees among conforming terms, inserted out of
    # (degree, key) order: they come back sorted as ``check --suite signs`` prints them
    violations = {((1, 1), (1,)): -1, ((1,), (2,)): -1, ((), (2,)): 1, ((), (3,)): -1, ((), (1, 1)): 1, ((), (1,)): -1}
    conforming = {((), (2, 1)): 1, ((1,), (1,)): -1, ((1,), ()): 1}
    mixed = [*violations.items(), *conforming.items()]
    forged = CoefficientTable(
        quiver=good.quiver,
        tensor=TensorElement(2, dict(mixed[::2] + mixed[1::2])),
        codim=good.codim,
        orbit=good.orbit,
    )
    expected = TensorElement(2, violations).sorted_terms()
    assert expected == [
        (((), (1,)), -1),
        (((), (1, 1)), 1),
        (((), (2,)), 1),
        (((), (3,)), -1),
        (((1,), (2,)), -1),
        (((1, 1), (1,)), -1),
    ]
    assert check_alternating(forged) == expected
    # a real D4-in table negated: every term violates, in the table's own order
    d4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    orbit = OrbitSpec((1, 1, 1, 2), (((1, 0, 0, 0), 1), ((0, 0, 1, 1), 1), ((0, 1, 0, 1), 1)))
    real = quiver_coefficients(d4, orbit.dim, orbit)
    negated = CoefficientTable(quiver=d4, tensor=(-1) * real.tensor, codim=real.codim, orbit=orbit)
    assert len(negated.tensor.terms) == 8
    assert check_alternating(negated) == negated.tensor.sorted_terms()


def test_cohomological_part_is_bottom_slice(a2):
    table = quiver_coefficients(a2, (2, 2), a2_orbit(1, 1, 1))
    bottom = cohomological_part(table)
    assert bottom.terms == {((), (1,)): 1}
    full = quiver_coefficients(a2, (2, 2), a2_orbit(2, 0, 2))
    assert cohomological_part(full).terms == {((), (2, 2)): 1}


def test_partition_choice_does_not_matter(inbound):
    # the default (in type A the greedy partition of all roots) versus the
    # greedy partition of the support folded through its pair, same table
    for e in [(1, 1, 1), (2, 2, 2), (2, 1, 2)]:
        for orb in orbits(inbound, e):
            default = quiver_coefficients(inbound, e, orb)
            tensor, cd = coefficients(inbound, e, resolution_pair(inbound, orb, directed_partition(inbound, orb.support)))
            assert default.tensor.terms == tensor.terms
            assert default.codim == cd


def test_a_float_root_in_a_given_partition_is_an_input_error(inbound):
    """It used to raise TypeError: can't multiply sequence by non-int."""
    from quivergk.resolution import DirectedPartition

    orb = orbits(inbound, (1, 1, 1))[0]
    with pytest.raises(QuiverError):
        resolution_pair(inbound, orb, DirectedPartition((((1.0, 1, 1),),)))


def test_caveat_flag_set_for_d4():
    d4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    orb = OrbitSpec(
        (1, 1, 1, 1), (((1, 0, 0, 1), 1), ((0, 1, 0, 0), 1), ((0, 0, 1, 0), 1))
    )
    table = quiver_coefficients(d4, (1, 1, 1, 1), orb)
    assert table.caveat == CAVEAT_FLAG
    assert check_alternating(table) == []


@pytest.mark.parametrize(
    "n, arrows, flagged",
    [
        (3, ((1, 2), (3, 2)), False),  # A3
        (3, ((1, 2),), False),  # A2 + A1
        (4, ((1, 4), (2, 4), (3, 4)), True),  # D4
        (6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)), True),  # E6
        (7, ((1, 2), (3, 2), (4, 7), (5, 7), (6, 7)), True),  # A3 + D4
    ],
    ids=["A3", "A2+A1", "D4", "E6", "A3+D4"],
)
def test_caveat_flags_exactly_d_and_e(n, arrows, flagged):
    assert caveat_for(Quiver(n, arrows)) == (CAVEAT_FLAG if flagged else None)


def test_caveat_rejects_a_quiver_that_is_not_dynkin():
    with pytest.raises(QuiverError):
        caveat_for(Quiver(2, ((1, 2), (1, 2))))


def test_dual_porteous(a2):
    # arrow reversal transposes the matrix, so the rectangle transposes
    # and hops to the first slot
    for e1, e2 in [(2, 2), (3, 2), (3, 3)]:
        for r in range(min(e1, e2) + 1):
            orb = a2_orbit(e1 - r, r, e2 - r)
            dual = quiver_coefficients(opposite(a2), (e1, e2), orb)
            want = ((e2 - r,) * (e1 - r) if e2 > r else (), ())
            assert dual.tensor.terms == {want: 1}
            assert dual.codim == (e1 - r) * (e2 - r)


def test_duality_on_equioriented_a3():
    # keys with an empty first slot match the reversed quiver's keys with
    # an empty last slot, read one slot over and conjugated
    q = Quiver(3, ((1, 2), (2, 3)))
    for e in [(1, 1, 1), (2, 2, 1), (2, 2, 2)]:
        for orb in orbits(q, e):
            table = quiver_coefficients(q, e, orb).tensor.terms
            dual = quiver_coefficients(opposite(q), e, orb).tensor.terms
            lhs = {k: c for k, c in table.items() if k[0] == ()}
            rhs = {k: c for k, c in dual.items() if k[2] == ()}
            assert lhs == {
                ((), conjugate(k[0]), conjugate(k[1])): c for k, c in rhs.items()
            }


# ---------------------------------------------------------------------------
# sweep


def test_sweep_yields_greedy_tables_in_order(inbound):
    got = list(sweep(inbound, 2, "oracle-a3"))
    want = [
        (e, orb)
        for e in itertools.product(range(3), repeat=3)
        for orb in orbits(inbound, e)
    ]
    assert [(t.orbit.dim, t.orbit) for t, _ in got] == want
    assert all(failure is None for _, failure in got)
    table = got[-1][0]
    assert table == quiver_coefficients(inbound, table.orbit.dim, table.orbit)


def test_independence_failure_reports_both_pairs(inbound):
    # type A runs the greedy partition of all roots, so the suite compares the
    # greedy one of the support; a forged table disagrees with it, and the
    # report gives the two pairs compared, read off the orbit
    setup, check = engine.SUITES["independence"]
    every = setup(inbound)
    orb = OrbitSpec((1, 2, 2), (((0, 1, 1), 1), ((1, 1, 1), 1)))
    table = quiver_coefficients(inbound, orb.dim, orb)
    assert check(table, every) is None
    forged = CoefficientTable(table.quiver, TensorElement(3), table.codim, table.orbit)
    assert check(forged, every) == {
        "pair_a": {"i": [3, 2, 1, 3, 2], "r": [1, 1, 1, 1, 1]},
        "pair_b": {"i": [1, 3, 2], "r": [1, 2, 2]},
    }
    # D4 runs the support's greedy partition, so the suite compares that of all roots
    d4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    orb = OrbitSpec((0, 0, 2, 1), (((0, 0, 1, 0), 1), ((0, 0, 1, 1), 1)))
    table = quiver_coefficients(d4, orb.dim, orb)
    forged = CoefficientTable(d4, TensorElement(4), table.codim, orb)
    assert check(forged, setup(d4)) == {
        "pair_a": {"i": [3, 4], "r": [2, 1]},
        "pair_b": {"i": [3, 4, 3], "r": [1, 1, 1]},
    }


def test_oracle_suite_on_the_outbound_quiver():
    got = list(sweep(OUTBOUND, 2, "oracle-a3"))
    assert len(got) == 74
    assert all(failure is None for _, failure in got)
    # the zero map 2 -> 1 of (1, 1, 0), its G[1] forged into slot 2: the failure gives both tables
    orb = OrbitSpec((1, 1, 0), (((0, 1, 0), 1), ((1, 0, 0), 1)))
    table = quiver_coefficients(OUTBOUND, orb.dim, orb)
    reference = engine._oracle_reference(OUTBOUND)
    assert engine._check_oracle(table, reference) is None
    forged = CoefficientTable(table.quiver, TensorElement(3, {((), (1,), ()): 1}), table.codim, table.orbit)
    assert engine._check_oracle(forged, reference) == {
        "engine": [{"mu": [[], [1], []], "coeff": 1}],
        "oracle": [{"mu": [[1], [], []], "coeff": 1}],
    }


def test_sweep_rejects_unknown_suite(a2):
    # the CLI narrows --suite to the SUITES names; a library caller may not,
    # and a suite that is not a str (unhashable here) is unknown too
    for suite in ("nope", ["signs"]):
        with pytest.raises(QuiverError, match="unknown suite"):
            next(sweep(a2, 1, suite))


@pytest.mark.parametrize("max_dim", [1.5, 2.0, "2", None])
def test_sweep_rejects_a_non_integer_max_dim(a2, max_dim):
    orbits_left = sweep(a2, max_dim, "signs")  # a generator: nothing runs yet
    with pytest.raises(QuiverError, match="expected integers"):
        next(orbits_left)


def test_out_arrow_heads_are_one_table_per_quiver():
    # parallel arrows repeat a head; index 0 stands for no vertex
    q = Quiver(4, ((1, 3), (1, 2), (4, 2), (1, 2)))
    assert q.heads == ((), (2, 2, 3), (), (), (2,))
