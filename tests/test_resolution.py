import itertools
import random

import pytest

from quivergk.engine import coefficients, quiver_coefficients
from quivergk.quiver import (
    OrbitSpec,
    Quiver,
    QuiverError,
    _euler_table,
    check_roots,
    euler_form,
    incoming_rank,
    orbits,
    positive_roots,
    source_rank,
)
from quivergk.resolution import (
    DirectedPartition,
    ResolutionPair,
    codim,
    directed_partition,
    directed_partition_from_blocks,
    greedy_block,
    pair_steps,
    resolution_pair,
    validate_directed,
)

from reference import pair_stages, validate_directed_pairwise

A11, A12, A13 = (1, 0, 0), (1, 1, 0), (1, 1, 1)
A22, A23, A33 = (0, 1, 0), (0, 1, 1), (0, 0, 1)

A3_IN = Quiver(3, ((1, 2), (3, 2)))
A3_OUT = Quiver(3, ((2, 1), (2, 3)))
D4_IN = Quiver(4, ((1, 4), (2, 4), (3, 4)))
D4_OUT = Quiver(4, ((4, 1), (4, 2), (4, 3)))
D4_MIXED = Quiver(4, ((1, 4), (4, 2), (4, 3)))
E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))
E8 = Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))


def a2_orbit(m11, m12, m22):
    e = (m11 + m12, m12 + m22)
    mults = [(r, m) for r, m in [((1, 0), m11), ((1, 1), m12), ((0, 1), m22)] if m]
    return OrbitSpec(e, tuple(mults))


# ---------------------------------------------------------------------------
# validation


def test_accepts_the_three_block_inbound_partition(inbound):
    dp = directed_partition_from_blocks(
        inbound, [[A22], [A12, A23, A13], [A11, A33]]
    )
    assert len(dp.blocks) == 3
    assert dp.blocks[0] == (A22,)


def test_accepts_the_three_block_outbound_partition(outbound):
    directed_partition_from_blocks(outbound, [[A11], [A33, A23, A13], [A22, A12]])


def test_rejects_reversed_blocks(inbound):
    with pytest.raises(QuiverError):
        directed_partition_from_blocks(inbound, [[A11, A33], [A12, A23, A13], [A22]])


def test_rejects_empty_block_and_duplicates(inbound):
    with pytest.raises(QuiverError):
        validate_directed(inbound, DirectedPartition(((A22,), ())))
    with pytest.raises(QuiverError):
        validate_directed(inbound, DirectedPartition(((A22,), (A22,))))


@pytest.mark.parametrize(
    "call",
    [
        lambda q, v: directed_partition(q, [v]),
        lambda q, v: greedy_block(q, [v]),
        lambda q, v: directed_partition_from_blocks(q, [[v]]),
        lambda q, v: validate_directed(q, DirectedPartition(((v,),))),
    ],
    ids=["directed_partition", "greedy_block", "from_blocks", "validate_directed"],
)
@pytest.mark.parametrize(
    "q, vec",
    [(A3_IN, (2, 1, 0)), (A3_IN, (1, 0)), (KRONECKER, (1, 0))],
    ids=["A3-not-a-root", "A3-wrong-length", "Kronecker"],
)
def test_vectors_that_are_not_roots_raise(call, q, vec):
    with pytest.raises(QuiverError):
        call(q, vec)


def test_rejects_within_block_violation(a2):
    # <(0,1),(1,1)> = 1 - 1 = 0 ok, but <(1,0),(0,1)> = -1 on 1->2
    with pytest.raises(QuiverError):
        directed_partition_from_blocks(a2, [[(1, 0), (0, 1)]])


def _ordered_set_partitions(items):
    """Every ordered set partition of ``items``, each once: the first item
    either joins a block of a partition of the rest or is a block of its own."""
    if not items:
        yield ()
        return
    first = items[0]
    for part in _ordered_set_partitions(items[1:]):
        for k in range(len(part)):
            yield part[:k] + ((first,) + part[k],) + part[k + 1 :]
        for k in range(len(part) + 1):
            yield part[:k] + ((first,),) + part[k:]


def _accepts(call):
    try:
        call()
    except QuiverError:
        return False
    return True


def _directedness_agrees(q, blocks):
    """Whether the bitmask test accepts ``blocks`` as the pairwise rule does, called
    as ``validate_directed`` and inside ``resolution_pair`` on an orbit of all the
    partition's roots, each once; returns the pairwise verdict."""
    dp = DirectedPartition(blocks)
    roots = set(dp.roots)
    orbit = OrbitSpec(tuple(map(sum, zip(*roots))), tuple((r, 1) for r in roots))
    want = _accepts(lambda: validate_directed_pairwise(q, dp))
    assert _accepts(lambda: validate_directed(q, dp)) == want, blocks
    assert _accepts(lambda: resolution_pair(q, orbit, dp)) == want, blocks
    return want


@pytest.mark.parametrize("q", [A3_IN, A3_OUT], ids=["A3-in", "A3-out"])
def test_bitmask_directedness_is_the_pairwise_rule_on_every_a3_partition(q):
    """Every ordered set partition of the six positive roots of A3."""
    verdicts = [_directedness_agrees(q, p) for p in _ordered_set_partitions(positive_roots(q))]
    assert len(verdicts) == 4683
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("q", [D4_IN, D4_OUT, E6], ids=["D4-in", "D4-out", "E6"])
def test_bitmask_directedness_is_the_pairwise_rule_on_moved_roots(q):
    """Greedy partitions of seeded random root subsets, each also with one
    root moved to another block, or to a block of its own at the end; a
    block the move leaves empty stays, so the empty-block rule is compared too."""
    roots, rng = positive_roots(q), random.Random(20261019)
    moved = []
    for _ in range(150):
        blocks = [list(blk) for blk in directed_partition(q, rng.sample(roots, rng.randint(1, 12))).blocks]
        assert _directedness_agrees(q, blocks)
        i = rng.randrange(len(blocks))
        j = rng.choice([k for k in range(len(blocks) + 1) if k != i])
        root = blocks[i].pop(rng.randrange(len(blocks[i])))
        blocks[j:j + 1] = [blocks[j] + [root]] if j < len(blocks) else [[root]]
        moved.append(_directedness_agrees(q, blocks))
    assert 0 < sum(moved) < len(moved)


# ---------------------------------------------------------------------------
# greedy algorithm


def test_greedy_block_frozen(inbound, outbound):
    assert greedy_block(inbound, positive_roots(inbound)) == (A22, A23, A12)
    assert greedy_block(outbound, positive_roots(outbound)) == (A33, A11, A13)


def test_greedy_partition_frozen(inbound, outbound):
    assert directed_partition(inbound, positive_roots(inbound)).blocks == (
        (A22, A23, A12),
        (A33, A11, A13),
    )
    assert directed_partition(outbound, positive_roots(outbound)).blocks == (
        (A33, A11, A13),
        (A22, A23, A12),
    )


def _valid_first_blocks(q, phi):
    """Brute force: subsets that could open a directed partition of phi."""
    phi = list(phi)
    out = []
    for bits in range(1, 1 << len(phi)):
        block = [phi[i] for i in range(len(phi)) if bits >> i & 1]
        rest = [phi[i] for i in range(len(phi)) if not bits >> i & 1]
        ok = all(euler_form(q, a, b) >= 0 for a in block for b in block) and all(
            euler_form(q, a, b) >= 0 and euler_form(q, b, a) <= 0
            for a in block
            for b in rest
        )
        if ok:
            out.append(frozenset(block))
    return out


@pytest.mark.parametrize(
    "mk",
    [
        lambda: Quiver(2, ((1, 2),)),
        lambda: Quiver(3, ((1, 2), (3, 2))),
        lambda: Quiver(3, ((2, 1), (2, 3))),
        lambda: Quiver(3, ((1, 2), (2, 3))),
        lambda: Quiver(4, ((1, 2), (2, 3), (3, 4))),
        lambda: Quiver(4, ((1, 4), (2, 4), (4, 3))),
    ],
)
def test_greedy_block_is_the_unique_largest(mk):
    q = mk()
    phi = positive_roots(q)
    candidates = _valid_first_blocks(q, phi)
    best = max(len(c) for c in candidates)
    largest = [c for c in candidates if len(c) == best]
    assert len(largest) == 1
    assert largest[0] == frozenset(greedy_block(q, phi))


def test_greedy_partition_blocks_validate():
    for q, max_dim in ((A3_IN, 2), (A3_OUT, 2), (D4_IN, 2), (E6, 1)):
        for e in itertools.product(range(max_dim + 1), repeat=q.n):
            for orb in orbits(q, e):
                if not orb.support:
                    continue
                dp = directed_partition(q, orb.support)
                validate_directed(q, dp)
                assert set(dp.roots) == set(orb.support)


def _supports(q, max_dim):
    return {
        orb.support
        for e in itertools.product(range(max_dim + 1), repeat=q.n)
        for orb in orbits(q, e)
    }


def _reference_partition(q, roots):
    """The greedy walk as first written: ``euler_form`` on every pair, a
    restart after each single drop, and a final ``validate_directed``."""
    rest = {tuple(r) for r in roots}
    blocks = []
    while rest:
        block = {a for a in rest if all(euler_form(q, a, b) >= 0 for b in rest)}
        changed = True
        while changed:
            changed = False
            outside = rest - block
            for a in sorted(block):
                if any(euler_form(q, b, a) > 0 for b in outside):
                    block.discard(a)
                    changed = True
                    break
        assert block
        blocks.append(tuple(block))
        rest -= block
    dp = DirectedPartition(tuple(blocks))
    validate_directed(q, dp)
    return dp


@pytest.mark.parametrize(
    "q, max_dim",
    [(D4_IN, 2), (D4_OUT, 2), (D4_MIXED, 2), (E6, 1), (E7, 1)],
    ids=["D4-in", "D4-out", "D4-mixed", "E6", "E7"],
)
def test_greedy_partition_matches_the_reference_walk_on_orbit_supports(q, max_dim):
    for support in _supports(q, max_dim):
        assert directed_partition(q, support).blocks == _reference_partition(q, support).blocks


@pytest.mark.parametrize(
    "q", [A3_IN, A3_OUT, D4_IN, E6, E7, E8], ids=["A3-in", "A3-out", "D4", "E6", "E7", "E8"]
)
def test_greedy_partition_matches_the_reference_walk_on_all_roots(q):
    roots = positive_roots(q)
    assert directed_partition(q, roots).blocks == _reference_partition(q, roots).blocks


def _set_based_partition(q, roots):
    """The greedy partition on sets of roots, the reference the bitmask
    peel must equal: per block, keep the a with <a, b> >= 0 for every b
    left, then drop every a with <b, a> > 0 for some b outside, until
    none drops."""
    rest = {tuple(r) for r in roots}
    form = check_roots(q, rest)
    blocks = []
    while rest:
        block = {a for a in rest if all(form[a, b] >= 0 for b in rest)}
        outside = rest - block
        while drop := {a for a in block if any(form[b, a] > 0 for b in outside)}:
            block -= drop
            outside |= drop
        blocks.append(tuple(sorted(block, key=lambda d: (sum(d), d))))
        rest = outside
    return tuple(blocks)


@pytest.mark.parametrize(
    "q, max_dim",
    [(A3_IN, 3), (A3_OUT, 3), (D4_IN, 2), (D4_OUT, 2), (D4_MIXED, 2), (E6, 1)],
    ids=["A3-in", "A3-out", "D4-in", "D4-out", "D4-mixed", "E6"],
)
def test_bitmask_partition_matches_the_set_based_one_on_orbit_supports(q, max_dim):
    for support in _supports(q, max_dim):
        dp = directed_partition(q, support)
        assert dp.blocks == _set_based_partition(q, support), support
        validate_directed(q, dp)


def _reference_pair(q, orbit, blocks):
    """The pair of ``blocks`` as the resolution is defined: per block the
    weighted root sum p, then the vertices with p_v != 0 by (source_rank, v)."""
    order = sorted(range(1, q.n + 1), key=lambda v: (source_rank(q)[v - 1], v))
    steps = []
    for blk in blocks:
        p = [sum(orbit.mult_of(a) * a[j] for a in blk) for j in range(q.n)]
        steps += [(v, p[v - 1]) for v in order if p[v - 1]]
    return ResolutionPair(tuple(v for v, _ in steps), tuple(r for _, r in steps))


@pytest.mark.parametrize(
    "q, max_dim, given",
    [
        (A3_IN, 3, False),
        (A3_OUT, 3, False),
        (D4_IN, 2, False),
        (D4_OUT, 2, False),
        (D4_MIXED, 2, False),
        (E6, 1, False),
        (E7, 1, False),
        (A3_IN, 2, True),
        (A3_OUT, 2, True),
        (D4_IN, 1, True),
    ],
    ids=["A3-in", "A3-out", "D4-in", "D4-out", "D4-mixed", "E6", "E7", "A3-in-dp", "A3-out-dp", "D4-in-dp"],
)
def test_one_pass_pair_is_the_reference_partitions_pair(q, max_dim, given):
    """The one pass gives each orbit the pair of the set-based greedy partition
    of its support (with ``given``, of all positive roots, passed as ``dp``),
    and ``coefficients`` on that pair gives the engine table's tensor and codim."""
    every = directed_partition(q, positive_roots(q)) if given else None
    for e in itertools.product(range(max_dim + 1), repeat=q.n):
        for orb in orbits(q, e):
            table = quiver_coefficients(q, e, orb, every)
            pair = resolution_pair(q, orb, every)
            blocks = _set_based_partition(q, positive_roots(q) if given else orb.support)
            want = resolution_pair(q, orb, DirectedPartition(blocks))
            assert pair == want == _reference_pair(q, orb, blocks), orb
            assert coefficients(q, e, pair) == (table.tensor, table.codim), orb


def test_bitmask_partition_matches_the_set_based_one_on_random_e8_subsets():
    roots = positive_roots(E8)
    rng = random.Random(20260)
    for _ in range(200):
        subset = rng.sample(roots, rng.randint(1, len(roots)))
        dp = directed_partition(E8, subset)
        assert dp.blocks == _set_based_partition(E8, subset)
        assert sorted(dp.roots) == sorted(subset)
        validate_directed(E8, dp)
        assert greedy_block(E8, subset) == dp.blocks[0]


# ---------------------------------------------------------------------------
# resolution pairs


def test_pair_for_the_outbound_partition(outbound):
    dp = directed_partition_from_blocks(
        outbound, [[A11], [A33, A23, A13], [A22, A12]]
    )
    ones = OrbitSpec((3, 4, 3), tuple((r, 1) for r in positive_roots(outbound)))
    pair = resolution_pair(outbound, ones, dp)
    assert pair.vertices == (1, 2, 1, 3, 2, 1)
    assert pair.ranks == (1, 2, 1, 3, 2, 1)


def test_pair_drops_zero_ranks(outbound):
    dp = directed_partition_from_blocks(
        outbound, [[A11], [A33, A23, A13], [A22, A12]]
    )
    orb = OrbitSpec(
        (3, 4, 3),
        ((A11, 2), (A12, 1), (A22, 1), (A23, 2), (A33, 1)),
    )
    pair = resolution_pair(outbound, orb, dp)
    # the m13 step vanishes, so vertex 1 is missing from the middle block
    assert pair.vertices == (1, 2, 3, 2, 1)
    assert pair.ranks == (2, 2, 3, 2, 1)


def test_pair_for_the_inbound_partition(inbound):
    dp = directed_partition_from_blocks(inbound, [[A22], [A12, A23, A13], [A11, A33]])
    ones = OrbitSpec((3, 4, 3), tuple((r, 1) for r in positive_roots(inbound)))
    pair = resolution_pair(inbound, ones, dp)
    assert pair.vertices == (2, 1, 3, 2, 1, 3)
    assert pair.ranks == (1, 2, 2, 3, 1, 1)


@pytest.mark.parametrize("root", [(1.0, 1, 1), "ab", ("1", 1, 1), 1])
def test_directed_partition_rejects_a_root_that_is_not_ints(root):
    """("ab",) and a float root used to raise TypeError while sorting a block."""
    with pytest.raises(QuiverError):
        DirectedPartition(((root,),))


def test_pair_requires_cover(inbound):
    orb = OrbitSpec((1, 1, 0), ((A12, 1),))
    dp = DirectedPartition(((A22,),))
    with pytest.raises(QuiverError):
        resolution_pair(inbound, orb, dp)


@pytest.mark.parametrize("vec", [(1, 0, 0, 0), (1, 0, 1)], ids=["wrong-length", "not-a-root"])
def test_pair_rejects_vectors_that_are_not_roots(inbound, vec):
    orb = OrbitSpec((1, 0, 0), ((A11, 1),))
    dp = DirectedPartition(((A11,), (vec,)))
    with pytest.raises(QuiverError, match="not a positive root"):
        resolution_pair(inbound, orb, dp)


def test_empty_orbit_empty_pair(a2):
    orb = OrbitSpec((0, 0), ())
    dp = directed_partition_from_blocks(a2, [[(1, 1)]])
    pair = resolution_pair(a2, orb, dp)
    assert pair.vertices == () and pair.ranks == ()


def test_resolution_pair_validates():
    with pytest.raises(QuiverError):
        ResolutionPair((1, 2), (1,))
    with pytest.raises(QuiverError):
        ResolutionPair((1,), (0,))


def test_resolution_pair_builds_the_pair_the_checked_constructor_would(inbound):
    d4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    for q, top in ((inbound, 3), (d4, 2)):
        for e in itertools.product(range(top + 1), repeat=q.n):
            for orb in orbits(q, e):
                pair = resolution_pair(q, orb, directed_partition(q, orb.support))
                assert pair == ResolutionPair(pair.vertices, pair.ranks)
                assert all(type(x) is int and x > 0 for x in pair.vertices + pair.ranks)
                assert type(pair.vertices) is type(pair.ranks) is tuple
    with pytest.raises(QuiverError, match="^vertex and rank lists differ in length$"):
        ResolutionPair((1, 2), (1,))
    with pytest.raises(QuiverError, match="^ranks must be positive$"):
        ResolutionPair((1,), (0,))


@pytest.mark.parametrize("vertices,ranks", [((1.5,), (1,)), ((1,), (1.0,)), (("1",), (1,))])
def test_resolution_pair_rejects_non_integers(vertices, ranks):
    with pytest.raises(QuiverError, match="expected integers"):
        ResolutionPair(vertices, ranks)


@pytest.mark.parametrize(
    "q", [A3_IN, A3_OUT, Quiver(3, ((1, 2), (2, 3))), D4_IN, D4_OUT, D4_MIXED, E6, E7, E8]
)
def test_euler_table_is_the_euler_form(q):
    # the table builds each root's linear form once; euler_form loops over the arrows
    roots = positive_roots(q)
    table = _euler_table(q)
    assert len(table) == len(roots) ** 2
    assert all(table[a, b] == euler_form(q, a, b) for a in roots for b in roots)


def test_step_tables_give_the_old_widths_and_pairs():
    """On every step of every orbit of D4 <= 2 and E6 <= 1, from the greedy
    partition and from the all-roots one (where most roots weigh zero),
    the width read from the per-quiver tails is incoming_rank - s_v + r,
    and the pair is the block sums in (source_rank, vertex) order."""
    for q, top in ((D4_IN, 2), (D4_OUT, 2), (D4_MIXED, 2), (E6, 1)):
        every = directed_partition(q, positive_roots(q))
        for e in itertools.product(range(top + 1), repeat=q.n):
            for orb in orbits(q, e):
                for dp in (directed_partition(q, orb.support), every):
                    pair = resolution_pair(q, orb, dp)
                    assert pair == _reference_pair(q, orb, dp.blocks), (q, orb)
                    stages = pair_stages(q, e, pair)
                    assert [(v, r) for v, r, _ in stages] == list(pair.steps())
                    for (v, r, s), (_, _, c) in zip(stages, pair_steps(q, e, pair), strict=True):
                        assert c == incoming_rank(q, s, v) - s[v - 1] + r


# ---------------------------------------------------------------------------
# codimension


def _pair_for(q, orb):
    return resolution_pair(q, orb, directed_partition(q, orb.support))


def test_codim_frozen_a2(a2):
    zero = a2_orbit(1, 0, 1)
    pair = _pair_for(a2, zero)
    assert (pair.vertices, pair.ranks) == ((2, 1), (1, 1))
    assert codim(a2, (1, 1), pair) == 1

    dense = a2_orbit(0, 1, 0)
    assert codim(a2, (1, 1), _pair_for(a2, dense)) == 0

    rank1 = a2_orbit(1, 1, 1)
    assert codim(a2, (2, 2), _pair_for(a2, rank1)) == 1
    tall = a2_orbit(2, 1, 1)
    assert codim(a2, (3, 2), _pair_for(a2, tall)) == 2
    rank0 = a2_orbit(2, 0, 2)
    assert codim(a2, (2, 2), _pair_for(a2, rank0)) == 4


def test_codim_of_dense_orbits_is_zero(inbound, outbound):
    # generic decomposition: greedy blocks applied to e itself from the top
    for q in (inbound, outbound):
        for e in itertools.product(range(4), repeat=3):
            for orb in orbits(q, e):
                pair = _pair_for(q, orb) if orb.support else ResolutionPair((), ())
                assert codim(q, e, pair) >= 0


def test_codim_partition_independent(inbound):
    ones = OrbitSpec((3, 4, 3), tuple((r, 1) for r in positive_roots(inbound)))
    three_block = directed_partition_from_blocks(
        inbound, [[A22], [A12, A23, A13], [A11, A33]]
    )
    greedy = directed_partition(inbound, ones.support)
    a = codim(inbound, (3, 4, 3), resolution_pair(inbound, ones, three_block))
    b = codim(inbound, (3, 4, 3), resolution_pair(inbound, ones, greedy))
    assert a == b == 5


def test_codim_rejects_oversized_rank(a2):
    with pytest.raises(QuiverError):
        codim(a2, (1, 1), ResolutionPair((1,), (2,)))
