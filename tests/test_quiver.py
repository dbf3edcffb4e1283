import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergk.quiver import (
    OrbitSpec,
    Quiver,
    QuiverError,
    QuiverRep,
    dynkin_type,
    euler_form,
    hom_dim,
    hom_table,
    in_orbit_closure,
    indecomposable_rep,
    is_dynkin,
    orbits,
    positive_roots,
    source_rank,
    tits_form,
    validate_rep,
)

from quivergk import quiver
from quivergk.quiver import _bareiss_rank, _orbit_side, _probe_layout, _solve

from reference import all_mults, brute_force_mults, direct_sum, fraction_rank, orbit_rep

A11, A12, A13 = (1, 0, 0), (1, 1, 0), (1, 1, 1)
A22, A23, A33 = (0, 1, 0), (0, 1, 1), (0, 0, 1)


# ---------------------------------------------------------------------------
# construction and forms


def test_rejects_directed_cycles():
    with pytest.raises(QuiverError):
        Quiver(2, ((1, 2), (2, 1)))
    with pytest.raises(QuiverError):
        Quiver(1, ((1, 1),))
    with pytest.raises(QuiverError):
        Quiver(3, ((1, 2), (2, 3), (3, 1)))
    for arrows in (
        ((1, 2), (2, 3), (3, 4), (4, 2)),  # a cycle reached from an acyclic part
        ((1, 2), (2, 3), (4, 5), (5, 4)),  # a cycle in a second component
        ((1, 2), (2, 4), (4, 4)),  # a self-loop at the last vertex
        ((3, 4), (2, 3), (1, 2), (4, 1)),  # a long cycle listed against its order
        ((1, 2), (2, 1), (2, 3)),  # a 2-cycle listed one way...
        ((2, 1), (1, 2), (2, 3)),  # ...and the other
    ):
        with pytest.raises(QuiverError, match="directed cycle"):
            Quiver(max(max(a) for a in arrows), arrows)


def test_parallel_arrows_are_not_a_cycle():
    q = Quiver(3, ((1, 2), (1, 2), (2, 3), (1, 2)))
    assert source_rank(q) == (0, 1, 2)


def longest_path_rank(n, arrows):
    """Per vertex, the most arrows on a directed path ending there, by
    following every path back to a source."""

    def longest(v):
        return max((longest(t) + 1 for t, h in arrows if h == v), default=0)

    return tuple(longest(v) for v in range(1, n + 1))


def test_source_rank_is_the_longest_path():
    rng = random.Random(20260)
    for _ in range(300):
        n = rng.randint(1, 9)
        order = rng.sample(range(1, n + 1), n)
        density = rng.random()
        arrows = [
            (order[a], order[b])
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < density
        ]
        arrows += rng.sample(arrows, min(len(arrows), rng.randint(0, 2)))  # parallel arrows
        rng.shuffle(arrows)
        q = Quiver(n, tuple(arrows))
        assert source_rank(q) == longest_path_rank(n, arrows), (n, arrows)


def test_rejects_bad_arrow_indices():
    with pytest.raises(QuiverError):
        Quiver(2, ((1, 3),))
    with pytest.raises(QuiverError):
        Quiver(2, ((0, 1),))


@pytest.mark.parametrize("arrow", [(1, 2, 3), (1,), (), 1])
def test_rejects_an_arrow_that_is_not_a_pair(arrow):
    """(1, 2, 3) used to raise a bare ValueError from unpacking, 1 a TypeError."""
    with pytest.raises(QuiverError):
        Quiver(2, (arrow,))


def test_opposite_roundtrip(inbound, outbound):
    from quivergk.quiver import opposite

    assert opposite(inbound).arrows == outbound.arrows
    assert opposite(opposite(outbound)) == outbound


def test_euler_form_frozen(a2, inbound):
    assert euler_form(a2, (1, 0), (0, 1)) == -1
    assert euler_form(inbound, A22, A12) == 1
    assert euler_form(inbound, A12, A22) == 0
    for q in (a2, inbound):
        for i in range(q.n):
            eps = tuple(1 if j == i else 0 for j in range(q.n))
            assert euler_form(q, eps, eps) == 1


def test_euler_form_counts_arrows():
    q = Quiver(3, ((1, 2), (1, 2), (2, 3)))
    # <eps_i, eps_j> = delta_ij - #arrows i->j
    assert euler_form(q, (1, 0, 0), (0, 1, 0)) == -2
    assert euler_form(q, (0, 1, 0), (1, 0, 0)) == 0


def test_tits_form_on_roots(inbound):
    for root in positive_roots(inbound):
        assert tits_form(inbound, root) == 1


def test_incoming_and_source_rank(inbound, outbound):
    assert source_rank(inbound) == (0, 1, 0)
    assert source_rank(outbound) == (1, 0, 1)


@pytest.mark.parametrize(
    "a, b",
    [((1,), (1, 1, 1)), ((1, 1, 1, 1), (1, 1, 1)), ((1, 1, 1), ()), ((1, 1, 1), (1, 1, 1, 0))],
)
def test_euler_form_rejects_a_vector_of_the_wrong_length(inbound, a, b):
    """A short vector used to raise IndexError and a long one was cut by zip."""
    with pytest.raises(QuiverError):
        euler_form(inbound, a, b)


def test_tits_form_rejects_a_vector_of_the_wrong_length(inbound):
    for d in ((1, 1, 1, 5), (1, 1), ()):
        with pytest.raises(QuiverError):
            tits_form(inbound, d)


@pytest.mark.parametrize("bad", [(0.5, 1, 1), "111", (1, 1, 2.0), 3])
def test_euler_and_tits_forms_reject_non_integer_vectors(inbound, bad):
    """(0.5, 1, 1) used to give 1.0 and 0.75, "111" a TypeError."""
    with pytest.raises(QuiverError):
        euler_form(inbound, bad, (1, 1, 1))
    with pytest.raises(QuiverError):
        euler_form(inbound, (1, 1, 1), bad)
    with pytest.raises(QuiverError):
        tits_form(inbound, bad)


# ---------------------------------------------------------------------------
# classification


def test_dynkin_type_frozen(inbound):
    assert dynkin_type(inbound) == "A3"
    assert dynkin_type(Quiver(1, ())) == "A1"
    assert dynkin_type(Quiver(2, ((1, 2), (1, 2)))) == "not-Dynkin"
    star = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    assert dynkin_type(star) == "D4"
    assert is_dynkin(star) and not is_dynkin(Quiver(2, ((1, 2), (1, 2))))


def test_dynkin_type_components():
    q = Quiver(3, ((2, 3),))
    assert dynkin_type(q) == "A1+A2"


def test_dynkin_type_e_series():
    e6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
    assert dynkin_type(e6) == "E6"
    dn = Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5)))
    assert dynkin_type(dn) == "D5"


def _arms(*lengths):
    """A tree on 0..size-1: a centre 0 with a path of each given length hanging off it."""
    edges, size = [], 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, size))
            prev, size = size, size + 1
    return size, edges


def _dynkin_part(rng):
    """(size, undirected edges, label) of a random A_n, D_n or E_n tree."""
    kind = rng.choice("ADE")
    if kind == "A":
        n = rng.randint(1, 9)
        return (*_arms(n - 1), f"A{n}")
    if kind == "D":
        n = rng.randint(4, 9)
        return (*_arms(1, 1, n - 3), f"D{n}")
    n = rng.randint(6, 8)
    return (*_arms(1, 2, n - 4), f"E{n}")


# graphs whose Tits form is not positive definite, labelled None
_NOT_DYNKIN = [
    (*_arms(1, 1, 1, 1), None),  # extended D4
    (*_arms(2, 2, 2), None),  # extended E6
    (*_arms(1, 3, 3), None),  # extended E7
    (*_arms(1, 2, 5), None),  # extended E8
    (2, [(0, 1), (0, 1)], None),  # Kronecker
    (3, [(0, 1), (1, 2), (1, 2)], None),  # A3 with one edge doubled
] + [(k, [(i, (i + 1) % k) for i in range(k)], None) for k in range(3, 9)]  # extended A_(k-1)


def _union_quiver(rng, parts):
    """The disjoint union of ``parts``, each (size, undirected edges, label),
    with vertices renamed at random and every edge oriented up a random
    order of the vertices, so no directed cycle arises.  Returns the quiver
    and its type: the labels in order of each part's smallest vertex, or
    "not-Dynkin" if a part has none."""
    n = sum(size for size, _, _ in parts)
    names = rng.sample(range(1, n + 1), n)
    height = rng.sample(range(n), n)
    arrows, firsts, base = [], [], 0
    for size, edges, label in parts:
        for a, b in edges:
            t, h = sorted((base + a, base + b), key=height.__getitem__)
            arrows.append((names[t], names[h]))
        firsts.append((min(names[base : base + size]), label))
        base += size
    rng.shuffle(arrows)
    labels = [label for _, label in sorted(firsts)]
    return Quiver(n, tuple(arrows)), "not-Dynkin" if None in labels else "+".join(labels)


def test_dynkin_type_of_random_ade_unions():
    rng = random.Random(20071)
    letters = set()
    for _ in range(80):
        q, expected = _union_quiver(rng, [_dynkin_part(rng) for _ in range(rng.randint(1, 3))])
        assert dynkin_type(q) == expected
        assert is_dynkin(q)
        letters |= {label[0] for label in expected.split("+")}
    assert letters == {"A", "D", "E"}


def test_dynkin_type_of_extended_dynkin_and_multiple_arrows():
    rng = random.Random(20072)
    for part in _NOT_DYNKIN:
        for extra in range(3):
            parts = [part] + [_dynkin_part(rng) for _ in range(extra)]
            rng.shuffle(parts)
            q, expected = _union_quiver(rng, parts)
            assert expected == dynkin_type(q) == "not-Dynkin"
            assert not is_dynkin(q)
            with pytest.raises(QuiverError, match="need a Dynkin quiver"):
                positive_roots(q)


# ---------------------------------------------------------------------------
# root systems


def _reflection_closure(adj, n):
    """Positive roots via simple-root reflections; independent oracle."""
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    def reflect(beta, i):
        pairing = 2 * beta[i] - sum(beta[j] for j in adj[i])
        out = list(beta)
        out[i] -= pairing
        return tuple(out)

    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(n):
                img = reflect(beta, i)
                if all(x >= 0 for x in img) and any(img) and img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    return roots


def _adjacency(q):
    adj = [set() for _ in range(q.n)]
    for t, h in q.arrows:
        adj[t - 1].add(h - 1)
        adj[h - 1].add(t - 1)
    return adj


@pytest.mark.parametrize(
    "arrows,n,count",
    [
        (((1, 2),), 2, 3),
        (((1, 2), (3, 2)), 3, 6),
        (((1, 2), (2, 3), (3, 4)), 4, 10),
        (((1, 4), (2, 4), (4, 3)), 4, 12),
        (((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)), 6, 36),
        (((1, 2), (2, 3), (3, 4), (3, 5)), 5, 20),  # D5
        (((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)), 7, 63),  # E7
        (((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)), 8, 120),  # E8
        (tuple((i, i + 1) for i in range(1, 12)), 12, 78),  # A12
        (tuple((i, i + 1) for i in range(1, 11)) + ((10, 12),), 12, 132),  # D12
        (((1, 4), (2, 4), (3, 4), (5, 6)), 6, 15),  # D4 + A2
    ],
)
def test_root_counts_and_reflection_closure(arrows, n, count):
    q = Quiver(n, arrows)
    roots = positive_roots(q)
    assert len(roots) == count
    assert set(roots) == _reflection_closure(_adjacency(q), n)
    # graded lexicographic, no duplicates
    keys = [(sum(r), r) for r in roots]
    assert keys == sorted(keys) and len(set(roots)) == count


def test_roots_of_a3_are_intervals(inbound):
    assert set(positive_roots(inbound)) == {A11, A12, A13, A22, A23, A33}


def test_positive_roots_rejects_non_dynkin():
    with pytest.raises(QuiverError):
        positive_roots(Quiver(2, ((1, 2), (1, 2))))


# ---------------------------------------------------------------------------
# orbits


def test_orbits_a2(a2):
    got = orbits(a2, (1, 1))
    assert len(got) == 2
    mult_sets = [dict(o.mults) for o in got]
    assert {(1, 1): 1} in mult_sets
    assert {(1, 0): 1, (0, 1): 1} in mult_sets


def test_orbits_zero_vector(a2):
    got = orbits(a2, (0, 0))
    assert len(got) == 1 and got[0].mults == ()


def test_orbits_a3_count(inbound):
    assert len(orbits(inbound, (1, 1, 1))) == 4


def test_orbits_sum_check(inbound):
    for e in itertools.product(range(3), repeat=3):
        for orb in orbits(inbound, e):
            total = [0, 0, 0]
            for r, m in orb.mults:
                for i, x in enumerate(r):
                    total[i] += m * x
            assert tuple(total) == e


def brute_force_orbits(q, e):
    """Every multiplicity vector over the positive roots that sums to ``e``.

    ``itertools.product`` counts up in lexicographic order, which is the
    order ``orbits`` promises: by multiplicity vector in root order.
    """
    roots = positive_roots(q)
    bounds = [min(x // y for x, y in zip(e, r) if y) for r in roots]
    found = []
    for mult in itertools.product(*(range(b + 1) for b in bounds)):
        if all(sum(m * r[i] for m, r in zip(mult, roots)) == e[i] for i in range(q.n)):
            found.append(OrbitSpec(e, tuple((r, m) for r, m in zip(roots, mult) if m)))
    return found


def simple_first_orbits(q, e):
    """The enumeration ``orbits`` replaced: a walk over the roots in
    ``positive_roots`` order, simple roots first, that drops every branch
    which runs out of roots before the remainder is zero."""
    roots = positive_roots(q)
    found = []

    def dfs(idx, rest, picked):
        if not any(rest):
            found.append(OrbitSpec(e, tuple(picked)))
            return
        if idx == len(roots):
            return
        root = roots[idx]
        top = min(rest[i] // root[i] for i in range(len(rest)) if root[i])
        for m in range(top, -1, -1):
            more = [(root, m)] if m else []
            dfs(idx + 1, [rest[i] - m * root[i] for i in range(len(rest))], picked + more)

    dfs(0, list(e), [])
    found.sort(key=lambda o: tuple(o.mult_of(r) for r in roots))
    return found


D4_IN = ((1, 4), (2, 4), (3, 4))
D4_OUT = ((4, 1), (4, 2), (4, 3))
D4_MIXED = ((1, 4), (4, 2), (4, 3))
E6 = ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))
E7 = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))
E8 = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8))
D5 = ((1, 2), (2, 3), (3, 4), (3, 5))


def dims_up_to(q, max_dim):
    return itertools.product(range(max_dim + 1), repeat=q.n)


@pytest.mark.parametrize(
    "q, max_dim",
    [
        (Quiver(2, ((1, 2),)), 2),
        (Quiver(3, ((1, 2), (3, 2))), 2),
        (Quiver(3, ((2, 1), (2, 3))), 2),
        (Quiver(4, ((1, 2), (3, 2), (3, 4))), 2),
        (Quiver(4, D4_IN), 1),
    ],
    ids=["A2", "A3-in", "A3-out", "A4-mixed", "D4"],
)
def test_orbits_equal_brute_force(q, max_dim):
    for e in dims_up_to(q, max_dim):
        assert orbits(q, e) == brute_force_orbits(q, e), e


@pytest.mark.parametrize(
    "q, max_dim",
    [
        (Quiver(4, D4_IN), 2),
        (Quiver(4, D4_OUT), 2),
        (Quiver(4, D4_MIXED), 2),
        (Quiver(6, E6), 1),
        (Quiver(7, E7), 1),
        (Quiver(5, D5), 2),
    ],
    ids=["D4-in", "D4-out", "D4-mixed", "E6", "E7", "D5"],
)
def test_orbits_equal_simple_first_walk(q, max_dim):
    for e in dims_up_to(q, max_dim):
        assert orbits(q, e) == simple_first_orbits(q, e), e


@pytest.mark.parametrize(
    "q, max_dim, total",
    [
        (Quiver(4, D4_IN), 3, 3406),
        (Quiver(6, E6), 2, 14547),
        (Quiver(7, E7), 1, 634),
        (Quiver(8, E8), 1, 1660),
    ],
    ids=["D4-in", "E6", "E7", "E8"],
)
def test_orbit_totals(q, max_dim, total):
    assert sum(len(orbits(q, e)) for e in dims_up_to(q, max_dim)) == total


def test_a3_orbit_counts_match_oracle(inbound):
    # every multiplicity tuple tried: no orbit missing from or added to a dimension vector
    from quivergk.oracle_a3 import mults_from_orbit

    per_dim = {}
    for m in brute_force_mults(4):
        per_dim.setdefault(m.dim, set()).add(m)
    found = {e: {mults_from_orbit(o) for o in orbits(inbound, e)} for e in dims_up_to(inbound, 4)}
    assert found == per_dim
    assert all_mults(4) == brute_force_mults(4)
    assert len(all_mults(4)) == 826


@pytest.mark.parametrize("bad", [0.5, 1.7, 2.0, "1"])
def test_non_integers_are_rejected(a2, bad):
    builders = [
        lambda: Quiver(bad, ()),
        lambda: Quiver(2, ((bad, 2),)),
        lambda: Quiver(2, ((1, bad),)),
        lambda: a2.check_vector((bad, 1)),
        lambda: orbits(a2, (1, bad)),
        lambda: OrbitSpec((bad, 1), (((1, 0), 1), ((0, 1), 1))),
        lambda: OrbitSpec((1, 1), (((bad, 1), 1),)),
        lambda: OrbitSpec((1, 1), (((1, 1), bad),)),
        lambda: QuiverRep((bad, 1), (((0,),),)),
        lambda: QuiverRep((1, 1), (((bad,),),)),
    ]
    for build in builders:
        with pytest.raises(QuiverError, match="expected integers"):
            build()


def test_fractional_arrow_end_is_not_truncated():
    # int(1.7) would read this as the arrow (1, 2)
    with pytest.raises(QuiverError):
        Quiver(2, ((1.7, 2),))


def test_fractional_dimension_vector_has_no_orbits(a2):
    # int(1.5) would enumerate the orbits of (1, 1)
    with pytest.raises(QuiverError):
        orbits(a2, (1.5, 1))


def test_fractional_matrix_entry_is_not_truncated(a2):
    # [[3, 1], [1, 0.5]] has rank 2, so it lies outside the closure of the
    # rank-1 orbit; floor division in the elimination would truncate 0.5
    # and put it inside
    orbit = OrbitSpec((2, 2), (((1, 0), 1), ((0, 1), 1), ((1, 1), 1)))
    with pytest.raises(QuiverError):
        in_orbit_closure(a2, QuiverRep((2, 2), (((3, 1), (1, 0.5)),)), orbit)


def test_orbit_spec_validation():
    with pytest.raises(QuiverError):
        OrbitSpec((1, 1), (((1, 0), 1),))  # sums to (1,0)
    with pytest.raises(QuiverError):
        OrbitSpec((1, 0), (((1, 0), 0),))  # zero multiplicity
    with pytest.raises(QuiverError):
        OrbitSpec((2, 0), (((1, 0), 1), ((1, 0), 1)))  # duplicate root


# ---------------------------------------------------------------------------
# representations and hom spaces


def test_indecomposable_shapes(a2, inbound):
    r = indecomposable_rep(a2, (1, 1))
    assert r.dims == (1, 1) and r.mats == (((1,),),)
    r = indecomposable_rep(a2, (1, 0))
    assert r.dims == (1, 0) and r.mats == ((),)
    r = indecomposable_rep(inbound, A13)
    assert r.dims == (1, 1, 1) and r.mats == (((1,),), ((1,),))


def test_indecomposable_tall_root_has_trivial_endomorphisms():
    d4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    rep = indecomposable_rep(d4, (1, 1, 1, 2))
    assert rep.dims == (1, 1, 1, 2)
    assert hom_dim(d4, rep, rep) == 1
    with pytest.raises(QuiverError, match="not a positive root"):
        indecomposable_rep(d4, (1, 1, 1, 3))


def test_probes_are_built_once_per_root():
    from quivergk import clear_caches

    d4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    first = indecomposable_rep(d4, [1, 1, 1, 2])
    assert indecomposable_rep(d4, (1, 1, 1, 2)) is first
    clear_caches()
    again = indecomposable_rep(d4, (1, 1, 1, 2))
    # a cleared cache builds the probe anew, and the seeded draw repeats
    assert again is not first and again == first


def test_validate_rep(a2):
    validate_rep(a2, QuiverRep((2, 1), (((3, 0),),)))
    with pytest.raises(QuiverError):
        validate_rep(a2, QuiverRep((2, 1), (((3,),),)))


def test_orbit_rep_dims(inbound):
    for e in [(1, 1, 1), (2, 1, 0), (0, 0, 0)]:
        for orb in orbits(inbound, e):
            rep = orbit_rep(inbound, orb)
            assert rep.dims == tuple(e)
            validate_rep(inbound, rep)


def test_orbit_rep_rejects_a_dimension_vector_of_the_wrong_length(inbound):
    with pytest.raises(QuiverError, match="bad dimension vector"):
        orbit_rep(inbound, OrbitSpec((0, 0), ()))


def test_hom_dim_frozen(a2):
    ident = indecomposable_rep(a2, (1, 1))
    assert hom_dim(a2, ident, ident) == 1
    zero_space = QuiverRep((0, 0), ((),))
    assert hom_dim(a2, zero_space, zero_space) == 0
    zero_map = QuiverRep((1, 1), (((0,),),))
    assert hom_dim(a2, indecomposable_rep(a2, (0, 1)), zero_map) == 1
    assert hom_dim(a2, indecomposable_rep(a2, (0, 1)), ident) == 1


def test_end_of_indecomposables_is_one(inbound):
    for root in positive_roots(inbound):
        rep = indecomposable_rep(inbound, root)
        assert hom_dim(inbound, rep, rep) == 1


def test_hom_dim_additive(inbound):
    # Hom(psi, phi1 + phi2) = Hom(psi, phi1) + Hom(psi, phi2)
    psi = indecomposable_rep(inbound, A12)
    f1 = indecomposable_rep(inbound, A13)
    f2 = indecomposable_rep(inbound, A22)
    both = direct_sum(inbound, [f1, f2])
    assert hom_dim(inbound, psi, both) == hom_dim(inbound, psi, f1) + hom_dim(
        inbound, psi, f2
    )


def test_hom_dim_matches_fraction_rank(a2):
    # same gamma matrix, rank recomputed with Fractions
    rng = random.Random(11)
    for _ in range(40):
        e = (rng.randint(1, 3), rng.randint(1, 3))
        f = (rng.randint(1, 3), rng.randint(1, 3))
        mk = lambda d: QuiverRep(
            d,
            (
                tuple(
                    tuple(rng.randint(-2, 2) for _ in range(d[0]))
                    for _ in range(d[1])
                ),
            ),
        )
        psi, phi = mk(f), mk(e)
        # gamma: beta_2 psi_a - phi_a beta_1 as a linear map in (beta_1, beta_2)
        rows = []
        for x in range(e[1]):
            for z in range(f[0]):
                row = [0] * (e[0] * f[0] + e[1] * f[1])
                for y in range(f[1]):
                    row[e[0] * f[0] + x * f[1] + y] += psi.mats[0][y][z]
                for w in range(e[0]):
                    row[w * f[0] + z] -= phi.mats[0][x][w]
                rows.append(row)
        a_dim = e[0] * f[0] + e[1] * f[1]
        expected = a_dim - fraction_rank(rows)
        assert hom_dim(a2, psi, phi) == expected


# ---------------------------------------------------------------------------
# orbit closure membership


def test_zero_rep_in_every_closure(a2):
    zero = QuiverRep((1, 1), (((0,),),))
    for orb in orbits(a2, (1, 1)):
        assert in_orbit_closure(a2, zero, orb)


def test_dense_rep_only_in_dense_closure(a2):
    ident = QuiverRep((1, 1), (((1,),),))
    dense = OrbitSpec((1, 1), (((1, 1), 1),))
    small = OrbitSpec((1, 1), (((1, 0), 1), ((0, 1), 1)))
    assert in_orbit_closure(a2, ident, dense)
    assert not in_orbit_closure(a2, ident, small)


def test_a2_closure_is_rank_stratification(a2):
    # e = (2,2): membership in the rank-r orbit closure <=> matrix rank <= r
    rng = random.Random(23)
    orbs = {  # rank r orbit of a 2x2 matrix
        r: OrbitSpec(
            (2, 2),
            tuple(
                (root, m)
                for root, m in [((1, 1), r), ((1, 0), 2 - r), ((0, 1), 2 - r)]
                if m
            ),
        )
        for r in range(3)
    }
    for _ in range(50):
        mat = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        rep = QuiverRep((2, 2), (mat,))
        rank = fraction_rank([list(r) for r in mat])
        for r, orb in orbs.items():
            assert in_orbit_closure(a2, rep, orb) == (rank <= r)


def test_closure_reflexive_and_transitive(inbound):
    for e in [(1, 1, 0), (1, 1, 1), (2, 1, 1)]:
        orbs = orbits(inbound, e)
        reps = [orbit_rep(inbound, o) for o in orbs]
        rel = [
            [in_orbit_closure(inbound, reps[i], orbs[j]) for j in range(len(orbs))]
            for i in range(len(orbs))
        ]
        for i in range(len(orbs)):
            assert rel[i][i]
            for j in range(len(orbs)):
                for k in range(len(orbs)):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]


# Quivers on which the closed form Hom(M_a, M_b) = max(0, <a, b>) is pinned
# against the linear solve: both A3 orientations, one D4, D5 and E6.
CLOSED_FORM_QUIVERS = [
    Quiver(3, ((1, 2), (3, 2))),
    Quiver(3, ((2, 1), (2, 3))),
    Quiver(4, ((1, 4), (2, 4), (3, 4))),
    Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5))),
    Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))),
]


@pytest.mark.parametrize("q", CLOSED_FORM_QUIVERS, ids=["A3-in", "A3-out", "D4", "D5", "E6"])
def test_hom_between_indecomposables_is_closed_form(q):
    roots = positive_roots(q)
    probes = [indecomposable_rep(q, r) for r in roots]
    for a, pa in zip(roots, probes):
        for b, pb in zip(roots, probes):
            assert hom_dim(q, pa, pb) == max(0, euler_form(q, a, b)), (a, b)


def all_orbits(q, max_dim):
    return [
        o
        for e in itertools.product(range(max_dim + 1), repeat=q.n)
        for o in orbits(q, e)
    ]


@pytest.mark.parametrize(
    "q, max_dim",
    [(Quiver(3, ((1, 2), (3, 2))), 3), (Quiver(4, ((1, 4), (2, 4), (3, 4))), 2)],
    ids=["A3", "D4"],
)
def test_hom_table_orbit_column_matches_orbit_rep(q, max_dim):
    # the matrix route through orbit_rep is the oracle for the closed form
    for orb in all_orbits(q, max_dim):
        canonical = orbit_rep(q, orb)
        for root, h_rep, h_orb in hom_table(q, canonical, orb):
            expected = hom_dim(q, indecomposable_rep(q, root), canonical)
            assert h_rep == h_orb == expected, (orb, root)


def test_membership_rejects_orbits_not_made_of_roots(inbound):
    fake = OrbitSpec((1, 0, 1), (((1, 0, 1), 1),))
    rep = QuiverRep((1, 0, 1), ((), ()))
    with pytest.raises(QuiverError, match="not a positive root"):
        hom_table(inbound, rep, fake)
    with pytest.raises(QuiverError, match="not a positive root"):
        in_orbit_closure(inbound, rep, fake)


def test_membership_queries_share_one_input_check(inbound):
    # a well-formed rep of dim (1,1,1) against an orbit of dim (2,2,2)
    orbit = orbits(inbound, (2, 2, 2))[0]
    rep = QuiverRep((1, 1, 1), (((1,),), ((1,),)))
    for query in (hom_table, in_orbit_closure):
        with pytest.raises(QuiverError, match="dimension vectors differ"):
            query(inbound, rep, orbit)
    bad = QuiverRep((2, 2, 2), (((1,),), ((1,),)))
    for query in (hom_table, in_orbit_closure):
        with pytest.raises(QuiverError, match="not 2x2"):
            query(inbound, bad, orbit)


@pytest.mark.parametrize(
    "q, max_dim",
    [
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), 2),
        (Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))), 1),
    ],
    ids=["D4", "E6"],
)
def test_membership_on_d_and_e(q, max_dim):
    # facts that do not rest on the hom order: each representative lies in
    # its own closure, zero lies in every closure, and a representative lies
    # in another orbit's closure only if that orbit has smaller codimension
    # (codim = dim Ext^1(M, M) = dim End(M) - <e, e>, by the matrix route)
    by_dim = {}
    for orb in all_orbits(q, max_dim):
        by_dim.setdefault(orb.dim, []).append(orb)
    for e, orbs in by_dim.items():
        reps = [orbit_rep(q, o) for o in orbs]
        codims = [hom_dim(q, r, r) - tits_form(q, e) for r in reps]
        zero = QuiverRep(e, tuple(((0,) * e[t - 1],) * e[h - 1] for t, h in q.arrows))
        for j, orb in enumerate(orbs):
            assert in_orbit_closure(q, zero, orb)
            assert in_orbit_closure(q, reps[j], orb)
            for i, rep in enumerate(reps):
                if i != j and in_orbit_closure(q, rep, orb):
                    assert codims[j] < codims[i], (orbs[i], orb)


# ---------------------------------------------------------------------------
# membership solves from per-(quiver, root, dims) layouts


def _random_rep(q, e, rng):
    return QuiverRep(
        e,
        tuple(
            tuple(tuple(rng.randint(-2, 2) for _ in range(e[t - 1])) for _ in range(e[h - 1]))
            for t, h in q.arrows
        ),
    )


@pytest.mark.parametrize(
    "q, max_dim",
    [
        (Quiver(3, ((1, 2), (3, 2))), 2),
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), 2),
        (Quiver(4, ((4, 1), (4, 2), (4, 3))), 2),
        (Quiver(4, ((1, 4), (4, 2), (3, 4))), 2),
        (Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))), 1),
    ],
    ids=["A3-in", "D4-in", "D4-out", "D4-mixed", "E6"],
)
def test_membership_matches_the_public_hom_dim_route(q, max_dim):
    # the reference solves every probe through the checked public route;
    # E6 <= 1 probes with its roots that have an entry 2; the orbit side
    # is the sum of m * max(0, <alpha, beta>) over the orbit's roots
    def orbit_hom(a, orb):
        return sum(m * max(0, euler_form(q, a, b)) for b, m in orb.mults)

    rng = random.Random(q.n * 1000 + len(q.arrows))
    by_dim = {}
    for orb in all_orbits(q, max_dim):
        by_dim.setdefault(orb.dim, []).append(orb)
    for e, orbs in by_dim.items():
        reps = [orbit_rep(q, o) for o in orbs] + [_random_rep(q, e, rng) for _ in range(2)]
        for i, rep in enumerate(reps):
            seen = [(a, hom_dim(q, indecomposable_rep(q, a), rep)) for a in positive_roots(q)]
            table = [(a, h, orbit_hom(a, orbs[i % len(orbs)])) for a, h in seen]
            assert hom_table(q, rep, orbs[i % len(orbs)]) == table, rep
            for orb in orbs:
                inside = all(h >= orbit_hom(a, orb) for a, h in seen)
                assert in_orbit_closure(q, rep, orb) == inside, (rep, orb)


@pytest.mark.parametrize(
    "q, max_dim",
    [
        (Quiver(3, ((1, 2), (3, 2))), 3),
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), 2),
        (Quiver(4, ((1, 4), (4, 2), (3, 4))), 2),
        (Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))), 1),
    ],
    ids=["A3-in", "D4-in", "D4-mixed", "E6"],
)
def test_hom_dim_is_at_least_the_euler_bound(q, max_dim):
    # dim Hom(M_alpha, V) - dim Ext^1(M_alpha, V) = <alpha, e>, so no
    # representation of dims e sees fewer than max(0, <alpha, e>) homs:
    # the fact that lets membership skip the roots the bound satisfies
    rng = random.Random(q.n * 1000 + len(q.arrows))
    probes = [(a, indecomposable_rep(q, a)) for a in positive_roots(q)]
    by_dim = {}
    for orb in all_orbits(q, max_dim):
        by_dim.setdefault(orb.dim, []).append(orb)
    for e, orbs in by_dim.items():
        reps = [orbit_rep(q, o) for o in orbs] + [_random_rep(q, e, rng) for _ in range(2)]
        for rep in reps:
            for a, probe in probes:
                assert hom_dim(q, probe, rep) >= max(0, euler_form(q, a, e)), (a, rep)


@pytest.mark.parametrize(
    "arrows, rep_mults, orbit_mults",
    [
        (
            ((1, 2), (3, 2), (4, 2)),
            (((0, 1, 0, 1), 1), ((0, 1, 1, 0), 1), ((1, 1, 0, 0), 1)),
            (((0, 1, 0, 0), 1), ((1, 2, 1, 1), 1)),
        ),
        (
            ((2, 1), (2, 3), (2, 4)),
            (((0, 1, 1, 1), 1), ((1, 1, 0, 1), 1), ((1, 1, 1, 0), 1)),
            (((1, 1, 1, 1), 1), ((1, 2, 1, 1), 1)),
        ),
        (
            ((1, 2), (2, 3), (2, 4)),
            (((0, 1, 0, 1), 1), ((0, 1, 1, 0), 1), ((1, 1, 1, 1), 1)),
            (((0, 1, 1, 1), 1), ((1, 2, 1, 1), 1)),
        ),
    ],
    ids=["D4-in", "D4-out", "D4-mixed"],
)
def test_membership_decided_by_the_highest_root_alone(arrows, rep_mults, orbit_mults, monkeypatch):
    """On each D4 orientation, a representation outside an orbit closure
    that only the probe of the highest root (1, 2, 1, 1) rules out: every
    other root sees as many homs as the orbit needs.  Inwards at
    (1, 3, 1, 1) these are three independent lines in C^3 against three
    coplanar ones, where the map onto the centre has rank 3 against at
    most 2 in the closure."""
    q = Quiver(4, arrows)
    dims = tuple(map(sum, zip(*(root for root, _ in rep_mults))))
    rep = orbit_rep(q, OrbitSpec(dims, rep_mults))
    orbit = OrbitSpec(dims, orbit_mults)
    _orbit_side(q, orbit)
    solved = []
    monkeypatch.setattr(quiver, "_solve", lambda layout, r: solved.append(layout) or _solve(layout, r))
    assert not in_orbit_closure(q, rep, orbit)
    # the query solves the highest root, and stops there
    assert solved[-1] is _probe_layout(q, (1, 2, 1, 1), dims)
    monkeypatch.undo()
    short = [root for root, have, need in hom_table(q, rep, orbit) if have < need]
    assert short == [(1, 2, 1, 1)]
    if arrows == ((1, 2), (3, 2), (4, 2)):
        # the 3 x 3 matrix [a | b | c] of the three arrows into the centre
        centre = lambda r: [sum(rows, ()) for rows in zip(*r.mats)]  # noqa: E731
        assert fraction_rank(centre(rep)) == 3
        assert fraction_rank(centre(orbit_rep(q, orbit))) == 2


def test_equal_quivers_built_apart_share_cache_entries():
    a = Quiver(4, ((1, 2), (3, 2), (4, 2)))
    b = Quiver(4, [[1, 2], [3, 2], [4, 2]])
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((4, ((1, 2), (3, 2), (4, 2))))
    assert a != Quiver(4, ((3, 2), (1, 2), (4, 2)))
    assert repr(a) == "Quiver(n=4, arrows=((1, 2), (3, 2), (4, 2)))"
    roots = positive_roots(a)
    before = positive_roots.cache_info()
    assert positive_roots(b) is roots
    after = positive_roots.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_clear_caches_empties_the_probe_layouts(inbound):
    from quivergk import clear_caches

    orbit = orbits(inbound, (1, 2, 1))[0]
    in_orbit_closure(inbound, orbit_rep(inbound, orbit), orbit)
    assert _probe_layout.cache_info().currsize > 0
    assert _orbit_side.cache_info().currsize > 0
    clear_caches()
    assert _probe_layout.cache_info().currsize == 0
    assert _orbit_side.cache_info().currsize == 0


def test_membership_stops_at_the_first_failing_root(monkeypatch):
    # every failing query of D4-in <= 2 solves its orbit's probes in
    # order up to the first that falls short, and no further
    q = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    rng = random.Random(4)
    calls = [0]

    def counted(layout, rep):
        calls[0] += 1
        return _solve(layout, rep)

    failed = 0
    for orbit in all_orbits(q, 2):
        probes = _orbit_side(q, orbit)[1]
        for rep in (_random_rep(q, orbit.dim, rng), orbit_rep(q, orbits(q, orbit.dim)[-1])):
            short = [k for k, (layout, need) in enumerate(probes) if _solve(layout, rep) < need]
            calls[0] = 0
            monkeypatch.setattr(quiver, "_solve", counted)
            inside = in_orbit_closure(q, rep, orbit)
            monkeypatch.undo()
            assert inside == (not short)
            assert calls[0] == (short[0] + 1 if short else len(probes)), (rep, orbit)
            failed += bool(short)
    assert failed > 100


def test_bareiss_rank_matches_fraction_rank_on_random_matrices():
    # every shape from 0 x 0 to 6 x 6, with zero rows and columns, entries
    # of +-10**6 and pivots that are not units
    rng = random.Random(50)
    entries = (0, 0, 0, 1, -1, 2, -2, 3, 5, -7, 10**6, -(10**6))
    for rows, cols in itertools.product(range(7), repeat=2):
        for _ in range(40):
            m = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
            if rows and rng.random() < 0.3:
                m[rng.randrange(rows)] = [0] * cols
            if cols and rng.random() < 0.3:
                zero = rng.randrange(cols)
                for row in m:
                    row[zero] = 0
            expected = fraction_rank(m)
            assert _bareiss_rank([row[:] for row in m]) == expected, m


def test_bareiss_rank_matches_fraction_rank_on_every_membership_system(monkeypatch):
    # every system the solves build for the benchmark's membership corpus (50
    # seeded points per orbit of A3-in <= 3, drawn as perfbench draws them at
    # its default seed), and every root solved on D4-in <= 2, whose probes
    # with an entry 2 are random integer matrices (pivots not units)
    from quivergk import clear_caches

    systems = set()

    def recorded(m):
        systems.add(tuple(map(tuple, m)))
        return _bareiss_rank(m)

    clear_caches()  # the probes' own End = k draws are solved too
    monkeypatch.setattr(quiver, "_bareiss_rank", recorded)
    a3 = Quiver(3, ((1, 2), (3, 2)))
    rng = random.Random(1153)
    for orbit in all_orbits(a3, 3):
        for k in range(50):
            lo, hi = (-1, 1) if k % 2 else (-2, 2)
            mats = tuple(
                tuple(tuple(rng.randint(lo, hi) for _ in range(orbit.dim[t - 1])) for _ in range(orbit.dim[1]))
                for t in (1, 3)
            )
            in_orbit_closure(a3, QuiverRep(orbit.dim, mats), orbit)
    d4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    for orbit in all_orbits(d4, 2):
        hom_table(d4, orbit_rep(d4, orbit), orbit)
        hom_table(d4, _random_rep(d4, orbit.dim, rng), orbit)
    monkeypatch.undo()
    assert len(systems) > 9_000
    for m in systems:
        assert _bareiss_rank(list(map(list, m))) == fraction_rank(m), m


def test_a_failed_probe_list_is_not_memoised():
    d4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    fake = OrbitSpec((1, 1, 1, 3), (((1, 1, 1, 3), 1),))
    rep = QuiverRep((1, 1, 1, 3), (((0,),) * 3,) * 3)
    before = _orbit_side.cache_info().currsize
    for _ in range(2):
        with pytest.raises(QuiverError) as err:
            in_orbit_closure(d4, rep, fake)
        assert str(err.value) == "[1, 1, 1, 3] is not a positive root of this quiver"
    assert _orbit_side.cache_info().currsize == before


@pytest.mark.parametrize(
    "rep, message",
    [
        (QuiverRep((1, 1, 1, 3), (((0,),),) * 3), "matrix for arrow (1,4) is not 3x1"),
        (QuiverRep((1, 1, 1, 3), (((0,),) * 3,) * 2), "representation shape does not match quiver"),
        (
            QuiverRep((1, 1, 1, 2), (((0,),) * 2,) * 3),
            "dimension vectors differ: (1, 1, 1, 2) vs (1, 1, 1, 3)",
        ),
        (QuiverRep((1, 1, 1, 3), (((0,),) * 3,) * 3), "[1, 1, 1, 3] is not a positive root of this quiver"),
    ],
)
def test_a_bad_representation_is_reported_before_a_bad_orbit(rep, message):
    # the orbit's roots are checked once per orbit, after the per-query
    # shape and dims checks, so the order stays shape, dims, roots
    d4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
    fake = OrbitSpec((1, 1, 1, 3), (((1, 1, 1, 3), 1),))
    for query in (hom_table, in_orbit_closure):
        with pytest.raises(QuiverError) as err:
            query(d4, rep, fake)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "rep, message",
    [
        (QuiverRep((2, 2), (((1, 0), (0, 1)),)), "representation shape does not match quiver"),
        (QuiverRep((2, 2, 2), (((1, 0), (0, 1)),)), "representation shape does not match quiver"),
        (QuiverRep((2, 2, 2), (((1,),), ((1,),))), "matrix for arrow (1,2) is not 2x2"),
        (QuiverRep((2, 2, 2), (((1, 0), (0, 1)), ((1, 0), (0,)))), "matrix for arrow (3,2) is not 2x2"),
        (QuiverRep((2, 2, 2), (((1, 0), (0, 1)), ((1, 0),))), "matrix for arrow (3,2) is not 2x2"),
        (QuiverRep((1, 1, 1), (((1,),), ((1,),))), "dimension vectors differ: (1, 1, 1) vs (2, 2, 2)"),
        (QuiverRep((2, 2, 2), (((1, 0), (0, 1, 0)), ((1, 0), (0, 1)))), "matrix for arrow (1,2) is not 2x2"),
        (QuiverRep((2, 2, 2), (((1, 0, 0), (0, 1, 0)),) * 2), "matrix for arrow (1,2) is not 2x2"),
        # a shape error is reported before a dimension mismatch
        (QuiverRep((1, 1, 1), (((1, 0),), ((1,),))), "matrix for arrow (1,2) is not 1x1"),
    ],
)
def test_membership_rejects_malformed_reps_with_the_same_text(inbound, rep, message):
    orbit = orbits(inbound, (2, 2, 2))[0]
    for query in (hom_table, in_orbit_closure):
        with pytest.raises(QuiverError) as err:
            query(inbound, rep, orbit)
        assert str(err.value) == message
    if not message.startswith("dimension"):
        with pytest.raises(QuiverError) as err:
            validate_rep(inbound, rep)
        assert str(err.value) == message
        with pytest.raises(QuiverError) as err:
            hom_dim(inbound, indecomposable_rep(inbound, A13), rep)
        assert str(err.value) == message
