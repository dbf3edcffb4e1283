import itertools
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergk import clear_caches, gamma
from quivergk.gamma import (
    TensorElement,
    append_unit,
    basis,
    coproduct,
    coproduct2,
    coproduct_coeff,
    key_degree,
    lr_coeff,
    min_degree,
    mul,
    project_degree,
    straighten,
)
from quivergk.partitions import QuiverError, normalize

from conftest import int_seqs, partitions
from reference import (
    classical_lr,
    conjugate,
    contains,
    content,
    enumerate_svt,
    expand_single,
    is_reverse_lattice,
    partitions_fitting,
    rectangle_coproduct_coeff,
    rook_strip_complement,
    straightening_law,
    tensor_mul_at,
    u_word,
    word,
)


def G(*parts):
    return basis(parts)


SMALL = [lam for n in range(5) for lam in partitions_fitting(4, 4) if sum(lam) == n]


# ---------------------------------------------------------------------------
# products


def test_square_of_one_box():
    assert mul(G(1), G(1)).terms == {((2,),): 1, ((1, 1),): 1, ((2, 1),): -1}


def test_two_box_times_one_box():
    assert mul(G(2), G(1)).terms == {((3,),): 1, ((2, 1),): 1, ((3, 1),): -1}


def test_lr_coeff_frozen():
    assert lr_coeff((1,), (1,), (2,)) == 1
    assert lr_coeff((1,), (1,), (1, 1)) == 1
    assert lr_coeff((1,), (1,), (2, 1)) == -1
    assert lr_coeff((2,), (1,), (3, 1)) == -1


def test_unit_of_ring():
    for lam in [(2, 1), (3,), ()]:
        assert mul(basis(()), G(*lam)).terms == {(tuple(p for p in lam if p),): 1}


@given(partitions(max_size=3, max_part=3), partitions(max_size=3, max_part=3))
def test_mul_commutes(lam, mu):
    assert mul(G(*lam), G(*mu)).terms == mul(G(*mu), G(*lam)).terms


def test_mul_associates_small():
    shapes = [(), (1,), (2,), (1, 1)]
    for a, b, c in itertools.product(shapes, repeat=3):
        left = mul(mul(G(*a), G(*b)), G(*c))
        right = mul(G(*a), mul(G(*b), G(*c)))
        assert left.terms == right.terms, (a, b, c)


@given(partitions(max_size=4, max_part=3), partitions(max_size=4, max_part=3))
@settings(max_examples=60)
def test_lr_sign_and_support_laws(lam, mu):
    prod = mul(G(*lam), G(*mu))
    for (nu,), c in prod.terms.items():
        sign = (-1) ** (sum(nu) - sum(lam) - sum(mu))
        assert sign * c > 0
        assert contains(nu, lam) and contains(nu, mu)
        assert sum(nu) >= sum(lam) + sum(mu)


def test_lowest_degree_is_classical_lr():
    for lam, mu in [((2, 1), (2, 1)), ((2,), (1, 1)), ((3, 1), (2,))]:
        prod = mul(G(*lam), G(*mu))
        d = sum(lam) + sum(mu)
        for nu in partitions_fitting(4, 6):
            if sum(nu) == d:
                assert prod.terms.get((nu,), 0) == classical_lr(lam, mu, nu)


# ---------------------------------------------------------------------------
# polynomial cross-check: the structure constants against raw tableau sums
#
# Both sides below are honest truncated polynomial computations; the right
# hand side never touches lr_coeff or the lattice-walk enumerator.


def _poly_mul(a, b, max_deg):
    out = {}
    for ma, ca in a.items():
        da = sum(ma)
        for mb, cb in b.items():
            if da + sum(mb) > max_deg:
                continue
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("lam,mu", [((1,), (1,)), ((2,), (1,)), ((2, 1), (1,)), ((2,), (2,))])
def test_product_matches_polynomial_expansion(lam, mu):
    nvars, deg = 3, sum(lam) + sum(mu) + 2
    direct = _poly_mul(
        expand_single(lam, nvars, deg), expand_single(mu, nvars, deg), deg
    )
    via_ring = {}
    for (nu,), c in mul(G(*lam), G(*mu)).terms.items():
        for mono, x in expand_single(nu, nvars, deg).items():
            via_ring[mono] = via_ring.get(mono, 0) + c * x
    via_ring = {k: v for k, v in via_ring.items() if v}
    assert direct == via_ring


@pytest.mark.parametrize("nu", [(1,), (2,), (1, 1), (2, 1), (2, 2)])
def test_coproduct_matches_alphabet_splitting(nu):
    # G_nu(x1,x2,y1,y2) must equal sum d_{lam,mu} G_lam(x) G_mu(y)
    p = q = 2
    deg = sum(nu) + 2
    combined = expand_single(nu, p + q, deg)
    via_coproduct = {}
    for (lam, mu), d in coproduct(nu).terms.items():
        left = expand_single(lam, p, deg)
        right = expand_single(mu, q, deg)
        for mx, cx in left.items():
            for my, cy in right.items():
                if sum(mx) + sum(my) > deg:
                    continue
                mono = mx + my
                via_coproduct[mono] = via_coproduct.get(mono, 0) + d * cx * cy
    via_coproduct = {k: v for k, v in via_coproduct.items() if v}
    assert combined == via_coproduct


# ---------------------------------------------------------------------------
# coproducts


def test_coproduct_of_one_box():
    assert coproduct((1,)).terms == {
        ((1,), ()): 1,
        ((), (1,)): 1,
        ((1,), (1,)): -1,
    }


def test_coproduct_of_empty():
    assert coproduct(()).terms == {((), ()): 1}


def test_coproduct_coeff_frozen():
    assert coproduct_coeff((), (), ()) == 1
    assert coproduct_coeff((1,), (1,), (1,)) == -1
    assert coproduct_coeff((1,), (), (1,)) == 1
    assert coproduct_coeff((), (1,), (1,)) == 1
    assert coproduct_coeff((1, 1), (1, 1), (1, 1)) == 0


def test_coproduct_counit():
    for nu in SMALL:
        t = coproduct(nu).terms
        assert t.get((nu, ()), 0) == 1
        assert t.get(((), nu), 0) == 1
        # nothing of shape (sigma, ()) for sigma != nu
        assert all(k[0] == nu for k in t if k[1] == ())


def test_coproduct_cocommutative():
    for nu in SMALL:
        t = coproduct(nu).terms
        assert t == {(b, a): c for (a, b), c in t.items()}


def test_coproduct_row_cap_is_a_restriction():
    """coproduct(nu, m) is coproduct(nu) cut to the terms whose second
    factor has at most m rows, for every nu in the 4 x 4 box."""
    for nu in partitions_fitting(4, 4):
        full = coproduct(nu).terms
        assert coproduct(nu, len(nu) + 2) == coproduct(nu)
        for m in range(len(nu) + 1):
            cut = {key: c for key, c in full.items() if len(key[1]) <= m}
            assert coproduct(nu, m).terms == cut, (nu, m)


@pytest.mark.parametrize("bound", [1.5, "1"])
def test_coproduct_rejects_a_non_integer_row_cap(bound):
    with pytest.raises(ValueError, match="expected integers"):
        coproduct((2, 1), bound)
    with pytest.raises(ValueError, match="negative max_rows"):
        coproduct((2, 1), -1)


def test_coproduct_rejects_a_float_row_cap_after_its_int_is_cached():
    """The memo keys carry their types, so 2.0 misses the entry of 2 and
    reaches the integer check, whatever was computed before it."""
    assert coproduct((2, 1), 2) == coproduct((2, 1))
    with pytest.raises(ValueError, match="expected integers"):
        coproduct((2, 1), 2.0)
    assert coproduct.cache_info().currsize > 0  # still a functools memo


# each list or dict call once raised TypeError: the memo hashed it before normalize read it
LIST_CALLS = {
    "coproduct": lambda seq: coproduct(seq((2, 1))),
    "coproduct with a row cap": lambda seq: coproduct(seq((2, 1)), 1),
    "coproduct2": lambda seq: coproduct2(seq((2, 1))),
    "lr_coeff": lambda seq: lr_coeff(seq((1,)), seq((1,)), seq((2,))),
    "coproduct_coeff": lambda seq: coproduct_coeff(seq((1,)), seq((1,)), seq((2,))),
}


@pytest.mark.parametrize("call", LIST_CALLS.values(), ids=LIST_CALLS)
def test_memoised_constants_read_a_list_partition_as_its_tuple(call):
    clear_caches()
    from_list = call(list)
    assert from_list == call(tuple)
    assert call(list) == from_list  # now a hit
    assert call(dict.fromkeys) == from_list  # a dict is read as its keys, as normalize reads it


def test_list_arguments_share_the_tuple_memo():
    clear_caches()
    coproduct((2, 1))
    coproduct([2, 1])
    info = coproduct.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    coproduct.cache_clear()
    assert coproduct.cache_info().currsize == 0


@pytest.mark.parametrize("p, q", itertools.product(range(5), repeat=2))
def test_rectangle_coproduct_is_the_rook_strip_rule(p, q):
    """Buch's closed form for a rectangle R = (q,) * p: G_lam (x) G_mu
    appears in coproduct(R), with sign (-1)^(|lam|+|mu|-|R|), exactly when
    lam and mu turned into the far corner cover R and overlap in a rook
    strip.  Both sides of the ``oracle-a3`` check read these coproducts."""
    rect = (q,) * p
    box = list(partitions_fitting(p, q))
    rule = {
        (lam, mu): (-1) ** (sum(lam) + sum(mu) - p * q)
        for lam, mu in itertools.product(box, repeat=2)
        if rook_strip_complement(rect, lam, mu)
    }
    assert coproduct(rect).terms == rule


@pytest.mark.parametrize(
    "nu",
    [
        *partitions_fitting(3, 3),
        (4, 4, 2, 1),
        (4, 4, 4, 1),
        (2, 2, 1, 1, 1),
        (3, 2, 2, 1, 1),
        (2, 2, 2, 2, 2),
    ],
)
def test_coproduct_matches_the_rectangle_filling(nu):
    """``coproduct`` fills nu's shape with the rectangle's word appended;
    the reference fills the rectangle with nu's word appended.  Buch's rule
    counts the same constants either way, at every row cap.  The five-row
    shapes check caps with p - m up to 5."""
    p, q = len(nu), (nu[0] if nu else 0)
    inside = list(partitions_fitting(p, q))
    table = {}
    for lam in inside:
        for mu in inside:
            c = rectangle_coproduct_coeff(lam, mu, nu)
            if c:
                table[(lam, mu)] = c
    for m in range(p + 1):
        cut = {key: c for key, c in table.items() if len(key[1]) <= m}
        assert coproduct(nu, m).terms == cut, (nu, m)


def test_lattice_walk_returns_trimmed_partitions():
    """The walk trims each content once, after the walk: every key it
    returns is a partition without trailing zeros, with a positive count,
    for every nu in the 4 x 4 box against every coproduct tail q^m,
    m = 0..len(nu), and against every tail in the 2 x 2 box."""
    for nu in partitions_fitting(4, 4):
        p, q = len(nu), (nu[0] if nu else 0)
        walks = [gamma._lattice_walk(nu, (q,) * m) for m in range(p + 1)]
        walks += [gamma._lattice_walk(nu, mu) for mu in partitions_fitting(2, 2)]
        for walk in walks:
            assert walk
            for rho, n in walk.items():
                assert n > 0 and normalize(rho) == rho, (nu, rho)


def _brute_walk(shape, tail):
    """The walk's tally by brute force: every set-valued tableau of
    ``shape`` with entries up to len(shape) + len(tail), its word with
    ``tail``'s word appended, kept when reverse lattice, counted by
    content."""
    top = len(shape) + len(tail)
    out = {}
    for t in enumerate_svt(shape, top, sum(shape) * max(top - 1, 0)):
        w = word(t) + u_word(tail)
        if not is_reverse_lattice(w):
            continue
        rho = content(w)
        out[rho] = out.get(rho, 0) + 1
    return out


def test_lattice_walk_is_the_brute_force_tally():
    """Pins the walk to an enumerator that shares no code with it: every
    product walk with lam in the 2 x 2 box and mu in the 3 x 3 box, and
    every coproduct walk of nu in the 2 x 3 box against every tail q^m,
    m = 0..len(nu).  The 3-row shapes below keep a column's maximum across
    more than two rows: lam in {(1,1,1), (2,1,1), (2,2,1)} against mu in
    the 2 x 2 box up to (2, 1), and nu = (1, 1, 1) against every q^m."""
    box = list(partitions_fitting(3, 3))
    cases = [(lam, mu) for lam in partitions_fitting(2, 2) for mu in box]
    for nu in [*partitions_fitting(2, 3), (1, 1, 1)]:
        p, q = len(nu), (nu[0] if nu else 0)
        cases += [(nu, (q,) * m) for m in range(p + 1)]
    small = [(), (1,), (2,), (1, 1), (2, 1)]
    cases += [(lam, mu) for lam in [(1, 1, 1), (2, 1, 1), (2, 2, 1)] for mu in small]
    assert len(cases) == 164
    for shape, tail in cases:
        assert gamma._lattice_walk(shape, tail) == _brute_walk(shape, tail), (shape, tail)


def test_coproduct_rejects_negative_row_cap():
    with pytest.raises(ValueError):
        coproduct((1,), -1)


def test_a_walk_deeper_than_the_stack_raises_quiver_error():
    # the walk recurses about two frames per box, so a 2,000-box row leaked RecursionError
    before = sys.getrecursionlimit()
    with pytest.raises(QuiverError, match="2000 boxes"):
        coproduct((2000,))
    with pytest.raises(QuiverError, match="2000 boxes"):
        mul(basis((2000,)), basis((1,)))
    assert sys.getrecursionlimit() == before


def _package_memos():
    """Every functools memo of every package module."""
    import importlib
    import pkgutil

    import quivergk

    memos = []
    for info in pkgutil.iter_modules(quivergk.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"quivergk.{info.name}")
        memos += [obj for obj in vars(module).values() if hasattr(obj, "cache_info")]
    return memos


def test_clear_caches_empties_every_memo():
    """One call empties each functools memo of every package module and
    the straightening memo."""
    from quivergk import in_orbit_closure, orbits, quiver_coefficients, Quiver
    from reference import orbit_rep

    q = Quiver(3, ((1, 2), (3, 2)))
    for orbit in orbits(q, (2, 2, 2)):
        quiver_coefficients(q, (2, 2, 2), orbit)
        assert in_orbit_closure(q, orbit_rep(q, orbit), orbit)
    coproduct_coeff((1,), (1,), (1,))
    coproduct2((2, 1))
    straighten((1, 2))  # the A3 tables above may need no straightening
    memos = _package_memos()
    assert any(memo.cache_info().currsize for memo in memos)
    assert gamma._straighten_cache
    clear_caches()
    for memo in memos:
        assert memo.cache_info().currsize == 0, memo
    assert gamma._straighten_cache == {}


def test_building_a_quiver_fills_no_memo():
    # the constructor's cycle check (source_rank) is not memoised, so a
    # quiver is built without writing to any package memo
    from quivergk import Quiver

    clear_caches()
    Quiver(4, ((1, 4), (4, 2), (4, 3)))
    for memo in _package_memos():
        assert memo.cache_info().currsize == 0, memo
    assert gamma._straighten_cache == {}


@given(partitions(max_size=4, max_part=3))
@settings(max_examples=40)
def test_coproduct_sign_and_support_laws(nu):
    for (lam, mu), d in coproduct(nu).terms.items():
        assert (-1) ** (sum(lam) + sum(mu) - sum(nu)) * d > 0
        assert contains(nu, lam) and contains(nu, mu)
        assert sum(lam) + sum(mu) >= sum(nu)


def test_coproduct_coeff_rectangle_independent():
    """The rectangle filling gives one value in every rectangle around lam
    and mu, and ``coproduct_coeff`` reads that value."""
    cases = [((1,), (1,), (1,)), ((2, 1), (1, 1), (2, 1)), ((2,), (2, 1), (2, 2))]
    for lam, mu, nu in cases:
        tight = rectangle_coproduct_coeff(lam, mu, nu)
        for rect in [(3, 3, 3), (4, 4), (3, 3, 3, 3)]:
            assert rectangle_coproduct_coeff(lam, mu, nu, rect) == tight
        assert coproduct_coeff(lam, mu, nu) == tight


def test_coproduct_coassociative_small():
    for nu in SMALL:
        left = {}
        for (sig, tau), d in coproduct(nu).terms.items():
            for (lam, mu), e in coproduct(sig).terms.items():
                key = (lam, mu, tau)
                left[key] = left.get(key, 0) + d * e
        left = {k: v for k, v in left.items() if v}
        assert left == coproduct2(nu).terms


def test_double_coproduct_of_one_box():
    assert coproduct2((1,)).terms.get(((1,), (1,), (1,))) == 1


# ---------------------------------------------------------------------------
# straightening


@pytest.mark.parametrize(
    "seq,expected",
    [
        ((2, 1), {((2, 1),): 1}),
        ((1, -1), {((1,),): 1}),
        ((0, 1), {((1, 1),): 1}),
        ((0,), {((),): 1}),
        ((), {((),): 1}),
        ((2, 1, 2), {((2, 2, 2),): 1}),
    ],
)
def test_straighten_frozen(seq, expected):
    assert straighten(seq).terms == expected


@given(int_seqs)
@settings(max_examples=150, deadline=None)
def test_straighten_obeys_its_law(seq):
    got = straighten(seq)
    for rhs in straightening_law(seq):
        assert got == rhs, seq
    for (lam,) in got.terms:
        assert all(p > 0 for p in lam)


def test_straighten_a_run_of_zeros_before_one_large_entry():
    """1,716 terms, reached in time that follows the output, not the
    599,357 sequences that the rewrite graph of this input holds."""
    clear_caches()
    start = time.perf_counter()
    got = straighten((0,) * 6 + (7,)).terms
    assert time.perf_counter() - start < 2.0
    assert len(got) == 1716 and sum(got.values()) == 1
    pins = [((1,) * 7, 1), ((2,) + (1,) * 6, -6), ((4,) + (1,) * 6, -20), ((7,) * 7, 1)]
    for lam, c in pins:
        assert got[(lam,)] == c, lam
    assert ((7,),) not in got and ((4, 3),) not in got


def test_straighten_fixes_partitions():
    for lam in SMALL:
        assert straighten(lam).terms == {(lam,): 1}


@pytest.mark.parametrize("bad", [0.5, 1.7, 2.0, "1"])
def test_ring_layer_rejects_non_integers(bad):
    """A part that is not an exact integer is refused, not truncated or
    printed as it came."""
    with pytest.raises(ValueError):
        basis((bad,))
    with pytest.raises(ValueError):
        TensorElement(1, {((bad,),): 1})
    with pytest.raises(ValueError):
        TensorElement(2, {((2, 1), (3, bad)): 1})
    with pytest.raises(ValueError):
        straighten((bad, 2))
    with pytest.raises(ValueError):
        straighten((2, bad))
    with pytest.raises(ValueError):
        TensorElement(1, {((1,),): bad})
    with pytest.raises(ValueError):
        project_degree(G(1), bad)


def test_ring_layer_reads_booleans_as_integers():
    assert basis((True,)) == G(1)
    assert TensorElement(1, {((2, True),): 1}) == G(2, 1)
    assert straighten((True, 2)) == straighten((1, 2))


def test_straighten_memoises_only_its_input():
    clear_caches()
    got = straighten((0, 0, 0, 0, 6))
    assert list(gamma._straighten_cache) == [(0, 0, 0, 0, 6)]
    assert straighten((0, 0, 0, 0, 6)) is got


def test_straighten_shares_its_memo():
    """The memoised element is returned itself, to every caller and for
    any iterable; arithmetic on it builds new elements and leaves it be."""
    seq = (0, 1, 3)
    clear_caches()
    first = straighten(seq)
    expected = dict(first.terms)
    assert straighten(list(seq)) is first
    assert first + G(1) != first and (first - first).terms == {}
    assert (3 * first).terms == {key: 3 * c for key, c in expected.items()}
    assert (0 * first).terms == {}
    assert straighten(iter(seq)).terms == expected
    clear_caches()
    again = straighten(seq)
    assert again is not first and again.terms == expected


def test_straighten_restores_recursion_limit():
    # the second chain is longer than the default recursion limit
    for n in (21, 2000):
        clear_caches()
        before = sys.getrecursionlimit()
        assert straighten((0,) * (n - 1) + (1,)).terms == {((1,) * n,): 1}
        assert sys.getrecursionlimit() == before


# ---------------------------------------------------------------------------
# tensor helpers


def test_tensor_unit_and_mul_at():
    one = TensorElement.unit(2)
    assert one.terms == {((), ()): 1}
    bumped = tensor_mul_at(one, 1, G(1))
    assert bumped.terms == {(((1,), ())): 1}
    assert tensor_mul_at(one, 2, G(2, 1)).terms == {((), (2, 1)): 1}


def test_trusted_arithmetic_drops_zeros():
    """Results built inside the package are not re-normalised, so every
    operation must drop its own zero coefficients; the public constructor
    still normalises and merges keys."""
    for zero in (G(1) + (-1) * G(1), 0 * G(2, 1)):
        assert not zero
        assert zero.terms == {}
    assert (G(1) + G(2)) - G(2) == G(1)
    a, b = G(1) + G(2) - G(1, 1), G(1) - G(2)
    t = TensorElement(2, {((1,), ()): 1, ((), (1,)): -1})
    results = [
        a + b,
        a - b,
        a - a,
        3 * a,
        0 * a,
        mul(a, b),
        mul(a, G(1) - G(1)),
        tensor_mul_at(t, 1, b),
        tensor_mul_at(t, 2, a),
        tensor_mul_at(t, 1, a - a),
    ]
    for got in results:
        assert all(got.terms.values()), got
    assert basis([2, 1, 0]) == basis((2, 1))
    assert not TensorElement(2, {((1, 0), ()): 1, ((1,), ()): -1})
    two_slot = TensorElement.unit(2)
    with pytest.raises(ValueError):
        mul(two_slot, G(1))
    with pytest.raises(ValueError):
        mul(G(1), two_slot)
    with pytest.raises(ValueError):
        tensor_mul_at(two_slot, 1, two_slot)


def test_tensor_mul_at_bad_slot():
    with pytest.raises(ValueError):
        tensor_mul_at(TensorElement.unit(2), 3, G(1))


@pytest.mark.parametrize("slot", [1.5, 1.0, "1", None])
def test_tensor_mul_at_rejects_a_non_integer_slot(slot):
    with pytest.raises(ValueError, match="expected integers"):
        tensor_mul_at(TensorElement.unit(2), slot, G(1))


@pytest.mark.parametrize(
    "arity,match", [(1.5, "expected integers"), ("1", "expected integers"), (-1, "negative arity")]
)
def test_tensor_element_rejects_a_bad_arity(arity, match):
    with pytest.raises(ValueError, match=match):
        TensorElement(arity, {})


def test_append_unit():
    t = TensorElement(2, {(((1,), (2,))): 4})
    assert append_unit(t).terms == {((1,), (2,), ()): 4}
    assert append_unit(t).arity == 3


def test_degree_helpers():
    t = TensorElement(2, {((1,), (2,)): 1, ((3,), ()): 2})
    assert key_degree(((1,), (2,))) == 3
    assert min_degree(t) == 3
    assert project_degree(t, 3).terms == t.terms
    assert project_degree(t, 4).terms == {}
    assert min_degree(TensorElement(2, {})) is None


def test_tensor_mul_at_is_bilinear():
    t = TensorElement(2, {((1,), ()): 1, ((), (1,)): 1})
    g = G(1) + G(2)
    direct = tensor_mul_at(t, 1, g)
    split = tensor_mul_at(t, 1, G(1)) + tensor_mul_at(t, 1, G(2))
    assert direct.terms == split.terms


def test_conjugation_keeps_the_product_constants():
    """Gr(k, n) = Gr(n - k, n) conjugates every partition, so c^nu_{lam mu} = c^{nu'}_{lam' mu'}:
    on every product of the 3 x 3 box.  The walk fills rows, so nothing in it forces this."""
    box = list(partitions_fitting(3, 3))
    for lam, mu in itertools.product(box, repeat=2):
        flipped = {(conjugate(nu),): c for (nu,), c in mul(basis(lam), basis(mu)).terms.items()}
        assert mul(basis(conjugate(lam)), basis(conjugate(mu))).terms == flipped, (lam, mu)


def test_conjugation_keeps_the_coproduct_constants():
    """d^nu_{lam mu} = d^{nu'}_{lam' mu'} on every coproduct of the 4 x 4 box."""
    for nu in partitions_fitting(4, 4):
        flipped = {(conjugate(a), conjugate(b)): d for (a, b), d in coproduct(nu).terms.items()}
        assert coproduct(conjugate(nu)).terms == flipped, nu
