"""The README's library examples give the output that the README shows."""

from quivergk import (
    OrbitSpec,
    Quiver,
    QuiverRep,
    basis,
    coproduct,
    in_orbit_closure,
    mul,
    orbits,
    quiver_coefficients,
)

INBOUND = Quiver(3, ((1, 2), (3, 2)))
ORBIT = OrbitSpec((1, 1, 1), (((1, 1, 0), 1), ((0, 0, 1), 1)))


def test_quick_start_table():
    table = quiver_coefficients(INBOUND, (1, 1, 1), ORBIT)
    assert table.codim == 1
    assert repr(table.tensor) == "1*G[](x)G[1](x)G[] + 1*G[1](x)G[](x)G[] - 1*G[1](x)G[1](x)G[]"
    assert table.caveat is None


def test_membership_example():
    assert len(orbits(INBOUND, (1, 1, 1))) == 4
    rep = QuiverRep((1, 1, 1), (((1,),), ((0,),)))
    assert in_orbit_closure(INBOUND, rep, ORBIT) is True


def test_ring_examples():
    square = mul(basis((1,)), basis((1,)))
    assert repr(square) == "1*G[1, 1] + 1*G[2] - 1*G[2, 1]"
    assert square.terms == {((1, 1),): 1, ((2, 1),): -1, ((2,),): 1}
    assert square.sorted_terms() == [(((1, 1),), 1), (((2,),), 1), (((2, 1),), -1)]
    assert repr(coproduct((2,))) == (
        "1*G[](x)G[2] + 1*G[1](x)G[1] + 1*G[2](x)G[] - 1*G[1](x)G[2] - 1*G[2](x)G[1]"
    )
    assert repr(basis((1,)) - basis((1,))) == "0[arity 1]"
