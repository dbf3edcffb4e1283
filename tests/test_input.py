"""The package's one input boundary: every public layer reads exact
integer input through ``partitions.integers`` (nested input through
``partitions.sequence``, the package's own types through
``partitions.instance``) and rejects bad input with the one
``QuiverError``, a ``ValueError``.  The reference layer's input checks
are tested beside it, in ``test_partitions.py``."""

import pytest

import quivergk
from quivergk import (
    INBOUND,
    DirectedPartition,
    OrbitSpec,
    Quiver,
    QuiverError,
    QuiverRep,
    ResolutionPair,
    TensorElement,
    a_op,
    append_unit,
    basis,
    caveat_for,
    check_alternating,
    codim,
    coefficients,
    cohomological_part,
    coproduct,
    coproduct2,
    directed_partition,
    dynkin_type,
    euler_form,
    greedy_block,
    hom_dim,
    hom_table,
    in_orbit_closure,
    inbound_table,
    indecomposable_rep,
    is_dynkin,
    key_degree,
    lr_coeff,
    min_degree,
    mul,
    mults_from_orbit,
    opposite,
    orbits,
    outbound_table,
    phi,
    positive_roots,
    project_degree,
    psi,
    quiver_coefficients,
    resolution_pair,
    straighten,
    sweep,
    tits_form,
    validate_directed,
)
from quivergk.oracle_a3 import interval_root
from quivergk.quiver import check_roots, source_rank, validate_rep
from quivergk.resolution import pair_steps

from reference import A2

ORBIT = OrbitSpec((1, 1, 1), (((1, 1, 1), 1),))
BLOCKS = (((1, 1, 1),),)
PAIR = ResolutionPair((1, 2, 3), (1, 1, 1))
# one step of rank 1 at vertex 1: the stages (0, 1, 1) are left unresolved
PARTIAL = ResolutionPair((1,), (1,))
REP = QuiverRep((1, 1, 1), (((1,),), ((1,),)))
SPLIT = OrbitSpec((1, 1, 1), (((1, 0, 0), 1), ((0, 1, 1), 1)))
# <(1,0,0),(0,1,1)> = -1 inside a block; a block left empty
NOT_DIRECTED = DirectedPartition((((1, 0, 0), (0, 1, 1)),))
EMPTY_BLOCK = DirectedPartition((((0, 1, 1),), (), ((1, 0, 0),)))
# 1 -> 2 <- 3 at e = (0, 2, 0): two rank-1 steps at vertex 2, c = -1 then 0, so codim -1
SINK = Quiver(3, ((1, 2), (3, 2)))
NEGATIVE = ResolutionPair((2, 2), (1, 1))
A1 = Quiver(1, ())
EDGE = QuiverRep((1, 1), (((1,),),))  # the identity on 1 -> 2

# each call once raised TypeError, a bare ValueError, or returned a wrong answer
BAD_CALLS = {
    "quiver arrows not a sequence": lambda: Quiver(2, 5),
    "orbit mults not a sequence": lambda: OrbitSpec((1, 1, 1), 5),
    "orbit mult not a pair": lambda: OrbitSpec((1, 1, 1), (((1, 1, 1), 1, 2),)),
    "orbit mult not a sequence": lambda: OrbitSpec((1,), (5,)),
    "rep matrices not a sequence": lambda: QuiverRep((1, 1, 1), 5),
    "rep matrix not a sequence": lambda: QuiverRep((1, 1), (5,)),
    "blocks not a sequence": lambda: DirectedPartition(5),
    "roots not a sequence": lambda: directed_partition(INBOUND, 5),
    "float root": lambda: directed_partition(A2, ((1.0, 1),)),
    "mul on arity 2": lambda: mul(TensorElement(2), basis((1,))),
    "negative max_rows": lambda: coproduct((1,), -1),
    "key not a partition": lambda: TensorElement(1, {((1, 2),): 1}),
    "key not a sequence": lambda: TensorElement(1, {5: 1}),
    "straighten letters": lambda: straighten("ab"),
    "arity mismatch": lambda: TensorElement.unit(1) + TensorElement.unit(2),
    # each of these once raised AttributeError, or checked nothing until the first next()
    "orbit not an OrbitSpec": lambda: quiver_coefficients(INBOUND, (1, 1, 1), ((1, 1, 1),)),
    "pair of coefficients not a ResolutionPair": lambda: coefficients(INBOUND, (1, 1, 1), ((2,), (1,))),
    "pair of codim not a ResolutionPair": lambda: codim(INBOUND, (1, 1, 1), ((2,), (1,))),
    "partition of resolution_pair not a DirectedPartition": lambda: resolution_pair(INBOUND, ORBIT, BLOCKS),
    "orbit of resolution_pair not an OrbitSpec": lambda: resolution_pair(
        INBOUND, ((1, 1, 1),), DirectedPartition(BLOCKS)
    ),
    "stages over a short dimension vector": lambda: pair_steps(INBOUND, (1, 1), PAIR),
    # each of these once raised TypeError, or read a float as an int
    "stage vector not a sequence": lambda: phi(TensorElement.unit(3), INBOUND, 5, 1, 1),
    "float end of interval_root": lambda: interval_root(1.5, 2),
    # each of these once kept a scalar that is not an integer, or raised AttributeError
    "float scalar": lambda: 2.5 * TensorElement.unit(1),
    "string scalar": lambda: "ab" * TensorElement.unit(1),
    "int added to a tensor": lambda: TensorElement.unit(1) + 5,
    "int subtracted from a tensor": lambda: TensorElement.unit(1) - 5,
    # each of these once raised AttributeError or IndexError
    "rep of in_orbit_closure not a QuiverRep": lambda: in_orbit_closure(INBOUND, 5, ORBIT),
    "reps of hom_dim not QuiverReps": lambda: hom_dim(INBOUND, 5, 5),
    "orbit of hom_table not an OrbitSpec": lambda: hom_table(INBOUND, REP, 5),
    # each of these once returned a table or a pair
    "non-directed partition of resolution_pair": lambda: resolution_pair(INBOUND, SPLIT, NOT_DIRECTED),
    "empty block of resolution_pair": lambda: resolution_pair(INBOUND, SPLIT, EMPTY_BLOCK),
    # each of these once raised AttributeError on an int where a TensorElement or a Quiver belongs
    "tensor of psi not a TensorElement": lambda: psi(5, 1),
    "tensor of a_op not a TensorElement": lambda: a_op(5, 1, 1, 1),
    "tensor of phi not a TensorElement": lambda: phi(5, INBOUND, (1, 1, 1), 1, 1),
    "quiver of phi not a Quiver": lambda: phi(TensorElement.unit(3), 5, (1, 1, 1), 1, 1),
    "first factor of mul not a TensorElement": lambda: mul(5, basis((1,))),
    "second factor of mul not a TensorElement": lambda: mul(basis((1,)), 5),
    "quiver of quiver_coefficients not a Quiver": lambda: quiver_coefficients(5, (1, 1, 1), ORBIT),
    "quiver of orbits not a Quiver": lambda: orbits(5, (1,)),
    "quiver of sweep not a Quiver": lambda: next(sweep(5, 1, "signs")),
    "quiver of hom_dim not a Quiver": lambda: hom_dim(5, REP, REP),
    "quiver of in_orbit_closure not a Quiver": lambda: in_orbit_closure(5, REP, ORBIT),
    "quiver of hom_table not a Quiver": lambda: hom_table(5, REP, ORBIT),
    "quiver of indecomposable_rep not a Quiver": lambda: indecomposable_rep(5, (1,)),
    "quiver of euler_form not a Quiver": lambda: euler_form(5, (1,), (1,)),
    "quiver of tits_form not a Quiver": lambda: tits_form(5, (1,)),
    "quiver of source_rank not a Quiver": lambda: source_rank(5),
    "quiver of opposite not a Quiver": lambda: opposite(5),
    "quiver of is_dynkin not a Quiver": lambda: is_dynkin(5),
    "quiver of dynkin_type not a Quiver": lambda: dynkin_type(5),
    "quiver of positive_roots not a Quiver": lambda: positive_roots(5),
    "quiver of check_roots not a Quiver": lambda: check_roots(5, [(1,)]),
    "quiver of caveat_for not a Quiver": lambda: caveat_for(5),
    "quiver of directed_partition not a Quiver": lambda: directed_partition(5, [(1, 1, 1)]),
    "quiver of greedy_block not a Quiver": lambda: greedy_block(5, [(1, 1, 1)]),
    "quiver of validate_directed not a Quiver": lambda: validate_directed(5, DirectedPartition(BLOCKS)),
    "quiver of resolution_pair not a Quiver": lambda: resolution_pair(5, ORBIT, DirectedPartition(BLOCKS)),
    "quiver of coefficients not a Quiver": lambda: coefficients(5, (1, 1, 1), PAIR),
    "quiver of codim not a Quiver": lambda: codim(5, (1, 1, 1), PAIR),
    # each of these once returned the unit table and codim 0
    "pair of coefficients short of the dimension vector": lambda: coefficients(INBOUND, (1, 1, 1), PARTIAL),
    "pair of codim short of the dimension vector": lambda: codim(INBOUND, (1, 1, 1), PARTIAL),
    # each of these once returned the unit table and codim -1
    "pair of coefficients with negative codim": lambda: coefficients(SINK, (0, 2, 0), NEGATIVE),
    "pair of codim with negative codim": lambda: codim(SINK, (0, 2, 0), NEGATIVE),
    # each of these once raised AttributeError on an int where a package type belongs
    "tensor of min_degree not a TensorElement": lambda: min_degree(5),
    "tensor of project_degree not a TensorElement": lambda: project_degree(5, 1),
    "tensor of append_unit not a TensorElement": lambda: append_unit(5),
    "table of check_alternating not a CoefficientTable": lambda: check_alternating(5),
    "table of cohomological_part not a CoefficientTable": lambda: cohomological_part(5),
    "orbit of mults_from_orbit not an OrbitSpec": lambda: mults_from_orbit(5),
    "mults of inbound_table not A3OrbitMults": lambda: inbound_table(5),
    "mults of outbound_table not A3OrbitMults": lambda: outbound_table(5),
    "terms of a tensor not a dict": lambda: TensorElement(1, 5),
    # each of these once raised TypeError, or built a tensor of arity -1
    "float arity of unit": lambda: TensorElement.unit(2.5),
    "negative arity of unit": lambda: TensorElement.unit(-1),
    # each of these once raised TypeError, or answered a float from its integer twin's memo entry
    "set partition of coproduct": lambda: coproduct({2, 1}),
    "float in a list partition of coproduct": lambda: (coproduct((2, 1)), coproduct([2.0, 1])),
    "float in a list partition of coproduct2": lambda: (coproduct2((2, 1)), coproduct2([2.0, 1])),
    "float in a list partition of lr_coeff": lambda: (lr_coeff((1,), (1,), (2,)), lr_coeff([1.0], [1], [2])),
    "key of key_degree not a sequence": lambda: key_degree(5),
    "parts of a key_degree key not sequences": lambda: key_degree((1, 2)),
    # each of these once passed, or gave a negative hom dimension (-3, -1 and -2)
    "negative dims of validate_rep": lambda: validate_rep(A1, QuiverRep((-3,), ())),
    "negative dims of hom_dim on A1": lambda: hom_dim(A1, QuiverRep((1,), ()), QuiverRep((-3,), ())),
    "negative e-dims of hom_dim on A2": lambda: hom_dim(A2, EDGE, QuiverRep((-1, 0), ((),))),
    "negative f-dims of hom_dim on A2": lambda: hom_dim(A2, QuiverRep((-2, 0), ((),)), EDGE),
    # each of these raised already, from a check that no other row reaches
    "slot 0": lambda: a_op(TensorElement.unit(2), 0, 1, 0),
    "negative rank of a_op": lambda: a_op(TensorElement.unit(2), 1, -1, 0),
    "mul by arity 2": lambda: mul(basis((1,)), TensorElement(2)),
    "quiver without vertices": lambda: Quiver(0, ()),
    "orbit root of another length than its dim": lambda: OrbitSpec((1, 1, 1), (((1, 1), 1),)),
    "non-interval root of mults_from_orbit": lambda: mults_from_orbit(OrbitSpec((1, 0, 1), (((1, 0, 1), 1),))),
    "no roots for greedy_block": lambda: greedy_block(INBOUND, []),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS)
def test_bad_input_raises_quiver_error(call):
    with pytest.raises(QuiverError):
        call()


def test_one_error_type_for_every_module():
    assert quivergk.QuiverError is quivergk.quiver.QuiverError is quivergk.partitions.QuiverError
    for module in (quivergk.engine, quivergk.gamma, quivergk.oracle_a3, quivergk.resolution):
        assert module.QuiverError is QuiverError
    assert issubclass(QuiverError, ValueError)
