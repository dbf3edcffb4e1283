"""The package's one input boundary: every public layer reads exact
integer input through ``partitions.integers`` (nested input through
``partitions.sequence``, the package's own types through
``partitions.instance``) and rejects bad input with the one
``QuiverError``, a ``ValueError``.  The reference layer's input checks
are tested beside it, in ``test_partitions.py``."""

import pytest

import quivergk
from quivergk import (
    A2,
    INBOUND,
    DirectedPartition,
    OrbitSpec,
    Quiver,
    QuiverError,
    QuiverRep,
    ResolutionPair,
    TensorElement,
    basis,
    codim,
    coefficients,
    coproduct,
    directed_partition,
    mul,
    quiver_coefficients,
    resolution_pair,
    straighten,
    tensor_mul_at,
)
from quivergk.oracle_a3 import all_mults
from quivergk.resolution import pair_stages

ORBIT = OrbitSpec((1, 1, 1), (((1, 1, 1), 1),))
BLOCKS = (((1, 1, 1),),)
PAIR = ResolutionPair((1, 2, 3), (1, 1, 1))

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
    "negative max_dim": lambda: all_mults(-1),
    "float max_dim": lambda: all_mults(1.5),
    "mul on arity 2": lambda: mul(TensorElement(2), basis((1,))),
    "negative max_rows": lambda: coproduct((1,), -1),
    "key not a partition": lambda: TensorElement(1, {((1, 2),): 1}),
    "key not a sequence": lambda: TensorElement(1, {5: 1}),
    "straighten letters": lambda: straighten("ab"),
    "slot 0": lambda: tensor_mul_at(TensorElement.unit(2), 0, basis((1,))),
    "arity mismatch": lambda: TensorElement.unit(1) + TensorElement.unit(2),
    # each of these once raised AttributeError, or checked nothing until the first next()
    "orbit not an OrbitSpec": lambda: quiver_coefficients(INBOUND, (1, 1, 1), ((1, 1, 1),)),
    "partition not a DirectedPartition": lambda: quiver_coefficients(INBOUND, (1, 1, 1), ORBIT, BLOCKS),
    "pair of coefficients not a ResolutionPair": lambda: coefficients(INBOUND, (1, 1, 1), ((2,), (1,))),
    "pair of codim not a ResolutionPair": lambda: codim(INBOUND, (1, 1, 1), ((2,), (1,))),
    "partition of resolution_pair not a DirectedPartition": lambda: resolution_pair(INBOUND, ORBIT, BLOCKS),
    "orbit of resolution_pair not an OrbitSpec": lambda: resolution_pair(
        INBOUND, ((1, 1, 1),), DirectedPartition(BLOCKS)
    ),
    "stages over a short dimension vector": lambda: pair_stages(INBOUND, (1, 1), PAIR),
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
