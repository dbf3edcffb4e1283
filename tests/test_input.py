"""The package's one input boundary: every public layer reads exact
integer input through ``partitions.integers`` (nested input through
``partitions.sequence``) and rejects bad input with the one
``QuiverError``, a ``ValueError``."""

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
    TensorElement,
    basis,
    coproduct,
    directed_partition,
    mul,
    straighten,
    tensor_mul_at,
)
from quivergk.oracle_a3 import all_mults

from reference import (
    conjugate,
    content,
    enumerate_svt,
    expand_single,
    is_reverse_lattice,
    partitions_fitting,
)

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
    "negative box rows": lambda: list(partitions_fitting(-1, 2)),
    "negative box columns": lambda: list(partitions_fitting(2, -1)),
    "negative variable count": lambda: expand_single((1,), -1, 2),
    "negative degree": lambda: expand_single((1,), 1, -1),
    "conjugate of an increasing sequence": lambda: conjugate((1, 2)),
    "negative max_dim": lambda: all_mults(-1),
    "float max_dim": lambda: all_mults(1.5),
    "float letter": lambda: content([1.5]),
    "string letter": lambda: is_reverse_lattice(["a"]),
    "shape not a sequence": lambda: enumerate_svt(5, 1, 0),
    "mul on arity 2": lambda: mul(TensorElement(2), basis((1,))),
    "negative max_rows": lambda: coproduct((1,), -1),
    "key not a partition": lambda: TensorElement(1, {((1, 2),): 1}),
    "key not a sequence": lambda: TensorElement(1, {5: 1}),
    "straighten letters": lambda: straighten("ab"),
    "slot 0": lambda: tensor_mul_at(TensorElement.unit(2), 0, basis((1,))),
    "arity mismatch": lambda: TensorElement.unit(1) + TensorElement.unit(2),
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
