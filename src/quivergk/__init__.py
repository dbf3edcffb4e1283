"""K-theoretic classes of Dynkin quiver orbit closures.

The package computes the expansion of an orbit closure's structure-sheaf
class in tensor products of stable Grothendieck classes, via a recursive
operator formula driven by directed partitions of positive roots, and
cross-checks it against closed-form rectangle tables for the extreme A3
orientations.
"""

from .engine import (
    CAVEAT_FLAG,
    CoefficientTable,
    a_op,
    caveat_for,
    check_alternating,
    coefficients,
    cohomological_part,
    dual_coefficients,
    phi,
    psi,
    quiver_coefficients,
    sweep,
)
from .gamma import (
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
    skew_expand,
    straighten,
    tensor_mul_at,
)
from .oracle_a3 import (
    A2,
    A3OrbitMults,
    INBOUND,
    OUTBOUND,
    inbound_c,
    inbound_table,
    mults_from_orbit,
    outbound_d,
    outbound_table,
    porteous,
)
from .partitions import (
    Partition,
    SetValuedTableau,
    SkewShape,
    conjugate,
    contains,
    content,
    enumerate_svt,
    expand_single,
    is_reverse_lattice,
    is_rook_strip,
    normalize,
    partitions_fitting,
    rook_strip_complement,
    u_word,
    word,
)
from .quiver import (
    OrbitSpec,
    Quiver,
    QuiverError,
    QuiverRep,
    direct_sum,
    dynkin_type,
    euler_form,
    hom_dim,
    hom_table,
    in_orbit_closure,
    indecomposable_rep,
    is_dynkin,
    opposite,
    orbit_rep,
    orbits,
    positive_roots,
    tits_form,
)
from .resolution import (
    DirectedPartition,
    ResolutionPair,
    codim,
    directed_partition,
    directed_partition_from_blocks,
    greedy_block,
    resolution_pair,
    validate_directed,
)

from . import engine, gamma, oracle_a3, partitions, quiver, resolution


def clear_caches() -> None:
    """Empty every memo of the package: the ``functools.cache`` tables of
    all its modules (structure constants, coproducts, positive roots, the
    Euler form on pairs of roots and its bitmasks, the indecomposables,
    topological ranks, caveats) and the straightening memo."""
    for module in (engine, gamma, oracle_a3, partitions, quiver, resolution):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    gamma._straighten_cache.clear()


__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
