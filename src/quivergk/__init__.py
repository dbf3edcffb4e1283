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
    straighten,
)
from .oracle_a3 import (
    A3OrbitMults,
    INBOUND,
    OUTBOUND,
    inbound_table,
    mults_from_orbit,
    outbound_table,
)
from .partitions import Partition, normalize
from .quiver import (
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
    opposite,
    orbits,
    positive_roots,
    tits_form,
)
from .resolution import (
    DirectedPartition,
    ResolutionPair,
    codim,
    directed_partition,
    greedy_block,
    resolution_pair,
    validate_directed,
)

from . import engine, gamma, oracle_a3, partitions, quiver, resolution


def clear_caches() -> None:
    """Empty every memo of the package: the ``functools.cache`` tables of
    all its modules (structure constants, coproducts, fused steps' slot pairs,
    positive roots and the orbit walk's plan, each quiver's root index of bits,
    bitmasks, places, type-A levels, Euler rows and steps, the indecomposables,
    their layouts, each orbit's hom column and open probes) and the straightening
    memo.  A quiver's step facts are its own attributes."""
    for module in (engine, gamma, oracle_a3, partitions, quiver, resolution):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    gamma._straighten_cache.clear()


__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
