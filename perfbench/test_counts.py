"""The benchmark's own check: the traced counts it offers as stable evidence
repeat exactly from one fresh interpreter to the next.

    python3 -m pytest perfbench/test_counts.py

Takes about a minute: two traced passes each of a3-inbound and
membership, with different seeds (the sweeps do not depend on the seed;
membership draws other representations, which leaves its counts alone).
"""

import time

import pytest

from run import spawn

EXACT = (
    "engine.psi.terms_out",
    "gamma.coproduct.misses",
    "gamma.lattice_walk.calls",
    "partitions.normalize.calls",
    "quiver.hom_dim.calls_per_query",
    "quiver.orbits.found",
)


@pytest.mark.parametrize("workload", ["a3-inbound", "membership"])
def test_exact_counts_repeat(workload):
    deadline = time.monotonic() + 300
    first, second = (spawn(workload, seed, "trace", deadline) for seed in (1153, 7))
    for p in (first, second):
        assert p["complete"] and p["failed"] == 0
    counts = [{k: p["layers"][k] for k in EXACT} for p in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["quiver.orbits.found"] > 0
