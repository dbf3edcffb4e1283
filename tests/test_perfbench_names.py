"""The names the benchmark reads from the package: ``perfbench/worker.py``
wraps module attributes by name and reads the ``cache_info`` of the gamma
memos, so a renamed or removed one fails here, in a second, rather than only
in ``perfbench/test_counts.py``, which runs the benchmark's workloads (about
5 s on one core of a shared 2-vCPU host).  The benchmark's code is
imported and run, never changed."""

import sys
from pathlib import Path

from quivergk import engine, gamma, quiver, resolution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_and_cache_reader_find_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave nothing under perfbench/
    for name in ("gauge", "tracer", "worker"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    from tracer import Tracer
    import worker

    owners = (engine, gamma, quiver, resolution, gamma.TensorElement)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    try:
        worker.install_tracer(tracer, engine, gamma, quiver, resolution)
        caches = worker.gamma_caches(gamma)
    finally:
        tracer.restore()
        after = [dict(vars(owner)) for owner in owners]
    assert caches["coproduct_coeff.size"] >= 0 and caches["straighten.size"] >= 0
    assert all(type(v) is int for v in caches.values())
    for owner, old, new in zip(owners, before, after):
        assert old.keys() == new.keys(), owner
        assert all(new[k] is v for k, v in old.items()), owner
