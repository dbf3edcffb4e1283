"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import quivergk, build the workload's quivers, compute
their positive roots cold, and stop), ``run`` (set up, do the timed work,
then check every answer) or ``trace`` (``run`` with the layers traced,
see tracer.py).  The last line of stdout is one JSON object for run.py.
Checks run after the timed work, so the references neither count in the
timings nor warm the caches the timed work uses.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from time import perf_counter

from gauge import PROBE_REF_S, HostGauge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

E7 = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))
D4_IN = ((1, 2), (3, 2), (4, 2))
D4_OUT = ((2, 1), (2, 3), (2, 4))
D4_MIXED = ((1, 2), (2, 3), (2, 4))
A3_IN = ((1, 2), (3, 2))
A3_OUT = ((2, 1), (2, 3))

# Each group: (label, vertices, arrows, max dim, expected orbits, expected roots).
# The expected sizes are checked, so an incomplete enumeration cannot pass.
# ``tail`` is the highest latency percentile with at least ten samples beyond it.
WORKLOADS = {
    "a3-outbound": {
        "groups": [("A3-out", 3, A3_OUT, 4, 826, 6)],
        "check": "outbound_table",
        "tail": 98,
    },
    "a3-inbound": {
        "groups": [("A3-in", 3, A3_IN, 4, 826, 6)],
        "check": "inbound_table",
        "tail": 98,
    },
    # E7, not E8: the 7^8-vector root brute force takes about 12 s a set-up, too
    # long for the number of runs the benchmark is made for; E7 keeps it dominant.
    "de-sweep": {
        "groups": [
            ("E7", 7, E7, 1, 634, 63),
            ("D4-in", 4, D4_IN, 2, 448, 12),
            ("D4-out", 4, D4_OUT, 2, 448, 12),
            ("D4-mixed", 4, D4_MIXED, 2, 448, 12),
        ],
        "check": "codim-signs",
        "tail": 99,
    },
    "membership": {
        "groups": [("A3-in", 3, A3_IN, 3, 280, 6)],
        "check": "rank",
        "tail": 99,
        # representations per orbit; the fuzz script's 100 would double the run
        "samples": 50,
    },
}


def fraction_rank(rows) -> int:
    """Rank by exact row reduction over the rationals (independent of
    the library's fraction-free elimination)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def install_tracer(tracer, engine, gamma, quiver, resolution) -> None:
    """Wrap the attributes the layers call each other through."""
    stats = tracer.calls

    def psi_out(args, result):
        stats["psi.terms_out"] += len(result.terms)
        stats["peak_terms"] = max(stats["peak_terms"], len(args[0].terms), len(result.terms))

    def a_op_in(args, result):
        p, r = args[0], args[2]
        stats["a_op.terms_in"] += len(p.terms)
        stats["a_op.kept"] += sum(1 for key in p.terms if len(key[-1]) <= r)
        stats["peak_terms"] = max(stats["peak_terms"], len(p.terms))

    def orbits_found(args, result):
        stats["orbits.found"] += len(result)

    t = tracer
    t.patch(engine, "psi", t.framed("engine", "psi", engine.psi, span=True, after=psi_out))
    t.patch(engine, "a_op", t.framed("engine", "a_op", engine.a_op, span=True, after=a_op_in))
    t.patch(engine, "phi", t.framed("engine", "phi", engine.phi, span=True))
    t.patch(engine, "coproduct", t.framed("gamma", "coproduct", engine.coproduct, span="miss"))
    t.patch(engine, "_mul_basis", t.counted("mul_basis", engine._mul_basis))
    t.patch(engine, "straighten", t.framed("gamma", "straighten", engine.straighten))
    t.patch(gamma, "_lattice_walk", t.framed("gamma", "lattice_walk", gamma._lattice_walk, span=True))
    t.patch(gamma, "normalize", t.counted("normalize", gamma.normalize))
    te = gamma.TensorElement
    t.patch(te, "__init__", t.framed("gamma", "TensorElement.init", te.__init__))
    t.patch(quiver, "hom_dim", t.framed("quiver", "hom_dim", quiver.hom_dim))
    t.patch(
        quiver,
        "indecomposable_rep",
        t.framed("quiver", "indecomposable_rep", quiver.indecomposable_rep),
    )
    t.patch(
        quiver,
        "positive_roots",
        t.framed("quiver", "positive_roots", quiver.positive_roots, span="miss"),
    )
    t.patch(
        quiver, "orbits", t.framed("quiver", "orbits", quiver.orbits, span=True, after=orbits_found)
    )
    t.patch(quiver, "in_orbit_closure", t.framed("quiver", "in_orbit_closure", quiver.in_orbit_closure))
    t.patch(
        engine,
        "quiver_coefficients",
        t.framed("engine", "quiver_coefficients", engine.quiver_coefficients, span=True),
    )
    # the engine calls the resolution layer through its own bindings
    for name in ("directed_partition", "resolution_pair", "codim"):
        t.patch(engine, name, t.framed("resolution", name, getattr(engine, name)))
    for name in ("greedy_block", "validate_directed"):
        t.patch(resolution, name, t.framed("resolution", name, getattr(resolution, name)))


def gamma_caches(gamma) -> dict[str, int]:
    memo = {
        name: getattr(gamma, name).cache_info()
        for name in ("lr_coeff", "_mul_basis", "coproduct", "coproduct_coeff", "coproduct2")
    }
    out = {}
    for name, info in memo.items():
        out[name + ".hits"] = info.hits
        out[name + ".misses"] = info.misses
        out[name + ".size"] = info.currsize
    out["straighten.size"] = len(gamma._straighten_cache)
    return out


def layer_metrics(tracer, before: dict, after: dict, queries: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    calls, inc = tracer.calls, tracer.inclusive
    layers = tracer.layer_self_time()
    mul_hits = after["_mul_basis.hits"] - before["_mul_basis.hits"]
    mul_misses = after["_mul_basis.misses"] - before["_mul_basis.misses"]
    return {
        "engine.psi.s": inc["psi"],
        "engine.psi.terms_out": calls["psi.terms_out"],
        "engine.a_op.terms_in": calls["a_op.terms_in"],
        "engine.a_op.kept_ratio": calls["a_op.kept"] / max(calls["a_op.terms_in"], 1),
        "engine.peak_terms": calls["peak_terms"],
        "gamma.coproduct.calls": calls["coproduct"],
        "gamma.coproduct.misses": after["coproduct.misses"] - before["coproduct.misses"],
        "gamma.lattice_walk.calls": calls["lattice_walk"],
        "gamma.lattice_walk.s": inc["lattice_walk"],
        "gamma.mul_basis.misses": mul_misses,
        "gamma.mul_basis.hit_ratio": mul_hits / max(mul_hits + mul_misses, 1),
        "gamma.straighten.s": inc["straighten"],
        "gamma.straighten.cache_entries": after["straighten.size"],
        "gamma.cache_entries": sum(v for k, v in after.items() if k.endswith(".size")),
        "gamma.TensorElement.init_s": inc["TensorElement.init"],
        "partitions.normalize.calls": calls["normalize"],
        "quiver.positive_roots.s": inc["positive_roots"],
        "quiver.orbits.s": inc["orbits"],
        "quiver.orbits.found": calls["orbits.found"],
        "resolution.directed_partition.s": inc["directed_partition"],
        "resolution.resolution_pair.s": inc["resolution_pair"],
        "quiver.hom_dim.s": inc["hom_dim"],
        "quiver.hom_dim.calls_per_query": calls["hom_dim"] / max(queries, 1),
        "quiver.indecomposable_rep.calls": calls["indecomposable_rep"],
        "quiver.in_orbit_closure.s": inc["in_orbit_closure"],
        "engine.self_s": layers.get("engine", 0.0),
        "gamma.self_s": layers.get("gamma", 0.0),
        "quiver.self_s": layers.get("quiver", 0.0),
        "resolution.self_s": layers.get("resolution", 0.0),
    }


def run_sweep(spec, quivers, engine, quiver, tracer):
    """Brackets ``orbits`` per dimension vector and ``quiver_coefficients``
    per orbit with (start, end) times."""
    lat, enum, answers = [], [], []
    for (label, _, _, max_dim, _, _), q in zip(spec["groups"], quivers):
        for e in itertools.product(range(max_dim + 1), repeat=q.n):
            t0 = perf_counter()
            found = quiver.orbits(q, e)
            enum.append((t0, perf_counter()))
            for orbit in found:
                if tracer is not None:
                    tracer.orbit = len(answers)
                t0 = perf_counter()
                try:
                    table = engine.quiver_coefficients(q, e, orbit)
                except Exception:
                    table = traceback.format_exc()
                lat.append((t0, perf_counter()))
                answers.append((label, q, orbit, table))
    return lat, enum, answers


def check_sweep(spec, answers, engine, gamma, oracle_a3):
    """Returns (failed, orbits per group, oracle seconds, first failure)."""
    failed, oracle_s, first = 0, 0.0, None
    per_group: dict[str, int] = {}
    for label, q, orbit, table in answers:
        per_group[label] = per_group.get(label, 0) + 1
        if isinstance(table, str):
            ok, why = False, table
        elif spec["check"] == "codim-signs":
            ok = (
                gamma.min_degree(table.tensor) == table.codim
                and not engine.check_alternating(table)
                and table.caveat == engine.CAVEAT_FLAG
            )
            why = "codim, sign or caveat rule broken"
        else:
            reference = getattr(oracle_a3, spec["check"])
            t0 = perf_counter()
            expected = reference(oracle_a3.mults_from_orbit(orbit))
            oracle_s += perf_counter() - t0
            ok, why = table.tensor == expected, "differs from the closed form"
        if not ok:
            failed += 1
            if first is None:
                first = f"{label} {orbit}: {why}"
    return failed, per_group, oracle_s, first


def membership_queries(spec, q, quiver, seed):
    """Seeded random integer representations, drawn as the membership fuzz
    script draws them, for every orbit of the group."""
    _, _, _, max_dim, _, _ = spec["groups"][0]
    orbits = [o for e in itertools.product(range(max_dim + 1), repeat=q.n) for o in quiver.orbits(q, e)]
    rng = random.Random(seed)
    queries = []
    for orbit in orbits:
        e1, e2, e3 = orbit.dim
        for k in range(spec["samples"]):
            lo, hi = (-1, 1) if k % 2 else (-2, 2)
            phi1 = tuple(tuple(rng.randint(lo, hi) for _ in range(e1)) for _ in range(e2))
            phi3 = tuple(tuple(rng.randint(lo, hi) for _ in range(e3)) for _ in range(e2))
            queries.append((orbit, quiver.QuiverRep(orbit.dim, (phi1, phi3))))
    return orbits, queries


def run_membership(queries, q, quiver):
    lat, answers = [], []
    for orbit, rep in queries:
        t0 = perf_counter()
        try:
            inside = quiver.in_orbit_closure(q, rep, orbit)
        except Exception:
            inside = traceback.format_exc()
        lat.append((t0, perf_counter()))
        answers.append(inside)
    return lat, [], answers


def check_membership(queries, answers):
    """Compare each answer with the three rank inequalities of 1->2<-3."""
    failed, first = 0, None
    for (orbit, rep), inside in zip(queries, answers):
        if isinstance(inside, str):
            ok, why = False, inside
        else:
            m12 = orbit.mult_of((1, 1, 0))
            m13 = orbit.mult_of((1, 1, 1))
            m23 = orbit.mult_of((0, 1, 1))
            phi1, phi3 = rep.mats
            by_rank = (
                fraction_rank(phi1) <= m12 + m13
                and fraction_rank(phi3) <= m23 + m13
                and fraction_rank([a + b for a, b in zip(phi1, phi3)]) <= m12 + m23 + m13
            )
            ok, why = inside == by_rank, f"answered {inside}, ranks say {by_rank}"
        if not ok:
            failed += 1
            if first is None:
                first = f"{orbit} {rep.mats}: {why}"
    return failed, first


def main(argv: list[str]) -> int:
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    spec = WORKLOADS[name]
    gauge = HostGauge()
    gauge.start()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import quivergk
    from quivergk import engine, gamma, oracle_a3, quiver, resolution

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        install_tracer(tracer, engine, gamma, quiver, resolution)
    quivers = [quivergk.Quiver(n, arrows) for _, n, arrows, _, _, _ in spec["groups"]]
    roots = [len(quiver.positive_roots(q)) for q in quivers]
    ready = perf_counter()
    out: dict = {"ready": time.monotonic()}
    # the interpreter start before the gauge ran is corrected at the set-up's mean speed
    before = [d for t, d in zip(gauge.starts, gauge.durations) if t < ready]
    out["setup_probe_s"] = sum(before)
    out["setup_speed"] = PROBE_REF_S * len(before) / sum(before) if before else 1.0
    if mode == "setup":
        gauge.stop()
        print(json.dumps(out))
        return 0

    complete = roots == [g[5] for g in spec["groups"]]
    if spec["check"] == "rank":
        orbits, queries = membership_queries(spec, quivers[0], quiver, seed)
        counts = {spec["groups"][0][0]: len(orbits), "queries": len(queries)}
        complete &= len(orbits) == spec["groups"][0][4]
        complete &= len(queries) == len(orbits) * spec["samples"]
    caches_before = gamma_caches(gamma)
    if spec["check"] == "rank":
        lat, enum, answers = run_membership(queries, quivers[0], quiver)
    else:
        lat, enum, answers = run_sweep(spec, quivers, engine, quiver, tracer)
    gauge.stop()
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for key, spans in (("lat", lat), ("enum", enum)):
        net, corrected = zip(*(gauge.correct(t0, t1) for t0, t1 in spans)) if spans else ((), ())
        out[key + "_net_s"], out[key + "_s"] = net, corrected
    if tracer is not None:
        tracer.restore()
        caches_after = gamma_caches(gamma)
        out["layers"] = layer_metrics(tracer, caches_before, caches_after, len(lat) if spec["check"] == "rank" else 0)
        out["spans"] = tracer.spans

    oracle_s = 0.0
    if spec["check"] == "rank":
        failed, first = check_membership(queries, answers)
    else:
        failed, counts, oracle_s, first = check_sweep(spec, answers, engine, gamma, oracle_a3)
        complete &= counts == {g[0]: g[4] for g in spec["groups"]}
    out.update(
        attempted=len(lat),
        failed=failed,
        first_failure=first,
        complete=bool(complete),
        roots=roots,
        counts=counts,
        oracle_s=oracle_s,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
