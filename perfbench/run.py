"""Benchmark of the quivergk pipeline, driven from outside the package.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports quivergk from
``src/``.  Workloads (BENCHMARK.json says why each exists):

* ``a3-outbound``, ``a3-inbound``: every orbit of 1<-2->3 (1->2<-3) with
  all dimensions <= 4, enumerated with ``orbits`` and expanded with
  ``quiver_coefficients``, each checked against the closed-form table.
* ``de-sweep``: every E7 orbit with dimensions <= 1 and every orbit with
  dimensions <= 2 of three D4 orientations, checked by the codim rule,
  the sign rule and the D/E caveat flag.
* ``membership``: 50 random integer representations, drawn from the seed,
  for each 1->2<-3 orbit with dimensions <= 3, tested with
  ``in_orbit_closure`` and checked against the three rank inequalities.

Every pass runs in a fresh interpreter (worker.py), so the library's
caches start cold, as they do for each CLI call.  Other tenants of a
shared host make the same pass take up to 1.7 times as long from one
minute to the next, so each timed call is also given in host-corrected
seconds (gauge.py): its net time scaled by how much slower than on an
uncontended core a fixed probe loop ran during the call.  Passes come in
groups of three identical cold passes, run two at a time on a host with
two CPUs, and each orbit's (query's) time in a group is the median of its
three corrected times.  With ``--trace 0``
the run repeats groups while another one still fits in ``--seconds`` (at
least one), adds set-up-only interpreters while set-up is cheap, and
reports the end-to-end metrics, in host-corrected time, each the median
over groups:

* ``setup_s``: interpreter start to quivers built and their positive roots
  computed (median over every set-up of the run);
* ``ops_per_s``: orbits (queries, on ``membership``) per second of timed
  work; a sweep's timed work is ``orbits`` plus ``quiver_coefficients``;
* ``op_ms_p50`` and ``op_ms_tail``: per-orbit (per-query) latency, the
  median and the highest percentile with at least ten samples beyond it
  (p98 on the A3 sweeps, p99 on the others);
* ``peak_rss_mb``: ``ru_maxrss`` of a pass after its timed work (median
  over passes).

With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics of the traced one (tracer.py) plus the tracing
overhead.  Either way the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give each metric under its per-workload name
(``orbits_per_s``, ``query_us_p99``, ...) with its unit and sample count,
corrected and net, the provenance of the run and a host-drift gauge (a
fixed pure-Python loop timed before and after the run; a diagnostic, not
a metric).  Per-layer times are plain wall time, the probe's share
(about 2%) included.  A record of the run, with the spans of a traced
pass, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from time import perf_counter

from worker import ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
DEADLINE_S = 170.0
PASSES_PER_GROUP = 3
MIN_SETUPS = 3
# set-up-only interpreters are added while the set-ups so far take less than this
SETUP_BUDGET_S = 1.5
MAX_SETUPS = 11


class BenchError(RuntimeError):
    pass


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: a drift gauge for the host."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def start_worker(name: str, seed: int, mode: str) -> tuple[float, subprocess.Popen]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), mode]
    return time.monotonic(), subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def finish_worker(started: tuple[float, subprocess.Popen], deadline: float) -> dict:
    """Waits for a worker; returns its JSON plus set-up and wall time."""
    start, proc = started
    what = " ".join(proc.args[2:])
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {what} ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {what} exited with {proc.returncode}")
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker {what} printed no result: {exc}") from exc
    result["setup_net_s"] = result["ready"] - start - result["setup_probe_s"]
    result["setup_s"] = result["setup_net_s"] * result["setup_speed"]
    result["wall_s"] = time.monotonic() - start
    return result


def spawn(name: str, seed: int, mode: str, deadline: float) -> dict:
    """One worker interpreter, run to its end."""
    return finish_worker(start_worker(name, seed, mode), deadline)


def run_group(name: str, seed: int, deadline: float) -> list[dict]:
    """A group of cold passes, two at a time where the host has two CPUs
    (the host correction takes out the slowdown they cause each other)."""
    width = min(2, len(os.sched_getaffinity(0)))
    passes: list[dict] = []
    while len(passes) < PASSES_PER_GROUP:
        batch = [start_worker(name, seed, "run") for _ in range(min(width, PASSES_PER_GROUP - len(passes)))]
        try:
            passes.extend(finish_worker(b, deadline) for b in batch)
        finally:
            for _, proc in batch:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
    return passes


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(math.ceil(pct / 100 * len(sorted_values)) - 1, 0)]


def item_medians(passes: list[dict], key: str) -> list[float]:
    """Per item (orbit, query or ``orbits`` call), its median time over the passes."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def group_metrics(group: list[dict], tail: int, kind: str = "") -> dict[str, float]:
    """Throughput and latency of a group, from host-corrected times
    (``kind=""``) or from net times (``kind="_net"``)."""
    lat = item_medians(group, f"lat{kind}_s")
    work = sum(lat) + sum(item_medians(group, f"enum{kind}_s"))
    lat.sort()
    return {
        "ops_per_s": len(lat) / work,
        "op_ms_p50": percentile(lat, 50) * 1e3,
        "op_ms_tail": percentile(lat, tail) * 1e3,
    }


def provenance() -> dict:
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    sha = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            sha = fh.read().strip()
        ref = os.path.join(ROOT, ".git", sha[5:]) if sha.startswith("ref: ") else None
        if ref and os.path.isfile(ref):
            with open(ref, encoding="utf-8") as fh:
                sha = fh.read().strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "src_lines": lines,
        "cpus": os.cpu_count(),
    }


def end_to_end(name: str, groups: list[list[dict]], setups: list[dict]) -> tuple[dict, list[str]]:
    """The result line's metrics, and report lines that give them under
    per-workload names with the same figures from net (uncorrected) times
    beside them."""
    spec = WORKLOADS[name]
    tail = spec["tail"]
    passes = [p for g in groups for p in g]
    values, net = {}, {}
    for out, kind in ((values, ""), (net, "_net")):
        per_group = [group_metrics(g, tail, kind) for g in groups]
        out["setup_s"] = statistics.median(s[f"setup{kind}_s"] for s in setups)
        for key in ("ops_per_s", "op_ms_p50", "op_ms_tail"):
            out[key] = statistics.median(m[key] for m in per_group)
        out["peak_rss_mb"] = statistics.median(p["rss_kb"] for p in passes) / 1024
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "peak_rss_mb": "MB"}

    ops = len(passes[0]["lat_s"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    beyond = ops - math.ceil(tail / 100 * ops)
    basis = f"median of {PASSES_PER_GROUP} cold passes, median of {len(groups)} groups"
    # per-workload names: orbits_per_s, orbit_ms_p50, ... or queries_per_s, query_us_p50, ...
    if spec["check"] == "rank":
        ops_name, lat_name, scale, unit = "queries", "query_us", 1e3, "us"
    else:
        ops_name, lat_name, scale, unit = "orbits", "orbit_ms", 1.0, "ms"
    named = [
        ("setup_s", "setup_s", 1.0, "s", f"median of {len(setups)} set-ups"),
        (f"{ops_name}_per_s", "ops_per_s", 1.0, "1/s", f"{ops} {ops_name}, {basis}"),
        (f"{lat_name}_p50", "op_ms_p50", scale, unit, f"{ops} samples, {basis}"),
        (f"{lat_name}_p{tail}", "op_ms_tail", scale, unit, f"{ops} samples, {beyond} beyond"),
        ("peak_rss_mb", "peak_rss_mb", 1.0, "MB", f"median of {len(passes)} passes"),
    ]
    lines = [f"  {'':<16} {'corrected':>12} {'net':>12}"]
    for shown, key, k, u, note in named:
        lines.append(f"  {shown:<16} {values[key] * k:>12.6g} {net[key] * k:>12.6g} {u:<4} ({note})")
    lines.append(f"  {'error_rate':<16} {failed / attempted:>12.6g} {'':>12} ratio ({failed}/{attempted} {ops_name})")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, lines


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = {}
    for key, value in traced["layers"].items():
        if key.endswith("_s") or key.endswith(".s"):
            unit = "s"
        elif key.endswith("ratio"):
            unit = "ratio"
        elif key.endswith("per_query"):
            unit = "calls/query"
        else:
            unit = "count"
        metrics[key] = {"value": value, "unit": unit}
    metrics["oracle_a3.table.s"] = {"value": traced["oracle_s"], "unit": "s"}
    # both passes in host-corrected time
    plain = sum(untraced["lat_s"]) + sum(untraced["enum_s"])
    overhead = sum(traced["lat_s"]) + sum(traced["enum_s"]) - plain
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": overhead / plain, "unit": "ratio"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="quivergk pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1153)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quivergk", "__init__.py")):
        print(f"error: no quivergk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    name, seed = args.workload, args.seed
    calib_before = calibrate()
    try:
        if args.trace:
            untraced = spawn(name, seed, "run", deadline)
            traced = spawn(name, seed, "trace", deadline)
            passes = [untraced, traced]
        else:
            groups: list[list[dict]] = []
            start = time.monotonic()
            while True:
                group_start = time.monotonic()
                groups.append(run_group(name, seed, deadline))
                now = time.monotonic()
                if (now - start) + (now - group_start) > args.seconds:
                    break  # another group like the last would overrun --seconds
            passes = [p for g in groups for p in g]
            setups = list(passes)
            while len(setups) < MIN_SETUPS or (
                len(setups) < MAX_SETUPS and sum(p["setup_s"] for p in setups) < SETUP_BUDGET_S
            ):
                setups.append(spawn(name, seed, "setup", deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calib_after = calibrate()

    complete = all(p["complete"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    first = next((p["first_failure"] for p in passes if p["first_failure"]), None)
    info = provenance()
    print(f"workload {name}  seed {seed}  passes {len(passes)}  trace {args.trace}")
    print(
        f"  python {info['python']}  git {info['git_sha']}  src lines {info['src_lines']}  "
        f"cpus {info['cpus']}"
    )
    print(f"  host drift gauge: {calib_before:.6f} s before, {calib_after:.6f} s after")
    print(f"  complete {complete}  counts {passes[0]['counts']}  roots {passes[0]['roots']}")
    if first:
        print(f"  first failure: {first}")
    record = {
        "workload": name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": info,
        "calibration_s": {"before": calib_before, "after": calib_after},
        "passes": [
            {k: p[k] for k in ("setup_s", "wall_s", "rss_kb", "attempted", "failed", "oracle_s")}
            for p in passes
        ],
    }
    if args.trace:
        metrics = per_layer(untraced, traced)
        for key, m in metrics.items():
            print(f"  {key:<36} {m['value']:>14.6g} {m['unit']}")
        record["spans"] = traced["spans"]
    else:
        metrics, lines = end_to_end(name, groups, setups)
        print("\n".join(lines))
        record["setups_s"] = [p["setup_s"] for p in setups]
    record["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(
        json.dumps(
            {
                "correct": complete and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
