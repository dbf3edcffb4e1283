"""Alternating before/after pairs of the pipeline benchmark.

Exports the revision REV with ``git archive`` into a temporary directory
(nothing is written in the checkout's ``.git``) and runs
``perfbench/run.py --workload W`` there and in this checkout's working
tree, in pairs.  Every ``__pycache__`` of both copies is removed before
each run, and the copy that runs first alternates from pair to pair, so
neither build profits from a warm bytecode cache or a quieter minute.

The JSON written to stdout has the schema of ``BENCH_22.json``: per
workload and end-to-end metric, the parent (REV) and change (working
tree) medians over the pairs, the parent's quartiles and the number of
pairs in which the change is better, each from host-corrected values;
``*_net`` keys beside them give the same figures from perfbench's net
(uncorrected) times.  Progress goes to stderr.  Exit status 1 if a run
fails, 2 on a bad argument.

    python scripts/bench_pairs.py HEAD~1 --workload a3-outbound --pairs 5 > BENCH_N.json
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = [sys.executable, os.path.join("perfbench", "run.py"), "--workload"]


class BenchError(RuntimeError):
    pass


def git(*argv):
    proc = subprocess.run(["git", "-C", ROOT, *argv], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def export(rev, into):
    """Write the tree of ``rev`` into the directory ``into``."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise BenchError(f"could not export {rev}")


def clear_pycache(copy):
    for dirpath, dirnames, _ in os.walk(copy):
        if ".git" in dirnames:
            dirnames.remove(".git")
        if "__pycache__" in dirnames:
            dirnames.remove("__pycache__")
            shutil.rmtree(os.path.join(dirpath, "__pycache__"))


def run(copy, workload):
    """One benchmark run in ``copy``: its metrics, corrected and net, and whether it was correct."""
    clear_pycache(copy)
    proc = subprocess.run([*COMMAND, workload], cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {workload} in {copy} exited with {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    corrected = {k: m["value"] for k, m in result["metrics"].items()}
    # the report gives each metric in the order of `corrected` as "name corrected net unit (...)",
    # scaled to a per-workload unit; the ratio to the result line's value undoes the scale
    start = next(i for i, line in enumerate(lines) if line.split() == ["corrected", "net"]) + 1
    net = {}
    for key, line in zip(corrected, lines[start:]):
        value, value_net = line.split()[1:3]
        scale = float(value) / corrected[key] if corrected[key] else 1.0
        net[key] = float(value_net) / scale
    return corrected, net, bool(result["correct"])


def sig(x):
    return float(f"{x:.4g}")


def summary(parent, change, better):
    """Medians, the parent's quartiles and the pairs in which the change is better."""
    wins = sum(better(c, p) for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    return {
        "parent": sig(statistics.median(parent)),
        "change": sig(statistics.median(change)),
        "parent_iqr": [sig(q1), sig(q3)],
        "change_better_in": f"{wins}/{len(parent)}",
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent revision, exported with git archive")
    parser.add_argument("--workload", action="append", choices=workloads, help="repeatable; default all")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--note", default="", help="what the change does, for the record")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed gain, for the record")
    args = parser.parse_args()

    sha = git("rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}")
    if sha is None:
        print(f"error: unknown revision {args.rev}", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print(f"error: --pairs must be at least 1, got {args.pairs}", file=sys.stderr)
        return 2
    chosen = args.workload or workloads
    better = {
        m["name"]: (lambda a, b: a > b) if m["better"] == "higher" else (lambda a, b: a < b)
        for m in spec["end_to_end"]
    }
    runs = {w: {side: {} for side in ("parent", "change", "parent_net", "change_net")} for w in chosen}
    correct = True
    with tempfile.TemporaryDirectory() as tmp:
        try:
            export(sha, tmp)
            for w in chosen:
                for i in range(args.pairs):
                    order = [("parent", tmp), ("change", ROOT)]
                    for side, copy in order if i % 2 == 0 else order[::-1]:
                        print(f"{w} pair {i + 1}/{args.pairs}: {side}", file=sys.stderr)
                        corrected, net, ok = run(copy, w)
                        correct &= ok
                        for key in corrected:
                            runs[w][side].setdefault(key, []).append(sig(corrected[key]))
                            runs[w][side + "_net"].setdefault(key, []).append(sig(net[key]))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    medians = {}
    for w, sides in runs.items():
        medians[w] = {}
        for key in sides["parent"]:
            row = summary(sides["parent"][key], sides["change"][key], better[key])
            net = summary(sides["parent_net"][key], sides["change_net"][key], better[key])
            row.update({f"{k}_net": v for k, v in net.items()})
            medians[w][key] = row
    claim = dict(zip(("workload", "metric"), args.claim.split(":", 1))) if args.claim else None
    record = {
        "change": args.note,
        "command": "python3 perfbench/run.py --workload W",
        "settings": "defaults (10 s, seed 1153), parent and change alternating which runs first, "
        "no __pycache__ in either copy at the start of each run; quartiles by statistics.quantiles",
        "host": f"{os.cpu_count()} CPUs; Python {platform.python_version()}",
        "revisions": {"parent": sha, "change": f"working tree at {git('rev-parse', 'HEAD')}"},
        "pairs": {w: args.pairs for w in chosen},
        "all_runs_correct": correct,
        "claimed": claim,
        "medians": medians,
        "runs": runs,
    }
    json.dump(record, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
