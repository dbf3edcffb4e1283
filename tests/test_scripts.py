"""Smoke tests of the experiment scripts: each runs in a subprocess on a
small input and must exit 0 with a clean report.  The evidence runner's
digest comparison is also run in process, and the CI workflow's script
paths are checked to exist."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("evidence", ROOT / "scripts" / "evidence.py")
evidence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(evidence)


def spawn(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def run_script(*argv):
    proc = spawn(*argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["evidence.py", "--max-dim", "-1"], "negative max_dim -1"),
        (["evidence.py", "--write", "--max-dim", "-1"], "negative max_dim -1"),
        (["bench_pairs.py", "no-such-revision"], "unknown revision no-such-revision"),
        (
            ["bench_pairs.py", "HEAD", "--claim", "a3-outbound"],
            "--claim a3-outbound is not a workload and an end-to-end metric of BENCHMARK.json, "
            "as WORKLOAD:METRIC",
        ),
    ],
    # the evidence runner's rows keep the ids of the two sweeps it replaced
    ids=[
        "oracle_sweep.py",
        "partition_evidence.py",
        "bench_pairs.py-revision",
        "bench_pairs.py-claim",
    ],
)
def test_bad_max_dim_exits_2(argv, error):
    # a bad argument is exit 2 with one error line, as in the CLI; exit 1 means a real mismatch
    proc = spawn(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [f"error: {error}"]
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def evidence_lines():
    # one run at --max-dim 1 serves the three smoke tests below
    return run_script("evidence.py", "--max-dim", "1")


def test_evidence(evidence_lines):
    names = [name for name, _, _ in evidence.CORPUS]
    assert [line.split(" (max-dim 1): ")[0] for line in evidence_lines] == names
    assert all(", 0 failures of " in line and ", digests match, " in line for line in evidence_lines)


def test_oracle_sweep(evidence_lines):
    by_name = dict(line.split(" (max-dim 1): ") for line in evidence_lines)
    # the 13 orbits of reference.all_mults(1), in each orientation, against the closed forms
    for name in ["A3 inbound", "A3 outbound"]:
        assert by_name[name].startswith("13 orbits,")
        assert ", 0 failures of signs, codim, partition, oracle," in by_name[name]


def test_partition_evidence(evidence_lines):
    by_name = dict(line.split(" (max-dim 1): ") for line in evidence_lines)
    # the 242 orbits of E6 at max-dim 1, 82 of them with a second pair; in type A the
    # second partition is the support's greedy one, which moves 4 pairs of A4 mixed
    assert by_name["E6"].startswith("242 orbits, 242 terms, 82 with a different pair,")
    assert by_name["A4 mixed"].startswith("34 orbits, 46 terms, 4 with a different pair,")
    assert all(", 0 failures of signs, codim, partition" in line for line in by_name.values())


def test_evidence_names_the_first_differing_vector(capsys):
    # the mismatch path, in process: two stored digests of one corpus altered
    expected = json.loads(evidence.DIGESTS.read_text())
    expected["D4 mixed"]["(0, 1, 1, 0)"] = expected["D4 mixed"]["(1, 1, 1, 1)"] = "0" * 16
    ok, swept = evidence.run(1, expected)
    assert not ok
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" (max-dim 1)")[0] for line in out if ", digests differ," in line] == ["D4 mixed"]
    assert [line for line in out if line.startswith("  ")] == [
        f"  DIGEST D4 mixed (0, 1, 1, 0): {swept['D4 mixed']['(0, 1, 1, 0)']}, expected {'0' * 16}"
    ]


def test_workflow_scripts_exist():
    # the workflow has no runner here, so a step naming a deleted script would fail only there
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    paths = set(re.findall(r"(?:scripts|perfbench)/[\w.-]+\.py", workflow))
    assert "scripts/evidence.py" in paths
    assert [path for path in sorted(paths) if not (ROOT / path).is_file()] == []


def test_root_census():
    lines = run_script("root_census.py")
    families = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
    assert [line.split()[0] for line in lines] == families
    assert all(line.rstrip().endswith("ok") for line in lines)
