"""Smoke tests of the experiment scripts: each runs in a subprocess on a
small input and must exit 0 with a clean report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
        (["oracle_sweep.py", "--max-dim", "-1"], "negative max_dim -1"),
        (["partition_evidence.py", "--max-dim", "-1"], "negative max_dim -1"),
        (["membership_fuzz.py", "-1", "5"], "negative max_dim -1"),
        (["membership_fuzz.py", "2", "-3"], "negative samples -3"),
        (["membership_fuzz.py", "abc"], "invalid literal for int() with base 10: 'abc'"),
        (["root_census.py", "--max-a", "-1"], "--max-a must be at least 1, got -1"),
        (["root_census.py", "--max-d", "2"], "--max-d must be at least 4, got 2"),
        (["bench_pairs.py", "no-such-revision"], "unknown revision no-such-revision"),
    ],
    ids=[
        "oracle_sweep.py",
        "partition_evidence.py",
        "membership_fuzz.py-max-dim",
        "membership_fuzz.py-samples",
        "membership_fuzz.py-not-an-int",
        "root_census.py-max-a",
        "root_census.py-max-d",
        "bench_pairs.py-revision",
    ],
)
def test_bad_max_dim_exits_2(argv, error):
    # a bad argument is exit 2 with one error line, as in the CLI; exit 1 means a real mismatch
    proc = spawn(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [f"error: {error}"]
    assert proc.stdout == ""


def test_oracle_sweep():
    lines = run_script("oracle_sweep.py", "--max-dim", "1")
    assert len(lines) == 2
    # the 13 orbits of oracle_a3.all_mults(1), in each orientation
    assert all(": 13 orbits," in line for line in lines)
    assert all(", 0 mismatches," in line for line in lines)


def test_root_census():
    lines = run_script("root_census.py")
    assert lines
    assert all(line.rstrip().endswith("ok") for line in lines)


def test_membership_fuzz():
    lines = run_script("membership_fuzz.py", "1", "5", "1")
    assert len(lines) == 1
    assert ", 0 disagreements," in lines[0]


def test_partition_evidence():
    lines = run_script("partition_evidence.py", "--max-dim", "1")
    assert [line.split(":")[0] for line in lines] == ["D4 inbound (max-dim 1)", "E6 (max-dim 1)"]
    # the 242 orbits of E6 at max-dim 1, 82 of them with a second pair
    assert lines[1].startswith("E6 (max-dim 1): 242 orbits, 82 with a different pair,")
    for line in lines:
        count = line.split(": ")[1].split(" ")[0]
        assert f", {count} full tables equal, {count} pass signs and lowest degree," in line
