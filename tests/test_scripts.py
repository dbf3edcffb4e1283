"""Smoke tests of the experiment scripts: each runs in a subprocess on a
small input and must exit 0 with a clean report."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


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
