"""Golden contract: ``quivergk coeffs`` JSON must stay byte-identical.

Each case below names a quiver, an orbit and optionally an explicit
resolution pair; ``tests/golden/<name>.json`` holds the exact stdout of
``quivergk coeffs`` for it.  The files were written by the engine before
the row-bounded ψ/a prune, so a faster engine that changes any
coefficient, term order or caveat fails here.

    python tests/test_golden.py      # rewrite every golden file

Rewrite only when the output is meant to change, and say why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

A2 = [[1, 2]]
A3_IN = [[1, 2], [3, 2]]
A3_OUT = [[2, 1], [2, 3]]
A4_MIXED = [[1, 2], [3, 2], [3, 4]]
D4_IN = [[1, 4], [2, 4], [3, 4]]
D4_OUT = [[4, 1], [4, 2], [4, 3]]
E6 = [[1, 2], [2, 3], [3, 4], [4, 5], [3, 6]]

# name -> (arrows, [(root, m), ...], explicit pair or None)
CASES = {
    "a2-rank1": (A2, [((1, 1), 1), ((1, 0), 1), ((0, 1), 1)], None),
    "a2-zero": (A2, [((1, 0), 2), ((0, 1), 3)], None),
    "a3-in-222": (A3_IN, [((1, 1, 0), 1), ((0, 1, 1), 1), ((1, 0, 0), 1), ((0, 0, 1), 1)], None),
    "a3-in-444": (
        A3_IN,
        [((1, 0, 0), 3), ((1, 1, 0), 1), ((0, 1, 0), 2), ((0, 1, 1), 1), ((0, 0, 1), 3)],
        None,
    ),
    "a3-out-222": (A3_OUT, [((1, 1, 1), 1), ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)], None),
    "a3-out-444": (
        A3_OUT,
        [((1, 0, 0), 3), ((1, 1, 1), 1), ((0, 1, 0), 3), ((0, 0, 1), 3)],
        None,
    ),
    "a4-mixed": (A4_MIXED, [((0, 0, 1, 0), 1), ((1, 1, 0, 0), 1), ((0, 1, 1, 1), 1)], None),
    "d4-in": (D4_IN, [((0, 0, 0, 1), 1), ((1, 0, 0, 0), 1), ((0, 1, 1, 1), 1)], None),
    "d4-out": (D4_OUT, [((0, 0, 0, 1), 1), ((1, 1, 1, 1), 1)], None),
    "d4-out-pair": (
        D4_OUT,
        [((0, 0, 0, 1), 1), ((1, 1, 1, 1), 1)],
        {"i": [4, 1, 2, 3, 4], "r": [1, 1, 1, 1, 1]},
    ),
    "e6-generic-split": (E6, [((1, 1, 1, 0, 0, 0), 1), ((0, 0, 1, 1, 1, 1), 1)], None),
    "e6-simple-plus-sincere": (E6, [((0, 0, 1, 0, 0, 0), 1), ((1, 1, 1, 1, 1, 1), 1)], None),
}


def coeffs_stdout(name: str) -> str:
    """Run ``quivergk coeffs`` in-process on one case and return stdout."""
    from quivergk.cli import main

    arrows, mults, pair = CASES[name]
    n = len(mults[0][0])
    dim = [sum(m * root[k] for root, m in mults) for k in range(n)]
    with tempfile.TemporaryDirectory() as tmp:

        def dump(fname, payload):
            path = os.path.join(tmp, fname)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            return path

        argv = [
            "coeffs",
            dump("quiver.json", {"vertices": n, "arrows": arrows}),
            dump("orbit.json", {"dim": dim, "mults": [{"root": list(r), "m": m} for r, m in mults]}),
        ]
        if pair is not None:
            argv += ["--pair", dump("pair.json", pair)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    assert code == 0, name
    return buf.getvalue()


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN, name + ".json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_coeffs_matches_golden(name):
    with open(golden_path(name), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert coeffs_stdout(name) == expected


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    os.makedirs(GOLDEN, exist_ok=True)
    for case in sorted(CASES):
        with open(golden_path(case), "w", encoding="utf-8", newline="") as fh:
            fh.write(coeffs_stdout(case))
        print(f"wrote {golden_path(case)}")
