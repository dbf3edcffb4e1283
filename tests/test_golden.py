"""Golden contract: ``quivergk coeffs``, ``orbits`` and ``member`` JSON
must stay byte-identical.

Each case in ``CASES`` names a quiver, an orbit and optionally an explicit
resolution pair; ``tests/golden/<name>.json`` holds the exact stdout of
``quivergk coeffs`` for it.  The files were written by the engine before
the row-bounded ψ/a prune, so a faster engine that changes any
coefficient, term order or caveat fails here.  The D4-mixed
(1->2->3, 2->4) and E7 cases were added later, written by the engine
that still split every out-slot of a step, before it split only the
out-slots that hold a partition; each has a step with one out-slot
filled and one empty.

Each case in ``ORBIT_CASES`` names a quiver and a dimension vector;
``tests/golden/orbits-<name>.json`` holds the exact stdout of
``quivergk orbits`` for it.  Those files were written by the
simple-roots-first enumeration, before it walked the tall roots first, so
an enumeration that changes an orbit, its root order or the order of the
list fails here.  The D4 and E6 vectors admit orbits with a root that has
an entry 2.

Each case in ``MEMBER_CASES`` names a quiver, an orbit and one matrix per
arrow; ``tests/golden/member-<name>.json`` holds the exact stdout of
``quivergk member`` for it.  Those files were written before
``hom_table`` and ``in_orbit_closure`` shared one input check, so a
change to the hom table's rows, their order or the verdict fails here.
The D4 case uses the root (1,1,1,2).

Each case in ``ROOTS_CASES`` names a quiver; ``tests/golden/roots-<name>.json``
holds the exact stdout of ``quivergk roots`` for it: the Dynkin type label
and every positive root in order.  Those files were written while the type
was still read off the graph by a walk over its components, before it was
read from the Tits form.  ``tests/golden/roots-kronecker.txt`` holds the
exact stderr of ``quivergk roots`` on the Kronecker quiver, which exits 2.

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
D4_MIXED = [[1, 2], [2, 3], [2, 4]]
E6 = [[1, 2], [2, 3], [3, 4], [4, 5], [3, 6]]
E7 = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [3, 7]]
E8 = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [3, 8]]
KRONECKER = [[1, 2], [1, 2]]

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
    # a step at vertex 2 with both out-slots empty, and a later one with only slot 4 filled
    "d4-mixed-one-live-split": (
        D4_MIXED,
        [((0, 0, 0, 1), 1), ((0, 0, 1, 0), 1), ((1, 0, 0, 0), 1), ((0, 1, 0, 1), 1), ((1, 1, 1, 0), 1)],
        None,
    ),
    "e6-generic-split": (E6, [((1, 1, 1, 0, 0, 0), 1), ((0, 0, 1, 1, 1, 1), 1)], None),
    "e6-simple-plus-sincere": (E6, [((0, 0, 1, 0, 0, 0), 1), ((1, 1, 1, 1, 1, 1), 1)], None),
    # a step at vertex 3 with out-slot 4 filled and out-slot 7 empty
    "e7-one-live-split": (
        E7,
        [((0, 0, 0, 0, 1, 1, 0), 1), ((0, 1, 1, 0, 0, 0, 0), 1), ((0, 0, 1, 1, 1, 0, 0), 1)],
        None,
    ),
}

# name -> (arrows, dimension vector)
ORBIT_CASES = {
    "a3-in-222": (A3_IN, (2, 2, 2)),
    "d4-in-1112": (D4_IN, (1, 1, 1, 2)),
    "e6-112111": (E6, (1, 1, 2, 1, 1, 1)),
}


# name -> (arrows, [(root, m), ...], one matrix per arrow)
MEMBER_CASES = {
    # both maps rank 1 with one common image: a degeneration of the orbit
    "a3-in-member": (
        A3_IN,
        [((1, 1, 0), 1), ((0, 1, 1), 1), ((1, 0, 0), 1), ((0, 0, 1), 1)],
        [[[1, 0], [0, 0]], [[1, 1], [0, 0]]],
    ),
    # the first map has rank 2, more than the orbit's rank 1
    "a3-in-nonmember": (
        A3_IN,
        [((1, 1, 0), 1), ((0, 1, 1), 1), ((1, 0, 0), 1), ((0, 0, 1), 1)],
        [[[1, 0], [0, 1]], [[0, 0], [1, 0]]],
    ),
    # two equal lines into k^2: every rep of this dimension is in the
    # closure of the dense orbit of M_(1,1,1,2)
    "d4-in-1112": (D4_IN, [((1, 1, 1, 2), 1)], [[[1], [0]], [[1], [0]], [[0], [1]]]),
}


# name -> (vertex count, arrows)
ROOTS_CASES = {
    "a3-in": (3, A3_IN),
    "d4-in": (4, D4_IN),
    "e6": (6, E6),
    "e8": (8, E8),
    "a1-a2": (3, [[2, 3]]),
    "d4-a2": (6, D4_IN + [[5, 6]]),
}


def run_cli_streams(argv: list[str]) -> tuple[int, str, str]:
    """Run ``quivergk`` in-process; return the exit code, stdout and stderr."""
    from quivergk.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli(argv: list[str]) -> str:
    """Run ``quivergk`` in-process and return stdout; the exit code must be 0."""
    code, out, _ = run_cli_streams(argv)
    assert code == 0, argv
    return out


def coeffs_stdout(name: str) -> str:
    """Run ``quivergk coeffs`` in-process on one case and return stdout."""
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
        return run_cli(argv)


def orbits_stdout(name: str) -> str:
    """Run ``quivergk orbits`` in-process on one case and return stdout."""
    arrows, dim = ORBIT_CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "quiver.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": len(dim), "arrows": arrows}, fh)
        return run_cli(["orbits", path, "--dim", ",".join(map(str, dim))])


def member_stdout(name: str) -> str:
    """Run ``quivergk member`` in-process on one case and return stdout."""
    arrows, mults, matrices = MEMBER_CASES[name]
    n = len(mults[0][0])
    dim = [sum(m * root[k] for root, m in mults) for k in range(n)]
    with tempfile.TemporaryDirectory() as tmp:

        def dump(fname, payload):
            path = os.path.join(tmp, fname)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            return path

        return run_cli(
            [
                "member",
                dump("quiver.json", {"vertices": n, "arrows": arrows}),
                dump("orbit.json", {"dim": dim, "mults": [{"root": list(r), "m": m} for r, m in mults]}),
                "--rep",
                dump("rep.json", {"matrices": matrices}),
            ]
        )


def roots_streams(n: int, arrows: list[list[int]]) -> tuple[int, str, str]:
    """Run ``quivergk roots`` in-process on one quiver."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "quiver.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": n, "arrows": arrows}, fh)
        return run_cli_streams(["roots", path])


def roots_stdout(name: str) -> str:
    """``quivergk roots`` stdout for one case; the exit code must be 0."""
    code, out, _ = roots_streams(*ROOTS_CASES[name])
    assert code == 0, name
    return out


def kronecker_roots_stderr() -> str:
    """``quivergk roots`` stderr on the Kronecker quiver; it must exit 2 with no stdout."""
    code, out, err = roots_streams(2, KRONECKER)
    assert (code, out) == (2, "")
    return err


def golden_path(name: str, ext: str = ".json") -> str:
    return os.path.join(GOLDEN, name + ext)


@pytest.mark.parametrize("name", sorted(CASES))
def test_coeffs_matches_golden(name):
    with open(golden_path(name), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert coeffs_stdout(name) == expected


@pytest.mark.parametrize("name", sorted(ORBIT_CASES))
def test_orbits_matches_golden(name):
    with open(golden_path("orbits-" + name), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert orbits_stdout(name) == expected


@pytest.mark.parametrize("name", sorted(MEMBER_CASES))
def test_member_matches_golden(name):
    with open(golden_path("member-" + name), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert member_stdout(name) == expected


@pytest.mark.parametrize("name", sorted(ROOTS_CASES))
def test_roots_matches_golden(name):
    with open(golden_path("roots-" + name), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert roots_stdout(name) == expected


def test_roots_of_kronecker_matches_golden():
    with open(golden_path("roots-kronecker", ".txt"), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert kronecker_roots_stderr() == expected


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    os.makedirs(GOLDEN, exist_ok=True)
    stdouts = [(case, coeffs_stdout(case)) for case in sorted(CASES)]
    stdouts += [("orbits-" + case, orbits_stdout(case)) for case in sorted(ORBIT_CASES)]
    stdouts += [("member-" + case, member_stdout(case)) for case in sorted(MEMBER_CASES)]
    stdouts += [("roots-" + case, roots_stdout(case)) for case in sorted(ROOTS_CASES)]
    files = [(golden_path(name), text) for name, text in stdouts]
    files.append((golden_path("roots-kronecker", ".txt"), kronecker_roots_stderr()))
    for path, text in files:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}")
