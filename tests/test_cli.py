"""End-to-end checks of the command-line surface, run in-process, and
once through the real entry point ``python -m quivergk``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quivergk.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    return write_json(tmp_path / "a2.json", {"vertices": 2, "arrows": [[1, 2]]})


@pytest.fixture
def inbound_file(tmp_path):
    return write_json(
        tmp_path / "inbound.json", {"vertices": 3, "arrows": [[1, 2], [3, 2]]}
    )


@pytest.fixture
def d4_file(tmp_path):
    return write_json(
        tmp_path / "d4.json", {"vertices": 4, "arrows": [[1, 2], [3, 2], [4, 2]]}
    )


@pytest.fixture
def zero_orbit_file(tmp_path):
    return write_json(
        tmp_path / "zero.json",
        {"dim": [1, 1], "mults": [{"root": [1, 0], "m": 1}, {"root": [0, 1], "m": 1}]},
    )


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# roots / orbits


def test_roots(capsys, a2_file):
    code, out, _ = run(capsys, ["roots", a2_file])
    assert code == 0
    data = json.loads(out)
    assert data == {"type": "A2", "roots": [[0, 1], [1, 0], [1, 1]]}


def test_module_entry_point(capsys, a2_file, tmp_path):
    # the same stdout and exit code as main(), and a bad file is one error line
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def spawn(*argv):
        cmd = [sys.executable, "-m", "quivergk", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    proc = spawn("roots", a2_file)
    code, out, _ = run(capsys, ["roots", a2_file])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "") and code == 0
    missing = str(tmp_path / "missing.json")
    proc = spawn("roots", missing)
    assert proc.returncode == 2 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: cannot read {missing}: ")


def test_roots_rejects_wild_quiver(capsys, tmp_path):
    kronecker = write_json(
        tmp_path / "k2.json", {"vertices": 2, "arrows": [[1, 2], [1, 2]]}
    )
    code, _, err = run(capsys, ["roots", kronecker])
    assert code == 2
    assert err.startswith("error:")


def test_orbits(capsys, inbound_file):
    code, out, _ = run(capsys, ["orbits", inbound_file, "--dim", "1,1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    for orbit in data["orbits"]:
        total = [0, 0, 0]
        for entry in orbit["mults"]:
            for k in range(3):
                total[k] += entry["m"] * entry["root"][k]
        assert total == [1, 1, 1]


def test_orbits_bad_dim(capsys, a2_file):
    code, _, err = run(capsys, ["orbits", a2_file, "--dim", "1,1,1"])
    assert code == 2
    assert "2 entries" in err


def test_orbits_dim_that_is_not_integers(capsys, a2_file):
    code, out, err = run(capsys, ["orbits", a2_file, "--dim", "1,x"])
    assert (code, out) == (2, "")
    assert err == "error: bad --dim '1,x'\n"


# ---------------------------------------------------------------------------
# coeffs


def test_coeffs_json(capsys, a2_file, zero_orbit_file):
    code, out, _ = run(capsys, ["coeffs", a2_file, zero_orbit_file])
    assert code == 0
    data = json.loads(out)
    assert data["codim"] == 1
    assert data["caveat"] is None
    assert data["terms"] == [{"mu": [[], [1]], "coeff": 1}]


def test_coeffs_explicit_pair(capsys, a2_file, zero_orbit_file, tmp_path):
    pair = write_json(tmp_path / "pair.json", {"i": [2, 1], "r": [1, 1]})
    code, out, _ = run(capsys, ["coeffs", a2_file, zero_orbit_file, "--pair", pair])
    assert code == 0
    _, auto_out, _ = run(capsys, ["coeffs", a2_file, zero_orbit_file])
    assert json.loads(out) == json.loads(auto_out)


@pytest.mark.parametrize("vertex", [0, 3])
def test_coeffs_pair_vertex_out_of_range(capsys, a2_file, zero_orbit_file, tmp_path, vertex):
    pair = write_json(tmp_path / "pair.json", {"i": [vertex], "r": [1]})
    code, out, err = run(capsys, ["coeffs", a2_file, zero_orbit_file, "--pair", pair])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "out of range" in err
    assert "Traceback" not in err


def test_coeffs_deeper_than_the_stack_is_an_error_line(capsys, a2_file, tmp_path):
    # the dense orbit of (495, 1) walks a 494-box row: this printed a RecursionError traceback
    mults = [{"root": [1, 1], "m": 1}, {"root": [1, 0], "m": 494}]
    orbit = write_json(tmp_path / "dense.json", {"dim": [495, 1], "mults": mults})
    code, out, err = run(capsys, ["coeffs", a2_file, orbit])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "boxes" in err


def test_coeffs_pair_short_of_the_dimension_vector(capsys, a2_file, zero_orbit_file, tmp_path):
    # one step leaves the stage vector (1, 0): this printed a table, as for a whole pair
    pair = write_json(tmp_path / "pair.json", {"i": [2], "r": [1]})
    code, out, err = run(capsys, ["coeffs", a2_file, zero_orbit_file, "--pair", pair])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_coeffs_pair_with_negative_codim(capsys, inbound_file, tmp_path):
    # two rank-1 steps at the sink over (0, 2, 0) give codim -1: this printed the unit table
    orbit = write_json(
        tmp_path / "orbit.json", {"dim": [0, 2, 0], "mults": [{"root": [0, 1, 0], "m": 2}]}
    )
    pair = write_json(tmp_path / "pair.json", {"i": [2, 2], "r": [1, 1]})
    code, out, err = run(capsys, ["coeffs", inbound_file, orbit, "--pair", pair])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "negative codimension" in err and err.count("\n") == 1


def test_coeffs_table_format(capsys, a2_file, zero_orbit_file):
    code, out, _ = run(
        capsys, ["coeffs", a2_file, zero_orbit_file, "--format", "table"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "codim 1"
    assert "coeff" in lines[1]
    assert any("[1]" in line and line.rstrip().endswith("1") for line in lines[2:])


def test_coeffs_cohomological(capsys, inbound_file, tmp_path):
    orbit = write_json(
        tmp_path / "orbit.json",
        {
            "dim": [1, 1, 1],
            "mults": [{"root": [1, 1, 0], "m": 1}, {"root": [0, 0, 1], "m": 1}],
        },
    )
    _, full, _ = run(capsys, ["coeffs", inbound_file, orbit])
    code, low, _ = run(capsys, ["coeffs", inbound_file, orbit, "--cohomological"])
    assert code == 0
    assert len(json.loads(full)["terms"]) == 3
    assert json.loads(low)["terms"] == [
        {"mu": [[], [1], []], "coeff": 1},
        {"mu": [[1], [], []], "coeff": 1},
    ]


def test_coeffs_caveat_on_d4(capsys, tmp_path):
    d4 = write_json(
        tmp_path / "d4.json", {"vertices": 4, "arrows": [[1, 4], [2, 4], [3, 4]]}
    )
    orbit = write_json(
        tmp_path / "orbit.json",
        {"dim": [0, 0, 0, 1], "mults": [{"root": [0, 0, 0, 1], "m": 1}]},
    )
    code, out, _ = run(capsys, ["coeffs", d4, orbit])
    assert code == 0
    assert json.loads(out)["caveat"] == "conjectural-under-rational-singularities"


def test_coeffs_deterministic(capsys, inbound_file, tmp_path):
    orbit = write_json(
        tmp_path / "orbit.json",
        {
            "dim": [1, 2, 1],
            "mults": [
                {"root": [1, 1, 0], "m": 1},
                {"root": [0, 1, 1], "m": 1},
            ],
        },
    )
    _, first, _ = run(capsys, ["coeffs", inbound_file, orbit])
    _, second, _ = run(capsys, ["coeffs", inbound_file, orbit])
    assert first == second


def test_coeffs_rejects_foreign_root(capsys, a2_file, tmp_path):
    orbit = write_json(
        tmp_path / "orbit.json",
        {"dim": [2, 1], "mults": [{"root": [2, 1], "m": 1}]},
    )
    code, _, err = run(capsys, ["coeffs", a2_file, orbit])
    assert code == 2
    assert "not a positive root" in err


# ---------------------------------------------------------------------------
# check suites


SUITES = ("signs", "codim", "independence")


@pytest.mark.parametrize(
    "quiver,suite,max_dim",
    [pytest.param("a2_file", suite, "2", id=suite) for suite in SUITES]
    # D4 reaches the caveat branch of independence (cohomological slices)
    + [pytest.param("d4_file", suite, "1", id=f"d4-{suite}") for suite in SUITES],
)
def test_check_suites_pass(capsys, request, quiver, suite, max_dim):
    path = request.getfixturevalue(quiver)
    code, out, _ = run(capsys, ["check", path, "--suite", suite, "--max-dim", max_dim])
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["checked"] > 0


def test_check_oracle_a3(capsys, inbound_file):
    code, out, _ = run(
        capsys, ["check", inbound_file, "--suite", "oracle-a3", "--max-dim", "1"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["checked"] == 13
    assert data["failures"] == []


def test_check_oracle_a3_wrong_quiver(capsys, a2_file):
    code, _, err = run(capsys, ["check", a2_file, "--suite", "oracle-a3"])
    assert code == 2
    assert "oracle-a3" in err


def test_check_reports_failures(capsys, a2_file, monkeypatch):
    # force a violation through so the nonzero exit path is exercised
    import quivergk.engine as engine

    monkeypatch.setattr(
        engine, "check_alternating", lambda table: [(((), (1,)), -1)]
    )
    code, out, _ = run(capsys, ["check", a2_file, "--suite", "signs", "--max-dim", "1"])
    assert code == 1
    data = json.loads(out)
    assert data["failures"]
    assert data["failures"][0]["violations"] == [{"mu": [[], [1]], "coeff": -1}]


def test_check_negative_max_dim_rejected(capsys, a2_file):
    # a sweep over no orbit at all would pass while checking nothing
    code, out, err = run(capsys, ["check", a2_file, "--suite", "signs", "--max-dim", "-1"])
    assert code == 2
    assert out == ""
    assert "max_dim" in err


# ---------------------------------------------------------------------------
# member


def test_member_zero_rep(capsys, a2_file, zero_orbit_file, tmp_path):
    rep = write_json(tmp_path / "rep.json", {"matrices": [[[0]]]})
    code, out, _ = run(
        capsys, ["member", a2_file, zero_orbit_file, "--rep", rep]
    )
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert all(row["ok"] for row in data["hom_table"])


def test_member_dense_rep_not_in_zero_closure(capsys, a2_file, zero_orbit_file, tmp_path):
    rep = write_json(tmp_path / "rep.json", {"matrices": [[[1]]]})
    code, out, _ = run(
        capsys, ["member", a2_file, zero_orbit_file, "--rep", rep]
    )
    assert code == 0
    data = json.loads(out)
    assert data["member"] is False
    bad = [row for row in data["hom_table"] if not row["ok"]]
    assert bad == [{"root": [1, 0], "rep": 0, "orbit": 1, "ok": False}]


def test_member_on_tall_d4_root(capsys, d4_file, tmp_path):
    # the root (1,2,1,1) has an entry 2, so its module needs drawn matrices
    from quivergk import OrbitSpec, Quiver
    from reference import orbit_rep

    d4 = Quiver(4, ((1, 2), (3, 2), (4, 2)))
    orbit = OrbitSpec((1, 2, 1, 1), (((1, 2, 1, 1), 1),))
    orbit_file = write_json(
        tmp_path / "tall.json", {"dim": [1, 2, 1, 1], "mults": [{"root": [1, 2, 1, 1], "m": 1}]}
    )
    rep = write_json(tmp_path / "rep.json", {"matrices": orbit_rep(d4, orbit).mats})
    code, out, _ = run(capsys, ["member", d4_file, orbit_file, "--rep", rep])
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert len(data["hom_table"]) == 12


# ---------------------------------------------------------------------------
# input errors


def test_missing_file(capsys):
    code, _, err = run(capsys, ["roots", "/nonexistent/q.json"])
    assert code == 2
    assert "cannot read" in err


def test_malformed_quiver(capsys, tmp_path):
    bad = write_json(tmp_path / "bad.json", {"vertices": 2})
    code, _, err = run(capsys, ["roots", bad])
    assert code == 2
    assert "bad quiver file" in err


# ---------------------------------------------------------------------------
# the error line of each input file kind, byte for byte


def file_argv(kind, path, a2_file, zero_orbit_file):
    """A command line that reads ``path`` as a file of the given kind."""
    return {
        "quiver": ["roots", path],
        "orbit": ["coeffs", a2_file, path],
        "pair": ["coeffs", a2_file, zero_orbit_file, "--pair", path],
        "representation": ["member", a2_file, zero_orbit_file, "--rep", path],
    }[kind]


FILE_KINDS = ("quiver", "orbit", "pair", "representation")

# each kind's file with one required key left out, and the key's repr
MISSING_KEY = {
    "quiver": ({"vertices": 2}, "'arrows'"),
    "orbit": ({"dim": [1, 1]}, "'mults'"),
    "pair": ({"i": [1]}, "'r'"),
    "representation": ({}, "'matrices'"),
}


@pytest.mark.parametrize("kind", FILE_KINDS)
def test_missing_file_error_line(capsys, tmp_path, a2_file, zero_orbit_file, kind):
    path = str(tmp_path / "absent.json")
    code, out, err = run(capsys, file_argv(kind, path, a2_file, zero_orbit_file))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"


@pytest.mark.parametrize("kind", FILE_KINDS)
def test_invalid_json_error_line(capsys, tmp_path, a2_file, zero_orbit_file, kind):
    path = tmp_path / "broken.json"
    path.write_text("not json")
    code, out, err = run(capsys, file_argv(kind, str(path), a2_file, zero_orbit_file))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: Expecting value: line 1 column 1 (char 0)\n"


@pytest.mark.parametrize("kind", FILE_KINDS)
def test_missing_key_error_line(capsys, tmp_path, a2_file, zero_orbit_file, kind):
    payload, key = MISSING_KEY[kind]
    path = write_json(tmp_path / "partial.json", payload)
    code, out, err = run(capsys, file_argv(kind, path, a2_file, zero_orbit_file))
    assert (code, out) == (2, "")
    assert err == f"error: bad {kind} file {path}: {key}\n"


# each kind's file with one entry that is not a JSON integer
NON_INTEGER = {
    "quiver": lambda bad: {"vertices": 2, "arrows": [[bad, 2]]},
    "orbit": lambda bad: {"dim": [1, 1], "mults": [{"root": [1, 1], "m": bad}]},
    "pair": lambda bad: {"i": [bad], "r": [1]},
    "representation": lambda bad: {"matrices": [[[bad]]]},
}


@pytest.mark.parametrize("bad", [0.5, 1.7, 2.0, "1"])
@pytest.mark.parametrize("kind", FILE_KINDS)
def test_non_integer_entry_is_a_bad_file(capsys, tmp_path, a2_file, zero_orbit_file, kind, bad):
    path = write_json(tmp_path / "inexact.json", NON_INTEGER[kind](bad))
    code, out, err = run(capsys, file_argv(kind, path, a2_file, zero_orbit_file))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad {kind} file {path}: ")


def test_member_reads_no_fraction_as_zero(capsys, a2_file, zero_orbit_file, tmp_path):
    # int(0.5) read this map as zero, and the answer was "member": true
    rep = write_json(tmp_path / "rep.json", {"matrices": [[[0.5]]]})
    code, out, err = run(capsys, ["member", a2_file, zero_orbit_file, "--rep", rep])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad representation file {rep}: ")


def test_orbit_multiplicity_is_not_truncated(capsys, a2_file, tmp_path):
    # int(1.7) read this as the orbit of the root (1, 1) once
    orbit = write_json(
        tmp_path / "orbit.json", {"dim": [1, 1], "mults": [{"root": [1, 1], "m": 1.7}]}
    )
    code, out, err = run(capsys, ["coeffs", a2_file, orbit])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad orbit file {orbit}: ")


def test_orbit_that_does_not_sum_to_its_dim_is_a_bad_file(capsys, a2_file, tmp_path):
    # the orbit is built while its file is read, so the error names the file
    orbit = write_json(tmp_path / "orbit.json", {"dim": [1, 2], "mults": [{"root": [1, 1], "m": 1}]})
    code, out, err = run(capsys, ["coeffs", a2_file, orbit])
    assert (code, out) == (2, "")
    assert err == f"error: bad orbit file {orbit}: multiplicities sum to (1, 1), dim is (1, 2)\n"


def test_file_that_is_not_utf8_cannot_be_read(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"vertices": 2, "arrows": [], "name": "\xe9"}')
    code, out, err = run(capsys, ["roots", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
