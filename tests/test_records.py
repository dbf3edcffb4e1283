"""The package's seven records, built on ``partitions.Record``: equal to a record of the same class
with equal fields and to nothing else, hashed as the field tuple, immutable because memos are keyed
on them, and shown as ``Name(f=v, ...)``.  The reprs are pinned as they read when the records were
frozen dataclasses; so is the import, which loads neither ``dataclasses`` nor ``inspect``."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from quivergk import (
    A3OrbitMults,
    DirectedPartition,
    OrbitSpec,
    Quiver,
    QuiverRep,
    ResolutionPair,
    clear_caches,
    positive_roots,
    quiver_coefficients,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _table():
    q = Quiver(2, [[1, 2]])
    orb = OrbitSpec([1, 1], [([1, 0], 1), ([0, 1], 1)])
    return quiver_coefficients(q, orb.dim, orb)


# each record built from input the constructor must normalise, and its repr
RECORDS = {
    "Quiver": (
        lambda: Quiver(3, [[1, 2], (3, 2)]),
        "Quiver(n=3, arrows=((1, 2), (3, 2)))",
    ),
    "OrbitSpec": (
        lambda: OrbitSpec([1, 2, 1], [([1, 1, 0], 1), ((0, 1, 1), 1)]),
        "OrbitSpec(dim=(1, 2, 1), mults=(((0, 1, 1), 1), ((1, 1, 0), 1)))",
    ),
    "QuiverRep": (
        lambda: QuiverRep([1, 1, 0], [[[1]], []]),
        "QuiverRep(dims=(1, 1, 0), mats=(((1,),), ()))",
    ),
    "DirectedPartition": (
        lambda: DirectedPartition([[(1, 1, 0), [0, 1, 1]], [(0, 1, 0)]]),
        "DirectedPartition(blocks=(((0, 1, 1), (1, 1, 0)), ((0, 1, 0),)))",
    ),
    "ResolutionPair": (
        lambda: ResolutionPair([2, 1], (1, 1)),
        "ResolutionPair(vertices=(2, 1), ranks=(1, 1))",
    ),
    "CoefficientTable": (
        _table,
        "CoefficientTable(quiver=Quiver(n=2, arrows=((1, 2),)), tensor=1*G[](x)G[1], codim=1, "
        "orbit=OrbitSpec(dim=(1, 1), mults=(((0, 1), 1), ((1, 0), 1))))",
    ),
    "A3OrbitMults": (
        lambda: A3OrbitMults(1, m23=2),
        "A3OrbitMults(m11=1, m12=0, m13=0, m22=0, m23=2, m33=0)",
    ),
}

build = pytest.mark.parametrize("name", list(RECORDS))


def _fields(record):
    return tuple(getattr(record, f) for f in record._fields)


@build
def test_repr_is_the_dataclass_repr(name):
    make, text = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == text


@build
def test_equal_fields_and_class_make_equal_records(name):
    a, b = RECORDS[name][0](), RECORDS[name][0]()
    assert a is not b
    assert a == b and not a != b
    try:
        expected = hash(_fields(a))
    except TypeError:  # a table holds a TensorElement, which is not hashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))


@build
def test_a_record_is_not_its_field_tuple_nor_a_subclass_record(name):
    record = RECORDS[name][0]()
    assert record != _fields(record) and _fields(record) != record
    # the same fields in a subclass: equality needs the same class, as for a dataclass
    sub = type("Sub", (type(record),), {"__slots__": ()})
    twin = object.__new__(sub)
    for f, value in zip(record._fields, _fields(record)):
        object.__setattr__(twin, f, value)
    assert _fields(twin) == _fields(record)
    assert record != twin and twin != record


@build
def test_records_cannot_be_changed(name):
    record = RECORDS[name][0]()
    before = _fields(record)
    for f in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, f, 0)
        with pytest.raises(AttributeError):
            delattr(record, f)
    assert _fields(record) == before


def test_equal_quivers_share_one_memo_entry():
    clear_caches()
    a, b = Quiver(4, ((1, 4), (2, 4), (3, 4))), Quiver(4, [[1, 4], [2, 4], [3, 4]])
    assert a is not b
    roots = positive_roots(a)
    before = positive_roots.cache_info()
    assert positive_roots(b) is roots
    after = positive_roots.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses, after.currsize) == (1, 0, 1)


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site (which may import typing) out, so only the package's own imports count
    code = "import sys, quivergk; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
