"""Closed-form coefficient tables for the two extreme A3 orientations.

These are independent of the recursive engine: each table is computed by
contracting coproducts of explicit rectangles.  The tests certify the
tables key by key against signed counts of set-valued tableaux (the
reference routes ``inbound_c`` and ``outbound_d`` in ``tests/reference.py``)
— every equality between the two routes is a theorem being retested
numerically.

Vertex layout: 1 - 2 - 3, with both arrows pointing in ("inbound",
1 -> 2 <- 3) or both pointing out ("outbound", 1 <- 2 -> 3).  Orbits are
parameterized by the six interval-root multiplicities m[i][j], 1<=i<=j<=3,
spelled once in ``_INTERVALS``; ``all_mults`` in ``tests/reference.py`` lists the orbits.
"""

from __future__ import annotations

from .gamma import TensorElement, _add_term, _mul_basis, coproduct, coproduct2
from .partitions import Partition, Record, instance, integers, normalize
from .quiver import OrbitSpec, Quiver, QuiverError

INBOUND = Quiver(3, ((1, 2), (3, 2)))
OUTBOUND = Quiver(3, ((2, 1), (2, 3)))
_INTERVALS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))  # A3OrbitMults' field order


def interval_root(i: int, j: int) -> tuple[int, int, int]:
    """The A3 positive root supported on vertices i..j."""
    i, j = integers((i, j))
    if not 1 <= i <= j <= 3:
        raise QuiverError(f"bad interval ({i},{j})")
    return tuple(1 if i <= p <= j else 0 for p in (1, 2, 3))


_FIELD_OF_ROOT = {interval_root(i, j): f"m{i}{j}" for i, j in _INTERVALS}


class A3OrbitMults(Record):
    """Multiplicities of the six interval indecomposables of an A3 orbit."""

    __slots__ = _fields = tuple(f"m{i}{j}" for i, j in _INTERVALS)

    def __init__(self, m11: int = 0, m12: int = 0, m13: int = 0, m22: int = 0, m23: int = 0, m33: int = 0):
        values = integers((m11, m12, m13, m22, m23, m33))
        if min(values) < 0:
            raise QuiverError("multiplicities must be non-negative")
        for name, m in zip(self._fields, values):
            object.__setattr__(self, name, m)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): getattr(self, f"m{i}{j}") for i, j in _INTERVALS}

    @property
    def dim(self) -> tuple[int, int, int]:
        mults = self.as_dict()
        return tuple(sum(m for (i, j), m in mults.items() if i <= p <= j) for p in (1, 2, 3))

    def orbit(self) -> OrbitSpec:
        mults = tuple((interval_root(i, j), m) for (i, j), m in self.as_dict().items() if m)
        return OrbitSpec(self.dim, mults)


def mults_from_orbit(orbit: OrbitSpec) -> A3OrbitMults:
    values: dict[str, int] = {}
    for root, m in instance(orbit, OrbitSpec).mults:
        if root not in _FIELD_OF_ROOT:
            raise QuiverError(f"{root} is not an A3 interval root")
        values[_FIELD_OF_ROOT[root]] = m
    return A3OrbitMults(**values)


def _rectangle(width: int, rows: int) -> Partition:
    return normalize((width,) * rows)


# ---------------------------------------------------------------------------
# inbound orientation, 1 -> 2 <- 3


def inbound_table(m: A3OrbitMults) -> TensorElement:
    """Full expansion of an inbound orbit closure, assembled from the
    rectangle coproducts; middle keys carry their rectangle prefix."""
    width = instance(m, A3OrbitMults).m11 + m.m13 + m.m33
    prefix = (width,) * m.m22
    r1 = _rectangle(m.m33, m.m12)
    r2 = _rectangle(m.m11, m.m23)
    out: dict[tuple, int] = {}
    for (lam, sigma), d1 in coproduct(r1).terms.items():
        for (tau, nu), d2 in coproduct(r2).terms.items():
            for mid, c in _mul_basis(sigma, tau):
                if mid and mid[0] > width:
                    raise AssertionError(
                        f"middle key {mid} too wide for rectangle prefix {width}"
                    )
                _add_term(out, (lam, normalize(prefix + mid), nu), d1 * d2 * c)
    return TensorElement._trusted(3, out)  # normal keys, zeros dropped by _add_term


# ---------------------------------------------------------------------------
# outbound orientation, 1 <- 2 -> 3


def outbound_table(m: A3OrbitMults) -> TensorElement:
    """Full expansion of an outbound orbit closure from one double
    coproduct, with rectangle prefixes on the outer slots."""
    rect = _rectangle(instance(m, A3OrbitMults).m22, m.m13)
    left = (m.m22 + m.m23,) * m.m11
    right = (m.m22 + m.m12,) * m.m33
    out: dict[tuple, int] = {}
    for (lam, mu, nu), d in coproduct2(rect).terms.items():
        _add_term(out, (normalize(left + lam), mu, normalize(right + nu)), d)
    return TensorElement._trusted(3, out)  # normal keys, zeros dropped by _add_term
