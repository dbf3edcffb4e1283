"""Closed-form coefficient tables for the two extreme A3 orientations.

These are independent of the recursive engine: each table is computed by
contracting coproducts of explicit rectangles.  The tests certify the
tables key by key against signed counts of set-valued tableaux (the
reference routes ``inbound_c`` and ``outbound_d`` in ``tests/reference.py``)
— every equality between the two routes is a theorem being retested
numerically.

Vertex layout: 1 - 2 - 3, with both arrows pointing in ("inbound",
1 -> 2 <- 3) or both pointing out ("outbound", 1 <- 2 -> 3).  Orbits are
parameterized by the six interval-root multiplicities m[i][j], 1<=i<=j<=3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gamma import TensorElement, _add_term, _mul_basis, coproduct, coproduct2
from .partitions import Partition, instance, integers, normalize
from .quiver import OrbitSpec, Quiver, QuiverError, orbits

INBOUND = Quiver(3, ((1, 2), (3, 2)))
OUTBOUND = Quiver(3, ((2, 1), (2, 3)))


def interval_root(i: int, j: int) -> tuple[int, int, int]:
    """The A3 positive root supported on vertices i..j."""
    i, j = integers((i, j))
    if not 1 <= i <= j <= 3:
        raise QuiverError(f"bad interval ({i},{j})")
    return tuple(1 if i <= p <= j else 0 for p in (1, 2, 3))


@dataclass(frozen=True)
class A3OrbitMults:
    """Multiplicities of the six interval indecomposables of an A3 orbit."""

    m11: int = 0
    m12: int = 0
    m13: int = 0
    m22: int = 0
    m23: int = 0
    m33: int = 0

    def __post_init__(self) -> None:
        for (i, j), m in zip(self.as_dict(), integers(self.as_dict().values())):
            object.__setattr__(self, f"m{i}{j}", m)
        if min(self.as_dict().values()) < 0:
            raise QuiverError("multiplicities must be non-negative")

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {
            (1, 1): self.m11,
            (1, 2): self.m12,
            (1, 3): self.m13,
            (2, 2): self.m22,
            (2, 3): self.m23,
            (3, 3): self.m33,
        }

    @property
    def dim(self) -> tuple[int, int, int]:
        return (
            self.m11 + self.m12 + self.m13,
            self.m12 + self.m13 + self.m22 + self.m23,
            self.m13 + self.m23 + self.m33,
        )

    def orbit(self) -> OrbitSpec:
        mults = tuple(
            (interval_root(i, j), m) for (i, j), m in self.as_dict().items() if m
        )
        return OrbitSpec(self.dim, mults)


def mults_from_orbit(orbit: OrbitSpec) -> A3OrbitMults:
    lookup = {interval_root(i, j): (i, j) for i in (1, 2, 3) for j in range(i, 4)}
    values: dict[str, int] = {}
    for root, m in instance(orbit, OrbitSpec).mults:
        if root not in lookup:
            raise QuiverError(f"{root} is not an A3 interval root")
        i, j = lookup[root]
        values[f"m{i}{j}"] = m
    return A3OrbitMults(**values)


def all_mults(max_dim: int) -> list[A3OrbitMults]:
    """Every orbit with all three dimensions at most ``max_dim``, from ``orbits``, sorted by
    the six multiplicities (m11, m12, m13, m22, m23, m33)."""
    (max_dim,) = integers((max_dim,))
    if max_dim < 0:
        raise QuiverError(f"negative max_dim {max_dim}")
    dims = itertools.product(range(max_dim + 1), repeat=3)
    found = [mults_from_orbit(orbit) for e in dims for orbit in orbits(INBOUND, e)]
    return sorted(found, key=lambda m: tuple(m.as_dict().values()))


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
    return TensorElement(3, out)


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
    return TensorElement(3, out)
