"""Shared hypothesis strategies and fixtures.

The independent oracles that the tests check the package against live in
``reference.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from quivergk import Quiver

# ---------------------------------------------------------------------------
# strategies


@st.composite
def partitions(draw, max_size: int = 4, max_part: int = 4, max_rows: int = 4):
    """Random partition as a tuple, drawn row by row."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    parts = []
    prev = max_part
    total = 0
    for _ in range(rows):
        if total >= max_size or prev == 0:
            break
        p = draw(st.integers(min_value=0, max_value=min(prev, max_size - total)))
        if p == 0:
            break
        parts.append(p)
        prev = p
        total += p
    return tuple(parts)


int_seqs = st.lists(
    st.integers(min_value=-3, max_value=5), min_size=0, max_size=5
).map(tuple)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def a2():
    return Quiver(2, ((1, 2),))


@pytest.fixture(scope="session")
def inbound():
    return Quiver(3, ((1, 2), (3, 2)))


@pytest.fixture(scope="session")
def outbound():
    return Quiver(3, ((2, 1), (2, 3)))
