"""Shared fixtures, hypothesis strategies, and independent oracles.

The oracles here deliberately avoid the library's own enumeration code:
classical Littlewood-Richardson numbers come from a plain semistandard
tableau search, ranks from Fraction-based row reduction, and dimension
counts from the hook-content formula.  They exist so the fast paths in
quivergk can be checked against something slow and obviously correct.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from quivergk import Quiver
from quivergk.gamma import TensorElement, basis, straighten

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
# independent oracles


def ssyt_fillings(outer, inner, max_entry):
    """All semistandard fillings of outer/inner with entries in 1..max_entry.

    Plain single-valued tableaux: weakly increasing along rows, strictly
    increasing down columns.  Yields tuples of row tuples (inner cells
    omitted).  Brute force on purpose.
    """
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))

    rows: list[list[tuple[int, ...]]] = []

    def row_options(r):
        width = outer[r] - inner[r]
        opts = []
        for vals in itertools.product(range(1, max_entry + 1), repeat=width):
            if all(vals[i] <= vals[i + 1] for i in range(width - 1)):
                opts.append(vals)
        return opts

    def compatible(above_row, above_r, row, r):
        # column-strict against the row above, aligning absolute columns
        for j in range(inner[r], outer[r]):
            if inner[above_r] <= j < outer[above_r]:
                if above_row[j - inner[above_r]] >= row[j - inner[r]]:
                    return False
        return True

    def rec(r, acc):
        if r == len(outer):
            yield tuple(acc)
            return
        for row in row_options(r):
            if r == 0 or compatible(acc[-1], r - 1, row, r):
                acc.append(row)
                yield from rec(r + 1, acc)
                acc.pop()

    yield from rec(0, [])


def classical_lr(lam, mu, nu) -> int:
    """Littlewood-Richardson number c^nu_{lam,mu} by brute force.

    Counts semistandard fillings of nu/lam with content mu whose reverse
    reading word (right to left, top to bottom) is a lattice word.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if len(lam) > len(nu) or any(l > n for l, n in zip(lam, nu)):
        return 0
    count = 0
    maxe = max(len(mu), 1)
    for filling in ssyt_fillings(nu, lam, maxe):
        word = []
        for row in filling:
            word.extend(reversed(row))
        content = [0] * maxe
        ok = True
        for letter in word:
            content[letter - 1] += 1
            if letter > 1 and content[letter - 1] > content[letter - 2]:
                ok = False
                break
        if ok and tuple(content[: len(mu)]) == mu and all(
            c == 0 for c in content[len(mu) :]
        ):
            count += 1
    return count


def straightening_law(seq):
    """Yield each class that the straightening law equates with
    ``straighten(seq)``: the signed sum of the rewrites at every ascent
    (not only the leftmost or rightmost), the class without a trailing
    negative entry, and a partition's own basis class.

    Every rewrite raises one entry and keeps those before it, and the drop
    shortens the sequence, so each rule refers only to sequences later in
    the order (-length, sequence); together the rules fix ``straighten``.
    """
    if seq and seq[-1] < 0:
        yield straighten(seq[:-1])
    elif all(a >= b for a, b in zip(seq, seq[1:])):
        yield basis(seq)
    for t in range(len(seq) - 1):
        p, q = seq[t], seq[t + 1]
        if p < q:
            head, rest = seq[:t], seq[t + 2 :]
            rhs = TensorElement(1)
            for k in range(p + 1, q + 1):
                rhs += straighten(head + (q, k) + rest)
            for k in range(p + 1, q):
                rhs -= straighten(head + (q - 1, k) + rest)
            yield rhs


def hook_content_count(lam, k) -> int:
    """Number of semistandard tableaux of straight shape lam with entries
    <= k, via the hook content formula s_lam(1^k)."""
    lam = tuple(lam)
    if len(lam) > k:
        return 0
    num = Fraction(1)
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            num *= Fraction(k + j - i, hook)
    assert num.denominator == 1
    return int(num)


def fraction_rank(mat) -> int:
    """Rank of an integer matrix by Gaussian elimination over Fraction.

    Kept separate from the library's fraction-free elimination so rank
    claims are checked by a second, unrelated routine.
    """
    m = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / inv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


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
