"""The bialgebra of stable Grothendieck classes.

Elements are finite integer combinations of pure tensors of basis
classes indexed by partitions: one ``TensorElement`` type for every
arity, a ring element being the arity-1 case keyed by ``(lam,)``.  Only
the public constructor normalises and merges keys; everything built
inside the package goes through ``_trusted``, with zero coefficients
dropped as they arise.

Structure constants (products and coproducts) are computed by one
shared enumerator over set-valued fillings of a partition whose reading
word, with a fixed partition word appended, satisfies the reverse
lattice condition.  The enumerator walks boxes in reversed reading order
so the lattice condition can be checked letter by letter, and it builds
in Buch's row bound: a letter in row r is at most r + len(tail), for the
appended partition tail.  A coproduct is read off the product of ``nu``
with the rectangle around it.  The ring is commutative, so Buch's rule
counts that product with either factor filled; the walk fills ``nu`` and
appends the rectangle's word, whose letters start at their full counts.
A per-letter count cap then prunes the walk: ``coproduct(nu, m)`` builds
only the terms whose second factor has at most m rows, the factor the
engine multiplies into its row-bounded working slot.  Under the cap the
filling never holds letters m+1..p (``coproduct`` says why), which cuts
most of the walk's branches.

Raising-operator sequences (arbitrary integer tuples) are straightened
into the partition basis by ``straighten``, in one ordered pass with no
recursion and no depth bound.  Every rewrite either shortens a sequence
or raises one entry while keeping the entries before it and the range of
values, so finitely many sequences are reachable and each one sorts after
the sequence it came from; popping them in that order meets each once.
Like the coproducts, a straightening is memoised per input sequence and
the memoised element itself is returned, shared by every caller.
"""

from __future__ import annotations

import heapq
from functools import cache, lru_cache
from typing import Iterable

from .partitions import Partition, integers, normalize

_BIG = 1 << 30

TensorKey = tuple[Partition, ...]


def _add_term(out: dict[TensorKey, int], key: TensorKey, c: int) -> None:
    """Add ``c`` to ``out[key]``, dropping the key when it reaches zero."""
    val = out.get(key, 0) + c
    if val:
        out[key] = val
    elif key in out:
        del out[key]


class TensorElement:
    """Integer combination of pure tensors of basis classes.

    ``arity`` is the number of tensor slots; keys are tuples of
    partitions of that length.  Ring elements are the arity-1 tensors.
    Elements are never mutated after construction, so the memoised ones
    (``coproduct``, ``straighten``) can be shared.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict[TensorKey, int] | None = None):
        (self.arity,) = integers((arity,))
        if self.arity < 0:
            raise ValueError(f"negative arity {arity}")
        clean: dict[TensorKey, int] = {}
        for key, c in (terms or {}).items():
            if len(key) != arity:
                raise ValueError(f"key {key} does not match arity {arity}")
            if c:
                _add_term(clean, tuple(normalize(part) for part in key), c)
        self.terms = clean

    @classmethod
    def _trusted(cls, arity: int, terms: dict[TensorKey, int]) -> "TensorElement":
        """Wrap ``terms`` as is: every key of length ``arity`` made of
        normal partitions, and every coefficient non-zero."""
        self = object.__new__(cls)
        self.arity = arity
        self.terms = terms
        return self

    @staticmethod
    def unit(arity: int) -> "TensorElement":
        return TensorElement._trusted(arity, {((),) * arity: 1})

    def sorted_terms(self) -> list[tuple[TensorKey, int]]:
        return sorted(self.terms.items(), key=lambda kv: (key_degree(kv[0]), kv[0]))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        out = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(out, key, c)
        return TensorElement._trusted(self.arity, out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "TensorElement":
        terms = {k: scalar * c for k, c in self.terms.items()} if scalar else {}
        return TensorElement._trusted(self.arity, terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"0[arity {self.arity}]"
        bits = []
        for key, c in self.sorted_terms():
            slot = "(x)".join(f"G{list(p)}" for p in key)
            bits.append(f"{c}*{slot}")
        return " + ".join(bits).replace("+ -", "- ")


def basis(lam: Iterable[int]) -> TensorElement:
    """The ring element of one basis class, as an arity-1 tensor."""
    return TensorElement._trusted(1, {(normalize(lam),): 1})


# ---------------------------------------------------------------------------
# the shared enumerator


def _lattice_walk(
    shape: Partition,
    tail: Partition,
    letter_cap: tuple[int, int] | None = None,
) -> dict[tuple[int, ...], int]:
    """Count set-valued fillings of the partition ``shape`` by word content.

    Boxes are visited in reversed reading order (top row first, right to
    left, set elements decreasing); the fixed word of ``tail`` is treated
    as already placed.  A letter v can only be placed while the letters
    placed so far (the suffix of the final word) contain strictly more
    copies of v-1 than of v, which is exactly the reverse lattice
    condition.  So a letter in row r is at most r + len(tail): a copy of
    v-1 placed before v sits in the tail or in a row above it.

    Returns {content: count} over the full word (tail included).
    ``letter_cap = (v, k)`` drops every word with more than k copies of
    v; counts only grow, so the walk stops as soon as a placement would
    exceed it.  The tail's copies count from the start: if the tail
    already holds k copies of v, letter v is never placed, and then
    neither are v+1, v+2, ... while each has as many tail copies as the
    letter before it, since it would need strictly more copies of that
    letter.
    """
    nrows = len(shape)
    boxes = [(r, c) for r in range(1, nrows + 1) for c in range(shape[r - 1], 0, -1)]
    nboxes = len(boxes)
    ltail = len(tail)

    # limit[v] bounds the copies of letter v; counts[0] = _BIG lets letter 1
    # pass the lattice test
    counts = [_BIG, *tail] + [0] * (nrows + 1)
    limit = [_BIG] * len(counts)
    if letter_cap is not None:
        v, k = letter_cap
        limit[v] = k

    maxcol = shape[0] if shape else 0
    maxgrid = [[0] * (maxcol + 2) for _ in range(nrows + 2)]
    mingrid = [[_BIG] * (maxcol + 2) for _ in range(nrows + 2)]

    acc: dict[tuple[int, ...], int] = {}

    def record() -> None:
        t = tuple(counts)
        acc[t] = acc.get(t, 0) + 1

    def grow(bi: int, r: int, c: int, lo: int, last: int) -> None:
        # box bi currently ends with element `last`; close it or extend down
        mingrid[r][c] = last
        advance(bi + 1)
        for v in range(last - 1, lo, -1):
            if counts[v - 1] <= counts[v] or counts[v] >= limit[v]:
                continue
            counts[v] += 1
            grow(bi, r, c, lo, v)
            counts[v] -= 1

    def advance(bi: int) -> None:
        if bi == nboxes:
            record()
            return
        r, c = boxes[bi]
        lo = maxgrid[r - 1][c]
        hi = mingrid[r][c + 1]
        if hi > r + ltail:
            hi = r + ltail
        for v in range(hi, lo, -1):
            if counts[v - 1] <= counts[v] or counts[v] >= limit[v]:
                continue
            counts[v] += 1
            maxgrid[r][c] = v
            grow(bi, r, c, lo, v)
            counts[v] -= 1

    advance(0)
    # trimmed once per content; a lattice word's content is a partition, zeros last
    return {t[1 : len(t) - t.count(0)]: n for t, n in acc.items()}


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


# ---------------------------------------------------------------------------
# structure constants


@cache
def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Structure constant of the basis product: coefficient of ``nu``
    in the product of the classes of ``lam`` and ``mu``.

    Counts set-valued tableaux of shape ``lam`` whose word, extended by
    the partition word of ``mu``, is reverse lattice with content ``nu``,
    signed by (-1)^(|nu| - |lam| - |mu|) (Buch's rule).  The product is a
    finite sum, so it is read off the full signed expansion
    ``_mul_basis(lam, mu)``: one walk per factor pair answers every ``nu``.
    """
    return dict(_mul_basis(normalize(lam), normalize(mu))).get(normalize(nu), 0)


@cache
def _mul_basis(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """Full expansion of a basis product, as (partition, coeff) pairs."""
    hits = _lattice_walk(lam, mu)
    base = sum(lam) + sum(mu)
    return tuple((nu, _sign(sum(nu) - base) * n) for nu, n in hits.items())


def mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Product of two ring elements (arity-1 tensors) in the basis of
    stable classes."""
    if a.arity != 1:
        raise ValueError(f"ring element expected, got arity {a.arity}")
    return tensor_mul_at(a, 1, b)


@lru_cache(maxsize=None, typed=True)  # typed: a float max_rows misses and reaches the int check
def coproduct(nu: Partition, max_rows: int | None = None) -> TensorElement:
    """Coproduct of a basis class, as an arity-2 tensor.

    Read off one product: with R = p x q the tightest rectangle around
    ``nu``, the (lam, mu) component is the coefficient of
    rho = (q + mu, lam) in the product of R and ``nu``.  The ring is
    commutative, so Buch's rule counts that coefficient with either
    factor as the filled shape; the walk fills ``nu`` (|nu| boxes, not
    pq) and appends R's word (q,) * p, so each letter 1..p starts at q
    copies.

    With ``max_rows`` = m set, only the components whose ``mu`` has at
    most m rows are kept.  Since rho_{m+1} = q + mu_{m+1} must not fall
    below q, mu has at most m rows exactly when letter m+1 appears at
    most q times, so the walk caps that letter at q.  R's word already
    holds those q copies, so the filling never places letter m+1, nor any
    letter m+2..p (each would need more than q copies of the letter
    before it).
    The default m = p is the same cap on letter p+1 that keeps ``lam``
    inside the rectangle.
    """
    nu = normalize(nu)
    p = len(nu)
    q = nu[0] if nu else 0
    if max_rows is not None and integers((max_rows,))[0] < 0:
        raise ValueError(f"negative max_rows {max_rows}")
    m = p if max_rows is None else min(max_rows, p)
    hits = _lattice_walk(nu, (q,) * p, letter_cap=(m + 1, q))
    # every content is a term of the product of R and nu, so it contains R
    # and reads rho = (q + mu, lam); that determines (lam, mu), so no two
    # contents meet in one key and every count stays non-zero
    base = p * q + sum(nu)
    out: dict[TensorKey, int] = {}
    for rho, n in hits.items():
        mu = tuple(x - q for x in rho[:m] if x > q)
        out[(rho[p:], mu)] = _sign(sum(rho) - base) * n
    return TensorElement._trusted(2, out)


@cache
def coproduct_coeff(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    rect: Partition | None = None,
) -> int:
    """Coefficient of the pure tensor (lam, mu) in the coproduct of nu.

    Evaluated as a single product structure constant against a rectangle
    containing both ``lam`` and ``mu``; the result does not depend on the
    choice of rectangle (which a test pins down by varying it).  The
    walk fills the rectangle with ``nu``'s word appended, the orientation
    ``coproduct`` does not use, so the tests can check each against the
    other.
    """
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if rect is None:
        p = max(len(lam), len(mu))
        q = max(lam[0] if lam else 0, mu[0] if mu else 0)
    else:
        rect = normalize(rect)
        if rect and len(set(rect)) != 1:
            raise ValueError(f"rect must be rectangular, got {rect}")
        p = len(rect)
        q = rect[0] if rect else 0
        if (lam and (len(lam) > p or lam[0] > q)) or (mu and (len(mu) > p or mu[0] > q)):
            raise ValueError(f"rectangle {rect} does not contain {lam} and {mu}")
    padded_mu = tuple(mu) + (0,) * (p - len(mu))
    rho = tuple(q + m for m in padded_mu) + lam
    return lr_coeff((q,) * p, nu, normalize(rho))


@cache
def coproduct2(nu: Partition) -> TensorElement:
    """Twice-iterated coproduct, an arity-3 tensor (coassociative, so the
    side of iteration is immaterial)."""
    out: dict[TensorKey, int] = {}
    for (kappa, m3), c1 in coproduct(normalize(nu)).terms.items():
        for (m1, m2), c2 in coproduct(kappa).terms.items():
            _add_term(out, (m1, m2, m3), c1 * c2)
    return TensorElement._trusted(3, out)


# ---------------------------------------------------------------------------
# straightening of integer sequences


_straighten_cache: dict[tuple[str, tuple[int, ...]], TensorElement] = {}


def straighten(seq: Iterable[int], strategy: str = "leftmost") -> TensorElement:
    """Rewrite the class of an arbitrary integer sequence into the basis.

    Repeatedly resolves an ascent (p, q) at adjacent positions through

        G[..., p, q, ...] = sum(G[..., q, k, ...] for k in p+1..q)
                          - sum(G[..., q-1, k, ...] for k in p+1..q-1)

    drops trailing negative entries, and stops at weakly decreasing
    non-negative sequences.  ``strategy`` picks which ascent to resolve
    first; both choices give the same result (a property the tests
    exercise); the orbit engine uses the default.

    The rewrites run as one ordered pass over a worklist.  Each rewrite
    either shortens a sequence or keeps its length and raises entry t
    (from p to q, or to q-1 > p) while the entries before t stay put, and
    new entries stay inside [min(seq), max(seq)].  So finitely many
    sequences are reachable, and every one sorts after the sequence it
    came from under the key (-length, sequence): popping the smallest key
    first meets each sequence once, with its final coefficient.  No depth
    bound is needed.  The input sequence is memoised, not the rewrites,
    and the memoised element itself is returned and shared, as
    ``coproduct``'s is.
    """
    seq = integers(seq)
    hit = _straighten_cache.get((strategy, seq))
    if hit is not None:
        return hit
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")

    pending = {seq: 1}
    heap = [(-len(seq), seq)]
    out: dict[TensorKey, int] = {}

    def push(s: tuple[int, ...], c: int) -> None:
        if s in pending:
            pending[s] += c
        else:
            pending[s] = c
            heapq.heappush(heap, (-len(s), s))

    while heap:
        s = heapq.heappop(heap)[1]
        c = pending.pop(s)
        if not c:
            continue
        if s and s[-1] < 0:
            push(s[:-1], c)
            continue
        ascents = [t for t in range(len(s) - 1) if s[t] < s[t + 1]]
        if not ascents:
            _add_term(out, (normalize(s),), c)
            continue
        t = ascents[0] if strategy == "leftmost" else ascents[-1]
        p, q = s[t], s[t + 1]
        head, rest = s[:t], s[t + 2 :]
        for k in range(p + 1, q + 1):
            push(head + (q, k) + rest, c)
        for k in range(p + 1, q):
            push(head + (q - 1, k) + rest, -c)

    result = _straighten_cache[(strategy, seq)] = TensorElement._trusted(1, out)
    return result


# ---------------------------------------------------------------------------
# tensor utilities


def tensor_mul_at(p: TensorElement, slot: int, g: TensorElement) -> TensorElement:
    """Multiply tensor slot ``slot`` (1-based) by a ring element (an
    arity-1 tensor)."""
    (slot,) = integers((slot,))
    if not 1 <= slot <= p.arity:
        raise ValueError(f"slot {slot} out of range for arity {p.arity}")
    if g.arity != 1:
        raise ValueError(f"ring element expected, got arity {g.arity}")
    out: dict[TensorKey, int] = {}
    for key, c in p.terms.items():
        for (lam,), cg in g.terms.items():
            for nu, cc in _mul_basis(key[slot - 1], lam):
                _add_term(out, key[: slot - 1] + (nu,) + key[slot:], c * cg * cc)
    return TensorElement._trusted(p.arity, out)


def append_unit(p: TensorElement) -> TensorElement:
    """Extend a tensor by one unit slot on the right."""
    return TensorElement._trusted(p.arity + 1, {key + ((),): c for key, c in p.terms.items()})


def key_degree(key: TensorKey) -> int:
    return sum(sum(part) for part in key)


def project_degree(p: TensorElement, d: int) -> TensorElement:
    """The exact-degree-``d`` slice of a tensor."""
    return TensorElement._trusted(
        p.arity, {key: c for key, c in p.terms.items() if key_degree(key) == d}
    )


def min_degree(p: TensorElement) -> int | None:
    """Smallest total degree present, or None for the zero tensor."""
    if not p.terms:
        return None
    return min(key_degree(key) for key in p.terms)
