"""The bialgebra of stable Grothendieck classes.

Elements are finite integer combinations of pure tensors of basis
classes indexed by partitions: one ``TensorElement`` type for every
arity, a ring element being the arity-1 case keyed by ``(lam,)``.  Only
the public constructor normalises and merges keys; everything built
inside the package goes through ``_trusted``, each result dropping its
zero coefficients once, when it is built.

Structure constants (products and coproducts) are computed by one
shared enumerator over set-valued fillings of a partition whose reading
word, with a fixed partition word appended, satisfies the reverse
lattice condition.  The enumerator walks boxes in reversed reading order
and keeps three pieces of state: the letter counts, which check the
lattice condition letter by letter and give Buch's row bound (a letter
in row r is at most r + len(tail), for the appended partition tail); the
per-column maxima, which keep columns strict; and the right neighbour's
minimum, passed down to bound a box's entries.  A coproduct is read off
the product of ``nu`` with the rectangle around it: the ring is
commutative, so the walk fills ``nu`` and appends the rectangle's word.
``coproduct(nu, m)`` builds only the terms whose second factor has at
most m rows, the factor the engine multiplies into its row-bounded
working slot, by appending the word of the m-row rectangle instead:
columns are strict, so no letter outgrows the rectangle's width and the
walk needs no cap (``coproduct`` says why).

Raising-operator sequences (arbitrary integer tuples) are straightened
into the partition basis by ``straighten``, which inserts the entries
from right to left, each in front of an already straightened tail, so
only the front pair can ascend; insertions nest at most (value range + 1)
deep and are memoised for one call.  Like the coproducts, a
straightening is memoised per input sequence and shared by every caller.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache, lru_cache, wraps

from .partitions import Partition, QuiverError, instance, integers, normalize, sequence

_BIG = 1 << 30

TensorKey = tuple[Partition, ...]


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
            raise QuiverError(f"negative arity {arity}")
        clean: dict[TensorKey, int] = {}
        for key, c in ({} if terms is None else instance(terms, dict)).items():
            key = sequence(key, self.arity)
            (c,) = integers((c,))
            if c:
                key = tuple(normalize(part) for part in key)
                clean[key] = clean.get(key, 0) + c
        self.terms = {k: v for k, v in clean.items() if v}

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
        (arity,) = integers((arity,))
        if arity < 0:
            raise QuiverError(f"negative arity {arity}")
        return TensorElement._trusted(arity, {((),) * arity: 1})

    def sorted_terms(self) -> list[tuple[TensorKey, int]]:
        return sorted(self.terms.items(), key=lambda kv: (key_degree(kv[0]), kv[0]))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if self.arity != instance(other, TensorElement).arity:
            raise QuiverError("arity mismatch")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return TensorElement._trusted(self.arity, {k: v for k, v in out.items() if v})

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-1) * other

    def __rmul__(self, scalar: int) -> "TensorElement":
        (scalar,) = integers((scalar,))
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


def _lattice_walk(shape: Partition, tail: Partition) -> dict[tuple[int, ...], int]:
    """Count set-valued fillings of the partition ``shape`` by word content.

    Boxes are visited in reversed reading order (top row first, right to
    left, set elements decreasing), with the word of ``tail`` counted as
    placed first.  The walk keeps three pieces of state.  The letter
    counts: v can be placed only while the letters so far (the suffix of
    the final word) hold more copies of v-1 than of v, the reverse lattice
    condition, so a letter in row r is at most r + len(tail), each copy of
    v-1 before v sitting in the tail or in a row above.  The per-column
    maxima: a box's entries exceed the largest entry of the box above it.
    The right neighbour's minimum, passed down: it bounds a box's largest
    entry, and a row's first box starts at r + len(tail).

    Returns {content: count} over the full word (tail included).
    """
    boxes = []  # (column, bound of its largest entry), 0 taking the right neighbour's minimum
    for top, row in enumerate(shape, len(tail) + 1):
        boxes += [(row, top)] + [(c, 0) for c in range(row - 1, 0, -1)]
    # counts[0] = _BIG lets letter 1 pass the lattice test
    counts = [_BIG, *tail] + [0] * (len(shape) + 1)
    colmax = [0] * (shape[0] + 1 if shape else 1)  # largest entry of the lowest box placed
    acc: dict[tuple[int, ...], int] = {}

    # bi counts the boxes left: boxes[-bi] is the next one, and 0 closes a filling
    def grow(bi: int, lo: int, last: int) -> None:
        # box bi currently ends with element `last`; close it or extend down
        advance(bi - 1, last)
        for v in range(last - 1, lo, -1):
            if counts[v - 1] <= counts[v]:
                continue
            counts[v] += 1
            grow(bi, lo, v)
            counts[v] -= 1

    def advance(bi: int, bound: int) -> None:
        if not bi:
            t = tuple(counts)
            acc[t] = acc.get(t, 0) + 1
            return
        c, start = boxes[-bi]
        lo = colmax[c]
        for v in range(start or bound, lo, -1):
            if counts[v - 1] <= counts[v]:
                continue
            counts[v] += 1
            colmax[c] = v
            grow(bi, lo, v)
            counts[v] -= 1
        colmax[c] = lo

    try:  # about two frames per box, so some 490 boxes fill the interpreter's default stack
        advance(len(boxes), 0)
    except RecursionError:
        raise QuiverError(f"a walk over {len(boxes)} boxes overflows the interpreter's stack") from None
    # trimmed once per content; a lattice word's content is a partition, zeros last
    return {t[1 : len(t) - t.count(0)]: n for t, n in acc.items()}


# ---------------------------------------------------------------------------
# structure constants


def _memo(fn):
    """``fn`` under an unbounded memo, typed, so a float argument misses and reaches ``fn``'s
    integer check.  The memo hashes the arguments before ``fn`` reads them, so a call it cannot
    hash, a partition given as a list, set or dict, is retried with each iterable argument read
    through ``integers``, as ``normalize`` reads it.  ``cache_info`` and ``cache_clear`` are kept."""
    memo = lru_cache(maxsize=None, typed=True)(fn)

    @wraps(fn)
    def lookup(*args, **kwargs):
        try:
            return memo(*args, **kwargs)
        except TypeError:  # unhashable: fn itself raises QuiverError on bad input
            args = [integers(a) if isinstance(a, Iterable) else a for a in args]
            kwargs = {k: integers(a) if isinstance(a, Iterable) else a for k, a in kwargs.items()}
            return memo(*args, **kwargs)

    lookup.cache_info, lookup.cache_clear = memo.cache_info, memo.cache_clear
    return lookup


@_memo
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
    return tuple((nu, -n if (sum(nu) - base) & 1 else n) for nu, n in hits.items())


def mul(a: TensorElement, b: TensorElement) -> TensorElement:
    """Product of two ring elements (arity-1 tensors) in the basis of
    stable classes."""
    for x in (a, b):
        if instance(x, TensorElement).arity != 1:
            raise QuiverError(f"ring element expected, got arity {x.arity}")
    out: dict[TensorKey, int] = {}
    for (lam,), c in a.terms.items():
        for (mu,), d in b.terms.items():
            for nu, cc in _mul_basis(lam, mu):
                out[(nu,)] = out.get((nu,), 0) + c * d * cc
    return TensorElement._trusted(1, {k: v for k, v in out.items() if v})


@_memo
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
    most m rows are kept, and the walk appends the word (q,) * m of the
    m x q rectangle in place of R's (m = p by default).  Against R, mu
    has at most m rows exactly when the filling holds no letter m+1
    (rho_{m+1} = q + mu_{m+1} stays at q), and then none of m+2..p.  A
    letter takes at most one box per column of ``nu``, so the filling
    holds at most q copies of it; letter p+1 against R, like letter m+1
    against q^m, therefore always passes its lattice test (the letter
    before it has at least q copies, it has at most q - 1 before a
    placement).  Relabelling p+k as m+k thus maps those fillings against
    R one-to-one onto all the fillings against q^m.  It keeps the
    contents up to the dropped rows (q,) * (p - m), the row bound
    r + len(tail), column strictness and the signs.
    """
    nu = normalize(nu)
    p = len(nu)
    q = nu[0] if nu else 0
    if max_rows is not None and integers((max_rows,))[0] < 0:
        raise QuiverError(f"negative max_rows {max_rows}")
    m = p if max_rows is None else min(max_rows, p)
    hits = _lattice_walk(nu, (q,) * m)
    # every content is a term of the product of q^m and nu, so it contains
    # q^m and reads rho = (q + mu, lam); that determines (lam, mu), so no
    # two contents meet in one key and every count stays non-zero
    base = m * q + sum(nu)
    return TensorElement._trusted(2, {
        (rho[m:], tuple([x - q for x in rho[:m] if x > q])): -n if (sum(rho) - base) & 1 else n
        for rho, n in hits.items()
    })


@_memo
def coproduct_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Coefficient of the pure tensor (lam, mu) in the memoised ``coproduct(nu)``."""
    return coproduct(normalize(nu)).terms.get((normalize(lam), normalize(mu)), 0)


@_memo
def coproduct2(nu: Partition) -> TensorElement:
    """Twice-iterated coproduct, an arity-3 tensor (coassociative, so the
    side of iteration is immaterial)."""
    out: dict[TensorKey, int] = {}
    for (kappa, m3), c1 in coproduct(normalize(nu)).terms.items():
        for (m1, m2), c2 in coproduct(kappa).terms.items():
            out[(m1, m2, m3)] = out.get((m1, m2, m3), 0) + c1 * c2
    return TensorElement._trusted(3, {k: v for k, v in out.items() if v})


# ---------------------------------------------------------------------------
# straightening of integer sequences


_straighten_cache: dict[tuple[int, ...], TensorElement] = {}


def straighten(seq: Iterable[int]) -> TensorElement:
    """Rewrite the class of an arbitrary integer sequence into the basis,
    by the law at an ascent p < q of adjacent entries

        G[..., p, q, ...] = sum(G[..., q, k, ...] for k in p+1..q)
                          - sum(G[..., q-1, k, ...] for k in p+1..q-1),

    dropping a trailing negative entry; a partition is its own class.

    The entries are inserted from right to left, each in front of the
    straightened tail, a combination of partitions mu, so only the front
    can ascend.  Inserting a is final when mu is empty or a >= mu_1; else
    the law inserts each k into mu_2... and then mu_1 (or mu_1 - 1) in
    front.  Every nested insertion raises the front entry, never above
    max(seq), so they nest at most (value range + 1) deep, whatever the
    length.  The insertions are memoised for one call; the input sequence
    is memoised across calls and its element returned itself, shared as
    ``coproduct``'s is.
    """
    seq = integers(seq)
    if seq in _straighten_cache:
        return _straighten_cache[seq]
    memo: dict[tuple[int, Partition], dict[Partition, int]] = {}

    def insert(a: int, mu: Partition) -> dict[Partition, int]:
        if not mu or a >= mu[0]:
            return {(a,) + mu if a > 0 else mu: 1}
        out = memo.get((a, mu))
        if out is None:
            out = {}
            q = mu[0]
            for k in range(a + 1, q + 1):
                for nu, c in insert(k, mu[1:]).items():
                    head = (q,) + nu  # nu_1 <= q: final
                    out[head] = out.get(head, 0) + c
                    if k < q:
                        for lam, d in insert(q - 1, nu).items():
                            out[lam] = out.get(lam, 0) - c * d
            out = memo[a, mu] = {k: v for k, v in out.items() if v}
        return out

    tail: dict[Partition, int] = {(): 1}
    for a in reversed(seq):
        placed: dict[Partition, int] = {}
        for mu, c in tail.items():
            for lam, d in insert(a, mu).items():
                placed[lam] = placed.get(lam, 0) + c * d
        tail = {k: v for k, v in placed.items() if v}
    _straighten_cache[seq] = TensorElement._trusted(1, {(lam,): c for lam, c in tail.items()})
    return _straighten_cache[seq]


# ---------------------------------------------------------------------------
# tensor utilities


def append_unit(p: TensorElement) -> TensorElement:
    """Extend a tensor by one unit slot on the right."""
    terms = instance(p, TensorElement).terms
    return TensorElement._trusted(p.arity + 1, {key + ((),): c for key, c in terms.items()})


def key_degree(key: TensorKey) -> int:
    try:
        return sum(map(sum, key))
    except TypeError as exc:
        raise QuiverError(f"not a tensor key: {exc}") from None


def project_degree(p: TensorElement, d: int) -> TensorElement:
    """The exact-degree-``d`` slice of a tensor."""
    (d,) = integers((d,))
    terms = instance(p, TensorElement).terms
    return TensorElement._trusted(p.arity, {key: c for key, c in terms.items() if key_degree(key) == d})


def min_degree(p: TensorElement) -> int | None:
    """Smallest total degree present, or None for the zero tensor."""
    if not instance(p, TensorElement).terms:
        return None
    return min(key_degree(key) for key in p.terms)
