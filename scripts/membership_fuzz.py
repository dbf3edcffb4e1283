"""Fuzz orbit-closure membership on the inbound three-vertex quiver.

For every orbit with dimension entries <= MAX_DIM, throw SAMPLES random
integer representations at the hom-dimension membership test and at the
three defining rank inequalities

    rank(phi1) <= m12 + m13
    rank(phi3) <= m23 + m13
    rank([phi1 phi3]) <= m12 + m23 + m13

and complain about any point where the two answers differ.  Exit status
1 on a disagreement, 2 on a negative or non-integer argument.  Usage:

    python scripts/membership_fuzz.py [MAX_DIM] [SAMPLES] [SEED]
"""

import itertools
import random
import sys
import time
from fractions import Fraction

from quivergk.oracle_a3 import INBOUND, mults_from_orbit
from quivergk.quiver import QuiverError, QuiverRep, in_orbit_closure, orbits


def rank(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def main(argv):
    try:
        given = [int(a) for a in argv[1:4]]
        max_dim, samples, seed = given + [3, 100, 1153][len(given) :]
        if samples < 0:
            raise QuiverError(f"negative samples {samples}")
        if max_dim < 0:
            raise QuiverError(f"negative max_dim {max_dim}")
    except ValueError as exc:  # int() and QuiverError alike: a bad argument
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dims = itertools.product(range(max_dim + 1), repeat=3)
    found = [mults_from_orbit(orbit) for e in dims for orbit in orbits(INBOUND, e)]
    # sorted by (m11, m12, m13, m22, m23, m33): the random points follow this order
    found.sort(key=lambda m: tuple(m.as_dict().values()))
    rng = random.Random(seed)
    t0 = time.monotonic()
    points = members = bad = 0
    for m in found:
        e1, e2, e3 = m.dim
        spec = m.orbit()
        for k in range(samples):
            lo, hi = (-1, 1) if k % 2 else (-2, 2)
            phi1 = tuple(tuple(rng.randint(lo, hi) for _ in range(e1)) for _ in range(e2))
            phi3 = tuple(tuple(rng.randint(lo, hi) for _ in range(e3)) for _ in range(e2))
            inside = in_orbit_closure(INBOUND, QuiverRep(m.dim, (phi1, phi3)), spec)
            by_rank = (
                rank(phi1) <= m.m12 + m.m13
                and rank(phi3) <= m.m23 + m.m13
                and rank([a + b for a, b in zip(phi1, phi3)]) <= m.m12 + m.m23 + m.m13
            )
            points += 1
            members += inside
            if inside != by_rank:
                bad += 1
                print(f"DISAGREE {m} phi1={phi1} phi3={phi3} hom={inside} rank={by_rank}")
    dt = time.monotonic() - t0
    print(
        f"{len(found)} orbits, {points} points, {members} members, "
        f"{bad} disagreements, {dt:.1f}s"
    )
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
