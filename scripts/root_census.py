"""Positive-root census across the simply laced Dynkin families.

Prints the root count and enumeration time for A1-A8, D4-D8 and E6-E8,
checks every root against the Tits form, and compares the counts to the
classical closed forms: n(n+1)/2 for A_n, n(n-1) for D_n, 36/63/120 for
E6/E7/E8.  Exit status 1 if any count or root is wrong.  It takes no
option but --help:

    python scripts/root_census.py
"""

import argparse
import sys
import time

from quivergk.quiver import Quiver, positive_roots, tits_form

MAX_A = MAX_D = 8


def path(n):
    return Quiver(n, tuple((i, i + 1) for i in range(1, n)))


def d_type(n):
    # path on 1..n-1 with the extra node n attached to vertex n-2
    arrows = tuple((i, i + 1) for i in range(1, n - 1)) + ((n - 2, n),)
    return Quiver(n, arrows)


def e_type(n):
    arrows = tuple((i, i + 1) for i in range(1, n - 1)) + ((3, n),)
    return Quiver(n, arrows)


def census(label, q, expected):
    t0 = time.monotonic()
    roots = positive_roots(q)
    dt = time.monotonic() - t0
    bad = [r for r in roots if tits_form(q, r) != 1]
    status = "ok" if (len(roots) == expected and not bad) else "FAIL"
    print(f"{label:>4}  {len(roots):4d} roots  expected {expected:4d}  {1e3 * dt:8.2f} ms  {status}")
    return status == "ok"


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    ok = True
    for n in range(1, MAX_A + 1):
        ok &= census(f"A{n}", path(n), n * (n + 1) // 2)
    for n in range(4, MAX_D + 1):
        ok &= census(f"D{n}", d_type(n), n * (n - 1))
    for n, count in [(6, 36), (7, 63), (8, 120)]:
        ok &= census(f"E{n}", e_type(n), count)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
