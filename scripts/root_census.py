"""Positive-root census across the simply laced Dynkin families.

Prints the root count and enumeration time for A_n, D_n and E_n members,
checks every root against the Tits form, and compares the counts to the
classical closed forms: n(n+1)/2 for A_n, n(n-1) for D_n, 36/63/120 for
E6/E7/E8.  Exit status 1 if any count or root is wrong, 2 on a --max-a
below 1 or a --max-d below 4, which would skip a whole family.
"""

import argparse
import sys
import time

from quivergk.quiver import Quiver, positive_roots, tits_form


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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-a", type=int, default=8)
    parser.add_argument("--max-d", type=int, default=8)
    args = parser.parse_args()
    for flag, value, least in (("--max-a", args.max_a, 1), ("--max-d", args.max_d, 4)):
        if value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 2

    ok = True
    for n in range(1, args.max_a + 1):
        ok &= census(f"A{n}", path(n), n * (n + 1) // 2)
    for n in range(4, args.max_d + 1):
        ok &= census(f"D{n}", d_type(n), n * (n - 1))
    for n, count in [(6, 36), (7, 63), (8, 120)]:
        ok &= census(f"E{n}", e_type(n), count)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
