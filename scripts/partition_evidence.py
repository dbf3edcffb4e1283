"""Evidence that orbit tables do not depend on the directed partition.

Sweeps every orbit of D4 inbound (1->4<-2, 3->4) with dimension entries
up to 3, of D4 outbound (1<-4->2, 4->3), D4 mixed (1->2->3, 2->4) and E6
up to 2, of E7 up to 1, of A3 inbound (1->2<-3) and outbound (1<-2->3) up
to 4, and of A4 mixed (1->2<-3->4) up to 2.  Each orbit's table is
computed twice: from the default partition, and from the other of the two
greedy ones.  On D and E the default is the greedy directed partition of
the orbit's support and the other that of all positive roots; in type A
it is the other way round.  Per quiver it prints how many orbits got a
different resolution pair, how many full tables agree, and how many
tables pass the alternating-sign and lowest-degree-equals-codim checks.
Exit status 1 if any table disagrees or fails a check, 2 on a bad
--max-dim.

    python scripts/partition_evidence.py              # about 14 s
    python scripts/partition_evidence.py --max-dim 1  # every cap at most 1
"""

import argparse
import sys
import time

from quivergk.engine import caveat_for, quiver_coefficients, sweep
from quivergk.gamma import min_degree
from quivergk.quiver import Quiver, QuiverError, positive_roots
from quivergk.resolution import directed_partition, resolution_pair

CORPUS = [
    ("D4 inbound", Quiver(4, ((1, 4), (2, 4), (3, 4))), 3),
    ("D4 outbound", Quiver(4, ((4, 1), (4, 2), (4, 3))), 2),
    ("D4 mixed", Quiver(4, ((1, 2), (2, 3), (2, 4))), 2),
    ("E6", Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))), 2),
    ("E7", Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))), 1),
    ("A3 inbound", Quiver(3, ((1, 2), (3, 2))), 4),
    ("A3 outbound", Quiver(3, ((2, 1), (2, 3))), 4),
    ("A4 mixed", Quiver(4, ((1, 2), (3, 2), (3, 4))), 2),
]


def report(name, quiver, max_dim):
    t0 = time.monotonic()
    type_a = caveat_for(quiver) is None
    all_roots = None if type_a else directed_partition(quiver, positive_roots(quiver))
    count = moved = equal = checked = 0
    for table, sign_failure in sweep(quiver, max_dim, "signs"):
        orbit = table.orbit
        dp = all_roots or directed_partition(quiver, orbit.support)
        other = quiver_coefficients(quiver, orbit.dim, orbit, dp=dp)
        count += 1
        moved += resolution_pair(quiver, orbit) != resolution_pair(quiver, orbit, dp)
        equal += other.tensor == table.tensor and other.codim == table.codim
        checked += sign_failure is None and min_degree(table.tensor) == table.codim
    dt = time.monotonic() - t0
    print(
        f"{name} (max-dim {max_dim}): {count} orbits, {moved} with a different pair, "
        f"{equal} full tables equal, {checked} pass signs and lowest degree, {dt:.2f}s"
    )
    return equal == checked == count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=None, help="lower every cap to at most this")
    args = parser.parse_args()

    ok = True
    try:
        for name, quiver, cap in CORPUS:
            ok &= report(name, quiver, cap if args.max_dim is None else min(cap, args.max_dim))
    except QuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
