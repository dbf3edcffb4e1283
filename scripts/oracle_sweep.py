"""Sweep the engine against the closed-form three-vertex tables.

Enumerates every orbit of the inbound (1->2<-3) and outbound (1<-2->3)
orientations with dimension entries up to --max-dim, computes the
coefficient table twice (operator engine, closed form) and reports
timing plus any mismatches.  Exit status 1 if anything disagrees, 2 on
a bad --max-dim.

    python scripts/oracle_sweep.py --max-dim 3
"""

import argparse
import json
import sys
import time

from quivergk.engine import sweep
from quivergk.oracle_a3 import INBOUND, OUTBOUND
from quivergk.quiver import QuiverError


def report(name, quiver, max_dim):
    t0 = time.monotonic()
    count = terms = 0
    mismatches = []
    for table, failure in sweep(quiver, max_dim, "oracle-a3"):
        count += 1
        terms += len(table.tensor.terms)
        if failure:
            mismatches.append(failure["orbit"])
    dt = time.monotonic() - t0
    print(f"{name}: {count} orbits, {terms} terms, {len(mismatches)} mismatches, {dt:.2f}s")
    for orbit in mismatches:
        print(f"  MISMATCH {json.dumps(orbit)}")
    return not mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=3)
    args = parser.parse_args()

    try:
        ok = report("inbound ", INBOUND, args.max_dim)
        ok &= report("outbound", OUTBOUND, args.max_dim)
    except QuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
