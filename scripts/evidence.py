"""Run every check on each swept orbit's one table, and compare the tables' digests.

Sweeps each corpus below: every orbit whose dimension entries are at most the corpus's cap.
Each orbit's default table is computed once.  On it the runner checks the alternating signs,
that the lowest degree is the codim, that the other greedy directed partition gives the same
full table and codim (on D and E the default is the greedy partition of the orbit's support and
the other that of all positive roots; in type A the other way round), and on the two A3
orientations the closed-form table.  It digests each orbit's mults, codim and sorted terms with
SHA-256, one digest per dimension vector, and compares them with tests/golden/digests.json.
Exit status 1 if a check fails or a digest differs, 2 on a bad --max-dim.

    python scripts/evidence.py              # the caps below
    python scripts/evidence.py --max-dim 1  # every cap at most 1
    python scripts/evidence.py --write      # store the digests instead of comparing them
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from quivergk.engine import SUITES, _check_codim, _check_oracle, _oracle_reference, coefficients, sweep
from quivergk.oracle_a3 import INBOUND, OUTBOUND
from quivergk.quiver import Quiver, QuiverError
from quivergk.resolution import directed_partition, resolution_pair

DIGESTS = Path(__file__).resolve().parents[1] / "tests" / "golden" / "digests.json"
CORPUS = [
    ("A3 inbound", INBOUND, 5),
    ("A3 outbound", OUTBOUND, 5),
    ("A4 mixed", Quiver(4, ((1, 2), (3, 2), (3, 4))), 3),
    ("D4 inbound", Quiver(4, ((1, 4), (2, 4), (3, 4))), 3),
    ("D4 outbound", Quiver(4, ((4, 1), (4, 2), (4, 3))), 3),
    ("D4 mixed", Quiver(4, ((1, 2), (2, 3), (2, 4))), 3),
    ("D5", Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5))), 2),
    ("E6", Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))), 2),
    ("E7", Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))), 1),
]


def report(name, q, cap, expected):
    """Sweep ``q`` up to ``cap``, print a line and each failure, and return whether every check
    passed and every digest equals its entry in ``expected`` (vector -> digest; None compares
    nothing), with the digests the sweep made."""
    t0 = time.process_time()
    oracle = _oracle_reference(q) if q in (INBOUND, OUTBOUND) else None
    all_roots = SUITES["independence"][0](q)  # the suite's setup: all roots' partition on D/E, else None
    hashes, failures = {}, []
    count = terms = moved = 0
    for table, sign_failure in sweep(q, cap, "signs"):
        orbit = table.orbit
        pair = resolution_pair(q, orbit, all_roots or directed_partition(q, orbit.support))
        other, other_codim = coefficients(q, orbit.dim, pair)
        count += 1
        terms += len(table.tensor.terms)
        moved += pair != resolution_pair(q, orbit)
        verdicts = {
            "signs": sign_failure is None,
            "codim": _check_codim(table, None) is None,
            "partition": other == table.tensor and other_codim == table.codim,
            "oracle": oracle is None or _check_oracle(table, oracle) is None,
        }
        failures += [(check, orbit) for check, ok in verdicts.items() if not ok]
        record = repr((orbit.mults, table.codim, sorted(table.tensor.terms.items()))).encode()
        hashes.setdefault(str(orbit.dim), hashlib.sha256()).update(record)
    digests = {e: h.hexdigest()[:16] for e, h in hashes.items()}
    differ = None if expected is None else next((e for e in digests if expected.get(e) != digests[e]), None)
    checks = "signs, codim, partition" + (", oracle" if oracle else "")
    print(
        f"{name} (max-dim {cap}): {count} orbits, {terms} terms, {moved} with a different pair, "
        f"{len(failures)} failures of {checks}, digests "
        f"{'written' if expected is None else 'match' if differ is None else 'differ'}, "
        f"{time.process_time() - t0:.2f}s"
    )
    for check, orbit in failures:
        print(f"  FAIL {check} {json.dumps({'dim': orbit.dim, 'mults': orbit.mults})}")
    if differ:
        print(f"  DIGEST {name} {differ}: {digests[differ]}, expected {expected.get(differ)}")
    return not failures and differ is None, digests


def run(max_dim, expected):
    """Report every corpus, each cap lowered to ``max_dim`` unless it is None, against
    ``expected`` (corpus -> vector -> digest; None compares nothing); return whether all passed,
    and the digests per corpus."""
    ok, swept = True, {}
    for name, q, cap in CORPUS:
        cap = cap if max_dim is None else min(cap, max_dim)
        passed, swept[name] = report(name, q, cap, None if expected is None else expected.get(name, {}))
        ok &= passed
    return ok, swept


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=None, help="lower every cap to at most this")
    parser.add_argument("--write", action="store_true", help=f"store the digests in {DIGESTS.name}")
    args = parser.parse_args()

    expected = json.loads(DIGESTS.read_text())
    try:
        ok, swept = run(args.max_dim, None if args.write else expected)
    except QuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write and ok:  # a vector past a lowered cap keeps its stored digest
        for name, digests in swept.items():
            expected.setdefault(name, {}).update(digests)
        DIGESTS.write_text(json.dumps(expected, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
