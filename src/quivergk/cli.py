"""Command-line toolkit.

Subcommands::

    quivergk roots  QUIVER.json
    quivergk orbits QUIVER.json --dim 1,1,1
    quivergk coeffs QUIVER.json ORBIT.json [--pair auto|PAIR.json]
                    [--format json|table] [--cohomological]
    quivergk check  QUIVER.json --suite signs|oracle-a3|independence|codim
                    [--max-dim K]
    quivergk member QUIVER.json ORBIT.json --rep REP.json

All interchange is JSON with a fixed term order (total degree, then the
key compared slot by slot), so repeated runs are byte-identical.
Exit status: 0 on success or a passing check, 1 on a failing check,
2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence

from .engine import (
    SUITES,
    _orbit_payload,
    _terms_payload,
    caveat_for,
    coefficients,
    quiver_coefficients,
    sweep,
)
from .gamma import TensorElement, project_degree
from .quiver import (
    OrbitSpec,
    Quiver,
    QuiverError,
    QuiverRep,
    check_roots,
    dynkin_type,
    hom_table,
    orbits,
    positive_roots,
)
from .resolution import ResolutionPair


def _read(path: str, what: str, parse: Callable[[object], object]) -> object:
    """``parse`` applied to the JSON in ``path``; an unreadable file, or
    data that ``parse`` rejects, raises ``QuiverError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise QuiverError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise QuiverError(f"bad {what} file {path}: {exc}") from exc


def quiver_from_file(path: str) -> Quiver:
    return _read(path, "quiver", lambda data: Quiver(data["vertices"], data["arrows"]))


def orbit_from_file(path: str, q: Quiver) -> OrbitSpec:
    parse = lambda data: OrbitSpec(data["dim"], [(m["root"], m["m"]) for m in data["mults"]])
    orbit = _read(path, "orbit", parse)
    check_roots(q, orbit.support)
    return orbit


def pair_from_file(path: str) -> ResolutionPair:
    return _read(path, "pair", lambda data: ResolutionPair(data["i"], data["r"]))


def rep_from_file(path: str, dim: tuple[int, ...]) -> QuiverRep:
    return _read(path, "representation", lambda data: QuiverRep(dim, data["matrices"]))


def _emit(payload: object) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _coeffs_payload(tensor: TensorElement, cd: int, caveat: str | None) -> dict:
    return {"codim": cd, "caveat": caveat, "terms": _terms_payload(tensor.sorted_terms())}


def _print_table(tensor: TensorElement, cd: int, caveat: str | None) -> None:
    print(f"codim {cd}" + (f"   [{caveat}]" if caveat else ""))
    rows = [
        (" (x) ".join(str(list(part)) for part in key), str(c))
        for key, c in tensor.sorted_terms()
    ]
    width = max((len(r[0]) for r in rows), default=4)
    print(f"{'mu'.ljust(width)}  coeff")
    for left, right in rows:
        print(f"{left.ljust(width)}  {right}")


def cmd_roots(args: argparse.Namespace) -> int:
    q = quiver_from_file(args.quiver)
    roots = positive_roots(q)
    _emit({"type": dynkin_type(q), "roots": [list(r) for r in roots]})
    return 0


def _parse_dim(text: str, n: int) -> tuple[int, ...]:
    try:
        dim = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError as exc:
        raise QuiverError(f"bad --dim {text!r}") from exc
    if len(dim) != n:
        raise QuiverError(f"--dim needs {n} entries, got {len(dim)}")
    return dim


def cmd_orbits(args: argparse.Namespace) -> int:
    q = quiver_from_file(args.quiver)
    dim = _parse_dim(args.dim, q.n)
    found = orbits(q, dim)
    _emit(
        {
            "dim": list(dim),
            "count": len(found),
            "orbits": [_orbit_payload(o) for o in found],
        }
    )
    return 0


def cmd_coeffs(args: argparse.Namespace) -> int:
    q = quiver_from_file(args.quiver)
    orbit = orbit_from_file(args.orbit, q)
    caveat = caveat_for(q)
    if args.pair == "auto":
        table = quiver_coefficients(q, orbit.dim, orbit)
        tensor, cd = table.tensor, table.codim
    else:
        tensor, cd = coefficients(q, orbit.dim, pair_from_file(args.pair))
    if args.cohomological:
        tensor = project_degree(tensor, cd)
    if args.format == "table":
        _print_table(tensor, cd, caveat)
    else:
        _emit(_coeffs_payload(tensor, cd, caveat))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    q = quiver_from_file(args.quiver)
    results = [failure for _, failure in sweep(q, args.max_dim, args.suite)]
    failures = [failure for failure in results if failure]
    _emit(
        {
            "suite": args.suite,
            "max_dim": args.max_dim,
            "checked": len(results),
            "failures": failures,
        }
    )
    return 1 if failures else 0


def cmd_member(args: argparse.Namespace) -> int:
    q = quiver_from_file(args.quiver)
    orbit = orbit_from_file(args.orbit, q)
    rep = rep_from_file(args.rep, orbit.dim)
    rows = hom_table(q, rep, orbit)
    member = all(h_rep >= h_orb for _, h_rep, h_orb in rows)
    _emit(
        {
            "member": member,
            "hom_table": [
                {"root": list(r), "rep": h_rep, "orbit": h_orb, "ok": h_rep >= h_orb}
                for r, h_rep, h_orb in rows
            ],
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quivergk", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="positive roots of a Dynkin quiver")
    p_roots.add_argument("quiver")
    p_roots.set_defaults(func=cmd_roots)

    p_orbits = sub.add_parser("orbits", help="orbits for a dimension vector")
    p_orbits.add_argument("quiver")
    p_orbits.add_argument("--dim", required=True, help="comma-separated dimension vector")
    p_orbits.set_defaults(func=cmd_orbits)

    p_coeffs = sub.add_parser("coeffs", help="orbit-closure coefficient table")
    p_coeffs.add_argument("quiver")
    p_coeffs.add_argument("orbit")
    p_coeffs.add_argument(
        "--pair",
        default="auto",
        help='"auto" (greedy directed partition) or a JSON file {"i": [...], "r": [...]}',
    )
    p_coeffs.add_argument("--format", choices=("json", "table"), default="json")
    p_coeffs.add_argument(
        "--cohomological",
        action="store_true",
        help="keep only the degree-equals-codim slice",
    )
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_check = sub.add_parser("check", help="self-check suites over all small orbits")
    p_check.add_argument("quiver")
    p_check.add_argument("--suite", required=True, choices=tuple(SUITES))
    p_check.add_argument("--max-dim", type=int, default=2)
    p_check.set_defaults(func=cmd_check)

    p_member = sub.add_parser("member", help="orbit-closure membership of a representation")
    p_member.add_argument("quiver")
    p_member.add_argument("orbit")
    p_member.add_argument("--rep", required=True, help="JSON file with one matrix per arrow")
    p_member.set_defaults(func=cmd_member)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuiverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
