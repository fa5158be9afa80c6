"""Command line front end.

Five subcommands cover the round trip from construction to
certification:

    cyclefree build --family omega --n 5 --out omega5.facets
    cyclefree homology --in omega5.facets
    cyclefree fvector --in omega5.facets
    cyclefree link --in omega5.facets --vertex 1,2
    cyclefree verify --claim omega3-H1

``build`` writes the facet-file format of :mod:`cyclefree.facetfile`;
the other readers accept any file in that format, so complexes made
elsewhere can be checked too.  ``verify`` exits 0 exactly when no claim
failed; skipped long claims do not count as failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .boards import Square, make_spec
from .builders import (
    delta,
    directed_matching,
    filtration_level,
    full_board,
    omega,
    sym,
    theta,
    theta1,
    theta2,
)
from .facetfile import format_complex, read_complex, write_complex
from .homology import homology
from .verify import NOT_AT_DESK_SCALE, run_claims

__all__ = ["main"]


# ---------------------------------------------------------------------------
# build


def _reject(parser: argparse.ArgumentParser, args, **allowed) -> None:
    # flags default to None/0; anything else outside its family is a
    # usage error, not a silent ignore
    for flag, default in (("m", None), ("p", 0), ("cycles", None)):
        if flag not in allowed and getattr(args, flag) != default:
            parser.error(f"--{flag} does not apply to --family {args.family}")


def _cmd_build(args, parser: argparse.ArgumentParser) -> int:
    family = args.family
    n = args.n
    # a !spec header promises cycle-free facets, and read_complex checks
    # them, so only the cycle-free families record their spec
    spec = None
    try:
        if family in ("fp", "delta", "dm") and args.cycles is not None:
            _reject(parser, args, cycles=True)
            base = "dm" if family == "dm" else "delta"
            complex_ = filtration_level(base, n, args.cycles)
            if args.cycles == 0:
                spec = make_spec(n)
        elif family == "fp":
            parser.error("--family fp requires --cycles")
        elif family == "delta":
            _reject(parser, args, m=True)
            cols = n if args.m is None else args.m
            complex_ = delta(full_board(n, cols))
        elif family == "omega":
            _reject(parser, args, m=True, p=True)
            spec = make_spec(n, args.m or 0, args.p)
            complex_ = omega(spec)
        elif family == "dm":
            _reject(parser, args)
            complex_ = directed_matching(n)
        elif family in ("theta", "theta1", "theta2"):
            _reject(parser, args)
            builder = {"theta": theta, "theta1": theta1, "theta2": theta2}[family]
            complex_ = builder(n)
            spec = make_spec(n)
        else:  # sym; --n is the suspension parameter p
            _reject(parser, args)
            complex_ = sym(n)
        write_complex(args.out, complex_, spec)
    except ValueError as exc:
        parser.error(str(exc))
    fv = complex_.f_vector()
    print(f"wrote {args.out}: dim {complex_.dim}, f-vector {fv}")
    return 0


# ---------------------------------------------------------------------------
# readers


def _read(args, parser: argparse.ArgumentParser):
    # a missing file or a facet that breaks its !spec header is a usage
    # error, reported in one line
    try:
        complex_, _ = read_complex(args.infile)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    return complex_


def _cmd_homology(args, parser: argparse.ArgumentParser) -> int:
    kind, lo = ("unreduced", 0) if args.unreduced else ("reduced", -1)
    if args.max_dim is not None and args.max_dim < lo:
        parser.error(f"--max-dim {args.max_dim} is below {lo}, the lowest {kind} degree")
    complex_ = _read(args, parser)
    # H_k is 0 above the dimension, so --max-dim stops there
    hi = complex_.dim if args.max_dim is None else min(args.max_dim, complex_.dim)
    try:  # homology checks that --mod is a prime before any work
        res = homology(
            complex_, range(lo, max(hi, lo) + 1), coefficients=args.mod, reduced=not args.unreduced
        )
    except ValueError as exc:
        parser.error(str(exc))
    field = f"F_{args.mod}" if args.mod else "Z"
    print(f"{kind} homology, {field} coefficients")
    for k in sorted(res.groups):
        if args.mod:
            print(f"H_{k}: dimension {res.group(k).rank}")
        else:
            print(f"H_{k} = {res.group(k)}")
    return 0


def _cmd_fvector(args, parser: argparse.ArgumentParser) -> int:
    complex_ = _read(args, parser)
    print(f"f-vector: {complex_.f_vector()}")
    print(f"euler characteristic: {complex_.euler_characteristic()}")
    return 0


def _cmd_link(args, parser: argparse.ArgumentParser) -> int:
    complex_ = _read(args, parser)
    try:
        row, col = (int(tok) for tok in args.vertex.split(","))
    except ValueError:
        parser.error("--vertex expects ROW,COL with integer labels")
    v = Square(row, col)
    if not complex_.has_vertex(v):
        parser.error(f"vertex {args.vertex} is not in the complex")
    sys.stdout.write(format_complex(complex_.link(v)))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    try:
        reports = run_claims(args.claim or None, include_long=args.long)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(json.dumps([r._asdict() for r in reports], indent=2))
    else:
        for r in reports:
            print(f"{r.id}: {r.status} [{r.ms} ms]")
            print(f"  expected: {r.expected}")
            print(f"  computed: {r.computed}")
        tally = Counter(r.status for r in reports)
        summary = ", ".join(f"{tally[s]} {s}" for s in ("pass", "fail", "skipped-long") if tally[s])
        print(f"{len(reports)} claims: {summary}")
        print("not checked at desk scale:")
        for note in NOT_AT_DESK_SCALE:
            print(f"  - {note}")
    return 1 if any(r.status == "fail" for r in reports) else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclefree",
        description="build chessboard-style complexes, compute their exact "
        "homology, and certify the package's claim catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a complex, write a facet file")
    b.add_argument(
        "--family",
        required=True,
        choices=["delta", "omega", "dm", "theta", "theta1", "theta2", "fp", "sym"],
    )
    b.add_argument("--n", type=int, required=True, help="rows (sym: suspension parameter)")
    b.add_argument("--m", type=int, default=None, help="omega: extra rows; delta: columns (default n)")
    b.add_argument("--p", type=int, default=0, help="omega: extra columns")
    b.add_argument("--cycles", type=int, default=None, help="filtration level (delta/dm/fp)")
    b.add_argument("--out", required=True, help="output facet file")
    b.set_defaults(handler=_cmd_build, parser=b)

    h = sub.add_parser("homology", help="exact or prime-field homology of a facet file")
    h.add_argument("--in", dest="infile", required=True)
    h.add_argument("--mod", type=int, default=None, help="prime field coefficients")
    h.add_argument("--max-dim", dest="max_dim", type=int, default=None, help="highest degree to compute")
    h.add_argument("--unreduced", action="store_true")
    h.set_defaults(handler=_cmd_homology, parser=h)

    f = sub.add_parser("fvector", help="face counts of a facet file")
    f.add_argument("--in", dest="infile", required=True)
    f.set_defaults(handler=_cmd_fvector, parser=f)

    li = sub.add_parser("link", help="vertex link, printed as a facet file")
    li.add_argument("--in", dest="infile", required=True)
    li.add_argument("--vertex", required=True, help="ROW,COL")
    li.set_defaults(handler=_cmd_link, parser=li)

    v = sub.add_parser("verify", help="run the claim catalog")
    v.add_argument("--claim", action="append", default=[], help="claim id (repeatable; default: all)")
    v.add_argument("--long", action="store_true", help="include long-running claims")
    v.add_argument("--json", action="store_true", help="machine-readable report")
    v.set_defaults(handler=_cmd_verify, parser=v)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, args.parser)
