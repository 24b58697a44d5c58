"""Batch command line front end.

Exit codes: 0 success, 2 usage error or size refusal, 3 unreadable or
malformed input file, 4 internal contract violation (a structural check
fired on an input the exact detector found trace-free, so a violation is
left "certificate search exhausted" -- should never happen).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .bounds import derivation_check, log_grid
from .constructions import dumps_graph, greedy_lower_bound, lift_to_trace_free, polarity_graph
from .hypergraph import FormatError, dumps_hypergraph, read_hypergraph
from .lemma_checks import EXHAUSTED, lemma_status_report
from .search import turan_oracle, turan_search
from .traces import SearchTimeout, contains_trace

DEFAULT_SEED = 20240901


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_search(args: argparse.Namespace) -> int:
    if args.oracle:
        result = turan_oracle(args.n, args.t)
    else:
        result = turan_search(args.n, args.t)
    if args.format == "json-lines":
        payload = {
            "n": result.n,
            "t": result.t,
            "value": result.value,
            "witnesses": len(result.witnesses),
            "nodes": result.nodes_explored,
            "stats": result.stats,
            "seconds": round(result.elapsed, 3),
        }
        _emit(json.dumps(payload) + "\n", args.output)
    elif args.format == "text":
        lines = [f"maximum edges for n={result.n}, t={result.t}: {result.value}"]
        lines += [dumps_hypergraph(w) for w in result.witnesses]
        _emit("\n".join(lines), args.output)
    else:
        row = (
            f"{result.n},{result.t},{result.value},{len(result.witnesses)},"
            f"{result.nodes_explored},{result.elapsed:.3f}"
        )
        _emit(f"n,t,value,witness_count,nodes,seconds\n{row}\n", args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    h = read_hypergraph(args.file)
    try:
        cert = contains_trace(h, args.t, time_budget=args.time_budget)
    except SearchTimeout:
        print("unknown: time budget exhausted", file=sys.stderr)
        return 2
    _emit(cert.to_text() if cert is not None else "trace-free\n", args.output)
    return 0


def _cmd_polarity(args: argparse.Namespace) -> int:
    g = polarity_graph(args.q)
    _emit(dumps_hypergraph(lift_to_trace_free(g)) if args.lift else dumps_graph(g), args.output)
    return 0


def _cmd_greedy(args: argparse.Namespace) -> int:
    h = greedy_lower_bound(args.n, args.t, seed=args.seed, restarts=args.restarts)
    _emit(dumps_hypergraph(h), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    h = read_hypergraph(args.file)
    report = lemma_status_report(h, args.t, args.delta)
    lines = []
    for status in report:
        entry = {"check": status.check, "status": status.status, "detail": status.detail}
        if status.violations:
            entry["violations"] = [
                {
                    "subject": list(v.subject),
                    "observed": v.observed,
                    "bound": v.bound,
                    "note": v.note,
                    "certificate": v.certificate.to_text() if v.certificate else None,
                }
                for v in status.violations
            ]
        lines.append(json.dumps(entry))
    _emit("\n".join(lines) + "\n", args.output)
    if any(v.note == EXHAUSTED for status in report for v in status.violations):
        print("internal contract violation: check fired on a trace-free input", file=sys.stderr)
        return 4
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    try:
        lo, hi = map(float, args.t_range.split(":"))
    except ValueError:
        raise ValueError(f"--t-range takes lo:hi, two numbers, got {args.t_range!r}") from None
    grid = log_grid(lo, hi, args.points)
    rows = ["t,lhs_hi,rhs_lo,certified"]
    for point in derivation_check(grid):
        rows.append(
            f"{point.t},{point.lhs_hi!r},{point.rhs_lo!r},{str(point.certified).lower()}"
        )
    rows.append("")
    _emit("\n".join(rows), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process: ``parse_args`` leaves it as
    it was, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="trace-turan",
        description="Exact search, detection and verification for forbidden-pattern traces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("search", help="exact maximum edge count")
    p.set_defaults(handler=_cmd_search)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="use the enumeration oracle (n <= 6)")
    p.add_argument("--format", choices=("csv", "text", "json-lines"), default="csv")
    p.add_argument("--output")

    p = sub.add_parser("check", help="trace detection with certificate output")
    p.set_defaults(handler=_cmd_check)
    p.add_argument("--file", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--output")

    p = sub.add_parser("construct", help="lower-bound constructions")
    kinds = p.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("polarity", help="C4-free polarity graph")
    p.set_defaults(handler=_cmd_polarity)
    p.add_argument("--q", type=int, required=True, help="prime order of the field")
    p.add_argument("--lift", action="store_true", help="lift the graph to a 3-uniform hypergraph")
    p.add_argument("--output")
    p = kinds.add_parser("greedy", help="seeded random greedy trace-free packing")
    p.set_defaults(handler=_cmd_greedy)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--output")

    p = sub.add_parser("verify", help="run the structural check suite on a hypergraph file")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--file", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--delta", type=int, default=14)
    p.add_argument("--output")

    p = sub.add_parser("bounds", help="derivation-check table over a t range")
    p.set_defaults(handler=_cmd_bounds)
    p.add_argument("--t-range", default="14:1000000", help="lo:hi, log-uniform grid")
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--output")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; its errors become one stderr line and an exit code.

    A usage error exits 2 with argparse's message, and ``--help`` exits 0;
    both return the code instead of raising SystemExit.  ValueError
    (CapExceeded among them) exits 2, FormatError and OSError exit 3;
    nothing else is caught, so a genuine bug still shows its traceback.
    An ``--output`` that cannot be written fails before the work starts.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        if args.output:  # fail as the write would, before the work
            existed = os.path.exists(args.output)
            open(args.output, "a").close()
            if not existed:
                os.remove(args.output)
        return args.handler(args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
