"""Command-line front end: load replays (dnl), equilibrium solves (due),
path-set generation (paths) and post-hoc reporting (report).

Exit codes: 0 success, 1 usage, 2 parse, 3 validation, 4 runtime failure
(any unexpected exception too, reported on one line without a traceback).
Usage (1) covers number flags out of range: every float flag must be
finite; --dt, --horizon, --alpha and --epsilon must be > 0; --br-tolerance,
--early-weight and --late-weight >= 0; --max-iters, --auto-paths and
paths --k must be integers >= 1; --init-window LO:HI needs finite LO < HI.
Warnings go to stderr once per command: a time step longer than the
shortest free-flow time, and the count of path/departure cells of the
final loading that carry departures whose trips do not finish within the
horizon.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import fileio
from .delays import PenaltyParams
from .dnl import DNLError, run_dnl
from .fileio import ParseError
from .network import NetworkError, TimeGrid, validate_network
from .solver import SolverConfig, solve_due

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _number(bound: str = "finite"):
    """argparse type of a number flag. `bound` is "finite" (any finite
    float), "positive" (a float > 0), "nonnegative" (a float >= 0) or
    "count" (an integer >= 1)."""

    def parse(text: str):
        if bound == "count":
            try:
                n = int(text)
            except ValueError:
                n = 0
            if n < 1:
                raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
            return n
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        if (bound == "positive" and x <= 0) or (bound == "nonnegative" and x < 0):
            raise argparse.ArgumentTypeError(f"must be {bound}: {text!r}")
        return x

    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="dtaflow",
                description="Dynamic network loading and user-equilibrium solver")
    sub = p.add_subparsers(dest="command", required=True)

    def add_grid(sp):
        sp.add_argument("--dt", type=_number("positive"), required=True,
                        help="time step (seconds)")
        sp.add_argument("--horizon", type=_number("positive"), required=True,
                        help="horizon length tf - t0 (seconds)")
        sp.add_argument("--t0", type=_number(), default=0.0,
                        help="horizon start (seconds, default 0)")

    def add_common(sp):
        sp.add_argument("--network", required=True, help="network data file")
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("dnl", help="replay a fixed departure profile")
    add_common(sp)
    sp.add_argument("--paths", required=True, help="path data file")
    sp.add_argument("--departures", required=True,
                    help="|P| x N departure-rate matrix (CSV)")
    sp.add_argument("--demand", required=True,
                    help="demand file (for O-D/path association)")
    add_grid(sp)

    sp = sub.add_parser("due", help="solve for a dynamic user equilibrium")
    add_common(sp)
    sp.add_argument("--paths", help="path data file")
    sp.add_argument("--auto-paths", type=_number("count"), metavar="K",
                    help="generate up to K shortest paths per O-D instead")
    sp.add_argument("--demand", required=True, help="O-D demand file")
    add_grid(sp)
    sp.add_argument("--alpha", type=_number("positive"), required=True,
                    help="step size > 0")
    sp.add_argument("--epsilon", type=_number("positive"), default=1e-4,
                    help="relative-gap threshold")
    sp.add_argument("--max-iters", type=_number("count"), default=100)
    sp.add_argument("--br-tolerance", type=_number("nonnegative"), default=0.0,
                    help="bounded-rationality indifference band (seconds)")
    sp.add_argument("--early-weight", type=_number("nonnegative"), default=0.5)
    sp.add_argument("--late-weight", type=_number("nonnegative"), default=2.0)
    sp.add_argument("--init-window", type=str, default=None,
                    metavar="LO:HI", help="initial departure window (seconds)")

    sp = sub.add_parser("paths", help="enumerate k shortest paths per O-D")
    sp.add_argument("--network", required=True)
    sp.add_argument("--demand", required=True)
    sp.add_argument("--k", type=_number("count"), default=5)
    sp.add_argument("--out", required=True, help="output paths file")

    sp = sub.add_parser("report", help="summarize a completed run directory")
    sp.add_argument("--in", dest="run_dir", required=True)
    sp.add_argument("--paths", dest="selected", default=None,
                    help="comma-separated path ids for curve extraction")
    return p


def _load_bundle(args):
    nodes, links = fileio.load_network(args.network)
    od_pairs = fileio.load_demand(args.demand)
    if getattr(args, "auto_paths", None):
        paths = fileio.enumerate_paths(nodes, links, od_pairs, args.auto_paths)
    elif args.paths:
        paths = fileio.load_paths(args.paths)
    else:
        raise SystemExit(_usage_error("one of --paths or --auto-paths required"))
    return validate_network(nodes, links, paths, od_pairs)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _make_grid(args) -> TimeGrid:
    return TimeGrid(args.t0, args.t0 + args.horizon, args.dt)


def _warn_dt(net, grid):
    if grid.dt_s > net.min_free_flow_time_s:
        print(
            f"warning: time step {grid.dt_s} s exceeds the minimum link "
            f"free-flow time {net.min_free_flow_time_s:.3g} s", file=sys.stderr,
        )


def _warn_truncated(result):
    """Count the cells with departures whose trips do not finish within the
    horizon; empty cells are not trips."""
    bad = result.truncated_trips
    n_bad = int(bad.sum())
    if n_bad:
        rows = np.flatnonzero(bad.any(axis=1))[:5]
        print(
            f"warning: {n_bad} path/departure cells not completed within the "
            f"horizon (first affected paths: {[result.path_order[r] for r in rows]})",
            file=sys.stderr,
        )


def cmd_dnl(args) -> int:
    net = _load_bundle(args)
    grid = _make_grid(args)
    _warn_dt(net, grid)
    h = fileio.load_departures(args.departures, tuple(net.paths), grid.n_steps)
    result = run_dnl(net, h, grid)
    _warn_truncated(result)
    fileio.write_dnl_results(result, args.out)
    print(f"dnl complete: {len(net.paths)} paths, {grid.n_steps} steps, "
          f"outputs in {args.out}")
    return 0


def cmd_due(args) -> int:
    net = _load_bundle(args)
    grid = _make_grid(args)
    _warn_dt(net, grid)
    window = None
    if args.init_window:
        try:
            lo, hi = (_number()(x) for x in args.init_window.split(":"))
        except (ValueError, argparse.ArgumentTypeError):
            return _usage_error("--init-window must look like LO:HI")
        if lo >= hi:
            return _usage_error(f"--init-window needs LO < HI, got {args.init_window!r}")
        window = (lo, hi)
    config = SolverConfig(
        alpha=args.alpha,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        br_tolerance=args.br_tolerance,
        penalty=PenaltyParams(args.early_weight, args.late_weight),
        initial_window_s=window,
    )
    report = solve_due(net, grid, config)
    _warn_truncated(report.final_dnl)
    for i, g in enumerate(report.relative_gap_history, start=1):
        print(f"iter {i:4d}  log10(relative gap) = "
              f"{math.log10(g) if g > 0 else g if math.isnan(g) else -math.inf:8.3f}")
    fileio.write_due_results(report, args.out)
    status = "CONVERGED" if report.converged else "NOT-CONVERGED"
    print(f"{status} after {report.iterations_used} iterations; "
          f"max O-D gap {max(report.od_gaps.values()) if report.od_gaps else 0:.3g} s; "
          f"outputs in {args.out}")
    return 0


def cmd_paths(args) -> int:
    nodes, links = fileio.load_network(args.network)
    od_pairs = fileio.load_demand(args.demand)
    paths = fileio.enumerate_paths(nodes, links, od_pairs, args.k)
    fileio.write_paths(paths, args.out)
    print(f"wrote {len(paths)} paths to {args.out}")
    return 0


def cmd_report(args) -> int:
    run_dir = args.run_dir
    gaps_file = os.path.join(run_dir, "od_gaps.csv")
    if not os.path.isdir(run_dir) or not os.path.exists(gaps_file):
        print(f"error: {run_dir} is not a completed DUE run directory",
              file=sys.stderr)
        return EXIT_PARSE
    with open(gaps_file, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{gaps_file}: empty file, expected a header row")
    if rows[0] != fileio.OD_GAP_FIELDS:
        raise ParseError(f"{gaps_file}:1: header {rows[0]} does not match "
                         f"expected {fileio.OD_GAP_FIELDS}")
    gaps = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"{gaps_file}:{line}: expected 3 fields "
                             f"(origin,destination,gap_s), got {len(row)}")
        gaps.append(fileio._to_float(f"{gaps_file}:{line}", "gap_s", row[2]))
    stats = np.percentile(gaps, [0, 25, 50, 75, 100]).tolist() if gaps else [0.0] * 5
    pct = dict(zip(["min", "p25", "p50", "p75", "max"], stats))
    fileio._write_csv(os.path.join(run_dir, "gap_percentiles.csv"),
                      ["statistic", "gap_s"],
                      [[k, fileio._fmt(v)] for k, v in pct.items()])
    print("O-D gap percentiles (s): " +
          ", ".join(f"{k}={v:.4g}" for k, v in pct.items()))

    if args.selected:
        wanted = [p.strip() for p in args.selected.split(",") if p.strip()]
        for name in ("h_final.csv", "eff_delay.csv"):
            src = os.path.join(run_dir, name)
            if not os.path.exists(src):
                continue
            with open(src) as fh:
                rows = list(csv.reader(fh))
            if not rows:
                raise ParseError(f"{src}: empty file, expected a header row")
            header = rows[0]
            for line, row in enumerate(rows[1:], start=2):
                if len(row) != len(header):
                    raise ParseError(f"{src}:{line}: expected {len(header)} "
                                     f"fields, got {len(row)}")
            body = {r[0]: r for r in rows[1:]}
            for pid in wanted:
                if pid not in body:
                    print(f"error: path {pid} not present in {name}",
                          file=sys.stderr)
                    return EXIT_PARSE
                fileio._write_csv(os.path.join(run_dir, f"curve_{pid}_{name}"),
                                  header, [body[pid]])
        print(f"wrote curve files for {len(wanted)} paths")
    return 0


_COMMANDS = {"dnl": cmd_dnl, "due": cmd_due, "paths": cmd_paths,
             "report": cmd_report}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as e:
        return int(e.code or 0)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except NetworkError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DNLError, RuntimeError, ValueError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:  # a fault of the program: one line, no traceback
        message = " ".join(str(e).splitlines())
        print(f"runtime error: {type(e).__name__}: {message}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
