"""Command-line interface.

Commands:
    run            one process run; writes checkpoints.csv, edges.log, summary.json
    sweep          a grid of runs over n and seeds; writes sweep.csv + aggregates
    audit          a run with ground-truth audits; --oracle adds the permutation TV check
    pattern-check  validate pattern files

Exit codes: 0 success, 1 usage error, 2 invariant or audit failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    DEFAULT_SEED,
    RunConfig,
    audit_run,
    parse_stop,
    run_simulation,
    sweep,
    write_run_artifacts,
    write_sweep_files,
)
from .oracle import TV_TOLERANCE, equivalence_tv
from .patterns import PatternError, load_pattern_file
from .trajectory import step_horizon

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="trifree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared through `parents=`: `run` and `audit` take one n, every
    # stepping command takes `stepping`, and the commands that write files
    # take `writing`
    one_n = argparse.ArgumentParser(add_help=False)
    one_n.add_argument("--n", type=int, required=True, help="vertex count (>= 2)")
    stepping = argparse.ArgumentParser(add_help=False)
    stepping.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"base RNG seed (default {DEFAULT_SEED}, fixed, never time-based)",
    )
    stepping.add_argument(
        "--stop",
        default="saturation",
        help="saturation | steps:K | horizon:X (multiple of the tracking horizon)",
    )
    writing = argparse.ArgumentParser(add_help=False)
    writing.add_argument(
        "--out", default="trifree_out", metavar="DIR", help="output directory"
    )

    run_p = sub.add_parser(
        "run", parents=[one_n, stepping, writing], help="single simulation run"
    )
    run_p.add_argument(
        "--pattern",
        action="append",
        default=[],
        metavar="FILE",
        help="pattern file to monitor (repeatable)",
    )

    sweep_p = sub.add_parser(
        "sweep",
        parents=[stepping, writing],
        help="grid of runs over n values and seeds",
    )
    sweep_p.add_argument(
        "--n",
        type=int,
        action="append",
        required=True,
        metavar="N",
        help="vertex count (repeat for several)",
    )
    sweep_p.add_argument("--seeds-per-n", type=int, default=10, metavar="K")
    sweep_p.add_argument("--jobs", type=int, default=1, help="parallel workers")

    audit_p = sub.add_parser(
        "audit", parents=[one_n, stepping], help="run with ground-truth audits"
    )
    audit_p.add_argument(
        "--oracle",
        action="store_true",
        help="also compare against the permutation-ordering reference (n <= 5)",
    )

    check_p = sub.add_parser("pattern-check", help="validate pattern files")
    check_p.add_argument("files", nargs="+", metavar="FILE")

    return parser


def _run_config(args: argparse.Namespace, patterns: tuple[str, ...] = ()) -> RunConfig:
    """The run that a command's flags describe."""
    return RunConfig(n=args.n, seed=args.seed, stop=parse_stop(args.stop), patterns=patterns)


def _note_empty_horizon(n: int) -> None:
    # the library stays silent: summary.json records the horizon of 0
    if n >= 2 and step_horizon(n) == 0:
        print(
            f"warning: step horizon is empty at n={n}; trajectory checks need larger n",
            file=sys.stderr,
        )


def _do_run(args: argparse.Namespace) -> int:
    config = _run_config(args, tuple(args.pattern))
    _note_empty_horizon(config.n)
    out = Path(args.out)
    write_run_artifacts(run_simulation(config), out)
    sys.stdout.write((out / "summary.json").read_text(encoding="utf-8"))
    return EXIT_OK


def _do_sweep(args: argparse.Namespace) -> int:
    stop = parse_stop(args.stop)
    rows, aggregates = sweep(args.n, args.seeds_per_n, args.seed, stop, jobs=args.jobs)
    for n in args.n:
        _note_empty_horizon(n)
    path = write_sweep_files(rows, aggregates, Path(args.out))
    errors = sum(1 for row in rows if row["status"] != "ok")
    print(f"wrote {len(rows)} rows to {path} ({errors} run errors)")
    for entry in aggregates:
        print(json.dumps(entry, sort_keys=True))
    return EXIT_OK


def _do_audit(args: argparse.Namespace) -> int:
    config = _run_config(args)
    tv = equivalence_tv(config.n) if args.oracle else None
    _note_empty_horizon(config.n)
    outcome = audit_run(config)
    print(f"audits run: {outcome.audits}")
    printed = None
    repeats = 0
    for step, report in outcome.failures:
        # a defect that persists is printed once, then counted
        findings = (report.discrepancies, report.triangles, report.open_count_consistent)
        if findings == printed:
            repeats += 1
            continue
        printed = findings
        print(f"audit FAILED at step {step}:")
        for u, v, stored, actual in report.discrepancies[:20]:
            print(f"  pair ({u}, {v}): stored {stored.name}, recomputed {actual.name}")
        for u, v, w in report.triangles[:20]:
            print(f"  triangle on ({u}, {v}, {w})")
        if not report.open_count_consistent:
            print("  open-pair count disagrees with the status store")
    if repeats:
        print(f"{repeats} of the failing audits repeated the findings printed before them")
    tv_ok = tv is None or tv <= TV_TOLERANCE
    if tv is not None:
        print(
            f"permutation-ordering TV distance: {tv:.5f} "
            f"(threshold {TV_TOLERANCE}) {'ok' if tv_ok else 'FAILED'}"
        )
    if outcome.ok and tv_ok:
        print("audit clean")
        return EXIT_OK
    return EXIT_FAILURE


def _do_pattern_check(args: argparse.Namespace) -> int:
    status = EXIT_OK
    for path in args.files:
        try:
            pattern = load_pattern_file(path)
        except (OSError, PatternError) as err:
            print(f"{path}: INVALID: {err}")
            status = EXIT_USAGE
        else:
            print(f"{path}: ok k={pattern.k} e={pattern.e}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    commands = {
        "run": _do_run,
        "sweep": _do_sweep,
        "audit": _do_audit,
        "pattern-check": _do_pattern_check,
    }
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as err:  # SizingError and PatternError too
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
