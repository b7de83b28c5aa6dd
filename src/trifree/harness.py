"""Run drivers: single runs, sweeps, audits, and their file outputs.

The drivers own the run policy: `run_simulation` picks the new edges
each pattern tracker is offered, and the permutation oracle is run by
`trifree audit --oracle`, not by `audit_run`, which only audits.

Outputs are plain files: `checkpoints.csv` (one row per trajectory
checkpoint), `edges.log` (one line per insertion, `step u v`), and
`summary.json`.  Sweeps add `sweep.csv` (one row per run, errors
included) and `sweep_summary.json` (per-n aggregates).  The two JSON
files carry a schema_version field so downstream tooling can detect
drift.  This module owns the CSV field format of both CSV files.

Determinism: a run is a pure function of its `RunConfig` (n, seed,
stop and patterns), all of which `summary.json` records, so
`summary.json` is a function of the `RunConfig` plus its
`duration_seconds`.  Checkpoint samples and horizon placements each
draw from their own RNG derived from the seed, so neither perturbs the
edge sequence, and tracking patterns never changes the checkpoints.
Sweeps derive per-run seeds as base_seed + run_index, which makes
parallel and serial execution byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import time
import random
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from statistics import fmean, pstdev
from typing import Iterable

from .patterns import (
    FirstAppearanceTracker,
    Pattern,
    blocked_placements,
    load_pattern_file,
)
from .process import (
    AuditReport,
    ProcessState,
    Saturation,
    StepResult,
    Steps,
    StopCondition,
    check_fits,
    estimated_bytes,
)
from .trajectory import (
    GRID_TIMES,
    Checkpoint,
    TrajectoryParams,
    default_cadence,
    grid_steps,
    take_checkpoint,
)

SCHEMA_VERSION = "2"
DEFAULT_SEED = 1729
# the measurement RNGs' seeds are derived from the run seed with these
# fixed masks: one stream for checkpoint samples, one for placements
MEASUREMENT_SEED_XOR = 0x9E3779B9
PLACEMENT_SEED_XOR = 0x7F4A7C15
Y_SAMPLES = 200  # open pairs sampled per checkpoint
PLACEMENT_SAMPLES = 10_000  # placements classified per pattern at the horizon
SWEEP_GRID = GRID_TIMES[:5]


@dataclass(frozen=True)
class Horizon:
    """Stop after a multiple of the tracking horizon m(n)."""

    multiplier: float = 1.0


def measurement_rng(seed: int) -> random.Random:
    return random.Random(seed ^ MEASUREMENT_SEED_XOR)


def parse_stop(text: str) -> StopCondition | Horizon:
    """Parse `saturation`, `steps:K`, or `horizon:X`."""
    if text == "saturation":
        return Saturation()
    kind, _, value = text.partition(":")
    try:
        number = {"steps": int, "horizon": float}[kind](value)
    except (KeyError, ValueError):
        raise ValueError(
            f"unrecognised stop condition {text!r}; "
            f"expected saturation, steps:K, or horizon:X"
        ) from None
    if kind == "steps":
        if number < 0:
            raise ValueError(f"steps limit must be >= 0, got {number}")
        return Steps(number)
    if not (math.isfinite(number) and number > 0):
        raise ValueError(f"horizon multiplier must be finite and > 0, got {number}")
    return Horizon(number)


def stop_label(stop: StopCondition | Horizon) -> str:
    if isinstance(stop, Saturation):
        return "saturation"
    if isinstance(stop, Steps):
        return f"steps:{stop.limit}"
    if isinstance(stop, Horizon):
        return f"horizon:{stop.multiplier:g}"
    raise TypeError(f"unknown stop condition {stop!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one run; summary.json records it all."""

    n: int
    seed: int = DEFAULT_SEED
    stop: StopCondition | Horizon = Saturation()
    patterns: tuple[str, ...] = ()  # pattern file paths

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")


@dataclass(frozen=True)
class RunSummary:
    schema_version: str
    n: int
    seed: int
    stop: str
    final_step: int  # also the final edge count
    saturated: bool
    horizon: int
    first_appearance: dict[str, int | None]
    blocked_fraction_at_horizon: dict[str, float | None]
    duration_seconds: float

    @classmethod
    def from_dict(cls, data: dict) -> "RunSummary":
        """Load a summary.json object; any other schema version is rejected."""
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"summary schema_version {version!r} is not {SCHEMA_VERSION!r}"
            )
        return cls(**data)


@dataclass(frozen=True)
class RunResult:
    summary: RunSummary
    checkpoints: list[Checkpoint]
    state: ProcessState


def _resolve_stop(stop: StopCondition | Horizon, horizon: int) -> StopCondition:
    if isinstance(stop, Horizon):
        return Steps(int(stop.multiplier * horizon))
    return stop


def load_patterns(paths: tuple[str, ...] | list[str]) -> list[Pattern]:
    patterns = []
    names: set[str] = set()
    for path in paths:
        pattern = load_pattern_file(str(path))
        label, suffix = pattern.label, len(patterns)
        while label in names:  # disambiguate duplicate file stems
            label = f"{pattern.label}-{suffix}"
            suffix += 1
        names.add(label)
        patterns.append(replace(pattern, name=label))
    return patterns


def run_simulation(config: RunConfig) -> RunResult:
    """Execute one run with checkpoints, pattern tracking, and placement
    classification at the horizon.  A tracker is offered each new edge
    until its first copy, and none if its pattern has more vertices
    than n."""
    started = time.perf_counter()
    params = TrajectoryParams(config.n)
    horizon = params.horizon
    trackers = [FirstAppearanceTracker(p) for p in load_patterns(config.patterns)]
    fitting = [t for t in trackers if t.pattern.k <= config.n]
    live = list(fitting)
    state = ProcessState(config.n, config.seed)
    rng = measurement_rng(config.seed)  # checkpoints
    placement_rng = random.Random(config.seed ^ PLACEMENT_SEED_XOR)

    cadence = default_cadence(horizon)
    grid = grid_steps(config.n, GRID_TIMES)
    checkpoints = [take_checkpoint(state, params, Y_SAMPLES, rng)]
    blocked_at_horizon: dict[str, float | None] = {
        t.pattern.label: None for t in trackers
    }

    def classify_placements(st: ProcessState) -> None:
        for tracker in fitting:
            report = blocked_placements(
                st, tracker.pattern, PLACEMENT_SAMPLES, placement_rng
            )
            blocked_at_horizon[tracker.pattern.label] = report.fraction_blocked

    if horizon == 0:  # the hook never sees step 0
        classify_placements(state)

    def hook(st: ProcessState, result: StepResult) -> None:
        i = st.steps
        if live:
            u, v = result.chosen
            for tracker in tuple(live):
                if tracker.offer(st.edge_masks, u, v, i):
                    live.remove(tracker)
        if i == horizon:
            classify_placements(st)
        if i % cadence == 0 or i in grid:
            checkpoints.append(take_checkpoint(st, params, Y_SAMPLES, rng))

    state.run(_resolve_stop(config.stop, horizon), on_step=hook)
    if checkpoints[-1].step != state.steps:
        checkpoints.append(take_checkpoint(state, params, Y_SAMPLES, rng))

    summary = RunSummary(
        schema_version=SCHEMA_VERSION,
        n=config.n,
        seed=config.seed,
        stop=stop_label(config.stop),
        final_step=state.steps,
        saturated=state.open_pairs == 0,
        horizon=horizon,
        first_appearance={t.pattern.label: t.first_step for t in trackers},
        blocked_fraction_at_horizon=blocked_at_horizon,
        duration_seconds=time.perf_counter() - started,
    )
    return RunResult(summary=summary, checkpoints=checkpoints, state=state)


# ----------------------------------------------------------------------
# file output

# the CSV columns are the fields in declaration order, with Q for open_pairs
CHECKPOINT_COLUMNS = tuple(
    "Q" if f.name == "open_pairs" else f.name for f in fields(Checkpoint)
)


def csv_field(value: object) -> str:
    """One CSV field: empty for None, true/false, floats by repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def checkpoint_row(cp: Checkpoint) -> list[str]:
    """Render a checkpoint as CSV fields in CHECKPOINT_COLUMNS order."""
    return [csv_field(getattr(cp, f.name)) for f in fields(cp)]


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_artifacts(result: RunResult, out_dir: Path) -> None:
    """Write checkpoints.csv, edges.log, and summary.json from `result`,
    which is left as it is."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "checkpoints.csv"
    _write_csv(path, CHECKPOINT_COLUMNS, map(checkpoint_row, result.checkpoints))
    # streamed from the log's columns, one line at a time
    with open(out_dir / "edges.log", "w", encoding="utf-8") as fh:
        for step, (u, v) in enumerate(result.state.iter_edges(), start=1):
            fh.write(f"{step} {u} {v}\n")
    _write_json(out_dir / "summary.json", asdict(result.summary))


# ----------------------------------------------------------------------
# sweeps

SWEEP_COLUMNS = (
    "n",
    "seed",
    "status",
    "error",
    "final_step",
    "saturated",
    "c_n",
    *(f"rel_q_t{t:g}" for t in SWEEP_GRID),
    *(f"rel_y_t{t:g}" for t in SWEEP_GRID),
)


def _sweep_row(n: int, seed: int, stop: StopCondition | Horizon) -> dict:
    try:
        result = run_simulation(RunConfig(n=n, seed=seed, stop=stop))
    except Exception as err:  # recorded per row; the sweep continues
        return {
            "n": n,
            "seed": seed,
            "status": "error",
            "error": f"{type(err).__name__}: {err}",
        }
    summary = result.summary
    row: dict = {
        "n": summary.n,
        "seed": summary.seed,
        "status": "ok",
        "error": "",
        "final_step": summary.final_step,
        "saturated": summary.saturated,
    }
    if summary.saturated:
        row["c_n"] = summary.final_step / (
            summary.n**1.5 * math.sqrt(math.log(summary.n))
        )
    # the residuals at each sweep grid step; None where the run stopped short
    by_step = {cp.step: cp for cp in result.checkpoints}
    for step, t in grid_steps(summary.n, SWEEP_GRID).items():
        cp = by_step.get(step)
        row[f"rel_q_t{t:g}"] = cp.rel_q if cp else None
        row[f"rel_y_t{t:g}"] = cp.rel_y if cp else None
    return row


def sweep(
    n_values: list[int],
    seeds_per_n: int,
    seed: int = DEFAULT_SEED,
    stop: StopCondition | Horizon = Saturation(),
    jobs: int = 1,
) -> tuple[list[dict], list[dict]]:
    """Run every (n, seed slot) combination; never aborts on per-run errors.

    Per-run seeds are seed + run_index, in grid order, so the row set is
    identical however many workers execute it.  Returns the per-run rows
    and the per-n aggregate rows.  Raises SizingError before any run
    starts when the largest run, once per concurrent worker, would not fit
    in physical memory, and ValueError when an n is repeated.
    """
    if not n_values or seeds_per_n < 1:
        raise ValueError("need at least one n and one seed per n")
    if len(set(n_values)) < len(n_values):
        raise ValueError(f"each n may appear once, got {n_values}")
    runs = [
        (n, seed + ni * seeds_per_n + s, stop)
        for ni, n in enumerate(n_values)
        for s in range(seeds_per_n)
    ]
    workers = min(jobs, len(runs)) if jobs > 1 else 1
    check_fits(
        estimated_bytes(max(n_values)) * workers,
        f"{workers} concurrent run(s) at n={max(n_values)}",
    )
    if workers > 1:
        from multiprocessing import Pool  # only a parallel sweep pays its import

        with Pool(processes=workers) as pool:
            rows = pool.starmap(_sweep_row, runs)
    else:
        rows = [_sweep_row(*run) for run in runs]

    aggregates: list[dict] = []
    for n in n_values:
        ok_rows = [r for r in rows if r["n"] == n and r["status"] == "ok"]
        entry: dict = {"n": n, "runs": seeds_per_n, "ok": len(ok_rows)}
        for column in SWEEP_COLUMNS[SWEEP_COLUMNS.index("c_n"):]:
            values = [r[column] for r in ok_rows if r.get(column) is not None]
            if values:
                key = "c" if column == "c_n" else column
                entry[f"{key}_mean"] = fmean(values)
                entry[f"{key}_std"] = pstdev(values)
        aggregates.append(entry)
    return rows, aggregates


def write_sweep_files(
    rows: list[dict], aggregates: list[dict], out_dir: Path
) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    _write_csv(
        csv_path,
        SWEEP_COLUMNS,
        ([csv_field(row.get(column)) for column in SWEEP_COLUMNS] for row in rows),
    )
    _write_json(
        out_dir / "sweep_summary.json",
        {"schema_version": SCHEMA_VERSION, "aggregates": aggregates},
    )
    return csv_path


# ----------------------------------------------------------------------
# audits

@dataclass(frozen=True)
class AuditOutcome:
    """Aggregate of periodic full-state audits."""

    audits: int
    failures: tuple[tuple[int, AuditReport], ...]  # (step, failing report)

    @property
    def ok(self) -> bool:
        return not self.failures


def audit_run(config: RunConfig) -> AuditOutcome:
    """Run with a full ground-truth audit every ceil(horizon / 50) steps
    (every step while the horizon is at most 50) and at the final step,
    each step audited once.  Unlike `run_simulation`'s checkpoints, the
    audits skip the grid steps that are off that cadence.

    The distributional check against the permutation ordering is
    `oracle.equivalence_tv`; `trifree audit --oracle` runs it before this.
    """
    params = TrajectoryParams(config.n)
    horizon = params.horizon
    cadence = default_cadence(horizon)
    state = ProcessState(config.n, config.seed)
    audited: list[int] = []
    failures: list[tuple[int, AuditReport]] = []

    def audit(st: ProcessState) -> None:
        report = st.audit(st.total_pairs)
        audited.append(st.steps)
        if not report.ok:
            failures.append((st.steps, report))

    def hook(st: ProcessState, result: StepResult) -> None:
        if st.steps % cadence == 0:
            audit(st)

    state.run(_resolve_stop(config.stop, horizon), on_step=hook)
    if not audited or audited[-1] != state.steps:  # the final step, unless just audited
        audit(state)
    return AuditOutcome(audits=len(audited), failures=tuple(failures))
