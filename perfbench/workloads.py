"""The benchmark's four workloads.

Each workload splits one repetition into an untimed `prepare`, the timed
`timed` call and an untimed `check`, and names its set-up separately so
that `setup_s` can be timed on its own.  Checks never depend on the exact
edge sequence: an engine that draws the same distribution in another
order must pass them.

Why these four (sizes keep one repetition near 1 s on a 2-vCPU Xeon VM,
so a 30 s run times 25 or more of them):

engine-saturate   the engine's writes alone: random draw, closure scan,
                  swap-remove, with per-step cost growing with degree.
simulate-default  what `trifree run` does; checkpoint sampling is most of
                  the time, so a checkpoint change shows here only.
patterns-audit    reads of the pair store: tracker adjacency scans,
                  placement classification and a full audit, with few
                  steps.  A store that writes faster but reads slower
                  shows its cost here.
oracle-tiny       thousands of tiny runs, so construction and per-call
                  overhead dominate; the only workload for `oracle`.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from trifree import harness, oracle
from trifree.harness import Horizon, RunConfig, RunSummary, load_patterns
from trifree.patterns import (
    FirstAppearanceTracker,
    complete_bipartite_pattern,
    cycle_pattern,
    pattern_text,
)
from trifree.process import AuditReport, ProcessState, Saturation

# c(n) = final edges / (n^(3/2) sqrt(ln n)); it tends to 1/(2 sqrt 2) ~ 0.354
# and reads about 0.40-0.50 for 30 <= n <= 4000
C_RANGE = (0.30, 0.60)
AUDIT_SAMPLE = 20_000  # pairs re-derived by each sampled check audit
TV_THRESHOLD = 0.02  # the default `trifree audit --tv-threshold`
# patterns-audit's pattern files, by file stem (= tracker label)
PATTERNS = {
    "C4": cycle_pattern(4),
    "C6": cycle_pattern(6),
    "K66": complete_bipartite_pattern(6, 6),
}


@dataclass
class OpResult:
    steps: int  # engine steps taken in the timed call
    trials: int  # independent graphs built in the timed call
    problems: list[str]


def _audit_problems(state: ProcessState, sample: int, rng_seed: int) -> list[str]:
    report = state.audit(sample, random.Random(rng_seed))
    if report.ok:
        return []
    return [
        f"audit failed: {len(report.discrepancies)} status mismatches, "
        f"{len(report.triangles)} triangles, open count consistent: "
        f"{report.open_count_consistent}"
    ]


def _saturation_problems(state: ProcessState) -> list[str]:
    problems = []
    if state.open_pairs != 0:
        problems.append(f"not saturated: {state.open_pairs} open pairs left")
    n = state.n
    c = state.steps / (n**1.5 * math.sqrt(math.log(n)))
    if not C_RANGE[0] <= c <= C_RANGE[1]:
        problems.append(f"c(n)={c:.4f} outside {C_RANGE}")
    return problems


def _summary_problems(summary: RunSummary, out_dir: Path) -> list[str]:
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        parsed = RunSummary.from_dict(json.load(fh))
    if parsed != summary:
        return ["summary.json does not parse back to the written summary"]
    return []


class Workload:
    """What run.py needs of a workload; the hooks default to doing nothing."""

    name: ClassVar[str]
    layer: ClassVar[str]  # layer of the entry point the timed call enters
    min_ops: ClassVar[int] = 3  # repetitions per run, however short --seconds
    setup_batch: ClassVar[int] = 1  # set-ups per timing sample

    def start(self, workdir: Path) -> None:
        """Once per run, before any repetition."""

    def finish(self) -> list[str]:
        """Once per run, after the last repetition: run-wide check problems."""
        return []


@dataclass
class EngineSaturate(Workload):
    """ProcessState(n, seed).run(Saturation())."""

    name: ClassVar[str] = "engine-saturate"
    layer: ClassVar[str] = "process"
    n: int = 1200

    def setup(self, seed: int) -> ProcessState:
        return ProcessState(self.n, seed)

    def prepare(self, seed: int, workdir: Path) -> ProcessState:
        return self.setup(seed)

    def timed(self, state: ProcessState):
        return state.run(Saturation())

    def check(self, state: ProcessState, outcome) -> OpResult:
        problems = _saturation_problems(state) + _audit_problems(state, AUDIT_SAMPLE, state.seed)
        return OpResult(outcome.steps, 1, problems)


@dataclass
class SimulateDefault(Workload):
    """run_simulation with default checkpoints to saturation, then its files."""

    name: ClassVar[str] = "simulate-default"
    layer: ClassVar[str] = "harness"
    n: int = 500

    def setup(self, seed: int):
        return ProcessState(self.n, seed)

    def config(self, seed: int) -> RunConfig:
        return RunConfig(n=self.n, seed=seed)

    def prepare(self, seed: int, workdir: Path) -> tuple[RunConfig, Path]:
        return self.config(seed), workdir / "run"

    def timed(self, prepared):
        config, out_dir = prepared
        result = harness.run_simulation(config)
        harness.write_run_artifacts(result, out_dir)
        return result

    def check(self, prepared, result) -> OpResult:
        config, out_dir = prepared
        state = result.state
        problems = _summary_problems(result.summary, out_dir)
        problems += self.end_problems(result)
        problems += _audit_problems(state, AUDIT_SAMPLE, config.seed)
        return OpResult(state.steps, 1, problems)

    def end_problems(self, result) -> list[str]:
        return _saturation_problems(result.state)


@dataclass
class PatternsAudit(SimulateDefault):
    """run_simulation with C4, C6 and K6,6 trackers to 4x the horizon,
    its files, then one full audit of every pair."""

    name: ClassVar[str] = "patterns-audit"
    HORIZONS: ClassVar[float] = 4.0
    n: int = 600
    paths: tuple[str, ...] = field(default=(), init=False)
    last_audit: AuditReport | None = field(default=None, init=False)

    def start(self, workdir: Path) -> None:
        paths = []
        for label, pattern in PATTERNS.items():
            path = workdir / f"{label}.txt"
            path.write_text(pattern_text(pattern), encoding="utf-8")
            paths.append(str(path))
        self.paths = tuple(paths)

    def setup(self, seed: int):
        state = ProcessState(self.n, seed)
        trackers = [FirstAppearanceTracker(p) for p in load_patterns(self.paths)]
        return state, trackers

    def config(self, seed: int) -> RunConfig:
        return RunConfig(n=self.n, seed=seed, stop=Horizon(self.HORIZONS), patterns=self.paths)

    def timed(self, prepared):
        result = super().timed(prepared)
        self.last_audit = result.state.audit(result.state.total_pairs)
        return result

    def end_problems(self, result) -> list[str]:
        summary = result.summary
        problems = []
        if not self.last_audit.ok:
            problems.append("full audit failed")
        expected = int(self.HORIZONS * summary.horizon)
        if summary.final_step != expected:
            problems.append(f"stopped at step {summary.final_step}, expected {expected}")
        fractions = summary.blocked_fraction_at_horizon
        if sorted(fractions) != sorted(PATTERNS) or not all(
            f is not None and 0.0 <= f <= 1.0 for f in fractions.values()
        ):
            problems.append(f"bad blocked fractions at the horizon: {fractions}")
        return problems


@dataclass
class OracleTiny(Workload):
    """Engine and permutation final-graph distributions at tiny n.

    Each repetition draws `trials` graphs per method and n; the TV check
    runs once over everything the run drew, so it sees at least
    min_ops * trials graphs per side.
    """

    name: ClassVar[str] = "oracle-tiny"
    layer: ClassVar[str] = "oracle"
    min_ops: ClassVar[int] = 10
    setup_batch: ClassVar[int] = 1000
    ns: tuple[int, ...] = (4, 5)
    trials: int = 10_000
    engine: dict[int, Counter] = field(default_factory=dict, init=False)
    permutation: dict[int, Counter] = field(default_factory=dict, init=False)

    def start(self, workdir: Path) -> None:
        self.engine = {n: Counter() for n in self.ns}
        self.permutation = {n: Counter() for n in self.ns}

    def setup(self, seed: int) -> list[ProcessState]:
        return [ProcessState(n, seed) for n in self.ns]

    def prepare(self, seed: int, workdir: Path) -> int:
        return seed

    def timed(self, seed: int):
        # engine trial seeds are seed_base + trial; spread the bases apart
        base = seed * 1_000_000
        return {
            n: (
                oracle.engine_distribution(n, self.trials, base),
                oracle.permutation_distribution(n, self.trials, seed),
            )
            for n in self.ns
        }

    def check(self, seed: int, result) -> OpResult:
        problems = []
        steps = 0
        for n, (engine, permutation) in result.items():
            if sum(engine.values()) != self.trials or sum(permutation.values()) != self.trials:
                problems.append(f"n={n}: trial counts do not add up")
            steps += sum(len(edges) * count for edges, count in engine.items())
            self.engine[n].update(engine)
            self.permutation[n].update(permutation)
        return OpResult(steps, 2 * self.trials * len(self.ns), problems)

    def finish(self) -> list[str]:
        problems = []
        for n in self.ns:
            tv = oracle.total_variation(self.engine[n], self.permutation[n])
            if tv > TV_THRESHOLD:
                problems.append(f"n={n}: TV distance {tv:.4f} > {TV_THRESHOLD}")
        return problems


WORKLOADS = {
    w.name: w for w in (EngineSaturate, SimulateDefault, PatternsAudit, OracleTiny)
}
