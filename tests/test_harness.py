"""Tests for run drivers, sweeps, audits, file outputs, and the CLI."""

from __future__ import annotations

import argparse
import ast
import csv
import dataclasses
import hashlib
import importlib
import json
import math
import multiprocessing
import re
import tracemalloc
import warnings
from pathlib import Path

import pytest

from trifree import cli, harness, oracle, process
from trifree.cli import build_parser, main
from trifree.harness import (
    CHECKPOINT_COLUMNS,
    SCHEMA_VERSION,
    Horizon,
    RunConfig,
    RunSummary,
    SWEEP_COLUMNS,
    audit_run,
    load_patterns,
    measurement_rng,
    parse_stop,
    run_simulation,
    stop_label,
    sweep,
    write_run_artifacts,
    write_sweep_files,
)
from trifree.patterns import (
    FirstAppearanceTracker,
    complete_bipartite_pattern,
    cycle_pattern,
    pattern_text,
)
from trifree.process import (
    PairStatus,
    ProcessState,
    Saturation,
    SizingError,
    StepResult,
    Steps,
    estimated_bytes,
)
from trifree.trajectory import default_cadence, step_horizon

from reference import pair_status

C4_FILE_TEXT = pattern_text(cycle_pattern(4))


@pytest.fixture
def c4_path(tmp_path):
    path = tmp_path / "c4.pattern"
    path.write_text(C4_FILE_TEXT)
    return str(path)


# ----------------------------------------------------------------------
# stop parsing

def test_parse_stop_forms():
    assert parse_stop("saturation") == Saturation()
    assert parse_stop("steps:50") == Steps(50)
    assert parse_stop("horizon:1") == Horizon(1.0)
    assert parse_stop("horizon:2.5") == Horizon(2.5)


def test_parse_stop_rejects_garbage():
    for bad in (
        "idle", "steps:", "horizon:0", "steps:-3", "horizon:x", "horizon:inf", "horizon:nan"
    ):
        with pytest.raises(ValueError):
            parse_stop(bad)


def test_stop_values_that_are_not_numbers_are_unrecognised(tmp_path, capsys):
    for bad in ("steps:abc", "steps:1.5", "horizon:x"):
        with pytest.raises(ValueError, match="unrecognised stop condition"):
            parse_stop(bad)
        assert main(["run", "--n", "10", "--stop", bad, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: unrecognised stop condition {bad!r}; "
            "expected saturation, steps:K, or horizon:X\n"
        )


def test_stop_label_roundtrip():
    for text in ("saturation", "steps:50", "horizon:1", "horizon:2.5"):
        assert stop_label(parse_stop(text)) == text


# ----------------------------------------------------------------------
# single runs

def test_run_simulation_saturation_summary():
    config = RunConfig(n=3, seed=1)
    result = run_simulation(config)
    summary = result.summary
    assert summary.final_step == 2
    assert summary.saturated
    assert len(list(result.state.iter_edges())) == summary.final_step
    assert summary.schema_version == "2"


def test_run_simulation_horizon_stop():
    n = 30
    config = RunConfig(n=n, seed=5, stop=Horizon(1.0))
    result = run_simulation(config)
    assert result.summary.final_step == step_horizon(n)
    assert not result.summary.saturated


def test_run_simulation_horizon_stop_at_scale():
    config = RunConfig(n=2000, seed=7, stop=Horizon(1.0))
    result = run_simulation(config)
    assert result.summary.final_step == step_horizon(2000) == 7705
    assert not result.summary.saturated


def test_run_rejects_tiny_n():
    with pytest.raises(ValueError, match="n must be at least 2"):
        RunConfig(n=1, seed=1)


def test_drivers_raise_no_warnings():
    # an empty step horizon is a `trifree` notice, not a library warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert step_horizon(4) == 0
        run_simulation(RunConfig(n=4))
        audit_run(RunConfig(n=6))
        sweep([4, 5], 1)


def test_checkpoints_cover_start_and_end():
    # the run ends off the cadence, so the final checkpoint is an extra one
    config = RunConfig(n=300, seed=3, stop=Steps(1001))
    result = run_simulation(config)
    steps = [cp.step for cp in result.checkpoints]
    assert default_cadence(result.summary.horizon) == 8
    assert steps[0] == 0
    assert steps[-1] == result.summary.final_step == 1001
    assert steps == sorted(set(steps))


def test_pattern_tracking_through_config(tmp_path, c4_path):
    config = RunConfig(n=30, seed=2, patterns=(c4_path,))
    result = run_simulation(config)
    appearance = result.summary.first_appearance["c4"]
    assert appearance is not None
    assert 1 <= appearance <= result.summary.final_step
    blocked = result.summary.blocked_fraction_at_horizon["c4"]
    assert blocked is not None and 0.0 <= blocked <= 1.0


@pytest.fixture
def pattern_paths(tmp_path):
    """C4, C6, K3,3 and K6,6 pattern files."""
    paths = []
    for pattern in (
        cycle_pattern(4),
        cycle_pattern(6),
        complete_bipartite_pattern(3, 3),
        complete_bipartite_pattern(6, 6),
    ):
        path = tmp_path / f"{pattern.label}.pattern"
        path.write_text(pattern_text(pattern))
        paths.append(str(path))
    return tuple(paths)


@pytest.mark.parametrize(
    "n, expected",
    [
        # the horizon is empty at n <= 7; the search still runs to the stop
        (6, {"C4": 7, "C6": 6, "K3,3": 9, "K6,6": None}),
        # K3,3 first appears past the horizon, step 387
        (300, {"C4": 343, "C6": 229, "K3,3": 1595, "K6,6": None}),
    ],
)
def test_first_appearances_are_searched_up_to_the_stop(pattern_paths, n, expected):
    config = RunConfig(n=n, seed=3, stop=Steps(2000), patterns=pattern_paths)
    assert run_simulation(config).summary.first_appearance == expected


@pytest.mark.parametrize("n", [6, 10, 300])
def test_run_offers_only_live_fitting_trackers(monkeypatch, pattern_paths, n):
    offers = []
    offer = FirstAppearanceTracker.offer

    def spy(self, rows, u, v, step):
        found = offer(self, rows, u, v, step)
        offers.append((self.pattern.label, step, found))
        return found

    monkeypatch.setattr(FirstAppearanceTracker, "offer", spy)
    config = RunConfig(n=n, seed=3, stop=Steps(2000), patterns=pattern_paths)
    summary = run_simulation(config).summary
    for label, first in summary.first_appearance.items():
        steps = [step for name, step, _ in offers if name == label]
        hits = [step for name, step, found in offers if name == label and found]
        if label == "K6,6" and n < 12:
            assert steps == []  # more pattern vertices than graph vertices
            continue
        # every step up to the copy, or to the run's last step, and no more
        assert steps == list(range(1, (first or summary.final_step) + 1))
        assert hits == ([] if first is None else [first])
    # placements cover every fitting pattern, found or not, also at a
    # horizon of 0 (n = 6), where they are classified before the first step
    fractions = summary.blocked_fraction_at_horizon
    assert [k for k, f in fractions.items() if f is None] == (
        ["K6,6"] if n < 12 else []
    )


def test_pattern_labels_are_distinct(tmp_path):
    paths = []
    for rel in ("a/c4.txt", "b/c4.txt", "a/x-2.txt", "b/x.txt", "c/x.txt"):
        path = tmp_path / rel
        path.parent.mkdir(exist_ok=True)
        path.write_text(C4_FILE_TEXT)
        paths.append(str(path))
    # a repeated stem gets its index as a suffix, or a later one if taken
    assert [p.label for p in load_patterns(paths[:2])] == ["c4", "c4-1"]
    assert len({p.label for p in load_patterns(paths[2:])}) == 3
    summary = run_simulation(RunConfig(n=60, seed=1, patterns=tuple(paths[2:]))).summary
    assert len(summary.first_appearance) == 3
    assert len(summary.blocked_fraction_at_horizon) == 3


def test_run_artifacts_files(tmp_path, c4_path):
    config = RunConfig(n=20, seed=9, patterns=(c4_path,))
    result = run_simulation(config)
    out = tmp_path / "out"
    write_run_artifacts(result, out)
    summary = result.summary

    with open(out / "checkpoints.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CHECKPOINT_COLUMNS
    assert len(rows) >= 3

    edge_lines = (out / "edges.log").read_text().splitlines()
    assert len(edge_lines) == summary.final_step
    first = edge_lines[0].split()
    assert first[0] == "1" and len(first) == 3
    steps = [int(line.split()[0]) for line in edge_lines]
    assert steps == list(range(1, summary.final_step + 1))

    with open(out / "summary.json") as fh:
        data = json.load(fh)
    assert RunSummary.from_dict(data) == summary
    for version in ("3", None):
        with pytest.raises(ValueError, match="schema_version"):
            RunSummary.from_dict({**data, "schema_version": version})
    # a schema 1 summary, with the three fields that schema 2 dropped
    schema_1 = {
        **data,
        "schema_version": "1",
        "final_edge_count": summary.final_step,
        "blocking_window_start": 55,
        "checkpoint_path": str(out / "checkpoints.csv"),
    }
    with pytest.raises(ValueError, match="schema_version '1' is not '2'"):
        RunSummary.from_dict(schema_1)


def test_edge_log_is_written_from_the_log_columns(tmp_path):
    # the file is streamed: writing a saturated n = 1000 run's 35k edges
    # must not build them all in memory first
    config = RunConfig(n=1000, seed=1)
    result = run_simulation(config)
    assert result.summary.saturated
    tracemalloc.start()
    try:
        write_run_artifacts(result, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    lines = (tmp_path / "edges.log").read_text().splitlines()
    assert lines == [
        f"{i} {u} {v}" for i, (u, v) in enumerate(result.state.iter_edges(), start=1)
    ]


def test_run_artifacts_reproducible_bytes(tmp_path, c4_path):
    config = RunConfig(n=25, seed=4, patterns=(c4_path,))
    write_run_artifacts(run_simulation(config), tmp_path / "a")
    write_run_artifacts(run_simulation(config), tmp_path / "b")
    assert (tmp_path / "a/edges.log").read_bytes() == (
        tmp_path / "b/edges.log"
    ).read_bytes()
    assert (tmp_path / "a/checkpoints.csv").read_bytes() == (
        tmp_path / "b/checkpoints.csv"
    ).read_bytes()

    # summary.json is a function of the config plus duration_seconds: it
    # does not depend on the output directory
    def summary_without_duration(out):
        lines = (out / "summary.json").read_bytes().splitlines(keepends=True)
        kept = [line for line in lines if b'"duration_seconds"' not in line]
        assert len(kept) == len(lines) - 1
        return b"".join(kept)

    assert summary_without_duration(tmp_path / "a") == summary_without_duration(
        tmp_path / "b"
    )


def test_writing_leaves_the_result_as_it_is(tmp_path, c4_path):
    result = run_simulation(RunConfig(n=25, seed=4, patterns=(c4_path,)))
    summary, fields = result.summary, dataclasses.asdict(result.summary)
    checkpoints = list(result.checkpoints)
    edges = list(result.state.iter_edges())
    assert write_run_artifacts(result, tmp_path) is None
    assert result.summary is summary
    assert dataclasses.asdict(result.summary) == fields
    assert result.checkpoints == checkpoints
    assert list(result.state.iter_edges()) == edges
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.summary = summary


def test_tracking_patterns_leaves_the_checkpoints_as_they_are(tmp_path, pattern_paths):
    # placements draw from their own stream, so the checkpoint samples of a
    # run are the same whatever patterns it tracks
    config = RunConfig(n=300, seed=7, stop=Horizon(4.0))
    write_run_artifacts(run_simulation(config), tmp_path / "plain")
    tracked = dataclasses.replace(config, patterns=pattern_paths[:2])  # C4, C6
    result = run_simulation(tracked)
    assert all(f is not None for f in result.summary.blocked_fraction_at_horizon.values())
    write_run_artifacts(result, tmp_path / "tracked")
    for name in ("checkpoints.csv", "edges.log"):
        assert (tmp_path / "plain" / name).read_bytes() == (
            tmp_path / "tracked" / name
        ).read_bytes()


def test_summary_fields_are_pinned_with_the_schema_version():
    # a change to these names is a schema change: bump SCHEMA_VERSION with it
    assert SCHEMA_VERSION == "2"
    assert [f.name for f in dataclasses.fields(RunSummary)] == [
        "schema_version",
        "n",
        "seed",
        "stop",
        "final_step",
        "saturated",
        "horizon",
        "first_appearance",
        "blocked_fraction_at_horizon",
        "duration_seconds",
    ]


def test_readme_lists_the_checkpoint_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"`checkpoints\.csv` - columns\s+`([^`]*)`", readme)
    assert listed is not None
    assert listed.group(1) == ",".join(CHECKPOINT_COLUMNS)


def test_run_golden_outputs(tmp_path, capsys, c4_path):
    # Recorded with the bitmask pair store, checkpoints.csv again for its
    # finite-n columns. A change that keeps the engine and the output
    # schemas must leave these bytes as they are.
    out = tmp_path / "run"
    argv = ["run", "--n", "300", "--seed", "7", "--stop", "horizon:4"]
    assert main(argv + ["--pattern", c4_path, "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("edges.log", "checkpoints.csv")
    }
    assert digests == {
        "edges.log": "0da49dfae9498f1541a42791bd4538dae80bbfc48b81d914568646b607c23e73",
        "checkpoints.csv": "3ec8b8877fa94b7a1fcc0e0505c25a97111fd7aa2eb9c8a816637ae54b99a0cb",
    }
    summary = json.loads((out / "summary.json").read_text())
    del summary["duration_seconds"]
    assert summary == {
        "blocked_fraction_at_horizon": {"c4": 0.0846},
        "final_step": 1548,
        "first_appearance": {"c4": 272},
        "horizon": 387,
        "n": 300,
        "saturated": False,
        "schema_version": "2",
        "seed": 7,
        "stop": "horizon:4",
    }


def test_run_to_saturation_outputs_are_pinned(tmp_path, capsys):
    # The checkpoints of this run reach every branch of the pair sampler
    # on the rebuilt index: 204 draw from the getrandbits loop, 49 from
    # Random.sample's pool and 34 walk the whole index (count >= Q). The
    # golden above never leaves the range index.
    out = tmp_path / "run"
    assert main(["run", "--n", "200", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("edges.log", "checkpoints.csv")
    }
    assert digests == {
        "edges.log": "859392d3f0e42afa89557c28dc079cc3e34b87b97ac3b3d2f5031ead5c31024a",
        "checkpoints.csv": "d2516aaad6287d93d106e20291974960d079a5727c244e03cd2d3f69d739137e",
    }


def test_run_rejects_bad_pattern_before_simulating(tmp_path):
    bad = tmp_path / "bad.pattern"
    bad.write_text("3 3\n0 1\n1 2\n0 2\n")
    config = RunConfig(n=2000, seed=1, patterns=(str(bad),))
    # a triangle pattern must fail fast, not after a large run
    with pytest.raises(Exception):
        write_run_artifacts(run_simulation(config), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_every_run_setting_is_recorded(tmp_path, pattern_paths):
    # a run is named by n, seed, stop and patterns, and summary.json has them all
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "n", "seed", "stop", "patterns"
    ]
    config = RunConfig(n=40, seed=11, stop=Horizon(2.0), patterns=pattern_paths[:2])
    write_run_artifacts(run_simulation(config), tmp_path)
    data = json.loads((tmp_path / "summary.json").read_text())
    assert (data["n"], data["seed"], data["stop"]) == (40, 11, stop_label(config.stop))
    labels = sorted(p.label for p in load_patterns(config.patterns))
    assert labels == ["C4", "C6"]
    assert sorted(data["first_appearance"]) == labels
    assert sorted(data["blocked_fraction_at_horizon"]) == labels


# ----------------------------------------------------------------------
# sweeps

def test_sweep_row_count_and_errors():
    rows, aggregates = sweep([10, 1, 12], 2, seed=100, stop=Saturation())
    assert len(rows) == 6  # |n list| x seeds per n, errors included
    by_n = {n: [r for r in rows if r["n"] == n] for n in (10, 1, 12)}
    assert all(r["status"] == "error" for r in by_n[1])
    assert all(r["status"] == "ok" for r in by_n[10] + by_n[12])
    assert all("at least 2" in r["error"] for r in by_n[1])
    # aggregate rows track the n list
    assert [a["n"] for a in aggregates] == [10, 1, 12]
    assert aggregates[1]["ok"] == 0


def test_sweep_rejects_a_repeated_n(monkeypatch, tmp_path, capsys):
    def no_run(n, seed, stop):
        raise AssertionError("a run was started")

    monkeypatch.setattr(harness, "_sweep_row", no_run)
    for n_values in ([10, 10], [10, 12, 10]):
        with pytest.raises(ValueError, match="each n may appear once"):
            sweep(n_values, 2, seed=1)
    assert main(["sweep", "--n", "10", "--n", "10", "--out", str(tmp_path)]) == 1
    assert "each n may appear once" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_seeds_are_base_plus_index():
    rows, _ = sweep([10, 12], 2, seed=500)
    assert [r["seed"] for r in rows] == [500, 501, 502, 503]


def test_sweep_saturation_has_positive_c():
    rows, aggregates = sweep([16], 3, seed=1, stop=Saturation())
    for row in rows:
        assert row["saturated"] is True
        expected = row["final_step"] / (16**1.5 * math.sqrt(math.log(16)))
        assert row["c_n"] == pytest.approx(expected)
    assert aggregates[0]["c_mean"] > 0


def test_sweep_parallel_matches_serial():
    serial_rows, serial_agg = sweep([12, 14], 2, seed=77, jobs=1)
    parallel_rows, parallel_agg = sweep([12, 14], 2, seed=77, jobs=2)
    assert serial_rows == parallel_rows
    assert serial_agg == parallel_agg


def test_sweep_starts_no_more_workers_than_runs(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, items):
            return [func(*item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    rows, _ = sweep([10], 2, seed=1, jobs=8)
    assert started == [2]
    assert [r["status"] for r in rows] == ["ok"] * 2
    sweep([10], 1, seed=1, jobs=8)  # one run: serial, no pool
    assert started == [2]


def test_sweep_checks_memory_before_starting_workers(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    with pytest.raises(SizingError, match="n=1000000"):
        sweep([10, 1_000_000], 1, seed=1, jobs=2)
    # the budget counts one largest run per concurrent worker
    monkeypatch.setattr(process, "physical_memory_bytes", lambda: 2 * estimated_bytes(12) - 1)
    with pytest.raises(SizingError, match="2 concurrent"):
        sweep([12], 3, seed=1, jobs=2)
    rows, _ = sweep([12], 3, seed=1, jobs=1)
    assert [r["status"] for r in rows] == ["ok"] * 3


def test_write_sweep_files(tmp_path):
    rows, aggregates = sweep([10], 2, seed=9)
    path = write_sweep_files(rows, aggregates, tmp_path)
    with open(path, newline="") as fh:
        read = list(csv.reader(fh))
    assert tuple(read[0]) == SWEEP_COLUMNS
    assert len(read) == 3
    with open(tmp_path / "sweep_summary.json") as fh:
        data = json.load(fh)
    assert data["schema_version"] == "2"
    assert data["aggregates"][0]["n"] == 10


def test_sweep_golden_outputs(tmp_path, capsys):
    # Recorded before the sweep writers were rewritten; an error row, runs
    # that stop short of some grid points, and serial and parallel workers
    # must all give these bytes
    argv = ["sweep", "--n", "40", "--n", "1", "--n", "90", "--seeds-per-n", "3"]
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(argv + ["--seed", "5", "--jobs", jobs, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in (
                ("sweep.csv", (out / "sweep.csv").read_bytes()),
                ("sweep_summary.json", (out / "sweep_summary.json").read_bytes()),
                ("stdout", printed.encode()),
            )
        }
        assert digests == {
            "sweep.csv": "79d8a6284f3756b9f1ff7231abf1ace27f8771520cf1fe3030dece23a83e10d1",
            "sweep_summary.json": "7a95c3452b8cde48d79490049b655b49fb0c456fbfd26eacad1e7ae3b8899f59",
            "stdout": "cd418671d3032f956f7a22b0b19ab2f471201cdb88ce51428d130af3675d6f76",
        }


# ----------------------------------------------------------------------
# audits

def test_audit_run_clean():
    outcome = audit_run(RunConfig(n=40, seed=3))
    assert outcome.ok
    assert outcome.audits >= 2
    assert outcome.failures == ()


@pytest.mark.parametrize(
    "n, stop, audits",
    [
        (30, Saturation(), 132),  # cadence 1: the final step is on it
        (100, Steps(51), 26),  # cadence 2: the final step is off it
        (30, Steps(0), 1),  # no step: the start state is the final one
    ],
    ids=["on-cadence", "off-cadence", "no-step"],
)
def test_audit_run_audits_each_step_once(monkeypatch, n, stop, audits):
    audited = []
    audit = ProcessState.audit

    def spy(self, *args):
        audited.append(self.steps)
        return audit(self, *args)

    monkeypatch.setattr(ProcessState, "audit", spy)
    outcome = audit_run(RunConfig(n=n, seed=3, stop=stop))
    assert outcome.ok
    assert outcome.audits == len(audited) == len(set(audited)) == audits
    final = ProcessState(n, 3).run(stop).steps
    assert audited[-1] == final
    assert audited == sorted(audited)


def test_audit_run_catches_corruption(monkeypatch):
    class CorruptedAfterFirstStep(ProcessState):
        """Flips one OPEN pair to CLOSED behind the engine's back."""

        def step(self):
            result = super().step()
            if self.steps == 1:
                u, v = next(
                    (u, v)
                    for u in range(self.n)
                    for v in range(u + 1, self.n)
                    if pair_status(self, u, v) == PairStatus.OPEN
                )
                self._open_mask[u] &= ~(1 << v)
                self._open_mask[v] &= ~(1 << u)
            return result

    monkeypatch.setattr(harness, "ProcessState", CorruptedAfterFirstStep)
    outcome = audit_run(RunConfig(n=20, seed=3))
    assert not outcome.ok
    step, report = outcome.failures[0]
    assert report.discrepancies or not report.open_count_consistent


def corrupted_state_class(cleared, planted):
    """A ProcessState that clears one copy of an OPEN pair after step 1,
    then logs an edge that closes a triangle; it records both faults."""

    class Corrupted(ProcessState):
        def step(self):
            result = super().step()
            if self.steps == 1:
                u, v = next(
                    (u, v)
                    for u in range(self.n)
                    for v in range(u + 1, self.n)
                    if pair_status(self, u, v) == PairStatus.OPEN
                )
                self._open_mask[v] &= ~(1 << u)  # the higher endpoint's copy only
                cleared.append((u, v))
            elif self.steps >= 3 and not planted:
                # two neighbours a < c of one vertex, joined in the log only
                row = next((r for r in self.edge_masks if r.bit_count() >= 2), 0)
                if row:
                    a, c = [w for w in range(self.n) if row >> w & 1][:2]
                    self._log_u.append(a)
                    self._log_v.append(c)
                    planted.append((a, c))
            return result

    return Corrupted


def test_audit_cli_reports_each_failure(monkeypatch, capsys):
    cleared = []
    planted = []
    Corrupted = corrupted_state_class(cleared, planted)
    monkeypatch.setattr(harness, "ProcessState", Corrupted)
    assert main(["audit", "--n", "20", "--seed", "3"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert planted
    (u, v), = cleared
    assert "audit clean" not in lines
    assert "audit FAILED at step 1:" in lines
    assert f"  pair ({u}, {v}): stored CLOSED, recomputed OPEN" in lines
    assert "  open-pair count disagrees with the status store" in lines
    assert any(line.startswith("  triangle on (") for line in lines)


def test_audit_cli_prints_a_repeated_failure_once(monkeypatch, capsys):
    monkeypatch.setattr(harness, "ProcessState", corrupted_state_class([], []))
    failing = len(audit_run(RunConfig(n=20, seed=3)).failures)
    monkeypatch.setattr(harness, "ProcessState", corrupted_state_class([], []))
    assert main(["audit", "--n", "20", "--seed", "3"]) == 2
    lines = capsys.readouterr().out.splitlines()
    blocks = []
    for line in lines:
        if line.startswith("audit FAILED at step "):
            blocks.append([])
        elif line.startswith("  ") and blocks:
            blocks[-1].append(line)
    assert all(a != b for a, b in zip(blocks, blocks[1:]))
    repeats = re.fullmatch(
        r"(\d+) of the failing audits repeated the findings printed before them", lines[-1]
    )
    assert repeats and int(repeats[1]) > 0
    assert len(blocks) + int(repeats[1]) == failing


def test_audit_oracle_smoke(monkeypatch, capsys):
    # criterion 2 runs the real comparison; here a stub gives a TV on each
    # side of the tolerance
    asked = []
    argv = ["audit", "--n", "4", "--seed", "1", "--oracle"]
    for tv, code, verdict in ((0.5, 0, "ok"), (2.0, 2, "FAILED")):
        tv *= oracle.TV_TOLERANCE
        monkeypatch.setattr(cli, "equivalence_tv", lambda n, tv=tv: asked.append(n) or tv)
        assert main(argv) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            f"permutation-ordering TV distance: {tv:.5f} (threshold 0.02) {verdict}"
        )
        # a clean run still fails when the distributions are too far apart
        assert ("audit clean" in lines) == (code == 0)
    assert asked == [4, 4]


def test_audit_oracle_needs_small_n():
    with pytest.raises(ValueError, match="n must be <= 5"):
        oracle.equivalence_tv(6)


# ----------------------------------------------------------------------
# measurement rng separation

def test_measurement_rng_is_decoupled_from_run_seed():
    a = measurement_rng(1)
    b = measurement_rng(1)
    c = measurement_rng(2)
    seq_a = [a.random() for _ in range(5)]
    assert seq_a == [b.random() for _ in range(5)]
    assert seq_a != [c.random() for _ in range(5)]


# ----------------------------------------------------------------------
# CLI

def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["run", "--n", "3", "--seed", "1", "--stop", "saturation", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["final_step"] == 2
    # stdout is the text of summary.json, byte for byte
    assert printed.encode() == (out / "summary.json").read_bytes()


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["run", "--n", "1", "--out", str(tmp_path)]) == 1
    assert main(["run", "--n", "3", "--stop", "whenever", "--out", str(tmp_path)]) == 1
    assert main(["run", "--n", "50", "--stop", "horizon:inf", "--out", str(tmp_path)]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["run"]) == 1  # --n missing
    capsys.readouterr()


def test_cli_options_per_command():
    """Each subcommand's option strings, dests and defaults, pinned."""
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    options = {
        name: {s for action in sub._actions for s in action.option_strings}
        for name, sub in commands.items()
    }
    stepping = {"-h", "--help", "--n", "--seed", "--stop"}
    assert options == {
        "run": stepping | {"--pattern", "--out"},
        "sweep": stepping | {"--out", "--seeds-per-n", "--jobs"},
        "audit": stepping | {"--oracle"},
        "pattern-check": {"-h", "--help"},
    }
    common = {"seed": 1729, "stop": "saturation"}
    assert vars(parser.parse_args(["run", "--n", "5"])) == {
        "command": "run", "n": 5, **common, "pattern": [], "out": "trifree_out"
    }
    assert vars(parser.parse_args(["sweep", "--n", "5"])) == {
        "command": "sweep",
        "n": [5],
        **common,
        "out": "trifree_out",
        "seeds_per_n": 10,
        "jobs": 1,
    }
    assert vars(parser.parse_args(["audit", "--n", "5"])) == {
        "command": "audit",
        "n": 5,
        **common,
        "oracle": False,
    }


def test_cli_sweep(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--n", "10",
            "--n", "12",
            "--seeds-per-n", "2",
            "--seed", "5",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert "4 rows" in capsys.readouterr().out
    assert (tmp_path / "sweep.csv").exists()


def test_cli_audit_clean(capsys):
    assert main(["audit", "--n", "30", "--seed", "3"]) == 0
    assert "audit clean" in capsys.readouterr().out


def test_cli_prints_warnings_as_plain_lines(monkeypatch, tmp_path, capsys):
    # n = 4 has an empty step horizon, which `trifree` notes
    monkeypatch.setattr(cli, "equivalence_tv", lambda n: oracle.TV_TOLERANCE / 2)
    assert main(["run", "--n", "4", "--out", str(tmp_path)]) == 0
    assert main(["audit", "--n", "4", "--oracle"]) == 0
    err = capsys.readouterr().err
    assert ".py" not in err
    lines = err.splitlines()
    message = "warning: step horizon is empty at n=4; trajectory checks need larger n"
    assert lines and all(line == message for line in lines)


def test_cli_sweep_warns_once_per_n_whatever_the_workers(tmp_path, capfd):
    # capture file descriptor 2, where a worker writing its own notes would
    # show; n = 1 is an error row, with no note
    expected = [
        f"warning: step horizon is empty at n={n}; trajectory checks need larger n"
        for n in (4, 5)
    ]
    for jobs in ("1", "2"):
        argv = ["sweep", "--n", "1", "--n", "4", "--n", "5", "--seeds-per-n", "2"]
        assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        assert capfd.readouterr().err.splitlines() == expected, jobs
        with open(tmp_path / jobs / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], r["status"]) for r in rows[:2]] == [("1", "error")] * 2
        assert all(r["error"] == "ValueError: n must be at least 2, got 1" for r in rows[:2])
        assert [r["status"] for r in rows[2:]] == ["ok"] * 4


def test_cli_audit_oracle_usage_error(capsys):
    assert main(["audit", "--n", "10", "--oracle"]) == 1
    assert "n must be <= 5" in capsys.readouterr().err


def test_cli_pattern_check(tmp_path, capsys, c4_path):
    bad = tmp_path / "triangle.pattern"
    bad.write_text("3 3\n0 1\n1 2\n0 2\n")
    assert main(["pattern-check", c4_path]) == 0
    assert main(["pattern-check", str(bad)]) == 1
    assert main(["pattern-check", c4_path, str(bad)]) == 1
    out = capsys.readouterr().out
    assert "ok k=4 e=4" in out and "INVALID" in out


def test_cli_pattern_run_integration(tmp_path, capsys, c4_path):
    out = tmp_path / "run"
    code = main(
        [
            "run",
            "--n", "30",
            "--seed", "2",
            "--pattern", c4_path,
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "c4" in summary["first_appearance"]
    capsys.readouterr()


# ----------------------------------------------------------------------
# the benchmark's entry points

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_entry_points_exist():
    # perfbench/ imports these names and patches these attributes to time
    # the layers; its own smoke test is slow, so a removal must fail here
    for script in ("workloads.py", "spans.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("trifree"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (script, alias.name)
    used = {
        harness: ("take_checkpoint", "blocked_placements", "run_simulation",
                  "write_run_artifacts"),
        oracle: ("engine_final_edges", "permutation_final_edges"),
        ProcessState: ("__init__", "step", "audit"),
        FirstAppearanceTracker: ("offer",),
        StepResult: ("newly_closed",),
        RunSummary: ("from_dict",),
    }
    for owner, names in used.items():
        for name in names:
            assert hasattr(owner, name), (owner, name)
    # the step spans count on run() calling step() once per step
    calls = []

    class Counting(ProcessState):
        def step(self):
            calls.append(self.steps)
            return super().step()

    outcome = Counting(12, seed=1).run(Saturation())
    assert calls == list(range(outcome.steps + 1))


def test_oracle_spans_see_every_trial(monkeypatch):
    # the oracle spans wrap the module-level per-trial functions, so each
    # distribution must look them up at call time, not bind them earlier
    expected = {
        "engine": oracle.engine_distribution(4, 50, 1),
        "permutation": oracle.permutation_distribution(4, 50, 1),
    }
    calls = {"engine": 0, "permutation": 0}
    for side in calls:
        name = f"{side}_final_edges"
        trial = getattr(oracle, name)

        def counting(*args, side=side, trial=trial):
            calls[side] += 1
            return trial(*args)

        monkeypatch.setattr(oracle, name, counting)
    assert oracle.engine_distribution(4, 50, 1) == expected["engine"]
    assert oracle.permutation_distribution(4, 50, 1) == expected["permutation"]
    assert calls == {"engine": 50, "permutation": 50}
