"""Smoke test of the benchmark at tiny sizes (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload path untraced and traced and checks that each metric
BENCHMARK.json names is reported with its unit, that every correctness
check passes, and that the traced layers' self times add up to the traced
run time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()
from workloads import EngineSaturate, OracleTiny, PatternsAudit, SimulateDefault  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "engine-saturate": lambda: EngineSaturate(n=60),
    "simulate-default": lambda: SimulateDefault(n=60),
    "patterns-audit": lambda: PatternsAudit(n=60),
    # 4 x 10k trials per side keeps the TV check at its real threshold
    "oracle-tiny": lambda: OracleTiny(ns=(4,), trials=10_000),
}


def test_workload_names_match_benchmark_json():
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCH["workloads"])
    assert sorted(TINY) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_reported_and_checks_pass(name, trace, tmp_path):
    result, _ = run.run(TINY[name](), seed=3, seconds=0.01, trace=trace, out=tmp_path)

    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], float), metric["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = ("process", "trajectory", "patterns", "harness", "oracle")
    total = sum(metrics[f"{layer}.self_s"] for layer in layers) + metrics["harness.write_s"]
    assert total == pytest.approx(metrics["trace.run_s"], rel=1e-9)
    assert metrics["process.steps"] > 0
    assert metrics["process.closed_per_step"] > 0
    # the mean over all steps lies within the means of its scaled-time bins
    bins = [metrics[f"process.step_us.t{k}"] for k in range(4)]
    bins = [b for b in bins if b > 0]
    assert min(bins) <= metrics["process.step_us"] <= max(bins)
    assert (tmp_path / f"trace-{name}.spans.gz").stat().st_size > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-tiny",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
