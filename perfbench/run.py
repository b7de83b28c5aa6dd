"""Benchmark of the trifree simulator: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload engine-saturate --seed 1 --seconds 25 --trace 0

The workload's repetitions draw their inputs from --seed and repeat until
--seconds is used up (at least a workload-specific minimum); a set-up is
timed before each.  Every repetition is checked outside the timed region.
With --trace 0 the end-to-end metrics are reported: each is the median
over the run's set-ups or repetitions, each rescaled by a fixed
reference loop timed just before it, to take out the host's changing
speed (README.md says why); the first repetition is a warm-up that gives
the peak memory.  With --trace 1 the per-layer ones are: the run times the workload's minimum number of
repetitions untraced, then repeats the same inputs with span recording
on, so the difference is the tracing overhead.  A fixed count keeps
per-layer counts exact for a given seed and bounds the span file,
.perfbench-out/trace-<workload>.spans.gz.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import fmean, median
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# About the reference loop's time in the quiet moments of the recorded
# host (baseline/environment.json); timings are rescaled to a host on
# which the loop takes this long.
REFERENCE_SECONDS = 0.065


def import_package() -> None:
    """Import `trifree` from this checkout's sources, never from elsewhere."""
    if not (SOURCE / "trifree" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no trifree sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import trifree

    if SOURCE.resolve() not in Path(trifree.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported trifree from {trifree.__file__}, not {SOURCE}")


def reference_seconds(size: int = 300_000) -> float:
    """Time a fixed pure-Python loop that uses no `trifree` code.

    Random reads and writes over a few MB of list and int objects: the
    interpreter and memory work the workloads do, so a host that slows
    them slows this loop alike.
    """
    started = perf_counter()
    rng = random.Random(7)
    values = list(range(size))
    acc = 0
    for i in [rng.randrange(size) for _ in range(size // 3)]:
        acc += values[i]
        values[i] = acc & 0xFFFF
    return perf_counter() - started


class Rep(NamedTuple):
    """One timed set-up and repetition of a workload."""

    setup: float  # seconds of one set-up
    seconds: float  # seconds of the timed call
    outcome: object  # the workload's OpResult
    reference: float  # seconds of the reference loop run just before; 0 for the first
    peak_rss_mb: float  # the process's ru_maxrss just after the timed call


def timed_setup(workload, seed: int, tracer=None) -> float:
    """Seconds for one set-up; tiny set-ups are timed as a batch and averaged."""
    if tracer is None:
        started = perf_counter()
        for _ in range(workload.setup_batch):
            workload.setup(seed)
        seconds = perf_counter() - started
    else:
        with tracer.root("setup") as timing:
            for _ in range(workload.setup_batch):
                workload.setup(seed)
        seconds = timing["seconds"]
    return seconds / workload.setup_batch


def run_ops(workload, seeds, workdir: Path, budget: float | None, tracer=None):
    """Time set-up and repetition pairs until `budget` seconds are used.

    With budget None, one pair per seed.  Returns a Rep per repetition;
    seeds are consumed in order.  The reference loop runs before every
    set-up but the first, so the first repetition's memory peak is the
    workload's own.
    """
    done: list[Rep] = []
    started = perf_counter()
    for seed in seeds:
        if budget is not None and len(done) >= workload.min_ops:
            typical = median(r.reference + r.setup + r.seconds for r in done)
            if perf_counter() - started + typical > budget:
                break
        gc.collect()
        reference = reference_seconds() if done else 0.0
        setup = timed_setup(workload, seed, tracer)
        prepared = workload.prepare(seed, workdir)
        gc.collect()
        if tracer is None:
            t0 = perf_counter()
            result = workload.timed(prepared)
            seconds = perf_counter() - t0
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            outcome = workload.check(prepared, result)
        else:
            with tracer.root("op") as timing:
                result = workload.timed(prepared)
            seconds = timing["seconds"]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            with tracer.root("check"):
                outcome = workload.check(prepared, result)
        del prepared, result
        done.append(Rep(setup, seconds, outcome, reference, peak_rss_mb))
    return done


def end_to_end(ops: list[Rep]) -> dict[str, tuple[float, str]]:
    """Medians over the run of each timing times REFERENCE_SECONDS / reference.

    Every set-up and repetition but the first is rescaled by the reference
    loop timed just before it (see README: host noise).  The first, with
    no reference loop before it, gives the peak memory.
    """
    timed = ops[1:]
    scale = [REFERENCE_SECONDS / r.reference for r in timed]
    return {
        "setup_s": (median(r.setup * k for r, k in zip(timed, scale)), "s"),
        "run_s": (median(r.seconds * k for r, k in zip(timed, scale)), "s"),
        "steps_per_s": (median(r.outcome.steps / r.seconds / k for r, k in zip(timed, scale)), "1/s"),
        "trials_per_s": (median(r.outcome.trials / r.seconds / k for r, k in zip(timed, scale)), "1/s"),
        "peak_rss_mb": (ops[0].peak_rss_mb, "MB"),
    }


def run(workload, seed: int, seconds: float, trace: bool, out: Path = OUT):
    """Run one workload; returns the result object and the repetitions."""
    from spans import Tracer  # imports trifree, so only after import_package()

    rng = random.Random(seed)
    seeds = [rng.randrange(2**31) for _ in range(10_000)]
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out))
    try:
        workload.start(workdir)
        if not trace:
            all_ops = run_ops(workload, seeds, workdir, seconds)
            metrics = end_to_end(all_ops)
        else:
            plain = run_ops(workload, seeds[: workload.min_ops], workdir, None)
            tracer = Tracer(workload.layer)
            tracer.install()
            try:
                traced = run_ops(workload, seeds[: workload.min_ops], workdir, None, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics()
            overhead = metrics["trace.run_s"][0] - fmean(r.seconds for r in plain)
            metrics["trace.overhead_s"] = (overhead, "s")
            tracer.write(out / f"trace-{workload.name}.spans.gz")
            all_ops = plain + traced
        run_problems = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(all_ops) if run_problems else sum(1 for r in all_ops if r.outcome.problems)
    for problem in run_problems + [p for r in all_ops for p in r.outcome.problems]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }, all_ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    from workloads import WORKLOADS  # imports trifree, so only after import_package()

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, ops = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    label = f"{args.workload:<17}"
    for name, metric in result["metrics"].items():
        print(f"{label} {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(f"{label} {'fail_frac':<36} {result['failed'] / result['attempted']:.6g} share")
    if not args.trace:
        timed = ops[1:]
        print(
            f"{label} {len(ops)} repetitions; unscaled medians: run_s "
            f"{median(r.seconds for r in timed):.6g} s, setup_s {median(r.setup for r in timed):.6g} s, "
            f"reference loop {median(r.reference for r in timed):.6g} s"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
