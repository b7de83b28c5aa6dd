"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads engine-saturate oracle-tiny \\
        --seeds 1-10 --seconds 20 --json out.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles and their distance as a share of the median (the
spread), as `statistics.quantiles(values, n=4)` gives them.  Runs are
sequential, one process at a time, and untraced (`--trace 0`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return {
        "median": mid, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / mid if mid else 0.0, "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report: dict[str, dict] = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in parse_seeds(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            | {"unit": runs[0]["metrics"][name]["unit"]}
            for name in runs[0]["metrics"]
        }
        report[workload] = {"runs": len(runs), "failed": failed, "metrics": metrics}
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or m["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(
                f"{workload:<17} {name:<36} median {m['median']:<12.6g} {m['unit']:<6} "
                f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']:.4f}{flag}",
                flush=True,
            )
        print(f"{workload:<17} failed {failed} of {sum(r['attempted'] for r in runs)}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
