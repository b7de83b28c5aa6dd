"""Span recording for the traced benchmark run.

Wrappers are installed from outside the package, around calls into each
layer's public functions, and removed again when the traced run ends;
the `trifree` sources carry no tracing.  Each wrapper is patched where
its caller looks it up: methods on their class, module functions in the
module whose code calls them.

A span is (parent, name, start, end, aux).  Spans live in memory as
flat arrays and are written out once, when the traced run ends.  `aux`
holds one integer per call: for `ProcessState.step` the scaled-time bin
plus STEP_BINS times the number of pairs the step closed (-1 for the
call that finds no open pair), for the others a count named in
`Tracer.install`.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap and the self
times of every span under a root add up to the root's duration.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from trifree import harness, oracle
from trifree.patterns import FirstAppearanceTracker
from trifree.process import ProcessState
from workloads import PATTERNS

# scaled-time bins t = i / n^(3/2) for the per-step engine cost; the
# process saturates near t = 1.2 at the benchmark sizes
STEP_BIN_EDGES = (0.3, 0.6, 0.9)
STEP_BINS = len(STEP_BIN_EDGES) + 1

# span name -> layer; root spans ("setup", "op", "check") take the layer
# of the workload's entry point
LAYERS = {
    "ProcessState.__init__": "process",
    "ProcessState.step": "process",
    "ProcessState.audit": "process",
    "harness.take_checkpoint": "trajectory",
    "harness.blocked_placements": "patterns",
    "harness.run_simulation": "harness",
    "harness.write_run_artifacts": "harness",
    "oracle.engine_final_edges": "oracle",
    "oracle.permutation_final_edges": "oracle",
}
OFFER_PREFIX = "FirstAppearanceTracker.offer."
LAYER_NAMES = ("process", "trajectory", "patterns", "harness", "oracle")
ROOTS = ("setup", "op", "check")
COLUMNS = ("parent", "name", "start", "end", "aux")  # start/end in perf_counter ns


def _step_aux(state: ProcessState, result) -> int:
    """Scaled-time bin of the step plus STEP_BINS x pairs it closed."""
    if result is None:
        return -1
    t = (state.steps - 1) / (state.n * math.sqrt(state.n))
    return sum(t >= edge for edge in STEP_BIN_EDGES) + STEP_BINS * len(result.newly_closed)


def _dir_bytes(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, root_layer: str) -> None:
        self.root_layer = root_layer
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.aux = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.parent)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.start.append(0)
        self.end.append(0)
        self.aux.append(0)
        self._stack.append(sid)
        self.start[sid] = perf_counter_ns()
        return sid

    @contextmanager
    def root(self, name: str):
        """A root span around benchmark code; yields a dict that gets `seconds`."""
        timing: dict[str, float] = {}
        sid = self._open(name)
        try:
            yield timing
        finally:
            self.end[sid] = perf_counter_ns()
            self._stack.pop()
            timing["seconds"] = (self.end[sid] - self.start[sid]) / 1e9

    def _wrap(self, fn, name, aux=None):
        """Wrap fn; `name` may be a function of the call's arguments."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter_ns()
                tracer._stack.pop()
            if aux is not None:
                tracer.aux[sid] = aux(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name, aux=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, aux))

    def install(self) -> None:
        """Patch every traced entry point; undo with `uninstall`."""
        self._patch(ProcessState, "__init__", "ProcessState.__init__")
        self._patch(
            ProcessState, "step", "ProcessState.step",
            lambda a, k, r: _step_aux(a[0], r),
        )
        self._patch(
            ProcessState, "audit", "ProcessState.audit",
            lambda a, k, r: r.pairs_checked,
        )
        self._patch(
            FirstAppearanceTracker, "offer",
            lambda a: OFFER_PREFIX + a[0].pattern.label,
        )
        self._patch(
            harness, "take_checkpoint", "harness.take_checkpoint",
            lambda a, k, r: int(a[0].steps > a[1].horizon),
        )
        self._patch(
            harness, "blocked_placements", "harness.blocked_placements",
            lambda a, k, r: r.sampled,
        )
        self._patch(harness, "run_simulation", "harness.run_simulation")
        self._patch(
            harness, "write_run_artifacts", "harness.write_run_artifacts",
            lambda a, k, r: _dir_bytes(a[1]),
        )
        self._patch(oracle, "engine_final_edges", "oracle.engine_final_edges")
        self._patch(oracle, "permutation_final_edges", "oracle.permutation_final_edges")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis

    def layer_of(self, name: str) -> str:
        if name in ROOTS:
            return self.root_layer
        if name.startswith(OFFER_PREFIX):
            return "patterns"
        return LAYERS[name]

    def write(self, path: Path) -> None:
        """Write every span to `path` (gzip'd) and a JSON header beside it.

        The data file holds the columns of COLUMNS one after another, each
        `count` native int64 values; the header names the spans' names and
        layers, indexed by the `name` column.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            for column in COLUMNS:
                fh.write(getattr(self, column).tobytes())
        header = {
            "columns": COLUMNS,
            "count": len(self.parent),
            "dtype": "int64",
            "byteorder": sys.byteorder,
            "names": self.names,
            "layers": [self.layer_of(name) for name in self.names],
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures over the spans under "op" (and "setup") roots.

        Per-call figures are means over calls; totals and counts are per
        operation, i.e. divided by the number of "op" roots.  Values come
        with their units.  `<layer>.self_s` plus `harness.write_s` add up
        to `trace.run_s`.
        """
        names = self.names
        count = len(self.parent)
        root = [0] * count
        child = [0] * count
        dur = [self.end[i] - self.start[i] for i in range(count)]
        for i in range(count):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += dur[i]
        op_roots = [i for i in range(count) if self.parent[i] < 0 and names[self.name[i]] == "op"]
        ops = len(op_roots)
        if ops == 0:
            raise ValueError("no traced operation to report on")

        calls: dict[str, list[int]] = {}  # name -> [calls, total ns, aux sum]
        self_ns = dict.fromkeys(LAYER_NAMES, 0)
        write_ns = 0
        step_bins = [[0, 0] for _ in range(STEP_BINS)]  # [calls, total ns]
        closed = 0
        init = [0, 0]
        for i in range(count):
            name = names[self.name[i]]
            root_name = names[self.name[root[i]]]
            if name == "ProcessState.__init__" and root_name in ("setup", "op"):
                init[0] += 1
                init[1] += dur[i]
            if root_name != "op":
                continue
            entry = calls.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += self.aux[i]
            if name == "harness.write_run_artifacts":
                write_ns += dur[i] - child[i]
            else:
                self_ns[self.layer_of(name)] += dur[i] - child[i]
            if name == "ProcessState.step" and self.aux[i] >= 0:
                n_closed, step_bin = divmod(self.aux[i], STEP_BINS)
                step_bins[step_bin][0] += 1
                step_bins[step_bin][1] += dur[i]
                closed += n_closed

        def per_call(name: str, scale: float) -> float:
            n_calls, total, _ = calls.get(name, (0, 0, 0))
            return total / n_calls / scale if n_calls else 0.0

        def per_op(name: str, index: int, scale: float = 1.0) -> float:
            return calls.get(name, (0, 0, 0))[index] / ops / scale

        # steps that insert an edge; the final call that finds none is left out
        steps = sum(b[0] for b in step_bins)
        step_ns = sum(b[1] for b in step_bins)
        metrics: dict[str, tuple[float, str]] = {
            "process.init_s": (init[1] / init[0] / 1e9 if init[0] else 0.0, "s"),
            "process.step_us": (step_ns / steps / 1e3 if steps else 0.0, "us"),
        }
        for k, (n_calls, total) in enumerate(step_bins):
            metrics[f"process.step_us.t{k}"] = (total / n_calls / 1e3 if n_calls else 0.0, "us")
        metrics["process.steps"] = (steps / ops, "count")
        metrics["process.closed_per_step"] = (closed / steps if steps else 0.0, "count")
        metrics["process.audit_s"] = (per_op("ProcessState.audit", 1, 1e9), "s")
        metrics["process.audit_pairs"] = (per_op("ProcessState.audit", 2), "count")
        metrics["trajectory.checkpoint_ms"] = (per_call("harness.take_checkpoint", 1e6), "ms")
        metrics["trajectory.checkpoints"] = (per_op("harness.take_checkpoint", 0), "count")
        metrics["trajectory.checkpoints_past_horizon"] = (
            per_op("harness.take_checkpoint", 2), "count"
        )
        for label in PATTERNS:
            metrics[f"patterns.offer_us.{label}"] = (per_call(OFFER_PREFIX + label, 1e3), "us")
        offers = sum(v[0] for k, v in calls.items() if k.startswith(OFFER_PREFIX))
        metrics["patterns.offers"] = (offers / ops, "count")
        metrics["patterns.placements_s"] = (per_op("harness.blocked_placements", 1, 1e9), "s")
        metrics["patterns.placements"] = (per_op("harness.blocked_placements", 2), "count")
        metrics["harness.write_s"] = (write_ns / ops / 1e9, "s")
        metrics["harness.bytes_written"] = (per_op("harness.write_run_artifacts", 2), "bytes")
        metrics["oracle.engine_trial_us"] = (per_call("oracle.engine_final_edges", 1e3), "us")
        metrics["oracle.permutation_trial_us"] = (
            per_call("oracle.permutation_final_edges", 1e3), "us"
        )
        metrics["oracle.trials"] = (
            per_op("oracle.engine_final_edges", 0) + per_op("oracle.permutation_final_edges", 0),
            "count",
        )
        for layer in LAYER_NAMES:
            metrics[f"{layer}.self_s"] = (self_ns[layer] / ops / 1e9, "s")
        metrics["trace.run_s"] = (sum(dur[i] for i in op_roots) / ops / 1e9, "s")
        return metrics
