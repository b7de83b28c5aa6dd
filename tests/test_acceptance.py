"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one `ACCEPTANCE PASS/FAIL` line (visible with -s, and
embedded in the assertion message on failure).  The heavy shared
ingredients are two run batteries:

  * ten n=2000 runs to saturation with grid checkpoints at
    t in {0.2, 0.4, 0.6, 0.8, 1.0}, pattern trackers (C4, C6 unbounded,
    K6,6 up to the tracking horizon), and horizon-step measurements
    (blocked placements, densest-12-subset local search);
  * twenty n=500 runs to saturation with full ground-truth audits.

Thresholds are fixed here, not tuned.  Criteria 3, 4 and 8 compare the
n=2000 counts with finite-n references, because the paper's n -> infinity
limits leave out the one open pair each step turns into an edge (see
"Reference curves of the acceptance checks" in the README):

  * criterion 3: the finite-n open-pair curve q~(t, n), asserted at the
    grid times before the end of the limiting process,
    t* = sqrt(ln n) / (2 sqrt(2)) (0.975 at n=2000);
  * criterion 4: the finite-n partial-vertex curve y~(t, n) = 8 t q~(t, n);
  * criterion 8: the blocked share 1 - (1 - rho)^36 of K6,6 placements,
    with rho the closed-pair share that q~ predicts at the horizon.

Their report lines print the residual against the paper's limit next to
the finite-n one, so the size of the finite-n effect stays visible.
"""

from __future__ import annotations

import math
import random
from statistics import fmean

import pytest

from trifree.harness import measurement_rng
from trifree.oracle import TRIALS, TV_TOLERANCE, equivalence_tv
from trifree.patterns import (
    FirstAppearanceTracker,
    PlacementClass,
    blocked_placements,
    classify_placement,
    complete_bipartite_pattern,
    cycle_pattern,
    max_edges_k_subset,
)
from trifree.process import ProcessState, Saturation
from trifree.trajectory import (
    TrajectoryParams,
    finite_open_pair_curve,
    finite_partial_vertex_curve,
    grid_steps,
    log_open_pair_envelope,
    open_pair_curve,
    partial_vertex_curve,
    scaled_time,
    take_checkpoint,
)

N_BIG = 2000
SEEDS_BIG = list(range(1000, 1010))
SEEDS_AUDIT = list(range(2000, 2020))
SCALING_SEED_BASE = 3000
GRID = (0.2, 0.4, 0.6, 0.8, 1.0)
PLACEMENT_SAMPLES = 10_000
KEEP_BLOCKED = 100
# end of the limiting process: no trajectory is promised past it
LIMIT_END_TIME = math.sqrt(math.log(N_BIG)) / (2.0 * math.sqrt(2.0))


def first_blocked(state, pattern, rng, count):
    """The first `count` BLOCKED placements among `PLACEMENT_SAMPLES`
    drawn with `rng.sample`, the stream that `blocked_placements` draws."""
    kept = []
    for _ in range(PLACEMENT_SAMPLES):
        placement = tuple(rng.sample(range(state.n), pattern.k))
        if classify_placement(state, pattern, placement) == PlacementClass.BLOCKED:
            kept.append(placement)
            if len(kept) == count:
                break
    return kept


def report(name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def big_runs():
    """Ten n=2000 saturation runs with grid checkpoints and horizon hooks."""
    params = TrajectoryParams(N_BIG)
    m = params.horizon
    grid = grid_steps(N_BIG, list(GRID))
    k66 = complete_bipartite_pattern(6, 6)
    runs = []
    for seed in SEEDS_BIG:
        state = ProcessState(N_BIG, seed)
        rng = measurement_rng(seed)
        c4 = FirstAppearanceTracker(cycle_pattern(4))
        c6 = FirstAppearanceTracker(cycle_pattern(6))
        k66_tracker = FirstAppearanceTracker(k66)
        checkpoints: dict[float, object] = {}
        at_m: dict[str, object] = {}
        while (result := state.step()) is not None:
            i = state.steps
            u, v = result.chosen
            c4.offer(state.edge_masks, u, v, i)
            c6.offer(state.edge_masks, u, v, i)
            if i <= m:
                k66_tracker.offer(state.edge_masks, u, v, i)
            if i == m:
                placements = random.Random()
                placements.setstate(rng.getstate())
                at_m["blocked"] = blocked_placements(state, k66, PLACEMENT_SAMPLES, rng)
                at_m["kept_blocked"] = first_blocked(
                    state, k66, placements, KEEP_BLOCKED
                )
                at_m["local_search"] = max_edges_k_subset(
                    state.edge_masks, 12, restarts=100, rng=rng
                )
            if i in grid:
                checkpoints[grid[i]] = take_checkpoint(state, params, 200, rng)
        kept_blocked = at_m["kept_blocked"]
        re_realized = sum(
            1
            for placement in kept_blocked
            if classify_placement(state, k66, placement) == PlacementClass.REALIZED
        )
        runs.append(
            {
                "seed": seed,
                "final": state.steps,
                "checkpoints": checkpoints,
                "first_c4": c4.first_step,
                "first_c6": c6.first_step,
                "first_k66": k66_tracker.first_step,
                "blocked_fraction": at_m["blocked"].fraction_blocked,
                "kept_blocked": len(kept_blocked),
                "re_realized": re_realized,
                "local_search_edges": at_m["local_search"].edges,
            }
        )
    return {"horizon": m, "runs": runs}


@pytest.fixture(scope="module")
def scaling_finals(big_runs):
    """Mean saturation sizes for n in {250, 500, 1000, 2000}, 10 seeds each."""
    finals: dict[int, list[int]] = {}
    seed = SCALING_SEED_BASE
    for n in (250, 500, 1000):
        finals[n] = []
        for _ in range(10):
            state = ProcessState(n, seed)
            state.run(Saturation())
            finals[n].append(state.steps)
            seed += 1
    finals[N_BIG] = [run["final"] for run in big_runs["runs"]]
    return finals


def test_criterion_1_triangle_freeness_and_closure_soundness():
    failures = []
    for seed in SEEDS_AUDIT:
        state = ProcessState(500, seed)
        state.run(Saturation())
        audit = state.audit(state.total_pairs)
        if audit.discrepancies or audit.triangles or not audit.open_count_consistent:
            failures.append((seed, audit))
    line = report(
        "criterion 1 (soundness at saturation, n=500 x 20 seeds)",
        not failures,
        f"{len(SEEDS_AUDIT) - len(failures)}/{len(SEEDS_AUDIT)} clean audits, "
        f"0 triangles and 0 discrepancies required",
    )
    assert not failures, line


def test_criterion_2_permutation_oracle_equivalence():
    assert TRIALS == 100_000  # the "1e5 trials each" of the report line
    tvs = {n: equivalence_tv(n) for n in (4, 5)}
    ok = all(tv <= TV_TOLERANCE for tv in tvs.values())
    line = report(
        "criterion 2 (uniform-step vs permutation ordering, 1e5 trials each)",
        ok,
        f"TV n=4: {tvs[4]:.5f}, n=5: {tvs[5]:.5f} (tolerance {TV_TOLERANCE})",
    )
    assert ok, line


def test_criterion_3_open_pair_trajectory(big_runs):
    finite, limit = {}, {}
    for t in GRID:
        checkpoints = [run["checkpoints"][t] for run in big_runs["runs"]]
        finite[t] = fmean(
            abs(cp.open_pairs / (N_BIG**2 * finite_open_pair_curve(cp.t, N_BIG)) - 1.0)
            for cp in checkpoints
        )
        limit[t] = fmean(cp.rel_q for cp in checkpoints)
    asserted = [t for t in GRID if t < LIMIT_END_TIME]
    ok = all(finite[t] <= 0.05 for t in asserted)
    detail = ", ".join(
        f"t={t:g}: {finite[t]:.4f} (limit q {limit[t]:.4f})" for t in GRID
    )
    line = report(
        "criterion 3 (mean |Q/(n^2 q~) - 1| <= 0.05 against the finite-n curve q~ "
        f"at grid t < t* = {LIMIT_END_TIME:.3f}, n=2000 x 10 seeds)",
        ok,
        detail,
    )
    assert ok, line


def test_criterion_4_partial_vertex_trajectory(big_runs):
    finite, limit = {}, {}
    for t in GRID[1:]:  # 0.2 excluded: prediction too small for relative noise
        checkpoints = [run["checkpoints"][t] for run in big_runs["runs"]]
        grand_mean = fmean(cp.y_mean for cp in checkpoints)
        y_finite = math.sqrt(N_BIG) * finite_partial_vertex_curve(checkpoints[0].t, N_BIG)
        finite[t] = abs(grand_mean / y_finite - 1.0)
        limit[t] = abs(grand_mean / checkpoints[0].y_pred - 1.0)
    ok = all(value <= 0.15 for value in finite.values())
    detail = ", ".join(
        f"t={t:g}: {finite[t]:.4f} (limit y {limit[t]:.4f})" for t in GRID[1:]
    )
    line = report(
        "criterion 4 (|mean|Y| / (sqrt(n) y~) - 1| <= 0.15 against the finite-n curve "
        "y~ at grid t, 200 pairs/checkpoint)",
        ok,
        detail,
    )
    assert ok, line


def test_criterion_5_final_size_scaling(scaling_finals):
    c = {
        n: fmean(finals) / (n**1.5 * math.sqrt(math.log(n)))
        for n, finals in scaling_finals.items()
    }
    smallest, largest = min(c), max(c)
    variation = abs(c[largest] / c[smallest] - 1.0)
    ok = variation <= 0.25
    detail = (
        ", ".join(f"c({n})={c[n]:.4f}" for n in sorted(c))
        + f"; variation smallest->largest {variation:.3%} (tolerance 25%)"
    )
    line = report("criterion 5 (saturation size scaling)", ok, detail)
    assert ok, line


def test_criterion_6_sparse_patterns_appear(big_runs):
    m = big_runs["horizon"]
    runs = big_runs["runs"]
    c4_hits = sum(1 for r in runs if r["first_c4"] is not None and r["first_c4"] < m)
    c6_hits = sum(1 for r in runs if r["first_c6"] is not None and r["first_c6"] < m)
    ok = c4_hits >= 9 and c6_hits >= 9
    line = report(
        "criterion 6 (C4 and C6 appear before the horizon in >= 9/10 runs)",
        ok,
        f"C4: {c4_hits}/10, C6: {c6_hits}/10 "
        f"(first steps C4 {[r['first_c4'] for r in runs]}, "
        f"C6 {[r['first_c6'] for r in runs]}, horizon {m})",
    )
    assert ok, line


def test_criterion_7_dense_pattern_absent(big_runs):
    runs = big_runs["runs"]
    absent = sum(1 for r in runs if r["first_k66"] is None)
    subset_max = [r["local_search_edges"] for r in runs]
    ok = absent == 10 and all(edges < 36 for edges in subset_max)
    # consistency: a K6,6 copy within the horizon would force a 12-subset
    # with >= 36 edges, so subset_max < 36 must coincide with absence
    for r in runs:
        if r["local_search_edges"] < 36:
            assert r["first_k66"] is None or r["local_search_edges"] >= 36
    line = report(
        "criterion 7 (no K6,6 within the horizon; densest 12-subset < 36)",
        ok,
        f"absent {absent}/10, local-search maxima {subset_max}",
    )
    assert ok, line


def test_criterion_8_blocking_mechanism(big_runs):
    runs = big_runs["runs"]
    fractions = [r["blocked_fraction"] for r in runs]
    never_realized = all(r["re_realized"] == 0 for r in runs)
    kept_counts = [r["kept_blocked"] for r in runs]
    # monotone part first: placements blocked at the horizon stay blocked
    assert all(count == KEEP_BLOCKED for count in kept_counts)
    assert never_realized, (
        f"blocked placements re-evaluated at saturation became realized: "
        f"{[r['re_realized'] for r in runs]}"
    )
    # a placement is blocked once any of its 36 pairs is closed; q~ gives
    # the closed share at the horizon, the paper's limit would be 0.99
    m = big_runs["horizon"]
    open_share = N_BIG**2 * finite_open_pair_curve(scaled_time(m, N_BIG), N_BIG)
    closed_share = 1.0 - (open_share + m) / (N_BIG * (N_BIG - 1) / 2)
    expected = 1.0 - (1.0 - closed_share) ** complete_bipartite_pattern(6, 6).e
    bound = 4.0 * math.sqrt(expected * (1.0 - expected) / PLACEMENT_SAMPLES)
    ok = all(abs(f - expected) <= bound for f in fractions)
    line = report(
        "criterion 8 (K6,6 placements blocked at the horizon within 4 binomial sd "
        "of the finite-n share 1 - (1 - rho)^36 every seed; "
        "blocked never realize by saturation)",
        ok,
        f"closed share rho {closed_share:.4f}, expected {expected:.4f} +- {bound:.4f}, "
        f"largest gap {max(abs(f - expected) for f in fractions):.4f}; "
        f"limit 0.99, min fraction {min(fractions):.4f}; "
        f"all fractions {[f'{f:.3f}' for f in fractions]}; "
        f"re-realized 0/{KEEP_BLOCKED} in all runs",
    )
    assert ok, line


def test_criterion_9_analytic_self_consistency():
    h = 1e-5
    worst = 0.0
    for k in range(1, 51):
        t = 2.0 * k / 50.0
        derivative = (open_pair_curve(t + h) - open_pair_curve(t - h)) / (2.0 * h)
        worst = max(worst, abs(derivative + partial_vertex_curve(t)))
    left = log_open_pair_envelope(1.0, N_BIG)
    right = log_open_pair_envelope(math.nextafter(1.0, 2.0), N_BIG)
    branch_rel = abs(left - right) / abs(left)
    ok = worst <= 1e-6 and branch_rel <= 1e-12
    line = report(
        "criterion 9 (finite differences and envelope branch continuity)",
        ok,
        f"max |dq/dt + y| = {worst:.2e} (tol 1e-6), "
        f"branch log-relative gap {branch_rel:.2e} (tol 1e-12)",
    )
    assert ok, line
