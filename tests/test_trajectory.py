"""Tests for the reference curves, the envelope, horizon, and checkpoints."""

from __future__ import annotations

import math
import random
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifree.harness import CHECKPOINT_COLUMNS, checkpoint_row
from trifree.patterns import blocked_placements, cycle_pattern
from trifree.process import PairStatus, ProcessState, Saturation
from trifree.trajectory import (
    GRID_TIMES,
    HORIZON_COEFFICIENT,
    TrajectoryParams,
    dawson,
    default_cadence,
    finite_open_pair_curve,
    finite_partial_vertex_curve,
    grid_steps,
    log_open_pair_envelope,
    open_pair_curve,
    partial_vertex_curve,
    scaled_time,
    step_horizon,
    take_checkpoint,
)


def horizon_oracle(n: int) -> int:
    """High-precision recomputation of the step horizon."""
    getcontext().prec = 60
    value = (Decimal(n) ** 3).sqrt() * Decimal(n).ln().sqrt() / 32
    return int(value)


# ----------------------------------------------------------------------
# scaled time and curves

def test_scaled_time_values():
    assert scaled_time(0, 17) == 0.0
    assert scaled_time(8, 4) == 1.0  # 4^(3/2) = 8
    assert scaled_time(4, 4) == 0.5


def test_open_pair_curve_values():
    assert open_pair_curve(0.0) == 0.5
    assert math.isclose(open_pair_curve(0.5), 0.1839397206, rel_tol=1e-9)
    assert math.isclose(open_pair_curve(1.0), 0.0091578194, rel_tol=1e-8)


def test_partial_vertex_curve_values():
    assert partial_vertex_curve(0.0) == 0.0
    assert math.isclose(partial_vertex_curve(0.5), 0.7357588823, rel_tol=1e-9)


def test_partial_vertex_curve_maximizer():
    # grid-search oracle for the maximiser, then the closed-form value
    grid = [i / 100000 for i in range(1, 200001)]
    best = max(grid, key=partial_vertex_curve)
    assert math.isclose(best, 1 / (2 * math.sqrt(2)), abs_tol=1e-4)
    assert math.isclose(
        partial_vertex_curve(1 / (2 * math.sqrt(2))),
        math.sqrt(2) * math.exp(-0.5),
        rel_tol=1e-12,
    )


def test_open_pair_curve_strictly_decreasing():
    ts = [i / 10 for i in range(0, 40)]
    values = [open_pair_curve(t) for t in ts]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert open_pair_curve(20.0) < 1e-300


def test_curve_derivative_relation():
    # d/dt open_pair_curve = -partial_vertex_curve, by central differences
    h = 1e-6
    for t in [0.1, 0.3, 0.7, 1.0, 1.5, 2.0]:
        derivative = (open_pair_curve(t + h) - open_pair_curve(t - h)) / (2 * h)
        assert abs(derivative + partial_vertex_curve(t)) < 1e-8


# ----------------------------------------------------------------------
# finite-n curves

DAWSON_REFERENCE = {0.5: 0.4244363835020223, 1.0: 0.5380795069127684, 2.0: 0.301340388923792}


def test_dawson_reference_values():
    assert dawson(0.0) == 0.0
    assert math.isnan(dawson(math.nan))
    for x, value in DAWSON_REFERENCE.items():
        assert math.isclose(dawson(x), value, rel_tol=1e-12)
        assert dawson(-x) == -dawson(x)


def test_dawson_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for k in range(-2500, 2501):
        x = k / 100
        assert math.isclose(dawson(x), special.dawsn(x), rel_tol=1e-12, abs_tol=0.0)


def test_finite_curves_values():
    # t = 0.25, 0.5, 1.0 evaluate F at 0.5, 1, 2
    for n in (2000, 17):
        root = math.sqrt(n)
        for x, value in DAWSON_REFERENCE.items():
            t = x / 2
            q = math.exp(-4 * t * t) / 2 - value / (2 * root)
            assert math.isclose(finite_open_pair_curve(t, n), q, rel_tol=1e-12)
            assert math.isclose(finite_partial_vertex_curve(t, n), 8 * t * q, rel_tol=1e-12)
    assert finite_open_pair_curve(0.0, 2000) == 0.5
    assert finite_partial_vertex_curve(0.0, 2000) == 0.0


def test_finite_curves_solve_rate_equation():
    # q~' = -y~ - 1/sqrt(n) by central differences on (0, 2]
    h = 1e-5
    for n in (100, 2000, 65535):
        for k in range(1, 51):
            t = 2.0 * k / 50.0
            derivative = (
                finite_open_pair_curve(t + h, n) - finite_open_pair_curve(t - h, n)
            ) / (2 * h)
            residual = derivative + finite_partial_vertex_curve(t, n) + 1 / math.sqrt(n)
            assert abs(residual) <= 1e-6


def test_finite_curves_tend_to_limit():
    for t in (0.1, 0.5, 1.0, 2.0):
        q_gaps = [
            abs(finite_open_pair_curve(t, 10**e) - open_pair_curve(t)) for e in (2, 6, 10, 14)
        ]
        y_gaps = [
            abs(finite_partial_vertex_curve(t, 10**e) - partial_vertex_curve(t))
            for e in (2, 6, 10, 14)
        ]
        # the gaps shrink exactly like 1/sqrt(n): by 100 per factor 10^4 in n
        for gaps in (q_gaps, y_gaps):
            assert all(math.isclose(a / b, 100.0, rel_tol=1e-6) for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-6


def test_finite_curves_finite_up_to_t_ten():
    for k in range(0, 101):
        t = k / 10
        assert math.isfinite(finite_open_pair_curve(t, 2000))
        assert math.isfinite(finite_partial_vertex_curve(t, 2000))


# ----------------------------------------------------------------------
# envelope

def test_open_pair_envelope_branch_continuity():
    # both branches coincide at t=1: exp(81) * n^(-1/6)
    for n in (2, 1000):
        left = log_open_pair_envelope(1.0, n)
        right = log_open_pair_envelope(1.0 + 1e-15, n)
        assert math.isclose(left, right, rel_tol=1e-12)
        assert math.isclose(left, 81 - math.log(n) / 6, rel_tol=1e-12)


def test_open_pair_envelope_above_one_divides_by_t():
    # t=2, n=64: exp(244)/2 * 64^(-1/6) = exp(244)/4, so the log is
    # 244 - 2 log 2; undivided by t it would be exp(244)/2
    value = log_open_pair_envelope(2.0, 64)
    assert math.isclose(value, 244 - 2 * math.log(2.0), rel_tol=1e-12)


def test_envelopes_increasing_in_t_decreasing_in_n():
    ts = [i / 20 for i in range(0, 21)]  # [0, 1]
    for n in (10, 1000):
        values = [log_open_pair_envelope(t, n) for t in ts]
        assert all(a < b for a, b in zip(values, values[1:]))
    for t in (0.0, 0.5, 1.0):
        assert log_open_pair_envelope(t, 100) > log_open_pair_envelope(t, 1000)


# ----------------------------------------------------------------------
# horizon

def test_step_horizon_reference_values():
    assert step_horizon(1024) == 2695 == horizon_oracle(1024)
    assert step_horizon(2000) == 7705 == horizon_oracle(2000)


def test_step_horizon_tiny_n_is_empty():
    # empty up to n = 7, with no warning: `trifree` prints the notice
    assert [step_horizon(n) for n in range(2, 9)] == [0, 0, 0, 0, 0, 0, 1]


def test_step_horizon_rejects_n_below_two():
    with pytest.raises(ValueError):
        step_horizon(1)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(8, 5000))
def test_step_horizon_monotone_and_ratio(n):
    assert step_horizon(n + 1) >= step_horizon(n)
    ratio = step_horizon(n) / (n**1.5 * math.sqrt(math.log(n)))
    assert HORIZON_COEFFICIENT - 1 / n <= ratio <= HORIZON_COEFFICIENT


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 5000))
def test_horizon_time_matches_coefficient(n):
    params = TrajectoryParams(n)
    expected = HORIZON_COEFFICIENT * math.sqrt(math.log(n))
    assert abs(scaled_time(params.horizon, n) - expected) <= 1.0 / n**1.5


# ----------------------------------------------------------------------
# checkpoints

def test_checkpoint_at_step_zero():
    n = 64  # a power of two, so the residuals below are exact
    state = ProcessState(n, seed=1)
    cp = take_checkpoint(state, TrajectoryParams(n), 10, random.Random(0))
    assert cp.step == 0 and cp.t == 0.0
    assert cp.open_pairs == n * (n - 1) // 2
    assert cp.q_pred == cp.q_fin == n * n / 2
    # residual n/2 over prediction n^2/2 is exactly 1/n
    assert cp.rel_q == cp.rel_q_fin == 1 / n
    assert cp.y_pred == cp.y_fin == 0.0 and cp.y_mean == 0.0
    assert cp.rel_y is None and cp.rel_y_fin is None  # predictions are zero at t=0


def test_checkpoint_saturated_state_has_empty_y():
    state = ProcessState(3, seed=1)
    state.run(Saturation())
    cp = take_checkpoint(state, TrajectoryParams(3), 10, random.Random(0))
    assert cp.y_mean is None and cp.rel_y is None and cp.rel_y_fin is None


def test_checkpoint_finite_residuals_over_a_run():
    # rel_q_fin is criterion 3's |Q / (n^2 q~) - 1|; past t*, where q~ <= 0,
    # both finite-n residuals are empty even though pairs were sampled
    n = 60
    state = ProcessState(n, seed=2)
    params = TrajectoryParams(n)
    rng = random.Random(4)
    past = 0
    while True:
        cp = take_checkpoint(state, params, 5, rng)
        q_tilde = finite_open_pair_curve(cp.t, n)
        assert cp.q_fin == n**2 * q_tilde
        assert cp.y_fin == math.sqrt(n) * finite_partial_vertex_curve(cp.t, n)
        if q_tilde > 0.0:
            assert cp.rel_q_fin == abs(cp.open_pairs / (n**2 * q_tilde) - 1.0)
            if cp.y_mean is not None and cp.step > 0:  # y~ = 0 at t = 0
                assert cp.rel_y_fin == abs(cp.y_mean / cp.y_fin - 1.0)
        else:
            assert cp.rel_q_fin is None and cp.rel_y_fin is None
            past += cp.y_mean is not None
        if state.step() is None:
            break
    assert past > 0


def test_checkpoint_mid_run_consistency():
    n = 60
    state = ProcessState(n, seed=5)
    state.run(Saturation())
    # rebuild and stop mid-way for a live measurement
    state = ProcessState(n, seed=5)
    while state.steps < 40:
        state.step()
    cp = take_checkpoint(state, TrajectoryParams(n), 25, random.Random(3))
    assert cp.step == 40
    assert cp.open_pairs == state.open_pairs

    def partial_vertices(u, v):
        # w with one of {u, w}, {v, w} an edge and the other open
        edge_open = {PairStatus.EDGE, PairStatus.OPEN}
        return sum(
            {state.pair_status(u, w), state.pair_status(v, w)} == edge_open
            for w in range(n)
            if w not in (u, v)
        )

    # the same RNG seed draws the same 25 pairs
    ys = [partial_vertices(u, v) for u, v in state.sample_open_pairs(25, random.Random(3))]
    assert len(ys) == 25
    assert math.isclose(cp.y_mean, sum(ys) / 25, rel_tol=1e-12)
    assert cp.t == 40 / n**1.5


def test_checkpoint_rejects_mismatched_params():
    state = ProcessState(10, seed=1)
    with pytest.raises(ValueError):
        take_checkpoint(state, TrajectoryParams(11), 5, random.Random(0))


def test_checkpoint_row_shape():
    state = ProcessState(10, seed=1)
    cp = take_checkpoint(state, TrajectoryParams(10), 5, random.Random(0))
    row = checkpoint_row(cp)
    assert len(row) == len(CHECKPOINT_COLUMNS)
    assert row[0] == "0"
    # rel_y and rel_y_fin are None at t=0: empty CSV fields
    assert row[CHECKPOINT_COLUMNS.index("rel_y")] == ""
    assert row[-1] == ""


def test_measurement_rng_does_not_touch_process_stream():
    # every reader runs on a at every step, through the steps where the
    # checkpoint's 50 samples cover all Q open pairs; none may rebuild or
    # reorder the lazy open-pair index
    a = ProcessState(30, seed=9)
    b = ProcessState(30, seed=9)
    params = TrajectoryParams(30)
    rng = random.Random(1)
    pattern = cycle_pattern(4)
    all_open_checkpoints = 0
    while a.step() is not None:
        b.step()
        all_open_checkpoints += a.open_pairs <= 50
        take_checkpoint(a, params, 50, rng)  # only a is measured
        a.audit(100, rng)
        blocked_placements(a, pattern, 20, rng)
        a.sample_open_pairs(3, rng)
    assert all_open_checkpoints > 0
    b.run(Saturation())
    assert list(a.iter_edges()) == list(b.iter_edges())


# ----------------------------------------------------------------------
# cadence and grid helpers

def test_default_cadence():
    assert default_cadence(0) == 1
    assert default_cadence(49) == 1
    assert default_cadence(51) == 2
    assert default_cadence(7705) == 155


def test_grid_times_and_steps():
    times = GRID_TIMES[:5]
    assert times == (0.2, 0.4, 0.6, 0.8, 1.0)
    steps = grid_steps(2000, times)
    assert steps[17889] == 0.2
    assert steps[89443] == 1.0
    # tiny n: grid points collapse but never map to step 0
    assert 0 not in grid_steps(2, GRID_TIMES)
