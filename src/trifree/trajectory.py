"""Deterministic reference curves for the process and empirical checkpoints.

While the graph is sparse, the open-pair count and the partial-vertex
counts of individual pairs track smooth functions of the scaled time
t = i / n^(3/2):

    open pairs        Q(i)      ~  n^2 * exp(-4 t^2) / 2
    partial vertices  |Y_{u,v}| ~  sqrt(n) * 4 t * exp(-4 t^2)

up to the step horizon m = (1/32) * n^(3/2) * sqrt(ln n).  These are the
n -> infinity limits.  At finite n every step also turns one open pair
into an edge, which the limit leaves out; adding that drain of 1/sqrt(n)
per unit of t gives the rate equation q' = -8 t q - 1/sqrt(n), solved
exactly by the finite-n curves

    open pairs        Q(i)      ~  n^2 * (exp(-4 t^2) / 2 - F(2 t) / (2 sqrt(n)))
    partial vertices  |Y_{u,v}| ~  sqrt(n) * 8 t * (the bracket above)

with F Dawson's function.  Neither curve is promised past the end of the
limiting process, t* = sqrt(ln n) / (2 sqrt(2)), where the correction
stops being small.  The formal
deviation envelope exp(41 t^2 + 40 t) * n^(-1/6) is meaningful only for
astronomically large n; checkpoints therefore evaluate the formal bounds
(flagging the vacuous regime where the envelope exceeds the curve
itself) and, separately, plain relative residuals that are the useful
measurement at simulation scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from statistics import fmean

from .process import ProcessState

HORIZON_COEFFICIENT = 1.0 / 32.0  # fixed constant in the tracking horizon

# the scaled times at which every run takes a checkpoint, for comparisons
# across runs
GRID_TIMES = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0)

# exp() overflows doubles just above this; envelopes saturate to inf there
_EXP_MAX = 709.0


def scaled_time(i: int, n: int) -> float:
    """t(i) = i / n^(3/2)."""
    if i < 0 or n < 1:
        raise ValueError("need i >= 0 and n >= 1")
    return i / n**1.5


def open_pair_curve(t: float) -> float:
    """Predicted open pairs per n^2: exp(-4 t^2) / 2."""
    return math.exp(-4.0 * t * t) / 2.0


def partial_vertex_curve(t: float) -> float:
    """Predicted partial-vertex count per sqrt(n): 4 t exp(-4 t^2)."""
    return 4.0 * t * math.exp(-4.0 * t * t)


# Dawson's function switches from its power series to its asymptotic
# series here; below it the series loses no accuracy, above it the
# smallest asymptotic term is below exp(-36)
_DAWSON_ASYMPTOTIC_FROM = 6.0


def dawson(x: float) -> float:
    """Dawson's function F(x) = exp(-x^2) * integral_0^x exp(y^2) dy.

    Accurate to a relative error of about 1e-14 for every finite x.
    """
    ax = abs(x)
    if ax < _DAWSON_ASYMPTOTIC_FROM:
        # exp(-x^2) * sum_k x^(2k+1) / (k! (2k+1)): positive terms only
        x2 = ax * ax
        power, total, k = ax, ax, 0
        while power > total * 1e-17:
            k += 1
            power *= x2 / k
            total += power / (2 * k + 1)
        value = math.exp(-x2) * total
    else:
        # 1/(2x) * sum_k (2k-1)!! / (2 x^2)^k, cut at its smallest term
        inv = 1.0 / (2.0 * ax * ax)
        term, total, k = 1.0, 1.0, 1
        following = inv
        while 1e-17 <= following < term:  # also ends on nan
            term = following
            total += term
            k += 1
            following = term * (2 * k - 1) * inv
        value = total / (2.0 * ax)
    return math.copysign(value, x)


def finite_open_pair_curve(t: float, n: int) -> float:
    """Finite-n open pairs per n^2: exp(-4 t^2) / 2 - F(2 t) / (2 sqrt(n)).

    The exact solution of q' = -8 t q - 1/sqrt(n), q(0) = 1/2; it tends
    to open_pair_curve as n grows.
    """
    return open_pair_curve(t) - dawson(2.0 * t) / (2.0 * math.sqrt(n))


def finite_partial_vertex_curve(t: float, n: int) -> float:
    """Finite-n partial-vertex count per sqrt(n): 8 t * finite_open_pair_curve."""
    return 8.0 * t * finite_open_pair_curve(t, n)


def _envelope_log(t: float, n: int) -> float:
    return 41.0 * t * t + 40.0 * t - math.log(n) / 6.0


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < _EXP_MAX else math.inf


def log_open_pair_envelope(t: float, n: int) -> float:
    """log of the open-pair envelope; the branch above t=1 divides by t."""
    lv = _envelope_log(t, n)
    if t > 1.0:
        lv -= math.log(t)
    return lv


def open_pair_envelope(t: float, n: int) -> float:
    """Deviation envelope for Q / n^2 (saturates to inf for large t)."""
    return _exp_or_inf(log_open_pair_envelope(t, n))


def partial_vertex_envelope(t: float, n: int) -> float:
    """Deviation envelope for |Y| / sqrt(n)."""
    return _exp_or_inf(_envelope_log(t, n))


def envelope_vacuous(t: float, n: int) -> bool:
    """True when the envelope is at least the curve itself.

    Compared in log space, so it stays correct where exp() overflows.
    A formal bound that holds in this regime says nothing.
    """
    log_curve = -4.0 * t * t - math.log(2.0)
    return log_open_pair_envelope(t, n) >= log_curve


def step_horizon(n: int) -> int:
    """floor(HORIZON_COEFFICIENT * n^(3/2) * sqrt(ln n)); 0 for n <= 7."""
    if n < 2:
        raise ValueError(f"horizon needs n >= 2 (log 1 = 0), got n={n}")
    return int(HORIZON_COEFFICIENT * n**1.5 * math.sqrt(math.log(n)))


@dataclass(frozen=True)
class TrajectoryParams:
    """Vertex count plus the derived tracking horizon."""

    n: int

    @cached_property
    def horizon(self) -> int:
        return step_horizon(self.n)


@dataclass(frozen=True)
class Checkpoint:
    """Observed vs. predicted open-pair and partial-vertex counts at one step.

    rel_y and the y aggregates are None when there was nothing to sample
    (saturated state) or the prediction is zero (t = 0).  formal_* flags
    evaluate the deviation envelopes; env_vacuous marks the regime where
    the open-pair envelope exceeds the curve and the formal check is
    uninformative.
    """

    step: int
    t: float
    open_pairs: int
    q_pred: float
    q_env: float
    rel_q: float
    y_mean: float | None
    y_pred: float
    y_env: float
    rel_y: float | None
    formal_q_ok: bool
    formal_y_ok: bool | None
    env_vacuous: bool


def _inside_envelope(ys: list[int], pred: float, env: float) -> bool:
    """`all(abs(s - pred) <= env for s in ys)` for a non-empty `ys`, read
    off its extremes: `s - pred` rounds monotonically in s."""
    return max(abs(min(ys) - pred), abs(max(ys) - pred)) <= env


def take_checkpoint(
    state: ProcessState,
    params: TrajectoryParams,
    y_sample_count: int,
    rng: random.Random,
) -> Checkpoint:
    """Compare the live state against the reference curves.

    Reads Q directly, samples `y_sample_count` open pairs uniformly with
    `rng`, which must be independent of the process stream, and measures
    each pair's partial-vertex count; the checkpoint keeps their mean and
    whether every one lies inside the envelope, not the counts.
    Checkpoints past the horizon are allowed; there the curves are
    extrapolations and the formal flags are informational only.
    """
    if state.n != params.n:
        raise ValueError(f"state has n={state.n} but params have n={params.n}")
    n = params.n
    i = state.steps
    t = scaled_time(i, n)
    q_obs = state.open_pairs

    q_pred = n * n * open_pair_curve(t)
    q_env = n * n * open_pair_envelope(t, n)
    rel_q = abs(q_obs / q_pred - 1.0) if q_pred > 0.0 else math.inf
    formal_q_ok = abs(q_obs - q_pred) <= q_env

    # |Y| of an open pair {u, v}: w with {u, w} an edge and {v, w} open,
    # or the other way round; the two masks are disjoint
    adj = state.edge_masks
    opn = state.open_masks
    ys = [
        (adj[u] & opn[v]).bit_count() + (adj[v] & opn[u]).bit_count()
        for u, v in state.sample_open_pairs(y_sample_count, rng)
    ]
    y_pred = math.sqrt(n) * partial_vertex_curve(t)
    y_env = math.sqrt(n) * partial_vertex_envelope(t, n)
    if ys:
        y_mean: float | None = fmean(ys)
        formal_y_ok: bool | None = _inside_envelope(ys, y_pred, y_env)
        rel_y = abs(y_mean / y_pred - 1.0) if y_pred > 0.0 else None
    else:
        y_mean = None
        formal_y_ok = None
        rel_y = None

    return Checkpoint(
        step=i,
        t=t,
        open_pairs=q_obs,
        q_pred=q_pred,
        q_env=q_env,
        rel_q=rel_q,
        y_mean=y_mean,
        y_pred=y_pred,
        y_env=y_env,
        rel_y=rel_y,
        formal_q_ok=formal_q_ok,
        formal_y_ok=formal_y_ok,
        env_vacuous=envelope_vacuous(t, n),
    )


def default_cadence(horizon: int) -> int:
    """Checkpoint every ceil(horizon / 50) steps (at least every step)."""
    return max(1, math.ceil(horizon / 50))


def grid_steps(n: int, times: tuple[float, ...]) -> dict[int, float]:
    """Map each grid time to its nearest step index (dropping step 0)."""
    out: dict[int, float] = {}
    for t in times:
        step = round(t * n**1.5)
        if step >= 1 and step not in out:
            out[step] = t
    return out
