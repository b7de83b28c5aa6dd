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
stops being small; some way past it the finite-n open-pair curve turns
negative.  Checkpoints record both predictions with their relative
residuals.  The formal deviation envelope exp(41 t^2 + 40 t) * n^(-1/6)
of the tracking argument exceeds the curve itself from t of about 0.01
to 0.02 on at every n a simulation reaches, so checkpoints do not
evaluate it; only its log is kept, for the branch check at t = 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .process import ProcessState

HORIZON_COEFFICIENT = 1.0 / 32.0  # fixed constant in the tracking horizon

# the scaled times at which every run takes a checkpoint, for comparisons
# across runs
GRID_TIMES = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0)


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


def log_open_pair_envelope(t: float, n: int) -> float:
    """log of the open-pair envelope; the branch above t=1 divides by t."""
    lv = _envelope_log(t, n)
    if t > 1.0:
        lv -= math.log(t)
    return lv


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

    q_pred and y_pred are the n -> infinity curves, q_fin and y_fin the
    finite-n ones, each with the relative residual of the observation.
    A residual is None where its prediction is not positive (y at t = 0,
    both finite-n ones where q~ <= 0, past t*), and the y fields are None
    when there was nothing to sample (saturated state).
    """

    step: int
    t: float
    open_pairs: int
    q_pred: float
    rel_q: float
    q_fin: float
    rel_q_fin: float | None
    y_mean: float | None
    y_pred: float
    rel_y: float | None
    y_fin: float
    rel_y_fin: float | None


def _relative(observed: float | None, predicted: float) -> float | None:
    """|observed / predicted - 1|, None without an observation or a
    positive prediction."""
    if observed is None or predicted <= 0.0:
        return None
    return abs(observed / predicted - 1.0)


def take_checkpoint(
    state: ProcessState,
    params: TrajectoryParams,
    y_sample_count: int,
    rng: random.Random,
) -> Checkpoint:
    """Compare the live state against the reference curves.

    Reads Q directly and takes the mean partial-vertex count |Y| of
    `y_sample_count` open pairs, sampled uniformly with `rng`, which must
    be independent of the process stream.  The state sums the counts as
    it samples (`ProcessState.partial_vertex_total`), so no pair or count
    is kept.  Checkpoints past the horizon are allowed; there the
    curves are extrapolations.
    """
    if state.n != params.n:
        raise ValueError(f"state has n={state.n} but params have n={params.n}")
    n = params.n
    i = state.steps
    t = scaled_time(i, n)
    q_obs = state.open_pairs
    q_pred = n * n * open_pair_curve(t)
    q_tilde = finite_open_pair_curve(t, n)
    q_fin = n * n * q_tilde

    y_total, sampled = state.partial_vertex_total(y_sample_count, rng)
    y_mean = y_total / sampled if sampled else None
    y_pred = math.sqrt(n) * partial_vertex_curve(t)
    # finite_partial_vertex_curve(t, n), without evaluating q~ again
    y_fin = math.sqrt(n) * (8.0 * t * q_tilde)

    return Checkpoint(
        step=i,
        t=t,
        open_pairs=q_obs,
        q_pred=q_pred,
        rel_q=abs(q_obs / q_pred - 1.0) if q_pred > 0.0 else math.inf,
        q_fin=q_fin,
        rel_q_fin=_relative(q_obs, q_fin),
        y_mean=y_mean,
        y_pred=y_pred,
        rel_y=_relative(y_mean, y_pred),
        y_fin=y_fin,
        rel_y_fin=_relative(y_mean, y_fin),
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
