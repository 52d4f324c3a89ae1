"""Variance-preserving noise schedule and time grids.

The forward process runs with a linear beta ramp ``beta(t) = beta_min +
(beta_max - beta_min) * t / horizon``.  The signal coefficient
``alpha_bar(t) = exp(-int_0^t beta)`` then has the closed form used
throughout; the noise variance is ``beta_bar = 1 - alpha_bar``.  A flow
path with linear mean ``t * x1`` and std ``1 - (1 - sigma_min) * t`` is
also defined here so samplers share one time-parameterization module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseSchedule",
    "TimeGrid",
    "FlowPath",
    "default_schedule",
    "constant_beta_schedule",
    "alpha_bar",
    "beta",
    "make_grid",
    "flow_stats",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear-beta variance-preserving schedule on [0, horizon]."""

    beta_min: float = 0.1
    beta_max: float = 20.0
    horizon: float = 1.0
    shape: str = "linear"

    def __post_init__(self):
        if self.shape != "linear":
            raise ValueError(f"unsupported schedule shape {self.shape!r}")
        if not self.beta_min > 0:
            raise ValueError("beta_min must be positive")
        if not self.beta_min <= self.beta_max < math.inf:
            raise ValueError("beta_max must be finite and >= beta_min")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")


def default_schedule() -> NoiseSchedule:
    """Standard VP parameterization: beta 0.1 -> 20 over horizon 1."""
    return NoiseSchedule()


def constant_beta_schedule(beta_value: float = 2.0, horizon: float = 1.0) -> NoiseSchedule:
    """Constant-beta preset, giving alpha_bar(t) = exp(-beta * t).

    With the default beta of 2 this mirrors the closed-form setting the
    certifiers use (alpha_bar = exp(-2t)).
    """
    return NoiseSchedule(beta_min=beta_value, beta_max=beta_value, horizon=horizon)


def beta(schedule: NoiseSchedule, t: float) -> float:
    """Instantaneous noise rate beta(t)."""
    _check_time(schedule, t)
    return schedule.beta_min + (schedule.beta_max - schedule.beta_min) * t / schedule.horizon


def alpha_bar(schedule: NoiseSchedule, t: float) -> float:
    """Signal coefficient exp(-int_0^t beta(tau) dtau), closed form.

    For the linear ramp the integral is
    ``beta_min * t + (beta_max - beta_min) * t^2 / (2 * horizon)``.
    """
    _check_time(schedule, t)
    integral = schedule.beta_min * t + (schedule.beta_max - schedule.beta_min) * t * t / (
        2.0 * schedule.horizon
    )
    return math.exp(-integral)


def _check_time(schedule: NoiseSchedule, t: float) -> None:
    if not 0.0 <= t <= schedule.horizon:
        raise ValueError(f"time {t} outside [0, {schedule.horizon}]")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform reverse-time grid with attached alpha_bar values.

    ``times`` is strictly decreasing, ``times[0]`` being where reverse
    integration starts and ``times[-1]`` where it ends; ``alpha_bars``
    matches entry for entry (so it is strictly increasing).  A grid with
    ``steps`` transitions holds ``steps + 1`` entries.
    """

    steps: int
    times: np.ndarray
    alpha_bars: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        abars = np.asarray(self.alpha_bars, dtype=float)
        if self.steps < 1:
            raise ValueError("grid needs at least one step")
        if times.shape != (self.steps + 1,) or abars.shape != (self.steps + 1,):
            raise ValueError("grid arrays must have steps + 1 entries")
        if not np.all(np.diff(times) < 0):
            raise ValueError("grid times must be strictly decreasing")
        if not np.all(np.diff(abars) > 0):
            raise ValueError("grid alpha_bars must be strictly increasing")
        times.setflags(write=False)
        abars.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "alpha_bars", abars)


def make_grid(
    schedule: NoiseSchedule,
    steps: int,
    t_end: float | None = None,
    t_start: float = 0.0,
) -> TimeGrid:
    """Uniform grid of `steps` transitions from t_end down to t_start."""
    if t_end is None:
        t_end = schedule.horizon
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (schedule.horizon >= t_end > t_start >= 0.0):
        raise ValueError(f"need horizon >= t_end > t_start >= 0, got ({t_end}, {t_start})")
    times = np.linspace(t_end, t_start, steps + 1)
    abars = np.array([alpha_bar(schedule, t) for t in times])
    return TimeGrid(steps=steps, times=times, alpha_bars=abars)


@dataclass(frozen=True)
class FlowPath:
    """Linear-interpolant probability path: mean t*x1, std 1-(1-sigma_min)*t."""

    sigma_min: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sigma_min < 1.0:
            raise ValueError("sigma_min must lie in [0, 1)")


def flow_stats(path: FlowPath, t: float) -> tuple[float, float]:
    """Mean coefficient and std of the conditional path at time t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"flow time {t} outside [0, 1]")
    return t, 1.0 - (1.0 - path.sigma_min) * t
