"""Variance-preserving noise schedule and time grids.

The forward process runs with a linear beta ramp ``beta(t) = beta_min +
(beta_max - beta_min) * t / horizon``.  The signal coefficient
``alpha_bar(t) = exp(-int_0^t beta)`` then has the closed form used
throughout; the noise variance is ``beta_bar = 1 - alpha_bar``, and
``beta_min == beta_max`` gives the constant-beta form ``exp(-beta * t)``.
The flow sampler's linear path is parameterized where it is driven, in
:func:`guidance_lab.samplers.flow_sample_batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixture import FieldError

__all__ = [
    "NoiseSchedule",
    "TimeGrid",
    "alpha_bar",
    "make_grid",
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
            raise FieldError(f"unsupported schedule shape {self.shape!r}", "shape")
        if not self.beta_min > 0:
            raise FieldError("beta_min must be positive", "beta_min")
        if not self.beta_min <= self.beta_max < math.inf:
            raise FieldError("beta_max must be finite and >= beta_min", "beta_min", "beta_max")
        if not self.horizon > 0:
            raise FieldError("horizon must be positive", "horizon")


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


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise FieldError(f"steps must be >= 1, got {steps}", "steps")


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
        _check_steps(self.steps)
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
    _check_steps(steps)
    if not t_end > t_start >= 0.0:
        raise FieldError(f"need t_end > t_start >= 0, got ({t_end}, {t_start})", "t_end", "t_start")
    if not t_end <= schedule.horizon:
        raise FieldError(f"t_end {t_end} exceeds horizon {schedule.horizon}", "horizon", "t_end")
    times = np.linspace(t_end, t_start, steps + 1)
    abars = np.array([alpha_bar(schedule, t) for t in times])
    try:
        return TimeGrid(steps=steps, times=times, alpha_bars=abars)
    except ValueError as exc:  # neighbouring grid points round to one float
        raise FieldError(f"{exc}: {steps} steps from t_end {t_end} to t_start {t_start} give "
                         "points equal as floats", "t_end", "t_start", "steps") from exc
