"""First-order reverse-time samplers driven by exact mixture predictions.

The deterministic (DDIM-style) and ancestral (DDPM-style) steps below
consume a clean-sample prediction or score; the batched driver plugs in
the exact Gaussian-mixture posterior means in place of a learned
network, so every run is an oracle for the guidance strategies.

Noise discipline: each trajectory owns counter-based Philox streams
keyed by ``(seed, step)``; stream 0 draws the initial state and stream
``i + 1`` serves transition ``i`` (the pcg corrector draws one
``(inner_steps, dim)`` block from it).  A trajectory is therefore the
same whichever batch of seeds, or group of runs, it runs in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, NamedTuple, Sequence

import numpy as np

from . import guidance as gd
from . import mixture as mx
from .guidance import GuidanceConfig
from .mixture import GaussianMixture
from .schedule import TimeGrid, _check_steps

__all__ = [
    "TrajectoryRecord",
    "Run",
    "step_rng",
    "ddim_step",
    "ddpm_beta",
    "ddpm_step",
    "sample_runs",
    "drive_peak_bytes",
    "check_flow",
    "flow_sample_batch",
    "sample_trajectory",
    "pcg_sample",
    "cfgpp_equivalent_weight",
    "flow_euler_step",
    "flow_posterior_mean_x1",
    "flow_sample_adg",
]

FLOW_STD_FLOOR = 1e-9


def step_rng(seed: int, step: int) -> np.random.Generator:
    """Counter-based generator for one (trajectory, step) cell."""
    key = np.array([np.uint64(seed), np.uint64(step)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def _check_ordering(alpha_bar_t: float, alpha_bar_prev: float) -> tuple[float, float]:
    alpha_bar_t = float(alpha_bar_t)
    alpha_bar_prev = float(alpha_bar_prev)
    if not 0.0 <= alpha_bar_t < alpha_bar_prev <= 1.0:
        raise ValueError(
            f"need 0 <= alpha_bar_t < alpha_bar_prev <= 1, got ({alpha_bar_t}, {alpha_bar_prev})"
        )
    return alpha_bar_t, alpha_bar_prev


def _renoise(x0_hat, eps, ab_prev):
    """The state at ab_prev that a clean prediction and a noise make: DDIM's
    update, and cfgpp's with its unconditional noise."""
    return math.sqrt(ab_prev) * x0_hat + math.sqrt(1.0 - ab_prev) * eps


def ddim_step(
    x_t: np.ndarray,
    x0_hat: np.ndarray,
    alpha_bar_t: float,
    alpha_bar_prev: float,
) -> np.ndarray:
    """Deterministic reverse step toward alpha_bar_prev.

    Renoises with ``(x_t - sqrt(alpha_bar_t) * x0_hat) / sqrt(beta_bar_t)``,
    the noise the epsilon parameterization implies.
    """
    alpha_bar_t, alpha_bar_prev = _check_ordering(alpha_bar_t, alpha_bar_prev)
    x_t = np.asarray(x_t, dtype=float)
    x0_hat = np.asarray(x0_hat, dtype=float)
    eps = (x_t - math.sqrt(alpha_bar_t) * x0_hat) / math.sqrt(1.0 - alpha_bar_t)
    return _renoise(x0_hat, eps, alpha_bar_prev)


def ddpm_beta(alpha_bar_t: float, alpha_bar_prev: float) -> float:
    """Effective per-step noise fraction 1 - alpha_bar_t / alpha_bar_prev."""
    alpha_bar_t, alpha_bar_prev = _check_ordering(alpha_bar_t, alpha_bar_prev)
    return 1.0 - alpha_bar_t / alpha_bar_prev


def ddpm_step(
    x_t: np.ndarray,
    score: np.ndarray,
    beta_step: float,
    noise: np.ndarray,
) -> np.ndarray:
    """Ancestral reverse step: drift by the score, inject fresh noise.

    ``beta_step`` is the per-step noise fraction (see :func:`ddpm_beta`);
    the update is ``x / sqrt(1 - beta) + beta * score + sqrt(beta) * noise``.
    """
    beta_step = float(beta_step)
    if not 0.0 <= beta_step < 1.0:
        raise ValueError(f"beta_step must lie in [0, 1), got {beta_step}")
    x_t = np.asarray(x_t, dtype=float)
    return (
        x_t / math.sqrt(1.0 - beta_step)
        + beta_step * np.asarray(score, dtype=float)
        + math.sqrt(beta_step) * np.asarray(noise, dtype=float)
    )


def cfgpp_equivalent_weight(lam: float, alpha_bar_t: float, alpha_bar_prev: float) -> float:
    """Guidance weight making a plain linear step match the split update.

    ``omega_t = lam * sqrt(bb_t * ab_prev) / (sqrt(bb_t * ab_prev) -
    sqrt(bb_prev * ab_t))``, NaN where the denominator is below 1e-14 (the
    levels are equal, or adjacent doubles): no weight makes the steps equal.
    """
    alpha_bar_t, alpha_bar_prev = _check_ordering(alpha_bar_t, alpha_bar_prev)
    lead = math.sqrt((1.0 - alpha_bar_t) * alpha_bar_prev)
    denom = lead - math.sqrt((1.0 - alpha_bar_prev) * alpha_bar_t)
    if abs(denom) < 1e-14:
        return math.nan
    return lam * lead / denom


# ---------------------------------------------------------------------------
# Trajectory records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-step log of one reverse trajectory.

    Arrays are indexed by transition: ``times[i]`` is where the i-th
    predictions were evaluated, ``x_t[i]`` the state there.  ``gamma``
    is NaN where a prediction is too short for an angle, ``gamma_omega``
    also for strategies without a rotation angle.
    """

    seed: int
    strategy: str
    omega: float
    times: np.ndarray          # (N,)
    x_t: np.ndarray            # (N, dim)
    x0_cond: np.ndarray        # (N, dim)
    x0_uncond: np.ndarray      # (N, dim)
    x0_guided: np.ndarray      # (N, dim)
    gamma: np.ndarray          # (N,)
    gamma_omega: np.ndarray    # (N,)
    guided_norm: np.ndarray    # (N,)
    final_x0: np.ndarray       # (dim,)
    cfgpp_residual: np.ndarray | None = None  # (N,) when strategy == "cfgpp"

    @property
    def steps(self) -> int:
        return self.times.shape[0]


# ---------------------------------------------------------------------------
# Runs and their rows
# ---------------------------------------------------------------------------

class Run(NamedTuple):
    """One group of rows in a drive: a config, its condition (one
    component, or an ``(n,)`` index array, one component per row), its
    seeds (a seed may repeat) and its weights (None for ``config.omega``,
    or one weight per row), so rows of several (omega, condition) pairs can
    share one run."""

    config: GuidanceConfig
    condition: int | np.ndarray
    seeds: Sequence[int]
    omega: Any = None


class _Rows(NamedTuple):
    """What may differ between the rows of one run."""

    seeds: list                      # one noise-stream key per row
    condition: int | np.ndarray      # one component, or an (n,) index array
    omega: np.ndarray                # (n, 1) guidance weights
    recfg_lambda: np.ndarray | None  # (n, 1), for recfg only


def _rows(run: Run) -> _Rows:
    config, condition = run.config, run.condition
    seeds = [int(s) for s in run.seeds]
    n = len(seeds)
    column = np.empty((n, 1))
    column[:, 0] = config.omega if run.omega is None else run.omega
    gd.check_omega(column)
    if np.ndim(condition):
        condition = np.asarray(condition)
        if condition.shape != (n,):
            raise ValueError(f"need one condition per row, got shape {condition.shape} for {n} rows")
    lam = None
    if config.strategy == "recfg":
        per_row = np.broadcast_to(condition, (n,))
        lam = np.array([config.recfg_lambda_for(int(c)) for c in per_row]).reshape(n, 1)
    return _Rows(seeds, condition, column, lam)


def _cfgpp_residual(pair, lam, ab_prev, x_next):
    """Distance between the split update and its equivalent-weight linear step."""
    omega_t = cfgpp_equivalent_weight(lam, pair.alpha_bar_t, ab_prev)
    reference = ddim_step(pair.x_t, gd.cfg_combine(pair, omega_t), pair.alpha_bar_t, ab_prev)
    return np.linalg.norm(x_next - reference, axis=-1)


# ---------------------------------------------------------------------------
# The batched driver
# ---------------------------------------------------------------------------

def _stream_draws(seeds, step: int, shape: tuple) -> np.ndarray:
    """Each row's standard normal ``shape`` block from stream (seed, step), as
    one ``(n, *shape)`` array; a seed that repeats draws once.

    Philox is counter-based, so re-keying one bit generator to ``(seed,
    step)`` with counter 0 and an empty buffer yields the draws of
    ``step_rng(seed, step)`` without building a generator per stream."""
    bits = np.random.Philox(0)
    normal = np.random.Generator(bits).standard_normal
    state = bits.state  # counter 0, empty buffer
    drawn = {}
    for s in dict.fromkeys(seeds):
        state["state"]["key"] = np.array([s, step], dtype=np.uint64)
        bits.state = state
        drawn[s] = normal(shape)
    return np.array([drawn[s] for s in seeds]).reshape((len(seeds),) + shape)


def _steps(gmm, runs, groups, slices, times, alpha_bars):
    """Run a drive's step math, yielding ``(i, pair, parts, turns, guided, x_next)``
    for each transition i: ``parts`` holds each run's slice of the pair, ``turns``
    each run's turn angle or None.  A consumer drops step i's arrays before step i + 1.

    The runs' rows are stacked in order; row j of a run follows seed
    ``seeds[j]`` under its condition and weight.  Step i runs once for all
    rows: it predicts x0 by the exact posterior means at ``alpha_bars[i]``,
    measures the pair geometry and takes a DDIM step to ``alpha_bars[i + 1]``.
    Each run applies its own rule from :data:`guidance.STRATEGIES` (with its
    APG momentum) to its slice of rows, then its cfgpp renoise or pcg
    corrector, so a row is the same in any drive.
    """
    seeds = [s for rows in groups for s in rows.seeds]
    condition = np.concatenate([np.broadcast_to(rows.condition, (len(rows.seeds),))
                                for rows in groups])
    x = _stream_draws(seeds, 0, (gmm.dim,))
    states = [np.zeros((len(rows.seeds), gmm.dim)) for rows in groups]
    for i, t in enumerate(times):
        try:
            ab_t, ab_prev = float(alpha_bars[i]), float(alpha_bars[i + 1])
            if ab_t > 0.0:
                cond = mx.posterior_mean_x0(gmm, x, ab_t, condition)
                uncond = mx.posterior_mean_x0(gmm, x, ab_t, None)
            else:  # pure noise, the flow's start: the prior means, exactly
                cond = np.broadcast_to(mx._condition_means(gmm, condition), x.shape)
                uncond = np.broadcast_to(gmm.weights @ gmm.means, x.shape)
            pair = gd.PredictionPair.of(cond, uncond, x, ab_t)
            guided = np.empty_like(x)
            parts, turns, renoises = [], [None] * len(runs), [None] * len(runs)
            for k, (run, rows, sl) in enumerate(zip(runs, groups, slices)):
                parts.append(gd.PredictionPair(cond[sl], uncond[sl], x[sl], ab_t,
                                               gd._PairGeometry._make(a[sl] for a in pair.geometry)))
                guided[sl], turns[k], renoises[k], states[k] = gd.STRATEGIES[run.config.strategy](
                    parts[k], rows, run.config, states[k])
            x_next = ddim_step(x, guided, ab_t, ab_prev)
            for run, rows, sl, renoise in zip(runs, groups, slices, renoises):
                config = run.config
                if renoise is not None:
                    x_next[sl] = _renoise(guided[sl], renoise, ab_prev)
                if config.strategy == "pcg" and config.pcg_inner_steps and ab_prev < 1.0:
                    # no corrector at the terminal point (beta_bar would be 0)
                    x_next[sl] = _pcg_correct(gmm, x_next[sl], ab_t, ab_prev, config, rows, i)
        except ValueError as exc:
            raise RuntimeError(f"trajectory aborted at step {i} (t={t}): {exc}") from exc
        yield i, pair, parts, turns, guided, x_next
        x = x_next


def _drive(gmm, runs, times, alpha_bars, log=True):
    """Advance every row of every run together as one (n, dim) array (see
    :func:`_steps`), logging step i at ``times[i]``.  Returns one entry per
    run: its records, or with ``log=False`` its ``(n, dim)`` final states
    alone, with no per-step log allocated and no cfgpp residual computed.
    """
    groups = [_rows(run) for run in runs]
    ends = np.cumsum([len(rows.seeds) for rows in groups]).tolist()
    slices = [slice(a, b) for a, b in zip([0] + ends, ends)]
    steps = _steps(gmm, runs, groups, slices, times, alpha_bars)
    if not log:
        for *step, x in steps:
            del step  # hold no array of step i while step i + 1 runs
        return [x[sl] for sl in slices]
    shape = (len(times), ends[-1], gmm.dim)
    x_t, x0_cond, x0_uncond, x0_guided = (np.empty(shape) for _ in range(4))
    gamma, gamma_omega, residual = (np.full(shape[:2], math.nan) for _ in range(3))
    guided_norm = np.empty(shape[:2])
    for i, pair, parts, turns, guided, x in steps:
        x_t[i], x0_cond[i], x0_uncond[i] = pair.x_t, pair.x0_cond, pair.x0_uncond
        x0_guided[i] = guided
        gamma[i] = np.where(pair.geometry.safe, pair.geometry.gamma, math.nan)
        guided_norm[i] = np.linalg.norm(guided, axis=-1)
        for run, part, turn, sl in zip(runs, parts, turns, slices):
            if turn is not None:
                gamma_omega[i, sl] = np.where(part.geometry.safe, turn, math.nan)
            if run.config.strategy == "cfgpp":
                residual[i, sl] = _cfgpp_residual(part, run.config.cfgpp_lambda,
                                                  alpha_bars[i + 1], x[sl])
        del pair, parts, part, guided  # as above
    out = []
    for run, rows, sl in zip(runs, groups, slices):
        strategy = run.config.strategy
        out.append([
            TrajectoryRecord(
                seed=seed, strategy=strategy, omega=float(rows.omega[j, 0]), times=times,
                x_t=x_t[:, row], x0_cond=x0_cond[:, row], x0_uncond=x0_uncond[:, row],
                x0_guided=x0_guided[:, row], gamma=gamma[:, row],
                gamma_omega=gamma_omega[:, row], guided_norm=guided_norm[:, row],
                final_x0=x[row],
                cfgpp_residual=residual[:, row] if strategy == "cfgpp" else None,
            )
            for j, (row, seed) in enumerate(zip(range(sl.start, sl.stop), rows.seeds))
        ])
    return out


def _pcg_correct(gmm, x, ab_t, ab_prev, config, rows, i):
    """The pcg corrector of transition ``i`` (see :func:`pcg_sample`)."""
    kappa = ddpm_beta(ab_t, ab_prev)
    beta_bar_prev = 1.0 - ab_prev
    if config.pcg_langevin_mode == "paper-literal":
        divisor = beta_bar_prev
    else:
        divisor = math.sqrt(beta_bar_prev)
    draws = _stream_draws(rows.seeds, i + 1, (config.pcg_inner_steps, gmm.dim))
    omega = rows.omega
    for noise in draws.swapaxes(0, 1):
        eps_c = gd.eps_from_x0(x, mx.posterior_mean_x0(gmm, x, ab_prev, rows.condition), ab_prev)
        eps_u = gd.eps_from_x0(x, mx.posterior_mean_x0(gmm, x, ab_prev, None), ab_prev)
        eps_guided = (1.0 - omega) * eps_u + omega * eps_c
        x = x - 0.5 * kappa * eps_guided / divisor + math.sqrt(kappa) * noise
    return x


def sample_runs(gmm: GaussianMixture, grid: TimeGrid, runs, log: bool = True) -> list:
    """Guided reverse trajectories of several runs, driven as one batch.

    ``runs`` is a list of :class:`Run`.  The conditional and unconditional
    clean predictions come from the exact mixture posterior means; each
    run's strategy combines them and a deterministic step advances the
    state ("pcg" adds its stochastic corrector).  Returns one entry per
    run: its records, one per seed, or with ``log=False`` its ``(n, dim)``
    final states alone, with no per-step log kept.  Every row, logged or
    not, equals its one-seed run at its condition and weight, bit for bit.
    """
    return _drive(gmm, runs, grid.times[:-1], grid.alpha_bars, log)


def drive_peak_bytes(
    rows: int, dim: int, components: int, inner_steps: int = 0, steps: int = 0,
) -> int:
    """Upper bound on the bytes one drive of ``rows`` rows holds at once: a
    :func:`sample_runs` drive over all its runs' rows, logged over ``steps``
    steps or finals-only (``steps=0``), or a :func:`flow_sample_batch` drive.

    Per row, either kind holds its working set: about sixteen ``(dim,)``
    state, prediction, geometry and step vectors and six ``(components,)``
    logit and responsibility temporaries (the Gram-form kernel builds no
    ``(components, dim)`` array), and for pcg the corrector's
    ``(inner_steps, dim)`` draws, held twice while they are stacked and
    charged on every row; and its objects, 48 floats for its seed and its
    step-0 draw.  A logged row adds 256 floats for its
    :class:`TrajectoryRecord` (the object and its dict, about 350 bytes,
    and up to eleven array views of about 140 bytes each) and, per step,
    ``4 * dim + 4`` floats of log: x_t, the three predictions, gamma,
    gamma_omega, the cfgpp residual and the guided norm, all allocated
    before the first step and filled step by step.  Twice the means and 256 KiB
    cover the reduction buffers and fixed objects.  tracemalloc measures
    at most 80% of this finals-only and 98% logged, where the exact log
    dominates, over dims 1-128, 1-64 components, 1-2000 rows, 1-200 steps,
    every strategy alone, all nine in one drive, and the flow drive.
    """
    per_row = 16 * dim + 6 * components + 2 * inner_steps * dim + 48
    if steps:
        per_row += 256 + (4 * dim + 4) * steps
    return 8 * (rows * per_row + 2 * components * dim) + 2**18


def check_flow(sigma_min: float, steps: int) -> None:
    """Refuse a path floor sigma_min outside [0, 1) or fewer than one step."""
    if not 0.0 <= sigma_min < 1.0:
        raise mx.FieldError("sigma_min must lie in [0, 1)", "sigma_min")
    _check_steps(steps)


def flow_sample_batch(
    gmm: GaussianMixture,
    sigma_min: float,
    steps: int,
    omega: float,
    angle_cap: float,
    condition: int,
    seeds,
) -> list[TrajectoryRecord]:
    """Integrate the guided flow from noise (t=0) to data (t=1) for every seed.

    On x_t = t * x1 + sigma_t * eps, y = x_t / s with s = hypot(t, sigma_t) is
    the VP noising of x1 at alpha_bar = (t / s)^2 and the Euler step is y's
    DDIM step, so the capped-angle rule drives y; the log holds t and s * y.
    """
    check_flow(sigma_min, steps)
    t = np.arange(steps + 1) * (1.0 / steps)
    s = np.hypot(t, 1.0 - (1.0 - sigma_min) * t)
    config = GuidanceConfig(strategy="adg", omega=omega, angle_cap=angle_cap)
    records = _drive(gmm, [Run(config, condition, seeds)], t[:-1], (t / s) ** 2)[0]
    for j, rec in enumerate(records):  # views of one log: each scales its own rows, no copy
        np.multiply(rec.x_t, s[:-1, None], out=rec.x_t)
        np.multiply(rec.final_x0, s[-1], out=rec.final_x0)
        records[j] = replace(rec, strategy="flow_adg")  # in place: one record per row
    return records


def sample_trajectory(
    gmm: GaussianMixture,
    grid: TimeGrid,
    config: GuidanceConfig,
    condition: int,
    seed: int,
) -> TrajectoryRecord:
    """Run one guided reverse trajectory on the grid (see :func:`sample_runs`)."""
    return sample_runs(gmm, grid, [Run(config, condition, [seed])])[0][0]


def pcg_sample(
    gmm: GaussianMixture,
    grid: TimeGrid,
    omega: float,
    inner_steps: int,
    condition: int,
    seed: int,
    langevin_mode: str = "paper-literal",
) -> TrajectoryRecord:
    """Predictor-corrector loop: conditional deterministic step, then
    ``inner_steps`` stochastic sharpening updates per outer iteration.

    The corrector moves against the guided noise combination at the new
    level with step ``kappa = 1 - ab_t / ab_prev``:
    ``x <- x - kappa/2 * eps_guided / divisor + sqrt(kappa) * noise``.
    The divisor is ``beta_bar`` in "paper-literal" mode and
    ``sqrt(beta_bar)`` in "score-consistent" mode (the form under which
    the update is plain Langevin dynamics on the guided density).
    """
    config = GuidanceConfig(
        strategy="pcg", omega=omega, pcg_inner_steps=inner_steps, pcg_langevin_mode=langevin_mode
    )
    return sample_runs(gmm, grid, [Run(config, condition, [seed])])[0][0]


# ---------------------------------------------------------------------------
# Flow-matching sampler
# ---------------------------------------------------------------------------

def flow_euler_step(
    x_t: np.ndarray,
    x1_hat: np.ndarray,
    t: float,
    dt: float,
    sigma_min: float,
) -> np.ndarray:
    """Explicit Euler update along the linear-path velocity field.

    ``v = (x1_hat - (1 - sigma_min) * x_t) / (1 - (1 - sigma_min) * t)``.
    """
    shrink = 1.0 - sigma_min
    std = 1.0 - shrink * t
    if std <= FLOW_STD_FLOOR:
        raise ValueError(f"path std underflow at t={t} (sigma_min={sigma_min})")
    x_t = np.asarray(x_t, dtype=float)
    v = (np.asarray(x1_hat, dtype=float) - shrink * x_t) / std
    return x_t + v * dt


def flow_posterior_mean_x1(
    gmm: GaussianMixture,
    x_t: np.ndarray,
    t: float,
    sigma_min: float,
    condition: int | np.ndarray | None = None,
) -> np.ndarray:
    """Exact E[x1 | x_t] under the linear path with a mixture target.

    Per component the posterior is Gaussian with precision
    ``1 + t^2 / sigma_t^2`` and mean ``(mu + (t / sigma_t^2) x) / precision``;
    the mixture case weighs components by their marginal responsibilities
    (observation variance ``sigma_t^2 + t^2`` per component).  As in
    :func:`~guidance_lab.mixture.posterior_mean_x0`, ``condition`` may be
    an ``(n,)`` index array, one component per row.
    """
    x_t = mx._as_points(gmm, x_t)
    sigma = 1.0 - (1.0 - sigma_min) * t
    if sigma <= FLOW_STD_FLOOR:
        raise ValueError(f"path std underflow at t={t}")
    var = sigma * sigma
    precision = 1.0 + t * t / var
    if condition is not None:
        return (mx._condition_means(gmm, condition) + (t / var) * x_t) / precision
    # responsibilities under x_t | c ~ N(t * mu_c, (var + t^2) I): the noised
    # mixture's at alpha_bar = t^2 / (var + t^2) and x = x_t / sqrt(var + t^2)
    obs_var = var + t * t
    resp = mx._responsibilities(gmm, x_t, t / obs_var, t * t / obs_var)
    return (np.einsum("...c,cd->...d", resp, gmm.means) + (t / var) * x_t) / precision


def flow_sample_adg(
    gmm: GaussianMixture,
    sigma_min: float,
    steps: int,
    omega: float,
    angle_cap: float,
    condition: int,
    seed: int,
) -> TrajectoryRecord:
    """One guided flow trajectory (see :func:`flow_sample_batch`)."""
    return flow_sample_batch(gmm, sigma_min, steps, omega, angle_cap, condition, [seed])[0]
