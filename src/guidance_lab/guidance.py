"""Guidance strategies: producing a guided denoising target from a prediction pair.

Every strategy consumes the conditional and unconditional clean-sample
predictions at one reverse step and emits the guided prediction that the
sampler will renoise.  The angle-rotation family turns the conditional
prediction away from the unconditional one by a capped multiple of their
separation angle; the linear family extrapolates.  Operations broadcast
over leading axes (vectors are ``(..., dim)``).

Geometry conventions: the rotation happens in span{x0_cond, x0_uncond};
the separation angle is taken with ``atan2``.  A pair that spans no plane
to turn in, parallel or antiparallel (rejection at most ``REJECTION_FLOOR``
of its norm), or that is almost zero-length (norm at most ``NORM_FLOOR``)
makes the rotation a no-op and falls back to the conditional prediction;
every other pair turns, however small its angle.

``STRATEGIES`` maps each strategy name to the batched rule the sampler
runs; every rule calls the public function of its strategy below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .mixture import FieldError, _check_alpha_bar

__all__ = [
    "NORM_FLOOR",
    "REJECTION_FLOOR",
    "DEFAULT_ANGLE_CAP",
    "DegenerateGeometryError",
    "PredictionPair",
    "ApgParams",
    "GuidanceConfig",
    "check_omega",
    "check_start",
    "STRATEGIES",
    "x0_from_eps",
    "eps_from_x0",
    "angle_between",
    "rotate_raw",
    "adg_rotate",
    "adg_no_cap",
    "adg_normalized",
    "adg_simplified",
    "cfg_combine",
    "apg_update",
    "recfg_combine",
    "cfgpp_predictions",
]

NORM_FLOOR = 1e-12
# The one test of "too parallel to turn": exactly (anti)parallel pairs leave a
# rejection of rounding noise, under 1e-15 of |x_cond| up to dim 4096.  Any
# larger one turns, at any angle, to within about (omega - 1)*u*|x_cond|.
REJECTION_FLOOR = 1e-12
DEFAULT_ANGLE_CAP = math.pi / 3.0

class DegenerateGeometryError(ValueError):
    """A prediction is too short for angle math."""


class PredictionPair(NamedTuple):
    """Conditional/unconditional clean predictions at one reverse step, and
    their separation geometry; build it with :meth:`of`, which checks the
    pair and measures the geometry once for every rule that reads it."""

    x0_cond: np.ndarray
    x0_uncond: np.ndarray
    x_t: np.ndarray
    alpha_bar_t: float
    geometry: _PairGeometry

    @classmethod
    def of(cls, x0_cond, x0_uncond, x_t, alpha_bar_t: float) -> PredictionPair:
        """The checked pair; alpha_bar_t = 0 is the flow path's pure-noise start."""
        cond = np.asarray(x0_cond, dtype=float)
        uncond = np.asarray(x0_uncond, dtype=float)
        x_t = np.asarray(x_t, dtype=float)
        if not cond.shape == uncond.shape == x_t.shape:
            raise ValueError("prediction pair vectors must share one shape")
        if not 0.0 <= alpha_bar_t < 1.0:
            raise ValueError("alpha_bar_t must lie in [0, 1)")
        return cls(cond, uncond, x_t, alpha_bar_t, _pair_geometry(cond, uncond))


# APG knobs.  The defaults below are arbitrary (no canonical values are
# published for this desk-scale setting) and are echoed into every report.
# eta = 1, beta = 0, r = inf is the exact linear-extrapolation reduction.
@dataclass(frozen=True)
class ApgParams:
    eta: float = 0.0
    beta: float = -0.5
    r: float = 2.5

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise FieldError("eta must lie in [0, 1]", "eta")
        if not self.beta <= 0.0:
            raise FieldError("momentum coefficient beta must be <= 0", "beta")
        if not self.r >= 0.0:
            raise FieldError("norm clamp r must be nonnegative", "r")


@dataclass(frozen=True)
class GuidanceConfig:
    """Strategy selector plus every strategy's parameters."""

    strategy: str = "cfg"
    omega: float = 1.0
    angle_cap: float = DEFAULT_ANGLE_CAP
    cfgpp_lambda: float = 0.5
    apg_params: ApgParams = field(default_factory=ApgParams)
    recfg_lambda: float | dict[int, float] = 1.0
    pcg_inner_steps: int = 0
    pcg_langevin_mode: str = "paper-literal"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise FieldError(f"unknown strategy {self.strategy!r}; expected one of "
                             f"{tuple(STRATEGIES)}", "strategy")
        check_omega(self.omega)
        if not 0.0 < self.angle_cap <= math.pi:
            raise FieldError("angle_cap must lie in (0, pi]", "angle_cap")
        _check_cfgpp_lambda(self.cfgpp_lambda)
        if self.pcg_inner_steps < 0:
            raise FieldError("pcg_inner_steps must be >= 0", "pcg_inner_steps")
        if self.pcg_langevin_mode not in ("paper-literal", "score-consistent"):
            raise FieldError("pcg_langevin_mode must be 'paper-literal' or 'score-consistent'",
                             "pcg_langevin_mode")

    def recfg_lambda_for(self, condition: int) -> float:
        if not isinstance(self.recfg_lambda, dict):
            return float(self.recfg_lambda)
        if condition not in self.recfg_lambda:
            raise FieldError(f"no recfg lambda entry for condition {condition}", "recfg_lambda")
        return float(self.recfg_lambda[condition])


def _check_cfgpp_lambda(lam) -> None:
    """Refuse a cfgpp noise-mixing weight outside (0, 1]."""
    if not 0.0 < lam <= 1.0:
        raise FieldError("cfgpp_lambda must lie in (0, 1]", "cfgpp_lambda")


def check_omega(omega) -> None:
    """Refuse a guidance weight, or any of an array of weights, below 1 or not finite."""
    if not np.all(np.greater_equal(omega, 1.0)):
        raise FieldError("guidance weight omega must be >= 1", "omega")
    if not np.all(np.isfinite(omega)):
        raise FieldError(f"guidance weight omega must be finite, got {np.max(omega)}", "omega")


def check_start(strategy: str, alpha_bar: float) -> None:
    """Refuse a recfg or cfgpp drive from a grid that starts at alpha_bar = 0,
    outside the (0, 1) domain of x0_from_eps, which both pass through."""
    if strategy in ("recfg", "cfgpp") and not alpha_bar > 0.0:
        raise FieldError(f"{strategy} needs alpha_bar in (0, 1) to change variable through "
                         f"x0_from_eps; the grid starts at alpha_bar {alpha_bar}",
                         "strategy", "alpha_bar")


# ---------------------------------------------------------------------------
# epsilon <-> x0 changes of variable
# ---------------------------------------------------------------------------

def x0_from_eps(x_t: np.ndarray, eps: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Clean prediction implied by a noise prediction at signal level alpha_bar."""
    alpha_bar = _check_alpha_bar(alpha_bar, allow_one=False)
    x_t = np.asarray(x_t, dtype=float)
    eps = np.asarray(eps, dtype=float)
    return (x_t - math.sqrt(1.0 - alpha_bar) * eps) / math.sqrt(alpha_bar)


def eps_from_x0(x_t: np.ndarray, x0: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Noise prediction implied by a clean prediction (inverse of x0_from_eps)."""
    alpha_bar = _check_alpha_bar(alpha_bar, allow_one=False)
    x_t = np.asarray(x_t, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    return (x_t - math.sqrt(alpha_bar) * x0) / math.sqrt(1.0 - alpha_bar)


# ---------------------------------------------------------------------------
# Angle helpers
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray) -> np.ndarray:
    return np.linalg.norm(v, axis=-1)


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi] between two vectors (see :func:`_pair_geometry`)."""
    geometry = _pair_geometry(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    if not geometry.safe:
        raise DegenerateGeometryError("vector norm below floor; angle undefined")
    return float(geometry.gamma)


class _PairGeometry(NamedTuple):
    x_cond: np.ndarray
    rejection: np.ndarray   # x_cond minus its projection on x_uncond
    cond_norm: np.ndarray   # |x_cond|
    rej_norm: np.ndarray    # |rejection|
    gamma: np.ndarray       # separation angle
    sin_gamma: np.ndarray   # rej_norm / cond_norm
    safe: np.ndarray        # both norms above NORM_FLOOR
    valid: np.ndarray       # safe, and sin_gamma > REJECTION_FLOOR: a plane to turn in


def _pair_geometry(x_cond: np.ndarray, x_uncond: np.ndarray) -> _PairGeometry:
    """Batched separation geometry of a prediction pair, computed once.

    The angle is ``atan2(|rejection| * |x_uncond|, x_cond . x_uncond)``:
    unlike arccos of a clamped cosine, which cannot resolve angles below
    about 1.5e-8, it keeps full relative precision at small angles.
    ``sin_gamma`` comes from the same rejection, so it stays accurate
    where the cosine pins to +-1.
    """
    n_cond = _norm(x_cond)
    n_uncond = _norm(x_uncond)
    safe = (n_cond > NORM_FLOOR) & (n_uncond > NORM_FLOOR)
    dot = np.sum(x_cond * x_uncond, axis=-1)
    u_sq = np.where(n_uncond > NORM_FLOOR, n_uncond, 1.0) ** 2
    rejection = x_cond - (dot / u_sq)[..., None] * x_uncond
    rej_norm = _norm(rejection)
    gamma = np.arctan2(rej_norm * n_uncond, dot)
    sin_gamma = rej_norm / np.where(safe, n_cond, 1.0)
    valid = safe & (sin_gamma > REJECTION_FLOOR)
    return _PairGeometry(x_cond, rejection, n_cond, rej_norm, gamma, sin_gamma, safe, valid)


def _rotate(
    geometry: _PairGeometry, omega: float | np.ndarray, angle_cap: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """Rotation of a precomputed pair geometry; returns (rotated, turn angle)."""
    x_cond = geometry.x_cond
    gamma_omega = (omega - 1.0) * geometry.gamma
    if angle_cap is not None:
        gamma_omega = np.minimum(gamma_omega, angle_cap)
    sin_safe = np.where(geometry.valid, geometry.sin_gamma, 1.0)
    rotated = (
        np.cos(gamma_omega)[..., None] * x_cond
        + (np.sin(gamma_omega) / sin_safe)[..., None] * geometry.rejection
    )
    return np.where(geometry.valid[..., None], rotated, x_cond), gamma_omega


def rotate_raw(
    x_cond: np.ndarray,
    x_uncond: np.ndarray,
    omega: float | np.ndarray,
    angle_cap: float | None = DEFAULT_ANGLE_CAP,
) -> np.ndarray:
    """Rotation core on raw prediction vectors, batched over leading axes.

    Turns ``x_cond`` away from ``x_uncond`` by (omega - 1) times their
    separation angle, clipped at ``angle_cap`` (None disables the cap):
    ``cos(g_w) * x_cond + sin(g_w)/sin(g) * (x_cond - proj)``.  Rows with
    degenerate geometry pass through unchanged.  ``omega`` may be a
    per-row array matching the leading axes.
    """
    x_cond = np.asarray(x_cond, dtype=float)
    x_uncond = np.asarray(x_uncond, dtype=float)
    return _rotate(_pair_geometry(x_cond, x_uncond), omega, angle_cap)[0]


def adg_rotate(
    pair: PredictionPair, omega: float | np.ndarray, angle_cap: float = DEFAULT_ANGLE_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate the conditional prediction away from the unconditional one.

    The rotation angle is (omega - 1) times the separation angle, capped.
    omega = 1 and degenerate geometry return the conditional prediction
    unchanged.  Returns (rotated, turn angle).
    """
    return _rotate(pair.geometry, omega, angle_cap)


def adg_no_cap(pair: PredictionPair, omega: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation variant without the cap; angles beyond pi/2 reverse course."""
    return _rotate(pair.geometry, omega, None)


def adg_normalized(
    pair: PredictionPair, omega: float | np.ndarray, angle_cap: float = DEFAULT_ANGLE_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """Capped rotation rescaled to the conditional prediction's norm."""
    rotated, turn = adg_rotate(pair, omega, angle_cap)
    return _rescale_to(rotated, pair.x0_cond), turn


def adg_simplified(pair: PredictionPair, omega: float) -> np.ndarray:
    """Linear extrapolation rescaled to the conditional prediction's norm."""
    extrapolated = cfg_combine(pair, omega)
    return _rescale_to(extrapolated, pair.x0_cond)


def _rescale_to(vec: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """vec * |reference| / |vec|, falling back to reference near zero."""
    n_vec = _norm(vec)
    ok = n_vec > NORM_FLOOR
    scale = np.where(ok, _norm(reference) / np.where(ok, n_vec, 1.0), 1.0)
    return np.where(ok[..., None], scale[..., None] * vec, reference)


def cfg_combine(pair: PredictionPair, omega: float) -> np.ndarray:
    """Linear extrapolation x0c + (omega - 1)(x0c - x0u)."""
    return pair.x0_cond + (omega - 1.0) * (pair.x0_cond - pair.x0_uncond)


def apg_update(
    pair: PredictionPair,
    omega: float,
    params: ApgParams,
    momentum: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected-difference guidance with norm clamp and negative momentum.

    The prediction difference is split into components parallel and
    orthogonal to the conditional prediction; the parallel part is scaled
    by eta, the recombined difference clamped to norm r and folded into
    the running momentum (``momentum' = delta - beta * momentum``; zeros
    at a trajectory's first step).  Returns the guided prediction and the
    updated momentum.
    """
    delta = pair.x0_cond - pair.x0_uncond
    ref_sq = np.sum(pair.x0_cond * pair.x0_cond, axis=-1)
    ok = ref_sq > NORM_FLOOR**2
    coeff = np.where(ok, np.sum(delta * pair.x0_cond, axis=-1) / np.where(ok, ref_sq, 1.0), 0.0)
    parallel = coeff[..., None] * pair.x0_cond
    orthogonal = delta - np.where(ok[..., None], parallel, 0.0)
    mixed = params.eta * np.where(ok[..., None], parallel, 0.0) + orthogonal
    n_mixed = _norm(mixed)
    # only a norm above r is scaled, so r = inf or a zero difference leaves it as is
    with np.errstate(divide="ignore", invalid="ignore"):
        clamp = np.where(n_mixed > params.r, params.r / n_mixed, 1.0)
    clamped = clamp[..., None] * mixed
    momentum = clamped - params.beta * momentum
    return pair.x0_cond + (omega - 1.0) * momentum, momentum


def recfg_combine(
    eps_cond: np.ndarray, eps_uncond: np.ndarray, omega: float, lam: float
) -> np.ndarray:
    """Rectified noise combination lam*(1 - omega)*eps_uncond + omega*eps_cond."""
    eps_cond = np.asarray(eps_cond, dtype=float)
    eps_uncond = np.asarray(eps_uncond, dtype=float)
    return lam * (1.0 - omega) * eps_uncond + omega * eps_cond


def cfgpp_predictions(
    eps_cond: np.ndarray,
    eps_uncond: np.ndarray,
    lam: float,
    x_t: np.ndarray,
    alpha_bar: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Denoise with the lambda-mixed noise, renoise with the unconditional one.

    Returns (clean prediction from the mixed noise, noise used for
    renoising).  The renoising noise is deliberately the unconditional
    prediction; that substitution is the whole strategy.
    """
    _check_cfgpp_lambda(lam)
    eps_cond = np.asarray(eps_cond, dtype=float)
    eps_uncond = np.asarray(eps_uncond, dtype=float)
    mixed = (1.0 - lam) * eps_uncond + lam * eps_cond
    return x0_from_eps(x_t, mixed, alpha_bar), eps_uncond


# ---------------------------------------------------------------------------
# Strategy table
# ---------------------------------------------------------------------------
# Each rule maps one run's slice of the pair, its rows, its config and its
# state (the APG momentum, zeros at the first step) to (guided prediction,
# turn angle or None, renoising noise or None, state).  The rows carry each
# row's guidance weight as an (n, 1) ``omega`` column and, for recfg, its
# ``recfg_lambda``.  Only cfgpp returns a renoising noise: the sampler's
# next state is not the one a DDIM step would derive from the guided
# prediction.  The rules look the functions above up as module globals when
# they run, so a wrapper put on the module sees every call.

def _apg(pair, rows, config, state):
    guided, state = apg_update(pair, rows.omega, config.apg_params, state)
    return guided, None, None, state


def _eps_pair(pair):
    x, ab = pair.x_t, pair.alpha_bar_t
    return eps_from_x0(x, pair.x0_cond, ab), eps_from_x0(x, pair.x0_uncond, ab)


def _recfg(pair, rows, config, state):
    eps = recfg_combine(*_eps_pair(pair), rows.omega, rows.recfg_lambda)
    return x0_from_eps(pair.x_t, eps, pair.alpha_bar_t), None, None, state


def _cfgpp(pair, rows, config, state):
    denoised, renoise = cfgpp_predictions(
        *_eps_pair(pair), config.cfgpp_lambda, pair.x_t, pair.alpha_bar_t)
    return denoised, None, renoise, state


STRATEGIES = {
    "cfg": lambda pair, rows, config, state: (
        cfg_combine(pair, rows.omega), None, None, state),
    # the rotations' weights are an (n,) vector, like the geometry's angle
    "adg": lambda pair, rows, config, state: (
        *adg_rotate(pair, rows.omega[:, 0], config.angle_cap), None, state),
    "adg_no_cap": lambda pair, rows, config, state: (
        *adg_no_cap(pair, rows.omega[:, 0]), None, state),
    "adg_normalized": lambda pair, rows, config, state: (
        *adg_normalized(pair, rows.omega[:, 0], config.angle_cap), None, state),
    "adg_simplified": lambda pair, rows, config, state: (
        adg_simplified(pair, rows.omega), None, None, state),
    "cfgpp": _cfgpp,
    "apg": _apg,
    "recfg": _recfg,
    # predictor: the conditional step; the sampler runs the corrector after it
    "pcg": lambda pair, rows, config, state: (pair.x0_cond, None, None, state),
}
