"""Guidance strategies: producing a guided denoising target from a prediction pair.

Every strategy consumes the conditional and unconditional clean-sample
predictions at one reverse step and emits the guided prediction that the
sampler will renoise.  The angle-rotation family turns the conditional
prediction away from the unconditional one by a capped multiple of their
separation angle; the linear family extrapolates.  Operations broadcast
over leading axes (vectors are ``(..., dim)``).

Geometry conventions: the rotation happens in span{x0_cond, x0_uncond};
the separation angle is taken with ``atan2``; pairs that are numerically
parallel (angle below ``ANGLE_FLOOR``), exactly antiparallel (rejection
below ``REJECTION_FLOOR`` of its norm) or almost zero-length (norm below
``NORM_FLOOR``) make the rotation a no-op and fall back to the
conditional prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "NORM_FLOOR",
    "ANGLE_FLOOR",
    "REJECTION_FLOOR",
    "DEFAULT_ANGLE_CAP",
    "DegenerateGeometryError",
    "PredictionPair",
    "ApgParams",
    "ApgState",
    "GuidanceConfig",
    "STRATEGIES",
    "x0_from_eps",
    "eps_from_x0",
    "angle_between",
    "cap_angle",
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
ANGLE_FLOOR = 1e-7
# Exactly antiparallel pairs leave a rejection of rounding noise, under 1e-15
# of |x_cond| up to dim 4096; it spans no plane to turn in.
REJECTION_FLOOR = 1e-12
DEFAULT_ANGLE_CAP = math.pi / 3.0

STRATEGIES = (
    "cfg",
    "adg",
    "adg_no_cap",
    "adg_normalized",
    "adg_simplified",
    "cfgpp",
    "apg",
    "recfg",
    "pcg",
)


class DegenerateGeometryError(ValueError):
    """A prediction is too short (or the pair too parallel) for angle math."""


@dataclass(frozen=True)
class PredictionPair:
    """Conditional/unconditional clean predictions at one reverse step."""

    x0_cond: np.ndarray
    x0_uncond: np.ndarray
    x_t: np.ndarray
    alpha_bar_t: float

    def __post_init__(self):
        cond = np.asarray(self.x0_cond, dtype=float)
        uncond = np.asarray(self.x0_uncond, dtype=float)
        x_t = np.asarray(self.x_t, dtype=float)
        if not cond.shape == uncond.shape == x_t.shape:
            raise ValueError("prediction pair vectors must share one shape")
        if not 0.0 < self.alpha_bar_t < 1.0:
            raise ValueError("alpha_bar_t must lie in (0, 1)")
        object.__setattr__(self, "x0_cond", cond)
        object.__setattr__(self, "x0_uncond", uncond)
        object.__setattr__(self, "x_t", x_t)


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
            raise ValueError("eta must lie in [0, 1]")
        if not self.beta <= 0.0:
            raise ValueError("momentum coefficient beta must be <= 0")
        if not self.r >= 0.0:
            raise ValueError("norm clamp r must be nonnegative")


@dataclass(frozen=True)
class ApgState:
    """Running prediction-difference momentum; reset per trajectory."""

    momentum: np.ndarray

    @staticmethod
    def zero(shape) -> "ApgState":
        return ApgState(momentum=np.zeros(shape, dtype=float))


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
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if not self.omega >= 1.0:
            raise ValueError("guidance weight omega must be >= 1")
        if not 0.0 < self.angle_cap <= math.pi:
            raise ValueError("angle_cap must lie in (0, pi]")
        if not 0.0 < self.cfgpp_lambda <= 1.0:
            raise ValueError("cfgpp_lambda must lie in (0, 1]")
        if self.pcg_inner_steps < 0:
            raise ValueError("pcg_inner_steps must be >= 0")
        if self.pcg_langevin_mode not in ("paper-literal", "score-consistent"):
            raise ValueError("pcg_langevin_mode must be 'paper-literal' or 'score-consistent'")

    def recfg_lambda_for(self, condition: int) -> float:
        if isinstance(self.recfg_lambda, dict):
            try:
                return float(self.recfg_lambda[condition])
            except KeyError:
                raise ValueError(f"no recfg lambda entry for condition {condition}") from None
        return float(self.recfg_lambda)


# ---------------------------------------------------------------------------
# epsilon <-> x0 changes of variable
# ---------------------------------------------------------------------------

def _check_alpha_open(alpha_bar: float) -> float:
    alpha_bar = float(alpha_bar)
    if not 0.0 < alpha_bar < 1.0:
        raise ValueError(f"alpha_bar must lie in (0, 1), got {alpha_bar}")
    return alpha_bar


def x0_from_eps(x_t: np.ndarray, eps: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Clean prediction implied by a noise prediction at signal level alpha_bar."""
    alpha_bar = _check_alpha_open(alpha_bar)
    x_t = np.asarray(x_t, dtype=float)
    eps = np.asarray(eps, dtype=float)
    return (x_t - math.sqrt(1.0 - alpha_bar) * eps) / math.sqrt(alpha_bar)


def eps_from_x0(x_t: np.ndarray, x0: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Noise prediction implied by a clean prediction (inverse of x0_from_eps)."""
    alpha_bar = _check_alpha_open(alpha_bar)
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


def cap_angle(raw: float, cap: float = DEFAULT_ANGLE_CAP) -> float:
    """Clip a rotation angle at the cap."""
    if raw < 0.0:
        raise ValueError("rotation angle must be nonnegative")
    if not cap > 0.0:
        raise ValueError("cap must be positive")
    return min(raw, cap)


class _PairGeometry(NamedTuple):
    x_cond: np.ndarray
    rejection: np.ndarray   # x_cond minus its projection on x_uncond
    gamma: np.ndarray       # separation angle
    sin_gamma: np.ndarray   # |rejection| / |x_cond|
    safe: np.ndarray        # both norms above NORM_FLOOR
    valid: np.ndarray       # safe, gamma >= ANGLE_FLOOR, sin_gamma > REJECTION_FLOOR


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
    valid = safe & (gamma >= ANGLE_FLOOR) & (sin_gamma > REJECTION_FLOOR)
    return _PairGeometry(x_cond, rejection, gamma, sin_gamma, safe, valid)


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


def adg_rotate(pair: PredictionPair, omega: float, angle_cap: float = DEFAULT_ANGLE_CAP) -> np.ndarray:
    """Rotate the conditional prediction away from the unconditional one.

    The rotation angle is (omega - 1) times the separation angle, capped.
    omega = 1 and degenerate geometry return the conditional prediction
    unchanged.
    """
    return rotate_raw(pair.x0_cond, pair.x0_uncond, omega, angle_cap)


def adg_no_cap(pair: PredictionPair, omega: float) -> np.ndarray:
    """Rotation variant without the cap; angles beyond pi/2 reverse course."""
    return rotate_raw(pair.x0_cond, pair.x0_uncond, omega, None)


def adg_normalized(pair: PredictionPair, omega: float, angle_cap: float = DEFAULT_ANGLE_CAP) -> np.ndarray:
    """Capped rotation rescaled to the conditional prediction's norm."""
    rotated = adg_rotate(pair, omega, angle_cap)
    return _rescale_to(rotated, pair.x0_cond)


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
    state: ApgState,
) -> tuple[np.ndarray, ApgState]:
    """Projected-difference guidance with norm clamp and negative momentum.

    The prediction difference is split into components parallel and
    orthogonal to the conditional prediction; the parallel part is scaled
    by eta, the recombined difference clamped to norm r and folded into
    the running momentum (``momentum' = delta - beta * momentum``).
    Returns the guided prediction and the updated state.
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
    momentum = clamped - params.beta * state.momentum
    guided = pair.x0_cond + (omega - 1.0) * momentum
    return guided, ApgState(momentum=momentum)


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
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    eps_cond = np.asarray(eps_cond, dtype=float)
    eps_uncond = np.asarray(eps_uncond, dtype=float)
    mixed = (1.0 - lam) * eps_uncond + lam * eps_cond
    return x0_from_eps(x_t, mixed, alpha_bar), eps_uncond
