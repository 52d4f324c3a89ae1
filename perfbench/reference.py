"""Independent batched NumPy model of guidance-lab's sampler and probe math.

The correctness gate compares the program's outputs with what this module
computes from the same generated inputs.  It is written from the formulas
the package documents, not by importing the package, so a change in the
program cannot move the reference with it.  Every function advances a whole
population as an ``(n, dim)`` array.

Noise follows the program's stream layout: stream ``(seed, 0)`` draws the
initial state and stream ``(seed, i + 1)`` serves transition ``i``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ANGLE_FLOOR = 1e-7
NORM_FLOOR = 1e-12
LOG_2PI = math.log(2.0 * math.pi)
# The package defaults, which every generated config keeps.
ANGLE_CAP = math.pi / 3.0
APG_ETA, APG_BETA, APG_R = 0.0, -0.5, 2.5
CFGPP_LAMBDA = 0.5
RECFG_LAMBDA = 1.0
BETA_MIN, BETA_MAX = 0.1, 20.0


def step_rng(seed: int, step: int) -> np.random.Generator:
    key = np.array([seed, step], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def initial_states(seeds, dim: int) -> np.ndarray:
    return np.stack([step_rng(s, 0).standard_normal(dim) for s in seeds])


def vp_grid(steps: int):
    """Reverse-time grid from 1 to 0 and its alpha_bar values (linear beta ramp)."""
    times = np.linspace(1.0, 0.0, steps + 1)
    abars = np.array([math.exp(-(BETA_MIN * t + (BETA_MAX - BETA_MIN) * t * t / 2.0))
                      for t in times])
    return times, abars


def _norm(v):
    return np.linalg.norm(v, axis=-1)


class Mixture:
    """Unit-covariance Gaussian mixture."""

    def __init__(self, means, weights):
        self.means = np.asarray(means, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.dim = self.means.shape[1]

    def responsibilities(self, x, alpha_bar):
        diff = x[:, None, :] - math.sqrt(alpha_bar) * self.means
        logits = -0.5 * (self.dim * LOG_2PI + np.sum(diff * diff, axis=-1)) + np.log(self.weights)
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return w / w.sum(axis=-1, keepdims=True)

    def x0_cond(self, x, alpha_bar, conditions):
        return (1.0 - alpha_bar) * self.means[conditions] + math.sqrt(alpha_bar) * x

    def x0_uncond(self, x, alpha_bar):
        resp = self.responsibilities(x, alpha_bar)
        return math.sqrt(alpha_bar) * x + (1.0 - alpha_bar) * (resp @ self.means)

    def score_cond(self, x, alpha_bar, condition):
        return math.sqrt(alpha_bar) * self.means[condition] - x

    def score_uncond(self, x, alpha_bar):
        return -x + math.sqrt(alpha_bar) * (self.responsibilities(x, alpha_bar) @ self.means)


# ---------------------------------------------------------------------------
# Guidance rules
# ---------------------------------------------------------------------------

def rotate(x_cond, x_uncond, omega):
    """Capped rotation of x_cond away from x_uncond by (omega - 1) * angle."""
    n_c, n_u = _norm(x_cond), _norm(x_uncond)
    safe = (n_c > NORM_FLOOR) & (n_u > NORM_FLOOR)
    dot = np.sum(x_cond * x_uncond, axis=-1)
    gamma = np.arccos(np.clip(dot / np.where(safe, n_c * n_u, 1.0), -1.0, 1.0))
    proj = (dot / np.where(n_u > NORM_FLOOR, n_u, 1.0) ** 2)[:, None] * x_uncond
    rejection = x_cond - proj
    sin_gamma = _norm(rejection) / np.where(safe, n_c, 1.0)
    valid = safe & (gamma >= ANGLE_FLOOR)
    turn = np.minimum((omega - 1.0) * gamma, ANGLE_CAP)
    sin_safe = np.where(valid & (sin_gamma > 0.0), sin_gamma, 1.0)
    rotated = np.cos(turn)[:, None] * x_cond + (np.sin(turn) / sin_safe)[:, None] * rejection
    return np.where(valid[:, None], rotated, x_cond)


def ddim(x, x0_hat, ab, ab_prev):
    eps = (x - math.sqrt(ab) * x0_hat) / math.sqrt(1.0 - ab)
    return math.sqrt(ab_prev) * x0_hat + math.sqrt(1.0 - ab_prev) * eps


def _eps(x, x0, ab):
    return (x - math.sqrt(ab) * x0) / math.sqrt(1.0 - ab)


def _x0(x, eps, ab):
    return (x - math.sqrt(1.0 - ab) * eps) / math.sqrt(ab)


def _apg(c, u, omega, momentum):
    delta = c - u
    ref_sq = np.sum(c * c, axis=-1)
    ok = ref_sq > NORM_FLOOR ** 2
    coeff = np.where(ok, np.sum(delta * c, axis=-1) / np.where(ok, ref_sq, 1.0), 0.0)
    parallel = np.where(ok[:, None], coeff[:, None] * c, 0.0)
    mixed = APG_ETA * parallel + (delta - parallel)
    n_mixed = _norm(mixed)
    with np.errstate(divide="ignore"):
        clamp = np.minimum(1.0, APG_R / np.where(n_mixed > 0.0, n_mixed, np.inf))
    momentum = clamp[:, None] * mixed - APG_BETA * momentum
    return c + (omega - 1.0) * momentum, momentum


def sample(gmm: Mixture, abars, strategy, omega, conditions, x):
    """Deterministic guided DDIM population; returns (states before each step, final)."""
    conditions = np.broadcast_to(np.asarray(conditions), (x.shape[0],))
    momentum = np.zeros_like(x)
    path = []
    for i in range(len(abars) - 1):
        ab, ab_prev = float(abars[i]), float(abars[i + 1])
        path.append(x)
        c = gmm.x0_cond(x, ab, conditions)
        u = gmm.x0_uncond(x, ab)
        if strategy == "cfgpp":
            e_c, e_u = _eps(x, c, ab), _eps(x, u, ab)
            denoised = _x0(x, (1.0 - CFGPP_LAMBDA) * e_u + CFGPP_LAMBDA * e_c, ab)
            x = math.sqrt(ab_prev) * denoised + math.sqrt(1.0 - ab_prev) * e_u
            continue
        if strategy == "cfg":
            guided = c + (omega - 1.0) * (c - u)
        elif strategy == "adg":
            guided = rotate(c, u, omega)
        elif strategy == "apg":
            guided, momentum = _apg(c, u, omega, momentum)
        elif strategy == "recfg":
            e_c, e_u = _eps(x, c, ab), _eps(x, u, ab)
            guided = _x0(x, RECFG_LAMBDA * (1.0 - omega) * e_u + omega * e_c, ab)
        else:
            raise ValueError(f"no deterministic reference for {strategy!r}")
        x = ddim(x, guided, ab, ab_prev)
    return np.array(path), x


def pcg(gmm: Mixture, abars, omega, inner_steps, condition, x, noise):
    """Predictor-corrector population (paper-literal Langevin divisor).

    ``noise(i, n, dim)`` returns the corrector draws of transition ``i``:
    an ``(inner_steps, n, dim)`` array.
    """
    for i in range(len(abars) - 1):
        ab, ab_prev = float(abars[i]), float(abars[i + 1])
        x = ddim(x, gmm.x0_cond(x, ab, condition), ab, ab_prev)
        if inner_steps == 0 or ab_prev >= 1.0:
            continue
        kappa = 1.0 - ab / ab_prev
        divisor = 1.0 - ab_prev
        draws = noise(i, x.shape[0], x.shape[1])
        for k in range(inner_steps):
            e_c = _eps(x, gmm.x0_cond(x, ab_prev, condition), ab_prev)
            e_u = _eps(x, gmm.x0_uncond(x, ab_prev), ab_prev)
            guided = (1.0 - omega) * e_u + omega * e_c
            x = x - 0.5 * kappa * guided / divisor + math.sqrt(kappa) * draws[k]
    return x


def program_streams(seeds, inner_steps):
    """Corrector draws from the program's per-(seed, step) streams."""
    def noise(i, n, dim):
        rngs = [step_rng(s, i + 1) for s in seeds]
        return np.array([[r.standard_normal(dim) for r in rngs] for _ in range(inner_steps)])
    return noise


def fresh_streams(key: int, inner_steps):
    """Corrector draws from one independent stream (for population statistics)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(key)))
    return lambda i, n, dim: rng.standard_normal((inner_steps, n, dim))


def flow_sample(gmm: Mixture, sigma_min, steps, omega, condition, x):
    """Guided flow-matching Euler integration from t=0 to t=1; returns (path, final)."""
    shrink = 1.0 - sigma_min
    dt = 1.0 / steps
    path = []
    for i in range(steps):
        t = i * dt
        path.append(x)
        var = (1.0 - shrink * t) ** 2
        precision = 1.0 + t * t / var
        cond = (gmm.means[condition] + (t / var) * x) / precision
        diff = x[:, None, :] - t * gmm.means
        logits = -0.5 * np.sum(diff * diff, axis=-1) / (var + t * t) + np.log(gmm.weights)
        resp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        resp /= resp.sum(axis=-1, keepdims=True)
        comp = (gmm.means + (t / var) * x[:, None, :]) / precision
        uncond = np.sum(resp[..., None] * comp, axis=-2)
        guided = rotate(cond, uncond, omega)
        x = x + (guided - shrink * x) / (1.0 - shrink * t) * dt
    return np.array(path), x


# ---------------------------------------------------------------------------
# Surface geometry and the anomalous interval
# ---------------------------------------------------------------------------

def hull_projection(points, target):
    """Exact Euclidean projection onto conv(points) by enumerating faces.

    Meant for small point sets: every subset of affinely independent points
    is tried and the nearest feasible affine projection wins.
    """
    best, best_dist = None, math.inf
    n, dim = points.shape
    for size in range(1, min(n, dim + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            p = points[list(subset)]
            base = p[0]
            span = (p[1:] - base).T
            if size > 1:
                if np.linalg.matrix_rank(span) < size - 1:
                    continue
                coef, *_ = np.linalg.lstsq(span, target - base, rcond=None)
                lam = np.concatenate([[1.0 - coef.sum()], coef])
                if np.any(lam < -1e-12):
                    continue
                proj = base + span @ coef
            else:
                proj = base
            dist = float(np.linalg.norm(target - proj))
            if dist < best_dist:
                best, best_dist = proj, dist
    return best


def surface_normal(gmm: Mixture, condition: int):
    others = np.delete(gmm.means, condition, axis=0)
    gap = gmm.means[condition] - hull_projection(others, gmm.means[condition])
    return gap / np.linalg.norm(gap)


def c1(gmm: Mixture, condition, normal, alpha_bar, omega, k_max, tol):
    """Largest outward displacement that stays in the anomalous set."""
    base = math.sqrt(alpha_bar) * gmm.means[condition]

    def member(k):
        x = (base + k * normal)[None, :]
        s_c = gmm.score_cond(x, alpha_bar, condition)
        s_g = omega * s_c + (1.0 - omega) * gmm.score_uncond(x, alpha_bar)
        return float(np.sum(s_g * s_c)) <= 0.0

    ks = np.geomspace(1e-6, k_max, 64)
    if not member(ks[0]):
        return 0.0
    lo, hi = ks[0], None
    for k in ks[1:]:
        if member(k):
            lo = k
        else:
            hi = k
            break
    if hi is None:
        return float(k_max)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)
