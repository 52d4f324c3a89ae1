"""Each logged step of the rotation family, replayed at 40 digits.

A drive on ``configs/default.yaml`` logs every state it passes through.
Each transition x_t[i] -> x_t[i + 1] (-> ``final_x0`` at the last step) is
recomputed in mpmath from the logged float state and the grid's float
alpha_bar values, taken as exact inputs: the exact posterior means, the
strategy's rule and the DDIM step.  The floors are modelled as the package
states them, ``NORM_FLOOR`` and ``REJECTION_FLOOR``; there is no angle floor.
So each step's error is the float drive's own rounding, with no shared
numpy arithmetic between the drive and its check.
"""

import os

import mpmath as mp
import numpy as np
import pytest

from guidance_lab.config import load_config
from guidance_lab.guidance import NORM_FLOOR, REJECTION_FLOOR
from guidance_lab.samplers import Run, sample_runs

DEFAULT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs", "default.yaml")
RULES = ("cfg", "adg", "adg_no_cap", "adg_normalized", "adg_simplified")
OMEGAS = (5.0, 12.0)
SEEDS = [0, 11, 45]  # 11 and 45 pass pairs below gamma = 1e-7 at both weights
U = 2.0**-53
STEP_ULPS = 64


def _dot(a, b):
    return mp.fsum(p * q for p, q in zip(a, b))


def _norm(v):
    return mp.sqrt(_dot(v, v))


def _rescaled(v, reference):
    n = _norm(v)
    return [c * _norm(reference) / n for c in v] if n > NORM_FLOOR else reference


def _rotated(cond, uncond, omega, cap):
    n_cond, n_uncond, dot = _norm(cond), _norm(uncond), _dot(cond, uncond)
    rejection = [c - dot / n_uncond**2 * u for c, u in zip(cond, uncond)]
    n_rej = _norm(rejection)
    if not (n_cond > NORM_FLOOR and n_uncond > NORM_FLOOR and n_rej / n_cond > REJECTION_FLOOR):
        return cond
    turn = (omega - 1) * mp.atan2(n_rej * n_uncond, dot)
    if cap is not None:
        turn = min(turn, cap)
    return [mp.cos(turn) * c + mp.sin(turn) * n_cond / n_rej * r for c, r in zip(cond, rejection)]


def _guided(strategy, cond, uncond, omega, cap):
    if strategy in ("cfg", "adg_simplified"):
        out = [c + (omega - 1) * (c - u) for c, u in zip(cond, uncond)]
    else:
        out = _rotated(cond, uncond, omega, None if strategy == "adg_no_cap" else cap)
    return _rescaled(out, cond) if strategy in ("adg_normalized", "adg_simplified") else out


def _replayed_step(mixture, condition, strategy, omega, cap, x, ab_t, ab_prev):
    """The exact successor of the float state x under one guided DDIM step;
    ``mixture`` lists each component's (mean, log weight, |mean|^2 / 2)."""
    x = [mp.mpf(v) for v in x]
    ab_t, ab_prev = mp.mpf(ab_t), mp.mpf(ab_prev)
    root, beta = mp.sqrt(ab_t), 1 - ab_t
    cond = [beta * m + root * v for m, v in zip(mixture[condition][0], x)]
    logits = [log_w + root * _dot(x, m) - ab_t * half_sq for m, log_w, half_sq in mixture]
    top = max(logits)
    resp = [mp.exp(v - top) for v in logits]
    total = mp.fsum(resp)
    uncond = [root * v + beta * mp.fsum(r * m[d] for r, (m, _, _) in zip(resp, mixture)) / total
              for d, v in enumerate(x)]
    guided = _guided(strategy, cond, uncond, mp.mpf(omega), mp.mpf(cap))
    eps = [(v - root * g) / mp.sqrt(beta) for v, g in zip(x, guided)]
    return [mp.sqrt(ab_prev) * g + mp.sqrt(1 - ab_prev) * e for g, e in zip(guided, eps)]


@pytest.fixture(scope="module")
def drive():
    config = load_config(DEFAULT)
    runs = [Run(config.guidance(strategy=s, omega=w), config.condition(), SEEDS)
            for s in RULES for w in OMEGAS]
    records = sample_runs(config.gmm(), config.time_grid(), runs)
    return config, {(run.config.strategy, run.config.omega): recs
                    for run, recs in zip(runs, records)}


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("strategy", RULES)
def test_every_step_matches_its_40_digit_replay(drive, strategy, omega):
    config, records = drive
    gmm, alpha_bars = config.gmm(), config.time_grid().alpha_bars.tolist()
    cap = config.guidance().angle_cap
    with mp.workdps(40):
        means = [[mp.mpf(v) for v in row] for row in gmm.means.tolist()]
        mixture = [(m, mp.log(w), _dot(m, m) / 2) for m, w in zip(means, gmm.weights.tolist())]
        for rec in records[strategy, omega]:
            after = list(rec.x_t[1:]) + [rec.final_x0]
            for i, (x, x_next) in enumerate(zip(rec.x_t, after)):
                exact = _replayed_step(mixture, config.condition(), strategy, omega, cap, x,
                                       alpha_bars[i], alpha_bars[i + 1])
                err = _norm([mp.mpf(v) - e for v, e in zip(x_next.tolist(), exact)])
                assert err <= STEP_ULPS * U * max(1.0, np.linalg.norm(x_next)), (rec.seed, i)
