"""Acceptance suite: one test per shipped criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every randomized check uses a frozen seed, so the suite
is deterministic end to end.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from guidance_lab.cli import main as cli_main
from guidance_lab.guidance import (
    ApgParams,
    GuidanceConfig,
    PredictionPair,
    cfg_combine,
    cfgpp_predictions,
    rotate_raw,
    x0_from_eps,
)
from guidance_lab.mixture import (
    GaussianMixture,
    complex_step_score,
    posterior_mean_x0,
    score,
    surface_certificate,
)
from guidance_lab.samplers import (
    cfgpp_equivalent_weight,
    ddim_step,
    ddpm_beta,
    ddpm_step,
    sample_trajectory,
    step_rng,
)
from guidance_lab.schedule import NoiseSchedule, make_grid
from guidance_lab.theory import estimate_c1, norm_amplification_check, norm_sweep
from guidance_lab.verify import random_mixture_cases
from oracles import mt_membership

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")

SQUARE = GaussianMixture(
    dim=2, means=[[1, 1], [1, -1], [-1, 1], [-1, -1]], weights=[0.25] * 4
)
PAIR_1D = GaussianMixture(dim=1, means=[[-1.0], [1.0]], weights=[0.5, 0.5])
SCHED = NoiseSchedule()

ORACLE_SEED = 20240817  # shared by criteria 1 and 2


def report(criterion: int, label: str, detail: str):
    print(f"ACCEPTANCE {criterion} [{label}]: PASS ({detail})")


def test_criterion_1_score_oracle():
    started = time.monotonic()
    worst = 0.0
    for gmm, x, alpha_bar, condition in random_mixture_cases(1000, ORACLE_SEED):
        for cond in (condition, None):
            closed = score(gmm, x, alpha_bar, cond)
            numeric = complex_step_score(gmm, x, alpha_bar, cond)
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
    elapsed = time.monotonic() - started
    assert worst < 1e-5
    assert elapsed < 5.0
    report(1, "score oracle", f"max |closed - complex step| = {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_posterior_mean_score_identity():
    worst = 0.0
    for gmm, x, alpha_bar, condition in random_mixture_cases(1000, ORACLE_SEED):
        beta_bar = 1.0 - alpha_bar
        root = math.sqrt(alpha_bar)
        for cond in (condition, None):
            x0_hat = posterior_mean_x0(gmm, x, alpha_bar, cond)
            implied = (root * x0_hat - x) / beta_bar
            worst = max(worst, float(np.max(np.abs(implied - score(gmm, x, alpha_bar, cond)))))
    assert worst < 1e-10
    report(2, "denoising-mean identity", f"max residual = {worst:.3e}")


def test_criterion_3_rotation_norm_bound():
    started = time.monotonic()
    rng = np.random.default_rng(515)
    bound = math.sqrt(2.0) * (1.0 + 1e-12)
    max_ratio = 0.0
    per_dim = 100_000 // 3
    for dim in (2, 8, 64):
        u = rng.standard_normal((per_dim, dim))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        raw = rng.standard_normal((per_dim, dim))
        perp = raw - np.sum(raw * u, axis=-1, keepdims=True) * u
        perp /= np.linalg.norm(perp, axis=-1, keepdims=True)
        theta = rng.uniform(0.0, math.pi, per_dim)
        n_cond = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), per_dim))
        n_uncond = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), per_dim))
        x_cond = n_cond[:, None] * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * perp)
        rotated = rotate_raw(x_cond, n_uncond[:, None] * u, rng.uniform(1.0, 12.0, per_dim))
        max_ratio = max(max_ratio, float((np.linalg.norm(rotated, axis=-1) / n_cond).max()))
    assert max_ratio <= bound
    # tightness witness: orthogonal pair rotated by a quarter turn
    witness = rotate_raw(np.array([0.0, 4.0]), np.array([1.0, 0.0]), 1.5)
    ratio = float(np.linalg.norm(witness)) / 4.0
    assert abs(ratio - math.sqrt(2.0)) < 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(3, "sqrt(2) norm bound", f"max ratio = {max_ratio:.12f}, witness gap = {abs(ratio - math.sqrt(2)):.1e}, {elapsed:.2f}s")


def test_criterion_4_norm_amplification():
    started = time.monotonic()
    grid = make_grid(SCHED, 400)
    seeds = range(256)
    r5 = norm_amplification_check(SQUARE, 0, grid, 5.0, seeds)
    assert r5.verdict == "pass"
    assert r5.measured["min_margin"] > 1e-9
    r3 = norm_amplification_check(SQUARE, 0, grid, 3.0, seeds)
    assert r5.measured["mean_margin"] > r3.measured["mean_margin"]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        4,
        "outward drift ordering",
        f"min margin = {r5.measured['min_margin']:.3e}, "
        f"mean margins {r5.measured['mean_margin']:.3f} > {r3.measured['mean_margin']:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_anomalous_interval():
    started = time.monotonic()
    cert = surface_certificate(PAIR_1D, 1)
    values = {w: estimate_c1(PAIR_1D, cert, 0.5, w) for w in (2.0, 3.0, 5.0)}
    assert all(v > 0 for v in values.values())
    assert values[5.0] - values[3.0] > 1e-8
    assert values[3.0] - values[2.0] > 1e-8
    for w, c1 in values.items():
        x = math.sqrt(0.5) * PAIR_1D.means[1] + 1.01 * c1 * cert.normal
        member, _ = mt_membership(PAIR_1D, cert, x, 0.5, w)
        assert not member
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(
        5,
        "anomalous interval growth",
        "C1 = " + ", ".join(f"{w:g}: {v:.6f}" for w, v in values.items()) + f", {elapsed:.2f}s",
    )


def test_criterion_6_guidance_off_equivalence():
    grid = make_grid(SCHED, 100)
    reduction = ApgParams(eta=1.0, beta=0.0, r=math.inf)
    strategies = [
        GuidanceConfig(strategy="cfg", omega=1.0),
        GuidanceConfig(strategy="adg", omega=1.0),
        GuidanceConfig(strategy="apg", omega=1.0, apg_params=reduction),
        GuidanceConfig(strategy="adg_simplified", omega=1.0),
    ]
    worst = 0.0
    for seed in range(32):
        # conditional reference, integrated directly
        x = step_rng(seed, 0).standard_normal(SQUARE.dim)
        reference = []
        for i in range(grid.steps):
            ab_t, ab_prev = float(grid.alpha_bars[i]), float(grid.alpha_bars[i + 1])
            reference.append(x)
            x = ddim_step(x, posterior_mean_x0(SQUARE, x, ab_t, 0), ab_t, ab_prev)
        reference = np.array(reference)
        for config in strategies:
            rec = sample_trajectory(SQUARE, grid, config, 0, seed)
            worst = max(worst, float(np.max(np.abs(rec.x_t - reference))))
            worst = max(worst, float(np.max(np.abs(rec.final_x0 - x))))
    assert worst <= 1e-12
    report(6, "guidance-off equivalence", f"max step deviation = {worst:.3e} over 32 seeds")


def test_criterion_7_split_update_equivalence():
    rng = np.random.default_rng(99)
    residuals = []
    for _ in range(32):
        dim = int(rng.integers(1, 8))
        ab_prev = float(rng.uniform(0.05, 0.999))
        ab_t = float(rng.uniform(0.001, 0.98 * ab_prev))
        lam = float(rng.uniform(0.05, 1.0))
        x_t = rng.standard_normal(dim) * float(rng.uniform(0.5, 4.0))
        eps_c, eps_u = rng.standard_normal(dim), rng.standard_normal(dim)
        denoised, renoise = cfgpp_predictions(eps_c, eps_u, lam, x_t, ab_t)
        split = math.sqrt(ab_prev) * denoised + math.sqrt(1.0 - ab_prev) * renoise
        pair = PredictionPair.of(
            x0_cond=x0_from_eps(x_t, eps_c, ab_t),
            x0_uncond=x0_from_eps(x_t, eps_u, ab_t),
            x_t=x_t,
            alpha_bar_t=ab_t,
        )
        omega_t = cfgpp_equivalent_weight(lam, ab_t, ab_prev)
        linear = ddim_step(x_t, cfg_combine(pair, omega_t), ab_t, ab_prev)
        residuals.append(float(np.max(np.abs(split - linear))))
    worst = max(residuals)
    # hand algebra shows the two updates are identical, so the threshold
    # is pure floating-point headroom
    assert worst < 1e-8
    report(
        7,
        "time-varying weight equivalence",
        f"max residual = {worst:.3e}, mean = {float(np.mean(residuals)):.3e} over 32 steps",
    )


def test_criterion_8_sampler_statistics():
    started = time.monotonic()
    mu = np.array([1.0, -0.5])
    g = GaussianMixture(dim=2, means=[mu], weights=[1.0])
    grid = make_grid(SCHED, 400)
    n = 10_000
    # both populations start from stream (7, 0); stream (7, i + 1) noises
    # ancestral transition i
    ddpm = ddim = step_rng(7, 0).standard_normal((n, 2))
    for i in range(grid.steps):
        ab_t, ab_prev = float(grid.alpha_bars[i]), float(grid.alpha_bars[i + 1])
        noise = step_rng(7, i + 1).standard_normal((n, 2))
        ddpm = ddpm_step(ddpm, score(g, ddpm, ab_t, 0), ddpm_beta(ab_t, ab_prev), noise)
        ddim = ddim_step(ddim, posterior_mean_x0(g, ddim, ab_t, 0), ab_t, ab_prev)
    for name, xs in (("ddpm", ddpm), ("ddim", ddim)):
        se = xs.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(xs.mean(axis=0) - mu) < 3 * se), name
    var = ddpm.var(axis=0, ddof=1)
    assert np.all(np.abs(var - 1.0) < 0.05)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        8,
        "sampler statistics",
        f"ddpm mean dev {np.abs(ddpm.mean(axis=0) - mu).max():.4f}, "
        f"var dev {np.abs(var - 1).max():.4f}, ddim mean dev "
        f"{np.abs(ddim.mean(axis=0) - mu).max():.4f}, n={n}, {elapsed:.1f}s",
    )


def test_criterion_9_norm_sweep_trends():
    grid = make_grid(SCHED, 200)
    rows = norm_sweep(SQUARE, grid, ["cfg", "adg"], [1.0, 2.0, 4.0, 6.0, 8.0],
                      range(64), 0)
    cfg = [r.mean_norm for r in rows if r.strategy == "cfg"]
    adg = {r.omega: r.mean_norm for r in rows if r.strategy == "adg"}
    assert all(b > a for a, b in zip(cfg, cfg[1:]))
    assert adg[8.0] <= 1.5 * adg[1.0]
    assert adg[8.0] >= adg[1.0] / 1.5
    report(
        9,
        "norm sweep trends",
        f"cfg means {', '.join(f'{v:.3f}' for v in cfg)} strictly increasing; "
        f"adg(8)/adg(1) = {adg[8.0] / adg[1.0]:.3f}",
    )


def test_criterion_10_determinism_and_exit_codes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(
            ["sample", "--config", os.path.join(CONFIGS, "default.yaml"),
             "--seed-count", "8", "--out", str(out), "--set", "grid.steps=120"]
        )
        assert code == 0
    for name in ("summary_cfg.csv", "trajectories_cfg.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    verify_out = tmp_path / "verify_pass"
    code_pass = cli_main(
        ["verify", "--config", os.path.join(CONFIGS, "default.yaml"),
         "--out", str(verify_out),
         "--set", "probes.score_oracle.cases=60",
         "--set", "probes.score_identity.cases=60",
         "--set", "probes.prop1.trials=5000",
         "--set", "probes.norm.seed_count=8",
         "--set", "probes.guidance_off.seed_count=2",
         "--set", "grid.steps=80"]
    )
    assert code_pass == 0
    payload = json.loads((verify_out / "verify_report.json").read_text())
    assert payload["all_passed"] is True

    code_fail = cli_main(
        ["verify", "--config", os.path.join(CONFIGS, "failing.yaml"),
         "--out", str(tmp_path / "verify_fail")]
    )
    assert code_fail == 1
    code_corrupt = cli_main(
        ["verify", "--config", os.path.join(CONFIGS, "corrupt.yaml"),
         "--out", str(tmp_path / "verify_corrupt")]
    )
    assert code_corrupt == 2
    report(10, "determinism and exit codes", "byte-identical CSVs; exits 0/1/2 on fixtures")
