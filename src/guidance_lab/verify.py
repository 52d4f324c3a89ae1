"""Composable certifier suite: module invariants plus the theory probes.

Each entry produces a ProbeReport; the suite passes when every verdict
is "pass" or "n/a".  Randomized probes draw from counter-based streams
keyed by the seed recorded in the report parameters, so reruns are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import guidance as gd
from . import mixture as mx
from . import samplers as sp
from . import theory
from .config import ExperimentConfig
from .guidance import ApgParams
from .mixture import GaussianMixture
from .theory import ProbeReport

__all__ = ["run_suite", "random_mixture_cases"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def random_mixture_cases(n_cases: int, seed: int, max_dim: int = 8, max_components: int = 6):
    """Random (gmm, x, alpha_bar) draws with bounded norms.

    Means live in the radius-5 ball, probe points in the radius-10 ball,
    alpha_bar in (0.02, 0.99).
    """
    rng = _rng(seed)
    for _ in range(n_cases):
        dim = int(rng.integers(1, max_dim + 1))
        n_comp = int(rng.integers(1, max_components + 1))
        means = rng.standard_normal((n_comp, dim))
        means *= (rng.uniform(0.0, 5.0, n_comp) / np.maximum(
            np.linalg.norm(means, axis=1), 1e-12))[:, None]
        weights = rng.dirichlet(np.ones(n_comp))
        weights = weights / weights.sum()
        gmm = GaussianMixture(dim=dim, means=means, weights=weights)
        x = rng.standard_normal(dim)
        x *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(x), 1e-12)
        alpha_bar = float(rng.uniform(0.02, 0.99))
        condition = int(rng.integers(0, n_comp))
        yield gmm, x, alpha_bar, condition


# ---------------------------------------------------------------------------
# Individual probes
# ---------------------------------------------------------------------------
# Deviations fold with np.max, which keeps a NaN that Python's max drops,
# and a verdict passes only when every folded measurement is finite.

def _verdict(ok: bool, *measured: float) -> str:
    return "pass" if ok and np.all(np.isfinite(measured)) else "fail"


def probe_score_oracle(cases: int, seed: int, tolerance: float = 1e-5) -> ProbeReport:
    """Closed-form scores against the complex-step oracle.

    The report keeps its first name, ``score_finite_difference``, which
    names its CSV and its entry in ``verify_report.json``.
    """
    errors = [0.0]
    for gmm, x, alpha_bar, condition in random_mixture_cases(cases, seed):
        for cond in (condition, None):
            closed = mx.score(gmm, x, alpha_bar, cond)
            numeric = mx.complex_step_score(gmm, x, alpha_bar, cond)
            errors.append(np.max(np.abs(closed - numeric)))
    worst = float(np.max(errors))
    return ProbeReport(
        name="score_finite_difference",
        parameters={"cases": cases, "seed": seed},
        verdict=_verdict(worst < tolerance, worst),
        measured={"max_abs_error": worst},
        tolerance=tolerance,
    )


def probe_score_identity(cases: int, seed: int, tolerance: float = 1e-10) -> ProbeReport:
    """(sqrt(ab) * posterior_mean - x) / beta_bar must equal the score."""
    errors = [0.0]
    for gmm, x, alpha_bar, condition in random_mixture_cases(cases, seed):
        beta_bar = 1.0 - alpha_bar
        root = math.sqrt(alpha_bar)
        for cond in (condition, None):
            x0_hat = mx.posterior_mean_x0(gmm, x, alpha_bar, cond)
            implied = (root * x0_hat - x) / beta_bar
            errors.append(np.max(np.abs(implied - mx.score(gmm, x, alpha_bar, cond))))
    worst = float(np.max(errors))
    return ProbeReport(
        name="posterior_mean_score_identity",
        parameters={"cases": cases, "seed": seed},
        verdict=_verdict(worst < tolerance, worst),
        measured={"max_abs_error": worst},
        tolerance=tolerance,
    )


def probe_posterior_simplex(cases: int, seed: int) -> ProbeReport:
    """Responsibilities are a probability vector at every draw."""
    tolerance = 1e-12
    sums, negs = [0.0], [0.0]
    for gmm, x, alpha_bar, _ in random_mixture_cases(cases, seed):
        resp = mx.posterior_weights(gmm, x, alpha_bar)
        sums.append(abs(resp.sum() - 1.0))
        negs.append(-resp.min())
    worst_sum, worst_neg = float(np.max(sums)), float(np.max(negs))
    verdict = _verdict(worst_sum <= tolerance and worst_neg <= 0.0, worst_sum, worst_neg)
    return ProbeReport(
        name="responsibility_simplex",
        parameters={"cases": cases, "seed": seed},
        verdict=verdict,
        measured={"max_sum_deviation": worst_sum, "max_negative_entry": worst_neg},
        tolerance=tolerance,
    )


def probe_surface_invariants(gmm: GaussianMixture) -> ProbeReport:
    """Certificate geometry checks across all components of the mixture."""
    tolerance = 1e-9
    if gmm.n_components < 2:
        return ProbeReport.not_applicable(
            "surface_certificates", {"components": gmm.n_components},
            "single-component mixture has no hull geometry", tolerance)
    touches, units = [0.0], [0.0]
    n_surface = 0
    ok = True
    # a float margin w.mu_o + b is off the exact one by about 3e-16 * max|mu|
    slack = 1e-12 * max(1.0, float(np.max(np.abs(gmm.means))))
    for c in range(gmm.n_components):
        decision = mx.classify_component(gmm, c)
        if decision.certificate is None:
            continue
        n_surface += 1
        cert = decision.certificate
        touches.append(abs(cert.normal @ gmm.means[c] + cert.offset))
        units.append(abs(np.linalg.norm(cert.normal) - 1.0))
        margins = [
            -(float(cert.normal @ gmm.means[o]) + cert.offset)
            for o in range(gmm.n_components)
            if o != c
        ]
        if min(margins) < cert.min_margin - slack or cert.min_margin <= 0.0:
            ok = False
    worst_touch, worst_unit = float(np.max(touches)), float(np.max(units))
    ok = ok and worst_touch <= tolerance and worst_unit <= 1e-12
    return ProbeReport(
        name="surface_certificates",
        parameters={"components": gmm.n_components},
        verdict=_verdict(ok, worst_touch, worst_unit),
        measured={
            "surface_components": n_surface,
            "max_touch_residual": worst_touch,
            "max_unit_norm_residual": worst_unit,
        },
        tolerance=tolerance,
    )


def probe_c1_monotone(
    gmm: GaussianMixture,
    condition: int,
    alpha_bar: float,
    omegas,
    k_max: float,
    bisection_tol: float,
) -> ProbeReport:
    """Positive, strictly growing anomalous interval with a sharp boundary (h < 0 at 1.01 c1)."""
    params = {
        "condition": condition,
        "alpha_bar": alpha_bar,
        "omegas": list(omegas),
        "k_max": k_max,
        "bisection_tol": bisection_tol,
    }
    cert = mx.surface_certificate(gmm, condition)
    if cert is None:
        return ProbeReport.not_applicable(
            "anomalous_interval", params, f"component {condition} is not a surface class",
            bisection_tol)
    values = [theory.estimate_c1(gmm, cert, alpha_bar, w, k_max=k_max) for w in omegas]
    gaps = [b - a for a, b in zip(values, values[1:])]
    boundary_exits = []
    for w, v in zip(omegas, values):
        if 0.0 < v < k_max:
            _, h = theory.anomalous_equation(gmm, cert, alpha_bar, w)
            boundary_exits.append(h(1.01 * v)[0] < 0.0)
    ok = all(v > 0.0 for v in values) and all(g > bisection_tol for g in gaps)
    ok = ok and all(boundary_exits)
    return ProbeReport(
        name="anomalous_interval",
        parameters=params,
        verdict="pass" if ok else "fail",
        measured={
            "c1_values": values,
            "gaps": gaps,
            "boundary_exit_confirmed": boundary_exits,
        },
        tolerance=bisection_tol,
        details=[{"omega": w, "c1": v} for w, v in zip(omegas, values)],
    )


def probe_cfgpp_equivalence(steps: int, seed: int, tolerance: float = 1e-8) -> ProbeReport:
    """Split denoise/renoise update vs the equivalent-weight linear step.

    The expected residual is zero by direct algebra; each sampled step is
    still measured and reported.
    """
    rng = _rng(seed)
    residuals = []
    details = []
    for i in range(steps):
        dim = int(rng.integers(1, 9))
        ab_prev = float(rng.uniform(0.05, 0.999))
        ab_t = float(rng.uniform(0.001, ab_prev * 0.98))
        lam = float(rng.uniform(0.05, 1.0))
        x_t = rng.standard_normal(dim) * float(rng.uniform(0.5, 5.0))
        eps_c = rng.standard_normal(dim)
        eps_u = rng.standard_normal(dim)
        denoised, renoise = gd.cfgpp_predictions(eps_c, eps_u, lam, x_t, ab_t)
        split = math.sqrt(ab_prev) * denoised + math.sqrt(1.0 - ab_prev) * renoise
        omega_t = sp.cfgpp_equivalent_weight(lam, ab_t, ab_prev)
        pair = gd.PredictionPair.of(
            x0_cond=gd.x0_from_eps(x_t, eps_c, ab_t),
            x0_uncond=gd.x0_from_eps(x_t, eps_u, ab_t),
            x_t=x_t,
            alpha_bar_t=ab_t,
        )
        linear = sp.ddim_step(x_t, gd.cfg_combine(pair, omega_t), ab_t, ab_prev)
        residual = float(np.linalg.norm(split - linear))
        residuals.append(residual)
        details.append(
            {"step": i, "alpha_bar_t": ab_t, "alpha_bar_prev": ab_prev,
             "lambda": lam, "omega_t": omega_t, "residual": residual}
        )
    worst = float(np.max(residuals))
    return ProbeReport(
        name="split_update_equivalence",
        parameters={"steps": steps, "seed": seed},
        verdict=_verdict(worst < tolerance, worst),
        measured={"max_residual": worst, "mean_residual": float(np.mean(residuals))},
        tolerance=tolerance,
        details=details,
    )


def probe_guidance_off(
    config: ExperimentConfig, seed_count: int, tolerance: float = 1e-12
) -> ProbeReport:
    """All strategies collapse to the conditional trajectory at omega = 1."""
    gmm = config.gmm()
    grid = config.time_grid()
    condition = config.condition()
    base = config.guidance(strategy="cfg", omega=1.0)
    reduction = replace(
        base, strategy="apg", apg_params=ApgParams(eta=1.0, beta=0.0, r=math.inf)
    )
    variants = [
        replace(base, strategy="adg"),
        replace(base, strategy="adg_simplified"),
        reduction,
    ]
    deviations = [0.0]
    seeds = range(seed_count)
    # one drive: the reference rows, then each variant's
    refs, *runs = sp.sample_runs(
        gmm, grid, [sp.Run(c, condition, seeds) for c in (base, *variants)])
    for records in runs:
        for rec, ref in zip(records, refs):
            deviations.append(np.max(np.abs(rec.x_t - ref.x_t)))
            deviations.append(np.max(np.abs(rec.final_x0 - ref.final_x0)))
    worst = float(np.max(deviations))
    return ProbeReport(
        name="guidance_off_equivalence",
        parameters={
            "seed_count": seed_count,
            "strategies": ["adg", "adg_simplified", "apg(eta=1,beta=0,r=inf)"],
            "grid_steps": grid.steps,
        },
        verdict=_verdict(worst <= tolerance, worst),
        measured={"max_step_deviation": worst},
        tolerance=tolerance,
    )


def probe_determinism(config: ExperimentConfig) -> ProbeReport:
    """Identical (config, seed) twice must be bit-identical."""
    gmm = config.gmm()
    grid = config.time_grid()
    guidance_cfg = config.guidance()
    condition = config.condition()
    seed = config.seeds()[0]
    a = sp.sample_trajectory(gmm, grid, guidance_cfg, condition, seed)
    b = sp.sample_trajectory(gmm, grid, guidance_cfg, condition, seed)
    identical = (
        np.array_equal(a.final_x0, b.final_x0)
        and np.array_equal(a.x_t, b.x_t)
        and np.array_equal(a.x0_guided, b.x0_guided)
    )
    return ProbeReport(
        name="trajectory_determinism",
        parameters={"seed": seed, "strategy": guidance_cfg.strategy},
        verdict="pass" if identical else "fail",
        measured={"bit_identical": bool(identical)},
        tolerance=0.0,
    )


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

def run_suite(config: ExperimentConfig) -> list[ProbeReport]:
    """Full certifier suite for one configuration document."""
    probes_cfg = config.data["probes"]
    gmm = config.gmm()
    grid = config.time_grid()
    condition = config.condition()

    reports = []
    reports.append(probe_score_oracle(**probes_cfg["score_oracle"]))
    reports.append(probe_score_identity(**probes_cfg["score_identity"]))
    reports.append(probe_posterior_simplex(100, probes_cfg["score_oracle"]["seed"] + 1))
    reports.append(probe_surface_invariants(gmm))
    reports.append(theory.prop1_stress(**probes_cfg["prop1"]))
    reports.append(probe_c1_monotone(gmm, condition, **probes_cfg["c1"]))

    nm = probes_cfg["norm"]
    reports.append(theory.norm_amplification_check(
        gmm, condition, grid, nm["omega"], range(nm["seed_count"]), nm["margin_floor"]))

    reports.append(probe_cfgpp_equivalence(**probes_cfg["cfgpp"]))
    reports.append(probe_guidance_off(config, **probes_cfg["guidance_off"]))
    reports.append(probe_determinism(config))
    return reports
