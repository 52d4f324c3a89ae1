"""Reverse-time steps, trajectory drivers, and the flow integrator."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from guidance_lab import samplers as sp
from guidance_lab import guidance as gd
from guidance_lab.guidance import STRATEGIES, GuidanceConfig
from guidance_lab.mixture import GaussianMixture, posterior_mean_x0, score
from guidance_lab.samplers import (
    cfgpp_equivalent_weight,
    ddim_step,
    ddpm_beta,
    ddpm_step,
    drive_peak_bytes,
    flow_euler_step,
    flow_posterior_mean_x1,
    flow_sample_adg,
    flow_sample_batch,
    pcg_sample,
    sample_trajectory,
    step_rng,
)
from guidance_lab.schedule import NoiseSchedule, make_grid

PAIR_1D = GaussianMixture(dim=1, means=[[-1.0], [1.0]], weights=[0.5, 0.5])
SQUARE = GaussianMixture(
    dim=2, means=[[1, 1], [1, -1], [-1, 1], [-1, -1]], weights=[0.25] * 4
)
SCHED = NoiseSchedule()


def _wide_mixture():
    """dim 32, 16 components on a radius-3 sphere, uneven weights."""
    rng = np.random.default_rng(32)
    means = rng.standard_normal((16, 32))
    means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
    weights = rng.dirichlet(np.full(16, 4.0))
    return GaussianMixture(dim=32, means=means, weights=weights / weights.sum())


WIDE = _wide_mixture()
EYE64 = GaussianMixture(dim=64, means=np.eye(64)[:48] * 3, weights=[1 / 48] * 48)


def flow_levels(sigma_min, steps):
    """Flow times t_i, the VP levels (t_i / s_i)^2 of y = x / s and the scales
    s_i = hypot(t_i, sigma_t), as flow_sample_batch builds them."""
    t = np.arange(steps + 1) * (1.0 / steps)
    s = np.hypot(t, 1.0 - (1.0 - sigma_min) * t)
    return t[:-1], (t / s) ** 2, s


def flow_euler_reference(gmm, sigma_min, steps, condition, seeds, guide):
    """Hand-written flow loop: exact x1 posteriors, ``guide(cond, uncond)``
    and an Euler step; returns the states at each step and the finals."""
    x = np.array([step_rng(s, 0).standard_normal(gmm.dim) for s in seeds])
    dt = 1.0 / steps
    states = []
    for i in range(steps):
        t = i * dt
        states.append(x)
        x1_hat = guide(flow_posterior_mean_x1(gmm, x, t, sigma_min, condition),
                       flow_posterior_mean_x1(gmm, x, t, sigma_min, None))
        x = flow_euler_step(x, x1_hat, t, dt, sigma_min)
    return np.stack(states, axis=1), x


def ddim_population(gmm, grid, condition, n, seed):
    """Deterministic conditional chains for an (n, dim) population.

    Stream (seed, 0) draws every initial state.
    """
    x = step_rng(seed, 0).standard_normal((n, gmm.dim))
    for i in range(grid.steps):
        ab_t, ab_prev = float(grid.alpha_bars[i]), float(grid.alpha_bars[i + 1])
        x = ddim_step(x, posterior_mean_x0(gmm, x, ab_t, condition), ab_t, ab_prev)
    return x


def ddpm_population(gmm, grid, condition, n, seed):
    """Ancestral conditional chains; stream (seed, i + 1) noises transition i."""
    x = step_rng(seed, 0).standard_normal((n, gmm.dim))
    for i in range(grid.steps):
        ab_t, ab_prev = float(grid.alpha_bars[i]), float(grid.alpha_bars[i + 1])
        noise = step_rng(seed, i + 1).standard_normal((n, gmm.dim))
        x = ddpm_step(x, score(gmm, x, ab_t, condition), ddpm_beta(ab_t, ab_prev), noise)
    return x


def _traced_peak(drive, warm):
    warm()  # lazy imports and first-call caches
    tracemalloc.start()
    try:
        drive()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDdimStep:
    def test_terminal_jump_to_prediction(self):
        x0 = np.array([2.0, -1.0])
        out = ddim_step(np.array([5.0, 5.0]), x0, 0.5, 1.0)
        np.testing.assert_array_equal(out, x0)

    def test_zero_noise_path(self):
        x0 = np.array([1.0, 2.0])
        ab_t, ab_prev = 0.25, 0.5
        x_t = math.sqrt(ab_t) * x0
        np.testing.assert_allclose(
            ddim_step(x_t, x0, ab_t, ab_prev), math.sqrt(ab_prev) * x0, atol=1e-15
        )

    def test_frozen_value(self):
        out = ddim_step(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.25, 0.5)
        np.testing.assert_allclose(out, [1.1153550716504105, 0.0], atol=1e-15)

    def test_ordering_enforced(self):
        # the three functions share one check: 0 <= alpha_bar_t < alpha_bar_prev <= 1
        for step in (lambda ab_t, ab_prev: ddim_step(np.zeros(1), np.zeros(1), ab_t, ab_prev),
                     ddpm_beta,
                     lambda ab_t, ab_prev: cfgpp_equivalent_weight(0.5, ab_t, ab_prev)):
            for ab_t, ab_prev in [(0.5, 0.25), (0.5, 0.5), (-1e-300, 0.5), (-0.5, 0.5),
                                  (0.0, 0.0), (0.5, 1.0 + 2**-52), (0.0, 1.5), (math.nan, 0.5),
                                  (0.0, math.nan)]:
                with pytest.raises(ValueError,
                                   match=r"need 0 <= alpha_bar_t < alpha_bar_prev <= 1"):
                    step(ab_t, ab_prev)
            step(0.0, 0.5)  # the flow's start, and its one-step drive
            step(0.0, 1.0)

    @pytest.mark.parametrize("ab_prev", [1e-300, 0.02, 0.5, 0.999, 1.0])
    def test_step_from_pure_noise(self, ab_prev):
        # at alpha_bar_t = 0 the noise the step implies is x itself: the flow's first step
        rng = np.random.default_rng(17)
        x, x0 = rng.standard_normal((2, 64, 3)) * np.logspace(-8, 8, 3)
        expected = math.sqrt(ab_prev) * x0 + math.sqrt(1.0 - ab_prev) * x
        out = ddim_step(x, x0, 0.0, ab_prev)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


class TestDdpmStep:
    def test_identity_when_no_noise_fraction(self):
        x = np.array([1.0, -3.0])
        np.testing.assert_array_equal(ddpm_step(x, np.zeros(2), 0.0, np.zeros(2)), x)

    def test_matches_term_by_term_oracle(self):
        # independent re-implementation from the ratio form
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            x = rng.standard_normal(dim)
            score = rng.standard_normal(dim)
            noise = rng.standard_normal(dim)
            ab_prev = float(rng.uniform(0.1, 1.0))
            ab_t = float(rng.uniform(0.01, ab_prev * 0.99))
            expected = (
                math.sqrt(ab_prev / ab_t) * x
                + (1 - ab_t / ab_prev) * score
                + math.sqrt(1 - ab_t / ab_prev) * noise
            )
            out = ddpm_step(x, score, ddpm_beta(ab_t, ab_prev), noise)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_beta_step_range(self):
        with pytest.raises(ValueError, match="beta_step"):
            ddpm_step(np.zeros(1), np.zeros(1), 1.0, np.zeros(1))
        with pytest.raises(ValueError, match="beta_step"):
            ddpm_step(np.zeros(1), np.zeros(1), -0.1, np.zeros(1))

    def test_population_mean_single_gaussian(self):
        g = GaussianMixture(dim=1, means=[[1.0]], weights=[1.0])
        grid = make_grid(SCHED, 200)
        xs = ddpm_population(g, grid, 0, 4000, seed=5)
        se = xs.std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs.mean() - 1.0) < 3 * se


class TestSampleTrajectory:
    def test_determinism_bit_identical(self):
        grid = make_grid(SCHED, 50)
        cfg = GuidanceConfig(strategy="adg", omega=3.0)
        a = sample_trajectory(SQUARE, grid, cfg, 0, 9)
        b = sample_trajectory(SQUARE, grid, cfg, 0, 9)
        assert np.array_equal(a.x_t, b.x_t)
        assert np.array_equal(a.final_x0, b.final_x0)
        assert np.array_equal(a.x0_guided, b.x0_guided)

    def test_guidance_off_matches_conditional_reference(self):
        # hand-rolled conditional integrator as the oracle
        grid = make_grid(SCHED, 80)
        seed = 3
        x = step_rng(seed, 0).standard_normal(2)
        states = [x]
        for i in range(grid.steps):
            ab_t, ab_prev = float(grid.alpha_bars[i]), float(grid.alpha_bars[i + 1])
            x = ddim_step(x, posterior_mean_x0(SQUARE, x, ab_t, 0), ab_t, ab_prev)
            states.append(x)
        reference = np.array(states[:-1])
        for strategy in ("cfg", "adg", "adg_normalized", "adg_simplified", "apg"):
            rec = sample_trajectory(
                SQUARE, grid, GuidanceConfig(strategy=strategy, omega=1.0), 0, seed
            )
            assert np.max(np.abs(rec.x_t - reference)) < 1e-12
            assert np.max(np.abs(rec.final_x0 - states[-1])) < 1e-12

    def test_record_shapes_and_angles(self):
        grid = make_grid(SCHED, 30)
        rec = sample_trajectory(SQUARE, grid, GuidanceConfig(strategy="adg", omega=4.0), 1, 2)
        assert rec.steps == 30
        assert rec.x_t.shape == (30, 2)
        assert np.all(np.isfinite(rec.guided_norm))
        finite = np.isfinite(rec.gamma)
        assert finite.any()
        assert np.all(rec.gamma[finite] >= 0)
        capped = rec.gamma_omega[np.isfinite(rec.gamma_omega)]
        assert np.all(capped <= math.pi / 3 + 1e-15)

    def test_rotation_norm_bound_in_loop(self):
        grid = make_grid(SCHED, 60)
        for seed in range(4):
            rec = sample_trajectory(
                SQUARE, grid, GuidanceConfig(strategy="adg", omega=6.0), 0, seed
            )
            cond_norm = np.linalg.norm(rec.x0_cond, axis=1)
            assert np.all(rec.guided_norm <= math.sqrt(2) * cond_norm * (1 + 1e-12))

    def test_conditional_mixture_population_mean(self):
        grid = make_grid(SCHED, 200)
        xs = ddim_population(PAIR_1D, grid, 1, 1000, seed=3)
        se = xs.std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs.mean() - 1.0) < 3 * se

    def test_error_aborts_with_step_index(self):
        grid = make_grid(SCHED, 10)
        with pytest.raises(RuntimeError, match="step 0"):
            sample_trajectory(SQUARE, grid, GuidanceConfig(), 17, 0)

    def test_cfgpp_residual_logged_and_tiny(self):
        grid = make_grid(SCHED, 40)
        rec = sample_trajectory(
            SQUARE, grid, GuidanceConfig(strategy="cfgpp", cfgpp_lambda=0.6), 0, 8
        )
        assert rec.cfgpp_residual is not None
        assert rec.cfgpp_residual.shape == (40,)
        assert np.nanmax(rec.cfgpp_residual) < 1e-8

    def test_batch_matches_each_seed_alone(self):
        # a seed's trajectory must not depend on which batch runs it
        grid = make_grid(SCHED, 100)
        seeds = [0, 3, 5, 8, 13, 21, 34, 55]
        runs = [
            (
                sp.sample_runs(SQUARE, grid, [sp.Run(config, 0, seeds)])[0],
                [sample_trajectory(SQUARE, grid, config, 0, s) for s in seeds],
            )
            for config in (
                GuidanceConfig(strategy=s, omega=4.0, pcg_inner_steps=2) for s in STRATEGIES
            )
        ]
        runs.append((
            flow_sample_batch(SQUARE, 0.1, 100, 4.0, math.pi / 3, 0, seeds),
            [flow_sample_adg(SQUARE, 0.1, 100, 4.0, math.pi / 3, 0, s) for s in seeds],
        ))
        for batch, alone in runs:
            for a, b in zip(batch, alone):
                assert (a.seed, a.strategy) == (b.seed, b.strategy)
                for field in ("x_t", "x0_guided", "gamma", "gamma_omega", "final_x0"):
                    np.testing.assert_allclose(
                        getattr(a, field), getattr(b, field), rtol=0, atol=1e-12,
                        err_msg=f"{a.strategy} seed {a.seed} {field}",
                    )


class TestPcg:
    def test_zero_inner_steps_is_conditional(self):
        grid = make_grid(SCHED, 60)
        base = sample_trajectory(PAIR_1D, grid, GuidanceConfig(), 1, 5)
        rec = pcg_sample(PAIR_1D, grid, 3.0, 0, 1, 5)
        np.testing.assert_array_equal(rec.final_x0, base.final_x0)

    def test_kappa_value(self):
        assert ddpm_beta(0.25, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_determinism(self):
        grid = make_grid(SCHED, 40)
        a = pcg_sample(PAIR_1D, grid, 2.0, 3, 1, 7)
        b = pcg_sample(PAIR_1D, grid, 2.0, 3, 1, 7)
        np.testing.assert_array_equal(a.final_x0, b.final_x0)

    def test_langevin_modes_differ(self):
        grid = make_grid(SCHED, 40)
        lit = pcg_sample(PAIR_1D, grid, 2.0, 2, 1, 7, langevin_mode="paper-literal")
        sc = pcg_sample(PAIR_1D, grid, 2.0, 2, 1, 7, langevin_mode="score-consistent")
        assert not np.allclose(lit.final_x0, sc.final_x0)

    def test_corrector_stationarity_bounded(self):
        # repeated corrector steps at a fixed level keep the population variance bounded
        g = GaussianMixture(dim=1, means=[[0.0]], weights=[1.0])
        ab_prev, kappa = 0.5, 0.2
        rng = np.random.default_rng(0)
        for mode_divisor in (1.0 - ab_prev, math.sqrt(1.0 - ab_prev)):
            x = rng.standard_normal(5000)
            for _ in range(200):
                x0_hat = posterior_mean_x0(g, x[:, None], ab_prev, 0)[:, 0]
                eps = (x - math.sqrt(ab_prev) * x0_hat) / math.sqrt(1 - ab_prev)
                x = x - 0.5 * kappa * eps / mode_divisor + math.sqrt(kappa) * rng.standard_normal(5000)
            assert 0.1 < x.var() < 2.0

    def test_validation(self):
        grid = make_grid(SCHED, 10)
        with pytest.raises(ValueError, match="inner_steps"):
            pcg_sample(PAIR_1D, grid, 2.0, -1, 1, 0)
        with pytest.raises(ValueError, match="langevin_mode"):
            pcg_sample(PAIR_1D, grid, 2.0, 1, 1, 0, langevin_mode="x")


class TestEquivalentWeight:
    def test_frozen_value(self):
        assert cfgpp_equivalent_weight(1.0, 0.25, 0.5) == pytest.approx(
            2.3660254037844386, abs=1e-12
        )
        assert cfgpp_equivalent_weight(0.3, 0.25, 0.5) == pytest.approx(
            0.3 * 2.3660254037844386, abs=1e-12
        )

    def test_zero_lambda(self):
        assert cfgpp_equivalent_weight(0.0, 0.25, 0.5) == 0.0

    def test_exact_equivalence_on_random_steps(self):
        # hand algebra says the split update is exactly a reweighted linear step
        from guidance_lab.guidance import PredictionPair, cfg_combine, cfgpp_predictions, x0_from_eps

        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(32):
            dim = int(rng.integers(1, 6))
            ab_prev = float(rng.uniform(0.05, 0.999))
            ab_t = float(rng.uniform(0.001, 0.98 * ab_prev))
            lam = float(rng.uniform(0.05, 1.0))
            x_t = rng.standard_normal(dim)
            eps_c, eps_u = rng.standard_normal(dim), rng.standard_normal(dim)
            denoise, renoise = cfgpp_predictions(eps_c, eps_u, lam, x_t, ab_t)
            split = math.sqrt(ab_prev) * denoise + math.sqrt(1 - ab_prev) * renoise
            pair = PredictionPair.of(
                x0_cond=x0_from_eps(x_t, eps_c, ab_t),
                x0_uncond=x0_from_eps(x_t, eps_u, ab_t),
                x_t=x_t,
                alpha_bar_t=ab_t,
            )
            omega_t = cfgpp_equivalent_weight(lam, ab_t, ab_prev)
            linear = ddim_step(x_t, cfg_combine(pair, omega_t), ab_t, ab_prev)
            worst = max(worst, float(np.max(np.abs(split - linear))))
        assert worst < 1e-8

    def test_undefined_guard(self):
        # adjacent doubles are a valid ordering whose denominator falls below
        # the guard: no weight makes the two updates equal, so the weight is
        # NaN, and a logged cfgpp drive at such levels logs a NaN residual
        # without a warning
        levels = np.array([0.5, np.nextafter(0.5, 1.0), np.nextafter(np.nextafter(0.5, 1.0), 1.0)])
        assert math.isnan(cfgpp_equivalent_weight(0.5, 0.5, float(levels[1])))
        config = GuidanceConfig(strategy="cfgpp", omega=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = sp._drive(SQUARE, [sp.Run(config, 0, [0, 1])], np.array([0.1, 0.2]), levels)
        for rec in records[0]:
            assert np.isnan(rec.cfgpp_residual).all()
            assert np.isfinite(rec.final_x0).all()


class TestFlow:
    def test_on_path_velocity(self):
        rng = np.random.default_rng(33)
        x1 = rng.standard_normal(3)
        for t in (0.0, 0.3, 0.7):
            x_t = t * x1
            out = flow_euler_step(x_t, x1, t, 0.01, 0.0)
            np.testing.assert_allclose(out, x_t + 0.01 * x1, atol=1e-12)

    def test_zero_dt(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(flow_euler_step(x, np.ones(2), 0.2, 0.0, 0.1), x)

    def test_frozen_velocity_value(self):
        out = flow_euler_step(np.array([1.0, 0.0]), np.array([2.0, 0.0]), 0.5, 0.1, 0.1)
        np.testing.assert_allclose(out, [1.2, 0.0], atol=1e-15)

    def test_std_underflow(self):
        with pytest.raises(ValueError, match="underflow"):
            flow_euler_step(np.zeros(1), np.zeros(1), 1.0, 0.1, 0.0)

    def test_posterior_mean_endpoints(self):
        g = GaussianMixture(dim=2, means=[[3.0, -1.0]], weights=[1.0])
        x = np.array([2.0, 2.0])
        np.testing.assert_allclose(flow_posterior_mean_x1(g, x, 0.0, 0.1), [3.0, -1.0], atol=1e-15)
        expected = (np.array([3.0, -1.0]) + 100.0 * x) / 101.0
        np.testing.assert_allclose(flow_posterior_mean_x1(g, x, 1.0, 0.1), expected, atol=1e-12)

    def test_posterior_mean_symmetric_mixture(self):
        np.testing.assert_allclose(
            flow_posterior_mean_x1(PAIR_1D, np.array([0.0]), 0.5, 0.1), [0.0], atol=1e-14
        )

    def test_population_mean_unguided(self):
        # batched chain through the production step functions
        g = GaussianMixture(dim=2, means=[[2.0, 1.0]], weights=[1.0])
        steps, n = 64, 600
        x = step_rng(71, 0).standard_normal((n, 2))
        dt = 1.0 / steps
        for i in range(steps):
            t = i * dt
            x1_hat = flow_posterior_mean_x1(g, x, t, 0.1, 0)
            x = flow_euler_step(x, x1_hat, t, dt, 0.1)
        se = x.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - [2.0, 1.0]) < 3 * se)

    def test_sampler_determinism_and_guidance(self):
        a = flow_sample_adg(SQUARE, 0.1, 50, 3.0, math.pi / 3, 0, 4)
        b = flow_sample_adg(SQUARE, 0.1, 50, 3.0, math.pi / 3, 0, 4)
        np.testing.assert_array_equal(a.final_x0, b.final_x0)
        assert a.steps == 50
        capped = a.gamma_omega[np.isfinite(a.gamma_omega)]
        assert np.all(capped <= math.pi / 3 + 1e-15)

    def test_omega_one_matches_unguided_reference(self):
        g = GaussianMixture(dim=2, means=[[1.0, 0.5]], weights=[1.0])
        rec = flow_sample_adg(g, 0.1, 40, 1.0, math.pi / 3, 0, 12)
        x = step_rng(12, 0).standard_normal(2)
        dt = 1.0 / 40
        for i in range(40):
            t = i * dt
            x = flow_euler_step(x, flow_posterior_mean_x1(g, x, t, 0.1, 0), t, dt, 0.1)
        np.testing.assert_allclose(rec.final_x0, x, atol=1e-12)

    @pytest.mark.parametrize("sigma_min", [1.0, -0.1])
    def test_sigma_min_range(self, sigma_min):
        with pytest.raises(ValueError, match="sigma_min"):
            flow_sample_batch(SQUARE, sigma_min, 10, 3.0, math.pi / 3, 0, [0])

    @pytest.mark.parametrize("sigma_min", [0.0, 0.1])
    @pytest.mark.parametrize("steps", [1, 50])
    def test_guided_flow_matches_euler_reference(self, sigma_min, steps):
        seeds = range(8)
        records = flow_sample_batch(SQUARE, sigma_min, steps, 4.0, math.pi / 3, 0, seeds)
        states, finals = flow_euler_reference(
            SQUARE, sigma_min, steps, 0, seeds,
            lambda c, u: gd.rotate_raw(c, u, 4.0, math.pi / 3))
        for rec, x_t, final in zip(records, states, finals, strict=True):
            assert rec.strategy == "flow_adg"
            assert np.array_equal(rec.times, np.arange(steps) * (1.0 / steps))
            np.testing.assert_allclose(rec.x_t, x_t, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rec.final_x0, final, rtol=0, atol=1e-12)


def _apg_guide(params, omega):
    """APG on raw prediction pairs, carrying its momentum across calls."""
    state = None

    def guide(cond, uncond):
        nonlocal state
        pair = SimpleNamespace(x0_cond=cond, x0_uncond=uncond)
        state = np.zeros(cond.shape) if state is None else state
        guided, state = gd.apg_update(pair, omega, params, state)
        return guided
    return guide


class TestFlowStrategies:
    """Strategy rules besides adg, driven on the flow path's VP levels."""

    @pytest.mark.parametrize("gmm, condition", [(SQUARE, 0), (WIDE, 5)], ids=["dim2", "dim32"])
    @pytest.mark.parametrize("sigma_min", [0.0, 0.05])
    @pytest.mark.parametrize("strategy", ["cfg", "apg"])
    def test_drive_matches_euler_loop(self, gmm, condition, sigma_min, strategy):
        omega, steps, seeds = 3.0, 40, [3, 11, 4]
        config = GuidanceConfig(strategy=strategy, omega=omega)
        times, alpha_bars, scale = flow_levels(sigma_min, steps)
        guide = (_apg_guide(config.apg_params, omega) if strategy == "apg" else
                 lambda c, u: gd.cfg_combine(SimpleNamespace(x0_cond=c, x0_uncond=u), omega))
        states, finals = flow_euler_reference(gmm, sigma_min, steps, condition, seeds, guide)
        records = sp._drive(gmm, [sp.Run(config, condition, seeds)], times, alpha_bars)[0]
        for rec, x_t, final in zip(records, states, finals, strict=True):
            np.testing.assert_allclose(rec.x_t * scale[:-1, None], x_t, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rec.final_x0 * scale[-1], final, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["recfg", "cfgpp"])
    def test_eps_space_rules_stop_at_the_flow_start(self, strategy):
        # alpha_bar = 0 at flow time 0: no noise prediction maps back to x0 there
        config = GuidanceConfig(strategy=strategy, recfg_lambda=0.5)
        times, alpha_bars, _ = flow_levels(0.1, 10)
        with pytest.raises(RuntimeError, match="trajectory aborted at step 0"):
            sp._drive(SQUARE, [sp.Run(config, 0, [1, 2])], times, alpha_bars)


    @pytest.mark.parametrize("mode", ["paper-literal", "score-consistent"])
    def test_pcg_corrector_runs_from_the_flow_start(self, mode):
        # ddpm_beta(0, ab_prev) = 1: from pure noise the corrector's step is the whole transition
        omega, inner, condition = 3.0, 2, 1
        config = GuidanceConfig(strategy="pcg", omega=omega, pcg_inner_steps=inner,
                                pcg_langevin_mode=mode)
        times, alpha_bars, _ = flow_levels(0.1, 10)
        ab = float(alpha_bars[1])
        divisor = 1.0 - ab if mode == "paper-literal" else math.sqrt(1.0 - ab)
        for rec in sp._drive(SQUARE, [sp.Run(config, condition, [1, 2])], times, alpha_bars)[0]:
            x = math.sqrt(ab) * SQUARE.means[condition] + math.sqrt(1.0 - ab) * rec.x_t[0]
            for noise in step_rng(rec.seed, 1).standard_normal((inner, SQUARE.dim)):
                eps_c, eps_u = ((x - math.sqrt(ab) * posterior_mean_x0(SQUARE, x, ab, c))
                                / math.sqrt(1.0 - ab) for c in (condition, None))
                x = x - 0.5 * (omega * eps_c + (1.0 - omega) * eps_u) / divisor + noise
            np.testing.assert_allclose(rec.x_t[1], x, rtol=0, atol=1e-12)


class TestNoiseStreams:
    def test_keyed_streams_are_independent_and_stable(self):
        a = step_rng(5, 1).standard_normal(4)
        b = step_rng(5, 1).standard_normal(4)
        c = step_rng(5, 2).standard_normal(4)
        d = step_rng(6, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    @pytest.mark.parametrize("shape", [(2,), (3, 7)])
    @pytest.mark.parametrize("step", [0, 1, 199])
    def test_rekeyed_draws_equal_fresh_generators(self, shape, step):
        seeds = [0, 2**63, 2**64 - 1, 7, 2**63, 0]  # repeats draw once
        draws = sp._stream_draws(seeds, step, shape)
        assert draws.shape == (len(seeds),) + shape
        for row, seed in zip(draws, seeds):
            assert np.array_equal(row, step_rng(seed, step).standard_normal(shape))

    # The first draws of a few (seed, step) streams, as numpy 2.4.6 draws
    # them.  NEP 19 keeps Philox's bits stable but lets Generator's normal
    # sampler change between numpy versions; such a change fails here, by
    # name, before it moves every output golden.
    @pytest.mark.parametrize("step, first", [
        (0, {0: [0.15929546600623282, -1.7741885208017214, 1.3265118818830892],
             7: [-1.7496944402112695, 0.5745441092559128, 0.6142833637530732],
             2**64 - 1: [-2.7686715823603945, 1.6779206516595908, -0.45223270389849135]}),
        (1, {0: [-0.7440191742693708, -0.01442460974068005, 0.5053939916649247],
             7: [-0.04739161673254484, -1.192916693828728, 0.40070996668332465],
             2**64 - 1: [0.26686605706493555, 0.19589452788603995, 0.4421130724488302]}),
        (200, {0: [-0.6129101456657126, 0.499320009752905, -0.8446446923958788],
               7: [-0.5564509466442726, -0.0049243977562864645, 1.7737100728659219],
               2**64 - 1: [0.28159625260633714, 0.8830629449590836, 2.072023617608559]}),
    ])
    def test_first_draws_are_pinned(self, step, first):
        seeds = [0, 7, 7, 2**64 - 1]  # seed 7 repeats
        draws = sp._stream_draws(seeds, step, (3,))
        assert draws.tolist() == [first[seed] for seed in seeds]
        for seed in first:
            assert step_rng(seed, step).standard_normal(3).tolist() == first[seed]

    def test_population_drivers_deterministic(self):
        grid = make_grid(SCHED, 30)
        for strategy in ("pcg", "adg"):
            config = GuidanceConfig(strategy=strategy, omega=2.0, pcg_inner_steps=2)
            a, b = (sp.sample_runs(SQUARE, grid, [sp.Run(config, 0, range(6))])[0]
                    for _ in range(2))
            for ra, rb in zip(a, b):
                np.testing.assert_array_equal(ra.x_t, rb.x_t)
                np.testing.assert_array_equal(ra.final_x0, rb.final_x0)


class TestMixedRows:
    """One drive over rows of several (omega, condition) runs."""

    OMEGAS = (1.0, 2.5, 6.0)
    SEEDS = (3, 11, 4)  # every group repeats them, drawing the same streams
    LOGGED = ("times", "x_t", "x0_cond", "x0_uncond", "x0_guided", "gamma", "gamma_omega",
              "guided_norm", "final_x0")

    def _rows(self, gmm):
        conditions = (0, 1, gmm.n_components - 1)
        groups = [(w, c) for w in self.OMEGAS for c in conditions]
        rows = [(w, c, s) for w, c in groups for s in self.SEEDS]
        # interleave the groups, so no group's rows sit together
        order = np.random.default_rng(0).permutation(len(rows))
        return groups, rows, order

    def _check(self, mixed, finals, alone, strategy):
        assert (mixed.seed, mixed.strategy, mixed.omega) == (alone.seed, alone.strategy, alone.omega)
        assert np.array_equal(finals, alone.final_x0)
        for field in self.LOGGED:
            assert np.array_equal(getattr(mixed, field), getattr(alone, field), equal_nan=True), (
                f"{strategy} seed {alone.seed} omega {alone.omega} {field}")
        if alone.cfgpp_residual is None:
            assert mixed.cfgpp_residual is None
        else:
            assert np.array_equal(mixed.cfgpp_residual, alone.cfgpp_residual, equal_nan=True)

    @pytest.mark.parametrize("gmm", [SQUARE, WIDE], ids=["dim2", "dim32"])
    @pytest.mark.parametrize("strategy", sorted(gd.STRATEGIES))
    def test_mixed_drive_equals_separate_drives(self, gmm, strategy):
        grid = make_grid(SCHED, 30)
        config = GuidanceConfig(
            strategy=strategy, pcg_inner_steps=2,
            recfg_lambda={c: 0.5 + 0.25 * c for c in range(gmm.n_components)},
        )
        groups, rows, order = self._rows(gmm)
        omega, cond, seeds = (np.array(col)[order] for col in zip(*rows))
        run = sp.Run(config, cond, seeds, omega)
        finals = sp.sample_runs(gmm, grid, [run], log=False)[0]
        records = sp.sample_runs(gmm, grid, [run])[0]
        position = {row: k for k, row in enumerate(zip(omega, cond, seeds))}
        for w, c in groups:
            alone = sp.sample_runs(gmm, grid, [sp.Run(replace(config, omega=w), c, self.SEEDS)])[0]
            for ref in alone:
                k = position[(w, c, ref.seed)]
                self._check(records[k], finals[k], ref, strategy)

    @pytest.mark.parametrize("gmm", [SQUARE, WIDE], ids=["dim2", "dim32"])
    def test_mixed_flow_drive_equals_separate_drives(self, gmm):
        groups, rows, order = self._rows(gmm)
        omega, cond, seeds = (np.array(col)[order] for col in zip(*rows))
        config = GuidanceConfig(strategy="adg")
        runs = [sp.Run(config, cond, seeds, omega)]
        times, alpha_bars, scale = flow_levels(0.1, 30)
        records = sp._drive(gmm, runs, times, alpha_bars)[0]
        finals = sp._drive(gmm, runs, times, alpha_bars, log=False)[0] * scale[-1]
        position = {row: k for k, row in enumerate(zip(omega, cond, seeds))}
        for w, c in groups:
            for ref in flow_sample_batch(gmm, 0.1, 30, w, config.angle_cap, c, self.SEEDS):
                k = position[(w, c, ref.seed)]
                # the drive logs y = x / s; flow_sample_batch maps it back the same way
                mixed = replace(records[k], strategy="flow_adg",
                                x_t=records[k].x_t * scale[:-1, None],
                                final_x0=records[k].final_x0 * scale[-1])
                self._check(mixed, finals[k], ref, "flow_adg")

    @pytest.mark.parametrize("gmm", [SQUARE, WIDE], ids=["dim2", "dim32"])
    def test_grouped_drive_equals_separate_drives(self, gmm):
        # every strategy in one drive, each run on its own condition, with a
        # second cfg run that conditions each row on its own component
        grid = make_grid(SCHED, 30)
        base = GuidanceConfig(
            omega=3.0, pcg_inner_steps=2,
            recfg_lambda={c: 0.5 + 0.25 * c for c in range(gmm.n_components)},
        )
        conds = np.arange(len(self.SEEDS)) % gmm.n_components
        runs = [sp.Run(replace(base, strategy=s, omega=1.5 + 0.5 * k), k % gmm.n_components,
                       self.SEEDS)
                for k, s in enumerate(STRATEGIES)]
        runs.append(sp.Run(replace(base, omega=6.0), conds, self.SEEDS))
        for run, records in zip(runs, sp.sample_runs(gmm, grid, runs), strict=True):
            if np.ndim(run.condition):
                alone = [sample_trajectory(gmm, grid, run.config, int(c), s)
                         for c, s in zip(run.condition, run.seeds)]
            else:
                alone = sp.sample_runs(gmm, grid, [run])[0]
            for mixed, ref in zip(records, alone, strict=True):
                self._check(mixed, mixed.final_x0, ref, run.config.strategy)

    @pytest.mark.parametrize("gmm", [SQUARE, WIDE], ids=["dim2", "dim32"])
    def test_grouped_finals_equal_separate_drives(self, gmm):
        grid = make_grid(SCHED, 30)
        base = GuidanceConfig(
            pcg_inner_steps=2, recfg_lambda={c: 0.5 + 0.25 * c for c in range(gmm.n_components)},
        )
        groups, rows, order = self._rows(gmm)
        omega, cond, seeds = (np.array(col)[order] for col in zip(*rows))
        # each run its own weights, so no run's rows equal another's
        runs = [sp.Run(replace(base, strategy=s), cond, seeds, omega + k)
                for k, s in enumerate(STRATEGIES)]
        for run, finals in zip(runs, sp.sample_runs(gmm, grid, runs, log=False), strict=True):
            alone = sp.sample_runs(gmm, grid, [run], log=False)[0]
            assert np.array_equal(finals, alone), run.config.strategy

    def test_row_inputs_are_checked(self):
        grid = make_grid(SCHED, 5)

        def drive(*run):
            return sp.sample_runs(SQUARE, grid, [sp.Run(*run)], log=False)

        with pytest.raises(ValueError, match="omega must be >= 1"):
            drive(GuidanceConfig(), 0, [0, 1], [2.0, 0.5])
        with pytest.raises(ValueError, match="one condition per row"):
            drive(GuidanceConfig(), np.array([0, 1, 2]), [0, 1])
        with pytest.raises(RuntimeError, match="component index 4"):
            drive(GuidanceConfig(), np.array([0, 4]), [0, 1])
        with pytest.raises(ValueError, match="no recfg lambda entry for condition 2"):
            drive(GuidanceConfig(strategy="recfg", recfg_lambda={0: 0.5}), np.array([0, 2]), [0, 1])

    @pytest.mark.parametrize("omega", [math.inf, [2.0, math.inf]], ids=["run", "row"])
    def test_infinite_weight_is_refused(self, omega):
        # an infinite weight passes omega >= 1 and would drive the rows to NaN
        grid = make_grid(SCHED, 5)
        with pytest.raises(ValueError, match="must be finite"):
            sp.sample_runs(SQUARE, grid, [sp.Run(GuidanceConfig(), 0, [0, 1], omega)], log=False)

    @pytest.mark.parametrize("gmm, rows, strategy, inner", [
        (SQUARE, 768, "cfg", 0),
        (SQUARE, 320, "apg", 0),
        (WIDE, 128, "adg", 0),
        (WIDE, 96, "pcg", 4),
        (EYE64, 64, "cfgpp", 0),
    ])
    def test_traced_peak_within_the_config_charge(self, gmm, rows, strategy, inner):
        grid = make_grid(SCHED, 5)
        config = GuidanceConfig(strategy=strategy, pcg_inner_steps=inner)
        cond = np.arange(rows) % gmm.n_components
        omega = np.linspace(1.0, 6.0, rows)
        run = sp.Run(config, cond, range(rows), omega)
        peak = _traced_peak(lambda: sp.sample_runs(gmm, grid, [run], log=False),
                            lambda: sp.sample_runs(gmm, grid, [
                                sp.Run(config, cond[:2], range(2), omega[:2])], log=False))
        assert peak <= drive_peak_bytes(rows, gmm.dim, gmm.n_components, inner)


class TestStepStream:
    """The step loop yields each transition once, in order, to any consumer."""

    TURNING = ("adg", "adg_no_cap", "adg_normalized")

    @pytest.mark.parametrize("gmm", [SQUARE, WIDE], ids=["dim2", "dim32"])
    def test_grouped_drive_yields_each_transition_in_order(self, gmm):
        grid = make_grid(SCHED, 12)
        base = GuidanceConfig(omega=3.0, pcg_inner_steps=2)
        seeds = (3, 11, 4)
        runs = [sp.Run(replace(base, strategy=s, omega=1.5 + 0.5 * k), k % gmm.n_components,
                       seeds) for k, s in enumerate(STRATEGIES)]
        groups = [sp._rows(run) for run in runs]
        slices = [slice(3 * k, 3 * k + 3) for k in range(len(runs))]
        steps = list(sp._steps(gmm, runs, groups, slices, grid.times[:-1], grid.alpha_bars))
        assert [step[0] for step in steps] == list(range(grid.steps))
        for i, pair, parts, turns, guided, x_next in steps:
            assert pair.alpha_bar_t == grid.alpha_bars[i]
            assert guided.shape == x_next.shape == pair.x_t.shape == (3 * len(runs), gmm.dim)
            assert len(parts) == len(turns) == len(runs)
            for run, part, turn, sl in zip(runs, parts, turns, slices):
                assert np.array_equal(part.x_t, pair.x_t[sl])
                assert np.array_equal(part.geometry.gamma, pair.geometry.gamma[sl])
                assert (turn is not None) == (run.config.strategy in self.TURNING)
        for (*_, x_next), (_, pair, *_) in zip(steps, steps[1:]):
            assert np.array_equal(x_next, pair.x_t)
        # both of the driver's consumers read this stream
        finals = sp.sample_runs(gmm, grid, runs, log=False)
        for run_records, run_finals, sl in zip(sp.sample_runs(gmm, grid, runs), finals, slices):
            assert np.array_equal(run_finals, steps[-1][-1][sl])
            for j, record in zip(range(sl.start, sl.stop), run_records):
                assert np.array_equal(record.x_t, [pair.x_t[j] for _, pair, *_ in steps])
                assert np.array_equal(record.x0_guided, [step[4][j] for step in steps])


class TestStrategyTable:
    """The drive runs each strategy's public function, looked up when it runs."""

    PUBLIC = {"cfg": "cfg_combine", "adg": "adg_rotate", "adg_no_cap": "adg_no_cap",
              "adg_normalized": "adg_normalized", "adg_simplified": "adg_simplified",
              "cfgpp": "cfgpp_predictions", "apg": "apg_update", "recfg": "recfg_combine"}

    @pytest.mark.parametrize("log", [False, True], ids=["finals", "logged"])
    @pytest.mark.parametrize("strategy", sorted(PUBLIC))
    def test_drive_calls_the_public_rule(self, monkeypatch, strategy, log):
        calls = dict.fromkeys(self.PUBLIC.values(), 0)
        for name in calls:
            def counted(*args, _fn=getattr(gd, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(gd, name, counted)
        steps = 10
        config = GuidanceConfig(strategy=strategy, omega=3.0)
        sp.sample_runs(SQUARE, make_grid(SCHED, steps), [sp.Run(config, 0, [1, 2])], log=log)
        assert calls[self.PUBLIC[strategy]] == steps
        if strategy == "cfgpp":
            # the split update's residual is a log column: finals-only drives skip it
            assert calls["cfg_combine"] == (steps if log else 0)


class TestDrivePeak:
    """A logged drive holds its records and its per-step log, and no array
    the size of the log besides; the config charges drive_peak_bytes."""

    @pytest.mark.parametrize("steps", [1, 5, 200])
    @pytest.mark.parametrize("gmm", [PAIR_1D, SQUARE, WIDE, EYE64],
                             ids=["dim1", "dim2", "dim32", "dim64"])
    def test_logged_peak_within_the_charge(self, gmm, steps):
        # up to 2000 rows, and at most 1M floats of log
        rows = min(2000, 2**20 // (steps * (4 * gmm.dim + 4)))
        grid, half = make_grid(SCHED, steps), rows // 2
        cond = np.arange(rows) % gmm.n_components
        omega = np.linspace(1.0, 6.0, rows)
        runs = [sp.Run(GuidanceConfig(strategy="cfgpp"), cond[:half], range(half), omega[:half]),
                sp.Run(GuidanceConfig(strategy="pcg", pcg_inner_steps=3), cond[half:],
                       range(half, rows), omega[half:])]
        peak = _traced_peak(lambda: sp.sample_runs(gmm, grid, runs),
                            lambda: sp.sample_runs(gmm, grid, [
                                sp.Run(r.config, r.condition[:1], r.seeds[:1], r.omega[:1])
                                for r in runs]))
        assert peak <= drive_peak_bytes(rows, gmm.dim, gmm.n_components, 3, steps)
        peak = _traced_peak(lambda: flow_sample_batch(gmm, 0.1, steps, 3.0, 1.0, 0, range(rows)),
                            lambda: flow_sample_batch(gmm, 0.1, steps, 3.0, 1.0, 0, [0]))
        assert peak <= drive_peak_bytes(rows, gmm.dim, gmm.n_components, steps=steps)
