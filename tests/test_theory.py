"""Certifier behavior: membership sets, outward-drift checks, stress tests."""

import math
import os
from dataclasses import replace
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import guidance_lab as gl
import guidance_lab.theory as th
import guidance_lab.verify as vf
from guidance_lab.config import loads_config
from guidance_lab.mixture import GaussianMixture, score_conditional, surface_certificate
from guidance_lab.schedule import default_schedule, make_grid
from guidance_lab.theory import (
    estimate_c1,
    mt_membership,
    norm_amplification_check,
    norm_sweep,
    prop1_stress,
    scatter_experiment,
)

PAIR_1D = GaussianMixture(dim=1, means=[[-1.0], [1.0]], weights=[0.5, 0.5])
SQUARE = GaussianMixture(
    dim=2, means=[[1, 1], [1, -1], [-1, 1], [-1, -1]], weights=[0.25] * 4
)
CERT_1D = surface_certificate(PAIR_1D, 1)
CERT_SQ = surface_certificate(SQUARE, 0)
SCHED = default_schedule()


class TestMembership:
    def test_unguided_dot_is_squared_score_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(1) * 3
            member, dot = mt_membership(PAIR_1D, CERT_1D, x, 0.5, 1.0)
            expected = float(np.sum(score_conditional(PAIR_1D, x, 0.5, 1) ** 2))
            assert dot == pytest.approx(expected, abs=1e-12)
            assert dot >= 0
            assert member == (dot <= 0)

    def test_boundary_point_is_member(self):
        x = math.sqrt(0.5) * PAIR_1D.means[1]
        member, dot = mt_membership(PAIR_1D, CERT_1D, x, 0.5, 3.0)
        assert member and dot == pytest.approx(0.0, abs=1e-15)

    def test_small_outward_displacement_is_anomalous(self):
        x = math.sqrt(0.5) * PAIR_1D.means[1] + 0.05 * CERT_1D.normal
        member, dot = mt_membership(PAIR_1D, CERT_1D, x, 0.5, 3.0)
        assert member and dot < 0


class TestC1Estimation:
    def test_frozen_values_match_fixed_point_oracle(self):
        # scalar fixed point k = (omega-1) sqrt(ab) * margin * resp(k),
        # solved independently in extended precision
        expected = {2.0: 0.28049884543, 3.0: 0.457066657793, 5.0: 0.689361606094}
        for omega, reference in expected.items():
            value = estimate_c1(PAIR_1D, CERT_1D, 0.5, omega)
            assert value == pytest.approx(reference, abs=1e-7)

    def test_monotone_in_omega(self):
        values = [estimate_c1(PAIR_1D, CERT_1D, 0.5, w) for w in (1.5, 2.0, 3.0, 5.0, 8.0)]
        assert all(v > 0 for v in values)
        assert all(b > a + 1e-8 for a, b in zip(values, values[1:]))

    def test_collapses_toward_omega_one(self):
        assert estimate_c1(PAIR_1D, CERT_1D, 0.5, 1.0 + 1e-9) < 1e-5

    def test_point_beyond_boundary_exits(self):
        c1 = estimate_c1(PAIR_1D, CERT_1D, 0.5, 3.0)
        x = math.sqrt(0.5) * PAIR_1D.means[1] + 1.01 * c1 * CERT_1D.normal
        member, _ = mt_membership(PAIR_1D, CERT_1D, x, 0.5, 3.0)
        assert not member

    def test_point_just_inside_is_member(self):
        c1 = estimate_c1(PAIR_1D, CERT_1D, 0.5, 3.0)
        x = math.sqrt(0.5) * PAIR_1D.means[1] + 0.99 * c1 * CERT_1D.normal
        member, _ = mt_membership(PAIR_1D, CERT_1D, x, 0.5, 3.0)
        assert member

    def test_requires_omega_above_one(self):
        with pytest.raises(ValueError, match="omega"):
            estimate_c1(PAIR_1D, CERT_1D, 0.5, 1.0)

    def test_rejects_nonpositive_bisection_tol(self):
        with pytest.raises(ValueError, match="bisection_tol"):
            estimate_c1(PAIR_1D, CERT_1D, 0.5, 3.0, bisection_tol=0.0)

    def test_tolerance_below_double_spacing_terminates(self):
        # near c1 ~ 0.46 adjacent doubles are 5.6e-17 apart, so a 1e-17
        # tolerance cannot be met; the bisection must stop at adjacent doubles
        code = (
            "from guidance_lab.mixture import GaussianMixture, surface_certificate\n"
            "from guidance_lab.theory import estimate_c1\n"
            "gmm = GaussianMixture(dim=1, means=[[-1.0], [1.0]], weights=[0.5, 0.5])\n"
            "cert = surface_certificate(gmm, 1)\n"
            "print(repr(estimate_c1(gmm, cert, 0.5, 3.0, bisection_tol=1e-17)))\n"
        )
        package_root = os.path.dirname(os.path.dirname(gl.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=package_root),
            capture_output=True, text=True, check=True, timeout=60,
        )
        coarse = estimate_c1(PAIR_1D, CERT_1D, 0.5, 3.0, bisection_tol=1e-15)
        assert float(out.stdout) == pytest.approx(coarse, abs=1e-15)

    def test_saturates_at_k_max(self):
        value = estimate_c1(PAIR_1D, CERT_1D, 0.5, 3.0, k_max=0.1)
        assert value == 0.1


class TestNormAmplification:
    def test_strict_ordering_and_monotone_mean(self):
        grid = make_grid(SCHED, 150)
        r3 = norm_amplification_check(SQUARE, CERT_SQ, grid, 3.0, range(12))
        r5 = norm_amplification_check(SQUARE, CERT_SQ, grid, 5.0, range(12))
        assert r3.verdict == "pass" and r5.verdict == "pass"
        assert r3.measured["min_margin"] > 1e-9
        assert r5.measured["mean_margin"] > r3.measured["mean_margin"]

    def test_omega_one_is_not_applicable(self):
        grid = make_grid(SCHED, 50)
        report = norm_amplification_check(SQUARE, CERT_SQ, grid, 1.0, range(4))
        assert report.verdict == "n/a"
        assert report.passed

    def test_margins_stable_under_grid_refinement(self):
        coarse = norm_amplification_check(
            SQUARE, CERT_SQ, make_grid(SCHED, 150), 5.0, range(8)
        )
        fine = norm_amplification_check(
            SQUARE, CERT_SQ, make_grid(SCHED, 300), 5.0, range(8)
        )
        for a, b in zip(coarse.details, fine.details):
            assert abs(b["margin"] - a["margin"]) / abs(a["margin"]) < 0.05

    def test_report_is_reproducible(self):
        grid = make_grid(SCHED, 60)
        a = norm_amplification_check(SQUARE, CERT_SQ, grid, 4.0, range(6))
        b = norm_amplification_check(SQUARE, CERT_SQ, grid, 4.0, range(6))
        assert a.to_dict() == b.to_dict()


class TestProp1Stress:
    def test_bound_holds_on_modest_batch(self):
        report = prop1_stress(trials=30_000, dims=(2, 8, 64), seed=0)
        assert report.verdict == "pass"
        assert report.measured["max_ratio"] <= math.sqrt(2) * (1 + 1e-12)
        assert report.measured["max_identity_residual"] <= 1e-9

    def test_near_antiparallel_rows_keep_the_identity(self):
        # checked against a rebuilt projection and the sampled norm, this
        # seed's worst row (near-antiparallel, capped turn) gave 1.5e-9; the
        # identity must hold for the geometry the rotation used
        report = prop1_stress(trials=200_000, dims=(2, 8, 64), seed=169886732)
        assert report.verdict == "pass"
        assert report.measured["max_identity_residual"] <= 1e-9

    def test_parallel_pair_ratio_is_one(self):
        v = np.array([1.0, 2.0])
        for uncond in (3.0 * v, -3.0 * v):
            out = gl.rotate_raw(v, uncond, 5.0)
            assert np.linalg.norm(out) / np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_quarter_turn_attains_bound(self):
        # gamma = pi/2 and omega = 1.5 gives the tight case cos+sin = sqrt(2)
        cond = np.array([0.0, 3.0])
        uncond = np.array([1.0, 0.0])
        out = gl.rotate_raw(cond, uncond, 1.5)
        ratio = np.linalg.norm(out) / np.linalg.norm(cond)
        assert abs(ratio - math.sqrt(2)) < 1e-12

    def test_nan_ratios_fail(self):
        # norms up to 1e300 overflow every pair's squared norm: each ratio
        # and residual is NaN, which must reach the maxima and the verdict
        with np.errstate(all="ignore"):
            report = prop1_stress(trials=300, dims=(2,), norm_range=(1e-3, 1e300), seed=1)
        assert report.verdict == "fail"
        assert math.isnan(report.measured["max_ratio"])
        assert math.isnan(report.measured["max_identity_residual"])

    def test_deterministic(self):
        a = prop1_stress(trials=5000, seed=3)
        b = prop1_stress(trials=5000, seed=3)
        assert a.to_dict() == b.to_dict()

    # measured before the pairs were built in blocks, from one batch per dim
    GOLDEN = [
        # (seed, trials, dims, max_ratio, max_identity_residual)
        (0, 3000, (2, 8, 64), 1.4134836915600548, 1.1102230246251565e-15),
        (3, 5000, (2, 8, 64), 1.4138306214228722, 1.3322676295501878e-15),
        (7, 200_000, (2, 8, 64), 1.414188169557623, 1.5543122344752192e-15),
        (169886732, 200_000, (2, 8, 64), 1.41417413941609, 1.5543122344752192e-15),
        (7, 2500, (256,), 1.4107742062284345, 1.3322676295501878e-15),
        (3, 7, (2, 8, 64), 1.363880991049461, 4.440892098500626e-16),
    ]

    @pytest.mark.parametrize("seed, trials, dims, ratio, residual", GOLDEN)
    def test_blocked_report_equals_the_one_batch_report(self, seed, trials, dims, ratio, residual):
        per_dim = trials // len(dims)
        rows = [th._prop1_block_rows(d) for d in dims]
        # one block, several with a ragged last one, or both across the dims
        assert per_dim < max(rows) or any(per_dim % r for r in rows)
        assert prop1_stress(trials=trials, dims=dims, seed=seed).to_dict() == {
            "name": "rotation_norm_bound",
            "parameters": {"trials": trials, "dims": list(dims),
                           "norm_range": [1e-3, 1e3], "seed": seed},
            "verdict": "pass",
            "measured": {"max_ratio": ratio, "sqrt2": math.sqrt(2.0),
                         "max_identity_residual": residual},
            "tolerance": 1e-12,
        }

    @pytest.mark.parametrize("trials, dims", [(30_000, (2, 8, 64)), (9000, (256,)), (3, (2, 8, 64))])
    def test_traced_peak_within_the_config_charge(self, trials, dims):
        prop1_stress(trials=3, dims=(2,), seed=0)  # numpy.random's lazy imports
        tracemalloc.start()
        try:
            prop1_stress(trials=trials, dims=dims, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= th.prop1_peak_bytes(trials, dims)


class TestSweepAndScatter:
    def test_sweep_unguided_rows_agree_across_strategies(self):
        grid = make_grid(SCHED, 80)
        rows = norm_sweep(SQUARE, grid, ["cfg", "adg", "adg_simplified"], [1.0],
                          range(8), 0)
        means = {r.strategy: r.mean_norm for r in rows}
        assert len(set(round(v, 12) for v in means.values())) == 1

    def test_cfg_norm_grows_adg_stays_bounded(self):
        grid = make_grid(SCHED, 100)
        rows = norm_sweep(SQUARE, grid, ["cfg", "adg"], [1.0, 3.0, 6.0], range(24), 0)
        cfg_rows = [r for r in rows if r.strategy == "cfg"]
        adg_rows = [r for r in rows if r.strategy == "adg"]
        assert cfg_rows[0].mean_norm < cfg_rows[1].mean_norm < cfg_rows[2].mean_norm
        base = adg_rows[0].mean_norm
        assert all(base / 1.5 <= r.mean_norm <= base * 1.5 for r in adg_rows)

    def test_scatter_unguided_centroids_near_means(self):
        grid = make_grid(SCHED, 100)
        sets = scatter_experiment(SQUARE, grid, [1.0], 48)
        s = sets[0]
        for c in range(4):
            samples = s.samples[s.components == c]
            se = np.sqrt(samples.var(axis=0, ddof=1).sum() / len(samples))
            assert np.linalg.norm(samples.mean(axis=0) - SQUARE.means[c]) < 3 * se

    def test_surface_drift_grows_interior_drift_does_not(self):
        center = GaussianMixture(
            dim=2, means=[[1, 1], [1, -1], [-1, 1], [-1, -1], [0, 0]], weights=[0.2] * 5
        )
        grid = make_grid(SCHED, 100)
        sets = scatter_experiment(center, grid, [1.0, 3.0, 5.0], 48)
        drifts = [s.centroid_drift(center) for s in sets]
        # surface components drift outward monotonically
        for c in range(4):
            assert drifts[0][c] < drifts[1][c] < drifts[2][c]
        # interior component: no significant drift change vs the unguided run
        base_samples = sets[0].samples[sets[0].components == 4]
        for s, drift in zip(sets[1:], drifts[1:]):
            samples = s.samples[s.components == 4]
            se = math.sqrt(
                (samples.var(axis=0, ddof=1).sum() + base_samples.var(axis=0, ddof=1).sum())
                / len(samples)
            )
            assert abs(drift[4] - drifts[0][4]) < 3 * se


class TestVerifyProbesFailOnNaN:
    """A NaN deviation fails its probe: Python's max(0.0, nan) would keep 0.0."""

    def test_guidance_off_fails_on_nan_trajectory(self, monkeypatch):
        drive = gl.samplers.sample_runs

        def nan_in_last_variant(gmm, grid, runs):
            results = drive(gmm, grid, runs)
            first = results[-1][0]
            x_t = first.x_t.copy()
            x_t[3] = np.nan
            results[-1][0] = replace(first, x_t=x_t)
            return results

        monkeypatch.setattr(gl.samplers, "sample_runs", nan_in_last_variant)
        report = vf.probe_guidance_off(loads_config("grid: {steps: 20}"), seed_count=2)
        assert report.verdict == "fail"
        assert math.isnan(report.measured["max_step_deviation"])

    @pytest.mark.parametrize("probe, module, name", [
        (lambda: vf.probe_score_oracle(6, 1), gl.mixture, "finite_diff_score"),
        (lambda: vf.probe_score_identity(6, 1), gl.mixture, "posterior_mean_x0"),
        (lambda: vf.probe_posterior_simplex(6, 1), gl.mixture, "posterior_weights"),
        (lambda: vf.probe_cfgpp_equivalence(6, 1), gl.samplers, "cfgpp_equivalent_weight"),
    ])
    def test_nan_after_the_first_case_fails(self, monkeypatch, probe, module, name):
        real, calls = getattr(module, name), []

        def nan_on_second_call(*args, **kwargs):
            calls.append(1)
            out = real(*args, **kwargs)
            return out * np.nan if len(calls) == 2 else out

        assert probe().verdict == "pass"
        monkeypatch.setattr(module, name, nan_on_second_call)
        report = probe()
        assert report.verdict == "fail"
        assert any(isinstance(v, float) and math.isnan(v) for v in report.measured.values())
