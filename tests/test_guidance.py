"""Guidance strategy combiners: rotations, extrapolations, projections."""

import math

import mpmath
import numpy as np
import pytest

from guidance_lab.guidance import (
    DEFAULT_ANGLE_CAP,
    ApgParams,
    DegenerateGeometryError,
    GuidanceConfig,
    PredictionPair,
    adg_no_cap,
    adg_normalized,
    adg_rotate,
    adg_simplified,
    angle_between,
    apg_update,
    cfg_combine,
    cfgpp_predictions,
    eps_from_x0,
    recfg_combine,
    rotate_raw,
    x0_from_eps,
)


def pair_of(x0_cond, x0_uncond, alpha_bar=0.5):
    x0_cond = np.asarray(x0_cond, float)
    return PredictionPair.of(
        x0_cond=x0_cond,
        x0_uncond=np.asarray(x0_uncond, float),
        x_t=np.zeros_like(x0_cond),
        alpha_bar_t=alpha_bar,
    )


def random_pairs(n, seed, dim_choices=(2, 3, 8)):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        dim = int(rng.choice(dim_choices))
        yield pair_of(rng.standard_normal(dim), rng.standard_normal(dim))


PI6_PAIR = pair_of([math.cos(math.pi / 6), math.sin(math.pi / 6)], [1.0, 0.0])


class TestNoiseCleanDuality:
    def test_zero_noise(self):
        x_t = np.array([1.0, -2.0])
        np.testing.assert_allclose(
            x0_from_eps(x_t, np.zeros(2), 0.25), x_t / 0.5, atol=1e-15
        )

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x_t = rng.standard_normal(4)
            eps = rng.standard_normal(4)
            ab = float(rng.uniform(0.01, 0.99))
            back = eps_from_x0(x_t, x0_from_eps(x_t, eps, ab), ab)
            assert np.max(np.abs(back - eps)) < 1e-12

    def test_direct_value(self):
        out = x0_from_eps(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.25)
        np.testing.assert_allclose(out, [0.26794919243112270, 0.0], atol=1e-15)

    def test_alpha_bar_range(self):
        with pytest.raises(ValueError, match="alpha_bar"):
            x0_from_eps(np.zeros(1), np.zeros(1), 1.0)


class TestAngles:
    def test_right_angle(self):
        assert angle_between(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_parallel_is_zero(self):
        v = np.array([0.3, -0.4, 1.2])
        assert angle_between(v, v) == pytest.approx(0.0, abs=1e-7)

    def test_45_degrees(self):
        assert angle_between(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            math.pi / 4, abs=1e-12
        )

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            a, b = rng.uniform(0.1, 50.0, size=2)
            base = angle_between(u, v)
            assert abs(angle_between(v, u) - base) < 1e-12
            assert abs(angle_between(a * u, b * v) - base) < 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateGeometryError):
            angle_between(np.zeros(2), np.array([1.0, 0.0]))

    def test_small_angles_keep_full_precision(self):
        # arccos of a cosine returns 0 for theta = 1e-8; the rejection keeps it
        rng = np.random.default_rng(8)
        for theta in np.geomspace(1e-9, 1e-6, 31):
            a, b = rng.uniform(0.01, 100.0, size=2)
            u = np.array([a, 0.0])
            v = b * np.array([math.cos(theta), math.sin(theta)])
            for gamma in (angle_between(u, v), angle_between(v, u)):
                assert abs(gamma - theta) <= 1e-12 * theta



class TestRotation:
    def test_omega_one_returns_conditional_exactly(self):
        for pair in random_pairs(50, seed=6):
            out = adg_rotate(pair, 1.0)[0]
            assert np.array_equal(out, pair.x0_cond) or np.max(np.abs(out - pair.x0_cond)) == 0.0

    def test_orthogonal_closed_form(self):
        # projection vanishes, so the output is (cos + sin) times x0_cond
        pair = pair_of([0.0, 2.0], [1.0, 0.0])
        for omega in (1.2, 1.5, 2.0):
            gamma_omega = min((omega - 1.0) * math.pi / 2, DEFAULT_ANGLE_CAP)
            expected = (math.cos(gamma_omega) + math.sin(gamma_omega)) * pair.x0_cond
            np.testing.assert_allclose(adg_rotate(pair, omega)[0], expected, atol=1e-14)
            # the turn is returned with the rotation, capped but for adg_no_cap
            assert adg_rotate(pair, omega)[1] == gamma_omega
            assert adg_normalized(pair, omega)[1] == gamma_omega
            assert adg_no_cap(pair, omega)[1] == (omega - 1.0) * math.pi / 2

    def test_frozen_pi6_example(self):
        np.testing.assert_allclose(
            adg_rotate(PI6_PAIR, 2.0)[0], [0.75, 0.93301270189221932], atol=1e-15
        )

    def test_norm_bound(self):
        rng = np.random.default_rng(8)
        for pair in random_pairs(500, seed=8):
            omega = float(rng.uniform(1.0, 10.0))
            ratio = np.linalg.norm(adg_rotate(pair, omega)[0]) / np.linalg.norm(pair.x0_cond)
            assert ratio <= math.sqrt(2.0) * (1 + 1e-12)

    def test_cap_coincidence_is_exact(self):
        # below the cap both variants compute the identical expression
        for pair in random_pairs(100, seed=10):
            gamma = angle_between(pair.x0_cond, pair.x0_uncond)
            assert pair.geometry.valid
            omega = 1.0 + (DEFAULT_ANGLE_CAP * 0.9) / gamma
            assert np.array_equal(adg_rotate(pair, omega)[0], adg_no_cap(pair, omega)[0])

    def test_output_stays_in_prediction_plane(self):
        for pair in random_pairs(100, seed=12):
            out = adg_rotate(pair, 3.0)[0]
            basis = np.stack([pair.x0_cond, pair.x0_uncond])
            q, _ = np.linalg.qr(basis.T)
            residual = out - q @ (q.T @ out)
            assert np.max(np.abs(residual)) < 1e-10

    def test_uncapped_reversal(self):
        # (omega-1)*gamma = pi on an orthogonal unit pair flips the sign
        pair = pair_of([0.0, 1.0], [1.0, 0.0])
        omega = 1.0 + math.pi / (math.pi / 2)
        np.testing.assert_allclose(adg_no_cap(pair, omega)[0], -pair.x0_cond, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(14)
        cond = rng.standard_normal((40, 3))
        uncond = rng.standard_normal((40, 3))
        batch = rotate_raw(cond, uncond, 2.5)
        for i in range(40):
            np.testing.assert_allclose(
                batch[i], rotate_raw(cond[i], uncond[i], 2.5), atol=1e-15
            )

    def test_per_row_omega(self):
        rng = np.random.default_rng(15)
        cond = rng.standard_normal((10, 2))
        uncond = rng.standard_normal((10, 2))
        omegas = rng.uniform(1.0, 5.0, 10)
        batch = rotate_raw(cond, uncond, omegas)
        for i in range(10):
            np.testing.assert_allclose(
                batch[i], rotate_raw(cond[i], uncond[i], float(omegas[i])), atol=1e-15
            )

    def test_degenerate_pair_falls_back(self):
        pair = pair_of([1.0, 1.0], [2.0, 2.0])  # parallel
        np.testing.assert_array_equal(adg_rotate(pair, 5.0)[0], pair.x0_cond)
        tiny = pair_of([1e-15, 0.0], [1.0, 0.0])
        np.testing.assert_array_equal(adg_rotate(tiny, 5.0)[0], tiny.x0_cond)
        # an exactly (anti)parallel pair leaves a rejection of rounding noise
        # (sin gamma up to 5.3e-16 here); REJECTION_FLOOR alone keeps it unturned
        rng = np.random.default_rng(35)
        for dim in (2, 3, 8, 64, 512, 4096):
            x_cond = rng.standard_normal(dim)
            for c in np.exp(np.linspace(-7.0, 7.0, 29)):
                for pair in (pair_of(x_cond, c * x_cond), pair_of(x_cond, -c * x_cond)):
                    assert not pair.geometry.valid
                    np.testing.assert_array_equal(adg_rotate(pair, 5.0)[0], x_cond)

    def test_small_angles_turn_by_the_paper_rule(self):
        # gamma from 1e-11 to 1e-7 turns by (omega - 1)*gamma: the output is
        # cos(g_w)*x_cond + sin(g_w)*|x_cond|*e_perp, in 40-digit arithmetic on
        # the float inputs, to within 4*omega*u*|x_cond|; adg_normalized
        # rescales it to |x_cond|.  The turn's own error is the rejection's
        # cancellation, (u/gamma)^2 relative, on top of rounding.
        u = 2.0**-53
        rng = np.random.default_rng(34)
        with mpmath.workdps(40):
            for theta in np.geomspace(1e-11, 1e-7, 41):
                a, b = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
                pair = pair_of(b * np.array([math.cos(theta), math.sin(theta)]), [a, 0.0])
                c0, c1 = (mpmath.mpf(float(v)) for v in pair.x0_cond)
                norm = mpmath.hypot(c0, c1)
                for omega in (2.0, 5.0, 12.0):
                    g_w = (omega - 1.0) * mpmath.atan2(c1, c0)
                    turned = [mpmath.cos(g_w) * c0, mpmath.cos(g_w) * c1 + mpmath.sin(g_w) * norm]
                    rescaled = [v * norm / mpmath.hypot(*turned) for v in turned]
                    for rule, want in ((adg_rotate, turned), (adg_no_cap, turned),
                                       (adg_normalized, rescaled)):
                        out, turn = rule(pair, omega)
                        err = mpmath.hypot(*(float(o) - w for o, w in zip(out, want)))
                        assert err <= 4.0 * omega * u * norm, (rule.__name__, theta, omega)
                        turn_err = abs(float(turn) - g_w) / g_w
                        assert turn_err <= 2.0 * (u / theta) ** 2 + 8.0 * u


class TestNormalizedVariants:
    def test_norm_is_preserved(self):
        for pair in random_pairs(100, seed=16):
            out = adg_normalized(pair, 4.0)[0]
            assert abs(np.linalg.norm(out) - np.linalg.norm(pair.x0_cond)) < 1e-12

    def test_direction_matches_rotation(self):
        for pair in random_pairs(50, seed=18):
            rotated = adg_rotate(pair, 3.0)[0]
            normalized = adg_normalized(pair, 3.0)[0]
            cosine = rotated @ normalized / (np.linalg.norm(rotated) * np.linalg.norm(normalized))
            assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_frozen_pi6_example(self):
        # rotation output rescaled by its exact norm sqrt(1 + sin(pi/3) sin(pi/6))
        np.testing.assert_allclose(
            adg_normalized(PI6_PAIR, 2.0)[0],
            [0.62652188143812762, 0.77940383119357885],
            atol=1e-15,
        )

    def test_simplified_reductions(self):
        pair = pair_of([0.4, -0.3], [0.4, -0.3])
        np.testing.assert_array_equal(adg_simplified(pair, 7.0), pair.x0_cond)
        for pair in random_pairs(20, seed=20):
            np.testing.assert_array_equal(adg_simplified(pair, 1.0), pair.x0_cond)

    def test_simplified_frozen_example(self):
        pair = pair_of([1.0, 1.0], [1.0, 0.0])
        np.testing.assert_allclose(cfg_combine(pair, 3.0), [1.0, 3.0], atol=0)
        np.testing.assert_allclose(
            adg_simplified(pair, 3.0),
            [0.44721359549995794, 1.34164078649987382],
            atol=1e-15,
        )


class TestLinearFamily:
    def test_cfg_identities(self):
        pair = pair_of([1.0, 1.0], [1.0, 0.0])
        np.testing.assert_array_equal(cfg_combine(pair, 1.0), pair.x0_cond)
        same = pair_of([0.2, 0.7], [0.2, 0.7])
        np.testing.assert_allclose(cfg_combine(same, 9.0), same.x0_cond, atol=1e-15)

    def test_cfg_epsilon_duality(self):
        # extrapolating clean predictions equals combining noise predictions
        rng = np.random.default_rng(22)
        for _ in range(100):
            dim = 4
            x_t = rng.standard_normal(dim)
            eps_c = rng.standard_normal(dim)
            eps_u = rng.standard_normal(dim)
            ab = float(rng.uniform(0.05, 0.95))
            omega = float(rng.uniform(1.0, 8.0))
            pair = PredictionPair.of(
                x0_cond=x0_from_eps(x_t, eps_c, ab),
                x0_uncond=x0_from_eps(x_t, eps_u, ab),
                x_t=x_t,
                alpha_bar_t=ab,
            )
            via_x0 = cfg_combine(pair, omega)
            via_eps = x0_from_eps(x_t, (1 - omega) * eps_u + omega * eps_c, ab)
            assert np.max(np.abs(via_x0 - via_eps)) < 1e-12


class TestApg:
    def test_reduction_to_cfg(self):
        params = ApgParams(eta=1.0, beta=0.0, r=math.inf)
        rng = np.random.default_rng(24)
        cond = rng.standard_normal((10_000, 3))
        uncond = rng.standard_normal((10_000, 3))
        pair = PredictionPair.of(
            x0_cond=cond, x0_uncond=uncond, x_t=np.zeros_like(cond), alpha_bar_t=0.5
        )
        out, _ = apg_update(pair, 3.0, params, np.zeros(cond.shape))
        assert np.max(np.abs(out - cfg_combine(pair, 3.0))) < 1e-12

    def test_eta_zero_keeps_only_orthogonal_component(self):
        params = ApgParams(eta=0.0, beta=0.0, r=math.inf)
        for pair in random_pairs(50, seed=26):
            out, kept = apg_update(pair, 2.0, params, np.zeros(pair.x0_cond.shape))
            assert abs(kept @ pair.x0_cond) < 1e-10 * np.linalg.norm(pair.x0_cond)
            np.testing.assert_allclose(out, pair.x0_cond + kept, atol=1e-14)

    def test_zero_radius_clamps_to_conditional(self):
        params = ApgParams(eta=0.5, beta=0.0, r=0.0)
        pair = pair_of([1.0, 2.0], [0.5, -1.0])
        out, _ = apg_update(pair, 5.0, params, np.zeros(2))
        np.testing.assert_allclose(out, pair.x0_cond, atol=1e-15)

    def test_norm_clamp(self):
        params = ApgParams(eta=1.0, beta=0.0, r=0.1)
        pair = pair_of([5.0, 0.0], [0.0, 5.0])
        _, momentum = apg_update(pair, 2.0, params, np.zeros(2))
        assert np.linalg.norm(momentum) <= 0.1 + 1e-12

    def test_negative_momentum_accumulates(self):
        # second step folds the previous history with coefficient -beta
        params = ApgParams(eta=1.0, beta=-0.5, r=math.inf)
        pair = pair_of([1.0, 0.0], [0.0, 1.0])
        out1, momentum1 = apg_update(pair, 2.0, params, np.zeros(2))
        delta = pair.x0_cond - pair.x0_uncond
        np.testing.assert_allclose(momentum1, delta, atol=1e-14)
        out2, momentum2 = apg_update(pair, 2.0, params, momentum1)
        np.testing.assert_allclose(momentum2, delta + 0.5 * delta, atol=1e-14)
        np.testing.assert_allclose(out2, pair.x0_cond + momentum2, atol=1e-14)

    def test_infinite_radius_with_zero_difference(self):
        params = ApgParams(eta=0.0, beta=-0.5, r=math.inf)
        pair = pair_of([1.0, -2.0], [1.0, -2.0])
        out, momentum = apg_update(pair, 5.0, params, np.zeros(2))
        np.testing.assert_array_equal(out, pair.x0_cond)
        np.testing.assert_array_equal(momentum, [0.0, 0.0])

    def test_finite_radius_clamp_is_min_of_one_and_ratio(self):
        # bit for bit: min(1, r / |mixed|), and 0 where the mixed difference is 0
        rng = np.random.default_rng(27)
        cond = rng.standard_normal((4000, 3))
        uncond = cond + rng.standard_normal((4000, 3)) * 10.0 ** rng.integers(-4, 3, (4000, 1))
        uncond[:200] = cond[:200]
        pair = PredictionPair.of(x0_cond=cond, x0_uncond=uncond, x_t=np.zeros_like(cond),
                              alpha_bar_t=0.5)
        unclamped = ApgParams(eta=0.3, beta=0.0, r=math.inf)
        _, mixed = apg_update(pair, 2.0, unclamped, np.zeros(cond.shape))
        norm = np.linalg.norm(mixed, axis=-1)
        for r in (0.0, 1e-3, 0.5, 2.5, 100.0):
            params = ApgParams(eta=0.3, beta=0.0, r=r)
            _, momentum = apg_update(pair, 2.0, params, np.zeros(cond.shape))
            with np.errstate(divide="ignore"):
                clamp = np.minimum(1.0, r / np.where(norm > 0.0, norm, np.inf))
            assert momentum.tobytes() == (clamp[:, None] * mixed).tobytes()

    def test_param_validation(self):
        with pytest.raises(ValueError, match="eta"):
            ApgParams(eta=1.5)
        with pytest.raises(ValueError, match="beta"):
            ApgParams(beta=0.5)
        with pytest.raises(ValueError, match="clamp"):
            ApgParams(r=-1.0)
        with pytest.raises(ValueError, match="clamp"):
            ApgParams(r=math.nan)


class TestEpsilonStrategies:
    def test_recfg_lambda_one_is_plain_combination(self):
        rng = np.random.default_rng(28)
        eps_c, eps_u = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(
            recfg_combine(eps_c, eps_u, 4.0, 1.0),
            (1 - 4.0) * eps_u + 4.0 * eps_c,
            atol=1e-15,
        )

    def test_recfg_omega_one_ignores_lambda(self):
        eps_c, eps_u = np.array([1.0, 2.0]), np.array([-3.0, 0.5])
        for lam in (0.1, 0.5, 1.0):
            np.testing.assert_allclose(recfg_combine(eps_c, eps_u, 1.0, lam), eps_c, atol=0)

    def test_recfg_frozen_example(self):
        out = recfg_combine(np.array([0.0, 2.0]), np.array([2.0, 0.0]), 2.0, 0.5)
        np.testing.assert_allclose(out, [-1.0, 4.0], atol=1e-15)

    def test_cfgpp_lambda_one(self):
        rng = np.random.default_rng(30)
        x_t, eps_c, eps_u = rng.standard_normal((3, 4))
        denoise, renoise = cfgpp_predictions(eps_c, eps_u, 1.0, x_t, 0.3)
        np.testing.assert_allclose(denoise, x0_from_eps(x_t, eps_c, 0.3), atol=1e-15)
        np.testing.assert_array_equal(renoise, eps_u)

    def test_cfgpp_identical_predictions_collapse(self):
        rng = np.random.default_rng(32)
        x_t = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        denoise, renoise = cfgpp_predictions(eps, eps, 0.4, x_t, 0.6)
        np.testing.assert_allclose(denoise, x0_from_eps(x_t, eps, 0.6), atol=1e-15)
        np.testing.assert_array_equal(renoise, eps)

    def test_cfgpp_mixing(self):
        denoise, renoise = cfgpp_predictions(
            np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.5, np.zeros(2), 0.5
        )
        mixed = np.array([0.5, 0.5])
        np.testing.assert_allclose(denoise, x0_from_eps(np.zeros(2), mixed, 0.5), atol=1e-15)
        np.testing.assert_allclose(renoise, [1.0, 0.0], atol=0)

    def test_cfgpp_lambda_range(self):
        with pytest.raises(ValueError, match="lambda"):
            cfgpp_predictions(np.zeros(2), np.zeros(2), 0.0, np.zeros(2), 0.5)


class TestGuidanceConfig:
    def test_defaults_valid(self):
        cfg = GuidanceConfig()
        assert cfg.strategy == "cfg"
        assert cfg.angle_cap == pytest.approx(math.pi / 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            GuidanceConfig(strategy="nope")
        with pytest.raises(ValueError, match="omega"):
            GuidanceConfig(omega=0.5)
        with pytest.raises(ValueError, match="angle_cap"):
            GuidanceConfig(angle_cap=4.0)
        with pytest.raises(ValueError, match="langevin"):
            GuidanceConfig(pcg_langevin_mode="other")

    def test_infinite_omega_is_refused(self):
        with pytest.raises(ValueError, match="must be finite"):
            GuidanceConfig(omega=math.inf)

    def test_recfg_lambda_table(self):
        cfg = GuidanceConfig(recfg_lambda={0: 0.5, 2: 0.8})
        assert cfg.recfg_lambda_for(0) == 0.5
        assert cfg.recfg_lambda_for(2) == 0.8
        with pytest.raises(ValueError, match="no recfg lambda"):
            cfg.recfg_lambda_for(1)

    def test_prediction_pair_validation(self):
        with pytest.raises(ValueError, match="shape"):
            PredictionPair.of(
                x0_cond=np.zeros(2), x0_uncond=np.zeros(3), x_t=np.zeros(2), alpha_bar_t=0.5
            )
        with pytest.raises(ValueError, match="alpha_bar"):
            pair_of([1.0], [1.0], alpha_bar=1.0)
        with pytest.raises(ValueError, match="alpha_bar"):
            pair_of([1.0], [1.0], alpha_bar=-0.25)
        # alpha_bar = 0 is the flow path's start: the pair takes it, the
        # eps-space change of variable does not
        pure_noise = pair_of([0.0, 2.0], [1.0, 0.0], alpha_bar=0.0)
        np.testing.assert_array_equal(adg_rotate(pure_noise, 1.0)[0], pure_noise.x0_cond)
        with pytest.raises(ValueError, match="alpha_bar"):
            eps_from_x0(pure_noise.x_t, pure_noise.x0_cond, pure_noise.alpha_bar_t)
