"""Mixture densities, scores, posterior quantities and surface certificates."""

import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import linprog

import guidance_lab.mixture as mx
from guidance_lab.mixture import (
    HULL_DISTANCE_FLOOR,
    GaussianMixture,
    classify_component,
    finite_diff_score,
    log_density_t,
    posterior_mean_x0,
    posterior_weights,
    project_onto_hull,
    score,
    surface_certificate,
)
from guidance_lab.samplers import flow_posterior_mean_x1
from guidance_lab.verify import random_mixture_cases

PAIR_1D = GaussianMixture(dim=1, means=[[-1.0], [1.0]], weights=[0.5, 0.5])
SQUARE = GaussianMixture(
    dim=2, means=[[1, 1], [1, -1], [-1, 1], [-1, -1]], weights=[0.25] * 4
)


def random_cases(n, seed, max_dim=8, max_components=6, alpha_lo=0.02, alpha_hi=0.99):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        dim = int(rng.integers(1, max_dim + 1))
        n_comp = int(rng.integers(1, max_components + 1))
        means = rng.standard_normal((n_comp, dim))
        means *= (rng.uniform(0, 5, n_comp) / np.maximum(np.linalg.norm(means, axis=1), 1e-12))[:, None]
        weights = rng.dirichlet(np.ones(n_comp))
        gmm = GaussianMixture(dim=dim, means=means, weights=weights / weights.sum())
        x = rng.standard_normal(dim)
        x *= rng.uniform(0, 10) / max(np.linalg.norm(x), 1e-12)
        alpha_bar = float(rng.uniform(alpha_lo, alpha_hi))
        condition = int(rng.integers(0, n_comp))
        yield gmm, x, alpha_bar, condition


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture(dim=1, means=[[0.0], [1.0]], weights=[0.5, 0.4])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianMixture(dim=1, means=[[0.0], [1.0]], weights=[1.0, 0.0])

    def test_mean_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            GaussianMixture(dim=3, means=[[0.0, 1.0]], weights=[1.0])

    def test_ragged_means_name_the_means(self):
        for means in ([[1.0], [1.0, 2.0]], [[1.0, 2.0], 3.0], [["a", 1.0]]):
            with pytest.raises(mx.FieldError, match=r"means must be a \(C, 2\) array") as caught:
                GaussianMixture(dim=2, means=means, weights=[0.5, 0.5])
            assert caught.value.fields == ("means",)

    def test_means_whose_squared_distances_overflow_rejected(self):
        # 4 * max |mu_c|^2 bounds every squared distance between two means
        GaussianMixture(dim=2, means=[[6e153, 0.0], [-6e153, 0.0]], weights=[0.5, 0.5])
        for means in ([[1e154, 0.0], [-1e154, 0.0]], [[1e160, 0.0], [0.0, 1.0]]):
            with pytest.raises(ValueError, match=r"max \|mu_c\|\^2, .* must be finite, got inf"):
                GaussianMixture(dim=2, means=means, weights=[0.5, 0.5])

    def test_point_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            log_density_t(PAIR_1D, np.zeros(2), 0.5)

    def test_component_index_checked(self):
        with pytest.raises(ValueError, match="component index"):
            score(PAIR_1D, np.zeros(1), 0.5, 2)

    def test_alpha_bar_range(self):
        with pytest.raises(ValueError, match="alpha_bar"):
            log_density_t(PAIR_1D, np.zeros(1), 0.0)
        with pytest.raises(ValueError, match="alpha_bar"):
            log_density_t(PAIR_1D, np.zeros(1), 1.2)


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        g = GaussianMixture(dim=1, means=[[0.0]], weights=[1.0])
        assert log_density_t(g, np.array([0.0]), 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_point_at_scaled_mean(self):
        # x equals sqrt(0.25) * (2, 0), so only the normalizer remains
        g = GaussianMixture(dim=2, means=[[2.0, 0.0]], weights=[1.0])
        assert log_density_t(g, np.array([1.0, 0.0]), 0.25) == pytest.approx(
            -math.log(2 * math.pi), abs=1e-12
        )

    def test_mixture_against_direct_summation(self):
        # extended-precision direct summation oracle
        mp.mp.dps = 40
        def npdf(x, m):
            return mp.exp(-((x - m) ** 2) / 2) / mp.sqrt(2 * mp.pi)
        expected = float(mp.log(mp.mpf("0.5") * npdf(mp.mpf("0.5"), 1) + mp.mpf("0.5") * npdf(mp.mpf("0.5"), -1)))
        value = log_density_t(PAIR_1D, np.array([0.5]), 1.0)
        assert value == pytest.approx(expected, abs=1e-14)
        assert value == pytest.approx(-1.4238240262463952, abs=1e-12)

    def test_large_point_stays_finite(self):
        value = log_density_t(PAIR_1D, np.array([1e4]), 0.5)
        assert math.isfinite(value)

    def test_batch_matches_single(self):
        xs = np.array([[0.5], [-0.3], [2.0]])
        batch = log_density_t(PAIR_1D, xs, 0.7)
        singles = [log_density_t(PAIR_1D, x, 0.7) for x in xs]
        np.testing.assert_allclose(batch, singles, atol=1e-15)


class TestScores:
    def test_zero_at_scaled_mean(self):
        g = GaussianMixture(dim=2, means=[[2.0, 0.0]], weights=[1.0])
        np.testing.assert_allclose(
            score(g, np.array([1.0, 0.0]), 0.25, 0), np.zeros(2), atol=0
        )

    def test_outward_probe_gives_minus_kw(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            mu = rng.standard_normal(dim)
            w = rng.standard_normal(dim)
            w /= np.linalg.norm(w)
            k = float(rng.uniform(0.01, 3.0))
            alpha_bar = float(rng.uniform(0.1, 1.0))
            g = GaussianMixture(dim=dim, means=[mu], weights=[1.0])
            x = math.sqrt(alpha_bar) * mu + k * w
            np.testing.assert_allclose(
                score(g, x, alpha_bar, 0), -k * w, atol=1e-12
            )

    def test_direct_formula_value(self):
        g = GaussianMixture(dim=2, means=[[1.0, 2.0]], weights=[1.0])
        np.testing.assert_allclose(
            score(g, np.zeros(2), 0.81, 0), [0.9, 1.8], atol=1e-15
        )

    def test_unconditional_symmetric_cancellation(self):
        np.testing.assert_allclose(
            score(PAIR_1D, np.array([0.0]), 0.5), [0.0], atol=1e-15
        )

    def test_single_component_reduces_to_conditional(self):
        g = GaussianMixture(dim=3, means=[[1.0, -1.0, 0.5]], weights=[1.0])
        x = np.array([0.3, 0.1, -0.2])
        np.testing.assert_allclose(
            score(g, x, 0.6), score(g, x, 0.6, 0), atol=0
        )

    def test_frozen_mixture_value(self):
        # logistic-gap oracle: -0.5 + tanh-like reweighting of the two means
        value = score(PAIR_1D, np.array([0.5]), 1.0)
        np.testing.assert_allclose(value, [-0.037882842739990241], atol=1e-14)

    def test_translation_equivariance_at_full_signal(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            means = rng.standard_normal((3, 2))
            g = GaussianMixture(dim=2, means=means, weights=[1 / 3] * 3)
            v = rng.standard_normal(2)
            shifted = GaussianMixture(dim=2, means=means + v, weights=[1 / 3] * 3)
            x = rng.standard_normal(2)
            np.testing.assert_allclose(
                score(shifted, x + v, 1.0, 1),
                score(g, x, 1.0, 1),
                atol=1e-12,
            )


class TestPosteriorWeights:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(
            posterior_weights(PAIR_1D, np.array([0.0]), 1.0), [0.5, 0.5], atol=1e-15
        )

    def test_single_component(self):
        g = GaussianMixture(dim=1, means=[[2.0]], weights=[1.0])
        np.testing.assert_allclose(posterior_weights(g, np.array([5.0]), 0.5), [1.0])

    def test_frozen_logistic_value(self):
        # 1 / (1 + e^-1) for the favored component
        np.testing.assert_allclose(
            posterior_weights(PAIR_1D, np.array([0.5]), 1.0),
            [0.26894142136999512, 0.73105857863000488],
            atol=1e-14,
        )

    def test_probability_vector_over_random_draws(self):
        for gmm, x, alpha_bar, _ in random_cases(300, seed=3):
            resp = posterior_weights(gmm, x, alpha_bar)
            assert abs(resp.sum() - 1.0) <= 1e-12
            assert np.all(resp >= 0)

    def test_log_weight_shift_invariance(self):
        # responsibilities depend on weight ratios only
        x = np.array([0.7])
        base = posterior_weights(PAIR_1D, x, 0.5)
        logits = np.log(PAIR_1D.weights) + 123.456
        logits = logits + np.array(
            [log_density_t(PAIR_1D, x, 0.5, c) for c in range(2)]
        )
        shifted = np.exp(logits - logits.max())
        shifted /= shifted.sum()
        np.testing.assert_allclose(base, shifted, atol=1e-14)


# means on the first axis: far out along the second, every component sees the
# same huge |x|^2, and only x . mu_c tells them apart
FAR_LINE = GaussianMixture(dim=2, means=[[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]],
                           weights=[0.2, 0.3, 0.5])
FAR_OFFSETS = (1e-3, 0.3, 2.0)


def mp_responsibilities(gmm, x, a, v):
    """50-digit softmax_c(log pi_c - |x - a mu_c|^2 / (2 v)) of float inputs."""
    with mp.workdps(50):
        logits = [
            mp.log(w) - mp.fsum((mp.mpf(xi) - a * mi) ** 2 for xi, mi in zip(x, m)) / (2 * v)
            for w, m in zip(gmm.weights.tolist(), gmm.means.tolist())
        ]
        top = max(logits)
        e = [mp.exp(value - top) for value in logits]
        total = mp.fsum(e)
        return [value / total for value in e]


def assert_rel_close(got, ref, rel=1e-13):
    with mp.workdps(50):
        for g, r in zip(np.asarray(got).tolist(), ref):
            assert abs(mp.mpf(g) - r) <= rel * abs(r), (g, r)


class TestResponsibilityKernel:
    """The Gram-form kernel behind posterior_weights and the flow posterior."""

    def test_derived_vectors_are_stored_read_only(self):
        np.testing.assert_array_equal(SQUARE.log_weights, np.log(SQUARE.weights))
        np.testing.assert_array_equal(SQUARE.half_sq_norms, [1.0] * 4)
        for arr in (SQUARE.log_weights, SQUARE.half_sq_norms):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("radius", [1e2, 1e4, 1e6, 1e8])
    def test_far_field_weights_match_mpmath(self, radius):
        for delta in FAR_OFFSETS:
            x = np.array([delta, -radius])
            with mp.workdps(50):
                ref = mp_responsibilities(FAR_LINE, x.tolist(), mp.sqrt(mp.mpf(0.5)), 1)
            assert_rel_close(posterior_weights(FAR_LINE, x, 0.5), ref)

    @pytest.mark.parametrize("radius", [1e2, 1e4, 1e6, 1e8])
    def test_far_field_flow_posterior_matches_mpmath(self, radius):
        means = FAR_LINE.means.tolist()
        for delta in FAR_OFFSETS:
            x = np.array([delta, -radius])
            for t in (0.0, 0.5, 0.9):
                with mp.workdps(50):
                    t_mp = mp.mpf(t)
                    var = (1 - (1 - mp.mpf(0.1)) * t_mp) ** 2
                    resp = mp_responsibilities(FAR_LINE, x.tolist(), t_mp, var + t_mp**2)
                    ref = [(mp.fsum(r * m[k] for r, m in zip(resp, means)) + t_mp / var * x[k])
                           / (1 + t_mp**2 / var) for k in range(2)]
                assert_rel_close(flow_posterior_mean_x1(FAR_LINE, x, t, 0.1), ref)

    @pytest.mark.parametrize("dim, n_comp", [(2, 4), (32, 16)])
    def test_rows_equal_one_row_calls(self, dim, n_comp):
        # einsum row sums do not depend on the batch size; a BLAS matmul's may
        rng = np.random.default_rng(dim)
        weights = rng.dirichlet(np.ones(n_comp))
        gmm = GaussianMixture(dim=dim, means=2 * rng.standard_normal((n_comp, dim)),
                              weights=weights / weights.sum())
        x = 3 * rng.standard_normal((3000, dim))
        for fn in (lambda p: posterior_weights(gmm, p, 0.4),
                   lambda p: posterior_mean_x0(gmm, p, 0.4),
                   lambda p: score(gmm, p, 0.4),
                   lambda p: flow_posterior_mean_x1(gmm, p, 0.6, 0.1)):
            single = np.concatenate([fn(x[i:i + 1]) for i in range(len(x))])
            for n in (1, 2, 7, 192, 3000):
                np.testing.assert_array_equal(fn(x[:n]), single[:n])


class TestPosteriorMean:
    def test_consistency_at_mean(self):
        g = GaussianMixture(dim=2, means=[[1.5, -2.0]], weights=[1.0])
        mu = np.array([1.5, -2.0])
        for alpha_bar in (0.1, 0.5, 0.9):
            x = math.sqrt(alpha_bar) * mu
            np.testing.assert_allclose(posterior_mean_x0(g, x, alpha_bar, 0), mu, atol=1e-14)

    def test_single_component_formula(self):
        g = GaussianMixture(dim=2, means=[[1.0, 0.0]], weights=[1.0])
        np.testing.assert_allclose(
            posterior_mean_x0(g, np.zeros(2), 0.25, 0), [0.75, 0.0], atol=1e-15
        )

    def test_symmetric_mixture_at_origin(self):
        np.testing.assert_allclose(
            posterior_mean_x0(PAIR_1D, np.array([0.0]), 0.5), [0.0], atol=1e-15
        )

    def test_full_signal_rejected(self):
        with pytest.raises(ValueError, match="alpha_bar"):
            posterior_mean_x0(PAIR_1D, np.array([0.0]), 1.0)

    def test_index_array_rows_equal_one_component_calls(self):
        # the sampler's drive conditions every row through an (n,) index
        # array, so each row must equal the one-component call bit for bit
        rng = np.random.default_rng(18)
        for gmm, _, alpha_bar, _ in random_cases(100, seed=18):
            x = rng.standard_normal((12, gmm.dim)) * 10.0 ** rng.integers(-3, 4, (12, 1))
            cond = rng.integers(0, gmm.n_components, 12)
            rows = posterior_mean_x0(gmm, x, alpha_bar, cond)
            for c in range(gmm.n_components):
                alone = posterior_mean_x0(gmm, x[cond == c], alpha_bar, c)
                assert rows[cond == c].tobytes() == alone.tobytes()

    def test_score_identity_randomized(self):
        # denoising-mean/score identity at 1e-10
        for gmm, x, alpha_bar, condition in random_cases(300, seed=17):
            beta_bar = 1.0 - alpha_bar
            for cond in (condition, None):
                x0_hat = posterior_mean_x0(gmm, x, alpha_bar, cond)
                implied = (math.sqrt(alpha_bar) * x0_hat - x) / beta_bar
                assert np.max(np.abs(implied - score(gmm, x, alpha_bar, cond))) < 1e-10


class TestFiniteDifferenceOracle:
    def test_single_gaussian_matches_closed_form(self):
        g = GaussianMixture(dim=3, means=[[1.0, -2.0, 0.3]], weights=[1.0])
        x = np.array([0.2, 0.5, -1.0])
        np.testing.assert_allclose(
            finite_diff_score(g, x, 0.7, 0, h=1e-4),
            score(g, x, 0.7, 0),
            atol=1e-5,
        )

    def test_symmetric_mixture_at_origin(self):
        np.testing.assert_allclose(
            finite_diff_score(PAIR_1D, np.array([0.0]), 0.5), [0.0], atol=1e-6
        )

    def test_frozen_mixture_value(self):
        np.testing.assert_allclose(
            finite_diff_score(PAIR_1D, np.array([0.5]), 1.0),
            [-0.037882842739990241],
            atol=1e-6,
        )

    def test_oracle_equivalence_randomized(self):
        for gmm, x, alpha_bar, condition in random_cases(200, seed=29):
            for cond in (condition, None):
                closed = score(gmm, x, alpha_bar, cond)
                numeric = finite_diff_score(gmm, x, alpha_bar, cond, h=1e-4)
                assert np.max(np.abs(closed - numeric)) < 1e-5

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="h must be positive"):
            finite_diff_score(PAIR_1D, np.array([0.0]), 0.5, h=0.0)

    @staticmethod
    def one_point_per_call(gmm, x, alpha_bar, condition, h=1e-4):
        grad = np.empty_like(x)
        for j in range(gmm.dim):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fp = log_density_t(gmm, xp, alpha_bar, condition)
            fm = log_density_t(gmm, xm, alpha_bar, condition)
            grad[j] = (fp - fm) / (2.0 * h)
        return grad

    @pytest.mark.parametrize("seed", [0, 169886732])
    def test_batched_points_equal_one_call_per_point_bitwise(self, seed):
        for gmm, x, alpha_bar, condition in random_mixture_cases(200, seed):
            for cond in (condition, None):
                assert np.array_equal(
                    finite_diff_score(gmm, x, alpha_bar, cond),
                    self.one_point_per_call(gmm, x, alpha_bar, cond),
                )

    def test_wide_point_is_evaluated_in_bounded_chunks(self):
        rng = np.random.default_rng(5)
        gmm = GaussianMixture(dim=512, means=rng.standard_normal((4, 512)), weights=[0.25] * 4)
        x = rng.standard_normal(512)
        finite_diff_score(gmm, x, 0.5)  # warm the call path once
        for cond in (1, None):
            tracemalloc.start()
            try:
                grad = finite_diff_score(gmm, x, 0.5, cond)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one call over all 1024 points would hold 1024 x 4 x 512 x 8 bytes twice
            assert peak <= mx._FD_CHUNK_BYTES
            assert np.array_equal(grad, self.one_point_per_call(gmm, x, 0.5, cond))


def brute_force_hull_projection(points, target, refinements=60):
    """Oracle: dense barycentric search with local refinement."""
    points = np.asarray(points, float)
    n = len(points)
    rng = np.random.default_rng(0)
    best = None
    best_lam = None
    candidates = rng.dirichlet(np.ones(n), size=20000)
    candidates = np.vstack([candidates, np.eye(n)])
    dists = np.linalg.norm(candidates @ points - target, axis=1)
    idx = int(np.argmin(dists))
    best, best_lam = dists[idx], candidates[idx]
    scale = 0.5
    for _ in range(refinements):
        local = best_lam + scale * rng.standard_normal((2000, n))
        local = np.abs(local)
        local /= local.sum(axis=1, keepdims=True)
        dists = np.linalg.norm(local @ points - target, axis=1)
        idx = int(np.argmin(dists))
        if dists[idx] < best:
            best, best_lam = dists[idx], local[idx]
        scale *= 0.8
    return best_lam @ points, best


def hull_projection_family():
    """Every component's mean against the hull of the other means, over
    random_mixture_cases(300, 3, max_dim=8, max_components=12), then 150
    points inside a random simplex by construction: 2031 projections."""
    for gmm, *_ in random_mixture_cases(300, 3, max_dim=8, max_components=12):
        for c in range(gmm.n_components if gmm.n_components > 1 else 0):
            yield np.delete(gmm.means, c, axis=0), gmm.means[c]
    rng = np.random.default_rng(1)
    for _ in range(150):
        dim = int(rng.integers(2, 6))
        vertices = rng.uniform(-5.0, 5.0, (dim + 1, dim))
        yield vertices, rng.dirichlet(np.ones(dim + 1)) @ vertices


def in_hull_by_linprog(points, target):
    """Oracle: target lies in conv(points) iff lam >= 0, sum(lam) = 1,
    points^T lam = target is feasible."""
    n = len(points)
    result = linprog(np.zeros(n), A_eq=np.vstack([points.T, np.ones(n)]),
                     b_eq=np.append(target, 1.0), bounds=(0, None), method="highs")
    assert result.status in (0, 2), result.message  # feasible or infeasible
    return result.status == 0


def assert_exact_projection(points, target, kkt=1e-12):
    """Simplex coefficients that describe the projection, and first-order
    optimality x.(p_j - x) >= 0 for p = points - target, x = projection - target,
    relative to max_j |p_j|^2."""
    projection, lam = project_onto_hull(points, target)
    p, x = points - target, projection - target
    scale = np.max(np.einsum("nd,nd->n", p, p))
    assert lam.min() >= 0.0 and abs(lam.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(lam @ p - x)) <= 1e-12 * math.sqrt(scale)
    assert x @ x - np.min(p @ x) <= kkt * scale
    return projection


class TestHullProjection:
    """Wolfe's minimum-norm-point method against independent references."""

    def test_classification_agrees_with_linprog_oracle(self):
        cases = list(hull_projection_family())
        assert len(cases) == 2031
        for points, target in cases:
            projection = assert_exact_projection(points, target)
            outside = np.linalg.norm(projection - target) > HULL_DISTANCE_FLOOR
            assert outside != in_hull_by_linprog(points, target), (points, target)

    def test_degenerate_inputs(self):
        # repeated points, collinear sets, a target on a vertex, and hulls
        # flat to a relative 1e-5..1e-14 (which the normal equations D D^T,
        # squaring the conditioning, cannot resolve), at scales 1e-8..1e8
        rng = np.random.default_rng(7)
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            base = rng.standard_normal((int(rng.integers(2, 8)), dim))
            line = base[0] + rng.uniform(-2, 2, (5, 1)) * base[1]
            flat = rng.standard_normal((2 * dim, dim - 1)) @ rng.standard_normal((dim - 1, dim))
            for scale in (1e-8, 1.0, 1e8):
                assert_exact_projection(scale * base[rng.integers(0, len(base), 9)],
                                        scale * rng.standard_normal(dim))
                assert_exact_projection(scale * line, scale * rng.standard_normal(dim))
                np.testing.assert_array_equal(
                    assert_exact_projection(scale * base, scale * base[0]), scale * base[0])
                for eps in (1e-5, 1e-8, 1e-11, 1e-14):
                    thin = flat + eps * rng.standard_normal(flat.shape)
                    assert_exact_projection(scale * thin, scale * rng.standard_normal(dim))

    def test_square_projection_is_exact(self):
        # exact data stays exact: the surface normals of the square are the diagonals
        for c in range(4):
            projection, lam = project_onto_hull(np.delete(SQUARE.means, c, axis=0),
                                                SQUARE.means[c])
            np.testing.assert_array_equal(projection, [0.0, 0.0])
            assert sorted(lam) == [0.0, 0.5, 0.5]


class TestSurfaceCertificates:
    def test_square_every_vertex_is_surface(self):
        for c in range(4):
            cert = surface_certificate(SQUARE, c)
            assert cert is not None
            # diagonal unit normal, margin sqrt(2) against the facing edge
            np.testing.assert_allclose(np.abs(cert.normal), [math.sqrt(0.5)] * 2, atol=1e-9)
            assert cert.min_margin == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_collinear_midpoint_is_interior(self):
        g = GaussianMixture(dim=1, means=[[-1.0], [0.0], [1.0]], weights=[1 / 3] * 3)
        decision = classify_component(g, 1)
        assert decision.status == "interior"
        assert decision.certificate is None
        assert surface_certificate(g, 0) is not None

    def test_interior_by_construction_is_interior(self):
        # a Dirichlet-weighted point inside a random simplex; a projection
        # that stops short of the hull hands out a normal that leaves other
        # means above the hyperplane
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            vertices = rng.uniform(-5.0, 5.0, (dim + 1, dim))
            inside = rng.dirichlet(np.ones(dim + 1)) @ vertices
            g = GaussianMixture(dim=dim, means=np.vstack([vertices, inside]),
                                weights=np.full(dim + 2, 1.0 / (dim + 2)))
            decision = classify_component(g, dim + 1)
            assert decision.status == "interior"
            assert decision.certificate is None
            for c in range(dim + 1):
                cert = surface_certificate(g, c)
                assert cert is not None and cert.min_margin > HULL_DISTANCE_FLOOR

    def test_triangle_vertex_normal_matches_oracle(self):
        g = GaussianMixture(dim=2, means=[[0, 0], [1, 0], [0, 1]], weights=[1 / 3] * 3)
        cert = surface_certificate(g, 0)
        assert cert is not None
        np.testing.assert_allclose(cert.normal, [-math.sqrt(0.5), -math.sqrt(0.5)], atol=1e-7)
        proj_oracle, dist_oracle = brute_force_hull_projection(g.means[1:], g.means[0])
        np.testing.assert_allclose(proj_oracle, [0.5, 0.5], atol=1e-3)
        decision = classify_component(g, 0)
        assert decision.hull_distance == pytest.approx(dist_oracle, abs=1e-3)

    def test_degenerate_coincident_means(self):
        g = GaussianMixture(dim=2, means=[[1.0, 1.0]] * 3, weights=[1 / 3] * 3)
        for c in range(3):
            decision = classify_component(g, c)
            assert decision.status == "degenerate"
            assert decision.certificate is None

    def test_certificate_invariants(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n_comp = int(rng.integers(2, 7))
            dim = int(rng.integers(1, 5))
            means = rng.standard_normal((n_comp, dim)) * 2.0
            g = GaussianMixture(dim=dim, means=means, weights=np.full(n_comp, 1 / n_comp))
            for c in range(n_comp):
                cert = surface_certificate(g, c)
                if cert is None:
                    continue
                assert abs(cert.normal @ means[c] + cert.offset) <= 1e-9
                assert abs(np.linalg.norm(cert.normal) - 1.0) <= 1e-12
                assert cert.min_margin > 0
                for o in range(n_comp):
                    if o != c:
                        assert cert.normal @ means[o] + cert.offset <= -cert.min_margin + 1e-12

    def test_min_margin_is_the_exact_margin_rounded(self):
        # the certificate's margins are exact statements about its float normal
        # and the float means; a float dot product misses the last bit about
        # half the time
        certified = 0
        for gmm, *_ in random_mixture_cases(100, 3, max_dim=8, max_components=12):
            means = gmm.means.tolist()
            for c in range(gmm.n_components if gmm.n_components > 1 else 0):
                cert = surface_certificate(gmm, c)
                if cert is None:
                    continue
                certified += 1
                w = [Fraction(v) for v in cert.normal.tolist()]
                exact = min(
                    sum(wd * (Fraction(a) - Fraction(b)) for wd, a, b in zip(w, means[c], row))
                    for o, row in enumerate(means) if o != c)
                assert exact > HULL_DISTANCE_FLOOR
                assert cert.min_margin == float(exact)
        assert certified > 300

    def test_projection_matches_brute_force(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            points = rng.standard_normal((4, 3))
            target = rng.standard_normal(3) * 2
            proj, _ = project_onto_hull(points, target)
            _, dist_oracle = brute_force_hull_projection(points, target)
            assert np.linalg.norm(proj - target) == pytest.approx(dist_oracle, abs=2e-3)

    def test_requires_two_components(self):
        g = GaussianMixture(dim=1, means=[[0.0]], weights=[1.0])
        with pytest.raises(ValueError, match="two components"):
            classify_component(g, 0)
