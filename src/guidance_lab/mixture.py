"""Closed-form densities, scores and posterior quantities for Gaussian mixtures.

The target is a mixture of unit-covariance Gaussians.  Pushed through the
variance-preserving forward process to signal level ``alpha_bar``, each
component stays a unit-covariance Gaussian centered at
``sqrt(alpha_bar) * mu_c`` (component variance ``alpha_bar + beta_bar = 1``),
so every quantity below is exact:

* conditional score:      ``sqrt(alpha_bar) * mu_c - x``
* marginal score:         ``-x + sqrt(alpha_bar) * sum_c resp_c(x) * mu_c``
* denoising mean (cond.): ``beta_bar * mu_c + sqrt(alpha_bar) * x``

All point operations broadcast over leading axes: ``x`` may be a single
vector ``(dim,)`` or a batch ``(..., dim)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianMixture",
    "SurfaceCertificate",
    "ComponentClassification",
    "log_density_t",
    "score_conditional",
    "score_unconditional",
    "posterior_weights",
    "posterior_mean_x0",
    "finite_diff_score",
    "surface_certificate",
    "classify_component",
    "project_onto_hull",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Hull distances below this are treated as "on the hull", i.e. not a vertex.
HULL_DISTANCE_FLOOR = 1e-7


@dataclass(frozen=True)
class GaussianMixture:
    """Unit-covariance Gaussian mixture: C means with mixing weights."""

    dim: int
    means: np.ndarray    # (C, dim)
    weights: np.ndarray  # (C,)

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if means.ndim != 2 or means.shape[1] != self.dim:
            raise ValueError(f"means must have shape (C, {self.dim}), got {means.shape}")
        if weights.shape[0] != means.shape[0]:
            raise ValueError("means and weights must have the same component count")
        if means.shape[0] < 1:
            raise ValueError("at least one component required")
        if np.any(weights <= 0):
            raise ValueError("all mixing weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixing weights must sum to 1, got {weights.sum()!r}")
        means.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]


def _as_points(gmm: GaussianMixture, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (gmm.dim,):
        raise ValueError(f"point dimension {x.shape} incompatible with mixture dim {gmm.dim}")
    return x

def _check_alpha_bar(alpha_bar: float, *, allow_one: bool) -> float:
    alpha_bar = float(alpha_bar)
    hi_ok = alpha_bar <= 1.0 if allow_one else alpha_bar < 1.0
    if not (0.0 < alpha_bar and hi_ok):
        bound = "(0, 1]" if allow_one else "(0, 1)"
        raise ValueError(f"alpha_bar must lie in {bound}, got {alpha_bar}")
    return alpha_bar

def _check_condition(gmm: GaussianMixture, condition: int) -> int:
    condition = int(condition)
    if not 0 <= condition < gmm.n_components:
        raise ValueError(f"component index {condition} outside [0, {gmm.n_components})")
    return condition


def _component_log_densities(gmm: GaussianMixture, x: np.ndarray, alpha_bar: float) -> np.ndarray:
    """log N(x; sqrt(alpha_bar)*mu_c, I) for every component; shape (..., C)."""
    diff = x[..., None, :] - math.sqrt(alpha_bar) * gmm.means  # (..., C, dim)
    sq = np.sum(diff * diff, axis=-1)
    return -0.5 * (gmm.dim * _LOG_2PI + sq)


def log_density_t(
    gmm: GaussianMixture,
    x: np.ndarray,
    alpha_bar: float,
    condition: int | None = None,
) -> float | np.ndarray:
    """Log density of the noised mixture (or of one component) at x.

    Mixture marginals are evaluated with log-sum-exp so large ``|x|``
    stays finite.
    """
    alpha_bar = _check_alpha_bar(alpha_bar, allow_one=True)
    x = _as_points(gmm, x)
    log_comp = _component_log_densities(gmm, x, alpha_bar)
    if condition is not None:
        out = log_comp[..., _check_condition(gmm, condition)]
    else:
        logits = log_comp + np.log(gmm.weights)
        top = logits.max(axis=-1)
        out = top + np.log(np.sum(np.exp(logits - top[..., None]), axis=-1))
    return float(out) if out.ndim == 0 else out


def score_conditional(
    gmm: GaussianMixture, x: np.ndarray, alpha_bar: float, condition: int
) -> np.ndarray:
    """Gradient of the conditional log density: sqrt(alpha_bar)*mu_c - x."""
    alpha_bar = _check_alpha_bar(alpha_bar, allow_one=True)
    x = _as_points(gmm, x)
    mu = gmm.means[_check_condition(gmm, condition)]
    return math.sqrt(alpha_bar) * mu - x


def posterior_weights(gmm: GaussianMixture, x: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Component responsibilities at x; shape (..., C), rows sum to 1."""
    alpha_bar = _check_alpha_bar(alpha_bar, allow_one=True)
    x = _as_points(gmm, x)
    return _normalized_exp(_component_log_densities(gmm, x, alpha_bar) + np.log(gmm.weights))


def _normalized_exp(logits: np.ndarray) -> np.ndarray:
    """exp(logits) normalized along the last axis, max-shifted so nothing overflows."""
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def score_unconditional(gmm: GaussianMixture, x: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Gradient of the mixture log density: -x + sqrt(alpha_bar) * E_resp[mu]."""
    resp = posterior_weights(gmm, x, alpha_bar)
    x = _as_points(gmm, x)
    return -x + math.sqrt(alpha_bar) * (resp @ gmm.means)


def posterior_mean_x0(
    gmm: GaussianMixture,
    x: np.ndarray,
    alpha_bar: float,
    condition: int | None = None,
) -> np.ndarray:
    """Denoising posterior mean E[x0 | x_t = x].

    Conditional case: ``beta_bar * mu_c + sqrt(alpha_bar) * x``.  The
    mixture case weighs the per-component posterior means by the
    responsibilities.  Satisfies the score identity
    ``(sqrt(alpha_bar) * result - x) / beta_bar == score``.
    """
    alpha_bar = _check_alpha_bar(alpha_bar, allow_one=False)
    x = _as_points(gmm, x)
    beta_bar = 1.0 - alpha_bar
    root = math.sqrt(alpha_bar)
    if condition is not None:
        mu = gmm.means[_check_condition(gmm, condition)]
        return beta_bar * mu + root * x
    resp = posterior_weights(gmm, x, alpha_bar)
    # einsum rather than a BLAS matmul: its per-row sums do not depend on
    # how many rows the batch holds, so a trajectory is the same in any batch
    return root * x + beta_bar * np.einsum("...c,cd->...d", resp, gmm.means)


# finite_diff_score evaluates its x +- h e_j points a chunk of coordinates at
# a time, sized so one chunk's points and (points, components, dim)
# temporaries hold at most this many bytes
_FD_CHUNK_BYTES = 2**20


def finite_diff_score(
    gmm: GaussianMixture,
    x: np.ndarray,
    alpha_bar: float,
    condition: int | None = None,
    h: float = 1e-4,
) -> np.ndarray:
    """Central-difference gradient of log_density_t, the score oracle.

    Every ``x + h e_j`` and ``x - h e_j`` goes through one batched
    log_density_t call per chunk of coordinates.  Each point is x with one
    coordinate stepped, rounded as in a one-point evaluation, and the
    row-wise sums do not depend on the batch, so the gradient is the same,
    bit for bit, as one call per point.
    """
    if not h > 0:
        raise ValueError("step size h must be positive")
    x = np.asarray(_as_points(gmm, x), dtype=float)
    if x.ndim != 1:
        raise ValueError("finite_diff_score expects a single point")
    # x, the gradient and the scaled means stay; each coordinate adds two
    # points, each with a (components, dim) difference array, its square
    # and the components' squared distances
    dim, n_comp = gmm.dim, gmm.n_components
    held = 8 * dim * (n_comp + 2)
    chunk = max(1, (_FD_CHUNK_BYTES - held) // (16 * (dim * (2 * n_comp + 1) + n_comp)))
    grad = np.empty_like(x)
    for start in range(0, dim, chunk):
        cols = np.arange(start, min(start + chunk, dim))
        steps = np.arange(len(cols))
        points = np.tile(x, (2, len(cols), 1))  # x + h e_j, then x - h e_j
        points[0, steps, cols] += h
        points[1, steps, cols] -= h
        fp, fm = log_density_t(gmm, points, alpha_bar, condition)
        grad[cols] = (fp - fm) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# Surface-class certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceCertificate:
    """Separating hyperplane w^T x + b = 0 witnessing a vertex component.

    ``normal`` is unit length, touches the certified mean
    (``w^T mu + b = 0``) and every other mean sits strictly on the
    negative side by at least ``min_margin``.
    """

    component_index: int
    normal: np.ndarray
    offset: float
    min_margin: float


@dataclass(frozen=True)
class ComponentClassification:
    """Outcome of the vertex test for one component.

    ``status`` is one of "surface", "interior", "degenerate";
    ``certificate`` is set only for "surface".
    """

    component_index: int
    status: str
    hull_distance: float
    certificate: SurfaceCertificate | None


def project_onto_hull(
    points: np.ndarray,
    target: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean projection of target onto conv(points) by projected gradient.

    Minimizes ``|points^T lam - target|^2`` over the probability simplex.
    Returns (projection, simplex coefficients).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float)
    n = points.shape[0]
    if n == 1:
        return points[0].copy(), np.array([1.0])
    lam = np.full(n, 1.0 / n)
    gram = points @ points.T
    lin = points @ target
    # Lipschitz constant of the gradient of |A^T lam - y|^2 is 2*||A||_2^2.
    lip = 2.0 * np.linalg.norm(points, 2) ** 2
    step = 1.0 / max(lip, 1e-30)
    for _ in range(max_iter):
        grad = 2.0 * (gram @ lam - lin)
        new = _project_simplex(lam - step * grad)
        if np.max(np.abs(new - lam)) < tol:
            lam = new
            break
        lam = new
    return points.T @ lam, lam


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def classify_component(gmm: GaussianMixture, component_index: int) -> ComponentClassification:
    """Vertex test: does the component mean stick out of the others' hull?

    Projects the candidate mean onto the convex hull of the remaining
    means.  A positive hull distance yields a candidate normal pointing
    from the projection toward the candidate; the component is "surface"
    only when every other mean then sits below the hyperplane by more
    than ``HULL_DISTANCE_FLOOR``.  Smaller hull distances or margins
    (an unconverged projection can leave a negative one) are classified
    non-surface, as is the all-means-coincide degenerate case.
    """
    component_index = _check_condition(gmm, component_index)
    if gmm.n_components < 2:
        raise ValueError("surface classification needs at least two components")
    mu_star = gmm.means[component_index]
    others = np.delete(gmm.means, component_index, axis=0)
    spread = np.max(np.abs(gmm.means - gmm.means[0]))
    if spread <= HULL_DISTANCE_FLOOR:
        return ComponentClassification(component_index, "degenerate", 0.0, None)
    projection, _ = project_onto_hull(others, mu_star)
    gap = mu_star - projection
    distance = float(np.linalg.norm(gap))
    if distance <= HULL_DISTANCE_FLOOR:
        return ComponentClassification(component_index, "interior", distance, None)
    normal = gap / distance
    offset = -float(normal @ mu_star)
    min_margin = float((-(others @ normal + offset)).min())
    if min_margin <= HULL_DISTANCE_FLOOR:
        return ComponentClassification(component_index, "interior", distance, None)
    cert = SurfaceCertificate(
        component_index=component_index,
        normal=normal,
        offset=offset,
        min_margin=min_margin,
    )
    return ComponentClassification(component_index, "surface", distance, cert)


def surface_certificate(gmm: GaussianMixture, component_index: int) -> SurfaceCertificate | None:
    """Certificate for a surface component, or None when there is none."""
    return classify_component(gmm, component_index).certificate
