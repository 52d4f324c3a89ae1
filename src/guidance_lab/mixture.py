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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FieldError",
    "GaussianMixture",
    "SurfaceCertificate",
    "ComponentClassification",
    "log_density_t",
    "score",
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


class FieldError(ValueError):
    """A broken input rule; ``fields`` names the parameters it checks, several for a tie."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class GaussianMixture:
    """Unit-covariance Gaussian mixture: C means with mixing weights.

    ``log_weights`` (log pi_c) and ``half_sq_norms`` (|mu_c|^2 / 2) are
    derived once, read-only, for the responsibility kernel.
    """

    dim: int
    means: np.ndarray    # (C, dim)
    weights: np.ndarray  # (C,)
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    half_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            means = np.atleast_2d(np.asarray(self.means, dtype=float))
        except ValueError as exc:  # rows of unequal length, or an entry that is no number
            raise FieldError(f"means must be a (C, {self.dim}) array of numbers", "means") from exc
        weights = np.asarray(self.weights, dtype=float).ravel()
        if self.dim < 1:
            raise FieldError("dim must be a positive integer", "dim")
        if means.ndim != 2 or means.shape[1] != self.dim:
            raise FieldError(f"means must have shape (C, {self.dim}), got {means.shape}",
                             "dim", "means")
        if weights.shape[0] != means.shape[0]:
            raise FieldError("means and weights must have the same component count",
                             "means", "weights")
        if means.shape[0] < 1:
            raise FieldError("at least one component required", "means")
        if np.any(weights <= 0):
            raise FieldError("all mixing weights must be positive", "weights")
        if abs((total := float(weights.sum())) - 1.0) > 1e-12:
            raise FieldError(f"mixing weights must sum to 1, got {total!r}", "weights")
        with np.errstate(all="ignore"):
            sq_norms = np.einsum("cd,cd->c", means, means)
            reach = 4.0 * sq_norms.max()  # bounds every squared distance between two means
        if not np.isfinite(reach):
            raise FieldError("4 * max |mu_c|^2, which bounds the squared distances between "
                             f"means, must be finite, got {reach}", "means")
        derived = {
            "means": means,
            "weights": weights,
            "log_weights": np.log(weights),
            "half_sq_norms": 0.5 * sq_norms,
        }
        for name, value in derived.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

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
        raise FieldError(f"alpha_bar must lie in {bound}, got {alpha_bar}", "alpha_bar")
    return alpha_bar

def _check_condition(gmm: GaussianMixture, condition: int) -> int:
    condition = int(condition)
    if not 0 <= condition < gmm.n_components:
        raise FieldError(f"component index {condition} outside [0, {gmm.n_components})",
                         "condition")
    return condition

def _condition_means(gmm: GaussianMixture, condition) -> np.ndarray:
    """mu_c for one component index, or the rows mu[cond] for an ``(n,)`` index array."""
    if np.ndim(condition) == 0:
        return gmm.means[_check_condition(gmm, condition)]
    cond = np.asarray(condition)
    if cond.dtype.kind not in "iu":
        raise ValueError(f"component indices must be integers, got dtype {cond.dtype}")
    outside = (cond < 0) | (cond >= gmm.n_components)
    if outside.any():
        _check_condition(gmm, cond[outside][0])
    return gmm.means[cond]


def _component_log_densities(gmm: GaussianMixture, x: np.ndarray, alpha_bar: float) -> np.ndarray:
    """log N(x; sqrt(alpha_bar)*mu_c, I) for every component; shape (..., C).

    The full form, |x|^2 term included, for :func:`log_density_t`, whose
    absolute value the score oracle differentiates; responsibilities go
    through :func:`_responsibilities`.
    """
    diff = x[..., None, :] - math.sqrt(alpha_bar) * gmm.means  # (..., C, dim)
    # squared in place: a second (..., C, dim) array costs far more than the
    # arithmetic once the batch outgrows about 256 KiB
    diff *= diff
    return -0.5 * (gmm.dim * _LOG_2PI + np.sum(diff, axis=-1))


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
        logits = log_comp + gmm.log_weights
        top = logits.max(axis=-1)
        out = top + np.log(np.sum(np.exp(logits - top[..., None]), axis=-1))
    return float(out) if out.ndim == 0 else out


def posterior_weights(gmm: GaussianMixture, x: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Component responsibilities at x; shape (..., C), rows sum to 1."""
    alpha_bar = _check_alpha_bar(alpha_bar, allow_one=True)
    x = _as_points(gmm, x)
    return _responsibilities(gmm, x, math.sqrt(alpha_bar), alpha_bar)


def _responsibilities(gmm: GaussianMixture, x: np.ndarray, root: float, scale: float) -> np.ndarray:
    """softmax_c(root * x.mu_c - scale * |mu_c|^2 / 2 + log pi_c); shape (..., C).

    The responsibilities when component c puts x at N(a * mu_c, v * I),
    with root = a / v and scale = a^2 / v (sqrt(alpha_bar) and alpha_bar
    for the noised mixture).  In this Gram form the |x|^2 term, common to
    every component, has cancelled: no (..., C, dim) difference array is
    built and nothing is lost to cancellation far from the means.  einsum
    rather than a BLAS matmul: its per-row sums do not depend on how many
    rows the batch holds.
    """
    logits = np.einsum("...d,cd->...c", x, gmm.means)
    logits *= root
    logits += gmm.log_weights - scale * gmm.half_sq_norms
    return _normalized_exp(logits)


def _normalized_exp(logits: np.ndarray) -> np.ndarray:
    """exp(logits) normalized along the last axis, max-shifted so nothing overflows."""
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def score(
    gmm: GaussianMixture,
    x: np.ndarray,
    alpha_bar: float,
    condition: int | None = None,
) -> np.ndarray:
    """Gradient of the noised log density at x: of the mixture,
    ``-x + sqrt(alpha_bar) * E_resp[mu]``, or with ``condition`` of that
    component, ``sqrt(alpha_bar) * mu_c - x``."""
    if condition is not None:
        alpha_bar = _check_alpha_bar(alpha_bar, allow_one=True)
        x = _as_points(gmm, x)
        return math.sqrt(alpha_bar) * gmm.means[_check_condition(gmm, condition)] - x
    resp = posterior_weights(gmm, x, alpha_bar)
    x = _as_points(gmm, x)
    # einsum, as in posterior_mean_x0: a row's value does not depend on its batch
    return -x + math.sqrt(alpha_bar) * np.einsum("...c,cd->...d", resp, gmm.means)


def posterior_mean_x0(
    gmm: GaussianMixture,
    x: np.ndarray,
    alpha_bar: float,
    condition: int | np.ndarray | None = None,
) -> np.ndarray:
    """Denoising posterior mean E[x0 | x_t = x].

    Conditional case: ``beta_bar * mu_c + sqrt(alpha_bar) * x``; an
    ``(n,)`` index array conditions each row of an ``(n, dim)`` batch on
    its own component, ``beta_bar * mu[cond] + sqrt(alpha_bar) * x``.
    The mixture case weighs the per-component posterior means by the
    responsibilities.  Satisfies the score identity
    ``(sqrt(alpha_bar) * result - x) / beta_bar == score``.
    """
    alpha_bar = _check_alpha_bar(alpha_bar, allow_one=False)
    x = _as_points(gmm, x)
    beta_bar = 1.0 - alpha_bar
    root = math.sqrt(alpha_bar)
    if condition is not None:
        return beta_bar * _condition_means(gmm, condition) + root * x
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
    # points, each with a (components, dim) difference array (squared in
    # place; the charge keeps room for a second one) and the components'
    # squared distances
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
    negative side.  ``min_margin`` is the smallest ``w^T (mu - mu_o)``
    over the other means, computed exactly and rounded to a double.
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


def project_onto_hull(points: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean projection of target onto conv(points): (projection, simplex coefficients).

    P. Wolfe's minimum-norm-point method (Math. Programming 11, 1976) on p = points - target,
    over a corral of active points.  Finite and untuned: it returns once x.x - min_j p_j.x
    <= 1e-15 * max_j |p_j|^2 for the shifted projection x, and raises ArithmeticError if
    rounding stalls it first.
    """
    target = np.asarray(target, dtype=float)
    p = np.atleast_2d(np.asarray(points, dtype=float)) - target
    sq = np.einsum("nd,nd->n", p, p)
    active, lam = [int(np.argmin(sq))], np.ones(1)
    while True:
        x = lam @ p[active]
        dots = p @ x
        j = int(np.argmin(dots))
        if x @ x - dots[j] <= 1e-15 * sq.max():
            return x + target, np.bincount(active, lam, len(p))
        if j in active:
            raise ArithmeticError("hull projection stalled: its next point is already active")
        active, lam = active + [j], np.append(lam, 0.0)
        while True:
            # the corral's affine minimiser, square-root-free Gram-Schmidt on d_i = q_i - q_0
            v = np.vstack([p[active[1:]] - p[active[0]], p[active[:1]]])
            tri = np.eye(len(v))
            for i in range(len(v) - 1):
                tri[i, i + 1:] = v[i + 1:] @ v[i] / (v[i] @ v[i])
                v[i + 1:] -= np.outer(tri[i, i + 1:], v[i])
            c = np.linalg.solve(tri[:-1, :-1], -tri[:-1, -1])
            mu = np.append(1.0 - c.sum(), c)
            out = mu < 0
            if out.any():  # step toward mu until a coefficient reaches 0
                ratios = lam[out] / (lam[out] - mu[out])
                mu = lam + ratios.min() * (mu - lam)
                mu[np.flatnonzero(out)[np.argmin(ratios)]] = 0.0
            active, lam = [i for i, w in zip(active, mu) if w > 0], mu[mu > 0]
            if not out.any():
                break
        if active[-1] != j:
            raise ArithmeticError("hull projection stalled: its new point left at once")


def _as_integers(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Doubles as exact Python integers over one power-of-two denominator.

    Every finite double is an integer over a power of two, so scaling to
    the largest denominator is exact; returns (object array, denominator).
    """
    ratios = [v.as_integer_ratio() for v in values.ravel().tolist()]
    den = max(d for _, d in ratios)
    return np.array([n * (den // d) for n, d in ratios], dtype=object).reshape(values.shape), den


def classify_component(gmm: GaussianMixture, component_index: int) -> ComponentClassification:
    """Vertex test: does the component mean stick out of the others' hull?

    Projects the candidate mean onto the convex hull of the remaining
    means.  A positive hull distance yields a candidate normal pointing
    from the projection toward the candidate; the component is "surface"
    only when every other mean then sits below the hyperplane by more
    than ``HULL_DISTANCE_FLOOR``, a margin computed exactly from the float
    normal and means.  Smaller hull distances or margins are classified
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
    # every margin w.mu* - w.mu_o exactly, in integers over a common
    # denominator; the least is compared with the floor in integers and
    # rounded to a double by int true division, which rounds correctly
    w, w_den = _as_integers(normal)
    means, means_den = _as_integers(np.vstack([mu_star, others]))
    num, den = int(((means[0] - means[1:]) @ w).min()), w_den * means_den
    floor_num, floor_den = HULL_DISTANCE_FLOOR.as_integer_ratio()
    if num * floor_den <= floor_num * den:
        return ComponentClassification(component_index, "interior", distance, None)
    cert = SurfaceCertificate(
        component_index=component_index,
        normal=normal,
        offset=offset,
        min_margin=num / den,
    )
    return ComponentClassification(component_index, "surface", distance, cert)


def surface_certificate(gmm: GaussianMixture, component_index: int) -> SurfaceCertificate | None:
    """Certificate for a surface component, or None when there is none
    (always for a single-component mixture, which has no hull)."""
    if gmm.n_components < 2:
        _check_condition(gmm, component_index)
        return None
    return classify_component(gmm, component_index).certificate
