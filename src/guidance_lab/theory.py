"""Numeric certifiers for the guidance theory claims.

Each probe measures a quantity the theory pins down (norm ordering along
a separating normal, the anomalous-diffusion interval, the sqrt(2) norm
bound) and renders an explicit pass/fail verdict from the measured
values and a stated tolerance.  Verdicts are pure functions of the
probe inputs and seed set, so reruns reproduce reports exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import guidance as gd
from . import mixture as mx
from . import samplers as sp
from .guidance import GuidanceConfig
from .mixture import GaussianMixture, SurfaceCertificate
from .schedule import TimeGrid

__all__ = [
    "ProbeReport",
    "anomalous_equation",
    "check_c1",
    "estimate_c1",
    "norm_amplification_check",
    "prop1_stress",
    "prop1_peak_bytes",
    "norm_sweep",
    "scatter_experiment",
    "SweepRow",
    "ScatterSet",
]

@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one certifier run.

    ``verdict`` is "pass", "fail" or "n/a"; ``measured`` holds the raw
    numbers the verdict was derived from, ``parameters`` echoes the full
    probe configuration.
    """

    name: str
    parameters: dict
    verdict: str
    measured: dict
    tolerance: float
    details: list = field(default_factory=list)

    @classmethod
    def not_applicable(cls, name: str, parameters: dict, note: str, tolerance: float) -> ProbeReport:
        """The report of a probe whose claim does not apply, saying why in ``note``."""
        return cls(name=name, parameters=parameters, verdict="n/a", measured={"note": note},
                   tolerance=tolerance)

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "n/a")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": _plain(self.parameters),
            "verdict": self.verdict,
            "measured": _plain(self.measured),
            "tolerance": self.tolerance,
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays for serialization."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# Anomalous-diffusion set membership and its outward extent
# ---------------------------------------------------------------------------

def anomalous_equation(
    gmm: GaussianMixture, certificate: SurfaceCertificate, alpha_bar: float, omega: float,
):
    """(m, h) on the ray x = sqrt(alpha_bar) mu_* + k w: m_c = w . (mu_* - mu_c), and ``h(k)``
    is (h, h') with h = (omega - 1) sqrt(alpha_bar) E_r[m] - k for r the posterior at x and
    h' = -1 - (omega - 1) alpha_bar Var_r[m] <= -1.  The guided score omega s_cond + (1 - omega)
    s_uncond at x has dot product -k h(k) with s_cond, so the anomalous set, where that dot
    product is <= 0, is (0, c1] on the ray for c1 the one root of h."""
    root, gain = math.sqrt(alpha_bar), omega - 1.0
    gaps = gmm.means[certificate.component_index] - gmm.means
    margins = gaps @ certificate.normal
    base = gmm.log_weights - 0.5 * alpha_bar * np.einsum("cd,cd->c", gaps, gaps)

    def h(k: float) -> tuple[float, float]:
        r = mx._normalized_exp(base - k * root * margins)
        mean = float(r @ margins)
        return gain * root * mean - k, -1.0 - gain * alpha_bar * float(r @ (margins - mean) ** 2)

    return margins, h


def check_c1(alpha_bar: float, omega: float, k_max: float) -> None:
    """Refuse c1 inputs: alpha_bar outside (0, 1], omega <= 1 or k_max <= 0."""
    mx._check_alpha_bar(alpha_bar, allow_one=True)
    if not omega > 1.0:
        raise mx.FieldError(f"c1 requires omega > 1, got {omega}", "omega")
    if not k_max > 0:
        raise mx.FieldError(f"k_max must be positive, got {k_max}", "k_max")


def estimate_c1(
    gmm: GaussianMixture,
    certificate: SurfaceCertificate,
    alpha_bar: float,
    omega: float,
    k_max: float,
) -> float:
    """Largest outward displacement along the certified normal that stays
    in the anomalous set.

    The root c1 of :func:`anomalous_equation`'s h, or ``k_max`` if h(k_max)
    >= 0.  Newton on h, bisecting when a step would leave the bracket
    [0, min(k_max, (omega - 1) sqrt(alpha_bar) max m)] or not halve the last
    one, closes it to adjacent doubles and returns the lower end, the largest
    double with h >= 0.  As |h'| >= 1, the error is one double spacing plus
    the forward error of h, c1 (2 Delta + (C + 2) eps) for C components, unit
    roundoff eps and logits rounded by Delta ~ (dim + 3) eps max |logit|
    (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3).
    """
    check_c1(alpha_bar, omega, k_max)
    margins, h = anomalous_equation(gmm, certificate, alpha_bar, omega)
    lo, hi = 0.0, min(k_max, (omega - 1.0) * math.sqrt(alpha_bar) * float(margins.max()))
    k, step, (value, slope) = hi, math.inf, h(hi)
    if value >= 0.0:
        return float(hi)
    while (above := float(np.nextafter(lo, hi))) < hi:
        dx = value / slope
        # a Newton step below one double has converged: it walks one double on
        if lo <= k - dx <= hi and abs(dx) <= max(0.5 * step, float(np.spacing(k))):
            step, k = abs(dx), min(max(k - dx, above), float(np.nextafter(hi, lo)))
        else:
            step, k = 0.5 * (hi - lo), lo + 0.5 * (hi - lo)
        value, slope = h(k)
        lo, hi = (k, hi) if value >= 0.0 else (lo, k)
    return lo


# ---------------------------------------------------------------------------
# Norm amplification along the outward normal
# ---------------------------------------------------------------------------

def norm_amplification_check(
    gmm: GaussianMixture,
    condition: int,
    grid: TimeGrid,
    omega: float,
    seeds,
    margin_floor: float,
) -> ProbeReport:
    """Integrate the guided and plain conditional reverse trajectories from
    shared initial states and compare their projections on the certified
    normal of ``condition``.

    Passes when every seed ends with the guided projection strictly above
    the conditional one by at least ``margin_floor``.  The verdict is "n/a"
    when the condition has no surface certificate, and with omega = 1,
    where the trajectories coincide.
    """
    seeds = sorted(int(s) for s in seeds)
    params = {
        "omega": omega,
        "seeds": seeds,
        "grid_steps": grid.steps,
        "condition": condition,
        "margin_floor": margin_floor,
    }
    certificate = mx.surface_certificate(gmm, condition)
    if certificate is None or omega == 1.0:
        note = (f"component {condition} is not a surface class" if certificate is None
                else "guided and conditional trajectories coincide at omega=1")
        return ProbeReport.not_applicable("norm_amplification", params, note, margin_floor)

    # one drive: the guided rows, then the plain conditional ones (omega = 1)
    n = len(seeds)
    run = sp.Run(GuidanceConfig(strategy="cfg"), condition, seeds * 2, [omega] * n + [1.0] * n)
    finals = sp.sample_runs(gmm, grid, [run], log=False)[0]
    margins = finals[:n] @ certificate.normal - finals[n:] @ certificate.normal
    failures = [s for s, m in zip(seeds, margins) if not m > margin_floor]
    return ProbeReport(
        name="norm_amplification",
        parameters=params,
        verdict="pass" if not failures else "fail",
        measured={
            "min_margin": float(margins.min()),
            "mean_margin": float(margins.mean()),
            "max_margin": float(margins.max()),
            "failing_seeds": failures,
        },
        tolerance=margin_floor,
        details=[{"seed": s, "margin": float(m)} for s, m in zip(seeds, margins)],
    )


# ---------------------------------------------------------------------------
# Norm-bound stress test
# ---------------------------------------------------------------------------

# prop1_stress draws, builds and rotates its pairs in blocks of rows holding
# about this many floats per (rows, dim) array: 64 KiB, under malloc's 128 KiB
# mmap threshold, so each block's temporaries reuse heap memory rather than
# fresh pages. The pair normals are drawn row-major, so every block size
# draws the same numbers, and every step is row-wise, so the report does not
# depend on the block size, bit for bit.
_PROP1_BLOCK_FLOATS = 8192


def _prop1_block_rows(dim: int) -> int:
    return max(1, _PROP1_BLOCK_FLOATS // dim)


def prop1_peak_bytes(trials: int, dims) -> int:
    """Upper bound on the float64 bytes prop1_stress holds at once.

    Per dim it keeps four ``(trials per dim,)`` vectors while one block
    runs.  A block, its drawn normals included, is charged twelve
    ``(rows, dim + 1)`` arrays (tracemalloc measures 8.8 to 10.1) and
    64 KiB more covers the array and tuple objects of small runs.
    """
    per_dim = trials // len(dims)
    block = max(min(per_dim, _prop1_block_rows(d)) * (d + 1) for d in dims)
    return 8 * (4 * per_dim + 12 * block) + 2**16


# prop1_stress's relative slack on the sqrt(2) bound, its bound on the
# squared-ratio residual of the norm identity, and the (lo, hi) span of its
# log-uniform pair norms
PROP1_REL_TOL = 1e-12
PROP1_IDENTITY_TOL = 1e-9
PROP1_NORM_RANGE = (1e-3, 1e3)


def prop1_stress(trials: int, dims, seed: int) -> ProbeReport:
    """Random-pair stress of the rotation norm bound.

    Draws prediction pairs across dimensions, log-uniform norms in
    ``PROP1_NORM_RANGE`` and the full angle range, then checks (a) the
    sqrt(2) bound ``|rotated| <= sqrt(2) * |x_cond| * (1 + PROP1_REL_TOL)``
    and (b) the exact norm identity
    ``|rotated| = |x_cond| * sqrt(1 + sin(2 g_w) sin(g))`` to
    ``PROP1_IDENTITY_TOL`` (stated on the squared-ratio residual).  A pair
    too parallel to turn, such as every pair in one dimension, is left
    as it is, so its identity predicts a ratio of 1.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    per_dim = trials // len(dims)
    # np.max, not Python's max: a NaN from any dim must reach the verdict
    worst = np.max([_prop1_dim(rng, per_dim, dim) for dim in dims], axis=0)
    max_ratio, max_identity_err = float(worst[0]), float(worst[1])
    bound = math.sqrt(2.0) * (1.0 + PROP1_REL_TOL)
    finite = math.isfinite(max_ratio) and math.isfinite(max_identity_err)
    passed = finite and max_ratio <= bound and max_identity_err <= PROP1_IDENTITY_TOL
    verdict = "pass" if passed else "fail"
    return ProbeReport(
        name="rotation_norm_bound",
        parameters={"trials": trials, "dims": list(dims), "norm_range": list(PROP1_NORM_RANGE),
                    "seed": seed},
        verdict=verdict,
        measured={
            "max_ratio": max_ratio,
            "sqrt2": math.sqrt(2.0),
            "max_identity_residual": max_identity_err,
        },
        tolerance=PROP1_REL_TOL,
    )


def _prop1_dim(rng, per_dim: int, dim: int) -> tuple[float, float]:
    """(max ratio, max identity residual) over per_dim random pairs of one dim.

    The per-pair scalars are drawn whole; the pair normals are then drawn
    one block of rows at a time, row j holding u_j and then raw_j, so the
    stream is consumed the same way whatever the block size.
    """
    lo, hi = PROP1_NORM_RANGE
    theta = rng.uniform(0.0, math.pi, per_dim)
    n_cond = np.exp(rng.uniform(math.log(lo), math.log(hi), per_dim))
    n_uncond = np.exp(rng.uniform(math.log(lo), math.log(hi), per_dim))
    omega = rng.uniform(1.0, 12.0, per_dim)
    rows = _prop1_block_rows(dim)
    worst = np.full(2, -np.inf)
    for i in range(0, per_dim, rows):
        s = slice(i, i + rows)
        pairs = rng.standard_normal((min(rows, per_dim - i), 2, dim))
        # np.maximum propagates a NaN the way one max over all rows would
        worst = np.maximum(worst, _prop1_block(
            pairs[:, 0], pairs[:, 1], theta[s], n_cond[s], n_uncond[s], omega[s]))
    return float(worst[0]), float(worst[1])


def _prop1_block(u, raw, theta, n_cond, n_uncond, omega) -> tuple[float, float]:
    """(max ratio, max identity residual) over one block of drawn pairs."""
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    perp = raw - np.sum(raw * u, axis=-1, keepdims=True) * u
    perp /= np.maximum(np.linalg.norm(perp, axis=-1, keepdims=True), 1e-300)
    x_uncond = n_uncond[:, None] * u
    x_cond = n_cond[:, None] * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * perp)
    geometry = gd._pair_geometry(x_cond, x_uncond)
    # the norm the vector has, not the one sampled: they differ where
    # perp, renormalized from a near-zero rejection, is not orthogonal to u
    n_cond = geometry.cond_norm
    rotated, gamma_omega = gd._rotate(geometry, omega, gd.DEFAULT_ANGLE_CAP)
    ratios = np.linalg.norm(rotated, axis=-1) / n_cond
    # norm identity of the rotation as computed, with e the rejection it
    # used: ratio^2 = 1 + sin(2 g_w) <e, x_cond> / (|e| |x_cond|), where
    # <e, x_cond> = |e|^2 = |x_cond|^2 sin(gamma)^2 in exact arithmetic.
    # Near-antiparallel rows get a rejection with a large relative
    # rounding error, so e must be the one the rotation used.
    rejection, rej_norm = geometry.rejection, geometry.rej_norm
    e_dot = np.sum(rejection * x_cond, axis=-1) / np.where(rej_norm > 0, rej_norm, np.inf)
    # _rotate leaves a pair too parallel to turn as it is: its ratio is 1
    predicted_sq = np.where(
        geometry.valid, 1.0 + np.sin(2.0 * gamma_omega) * e_dot / n_cond, 1.0)
    return ratios.max(), np.abs(ratios**2 - predicted_sq).max()


# ---------------------------------------------------------------------------
# Sweeps and scatter experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    strategy: str
    omega: float
    mean_norm: float
    std_norm: float
    n_seeds: int


def norm_sweep(
    gmm: GaussianMixture,
    grid: TimeGrid,
    strategies,
    omegas,
    seeds,
    condition: int,
    base_config: GuidanceConfig,
) -> list[SweepRow]:
    """Mean and std of the final-sample norm per (strategy, omega).

    Every (strategy, omega, seed) row runs in one drive.
    """
    seeds = sorted(int(s) for s in seeds)
    omegas = [float(w) for w in omegas]
    strategies = list(strategies)
    runs = [
        sp.Run(replace(base_config, strategy=strategy), condition, seeds * len(omegas),
               np.repeat(omegas, len(seeds)))
        for strategy in strategies
    ]
    rows = []
    for strategy, finals in zip(strategies, sp.sample_runs(gmm, grid, runs, log=False)):
        norms = np.linalg.norm(finals, axis=1).reshape(len(omegas), len(seeds))
        for omega, group in zip(omegas, norms):
            rows.append(
                SweepRow(
                    strategy=strategy,
                    omega=omega,
                    mean_norm=float(group.mean()),
                    std_norm=float(group.std(ddof=1)) if len(group) > 1 else 0.0,
                    n_seeds=len(seeds),
                )
            )
    return rows


@dataclass(frozen=True)
class ScatterSet:
    """Final samples for every component at one guidance weight."""

    omega: float
    strategy: str
    components: np.ndarray   # (n,) component index per sample
    seeds: np.ndarray        # (n,)
    samples: np.ndarray      # (n, dim)

    def centroid_drift(self, gmm: GaussianMixture) -> dict[int, float]:
        """Distance from each component's sample centroid to its mean."""
        out = {}
        for c in range(gmm.n_components):
            mask = self.components == c
            if mask.any():
                centroid = self.samples[mask].mean(axis=0)
                out[c] = float(np.linalg.norm(centroid - gmm.means[c]))
        return out


def scatter_experiment(
    gmm: GaussianMixture,
    grid: TimeGrid,
    omegas,
    seeds_per_class: int,
    strategy: str,
    base_config: GuidanceConfig,
) -> list[ScatterSet]:
    """Sample every component at each guidance weight.

    Seeds are ``class_index * seeds_per_class + i`` so the same initial
    noise set serves each omega, making drift comparisons across weights
    paired.  Every (omega, class, seed) row runs in one drive.
    """
    omegas = [float(w) for w in omegas]
    comps = np.repeat(np.arange(gmm.n_components), seeds_per_class)
    seeds = np.arange(len(comps))
    run = sp.Run(
        replace(base_config, strategy=strategy),
        np.tile(comps, len(omegas)), np.tile(seeds, len(omegas)), np.repeat(omegas, len(comps)),
    )
    finals = sp.sample_runs(gmm, grid, [run], log=False)[0]
    return [
        ScatterSet(omega=omega, strategy=strategy, components=comps, seeds=seeds, samples=block)
        for omega, block in zip(omegas, finals.reshape(len(omegas), len(comps), gmm.dim))
    ]
