"""Numeric certifiers for the guidance theory claims.

Each probe measures a quantity the theory pins down (norm ordering along
a separating normal, the anomalous-diffusion interval, the sqrt(2) norm
bound) and renders an explicit pass/fail verdict from the measured
values and a stated tolerance.  Verdicts are pure functions of the
probe inputs and seed set, so reruns reproduce reports exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import guidance as gd
from . import mixture as mx
from . import samplers as sp
from .guidance import GuidanceConfig
from .mixture import GaussianMixture, SurfaceCertificate
from .schedule import TimeGrid

__all__ = [
    "ProbeReport",
    "MARGIN_FLOOR",
    "mt_membership",
    "estimate_c1",
    "norm_amplification_check",
    "prop1_stress",
    "prop1_peak_bytes",
    "norm_sweep",
    "scatter_experiment",
    "SweepRow",
    "ScatterSet",
]

# Strict inequalities are asserted with this slack against f64 integration noise.
MARGIN_FLOOR = 1e-9


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one certifier run.

    ``verdict`` is "pass", "fail" or "n/a"; ``measured`` holds the raw
    numbers the verdict was derived from, ``parameters`` echoes the full
    probe configuration (including any defaulted values).
    """

    name: str
    parameters: dict
    verdict: str
    measured: dict
    tolerance: float
    details: list = field(default_factory=list)

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


def _finals(records) -> np.ndarray:
    return np.stack([r.final_x0 for r in records])


# ---------------------------------------------------------------------------
# Anomalous-diffusion set membership and its outward extent
# ---------------------------------------------------------------------------

def mt_membership(
    gmm: GaussianMixture,
    certificate: SurfaceCertificate,
    x: np.ndarray,
    alpha_bar: float,
    omega: float,
) -> tuple[bool, float]:
    """Does the guided update at x point against the conditional score?

    Forms the weighted score combination
    ``omega * score_cond + (1 - omega) * score_uncond`` for the certified
    component and returns (dot <= 0, dot) with
    ``dot = combination . score_cond``.  Nonpositive dot means the update
    moves toward lower conditional density.
    """
    c_star = certificate.component_index
    s_cond = mx.score_conditional(gmm, x, alpha_bar, c_star)
    s_uncond = mx.score_unconditional(gmm, x, alpha_bar)
    s_guided = omega * s_cond + (1.0 - omega) * s_uncond
    dot = float(np.dot(s_guided, s_cond))
    return dot <= 0.0, dot


def estimate_c1(
    gmm: GaussianMixture,
    certificate: SurfaceCertificate,
    alpha_bar: float,
    omega: float,
    k_max: float = 10.0,
    bisection_tol: float = 1e-8,
    grid_points: int = 64,
) -> float:
    """Largest outward displacement along the certified normal that stays
    in the anomalous set.

    Probes ``sqrt(alpha_bar) * mu + k * w`` on a geometric k-grid over
    (1e-6, k_max]; the first failing point brackets the boundary, which
    bisection then pins to ``bisection_tol``, or to adjacent doubles when
    the tolerance is below their spacing.  Returns 0 when even the
    smallest probe fails and ``k_max`` when no probe fails.
    """
    if not omega > 1.0:
        raise ValueError("estimate_c1 requires omega > 1")
    if not k_max > 0:
        raise ValueError("k_max must be positive")
    if not bisection_tol > 0:
        raise ValueError("bisection_tol must be positive")
    mu_star = gmm.means[certificate.component_index]
    base = math.sqrt(alpha_bar) * mu_star

    def member(k: float) -> bool:
        return mt_membership(gmm, certificate, base + k * certificate.normal, alpha_bar, omega)[0]

    ks = np.geomspace(1e-6, k_max, grid_points)
    if not member(ks[0]):
        return 0.0
    lo = ks[0]
    hi = None
    for k in ks[1:]:
        if member(k):
            lo = k
        else:
            hi = k
            break
    if hi is None:
        return float(k_max)
    while hi - lo > bisection_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent doubles: a tolerance below their spacing is met
        if member(mid):
            lo = mid
        else:
            hi = mid
    return float(lo)


# ---------------------------------------------------------------------------
# Norm amplification along the outward normal
# ---------------------------------------------------------------------------

def norm_amplification_check(
    gmm: GaussianMixture,
    certificate: SurfaceCertificate,
    grid: TimeGrid,
    omega: float,
    seeds,
    margin_floor: float = MARGIN_FLOOR,
) -> ProbeReport:
    """Integrate the guided and plain conditional reverse trajectories from
    shared initial states and compare their projections on the certified
    normal.

    Passes when every seed ends with the guided projection strictly above
    the conditional one by at least ``margin_floor``.  With omega = 1 the
    trajectories coincide and the verdict is "n/a".
    """
    seeds = sorted(int(s) for s in seeds)
    condition = certificate.component_index
    params = {
        "omega": omega,
        "seeds": seeds,
        "grid_steps": grid.steps,
        "condition": condition,
        "margin_floor": margin_floor,
    }
    if omega == 1.0:
        return ProbeReport(
            name="norm_amplification",
            parameters=params,
            verdict="n/a",
            measured={"note": "guided and conditional trajectories coincide at omega=1"},
            tolerance=margin_floor,
        )

    def projections(weight):
        config = GuidanceConfig(strategy="cfg", omega=weight)
        return _finals(sp.sample_batch(gmm, grid, config, condition, seeds)) @ certificate.normal

    margins = projections(omega) - projections(1.0)
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

# prop1_stress builds and rotates its pairs in blocks of rows holding about
# this many floats per (rows, dim) array: 256 KiB, so a block's arrays stay
# near L2 size (the fastest measured at dims 2, 8 and 64). Every step is
# row-wise, so the maxima over blocks equal those of one full batch, bit
# for bit.
_PROP1_BLOCK_FLOATS = 32768


def _prop1_block_rows(dim: int) -> int:
    return max(1, _PROP1_BLOCK_FLOATS // dim)


def prop1_peak_bytes(trials: int, dims) -> int:
    """Upper bound on the float64 bytes prop1_stress holds at once.

    Per dim it keeps two ``(trials per dim, dim)`` draw arrays and four
    ``(trials per dim,)`` vectors while one block runs.  A block is charged
    ten ``(rows, dim + 1)`` arrays (tracemalloc measures 7.3 to 7.6) and
    64 KiB more covers the array and tuple objects of small runs.
    """
    per_dim = trials // len(dims)
    block = max(min(per_dim, _prop1_block_rows(d)) * (d + 1) for d in dims)
    return 8 * (per_dim * (2 * max(dims) + 4) + 10 * block) + 2**16


def prop1_stress(
    trials: int = 100_000,
    dims=(2, 8, 64),
    norm_range=(1e-3, 1e3),
    seed: int = 0,
    rel_tol: float = 1e-12,
    identity_tol: float = 1e-9,
) -> ProbeReport:
    """Random-pair stress of the rotation norm bound.

    Draws prediction pairs across dimensions, log-uniform norms and the
    full angle range, then checks (a) the sqrt(2) bound
    ``|rotated| <= sqrt(2) * |x_cond| * (1 + rel_tol)`` and (b) the exact
    norm identity ``|rotated| = |x_cond| * sqrt(1 + sin(2 g_w) sin(g))``
    to ``identity_tol`` (stated on the squared-ratio residual).
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    per_dim = trials // len(dims)
    max_ratio = 0.0
    max_identity_err = 0.0
    for dim in dims:
        ratio, identity_err = _prop1_dim(rng, per_dim, dim, norm_range)
        max_ratio = max(max_ratio, ratio)
        max_identity_err = max(max_identity_err, identity_err)
    bound = math.sqrt(2.0) * (1.0 + rel_tol)
    verdict = "pass" if max_ratio <= bound and max_identity_err <= identity_tol else "fail"
    return ProbeReport(
        name="rotation_norm_bound",
        parameters={"trials": trials, "dims": list(dims), "norm_range": list(norm_range), "seed": seed},
        verdict=verdict,
        measured={
            "max_ratio": max_ratio,
            "sqrt2": math.sqrt(2.0),
            "max_identity_residual": max_identity_err,
        },
        tolerance=rel_tol,
    )


def _prop1_dim(rng, per_dim: int, dim: int, norm_range) -> tuple[float, float]:
    """(max ratio, max identity residual) over per_dim random pairs of one dim.

    The draws take the whole dim at once, so the stream is consumed the
    same way whatever the block size; the pairs are then built and
    rotated one block of rows at a time.
    """
    lo, hi = norm_range
    u = rng.standard_normal((per_dim, dim))
    raw = rng.standard_normal((per_dim, dim))
    theta = rng.uniform(0.0, math.pi, per_dim)
    n_cond = np.exp(rng.uniform(math.log(lo), math.log(hi), per_dim))
    n_uncond = np.exp(rng.uniform(math.log(lo), math.log(hi), per_dim))
    omega = rng.uniform(1.0, 12.0, per_dim)
    rows = _prop1_block_rows(dim)
    worst = [
        _prop1_block(u[s], raw[s], theta[s], n_cond[s], n_uncond[s], omega[s])
        for s in (slice(i, i + rows) for i in range(0, per_dim, rows))
    ]
    # np.max propagates a NaN the way one max over all rows would
    ratio, identity_err = np.max(worst, axis=0)
    return float(ratio), float(identity_err)


def _prop1_block(u, raw, theta, n_cond, n_uncond, omega) -> tuple[float, float]:
    """(max ratio, max identity residual) over one block of drawn pairs."""
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    perp = raw - np.sum(raw * u, axis=-1, keepdims=True) * u
    perp /= np.maximum(np.linalg.norm(perp, axis=-1, keepdims=True), 1e-300)
    x_uncond = n_uncond[:, None] * u
    x_cond = n_cond[:, None] * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * perp)
    # the norm the vector has, not the one sampled: they differ where
    # perp, renormalized from a near-zero rejection, is not orthogonal to u
    n_cond = np.linalg.norm(x_cond, axis=-1)
    geometry = gd._pair_geometry(x_cond, x_uncond)
    rotated, gamma_omega = gd._rotate(geometry, omega, gd.DEFAULT_ANGLE_CAP)
    ratios = np.linalg.norm(rotated, axis=-1) / n_cond
    # norm identity of the rotation as computed, with e the rejection it
    # used: ratio^2 = 1 + sin(2 g_w) <e, x_cond> / (|e| |x_cond|), where
    # <e, x_cond> = |e|^2 = |x_cond|^2 sin(gamma)^2 in exact arithmetic.
    # Near-antiparallel rows get a rejection with a large relative
    # rounding error, so e must be the one the rotation used.
    rejection = geometry.rejection
    rej_norm = np.linalg.norm(rejection, axis=-1)
    e_dot = np.sum(rejection * x_cond, axis=-1) / np.where(rej_norm > 0, rej_norm, np.inf)
    predicted_sq = 1.0 + np.sin(2.0 * gamma_omega) * e_dot / n_cond
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
    base_config: GuidanceConfig | None = None,
) -> list[SweepRow]:
    """Mean and std of the final-sample norm per (strategy, omega)."""
    from dataclasses import replace

    seeds = sorted(int(s) for s in seeds)
    base = base_config or GuidanceConfig()
    rows = []
    for strategy in strategies:
        for omega in omegas:
            config = replace(base, strategy=strategy, omega=float(omega))
            finals = _finals(sp.sample_batch(gmm, grid, config, condition, seeds))
            norms = np.linalg.norm(finals, axis=1)
            rows.append(
                SweepRow(
                    strategy=strategy,
                    omega=float(omega),
                    mean_norm=float(norms.mean()),
                    std_norm=float(norms.std(ddof=1)) if len(norms) > 1 else 0.0,
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
    strategy: str = "cfg",
    base_config: GuidanceConfig | None = None,
    seed_offset: int = 0,
) -> list[ScatterSet]:
    """Sample every component at each guidance weight.

    Seeds are ``seed_offset + class_index * seeds_per_class + i`` so the
    same initial noise set serves each omega, making drift comparisons
    across weights paired.
    """
    from dataclasses import replace

    base = base_config or GuidanceConfig()
    sets = []
    for omega in omegas:
        config = replace(base, strategy=strategy, omega=float(omega))
        comps = np.repeat(np.arange(gmm.n_components), seeds_per_class)
        seeds = seed_offset + np.arange(len(comps))
        samples = [
            _finals(sp.sample_batch(gmm, grid, config, c, seeds[comps == c]))
            for c in range(gmm.n_components)
        ]
        sets.append(
            ScatterSet(
                omega=float(omega),
                strategy=strategy,
                components=comps,
                seeds=seeds,
                samples=np.concatenate(samples),
            )
        )
    return sets
