"""Desk-scale diffusion-guidance laboratory on exact Gaussian mixtures.

Closed-form scores and denoising posteriors stand in for a learned
network, so guidance strategies and their theoretical properties (norm
bounds, outward drift, anomalous-diffusion intervals) can be measured
exactly and certified numerically.
"""

from .guidance import (
    ApgParams,
    ApgState,
    GuidanceConfig,
    PredictionPair,
    adg_no_cap,
    adg_normalized,
    adg_rotate,
    adg_simplified,
    angle_between,
    apg_update,
    cap_angle,
    cfg_combine,
    cfgpp_predictions,
    eps_from_x0,
    recfg_combine,
    rotate_raw,
    x0_from_eps,
)
from .mixture import (
    GaussianMixture,
    SurfaceCertificate,
    classify_component,
    finite_diff_score,
    log_density_t,
    posterior_mean_x0,
    posterior_weights,
    score_conditional,
    score_unconditional,
    surface_certificate,
)
from .samplers import (
    TrajectoryRecord,
    cfgpp_equivalent_weight,
    ddim_step,
    ddpm_step,
    flow_euler_step,
    flow_posterior_mean_x1,
    flow_sample_adg,
    flow_sample_batch,
    pcg_sample,
    sample_batch,
    sample_finals,
    sample_trajectory,
)
from .schedule import (
    FlowPath,
    NoiseSchedule,
    TimeGrid,
    alpha_bar,
    constant_beta_schedule,
    default_schedule,
    flow_stats,
    make_grid,
)
from .theory import (
    ProbeReport,
    estimate_c1,
    mt_membership,
    norm_amplification_check,
    norm_sweep,
    prop1_stress,
    scatter_experiment,
)

__version__ = "0.1.0"
