"""Reference forms the tests check the package against.

Each restates a quantity in its defining form, where the package computes
it another way or not at all: the beta ramp the closed-form ``alpha_bar``
integrates, the anomalous set M_t that ``theory.estimate_c1`` bounds, and
the YAML a loaded config writes back to.
"""

import numpy as np
import yaml

import guidance_lab.mixture as mx


def beta(schedule, t: float) -> float:
    """Instantaneous noise rate beta(t) of the linear ramp."""
    return schedule.beta_min + (schedule.beta_max - schedule.beta_min) * t / schedule.horizon


def mt_membership(gmm, certificate, x, alpha_bar: float, omega: float) -> tuple[bool, float]:
    """Does the guided update at x point against the conditional score?

    Forms ``omega * score_cond + (1 - omega) * score_uncond`` for the
    certified component and returns (dot <= 0, dot) with
    ``dot = combination . score_cond``: x is in M_t when dot <= 0.
    """
    s_cond = mx.score(gmm, x, alpha_bar, certificate.component_index)
    s_uncond = mx.score(gmm, x, alpha_bar)
    dot = float(np.dot(omega * s_cond + (1.0 - omega) * s_uncond, s_cond))
    return dot <= 0.0, dot


def dump_config(config) -> str:
    """The normalized document as YAML; loading it gives the config back."""
    return yaml.safe_dump(config.data, sort_keys=False, default_flow_style=None)
