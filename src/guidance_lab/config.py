"""Experiment configuration: one YAML document, validated on load.

The document has nested blocks (gmm, schedule, grid, guidance, run,
probes, sweep, scatter, flow).  Loading normalizes the document by
filling defaults and rejects unknown keys with a dotted-path location,
so ``load -> dump -> load`` is a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
import yaml

from .guidance import ApgParams, GuidanceConfig, STRATEGIES
from .mixture import GaussianMixture
from .schedule import NoiseSchedule, TimeGrid, make_grid

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "loads_config", "dump_config"]


class ConfigError(ValueError):
    """Invalid configuration document; message carries the dotted path."""


_NUMBER = (int, float)

DEFAULTS: dict[str, Any] = {
    "gmm": {
        "dim": None,        # inferred from means when omitted
        "means": [[0.0]],
        "weights": None,    # uniform when omitted
    },
    "schedule": {
        "beta_min": 0.1,
        "beta_max": 20.0,
        "T": 1.0,
        "shape": "linear",
    },
    "grid": {
        "steps": 200,
        "t_end": None,      # defaults to schedule T
        "t_start": 0.0,
    },
    "guidance": {
        "strategy": "cfg",
        "omega": 1.0,
        "angle_cap": math.pi / 3.0,
        "cfgpp_lambda": 0.5,
        "apg": {"eta": 0.0, "beta": -0.5, "r": 2.5},
        "recfg_lambda": 1.0,
        "pcg_inner_steps": 0,
        "pcg_langevin_mode": "paper-literal",
    },
    "run": {
        "seeds": None,      # explicit list, or use seed_count
        "seed_count": 16,
        "condition": 0,
        "strategies": None,  # defaults to [guidance.strategy]
        "output_dir": "out",
    },
    "probes": {
        "score_oracle": {"cases": 200, "seed": 2024, "tolerance": 1e-5},
        "score_identity": {"cases": 200, "seed": 2025, "tolerance": 1e-10},
        "prop1": {"trials": 20000, "seed": 7, "dims": [2, 8, 64]},
        "c1": {"alpha_bar": 0.5, "omegas": [2.0, 3.0, 5.0], "k_max": 10.0,
               "bisection_tol": 1e-8},
        "norm": {"omega": 5.0, "seed_count": 32, "margin_floor": 1e-9},
        "cfgpp": {"steps": 32, "seed": 11, "tolerance": 1e-8},
        "guidance_off": {"seed_count": 4, "tolerance": 1e-12},
    },
    "sweep": {
        "strategies": ["cfg", "adg"],
        "omegas": [1.0, 2.0, 4.0, 6.0, 8.0],
        "seed_count": 64,
    },
    "scatter": {
        "omegas": [1.0, 3.0, 5.0],
        "seeds_per_class": 64,
        "strategy": "cfg",
    },
    "flow": {
        "sigma_min": 0.1,
        "steps": 200,
        "omega": 3.0,
    },
}


def _merge(defaults: dict, given: Any, path: str) -> dict:
    """Overlay a user mapping on the defaults, rejecting unknown keys."""
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(given).__name__}")
    out = {}
    for key, default in defaults.items():
        sub_path = f"{path}.{key}" if path else key
        if key in given:
            value = given[key]
            if isinstance(default, dict) and not isinstance(value, dict) and value is not None:
                raise ConfigError(f"{sub_path}: expected a mapping")
            out[key] = _merge(default, value, sub_path) if isinstance(default, dict) else value
        else:
            out[key] = _merge(default, {}, sub_path) if isinstance(default, dict) else default
    for key in given:
        if key not in defaults:
            sub_path = f"{path}.{key}" if path else key
            raise ConfigError(f"{sub_path}: unknown key")
    return out


def _require_number(value, path, lo=None, hi=None):
    if not isinstance(value, _NUMBER) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{path}: must be <= {hi}, got {value}")
    return float(value)


def _require_int(value, path, lo=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Normalized configuration document with typed accessors."""

    data: dict

    # -- builders ---------------------------------------------------------

    def gmm(self) -> GaussianMixture:
        block = self.data["gmm"]
        means = np.asarray(block["means"], dtype=float)
        if means.ndim == 1:
            means = means[:, None]
        dim = block["dim"] if block["dim"] is not None else means.shape[1]
        weights = block["weights"]
        if weights is None:
            weights = np.full(means.shape[0], 1.0 / means.shape[0])
        try:
            return GaussianMixture(dim=int(dim), means=means, weights=np.asarray(weights, float))
        except ValueError as exc:
            raise ConfigError(f"gmm: {exc}") from exc

    def noise_schedule(self) -> NoiseSchedule:
        block = self.data["schedule"]
        try:
            return NoiseSchedule(
                beta_min=float(block["beta_min"]),
                beta_max=float(block["beta_max"]),
                horizon=float(block["T"]),
                shape=str(block["shape"]),
            )
        except ValueError as exc:
            raise ConfigError(f"schedule: {exc}") from exc

    def time_grid(self) -> TimeGrid:
        block = self.data["grid"]
        schedule = self.noise_schedule()
        t_end = block["t_end"] if block["t_end"] is not None else schedule.horizon
        try:
            return make_grid(schedule, int(block["steps"]), float(t_end), float(block["t_start"]))
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc

    def guidance(self, strategy: str | None = None, omega: float | None = None) -> GuidanceConfig:
        block = self.data["guidance"]
        apg = block["apg"]
        recfg = block["recfg_lambda"]
        if isinstance(recfg, dict):
            recfg = {int(k): float(v) for k, v in recfg.items()}
        try:
            return GuidanceConfig(
                strategy=strategy if strategy is not None else str(block["strategy"]),
                omega=float(omega if omega is not None else block["omega"]),
                angle_cap=float(block["angle_cap"]),
                cfgpp_lambda=float(block["cfgpp_lambda"]),
                apg_params=ApgParams(
                    eta=float(apg["eta"]), beta=float(apg["beta"]), r=float(apg["r"])
                ),
                recfg_lambda=recfg,
                pcg_inner_steps=int(block["pcg_inner_steps"]),
                pcg_langevin_mode=str(block["pcg_langevin_mode"]),
            )
        except ValueError as exc:
            raise ConfigError(f"guidance: {exc}") from exc

    # -- run block --------------------------------------------------------

    def seeds(self) -> list[int]:
        block = self.data["run"]
        if block["seeds"] is not None:
            return [int(s) for s in block["seeds"]]
        return list(range(int(block["seed_count"])))

    def condition(self) -> int:
        return int(self.data["run"]["condition"])

    def strategies(self) -> list[str]:
        block = self.data["run"]
        if block["strategies"] is not None:
            return [str(s) for s in block["strategies"]]
        return [str(self.data["guidance"]["strategy"])]

    def output_dir(self) -> str:
        return str(self.data["run"]["output_dir"])


def _validate(data: dict) -> dict:
    """Semantic checks beyond key names; returns the same dict."""
    gmm = data["gmm"]
    if not isinstance(gmm["means"], list) or not gmm["means"]:
        raise ConfigError("gmm.means: expected a non-empty list")
    if gmm["dim"] is not None:
        _require_int(gmm["dim"], "gmm.dim", lo=1)
    sched = data["schedule"]
    _require_number(sched["beta_min"], "schedule.beta_min")
    _require_number(sched["beta_max"], "schedule.beta_max")
    _require_number(sched["T"], "schedule.T")
    grid = data["grid"]
    _require_int(grid["steps"], "grid.steps", lo=1)
    if grid["t_end"] is not None:
        _require_number(grid["t_end"], "grid.t_end", lo=0.0)
    _require_number(grid["t_start"], "grid.t_start", lo=0.0)
    g = data["guidance"]
    if g["strategy"] not in STRATEGIES:
        raise ConfigError(
            f"guidance.strategy: unknown strategy {g['strategy']!r}; expected one of {STRATEGIES}"
        )
    _require_number(g["omega"], "guidance.omega", lo=1.0)
    _require_number(g["angle_cap"], "guidance.angle_cap")
    run = data["run"]
    if run["seeds"] is None:
        _require_int(run["seed_count"], "run.seed_count", lo=1)
    elif not isinstance(run["seeds"], list):
        raise ConfigError("run.seeds: expected a list of integers")
    else:
        repeated = [s for i, s in enumerate(run["seeds"]) if s in run["seeds"][:i]]
        if repeated:
            raise ConfigError(f"run.seeds: seed {repeated[0]!r} repeated; seeds must be distinct")
    if run["strategies"] is not None:
        if not isinstance(run["strategies"], list) or not run["strategies"]:
            raise ConfigError("run.strategies: expected a non-empty list")
        for s in run["strategies"]:
            if s not in STRATEGIES:
                raise ConfigError(f"run.strategies: unknown strategy {s!r}")
    _require_int(run["condition"], "run.condition", lo=0)
    return data


def loads_config(text: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse a YAML document (plus --set overrides) into a config."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping")
    for item in overrides or []:
        raw = _apply_override(raw, item)
    data = _validate(_merge(DEFAULTS, raw, ""))
    config = ExperimentConfig(data=data)
    # building the typed objects surfaces any remaining value errors now
    config.gmm()
    config.noise_schedule()
    config.time_grid()
    config.guidance()
    return config


def load_config(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text, overrides)


def dump_config(config: ExperimentConfig) -> str:
    """Serialize the normalized document; load(dump(c)) == c."""
    return yaml.safe_dump(config.data, sort_keys=False, default_flow_style=None)


def _apply_override(raw: dict, item: str) -> dict:
    """Apply one ``dotted.path=value`` override; values parse as YAML."""
    if "=" not in item:
        raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
    key, _, value_text = item.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"--set {item!r}: empty key")
    try:
        value = yaml.safe_load(value_text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"--set {key}: invalid value: {exc}") from exc
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = {}
            node[part] = nxt
        elif not isinstance(nxt, dict):
            raise ConfigError(f"--set {key}: {part} is not a mapping")
        node = nxt
    node[parts[-1]] = value
    return raw
