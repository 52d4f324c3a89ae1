"""Experiment configuration: one YAML document, checked on load.

The document has nested blocks (gmm, schedule, grid, guidance, run,
probes, sweep, scatter, flow).  ``DEFAULTS`` is its one table of each
leaf's default, type and lower bound.  Loading fills the defaults and
checks every leaf under its dotted path, so ``load -> dump -> load`` is a
fixed point and every invalid document is a :class:`ConfigError`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple

import numpy as np
import yaml

from .guidance import ApgParams, GuidanceConfig
from .mixture import GaussianMixture
from .samplers import finals_peak_bytes
from .schedule import FlowPath, NoiseSchedule, TimeGrid, make_grid
from .theory import prop1_peak_bytes

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "loads_config", "dump_config"]


class ConfigError(ValueError):
    """Invalid configuration document; message carries the dotted path."""


class Leaf(NamedTuple):
    """A table entry the default alone does not type or bound.  ``kind`` is
    int, float, str, ``[kind]`` (a non-empty list) or a function ``(value,
    path) -> value``; None means the default's type.  ``lo`` and ``hi``
    bound a number or each list entry.  A None default also admits None."""

    default: Any
    kind: Any = None
    lo: float | None = None
    hi: float | None = None


def _point(value, path):
    """One mixture mean: a list of numbers, or a number for a 1-D mixture."""
    return _typed(value, Leaf(None, [float] if isinstance(value, list) else float), path)


def _recfg_lambda(value, path):
    """A number, or a table of numbers keyed by condition."""
    if not isinstance(value, dict):
        return _typed(value, Leaf(None, float), path)
    return {_typed(k, Leaf(None, int), f"{path}.{k}"): _typed(v, Leaf(None, float), f"{path}.{k}")
            for k, v in value.items()}


# Seeds key Philox streams through np.uint64.
SEED_MAX = 2**64 - 1

DEFAULTS: dict[str, Any] = {
    "gmm": {
        "dim": Leaf(None, int),             # inferred from means when omitted
        "means": Leaf([[0.0]], [_point]),
        "weights": Leaf(None, [float]),     # uniform when omitted
    },
    "schedule": {
        "beta_min": 0.1,
        "beta_max": 20.0,
        "T": 1.0,
        "shape": "linear",
    },
    "grid": {
        "steps": Leaf(200, lo=1),
        "t_end": Leaf(None, float),         # defaults to schedule T
        "t_start": 0.0,
    },
    "guidance": {
        "strategy": "cfg",
        "omega": 1.0,
        "angle_cap": math.pi / 3.0,
        "cfgpp_lambda": 0.5,
        "apg": {"eta": 0.0, "beta": -0.5, "r": 2.5},
        "recfg_lambda": Leaf(1.0, _recfg_lambda),
        "pcg_inner_steps": Leaf(0, lo=0),
        "pcg_langevin_mode": "paper-literal",
    },
    "run": {
        "seeds": Leaf(None, [int], 0, SEED_MAX),  # explicit list, or use seed_count
        "seed_count": Leaf(16, lo=1),
        "condition": Leaf(0, lo=0),
        "strategies": Leaf(None, [str]),    # defaults to [guidance.strategy]
        "output_dir": "out",
    },
    "probes": {
        # seed + 1 seeds the simplex probe
        "score_oracle": {"cases": Leaf(200, lo=1), "seed": Leaf(2024, int, 0, SEED_MAX - 1),
                         "tolerance": 1e-5},
        "score_identity": {"cases": Leaf(200, lo=1), "seed": Leaf(2025, int, 0, SEED_MAX),
                           "tolerance": 1e-10},
        "prop1": {"trials": Leaf(20000, lo=1), "seed": Leaf(7, int, 0, SEED_MAX),
                  "dims": Leaf([2, 8, 64], lo=1)},
        "c1": {"alpha_bar": 0.5, "omegas": [2.0, 3.0, 5.0], "k_max": 10.0,
               "bisection_tol": 1e-8},
        "norm": {"omega": 5.0, "seed_count": Leaf(32, lo=1), "margin_floor": 1e-9},
        "cfgpp": {"steps": Leaf(32, lo=1), "seed": Leaf(11, int, 0, SEED_MAX), "tolerance": 1e-8},
        "guidance_off": {"seed_count": Leaf(4, lo=1), "tolerance": 1e-12},
    },
    "sweep": {
        "strategies": ["cfg", "adg"],
        "omegas": [1.0, 2.0, 4.0, 6.0, 8.0],
        "seed_count": Leaf(64, lo=1),
    },
    "scatter": {
        "omegas": [1.0, 3.0, 5.0],
        "seeds_per_class": Leaf(64, lo=1),
        "strategy": "cfg",
    },
    "flow": {
        "sigma_min": 0.1,
        "steps": Leaf(200, lo=1),
        "omega": 3.0,
    },
}

# Largest float64 working set one block may allocate: a sampling drive's
# trajectory logs, over every run in it (per step and seed, x_t and the
# three predictions, dim each, and three scalar columns) with one
# transition's pcg corrector draws, the working set of a finals-only drive
# (samplers.finals_peak_bytes),
# or the draw arrays and one pair block of the prop1 stress test.
LOG_BUDGET_BYTES = 2**30


def _typed(value, leaf: Leaf, path):
    """``value`` checked against a table entry's type and bounds; a float type stores an int
    as float."""
    kind = leaf.kind
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list, got {value!r}")
        entry = leaf._replace(kind=kind[0])
        return [_typed(v, entry, f"{path}[{i}]") for i, v in enumerate(value)]
    if kind not in (int, float, str):
        return kind(value, path)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        hint = _spelling_hint(value) if kind is float and isinstance(value, str) else ""
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}{hint}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: {value} is beyond the float range") from None
    if leaf.lo is not None and value < leaf.lo:
        raise ConfigError(f"{path}: must be >= {leaf.lo}, got {value!r}")
    if leaf.hi is not None and value > leaf.hi:
        raise ConfigError(f"{path}: must be <= {leaf.hi}, got {value!r}")
    return value


def _spelling_hint(text: str) -> str:
    """For a number YAML 1.1 reads as a string, such as 1e-8, a spelling it reads as one."""
    with suppress(ValueError):
        spelling = yaml.safe_dump(float(text)).splitlines()[0]
        return f" (YAML reads {text} as a string; write {spelling})"
    return ""


def _merge(defaults: dict, given: Any, path: str) -> dict:
    """Overlay a user mapping on the table, checking each leaf and rejecting unknown keys."""
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(given).__name__}")
    out = {}
    for key, entry in defaults.items():
        sub_path = f"{path}.{key}" if path else key
        if isinstance(entry, dict):
            out[key] = _merge(entry, given.get(key), sub_path)
            continue
        leaf = entry if isinstance(entry, Leaf) else Leaf(entry)
        kind = leaf.kind or (
            [type(leaf.default[0])] if isinstance(leaf.default, list) else type(leaf.default))
        value = given.get(key, leaf.default)
        if key in given and not (value is None and leaf.default is None):
            value = _typed(value, leaf._replace(kind=kind), sub_path)
        out[key] = value
    for key in given:
        if key not in defaults:
            sub_path = f"{path}.{key}" if path else key
            raise ConfigError(f"{sub_path}: unknown key")
    return out


@contextmanager
def _at(path: str):
    """Report a constructor's ValueError as a ConfigError at ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _validate(data: dict) -> None:
    """The rules a leaf's table entry cannot state: ties to other leaves, strict bounds."""
    run, c1, prop1 = data["run"], data["probes"]["c1"], data["probes"]["prop1"]
    # a repeated entry would run the same rows twice and write each output over itself
    for path, values, noun in (
        ("run.seeds", run["seeds"], "seed"),
        ("run.strategies", run["strategies"], "strategy"),
        ("sweep.strategies", data["sweep"]["strategies"], "strategy"),
        ("sweep.omegas", data["sweep"]["omegas"], "omega"),
        ("scatter.omegas", data["scatter"]["omegas"], "omega"),
    ):
        values = values or []
        if len(set(values)) < len(values):
            repeated = next(v for i, v in enumerate(values) if v in values[:i])
            raise ConfigError(f"{path}: {noun} {repeated!r} repeated; entries must be distinct")
    if not run["condition"] < len(data["gmm"]["means"]):
        raise ConfigError(f"run.condition: {run['condition']} is not a mixture component")
    if not all(w > 1.0 for w in c1["omegas"]):
        raise ConfigError(f"probes.c1.omegas: each must be > 1, got {c1['omegas']!r}")
    if not 0.0 < c1["alpha_bar"] <= 1.0:
        raise ConfigError(f"probes.c1.alpha_bar: must lie in (0, 1], got {c1['alpha_bar']!r}")
    for key in ("k_max", "bisection_tol"):
        if not c1[key] > 0.0:
            raise ConfigError(f"probes.c1.{key}: must be > 0, got {c1[key]!r}")
    if prop1["trials"] < len(prop1["dims"]):
        raise ConfigError(f"probes.prop1.trials: must be >= the {len(prop1['dims'])} dims")
    lam = data["guidance"]["recfg_lambda"]
    if isinstance(lam, dict):
        # recfg samples run.condition in sample, sweep and the determinism
        # probe, and every component in scatter
        used = set()
        if "recfg" in {data["guidance"]["strategy"], *(run["strategies"] or ()),
                       *data["sweep"]["strategies"]}:
            used.add(run["condition"])
        if data["scatter"]["strategy"] == "recfg":
            used.update(range(len(data["gmm"]["means"])))
        missing = sorted(used - lam.keys())
        if missing:
            raise ConfigError(
                f"guidance.recfg_lambda: no entry for condition {missing[0]}, which recfg samples")


def _check_log_budget(data: dict) -> None:
    """Refuse a block whose float64 arrays would exceed LOG_BUDGET_BYTES."""
    guidance, run, probes = data["guidance"], data["run"], data["probes"]
    sweep, scatter, means = data["sweep"], data["scatter"], data["gmm"]["means"]
    dim = len(means[0]) if isinstance(means[0], list) else 1
    components = len(means)
    row_bytes = 8 * (4 * dim + 3)
    # pcg draws each seed's (inner_steps, dim) block, then stacks them
    inner, draw_bytes = guidance["pcg_inner_steps"], 16 * dim
    if run["seeds"] is None:
        run_seeds = ("run.seed_count", run["seed_count"])
    else:
        run_seeds = ("run.seeds", len(run["seeds"]))
    grid_steps = ("grid.steps", data["grid"]["steps"])
    strategies = run["strategies"] or [guidance["strategy"]]
    runs = (f"{len(strategies)} run.strategies" if run["strategies"] else "1 guidance.strategy",
            len(strategies))
    # sample and flow-sample write every step's log, one drive for all
    # their runs; the guidance-off probe compares its 4 runs' logs
    for block, (steps_path, steps), (seeds_path, n_seeds), (runs_text, n_runs), n_pcg in (
        ("run", grid_steps, run_seeds, runs, strategies.count("pcg")),
        ("flow", ("flow.steps", data["flow"]["steps"]), run_seeds, ("1 run", 1), 0),
        ("probes.guidance_off", grid_steps,
         ("probes.guidance_off.seed_count", probes["guidance_off"]["seed_count"]),
         ("4 guidance-off runs", 4), 0),
    ):
        if n_seeds * (n_runs * steps * row_bytes + n_pcg * inner * draw_bytes) > LOG_BUDGET_BYTES:
            terms = f"{runs_text} x {steps_path}={steps} x {row_bytes} bytes of trajectory log"
            if n_pcg:
                terms += (f" + {n_pcg} pcg x guidance.pcg_inner_steps={inner} x {draw_bytes}"
                          " bytes of pcg draws")
            raise ConfigError(
                f"{block}: {seeds_path}={n_seeds} x ({terms}) "
                f"exceeds the {LOG_BUDGET_BYTES}-byte budget"
            )
    # sweep, scatter and the norm probe each run one finals-only drive over
    # all their rows; a drive with pcg is charged its draws on every row
    n_strat, n_sweep = len(sweep["strategies"]), len(sweep["omegas"])
    n_scatter = len(scatter["omegas"])
    for block, rows, terms, pcg in (
        ("sweep", n_strat * n_sweep * sweep["seed_count"],
         f"{n_sweep} sweep.omegas x sweep.seed_count={sweep['seed_count']} x "
         f"{n_strat} sweep.strategies",
         "pcg" in sweep["strategies"]),
        ("scatter", n_scatter * components * scatter["seeds_per_class"],
         f"{n_scatter} scatter.omegas x {components} components x "
         f"scatter.seeds_per_class={scatter['seeds_per_class']}",
         scatter["strategy"] == "pcg"),
        ("probes.norm", 2 * probes["norm"]["seed_count"],
         f"2 x probes.norm.seed_count={probes['norm']['seed_count']}", False),
    ):
        need = finals_peak_bytes(rows, dim, components, inner if pcg else 0)
        if need > LOG_BUDGET_BYTES:
            draws = f" with guidance.pcg_inner_steps={inner}" if pcg else ""
            raise ConfigError(
                f"{block}: {terms} = {rows} rows of dim {dim} over {components} components"
                f"{draws} need {need} bytes, over the {LOG_BUDGET_BYTES}-byte budget"
            )
    # prop1_stress holds its draw arrays whole and builds the pairs block by block
    prop1 = probes["prop1"]
    need = prop1_peak_bytes(prop1["trials"], prop1["dims"])
    if need > LOG_BUDGET_BYTES:
        raise ConfigError(
            f"probes.prop1: probes.prop1.trials={prop1['trials']} over {len(prop1['dims'])} dims "
            f"up to probes.prop1.dims entry {max(prop1['dims'])} needs {need} bytes, "
            f"over the {LOG_BUDGET_BYTES}-byte budget"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Normalized configuration document and the typed objects built from it.

    Construction checks the document and builds what the commands use,
    once; equality is the document's.
    """

    data: dict
    _built: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        data = self.data
        _validate(data)
        _check_log_budget(data)  # before make_grid allocates the grid
        block = data["gmm"]
        with _at("gmm"):
            means = np.asarray(block["means"], dtype=float)
            if means.ndim == 1:
                means = means[:, None]
            weights = block["weights"] or np.full(means.shape[0], 1.0 / means.shape[0])
            dim = means.shape[1] if block["dim"] is None else block["dim"]
            gmm = GaussianMixture(dim=dim, means=means, weights=np.asarray(weights, float))
        block = data["schedule"]
        with _at("schedule"):
            schedule = NoiseSchedule(
                block["beta_min"], block["beta_max"], block["T"], block["shape"])
        block = data["grid"]
        with _at("grid"):
            grid = make_grid(schedule, block["steps"], block["t_end"], block["t_start"])
        block = data["guidance"]
        with _at("guidance"):
            guidance = GuidanceConfig(
                **{k: v for k, v in block.items() if k != "apg"},
                apg_params=ApgParams(**block["apg"]),
            )
        # GuidanceConfig checks the strategy and the weight separately, so
        # one build per named value covers every strategy x omega run
        run, sweep, scatter = data["run"], data["sweep"], data["scatter"]
        for path, key, values in (
            ("run.strategies", "strategy", run["strategies"] or ()),
            ("sweep.strategies", "strategy", sweep["strategies"]),
            ("sweep.omegas", "omega", sweep["omegas"]),
            ("scatter.strategy", "strategy", [scatter["strategy"]]),
            ("scatter.omegas", "omega", scatter["omegas"]),
            ("probes.norm.omega", "omega", [data["probes"]["norm"]["omega"]]),
            ("flow.omega", "omega", [data["flow"]["omega"]]),
        ):
            for value in values:
                with _at(path):
                    replace(guidance, **{key: value})
        with _at("flow.sigma_min"):
            FlowPath(sigma_min=data["flow"]["sigma_min"])
        built = {"gmm": gmm, "schedule": schedule, "grid": grid, "guidance": guidance}
        object.__setattr__(self, "_built", built)

    def gmm(self) -> GaussianMixture:
        return self._built["gmm"]

    def noise_schedule(self) -> NoiseSchedule:
        return self._built["schedule"]

    def time_grid(self) -> TimeGrid:
        return self._built["grid"]

    def guidance(self, strategy: str | None = None, omega: float | None = None) -> GuidanceConfig:
        """The guidance block, with the strategy or the weight replaced when given."""
        changes = {k: v for k, v in (("strategy", strategy), ("omega", omega)) if v is not None}
        return replace(self._built["guidance"], **changes) if changes else self._built["guidance"]

    def seeds(self) -> list[int]:
        run = self.data["run"]
        return list(run["seeds"] if run["seeds"] is not None else range(run["seed_count"]))

    def condition(self) -> int:
        return self.data["run"]["condition"]

    def strategies(self) -> list[str]:
        return list(self.data["run"]["strategies"] or [self.data["guidance"]["strategy"]])

    def output_dir(self) -> str:
        return self.data["run"]["output_dir"]


# libyaml's parser when PyYAML was built with it: the same safe constructors, parsing 5-8x faster
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_yaml(text: str, where: str):
    """YAML text to values; PyYAML raises ValueError, LookupError or
    AttributeError, not YAMLError, for scalars like 2001-13-45 or !!bool 3."""
    try:
        return yaml.load(text, Loader=_SAFE_LOADER)
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def loads_config(text: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse a YAML document (plus --set overrides) into a config."""
    raw = _parse_yaml(text, "invalid YAML")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping")
    for item in overrides or []:
        raw = _apply_override(raw, item)
    return ExperimentConfig(data=_merge(DEFAULTS, raw, ""))


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
    value = _parse_yaml(value_text, f"--set {key}: invalid value")
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
