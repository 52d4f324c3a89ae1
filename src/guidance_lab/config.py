"""Experiment configuration: one YAML document, checked on load.

The document has nested blocks (gmm, schedule, grid, guidance, run,
probes, sweep, scatter, flow).  ``DEFAULTS`` is its one table of each
leaf's default, type and the bounds no other module owns.  Loading fills
the defaults, checks every leaf under its dotted path and runs each
owner's check, so a loaded document, written back as YAML, loads to the
same config, and every invalid document is a :class:`ConfigError`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple

import numpy as np
import yaml

from .guidance import DEFAULT_ANGLE_CAP, ApgParams, GuidanceConfig, check_start
from .mixture import GaussianMixture, _check_condition
from .samplers import check_flow, drive_peak_bytes
from .schedule import NoiseSchedule, TimeGrid, make_grid
from .theory import check_c1, prop1_peak_bytes

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "loads_config"]


class ConfigError(ValueError):
    """Invalid configuration document; the message starts with the leaf at fault, each leaf
    of a broken tie, or the block when the error names no field."""


class Leaf(NamedTuple):
    """A table entry the default alone does not type or bound.  ``kind`` is
    int, float, str, ``[kind]`` (a non-empty list) or a function ``(value,
    path) -> value``; None means the default's type.  ``lo`` and ``hi``
    bound a number or each list entry.  A float must be finite unless ``hi``
    is inf, which admits inf.  A None default also admits None."""

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


def _directory(value, path):
    """A directory path: a non-empty string."""
    value = _typed(value, Leaf(None, str), path)
    if not value:
        raise ConfigError(f"{path}: must name a directory, got ''")
    return value


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
        "steps": 200,
        "t_end": Leaf(None, float),         # defaults to schedule T
        "t_start": 0.0,
    },
    "guidance": {
        "strategy": "cfg",
        "omega": 1.0,
        "angle_cap": DEFAULT_ANGLE_CAP,
        "cfgpp_lambda": 0.5,
        # r = inf is the documented linear-extrapolation reduction
        "apg": {"eta": 0.0, "beta": -0.5, "r": Leaf(2.5, hi=math.inf)},
        "recfg_lambda": Leaf(1.0, _recfg_lambda),
        "pcg_inner_steps": 0,
        "pcg_langevin_mode": "paper-literal",
    },
    "run": {
        "seeds": Leaf(None, [int], 0, SEED_MAX),  # explicit list, or use seed_count
        "seed_count": Leaf(16, lo=1),
        "condition": 0,
        "strategies": Leaf(None, [str]),    # defaults to [guidance.strategy]
        "output_dir": Leaf("out", _directory),
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
        "steps": 200,
        "omega": 3.0,
    },
}

# Largest working set one block may hold: its command's drive, as
# samplers.drive_peak_bytes charges it, or the prop1 stress test's per-pair
# scalars and one block of pairs (theory.prop1_peak_bytes).
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
        # NaN passes every bound comparison below, so it is refused here
        if not (math.isfinite(value) or value == leaf.hi == math.inf):
            raise ConfigError(f"{path}: must be finite, got {value!r}")
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
def _at(block: str, **leaves: str):
    """Report an owner's ValueError as a ConfigError at the leaf of each field it names,
    ``block.field`` unless ``leaves`` maps the field to a path, or at ``block``."""
    try:
        yield
    except ValueError as exc:
        fields = getattr(exc, "fields", ())
        where = ", ".join(leaves.get(f, f"{block}.{f}") for f in fields) or block
        raise ConfigError(f"{where}: {exc}") from exc


def _validate(data: dict) -> None:
    """Rules a table entry cannot state: ties between leaves, strict bounds, owners' checks."""
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
    # so would two scatter weights that name one figure, scatter_omega_{omega:g}.svg
    named = {}
    for omega in data["scatter"]["omegas"]:
        first = named.setdefault(f"{omega:g}", omega)
        if first != omega:
            raise ConfigError(f"scatter.omegas: omegas {first!r} and {omega!r} both name "
                              f"scatter_omega_{omega:g}.svg; entries must be distinct")
    # the probe checks that c1 grows from each omega to the next
    if not all(a < b for a, b in zip(c1["omegas"], c1["omegas"][1:])):
        raise ConfigError(f"probes.c1.omegas: must be strictly increasing, got {c1['omegas']!r}")
    with _at("probes.c1", omega="probes.c1.omegas"):
        for omega in c1["omegas"]:
            check_c1(c1["alpha_bar"], omega, c1["k_max"])
    if not c1["bisection_tol"] > 0.0:
        raise ConfigError(f"probes.c1.bisection_tol: must be > 0, got {c1['bisection_tol']!r}")
    with _at("flow"):
        check_flow(data["flow"]["sigma_min"], data["flow"]["steps"])
    if prop1["trials"] < len(prop1["dims"]):
        raise ConfigError(f"probes.prop1.trials: must be >= the {len(prop1['dims'])} dims")


def _check_log_budget(data: dict, gmm: GaussianMixture) -> None:
    """Refuse a block whose drive, or prop1 test, would hold more than LOG_BUDGET_BYTES."""
    guidance, run, probes = data["guidance"], data["run"], data["probes"]
    sweep, scatter, dim, components = data["sweep"], data["scatter"], gmm.dim, gmm.n_components
    if run["seeds"] is None:
        seeds_path, n_seeds = "run.seed_count", run["seed_count"]
    else:
        seeds_path, n_seeds = "run.seeds", len(run["seeds"])
    strategies = run["strategies"] or [guidance["strategy"]]
    runs = f"{len(strategies)} run.strategies" if run["strategies"] else "1 guidance.strategy"
    grid_steps, flow_steps = data["grid"]["steps"], data["flow"]["steps"]
    n_off, n_norm = probes["guidance_off"]["seed_count"], probes["norm"]["seed_count"]
    n_omegas, n_strat = len(sweep["omegas"]), len(sweep["strategies"])
    n_scatter = len(scatter["omegas"])
    prop1 = probes["prop1"]

    def drive(entries, rows, steps=0, pcg=False):
        """A drive's sizing entries and its charge; with pcg, every row is
        charged guidance.pcg_inner_steps of draws."""
        inner = guidance["pcg_inner_steps"] if pcg else 0
        draws = f" with guidance.pcg_inner_steps={inner}" if pcg else ""
        return (f"{entries}{draws} at dim {dim} over {components} components",
                drive_peak_bytes(rows, dim, components, inner, steps))

    # one drive per command: sample and flow-sample log every step of all
    # their runs' rows, the guidance-off probe its 4 runs'; sweep, scatter
    # and the norm probe keep finals only
    for block, (entries, need) in (
        ("run", drive(
            f"{seeds_path}={n_seeds} x ({runs} x grid.steps={grid_steps} logged steps)",
            n_seeds * len(strategies), grid_steps, "pcg" in strategies)),
        ("flow", drive(
            f"{seeds_path}={n_seeds} x (1 run x flow.steps={flow_steps} logged steps)",
            n_seeds, flow_steps)),
        ("probes.guidance_off", drive(
            f"probes.guidance_off.seed_count={n_off} x (4 guidance-off runs x "
            f"grid.steps={grid_steps} logged steps)", 4 * n_off, grid_steps)),
        ("sweep", drive(
            f"{n_omegas} sweep.omegas x sweep.seed_count={sweep['seed_count']} x "
            f"{n_strat} sweep.strategies", n_omegas * sweep["seed_count"] * n_strat,
            pcg="pcg" in sweep["strategies"])),
        ("scatter", drive(
            f"{n_scatter} scatter.omegas x {components} components x "
            f"scatter.seeds_per_class={scatter['seeds_per_class']}",
            n_scatter * components * scatter["seeds_per_class"],
            pcg=scatter["strategy"] == "pcg")),
        ("probes.norm", drive(f"2 x probes.norm.seed_count={n_norm}", 2 * n_norm)),
        # prop1_stress holds four floats per pair and draws and builds the pairs block by block
        ("probes.prop1", (f"probes.prop1.trials={prop1['trials']} over {len(prop1['dims'])} "
                          f"dims up to probes.prop1.dims entry {max(prop1['dims'])}",
                          prop1_peak_bytes(prop1["trials"], prop1["dims"]))),
    ):
        if need > LOG_BUDGET_BYTES:
            raise ConfigError(
                f"{block}: {entries} need {need} bytes, over the {LOG_BUDGET_BYTES}-byte budget")


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
        block = data["gmm"]
        with _at("gmm"):
            means = block["means"]
            if not isinstance(means[0], list):  # a number per mean: a 1-D mixture
                means = [[m] for m in means]
            weights = block["weights"] or np.full(len(means), 1.0 / len(means))
            dim = len(means[0]) if block["dim"] is None else block["dim"]
            gmm = GaussianMixture(dim=dim, means=means, weights=weights)
        _check_log_budget(data, gmm)  # before make_grid allocates the grid
        run, sweep, scatter = data["run"], data["sweep"], data["scatter"]
        with _at("run"):
            _check_condition(gmm, run["condition"])
        with _at("schedule", horizon="schedule.T"):
            schedule = NoiseSchedule(**{"horizon" if key == "T" else key: value
                                        for key, value in data["schedule"].items()})
        with _at("grid", horizon="schedule.T", beta_min="schedule.beta_min",
                 beta_max="schedule.beta_max"):
            grid = make_grid(schedule, **data["grid"])
        block = dict(data["guidance"])
        with _at("guidance.apg"):
            apg = ApgParams(**block.pop("apg"))
        with _at("guidance"):
            guidance = GuidanceConfig(apg_params=apg, **block)
        # GuidanceConfig checks the strategy and the weight separately, so
        # one build per named value covers every strategy x omega run; each
        # strategy, guidance.strategy (the determinism probe's) included, must
        # also be able to start from the grid's first alpha_bar
        grid_start = "schedule.beta_min, schedule.beta_max, schedule.T, grid.t_end"
        for path, key, values in (
            ("guidance.strategy", "strategy", [block["strategy"]]),
            ("run.strategies", "strategy", run["strategies"] or ()),
            ("sweep.strategies", "strategy", sweep["strategies"]),
            ("sweep.omegas", "omega", sweep["omegas"]),
            ("scatter.strategy", "strategy", [scatter["strategy"]]),
            ("scatter.omegas", "omega", scatter["omegas"]),
            ("probes.norm.omega", "omega", [data["probes"]["norm"]["omega"]]),
            ("flow.omega", "omega", [data["flow"]["omega"]]),
        ):
            for value in values:
                with _at(path, **{key: path}, alpha_bar=grid_start):
                    replace(guidance, **{key: value})
                    if key == "strategy":
                        check_start(value, grid.alpha_bars[0])
        # recfg samples run.condition in sample, sweep and the determinism
        # probe, and every component in scatter
        sampled = {block["strategy"], *(run["strategies"] or ()), *sweep["strategies"]}
        used = {run["condition"]} if "recfg" in sampled else set()
        if scatter["strategy"] == "recfg":
            used.update(range(gmm.n_components))
        with _at("guidance"):
            for condition in sorted(used):
                guidance.recfg_lambda_for(condition)
        object.__setattr__(self, "_built", {"gmm": gmm, "grid": grid, "guidance": guidance})

    def gmm(self) -> GaussianMixture:
        return self._built["gmm"]

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


def _apply_override(raw: dict, item: str) -> dict:
    """Apply one ``dotted.path=value`` override; values parse as YAML."""
    if "=" not in item:
        raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
    key, _, value_text = item.partition("=")
    key = key.strip()
    parts = key.split(".")
    if not all(parts):
        raise ConfigError(f"--set {item!r}: empty key")
    value = _parse_yaml(value_text, f"--set {key}: invalid value")
    node = raw
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
