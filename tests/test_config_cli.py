"""Configuration loading, CLI commands, CSV/SVG emission contracts."""

import json
import math
from dataclasses import asdict
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import guidance_lab
from guidance_lab import config as config_module
from guidance_lab.cli import _load, build_parser, main
from guidance_lab.config import DEFAULTS, ConfigError, load_config, loads_config
from guidance_lab.guidance import GuidanceConfig
from guidance_lab.reports import write_csv
from guidance_lab.schedule import NoiseSchedule, alpha_bar
from guidance_lab.svgplot import render_scatter, render_sweep
from oracles import dump_config

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT = os.path.join(REPO, "configs", "default.yaml")
FAILING = os.path.join(REPO, "configs", "failing.yaml")
CORRUPT = os.path.join(REPO, "configs", "corrupt.yaml")

MINIMAL_1D = """
gmm:
  means: [[-1.0], [1.0]]
grid:
  steps: 40
run:
  seed_count: 10
  condition: 1
"""

# twelve classes on a circle: class labels 10 and 11 sort before 2 as strings
TWELVE_2D = f"""
gmm:
  means: {[[round(3.0 * math.cos(k * math.pi / 6), 6), round(3.0 * math.sin(k * math.pi / 6), 6)]
           for k in range(12)]}
grid:
  steps: 8
scatter:
  seeds_per_class: 2
"""


def _leaf_paths(table, prefix=""):
    for key, entry in table.items():
        if isinstance(entry, dict):
            yield from _leaf_paths(entry, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


LEAF_PATHS = sorted(_leaf_paths(DEFAULTS))
with open(DEFAULT, encoding="utf-8") as _fh:
    DEFAULT_TEXT = _fh.read()
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)
YAML_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_SCALARS, inner, max_size=3),
    max_leaves=8,
)


def _with_last_float(value, bad):
    """``value`` with its last float, nested in lists, replaced by ``bad``."""
    return value[:-1] + [_with_last_float(value[-1], bad)] if isinstance(value, list) else bad


def _float_leaves(node, path=""):
    """(dotted path, value) of every leaf of a loaded document holding a float."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _float_leaves(value, f"{path}.{key}" if path else key)
        return
    last = node
    while isinstance(last, list) and last:
        last = last[-1]
    if isinstance(last, float):
        yield path, node


# a non-finite entry in each float leaf of the default document, and in a
# recfg_lambda table; guidance.apg.r = inf is the documented reduction
NONFINITE_SETTINGS = [
    f"{path}={yaml.safe_dump(value, default_flow_style=True).splitlines()[0]}"
    for bad in (math.nan, math.inf, -math.inf)
    for path, value in [
        *((path, _with_last_float(value, bad))
          for path, value in _float_leaves(loads_config(DEFAULT_TEXT).data)),
        ("guidance.recfg_lambda", {0: 0.5, 1: bad}),
    ]
    if not (path == "guidance.apg.r" and bad == math.inf)
]


TRICKY_SCALARS = [
    "1e-8", "1.0e9", "1.0e+400", "-1e400", ".inf", "-.inf", ".nan", "~", "[]", "{}", "0x1F",
    "0o17", "010", "1_000", "1:20", "2001-12-14", "2001-13-45", "!!bool 3", "!!int abc",
    "!!timestamp 99", "!!float x", "!!binary zz", "{[1]: 2}", "[1, [2]]", "[[1.0], [2.0, 3.0]]",
    "100000000000", str(10**400),
]


class TestConfig:
    def test_minimal_document_fills_defaults(self):
        config = loads_config(MINIMAL_1D)
        assert config.gmm().n_components == 2
        assert config.time_grid().alpha_bars[0] == alpha_bar(NoiseSchedule(), 1.0)
        assert config.guidance().strategy == "cfg"
        assert config.seeds() == list(range(10))
        assert config.condition() == 1

    def test_unknown_key_has_dotted_path(self):
        with pytest.raises(ConfigError, match=r"guidance\.omeag: unknown key"):
            loads_config("guidance: {omeag: 3}")
        with pytest.raises(ConfigError, match=r"probes\.norm\.omgea: unknown key"):
            loads_config("probes: {norm: {omgea: 3}}")

    def test_round_trip_is_identity(self):
        config = loads_config(MINIMAL_1D)
        again = loads_config(dump_config(config))
        assert config == again
        assert config.data == again.data

    def test_round_trip_shipped_configs(self):
        for path in (DEFAULT, FAILING):
            config = load_config(path)
            assert loads_config(dump_config(config)) == config

    def test_table_defaults_are_the_library_defaults(self):
        # the table restates GuidanceConfig's (with ApgParams') and
        # NoiseSchedule's defaults, where schedule.T is the horizon
        data = loads_config("").data
        guidance, schedule = dict(data["guidance"]), dict(data["schedule"])
        apg = guidance.pop("apg")
        schedule["horizon"] = schedule.pop("T")
        library = asdict(GuidanceConfig())
        library_apg = library.pop("apg_params")
        for table, defaults in ((guidance, library), (apg, library_apg),
                                (schedule, asdict(NoiseSchedule()))):
            assert table == defaults
            assert {k: type(v) for k, v in table.items()} == {
                k: type(v) for k, v in defaults.items()}

    def test_overrides_apply_and_last_wins(self):
        config = loads_config(MINIMAL_1D, overrides=["guidance.omega=3.5", "guidance.omega=4.5"])
        assert config.guidance().omega == 4.5

    def test_override_parses_yaml_values(self):
        config = loads_config(
            MINIMAL_1D, overrides=["run.seeds=[3, 5]", "guidance.strategy=adg"]
        )
        assert config.seeds() == [3, 5]
        assert config.guidance().strategy == "adg"

    def test_override_bad_syntax(self):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            loads_config(MINIMAL_1D, overrides=["guidance.omega"])

    def test_invalid_weights_rejected(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            loads_config("gmm: {means: [[0.0], [1.0]], weights: [0.5, 0.4]}")
        with pytest.raises(ConfigError, match=r"sum to 1, got 1\.0000000001$"):
            loads_config("gmm: {means: [[0.0], [1.0]], weights: [0.5, 0.5000000001]}")

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            loads_config("guidance: {strategy: warp}")

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            loads_config("- 1\n- 2\n")

    def test_recfg_lambda_table(self):
        config = loads_config("guidance: {recfg_lambda: {0: 0.5, 1: 0.9}}")
        assert config.guidance().recfg_lambda_for(1) == 0.9

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ConfigError, match=r"run\.seeds: seed 1 repeated"):
            loads_config("run: {seeds: [1, 2, 1]}")
        assert loads_config("run: {seeds: [2, 1]}").seeds() == [2, 1]

    def test_leaf_types_follow_the_table(self):
        config = loads_config("guidance: {omega: 5, apg: {r: 3}}\ngmm: {means: [-1, 1]}")
        assert config.data["guidance"]["omega"] == 5.0
        assert isinstance(config.data["guidance"]["omega"], float)
        assert config.gmm().means.tolist() == [[-1.0], [1.0]]  # flat means: a 1-D mixture
        with pytest.raises(ConfigError, match=r"grid\.steps: expected int, got True"):
            loads_config("grid: {steps: true}")
        with pytest.raises(ConfigError, match=r"guidance\.omega: expected float, got False"):
            loads_config("guidance: {omega: false}")
        with pytest.raises(ConfigError, match=r"run\.strategies\[1\]: expected str"):
            loads_config("run: {strategies: [cfg, 3]}")

    def test_string_number_names_a_yaml_float_spelling(self):
        # YAML 1.1 reads 1e-8 (no decimal point) and 1.0e9 (unsigned exponent)
        # as strings
        with pytest.raises(ConfigError, match=r"probes\.c1\.bisection_tol: .*write 1\.0e-08"):
            loads_config("probes: {c1: {bisection_tol: 1e-8}}")
        with pytest.raises(ConfigError, match=r"probes\.norm\.margin_floor: .*write 1000000000\.0"):
            loads_config("probes: {norm: {margin_floor: 1.0e9}}")
        assert loads_config("probes: {c1: {bisection_tol: 1.0e-8}}").data["probes"]["c1"][
            "bisection_tol"] == 1e-8

    def test_malformed_yaml_scalars_are_config_errors(self):
        # PyYAML raises ValueError, KeyError or AttributeError for these
        for text in ("2001-13-45", "!!bool 3", "!!timestamp 99", "!!int abc"):
            with pytest.raises(ConfigError):
                loads_config(f"run: {{output_dir: {text}}}")
            with pytest.raises(ConfigError, match=r"--set run\.output_dir"):
                loads_config("", [f"run.output_dir={text}"])

    def test_shipped_configs_parse_as_the_pure_python_loader(self):
        for path in sorted(os.listdir(os.path.join(REPO, "configs"))):
            with open(os.path.join(REPO, "configs", path), encoding="utf-8") as fh:
                text = fh.read()
            assert config_module._parse_yaml(text, path) == yaml.safe_load(text), path

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(LEAF_PATHS), value=st.one_of(
        YAML_VALUES.map(lambda v: yaml.safe_dump(v, default_flow_style=True)),
        st.sampled_from(TRICKY_SCALARS),
        st.text(max_size=12),
    ))
    def test_any_leaf_override_loads_or_is_a_config_error(self, path, value):
        try:
            config = loads_config(DEFAULT_TEXT, [f"{path}={value}"])
        except ConfigError:
            return
        for leaf, held in _float_leaves(config.data):
            assert leaf == "guidance.apg.r" or np.isfinite(np.ravel(held)).all(), (leaf, held)


def run_cli(*argv) -> int:
    return main(list(argv))


def _readme_cli_examples():
    """The ``guidance-lab ...`` lines of README's sh blocks."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("guidance-lab ")]


CONFIG_COMMANDS = ("sample", "verify", "probe-c1", "probe-norm", "sweep", "scatter",
                   "flow-sample")


class TestCliContracts:
    def test_sample_writes_summary_rows(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            "sample", "--config", DEFAULT, "--set", "run.seed_count=10",
            "--set", "run.seeds=null", "--set", "guidance.omega=1", "--out", str(out),
        )
        assert code == 0
        lines = (out / "summary_cfg.csv").read_text().splitlines()
        assert len(lines) == 11  # header + one row per seed
        assert lines[0].startswith("seed,strategy,omega,x0_0")
        assert "w_dot_x0" in lines[0]
        captured = capsys.readouterr()
        assert "mean_norm=" in captured.out

    # a config command sets a leaf one way, --set; --out names the output directory
    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_config_command_takes_only_config_set_and_out(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
            "--help", "--config", "--set", "--out"}
        out = tmp_path / "out"
        for flag, value in (("--seed-count", "2"), ("--strategy", "adg"), ("--omega", "7")):
            with pytest.raises(SystemExit) as exc:
                run_cli(command, "--config", DEFAULT, "--out", str(out), flag, value)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: guidance-lab {command} [-h] --config CONFIG "
                                  "[--set K=V] [--out OUT]\n")
            assert f"unrecognized arguments: {flag} {value}" in err
            assert not out.exists()
        assert _load(build_parser().parse_args([command, "--config", DEFAULT])) == (
            load_config(DEFAULT))

    # README's examples parse as the parser stands; none runs
    @pytest.mark.parametrize("line", _readme_cli_examples())
    def test_readme_cli_example_parses(self, line):
        build_parser().parse_args(shlex.split(line, comments=True)[1:])

    def test_set_omega_sets_the_norm_probe_and_flow_weights(self, tmp_path, capsys):
        small = ["--config", DEFAULT, "--out", str(tmp_path)]
        assert run_cli("probe-norm", *small, "--set", "probes.norm.omega=3",
                       "--set", "grid.steps=10", "--set", "probes.norm.seed_count=2") == 0
        report = json.loads((tmp_path / "norm_report.json").read_text())
        assert report["probes"][0]["parameters"]["omega"] == 3.0
        assert run_cli("flow-sample", *small, "--set", "run.seed_count=2",
                       "--set", "run.seeds=null", "--set", "flow.omega=2.5",
                       "--set", "flow.steps=10") == 0
        assert "flow omega=2.5 " in capsys.readouterr().out

    def test_sample_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli(
                "sample", "--config", DEFAULT, "--set", "run.seed_count=6",
                "--set", "run.seeds=null", "--out", str(out),
            ) == 0
        for name in ("summary_cfg.csv", "trajectories_cfg.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_sample_multiple_strategies_cfg_exceeds_adg(self, tmp_path, capsys):
        out = tmp_path / "multi"
        code = run_cli(
            "sample", "--config", DEFAULT, "--set", "run.seed_count=12",
            "--set", "run.seeds=null", "--out", str(out),
            "--set", "run.strategies=[cfg, adg]", "--set", "guidance.omega=5.0",
            "--set", "grid.steps=120",
        )
        assert code == 0
        means = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("strategy="):
                fields = dict(kv.split("=") for kv in line.split())
                means[fields["strategy"]] = float(fields["mean_norm"])
        assert means["cfg"] > means["adg"]

    def test_verify_exit_codes_on_fixtures(self, tmp_path):
        assert run_cli(
            "verify", "--config", FAILING, "--out", str(tmp_path / "f"),
        ) == 1
        assert run_cli(
            "verify", "--config", CORRUPT, "--out", str(tmp_path / "c"),
        ) == 2

    def test_verify_report_written(self, tmp_path):
        # shrink the suite for runtime; omega=1 norm probe reports n/a
        out = tmp_path / "v"
        code = run_cli(
            "verify", "--config", DEFAULT, "--out", str(out),
            "--set", "probes.score_oracle.cases=40",
            "--set", "probes.score_identity.cases=40",
            "--set", "probes.prop1.trials=4000",
            "--set", "probes.norm.omega=1.0",
            "--set", "probes.norm.seed_count=4",
            "--set", "probes.guidance_off.seed_count=2",
            "--set", "grid.steps=60",
        )
        assert code == 0
        payload = json.loads((out / "verify_report.json").read_text())
        assert payload["all_passed"] is True
        by_name = {p["name"]: p for p in payload["probes"]}
        assert by_name["norm_amplification"]["verdict"] == "n/a"
        assert os.path.exists(out / "probe_anomalous_interval.csv")

    # Every block is checked at load, so each input exits 2 whichever command
    # reads it; `sample` reads none of the probe blocks.
    @pytest.mark.parametrize("command, setting", [
        ("sample", "probes.norm.seed_count=abc"),
        ("sample", "probes.norm.margin_floor=abc"),
        ("sample", "probes.norm.seed_count=0"),
        ("sample", "probes.c1.omegas=[1.0,2.0]"),
        ("probe-c1", "probes.c1.omegas=[3.0, 2.0, 5.0]"),
        ("probe-c1", "probes.c1.omegas=[2.0, 2.0, 5.0]"),
        ("sample", "probes.c1.k_max=0"),
        ("sample", "probes.c1.alpha_bar=1.5"),
        ("sample", "probes.c1.bisection_tol=0"),
        ("sample", "probes.prop1.dims=[]"),
        ("sample", "probes.prop1.trials=2"),
        ("sample", "probes.score_oracle.cases=-5"),
        ("sample", "probes.cfgpp.steps=0"),
        ("sample", "probes.guidance_off.seed_count=0"),
        ("flow-sample", "flow.steps=0"),
        ("flow-sample", "flow.sigma_min=1.5"),
        ("flow-sample", "flow.sigma_min=1.0"),
        ("flow-sample", "flow.sigma_min=-0.1"),
        ("sweep", "sweep.omegas=[0.5]"),
        ("sweep", "sweep.strategies=[warp]"),
        ("sweep", "sweep.seed_count=100000000"),
        ("scatter", "scatter.strategy=warp"),
        ("scatter", "scatter.seeds_per_class=-1"),
        ("scatter", "scatter.seeds_per_class=0"),
        ("sample", "run.seeds=[]"),
        ("sample", "run.condition=9"),
        ("sample", "grid.steps=100000000000"),
        ("sample", f"run.seed_count={10**400}"),
        ("sample", f"run.seeds=[3, {2**64}]"),
        ("sample", f"probes.score_oracle.seed={2**64 - 1}"),  # seed + 1 seeds the simplex probe
        ("sample", f"probes.score_identity.seed={2**64}"),
        ("sample", f"probes.prop1.seed={2**64}"),
        ("sample", f"probes.cfgpp.seed={2**64}"),
        ("sample", "probes.prop1.trials=10000000000000"),
        ("sample", "probes.prop1.dims=[100000000]"),
        # a constructor's check on one leaf names that leaf, not its block
        ("sample", "guidance.omega=0.5"),
        ("probe-norm", "probes.norm.omega=0.5"),
        ("flow-sample", "flow.omega=0.5"),
        ("sample", "guidance.apg.eta=-1"),
        ("sample", "schedule.beta_min=-1"),
    ])
    def test_invalid_input_exits_2_naming_its_path(self, tmp_path, capsys, command, setting):
        out = tmp_path / "o"
        assert run_cli(command, "--config", DEFAULT, "--out", str(out), "--set", setting) == 2
        assert setting.partition("=")[0] in capsys.readouterr().err
        assert not out.exists()

    # an owner's error names the leaf its rule checks, every leaf of a tie
    # (schedule.T is the schedule's horizon) or a list leaf's path
    @pytest.mark.parametrize("setting, where", [
        ("gmm.weights=[0.5, 0.2, 0.2, 0.2]", "gmm.weights: mixing weights must sum to 1"),
        ("gmm.dim=0", "gmm.dim: dim must be a positive integer"),
        ("gmm.dim=3", "gmm.dim, gmm.means: means must have shape (C, 3), got (4, 2)"),
        ("grid.t_end=5", "schedule.T, grid.t_end: t_end 5.0 exceeds horizon 1.0"),
        ("grid.t_start=-1", "grid.t_end, grid.t_start: need t_end > t_start >= 0"),
        ("schedule.T=-1", "schedule.T: horizon must be positive"),
        ("schedule.beta_max=0.05", "schedule.beta_min, schedule.beta_max: beta_max must be"),
        ("probes.c1.omegas=[1.0, 2.0]", "probes.c1.omegas: c1 requires omega > 1, got 1.0"),
        ("run.condition=9", "run.condition: component index 9 outside [0, 4)"),
        ("gmm.means=[[1.0], [1.0, 2.0]]", "gmm.means: means must be a (C, 2) array of numbers"),
        ("gmm.means=[1.0, [2.0]]", "gmm.means: means must be a (C, 2) array of numbers"),
        # a grid finer than float resolution: t_end, t_start and steps set the spacing,
        # and where only the alpha_bars tie, the schedule sets them too
        ("grid.t_end=1.0e-20", "grid.t_end, grid.t_start, grid.steps, schedule.beta_min, "
                               "schedule.beta_max, schedule.T: grid alpha_bars must be strictly "
                               "increasing: 200 steps from t_end 1e-20 to t_start 0.0"),
        ("schedule.beta_max=100000", "grid.t_end, grid.t_start, grid.steps, schedule.beta_min, "
                                     "schedule.beta_max, schedule.T: grid alpha_bars must be "
                                     "strictly increasing: 200 steps from t_end 1.0"),
    ])
    def test_config_error_names_the_leaves_its_rule_checks(self, tmp_path, capsys, setting,
                                                           where):
        out = tmp_path / "o"
        assert run_cli("sample", "--config", DEFAULT, "--out", str(out), "--set", setting) == 2
        assert capsys.readouterr().err.startswith(f"config error: {where}")
        assert not out.exists()

    @pytest.mark.parametrize("setting", NONFINITE_SETTINGS)
    def test_nonfinite_float_exits_2_naming_its_path(self, tmp_path, capsys, setting):
        out = tmp_path / "o"
        assert run_cli("sample", "--config", DEFAULT, "--out", str(out), "--set", setting) == 2
        assert setting.partition("=")[0] in capsys.readouterr().err
        assert not out.exists()

    # Inputs only a sampling run would reach: rejected at load, before any output.
    @pytest.mark.parametrize("path, argv", [
        ("guidance.recfg_lambda",
         ["sample", "--set", "guidance.strategy=recfg", "--set", "run.strategies=[recfg]",
          "--set", "guidance.recfg_lambda={1: 0.5}"]),
        ("guidance.recfg_lambda",
         ["scatter", "--set", "scatter.strategy=recfg", "--set", "guidance.recfg_lambda={0: 0.5}"]),
        ("run.seeds", ["sample", "--set", "run.seeds=[18446744073709551616]"]),
        ("guidance.pcg_inner_steps",
         ["sample", "--set", "guidance.strategy=pcg", "--set", "run.strategies=[pcg]",
          "--set", "guidance.pcg_inner_steps=1000000000000"]),
        ("guidance.pcg_inner_steps",
         ["scatter", "--set", "scatter.strategy=pcg", "--set",
          "guidance.pcg_inner_steps=1000000000000"]),
    ])
    def test_sampling_inputs_exit_2_at_load(self, tmp_path, capsys, path, argv):
        out = tmp_path / "o"
        assert run_cli(*argv, "--config", DEFAULT, "--out", str(out)) == 2
        assert path in capsys.readouterr().err
        assert not out.exists()

    # schedule.beta_max=1495 puts the grid's first alpha_bar at exactly 0.0;
    # recfg and cfgpp change variable through x0_from_eps, undefined there
    @pytest.mark.parametrize("path, argv", [
        ("run.strategies", ["sample", "--set", "run.strategies=[cfgpp]"]),
        ("run.strategies", ["sample", "--set", "run.strategies=[recfg]"]),
        ("sweep.strategies", ["sweep", "--set", "sweep.strategies=[cfg, cfgpp]"]),
        ("sweep.strategies", ["sweep", "--set", "sweep.strategies=[recfg]"]),
        ("scatter.strategy", ["scatter", "--set", "scatter.strategy=recfg"]),
        ("scatter.strategy", ["scatter", "--set", "scatter.strategy=cfgpp"]),
        ("guidance.strategy", ["verify", "--set", "guidance.strategy=recfg"]),
        ("guidance.strategy", ["verify", "--set", "guidance.strategy=cfgpp"]),
    ])
    def test_noise_rules_from_alpha_bar_0_exit_2_at_load(self, tmp_path, capsys, path, argv):
        out = tmp_path / "o"
        assert run_cli(*argv, "--config", DEFAULT, "--out", str(out),
                       "--set", "schedule.beta_max=1495") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}, schedule.beta_min, schedule.beta_max, "
                              "schedule.T, grid.t_end: ")
        assert "the grid starts at alpha_bar 0.0" in err
        assert not out.exists()

    def test_other_rules_run_from_alpha_bar_0(self, tmp_path, capsys):
        start = ["schedule.beta_max=1495", "grid.steps=20"]
        assert load_config(DEFAULT, start).time_grid().alpha_bars[0] == 0.0
        rules = "cfg, adg, adg_no_cap, adg_normalized, adg_simplified, apg, pcg"
        assert run_cli(
            "sample", "--config", DEFAULT, "--out", str(tmp_path), "--set", start[0],
            "--set", start[1], "--set", f"run.strategies=[{rules}]",
            "--set", "guidance.pcg_inner_steps=2", "--set", "run.seed_count=2",
        ) == 0
        assert "nan" not in capsys.readouterr().out

    # 4 * max |mu_c|^2, which bounds every squared distance between two means,
    # overflows: refused at load rather than failing or writing inf mid-run
    @pytest.mark.parametrize("means", ["[[1.0e+160, 0.0], [0.0, 1.0]]",
                                       "[[1.0e+154, 0.0], [-1.0e+154, 0.0]]"])
    @pytest.mark.parametrize("command", ["sample", "flow-sample", "sweep", "scatter", "verify",
                                         "probe-c1", "probe-norm"])
    def test_means_whose_squared_distances_overflow_exit_2(self, tmp_path, capsys, command, means):
        out = tmp_path / "o"
        code = run_cli(command, "--config", DEFAULT, "--out", str(out),
                       "--set", f"gmm.means={means}", "--set", "gmm.weights=[0.5, 0.5]")
        assert code == 2
        assert "gmm" in capsys.readouterr().err
        assert not out.exists()

    def test_finals_only_blocks_are_charged_per_row(self):
        # one sweep drive holds len(sweep.omegas) x sweep.seed_count rows
        loads_config(DEFAULT_TEXT, ["sweep.omegas=[2.0]", "sweep.seed_count=300000"])
        with pytest.raises(ConfigError, match="sweep: 5 sweep.omegas x sweep.seed_count=300000"):
            loads_config(DEFAULT_TEXT, ["sweep.seed_count=300000"])

    def test_run_block_is_charged_every_strategy(self, tmp_path, capsys):
        # one sample drive holds every strategy's trajectory log at once;
        # every block is checked at load, so a command that samples nothing
        # exits 2 too
        fits = ["grid.steps=200", "run.seed_count=20000"]
        loads_config(DEFAULT_TEXT, fits + ["run.strategies=[cfg]"])
        out = tmp_path / "o"
        argv = [a for f in fits + ["run.strategies=[cfg, adg, apg, cfgpp]"] for a in ("--set", f)]
        assert run_cli("probe-c1", "--config", DEFAULT, "--out", str(out), *argv) == 2
        assert "run: run.seed_count=20000 x (4 run.strategies x" in capsys.readouterr().err
        assert not out.exists()

    def test_logged_rows_are_charged_their_records(self, tmp_path, capsys):
        # one step of log is 12 floats a row at dim 2, but each row also holds
        # its working set and its TrajectoryRecord: about 30 GB at 10M rows
        out = tmp_path / "o"
        argv = ["--set", "run.seed_count=10000000", "--set", "grid.steps=1",
                "--set", "flow.steps=1"]
        assert run_cli("sample", "--config", DEFAULT, "--out", str(out), *argv) == 2
        assert "run: run.seed_count=10000000 x (1 guidance.strategy x grid.steps=1" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_guidance_off_probe_is_charged_its_four_runs(self):
        with pytest.raises(ConfigError, match=r"probes\.guidance_off: .* x \(4 guidance-off runs"):
            loads_config(DEFAULT_TEXT, ["grid.steps=200", "probes.guidance_off.seed_count=20000"])
        loads_config(DEFAULT_TEXT, ["grid.steps=200", "probes.guidance_off.seed_count=5000"])

    @pytest.mark.parametrize("command", ["verify", "probe-c1", "probe-norm"])
    def test_single_component_mixture_probes_are_na(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = run_cli(
            command, "--config", DEFAULT, "--out", str(out),
            "--set", "gmm.means=[[1.0, 1.0]]", "--set", "gmm.weights=[1.0]",
            "--set", "probes.score_oracle.cases=20", "--set", "probes.score_identity.cases=20",
            "--set", "probes.prop1.trials=2000", "--set", "grid.steps=30",
        )
        assert code == 0
        stdout = capsys.readouterr().out
        if command == "probe-norm":
            assert "[N/A ] norm_amplification" in stdout
            report = json.loads((out / "norm_report.json").read_text())
            assert [p["verdict"] for p in report["probes"]] == ["n/a"]
            assert (out / "norm_margins.csv").exists()
        else:
            assert "[N/A ] anomalous_interval" in stdout
        if command == "verify":
            assert "[N/A ] norm_amplification" in stdout

    @pytest.mark.parametrize("command, report, probes", [
        ("verify", "verify_report.json", ["anomalous_interval", "norm_amplification"]),
        ("probe-c1", "c1_report.json", ["anomalous_interval"]),
        ("probe-norm", "norm_report.json", ["norm_amplification"]),
    ])
    def test_interior_condition_probes_are_na(self, tmp_path, command, report, probes):
        # the square's centre lies inside the hull of its corners: no certificate
        out = tmp_path / "o"
        code = run_cli(
            command, "--config", DEFAULT, "--out", str(out),
            "--set", "gmm.means=[[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]]",
            "--set", "gmm.weights=[0.2, 0.2, 0.2, 0.2, 0.2]", "--set", "run.condition=4",
            "--set", "probes.score_oracle.cases=20", "--set", "probes.score_identity.cases=20",
            "--set", "probes.prop1.trials=2000", "--set", "grid.steps=30",
        )
        assert code == 0
        payload = json.loads((out / report).read_text())
        verdicts = {p["name"]: p["verdict"] for p in payload["probes"]}
        assert all(verdicts[name] == "n/a" for name in probes)

    def test_recfg_table_and_pcg_steps_within_bounds_load(self):
        config = loads_config(DEFAULT_TEXT, [
            "run.strategies=[recfg, pcg]", "guidance.recfg_lambda={0: 0.5}",
            "guidance.pcg_inner_steps=1000",
        ])
        assert config.guidance(strategy="recfg").recfg_lambda_for(0) == 0.5
        # nothing this document runs samples recfg or pcg, so neither is checked
        loads_config(DEFAULT_TEXT, ["guidance.recfg_lambda={3: 0.5}",
                                    "guidance.pcg_inner_steps=1000000000000"])
        loads_config(DEFAULT_TEXT, [f"run.seeds=[0, {2**64 - 1}]",
                                    f"probes.score_oracle.seed={2**64 - 2}"])

    def test_prop1_trials_within_the_budget_load(self):
        # prop1 holds four floats per trial and one block of pairs: 30M trials
        # at three dims charge about 320 MB
        config = loads_config(DEFAULT_TEXT, ["probes.prop1.trials=30000000"])
        assert config.data["probes"]["prop1"]["trials"] == 30_000_000

    def test_numeric_output_dir_stays_a_string(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(
            "sample", "--config", DEFAULT, "--set", "run.seed_count=2",
            "--set", "run.seeds=null", "--out", "010",
            "--set", "grid.steps=20",
        ) == 0
        assert (tmp_path / "010" / "summary_cfg.csv").exists()

    # an empty path would let the command run whole and then fail to write its first file
    @pytest.mark.parametrize("command, argv", [
        ("sample", ["--out", "", "--set", "grid.steps=10"]),
        ("verify", ["--set", 'run.output_dir=""']),
    ], ids=["sample", "verify"])
    def test_empty_output_dir_exits_2_at_load(self, tmp_path, monkeypatch, capsys, command,
                                              argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, "--config", DEFAULT, *argv) == 2
        assert "config error: run.output_dir: must name a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        with pytest.raises(ConfigError, match=r"^run\.output_dir: "):
            loads_config("run: {output_dir: ''}")

    def test_repeated_seeds_exit_2(self, tmp_path, capsys):
        assert run_cli(
            "sample", "--config", DEFAULT, "--out", str(tmp_path / "r"),
            "--set", "run.seeds=[3, 3]",
        ) == 2
        assert "run.seeds" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    # a repeat would run the same rows twice and write each output over itself
    @pytest.mark.parametrize("command, setting", [
        ("sample", "run.strategies=[cfg, adg, cfg]"),
        ("sweep", "sweep.strategies=[adg, adg]"),
        ("sweep", "sweep.omegas=[1.0, 2.0, 1]"),
        ("scatter", "scatter.omegas=[1.0, 1.0]"),
        # distinct weights with one :g spelling would write one figure
        ("scatter", "scatter.omegas=[1.0000001, 1.0000002]"),
    ])
    def test_repeated_list_entries_exit_2(self, tmp_path, capsys, command, setting):
        out = tmp_path / "r"
        assert run_cli(command, "--config", DEFAULT, "--out", str(out), "--set", setting) == 2
        assert f"{setting.partition('=')[0]}: " in capsys.readouterr().err
        assert not out.exists()

    def test_apg_infinite_radius_on_one_component_is_finite(self, tmp_path, capsys):
        # cond and uncond predictions coincide, so APG's mixed difference is
        # exactly 0 at every step while its clamp radius is inf
        out = tmp_path / "apg"
        assert run_cli(
            "sample", "--config", DEFAULT, "--set", "guidance.strategy=apg",
            "--set", "run.strategies=[apg]", "--set", "run.seed_count=4",
            "--set", "run.seeds=null", "--out", str(out), "--set", "grid.steps=30",
            "--set", "guidance.apg.r=.inf",
            "--set", "gmm.means=[[1.0, 1.0]]", "--set", "gmm.weights=[1.0]",
        ) == 0
        assert "nan" not in (out / "summary_apg.csv").read_text()
        assert "mean_norm=nan" not in capsys.readouterr().out
        # a NaN radius would clamp nothing; it is refused instead
        assert run_cli("sample", "--config", DEFAULT, "--out", str(tmp_path / "n"),
                       "--set", "guidance.apg.r=.nan") == 2
        assert "guidance.apg.r: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
    def test_cli_import_sets_one_blas_thread_by_default(self, given, expected):
        package_root = os.path.dirname(os.path.dirname(guidance_lab.__file__))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = package_root
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        code = ("import os, guidance_lab.cli; print(os.environ['OPENBLAS_NUM_THREADS'], "
                "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        value, threads = out.stdout.split()
        assert value == expected
        if given is None and sys.platform.startswith("linux"):
            assert threads == "1"  # numpy loaded without an OpenBLAS worker pool

    def test_cli_import_leaves_scipy_out(self):
        package_root = os.path.dirname(os.path.dirname(guidance_lab.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        out = subprocess.run(
            [sys.executable, "-c", "import sys, guidance_lab.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_sweep_leaves_verify_and_svgplot_unloaded(self, tmp_path):
        package_root = os.path.dirname(os.path.dirname(guidance_lab.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        argv = ["sweep", "--config", DEFAULT, "--out", str(tmp_path), "--set", "grid.steps=10",
                "--set", "sweep.seed_count=2"]
        code = (f"import sys, guidance_lab.cli as cli; code = cli.main({argv!r}); "
                "print(code, *(f'guidance_lab.{m}' in sys.modules for m in ('verify', 'svgplot')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.split()[-3:] == ["0", "False", "False"]
        assert (tmp_path / "sweep.csv").is_file()

    def test_missing_config_is_input_error(self, tmp_path):
        assert run_cli("sample", "--config", str(tmp_path / "nope.yaml")) == 2

    def test_probe_commands(self, tmp_path):
        out = tmp_path / "p"
        assert run_cli("probe-c1", "--config", DEFAULT, "--out", str(out)) == 0
        assert (out / "c1_values.csv").exists()
        assert run_cli(
            "probe-norm", "--config", DEFAULT, "--out", str(out),
            "--set", "probes.norm.seed_count=4", "--set", "grid.steps=60",
        ) == 0
        report = json.loads((out / "norm_report.json").read_text())
        assert report["probes"][0]["verdict"] == "pass"

    def test_sweep_and_scatter_and_plot(self, tmp_path):
        out = tmp_path / "sw"
        assert run_cli(
            "sweep", "--config", DEFAULT, "--out", str(out),
            "--set", "sweep.seed_count=4", "--set", "sweep.omegas=[1.0, 4.0]",
            "--set", "grid.steps=50",
        ) == 0
        sweep_csv = out / "sweep.csv"
        assert sweep_csv.exists()
        assert run_cli("plot", str(sweep_csv), "--kind", "sweep") == 0
        svg = sweep_csv.with_suffix(".svg").read_text()
        assert svg.count("<polyline") == 2  # one per strategy

        assert run_cli(
            "scatter", "--config", DEFAULT, "--out", str(out),
            "--set", "scatter.seeds_per_class=3", "--set", "scatter.omegas=[1.0, 5.0]",
            "--set", "grid.steps=50",
        ) == 0
        scatter_csv = out / "scatter.csv"
        assert scatter_csv.exists()
        assert (out / "scatter_omega_5.svg").exists()
        assert run_cli(
            "plot", str(scatter_csv), "--kind", "scatter", "--omega", "5.0",
            "--out", str(out / "replot.svg"),
        ) == 0
        assert (out / "replot.svg").exists()

    @pytest.mark.parametrize("kind, header, row", [
        # a sweep figure draws every omega, so --omega selects nothing there
        ("sweep", "strategy,omega,mean_norm,std_norm,n_seeds", "cfg,5.0,1.5,0.25,4"),
        ("scatter", "omega,strategy,component,seed,x0_0,x0_1", "5.0,cfg,0,0,1.5,-0.5"),
    ], ids=["sweep", "scatter"])
    def test_plot_omega_that_selects_nothing_is_input_error(self, tmp_path, capsys, kind,
                                                            header, row):
        path = tmp_path / f"{kind}.csv"
        path.write_text(f"{header}\n{row}\n")
        assert run_cli("plot", str(path), "--kind", kind, "--omega", "4") == 2
        assert "--omega" in capsys.readouterr().err
        assert not path.with_suffix(".svg").exists()
        if kind == "sweep":
            assert run_cli("plot", str(path), "--kind", kind, "--omega", "5") == 2
            assert not path.with_suffix(".svg").exists()
        else:
            assert run_cli("plot", str(path), "--kind", kind, "--omega", "5") == 0
            assert path.with_suffix(".svg").read_text().count("<circle") == 1
        # without --omega, a CSV with no rows still draws bare axes
        path.write_text(f"{header}\n")
        assert run_cli("plot", str(path), "--kind", kind) == 0
        assert "<circle" not in path.with_suffix(".svg").read_text()

    def test_plot_malformed_csv_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli("plot", str(bad), "--kind", "sweep") == 2
        assert run_cli("plot", str(tmp_path / "missing.csv"), "--kind", "scatter") == 2

    @pytest.mark.parametrize("kind", ["scatter", "sweep"])
    def test_plot_undecodable_or_short_csv_is_input_error(self, tmp_path, capsys, kind):
        not_utf8 = tmp_path / "bytes.csv"
        not_utf8.write_bytes(b"a,b\n\xff\xfe\n")
        short = tmp_path / "short.csv"
        short.write_text("omega,strategy,component,seed,x0_0,x0_1,mean_norm\n1,cfg,0,0\n")
        for path in (not_utf8, short):
            assert run_cli("plot", str(path), "--kind", kind) == 2
            assert "malformed CSV" in capsys.readouterr().err
            assert not path.with_suffix(".svg").exists()

    def test_plot_scatter_of_a_1d_mixture(self, tmp_path):
        cfg = tmp_path / "line.yaml"
        cfg.write_text(MINIMAL_1D)
        out = tmp_path / "line"
        assert run_cli(
            "scatter", "--config", str(cfg), "--out", str(out),
            "--set", "scatter.seeds_per_class=3", "--set", "scatter.omegas=[1.0, 5.0]",
        ) == 0
        scatter_csv = out / "scatter.csv"
        assert run_cli("plot", str(scatter_csv), "--kind", "scatter") == 0
        svg = scatter_csv.with_suffix(".svg").read_text()
        assert svg.count("<circle") == 2 * 2 * 3  # omegas x classes x seeds

    def test_scatter_draws_a_1d_mixture_on_the_x_axis(self, tmp_path):
        cfg = tmp_path / "line.yaml"
        cfg.write_text(MINIMAL_1D)
        out = tmp_path / "line"
        assert run_cli(
            "scatter", "--config", str(cfg), "--out", str(out),
            "--set", "scatter.seeds_per_class=3", "--set", "scatter.omegas=[1.0, 5.0]",
        ) == 0
        for omega in ("1", "5"):
            svg = (out / f"scatter_omega_{omega}.svg").read_text()
            assert svg.count("<circle") == 2 * 3  # classes x seeds
            assert len(set(re.findall(r'<circle cx="[^"]*" cy="([^"]*)"', svg))) == 1

    def _scatter_twelve(self, tmp_path, omegas):
        cfg = tmp_path / "twelve.yaml"
        cfg.write_text(TWELVE_2D)
        out = tmp_path / "twelve"
        assert run_cli(
            "scatter", "--config", str(cfg), "--out", str(out),
            "--set", f"scatter.omegas={omegas}",
        ) == 0
        return out

    def test_plot_scatter_redraws_each_omega_svg(self, tmp_path):
        out = self._scatter_twelve(tmp_path, "[1.0, 5.0]")
        for omega in ("1", "5"):
            replot = out / f"replot_{omega}.svg"
            assert run_cli(
                "plot", str(out / "scatter.csv"), "--kind", "scatter", "--omega", omega,
                "--out", str(replot),
            ) == 0
            assert replot.read_bytes() == (out / f"scatter_omega_{omega}.svg").read_bytes()

    def test_plot_scatter_orders_groups_by_omega_then_class_number(self, tmp_path):
        out = self._scatter_twelve(tmp_path, "[2.0, 10.0]")
        assert run_cli("plot", str(out / "scatter.csv"), "--kind", "scatter") == 0
        svg = (out / "scatter.svg").read_text()
        legend = re.findall(r'font-size="12">([^<]*)</text>', svg)
        assert legend == [f"omega={w} component {c}" for w in (2, 10) for c in range(12)]

    def test_plot_scatter_refuses_omegas_that_share_a_label(self, tmp_path, capsys):
        # both weights print as omega=1: one legend entry would hide the other's points
        path = tmp_path / "scatter.csv"
        rows = [f"{w},cfg,{c},0,{c}.5,-0.5" for w in ("1.0000001", "1.0000002") for c in (0, 1)]
        path.write_text("omega,strategy,component,seed,x0_0,x0_1\n" + "\n".join(rows) + "\n")
        assert run_cli("plot", str(path), "--kind", "scatter") == 2
        err = capsys.readouterr().err
        assert "1.0000001" in err and "1.0000002" in err
        assert not path.with_suffix(".svg").exists()
        assert run_cli("plot", str(path), "--kind", "scatter", "--omega", "1.0000002") == 0
        assert path.with_suffix(".svg").read_text().count("<circle") == 2

    def test_flow_sample(self, tmp_path):
        out = tmp_path / "fl"
        code = run_cli(
            "flow-sample", "--config", DEFAULT, "--set", "run.seed_count=5",
            "--set", "run.seeds=null", "--out", str(out),
            "--set", "flow.steps=50",
        )
        assert code == 0
        lines = (out / "flow_summary.csv").read_text().splitlines()
        assert len(lines) == 6

    def test_outputs_confined_to_output_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "only_here"
        assert run_cli(
            "sample", "--config", DEFAULT, "--set", "run.seed_count=2",
            "--set", "run.seeds=null", "--out", str(out),
            "--set", "grid.steps=30",
        ) == 0
        assert sorted(os.listdir(workdir)) == []
        assert (out / "summary_cfg.csv").exists()


class TestEmission:
    def test_float_formatting_round_trips(self, tmp_path):
        rng = np.random.default_rng(0)
        xs = (rng.standard_normal(200) * 10.0 ** rng.integers(-8, 8, 200)).tolist()
        path = tmp_path / "floats.csv"
        write_csv(str(path), ["x"], [[x] for x in xs])
        assert [float(cell) for cell in path.read_text().splitlines()[1:]] == xs

    def test_csv_dialect(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ["a", "b"], [[1.5, "x"], [math.pi, "y"]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[1:] == ["1.5,x", "3.1415926535897931,y"]

    def test_csv_rows_may_stream(self, tmp_path):
        rows = [[1.5, "x"], [math.pi, "y"]]
        write_csv(str(tmp_path / "list.csv"), ["a", "b"], rows)
        write_csv(str(tmp_path / "iter.csv"), ["a", "b"], (row for row in rows))
        assert (tmp_path / "iter.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()

    def test_scatter_svg_deterministic_and_sized(self):
        groups = {"one": [(0.0, 0.0), (1.0, 2.0)], "two": [(0.5, -1.0)]}
        a = render_scatter(groups)
        b = render_scatter(groups)
        assert a == b
        assert 'width="800" height="600"' in a
        assert a.count('r="2"') == 3

    def test_empty_scatter_is_axes_only(self):
        doc = render_scatter({})
        assert "<circle" not in doc
        assert doc.count("<line") >= 2  # the two axes plus ticks

    def test_sweep_svg_lines(self):
        doc = render_sweep({"cfg": [(1.0, 1.7), (4.0, 3.3)], "adg": [(1.0, 1.7), (4.0, 1.7)]})
        assert doc.count("<polyline") == 2
        assert "norm sweep" in doc
