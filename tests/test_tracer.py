"""The benchmark's span tracer and set-up probe still run the package.

``perfbench/tracer.py`` wraps each measured function by looking its name up
on the package's modules, so a renamed or deleted function breaks every
traced benchmark run; this runs it on a small ``verify``, ``sample`` and
``sweep``.  ``perfbench/setup_probe.py`` is the process every workload's
``setup_s`` times; it calls ``cli.load_config`` and
``cli.surface_certificate``.
"""

import json
import os
import subprocess
import sys

import pytest

import guidance_lab

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(REPO, "perfbench", "tracer.py")
SETUP_PROBE = os.path.join(REPO, "perfbench", "setup_probe.py")
DEFAULT = os.path.join(REPO, "configs", "default.yaml")
STEPS = 20
SMALL = ["--set", f"grid.steps={STEPS}", "--set", "run.seed_count=2", "--set", "run.seeds=null"]
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(guidance_lab.__file__)))
ENV = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)


def _traced_groups(tmp_path, argv):
    """Per-span summary of one traced CLI command on the default config."""
    summary = tmp_path / "summary.json"
    out = subprocess.run(
        [sys.executable, TRACER, str(summary), str(tmp_path / "spans.npy"), "--",
         argv[0], "--config", DEFAULT, "--out", str(tmp_path / "out"), *argv[1:]],
        env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(summary.read_text())["groups"]


@pytest.mark.parametrize("argv, span", [
    (["verify", *SMALL, "--set", "probes.score_oracle.cases=10",
      "--set", "probes.score_identity.cases=10", "--set", "probes.prop1.trials=300",
      "--set", "probes.norm.seed_count=2", "--set", "probes.guidance_off.seed_count=2",
      "--set", "probes.cfgpp.steps=4"], "verify.run_suite"),
    (["sample", *SMALL, "--set", "run.strategies=[cfg, adg, pcg]"], "cli.cmd_sample"),
    # sweep reads sweep.seed_count, not run.seed_count
    (["sweep", "--set", f"grid.steps={STEPS}", "--set", "sweep.seed_count=2"], "cli.cmd_sweep"),
], ids=["verify", "sample", "sweep"])
def test_tracer_runs_a_command(tmp_path, argv, span):
    groups = _traced_groups(tmp_path, argv)
    assert groups[span]["calls"] == 1
    assert groups["config.load_config"]["calls"] == 1
    assert groups["mixture.posterior_mean_x0"]["calls"] > 0
    # the cfg rule looks cfg_combine up on the guidance module when it runs,
    # so the tracer's wrapper sees it; each command here runs cfg
    assert groups["guidance.combine"]["calls"] > 0


@pytest.mark.parametrize("strategy", [
    "cfg", "adg", "adg_no_cap", "adg_normalized", "adg_simplified", "cfgpp", "apg", "recfg"])
def test_tracer_counts_every_rule(tmp_path, strategy):
    # every rule but pcg's predictor calls its public guidance function, so
    # the combine span counts at least one outer call per step
    groups = _traced_groups(tmp_path, [
        "sample", *SMALL, "--set", f"guidance.strategy={strategy}",
        "--set", f"run.strategies=[{strategy}]"])
    assert groups["guidance.combine"]["calls"] >= STEPS


def test_setup_probe_runs():
    out = subprocess.run([sys.executable, SETUP_PROBE, DEFAULT],
                         env=ENV, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
