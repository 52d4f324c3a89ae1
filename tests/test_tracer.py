"""The benchmark's span tracer still runs the CLI.

``perfbench/tracer.py`` wraps each measured function by looking its name up
on the package's modules, so a renamed or deleted function breaks every
traced benchmark run; this runs it on a small ``verify`` and ``sample``.
"""

import json
import os
import subprocess
import sys

import pytest

import guidance_lab

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(REPO, "perfbench", "tracer.py")
DEFAULT = os.path.join(REPO, "configs", "default.yaml")
SMALL = ["--set", "grid.steps=20", "--seed-count", "2"]


@pytest.mark.parametrize("argv, span", [
    (["verify", *SMALL, "--set", "probes.score_oracle.cases=10",
      "--set", "probes.score_identity.cases=10", "--set", "probes.prop1.trials=300",
      "--set", "probes.norm.seed_count=2", "--set", "probes.guidance_off.seed_count=2",
      "--set", "probes.cfgpp.steps=4"], "verify.run_suite"),
    (["sample", *SMALL, "--set", "run.strategies=[cfg, adg, pcg]"], "cli.cmd_sample"),
], ids=["verify", "sample"])
def test_tracer_runs_a_command(tmp_path, argv, span):
    summary = tmp_path / "summary.json"
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(guidance_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run(
        [sys.executable, TRACER, str(summary), str(tmp_path / "spans.npy"), "--",
         argv[0], "--config", DEFAULT, "--out", str(tmp_path / "out"), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    groups = json.loads(summary.read_text())["groups"]
    assert groups[span]["calls"] == 1
    assert groups["config.load_config"]["calls"] == 1
    assert groups["mixture.posterior_mean_x0"]["calls"] > 0
