"""Self-test of the benchmark's correctness gate and metric list.

Usage (from the repository root): python3 perfbench/selftest.py

Runs the sample_traj workload through the same loop the benchmark uses and
checks that
  * the program's real outputs pass the gate;
  * an output with one perturbed final state fails every pass;
  * one wrong exit code fails every pass;
  * failed passes are counted in `failed`, with their timings kept;
  * a broken pcg sampler fails, while pcg draws from other noise streams
    (a stream-layout change) pass on the population statistics;
and that BENCHMARK.json names exactly the per-layer metrics of layers.json.
Exits 0 when every case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import reference as ref
import run
from workloads import SQUARE, Check, SampleTraj, read_csv

SEED = 7


class PerturbedOutput(SampleTraj):
    """Moves one coordinate of one cfg final state by 1e-3 before the gate reads it."""

    def check_outputs(self, chk, out_dir, full):
        path = os.path.join(out_dir, "summary_cfg.csv")
        header, rows = read_csv(path)
        rows[len(rows) // 2][3] = repr(float(rows[len(rows) // 2][3]) + 1e-3)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        super().check_outputs(chk, out_dir, full)


class WrongExitCode(SampleTraj):
    """Expects flow-sample to exit 1, so the real exit code 0 is the wrong one."""

    def commands(self, out_dir):
        cmds = super().commands(out_dir)
        label, args, _ = cmds[-1]
        return cmds[:-1] + [(label, args, 1)]


def measure(workload_cls, root, work_dir):
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    wl = workload_cls(SEED, os.path.join(work_dir, "inputs"))
    passes, problems, _ = run.measure(run.Runner(root, wl, work_dir), 0.0, 0)
    return passes, problems


def main() -> int:
    root = os.getcwd()
    base = os.path.join(root, ".perfbench", "selftest")
    failures = []

    def expect(ok, what):
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    passes, problems = measure(SampleTraj, root, os.path.join(base, "clean"))
    expect(run.count_failed(passes) == 0, f"real outputs pass the gate {problems[:3]}")
    for cls, what, flag in ((PerturbedOutput, "one perturbed final state", "summary_cfg finals"),
                            (WrongExitCode, "one wrong exit code", "exit codes")):
        passes, problems = measure(cls, root, os.path.join(base, cls.__name__))
        flagged = [p for p in problems if flag in p]
        expect(run.count_failed(passes) == len(passes) >= run.MIN_PASSES
               and len(flagged) == len(passes) and all(p["wall_s"] > 0 for p in passes),
               f"{what}: {run.count_failed(passes)} of {len(passes)} passes failed, "
               f"timings kept; {flagged[:1]}")

    wl = SampleTraj(SEED, os.path.join(base, "pcg"))
    _, rows = read_csv(os.path.join(base, "clean", "pass0", "out", "summary_pcg.csv"))
    finals = np.array([[float(r[3]), float(r[4])] for r in rows])
    for shift, should_pass, what in ((0.0, True, "real pcg finals"),
                                     (0.5, False, "pcg finals shifted by 0.5")):
        chk = Check()
        wl._check_pcg(chk, finals + shift)
        expect((not chk.problems) == should_pass, f"{what} {'pass' if should_pass else 'fail'}")
    gmm = ref.Mixture(SQUARE, [0.25] * 4)
    _, abars = ref.vp_grid(wl.GRID)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2024)))
    other_streams = ref.pcg(gmm, abars, wl.OMEGA, wl.PCG_INNER, wl.condition,
                            rng.standard_normal(finals.shape),
                            ref.fresh_streams(2025, wl.PCG_INNER))
    chk = Check()
    wl._check_pcg(chk, other_streams)
    expect(not chk.problems, f"pcg draws from other noise streams pass {chk.problems}")

    bench = os.path.join(root, "BENCHMARK.json")
    with open(os.path.join(run.HERE, "layers.json"), encoding="utf-8") as fh:
        layers = [{k: m[k] for k in ("name", "unit", "better")} for m in json.load(fh)]
    if os.path.exists(bench):
        with open(bench, encoding="utf-8") as fh:
            expect(json.load(fh)["per_layer"] == layers, "BENCHMARK.json per_layer == layers.json")
    print("self-test:", "FAILED " + "; ".join(failures) if failures else "all cases behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
