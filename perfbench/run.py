"""guidance-lab benchmark: end-to-end metrics, a correctness gate, and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sample_traj --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: it runs its command
sequence as fresh ``python3 -m guidance_lab.cli`` processes, one at a time,
pass after pass, until the next pass would end after ``--seconds``.  Every
pass is gated against an independent reference (``reference.py``) and
against the first pass's bytes.

``--trace 0`` reports the end-to-end metrics.  Before each pass a set-up
probe (``setup_probe.py``) times interpreter start, import, config load,
grid build and surface certificate.  ``--trace 1`` alternates an untraced
pass with one run through ``tracer.py`` and reports the per-layer metrics
of ``layers.json``, plus the tracing overhead.

The last line of standard output is one JSON object; the lines before it
give every metric with its unit, quartiles and sample count.  ``--workload
all`` runs the three workloads in turn and prefixes each metric with its
workload in that line.  Everything a run writes goes under ``.perfbench/``
in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np
import yaml

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 2      # the byte-identity check needs a second pass
RUN_LIMIT_S = 165   # a run must end within 180 s: later commands are killed, their pass fails
NOTE = ("No kernel, cgroup or CPU-frequency setting was touched to take these numbers. "
        "The machine is shared with other tenants, which limits how steady wall_s can be.")

END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("steps_per_s", "1/s"), ("peak_rss_mb", "MB"),
]


class Child:
    """One finished child process: wall, CPU and peak memory."""

    def __init__(self, wall, cpu, rss_mb, code):
        self.wall, self.cpu, self.rss_mb, self.code = wall, cpu, rss_mb, code


def spawn(argv, env, cwd, stdout_path, stderr_path, timeout) -> Child:
    """Run argv to completion, or kill it after `timeout` s; wall time spans spawn to exit."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def output_hashes(pass_dir) -> dict[str, str]:
    """sha256 of every file a pass wrote: command outputs and captured stdout."""
    out = {}
    for base, _, files in os.walk(pass_dir):
        for name in files:
            if name.startswith("stderr") or name.startswith("trace"):
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, pass_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Runner:
    def __init__(self, root, workload, work_dir):
        self.root, self.wl, self.work_dir = root, workload, work_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env.pop("GUIDANCE_LAB_THREADS", None)  # the pool sizes itself, as shipped
        self.first_hashes = None
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def _spawn(self, argv, out_path, err_path) -> Child:
        return spawn(argv, self.env, self.root, out_path, err_path,
                     self.deadline - time.perf_counter())

    def setup_probe(self, tag) -> Child:
        return self._spawn([sys.executable, os.path.join(HERE, "setup_probe.py"),
                            self.wl.setup_config],
                           os.path.join(self.work_dir, f"setup_{tag}.out"),
                           os.path.join(self.work_dir, f"setup_{tag}.err"))

    def run_pass(self, pass_dir, traced):
        """The workload's command sequence, one process after the other."""
        out_dir = os.path.join(pass_dir, "out")
        os.makedirs(out_dir)
        children, traces = [], []
        for i, (label, args, _) in enumerate(self.wl.commands(out_dir)):
            if traced:
                summary = os.path.join(pass_dir, f"trace_{i}_{label}.json")
                spans = os.path.join(pass_dir, f"trace_{i}_{label}_spans.npy")
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), summary, spans, "--", *args]
                traces.append(summary)
            else:
                argv = [sys.executable, "-m", "guidance_lab.cli", *args]
            children.append(self._spawn(argv, os.path.join(pass_dir, f"stdout_{i}_{label}.txt"),
                                        os.path.join(pass_dir, f"stderr_{i}_{label}.txt")))
        return out_dir, children, traces

    def judge(self, pass_dir, out_dir, children, full):
        """Problems of one pass: the reference gate, then byte identity with pass 1."""
        chk = self.wl.check(out_dir, [c.code for c in children], full)
        hashes = output_hashes(pass_dir)
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            differ = sorted(k for k in set(hashes) | set(self.first_hashes)
                            if hashes.get(k) != self.first_hashes.get(k))
            chk.fail(f"outputs differ from the first pass: {differ}")
        return chk


def layer_values(groups, import_ns, steps):
    """Per-layer metrics of one traced pass from the tracer's group summaries."""
    def g(name, key="total_ns"):
        return groups.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    s = 1e-9
    v = {
        "cli.import_s": import_ns * s,
        "config.load_config.s": g("config.load_config") * s,
        "schedule.make_grid.s": g("schedule.make_grid") * s,
        "mixture.posterior_weights.self_s": g("mixture.posterior_weights", "self_ns") * s,
        "guidance.change_of_variable.self_s": g("guidance.change_of_variable", "self_ns") * s,
        "samplers.flow_posterior_mean_x1.self_s":
            g("samplers.flow_posterior_mean_x1", "self_ns") * s,
    }
    for name in ("mixture.posterior_mean_x0", "mixture.log_density_t",
                 "mixture.classify_component", "guidance.combine", "guidance.angle_between",
                 "samplers.step", "samplers.step_rng", "samplers.driver"):
        v[f"{name}.calls"] = g(name, "calls")
        v[f"{name}.self_s"] = g(name, "self_ns") * s
    for name in ("mixture.posterior_mean_x0", "guidance.combine"):
        v[f"{name}.rows_per_call"] = ratio(g(name, "count"), g(name, "calls"))
    v["guidance.angle_calls_per_step"] = ratio(g("guidance.angle_between", "calls"), steps)
    v["samplers.us_per_step"] = ratio(g("samplers.driver") * 1e-3, steps)
    pool, tasks = g("parallel.parallel_map"), g("parallel.task")
    v["parallel.parallel_map.s"] = pool * s
    v["parallel.parallel_map.task_s"] = tasks * s
    v["parallel.overlap"] = ratio(tasks, pool)
    for name in ("theory.norm_amplification_check", "theory.prop1_stress", "theory.estimate_c1",
                 "theory.norm_sweep", "theory.scatter_experiment", "verify.probe_score_oracle",
                 "verify.probe_score_identity", "verify.probe_posterior_simplex",
                 "verify.probe_surface_invariants", "verify.probe_c1_monotone",
                 "verify.probe_cfgpp_equivalence", "verify.probe_guidance_off",
                 "verify.probe_determinism", "reports.write_trajectory_csv",
                 "reports.write_summary_csv", "svgplot.render_scatter", "svgplot.write_svg"):
        v[f"{name}.s"] = g(name) * s
    writers = [n for n in groups if n.startswith("reports.write_") and n != "reports.write_csv"]
    rows = g("reports.write_csv", "count")
    v["reports.rows"] = rows
    v["reports.bytes"] = sum(g(n, "count") for n in writers)
    v["reports.us_per_row"] = ratio(sum(g(n) for n in writers) * 1e-3, rows)
    return v


def traced_layers(trace_files, steps):
    groups, import_ns = {}, 0
    for path in trace_files:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        import_ns += summary["import_ns"]
        for name, entry in summary["groups"].items():
            acc = groups.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                acc[key] += value
    return layer_values(groups, import_ns, steps)


def measure(runner, seconds, trace):
    """Closed loop: gated passes back to back until the next would end after `seconds`.

    Returns the pass records, every problem found, and the largest relative
    deviation from the reference.
    """
    passes, problems, worst = [], [], 0.0
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        k = len(passes)
        rec = {"problems": []}
        if not trace:
            probe = runner.setup_probe(k)
            rec["setup_s"] = probe.wall
            if probe.code != 0:
                rec["problems"].append(f"set-up probe exit code {probe.code}")
        pass_dir = os.path.join(runner.work_dir, f"pass{k}")
        out_dir, children, _ = runner.run_pass(pass_dir, traced=False)
        rec["wall_s"] = sum(c.wall for c in children)
        rec["cpu_s"] = sum(c.cpu for c in children)
        rec["peak_rss_mb"] = max(c.rss_mb for c in children)
        chk = runner.judge(pass_dir, out_dir, children, full=(k == 0))
        rec["problems"] += chk.problems
        worst = max(worst, chk.worst)
        if trace:
            traced_dir = os.path.join(runner.work_dir, f"traced{k}")
            t_out, t_children, traces = runner.run_pass(traced_dir, traced=True)
            rec["traced_wall_s"] = sum(c.wall for c in t_children)
            t_chk = runner.judge(traced_dir, t_out, t_children, full=False)
            rec["problems"] += [f"traced: {p}" for p in t_chk.problems]
            if not t_chk.problems:
                rec["layers"] = traced_layers(traces, runner.wl.steps)
            if k > 0:
                shutil.rmtree(traced_dir, ignore_errors=True)
        if k > 0:
            shutil.rmtree(pass_dir, ignore_errors=True)
        problems += [f"pass {k}: {p}" for p in rec["problems"]]
        passes.append(rec)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - start) + (now - begin) > seconds:
            break
        if now >= runner.deadline:
            break
    return passes, problems, worst


def count_failed(passes) -> int:
    """A pass with any problem is failed; its timings are kept, never retried."""
    return sum(1 for p in passes if p["problems"])


def stats(values):
    values = [float(v) for v in values]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def environment(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or commit
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src", "guidance_lab"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "cpu_model": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version, "pyyaml": yaml.__version__,
        "git_commit": commit, "source_sha256": src.hexdigest(), "note": NOTE,
    }


def _seed(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def run_workload(root, name, seed, seconds, trace):
    """Measure one workload, print its metric table; None when the program cannot start."""
    work_dir = os.path.join(root, ".perfbench", f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    wl = WORKLOADS[name](seed, os.path.join(work_dir, "inputs"))
    runner = Runner(root, wl, work_dir)

    warm = runner.setup_probe("warmup")  # compiles bytecode, fills the page cache
    if warm.code != 0:
        print(f"set-up probe failed with exit code {warm.code}; see {work_dir}", file=sys.stderr)
        return None
    wl.reference()

    passes, problems, worst = measure(runner, seconds, trace)
    failed = count_failed(passes)
    if trace:
        with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)}
        traced = [p["layers"] for p in passes if "layers" in p]
        if traced and set(traced[0]) | {"trace.overhead_s"} != set(units):
            raise RuntimeError("layers.json and layer_values() name different metrics")
        series = {n: [t[n] for t in traced] for n in units if n != "trace.overhead_s"}
        series["trace.overhead_s"] = [p["traced_wall_s"] - p["wall_s"] for p in passes]
    else:
        series = {n: [p[n] for p in passes] for n, _ in END_TO_END if n != "steps_per_s"}
        series["steps_per_s"] = [wl.steps / p["wall_s"] for p in passes]
        units = dict(END_TO_END)
    summary = {n: stats(values) if values else None for n, values in series.items()}

    print(f"workload={wl.name} seed={seed} trace={trace} passes={len(passes)} "
          f"failed={failed}/{len(passes)} steps_per_pass={wl.steps} max_rel_dev={worst:.2e}")
    for n in units:
        st = summary[n]
        if st is None:
            print(f"  {n:40s} n/a (no passing traced pass)")
            continue
        print(f"  {n:40s} {st['median']:14.6g} {units[n]:6s} "
              f"q1={st['q1']:.6g} q3={st['q3']:.6g} n={st['n']}")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    env = environment(root)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "note"))
    print(f"note: {NOTE}")

    result = {
        "workload": wl.name, "why": wl.why, "seed": seed, "trace": trace,
        "seconds": seconds, "steps_per_pass": wl.steps, "configs": wl.config_sha256,
        "attempted": len(passes), "failed": failed, "problems": problems,
        "max_relative_deviation": worst, "metrics": summary, "units": units, "samples": series,
        "environment": env,
    }
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return {"correct": failed == 0, "attempted": len(passes), "failed": failed,
            "metrics": {n: {"value": summary[n]["median"] if summary[n] else 0.0,
                            "unit": units[n]} for n in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=_seed, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "guidance_lab", "cli.py")):
        print(f"no guidance-lab source under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
        if results[name] is None:
            return 2
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{name}.{m}": v for name, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
