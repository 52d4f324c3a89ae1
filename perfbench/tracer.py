"""Run one guidance-lab CLI command with span tracing around each layer.

Usage: python3 perfbench/tracer.py SUMMARY_JSON SPANS_NPY -- CLI_ARGS...

The package is imported unchanged; each public function the benchmark
measures is replaced by a wrapper wherever it is looked up at call time:
on its own module, and on every module that bound it with a from-import
(``cli`` binds ``surface_certificate``, ``run_suite``, ``parallel_map`` and
``load_config``; ``config`` binds ``make_grid``).  Calls between functions
of one module go through module globals, so they see the wrappers too.

A span is (id, name, start_ns, end_ns, parent id, child_ns, count).  Spans
live in one flat buffer per thread and are written out when the command
ends, together with a per-group summary.  ``_parallel`` fans seeds out to a
thread pool, so every thread keeps its own span stack; a pool task records
the ``parallel_map`` span as its parent across threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from array import array

FIELDS = 7  # id, name index, start, end, parent id, child_ns, count
TASK = "parallel.task"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[array] = []
        self._lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            buf = array("q")
            with self._lock:
                self._buffers.append(buf)
            state = self._local.state = ([], buf)
        return state

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def run(self, idx, fn, args, kwargs, count, state, parent, cross_thread=False):
        """Call fn inside a span; parent is the caller's open span record or None."""
        stack, buf = state
        rec = [next(self._ids), 0]  # id, time covered by children on this thread
        stack.append(rec)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if parent is not None and not cross_thread:
                parent[1] += end - start
            n = count(args, kwargs) if count is not None else 0
            buf.extend((rec[0], idx, start, end, parent[0] if parent else 0, rec[1], n))

    def wrap(self, name, fn, count=None):
        idx = self._index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state[0]
            return self.run(idx, fn, args, kwargs, count, state, stack[-1] if stack else None)

        return wrapper

    def wrap_pool(self, name, parallel_map):
        """parallel_map whose tasks are spans parented by the map's own span."""
        task_idx = self._index(TASK)

        def traced_map(fn, items):
            owner = self._state()[0][-1]
            return parallel_map(
                lambda item: self.run(
                    task_idx, fn, (item,), {}, None, self._state(), owner, cross_thread=True
                ),
                items,
            )

        return self.wrap(name, traced_map)

    def spans(self):
        import numpy as np

        flat = [np.frombuffer(buf, dtype=np.int64) for buf in self._buffers if len(buf)]
        if not flat:
            return np.zeros((0, FIELDS), dtype=np.int64)
        return np.concatenate(flat).reshape(-1, FIELDS)


def summarize(spans, names):
    """Per-name calls, outer total, self time and count.

    A call is "outer" when its parent span has another name, so a group
    whose members call each other (``adg_rotate`` -> ``rotate_raw``) counts
    one call.  Self time is the span's duration minus the time its child
    spans cover; children on other threads (pool tasks) are merged as
    intervals first, because they overlap each other.
    """
    import numpy as np

    order = np.argsort(spans[:, 0])
    spans = spans[order]
    ids, name_idx, start, end, parent, child, count = spans.T
    dur = end - start
    pos = np.searchsorted(ids, parent)
    pos = np.minimum(pos, len(ids) - 1)
    has_parent = (parent > 0) & (ids[pos] == parent)
    parent_name = np.full(len(ids), -1)
    parent_name[has_parent] = name_idx[pos[has_parent]]
    self_ns = dur - child
    task_idx = names.index(TASK) if TASK in names else -1
    if task_idx >= 0:
        tasks = np.flatnonzero(name_idx == task_idx)
        for owner in np.unique(parent[tasks]):
            members = tasks[parent[tasks] == owner]
            intervals = sorted(zip(start[members], end[members]))
            covered, cur_lo, cur_hi = 0, intervals[0][0], intervals[0][1]
            for lo, hi in intervals[1:]:
                if lo > cur_hi:
                    covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            covered += cur_hi - cur_lo
            self_ns[ids == owner] -= covered
    out = {}
    for i, name in enumerate(names):
        mine = name_idx == i
        outer = mine & (parent_name != i)
        out[name] = {
            "calls": int(outer.sum()),
            "total_ns": int(dur[outer].sum()),
            "self_ns": int(self_ns[mine].sum()),
            "count": int(count[outer].sum()),
        }
    return out


# ---------------------------------------------------------------------------
# What is wrapped, and under which span name
# ---------------------------------------------------------------------------

def _rows_of(arg):
    arg = getattr(arg, "x0_cond", arg)
    shape = getattr(arg, "shape", ())
    rows = 1
    for n in shape[:-1]:
        rows *= n
    return rows


def _rows_arg(position):
    return lambda args, kwargs: _rows_of(args[position]) if len(args) > position else 0


def _csv_rows(args, kwargs):
    rows = args[2] if len(args) > 2 else kwargs.get("rows", ())
    return len(rows) if hasattr(rows, "__len__") else 0


def _file_bytes(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return os.path.getsize(path) if path and os.path.exists(path) else 0


GROUPS = {
    # module: {function: (span name, count hook)}
    "config": {"load_config": ("config.load_config", None)},
    "schedule": {"make_grid": ("schedule.make_grid", None)},
    "mixture": {
        "posterior_mean_x0": ("mixture.posterior_mean_x0", _rows_arg(1)),
        "posterior_weights": ("mixture.posterior_weights", _rows_arg(1)),
        "log_density_t": ("mixture.log_density_t", _rows_arg(1)),
        "classify_component": ("mixture.classify_component", None),
        "surface_certificate": ("mixture.surface_certificate", None),
    },
    "guidance": {
        **{fn: ("guidance.combine", _rows_arg(0)) for fn in (
            "cfg_combine", "adg_rotate", "adg_no_cap", "adg_normalized", "adg_simplified",
            "rotate_raw", "apg_update", "recfg_combine", "cfgpp_predictions")},
        "angle_between": ("guidance.angle_between", None),
        "eps_from_x0": ("guidance.change_of_variable", None),
        "x0_from_eps": ("guidance.change_of_variable", None),
    },
    "samplers": {
        "ddim_step": ("samplers.step", None),
        "ddpm_step": ("samplers.step", None),
        "flow_euler_step": ("samplers.step", None),
        "step_rng": ("samplers.step_rng", None),
        "sample_trajectory": ("samplers.driver", None),
        "pcg_sample": ("samplers.driver", None),
        "flow_sample_adg": ("samplers.driver", None),
        "flow_posterior_mean_x1": ("samplers.flow_posterior_mean_x1", _rows_arg(1)),
    },
    "theory": {fn: (f"theory.{fn}", None) for fn in (
        "norm_amplification_check", "prop1_stress", "estimate_c1", "norm_sweep",
        "scatter_experiment")},
    "verify": {fn: (f"verify.{fn}", None) for fn in (
        "run_suite", "probe_score_oracle", "probe_score_identity", "probe_posterior_simplex",
        "probe_surface_invariants", "probe_c1_monotone", "probe_cfgpp_equivalence",
        "probe_guidance_off", "probe_determinism")},
    "reports": {
        "write_csv": ("reports.write_csv", _csv_rows),
        **{fn: (f"reports.{fn}", _file_bytes) for fn in (
            "write_trajectory_csv", "write_summary_csv", "write_sweep_csv",
            "write_scatter_csv", "write_probe_csv", "write_report_json")},
    },
    "svgplot": {
        "render_scatter": ("svgplot.render_scatter", None),
        "write_svg": ("svgplot.write_svg", None),
    },
}


def instrument(tracer: Tracer):
    """Patch every measured function on its module and on its importers."""
    import importlib

    modules = {m: importlib.import_module(f"guidance_lab.{m}") for m in (*GROUPS, "cli", "_parallel")}
    cli, parallel = modules["cli"], modules["_parallel"]
    replaced = {}
    for mod_name, functions in GROUPS.items():
        module = modules[mod_name]
        for fn_name, (span, count) in functions.items():
            original = getattr(module, fn_name)
            replaced[original] = tracer.wrap(span, original, count)
    replaced[parallel.parallel_map] = tracer.wrap_pool("parallel.parallel_map", parallel.parallel_map)
    for name in dir(cli):
        if name.startswith("cmd_"):
            replaced[getattr(cli, name)] = tracer.wrap(f"cli.{name}", getattr(cli, name))
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if callable(value) and value in replaced:
                setattr(module, attr, replaced[value])


def main(argv) -> int:
    summary_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY_JSON SPANS_NPY -- CLI_ARGS...")
    t0 = time.perf_counter_ns()
    import guidance_lab.cli as cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    instrument(tracer)
    t1 = time.perf_counter_ns()
    code = cli.main(cli_args)
    run_ns = time.perf_counter_ns() - t1

    import numpy as np

    spans = tracer.spans()
    np.save(spans_path, spans)
    with open(spans_path + ".names.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.names, fh)
    summary = {
        "exit_code": code,
        "import_ns": import_ns,
        "run_ns": run_ns,
        "spans": int(spans.shape[0]),
        "groups": summarize(spans, tracer.names) if len(spans) else {},
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
