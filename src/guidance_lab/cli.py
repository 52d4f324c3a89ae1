"""Command-line front end: sampling runs, certifier suite, CSV/SVG emission.

Exit codes are a stable contract: 0 success, 1 probe/verdict failure,
2 input error (unreadable or invalid configuration, malformed CSV).
A config command sets a config leaf one way, ``--set dotted.path=value``,
plus ``--out`` for ``run.output_dir``.

A command imports ``verify``, ``svgplot`` and ``csv`` only when it runs
them, so the other commands' processes skip compiling and loading them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import reports as rp
from . import samplers as sp
from . import theory
from .config import ConfigError, ExperimentConfig, load_config
from .mixture import surface_certificate

EXIT_OK = 0
EXIT_PROBE_FAILURE = 1
EXIT_INPUT_ERROR = 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it refuses an argument the command does not take
    with its own usage, where argparse would print the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guidance-lab",
        description="Gaussian-mixture diffusion guidance laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    for name, handler, help_text in (
        ("sample", cmd_sample, "run guided trajectories, write CSVs"),
        ("verify", cmd_verify, "run the full certifier suite"),
        ("probe-c1", cmd_probe_c1, "anomalous-interval estimate across omegas"),
        ("probe-norm", cmd_probe_norm, "norm amplification along the outward normal"),
        ("sweep", cmd_sweep, "final-norm sweep over strategies and omegas"),
        ("scatter", cmd_scatter, "per-component sample scatter across omegas"),
        ("flow-sample", cmd_flow_sample, "guided flow-matching trajectories"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML configuration document")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[], metavar="K=V",
            help="override a config entry by dotted path (repeatable, last wins)",
        )
        p.add_argument("--out", default=None, help="override run.output_dir")
        p.set_defaults(handler=handler)

    p_plot = sub.add_parser("plot", help="render a CSV produced by this tool as SVG")
    p_plot.add_argument("csv_path", help="input CSV (scatter or sweep layout)")
    p_plot.add_argument("--kind", choices=("scatter", "sweep"), required=True)
    p_plot.add_argument("--out", default=None, help="output SVG path (default: CSV path .svg)")
    p_plot.add_argument("--omega", type=float, default=None, help="restrict scatter to one omega")
    p_plot.set_defaults(handler=cmd_plot)

    return parser


def _load(args) -> ExperimentConfig:
    overrides = list(args.overrides)
    if args.out is not None:
        # quoted, so a path such as 2024 or 010 stays the string it is
        overrides.append(f"run.output_dir={json.dumps(args.out, ensure_ascii=False)}")
    return load_config(args.config, overrides)


def _outpath(config: ExperimentConfig, name: str) -> str:
    out_dir = config.output_dir()
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _guidance_echo(config: ExperimentConfig, strategy: str) -> str:
    g = config.data["guidance"]
    if strategy == "apg":
        apg = g["apg"]
        return f" apg(eta={apg['eta']},beta={apg['beta']},r={apg['r']})"
    if strategy == "cfgpp":
        return f" lambda={g['cfgpp_lambda']}"
    if strategy == "recfg":
        return f" recfg_lambda={g['recfg_lambda']}"
    if strategy == "pcg":
        return f" inner_steps={g['pcg_inner_steps']} mode={g['pcg_langevin_mode']}"
    return ""


def _emit_run(config, records, names, head, cert=None, tail="") -> None:
    """Write the trajectory and summary CSVs named ``names`` and print the
    run's line: ``head``, the seed count, the mean final norm, with a
    certificate the mean projection on its normal, then ``tail``."""
    trajectories, summary = names
    rp.write_trajectory_csv(records, _outpath(config, trajectories))
    columns = rp.write_summary_csv(records, _outpath(config, summary), cert)
    line = f"{head} seeds={len(records)} mean_norm={columns['norm'].mean():.6f}"
    if cert is not None:
        line += f" mean_w_dot_x0={columns['w_dot_x0'].mean():.6f}"
    print(line + tail)


def _emit_reports(config, reports, json_name, csv_name) -> int:
    """Write the reports' JSON and one CSV per report (``csv_name`` formatted
    with the report's ``name``), print a verdict line each; the exit code."""
    rp.write_report_json(reports, _outpath(config, json_name))
    for report in reports:
        rp.write_probe_csv(report, _outpath(config, csv_name.format(name=report.name)))
        pairs = ", ".join(
            f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
            for k, v in list(report.measured.items())[:3]
        )
        print(f"[{report.verdict.upper():4s}] {report.name}: {pairs}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_PROBE_FAILURE


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    config = _load(args)
    gmm = config.gmm()
    condition = config.condition()
    cert = surface_certificate(gmm, condition)
    strategies = config.strategies()
    configs = [config.guidance(strategy=strategy) for strategy in strategies]
    runs = sp.sample_runs(
        gmm, config.time_grid(), [sp.Run(g, condition, config.seeds()) for g in configs])
    for strategy, guidance_cfg, records in zip(strategies, configs, runs):
        _emit_run(
            config, records, (f"trajectories_{strategy}.csv", f"summary_{strategy}.csv"),
            f"strategy={strategy} omega={guidance_cfg.omega}", cert,
            _guidance_echo(config, strategy),
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    config = _load(args)
    code = _emit_reports(config, run_suite(config), "verify_report.json", "probe_{name}.csv")
    if code == EXIT_OK:
        print("verification suite: all probes passed")
    else:
        print("verification suite: FAILURES present", file=sys.stderr)
    return code


def cmd_probe_c1(args) -> int:
    from .verify import probe_c1_monotone

    config = _load(args)
    report = probe_c1_monotone(config.gmm(), config.condition(), **config.data["probes"]["c1"])
    return _emit_reports(config, [report], "c1_report.json", "c1_values.csv")


def cmd_probe_norm(args) -> int:
    config = _load(args)
    nm = config.data["probes"]["norm"]
    report = theory.norm_amplification_check(
        config.gmm(), config.condition(), config.time_grid(), nm["omega"],
        range(nm["seed_count"]), nm["margin_floor"],
    )
    return _emit_reports(config, [report], "norm_report.json", "norm_margins.csv")


def cmd_sweep(args) -> int:
    config = _load(args)
    block = config.data["sweep"]
    rows = theory.norm_sweep(
        config.gmm(), config.time_grid(), block["strategies"], block["omegas"],
        range(block["seed_count"]), config.condition(), config.guidance(),
    )
    rp.write_sweep_csv(rows, _outpath(config, "sweep.csv"))
    for row in rows:
        print(
            f"strategy={row.strategy} omega={row.omega} "
            f"mean_norm={row.mean_norm:.6f} std={row.std_norm:.6f}"
        )
    return EXIT_OK


def cmd_scatter(args) -> int:
    from . import svgplot

    config = _load(args)
    block = config.data["scatter"]
    sets = theory.scatter_experiment(
        config.gmm(), config.time_grid(), block["omegas"], block["seeds_per_class"],
        strategy=block["strategy"], base_config=config.guidance(),
    )
    path = _outpath(config, "scatter.csv")
    rp.write_scatter_csv(sets, path)
    # each figure is drawn from the CSV, as `plot --kind scatter --omega w` draws it
    rows = _read_csv(path)
    gmm = config.gmm()
    for s in sets:
        doc = svgplot.render_scatter(*_scatter_groups(rows, s.omega))
        svgplot.write_svg(doc, _outpath(config, f"scatter_omega_{s.omega:g}.svg"))
        drift = s.centroid_drift(gmm)
        drift_text = " ".join(f"c{c}={d:.4f}" for c, d in sorted(drift.items()))
        print(f"omega={s.omega:g} centroid_drift: {drift_text}")
    return EXIT_OK


def cmd_flow_sample(args) -> int:
    config = _load(args)
    block = config.data["flow"]
    records = sp.flow_sample_batch(
        config.gmm(), block["sigma_min"], block["steps"], block["omega"],
        config.guidance().angle_cap, config.condition(), config.seeds(),
    )
    _emit_run(
        config, records, ("flow_trajectories.csv", "flow_summary.csv"),
        f"flow omega={block['omega']} sigma_min={block['sigma_min']}",
    )
    return EXIT_OK


def cmd_plot(args) -> int:
    from . import svgplot

    out = args.out or os.path.splitext(args.csv_path)[0] + ".svg"
    if args.omega is not None and args.kind == "sweep":
        print("input error: --omega selects scatter rows; a sweep figure draws every omega",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        # inside the handler: a file that is not UTF-8 raises UnicodeDecodeError
        rows = _read_csv(args.csv_path)
        if args.kind == "scatter":
            groups, title = _scatter_groups(rows, args.omega)
            if args.omega is not None and not groups:
                print(f"input error: --omega {args.omega:g}: no row of {args.csv_path} has "
                      "that omega", file=sys.stderr)
                return EXIT_INPUT_ERROR
            doc = svgplot.render_scatter(groups, title)
        else:
            doc = svgplot.render_sweep(
                _sweep_series(rows), title="mean final norm vs guidance weight")
    except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row's None cell
        print(f"malformed CSV for kind={args.kind}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    svgplot.write_svg(doc, out)
    print(f"wrote {out}")
    return EXIT_OK


def _read_csv(path):
    """The CSV's rows as dicts keyed by its header."""
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return list(csv.DictReader(fh))
        except csv.Error as exc:  # such as a field over csv's size limit
            raise ValueError(exc) from exc


def _scatter_groups(rows, omega_filter):
    """The scatter CSV's points grouped by (omega and) component in numeric order, and a title."""
    points: dict[tuple[float, int], list[tuple[float, float]]] = {}
    for row in rows:
        omega = float(row["omega"])
        if omega_filter is not None and omega != omega_filter:
            continue
        # a 1-D mixture's samples have no x0_1: they lie on the x axis
        y = float(row["x0_1"]) if "x0_1" in row else 0.0
        points.setdefault((omega, int(row["component"])), []).append((float(row["x0_0"]), y))
    omegas = sorted({omega for omega, _ in points})
    # two weights with one :g spelling would share a legend label, one group over the other
    for lo, hi in zip(omegas, omegas[1:]):
        if f"{lo:g}" == f"{hi:g}":
            raise ValueError(f"omegas {lo!r} and {hi!r} both read omega={lo:g}; "
                             "select one with --omega")
    multi = len(omegas) > 1
    groups = {
        (f"omega={omega:g} " if multi else "") + f"component {c}": points[omega, c]
        for omega, c in sorted(points)
    }
    title = "samples" if omega_filter is None else f"samples at omega={omega_filter:g}"
    return groups, title


def _sweep_series(rows):
    """The sweep CSV's (omega, mean_norm) points per strategy."""
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(row["strategy"], []).append(
            (float(row["omega"]), float(row["mean_norm"]))
        )
    return {k: series[k] for k in sorted(series)}


if __name__ == "__main__":
    sys.exit(main())
