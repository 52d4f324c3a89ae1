"""Command-line front end: sampling runs, certifier suite, CSV/SVG emission.

Exit codes are a stable contract: 0 success, 1 probe/verdict failure,
2 input error (unreadable or invalid configuration, malformed CSV).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import reports as rp
from . import samplers as sp
from . import svgplot
from . import theory
from .config import ConfigError, ExperimentConfig, load_config
from .mixture import surface_certificate
from .verify import run_suite

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guidance-lab",
        description="Gaussian-mixture diffusion guidance laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML configuration document")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[], metavar="K=V",
            help="override a config entry by dotted path (repeatable, last wins)",
        )
        p.add_argument("--seed-count", type=int, default=None, help="override run.seed_count")
        p.add_argument("--out", default=None, help="override run.output_dir")
        p.add_argument("--strategy", default=None, help="override the guidance strategy")
        p.add_argument("--omega", type=float, default=None, help="override guidance.omega")

    p_sample = sub.add_parser("sample", help="run guided trajectories, write CSVs")
    add_common(p_sample)
    p_sample.set_defaults(handler=cmd_sample)

    p_verify = sub.add_parser("verify", help="run the full certifier suite")
    add_common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_c1 = sub.add_parser("probe-c1", help="anomalous-interval estimate across omegas")
    add_common(p_c1)
    p_c1.set_defaults(handler=cmd_probe_c1)

    p_norm = sub.add_parser("probe-norm", help="norm amplification along the outward normal")
    add_common(p_norm)
    p_norm.set_defaults(handler=cmd_probe_norm)

    p_sweep = sub.add_parser("sweep", help="final-norm sweep over strategies and omegas")
    add_common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_scatter = sub.add_parser("scatter", help="per-component sample scatter across omegas")
    add_common(p_scatter)
    p_scatter.set_defaults(handler=cmd_scatter)

    p_flow = sub.add_parser("flow-sample", help="guided flow-matching trajectories")
    add_common(p_flow)
    p_flow.set_defaults(handler=cmd_flow_sample)

    p_plot = sub.add_parser("plot", help="render a CSV produced by this tool as SVG")
    p_plot.add_argument("csv_path", help="input CSV (scatter or sweep layout)")
    p_plot.add_argument("--kind", choices=("scatter", "sweep"), required=True)
    p_plot.add_argument("--out", default=None, help="output SVG path (default: CSV path .svg)")
    p_plot.add_argument("--omega", type=float, default=None, help="restrict scatter to one omega")
    p_plot.set_defaults(handler=cmd_plot)

    return parser


def _load(args) -> ExperimentConfig:
    overrides = list(args.overrides)
    if args.seed_count is not None:
        overrides += [f"run.seed_count={args.seed_count}", "run.seeds=null"]
    if args.out is not None:
        # quoted, so a path such as 2024 or 010 stays the string it is
        overrides.append(f"run.output_dir={json.dumps(args.out, ensure_ascii=False)}")
    if args.strategy is not None:
        overrides += [f"guidance.strategy={args.strategy}", f"run.strategies=[{args.strategy}]"]
    if args.omega is not None:
        overrides.append(f"guidance.omega={args.omega}")
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
    cert = surface_certificate(gmm, condition) if gmm.n_components > 1 else None
    for strategy in config.strategies():
        guidance_cfg = config.guidance(strategy=strategy)
        records = sp.sample_batch(gmm, config.time_grid(), guidance_cfg, condition, config.seeds())
        _emit_run(
            config, records, (f"trajectories_{strategy}.csv", f"summary_{strategy}.csv"),
            f"strategy={strategy} omega={guidance_cfg.omega}", cert,
            _guidance_echo(config, strategy),
        )
    return EXIT_OK


def cmd_verify(args) -> int:
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
    gmm = config.gmm()
    nm = config.data["probes"]["norm"]
    cert = surface_certificate(gmm, config.condition())
    if cert is None:
        print(f"component {config.condition()} is not a surface class; probe n/a")
        return EXIT_OK
    omega = nm["omega"] if args.omega is None else args.omega
    report = theory.norm_amplification_check(
        gmm, cert, config.time_grid(), omega, range(nm["seed_count"]), nm["margin_floor"],
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
    config = _load(args)
    block = config.data["scatter"]
    sets = theory.scatter_experiment(
        config.gmm(), config.time_grid(), block["omegas"], block["seeds_per_class"],
        strategy=block["strategy"], base_config=config.guidance(),
    )
    rp.write_scatter_csv(sets, _outpath(config, "scatter.csv"))
    gmm = config.gmm()
    for s in sets:
        if gmm.dim >= 2:
            groups = {
                f"component {c}": [tuple(p[:2]) for p in s.samples[s.components == c]]
                for c in range(gmm.n_components)
            }
            doc = svgplot.render_scatter(groups, title=f"samples at omega={s.omega:g}")
            svgplot.write_svg(doc, _outpath(config, f"scatter_omega_{s.omega:g}.svg"))
        drift = s.centroid_drift(gmm)
        drift_text = " ".join(f"c{c}={d:.4f}" for c, d in sorted(drift.items()))
        print(f"omega={s.omega:g} centroid_drift: {drift_text}")
    return EXIT_OK


def cmd_flow_sample(args) -> int:
    config = _load(args)
    block = config.data["flow"]
    omega = block["omega"] if args.omega is None else args.omega
    records = sp.flow_sample_batch(
        config.gmm(), block["sigma_min"], block["steps"], omega, config.guidance().angle_cap,
        config.condition(), config.seeds(),
    )
    _emit_run(
        config, records, ("flow_trajectories.csv", "flow_summary.csv"),
        f"flow omega={omega} sigma_min={block['sigma_min']}",
    )
    return EXIT_OK


def cmd_plot(args) -> int:
    out = args.out or os.path.splitext(args.csv_path)[0] + ".svg"
    try:
        # inside the handler: a file that is not UTF-8 raises UnicodeDecodeError
        with open(args.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if args.kind == "scatter":
            doc = _plot_scatter(rows, args.omega)
        else:
            doc = _plot_sweep(rows)
    except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row's None cell
        print(f"malformed CSV for kind={args.kind}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    svgplot.write_svg(doc, out)
    print(f"wrote {out}")
    return EXIT_OK


def _plot_scatter(rows, omega_filter):
    groups: dict[str, list[tuple[float, float]]] = {}
    omegas = sorted({row["omega"] for row in rows}) if rows else []
    multi = len(omegas) > 1 and omega_filter is None
    for row in rows:
        omega = float(row["omega"])
        if omega_filter is not None and omega != omega_filter:
            continue
        label = f"component {row['component']}"
        if multi:
            label = f"omega={omega:g} " + label
        # a 1-D mixture's samples have no x0_1: they lie on the x axis
        y = float(row["x0_1"]) if "x0_1" in row else 0.0
        groups.setdefault(label, []).append((float(row["x0_0"]), y))
    groups = {k: groups[k] for k in sorted(groups)}
    title = "samples" if omega_filter is None else f"samples at omega={omega_filter:g}"
    return svgplot.render_scatter(groups, title=title)


def _plot_sweep(rows):
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(row["strategy"], []).append(
            (float(row["omega"]), float(row["mean_norm"]))
        )
    series = {k: series[k] for k in sorted(series)}
    return svgplot.render_sweep(series, title="mean final norm vs guidance weight")


if __name__ == "__main__":
    sys.exit(main())
