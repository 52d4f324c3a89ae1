"""CSV and JSON emission for trajectories, sweeps and probe reports.

CSV dialect: comma separator, '.' decimal point, one header row, LF line
endings, floats at 17 significant digits so every binary double survives
a round trip. Every CSV is written by one row writer, ``_write_rows``: a
row is a head of leading cells followed by a row of a float block.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .mixture import SurfaceCertificate
from .samplers import TrajectoryRecord
from .theory import ProbeReport, ScatterSet, SweepRow

__all__ = [
    "write_csv",
    "write_trajectory_csv",
    "write_summary_csv",
    "write_sweep_csv",
    "write_scatter_csv",
    "write_probe_csv",
    "write_report_json",
]


@contextmanager
def _csv_file(path: str, header: list[str]):
    """The open CSV file at ``path``, its header row written."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        yield fh


def write_csv(path: str, header: list[str], rows) -> None:
    """``rows`` is an iterable of rows: float cells at .17g, others by str."""
    heads = [_head(*row) for row in rows]
    with _csv_file(path, header) as fh:
        _write_rows(fh, heads, np.empty((len(heads), 0)))


def _head(*cells) -> str:
    """A row's leading cells, floats at .17g and others by str, with '%'
    escaped for a printf template."""
    return ",".join(
        ("%.17g" if isinstance(v, (float, np.floating)) else "%s") % (v,) for v in cells
    ).replace("%", "%%")


# _write_rows formats this many rows per printf call, so a file's cells are
# never all held as Python objects at once
_CHUNK_ROWS = 1024


def _write_rows(fh, heads: list[str], block: np.ndarray) -> None:
    """One row per head: the head, then the matching row of the (n, k) float
    ``block`` at .17g."""
    slots = ",%.17g" * block.shape[1] + "\n"
    for start in range(0, len(heads), _CHUNK_ROWS):
        template = slots.join(heads[start:start + _CHUNK_ROWS]) + slots
        fh.write(template % tuple(block[start:start + _CHUNK_ROWS].ravel().tolist()))


def write_trajectory_csv(records: list[TrajectoryRecord], path: str) -> None:
    """One row per (trajectory, step), trajectories ordered by seed.

    Each row's head is its record's seed, strategy and omega and its step
    and time; the 4 * dim + 4 logged floats follow.
    """
    if not records:
        raise ValueError("no records to write")
    records = sorted(records, key=lambda r: r.seed)
    dim = records[0].x_t.shape[1]
    blocks = ("x_t", "x0_cond", "x0_uncond", "x0_guided")
    header = ["seed", "strategy", "omega", "step", "t",
              *(f"{name}_{i}" for name in blocks for i in range(dim)),
              "gamma", "gamma_omega", "guided_norm", "cfgpp_residual"]
    tails = {}  # each row's step and time, per time grid
    with _csv_file(path, header) as fh:
        for r in records:
            head = _head(r.seed, r.strategy, r.omega)
            key = r.times.tobytes()
            if key not in tails:
                tails[key] = ["," + _head(step, t) for step, t in enumerate(r.times.tolist())]
            residual = np.full(r.steps, np.nan) if r.cfgpp_residual is None else r.cfgpp_residual
            block = np.column_stack([*(getattr(r, name) for name in blocks),
                                     r.gamma, r.gamma_omega, r.guided_norm, residual])
            _write_rows(fh, [head + tail for tail in tails[key]], block)


def write_summary_csv(
    records: list[TrajectoryRecord],
    path: str,
    certificate: SurfaceCertificate | None = None,
) -> dict[str, np.ndarray]:
    """Final samples in seed order with their norm, and their projection on
    the certificate's normal when one is given; returns the float columns
    written after seed, strategy and omega."""
    if not records:
        raise ValueError("no records to write")
    records = sorted(records, key=lambda r: r.seed)
    finals = np.stack([r.final_x0 for r in records])
    columns = {"x0": finals, "norm": np.linalg.norm(finals, axis=1)}
    if certificate is not None:
        columns["w_dot_x0"] = finals @ certificate.normal
    header = ["seed", "strategy", "omega", *(f"x0_{i}" for i in range(finals.shape[1])),
              *list(columns)[1:]]
    with _csv_file(path, header) as fh:
        _write_rows(fh, [_head(r.seed, r.strategy, r.omega) for r in records],
                    np.column_stack(list(columns.values())))
    return columns


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    write_csv(
        path,
        ["strategy", "omega", "mean_norm", "std_norm", "n_seeds"],
        [[r.strategy, r.omega, r.mean_norm, r.std_norm, r.n_seeds] for r in rows],
    )


def write_scatter_csv(sets: list[ScatterSet], path: str) -> None:
    if not sets:
        raise ValueError("no scatter sets to write")
    dim = sets[0].samples.shape[1]
    header = ["omega", "strategy", "component", "seed", *(f"x0_{i}" for i in range(dim))]
    with _csv_file(path, header) as fh:
        for s in sets:
            heads = [_head(s.omega, s.strategy, c, seed)
                     for c, seed in zip(s.components.tolist(), s.seeds.tolist())]
            _write_rows(fh, heads, s.samples)


def write_probe_csv(report: ProbeReport, path: str) -> None:
    """Raw per-item measurements behind one probe verdict."""
    if report.details:
        keys = list(report.details[0].keys())
        write_csv(path, keys, [[d[k] for k in keys] for d in report.details])
    else:
        items = sorted(report.measured.items())
        write_csv(path, ["quantity", "value"], [[k, v] for k, v in items])


def write_report_json(reports: list[ProbeReport], path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload = {
        "suite": "guidance-lab verification",
        "all_passed": all(r.passed for r in reports),
        "probes": [r.to_dict() for r in reports],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
