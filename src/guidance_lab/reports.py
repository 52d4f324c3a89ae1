"""CSV and JSON emission for trajectories, sweeps and probe reports.

CSV dialect: comma separator, '.' decimal point, one header row, LF line
endings, floats at 17 significant digits so every binary double survives
a round trip.
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
    formats = {}  # one printf format per sequence of cell types
    with _csv_file(path, header) as fh:
        for row in rows:
            kinds = tuple(map(type, row))
            fmt = formats.get(kinds)
            if fmt is None:
                fmt = formats[kinds] = ",".join(map(_cell_format, kinds)) + "\n"
            fh.write(fmt % tuple(row))


def _cell_format(kind: type) -> str:
    """printf format of a cell of type ``kind``: floats at .17g, others by str."""
    return "%.17g" if issubclass(kind, (float, np.floating)) else "%s"


# _write_columns turns this many rows at a time into Python values, so a
# file's cells are never all held as Python objects at once
_CHUNK_ROWS = 1024


def _write_columns(path: str, columns: dict[str, np.ndarray]) -> None:
    """One CSV from named columns of equal length; a 2-D block (n, k)
    expands to ``name_0..name_{k-1}``."""
    header, cells = [], []
    for name, block in columns.items():
        if block.ndim == 1:
            header.append(name)
            cells.append(block)
        else:
            header += [f"{name}_{i}" for i in range(block.shape[1])]
            cells += list(block.T)
    n = len(cells[0])
    write_csv(path, header, (
        row for start in range(0, n, _CHUNK_ROWS)
        for row in zip(*(c[start:start + _CHUNK_ROWS].tolist() for c in cells))
    ))


def _repeat(items, name: str, counts=1) -> np.ndarray:
    """Attribute ``name`` of each item, repeated ``counts`` times, as an object column."""
    return np.repeat(np.array([getattr(item, name) for item in items], dtype=object), counts)


def write_trajectory_csv(records: list[TrajectoryRecord], path: str) -> None:
    """One row per (trajectory, step), trajectories ordered by seed.

    Each trajectory is one printf call: its seed, strategy and omega and
    each row's step and time are baked into a template that leaves a .17g
    slot for each of the row's 4 * dim + 4 logged floats.
    """
    if not records:
        raise ValueError("no records to write")
    records = sorted(records, key=lambda r: r.seed)
    dim = records[0].x_t.shape[1]
    blocks = ("x_t", "x0_cond", "x0_uncond", "x0_guided")
    header = ["seed", "strategy", "omega", "step", "t",
              *(f"{name}_{i}" for name in blocks for i in range(dim)),
              "gamma", "gamma_omega", "guided_norm", "cfgpp_residual"]
    slots = ",%.17g" * (4 * dim + 4) + "\n"
    tails = {}  # each row's step, time and slots, per time grid
    with _csv_file(path, header) as fh:
        for r in records:
            head = ",".join(_cell_format(type(v)) % v for v in (r.seed, r.strategy, r.omega))
            head = head.replace("%", "%%")
            key = r.times.tobytes()
            if key not in tails:
                tails[key] = [f",{step},{'%.17g' % t}{slots}"
                              for step, t in enumerate(r.times.tolist())]
            template = "".join([head + tail for tail in tails[key]])
            residual = np.full(r.steps, np.nan) if r.cfgpp_residual is None else r.cfgpp_residual
            block = np.column_stack([*(getattr(r, name) for name in blocks),
                                     r.gamma, r.gamma_omega, r.guided_norm, residual])
            fh.write(template % tuple(block.ravel().tolist()))


def write_summary_csv(
    records: list[TrajectoryRecord],
    path: str,
    certificate: SurfaceCertificate | None = None,
) -> dict[str, np.ndarray]:
    """Final samples in seed order with their norm, and their projection on
    the certificate's normal when one is given; returns the columns written."""
    if not records:
        raise ValueError("no records to write")
    records = sorted(records, key=lambda r: r.seed)
    finals = np.stack([r.final_x0 for r in records])
    columns = {
        **{name: _repeat(records, name) for name in ("seed", "strategy", "omega")},
        "x0": finals,
        "norm": np.linalg.norm(finals, axis=1),
    }
    if certificate is not None:
        columns["w_dot_x0"] = finals @ certificate.normal
    _write_columns(path, columns)
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
    sizes = [len(s.seeds) for s in sets]
    _write_columns(path, {
        "omega": _repeat(sets, "omega", sizes),
        "strategy": _repeat(sets, "strategy", sizes),
        "component": np.concatenate([s.components for s in sets]),
        "seed": np.concatenate([s.seeds for s in sets]),
        "x0": np.concatenate([s.samples for s in sets]),
    })


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
