"""Golden emission: every CSV kind written from fixed records, pinned by sha256."""

import hashlib
import math

import numpy as np
import pytest

from guidance_lab import reports as rp
from guidance_lab.mixture import SurfaceCertificate
from guidance_lab.samplers import TrajectoryRecord
from guidance_lab.theory import ProbeReport, ScatterSet, SweepRow

DIM, STEPS = 3, 4
# 1e-8 .. 1e8 from decimal literals: numpy's AVX-512 ``power`` is not
# correctly rounded, so ``10.0 ** k`` would make the pinned bytes depend on
# the CPU's SIMD level
POW10 = np.array([float(f"1e{k}") for k in range(-8, 9)])


def _record(seed, strategy, omega, residual=False):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))

    def block():
        return rng.standard_normal((STEPS, DIM)) * POW10[rng.integers(0, 17, (STEPS, DIM))]

    gamma = rng.uniform(0.0, math.pi, STEPS)
    gamma[1] = np.nan  # a prediction too short for an angle
    return TrajectoryRecord(
        seed=seed, strategy=strategy, omega=omega, times=np.linspace(1.0, 0.25, STEPS),
        x_t=block(), x0_cond=block(), x0_uncond=block(), x0_guided=block(),
        gamma=gamma, gamma_omega=np.full(STEPS, np.nan), guided_norm=rng.uniform(0, 5, STEPS),
        final_x0=rng.standard_normal(DIM) * [1.0, 1e-300, 3.0],
        cfgpp_residual=rng.standard_normal(STEPS) * 1e-15 if residual else None,
    )


# seeds out of order: the writers sort by seed
CFG_RECORDS = [_record(9, "cfg", 5.0), _record(3, "cfg", 5.0), _record(2**40, "cfg", 5.0)]
CFGPP_RECORDS = [_record(7, "cfgpp", 2.5, residual=True), _record(0, "cfgpp", 2.5, residual=True)]
CERTIFICATE = SurfaceCertificate(
    component_index=0, normal=np.array([0.6, 0.0, 0.8]), offset=-1.4, min_margin=math.sqrt(2.0),
)
SCATTER = [
    ScatterSet(omega=float(w), strategy="adg", components=np.array([0, 0, 1, 1]),
               seeds=np.arange(4), samples=np.arange(12.0).reshape(4, DIM) / (3.0 * w))
    for w in (1, 3)
]
SWEEP = [SweepRow("cfg", 1.0, 1 / 3, 0.1, 64), SweepRow("adg", 8.0, 1e-300, 0.0, 64)]
DETAILED = ProbeReport(
    name="norm_amplification", parameters={}, verdict="pass", measured={}, tolerance=1e-9,
    details=[{"seed": s, "margin": m, "passed": m > 0} for s, m in ((0, 1 / 7), (1, -0.0))],
)
MEASURED = ProbeReport(
    name="anomalous_interval", parameters={}, verdict="fail", tolerance=1e-8,
    measured={"c1_values": [0.1, 1 / 3], "max": 2.5, "bit_identical": True, "note": "n/a"},
)

# sha256 of each file: any change to the emitted bytes fails here
GOLDEN = {
    "trajectories_cfg.csv":
        "13eeddbb29d9de7ec6d8d7ba280539a2b1bc3b16878e8ea0866f41985b5e4605",
    "trajectories_cfgpp.csv":
        "890b4492a206d456732a0b89ef359b3ca9be8e2e7621e8b02d1902f9d5959e77",
    "summary_cfg.csv":
        "a7a83e4637784ed6e319adc8a6acce4f0e608d68260e644b944680594ff4cfa3",
    "summary_cfgpp.csv":
        "8f2f7cac4edd409031e0fc2353cd8b77cd52986a64da9fca39fd443ce93b01cf",
    "scatter.csv":
        "7ca15be25015d3b13035aa7d0efe3bb2986bd9b1453f9f38bd0f98694380a37f",
    "sweep.csv":
        "13348427290ebe6f24ea00cda6b25fa10edfe1fa9e6ce2c2d46126a20b2b9057",
    "probe_details.csv":
        "3a6090fdeb54077c4e08a83d9814136aa1eb161c52417d3ed607c872c8426c25",
    "probe_measured.csv":
        "ccd3c17cf9086bc0894de720a41c0bbe4bf2bb789c0b99216b909ad5e3ec8106",
}


def _write_all(out):
    rp.write_trajectory_csv(CFG_RECORDS, str(out / "trajectories_cfg.csv"))
    rp.write_trajectory_csv(CFGPP_RECORDS, str(out / "trajectories_cfgpp.csv"))
    rp.write_summary_csv(CFG_RECORDS, str(out / "summary_cfg.csv"), CERTIFICATE)
    rp.write_summary_csv(CFGPP_RECORDS, str(out / "summary_cfgpp.csv"))
    rp.write_scatter_csv(SCATTER, str(out / "scatter.csv"))
    rp.write_sweep_csv(SWEEP, str(out / "sweep.csv"))
    rp.write_probe_csv(DETAILED, str(out / "probe_details.csv"))
    rp.write_probe_csv(MEASURED, str(out / "probe_measured.csv"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emission_is_pinned(tmp_path, name):
    _write_all(tmp_path)
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name], (tmp_path / name).read_text()


def _columns_layout(records, path):
    """The trajectory CSV as rows of cells for ``write_csv``: the column layout
    write_trajectory_csv emits."""
    records = sorted(records, key=lambda r: r.seed)
    dim = records[0].x_t.shape[1]
    blocks = ("x_t", "x0_cond", "x0_uncond", "x0_guided")
    header = ["seed", "strategy", "omega", "step", "t",
              *(f"{name}_{i}" for name in blocks for i in range(dim)),
              "gamma", "gamma_omega", "guided_norm", "cfgpp_residual"]
    rows = []
    for r in records:
        residual = np.full(r.steps, np.nan) if r.cfgpp_residual is None else r.cfgpp_residual
        block = np.column_stack([*(getattr(r, name) for name in blocks),
                                 r.gamma, r.gamma_omega, r.guided_norm, residual])
        rows += [[r.seed, r.strategy, r.omega, i, t, *cells]
                 for i, (t, cells) in enumerate(zip(r.times.tolist(), block.tolist()))]
    rp.write_csv(path, header, rows)


SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308,
                    1e300, 1 / 3])


def _odd_record(seed, strategy, omega, dim, residual, steps=5):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))

    def cells(*shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        mask = rng.random(shape) < 0.3
        values[mask] = rng.choice(SPECIAL, mask.sum())
        return values

    return TrajectoryRecord(
        seed=seed, strategy=strategy, omega=omega, times=np.linspace(1.0, 0.0, steps),
        x_t=cells(steps, dim), x0_cond=cells(steps, dim), x0_uncond=cells(steps, dim),
        x0_guided=cells(steps, dim), gamma=cells(steps), gamma_omega=cells(steps),
        guided_norm=cells(steps), final_x0=cells(dim),
        cfgpp_residual=cells(steps) if residual else None,
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("strategy, omega", [
    ("cfg", 5.0), ("adg", 2), ("a%sb%%c%", 0.1 + 0.2), ("apg", np.float64(-0.0)),
])
def test_trajectory_csv_equals_column_layout(tmp_path, dim, residual, strategy, omega):
    records = [_odd_record(s, strategy, omega, dim, residual) for s in (11, 2, 2**63 + 5)]
    records.append(_odd_record(4, strategy, omega, dim, residual, steps=1))
    rp.write_trajectory_csv(records, str(tmp_path / "template.csv"))
    _columns_layout(records, str(tmp_path / "columns.csv"))
    assert (tmp_path / "template.csv").read_bytes() == (tmp_path / "columns.csv").read_bytes()


ODD_HEADS = [("cfg", 5.0), ("adg", 2), ("a%sb%%c%", 0.1 + 0.2), ("apg", np.float64(-0.0))]
ODD_SEEDS = (11, 2, 2**63 + 5)


# finals holding 1e300 and both infinities overflow the norm to inf and give
# inf - inf = nan projections, as IEEE arithmetic should
@np.errstate(over="ignore", invalid="ignore")
def _check_summary(out, records, certificate):
    """write_summary_csv equals the same rows written through write_csv, and
    returns the float columns it wrote."""
    columns = rp.write_summary_csv(records, str(out / "summary.csv"), certificate)
    records = sorted(records, key=lambda r: r.seed)
    finals = np.stack([r.final_x0 for r in records])
    dim = finals.shape[1]
    floats = [finals, np.linalg.norm(finals, axis=1)[:, None]]
    header = ["seed", "strategy", "omega", *(f"x0_{i}" for i in range(dim)), "norm"]
    if certificate is not None:
        floats.append((finals @ certificate.normal)[:, None])
        header.append("w_dot_x0")
    floats = np.hstack(floats)
    rp.write_csv(str(out / "rows.csv"), header, [
        [r.seed, r.strategy, r.omega, *cells] for r, cells in zip(records, floats.tolist())])
    assert (out / "summary.csv").read_bytes() == (out / "rows.csv").read_bytes()
    np.testing.assert_array_equal(np.column_stack(list(columns.values())), floats)


def _certificate(dim):
    normal = np.arange(1.0, dim + 1) / np.linalg.norm(np.arange(1.0, dim + 1))
    return SurfaceCertificate(component_index=0, normal=normal, offset=-1.0, min_margin=1.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("certified", [False, True])
@pytest.mark.parametrize("strategy, omega", ODD_HEADS)
def test_summary_csv_equals_rows(tmp_path, dim, certified, strategy, omega):
    records = [_odd_record(s, strategy, omega, dim, False, steps=1) for s in ODD_SEEDS]
    _check_summary(tmp_path, records, _certificate(dim) if certified else None)


def test_summary_csv_crosses_a_chunk_boundary(tmp_path):
    records = [_odd_record(s, "a%s", 1 / 3, 2, False, steps=1) for s in range(1100)]
    _check_summary(tmp_path, records, _certificate(2))


def _odd_scatter(omega, strategy, dim, n, seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    samples = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim))
    mask = rng.random((n, dim)) < 0.3
    samples[mask] = rng.choice(SPECIAL, mask.sum())
    seeds = np.array([*ODD_SEEDS, *range(n - len(ODD_SEEDS))], dtype=np.uint64)
    return ScatterSet(omega=omega, strategy=strategy, components=rng.integers(0, 5, n),
                      seeds=seeds, samples=samples)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("sizes", [(4, 3, 5, 1), (1100, 7, 2, 3)])
def test_scatter_csv_equals_rows(tmp_path, dim, sizes):
    sets = [_odd_scatter(omega, strategy, dim, n, seed)
            for seed, ((strategy, omega), n) in enumerate(zip(ODD_HEADS, sizes))]
    rp.write_scatter_csv(sets, str(tmp_path / "scatter.csv"))
    rp.write_csv(
        str(tmp_path / "rows.csv"),
        ["omega", "strategy", "component", "seed", *(f"x0_{i}" for i in range(dim))],
        [[s.omega, s.strategy, c, seed, *cells] for s in sets
         for c, seed, cells in zip(s.components.tolist(), s.seeds.tolist(), s.samples.tolist())],
    )
    assert (tmp_path / "scatter.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
