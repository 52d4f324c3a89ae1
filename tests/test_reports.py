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


def _record(seed, strategy, omega, residual=False):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))

    def block():
        return rng.standard_normal((STEPS, DIM)) * 10.0 ** rng.integers(-8, 9, (STEPS, DIM))

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
        "14fe325a3a4a68e7400ac87595fa3698272bc2245f1ad3fc23bde8539b0b75ae",
    "trajectories_cfgpp.csv":
        "b01bf7b3713b9eb4eb6ec4b25beea225a0b949cd4594920e8e3c1a2603e1c43e",
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
