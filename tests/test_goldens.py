"""End-to-end output goldens: every command's exit code, stdout and files.

Each command runs through ``cli.main`` on a shipped config, as the CLI
would, and its stdout and written files are pinned by sha256.  A file
whose bytes depend on numpy's SIMD dispatch (its exp, log and atan2
kernels round differently on AVX-512, AVX2 and SSE) is pinned by name
only; every other byte is pinned, so a change that moves any output the
dispatch does not move fails here.  A re-pin lists old and new hash and
its reason in CHANGES.md.
"""

import hashlib
import os

import pytest

from guidance_lab.cli import main

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# every strategy in one drive, the pcg corrector on: pins cfgpp's renoise,
# recfg's lambda and pcg's corrector, which the default config does not run
NINE = ("cfg", "adg", "adg_no_cap", "adg_normalized", "adg_simplified", "apg", "recfg", "cfgpp",
        "pcg")
ALL_STRATEGIES = ("--set", f"run.strategies=[{', '.join(NINE)}]",
                  "--set", "guidance.pcg_inner_steps=2")

# (command, config, *extra CLI arguments) -> exit code, and the sha256 of its
# stdout and of each file it writes; None marks a file whose bytes depend on
# SIMD dispatch
GOLDENS = {
    ("sample", "default.yaml"): (0, {
        "stdout": "4fe7fd917ceb32aaf302172418087fa32d86ce93fd8470305fed5fbea2234fde",
        "summary_cfg.csv": None,
        "trajectories_cfg.csv": None,
    }),
    ("sample", "default.yaml", *ALL_STRATEGIES): (0, {
        "stdout": "4227b69451dc4ef1a8419220bbece14c22654b417e43aac56efe5087bf2ce62b",
        **{f"{kind}_{s}.csv": None for kind in ("summary", "trajectories") for s in NINE},
        "summary_cfgpp.csv": "bea85102a92da72cff8e81d407707d86a930cfc036a8abfda7b91d1fa70fdf02",
        "summary_pcg.csv": "5d7e1a5c779f74e5d9aa07802aec49956834148e3e59dd12d691db2a8439d2b0",
        "summary_recfg.csv": "00d47acdb8b105910fd075ca033d09b95e1b4a546453a0715ed407574d21b39c",
    }),
    ("flow-sample", "default.yaml"): (0, {
        "stdout": "82ce1402ff4c1f8521897503de7e61640eef673a91ea187ce8b78a21ff548910",
        "flow_summary.csv": None,
        "flow_trajectories.csv": None,
    }),
    ("sweep", "default.yaml"): (0, {
        "stdout": "fe678d52be02e0295f2ddff525fc2aa07161b364d7350b43b0151f2f3231fb69",
        "sweep.csv": None,
    }),
    ("scatter", "default.yaml"): (0, {
        "stdout": "ab1676763806609ff81c3b76c2b861995272c3c1e6c136e3d47f750cc2cdb296",
        "scatter.csv": None,
        "scatter_omega_1.svg": "fbf6a707c4882a1bd78c87064785ebbda1dab3a413f56b598450f75591ad0722",
        "scatter_omega_3.svg": "14731892d0a345cd787d78afd9a479ac6d6d5549339bd0272be47125344d48aa",
        "scatter_omega_5.svg": "ce8bb75eab68fbd6449beeadf82a8e91091b3945d01078f6bcc4603b26c0269e",
    }),
    ("verify", "default.yaml"): (0, {
        "stdout": "be5a935cbbbab97f157cfc3116c16c269483a87def514fd0644308fcf2354112",
        "probe_anomalous_interval.csv":
            "a38b25c3474d11fda50b9523ec533abcbdef4cfa3cf066a81db9755a9d403558",
        "probe_guidance_off_equivalence.csv":
            "3eba41332690672ab354fa25f9de2d942762a9283a00f6e50147e80f54dbc402",
        "probe_norm_amplification.csv": None,
        "probe_posterior_mean_score_identity.csv":
            "1fc5e363e48adddb64db67185fecc6e2109685cb0f4b82c0ce8dcff8d06ce3cd",
        "probe_responsibility_simplex.csv":
            "d1ad31c136804b5863606a239a0da5a1e3db7a4395cb4f6a939d343f648c9b78",
        "probe_rotation_norm_bound.csv":
            "c463a6811b67fadbc0b3c1b301db3c9d5a42d4ae067cb68d84fadc9c990cbe53",
        "probe_score_finite_difference.csv":
            "968bc971eea71be541c3b524db39c1b80cbaf0c7f3b917b57d37e91564c2f24d",
        "probe_split_update_equivalence.csv":
            "6ff9fa31e87c54b3d03aeef4b5db54d8e93d95472bfb0097b2fb296117868a9e",
        "probe_surface_certificates.csv":
            "da73ed638b390d233702911c810ecbe89624640f1568f708c8f38cc88c8cd85d",
        "probe_trajectory_determinism.csv":
            "6c6e94d37feb447b0d1ff16caef18a6555a5870a390694497a0d4588f2f2dd28",
        "verify_report.json": None,
    }),
    ("probe-c1", "default.yaml"): (0, {
        "stdout": "f7c6fa27e23b421fdad9189b6ad7ca517ea44ea8afccbd133daf0c2815409ab6",
        "c1_report.json": "aaf14bfc26bd24090b7bf38b54c4354c05f5708368930d7fb0d1545520c2aadb",
        "c1_values.csv": "a38b25c3474d11fda50b9523ec533abcbdef4cfa3cf066a81db9755a9d403558",
    }),
    ("probe-norm", "default.yaml"): (0, {
        "stdout": "3c93d9fa9b3596a735ef8a56296ccf715d3d0641e063b2d77433d6bb659ed2b0",
        "norm_margins.csv": None,
        "norm_report.json": None,
    }),
    ("verify", "failing.yaml"): (1, {
        "stdout": "325280e9c2aee5d559797cbdd33efce06d8e70e9e9e9bd6d13ae8fa117732ad1",
        "probe_anomalous_interval.csv":
            "a38b25c3474d11fda50b9523ec533abcbdef4cfa3cf066a81db9755a9d403558",
        "probe_guidance_off_equivalence.csv":
            "3eba41332690672ab354fa25f9de2d942762a9283a00f6e50147e80f54dbc402",
        "probe_norm_amplification.csv":
            "cde244ad1f42880ee2565abd113574f754b2ce769d95bd8365d917b4043b996c",
        "probe_posterior_mean_score_identity.csv":
            "1fc5e363e48adddb64db67185fecc6e2109685cb0f4b82c0ce8dcff8d06ce3cd",
        "probe_responsibility_simplex.csv":
            "d1ad31c136804b5863606a239a0da5a1e3db7a4395cb4f6a939d343f648c9b78",
        "probe_rotation_norm_bound.csv":
            "bfa46085fb14fc9d0e4882ddacc49a11600592eaf5e52cac9dc06454483c546f",
        "probe_score_finite_difference.csv":
            "4814034d9795a7798a3178372bcfef83e159229b4fb4f97d400af1553b534997",
        "probe_split_update_equivalence.csv":
            "6ff9fa31e87c54b3d03aeef4b5db54d8e93d95472bfb0097b2fb296117868a9e",
        "probe_surface_certificates.csv":
            "da73ed638b390d233702911c810ecbe89624640f1568f708c8f38cc88c8cd85d",
        "probe_trajectory_determinism.csv":
            "6c6e94d37feb447b0d1ff16caef18a6555a5870a390694497a0d4588f2f2dd28",
        "verify_report.json": "8a5f06bc262b44caab90ed67eb159c81a9ae66bd48d4184c3de25220816a4b22",
    }),
    ("verify", "corrupt.yaml"): (2, {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    }),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", list(GOLDENS), ids=[" ".join(k) for k in GOLDENS])
def test_command_output_matches_its_golden(tmp_path, capsys, key):
    command, config, *extra = key
    code, pinned = GOLDENS[key]
    out = tmp_path / "out"
    argv = [command, "--config", os.path.join(CONFIGS, config), "--out", str(out), *extra]
    assert main(argv) == code
    assert _sha256(capsys.readouterr().out.encode()) == pinned["stdout"]
    written = sorted(os.listdir(out)) if out.exists() else []
    assert written == sorted(name for name in pinned if name != "stdout")
    for name in written:
        if pinned[name] is not None:
            assert _sha256((out / name).read_bytes()) == pinned[name], name
