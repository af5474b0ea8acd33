"""Config resolution, pipeline orchestration, exit codes, determinism.

CLI runs here use deliberately coarse discretizations: the numerical
content of each pipeline is covered by the module tests, so these only
need the plumbing to be watertight (resolution echo, manifest checksums,
exit-code mapping, bitwise reproducibility).
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from vmstab.cli import main
from vmstab.config import ResolvedConfig, RunConfig, validate_config
from vmstab.errors import ConfigError

# cheap vacuum kinetics: zero amplitude needs no quadrature headroom
VACUUM = ["--set", "equilibrium.amplitude=0", "--set", "equilibrium.nx=16",
          "--set", "operators.quad_nv=4", "--set", "averaging.dt=5e-3",
          "--set", "equilibrium.nv=4", "--set", "equilibrium.v_max=5"]


def _artifact_digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


# ---------------------------------------------------------------------------
# config resolution


def test_empty_file_resolves_to_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = validate_config(str(path))
    assert cfg["equilibrium.preset"] == "maxwellian-pair"
    assert cfg["averaging.threads"] == 1
    assert cfg["sweep.T_grid"][-1] == np.inf


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="alpa"):
        validate_config(overrides=["alpa=3"])


def test_unknown_key_carries_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("averaging.dt = 1e-3\nalpa = 3\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        validate_config(str(path))


def test_zero_threads_rejected():
    with pytest.raises(ConfigError, match="threads"):
        validate_config(overrides=["averaging.threads=0"])


def test_threads_other_than_one_rejected():
    with pytest.raises(ConfigError, match="serial"):
        validate_config(overrides=["averaging.threads=4"])


def test_benchmark_overrides_validate():
    # every override the benchmark passes must stay a valid key and value
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for w in workloads.WORKLOADS:
        for i in workloads.INSTANCES:
            for size in workloads.SIZES:
                for call in workloads.calls(w, i, size):
                    validate_config(overrides=call["overrides"])


def test_malformed_value_names_key_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("operators.k_max = soon\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1.*k_max"):
        validate_config(str(path))


def test_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("# a comment\n\nsweep.n = 7  # trailing note\n")
    assert validate_config(str(path))["sweep.n"] == 7


def test_echo_round_trips(tmp_path):
    cfg = validate_config(overrides=["averaging.dt=2.5e-3",
                                     "sweep.T_grid=1e-3,1,inf"])
    path = tmp_path / "echo.cfg"
    path.write_text(cfg.echo())
    again = validate_config(str(path))
    assert again.values == cfg.values
    assert again.sha256() == cfg.sha256()


def test_bracket_ordering_enforced():
    with pytest.raises(ConfigError, match="bracket"):
        validate_config(overrides=["mode.bracket_lo=2.0",
                                   "mode.bracket_hi=1.0"])


def test_run_config_rejects_unknown_command(tmp_path):
    cfg = validate_config()
    with pytest.raises(ConfigError, match="command"):
        RunConfig(command="prove", resolved=cfg, out_dir=tmp_path)


# ---------------------------------------------------------------------------
# pipelines and exit codes


def test_unknown_key_exits_2(tmp_path):
    assert main(["criterion", "--out", str(tmp_path), "--set",
                 "alpa=3"]) == 2


def test_zero_threads_exits_2(tmp_path):
    # there is no --threads flag: argparse rejects it as a usage error
    for threads in ("0", "4"):
        with pytest.raises(SystemExit) as exc:
            main(["criterion", "--out", str(tmp_path), "--threads", threads])
        assert exc.value.code == 2


def test_nan_drift_budget_exits_2(tmp_path):
    # a NaN budget would switch the drift guard off
    assert main(["criterion", "--out", str(tmp_path), "--set",
                 "averaging.drift_tol=nan"] + VACUUM) == 2


def test_negative_infinite_grid_end_exits_2(tmp_path):
    # a grid ending at -inf must not be read as ending at the T = inf limit
    assert main(["sweep", "--out", str(tmp_path), "--set",
                 "sweep.T_grid=1e-3,1,-inf"] + VACUUM) == 2


def test_pipeline_error_exits_3(tmp_path):
    # declared half-width far too small for the catalog weight tail
    assert main(["ergodic", "--case", "weighted", "--out", str(tmp_path),
                 "--set", "ergodic.L=100"]) == 3


def test_anchor_audit_failure_exits_4(tmp_path):
    # starting the horizon grid past the anchor regime trips the audit
    code = main(["sweep", "--out", str(tmp_path), "--set",
                 "equilibrium.preset=bimaxwellian-pair", "--set",
                 "equilibrium.nx=16", "--set", "averaging.dt=5e-3",
                 "--set", "sweep.n=5", "--set", "sweep.T_grid=2,inf"])
    assert code == 4


def test_vacuum_criterion_stable_and_manifested(tmp_path):
    out = tmp_path / "crit"
    assert main(["criterion", "--out", str(out)] + VACUUM) == 0
    report = json.loads((out / "criterion.json").read_text())
    assert report["criterion"]["unstable_predicted"] is False
    assert report["criterion"]["kernel_dim"] == 1
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = validate_config(overrides=[a for a in VACUUM if a != "--set"])
    assert manifest["config_hash"] == cfg.sha256()
    # every artifact is listed with a correct checksum
    assert manifest["artifacts"] == _artifact_digests(out)
    for key in ("averaging.dt", "sweep.gap_tol", "operators.sym_tol"):
        assert key in manifest["tolerances"]
    # residuals inside sym_tol are measurements, not warnings
    assert manifest["warnings"] == []
    for key in ("asymmetry_residual", "a1_residual", "a2_residual"):
        assert 0.0 <= manifest["extras"][key] <= 5e-2


def test_vacuum_sweep_counts_and_csv(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", "--out", str(out), "--set", "sweep.n=5",
                 "--set", "sweep.T_grid=1e-3,1,inf"] + VACUUM)
    assert code == 0
    summary = json.loads((out / "sweep.json").read_text())
    assert summary["counts"] == [5, 5, 4]
    assert summary["anchor_expected"] == 5
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("T,n,negatives")


def test_ergodic_shorthand_flags_and_plots(tmp_path):
    out = tmp_path / "erg"
    code = main(["ergodic", "--case", "weighted", "--beta", "0",
                 "--out", str(out), "--set", "ergodic.T_points=21",
                 "--emit-plots"])
    assert code == 0
    table = json.loads((out / "weighted_eigenvalues.json").read_text())
    assert table["beta"] == 0.0
    pred = np.array(table["predicted"])
    comp = np.array(table["computed"])
    assert np.max(np.abs(comp - pred)) <= 1e-6 * np.max(np.abs(pred))
    manifest = json.loads((out / "manifest.json").read_text())
    assert "weighted_fitted_slope" in manifest["extras"]
    assert (out / "plot_artifacts.py").exists()
    assert (out / "weighted_norms.csv").read_text().splitlines()[0] == "T,norm"


def test_identical_configs_reproduce_bitwise(tmp_path):
    args = ["sweep", "--set", "sweep.n=5", "--set",
            "sweep.T_grid=1e-3,1,inf"] + VACUUM
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert _artifact_digests(out_a) == _artifact_digests(out_b)
