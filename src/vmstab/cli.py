"""Batch front door: run pipelines from a config file and persist results.

Each subcommand builds its inputs from the resolved configuration, runs
one module pipeline, and writes CSV/JSON artifacts plus a run manifest
into the output directory.  Numeric CSV cells carry 17 significant
digits; JSON objects are written with sorted keys; every artifact is
listed in the manifest with its checksum.  Reduction orders are fixed, so
identical configurations reproduce bitwise-identical artifacts; only the
manifest carries wall-clock values.

Exit codes: 0 success, 2 configuration error, 3 pipeline error, 4 audit
failure (an internal consistency check such as the small-horizon count
anchor or an assembly symmetry gate tripped).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .averaging import AveragingConfig, PhaseGrid, orbit_summary
from .config import ResolvedConfig, RunConfig, validate_config
from .equilibrium import (EquilibriumSpec, VelocityQuadrature,
                          preset_equilibrium)
from .ergodic_lab import (LineDiscretization, WeightSpec,
                          ergodic_norm_L2sigma, inverse_square_weight,
                          l2sigma_norm_series, predicted_eigs,
                          projector_demo, weighted_eigs,
                          weighted_norm_series)
from .errors import (AsymmetryTooLarge, ConfigError, DegenerateCutoff,
                     PipelineError, SmallTAnchorFailed, VmstabError)
from .operators import DiscretizationSpec, assemble
from .spectrum import (check_criterion, find_crossing,
                       infinity_count_identity, sweep, sweep_to_csv)

_AUDIT_ERRORS = (SmallTAnchorFailed, AsymmetryTooLarge)


# ---------------------------------------------------------------------------
# artifact helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2)
                    + "\n")


def _write_csv(path: Path, header: List[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, (float, np.floating))
                             else str(v) for v in row])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Render every CSV artifact in this directory: column 0 against each
# later column, log-log when all values are positive.  Uses matplotlib
# when importable, otherwise prints a coarse text rendering.
import csv
import math
import pathlib

for path in sorted(pathlib.Path(__file__).parent.glob("*.csv")):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = []
    for j in range(len(header)):
        try:
            cols.append([float(r[j]) for r in data])
        except ValueError:
            cols.append(None)
    if cols[0] is None or len(cols) < 2:
        continue
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        fig, ax = plt.subplots()
        for j in range(1, len(cols)):
            if cols[j] is not None:
                ax.plot(cols[0], cols[j], label=header[j])
        if all(v > 0 for v in cols[0]) and all(
                v > 0 for j in range(1, len(cols)) if cols[j]
                for v in cols[j]):
            ax.set_xscale("log")
            ax.set_yscale("log")
        ax.set_xlabel(header[0])
        ax.legend()
        out = path.with_suffix(".png")
        fig.savefig(out, dpi=120)
        print(f"wrote {out}")
    except ImportError:
        print(f"== {path.name}: {header[0]} vs {header[1]}")
        lo = min(v for v in cols[1] if v is not None)
        hi = max(cols[1])
        for xv, yv in zip(cols[0], cols[1]):
            frac = 0.0 if hi == lo else (yv - lo) / (hi - lo)
            print(f"{xv:12.5g} | " + "#" * (1 + int(40 * frac)))
"""


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _build_equilibrium(cfg: ResolvedConfig) -> EquilibriumSpec:
    params = {}
    for key in ("p_shift", "p_width", "b_amp"):
        value = cfg[f"equilibrium.{key}"]
        if value is not None:
            params[key] = value
    return preset_equilibrium(
        cfg["equilibrium.preset"], period=cfg["equilibrium.period"],
        nx=cfg["equilibrium.nx"], nv=cfg["equilibrium.nv"],
        v_max=cfg["equilibrium.v_max"], beta=cfg["equilibrium.beta"],
        amplitude=cfg["equilibrium.amplitude"], **params)


def _build_disc(eq: EquilibriumSpec,
                cfg: ResolvedConfig) -> DiscretizationSpec:
    quad = VelocityQuadrature.build(cfg["operators.quad_nv"],
                                    cfg["operators.quad_v_max"])
    grid = PhaseGrid.from_equilibrium(eq, n_x=cfg["operators.n_x"],
                                      quad=quad)
    avg = AveragingConfig(dt=cfg["averaging.dt"],
                          epsilon_tail=cfg["averaging.epsilon_tail"],
                          drift_tol=cfg["averaging.drift_tol"],
                          orbit_dt=cfg["averaging.orbit_dt"])
    return DiscretizationSpec(k_max=cfg["operators.k_max"], grid=grid,
                              sym_tol=cfg["operators.sym_tol"], avg=avg)


def _fallback_warnings(eq: EquilibriumSpec,
                       disc: DiscretizationSpec) -> List[str]:
    # orbit tables are cached on the grid, so this is free after any
    # infinite-horizon assembly; near-separatrix starts that never close
    # fell back to exponential averaging and belong in the manifest
    warnings = []
    for sign in (+1, -1):
        table = orbit_summary(disc.grid, sign, eq.fields, disc.avg)
        misses = int(np.sum(~table.found))
        if misses:
            warnings.append(f"{misses} orbits of species sign {sign:+d} "
                            f"did not close; exponential fallback "
                            f"averaging used")
    return warnings


# ---------------------------------------------------------------------------
# subcommand pipelines: each returns (extras, warnings)


def _run_equilibrium(cfg: ResolvedConfig,
                     out: Path) -> Tuple[dict, List[str]]:
    eq = _build_equilibrium(cfg)
    eq.fields.to_csv(out / "fields.csv")
    report = {
        "label": eq.label,
        "period": eq.fields.period,
        "nx": int(eq.fields.x.size),
        "nv": int(eq.quad.V1.size),
        "v_max": float(np.max(np.abs(eq.quad.V1))),
        "consistency_residual": eq.consistency_residual,
        "weight_alpha": eq.plus.alpha,
        "weight_c": eq.plus.c,
    }
    _write_json(out / "equilibrium.json", report)
    return {"consistency_residual": eq.consistency_residual}, []


def _run_criterion(cfg: ResolvedConfig,
                   out: Path) -> Tuple[dict, List[str]]:
    eq = _build_equilibrium(cfg)
    disc = _build_disc(eq, cfg)
    ops_inf = assemble(np.inf, eq, disc)
    report = check_criterion(ops_inf)
    payload = report.as_dict()
    # the headline answer under its outward-facing name
    payload["unstable_predicted"] = payload.pop("unstable")
    # the block-congruence identity is a consistency bonus; homogeneous
    # equilibria carry exact cosine/sine pair degeneracies, so interior
    # cutoffs may be ambiguous and are reported as skipped, not fatal
    identities = []
    for n in sorted({2, cfg["sweep.n"]}):
        try:
            identity = infinity_count_identity(ops_inf, n,
                                               cfg["sweep.gap_tol"])
            identities.append({"n": n, **identity.as_dict()})
        except DegenerateCutoff as exc:
            identities.append({"n": n, "skipped": str(exc)})
    _write_json(out / "criterion.json",
                {"criterion": payload, "count_identities": identities,
                 "equilibrium": eq.label})
    # a breach of sym_tol raised AsymmetryTooLarge inside assemble, so the
    # residuals below it are measurements, not warnings
    extras = {"unstable_predicted": payload["unstable_predicted"],
              "asymmetry_residual": ops_inf.asymmetry_residual,
              "a1_residual": ops_inf.a1_residual,
              "a2_residual": ops_inf.a2_residual}
    return extras, _fallback_warnings(eq, disc)


def _run_sweep(cfg: ResolvedConfig,
               out: Path) -> Tuple[dict, List[str]]:
    eq = _build_equilibrium(cfg)
    disc = _build_disc(eq, cfg)
    t_grid = list(cfg["sweep.T_grid"])
    result = sweep(eq, disc, cfg["sweep.n"], t_grid,
                   gap_tol=cfg["sweep.gap_tol"])
    sweep_to_csv(result, out / "sweep.csv")
    brackets = [{"T_low": lo, "T_high": hi, "count_low": a, "count_high": b}
                for (lo, hi), (a, b) in result.change_brackets()]
    _write_json(out / "sweep.json", {
        "equilibrium": eq.label, "n": result.n,
        "anchor_expected": result.anchor_expected,
        "counts": [r.negatives for r in result.records],
        "T_grid": [r.T for r in result.records],
        "change_brackets": brackets})
    return ({"change_brackets": len(brackets)},
            _fallback_warnings(eq, disc))


def _run_mode(cfg: ResolvedConfig,
              out: Path) -> Tuple[dict, List[str]]:
    eq = _build_equilibrium(cfg)
    disc = _build_disc(eq, cfg)
    report = find_crossing(eq, disc, cfg["mode.n"],
                           (cfg["mode.bracket_lo"], cfg["mode.bracket_hi"]),
                           gap_tol=cfg["sweep.gap_tol"],
                           fd_step=cfg["mode.fd_step"])
    _write_json(out / "mode.json",
                {"equilibrium": eq.label, **report.as_dict()})
    return ({"T0": report.crossing.T0,
             "eigen_residual": report.eigen_residual},
            _fallback_warnings(eq, disc))


def _ergodic_weight(cfg: ResolvedConfig) -> WeightSpec:
    return inverse_square_weight(gamma=cfg["ergodic.gamma"])


def _run_ergodic_weighted(cfg: ResolvedConfig, out: Path) -> dict:
    w = _ergodic_weight(cfg)
    disc = LineDiscretization(L=cfg["ergodic.L"], N=cfg["ergodic.N"],
                              sigma=cfg["ergodic.sigma"])
    beta = cfg["ergodic.beta"]
    alpha = np.exp(1j * beta)
    ts = np.geomspace(cfg["ergodic.T_min"], cfg["ergodic.T_max"],
                      cfg["ergodic.T_points"])
    series = weighted_norm_series(w, alpha, ts, disc)
    _write_csv(out / "weighted_norms.csv", ["T", "norm"],
               [(r.T, r.operator_norm) for r in series])
    eig = weighted_eigs(w, alpha, disc)
    ks = range(-5, 6)
    pred = predicted_eigs(w, beta, ks)
    nearest = [float(eig.values[np.argmin(np.abs(eig.values - p))])
               for p in pred]
    _write_json(out / "weighted_eigenvalues.json", {
        "beta": beta, "L1_norm": w.L1_norm, "k": list(ks),
        "predicted": list(pred), "computed": nearest,
        "metadata": eig.metadata})
    return {"weighted_fitted_slope": series[0].decay_fit_exponent}


def _run_ergodic_l2sigma(cfg: ResolvedConfig, out: Path) -> dict:
    disc = LineDiscretization(L=cfg["ergodic.L"], N=cfg["ergodic.N"],
                              sigma=cfg["ergodic.sigma"])
    ts = np.geomspace(cfg["ergodic.T_min"], cfg["ergodic.T_max"],
                      cfg["ergodic.l2sigma_points"])
    series = l2sigma_norm_series(cfg["ergodic.sigma"], ts, disc)
    control = [ergodic_norm_L2sigma(0.0, float(t), disc) for t in ts]
    _write_csv(out / "l2sigma_norms.csv",
               ["T", "norm", "radius", "control_norm"],
               [(r.T, r.operator_norm, r.radius, c.operator_norm)
                for r, c in zip(series, control)])
    return {"l2sigma_fitted_slope": series[0].decay_fit_exponent,
            "l2sigma_final_norm": series[-1].operator_norm}


def _run_ergodic_projector(cfg: ResolvedConfig, out: Path) -> dict:
    dim = cfg["ergodic.projector_dim"]
    rows = projector_demo(list(cfg["ergodic.projector_cuts"]), dim=dim)
    _write_json(out / "projector.json", {
        "dim": dim,
        "rows": [{"N": r.N, "spectrum": list(r.spectrum),
                  "operator_norm": r.operator_norm,
                  "tail_norm_of_f": r.tail_norm_of_f} for r in rows]})
    return {"projector_rows": len(rows)}


def _run_ergodic(cfg: ResolvedConfig,
                 out: Path) -> Tuple[dict, List[str]]:
    case = cfg["ergodic.case"]
    extras: dict = {}
    if case in ("weighted", "all"):
        extras.update(_run_ergodic_weighted(cfg, out))
    if case in ("l2sigma", "all"):
        extras.update(_run_ergodic_l2sigma(cfg, out))
    if case in ("projector", "all"):
        extras.update(_run_ergodic_projector(cfg, out))
    return extras, []


def _run_demo(cfg: ResolvedConfig,
              out: Path) -> Tuple[dict, List[str]]:
    # a fast end-to-end tour at reduced resolution: equilibrium summary,
    # a short horizon sweep, the criterion at infinite horizon, and one
    # ergodic series; heavier studies go through the dedicated commands
    demo = validate_config(overrides=[
        "run.label=demo", "equilibrium.preset=bimaxwellian-pair",
        "equilibrium.nx=16", "operators.quad_nv=8",
        "operators.quad_v_max=7.5", "operators.n_x=8",
        "averaging.dt=5e-3", "sweep.n=5", "sweep.T_grid=1e-3,1,inf",
        "ergodic.T_points=101",
    ])
    extras: dict = {}
    warnings: List[str] = []
    for stage in (_run_equilibrium, _run_criterion, _run_sweep):
        stage_extras, stage_warnings = stage(demo, out)
        extras.update(stage_extras)
        warnings.extend(stage_warnings)
    extras.update(_run_ergodic_weighted(demo, out))
    extras.update(_run_ergodic_projector(demo, out))
    return extras, warnings


_PIPELINES = {
    "equilibrium": _run_equilibrium,
    "criterion": _run_criterion,
    "sweep": _run_sweep,
    "mode": _run_mode,
    "ergodic": _run_ergodic,
    "demo": _run_demo,
}


# ---------------------------------------------------------------------------
# orchestration


def run(run_cfg: RunConfig) -> Path:
    """Execute one pipeline and persist artifacts plus the manifest.

    Module errors other than audit failures are wrapped in PipelineError
    with the command named; audit failures and config errors propagate
    unchanged so the front door can map them to their exit codes.
    """
    cfg = run_cfg.resolved
    out = run_cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    (out / "resolved_config.txt").write_text(cfg.echo())
    try:
        extras, warnings = _PIPELINES[run_cfg.command](cfg, out)
    except (ConfigError, *_AUDIT_ERRORS):
        raise
    except VmstabError as exc:
        raise PipelineError(
            f"{run_cfg.command}: {type(exc).__name__}: {exc}") from exc
    if run_cfg.emit_plots:
        (out / "plot_artifacts.py").write_text(_PLOT_SCRIPT)
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    artifacts = {p.name: _sha256(p) for p in sorted(out.iterdir())
                 if p.name != "manifest.json"}
    manifest = {
        "command": run_cfg.command,
        "tool_version": __version__,
        "config_source": cfg.source,
        "config_hash": cfg.sha256(),
        "overrides": list(run_cfg.overrides),
        "started_at": started,
        "finished_at": finished,
        "tolerances": {key: cfg[key] for key in (
            "averaging.dt", "averaging.epsilon_tail", "averaging.drift_tol",
            "operators.sym_tol", "sweep.gap_tol", "mode.fd_step")},
        "warnings": warnings,
        "extras": extras,
        "artifacts": artifacts,
    }
    _write_json(out / "manifest.json", manifest)
    return out


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="key = value configuration file")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="overrides",
                        help="override one config key (repeatable)")
    common.add_argument("--emit-plots", action="store_true",
                        help="also write a generic plotting script")
    parser = argparse.ArgumentParser(
        prog="vmstab",
        description="Linear stability of periodic kinetic equilibria by "
                    "horizon-family eigenvalue counting, plus ergodic-rate "
                    "measurements.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("equilibrium", parents=[common],
                   help="build and validate an equilibrium; write fields")
    sub.add_parser("criterion", parents=[common],
                   help="evaluate the instability criterion at T = inf")
    sub.add_parser("sweep", parents=[common],
                   help="negative-count sweep along a horizon grid")
    sub.add_parser("mode", parents=[common],
                   help="locate a count change and rebuild its mode")
    ergodic = sub.add_parser("ergodic", parents=[common],
                             help="ergodic-average decay measurements")
    ergodic.add_argument("--case", default=None,
                         choices=["weighted", "l2sigma", "projector", "all"],
                         help="shorthand for --set ergodic.case=...")
    ergodic.add_argument("--beta", type=float, default=None,
                         help="shorthand for --set ergodic.beta=...")
    sub.add_parser("demo", parents=[common],
                   help="fast end-to-end tour at reduced resolution")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if getattr(args, "case", None) is not None:
        overrides.append(f"ergodic.case={args.case}")
    if getattr(args, "beta", None) is not None:
        overrides.append(f"ergodic.beta={args.beta}")
    try:
        resolved = validate_config(args.config, overrides)
        run_cfg = RunConfig(command=args.command, resolved=resolved,
                            out_dir=Path(args.out), emit_plots=args.emit_plots,
                            overrides=tuple(overrides))
        out = run(run_cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _AUDIT_ERRORS as exc:
        print(f"audit failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    except VmstabError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
