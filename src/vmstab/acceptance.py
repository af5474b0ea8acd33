"""Acceptance audit: every promised behavior run at its stated tolerance.

Each check exercises one headline guarantee of the package end to end,
at desk scale, against an independent expectation: closed-form oracles
where they exist, structural counts and exact arithmetic elsewhere.  The
module prints one pass/fail line per check and is runnable directly:

    python3 -m vmstab.acceptance [--only 1,4,12]

Exit status 0 when every selected check passes, 4 otherwise (the audit
exit code of the command-line front door).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .averaging import (AveragingConfig, PhaseGrid, average_symbol_pack,
                        qt_operator_norm_probe)
from .equilibrium import (VelocityQuadrature, invariants_of,
                          preset_equilibrium)
from .ergodic_lab import (LineDiscretization, ergodic_norm_L2sigma,
                          inverse_square_weight, l2sigma_norm_series,
                          predicted_eigs, projector_demo, weighted_eigs,
                          weighted_norm_series)
from .operators import DiscretizationSpec, assemble, truncate
from .spectrum import count_negatives, find_crossing, \
    infinity_count_identity, reconstruct_mode, sweep
from .trajectories import make_stepper

QUAD = VelocityQuadrature.build(8, 7.5)


@dataclass(frozen=True)
class AcceptanceResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


_CHECKS: List[Tuple[int, str, Callable[[], Tuple[bool, str]]]] = []


def _check(number: int, name: str):
    def register(fn):
        _CHECKS.append((number, name, fn))
        return fn
    return register


# ---------------------------------------------------------------------------
# shared expensive fixtures, built once per process


_cache: Dict[str, object] = {}


def _wells():
    """Two inhomogeneous catalog equilibria with their horizon operators.

    k_max = 4 gives an eight-dimensional electric space so truncations up
    to n = 8 are meaningful; the well amplitude splits the cosine/sine
    pair degeneracy of the zero-field problem, so every cut is clean.
    """
    if "wells" not in _cache:
        entries = []
        for name in ("magnetic-well", "weibel-well"):
            eq = preset_equilibrium(name, nx=16, b_amp=0.4)
            grid = PhaseGrid.from_equilibrium(eq, n_x=12, quad=QUAD)
            disc = DiscretizationSpec(k_max=4, grid=grid, sym_tol=0.3,
                                      avg=AveragingConfig(dt=5e-3))
            ops_inf = assemble(np.inf, eq, disc)
            ops_t = assemble(1e-3, eq, disc)
            entries.append((eq, disc, ops_inf, ops_t))
        _cache["wells"] = entries
    return _cache["wells"]


def _free_streaming():
    if "free" not in _cache:
        eq = preset_equilibrium("maxwellian-pair")
        grid = PhaseGrid.from_equilibrium(eq, n_x=8, quad=QUAD)
        _cache["free"] = (eq, grid)
    return _cache["free"]


# ---------------------------------------------------------------------------
# kinetic checks


@_check(1, "free-streaming average oracle")
def _free_streaming_oracle():
    # zero fields make the backward average of a plane wave exact:
    # e^{iwx} / (1 + i w vhat1 T); every node must match to 1e-6
    t0 = time.time()
    eq, grid = _free_streaming()
    cfg = AveragingConfig(dt=5e-4)
    period = eq.fields.period
    gamma = np.sqrt(1.0 + grid.V1 ** 2 + grid.V2 ** 2)
    vh1 = grid.V1 / gamma
    ws = [2.0 * np.pi * k / period for k in (1, 2, 3)]

    def plane_waves(x, v1, v2):
        return np.stack([np.exp(1j * w * x) for w in ws])

    worst = 0.0
    for T in (0.1, 1.0, 10.0):
        out = average_symbol_pack(plane_waves, T, grid, +1, eq.fields, cfg)
        for w, values in zip(ws, out.values):
            expected = np.exp(1j * w * grid.X) / (1.0 + 1j * w * vh1 * T)
            rel = np.max(np.abs(values - expected) / np.abs(expected))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    return ok, (f"worst rel err {worst:.2e} <= 1e-06 over k in {{1,2,3}}, "
                f"T in {{0.1,1,10}}; {elapsed:.0f}s < 60s")


@_check(2, "invariant drift on the full grid")
def _drift_on_full_grid():
    # every node of an inhomogeneous grid integrated over the full
    # backward window at the default step; then a coarse halving pair in
    # the truncation-dominated regime must gain a fifth-order factor
    eq, disc, _, _ = _wells()[1]
    grid = disc.grid
    fields = eq.fields

    def max_drift(dt: float, horizon: float) -> float:
        stepper = make_stepper(fields, +1)
        Y = np.array([grid.X, grid.V1, grid.V2])
        e0, p0 = invariants_of(Y[0], Y[1], Y[2], fields, +1)
        steps = int(np.ceil(horizon / dt))
        h = -horizon / steps
        for _ in range(steps):
            Y = stepper(Y, h)
        e1, p1 = invariants_of(Y[0], Y[1], Y[2], fields, +1)
        return float(max(np.max(np.abs(e1 - e0)), np.max(np.abs(p1 - p0))))

    s_max = AveragingConfig().s_max(1.0)
    drift = max_drift(1e-2, s_max)
    coarse = max_drift(0.5, 10.0)
    fine = max_drift(0.25, 10.0)
    ratio = coarse / fine
    ok = drift <= 1e-9 and ratio >= 32.0
    return ok, (f"max (e,p) drift {drift:.2e} <= 1e-09 over S_max="
                f"{s_max:.1f}; halving gain {ratio:.0f}x >= 32x")


@_check(3, "backward-average contraction")
def _qt_contraction():
    eq, disc, _, _ = _wells()[0]
    cfg = AveragingConfig(dt=5e-3)
    worst = 0.0
    for sign in (+1, -1):
        ratio = qt_operator_norm_probe(1.0, disc.grid, sign, eq.fields,
                                       trials=12, cfg=cfg, seed=3 + sign)
        worst = max(worst, ratio)
    ok = worst <= 1.0 + 5e-3
    return ok, f"max ||avg g|| / ||g|| = {worst:.6f} <= 1.005 on 24 probes"


@_check(4, "small-horizon negative-count anchor")
def _small_t_anchor():
    counts = []
    for eq, disc, ops_inf, ops_t in _wells():
        for n in (2, 4, 8):
            tr = truncate(ops_t, ops_inf, n)
            counts.append((eq.label, n, count_negatives(tr.M_n)))
    ok = all(c == n + 1 for _, n, c in counts)
    got = ", ".join(f"{n}->{c}" for _, n, c in counts[:3])
    return ok, (f"neg counts at T=1e-3 equal n+1 on both wells "
                f"(n: {got}, same on second)")


@_check(5, "infinite-horizon count identity")
def _count_identity():
    details = []
    ok = True
    for eq, disc, ops_inf, _ in _wells():
        schur_negs = []
        for n in (2, 4, 8):
            ident = infinity_count_identity(ops_inf, n)
            ok = ok and (ident.direct == ident.formula)
            schur_negs.append(ident.neg_schur_n)
        # the truncation-independent part must stop moving with n
        ok = ok and (schur_negs[1] == schur_negs[2])
        details.append(f"{eq.label}: schur negs {schur_negs}")
    return ok, ("direct = formula for n in {2,4,8}; " + "; ".join(details))


@_check(6, "assembly symmetry defect")
def _assembly_symmetry():
    # exact equilibria have straight orbits, so their pairing defect is
    # pure rounding and must clear the bound with orders to spare; the
    # magnetized well has a trapped/passing boundary layer in velocity
    # space, so there the defect is a genuine quadrature error and must
    # shrink as the velocity rule is refined
    eq = preset_equilibrium("maxwellian-pair")
    grid = PhaseGrid.from_equilibrium(eq, n_x=8, quad=QUAD)
    disc = DiscretizationSpec(k_max=2, grid=grid,
                              avg=AveragingConfig(dt=1e-3))
    ops = assemble(1.0, eq, disc)
    floor = max(ops.a1_residual, ops.a2_residual, ops.asymmetry_residual)

    well = preset_equilibrium("magnetic-well", nx=16, b_amp=0.4)
    trend = []
    for nv in (8, 16, 32):
        quad = VelocityQuadrature.build(nv, 7.5)
        wgrid = PhaseGrid.from_equilibrium(well, n_x=8, quad=quad)
        wdisc = DiscretizationSpec(k_max=2, grid=wgrid, sym_tol=0.5,
                                   avg=AveragingConfig(dt=1e-2))
        wops = assemble(1.0, well, wdisc)
        trend.append(max(wops.a1_residual, wops.a2_residual,
                         wops.asymmetry_residual))
    ok = (floor <= 1e-6 and trend[0] > trend[1] > trend[2]
          and trend[-1] <= trend[0] / 10.0)
    arrow = " -> ".join(f"{r:.1e}" for r in trend)
    return ok, (f"defect {floor:.2e} <= 1e-06 at the default rule; well "
                f"defect {arrow} under velocity-rule refinement")


@_check(7, "count-change crossing and mode rebuild")
def _crossing_integrity():
    eq = preset_equilibrium("weibel-well", nx=16, b_amp=0.4)
    grid = PhaseGrid.from_equilibrium(eq, n_x=8, quad=QUAD)
    disc = DiscretizationSpec(k_max=2, grid=grid, sym_tol=0.3,
                              avg=AveragingConfig(dt=5e-3))
    result = sweep(eq, disc, 2, [1e-3, 0.6, 1.0, np.inf])
    brackets = result.change_brackets()
    span = next(((lo, hi) for (lo, hi), _ in brackets
                 if np.isfinite(hi)), None)
    if span is None:
        return False, "no finite count change found to bracket"
    report = find_crossing(eq, disc, 2, span, fd_step=1e-2)
    halved = reconstruct_mode(eq, disc, report.crossing.T0, report.phi,
                              report.psi, report.b, fd_step=5e-3)
    ratio = halved.vlasov_residual / report.mode.vlasov_residual
    ok = report.eigen_residual <= 1e-8 and ratio <= 0.75
    return ok, (f"T0 = {report.crossing.T0:.6f}, eigen residual "
                f"{report.eigen_residual:.2e} <= 1e-08; halved step "
                f"residual ratio {ratio:.2f} <= 0.75")


# ---------------------------------------------------------------------------
# ergodic checks


@_check(8, "weighted spectrum arithmetic progression")
def _weighted_spectrum():
    t0 = time.time()
    w = inverse_square_weight()
    disc = LineDiscretization()
    worst = 0.0
    for beta, alpha in ((0.0, 1.0), (np.pi, -1.0)):
        eig = weighted_eigs(w, alpha, disc)
        for p in predicted_eigs(w, beta, range(-5, 6)):
            near = eig.values[np.argmin(np.abs(eig.values - p))]
            worst = max(worst, abs(near - p) / max(abs(p), 1.0))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    return ok, (f"worst rel err {worst:.2e} <= 1e-06 for |k| <= 5, "
                f"beta in {{0, pi}}; {elapsed:.1f}s")


@_check(9, "spectral-gap decay slope")
def _gap_slope():
    w = inverse_square_weight()
    disc = LineDiscretization()
    ts = np.geomspace(10.0, 1e4, 201)
    slopes = [weighted_norm_series(w, alpha, ts, disc)[0].decay_fit_exponent
              for alpha in (1.0, -1.0)]
    ok = all(abs(s - (-1.0)) <= 0.05 for s in slopes)
    return ok, (f"log-log slopes {slopes[0]:+.3f}, {slopes[1]:+.3f} "
                f"within -1 +/- 0.05 over T in [10, 1e4]")


@_check(10, "polynomially weighted filter decay")
def _l2sigma_decay():
    disc = LineDiscretization()
    ts = [10.0, 1e2, 1e3, 1e4]
    series = l2sigma_norm_series(1.0, ts, disc)
    controls = [ergodic_norm_L2sigma(0.0, T, disc).operator_norm
                for T in ts]
    final = series[-1].operator_norm
    slope = series[0].decay_fit_exponent
    ok = (final < 0.05 and slope <= -1.0 / 3.0 + 0.05
          and min(controls) >= 0.9)
    return ok, (f"weighted norm {final:.1e} < 0.05 by T=1e4, slope "
                f"{slope:+.2f} <= -0.28; unweighted control >= "
                f"{min(controls):.3f}")


@_check(11, "tail projector spectra")
def _tail_projectors():
    f = np.zeros(64)
    f[:8] = 1.0
    rows = projector_demo([4, 8, 16, 32], dim=64, f=f)
    ok = (all(r.spectrum == (0.0, 1.0) and r.operator_norm == 1.0
              for r in rows)
          and rows[0].tail_norm_of_f > 0.0
          and all(r.tail_norm_of_f == 0.0 for r in rows[1:]))
    return ok, ("spectra exactly {0,1}, norm 1 at every cut; action on "
                "the fixed vector exactly 0 past its support")


@_check(12, "run-to-run determinism")
def _determinism():
    # two criterion runs of one configuration, the default maxwellian pair
    # on 8 x-nodes times a 6x6 velocity rule (288 nodes per species), must
    # write the same bytes
    import contextlib
    import io
    from .cli import main as cli_main
    overrides = ["equilibrium.nx=16", "operators.quad_nv=6",
                 "operators.quad_v_max=6", "averaging.dt=5e-3"]
    base = ["criterion"]
    for item in overrides:
        base += ["--set", item]
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in ("a", "b"):
            out = Path(tmp) / run
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(base + ["--out", str(out)])
            if code != 0:
                return False, f"pipeline exited {code} on run {run}"
            digests.append({
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
                if p.name != "manifest.json"})
    ok = digests[0] == digests[1]
    return ok, (f"{len(digests[0])} artifacts bitwise identical across "
                f"two runs of one configuration")


# ---------------------------------------------------------------------------
# runner


def run_all(numbers: Optional[Sequence[int]] = None,
            stream=None) -> List[AcceptanceResult]:
    """Run the selected checks (all by default), one report line each."""
    stream = sys.stdout if stream is None else stream
    results = []
    for number, name, fn in sorted(_CHECKS):
        if numbers is not None and number not in numbers:
            continue
        t0 = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.time() - t0
        results.append(AcceptanceResult(number=number, name=name,
                                        passed=passed, detail=detail,
                                        seconds=seconds))
        status = "PASS" if passed else "FAIL"
        print(f"{status} {number:2d}  {name:<40s} {detail}  "
              f"[{seconds:.1f}s]", file=stream, flush=True)
    good = sum(r.passed for r in results)
    print(f"{good}/{len(results)} checks passed", file=stream, flush=True)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="vmstab.acceptance",
        description="Run the acceptance audit, one line per check.")
    parser.add_argument("--only", default=None,
                        help="comma-separated check numbers to run")
    args = parser.parse_args(argv)
    numbers = None
    if args.only:
        numbers = [int(t) for t in args.only.split(",") if t.strip()]
    results = run_all(numbers)
    return 0 if all(r.passed for r in results) else 4


if __name__ == "__main__":
    sys.exit(main())
