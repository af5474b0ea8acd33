"""Negative-eigenvalue bookkeeping along the horizon family.

The block operator M^T gains or loses negative eigenvalues as the horizon
T sweeps from the collisional anchor toward the ergodic limit, and every
gain is a candidate growing mode.  This module counts those eigenvalues
with a scale-relative zero threshold, audits the small-T anchor count,
verifies the infinite-horizon count against the congruence identity of
the reduced (Schur) operator, evaluates the spectral instability
criterion at T = infinity, locates single kernel crossings in T by a
count-bisection plus tracked-branch root refinement, and reconstructs the
distribution-function perturbation carried by the crossing eigenvector,
reporting how well it satisfies the linearized transport equation.

Conventions fixed here: the zero threshold of a symmetric matrix is
1e-9 times its largest absolute entry; a truncation whose projector rank
was capped by the block dimension anchors at rank + 1 rather than n + 1;
the scalar corner entry counts as negative through the same relative
threshold.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .averaging import apply_QT_points
from .equilibrium import EquilibriumSpec, invariants_of
from .errors import (BranchAmbiguity, ConfigError, NoCrossing,
                     SmallTAnchorFailed)
from .fourier import real_basis_derivative_matrix, real_basis_matrix
from .operators import (DiscretizationSpec, OperatorSet, assemble,
                        schur_infty, truncate)
from .trajectories import make_stepper

# relative eigenvalue-zero threshold: eigenvalues within this fraction of
# the largest matrix entry are treated as kernel, not as sign carriers
ZERO_SCALE = 1e-9


def zero_threshold(matrix: np.ndarray) -> float:
    """Absolute zero threshold for eigenvalues of a symmetric matrix."""
    m = np.asarray(matrix)
    return ZERO_SCALE * float(np.max(np.abs(m))) if m.size else 0.0


def count_negatives(matrix: np.ndarray, eps_zero: Optional[float] = None) -> int:
    """Number of eigenvalues strictly below -eps_zero."""
    m = np.asarray(matrix, dtype=float)
    eps = zero_threshold(m) if eps_zero is None else float(eps_zero)
    return int(np.sum(np.linalg.eigvalsh(m) < -eps))


# ---------------------------------------------------------------------------
# horizon sweep


@dataclass(frozen=True)
class SpectrumRecord:
    """Eigenvalues and negative count of one truncated operator."""

    T: float
    n: int
    eigenvalues: np.ndarray
    negatives: int
    eps_zero: float


@dataclass(frozen=True)
class SweepResult:
    """Spectra of M_n along an ascending horizon grid ending at infinity."""

    records: Tuple[SpectrumRecord, ...]
    n: int
    anchor_expected: int

    def change_brackets(self) -> List[Tuple[Tuple[float, float], Tuple[int, int]]]:
        """Adjacent grid intervals across which the negative count changes."""
        out = []
        for a, b in zip(self.records, self.records[1:]):
            if a.negatives != b.negatives:
                out.append(((a.T, b.T), (a.negatives, b.negatives)))
        return out


def _record(T: float, n: int, matrix: np.ndarray) -> SpectrumRecord:
    eps = zero_threshold(matrix)
    vals = np.linalg.eigvalsh(matrix)
    return SpectrumRecord(T=float(T), n=n, eigenvalues=vals,
                          negatives=int(np.sum(vals < -eps)), eps_zero=eps)


def sweep(eq: EquilibriumSpec, disc: DiscretizationSpec, n: int,
          T_grid: Sequence[float], gap_tol: float = 1e-6,
          ops_inf: Optional[OperatorSet] = None) -> SweepResult:
    """Truncated spectra over an ascending horizon grid ending at infinity.

    The grid must be strictly ascending, positive, and close with the
    infinite horizon, whose operator also supplies the truncation
    projectors.  The first (smallest) horizon is audited against the
    anchor count rank + 1: there the block diagonal is dominated by the
    1/T^2 terms, so exactly the projected first block and the corner are
    negative.  A mismatch raises SmallTAnchorFailed, since it means the
    horizon grid starts beyond a crossing or the discretization is
    inconsistent.  A precomputed infinite-horizon operator set may be
    passed to avoid reassembling it.
    """
    grid = [float(t) for t in T_grid]
    if len(grid) < 2:
        raise ConfigError("horizon grid needs at least a finite anchor and "
                          "the infinite-horizon point")
    if grid[-1] != np.inf:
        raise ConfigError("horizon grid must end at the infinite horizon")
    finite = grid[:-1]
    if any(np.isinf(t) or not t > 0.0 for t in finite):
        raise ConfigError("all horizons before the last must be positive "
                          "and finite")
    if any(b <= a for a, b in zip(finite, finite[1:])):
        raise ConfigError("horizon grid must be strictly ascending")

    if ops_inf is not None and not np.isinf(ops_inf.T):
        raise ConfigError("precomputed operator set must be the "
                          "infinite-horizon one")
    inf_set = ops_inf if ops_inf is not None else assemble(np.inf, eq, disc)
    records = []
    anchor_expected = None
    for T in finite:
        tr = truncate(assemble(T, eq, disc), inf_set, n, gap_tol)
        if anchor_expected is None:
            anchor_expected = tr.P_n.shape[1] + 1
        records.append(_record(T, n, tr.M_n))
    tr = truncate(inf_set, inf_set, n, gap_tol)
    records.append(_record(np.inf, n, tr.M_n))

    if records[0].negatives != anchor_expected:
        raise SmallTAnchorFailed(records[0].T, anchor_expected - 1,
                                 records[0].negatives)
    return SweepResult(records=tuple(records), n=n,
                       anchor_expected=anchor_expected)


def sweep_to_csv(result: SweepResult, path) -> int:
    """Write one row per horizon: T, n, negatives, eps_zero, eigenvalues."""
    dim = result.records[0].eigenvalues.size
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "n", "negatives", "eps_zero"]
                        + [f"lambda_{j}" for j in range(dim)])
        for rec in result.records:
            writer.writerow([f"{rec.T:.17g}", rec.n, rec.negatives,
                             f"{rec.eps_zero:.17g}"]
                            + [f"{v:.17g}" for v in rec.eigenvalues])
    return len(result.records)


# ---------------------------------------------------------------------------
# infinite-horizon criterion and count identity


@dataclass(frozen=True)
class CriterionReport:
    """Infinite-horizon instability criterion, both sides made explicit.

    condition_i asks that the kernel of the full first diagonal block be
    exactly the constants; the count comparison asks that the reduced
    second block carry more negative directions than the first block and
    the corner sign admit.  Instability is claimed only when both hold.
    """

    kernel_dim: int
    kernel_is_constant: bool
    condition_i: bool
    neg_schur: int
    neg_a1: int
    l_inf: float
    l_positive: bool
    lhs: int
    rhs: int
    unstable: bool

    def as_dict(self) -> dict:
        return {
            "kernel_dim": self.kernel_dim,
            "kernel_is_constant": self.kernel_is_constant,
            "condition_i": self.condition_i,
            "neg_schur": self.neg_schur,
            "neg_a1": self.neg_a1,
            "l_inf": self.l_inf,
            "l_positive": self.l_positive,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "unstable": self.unstable,
        }


def check_criterion(ops_inf: OperatorSet) -> CriterionReport:
    """Evaluate the negative-index criterion on an infinite-horizon set."""
    if not np.isinf(ops_inf.T):
        raise ConfigError("criterion is defined at the infinite horizon; "
                          f"got T={ops_inf.T}")
    a1_full = ops_inf.A1_full
    eps = zero_threshold(a1_full)
    vals, vecs = np.linalg.eigh(a1_full)
    near_zero = np.abs(vals) <= eps
    kernel_dim = int(np.sum(near_zero))
    smallest = int(np.argmin(np.abs(vals)))
    # the constant is the first basis row, so a constant kernel vector is
    # the first coordinate axis up to sign
    kernel_is_constant = bool(abs(vecs[0, smallest]) >= 0.999)
    condition_i = kernel_dim == 1 and kernel_is_constant

    neg_schur = count_negatives(schur_infty(ops_inf))
    neg_a1 = count_negatives(a1_full, eps)
    l_positive = bool(ops_inf.l > ZERO_SCALE * max(1.0, abs(ops_inf.l)))
    lhs = neg_schur
    rhs = neg_a1 + int(l_positive)
    return CriterionReport(kernel_dim=kernel_dim,
                           kernel_is_constant=kernel_is_constant,
                           condition_i=condition_i, neg_schur=neg_schur,
                           neg_a1=neg_a1, l_inf=float(ops_inf.l),
                           l_positive=l_positive, lhs=lhs, rhs=rhs,
                           unstable=bool(condition_i and lhs > rhs))


@dataclass(frozen=True)
class CountIdentity:
    """Direct negative count of M_n at T = infinity versus the congruence
    formula neg(K_n) + rank - dim ker(A1_n) - neg(A1_n) + neg(corner)."""

    direct: int
    formula: int
    neg_schur_n: int
    p_rank: int
    kernel_dim: int
    neg_a1_n: int
    corner_negative: bool

    def as_dict(self) -> dict:
        return {
            "direct": self.direct,
            "formula": self.formula,
            "neg_schur_n": self.neg_schur_n,
            "p_rank": self.p_rank,
            "kernel_dim": self.kernel_dim,
            "neg_a1_n": self.neg_a1_n,
            "corner_negative": self.corner_negative,
        }


def infinity_count_identity(ops_inf: OperatorSet, n: int,
                            gap_tol: float = 1e-6) -> CountIdentity:
    """Check the block-congruence count of the truncated infinite-horizon
    operator against its direct eigenvalue count.

    At T = infinity the off-diagonal third row and column vanish, so the
    matrix splits into the two-block body and the scalar corner; counting
    negatives of the body through the congruence with the reduced second
    block must reproduce the direct count exactly, which makes this a
    sharp self-test of the assembly and of the truncation projectors.
    """
    if not np.isinf(ops_inf.T):
        raise ConfigError("count identity is defined at the infinite "
                          f"horizon; got T={ops_inf.T}")
    tr = truncate(ops_inf, ops_inf, n, gap_tol)
    direct = count_negatives(tr.M_n)

    a1n = tr.P_n.T @ ops_inf.A1 @ tr.P_n
    a2n = tr.Q_n.T @ ops_inf.A2 @ tr.Q_n
    bn = tr.P_n.T @ ops_inf.B @ tr.Q_n
    p_rank = tr.P_n.shape[1]

    eps1 = zero_threshold(a1n)
    vals, vecs = np.linalg.eigh(a1n)
    keep = np.abs(vals) > eps1
    kernel_dim = p_rank - int(np.sum(keep))
    neg_a1n = int(np.sum(vals < -eps1))
    vk = vecs[:, keep]
    reduced = a2n + bn.T @ (vk @ (vk.T @ bn / vals[keep][:, None]))
    neg_schur_n = count_negatives(reduced)

    corner = ops_inf.period * ops_inf.l
    corner_negative = bool(corner < -ZERO_SCALE * max(1.0, abs(corner)))
    formula = (neg_schur_n + p_rank - kernel_dim - neg_a1n
               + int(corner_negative))
    return CountIdentity(direct=direct, formula=formula,
                         neg_schur_n=neg_schur_n, p_rank=p_rank,
                         kernel_dim=kernel_dim, neg_a1_n=neg_a1n,
                         corner_negative=corner_negative)


# ---------------------------------------------------------------------------
# kernel crossings in the horizon


@dataclass(frozen=True)
class CrossingResult:
    """A horizon T0 at which one tracked eigenvalue branch crosses zero."""

    T0: float
    bracket: Tuple[float, float]
    eigenvalue: float
    eigenvector: np.ndarray
    count_low: int
    count_high: int
    eps_zero: float
    evaluations: int
    converged_by: str


def crossing_search(family: Callable[[float], np.ndarray],
                    bracket: Tuple[float, float], *,
                    eigen_rtol: float = ZERO_SCALE,
                    bracket_rtol: float = 1e-6,
                    coarse_width: float = 0.05,
                    max_iter: int = 80,
                    ambiguity_factor: float = 10.0) -> CrossingResult:
    """Locate a zero crossing of the spectrum of a symmetric matrix family.

    The negative count must differ across the bracket, else NoCrossing.
    Count bisection (geometric midpoints) first shrinks the bracket to a
    few percent, then the branch closest to zero is tracked by eigenvector
    overlap and refined with a safeguarded secant (regula falsi with the
    Illinois cut) until the tracked eigenvalue magnitude falls inside the
    eigen_rtol-relative zero band (by default exactly the zero threshold
    used for counting, so the branch has verifiably crossed it) or the
    bracket is narrower than bracket_rtol times the horizon.  If a second
    branch sits within ambiguity_factor zero thresholds of zero at the
    located crossing, the crossing is not attributable to one branch and
    BranchAmbiguity is raised.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi and np.isfinite(hi)):
        raise ConfigError(f"bracket must be finite with 0 < lo < hi, "
                          f"got ({lo}, {hi})")

    probes: Dict[float, tuple] = {}

    def probe(T: float) -> tuple:
        cached = probes.get(T)
        if cached is not None:
            return cached
        m = np.asarray(family(T), dtype=float)
        vals, vecs = np.linalg.eigh(m)
        eps = zero_threshold(m)
        out = (vals, vecs, eps, int(np.sum(vals < -eps)))
        probes[T] = out
        return out

    p_lo, p_hi = probe(lo), probe(hi)
    count_low, count_high = p_lo[3], p_hi[3]
    if count_low == count_high:
        raise NoCrossing((lo, hi), count_low)

    # stage 1: geometric count bisection down to a few percent width
    while hi - lo > coarse_width * 0.5 * (lo + hi) and len(probes) < max_iter:
        mid = float(np.sqrt(lo * hi))
        p_mid = probe(mid)
        if p_mid[3] != p_lo[3]:
            hi, p_hi = mid, p_mid
        else:
            lo, p_lo = mid, p_mid

    # stage 2: track the branch that carries the count change
    rising = p_hi[3] > p_lo[3]
    j_lo = p_lo[3] if rising else p_lo[3] - 1
    lam_lo = float(p_lo[0][j_lo])
    v_ref = p_lo[1][:, j_lo]
    j_hi = int(np.argmax(np.abs(v_ref @ p_hi[1])))
    lam_hi = float(p_hi[0][j_hi])

    best_T, best_lam, best_vec = (lo, lam_lo, v_ref)
    if abs(lam_hi) < abs(lam_lo):
        best_T, best_lam, best_vec = hi, lam_hi, p_hi[1][:, j_hi]
    converged_by = "bracket"
    side = 0
    for _ in range(max_iter):
        scale = max(p_lo[2], p_hi[2]) / ZERO_SCALE
        if abs(best_lam) <= eigen_rtol * scale:
            converged_by = "eigenvalue"
            break
        if hi - lo < bracket_rtol * 0.5 * (lo + hi):
            break
        if lam_hi == lam_lo:
            t_new = float(np.sqrt(lo * hi))
        else:
            t_new = lo - lam_lo * (hi - lo) / (lam_hi - lam_lo)
            w = hi - lo
            t_new = min(max(t_new, lo + 0.01 * w), hi - 0.01 * w)
        p_new = probe(t_new)
        j = int(np.argmax(np.abs(v_ref @ p_new[1])))
        lam = float(p_new[0][j])
        v_ref = p_new[1][:, j]
        if abs(lam) < abs(best_lam):
            best_T, best_lam, best_vec = t_new, lam, v_ref
        if (lam < 0.0) == (lam_lo < 0.0):
            lo, lam_lo = t_new, lam
            if side == -1:
                lam_hi *= 0.5  # Illinois cut against endpoint stagnation
            side = -1
        else:
            hi, lam_hi = t_new, lam
            if side == +1:
                lam_lo *= 0.5
            side = +1
        p_lo, p_hi = probes[lo], probes[hi]

    vals0, vecs0, eps0, _ = probe(best_T)
    order = np.argsort(np.abs(vals0))
    second = float(np.abs(vals0[order[1]]))
    if second <= ambiguity_factor * eps0:
        raise BranchAmbiguity(best_T, second)
    return CrossingResult(T0=best_T, bracket=(lo, hi), eigenvalue=best_lam,
                          eigenvector=best_vec, count_low=count_low,
                          count_high=count_high, eps_zero=eps0,
                          evaluations=len(probes), converged_by=converged_by)


# ---------------------------------------------------------------------------
# mode reconstruction


@dataclass(frozen=True)
class ModeReconstruction:
    """Distribution perturbations of both species rebuilt from a mode.

    vlasov_residual is the larger, over the two species, of the weighted
    norms of (D + 1/T) f - rhs with the transport derivative D measured by
    a first-order forward difference of step fd_step along the flow, so it
    shrinks linearly in fd_step until the averaging quadrature floor.
    """

    T: float
    fd_step: float
    f_plus: np.ndarray
    f_minus: np.ndarray
    vlasov_residual: float


def reconstruct_mode(eq: EquilibriumSpec, disc: DiscretizationSpec, T: float,
                     phi: np.ndarray, psi: np.ndarray, b: float, *,
                     fd_step: float = 1e-2) -> ModeReconstruction:
    """Rebuild the species perturbations carried by field coefficients.

    f = sign (mu_e phi + mu_p psi - mu_e Q^T(phi - vhat2 psi - b vhat1))
    evaluated on the discretization grid, with Q^T taken by
    apply_QT_points.  The reported residual feeds the same reconstruction
    at points advanced one fd_step along the flow; both point sets go
    through one apply_QT_points call per species, so they share the
    truncated-window code path, and the residual checks the mode that the
    orbit-Fourier grid averages produced against an independent quadrature.
    """
    T = float(T)
    if not (T > 0.0 and np.isfinite(T)):
        raise ConfigError(f"mode reconstruction needs a finite positive "
                          f"horizon, got {T}")
    if not fd_step > 0.0:
        raise ConfigError(f"fd_step must be positive, got {fd_step}")
    dim = 2 * disc.k_max + 1
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != (dim,) or psi.shape != (dim,):
        raise ConfigError(f"field coefficient vectors must have length "
                          f"{dim}, got {phi.shape} and {psi.shape}")
    b = float(b)
    fields = eq.fields
    period = fields.period
    grid = disc.grid
    K = disc.k_max

    def g_symbol(x, v1, v2):
        gam = np.sqrt(1.0 + v1 * v1 + v2 * v2)
        basis = real_basis_matrix(K, x, period)
        return phi @ basis - (v2 / gam) * (psi @ basis) - b * (v1 / gam)

    def f_at(sign, prof, x, v1, v2, avg):
        e, p = invariants_of(x, v1, v2, fields, sign)
        me, mp = prof.mu_e(e, p), prof.mu_p(e, p)
        basis = real_basis_matrix(K, x, period)
        return sign * (me * (phi @ basis) + mp * (psi @ basis) - me * avg)

    out = {}
    residual = 0.0
    n = grid.size
    for sign, prof in ((+1, eq.plus), (-1, eq.minus)):
        x0, v10, v20 = grid.X, grid.V1, grid.V2
        step = make_stepper(fields, sign)
        y1 = step(np.array([x0, v10, v20], dtype=float), fd_step)
        x1 = np.mod(y1[0], period)
        avg = apply_QT_points(g_symbol, T, np.concatenate([x0, x1]),
                              np.concatenate([v10, y1[1]]),
                              np.concatenate([v20, y1[2]]), sign, fields,
                              disc.avg).real

        f0 = f_at(sign, prof, x0, v10, v20, avg[:n])
        f1 = f_at(sign, prof, x1, y1[1], y1[2], avg[n:])

        gam = np.sqrt(1.0 + v10 * v10 + v20 * v20)
        vh1, vh2 = v10 / gam, v20 / gam
        e, p = invariants_of(x0, v10, v20, fields, sign)
        me, mp = prof.mu_e(e, p), prof.mu_p(e, p)
        basis = real_basis_matrix(K, x0, period)
        dbasis = real_basis_derivative_matrix(K, x0, period)
        rhs = sign * (me * vh1 * (phi @ dbasis + b / T)
                      + mp * vh1 * (psi @ dbasis)
                      + (me * vh2 + mp) * (psi @ basis) / T)
        res = (f1 - f0) / fd_step + f0 / T - rhs
        residual = max(residual, grid.weighted_norm(res, sign))
        out[sign] = f0
    return ModeReconstruction(T=T, fd_step=fd_step, f_plus=out[+1],
                              f_minus=out[-1], vlasov_residual=residual)


@dataclass(frozen=True)
class CrossingReport:
    """A located crossing with its lifted fields and rebuilt mode."""

    crossing: CrossingResult
    phi: np.ndarray
    psi: np.ndarray
    b: float
    eigen_residual: float
    mode: ModeReconstruction

    def as_dict(self) -> dict:
        return {
            "T0": self.crossing.T0,
            "bracket": list(self.crossing.bracket),
            "eigenvalue": self.crossing.eigenvalue,
            "count_low": self.crossing.count_low,
            "count_high": self.crossing.count_high,
            "evaluations": self.crossing.evaluations,
            "converged_by": self.crossing.converged_by,
            "eigen_residual": self.eigen_residual,
            "phi": [float(v) for v in self.phi],
            "psi": [float(v) for v in self.psi],
            "b": self.b,
            "fd_step": self.mode.fd_step,
            "vlasov_residual": self.mode.vlasov_residual,
        }


def find_crossing(eq: EquilibriumSpec, disc: DiscretizationSpec, n: int,
                  bracket: Tuple[float, float], *, gap_tol: float = 1e-6,
                  fd_step: float = 1e-2, eigen_rtol: float = ZERO_SCALE,
                  bracket_rtol: float = 1e-6, ambiguity_factor: float = 10.0,
                  ops_inf: Optional[OperatorSet] = None) -> CrossingReport:
    """Locate a kernel crossing of the truncated family and rebuild its mode.

    The eigenvector at the crossing is lifted back to field coefficients
    through the truncation projectors; eigen_residual is the norm of the
    full truncated matrix applied to the unit eigenvector at T0, and the
    rebuilt perturbations carry their own transport-equation residual.
    A precomputed infinite-horizon operator set may be passed to avoid
    reassembling it.
    """
    if ops_inf is not None and not np.isinf(ops_inf.T):
        raise ConfigError("precomputed operator set must be the "
                          "infinite-horizon one")
    inf_set = ops_inf if ops_inf is not None else assemble(np.inf, eq, disc)
    truncations: Dict[float, object] = {}

    def family(T: float) -> np.ndarray:
        tr = truncate(assemble(T, eq, disc), inf_set, n, gap_tol)
        truncations[float(T)] = tr
        return tr.M_n

    res = crossing_search(family, bracket, eigen_rtol=eigen_rtol,
                          bracket_rtol=bracket_rtol,
                          ambiguity_factor=ambiguity_factor)
    tr = truncations[res.T0]
    u = res.eigenvector / np.linalg.norm(res.eigenvector)
    p_rank = tr.P_n.shape[1]
    q_rank = tr.Q_n.shape[1]
    phi = np.concatenate([[0.0], tr.P_n @ u[:p_rank]])
    psi = tr.Q_n @ u[p_rank:p_rank + q_rank]
    b = float(u[-1])
    eigen_residual = float(np.linalg.norm(tr.M_n @ u))
    mode = reconstruct_mode(eq, disc, res.T0, phi, psi, b, fd_step=fd_step)
    return CrossingReport(crossing=res, phi=phi, psi=psi, b=b,
                          eigen_residual=eigen_residual, mode=mode)
