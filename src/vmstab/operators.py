"""Finite symmetric discretizations of the linearized force operators.

The three unknowns of the linearized system are the electric potential
(zero-mean, since only its gradient acts), the magnetic potential, and one
scalar amplitude; all operator entries reduce to weighted phase-space
quadratures of ergodic averages against the orthonormal trig basis.  One
backward pass over the orbits of both species serves every basis function
and every horizon, because the averaging cost is dominated by the
trajectory integration.

The continuum operators are self-adjoint, so the discrete matrices are
symmetrized after assembly and the pre-symmetrization defect is kept as a
resolution diagnostic.  For smooth orbit families the defect is pure
quadrature error and decays under refinement.  Equilibria with trapped
orbits are different in the projection limit: the orbit average jumps
across the trapping boundary, tensor quadrature cannot track that layer,
and the defect saturates near the layer's phase-space measure.  The gate
therefore defaults to a loose catastrophe threshold and callers that know
their orbits are smooth may tighten it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .averaging import AveragingConfig, PhaseGrid, SymbolPack, average_symbol_pack
from .equilibrium import EquilibriumSpec, vhat
from .equilibrium import invariants_of
from .errors import (AsymmetryTooLarge, ConfigError, DegenerateCutoff,
                     KernelOverlap)
from .fourier import basis_wavenumbers, real_basis_matrix


@dataclass(frozen=True)
class DiscretizationSpec:
    """Trig-basis cutoff and quadrature used for operator assembly.

    Basis characters run over |k| <= k_max, realified to cosines and sines;
    the magnetic-potential space keeps the constant (dimension 2 k_max + 1)
    while the electric-potential space excludes it (dimension 2 k_max).
    Basis products carry frequencies up to 2 k_max, so the uniform x grid
    must stay strictly finer than that to integrate them exactly.

    sym_tol bounds the relative pre-symmetrization defect of the diagonal
    blocks.  The default only rejects catastrophically wrong assemblies;
    sub-percent residuals are achievable (and worth gating on) only when
    no trapping boundary cuts through the populated phase space.
    """

    k_max: int
    grid: PhaseGrid
    sym_tol: float = 5e-2
    avg: AveragingConfig = field(default_factory=AveragingConfig)

    def __post_init__(self):
        if self.k_max < 1:
            raise ConfigError(f"k_max must be at least 1, got {self.k_max}")
        if 2 * self.k_max >= self.grid.x.size:
            raise ConfigError(
                f"basis products up to 2 k_max = {2 * self.k_max} alias on "
                f"{self.grid.x.size} x-nodes")
        if not self.sym_tol > 0.0:
            raise ConfigError(f"sym_tol must be positive, got {self.sym_tol}")


@dataclass(frozen=True)
class OperatorSet:
    """Assembled blocks of the linearized system at one horizon T.

    A1 acts on the zero-mean electric space, A2 on the magnetic space, B
    couples them, C and D couple each to the scalar amplitude, l is the
    scalar self-coupling.  A1_full keeps the constant row and column of A1
    for kernel diagnostics; b_const_row is the dropped pairing of B against
    the constant, whose smallness reflects that the continuum coupling
    range is orthogonal to constants.  At T = inf the C and D couplings
    vanish identically by the odd parity of the averaged parallel velocity
    and are stored as exact zeros.
    """

    T: float
    period: float
    k_max: int
    nv: int
    v_max: float
    A1: np.ndarray
    A1_full: np.ndarray
    A2: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    l: float
    b_const_row: np.ndarray
    a1_residual: float
    a2_residual: float
    asymmetry_residual: float


@dataclass(frozen=True)
class TruncatedOperator:
    """Spectral truncation of the block operator to 2n+1 dimensions.

    P_n and Q_n hold the lowest n eigenvectors (by eigenvalue, counting
    multiplicity) of the projection-limit operators; M_n is the block
    matrix compressed onto those bases plus the scalar amplitude.  Ranks
    are capped at each space's dimension, so n one past the electric
    dimension yields the full (unitarily equivalent) matrix.
    """

    n: int
    T: float
    P_n: np.ndarray
    Q_n: np.ndarray
    M_n: np.ndarray


def _realified_rows(pack: SymbolPack, values: np.ndarray, period: float,
                    offset: int) -> np.ndarray:
    """Map averaged character rows z^k to the orthonormal cos/sin layout."""
    k_max = pack.k_max
    n = values.shape[1]
    out = np.empty((2 * k_max + 1, n))
    out[0] = values[offset].real / np.sqrt(period)
    amp = np.sqrt(2.0 / period)
    for k in range(1, k_max + 1):
        out[2 * k - 1] = amp * values[offset + k].real
        out[2 * k] = amp * values[offset + k].imag
    return out


def _rel_asymmetry(A: np.ndarray) -> float:
    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(A - A.T))) / scale


def assemble(T: float, eq: EquilibriumSpec, disc: DiscretizationSpec) -> OperatorSet:
    """Quadrature assembly of every operator block at horizon T (or inf).

    All distribution moments use the grid's own velocity rule so that the
    exact cancellations of the continuum operators (identity limit at small
    T, kernel on constants at T = inf) survive discretization.  Raises
    AsymmetryTooLarge when the pre-symmetrization defect of a diagonal
    block exceeds disc.sym_tol relative to the block's max entry.
    """
    infinite = T == np.inf
    if not infinite:
        T = float(T)
        if not (T > 0.0 and np.isfinite(T)):
            raise ConfigError(f"horizon must be positive or inf, got {T}")
    grid = disc.grid
    fields = eq.fields
    period = fields.period
    K = disc.k_max

    Phi = real_basis_matrix(K, grid.X, period)
    omega = basis_wavenumbers(K, period)
    vh1, vh2 = vhat(grid.V1, grid.V2)
    pack = SymbolPack(k_max=K, period=period)

    dim = 2 * K + 1
    A1_raw = np.diag(omega ** 2)
    tinv2 = 0.0 if infinite else T ** -2
    A2_raw = np.diag(omega ** 2 + tinv2)
    B_full = np.zeros((dim, dim))
    C_full = np.zeros(dim)
    D_full = np.zeros(dim)
    l = 0.0

    for sign, prof in ((+1, eq.plus), (-1, eq.minus)):
        e, p = invariants_of(grid.X, grid.V1, grid.V2, fields, sign)
        me = prof.mu_e(e, p)
        mp = prof.mu_p(e, p)
        pa = average_symbol_pack(pack, np.inf if infinite else T, grid, sign,
                                 fields, disc.avg)
        QPhi = _realified_rows(pack, pa.values, period, 0)
        QV2Phi = _realified_rows(pack, pa.values, period, K + 1)
        qv1 = pa.values[2 * K + 2].real

        w_me = grid.W * me
        A1_raw += (Phi * w_me) @ (QPhi - Phi).T
        A2_raw -= (Phi * (grid.W * vh2 * mp)) @ Phi.T
        A2_raw -= (Phi * (w_me * vh2)) @ QV2Phi.T
        B_full += (Phi * (grid.W * mp)) @ Phi.T
        B_full += (Phi * w_me) @ QV2Phi.T
        C_full += (Phi * w_me) @ qv1
        D_full += (Phi * (w_me * vh2)) @ qv1
        l += float(np.sum(w_me * vh1 * qv1)) / period

    a1_res = _rel_asymmetry(A1_raw)
    a2_res = _rel_asymmetry(A2_raw)
    for name, res in (("A1", a1_res), ("A2", a2_res)):
        if res > disc.sym_tol:
            raise AsymmetryTooLarge(name, res, disc.sym_tol)
    A1_full = 0.5 * (A1_raw + A1_raw.T)
    A2 = 0.5 * (A2_raw + A2_raw.T)

    if infinite:
        C = np.zeros(dim - 1)
        D = np.zeros(dim)
    else:
        C = C_full[1:].copy()
        D = D_full

    return OperatorSet(T=np.inf if infinite else T, period=period, k_max=K,
                       nv=grid.quad.nv, v_max=grid.quad.v_max,
                       A1=A1_full[1:, 1:], A1_full=A1_full, A2=A2,
                       B=B_full[1:, :], C=C, D=D, l=l,
                       b_const_row=B_full[0, :], a1_residual=a1_res,
                       a2_residual=a2_res,
                       asymmetry_residual=max(a1_res, a2_res))


def _corner(T: float, l: float, period: float) -> float:
    tinv2 = 0.0 if np.isinf(T) else T ** -2
    return -period * (tinv2 - l)


def _block_matrix(A1, A2, B, C, D, corner) -> np.ndarray:
    """Dense symmetric block matrix of the coupled system.

    Layout: [[-A1, B, C], [B*, A2, -D], [C*, -D*, corner]], where the
    corner -P (T^{-2} - l) reduces to +P l in the projection limit.
    """
    n_phi, n_psi = A1.shape[0], A2.shape[0]
    M = np.zeros((n_phi + n_psi + 1, n_phi + n_psi + 1))
    M[:n_phi, :n_phi] = -A1
    M[:n_phi, n_phi:-1] = B
    M[:n_phi, -1] = C
    M[n_phi:-1, :n_phi] = B.T
    M[n_phi:-1, n_phi:-1] = A2
    M[n_phi:-1, -1] = -D
    M[-1, :n_phi] = C
    M[-1, n_phi:-1] = -D
    M[-1, -1] = corner
    return M


def _projection_basis(A: np.ndarray, n: int, name: str,
                      gap_tol: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(A)
    rank = min(n, A.shape[0])
    if rank < A.shape[0] and gap_tol > 0.0:
        gap = float(vals[rank] - vals[rank - 1])
        scale = max(1.0, abs(float(vals[rank])), abs(float(vals[rank - 1])))
        if gap < gap_tol * scale:
            raise DegenerateCutoff(name, n, gap, gap_tol * scale)
    return vecs[:, :rank]


def truncate(ops_T: OperatorSet, ops_inf: OperatorSet, n: int,
             gap_tol: float = 1e-6) -> TruncatedOperator:
    """Compress the finite-T blocks onto the lowest projection-limit modes.

    The truncation bases are the first n eigenvectors of the T = inf
    diagonal blocks; the compressed matrix has dimension 2n+1 (less when n
    exceeds a space's dimension, where the basis saturates).  Raises
    DegenerateCutoff when the cutoff falls inside an eigenvalue cluster of
    either limit operator, in which case a larger n disambiguates.
    """
    if n < 1:
        raise ConfigError(f"truncation rank must be at least 1, got {n}")
    dim_phi, dim_psi = ops_inf.A1.shape[0], ops_inf.A2.shape[0]
    if n > max(dim_phi, dim_psi):
        raise ConfigError(
            f"truncation rank {n} exceeds basis dimensions ({dim_phi}, {dim_psi})")
    if not np.isinf(ops_inf.T):
        raise ConfigError("truncation bases need the projection-limit set")
    P_n = _projection_basis(ops_inf.A1, n, "A1", gap_tol)
    Q_n = _projection_basis(ops_inf.A2, n, "A2", gap_tol)
    M_n = _block_matrix(P_n.T @ ops_T.A1 @ P_n,
                        Q_n.T @ ops_T.A2 @ Q_n,
                        P_n.T @ ops_T.B @ Q_n,
                        P_n.T @ ops_T.C,
                        Q_n.T @ ops_T.D,
                        _corner(ops_T.T, ops_T.l, ops_T.period))
    return TruncatedOperator(n=n, T=ops_T.T, P_n=P_n, Q_n=Q_n, M_n=M_n)


def schur_infty(ops: OperatorSet, cutoff: float = 1e-10,
                overlap_tol: float = 1e-8) -> np.ndarray:
    """Reduced magnetic operator A2 + B* A1^{-1} B at the projection limit.

    A1 is inverted on the orthogonal complement of its numerical kernel
    (eigenvalues below cutoff relative to the largest magnitude).  Raises
    KernelOverlap when the coupling block has weight on that kernel, in
    which case the reduction is not defined and the criterion does not
    apply.
    """
    if not np.isinf(ops.T):
        raise ConfigError("the reduced operator is defined at T = inf only")
    vals, vecs = np.linalg.eigh(ops.A1)
    sigma_max = float(np.max(np.abs(vals)))
    if sigma_max == 0.0:
        raise ConfigError("A1 vanishes; reduction undefined")
    kernel = np.abs(vals) < cutoff * sigma_max
    if np.any(kernel):
        overlap = float(np.linalg.norm(vecs[:, kernel].T @ ops.B, 2))
        budget = overlap_tol * max(1.0, float(np.linalg.norm(ops.B, 2)))
        if overlap > budget:
            raise KernelOverlap(overlap, budget)
    keep = ~kernel
    coeff = vecs[:, keep].T @ ops.B
    K = ops.A2 + ops.B.T @ (vecs[:, keep] @ (coeff / vals[keep, None]))
    return 0.5 * (K + K.T)
