"""Ergodic averages along equilibrium characteristics on phase-space grids.

Q^T weights the backward history of a phase point with (1/T) e^{s/T} ds;
its strong limit Q^inf replaces the weight with the uniform average over
the orbit through the point.  average_symbol_pack takes either one on a
phase grid, for a whole block of symbols riding the same trajectories;
apply_QT_points takes Q^T at arbitrary points without folding.  Both
integrate each node backward with the trajectory stepper and accumulate,
panel by panel, the exact exponential moment of a linear interpolant of
the integrand, so the quadrature step always equals the flow step.

Orbit periodicity is exploited wherever the first-return table reports a
period tau shorter than the truncation window S_max = T log(1/epsilon):
the infinite history of a periodic orbit folds into one period through
the geometric factor 1/(1 - e^{-tau/T}).  Folding removes the truncation
error entirely and makes large horizons affordable, since the cost per
node drops from S_max to tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from ._parallel import run_chunks
from .equilibrium import (EquilibriumSpec, FieldProfile, SpeciesProfile,
                          VelocityQuadrature, invariants_of)
from .errors import ConfigError, DriftExceeded
from .fourier import uniform_grid
from .trajectories import OrbitTable, make_stepper, orbit_table

# node batch size of the backward passes and first-return tables; it fixes
# the work decomposition independently of the thread count, so results are
# bitwise reproducible
_CHUNK = 2048


@dataclass(frozen=True)
class AveragingConfig:
    """Discretization of the backward ergodic averages.

    dt is both the flow step and the quadrature panel width.  epsilon_tail
    truncates the exponential weight, giving S_max = T log(1/epsilon_tail).
    First-return detection runs at the coarser orbit_dt (the return time is
    refined by bisection, so the fine step buys nothing there) and is
    skipped altogether when S_max never exceeds fold_threshold.  Nodes with
    no detected return fall back, for the infinite-horizon projection only,
    to a normalized exponential average with T_big = tbig_factor * period
    over a fallback_horizon window integrated at orbit_dt.

    threads is the number of workers sharing the fixed-size node batches;
    it never changes a result.
    """

    dt: float = 1e-3
    epsilon_tail: float = 1e-10
    drift_tol: float = 1e-8
    orbit_dt: float = 1e-2
    orbit_horizon: float = 200.0
    return_tol: float = 1e-8
    fold_threshold: float = 2.0
    fallback_horizon: float = 200.0
    tbig_factor: float = 1e3
    threads: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0 and self.orbit_dt > 0.0):
            raise ConfigError("integration steps must be positive")
        if not 0.0 < self.epsilon_tail < 1.0:
            raise ConfigError(
                f"epsilon_tail must lie in (0, 1), got {self.epsilon_tail}")
        if not (self.orbit_horizon > 0.0 and self.fallback_horizon > 0.0
                and self.tbig_factor > 0.0):
            raise ConfigError("horizons must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")

    def s_max(self, T: float) -> float:
        return T * float(np.log(1.0 / self.epsilon_tail))


def _envelope_weight(profile: SpeciesProfile, x, v1, v2,
                     fields: FieldProfile, sign: int) -> np.ndarray:
    e, _ = invariants_of(x, v1, v2, fields, sign)
    return profile.c * (1.0 + np.abs(e)) ** (-profile.alpha)


@dataclass(frozen=True)
class PhaseGrid:
    """Quadrature nodes over one spatial period times a velocity square.

    Nodes are ordered x-major: flat index ix * nv^2 + iv, with iv running
    over the tensor velocity rule in its own v1-major order.  W is the
    product quadrature weight (P / n_x times the Gauss weight); w_plus and
    w_minus are the species norm weights c (1 + |e|)^(-alpha) evaluated at
    the per-species invariants, positive everywhere.
    """

    period: float
    x: np.ndarray
    quad: VelocityQuadrature
    X: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    W: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    _orbit_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_equilibrium(cls, eq: EquilibriumSpec, n_x: Optional[int] = None,
                         quad: Optional[VelocityQuadrature] = None) -> "PhaseGrid":
        fields = eq.fields
        if n_x is None:
            n_x = fields.x.size
        if n_x < 2:
            raise ConfigError(f"need at least 2 x-nodes, got {n_x}")
        if quad is None:
            quad = eq.quad
        x = uniform_grid(fields.period, n_x)
        nvv = quad.V1.size
        X = np.repeat(x, nvv)
        V1 = np.tile(quad.V1, n_x)
        V2 = np.tile(quad.V2, n_x)
        W = (fields.period / n_x) * np.tile(quad.w, n_x)
        wp = _envelope_weight(eq.plus, X, V1, V2, fields, +1)
        wm = _envelope_weight(eq.minus, X, V1, V2, fields, -1)
        if not (np.all(W > 0.0) and np.all(wp > 0.0) and np.all(wm > 0.0)):
            raise ConfigError("phase grid weights must be positive")
        return cls(period=fields.period, x=x, quad=quad, X=X, V1=V1, V2=V2,
                   W=W, w_plus=wp, w_minus=wm)

    @property
    def size(self) -> int:
        return self.X.size

    def norm_weight(self, sign: int) -> np.ndarray:
        if sign == +1:
            return self.w_plus
        if sign == -1:
            return self.w_minus
        raise ConfigError(f"species sign must be +1 or -1, got {sign}")

    def weighted_norm(self, values, sign: int) -> float:
        v = np.asarray(values)
        mag2 = v.real ** 2 + v.imag ** 2 if np.iscomplexobj(v) else v ** 2
        return float(np.sqrt(np.sum(self.W * self.norm_weight(sign) * mag2)))


# ---------------------------------------------------------------------------
# symbol evaluation


def _block_size(evaluate: Callable, x, v1, v2) -> int:
    """Rows of a block evaluator, checked on its block at the start points."""
    block = np.asarray(evaluate(x, v1, v2))
    if block.ndim != 2 or block.shape[1] != x.size or block.shape[0] == 0:
        raise ConfigError(
            "symbols must be vectorized: a block evaluator on (n,) arrays "
            f"must return (n_sym, n), got shape {block.shape} for {x.shape}")
    return block.shape[0]


def _powers(z: np.ndarray, k_max: int) -> np.ndarray:
    out = np.empty((k_max + 1,) + z.shape, dtype=complex)
    out[0] = 1.0
    for k in range(1, k_max + 1):
        out[k] = out[k - 1] * z
    return out


@dataclass(frozen=True)
class SymbolPack:
    """Fourier-character symbols evaluated together in one backward pass.

    Row layout of the evaluated block: z^k for k = 0..k_max, then (when
    with_v2) vhat2 z^k for k = 0..k_max, then (when with_v1) vhat1, with
    z = e^{i 2 pi x / P}.  Real cosine and sine symbols are recovered from
    the real and imaginary parts of these rows, since averaging commutes
    with complex conjugation.
    """

    k_max: int
    period: float
    with_v2: bool = True
    with_v1: bool = True

    def __post_init__(self):
        if self.k_max < 0:
            raise ConfigError(f"k_max must be nonnegative, got {self.k_max}")

    @property
    def n_sym(self) -> int:
        n = self.k_max + 1
        if self.with_v2:
            n += self.k_max + 1
        if self.with_v1:
            n += 1
        return n

    def evaluator(self) -> Callable:
        omega = 2.0 * np.pi / self.period
        k_max, with_v2, with_v1 = self.k_max, self.with_v2, self.with_v1

        def evaluate(x, v1, v2):
            zk = _powers(np.exp(1j * omega * x), k_max)
            rows = [zk]
            if with_v2 or with_v1:
                g = np.sqrt(1.0 + v1 * v1 + v2 * v2)
            if with_v2:
                rows.append(zk * (v2 / g))
            if with_v1:
                rows.append((v1 / g)[None, :])
            return np.concatenate(rows, axis=0)

        return evaluate


# ---------------------------------------------------------------------------
# the backward integration core


def _chunk_backward_integrals(evaluate, n_sym, X, V1, V2, stop, T,
                              fields, sign, cfg, dt):
    """Per-node integrals of w(s) g_m(Z(s)) over s in [-stop_i, 0].

    w(s) = e^{s/T} for finite T, 1 for T = None (orbit averaging).  Nodes
    leave the batch at their own stop time; the final panel shrinks to the
    exact remainder.  Returns (acc (n_sym, n) complex, max_d2 (n_sym,)),
    where max_d2 estimates sup |d^2 g / ds^2| from second differences.
    Raises DriftExceeded when a finished node's invariants moved more than
    drift_tol * max(1, stop).
    """
    n = X.size
    acc = np.zeros((n_sym, n), dtype=complex)
    max_d2 = np.zeros(n_sym)
    if n == 0:
        return acc, max_d2
    period = fields.period
    step = make_stepper(fields, sign)
    finite = T is not None and np.isfinite(T)

    Y = np.array([X, V1, V2], dtype=float)
    e0, p0 = invariants_of(Y[0], Y[1], Y[2], fields, sign)
    total = np.asarray(stop, dtype=float).copy()
    remaining = total.copy()
    alive = np.arange(n)
    phase = np.ones(n)
    g_prev = evaluate(Y[0], Y[1], Y[2])
    g_prev2 = None

    while alive.size:
        h = np.minimum(remaining, dt)
        Y = step(Y, -h)
        Y[0] = np.mod(Y[0], period)
        g_new = evaluate(Y[0], Y[1], Y[2])
        if finite:
            # exact exponential moments of the panel: with u = h/T,
            # int_0^h e^{t/T} dt = A and int_0^h e^{t/T} t dt = B
            u = h / T
            e1 = np.expm1(u)
            A = T * e1
            B = np.where(u < 1e-3,
                         h * h * (0.5 + u * (1.0 / 3.0 + 0.125 * u)),
                         T * (h * (e1 + 1.0) - A))
            wb = B / h
            phase = phase * np.exp(-u)
            acc[:, alive] += phase * (g_new * (A - wb) + g_prev * wb)
        else:
            acc[:, alive] += (0.5 * h) * (g_new + g_prev)
        if g_prev2 is not None:
            d2 = g_new - 2.0 * g_prev + g_prev2
            est = np.abs(d2.real) + np.abs(d2.imag)
            np.maximum(max_d2, est.max(axis=1) / (dt * dt), out=max_d2)
        remaining = remaining - h
        done = remaining <= 1e-12 * dt
        if np.any(done):
            ef, pf = invariants_of(Y[0][done], Y[1][done], Y[2][done], fields, sign)
            drift = np.maximum(np.abs(ef - e0[done]), np.abs(pf - p0[done]))
            budget = cfg.drift_tol * np.maximum(1.0, total[done])
            k = int(np.argmax(drift - budget))
            if drift[k] > budget[k]:
                raise DriftExceeded(float(drift[k]), float(budget[k]))
            keep = ~done
            Y = Y[:, keep]
            phase = phase[keep]
            remaining = remaining[keep]
            total = total[keep]
            e0 = e0[keep]
            p0 = p0[keep]
            alive = alive[keep]
            g_new = g_new[:, keep]
            g_prev = g_prev[:, keep]
        g_prev2 = g_prev
        g_prev = g_new
    return acc, max_d2


def _backward_integrals(evaluate, n_sym, X, V1, V2, stop, T, fields, sign, cfg, dt):
    def worker(lo, hi):
        return _chunk_backward_integrals(evaluate, n_sym, X[lo:hi], V1[lo:hi],
                                         V2[lo:hi], stop[lo:hi], T, fields,
                                         sign, cfg, dt)

    parts = run_chunks(worker, X.size, _CHUNK, cfg.threads)
    acc = np.concatenate([p[0] for p in parts], axis=1)
    max_d2 = np.max(np.stack([p[1] for p in parts]), axis=0)
    return acc, max_d2


def orbit_summary(grid: PhaseGrid, sign: int, fields: FieldProfile,
                  cfg: AveragingConfig = AveragingConfig()) -> OrbitTable:
    """First-return data for every grid node, cached on the grid.

    The cache key covers the species sign and the detection settings; the
    field profile is compared by identity, so rebuilding fields invalidates
    the entry.
    """
    key = (sign, cfg.orbit_dt, cfg.orbit_horizon, cfg.return_tol)
    entry = grid._orbit_cache.get(key)
    if entry is not None and entry[0] is fields:
        return entry[1]

    def worker(lo, hi):
        return orbit_table(grid.X[lo:hi], grid.V1[lo:hi], grid.V2[lo:hi],
                           fields, sign, cfg.orbit_dt,
                           horizon=cfg.orbit_horizon,
                           return_tol=cfg.return_tol)

    parts = run_chunks(worker, grid.size, _CHUNK, cfg.threads)
    table = OrbitTable(tau=np.concatenate([p.tau for p in parts]),
                       winding=np.concatenate([p.winding for p in parts]),
                       residual=np.concatenate([p.residual for p in parts]),
                       found=np.concatenate([p.found for p in parts]))
    grid._orbit_cache[key] = (fields, table)
    return table


# ---------------------------------------------------------------------------
# public operators


def _finite_horizon_averages(evaluate, n_sym, T, grid, sign, fields, cfg):
    s_max = cfg.s_max(T)
    stop = np.full(grid.size, s_max)
    fold = np.zeros(grid.size, dtype=bool)
    if s_max > cfg.fold_threshold:
        table = orbit_summary(grid, sign, fields, cfg)
        fold = table.found & (table.tau < s_max)
        stop = np.where(fold, table.tau, s_max)
    acc, max_d2 = _backward_integrals(evaluate, n_sym, grid.X, grid.V1, grid.V2,
                                      stop, T, fields, sign, cfg, cfg.dt)
    values = acc / T
    if np.any(fold):
        values[:, fold] /= -np.expm1(-stop[fold] / T)
    tail = float(np.exp(-s_max / T))
    quad_b = max_d2 * (cfg.dt ** 2 / 12.0)
    return values, tail, quad_b


def _projection_averages(evaluate, n_sym, grid, sign, fields, cfg):
    table = orbit_summary(grid, sign, fields, cfg)
    found = table.found
    values = np.zeros((n_sym, grid.size), dtype=complex)
    quad_b = np.zeros(n_sym)
    if found.any():
        acc, max_d2 = _backward_integrals(evaluate, n_sym, grid.X[found],
                                          grid.V1[found], grid.V2[found],
                                          table.tau[found], None, fields,
                                          sign, cfg, cfg.dt)
        values[:, found] = acc / table.tau[found]
        quad_b = np.maximum(quad_b, max_d2 * (cfg.dt ** 2 / 12.0))
    if not found.all():
        # no detected return: substitute a long exponential average, made
        # orbit-scale-free by normalizing the truncated weight exactly
        lost = ~found
        t_big = cfg.tbig_factor * fields.period
        s_fb = cfg.fallback_horizon
        acc, max_d2 = _backward_integrals(evaluate, n_sym, grid.X[lost],
                                          grid.V1[lost], grid.V2[lost],
                                          np.full(int(lost.sum()), s_fb), t_big,
                                          fields, sign, cfg, cfg.orbit_dt)
        values[:, lost] = acc / (t_big * -np.expm1(-s_fb / t_big))
        quad_b = np.maximum(quad_b, max_d2 * (cfg.orbit_dt ** 2 / 12.0))
    return values, quad_b, (~found if not found.all() else np.zeros(grid.size, bool))


@dataclass(frozen=True)
class PackAverages:
    """Averaged values of every symbol row, as one (n_sym, N) block.

    tail_bound is the exponential weight mass beyond the truncation window,
    exp(-S_max / T), relative to the sup of a symbol along the tail; folded
    nodes carry no truncation at all, so for them it is an upper estimate.
    quad_bound is the trapezoid term dt^2 / 12 times the largest second
    time-difference of any row's integrand observed along the
    trajectories.  For the infinite-horizon projection, fallback marks the
    nodes where no return was detected and a long normalized exponential
    average was substituted for the orbit average.
    """

    pack: Union[SymbolPack, Callable]
    values: np.ndarray
    T: float
    tail_bound: float
    quad_bound: float
    fallback: Optional[np.ndarray] = None


def average_symbol_pack(pack: Union[SymbolPack, Callable], T: float,
                        grid: PhaseGrid, sign: int, fields: FieldProfile,
                        cfg: AveragingConfig = AveragingConfig()) -> PackAverages:
    """Q^T (finite T) or Q^inf (T = inf) of a symbol block at every grid node.

    pack is a SymbolPack or a block evaluator (x, v1, v2) -> (n_sym, n);
    every row rides the same trajectories, so averaging several symbols in
    one call costs little more than averaging one.  A finite horizon
    integrates the window S_max = T log(1/epsilon_tail), folded over one
    exact period on nodes whose orbit closes sooner; the result differs
    from the infinite-history value by at most tail_bound times the symbol
    sup.  T = inf takes the time average over the orbit through each node,
    with the fallback nodes flagged.
    """
    infinite = T == np.inf
    if not infinite:
        T = float(T)
        if not (T > 0.0 and np.isfinite(T)):
            raise ConfigError(
                f"averaging horizon must be positive and finite, or inf, got {T}")
    evaluate = pack.evaluator() if isinstance(pack, SymbolPack) else pack
    n_sym = _block_size(evaluate, grid.X, grid.V1, grid.V2)
    if infinite:
        values, quad_b, fallback = _projection_averages(evaluate, n_sym,
                                                        grid, sign, fields, cfg)
        return PackAverages(pack=pack, values=values, T=np.inf, tail_bound=0.0,
                            quad_bound=float(np.max(quad_b)), fallback=fallback)
    values, tail, quad_b = _finite_horizon_averages(evaluate, n_sym, T,
                                                    grid, sign, fields, cfg)
    return PackAverages(pack=pack, values=values, T=T, tail_bound=tail,
                        quad_bound=float(np.max(quad_b)))


def apply_QT_points(g: Callable, T: float, x, v1, v2, sign: int,
                    fields: FieldProfile,
                    cfg: AveragingConfig = AveragingConfig()) -> np.ndarray:
    """Backward exponential average of one symbol at arbitrary phase points.

    Unlike average_symbol_pack this takes a point cloud instead of a
    PhaseGrid and never folds periodic orbits: every point integrates the
    full truncated window S_max = T log(1/epsilon_tail), so two nearby
    point sets (for a finite-difference derivative along the flow, say) go
    through the identical code path and their difference is free of
    folding seams.  Finite horizons only.  Returns the complex averaged
    values.
    """
    T = float(T)
    if not (T > 0.0 and np.isfinite(T)):
        raise ConfigError(
            f"point averaging needs a positive finite horizon, got {T}")
    X = np.asarray(x, dtype=float).ravel()
    V1 = np.asarray(v1, dtype=float).ravel()
    V2 = np.asarray(v2, dtype=float).ravel()
    if not (X.shape == V1.shape == V2.shape):
        raise ConfigError("x, v1, v2 must have matching shapes")

    def evaluate(x, v1, v2):
        return np.asarray(g(x, v1, v2), dtype=complex)[None]

    _block_size(evaluate, X, V1, V2)
    stop = np.full(X.size, cfg.s_max(T))
    acc, _ = _backward_integrals(evaluate, 1, X, V1, V2, stop, T,
                                 fields, sign, cfg, cfg.dt)
    return acc[0] / T


# ---------------------------------------------------------------------------
# norm probe


def qt_operator_norm_probe(T: float, grid: PhaseGrid, sign: int,
                           fields: FieldProfile, trials: int, *,
                           cfg: Optional[AveragingConfig] = None,
                           k_max: int = 2, seed: int = 0) -> float:
    """Largest ratio of weighted norms ||Q^T g|| / ||g|| over random probes.

    Probes are complex trigonometric polynomials in x of degree k_max with
    velocity factors {1, vhat1, vhat2} and Gaussian coefficients.  The
    degree must stay below the x-grid Nyquist: an aliased character pair
    shares grid samples while Q^T treats its members differently, which
    would corrupt the discrete ratio.  One backward pass serves all trials.
    """
    if trials < 1:
        raise ConfigError(f"need at least one probe, got {trials}")
    if 2 * k_max >= grid.x.size:
        raise ConfigError(
            f"probe degree {k_max} aliases on {grid.x.size} x-nodes")
    if cfg is None:
        cfg = AveragingConfig()
    rng = np.random.default_rng(seed)
    shape = (trials, 2 * k_max + 1, 3)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    omega = 2.0 * np.pi / grid.period

    def evaluate(x, v1, v2):
        zk = _powers(np.exp(1j * omega * x), k_max)
        full = np.concatenate([zk[:0:-1].conj(), zk], axis=0)
        g = np.sqrt(1.0 + v1 * v1 + v2 * v2)
        m = np.stack([np.ones_like(x), v1 / g, v2 / g])
        return np.einsum("tkj,kn,jn->tn", c, full, m)

    values = average_symbol_pack(evaluate, T, grid, sign, fields, cfg).values
    g0 = evaluate(grid.X, grid.V1, grid.V2)
    w = grid.W * grid.norm_weight(sign)
    num = np.sqrt(np.sum(w * (values.real ** 2 + values.imag ** 2), axis=1))
    den = np.sqrt(np.sum(w * (g0.real ** 2 + g0.imag ** 2), axis=1))
    return float(np.max(num / den))
