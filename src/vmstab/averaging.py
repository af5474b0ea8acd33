"""Ergodic averages along equilibrium characteristics on phase-space grids.

Q^T weights the backward history of a phase point with (1/T) e^{s/T} ds;
its strong limit Q^inf replaces the weight with the uniform average over
the orbit through the point.  average_symbol_pack takes either one on a
phase grid, for a whole block of symbols riding the same trajectories;
apply_QT_points takes Q^T at arbitrary points.

On a grid every orbit that the first-return table closes is periodic
modulo the spatial period, with period tau.  One backward pass, over the
nodes of both species in one batch, samples each such orbit at M
equispaced times over one period, and an FFT turns the samples into
coefficients c_m of g(Z(-s)) = sum_m c_m e^{i nu_m s}, nu_m = 2 pi m /
tau.  Then Q^T g = sum_m c_m / (1 - i nu_m T) holds for every T at once
and Q^inf g = c_0; the equispaced periodic trapezoid rule behind the c_m
converges geometrically for smooth symbols.  The coefficient table is
cached on the grid, so each further horizon is a contraction of cached
arrays.

Nodes whose orbit never closed, and every point of apply_QT_points,
integrate a truncated backward window S_max = T log(1/epsilon_tail) with
the trajectory stepper, accumulating panel by panel the exact exponential
moment of a linear interpolant of the integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .equilibrium import (EquilibriumSpec, FieldProfile, SpeciesProfile,
                          VelocityQuadrature, invariants_of)
from .errors import ConfigError, DriftExceeded
from .fourier import uniform_grid
from .trajectories import OrbitTable, make_stepper, orbit_table

# samples per orbit period in the coefficient tables
_SAMPLES = 128

# T_big / period of the exponential average that stands in for Q^inf on
# nodes whose orbit never closed
_TBIG_FACTOR = 1e3


@dataclass(frozen=True)
class AveragingConfig:
    """Discretization of the backward ergodic averages.

    dt caps the flow step: the coefficient tables step each closed orbit
    with tau / (M s), s the smallest integer that keeps the step at or
    below dt, and the truncated windows step at dt, which is also their
    quadrature panel width.  epsilon_tail truncates the exponential weight
    of a window, giving S_max = T log(1/epsilon_tail).  First-return
    detection runs at the coarser orbit_dt (the return time is refined by
    bisection, so the fine step buys nothing there) up to orbit_horizon.
    Nodes with no detected return take the window at finite T and, at
    T = inf, a normalized exponential average with T_big = 1e3 * period
    over a fallback_horizon window integrated at orbit_dt.
    drift_tol * max(1, integrated time) bounds the invariant drift of any
    node's pass.
    """

    dt: float = 1e-3
    epsilon_tail: float = 1e-10
    drift_tol: float = 1e-8
    orbit_dt: float = 1e-2
    orbit_horizon: float = 200.0
    fallback_horizon: float = 200.0

    def __post_init__(self):
        # an infinite step never reaches a sample and a NaN budget never
        # trips the drift guard, so both must be finite
        if not (0.0 < self.dt < np.inf and 0.0 < self.orbit_dt < np.inf):
            raise ConfigError(
                f"integration steps must be positive and finite, got "
                f"dt={self.dt}, orbit_dt={self.orbit_dt}")
        if not 0.0 < self.drift_tol < np.inf:
            raise ConfigError(
                f"drift_tol must be positive and finite, got {self.drift_tol}")
        if not 0.0 < self.epsilon_tail < 1.0:
            raise ConfigError(
                f"epsilon_tail must lie in (0, 1), got {self.epsilon_tail}")
        if not (self.orbit_horizon > 0.0 and self.fallback_horizon > 0.0):
            raise ConfigError("horizons must be positive")

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
# truncated backward windows


def _backward_integrals(evaluate, n_sym, X, V1, V2, stop, T, fields, sign,
                        cfg, dt):
    """Per-node integrals of e^{s/T} g_m(Z(s)) over s in [-stop_i, 0].

    Nodes leave the batch at their own stop time; the final panel shrinks
    to the exact remainder.  Returns (acc (n_sym, n) complex, max_d2
    (n_sym,)), where max_d2 estimates sup |d^2 g / ds^2| from second
    differences.  Raises DriftExceeded when a finished node's invariants
    moved more than drift_tol * max(1, stop).
    """
    n = X.size
    acc = np.zeros((n_sym, n), dtype=complex)
    max_d2 = np.zeros(n_sym)
    if n == 0:
        return acc, max_d2
    period = fields.period
    step = make_stepper(fields, sign)

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
        if g_prev2 is not None:
            d2 = g_new - 2.0 * g_prev + g_prev2
            est = np.abs(d2.real) + np.abs(d2.imag)
            np.maximum(max_d2, est.max(axis=1) / (dt * dt), out=max_d2)
        remaining = remaining - h
        done = remaining <= 1e-12 * dt
        if np.any(done):
            ef, pf = invariants_of(Y[0][done], Y[1][done], Y[2][done], fields, sign)
            drift = np.maximum(np.abs(ef - e0[done]), np.abs(pf - p0[done]))
            _check_drift(drift, total[done], cfg)
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


def _check_drift(drift, elapsed, cfg):
    """Raise DriftExceeded when a node's invariants moved past its budget."""
    budget = cfg.drift_tol * np.maximum(1.0, elapsed)
    k = int(np.argmax(drift - budget))
    if drift[k] > budget[k]:
        raise DriftExceeded(float(drift[k]), float(budget[k]))


def _cached(grid: PhaseGrid, key, fields: FieldProfile, build: Callable):
    """Grid-cached build(); the field profile is compared by identity."""
    entry = grid._orbit_cache.get(key)
    if entry is None or entry[0] is not fields:
        entry = (fields, build())
        grid._orbit_cache[key] = entry
    return entry[1]


# species of the merged passes, in merged-index order
_SPECIES = (+1, -1)


def _cached_species(grid: PhaseGrid, key, sign: int, fields: FieldProfile,
                    build: Callable):
    """The entry of one species from a pass that serves both.

    build() returns one entry per species of _SPECIES; all of them are
    cached under (key, species), so the other species finds its entry.
    """
    grid.norm_weight(sign)  # rejects anything but +1 and -1
    entry = grid._orbit_cache.get((key, sign))
    if entry is None or entry[0] is not fields:
        for s, value in zip(_SPECIES, build()):
            grid._orbit_cache[(key, s)] = (fields, value)
        entry = grid._orbit_cache[(key, sign)]
    return entry[1]


def _merged_nodes(grid: PhaseGrid):
    """Both species' copies of the grid nodes, (X, V1, V2, signs), 2N each."""
    signs = np.repeat(np.array(_SPECIES, dtype=float), grid.size)
    return (np.tile(grid.X, 2), np.tile(grid.V1, 2), np.tile(grid.V2, 2),
            signs)


def orbit_summary(grid: PhaseGrid, sign: int, fields: FieldProfile,
                  cfg: AveragingConfig = AveragingConfig()) -> OrbitTable:
    """First-return data for every grid node, cached on the grid.

    The first call for either species classifies the 2N nodes of both
    species in one orbit_table call (species +1 first) and caches both
    tables; the other species then reads its table without a step.  The
    cache key covers the detection settings; the field profile is
    compared by identity, so rebuilding fields invalidates the entries.
    """
    def build():
        X, V1, V2, signs = _merged_nodes(grid)
        merged = orbit_table(X, V1, V2, fields, signs, cfg.orbit_dt,
                             horizon=cfg.orbit_horizon)
        n = grid.size
        return [OrbitTable(tau=merged.tau[k * n:(k + 1) * n],
                           winding=merged.winding[k * n:(k + 1) * n],
                           residual=merged.residual[k * n:(k + 1) * n],
                           found=merged.found[k * n:(k + 1) * n])
                for k in range(len(_SPECIES))]

    key = ("orbits", cfg.orbit_dt, cfg.orbit_horizon)
    return _cached_species(grid, key, sign, fields, build)


# ---------------------------------------------------------------------------
# orbit-Fourier coefficient tables


@dataclass(frozen=True)
class _OrbitSamples:
    """One backward period of every closed grid orbit, sampled M times.

    One species' share of the backward pass that serves both species.
    closed marks the grid nodes whose orbit the first-return table closed;
    for the i-th of them, states[:, i, j] is the phase point Z(-j tau_i / M)
    for j = 0..M, so the last sample should repeat the first (modulo the
    spatial period).  drift[i] is the largest invariant change over the
    pass.
    """

    closed: np.ndarray
    tau: np.ndarray
    states: np.ndarray
    drift: np.ndarray


def _period_samples(X, V1, V2, tau, fields, signs, dt):
    """Backward pass over one period: (states (3, n, M + 1), drift (n,)).

    Node i, of the species signs[i], steps with h_i = tau_i / (M s_i),
    s_i = ceil(tau_i / (M dt)), so its step never exceeds dt, keeps every
    s_i-th state, and leaves the batch after its last sample.
    """
    n = X.size
    M = _SAMPLES
    states = np.empty((3, n, M + 1))
    drift = np.zeros(n)
    if n == 0:
        return states, drift
    period = fields.period
    step = make_stepper(fields, signs)
    stride = np.ceil(tau / (M * dt)).astype(np.int64)
    h = tau / (M * stride)

    Y = np.array([X, V1, V2], dtype=float)
    states[:, :, 0] = Y
    e0, p0 = invariants_of(Y[0], Y[1], Y[2], fields, signs)
    alive = np.arange(n)
    k = 0
    while alive.size:
        Y = step(Y, -h)
        Y[0] = np.mod(Y[0], period)
        k += 1
        due = np.flatnonzero(k % stride == 0)
        if due.size == 0:
            continue
        j = k // stride[due]
        states[:, alive[due], j] = Y[:, due]
        done = np.zeros(alive.size, dtype=bool)
        done[due[j == M]] = True
        if np.any(done):
            ef, pf = invariants_of(Y[0, done], Y[1, done], Y[2, done],
                                   fields, signs[done])
            drift[alive[done]] = np.maximum(np.abs(ef - e0[done]),
                                            np.abs(pf - p0[done]))
            keep = ~done
            Y = Y[:, keep]
            h = h[keep]
            stride = stride[keep]
            e0 = e0[keep]
            p0 = p0[keep]
            alive = alive[keep]
            signs = signs[keep]
            if alive.size:
                step = make_stepper(fields, signs)
    return states, drift


def _orbit_samples(grid: PhaseGrid, sign: int, fields: FieldProfile,
                   cfg: AveragingConfig) -> _OrbitSamples:
    """The grid-cached backward pass; every pack of either species reads it.

    The first call for either species steps the closed orbits of both
    species in one pass over the 2N merged nodes and caches both species'
    samples.  The drift budget is checked on every call, so a stricter
    drift_tol still raises.
    """
    def build():
        tables = [orbit_summary(grid, s, fields, cfg) for s in _SPECIES]
        closed = np.concatenate([t.found for t in tables])
        tau = np.concatenate([t.tau for t in tables])
        X, V1, V2, signs = _merged_nodes(grid)
        states, drift = _period_samples(X[closed], V1[closed], V2[closed],
                                        tau[closed], fields, signs[closed],
                                        cfg.dt)
        out, lo = [], 0
        for t in tables:
            hi = lo + int(np.sum(t.found))
            out.append(_OrbitSamples(closed=t.found, tau=t.tau[t.found],
                                     states=states[:, lo:hi],
                                     drift=drift[lo:hi]))
            lo = hi
        return out

    key = ("samples", cfg.dt, cfg.orbit_dt, cfg.orbit_horizon)
    samples = _cached_species(grid, key, sign, fields, build)
    if samples.tau.size:
        _check_drift(samples.drift, samples.tau, cfg)
    return samples


@dataclass(frozen=True)
class _OrbitCoefficients:
    """Fourier coefficients of a symbol block along every closed orbit.

    For the i-th closed node, g_r(Z(-s)) = sum_m coeffs[r, i, m]
    e^{i nu[i, m] s}, with nu[i, m] = 2 pi m / tau_i in numpy FFT order.
    err[r, i] estimates the error of any average read from row r at node
    i: the coefficient mass in the top band M/4 <= |m| <= M/2, which bounds
    the aliasing of a geometrically decaying series; the closure residual
    |g(Z(-tau)) - g(Z(0))|, which carries the period and stepping errors;
    and a roundoff floor M eps max |g|.
    """

    closed: np.ndarray
    nu: np.ndarray
    coeffs: np.ndarray
    err: np.ndarray

    def average(self, T: float) -> np.ndarray:
        """Q^T (finite T) or Q^inf (T = inf) at the closed nodes."""
        if T == np.inf:
            return self.coeffs[..., 0]
        return np.sum(self.coeffs / (1.0 - 1j * T * self.nu), axis=-1)


def _orbit_coefficients(pack, evaluate, n_sym, grid, sign, fields, cfg):
    """The grid-cached coefficient table of one symbol block and species.

    The key holds pack itself: a SymbolPack compares by value, a plain
    block evaluator by identity.
    """
    samples = _orbit_samples(grid, sign, fields, cfg)
    M = _SAMPLES

    def build():
        Z = samples.states
        g = np.asarray(evaluate(Z[0].ravel(), Z[1].ravel(), Z[2].ravel()))
        g = g.reshape(n_sym, samples.tau.size, M + 1)
        coeffs = np.fft.fft(g[..., :M], axis=-1) / M
        band = np.abs(np.fft.fftfreq(M, 1.0 / M)) >= M // 4
        err = (np.sum(np.abs(coeffs[..., band]), axis=-1)
               + np.abs(g[..., M] - g[..., 0])
               + (M * np.finfo(float).eps) * np.max(np.abs(g), axis=-1))
        nu = (2.0 * np.pi) * np.fft.fftfreq(M, 1.0 / M) / samples.tau[:, None]
        return _OrbitCoefficients(closed=samples.closed, nu=nu,
                                  coeffs=coeffs, err=err)

    key = ("coefficients", sign, pack, cfg.dt, cfg.orbit_dt,
           cfg.orbit_horizon)
    return _cached(grid, key, fields, build)


# ---------------------------------------------------------------------------
# public operators


@dataclass(frozen=True)
class PackAverages:
    """Averaged values of every symbol row, as one (n_sym, N) block.

    fallback marks the nodes whose orbit never closed: at finite T they
    took the truncated window, at T = inf a long normalized exponential
    average stands in for the orbit average.  tail_bound is the exponential
    weight mass beyond the window, exp(-S_max / T), relative to the sup of
    a symbol along the tail; it is 0 when no node took a window.
    quad_bound is the largest error estimate of any row: on closed orbits
    the coefficient table's top-band tail, closure residual and roundoff
    floor; on fallback nodes the panel term h^2 / 12 times the largest
    second time-difference of the integrand along the trajectories.
    """

    pack: Union[SymbolPack, Callable]
    values: np.ndarray
    T: float
    tail_bound: float
    quad_bound: float
    fallback: np.ndarray


def average_symbol_pack(pack: Union[SymbolPack, Callable], T: float,
                        grid: PhaseGrid, sign: int, fields: FieldProfile,
                        cfg: AveragingConfig = AveragingConfig()) -> PackAverages:
    """Q^T (finite T) or Q^inf (T = inf) of a symbol block at every grid node.

    pack is a SymbolPack or a block evaluator (x, v1, v2) -> (n_sym, n);
    every row rides the same trajectories, so averaging several symbols in
    one call costs little more than averaging one.  The backward pass that
    samples every closed orbit runs once per grid for both species; a
    pack's first call evaluates its block on those samples, and every
    later horizon contracts the cached coefficients.  The cache compares
    packs with ==: a SymbolPack by value, a plain block evaluator by
    identity.  Nodes whose orbit never closed still integrate their
    window on every call.
    """
    infinite = T == np.inf
    if not infinite:
        T = float(T)
        if not (T > 0.0 and np.isfinite(T)):
            raise ConfigError(
                f"averaging horizon must be positive and finite, or inf, got {T}")
    evaluate = pack.evaluator() if isinstance(pack, SymbolPack) else pack
    n_sym = _block_size(evaluate, grid.X, grid.V1, grid.V2)
    table = _orbit_coefficients(pack, evaluate, n_sym, grid, sign, fields, cfg)
    closed = table.closed
    values = np.empty((n_sym, grid.size), dtype=complex)
    values[:, closed] = table.average(T)
    quad_b = np.max(table.err, axis=1, initial=0.0)
    tail = 0.0
    lost = ~closed
    if lost.any():
        if infinite:
            # a long exponential average, made orbit-scale-free by
            # normalizing the truncated weight exactly
            t_w = _TBIG_FACTOR * fields.period
            stop, h = cfg.fallback_horizon, cfg.orbit_dt
            norm = t_w * -np.expm1(-stop / t_w)
        else:
            t_w, stop, h = T, cfg.s_max(T), cfg.dt
            norm = T
            tail = float(np.exp(-stop / T))
        acc, max_d2 = _backward_integrals(
            evaluate, n_sym, grid.X[lost], grid.V1[lost], grid.V2[lost],
            np.full(int(lost.sum()), stop), t_w, fields, sign, cfg, h)
        values[:, lost] = acc / norm
        quad_b = np.maximum(quad_b, max_d2 * (h ** 2 / 12.0))
    return PackAverages(pack=pack, values=values,
                        T=np.inf if infinite else T, tail_bound=tail,
                        quad_bound=float(np.max(quad_b)), fallback=lost)


def apply_QT_points(g: Callable, T: float, x, v1, v2, sign: int,
                    fields: FieldProfile,
                    cfg: AveragingConfig = AveragingConfig()) -> np.ndarray:
    """Backward exponential average of one symbol at arbitrary phase points.

    Unlike average_symbol_pack this takes a point cloud instead of a
    PhaseGrid and needs no orbit table: every point integrates the full
    truncated window S_max = T log(1/epsilon_tail), so two nearby point
    sets (for a finite-difference derivative along the flow, say) go
    through the identical code path, and the result is independent of the
    coefficient tables behind the grid averages.  Finite horizons only.
    Returns the complex averaged values.
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


@dataclass(frozen=True)
class _NormProbe:
    """The random block evaluator of qt_operator_norm_probe.

    It compares by value, so an identical probe reads the coefficient
    table that the first one cached.
    """

    k_max: int
    trials: int
    seed: int
    period: float

    @cached_property
    def coeffs(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        shape = (self.trials, 2 * self.k_max + 1, 3)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def __call__(self, x, v1, v2):
        omega = 2.0 * np.pi / self.period
        zk = _powers(np.exp(1j * omega * x), self.k_max)
        full = np.concatenate([zk[:0:-1].conj(), zk], axis=0)
        g = np.sqrt(1.0 + v1 * v1 + v2 * v2)
        m = np.stack([np.ones_like(x), v1 / g, v2 / g])
        return np.einsum("tkj,kn,jn->tn", self.coeffs, full, m)


def qt_operator_norm_probe(T: float, grid: PhaseGrid, sign: int,
                           fields: FieldProfile, trials: int, *,
                           cfg: Optional[AveragingConfig] = None,
                           k_max: int = 2, seed: int = 0) -> float:
    """Largest ratio of weighted norms ||Q^T g|| / ||g|| over random probes.

    Probes are complex trigonometric polynomials in x of degree k_max with
    velocity factors {1, vhat1, vhat2} and Gaussian coefficients.  The
    degree must stay below the x-grid Nyquist: an aliased character pair
    shares grid samples while Q^T treats its members differently, which
    would corrupt the discrete ratio.  One coefficient table serves all
    trials and every repeat of the probe with the same k_max, trials and
    seed.
    """
    if trials < 1:
        raise ConfigError(f"need at least one probe, got {trials}")
    if 2 * k_max >= grid.x.size:
        raise ConfigError(
            f"probe degree {k_max} aliases on {grid.x.size} x-nodes")
    if cfg is None:
        cfg = AveragingConfig()
    evaluate = _NormProbe(k_max=k_max, trials=trials, seed=seed,
                          period=grid.period)
    values = average_symbol_pack(evaluate, T, grid, sign, fields, cfg).values
    g0 = evaluate(grid.X, grid.V1, grid.V2)
    w = grid.W * grid.norm_weight(sign)
    num = np.sqrt(np.sum(w * (values.real ** 2 + values.imag ** 2), axis=1))
    den = np.sqrt(np.sum(w * (g0.real ** 2 + g0.imag ** 2), axis=1))
    return float(np.max(num / den))
