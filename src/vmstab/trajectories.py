"""Characteristic trajectories of the static transport operators.

The flow integrated here is

    x' = v1/<v>,   v1' = sign (E1(x) + v2/<v> B(x)),   v2' = -sign v1/<v> B(x),

which conserves the invariants e and p of the matching species exactly in the
continuum.  The integrator is a fixed-step explicit scheme built from the
modified-midpoint rule with Richardson extrapolation over substep counts
(2, 4, 6), whose even error expansion makes the extrapolated one-step map
order 6 by construction.  Fixed steps keep trajectory samples aligned with
the ergodic-average quadrature and make runs bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .equilibrium import FieldProfile, lorentz_factor, species_sign
from .errors import ConfigError
from .fourier import horner_eval


@dataclass(frozen=True)
class OrbitTable:
    """Vectorized orbit classification for a batch of start points."""

    tau: np.ndarray        # (N,), nan where not found
    winding: np.ndarray    # (N,) int
    residual: np.ndarray   # (N,)
    found: np.ndarray      # (N,) bool


# ---------------------------------------------------------------------------
# right-hand side and steppers


def make_rhs(fields: FieldProfile, sign) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized derivative of the packed state Y = [x, v1, v2] (3, N).

    sign is the species sign +1 or -1, or an (N,) array of them, one per
    node, so one batch can carry both species; anything else is a
    ConfigError.  The sign only multiplies the force, and a product with
    +-1 is exact, so a node's derivative does not depend on the batch it
    rides in.
    """
    sign = species_sign(sign)
    zero_fields = fields.is_zero
    e_coeffs = fields.E1_series.coeffs
    b_coeffs = fields.B_series.coeffs
    omega = 2.0 * np.pi / fields.period

    def rhs(Y: np.ndarray) -> np.ndarray:
        x, v1, v2 = Y
        g = np.sqrt(1.0 + v1 * v1 + v2 * v2)
        vh1 = v1 / g
        out = np.empty_like(Y)
        out[0] = vh1
        if zero_fields:
            out[1] = 0.0
            out[2] = 0.0
        else:
            z = np.exp(1j * omega * x)
            E = horner_eval(e_coeffs, z)
            B = horner_eval(b_coeffs, z)
            out[1] = sign * (E + (v2 / g) * B)
            out[2] = -sign * vh1 * B
        return out

    return rhs


def _midpoint_chain(Y, h, rhs, n, f0):
    hs = h / n
    z_prev = Y
    z_curr = Y + hs * f0
    for _ in range(n - 1):
        z_prev, z_curr = z_curr, z_prev + (2.0 * hs) * rhs(z_curr)
    return 0.5 * (z_curr + z_prev + hs * rhs(z_curr))


def _gbs6_step(Y, h, rhs):
    # Richardson extrapolation in h^2 over substep counts 2, 4, 6.
    f0 = rhs(Y)
    t1 = _midpoint_chain(Y, h, rhs, 2, f0)
    t2 = _midpoint_chain(Y, h, rhs, 4, f0)
    t3 = _midpoint_chain(Y, h, rhs, 6, f0)
    t21 = t2 + (t2 - t1) / 3.0
    t31 = t3 + (t3 - t2) / 1.25
    return t31 + (t31 - t21) / 8.0


def make_stepper(fields: FieldProfile, sign):
    """One-step map (Y, h) -> Y_next; h may be a scalar or per-node array.

    sign is a scalar or a per-node array as in make_rhs; with an array the
    stepper only takes batches of that many nodes, so a caller that drops
    nodes from its batch builds a new stepper on the surviving signs.
    """
    rhs = make_rhs(fields, sign)
    return lambda Y, h: _gbs6_step(Y, h, rhs)


# ---------------------------------------------------------------------------
# orbit detection


# a section crossing counts once the node has moved 10 * _RETURN_TOL *
# period away, and a refined return whose relative residual exceeds
# 100 * _RETURN_TOL does not close the orbit
_RETURN_TOL = 1e-8


def _wrap_centered(dx: np.ndarray, period: float) -> np.ndarray:
    return np.mod(dx + 0.5 * period, period) - 0.5 * period


def orbit_table(x0, v10, v20, fields: FieldProfile, sign, dt: float,
                horizon: float = 200.0) -> OrbitTable:
    """Classify the orbit through every start point of a batch.

    Integrates forward at the fixed step dt looking for the first crossing
    of the section {x = x0 (mod P), sign(v1) = sign(v1(0))}; for starts
    with v1 ~ 0 the section {v1 = 0} near x0 is used instead.  Detected
    crossings are refined by bisection inside the bracketing step.  Orbits
    that do not return within the horizon are flagged not-found.

    sign is the species sign, or an (N,) array of signs so that one batch
    classifies both species.  A node leaves the batch as soon as its
    return is bracketed, so the batch shrinks as orbits close and the
    number of steps is set by the longest return; a node's own arithmetic
    is the same in any batch.
    """
    X0 = np.asarray(x0, dtype=float).ravel()
    V10 = np.asarray(v10, dtype=float).ravel()
    V20 = np.asarray(v20, dtype=float).ravel()
    N = X0.size
    period = fields.period
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if dt >= period / 8.0:
        raise ConfigError("dt too large for reliable section detection")
    signs = species_sign(sign)
    if np.ndim(signs) == 0:
        signs = np.full(N, float(signs))
    elif signs.shape != (N,):
        raise ConfigError(f"need one species sign per node, got "
                          f"{signs.shape} for {N} nodes")

    step = make_stepper(fields, signs)
    Y = np.array([X0.copy(), V10.copy(), V20.copy()])
    g0 = lorentz_factor(V10, V20)
    vh10 = V10 / g0
    use_v1_section = np.abs(vh10) < 1e-8
    sig0 = np.where(V10 >= 0.0, 1.0, -1.0)

    n_steps = int(np.ceil(horizon / dt))
    done = np.zeros(N, dtype=bool)
    anchor_Y = np.zeros((3, N))
    anchor_s = np.zeros(N)

    # per-node state of the nodes still in the batch
    alive = np.arange(N)
    x_ref, sig, v1sec = X0, sig0, use_v1_section
    departed = np.zeros(N, dtype=bool)
    xi_prev = np.zeros(N)
    v1_prev = V10.copy()
    for i in range(1, n_steps + 1):
        Y_new = step(Y, dt)
        xi = _wrap_centered(Y_new[0] - x_ref, period)
        departed |= np.abs(xi) > 10.0 * _RETURN_TOL * period
        if i > 2:
            flip_x = (xi_prev * xi <= 0.0) & (np.abs(xi_prev) < 0.25 * period) \
                & (np.abs(xi) < 0.25 * period) & (Y_new[1] * sig >= 0.0)
            flip_v = (v1_prev * Y_new[1] <= 0.0) & (np.abs(xi) < 0.125 * period)
            hit = np.where(v1sec, flip_v, flip_x) & departed
            if np.any(hit):
                returned = alive[hit]
                anchor_Y[:, returned] = Y[:, hit]
                anchor_s[returned] = (i - 1) * dt
                done[returned] = True
                keep = ~hit
                if not np.any(keep):
                    break
                alive = alive[keep]
                x_ref, sig, v1sec = x_ref[keep], sig[keep], v1sec[keep]
                departed = departed[keep]
                Y_new, xi = Y_new[:, keep], xi[keep]
                step = make_stepper(fields, signs[alive])
        Y = Y_new
        xi_prev = xi
        v1_prev = Y_new[1].copy()

    tau = np.full(N, np.nan)
    winding = np.zeros(N, dtype=int)
    residual = np.full(N, np.nan)
    found = done.copy()
    if np.any(done):
        idx = np.nonzero(done)[0]
        step = make_stepper(fields, signs[idx])
        Ya = anchor_Y[:, idx]
        lo = np.zeros(idx.size)
        hi = np.full(idx.size, dt)
        v1sec = use_v1_section[idx]
        # bisection on the signed section coordinate inside the bracket
        xi_lo = _wrap_centered(Ya[0] - X0[idx], period)
        f_lo = np.where(v1sec, Ya[1], xi_lo)
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            Ym = step(Ya, mid)
            xi_m = _wrap_centered(Ym[0] - X0[idx], period)
            f_m = np.where(v1sec, Ym[1], xi_m)
            take_lo = f_lo * f_m > 0.0
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
            f_lo = np.where(take_lo, f_m, f_lo)
        theta = 0.5 * (lo + hi)
        Yr = step(Ya, theta)
        tau[idx] = anchor_s[idx] + theta
        winding[idx] = np.rint((Yr[0] - X0[idx]) / period).astype(int)
        dxi = _wrap_centered(Yr[0] - X0[idx], period) / period
        dv1 = (Yr[1] - V10[idx]) / (1.0 + np.abs(V10[idx]))
        dv2 = (Yr[2] - V20[idx]) / (1.0 + np.abs(V20[idx]))
        res = np.sqrt(dxi * dxi + dv1 * dv1 + dv2 * dv2)
        residual[idx] = res
        bad = res > 100.0 * _RETURN_TOL
        found[idx[bad]] = False
    return OrbitTable(tau=tau, winding=winding, residual=residual, found=found)
