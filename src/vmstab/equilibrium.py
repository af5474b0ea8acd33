"""Periodic two-species kinetic equilibria on a 1.5-dimensional phase space.

A state lives at (x, v1, v2) with x on a period cell [0, P) and unbounded
momenta v = (v1, v2).  Equilibria are built from a pair of species profiles
mu(e, p) evaluated on the pointwise invariants

    e = <v> + sign * phi0(x),   p = v2 + sign * psi0(x),

where <v> = sqrt(1 + v1^2 + v2^2), sign = +1 / -1 tags the species, and the
potentials generate the static fields E1 = -phi0', B = psi0'.

The module owns the velocity quadrature used everywhere, the built-in species
catalog, the field-profile container, and the named presets, each of which
records how far its fields are from solving the static field equations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, QuadratureTailError
from .fourier import PeriodicSeries, spectral_derivative, uniform_grid

# ---------------------------------------------------------------------------
# kinematics


def lorentz_factor(v1, v2):
    """<v> = sqrt(1 + v1^2 + v2^2)."""
    return np.sqrt(1.0 + v1 * v1 + v2 * v2)


def vhat(v1, v2):
    """Unit-bounded velocities (v1, v2)/<v>."""
    g = lorentz_factor(v1, v2)
    return v1 / g, v2 / g


# ---------------------------------------------------------------------------
# species profiles


@dataclass(frozen=True)
class SpeciesProfile:
    """One species: distribution mu(e, p) with exact partial derivatives.

    mu, mu_e, mu_p are vectorized callables of (e, p).  alpha and c define
    the decay envelope c (1 + |e|)^(-alpha) that must dominate
    |mu_e| + |mu_p|; alpha > 2 is required for the weighted phase-space
    integrals to close.
    """

    name: str
    mu: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mu_e: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mu_p: Callable[[np.ndarray, np.ndarray], np.ndarray]
    alpha: float
    c: float
    # Gauss-Legendre points per axis that resolve this profile; narrow
    # momentum features (gaussian bumps) need more than a bare maxwellian.
    nv_hint: int = 24

    def __post_init__(self):
        if not self.alpha > 2.0:
            raise ConfigError(f"species {self.name!r}: alpha must exceed 2, got {self.alpha}")
        if not self.c > 0.0:
            raise ConfigError(f"species {self.name!r}: c must be positive, got {self.c}")

    def suggest_v_max(self, tol: float = 2e-3) -> float:
        """Velocity cutoff that keeps the truncated mass below tol.

        Scans |mu| + |mu_e| + |mu_p| on a 2D velocity mesh out to |v|=60 and
        returns the smallest square half-width outside which the integrated
        mass stays under tol relative to the total, with a small pad.
        Shifted profiles decay slowly along ridges away from the axes, so a
        full 2D scan is needed.
        """
        v1 = np.linspace(0.0, 60.0, 601)
        v2 = np.linspace(-60.0, 60.0, 1201)
        V1, V2 = np.meshgrid(v1, v2, indexing="ij")
        g = lorentz_factor(V1, V2)
        vals = np.zeros_like(g)
        # invariants at zero potential, both charge signs
        for p in (V2, -V2):
            vals += np.abs(self.mu(g, p)) + np.abs(self.mu_e(g, p)) + np.abs(self.mu_p(g, p))
        total = vals.sum()
        if total == 0.0:
            return 1.0
        radius = np.maximum(V1, np.abs(V2)).ravel()
        order = np.argsort(radius)
        outside = total - np.cumsum(vals.ravel()[order])
        idx = np.searchsorted(-outside, -tol * total)
        r = radius[order[min(idx, radius.size - 1)]]
        return float(max(1.0, 1.02 * r + 0.1))


def _calibrate_c(mu_e, mu_p, alpha: float, e_hi: float, p_hi: float) -> float:
    """Smallest envelope amplitude dominating |mu_e| + |mu_p|, doubled."""
    e = np.linspace(0.0, e_hi, 401)
    p = np.linspace(-p_hi, p_hi, 401)
    E, P = np.meshgrid(e, p, indexing="ij")
    ratio = (np.abs(mu_e(E, P)) + np.abs(mu_p(E, P))) * (1.0 + np.abs(E)) ** alpha
    return float(2.0 * ratio.max() + 1e-300)


def species_from_catalog(name: str, **params) -> SpeciesProfile:
    """Build a catalog species by name.

    Catalog entries:
      relativistic-maxwellian: mu = A exp(-beta e)
      shifted-maxwellian:      mu = A exp(-beta e) exp(-gamma (p - p0)^2)
      bimaxwellian:            mu = A exp(-beta e) * (gauss(p-p0)+gauss(p+p0))/2
    Optional keys alpha (default 3.0) and c override the decay envelope.
    """
    alpha = float(params.pop("alpha", 3.0))
    c_user = params.pop("c", None)
    A = float(params.pop("amplitude", 1.0))
    beta = float(params.pop("beta", 1.0))

    if name == "relativistic-maxwellian":
        unknown = set(params)
        if unknown:
            raise ConfigError(f"unknown parameters for {name}: {sorted(unknown)}")

        def mu(e, p):
            return A * np.exp(-beta * e) * np.ones_like(np.asarray(p, dtype=float))

        def mu_e(e, p):
            return -beta * mu(e, p)

        def mu_p(e, p):
            return np.zeros(np.broadcast(np.asarray(e), np.asarray(p)).shape)

        p_hi = 10.0

    elif name == "shifted-maxwellian":
        gamma = float(params.pop("p_width", 1.0))
        p0 = float(params.pop("p_shift", 0.0))
        unknown = set(params)
        if unknown:
            raise ConfigError(f"unknown parameters for {name}: {sorted(unknown)}")

        def mu(e, p):
            return A * np.exp(-beta * e) * np.exp(-gamma * (p - p0) ** 2)

        def mu_e(e, p):
            return -beta * mu(e, p)

        def mu_p(e, p):
            return -2.0 * gamma * (p - p0) * mu(e, p)

        p_hi = abs(p0) + max(10.0, 8.0 / np.sqrt(gamma))

    elif name == "bimaxwellian":
        gamma = float(params.pop("p_width", 1.0))
        p0 = float(params.pop("p_shift", 0.0))
        unknown = set(params)
        if unknown:
            raise ConfigError(f"unknown parameters for {name}: {sorted(unknown)}")

        def _g(p, s):
            return np.exp(-gamma * (p - s) ** 2)

        def mu(e, p):
            return A * np.exp(-beta * e) * 0.5 * (_g(p, p0) + _g(p, -p0))

        def mu_e(e, p):
            return -beta * mu(e, p)

        def mu_p(e, p):
            return (A * np.exp(-beta * e) * 0.5
                    * (-2.0 * gamma) * ((p - p0) * _g(p, p0) + (p + p0) * _g(p, -p0)))

        p_hi = abs(p0) + max(10.0, 8.0 / np.sqrt(gamma))

    else:
        raise ConfigError(f"unknown species catalog name {name!r}")

    e_hi = max(30.0, 8.0 * (alpha + 1.0) / beta)
    c = float(c_user) if c_user is not None else _calibrate_c(mu_e, mu_p, alpha, e_hi, p_hi)
    if name == "relativistic-maxwellian":
        nv_hint = 24
    else:
        # gaussian momentum features of width 1/sqrt(2 gamma) need denser rules
        nv_hint = int(4 * np.ceil(max(32.0, 32.0 * np.sqrt(gamma)) / 4.0))
    return SpeciesProfile(name=name, mu=mu, mu_e=mu_e, mu_p=mu_p,
                          alpha=alpha, c=c, nv_hint=nv_hint)


# ---------------------------------------------------------------------------
# velocity quadrature


@dataclass(frozen=True)
class VelocityQuadrature:
    """Tensor Gauss-Legendre rule on the square [-v_max, v_max]^2.

    V1, V2, w are flattened (nv*nv,) node coordinates and weights;
    boundary is a mask of the outermost node ring used for tail estimates.
    """

    v_max: float
    nv: int
    V1: np.ndarray
    V2: np.ndarray
    w: np.ndarray
    boundary: np.ndarray
    ring2: np.ndarray
    ring_gap: float

    @classmethod
    def build(cls, nv: int, v_max: float) -> "VelocityQuadrature":
        if nv < 4:
            raise ConfigError(f"velocity quadrature needs nv >= 4, got {nv}")
        xg, wg = np.polynomial.legendre.leggauss(nv)
        nodes = xg * v_max
        wts = wg * v_max
        V1, V2 = np.meshgrid(nodes, nodes, indexing="ij")
        W = np.outer(wts, wts)
        edge = np.zeros((nv, nv), dtype=bool)
        edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
        inner = np.zeros((nv, nv), dtype=bool)
        inner[1, 1:-1] = inner[-2, 1:-1] = inner[1:-1, 1] = inner[1:-1, -2] = True
        return cls(v_max=float(v_max), nv=int(nv),
                   V1=V1.ravel(), V2=V2.ravel(), w=W.ravel(),
                   boundary=edge.ravel(), ring2=inner.ravel(),
                   ring_gap=float(nodes[-1] - nodes[-2]))

    def tail_estimate(self, values: np.ndarray) -> float:
        """Estimate of the mass ignored outside the square.

        Reads the decay length off the outer two node rings and charges the
        boundary maximum over one strip of that width around the perimeter.
        A non-decaying integrand gets the whole-square width, which is large
        enough to trip any sane tolerance.
        """
        m_b = float(np.max(np.abs(values[..., self.boundary]), initial=0.0))
        if m_b == 0.0:
            return 0.0
        m_i = float(np.max(np.abs(values[..., self.ring2]), initial=0.0))
        if m_i > m_b:
            ell = min(self.ring_gap / np.log(m_i / m_b), 2.0 * self.v_max)
        else:
            ell = 2.0 * self.v_max
        return m_b * 8.0 * self.v_max * ell


# ---------------------------------------------------------------------------
# field profiles


@dataclass(frozen=True)
class FieldProfile:
    """Static potentials and fields on the period cell.

    Grid arrays hold samples on the uniform x grid; trimmed trigonometric
    series provide pointwise evaluation along trajectories.  E1 = -phi0',
    B = psi0' by construction.
    """

    period: float
    x: np.ndarray
    phi0: np.ndarray
    psi0: np.ndarray
    E1_0: np.ndarray
    B0: np.ndarray
    phi_series: PeriodicSeries
    psi_series: PeriodicSeries
    E1_series: PeriodicSeries
    B_series: PeriodicSeries

    @classmethod
    def from_series(cls, phi: PeriodicSeries, psi: PeriodicSeries, nx: int) -> "FieldProfile":
        period = phi.period
        if psi.period != period:
            raise ConfigError("phi and psi series disagree on the period")
        x = uniform_grid(period, nx)
        dphi = phi.derivative()
        dpsi = psi.derivative()
        e1 = PeriodicSeries(period, -dphi.coeffs)
        return cls(period=period, x=x,
                   phi0=np.asarray(phi(x), dtype=float),
                   psi0=np.asarray(psi(x), dtype=float),
                   E1_0=np.asarray(e1(x), dtype=float),
                   B0=np.asarray(dpsi(x), dtype=float),
                   phi_series=phi, psi_series=psi,
                   E1_series=e1, B_series=dpsi)

    @classmethod
    def zero(cls, period: float, nx: int) -> "FieldProfile":
        z = PeriodicSeries.from_coefficients([0.0], period)
        return cls.from_series(z, z, nx)

    @property
    def is_zero(self) -> bool:
        return self.phi_series.is_zero(1e-300) and self.psi_series.is_zero(1e-300)

    def phi(self, x):
        return self.phi_series(x)

    def psi(self, x):
        return self.psi_series(x)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "phi0", "psi0", "E1_0", "B0"])
            for i in range(self.x.size):
                writer.writerow(["%.17g" % v for v in
                                 (self.x[i], self.phi0[i], self.psi0[i],
                                  self.E1_0[i], self.B0[i])])


# ---------------------------------------------------------------------------
# invariants and moments


def species_sign(sign):
    """A scalar species sign +1 or -1 as given, or a per-node array of them
    as floats; anything else is a ConfigError."""
    s = np.asarray(sign)
    if s.ndim == 0:
        if sign not in (+1, -1):
            raise ConfigError(f"species sign must be +1 or -1, got {sign}")
        return sign
    if s.dtype.kind not in "iuf" or not np.all(np.abs(s) == 1):
        raise ConfigError("per-node species signs must all be +1 or -1")
    return s.astype(float)


def invariants_of(x, v1, v2, fields: FieldProfile, sign):
    """Pointwise invariants (e, p) for the species tagged by sign, a scalar
    or a per-node array."""
    sign = species_sign(sign)
    e = lorentz_factor(v1, v2) + sign * fields.phi(x)
    p = v2 + sign * fields.psi(x)
    return e, p


@dataclass(frozen=True)
class EquilibriumSpec:
    """Species pair + fields + how badly they fail the static field equations.

    consistency_residual is the max-norm residual of the two periodic
    problems phi0'' = -rho0 and psi0'' = -j2_0; exactly consistent
    equilibria have residual at quadrature accuracy.
    """

    label: str
    plus: SpeciesProfile
    minus: SpeciesProfile
    fields: FieldProfile
    quad: VelocityQuadrature
    consistency_residual: float


def _species_integrals(profile: SpeciesProfile, fields: FieldProfile,
                       x: np.ndarray, quad: VelocityQuadrature, sign: float):
    """Per-species (integral of mu, integral of vhat2 mu) at each x."""
    g = lorentz_factor(quad.V1, quad.V2)[None, :]
    vh2 = (quad.V2 / lorentz_factor(quad.V1, quad.V2))[None, :]
    phi = np.asarray(fields.phi(x), dtype=float)[:, None]
    psi = np.asarray(fields.psi(x), dtype=float)[:, None]
    f = profile.mu(g + sign * phi, quad.V2[None, :] + sign * psi)
    return f, f @ quad.w, (f * vh2) @ quad.w


def quadrature_error_estimate(plus: SpeciesProfile, minus: SpeciesProfile,
                              fields: FieldProfile, x: np.ndarray,
                              quad: VelocityQuadrature) -> float:
    """Absolute error estimate for velocity integrals on this rule.

    Sum of the boundary-strip tail estimate (mass outside the square) and an
    embedded-rule term: the difference against a slightly coarser rule, which
    bounds the discretization error whenever convergence is monotone.
    """
    coarse = VelocityQuadrature.build(max(quad.nv - 4, 4), quad.v_max)
    est = 0.0
    for profile, sign in ((plus, 1.0), (minus, -1.0)):
        f, I, _ = _species_integrals(profile, fields, x, quad, sign)
        _, Ic, _ = _species_integrals(profile, fields, x, coarse, sign)
        est += quad.tail_estimate(f) + float(np.max(np.abs(I - Ic)))
    return est


def moments(plus: SpeciesProfile, minus: SpeciesProfile, fields: FieldProfile,
            x: np.ndarray, quad: VelocityQuadrature,
            tail_tol: float = 3e-2):
    """Charge density rho0(x) and transverse current j2_0(x).

    Integrates mu over the velocity square at each requested x; raises
    QuadratureTailError when the combined tail and discretization estimate
    is large relative to the species' own integrated magnitude.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    fp, Ip, Jp = _species_integrals(plus, fields, x, quad, 1.0)
    fm, Im, Jm = _species_integrals(minus, fields, x, quad, -1.0)
    scale = float(np.max((np.abs(fp) + np.abs(fm)) @ quad.w)) + 1e-300
    est = quadrature_error_estimate(plus, minus, fields, x, quad)
    if est > tail_tol * scale:
        raise QuadratureTailError(est, tail_tol * scale)
    return Ip - Im, Jp - Jm


def equilibrium_from_parts(label: str, plus: SpeciesProfile, minus: SpeciesProfile,
                           fields: FieldProfile, nv: Optional[int] = None,
                           v_max: Optional[float] = None,
                           tail_tol: float = 3e-2) -> EquilibriumSpec:
    """Assemble a spec and record its static-Maxwell consistency residual."""
    if v_max is None:
        v_max = max(plus.suggest_v_max(), minus.suggest_v_max())
    if nv is None:
        nv = max(plus.nv_hint, minus.nv_hint)
    quad = VelocityQuadrature.build(nv, v_max)
    rho, j2 = moments(plus, minus, fields, fields.x, quad, tail_tol=tail_tol)
    r_phi = spectral_derivative(fields.phi0, fields.period, 2) + rho
    r_psi = spectral_derivative(fields.psi0, fields.period, 2) + j2
    residual = float(max(np.max(np.abs(r_phi)), np.max(np.abs(r_psi))))
    return EquilibriumSpec(label=label, plus=plus, minus=minus, fields=fields,
                           quad=quad, consistency_residual=residual)


# ---------------------------------------------------------------------------
# equilibrium presets


def preset_equilibrium(name: str, period: float = 2.0 * np.pi, nx: int = 32,
                       nv: Optional[int] = None, v_max: Optional[float] = None,
                       **params) -> EquilibriumSpec:
    """Named ready-made equilibria used by tests, demos, and run configs.

    maxwellian-pair    identical isotropic pair, zero fields (exact)
    bimaxwellian-pair  identical p-bimodal pair, zero fields (exact);
                       p_shift controls the anisotropy drive
    drifting-pair      co-drifting shifted pair, zero fields (exact)
    magnetic-well      isotropic pair in a prescribed magnetic potential
                       psi0 = b_amp sin(2 pi x / P) (residual recorded)
    weibel-well        bimaxwellian pair in the same weak well; the well
                       splits the cosine/sine degeneracy of the zero-field
                       problem (residual recorded)
    """
    beta = float(params.pop("beta", 1.0))
    amplitude = float(params.pop("amplitude", 1.0))

    if name == "maxwellian-pair":
        if params:
            raise ConfigError(f"unknown parameters for {name}: {sorted(params)}")
        sp = species_from_catalog("relativistic-maxwellian", beta=beta, amplitude=amplitude)
        fields = FieldProfile.zero(period, nx)
        return equilibrium_from_parts(name, sp, sp, fields, nv=nv, v_max=v_max)

    if name == "bimaxwellian-pair":
        p_shift = float(params.pop("p_shift", 2.0))
        p_width = float(params.pop("p_width", 2.0))
        if params:
            raise ConfigError(f"unknown parameters for {name}: {sorted(params)}")
        sp = species_from_catalog("bimaxwellian", beta=beta, amplitude=amplitude,
                                  p_shift=p_shift, p_width=p_width)
        fields = FieldProfile.zero(period, nx)
        return equilibrium_from_parts(name, sp, sp, fields, nv=nv, v_max=v_max)

    if name == "drifting-pair":
        p_shift = float(params.pop("p_shift", 1.0))
        p_width = float(params.pop("p_width", 1.0))
        if params:
            raise ConfigError(f"unknown parameters for {name}: {sorted(params)}")
        sp = species_from_catalog("shifted-maxwellian", beta=beta, amplitude=amplitude,
                                  p_shift=p_shift, p_width=p_width)
        fields = FieldProfile.zero(period, nx)
        return equilibrium_from_parts(name, sp, sp, fields, nv=nv, v_max=v_max)

    if name in ("magnetic-well", "weibel-well"):
        b_amp = float(params.pop("b_amp", 0.4 if name == "magnetic-well" else 0.2))
        if name == "magnetic-well":
            if params:
                raise ConfigError(f"unknown parameters for {name}: {sorted(params)}")
            sp = species_from_catalog("relativistic-maxwellian", beta=beta,
                                      amplitude=amplitude)
        else:
            p_shift = float(params.pop("p_shift", 2.0))
            p_width = float(params.pop("p_width", 2.0))
            if params:
                raise ConfigError(f"unknown parameters for {name}: {sorted(params)}")
            sp = species_from_catalog("bimaxwellian", beta=beta, amplitude=amplitude,
                                      p_shift=p_shift, p_width=p_width)
        zero = PeriodicSeries.from_coefficients([0.0], period)
        # psi0 = b_amp sin(2 pi x/P): coefficient of e^{i k x} is -i b_amp
        psi = PeriodicSeries.from_coefficients([0.0, -1j * b_amp], period)
        fields = FieldProfile.from_series(zero, psi, nx)
        return equilibrium_from_parts(name, sp, sp, fields, nv=nv, v_max=v_max)

    raise ConfigError(f"unknown equilibrium preset {name!r}")
