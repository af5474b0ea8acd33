import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from vmstab.equilibrium import (FieldProfile, VelocityQuadrature, invariants_of,
                                lorentz_factor, moments, preset_equilibrium,
                                quadrature_error_estimate, species_from_catalog)
from vmstab.errors import ConfigError, QuadratureTailError
from vmstab.fourier import PeriodicSeries


def _empty_like(profile):
    zero = lambda e, p: np.zeros(np.broadcast(np.asarray(e), np.asarray(p)).shape)
    return replace(profile, name="empty", mu=zero, mu_e=zero, mu_p=zero)


@pytest.fixture(scope="module")
def maxwellian():
    return species_from_catalog("relativistic-maxwellian")


@pytest.fixture(scope="module")
def zero_fields():
    return FieldProfile.zero(2.0 * np.pi, 16)


def test_single_species_density_matches_radial_reduction(maxwellian, zero_fields):
    # mu = e^{-<v>} depends on speed alone, so the 2D integral reduces to
    # 2 pi * int_1^inf u e^{-u} du; independent 1D rule is the oracle
    ref = 2.0 * np.pi * quad(lambda u: u * np.exp(-u), 1.0, np.inf)[0]
    q = VelocityQuadrature.build(maxwellian.nv_hint, maxwellian.suggest_v_max())
    rho, j2 = moments(maxwellian, _empty_like(maxwellian), zero_fields,
                      zero_fields.x, q)
    assert abs(rho[0] - ref) < 1e-2 * ref
    assert np.ptp(rho) == 0.0          # x-independent at zero fields
    assert np.max(np.abs(j2)) < 1e-14  # odd integrand in v2


@pytest.mark.parametrize("name,kw", [
    ("relativistic-maxwellian", {}),
    ("bimaxwellian", dict(p_shift=2.0, p_width=2.0)),
    ("shifted-maxwellian", dict(p_shift=1.0, p_width=1.0)),
])
def test_doubling_resolution_stays_below_reported_estimate(name, kw, zero_fields):
    prof = species_from_catalog(name, **kw)
    empty = _empty_like(prof)
    v_max = prof.suggest_v_max()
    q1 = VelocityQuadrature.build(prof.nv_hint, v_max)
    q2 = VelocityQuadrature.build(2 * prof.nv_hint, v_max)
    r1, _ = moments(prof, empty, zero_fields, zero_fields.x, q1)
    r2, _ = moments(prof, empty, zero_fields, zero_fields.x, q2)
    est = quadrature_error_estimate(prof, empty, zero_fields, zero_fields.x, q1)
    assert np.max(np.abs(r1 - r2)) < est


def test_undersized_velocity_domain_raises(maxwellian, zero_fields):
    q = VelocityQuadrature.build(16, 2.0)
    with pytest.raises(QuadratureTailError):
        moments(maxwellian, _empty_like(maxwellian), zero_fields, zero_fields.x, q)


def test_unknown_catalog_entries_rejected():
    with pytest.raises(ConfigError):
        species_from_catalog("maxwellian")          # not a catalog name
    with pytest.raises(ConfigError):
        species_from_catalog("relativistic-maxwellian", bate=2.0)


def test_alpha_must_exceed_two():
    with pytest.raises(ConfigError):
        species_from_catalog("relativistic-maxwellian", alpha=1.5)


def test_preset_consistency_residuals():
    # identical-pair presets cancel pointwise, so both field equations hold
    # exactly; the prescribed well keeps its vacuum residual b_amp (2pi/P)^2
    # because an isotropic pair carries no transverse current
    assert preset_equilibrium("maxwellian-pair").consistency_residual == 0.0
    assert preset_equilibrium("bimaxwellian-pair").consistency_residual == 0.0
    assert preset_equilibrium("drifting-pair").consistency_residual == 0.0
    well = preset_equilibrium("magnetic-well", b_amp=0.4)
    assert abs(well.consistency_residual - 0.4) < 1e-12
    weibel = preset_equilibrium("weibel-well")
    assert 0.0 < weibel.consistency_residual < 0.2


def test_preset_rejects_unknown_names_and_params():
    with pytest.raises(ConfigError):
        preset_equilibrium("tokamak")
    with pytest.raises(ConfigError):
        preset_equilibrium("maxwellian-pair", b_amp=0.1)


def test_field_profile_csv_round_trip(tmp_path):
    P = 2.0 * np.pi
    phi = PeriodicSeries.from_coefficients([0.0, 0.125 - 0.25j], P)
    psi = PeriodicSeries.from_coefficients([0.0, -0.2j], P)   # 0.2 sin x
    prof = FieldProfile.from_series(phi, psi, 24)
    path = tmp_path / "fields.csv"
    prof.to_csv(path)
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert back.dtype.names == ("x", "phi0", "psi0", "E1_0", "B0")
    for name in back.dtype.names:
        assert np.array_equal(back[name], getattr(prof, name))


def test_invariants_of_forms():
    P = 2.0 * np.pi
    psi = PeriodicSeries.from_coefficients([0.0, -0.4j], P)   # psi = 0.4 sin x
    fields = FieldProfile.from_series(PeriodicSeries.from_coefficients([0.3], P), psi, 16)
    e, p = invariants_of(1.0, 2.0, -1.0, fields, +1)
    assert np.isclose(e, lorentz_factor(2.0, -1.0) + 0.3)
    assert np.isclose(p, -1.0 + 0.4 * np.sin(1.0))
    e2, p2 = invariants_of(1.0, 2.0, -1.0, fields, -1)
    assert np.isclose(e2, lorentz_factor(2.0, -1.0) - 0.3)
    assert np.isclose(p2, -1.0 - 0.4 * np.sin(1.0))


@given(e=st.floats(0.0, 40.0), p=st.floats(-20.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_catalog_derivatives_sit_under_decay_envelope(e, p):
    prof = species_from_catalog("bimaxwellian", p_shift=2.0, p_width=2.0)
    lhs = abs(prof.mu_e(e, p)) + abs(prof.mu_p(e, p))
    assert lhs <= prof.c * (1.0 + abs(e)) ** (-prof.alpha) + 1e-300
