import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from vmstab.equilibrium import FieldProfile, preset_equilibrium, invariants_of
from vmstab.errors import ConfigError
from vmstab import trajectories
from vmstab.trajectories import make_rhs, make_stepper, orbit_table


@pytest.fixture(scope="module")
def well():
    return preset_equilibrium("magnetic-well", b_amp=0.4, nx=16)


def _integrate(start, s, fields, dt):
    """State (x, v1, v2) after time s in ceil(|s|/dt) equal fixed steps,
    and the largest |e - e0| or |p - p0| seen at any step."""
    Y = np.array(start, dtype=float).reshape(3, 1)
    n = int(np.ceil(abs(s) / dt))
    h = s / n
    step = make_stepper(fields, +1)
    e0, p0 = invariants_of(Y[0], Y[1], Y[2], fields, +1)
    drift = 0.0
    for _ in range(n):
        Y = step(Y, h)
        e, p = invariants_of(Y[0], Y[1], Y[2], fields, +1)
        drift = max(drift, float(np.max(np.abs(e - e0))),
                    float(np.max(np.abs(p - p0))))
    return Y[:, 0], drift


def _orbit(start, fields, horizon=200.0):
    x, v1, v2 = start
    return orbit_table([x], [v1], [v2], fields, +1, 1e-2, horizon=horizon)


def test_zero_field_flow_is_free_streaming():
    fields = FieldProfile.zero(2.0 * np.pi, 8)
    vhat1 = 0.8 / np.sqrt(1 + 0.64 + 0.09)
    (x, v1, v2), _ = _integrate((1.0, 0.8, -0.3), -5.0, fields, 1e-2)
    assert np.isclose(x % (2.0 * np.pi), (1.0 - 5.0 * vhat1) % (2.0 * np.pi),
                      atol=1e-12)
    assert v1 == 0.8 and v2 == -0.3


def test_invariants_conserved_at_default_step(well):
    _, drift = _integrate((1.3, 1.8, -0.9), -30.0, well.fields, 1e-2)
    assert drift < 1e-9


def test_halving_dt_improves_drift_by_fifth_order(well):
    # measured in the truncation-dominated regime; near the default step the
    # error sits on the roundoff floor and ratios are meaningless
    start = (1.3, 1.8, -0.9)
    _, d_coarse = _integrate(start, -10.0, well.fields, 0.5)
    _, d_fine = _integrate(start, -10.0, well.fields, 0.25)
    assert d_coarse / d_fine >= 32.0


def test_flow_converges_at_sixth_order(well):
    start = (0.7, 1.5, 0.4)
    ref, _ = _integrate(start, -8.0, well.fields, 1e-3)
    errs = []
    for dt in (0.4, 0.2, 0.1):
        out, _ = _integrate(start, -8.0, well.fields, dt)
        errs.append(float(np.max(np.abs(out - ref))))
    assert errs[0] / errs[1] > 40.0
    assert errs[1] / errs[2] > 40.0


def _orbit_period_oracle(eq, x0, v10, v20, sign=+1):
    """Quadrature of ds = e dx / v1(x) using conservation of (e, p).

    With phi = 0 the speed is fixed, v2(x) = p - psi(x), and
    v1(x)^2 = e^2 - 1 - v2(x)^2 =: W(x).  Trapped orbits bounce between
    simple roots of W; passing orbits wind once per period in x.
    """
    e, p = invariants_of(x0, v10, v20, eq.fields, sign)
    P = eq.fields.period

    def W(x):
        v2 = p - sign * eq.fields.psi(np.asarray([x]))[0]
        return e * e - 1.0 - v2 * v2

    if W(0.0) > 0 and all(W(x) > 0 for x in np.linspace(0, P, 257)):
        val, _ = quad(lambda x: e / np.sqrt(W(x)), 0.0, P, limit=200)
        return val, "passing"
    # bracket the two turning points around x0 on a fine mesh
    xs = np.linspace(x0 - P, x0 + P, 4001)
    Ws = np.array([W(x) for x in xs])
    inside = np.nonzero(Ws > 0)[0]
    i0 = inside[np.argmin(np.abs(xs[inside] - x0))]
    lo = i0
    while Ws[lo] > 0:
        lo -= 1
    hi = i0
    while Ws[hi] > 0:
        hi += 1
    from scipy.optimize import brentq
    x_lo = brentq(W, xs[lo], xs[lo + 1], xtol=1e-14)
    x_hi = brentq(W, xs[hi - 1], xs[hi], xtol=1e-14)
    val, _ = quad(lambda x: e / np.sqrt(W(x)), x_lo, x_hi,
                  points=[x_lo, x_hi], limit=400)
    return 2.0 * val, "trapped"


def test_passing_orbit_period_matches_quadrature_oracle(well):
    start = (0.0, 2.0, 0.3)
    tab = _orbit(start, well.fields)
    tau_ref, kind = _orbit_period_oracle(well, *start)
    assert kind == "passing" and tab.found[0]
    assert tab.winding[0] == 1
    assert abs(tab.tau[0] - tau_ref) < 1e-6 * tau_ref


def test_trapped_orbit_period_matches_quadrature_oracle(well):
    # speed 0.5 and p = 0.45 bounce inside the 0.4 sin x well
    start = (0.0, np.sqrt(0.25 - 0.45 ** 2), 0.45)
    tab = _orbit(start, well.fields)
    tau_ref, kind = _orbit_period_oracle(well, *start)
    assert kind == "trapped" and tab.found[0]
    assert tab.winding[0] == 0
    assert abs(tab.tau[0] - tau_ref) < 1e-6 * tau_ref


def test_turning_point_start_uses_velocity_section(well):
    # v1 = 0 starts exactly at a bounce point where the spatial section is
    # degenerate; the same orbit must still be closed with the same period
    mid = (0.0, np.sqrt(0.25 - 0.45 ** 2), 0.45)
    ref = _orbit(mid, well.fields)
    e, p = invariants_of(*mid, well.fields, +1)
    # walk x until W = e^2-1-(p-psi)^2 vanishes: that is the turning point
    from scipy.optimize import brentq
    W = lambda x: e * e - 1.0 - (p - well.fields.psi(np.asarray([x]))[0]) ** 2
    x_turn = brentq(W, 0.0, -2.0, xtol=1e-14)
    v2_turn = p - well.fields.psi(np.asarray([x_turn]))[0]
    tab = _orbit((x_turn, 0.0, v2_turn), well.fields)
    assert tab.found[0] and tab.winding[0] == 0
    assert abs(tab.tau[0] - ref.tau[0]) < 1e-6 * ref.tau[0]


def test_orbit_table_batch_consistency(well):
    xs = np.array([0.0, 1.0, 2.0, 4.0])
    v1s = np.array([0.3, 1.0, -0.5, 2.0])
    v2s = np.array([-0.2, 0.5, 0.1, -1.0])
    tab = orbit_table(xs, v1s, v2s, well.fields, +1, 1e-2)
    assert tab.found.all()
    for j in range(4):
        single = _orbit((xs[j], v1s[j], v2s[j]), well.fields)
        assert abs(tab.tau[j] - single.tau[0]) < 1e-10 * single.tau[0]
        assert tab.winding[j] == single.winding[0]


def test_mixed_sign_batch_matches_single_species_tables(well):
    # one batch carries both species; each node's table entry is bitwise
    # the one its own species' batch gives
    xs = np.array([0.0, 1.0, 2.0, 4.0, 5.5, 3.0])
    v1s = np.array([0.3, 1.0, -0.5, 2.0, 0.0, -1.2])
    v2s = np.array([-0.2, 0.5, 0.1, -1.0, 0.45, 0.3])
    signs = np.array([+1, -1, -1, +1, -1, +1])
    mixed = orbit_table(xs, v1s, v2s, well.fields, signs, 1e-2)
    for s in (+1, -1):
        m = signs == s
        single = orbit_table(xs[m], v1s[m], v2s[m], well.fields, s, 1e-2)
        assert np.array_equal(mixed.tau[m], single.tau, equal_nan=True)
        assert np.array_equal(mixed.winding[m], single.winding)
        assert np.array_equal(mixed.residual[m], single.residual,
                              equal_nan=True)
        assert np.array_equal(mixed.found[m], single.found)


def test_bad_species_signs_rejected(well):
    for bad in (0, 2, np.array([1, 0, -1]), np.array([1.0, 2.0])):
        with pytest.raises(ConfigError):
            make_rhs(well.fields, bad)
    # a sign array must give one sign per start point
    with pytest.raises(ConfigError):
        orbit_table([0.0], [1.0], [0.0], well.fields, np.array([1, -1]), 1e-2)


def test_returned_orbits_leave_the_batch(well, monkeypatch):
    # periods from about 7 to about 33: nodes that have returned stop
    # stepping, so the batch is narrower than N on most step calls
    widths = []
    real = trajectories.make_stepper

    def counting(fields, sign):
        step = real(fields, sign)

        def counted(Y, h):
            widths.append(Y.shape[1])
            return step(Y, h)
        return counted

    monkeypatch.setattr(trajectories, "make_stepper", counting)
    xs = np.array([0.0, 1.0, 2.0, 4.0])
    v1s = np.array([3.0, 1.0, 0.3, 0.05])
    v2s = np.array([0.0, 0.5, -0.2, 0.45])
    tab = orbit_table(xs, v1s, v2s, well.fields, +1, 1e-2)
    assert tab.found.all() and np.ptp(tab.tau) > 2.0 * np.min(tab.tau)
    assert sum(widths) < xs.size * len(widths)


def test_no_return_raises_within_short_horizon(well):
    tab = _orbit((0.0, 0.05, 0.45), well.fields, horizon=1.0)
    assert not tab.found[0]


def test_oversized_table_step_rejected(well):
    for dt in (2.0, 0.0):
        with pytest.raises(ConfigError):
            orbit_table(np.array([0.0]), np.array([1.0]), np.array([0.0]),
                        well.fields, +1, dt)


@given(x=st.floats(0.0, 6.28), v1=st.floats(-2.0, 2.0), v2=st.floats(-2.0, 2.0))
@settings(max_examples=15, deadline=None)
def test_invariants_conserved_from_any_start(well, x, v1, v2):
    _, drift = _integrate((x, v1, v2), -5.0, well.fields, 1e-2)
    assert drift < 1e-9
