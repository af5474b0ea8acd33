"""Ergodic-average operators on phase grids.

The weighted backward averages are checked against independent references:
the exact free-streaming symbol, constancy on functions of the invariants,
vanishing orbit averages of characters, and the norm bound of the
continuum operator.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmstab import averaging
from vmstab.averaging import (
    AveragingConfig,
    PhaseGrid,
    apply_QT_points,
    average_symbol_pack,
    orbit_summary,
    qt_operator_norm_probe,
)
from vmstab.equilibrium import VelocityQuadrature, invariants_of, preset_equilibrium
from vmstab.errors import ConfigError, DriftExceeded

# module-wide step: coarse enough to keep the suite quick, fine enough that
# the trapezoid term (dt * k)^2 / 12 stays far below every tolerance used here
CFG = AveragingConfig(dt=2e-3)

# sampling rules for the phase grids: much coarser than the moment
# quadrature the equilibria were built with, which is fine because the
# averaging layer only reads node coordinates and positive weights
QUAD_FREE = VelocityQuadrature.build(4, 8.0)
QUAD_WELL = VelocityQuadrature.build(6, 7.0)
QUAD_SMALL = VelocityQuadrature.build(4, 7.0)


@pytest.fixture(scope="module")
def free_eq():
    eq = preset_equilibrium("maxwellian-pair", nx=16)
    assert eq.fields.is_zero
    return eq


@pytest.fixture(scope="module")
def free_grid(free_eq):
    return PhaseGrid.from_equilibrium(free_eq, n_x=8, quad=QUAD_FREE)


@pytest.fixture(scope="module")
def well_eq():
    return preset_equilibrium("magnetic-well", nx=16)


@pytest.fixture(scope="module")
def well_grid(well_eq):
    return PhaseGrid.from_equilibrium(well_eq, n_x=6, quad=QUAD_WELL)


@pytest.fixture(scope="module")
def small_grid(well_eq):
    # 4 x-nodes times a 4x4 velocity rule: cheap enough for convergence scans
    return PhaseGrid.from_equilibrium(well_eq, n_x=4, quad=QUAD_SMALL)


def _vhat(v1, v2):
    g = np.sqrt(1.0 + v1 * v1 + v2 * v2)
    return v1 / g, v2 / g


def _block(*symbols):
    """Block evaluator stacking scalar symbols as rows."""
    return lambda x, v1, v2: np.stack(
        [np.asarray(g(x, v1, v2), dtype=complex) for g in symbols])


def _average(g, T, grid, sign, fields, cfg):
    """The entry point applied to one scalar symbol."""
    return average_symbol_pack(_block(g), T, grid, sign, fields, cfg)


def _character(k, period):
    w = 2.0 * np.pi * k / period
    return lambda x, v1, v2: np.exp(1j * w * x)


def _invariant_symbol(fields, sign):
    def g(x, v1, v2):
        e, p = invariants_of(x, v1, v2, fields, sign)
        return np.exp(-e) * (1.0 + 0.3 * np.sin(p))
    return g


def _smooth_symbol(period):
    w = 2.0 * np.pi / period
    def g(x, v1, v2):
        vh1, vh2 = _vhat(v1, v2)
        return np.exp(1j * w * x) * vh2 + 0.5 * np.cos(w * x) + 0.2 * vh1
    return g


# ---------------------------------------------------------------------------
# grid construction


def test_phase_grid_layout_and_weights(well_eq):
    grid = PhaseGrid.from_equilibrium(well_eq, n_x=6, quad=QUAD_WELL)
    nvv = QUAD_WELL.nv ** 2
    assert grid.size == 6 * nvv
    assert grid.X.shape == grid.V1.shape == grid.W.shape == (grid.size,)
    # x-major layout: one full velocity block per x node
    assert np.all(grid.X[:nvv] == grid.x[0])
    assert np.array_equal(grid.V1[:nvv], QUAD_WELL.V1)
    # product weights integrate 1 exactly over the slab
    box = grid.period * (2.0 * QUAD_WELL.v_max) ** 2
    assert np.isclose(grid.W.sum(), box, rtol=1e-12)
    assert np.all(grid.W > 0.0)
    # norm weights: the species envelope evaluated at the node invariants
    for sign, w in ((+1, grid.w_plus), (-1, grid.w_minus)):
        prof = well_eq.plus if sign > 0 else well_eq.minus
        e, _ = invariants_of(grid.X, grid.V1, grid.V2, well_eq.fields, sign)
        assert np.allclose(w, prof.c * (1.0 + np.abs(e)) ** (-prof.alpha), rtol=1e-14)
        assert np.all(w > 0.0)
    # weighted norm agrees with the explicit sum
    vals = np.exp(1j * grid.X) * grid.V2
    direct = np.sqrt(np.sum(grid.W * grid.w_plus * np.abs(vals) ** 2))
    assert np.isclose(grid.weighted_norm(vals, +1), direct, rtol=1e-14)
    with pytest.raises(ConfigError):
        grid.norm_weight(0)


# ---------------------------------------------------------------------------
# finite-horizon averages


def test_qt_constant_is_one(well_eq, well_grid):
    one = lambda x, v1, v2: np.ones_like(x)
    s = _average(one, 1.0, well_grid, +1, well_eq.fields, CFG)
    assert s.T == 1.0
    assert s.tail_bound <= CFG.epsilon_tail * (1.0 + 1e-12)
    assert np.max(np.abs(s.values[0] - 1.0)) <= 2e-10


def test_qt_free_streaming_matches_symbol(free_eq, free_grid):
    cfg = replace(CFG, dt=5e-4)
    period = free_eq.fields.period
    symbols = _block(*(_character(k, period) for k in (1, 2, 3)))
    vh1, _ = _vhat(free_grid.V1, free_grid.V2)
    worst = 0.0
    for T in (0.1, 1.0, 10.0):
        out = average_symbol_pack(symbols, T, free_grid, +1, free_eq.fields, cfg)
        for k, values in zip((1, 2, 3), out.values):
            w = 2.0 * np.pi * k / period
            expected = np.exp(1j * w * free_grid.X) / (1.0 + 1j * w * vh1 * T)
            rel = np.max(np.abs(values - expected) / np.abs(expected))
            worst = max(worst, rel)
    assert worst <= 1e-6


def test_qt_fixes_functions_of_invariants(well_eq, well_grid):
    g = _invariant_symbol(well_eq.fields, -1)
    expected = g(well_grid.X, well_grid.V1, well_grid.V2)
    s = _average(g, 0.7, well_grid, -1, well_eq.fields, CFG)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(s.values[0] - expected)) <= 1e-8 * scale


def test_qt_rejects_bad_horizon(well_eq, well_grid):
    one = lambda x, v1, v2: np.ones_like(x)
    for T in (0.0, -1.0, -np.inf, np.nan):
        with pytest.raises(ConfigError):
            _average(one, T, well_grid, +1, well_eq.fields, CFG)


def test_pack_rejects_unvectorized_symbols(well_eq, small_grid):
    scalar = lambda x, v1, v2: 1.0
    with pytest.raises(ConfigError, match="vectorized"):
        _average(scalar, 0.1, small_grid, +1, well_eq.fields, CFG)


def test_qt_points_free_streaming_off_grid(free_eq):
    # point-cloud variant against the same closed form, at coordinates that
    # lie on no grid, exercising the no-folding full-window path
    cfg = replace(CFG, dt=1e-3)
    period = free_eq.fields.period
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, period, 12)
    v1 = rng.uniform(-2.0, 2.0, 12)
    v2 = rng.uniform(-2.0, 2.0, 12)
    vh1, _ = _vhat(v1, v2)
    for k, T in ((1, 0.4), (2, 1.3)):
        w = 2.0 * np.pi * k / period
        vals = apply_QT_points(_character(k, period), T, x, v1, v2, +1,
                               free_eq.fields, cfg)
        expected = np.exp(1j * w * x) / (1.0 + 1j * w * vh1 * T)
        assert np.max(np.abs(vals - expected) / np.abs(expected)) <= 1e-5


def test_qt_points_agrees_with_grid_average(well_eq, small_grid):
    # the point path integrates the truncated window with the panel rule,
    # the grid path reads orbit-Fourier coefficients: the two agree within
    # the window's dt^2/12 panel term, which the grid path reports when a
    # short first-return horizon sends every node through the window
    fields = well_eq.fields
    g = _smooth_symbol(fields.period)
    grid_out = _average(g, 0.1, small_grid, -1, fields, CFG)
    assert not grid_out.fallback.any()
    pts = apply_QT_points(g, 0.1, small_grid.X, small_grid.V1, small_grid.V2,
                          -1, fields, CFG)
    window = _average(g, 0.1, small_grid, -1, fields,
                      replace(CFG, orbit_horizon=1.0))
    assert window.fallback.all()
    tol = window.quad_bound + window.tail_bound + grid_out.quad_bound
    assert np.max(np.abs(pts - grid_out.values[0])) <= tol


def test_mixed_closed_and_window_nodes(well_eq, small_grid):
    # a first-return horizon between the orbit periods (6.7 to 31.4 here)
    # leaves some orbits open: those nodes take the truncated window, which
    # is apply_QT_points' code path, and are reported as fallback, while
    # the closed nodes read the same coefficients as with every orbit closed
    fields = well_eq.fields
    g = _smooth_symbol(fields.period)
    cfg = replace(CFG, dt=1e-2, orbit_horizon=10.0)
    out = _average(g, 0.3, small_grid, +1, fields, cfg)
    lost = out.fallback
    assert lost.any() and not lost.all()
    assert 0.0 < out.tail_bound <= cfg.epsilon_tail * (1.0 + 1e-12)
    pts = apply_QT_points(g, 0.3, small_grid.X[lost], small_grid.V1[lost],
                          small_grid.V2[lost], +1, fields, cfg)
    assert np.array_equal(out.values[0, lost], pts)
    closed = _average(g, 0.3, small_grid, +1, fields,
                      replace(cfg, orbit_horizon=CFG.orbit_horizon))
    assert not closed.fallback.any() and closed.tail_bound == 0.0
    assert np.array_equal(out.values[0, ~lost], closed.values[0, ~lost])


def test_table_agrees_with_quarter_step_window(well_eq, small_grid):
    # the coefficient table at step dt against the truncated window at
    # dt/4 (every node forced through it by a short first-return horizon),
    # within the bounds both report
    fields = well_eq.fields
    g = _smooth_symbol(fields.period)
    cfg = replace(CFG, dt=4e-2)
    reference = replace(cfg, dt=cfg.dt / 4.0, orbit_horizon=1.0)
    for T in (0.1, 1.0, 10.0):
        out = _average(g, T, small_grid, +1, fields, cfg)
        ref = _average(g, T, small_grid, +1, fields, reference)
        assert not out.fallback.any() and ref.fallback.all()
        tol = out.quad_bound + ref.quad_bound + ref.tail_bound
        assert np.max(np.abs(out.values - ref.values)) <= tol


def test_table_is_cached_per_pack(well_eq, small_grid):
    # one coefficient table per (grid, species, pack): the same block
    # evaluator serves a second horizon and the projection limit with only
    # the shape check evaluating it, and an equal SymbolPack is the same key
    fields = well_eq.fields
    g = _smooth_symbol(fields.period)
    calls = []

    def block(x, v1, v2):
        calls.append(x.size)
        return np.asarray(g(x, v1, v2), dtype=complex)[None]

    first = average_symbol_pack(block, 0.4, small_grid, +1, fields, CFG)
    assert len(calls) >= 2
    calls.clear()
    again = average_symbol_pack(block, 0.4, small_grid, +1, fields, CFG)
    average_symbol_pack(block, np.inf, small_grid, +1, fields, CFG)
    assert calls == [small_grid.size, small_grid.size]
    assert np.array_equal(again.values, first.values)
    entries = len(small_grid._orbit_cache)
    for T in (0.4, 2.0):
        pack = averaging.SymbolPack(k_max=1, period=fields.period)
        average_symbol_pack(pack, T, small_grid, +1, fields, CFG)
    assert len(small_grid._orbit_cache) == entries + 1


def test_qt_points_rejects_infinite_horizon(well_eq, small_grid):
    one = lambda x, v1, v2: np.ones_like(x)
    with pytest.raises(ConfigError):
        apply_QT_points(one, np.inf, small_grid.X, small_grid.V1,
                        small_grid.V2, +1, well_eq.fields, CFG)


def test_qt_many_matches_single_calls(well_eq, small_grid):
    # rows averaged together equal rows averaged alone, bitwise
    period = well_eq.fields.period
    g1 = _character(1, period)
    g2 = _smooth_symbol(period)
    together = average_symbol_pack(_block(g1, g2), 0.2, small_grid, +1,
                                   well_eq.fields, CFG)
    for g, values in zip((g1, g2), together.values):
        single = _average(g, 0.2, small_grid, +1, well_eq.fields, CFG)
        assert np.array_equal(values, single.values[0])


def test_qt_thread_count_invariance(well_eq, small_grid, monkeypatch):
    # same chunking (17 nodes, so 64 nodes make 4 chunks), different
    # thread counts: bitwise identical values
    monkeypatch.setattr(averaging, "_CHUNK", 17)
    g = _smooth_symbol(well_eq.fields.period)
    base = _average(g, 0.2, small_grid, +1, well_eq.fields, CFG)
    threaded = _average(g, 0.2, small_grid, +1, well_eq.fields,
                        replace(CFG, threads=4))
    assert np.array_equal(base.values, threaded.values)


def test_qt_identity_limit_small_t(well_eq, small_grid):
    g = _smooth_symbol(well_eq.fields.period)
    g0 = g(small_grid.X, small_grid.V1, small_grid.V2)
    errs = []
    for T in (0.2, 0.05, 0.0125):
        s = _average(g, T, small_grid, +1, well_eq.fields, CFG)
        errs.append(small_grid.weighted_norm(s.values[0] - g0, +1))
    # first-order vanishing: each 4x horizon cut should cut the error ~4x
    assert errs[1] <= 0.4 * errs[0]
    assert errs[2] <= 0.4 * errs[1]


def test_qt_lipschitz_in_horizon(well_eq, small_grid):
    g = _smooth_symbol(well_eq.fields.period)
    gn = small_grid.weighted_norm(g(small_grid.X, small_grid.V1, small_grid.V2), +1)
    S = 1.0
    mid = _average(g, S, small_grid, +1, well_eq.fields, CFG)
    for T in (0.5, 2.0):
        other = _average(g, T, small_grid, +1, well_eq.fields, CFG)
        ratio = small_grid.weighted_norm(other.values[0] - mid.values[0],
                                         +1) / abs(T - S)
        assert ratio <= 4.0 * gn


def test_qt_converges_to_orbit_average(well_eq, small_grid):
    cfg = replace(CFG, dt=5e-3)
    table = orbit_summary(small_grid, +1, well_eq.fields, cfg)
    assert table.found.all()
    g = _smooth_symbol(well_eq.fields.period)
    limit = _average(g, np.inf, small_grid, +1, well_eq.fields, cfg)
    errs = []
    for T in (10.0, 1e2, 1e3, 1e4):
        s = _average(g, T, small_grid, +1, well_eq.fields, cfg)
        errs.append(small_grid.weighted_norm(s.values[0] - limit.values[0], +1))
    for a, b in zip(errs, errs[1:]):
        assert b <= 1.05 * a
    assert errs[-1] <= 1e-2 * errs[0]


def test_tail_bound_honesty(free_eq, free_grid):
    # the point path truncates its window at S_max = T log(1/epsilon);
    # squaring epsilon doubles the window, and the two runs share their
    # panel sequence up to the shorter one, so they differ by pure tail mass
    g = _character(1, free_eq.fields.period)
    X, V1, V2 = free_grid.X, free_grid.V1, free_grid.V2
    s1 = apply_QT_points(g, 0.1, X, V1, V2, +1, free_eq.fields, CFG)
    doubled = replace(CFG, epsilon_tail=CFG.epsilon_tail ** 2)
    s2 = apply_QT_points(g, 0.1, X, V1, V2, +1, free_eq.fields, doubled)
    tail_bound = float(np.exp(-CFG.s_max(0.1) / 0.1))
    assert np.max(np.abs(s2 - s1)) <= tail_bound + 1e-15


def test_qt_propagates_drift_budget(well_eq, small_grid):
    g = _smooth_symbol(well_eq.fields.period)
    cfg = replace(CFG, dt=0.5, drift_tol=1e-16)
    with pytest.raises(DriftExceeded):
        _average(g, 0.05, small_grid, +1, well_eq.fields, cfg)


# ---------------------------------------------------------------------------
# the infinite-horizon projection


def test_qinf_fixes_functions_of_invariants(well_eq, well_grid):
    g = _invariant_symbol(well_eq.fields, +1)
    expected = g(well_grid.X, well_grid.V1, well_grid.V2)
    s = _average(g, np.inf, well_grid, +1, well_eq.fields, CFG)
    assert np.isinf(s.T)
    assert s.tail_bound == 0.0
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(s.values[0] - expected)) <= 1e-8 * scale


def test_qinf_free_streaming_characters_vanish(free_eq, free_grid):
    vh1, _ = _vhat(free_grid.V1, free_grid.V2)
    assert np.min(np.abs(vh1)) > 0.05
    s = _average(_character(2, free_eq.fields.period), np.inf, free_grid, +1,
                 free_eq.fields, CFG)
    assert np.max(np.abs(s.values)) <= 1e-8


def test_qinf_parity_odd_in_v1(well_eq, well_grid):
    # time reversal maps the orbit of (x, -v1, v2) onto the orbit of
    # (x, v1, v2), so the orbit average of an odd-in-v1 symbol is odd
    table = orbit_summary(well_grid, +1, well_eq.fields, CFG)
    assert table.found.all()
    g = lambda x, v1, v2: _vhat(v1, v2)[0]
    s = _average(g, np.inf, well_grid, +1, well_eq.fields, CFG)
    nx, nv = well_grid.x.size, QUAD_WELL.nv
    vals = s.values[0].reshape(nx, nv, nv)
    assert np.max(np.abs(vals + vals[:, ::-1, :])) <= 1e-7


def test_qinf_fallback_records_substitution(well_eq, small_grid):
    # a horizon below every return time forces the substitute average
    cfg = replace(CFG, orbit_horizon=5.0, fallback_horizon=30.0)
    g = _invariant_symbol(well_eq.fields, +1)
    expected = g(small_grid.X, small_grid.V1, small_grid.V2)
    s = _average(g, np.inf, small_grid, +1, well_eq.fields, cfg)
    assert s.fallback is not None and s.fallback.any()
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(s.values[0] - expected)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# operator norm probes


def test_norm_probe_zero_fields_tight(free_eq, free_grid):
    cfg = replace(CFG, dt=5e-4)
    r = qt_operator_norm_probe(1.0, free_grid, +1, free_eq.fields, trials=8,
                               cfg=cfg, k_max=3, seed=1)
    assert r <= 1.0 + 1e-6


def test_norm_probe_magnetized_slack(well_eq, well_grid):
    r = qt_operator_norm_probe(1.0, well_grid, -1, well_eq.fields, trials=20,
                               cfg=CFG, k_max=2, seed=2)
    assert r <= 1.0 + 5e-3


def test_norm_probe_repeat_reads_cached_table(well_eq, well_grid):
    # an identical probe is the same cache key, so it adds no coefficient
    # table and reads the same ratio
    first = qt_operator_norm_probe(1.0, well_grid, +1, well_eq.fields,
                                   trials=4, cfg=CFG, seed=7)
    entries = len(well_grid._orbit_cache)
    again = qt_operator_norm_probe(1.0, well_grid, +1, well_eq.fields,
                                   trials=4, cfg=CFG, seed=7)
    assert len(well_grid._orbit_cache) == entries
    assert again == first


def test_norm_probe_validates_degree(well_eq, well_grid):
    with pytest.raises(ConfigError):
        qt_operator_norm_probe(1.0, well_grid, +1, well_eq.fields, trials=2,
                               cfg=CFG, k_max=3, seed=0)
    with pytest.raises(ConfigError):
        qt_operator_norm_probe(1.0, well_grid, +1, well_eq.fields, trials=0,
                               cfg=CFG, k_max=2, seed=0)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=12, deadline=None)
@given(coeffs=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=6, max_size=6),
       scale=st.floats(-3.0, 3.0, allow_nan=False))
def test_qt_linear_and_contractive(well_eq, small_grid, coeffs, scale):
    period = well_eq.fields.period
    w = 2.0 * np.pi / period

    def g1(x, v1, v2):
        vh1, vh2 = _vhat(v1, v2)
        return (coeffs[0] + coeffs[1] * np.cos(w * x) + coeffs[2] * np.sin(w * x)
                + coeffs[3] * vh1 + coeffs[4] * vh2 * np.cos(w * x))

    def g2(x, v1, v2):
        return coeffs[5] * np.sin(w * x) * _vhat(v1, v2)[1]

    def combo(x, v1, v2):
        return scale * g1(x, v1, v2) + g2(x, v1, v2)

    outs = average_symbol_pack(_block(g1, g2, combo), 0.05, small_grid, +1,
                               well_eq.fields, CFG).values
    lin = scale * outs[0] + outs[1]
    ref = max(np.max(np.abs(lin)), 1.0)
    assert np.max(np.abs(outs[2] - lin)) <= 1e-12 * ref

    gn = small_grid.weighted_norm(g1(small_grid.X, small_grid.V1, small_grid.V2), +1)
    if gn > 1e-9:
        assert small_grid.weighted_norm(outs[0], +1) <= (1.0 + 5e-3) * gn
