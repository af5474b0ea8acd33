"""Negative-count bookkeeping, criterion, crossings, mode rebuilding.

Counting is checked against an independent LDL inertia oracle, the sweep
against hand-derived vacuum spectra and a measured two-species case, the
infinite-horizon identity against direct eigenvalue counts, and the
crossing search against synthetic matrix families with known roots.  The
two-species constants below were measured once on the stated rules and
are frozen; count assertions are exact, float assertions carry the
quadrature slack of the coarse rules.
"""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from vmstab.averaging import AveragingConfig, PhaseGrid
from vmstab.equilibrium import (FieldProfile, SpeciesProfile,
                                VelocityQuadrature, equilibrium_from_parts,
                                preset_equilibrium)
from vmstab.errors import (BranchAmbiguity, ConfigError, NoCrossing,
                           SmallTAnchorFailed)
from vmstab.operators import DiscretizationSpec, assemble
from vmstab.spectrum import (CountIdentity, CriterionReport, check_criterion,
                             count_negatives, crossing_search, find_crossing,
                             infinity_count_identity, reconstruct_mode, sweep,
                             sweep_to_csv, zero_threshold)

# negative-count margins in every case below are O(0.1) or larger, far
# above the panel quadrature term at this step, so the coarser step keeps
# the module quick without touching any count
CFG = AveragingConfig(dt=5e-3)

# this velocity rule resolves none of the two-species profiles to
# continuum accuracy; every constant frozen below is a same-rule quantity
# measured on exactly this discretization
QUAD = VelocityQuadrature.build(8, 7.5)


@pytest.fixture(scope="module")
def bimax_eq():
    # two counter-shifted second-species humps: strong anisotropy drive,
    # zero equilibrium fields, so orbit averages are free-streaming ones
    return preset_equilibrium("bimaxwellian-pair", nx=16)


@pytest.fixture(scope="module")
def bimax_disc(bimax_eq):
    grid = PhaseGrid.from_equilibrium(bimax_eq, n_x=8, quad=QUAD)
    return DiscretizationSpec(k_max=2, grid=grid, avg=CFG)


@pytest.fixture(scope="module")
def bimax_inf(bimax_eq, bimax_disc):
    return assemble(np.inf, bimax_eq, bimax_disc)


@pytest.fixture(scope="module")
def free_eq():
    return preset_equilibrium("maxwellian-pair", nx=16)


@pytest.fixture(scope="module")
def free_disc(free_eq):
    grid = PhaseGrid.from_equilibrium(free_eq, n_x=8, quad=QUAD)
    return DiscretizationSpec(k_max=2, grid=grid, avg=CFG)


@pytest.fixture(scope="module")
def free_inf(free_eq, free_disc):
    return assemble(np.inf, free_eq, free_disc)


@pytest.fixture(scope="module")
def weibel_eq():
    # the magnetic well splits the cosine/sine pairs, so kernel crossings
    # of the two branches separate in T and become individually locatable
    return preset_equilibrium("weibel-well", nx=16, b_amp=0.4)


@pytest.fixture(scope="module")
def weibel_disc(weibel_eq):
    grid = PhaseGrid.from_equilibrium(weibel_eq, n_x=8, quad=QUAD)
    # projection-limit averages jump across the trapping separatrix, so
    # the symmetry defect saturates near that layer's measure
    return DiscretizationSpec(k_max=2, grid=grid, sym_tol=0.3, avg=CFG)


@pytest.fixture(scope="module")
def weibel_inf(weibel_eq, weibel_disc):
    return assemble(np.inf, weibel_eq, weibel_disc)


def _zero_profile(name):
    z = lambda e, p: np.zeros_like(np.asarray(e, dtype=float))
    return SpeciesProfile(name=name, mu=z, mu_e=z, mu_p=z, alpha=3.0, c=1.0)


@pytest.fixture(scope="module")
def vacuum_eq():
    fields = FieldProfile.zero(2.0 * np.pi, 16)
    return equilibrium_from_parts("vacuum", _zero_profile("p"),
                                  _zero_profile("m"), fields, nv=4, v_max=5.0)


@pytest.fixture(scope="module")
def vacuum_disc(vacuum_eq):
    grid = PhaseGrid.from_equilibrium(vacuum_eq, n_x=8)
    return DiscretizationSpec(k_max=2, grid=grid, avg=CFG)


# ---------------------------------------------------------------------------
# negative counting


def test_count_negatives_thresholding():
    m = np.diag([-2.0, -1e-12, 0.0, 1e-12, 3.0])
    # default threshold is relative to the largest entry, so the 1e-12
    # pair is kernel, not sign
    assert count_negatives(m) == 1
    assert count_negatives(m, eps_zero=0.0) == 2
    assert count_negatives(m, eps_zero=10.0) == 0


def test_zero_threshold_scales_with_entries():
    m = np.array([[2.0, 0.0], [0.0, -5.0]])
    assert zero_threshold(m) == 1e-9 * 5.0
    assert zero_threshold(10.0 * m) == 1e-9 * 50.0
    assert zero_threshold(np.zeros((3, 3))) == 0.0


def _ldl_negative_count(m):
    # independent inertia oracle: LDL^T factorization, negatives read off
    # the 1x1 and 2x2 diagonal blocks
    from scipy.linalg import ldl
    _, d, _ = ldl(m)
    n = d.shape[0]
    i = 0
    neg = 0
    while i < n:
        if i + 1 < n and d[i, i + 1] != 0.0:
            w = np.linalg.eigvalsh(d[i:i + 2, i:i + 2])
            neg += int(np.sum(w < 0.0))
            i += 2
        else:
            neg += int(d[i, i] < 0.0)
            i += 1
    return neg


def test_count_negatives_matches_ldl_inertia():
    rng = np.random.default_rng(11)
    for dim in (5, 9, 16, 33):
        for _ in range(4):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            vals = rng.uniform(0.5, 3.0, dim) * rng.choice([-1.0, 1.0], dim)
            m = (q * vals) @ q.T
            m = 0.5 * (m + m.T)
            expected = int(np.sum(vals < 0.0))
            assert count_negatives(m) == expected
            assert _ldl_negative_count(m) == expected


# ---------------------------------------------------------------------------
# horizon sweep


def test_sweep_validates_horizon_grid(vacuum_eq, vacuum_disc):
    # every rejection fires before any assembly, so these are instant
    for bad in ([1.0], [1.0, 2.0], [np.inf, np.inf], [2.0, 1.0, np.inf],
                [-1.0, np.inf], [0.0, np.inf], [1.0, np.inf, 2.0, np.inf]):
        with pytest.raises(ConfigError):
            sweep(vacuum_eq, vacuum_disc, 2, bad)


def test_sweep_rejects_finite_precomputed_set(bimax_eq, bimax_disc):
    finite = assemble(1e-3, bimax_eq, bimax_disc)
    with pytest.raises(ConfigError):
        sweep(bimax_eq, bimax_disc, 2, [1e-3, np.inf], ops_inf=finite)


def test_sweep_vacuum_counts_are_exact(vacuum_eq, vacuum_disc):
    # with zero profiles the blocks are multiplier-diagonal, and every
    # interior cut lands inside an exact cosine/sine pair, so only the
    # full truncation n = 5 is clean (first block caps at rank 4).  The
    # first block contributes its full rank at every horizon, the corner
    # is negative at finite horizons only, the second block never is.
    res = sweep(vacuum_eq, vacuum_disc, 5, [1e-3, 1.0, np.inf])
    assert res.anchor_expected == 5
    assert [r.negatives for r in res.records] == [5, 5, 4]
    assert [r.T for r in res.records][-1] == np.inf
    for rec in res.records:
        assert np.all(np.diff(rec.eigenvalues) >= 0.0)
        assert rec.n == 5
        assert rec.eps_zero > 0.0
    assert res.change_brackets() == [((1.0, np.inf), (5, 4))]


@pytest.fixture(scope="module")
def bimax_sweep(bimax_eq, bimax_disc, bimax_inf):
    # n = 5 is the only clean truncation here: the zero-field operator has
    # exactly degenerate cosine/sine pairs, so interior cuts are rejected,
    # while n = 5 caps to the full blocks (first-block rank 4)
    return sweep(bimax_eq, bimax_disc, 5, [1e-3, 1.0, np.inf],
                 ops_inf=bimax_inf)


def test_sweep_counts_anisotropy_driven_case(bimax_sweep):
    # anchor rank + 1 = 5; by T = 1 the second-block hump branches and the
    # k = 1 pair have crossed, and the count holds to the ergodic limit
    assert bimax_sweep.anchor_expected == 5
    assert [r.negatives for r in bimax_sweep.records] == [5, 8, 8]
    assert bimax_sweep.change_brackets() == [((1e-3, 1.0), (5, 8))]


def test_sweep_anchor_failure_past_crossing(bimax_eq, bimax_disc, bimax_inf):
    # starting the grid beyond the crossings, the first count is already 8
    with pytest.raises(SmallTAnchorFailed) as info:
        sweep(bimax_eq, bimax_disc, 5, [2.0, np.inf], ops_inf=bimax_inf)
    assert info.value.count == 8
    assert info.value.T == 2.0


def test_sweep_to_csv_round_trip(tmp_path, bimax_sweep):
    path = tmp_path / "sweep.csv"
    rows = sweep_to_csv(bimax_sweep, path)
    assert rows == 3
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    dim = bimax_sweep.records[0].eigenvalues.size
    assert header[:4] == ["T", "n", "negatives", "eps_zero"]
    assert len(header) == 4 + dim
    assert len(body) == 3
    for row, rec in zip(body, bimax_sweep.records):
        assert float(row[0]) == rec.T
        assert int(row[1]) == rec.n
        assert int(row[2]) == rec.negatives
        # %.17g round-trips doubles exactly
        back = np.array([float(v) for v in row[4:]])
        assert np.array_equal(back, rec.eigenvalues)


# ---------------------------------------------------------------------------
# infinite-horizon criterion


def test_criterion_rejects_finite_horizon(bimax_eq, bimax_disc):
    finite = assemble(1e-3, bimax_eq, bimax_disc)
    with pytest.raises(ConfigError):
        check_criterion(finite)


def test_criterion_vacuum_is_stable(vacuum_eq, vacuum_disc):
    rep = check_criterion(assemble(np.inf, vacuum_eq, vacuum_disc))
    assert rep.kernel_dim == 1
    assert rep.kernel_is_constant
    assert rep.condition_i
    assert rep.lhs == 0 and rep.rhs == 0
    assert rep.l_inf == 0.0 and not rep.l_positive
    assert not rep.unstable


def test_criterion_isotropic_case_is_stable(free_inf):
    rep = check_criterion(free_inf)
    assert rep.condition_i
    assert rep.lhs == 0
    assert rep.rhs == 0
    assert rep.l_inf < 0.0
    assert not rep.unstable


def test_criterion_flags_anisotropy_driven_case(bimax_inf):
    # measured on this rule: the reduced second block carries three
    # negative directions (the k = 0 branch and the degenerate k = 1
    # pair) while the first block has none and the corner term is of the
    # stable sign, so the count inequality is strict
    rep = check_criterion(bimax_inf)
    assert rep.kernel_dim == 1
    assert rep.kernel_is_constant
    assert rep.condition_i
    assert rep.lhs == 3
    assert rep.neg_a1 == 0
    assert rep.l_inf == pytest.approx(-0.755, abs=5e-3)
    assert not rep.l_positive
    assert rep.rhs == 0
    assert rep.unstable
    payload = json.dumps(rep.as_dict(), sort_keys=True)
    assert json.loads(payload)["unstable"] is True


# ---------------------------------------------------------------------------
# infinite-horizon count identity


def test_count_identity_rejects_finite(bimax_eq, bimax_disc):
    finite = assemble(1e-3, bimax_eq, bimax_disc)
    with pytest.raises(ConfigError):
        infinity_count_identity(finite, 2)


def test_count_identity_isotropic(free_inf):
    # clean cut at n = 2; n = 5 caps the first-block rank at 4
    for n, p_rank, direct in ((2, 2, 3), (5, 4, 5)):
        ident = infinity_count_identity(free_inf, n)
        assert ident.p_rank == p_rank
        assert ident.direct == direct
        assert ident.formula == direct
        assert ident.neg_schur_n == 0
        assert ident.kernel_dim == 0
        assert ident.neg_a1_n == 0
        assert ident.corner_negative


def test_count_identity_anisotropy_driven(bimax_inf):
    ident = infinity_count_identity(bimax_inf, 5)
    assert ident.direct == 8
    assert ident.formula == 8
    assert ident.neg_schur_n == 3
    assert ident.p_rank == 4
    assert ident.corner_negative


def test_count_identity_split_well(weibel_inf):
    # inhomogeneous case: the coupling block is nonzero, so the reduced
    # operator genuinely differs from the bare second block
    ident = infinity_count_identity(weibel_inf, 2)
    assert ident.direct == 5
    assert ident.formula == 5
    assert ident.neg_schur_n == 2
    assert ident.p_rank == 2
    assert ident.corner_negative
    payload = json.dumps(ident.as_dict(), sort_keys=True)
    assert json.loads(payload)["direct"] == 5


# ---------------------------------------------------------------------------
# crossing search on synthetic families


def test_crossing_search_validates_bracket():
    fam = lambda T: np.diag([T - 1.0, 2.0])
    for bad in ((0.0, 1.0), (-1.0, 2.0), (2.0, 1.0), (1.0, np.inf)):
        with pytest.raises(ConfigError):
            crossing_search(fam, bad)


def test_crossing_search_linear_branch_exact():
    fam = lambda T: np.diag([T - 1.0, 2.0])
    res = crossing_search(fam, (0.3, 3.0))
    assert res.T0 == pytest.approx(1.0, abs=1e-8)
    assert res.converged_by == "eigenvalue"
    assert (res.count_low, res.count_high) == (1, 0)
    assert abs(res.eigenvalue) <= 1e-9
    assert res.evaluations <= 20


def test_crossing_search_nonlinear_branch_analytic():
    # smaller eigenvalue of [[2 - 1/T^2, 0.3], [0.3, 4]] crosses zero when
    # the determinant does: 2 - 1/T^2 = 0.09/4
    fam = lambda T: np.array([[2.0 - 1.0 / (T * T), 0.3], [0.3, 4.0]])
    res = crossing_search(fam, (0.2, 5.0))
    assert res.T0 == pytest.approx(1.0 / np.sqrt(1.9775), rel=1e-7)


def test_crossing_search_equal_counts_raise():
    with pytest.raises(NoCrossing) as info:
        crossing_search(lambda T: np.diag([1.0, 2.0]), (0.5, 2.0))
    assert info.value.count == 0
    assert info.value.bracket == (0.5, 2.0)


def test_crossing_search_degenerate_pair_raises():
    fam = lambda T: np.diag([T - 1.0, (1.0 + 1e-10) * (T - 1.0), 5.0])
    with pytest.raises(BranchAmbiguity) as info:
        crossing_search(fam, (0.3, 3.0))
    assert info.value.T0 == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# crossings of assembled families


def test_find_crossing_split_well(weibel_eq, weibel_disc, weibel_inf):
    # integration test, dominates the module runtime: locates the first
    # split-branch crossing, measured to lie inside (0.6, 1.0) on this rule
    report = find_crossing(weibel_eq, weibel_disc, 2, (0.6, 1.0),
                           ops_inf=weibel_inf)
    res = report.crossing
    assert 0.6 < res.T0 < 1.0
    assert (res.count_low, res.count_high) == (3, 4)
    assert res.converged_by == "eigenvalue"
    assert report.eigen_residual <= 1e-8
    assert report.phi.shape == (5,)
    assert report.psi.shape == (5,)
    assert report.phi[0] == 0.0
    # the crossing branch lives in the second block: the potential part is
    # a spectator while the stream-function part carries the vector
    assert np.linalg.norm(report.psi) > 10.0 * np.linalg.norm(report.phi)
    assert report.mode.vlasov_residual <= 1.0
    assert report.mode.f_plus.shape == (weibel_disc.grid.size,)
    payload = json.dumps(report.as_dict(), sort_keys=True)
    assert json.loads(payload)["count_high"] == 4

    # transport-equation defect shrinks at first order in the stream step
    finer = reconstruct_mode(weibel_eq, weibel_disc, res.T0, report.phi,
                             report.psi, report.b,
                             fd_step=0.5 * report.mode.fd_step)
    assert finer.vlasov_residual <= 0.75 * report.mode.vlasov_residual


def test_find_crossing_equal_counts(weibel_eq, weibel_disc, weibel_inf):
    with pytest.raises(NoCrossing):
        find_crossing(weibel_eq, weibel_disc, 2, (0.3, 0.6),
                      ops_inf=weibel_inf)


def test_find_crossing_degenerate_pair(bimax_eq, bimax_disc, bimax_inf):
    # zero-field case: the cosine/sine branches cross at exactly the same
    # horizon (discrete translation symmetry), which must be reported as
    # an ambiguity, not silently attributed to one branch
    with pytest.raises(BranchAmbiguity) as info:
        find_crossing(bimax_eq, bimax_disc, 5, (0.78, 1.0),
                      ops_inf=bimax_inf)
    assert 0.78 < info.value.T0 < 1.0


# ---------------------------------------------------------------------------
# mode reconstruction


@pytest.fixture(scope="module")
def recon_disc(free_eq):
    # small grid: reconstruction cost scales with nodes times window steps
    grid = PhaseGrid.from_equilibrium(free_eq, n_x=8,
                                      quad=VelocityQuadrature.build(4, 7.5))
    return DiscretizationSpec(k_max=2, grid=grid, avg=CFG)


def test_reconstruct_validates_inputs(free_eq, recon_disc):
    good = np.zeros(5)
    with pytest.raises(ConfigError):
        reconstruct_mode(free_eq, recon_disc, np.inf, good, good, 0.0)
    with pytest.raises(ConfigError):
        reconstruct_mode(free_eq, recon_disc, 1.0, np.zeros(4), good, 0.0)
    with pytest.raises(ConfigError):
        reconstruct_mode(free_eq, recon_disc, 1.0, good, good, 0.0,
                         fd_step=0.0)


def test_reconstruct_vacuum_is_identically_zero(vacuum_eq, vacuum_disc):
    phi = np.array([0.0, 1.0, 0.0, -0.5, 0.0])
    psi = np.array([0.0, 0.0, 0.3, 0.0, 0.0])
    mode = reconstruct_mode(vacuum_eq, vacuum_disc, 0.5, phi, psi, 0.2)
    assert np.all(mode.f_plus == 0.0)
    assert np.all(mode.f_minus == 0.0)
    assert mode.vlasov_residual == 0.0


def test_reconstruct_zero_field_closed_form(free_eq, recon_disc):
    # with zero equilibrium fields the backward average of the cosine has
    # the exact resolvent form, so the rebuilt perturbation is known in
    # closed form up to the panel quadrature term
    T = 0.7
    period = free_eq.fields.period
    amp = np.sqrt(2.0 / period)
    phi = np.zeros(5)
    phi[1] = 1.0  # cos_1 row
    psi = np.zeros(5)
    mode = reconstruct_mode(free_eq, recon_disc, T, phi, psi, 0.0)
    g = recon_disc.grid
    gam = np.sqrt(1.0 + g.V1 ** 2 + g.V2 ** 2)
    vh1 = g.V1 / gam
    w = 2.0 * np.pi / period
    qcos = np.real(amp * np.exp(1j * w * g.X) / (1.0 + 1j * w * vh1 * T))
    from vmstab.equilibrium import invariants_of
    for sign, prof, f in ((+1, free_eq.plus, mode.f_plus),
                          (-1, free_eq.minus, mode.f_minus)):
        e, p = invariants_of(g.X, g.V1, g.V2, free_eq.fields, sign)
        me = prof.mu_e(e, p)
        expected = sign * me * (amp * np.cos(w * g.X) - qcos)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(f - expected)) <= 1e-5 * scale


def test_reconstruct_residual_first_order_in_step(free_eq, recon_disc):
    # the ansatz satisfies the transport equation identically for any
    # coefficients, so the reported residual is pure finite-difference
    # error plus the quadrature floor and halves with the step
    phi = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    psi = np.array([0.0, 0.0, 0.0, 0.5, 0.0])
    coarse = reconstruct_mode(free_eq, recon_disc, 0.8, phi, psi, 0.3,
                              fd_step=2e-2)
    fine = reconstruct_mode(free_eq, recon_disc, 0.8, phi, psi, 0.3,
                            fd_step=1e-2)
    assert coarse.vlasov_residual > 0.0
    assert fine.vlasov_residual <= 0.65 * coarse.vlasov_residual
