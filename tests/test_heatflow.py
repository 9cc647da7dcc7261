import math
import tracemalloc

import numpy as np
import pytest

import qcflow.heatflow as hf
from qcflow.boundary import make_boundary_map
from qcflow.geometry import dist

from conftest import identity_values, reference_flow_step, reference_jets, reference_tension

BOX = (2.0, 0.25, 4.0)


def test_init_flow_identity():
    f = make_boundary_map("identity")
    grid = hf.init_flow(f, BOX, 9)
    assert np.max(np.abs(grid.u - identity_values(BOX, 9))) < 1e-10


def test_init_flow_linear_closed_form(f_linear):
    grid = hf.init_flow(f_linear, BOX, 9)
    nodes = identity_values(BOX, 9)
    closed = np.concatenate(
        [nodes[..., 0:1] * 2.0, nodes[..., 1:2], math.sqrt(2.5) * nodes[..., 2:3]], axis=-1
    )
    assert np.max(np.abs(grid.u - closed)) < 1e-9


def test_init_flow_stretch_finite(f_stretch):
    grid = hf.init_flow(f_stretch, BOX, 9)
    assert np.all(np.isfinite(grid.u))
    assert np.all(grid.u[..., -1] > 0.0)


def test_resolution_too_coarse_rejected(f_linear):
    with pytest.raises(ValueError):
        hf.FlowGrid(BOX, 5, identity_values(BOX, 5))


def test_box_must_be_inside_half_space():
    with pytest.raises(ValueError):
        hf.FlowGrid((2.0, 0.0, 4.0), 9, identity_values((2.0, 0.0, 4.0), 9))


@pytest.mark.parametrize("s_lo,s_hi", [(4.0, 1.0), (2.0, 2.0)])
def test_box_heights_must_increase(s_lo, s_hi):
    with pytest.raises(ValueError, match="s_lo < s_hi"):
        hf.FlowGrid((2.0, s_lo, s_hi), 9, lambda nodes: nodes)


def test_grid_energy_matches_reference():
    bump = hf.radial_bump_map(np.array([0.0, 0.0, 1.0]), 0.2, 0.8)
    grid = hf.FlowGrid(BOX, 9, bump)
    val, jac, _, s = grid.interior_jets()
    want = 0.5 * (s / val[..., -1]) ** 2 * np.sum(jac**2, axis=(-2, -1))
    energy = grid.energy().copy()  # the grid reuses its energy array
    assert np.allclose(energy, want, rtol=1e-14, atol=0.0)
    grid.tension()
    assert np.array_equal(grid.energy(), energy)


def _reassigned_grid():
    grid = hf.FlowGrid(BOX, 9, identity_values(BOX, 9))
    grid.u = hf.radial_bump_map(np.array([0.0, 0.0, 1.0]), 0.1, 0.8)(grid.u)
    return grid


ORACLE_GRIDS = {
    "identity_9": lambda: hf.init_flow(make_boundary_map("identity"), BOX, 9),
    # a different spacing on every axis
    "stretch_13x11x9": lambda: hf.init_flow(make_boundary_map("radial_stretch", K=1.5),
                                            (1.5, 0.3, 2.5), (13, 11, 9)),
    "reassigned_u": _reassigned_grid,
}


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
def test_buffered_step_matches_the_allocating_reference(name):
    grid = ORACLE_GRIDS[name]()
    u = grid.u.copy()
    dt = hf.cfl_time_step(grid)
    for _ in range(40):
        hf.flow_step(grid, dt)
        u = reference_flow_step(grid, u, dt)
    assert _same_bits(grid.u, u)
    tau, norm, energy = reference_tension(grid, u)
    for got, want in zip(grid.tension(), (tau, norm)):
        assert _same_bits(got, want)
    assert _same_bits(grid.energy(), energy)
    for got, want in zip(grid.interior_jets(), reference_jets(grid, u)):
        assert _same_bits(got, want)


@pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
def test_energy_of_the_tension_pass_is_energy_from_jet(name):
    grid = ORACLE_GRIDS[name]()
    val, jac, _, s = grid.interior_jets()
    assert _same_bits(grid.energy(), hf.tn.energy_from_jet(val, jac, s))


def _division_jets(grid):
    """Interior Jacobian and per-axis second differences, dividing by 2h and h^2."""
    u, res = grid.u, grid.resolution
    jac, d2 = [], []
    for ax, h in enumerate(grid.spacings):
        def shifted(d):
            return u[tuple(slice(1 + d * (k == ax), r - 1 + d * (k == ax))
                           for k, r in enumerate(res))]
        up, um = shifted(1), shifted(-1)
        jac.append((up - um) / (2.0 * h))
        d2.append((up + -2.0 * shifted(0) + um) / h**2)
    return np.stack(jac, axis=-1), np.stack(d2, axis=-1)


@pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
def test_reciprocal_stencil_is_within_two_ulp_of_division(name):
    # the grid multiplies by 0.5/h and 1/h^2: one more rounding than a
    # division, so each Jacobian entry and each axis's second difference is
    # within 2 ulp.  The Laplacian then adds the axes in order on both sides;
    # each addition rounds by half an ulp of its partial sum on each side,
    # at most an ulp of the exact partial sum when a binade is crossed.
    grid = ORACLE_GRIDS[name]()
    _, jac, lap, _ = grid.interior_jets()
    want_jac, d2 = _division_jets(grid)
    assert np.all(np.abs(jac - want_jac) <= 2.0 * np.spacing(np.abs(want_jac)))
    partial = np.cumsum(d2, axis=-1)
    bound = (2.0 * np.sum(np.spacing(np.abs(d2)), axis=-1)
             + 2.0 * np.sum(np.spacing(np.abs(partial[..., 1:])), axis=-1))
    assert np.all(np.abs(lap - partial[..., -1]) <= bound)


def test_returned_arrays_are_read_only_views(f_stretch):
    grid = hf.init_flow(f_stretch, BOX, 9)
    for arr in grid.tension() + (grid.energy(),) + grid.interior_jets():
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_u_setter_copies_into_the_grid():
    grid = hf.FlowGrid(BOX, 9, identity_values(BOX, 9))
    view = grid.u
    values = identity_values(BOX, 9) * 1.5
    grid.u = values
    values[...] = 0.0
    assert np.array_equal(view, identity_values(BOX, 9) * 1.5)
    with pytest.raises(ValueError, match="shape"):
        grid.u = values[:-1]


def test_failed_step_leaves_the_grid_unchanged(f_stretch):
    grid = hf.init_flow(f_stretch, BOX, 9)
    before = grid.u.copy()
    with pytest.raises(FloatingPointError, match="blow-up"):
        hf.flow_step(grid, hf.cfl_time_step(grid), max_energy=0.0)
    with pytest.raises(FloatingPointError, match="invalid node values"):
        hf.flow_step(grid, np.nan)
    assert np.array_equal(grid.u, before)


def test_flow_step_allocates_no_grid_sized_arrays(f_stretch):
    # tracemalloc sees numpy's data buffers; the allocating step peaked at
    # 34 interior arrays (357 kB), the buffered one peaks at 7 kB
    grid = hf.init_flow(f_stretch, BOX, 13)
    dt = hf.cfl_time_step(grid)
    hf.flow_step(grid, dt)  # warm-up
    tracemalloc.start()
    try:
        hf.flow_step(grid, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    interior_array = 11**3 * 8  # bytes of one float array over the interior
    assert peak < 8 * interior_array


def test_grid_holds_one_laplacian_row_per_component():
    # the tension reads the second derivatives only through the coordinate
    # Laplacian, so the grid keeps n rows of it, not the n^2 of each axis
    grid = hf.FlowGrid(BOX, 9, identity_values(BOX, 9))
    _, jac, lap, _ = grid.interior_jets()
    assert jac.shape == (7, 7, 7, 3, 3) and lap.shape == (7, 7, 7, 3)
    assert grid._lap.shape == (3, 9**3)


def test_spectral_radius_allocates_less_than_one_stage_array():
    # tau(u) and the iterate live in the grid's idle RKL2 stage rows; what is
    # left is the checkerboard (one grid-sized array) and its outer products:
    # 0.25 MiB against 0.33 MiB for one (3, lanes) array, 0.84 MiB before
    grid = hf.FlowGrid(BOX, 25, hf.radial_bump_map(np.array([0.0, 0.0, 1.0]), 0.2, 0.8))
    hf.spectral_radius(grid)  # warm-up
    tracemalloc.start()
    try:
        hf.spectral_radius(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid._rkl[0].nbytes


def test_step_keeps_identity_fixed():
    f = make_boundary_map("identity")
    grid = hf.init_flow(f, BOX, 9)
    before = grid.u.copy()
    hf.flow_step(grid, hf.cfl_time_step(grid))
    assert np.max(np.abs(grid.u - before)) < 1e-10


def test_step_keeps_harmonic_data_fixed(f_linear):
    grid = hf.init_flow(f_linear, BOX, 9)
    before = grid.u.copy()
    hf.flow_step(grid, hf.cfl_time_step(grid))
    assert np.max(dist(grid.u, before)) < 1e-6


def test_single_step_reduces_tension_of_perturbed_harmonic(f_linear):
    grid = hf.init_flow(f_linear, BOX, 11)
    rng = np.random.default_rng(0)
    bump = hf.radial_bump_map(np.array([0.0, 0.0, 1.0]), 0.05, 0.8)
    grid.u = bump(grid.u)
    grid.u0 = grid.u.copy()
    t0 = grid.sup_tension()
    for _ in range(5):
        hf.flow_step(grid, hf.cfl_time_step(grid))
    assert grid.sup_tension() < t0


def test_run_flow_linear_stationary(f_linear):
    grid = hf.init_flow(f_linear, BOX, 9)
    dt = hf.cfl_time_step(grid)
    trace, final = hf.run_flow(grid, t_end=200 * dt, dt=dt, record_every=50)
    assert not trace.aborted
    assert np.max(trace.sup_tension) <= 1e-3
    assert trace.sup_drift[-1] <= 1e-3


def test_harmonic_stationarity_thousand_steps(f_linear):
    grid = hf.init_flow(f_linear, BOX, 9)
    u0 = grid.u.copy()
    dt = hf.cfl_time_step(grid)
    trace, final = hf.run_flow(grid, t_end=1000 * dt, dt=dt, record_every=250)
    assert not trace.aborted
    assert np.max(dist(final.u, u0)) < 1e-4


@pytest.mark.parametrize("cfl_multiple", [1.5, 2.0])
def test_blowup_guard_runs_every_step(f_stretch, cfl_multiple):
    # past the CFL limit the frozen boundary layer seeds a growing mode; with
    # no record step before t_end only a guard run at every step can name it
    grid = hf.init_flow(f_stretch, BOX, 9)
    dt = cfl_multiple * hf.cfl_time_step(grid)
    trace, _ = hf.run_flow(grid, t_end=200 * dt, dt=dt, record_every=10**6)
    assert trace.aborted
    assert trace.abort_reason == hf.BLOWUP_REASON
    assert len(trace.times) == 1


def test_run_flow_stretch_decays(f_stretch):
    grid = hf.init_flow(f_stretch, BOX, 17)
    trace, final = hf.run_flow(grid, t_end=0.25)
    assert not trace.aborted
    assert trace.decayed
    assert trace.within_band
    assert trace.sup_drift[-1] < 0.4  # pinned fixture bound (measured ~0.21)
    assert np.all(np.diff(trace.times) > 0)


def test_refinement_halving_dt(f_stretch):
    grid1 = hf.init_flow(f_stretch, BOX, 9)
    u_init = grid1.u.copy()
    dt = hf.cfl_time_step(grid1)
    _, final1 = hf.run_flow(grid1, t_end=0.04, dt=dt)
    grid2 = hf.FlowGrid(BOX, 9, u_init)
    _, final2 = hf.run_flow(grid2, t_end=0.04, dt=dt / 2)
    assert np.max(dist(final1.u, final2.u)) < 1e-3


def test_cfl_guard_aborts_on_blowup(f_stretch):
    grid = hf.init_flow(f_stretch, BOX, 9)
    dt = 40.0 * hf.cfl_time_step(grid)
    trace, _ = hf.run_flow(grid, t_end=1.0, dt=dt, record_every=1)
    assert trace.aborted


# ---------------------------------------------------------------------------
# RKL2 super-steps: the stability guard, the stage polynomials, the plan and its accuracy

def _dense_tension_jacobian(grid, h=1e-6):
    """Central-difference Jacobian of the interior tension in the interior node values."""
    u = grid.u.copy()
    unknowns = np.argwhere(np.ones(grid.u[grid.interior()].shape, dtype=bool))
    jac = np.empty((len(unknowns), len(unknowns)))
    for col, (*node, g) in enumerate(unknowns):
        sides = []
        for sign in (1.0, -1.0):
            w = u.copy()
            w[tuple(i + 1 for i in node) + (g,)] += sign * h
            grid.u = w
            sides.append(grid.tension()[0].ravel().copy())
        jac[:, col] = (sides[0] - sides[1]) / (2.0 * h)
    grid.u = u
    return jac


def test_spectral_radius_matches_dense_eigenvalues(f_stretch):
    # 7^3 interior nodes x 3 components = 1029 unknowns; measured rho dt
    # 1.4124 (power method) against 1.4138 (eigvals), |Im| dt 1.1e-3
    grid = hf.init_flow(f_stretch, BOX, 9)
    dt = hf.cfl_time_step(grid)
    before = grid.u.copy()
    rho = hf.spectral_radius(grid)
    assert _same_bits(grid.u, before)
    eig = np.linalg.eigvals(_dense_tension_jacobian(grid))
    dense = float(np.max(np.abs(eig)))
    assert abs(rho - dense) <= 0.005 * dense
    assert np.max(np.abs(eig.imag)) * dt < 2e-3  # real spectrum: the stage polynomials apply
    assert 1.5 * dt * rho > 2.0  # so test_blowup_guard_runs_every_step trips at 1.5x CFL


@pytest.mark.parametrize("margin", [0.99, 1.01])
def test_guard_aborts_before_the_first_step_above_two_over_rho(f_stretch, margin):
    grid = hf.init_flow(f_stretch, BOX, 9)
    dt = margin * 2.0 / hf.spectral_radius(grid)
    before = grid.u.copy()
    trace, _ = hf.run_flow(grid, t_end=40 * dt, dt=dt)
    if margin > 1.0:
        assert trace.aborted and trace.abort_reason == hf.BLOWUP_REASON
        assert len(trace.times) == 1
        assert _same_bits(grid.u, before)
    else:  # just inside the limit the super-steps are stable
        assert not trace.aborted
        assert trace.decayed and trace.within_band


def test_a_failed_stage_ends_the_run_at_the_last_record(f_stretch, monkeypatch):
    # a stage refused in the third super-step aborts the run: the trace keeps
    # the records before it, and the grid the last stage that was accepted
    grid = hf.init_flow(f_stretch, BOX, 9)
    u_init = grid.u.copy()
    dt = hf.cfl_time_step(grid)
    t_end = 4.5 * hf._reach(hf.RKL_STAGES) * dt
    clean, _ = hf.run_flow(hf.FlowGrid(BOX, 9, u_init), t_end=t_end, dt=dt, record_every=1)
    stages = len(hf._super_steps(dt, t_end)[2][0])
    fail_at = 2 * stages + 5  # stage 5 of the third super-step
    accepted, accept_stage = [], hf._accept_stage

    def refuse_one(g):
        if len(accepted) + 1 == fail_at:
            raise FloatingPointError("stage refused")
        accept_stage(g)
        accepted.append(g.u.copy())

    monkeypatch.setattr(hf, "_accept_stage", refuse_one)
    trace, final = hf.run_flow(grid, t_end=t_end, dt=dt, record_every=1)
    assert trace.aborted and trace.abort_reason == "stage refused"
    assert len(clean.times) == 6 and len(trace.times) == 3
    for name in ("times", "sup_tension", "sup_drift", "mean_energy"):
        assert _same_bits(getattr(trace, name), getattr(clean, name)[:3])
    assert len(accepted) == fail_at - 1
    assert _same_bits(final.u, accepted[-1])


def test_a_record_above_the_blowup_bound_ends_the_run(f_stretch, monkeypatch):
    # the stage guard reads the tension pass's energy array, not energy(),
    # so an energy() that reads high after the start trips the record check
    grid = hf.init_flow(f_stretch, BOX, 9)
    starts, energy = [], hf.FlowGrid.energy

    def inflated(self):
        e = energy(self)
        if starts:
            return np.full_like(e, 1.01 * hf.BLOWUP_FACTOR * starts[0])
        starts.append(float(np.max(e)))
        return e

    monkeypatch.setattr(hf.FlowGrid, "energy", inflated)
    trace, _ = hf.run_flow(grid, t_end=0.5, record_every=1)
    assert trace.aborted and trace.abort_reason == hf.BLOWUP_REASON
    assert len(trace.times) == 2 and 0.0 < trace.times[-1] < 0.5


def test_default_step_stays_inside_the_explicit_limit():
    # on the 11^4 box the CFL step alone is past 2/rho (rho dt_CFL = 2.059
    # measured), so a default run used to abort before its first step; the
    # default base step is capped at DEFAULT_DT_RHO / rho
    grid = hf.FlowGrid(BOX, 11, lambda p: p, n=4)
    assert hf.cfl_time_step(grid) * hf.spectral_radius(grid) > 2.0
    trace, _ = hf.run_flow(grid, t_end=0.05)
    assert not trace.aborted
    assert trace.times[-1] == 0.05


def _stage_polynomials(s, lam_delta):
    """Amplifications R_0, ..., R_s of the stages of an RKL2 super-step on y' = -lambda y."""
    mu, nu, mu_tilde, gamma = hf.rkl2_coefficients(s)
    z = -np.asarray(lam_delta, dtype=float)
    R = [np.ones_like(z), 1.0 + mu_tilde[0] * z]
    for j in range(1, s):
        R.append(mu[j] * R[-1] + nu[j] * R[-2] + (1.0 - mu[j] - nu[j])
                 + mu_tilde[j] * z * R[-1] + gamma[j] * z)
    return np.array(R)


# Largest |R_s| of a full super-step (delta = _reach(s) dt) over the stiff modes
# 1 <= lambda dt <= 1.8 (the workload's rho dt is 1.805), computed from the
# stage polynomials: 0.719, 0.669, 0.625, 0.618 and 0.596 at s = 4, 8, 12, 16
# and 24.  Euler at dt damps these modes by |1 - lambda dt| <= 0.8 per step,
# 67.5 times per super-step; the 6-stage STS schedule this replaced, by 0.099.
STIFF_AMPLIFICATION = 0.62


@pytest.mark.parametrize("s", [2, 8, 16])
def test_rkl2_stage_polynomials_stay_within_one_up_to_the_reach(s):
    reach = hf._reach(s)
    assert len(hf.rkl2_coefficients(s)[0]) == s
    lam_delta = np.linspace(0.0, 2.0 * reach, 10**4)
    R = _stage_polynomials(s, lam_delta)
    # every stage, so the energy guard before each keeps its meaning
    assert np.max(np.abs(R)) <= 1.0 + 1e-13
    # stage j is a_j + b_j P_j(1 - lambda delta / reach), P_j the Legendre polynomial
    j = np.arange(2, s + 1)
    b = np.concatenate(([1 / 3, 1 / 3], (j * j + j - 2) / (2.0 * j * (j + 1))))
    for k in range(s + 1):
        legendre = np.polynomial.legendre.legval(1.0 - lam_delta / reach, np.eye(k + 1)[k])
        assert np.allclose(R[k], 1.0 - b[k] + b[k] * legendre, rtol=0.0, atol=1e-13)
    # second order, R_s = 1 - x + x^2/2 + O(x^3), from P_s'(1) = s(s + 1)/2 and
    # P_s''(1) = (s - 1)s(s + 1)(s + 2)/8
    assert math.isclose(b[s] * s * (s + 1) / 2 / reach, 1.0, rel_tol=1e-14)
    assert math.isclose(b[s] * (s - 1) * s * (s + 1) * (s + 2) / 8 / reach**2, 1.0,
                        rel_tol=1e-14)
    # the stability edge, where |R_s| leaves 1 (s is even), is twice the reach
    lo, hi = reach, 3.0 * reach
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if abs(_stage_polynomials(s, mid)[-1]) <= 1.0 else (lo, mid)
    assert abs(lo / 2.0 - (s * s + s - 2) / 4.0) <= 1e-14 * reach
    if s == 16:
        stiff = _stage_polynomials(s, np.linspace(1.0, 1.8, 10**4) * reach)[-1]
        assert abs(np.max(np.abs(stiff)) - STIFF_AMPLIFICATION) < 0.005


@pytest.mark.parametrize("super_steps", [1, 40, 41, 80, 81, 119])
def test_default_run_records_at_most_41_rows(super_steps):
    grid = hf.FlowGrid(BOX, 9, identity_values(BOX, 9))
    reach = hf._reach(hf.RKL_STAGES) * hf.cfl_time_step(grid)
    t_end = (super_steps - 0.5) * reach
    trace, _ = hf.run_flow(grid, t_end=t_end)
    assert trace.times[-1] == t_end
    assert len(trace.times) <= 41
    assert len(trace.times) >= min(super_steps, 21) + 1


@pytest.mark.parametrize("dt", [None, 1e-3])
def test_plan_longer_than_the_cap_is_refused_before_it_is_built(dt, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized plan was built or stepped")

    monkeypatch.setattr(hf, "_super_steps", refuse)
    monkeypatch.setattr(hf, "flow_step", refuse)
    grid = hf.FlowGrid(BOX, 7, identity_values(BOX, 7))
    u = grid.u.copy()
    step = hf.cfl_time_step(grid) if dt is None else dt
    t_end = 2.0 * hf.MAX_SUPER_STEPS * hf._reach(hf.RKL_STAGES) * step
    with pytest.raises(ValueError, match=r"box_x=2, resolution=\(7, 7, 7\), t_end=.*super-steps"):
        hf.run_flow(grid, t_end=t_end, dt=dt)
    assert np.array_equal(grid.u, u)
    with pytest.raises(ValueError, match="super-steps"):
        hf.check_flow_plan(BOX, 7, t_end, dt)


def test_flow_plan_check_passes_the_test_and_workload_runs():
    # criterion 7 (33^3 to t = 1) and the flow workload (25^3 to t = 0.25)
    hf.check_flow_plan(BOX, 33, 1.0)
    hf.check_flow_plan(BOX, 25, 0.25)
    # a given dt above the CFL step is counted at the CFL step
    cfl = hf.cfl_time_step(hf.FlowGrid(BOX, 9, identity_values(BOX, 9)))
    reach = hf.MAX_SUPER_STEPS * hf._reach(hf.RKL_STAGES) * cfl
    hf.check_flow_plan(BOX, 9, 0.99 * reach, dt=1.5 * cfl)
    with pytest.raises(ValueError, match=f"dt={1.5 * cfl:g}: "):
        hf.check_flow_plan(BOX, 9, 1.01 * reach, dt=1.5 * cfl)


def test_records_share_the_next_steps_jet_pass(f_stretch, monkeypatch):
    fills = []
    fill_jets, tension_from_jet = hf.FlowGrid._fill_jets, hf.tn.tension_from_jet

    def counting_jets(self):
        fills.append("jets" not in self._fresh)
        fill_jets(self)

    def counting_tension(*args, **kwargs):
        fills.append("tension")
        return tension_from_jet(*args, **kwargs)

    monkeypatch.setattr(hf.FlowGrid, "_fill_jets", counting_jets)
    monkeypatch.setattr(hf.tn, "tension_from_jet", counting_tension)
    monkeypatch.setattr(hf.tn, "energy_from_jet", None)  # the energy comes with the tension
    passes = []
    for every in (1, 10**6):
        fills.clear()
        grid = hf.init_flow(f_stretch, BOX, 9)
        trace, final = hf.run_flow(grid, t_end=0.05, record_every=every)
        passes.append((fills.count(True), fills.count("tension")))
    assert passes[0][0] == passes[0][1]  # one tension pass per jet pass
    assert passes[0] == passes[1]  # a record adds no jet or tension pass
    # and reads the values a fresh grid computes from the same nodes
    fresh = hf.FlowGrid(BOX, 9, final.u)
    assert trace.sup_tension[-1] == fresh.sup_tension()
    assert trace.mean_energy[-1] == float(np.mean(fresh.stats_view(fresh.energy())))


@pytest.fixture(scope="module")
def workload_run():
    """The benchmark's flow config (25^3, t = 0.25), counting the grid's jet passes.

    Returns the final grid, its initial values, the jet passes of the whole
    run and those spent in `spectral_radius`.
    """
    passes, power = [], []
    fill_jets, spectral_radius = hf.FlowGrid._fill_jets, hf.spectral_radius

    def counting_jets(self):
        passes.append("jets" not in self._fresh)
        fill_jets(self)

    def counting_radius(grid):
        before = sum(passes)
        rho = spectral_radius(grid)
        power.append(sum(passes) - before)
        return rho

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hf.FlowGrid, "_fill_jets", counting_jets)
        mp.setattr(hf, "spectral_radius", counting_radius)
        grid = hf.init_flow(make_boundary_map("radial_stretch", K=1.5), BOX, 25)
        u0 = grid.u.copy()
        passes.clear()
        trace, final = hf.run_flow(grid, t_end=0.25)
    assert not trace.aborted and len(trace.times) == 14
    return final, u0, sum(passes), power[0]


def test_workload_takes_208_stepping_tension_passes(workload_run):
    # 13 super-steps of 16 stages, one tension pass each; the power method's
    # passes and the pass of the last record come on top (a record shares
    # its pass with the next stage).  STS took 68 super-steps of 6 Euler
    # steps here: 408 + 13 + 1 = 422 passes
    _, _, passes, power = workload_run
    assert power == 13
    assert passes - power - 1 == 208


def _boundary(grid):
    mask = np.ones(grid.resolution, dtype=bool)
    mask[grid.interior()] = False
    return mask


def test_workload_keeps_the_frozen_layer_bit_for_bit(workload_run):
    final, u0, _, _ = workload_run
    frozen = _boundary(final)
    assert _same_bits(final.u[frozen], u0[frozen])
    assert not np.array_equal(final.u, u0)


def test_node_values_are_read_only(f_stretch):
    # every write goes through the setter or a step, which tell the grid
    # that its jets are stale
    grid = hf.init_flow(f_stretch, BOX, 9)
    with pytest.raises(ValueError):
        grid.u[..., 0] = 0.0
    norm = grid.tension()[1].copy()
    grid.u = hf.radial_bump_map(np.array([0.0, 0.0, 1.0]), 0.1, 0.8)(grid.u)
    assert not np.array_equal(grid.tension()[1], norm)


# RKL2 against a dt/8 Euler reference on the 13^3 grid of the flow box.  To
# t = 0.05 the flow takes one super-step of 13 stages, which carries the
# quadrature noise of the initial data (ROADMAP finding 1): Euler at dt
# damps its stiff modes away in 41 steps, a super-step only to about
# STIFF_AMPLIFICATION.  Measured errors at t = 0.05 for radial_stretch
# K = 1.25, 1.5, 2: 7.8e-3, 6.7e-3, 1.31e-2 (Euler at dt: 1.3e-4, 2.6e-4,
# 4.9e-4; shear c = 0.5: 3.4e-3).  They follow the noise, not K - 1.  The
# three super-steps on to t = 0.25 multiply the noise by at most
# STIFF_AMPLIFICATION^3 = 0.24; the errors fell to 0.167, 0.212 and 0.210 of
# the first (shear 0.215).  All stay below the spatial error (1.5e-2 between
# the 17^3 and 65^3 fields of this box).
RKL2_FIRST_STEP_ERR = 1.6e-2  # the sweep's largest, 1.31e-2, with 20% headroom


@pytest.mark.parametrize("K", [1.25, 1.5, 2.0])
def test_rkl2_error_against_a_fine_euler_reference(K):
    grid = hf.init_flow(make_boundary_map("radial_stretch", K=K), BOX, 13)
    ref = hf.FlowGrid(BOX, 13, grid.u)
    dt = hf.cfl_time_step(grid)
    errors = []
    for length in (0.05, 0.20):  # to t = 0.05, then on to 0.25 from the same grid
        hf.run_flow(grid, t_end=length)
        n = math.ceil(length / (dt / 8))
        for _ in range(n):
            hf.flow_step(ref, length / n)
        errors.append(float(np.max(dist(ref.u, grid.u))))
    assert errors[0] <= RKL2_FIRST_STEP_ERR, errors
    assert errors[1] <= STIFF_AMPLIFICATION**3 * errors[0], errors


# ---------------------------------------------------------------------------
# radial bump data

def _bump_grid(amp=0.08, width=0.8, res=17):
    # the height grid hits the bump center (0, 0, 1) exactly at index 4
    box = (2.5, 0.2, 3.4)
    center = np.array([0.0, 0.0, 1.0])
    bump = hf.radial_bump_map(center, amp, width)
    return hf.FlowGrid(box, res, bump), center


def test_radial_bump_tension_is_radial():
    grid, center = _bump_grid()
    core = grid.interior()
    _, norm = grid.tension()
    nodes = identity_values(grid.box, grid.resolution)[core]
    rho = dist(nodes, np.broadcast_to(center, nodes.shape))
    # points at (almost) equal radius carry (almost) equal |tau|^2
    order = np.argsort(rho.ravel())
    r_sorted = rho.ravel()[order]
    v_sorted = (norm.ravel() ** 2)[order]
    close = np.nonzero(np.diff(r_sorted) < 1e-4)[0]
    if close.size:
        assert np.max(np.abs(v_sorted[close + 1] - v_sorted[close])) < 0.05 * np.max(v_sorted)
