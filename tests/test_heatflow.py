import math
import tracemalloc

import numpy as np
import pytest

import qcflow.heatflow as hf
from qcflow.boundary import make_boundary_map
from qcflow.geometry import dist

from conftest import reference_flow_step, reference_jets, reference_tension

BOX = (2.0, 0.25, 4.0)


def identity_values(box, res):
    X, s_lo, s_hi = box
    axes = [np.linspace(-X, X, res)] * 2 + [np.linspace(s_lo, s_hi, res)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def test_init_flow_identity():
    f = make_boundary_map("identity")
    grid = hf.init_flow(f, BOX, 9)
    assert np.max(np.abs(grid.u - grid.nodes)) < 1e-10


def test_init_flow_linear_closed_form(f_linear):
    grid = hf.init_flow(f_linear, BOX, 9)
    closed = np.concatenate(
        [grid.nodes[..., 0:1] * 2.0, grid.nodes[..., 1:2],
         math.sqrt(2.5) * grid.nodes[..., 2:3]], axis=-1
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
    _, _, step_energy = grid.tension(energy=True)
    assert np.array_equal(step_energy, energy)


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
    for got, want in zip(grid.tension(energy=True), (tau, norm, energy)):
        assert _same_bits(got, want)
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
    """Interior Jacobian and diagonal second derivatives, dividing by 2h and h^2."""
    u, res = grid.u, grid.resolution
    jac, lap = [], []
    for ax, h in enumerate(grid.spacings):
        def shifted(d):
            return u[tuple(slice(1 + d * (k == ax), r - 1 + d * (k == ax))
                           for k, r in enumerate(res))]
        up, um = shifted(1), shifted(-1)
        jac.append((up - um) / (2.0 * h))
        lap.append((up + -2.0 * shifted(0) + um) / h**2)
    return np.stack(jac, axis=-1), np.stack(lap, axis=-1)


@pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
def test_reciprocal_stencil_is_within_two_ulp_of_division(name):
    # the grid multiplies by 0.5/h and 1/h^2: one more rounding than a division
    grid = ORACLE_GRIDS[name]()
    _, jac, lap, _ = grid.interior_jets()
    for got, want in zip((jac, lap), _division_jets(grid)):
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))


def test_returned_arrays_are_read_only_views(f_stretch):
    grid = hf.init_flow(f_stretch, BOX, 9)
    for arr in grid.tension(energy=True) + grid.interior_jets():
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
    trace, final, _ = hf.run_flow(grid, t_end=200 * dt, dt=dt, record_every=50)
    assert not trace.aborted
    assert np.max(trace.sup_tension) <= 1e-3
    assert trace.sup_drift[-1] <= 1e-3


def test_harmonic_stationarity_thousand_steps(f_linear):
    grid = hf.init_flow(f_linear, BOX, 9)
    u0 = grid.u.copy()
    dt = hf.cfl_time_step(grid)
    trace, final, _ = hf.run_flow(grid, t_end=1000 * dt, dt=dt, record_every=250)
    assert not trace.aborted
    assert final.distance_to(u0) < 1e-4


@pytest.mark.parametrize("cfl_multiple", [1.5, 2.0])
def test_blowup_guard_runs_every_step(f_stretch, cfl_multiple):
    # past the CFL limit the frozen boundary layer seeds a growing mode; with
    # no record step before t_end only a guard run at every step can name it
    grid = hf.init_flow(f_stretch, BOX, 9)
    dt = cfl_multiple * hf.cfl_time_step(grid)
    trace, _, _ = hf.run_flow(grid, t_end=200 * dt, dt=dt, record_every=10**6)
    assert trace.aborted
    assert trace.abort_reason == hf.BLOWUP_REASON
    assert len(trace.times) == 1


def test_run_flow_stretch_decays(f_stretch):
    grid = hf.init_flow(f_stretch, BOX, 17)
    trace, final, _ = hf.run_flow(grid, t_end=0.25)
    assert not trace.aborted
    assert trace.decayed
    assert trace.within_band
    assert trace.sup_drift[-1] < 0.4  # pinned fixture bound (measured ~0.21)
    assert np.all(np.diff(trace.times) > 0)


def test_refinement_halving_dt(f_stretch):
    grid1 = hf.init_flow(f_stretch, BOX, 9)
    u_init = grid1.u.copy()
    dt = hf.cfl_time_step(grid1)
    _, final1, _ = hf.run_flow(grid1, t_end=0.04, dt=dt)
    grid2 = hf.FlowGrid(BOX, 9, u_init)
    _, final2, _ = hf.run_flow(grid2, t_end=0.04, dt=dt / 2)
    assert final1.distance_to(final2.u) < 1e-3


def test_cfl_guard_aborts_on_blowup(f_stretch):
    grid = hf.init_flow(f_stretch, BOX, 9)
    dt = 40.0 * hf.cfl_time_step(grid)
    trace, _, _ = hf.run_flow(grid, t_end=1.0, dt=dt, record_every=1)
    assert trace.aborted


# ---------------------------------------------------------------------------
# super-time-stepping: the stability guard, the schedule and its accuracy

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
    assert np.max(np.abs(eig.imag)) * dt < 2e-3  # real spectrum: the STS analysis applies
    assert 1.5 * dt * rho > 2.0  # so test_blowup_guard_runs_every_step trips at 1.5x CFL


@pytest.mark.parametrize("margin", [0.99, 1.01])
def test_guard_aborts_before_the_first_step_above_two_over_rho(f_stretch, margin):
    grid = hf.init_flow(f_stretch, BOX, 9)
    dt = margin * 2.0 / hf.spectral_radius(grid)
    before = grid.u.copy()
    trace, _, _ = hf.run_flow(grid, t_end=40 * dt, dt=dt)
    if margin > 1.0:
        assert trace.aborted and trace.abort_reason == hf.BLOWUP_REASON
        assert len(trace.times) == 1
        assert _same_bits(grid.u, before)
    else:  # just inside the limit the super-steps are stable
        assert not trace.aborted
        assert trace.decayed and trace.within_band


def test_default_step_stays_inside_the_explicit_limit():
    # on the 11^4 box the CFL step alone is past 2/rho (rho dt_CFL = 2.059
    # measured), so a default run used to abort before its first step; the
    # default base step is capped at DEFAULT_DT_RHO / rho
    grid = hf.FlowGrid(BOX, 11, lambda p: p, n=4)
    assert hf.cfl_time_step(grid) * hf.spectral_radius(grid) > 2.0
    trace, _, _ = hf.run_flow(grid, t_end=0.05)
    assert not trace.aborted
    assert trace.times[-1] == 0.05


def test_sts_substeps_sum_order_and_partial_products():
    dt = 0.37
    tau = hf.sts_substeps(dt)
    N, r = hf.STS_STAGES, math.sqrt(hf.STS_DAMPING)
    a, b = (1 + r) ** (2 * N), (1 - r) ** (2 * N)
    closed = dt * N / (2 * r) * (a - b) / (a + b)
    assert len(tau) == N
    assert abs(np.sum(tau) - closed) <= 1e-14 * closed
    assert np.all(np.diff(tau) > 0.0)  # smallest first
    lam_dt = np.linspace(0.0, 2.0, 10**4)
    partial = np.cumprod(1.0 - np.outer(lam_dt, tau / dt), axis=1)
    assert np.max(np.abs(partial)) <= 1.0
    # largest first, a partial product reaches 71 and would trip the energy guard
    assert np.max(np.abs(np.cumprod(1.0 - np.outer(lam_dt, tau[::-1] / dt), axis=1))) > 50


def test_super_steps_land_on_t_end_and_every_snapshot(f_stretch):
    grid = hf.init_flow(f_stretch, BOX, 9)
    u_init = grid.u.copy()
    t_end, marks = 0.1, [0.013, 0.05]
    trace, final, snaps = hf.run_flow(grid, t_end=t_end, snapshot_times=marks + [0.2])
    assert trace.times[-1] == t_end
    assert sorted(snaps) == marks  # a time past t_end is never reached
    for i, mark in enumerate(marks):
        # a run that ends at the mark takes the same super-steps up to it
        _, upto, _ = hf.run_flow(hf.FlowGrid(BOX, 9, u_init), t_end=mark,
                                 snapshot_times=marks[:i])
        assert _same_bits(snaps[mark], upto.u)


@pytest.mark.parametrize("super_steps", [1, 40, 41, 80, 81, 119])
def test_default_run_records_at_most_41_rows(super_steps):
    grid = hf.FlowGrid(BOX, 9, identity_values(BOX, 9))
    reach = float(np.sum(hf.sts_substeps(hf.cfl_time_step(grid))))
    t_end = (super_steps - 0.5) * reach
    trace, _, _ = hf.run_flow(grid, t_end=t_end)
    assert trace.times[-1] == t_end
    assert len(trace.times) <= 41
    assert len(trace.times) >= min(super_steps, 21) + 1


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
        trace, final, _ = hf.run_flow(grid, t_end=0.05, record_every=every)
        passes.append((fills.count(True), fills.count("tension")))
    assert passes[0][0] == passes[0][1]  # one tension pass per jet pass
    assert passes[0] == passes[1]  # a record adds no jet or tension pass
    # and reads the values a fresh grid computes from the same nodes
    fresh = hf.FlowGrid(BOX, 9, final.u)
    assert trace.sup_tension[-1] == fresh.sup_tension()
    assert trace.mean_energy[-1] == float(np.mean(fresh.stats_view(fresh.energy())))


def test_node_values_are_read_only(f_stretch):
    # every write goes through the setter or a step, which tell the grid
    # that its jets are stale
    grid = hf.init_flow(f_stretch, BOX, 9)
    with pytest.raises(ValueError):
        grid.u[..., 0] = 0.0
    norm = grid.tension()[1].copy()
    grid.u = hf.radial_bump_map(np.array([0.0, 0.0, 1.0]), 0.1, 0.8)(grid.u)
    assert not np.array_equal(grid.tension()[1], norm)


# STS against a dt/8 Euler reference on the 13^3 stretch grid at t = 0.05.
# To first order the error of a super-step is sum(tau_j^2)/2 J^2 u against
# sum(tau_j) dt/2 J^2 u for Euler over the same time, a ratio of 4.29; the
# measured ratio is 4.18-4.19 at t = 0.05 and 4.77-4.79 at t = 0.25 for
# radial_stretch K = 1.25, 1.5, 2 and shear c = 0.5 (STS errors 2.6e-4 to 2.0e-3
# at t = 0.05).  Both stay far below the spatial error (1.1e-2 between the
# 17^3 and 33^3 grids of the flow workload's box).  The STS error grows
# like the stretch: 2.04e-3 to 2.20e-3 per unit of K - 1 over K = 1.25, 1.5, 2.
STS_EULER_RATIO = 5.0
STS_ERR_PER_STRETCH = 2.5e-3


@pytest.mark.parametrize("K", [1.25, 1.5, 2.0])
def test_sts_error_against_a_fine_euler_reference(K):
    grid = hf.init_flow(make_boundary_map("radial_stretch", K=K), BOX, 13)
    u_init = grid.u.copy()
    t_end = 0.05
    n = math.ceil(t_end / hf.cfl_time_step(grid))
    _, sts, _ = hf.run_flow(grid, t_end=t_end)
    euler, ref = hf.FlowGrid(BOX, 13, u_init), hf.FlowGrid(BOX, 13, u_init)
    for _ in range(n):
        hf.flow_step(euler, t_end / n)
    for _ in range(8 * n):
        hf.flow_step(ref, t_end / (8 * n))
    err_sts, err_euler = sts.distance_to(ref.u), euler.distance_to(ref.u)
    assert err_sts <= STS_EULER_RATIO * err_euler, (err_sts, err_euler)
    assert err_sts <= STS_ERR_PER_STRETCH * (K - 1.0), err_sts


def test_trace_csv_round_trip(tmp_path, f_linear):
    grid = hf.init_flow(f_linear, BOX, 9)
    dt = hf.cfl_time_step(grid)
    trace, _, _ = hf.run_flow(grid, t_end=20 * dt, dt=dt, record_every=10)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    rows = path.read_text().splitlines()
    assert rows[0] == "t,sup_tension,sup_drift,mean_energy"
    assert len(rows) == len(trace.times) + 1


# ---------------------------------------------------------------------------
# parabolic maximum principle on radial test data

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
    rho = dist(grid.nodes[core], np.broadcast_to(center, grid.nodes[core].shape))
    # points at (almost) equal radius carry (almost) equal |tau|^2
    order = np.argsort(rho.ravel())
    r_sorted = rho.ravel()[order]
    v_sorted = (norm.ravel() ** 2)[order]
    close = np.nonzero(np.diff(r_sorted) < 1e-4)[0]
    if close.size:
        assert np.max(np.abs(v_sorted[close + 1] - v_sorted[close])) < 0.05 * np.max(v_sorted)


def test_hamilton_check_harmonic_data(f_linear):
    grid = hf.init_flow(f_linear, (2.0, 0.3, 3.0), 13)
    trace, _, snaps = hf.run_flow(grid, t_end=0.1, snapshot_times=[0.05, 0.1])
    base = hf.FlowGrid(grid.box, grid.resolution, grid.u0)
    rows = hf.hamilton_check(base, snaps)
    for t, lhs, rhs, holds in rows:
        assert holds
        assert lhs < 1e-6


def test_hamilton_check_bump_inequality():
    grid, center = _bump_grid()
    u_init = grid.u.copy()
    trace, _, snaps = hf.run_flow(grid, t_end=0.5, snapshot_times=[0.1, 0.25, 0.5])
    assert not trace.aborted
    base = hf.FlowGrid(grid.box, grid.resolution, u_init)
    rows = hf.hamilton_check(base, snaps, center_point=center)
    assert len(rows) == 3
    for t, lhs, rhs, holds in rows:
        assert holds, (t, lhs, rhs)


def test_hamilton_check_rejects_non_radial_profile(f_stretch):
    grid = hf.init_flow(f_stretch, (2.0, 0.3, 3.0), 13)
    with pytest.raises(ValueError):
        hf.hamilton_check(grid, {0.1: grid.u.copy()})
