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
