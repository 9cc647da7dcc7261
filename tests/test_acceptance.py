"""Acceptance suite: each test enforces one numbered criterion at its
stated tolerance and prints a pass/fail line."""

import math
import time

import numpy as np

from qcflow.boundary import make_boundary_map
from qcflow.cli import main as cli_main
from qcflow.covering import BETA_IMPL, besicovitch_cover, cover_annulus
from qcflow.extension import GoodExtension, check_partial_conformal_naturality
from qcflow.geometry import INFINITY, IsometryFixingInfinity, Mobius, Point, PolarFrame
from qcflow.greens import C_GREEN, green, green_volume_integral
from qcflow.heatkernel import (
    RadialKernel,
    annulus_tail_mass,
    l_of_eps,
    peak_location,
    reduce_to_annulus,
)
from qcflow.tension import map_distortion, tension_norm
import qcflow.heatflow as hf

from test_heatkernel import pde_residual


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def interior_grid(nx=9, box=1.0, s_lo=0.5, s_hi=2.0):
    xs = np.linspace(-box, box, nx)
    ss = np.geomspace(s_lo, s_hi, nx)
    return np.stack(np.meshgrid(xs, xs, ss, indexing="ij"), axis=-1).reshape(-1, 3)


def test_criterion_1_linear_map_harmonicity():
    t0 = time.monotonic()
    th = 0.5
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    mats = [np.diag([2.0, 1.0]), np.diag([1.5, 1.0]), rot @ np.diag([3.0, 1.0])]
    grid = interior_grid()
    worst_tau = 0.0
    worst_dev = 0.0
    for L in mats:
        ext = GoodExtension(make_boundary_map("linear", matrix=L))
        worst_tau = max(worst_tau, float(np.max(ext.tension_norm(grid))))
        c = math.sqrt(np.sum(L**2) / 2.0)
        closed = np.column_stack([grid[:, :2] @ L.T, c * grid[:, 2]])
        worst_dev = max(worst_dev, float(np.max(np.abs(ext(grid) - closed))))
    elapsed = time.monotonic() - t0
    ok = worst_tau <= 1e-3 and worst_dev <= 1e-6 and elapsed < 60.0
    report(1, ok,
           f"sup|tau| {worst_tau:.2e} <= 1e-3, closed-form dev {worst_dev:.2e}"
           f" <= 1e-6, {elapsed:.0f}s < 60s")


def test_criterion_2_distortion_transfer():
    ext = GoodExtension(make_boundary_map("linear", matrix=np.diag([2.0, 1.0])))
    rng = np.random.default_rng(2)
    pts = np.column_stack([
        rng.uniform(-2.0, 2.0, size=(100, 2)),
        np.exp(rng.uniform(math.log(0.25), math.log(4.0), size=100)),
    ])
    K = map_distortion(ext, pts)
    dev = float(np.max(np.abs(K - 2.0)))
    report(2, dev <= 1e-3, f"max |K - 2| = {dev:.2e} <= 1e-3 at 100 points")


def test_criterion_3_partial_conformal_naturality():
    # sample heights stay below ~0.85 and the J scales are >= 1: the shear's
    # tanh has poles pi/2 off the real axis, so its Gaussian averages at
    # effective height s carry an e^{-14.4/s} quadrature error which must
    # sit below the 1e-6 comparison level on both sides
    rng = np.random.default_rng(3)
    pts = np.column_stack([
        rng.uniform(-1.5, 1.5, size=(50, 2)),
        np.exp(rng.uniform(math.log(0.3), math.log(0.85), size=50)),
    ])
    th = 0.8
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    pair_a = (
        IsometryFixingInfinity(2.0, rot, np.array([0.5, -0.3])),
        IsometryFixingInfinity(1.25, np.eye(2), np.array([1.0, 0.0])),
    )
    pair_b = (
        IsometryFixingInfinity(1.3, np.eye(2), np.array([-0.7, 0.4])),
        IsometryFixingInfinity(1.3, rot.T, np.zeros(2)),
    )
    V = Mobius.inversion(3)
    worst = 0.0
    maps_inf = [make_boundary_map("identity"),
                make_boundary_map("linear", matrix=np.diag([2.0, 1.0])),
                make_boundary_map("shear", c=0.5)]
    for I, J in (pair_a, pair_b):
        for f in maps_inf:
            worst = max(worst, check_partial_conformal_naturality(
                f, I, J, INFINITY, INFINITY, pts))
    for K in (1.3, 1.5, 2.0):
        f = make_boundary_map("radial_stretch", K=K)
        worst = max(worst, check_partial_conformal_naturality(
            f, V, V, INFINITY, np.zeros(2), pts))
    report(3, worst <= 1e-6,
           f"max deviation {worst:.2e} <= 1e-6 over 3 isometry pairs x 3 maps"
           f" x 50 points")


def test_criterion_4_heat_kernel_mass_and_pde():
    t0 = time.monotonic()
    kern = RadialKernel(3)
    worst_mass = max(abs(kern.total_mass(t) - 1.0) for t in (0.1, 1.0, 10.0, 50.0))
    rng = np.random.default_rng(4)
    worst_resid = 0.0
    for _ in range(100):
        t = rng.uniform(0.2, 5.0)
        rho = rng.uniform(0.1, 2.0 * t + 8.0 * math.sqrt(t) + 2.0)
        worst_resid = max(worst_resid, abs(pde_residual(rho, t)))
    elapsed = time.monotonic() - t0
    ok = worst_mass <= 1e-6 and worst_resid < 1e-6 and elapsed < 60.0
    report(4, ok,
           f"mass dev {worst_mass:.1e} <= 1e-6, PDE residual {worst_resid:.1e}"
           f" < 1e-6, {elapsed:.0f}s < 60s")


def test_criterion_5_ballistic_annulus():
    worst = []
    for t in (4.0, 16.0, 64.0):
        for eps in (0.1, 0.01):
            tail = annulus_tail_mass(t, l_of_eps(eps))
            worst.append(tail < eps)
    peaks_ok = all(
        abs(peak_location(t) - 2.0 * t) <= 2.0 * math.sqrt(t)
        for t in (4.0, 16.0, 64.0)
    )
    report(5, all(worst) and peaks_ok,
           f"tail(t, l(eps)) < eps for all 6 cases: {all(worst)}; peaks in"
           f" (n-1)t +/- 2 sqrt(t): {peaks_ok}")


def tabulated_tension_profile(ext, hi, rng, sup_bound):
    """Monte Carlo spherical average of |tau|^2 on a rho grid.

    The profile is clipped at its declared sup bound (the tension of an
    admissible extension is globally bounded); pointwise evaluation high
    above the box is rounding-dominated for strongly stretching maps, and
    the clip is what keeps the tabulated profile an honest bounded radial
    function.
    """
    from qcflow.heatkernel import RadialProfile

    frame = PolarFrame(Point([0.0, 0.0], 1.0))
    rho_grid = np.linspace(0.05, hi, int(hi) + 1)
    vals = np.empty_like(rho_grid)
    for i, rho in enumerate(rho_grid):
        zeta = rng.normal(size=(48, 3))
        zeta /= np.linalg.norm(zeta, axis=1, keepdims=True)
        pts = frame.from_polar(rho, zeta)
        vals[i] = float(np.mean(np.minimum(ext.tension_norm(pts),
                                           math.sqrt(sup_bound)) ** 2))
    return RadialProfile(
        lambda r: np.interp(np.asarray(r, dtype=float), rho_grid, vals), sup_bound
    )


def test_criterion_6_reduction_inequality():
    rng = np.random.default_rng(6)
    ext = GoodExtension(make_boundary_map("radial_stretch", K=1.5))
    # declared tension bound, measured over the trusted band (sup ~2.6)
    sup_sq = 10.0
    results = []
    for t in (16.0, 64.0):
        hi = 2.0 * t + 12.0 * math.sqrt(t) + 20.0
        const = lambda r: np.full_like(np.asarray(r, float), 2.5)
        r_mid = 2.0 * t
        indicator = lambda r: (np.asarray(r, float) <= r_mid).astype(float)
        profile = tabulated_tension_profile(ext, hi, rng, sup_sq)
        for Phi in (const, indicator, profile):
            bound, full, holds = reduce_to_annulus(Phi, t, 0.1)
            results.append(holds)
    report(6, all(results),
           f"bound dominates the kernel integral for 3 profiles x t in (16, 64):"
           f" {results}")


def test_criterion_7_flow_decay():
    t0 = time.monotonic()
    f = make_boundary_map("radial_stretch", K=1.5)
    box = (2.0, 0.25, 4.0)
    grid = hf.init_flow(f, box, 33)
    trace, final, _ = hf.run_flow(grid, t_end=1.0)
    decay_ok = (not trace.aborted) and trace.decayed and trace.within_band
    drift_ok = float(np.max(trace.sup_drift)) < 0.4  # pinned fixture bound

    fL = make_boundary_map("linear", matrix=np.diag([2.0, 1.0]))
    gridL = hf.init_flow(fL, box, 17)
    uL = gridL.u.copy()
    dtL = hf.cfl_time_step(gridL)
    traceL, finalL, _ = hf.run_flow(gridL, t_end=1000 * dtL, dt=dtL,
                                    record_every=250)
    stationary = finalL.distance_to(uL) < 1e-4 and not traceL.aborted
    elapsed = time.monotonic() - t0
    ok = decay_ok and drift_ok and stationary and elapsed < 600.0
    report(7, ok,
           f"sup|tau| {trace.sup_tension[0]:.3f} -> {trace.sup_tension[-1]:.4f}"
           f" (band ok: {trace.within_band}), drift {np.max(trace.sup_drift):.3f}"
           f" < 0.4, harmonic 1000-step movement {finalL.distance_to(uL):.1e}"
           f" < 1e-4, {elapsed:.0f}s < 600s")


def test_criterion_8_good_set_trend():
    f = make_boundary_map("radial_stretch", K=1.5)
    ext = GoodExtension(f)
    rng = np.random.default_rng(8)
    u = rng.uniform(size=(400, 2))
    r = np.sqrt(u[:, 0])
    th = 2.0 * math.pi * u[:, 1]
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])
    fracs = []
    for s in (1e-1, 1e-2, 1e-3):
        pts = np.column_stack([X, np.full(len(X), s)])
        e_ok = np.asarray(tension_norm(ext, pts) < 0.1)
        k_ok = map_distortion(ext, pts) < 2.0 * f.declared_K
        from qcflow.tension import energy_density

        en_ok = energy_density(ext, pts) > 1.0
        fracs.append(float(np.mean(e_ok & k_ok & en_ok)))
    monotone = fracs[0] <= fracs[1] + 1e-12 and fracs[1] <= fracs[2] + 1e-12
    ok = monotone and fracs[-1] >= 0.9
    report(8, ok, f"fractions {[round(f, 3) for f in fracs]} nondecreasing,"
                  f" final >= 0.9")


def test_criterion_9_covering():
    mults = []
    covered = []
    for R in (2.0, 4.0, 6.0):
        _, rep = besicovitch_cover(R, sample_size=100_000)
        mults.append(rep["max_multiplicity"])
        covered.append(rep["covered_fraction"] == 1.0)
    cover_ok = all(covered) and max(mults) <= BETA_IMPL

    ext = GoodExtension(make_boundary_map("linear", matrix=np.diag([2.0, 1.0])))
    frame = PolarFrame(Point([0.0, 0.0], 1.0))
    repc = cover_annulus(frame, 16.0, 0.1,
                         lambda p: ext.tension_norm(p) ** 2,
                         max_cylinders=2, enumeration_cap=4, audit_branches=1,
                         n_slab=64, seed=9)
    stacks_ok = all(
        c.all_good and c.disjoint and c.contained
        and c.leftover_estimate <= c.leftover_bound + 1e-12
        for c in repc.cylinders
    )
    report(9, cover_ok and stacks_ok,
           f"coverage 100% at R=2,4,6 with multiplicities {mults} <= "
           f"{BETA_IMPL}; linear-map stacks all good/disjoint/bounded:"
           f" {stacks_ok}")


def test_criterion_10_green_function():
    from qcflow.greens import _panel_quad

    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        r = rng.uniform(0.3, 1.0)
        rho = rng.uniform(0.01, 0.99 * r)
        quad = _panel_quad(lambda s: (1.0 - s**2) / s**2,
                           np.geomspace(rho, r, 65)) / 3.0
        worst = max(worst, abs(green(r, rho) - quad))
    ratios = []
    for r in (0.9, 0.99, 0.999):
        ratios.append(green_volume_integral(r) / math.log(1.0 / (1.0 - r * r)))
    ratio_ok = all(rat >= 3.0 * C_GREEN / 2.0 for rat in ratios)
    report(10, worst <= 1e-10 and ratio_ok,
           f"closed form vs quadrature {worst:.1e} <= 1e-10; volume ratios"
           f" {[round(x, 3) for x in ratios]} >= {3.0 * C_GREEN / 2.0}")


def test_criterion_11_cli_determinism(tmp_path):
    configs = {
        "extend": "map=radial_stretch\nK=1.5\nnx=4\nns=3\n",
        "flow": "map=radial_stretch\nK=1.5\nresolution=9\nt_end=0.01\n",
        "kernel": "t=16\nn_rho=41\n",
        "cover": ("map=linear\nmatrix=2,0,0,1\nt=16\neps=0.1\nmax_cylinders=1\n"
                  "enumeration_cap=2\naudit_branches=1\nn_slab=32\nsvg=1\n"),
        "goodset": "map=radial_stretch\nK=1.5\nn_x=30\nheights=1e-2,1e-3\n",
    }
    all_same = True
    for cmd, cfg in configs.items():
        cfg_path = tmp_path / f"{cmd}.cfg"
        cfg_path.write_text(cfg)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}_{tag}"
            rc = cli_main([cmd, "--config", str(cfg_path), "--out", str(out),
                           "--seed", "3"])
            assert rc == 0, f"{cmd} exited {rc}"
            outs.append(out)
        for p in sorted(outs[0].iterdir()):
            if (outs[1] / p.name).read_bytes() != p.read_bytes():
                all_same = False
    report(11, all_same, "repeated runs of all five subcommands are"
                         " byte-identical")
