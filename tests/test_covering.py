import math

import numpy as np
import pytest

from qcflow.covering import (
    BETA_IMPL,
    L0_IMPL,
    CubeImage,
    CubeToDisk,
    Sector,
    SphericalDisk,
    admissibility_check,
    admissibility_factor,
    besicovitch_cover,
    cover_annulus,
    fibonacci_sphere,
    find_good_height,
    partition_cube,
    sector_average,
    sector_svg,
    subcube,
)
from qcflow.geometry import PolarFrame, Point

FRAME = PolarFrame(Point([0.0, 0.0], 1.0))


def tension_sq_field(ext):
    return lambda pts: ext.tension_norm(pts) ** 2


# ---------------------------------------------------------------------------
# disk covers

def test_fibonacci_sphere_on_unit_sphere():
    pts = fibonacci_sphere(500)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_coarse_cover_few_disks():
    # e^{-R}/2 = pi/2 at R = -log(pi): a handful of large caps suffice
    _, rep = besicovitch_cover(-math.log(math.pi), sample_size=5000)
    assert rep["covered_fraction"] == 1.0
    assert rep["count"] <= 30
    assert rep["max_multiplicity"] <= BETA_IMPL


def test_cover_radius_and_count_growth():
    _, rep3 = besicovitch_cover(3.0, sample_size=20000)
    assert rep3["radius"] == pytest.approx(math.exp(-3.0) / 2.0)
    assert rep3["radius"] == pytest.approx(0.0249, abs=1e-3)
    _, rep4 = besicovitch_cover(4.0, sample_size=20000)
    ratio = rep4["count"] / rep3["count"]
    assert math.e**2 / 2.0 <= ratio <= 2.0 * math.e**2


def test_cover_coverage_and_multiplicity():
    for R in (2.0, 4.0):
        _, rep = besicovitch_cover(R, sample_size=50000)
        assert rep["covered_fraction"] == 1.0
        assert rep["max_multiplicity"] <= BETA_IMPL


def test_cover_is_the_lattice_center_array():
    centers, rep = besicovitch_cover(3.0, sample_size=2000)
    assert isinstance(centers, np.ndarray)
    assert centers.shape == (rep["count"], 3)
    assert np.array_equal(centers, fibonacci_sphere(rep["count"]))
    assert np.allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# cube charts

def test_chart_center_and_roundtrip():
    d = SphericalDisk(np.array([1.0, 0.0, 0.0]), 0.02)
    B = CubeToDisk(d)
    assert np.allclose(B.forward(np.zeros(2)), d.center)
    rng = np.random.default_rng(0)
    u = rng.uniform(-0.02, 0.02, size=(200, 2))
    assert np.max(np.abs(B.inverse(B.forward(u)) - u)) < 1e-12


def test_chart_bilipschitz_constant_stable():
    rng = np.random.default_rng(1)
    for R in (3.0, 5.0, 8.0):
        d = SphericalDisk(np.array([0.0, 0.0, 1.0]), math.exp(-R) / 2.0)
        L = CubeToDisk(d).measured_bilipschitz(rng, n_pairs=10_000)
        assert L <= L0_IMPL


def test_chart_image_contains_concentric_disk():
    R = 4.0
    d = SphericalDisk(np.array([0.0, 1.0, 0.0]), math.exp(-R) / 2.0)
    B = CubeToDisk(d)
    inner = SphericalDisk(d.center, math.exp(-R) / (2.0 * L0_IMPL))
    rng = np.random.default_rng(2)
    pts = inner.sample(rng, 2000)
    u = B.inverse(pts)
    assert np.all(np.max(np.abs(u), axis=1) <= d.radius + 1e-12)


def test_chart_rejects_large_caps():
    with pytest.raises(ValueError):
        CubeToDisk(SphericalDisk(np.array([0.0, 0.0, 1.0]), 0.5))


def test_chart_resolves_sub_epsilon_cells():
    # tangent-plane geometry keeps full relative precision at depths where
    # unit vectors collapse
    d = SphericalDisk(np.array([0.0, 0.0, 1.0]), math.exp(-21.0) / 2.0)
    B = CubeToDisk(d)
    side = math.exp(-33.0)
    lo = np.array([3e-10, 1e-10])
    ci = CubeImage(B, lo, lo + side)
    inner, outer = ci.radii_estimate()
    assert 0.3 * side < inner < outer < 1.5 * side


# ---------------------------------------------------------------------------
# partitions and admissibility

def _fd_chart_jacobian(chart, u, h):
    """|det D(forward)| by central differences: the oracle for the closed form."""
    J = np.empty(u.shape[:-1] + (3, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        J[..., :, j] = (chart.forward(u + e) - chart.forward(u - e)) / (2.0 * h)
    gram = np.einsum("...ki,...kj->...ij", J, J)
    return np.sqrt(gram[..., 0, 0] * gram[..., 1, 1] - gram[..., 0, 1] ** 2)


TILTED = np.array([0.3, -0.4, math.sqrt(0.75)])


def test_chart_jacobian_matches_finite_differences():
    # the squish has kinks on the diagonals |u1| = |u2|; keep the stencil
    # off them.  With h = 1e-7 a sweep of 2e4 points measured <= 1.9e-9.
    r = 0.05
    chart = CubeToDisk(SphericalDisk(TILTED, r))
    u = np.random.default_rng(41).uniform(-r, r, size=(2000, 2))
    u = u[np.abs(np.abs(u[:, 0]) - np.abs(u[:, 1])) > 0.02 * r]
    ratio = chart.jacobian(u) / _fd_chart_jacobian(chart, u, 1e-7)
    assert float(np.max(np.abs(ratio - 1.0))) < 1e-7


def test_chart_jacobian_exact_at_tiny_caps():
    # at r = 1e-7, sin(theta)/theta = 1 - theta^2/6 is 1 to 2e-15, so the
    # Jacobian is the squish's area factor; central differences at the chart
    # scale were off by a median of 1.6e-6 here (unit vectors round at 1e-16)
    r = 1e-7
    chart = CubeToDisk(SphericalDisk(TILTED, r))
    u = np.random.default_rng(42).uniform(-r, r, size=(2000, 2))
    squish = np.max(np.abs(u), axis=1) / np.linalg.norm(u, axis=1)
    assert float(np.max(np.abs(chart.jacobian(u) / squish**2 - 1.0))) < 1e-12


def test_partition_cube_example():
    n, side = partition_cube([0.0, 0.0], [1.0, 1.0], -math.log(0.3))
    assert n == 2 and side == pytest.approx(0.5)
    assert 0.3 <= side <= 0.6


def test_partition_cube_window_sweep():
    rng = np.random.default_rng(3)
    for _ in range(200):
        Rp = rng.uniform(0.5, 12.0)
        scale = math.exp(-Rp)
        ell = scale * rng.uniform(math.e, 40.0)
        n, side = partition_cube([0.0, 0.0], [ell, ell], Rp)
        assert scale * (1 - 1e-12) <= side <= 2 * scale * (1 + 1e-12)
        assert n * side == pytest.approx(ell, rel=1e-12)
        lo, hi = subcube([0.0, 0.0], side, (n - 1, n - 1))
        assert np.allclose(hi, [ell, ell], rtol=1e-12)


def test_partition_cube_rejects_small_cubes():
    with pytest.raises(ValueError):
        partition_cube([0.0, 0.0], [0.1, 0.1], -math.log(0.09))


def test_admissibility_disk_cases():
    rho = 4.0
    exact = SphericalDisk(np.array([0.0, 0.0, 1.0]), math.exp(-rho))
    cert = admissibility_check(exact, rho, 1.0)
    assert cert is not None and cert.alpha == 1.0
    too_big = SphericalDisk(np.array([0.0, 0.0, 1.0]), 3.0 * math.exp(-rho))
    assert admissibility_check(too_big, rho, 2.0) is None


def test_admissibility_cube_image():
    rho = 5.0
    chart = CubeToDisk(SphericalDisk(np.array([0.0, 0.0, 1.0]), 0.05))
    alpha = admissibility_factor(3)
    rng = np.random.default_rng(4)
    for side_fac in (1.0, 1.5, 2.0):
        side = side_fac * math.exp(-rho)
        lo = rng.uniform(-0.02, 0.02, size=2)
        ci = CubeImage(chart, lo, lo + side)
        cert = admissibility_check(ci, rho, alpha, rng=rng)
        assert cert is not None
        assert cert.inner.radius >= math.exp(-rho) / alpha
        assert cert.outer.radius <= alpha * math.exp(-rho)


# ---------------------------------------------------------------------------
# sector averages and good heights

def test_sector_average_constant_field():
    d = SphericalDisk(np.array([0.0, 0.0, -1.0]), 0.05)
    sec = Sector(FRAME, 2.0, 1.0, d)
    mean, se, n = sector_average(sec, lambda p: np.full(p.shape[0], 3.14),
                                 n_mc=512, rng=np.random.default_rng(5))
    assert mean == pytest.approx(3.14, abs=1e-12)
    assert se < 1e-12


def test_sector_average_harmonic_extension_is_tiny(ext_linear):
    d = SphericalDisk(np.array([0.3, -0.5, -math.sqrt(1 - 0.34)]), math.exp(-3.0))
    sec = Sector(FRAME, 3.0, 1.0, d)
    mean, se, _ = sector_average(sec, tension_sq_field(ext_linear), n_mc=256,
                                 rng=np.random.default_rng(6))
    assert mean < 1e-7


def test_sector_average_decays_toward_boundary(ext_stretch):
    direction = np.array([0.3, -0.5, -math.sqrt(1 - 0.34)])
    rng = np.random.default_rng(7)
    vals = []
    for rho_min in (1.0, 5.0):
        d = SphericalDisk(direction, math.exp(-rho_min))
        sec = Sector(FRAME, rho_min, 1.0, d)
        mean, _, _ = sector_average(sec, tension_sq_field(ext_stretch),
                                    n_mc=512, rng=rng)
        vals.append(mean)
    assert vals[1] < vals[0]


def test_find_good_height_harmonic_immediate(ext_linear):
    d = SphericalDisk(np.array([0.0, 0.0, -1.0]), math.exp(-4.0))
    res = find_good_height(FRAME, 4.0, d, 0.01, 8.0, tension_sq_field(ext_linear),
                           rng=np.random.default_rng(8), n_slab=128)
    assert res["success"] and res["r1"] == pytest.approx(1.0)


def test_find_good_height_stretch_fixture(ext_stretch):
    d = SphericalDisk(np.array([0.3, -0.5, -math.sqrt(1 - 0.34)]), math.exp(-6.0))
    res = find_good_height(FRAME, 6.0, d, 0.01, 8.0, tension_sq_field(ext_stretch),
                           rng=np.random.default_rng(9), n_slab=256)
    assert res["success"]
    assert res["r1"] == pytest.approx(1.0)  # pinned fixture
    assert 1.0 <= res["r1"] <= 8.0


def test_find_good_height_fails_near_center(ext_stretch):
    # rho_min far below the empirical threshold with a tiny delta
    d = SphericalDisk(np.array([0.3, -0.5, -math.sqrt(1 - 0.34)]), math.exp(-0.5))
    res = find_good_height(FRAME, 0.5, d, 1e-6, 2.0, tension_sq_field(ext_stretch),
                           rng=np.random.default_rng(10), n_slab=64)
    assert not res["success"]
    assert res["mean"] > 1e-6


def test_find_good_height_rejects_r_max_below_one(ext_stretch):
    # with r_max < 1 no slab reaches the first candidate height
    d = SphericalDisk(np.array([0.0, 0.0, -1.0]), math.exp(-4.0))
    with pytest.raises(ValueError, match="r_max"):
        find_good_height(FRAME, 4.0, d, 0.01, 0.5, tension_sq_field(ext_stretch),
                         rng=np.random.default_rng(11), n_slab=16)


# ---------------------------------------------------------------------------
# the full pipeline

def test_cover_annulus_toy_single_disk(ext_linear):
    # one huge disk, small t, r0 spanning the whole cylinder height:
    # only the structure is exercised (bookkeeping, disjointness)
    whole = SphericalDisk(np.array([0.0, 0.0, 1.0]), 1.0)
    rep = cover_annulus(FRAME, 2.6, 0.1, tension_sq_field(ext_linear),
                        r0=9.0, max_cylinders=1, n_slab=64, seed=0,
                        disks=[whole])
    cyl = rep.cylinders[0]
    assert cyl.disjoint and cyl.contained
    assert len(cyl.sectors) >= 1
    assert all(1.0 <= s.r1 <= 9.0 for s in cyl.sectors)
    assert cyl.leftover_estimate <= cyl.leftover_bound + 1e-12


def test_cover_annulus_linear_all_good(ext_linear):
    from qcflow.heatkernel import l_of_eps

    rep = cover_annulus(FRAME, 16.0, 0.1, tension_sq_field(ext_linear),
                        max_cylinders=1, enumeration_cap=4, audit_branches=1,
                        n_slab=64, seed=11)
    assert rep.r_in == pytest.approx(32.0 - 4.0 * l_of_eps(0.1))
    assert rep.r_out == pytest.approx(32.0 + 4.0 * l_of_eps(0.1))
    cyl = rep.cylinders[0]
    assert cyl.all_good
    assert cyl.disjoint and cyl.contained
    assert cyl.leftover_estimate <= cyl.leftover_bound + 1e-12
    assert all(1.0 <= s.r1 <= 8.0 for s in cyl.sectors)
    assert all(rep.r_out - 8.0 < bt <= rep.r_out for bt in cyl.branch_tops)
    assert np.isfinite(cyl.weighted_tension_avg)
    assert cyl.weighted_tension_avg <= 0.1
    rows = rep.csv_rows()
    assert rows[0][0] == "cylinder"
    svg = sector_svg(rep, 0)
    assert svg.startswith("<svg") and "</svg>" in svg


def test_cover_annulus_rejects_annulus_through_origin(ext_linear):
    with pytest.raises(ValueError):
        cover_annulus(FRAME, 1.0, 0.1, tension_sq_field(ext_linear))


def test_cover_annulus_materialised_cover_branch(ext_linear):
    # small t: the disk cover at R_in is small enough to build explicitly
    rep = cover_annulus(FRAME, 3.5, 0.1, tension_sq_field(ext_linear),
                        max_cylinders=2, enumeration_cap=3, audit_branches=1,
                        n_slab=48, seed=1)
    assert rep.cover_report  # the real cover was built and measured
    assert rep.cover_report["covered_fraction"] == 1.0
    assert len(rep.cylinders) == 2
    # the cylinders sit over the strided lattice centers of the cover
    count = rep.cover_report["count"]
    lattice = fibonacci_sphere(count)[::max(1, count // 2)][:2]
    for c, center in zip(rep.cylinders, lattice):
        assert np.array_equal(c.disk.center, center)
        assert c.disk.radius == rep.cover_report["radius"]
        assert c.disjoint and c.contained and c.all_good
