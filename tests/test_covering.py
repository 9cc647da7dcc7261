import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qcflow.covering import (
    ALPHA_STAR,
    BETA_IMPL,
    GOLDEN_RATIO,
    L_FWD,
    L_INV,
    LATTICE_SPACING,
    MAX_LATTICE_COUNT,
    POLAR_ROWS,
    R_OUT_MAX,
    CubeToDisk,
    FibonacciCover,
    SectorRecord,
    SphericalDisk,
    besicovitch_cover,
    cell_alpha,
    cover_annulus,
    fibonacci_sphere,
    find_good_height,
    partition_cube,
    sector_svg,
    subcube,
    _BLOCK,
    _FIB,
    _HALF_COS,
    _HALF_SIN,
    _PATCH,
    _SAMPLE_BLOCK,
    _check_disjoint,
    _lattice_angle,
    _lattice_count,
    _sphere_angles,
    main_annulus,
)


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
    cover, rep = besicovitch_cover(3.0, sample_size=2000)
    assert isinstance(cover, FibonacciCover)
    assert (cover.count, cover.radius) == (rep["count"], rep["radius"])
    centers = cover.center(np.arange(cover.count))
    assert np.array_equal(centers, fibonacci_sphere(rep["count"]))
    assert np.array_equal(cover.center(17), centers[17])
    assert np.allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-12)


def _cover_report_at_once(R, sample_size, rng):
    """The report as measured with every sample formed and counted in one pass."""
    cover, _ = besicovitch_cover(R, sample_size=1)
    mult, near = cover.caps_at(*_sphere_angles(rng, sample_size))
    return {
        "R": R,
        "radius": cover.radius,
        "count": cover.count,
        "max_multiplicity": int(np.max(mult)),
        "mean_multiplicity": float(np.mean(mult)),
        "covered_fraction": float(np.mean(mult >= 1)),
        "covering_radius_sample": 2.0 * math.asin(min(1.0, float(np.max(near)) / 2.0)),
    }


# the workload's cover: R_in of the main annulus at t = 5.5, eps = 0.1
R_WORKLOAD = main_annulus(5.5, 0.1, 8.0)[0]


@pytest.mark.parametrize("R", [-math.log(math.pi), 2.0, R_WORKLOAD])
@pytest.mark.parametrize("sample_size", [1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK + 1, 100_000])
def test_blocked_cover_report_equals_one_pass(R, sample_size):
    # at R = -log(pi) every sample lies in the polar rows, at R_WORKLOAD a
    # few in 1e5 do; the report and the generator's state after it are the
    # one-pass ones bit for bit, so the sectors drawn next are unchanged
    rng, rng_once = np.random.default_rng(11), np.random.default_rng(11)
    _, rep = besicovitch_cover(R, sample_size=sample_size, rng=rng)
    want = _cover_report_at_once(R, sample_size, rng_once)
    assert rep == want
    assert [type(v) for v in rep.values()] == [type(v) for v in want.values()]
    assert rng.bit_generator.state == rng_once.bit_generator.state


def test_workload_cover_report_is_pinned():
    # the benchmark's cover, every field and the generator state after it;
    # needs numpy alone, unlike the KD-tree.  Counted from Cartesian
    # centres, covering_radius_sample read 0.003015770787843223
    rng = np.random.default_rng(0)
    _, rep = besicovitch_cover(R_WORKLOAD, rng=rng)
    assert rep == {
        "R": 4.650449448782785,
        "radius": 0.0047786527228957975,
        "count": 679382,
        "max_multiplicity": 6,
        "mean_multiplicity": 3.87656,
        "covered_fraction": 1.0,
        "covering_radius_sample": 0.003015770808149396,
    }
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {"state": 326717872530643525441619940606332531619,
                  "inc": 87136372517582989555478159403783844777},
        "has_uint32": 0,
        "uinteger": 0,
    }


def test_cover_memory_is_the_angles_plus_one_block():
    # Only the drawn heights and azimuths grow with the sample: 16 B each.
    # A sample block holds caps_at's mult, near and non-polar index (8 B
    # each), its polar mask and passing per-sample temporaries: 40 B per
    # sample.  An inner block of _BLOCK point-centre entries (910 points x 9
    # patch centres) keeps at most 12 arrays' worth of 8 B per entry alive
    # (patch indices, validity, the centres' heights, rho_c, the table's
    # cosines and sines, the half gap's sine and the squared-chord chain).
    # Small objects stay under 256 KiB.  Measured: 2.67 MiB against this
    # bound of 2.84 MiB at 1e5 samples (2.87 MiB when the sample block
    # formed its points and caps_at their Cartesian centres, 9.84 MiB when
    # every sample was held at once).
    n = 100_000
    bound = 16 * n + 40 * _SAMPLE_BLOCK + 12 * 8 * _BLOCK + (1 << 18)
    tracemalloc.start()
    try:
        besicovitch_cover(R_WORKLOAD, sample_size=n, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 * n < peak <= bound


def _polar_and_zone_samples(n, rng, per=64):
    """Heights and azimuths in the polar rows and just either side of every zone boundary."""
    rows = np.arange(min(n, 3 * POLAR_ROWS))
    rows = np.concatenate([rows, n - 1 - rows])
    zs = [1.0 - (2.0 * rows + 1.0 + rng.uniform(-1.0, 1.0, rows.size)) / n]
    # zone k starts where sqrt5 pi N (1 - z^2) = phi^(2k)
    for k in range(2, 64):
        w = GOLDEN_RATIO ** (2 * k) / (math.sqrt(5.0) * n * math.pi)
        if w >= 1.0:
            break
        for rel in (-1e-9, -1e-6, -1e-3, 1e-9, 1e-6, 1e-3):
            z = math.sqrt(1.0 - w) * (1.0 + rel)
            if z < 1.0:
                zs += [np.full(per, z), np.full(per, -z)]
    z = np.clip(np.concatenate(zs), -1.0, 1.0)
    return z, rng.uniform(0.0, 2.0 * math.pi, z.size)


def _xyz(z, phi):
    """Unit vectors at heights z and azimuths phi."""
    rad = np.sqrt(1.0 - z * z)
    return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])


def _centre_rounding(n):
    """The chord by which caps_at may place a centre away from center(i).

    The count takes centre i's azimuth as theta_i0 plus a half-step table
    entry; theta_i0 = 2 pi i0/phi^2 (up to 2.4 n) rounds twice, phi -
    theta_i0 once, and the table adds well under one ulp (see the table's
    test); center(i) rounds theta_i twice.  That is at most 4 ulp(2.4 n)
    of azimuth, and a chord moves by at most the azimuth times rho <= 1.
    The heights z_i are the same expression in both.  Measured: at most
    1.87 ulp(2.4 n) over the sweep below.
    """
    return 4.0 * math.ulp(2.4 * n)


@pytest.mark.parametrize("R", [-math.log(math.pi), 0.5, 2.0, 3.0, 4.0, R_WORKLOAD])
def test_inverse_caps_equal_kdtree_oracle(R):
    # the inverse Fibonacci map finds exactly the caps a KD-tree over every
    # centre finds, with the nearest chord to within the centres' rounding;
    # the KD-tree's own points and chords round at a few ulp(1)
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    cover, _ = besicovitch_cover(R, sample_size=1)
    rng = np.random.default_rng(5)
    z, phi = (np.concatenate(a) for a in zip(_sphere_angles(rng, 20_000),
                                             _polar_and_zone_samples(cover.count, rng)))
    mult, near = cover.caps_at(z, phi)
    k = min(32, cover.count)
    d, _ = cKDTree(fibonacci_sphere(cover.count)).query(_xyz(z, phi), k=k)
    d = d.reshape(len(z), k)
    want = np.sum(d <= 2.0 * math.sin(cover.radius / 2.0), axis=1)
    assert want.max() < k
    assert np.array_equal(mult, want)
    assert np.max(np.abs(near - d[:, 0])) <= _centre_rounding(cover.count) + 8.0 * math.ulp(1.0)


def test_half_step_table_matches_the_direct_half_angle():
    # zone k's entry (a, b) against the half angle of index i = a F_k + b F_k+1
    # as _lattice_xyz forms it, up to the sign that halving mod 2 pi leaves
    # free.  The direct angle rounds theta_i twice (half an ulp each), the
    # table's steps a t0 + b t1 one ulp of theta_i in all; halved, that is
    # 1.5 ulp(theta_i) / 2 of angle, plus an ulp(1) of cos and sin rounding.
    # Measured: 0.68 ulp(theta_i) at most.
    assert _HALF_COS.shape == _HALF_SIN.shape == (9, len(_FIB) - 1)
    for k in range(len(_FIB) - 1):
        for j, (a, b) in enumerate(_PATCH.T):
            theta = _lattice_angle(float(a * _FIB[k] + b * _FIB[k + 1]))
            c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
            sign = math.copysign(1.0, c * _HALF_COS[j, k] + s * _HALF_SIN[j, k])
            tol = 0.75 * math.ulp(theta) + math.ulp(1.0)
            assert abs(sign * _HALF_COS[j, k] - c) <= tol, (k, a, b)
            assert abs(sign * _HALF_SIN[j, k] - s) <= tol, (k, a, b)


def test_inverse_finds_every_center_within_its_rounding():
    # a seeded sweep of lattice sizes and indices, with the edges n = 4 and
    # MAX_LATTICE_COUNT, i = 0 and n - 1 and every polar row: at each centre
    # the nearest chord is the count's rounding of that centre (a point's
    # azimuth read back from its coordinates rounds by an ulp(1))
    rng = np.random.default_rng(2015)
    for n in [4, 5, 99, 100, 101, 459, MAX_LATTICE_COUNT, *rng.integers(4, MAX_LATTICE_COUNT, 64)]:
        n = int(n)
        ends = np.arange(min(n, POLAR_ROWS + 2))
        i = np.unique(np.concatenate([ends, n - 1 - ends, rng.integers(0, n, 64)]))
        cover = FibonacciCover(n, math.sqrt(4.0 * math.pi / n) / LATTICE_SPACING)
        p = cover.center(i)
        mult, near = cover.caps_at(p[:, 2], np.arctan2(p[:, 1], p[:, 0]))
        assert np.all(mult >= 1), n
        assert np.max(near) <= _centre_rounding(n) + 4.0 * math.ulp(1.0), n


def _fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def _zone_edge(k, n):
    """|z| where zone k begins: zone k holds sqrt5 pi n (1 - z^2) in [phi^2k, phi^(2k+2))."""
    return math.sqrt(max(0.0, 1.0 - GOLDEN_RATIO ** (2 * k) / (math.sqrt(5.0) * math.pi * n)))


CERT_GRID = 33   # grid points per quadrant edge


@pytest.mark.parametrize("n", [459, 3389, 679_382, MAX_LATTICE_COUNT])
def test_nearest_corner_patch_holds_every_cap(n):
    # A point at cell coordinates (A + fa, B + fb) is counted over the 3 x 3
    # offsets around the cell corner nearest it.  The 7 offsets of the old
    # 4 x 4 patch (-1..2 from A, B) that this leaves out lie farther than
    # chord (1 + m) at every point of each quadrant of the cell, at every
    # height of every zone the inverse reaches, both hemispheres, and at
    # +-1e-9 relative of every zone edge.  In the local basis the chord
    # depends only on the height and the offset, so the lattice is built
    # from the basis in closed form.  m: caps_at places a centre within
    # 4 ulp(2.4 n) of azimuth of its lattice point (_centre_rounding), which
    # MAX_LATTICE_COUNT keeps below 1% of the spacing; the point's cell
    # coordinates, solved from its own azimuth in a basis that rounds as
    # theta_i does, move by no more, so m = 2 x 1% x spacing / chord.
    # Between grid points h apart the chord moves by at most
    # (|e_a| + |e_b|) h / 2, the basis lengths taken at the point's height,
    # where they vary well under 1% over h / 2.  Measured: the smallest
    # ratio on the grid is 1.0683 (zone 7 at the polar rows' edge, fb = 1/2,
    # at MAX_LATTICE_COUNT), 1.0535 with that slack, against 1 + m = 1.018.
    radius = math.sqrt(4.0 * math.pi / (n - 1)) / LATTICE_SPACING   # the largest with n caps
    chord = 2.0 * math.sin(radius / 2.0)
    m = 2.0 * 0.01 * LATTICE_SPACING * radius / chord
    z_polar = 1.0 - 2.0 * POLAR_ROWS / n

    def zone(z):
        return math.floor(math.log(math.sqrt(5.0) * math.pi * n * (1.0 - z * z))
                          / math.log(GOLDEN_RATIO**2))

    h = 0.5 / (CERT_GRID - 1)
    frac = np.linspace(0.0, 0.5, CERT_GRID)
    worst = math.inf
    for k in range(zone(z_polar), zone(0.0) + 1):
        assert k >= 6
        f0, f1 = _fibonacci(k), _fibonacci(k + 1)
        t0, t1 = (2.0 * math.pi * (f / GOLDEN_RATIO**2 - round(f / GOLDEN_RATIO**2))
                  for f in (f0, f1))
        z0, z1 = -2.0 * f0 / n, -2.0 * f1 / n
        lo, hi = _zone_edge(k + 1, n), min(_zone_edge(k, n), z_polar)
        zs = np.array([*np.linspace(lo, hi, 17)]
                      + [e * (1.0 + r) for e in (lo, hi) if 0.0 < e < z_polar
                         for r in (-1e-9, 1e-9)])
        zs = zs[zs <= z_polar]
        zp = np.concatenate([zs, -zs])[:, None, None]
        rp = np.sqrt(1.0 - zp * zp)
        slack = (np.hypot(rp * t0, z0 / rp) + np.hypot(rp * t1, z1 / rp)) * h / 2.0
        for qa, qb in itertools.product((0, 1), repeat=2):
            fa, fb = (g.reshape(1, -1, 1) for g in
                      np.meshgrid(qa / 2.0 + frac, qb / 2.0 + frac, indexing="ij"))
            patch = set(itertools.product(range(qa - 1, qa + 2), range(qb - 1, qb + 2)))
            left_out = np.array([o for o in itertools.product(range(-1, 3), repeat=2)
                                 if o not in patch]).T
            assert left_out.shape == (2, 7)
            da, db = left_out[0] - fa, left_out[1] - fb
            dtheta, zc = da * t0 + db * t1, zp + da * z0 + db * z1
            exists = np.abs(zc) <= 1.0 - 1.0 / n + 1e-12   # index in [0, n)
            rc = np.sqrt(1.0 - np.minimum(zc * zc, 1.0))
            d = np.sqrt((rp - rc) ** 2 + 4.0 * rp * rc * np.sin(dtheta / 2.0) ** 2
                        + (zp - zc) ** 2)
            worst = min(worst, float(np.min(np.where(exists, d - slack, np.inf))) / chord)
    assert worst > 1.0 + m


def test_cover_guards_allocate_nothing_large():
    # R = 8.5 would need ~1.2e9 caps, beyond the float64 limit of the lattice
    with pytest.raises(ValueError, match="R=8.5"):
        besicovitch_cover(8.5)
    with pytest.raises(ValueError, match="sample_size"):
        besicovitch_cover(2.0, sample_size=0)
    assert 6e8 < MAX_LATTICE_COUNT < 7e8


# ---------------------------------------------------------------------------
# cube charts

def _angle(a, b):
    """Geodesic angle between unit vectors, through the chord."""
    return 2.0 * np.arcsin(np.linalg.norm(a - b, axis=-1) / 2.0)


def _square_edge(lo, side, k):
    """k points along each edge of the square lo + [0, side]^2."""
    t = lo + side * np.linspace(0.0, 1.0, k)[:, None]
    return np.concatenate([np.column_stack([t[:, 0], np.full(k, lo[1])]),
                           np.column_stack([t[:, 0], np.full(k, lo[1] + side)]),
                           np.column_stack([np.full(k, lo[0]), t[:, 1]]),
                           np.column_stack([np.full(k, lo[0] + side), t[:, 1]])])


def test_chart_bilipschitz_constant_stable():
    # pairs just below the diagonal of the first quadrant, moved along the
    # squish's least-stretched direction -(e_r + e_theta / phi), shrink by
    # the full sqrt2 phi; no pair beats the closed-form constants
    # (10^4 random pairs reach only 2.00-2.15 against sqrt2 phi ~ 2.2882)
    rng = np.random.default_rng(1)
    for R in (3.0, 5.0, 8.0):
        r = math.exp(-R) / 2.0
        chart = CubeToDisk(SphericalDisk(np.array([0.0, 0.0, 1.0]), r))
        theta = math.pi / 4.0 - 1e-4
        e_r = np.array([math.cos(theta), math.sin(theta)])
        e_t = np.array([-math.sin(theta), math.cos(theta)])
        a = r * rng.uniform(0.2, 0.9, size=(200, 1)) * e_r
        d = -(e_r + e_t / GOLDEN_RATIO)
        h = 1e-6 * r
        b = a + h * d / np.linalg.norm(d)
        shrink = h / _angle(chart.forward(a), chart.forward(b))
        assert 0.999 * math.sqrt(2.0) * GOLDEN_RATIO <= np.max(shrink) <= L_INV

        u = rng.uniform(-r, r, size=(10_000, 2, 2))
        dE = np.linalg.norm(u[:, 0] - u[:, 1], axis=-1)
        dS = _angle(chart.forward(u[:, 0]), chart.forward(u[:, 1]))
        ok = dE > 1e-3 * r
        assert np.max(dS[ok] / dE[ok]) <= L_FWD
        assert np.max(dE[ok] / dS[ok]) <= L_INV


def test_chart_image_contains_concentric_disk():
    # the squish sends the cube's boundary onto the circle of radius r, so
    # the image of the cube is the whole cap: it holds the concentric disk
    # of radius r >= r / L_INV
    R = 4.0
    d = SphericalDisk(np.array([0.0, 1.0, 0.0]), math.exp(-R) / 2.0)
    B = CubeToDisk(d)
    assert np.allclose(B.forward(np.zeros(2)), d.center)
    edge = _square_edge(np.full(2, -d.radius), 2.0 * d.radius, 2000)
    assert np.allclose(_angle(B.forward(edge), d.center), d.radius, rtol=1e-9)


def test_chart_rejects_large_caps():
    with pytest.raises(ValueError):
        CubeToDisk(SphericalDisk(np.array([0.0, 0.0, 1.0]), 0.5))


def test_chart_resolves_sub_epsilon_cells():
    # a chain of cells carries its side: 100 nats below a cap of radius
    # e^-21/2 every side stays in its window and every cell admissible, long
    # after corner differences hi - lo (about 36 nats down) stop resolving it
    rng = np.random.default_rng(12)
    side, rho, lo = math.exp(-21.0), 21.0, np.full(2, -math.exp(-21.0) / 2.0)
    while rho < 121.0:
        rho += 1.0 + 0.25 * int(rng.integers(4))
        n, side = partition_cube(side, rho)
        lo = subcube(lo, side, (int(rng.integers(n)), int(rng.integers(n))))
        assert math.exp(-rho) <= side <= 2.0 * math.exp(-rho)
        assert cell_alpha(rho, side) <= ALPHA_STAR
    assert np.all(lo + side == lo)


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
    n, side = partition_cube(1.0, -math.log(0.3))
    assert n == 2 and side == pytest.approx(0.5)
    assert 0.3 <= side <= 0.6


def test_partition_cube_window_sweep():
    rng = np.random.default_rng(3)
    for _ in range(200):
        Rp = rng.uniform(0.5, 12.0)
        scale = math.exp(-Rp)
        ell = scale * rng.uniform(math.e, 40.0)
        n, side = partition_cube(ell, Rp)
        assert scale * (1 - 1e-12) <= side <= 2 * scale * (1 + 1e-12)
        assert n * side == pytest.approx(ell, rel=1e-12)
        lo = subcube(np.zeros(2), side, (n - 1, n - 1))
        assert np.allclose(lo + side, [ell, ell], rtol=1e-12)


def test_partition_cube_rejects_small_cubes():
    with pytest.raises(ValueError):
        partition_cube(0.1, -math.log(0.09))


def test_admissibility_disk_cases():
    # a cap too wide for a chart keeps only its base sector, whose Omega is
    # the disk of radius e^{-R_in}/2 itself: alpha = 2
    rep = cover_annulus(2.6, 0.1, lambda p: np.zeros(len(p)),
                        r0=8.0, max_cylinders=1, n_slab=16, seed=0)
    cyl = rep.cylinders[0]
    assert len(cyl.sectors) == 1 and cyl.alpha == 2.0
    # a chart cell at the ends of its window
    rho = 5.0
    assert cell_alpha(rho, math.exp(-rho)) == pytest.approx(ALPHA_STAR, rel=1e-15)
    assert cell_alpha(rho, 2.0 * math.exp(-rho)) == pytest.approx(L_INV, rel=1e-15)


def test_admissibility_cube_image():
    # each window cell's image, measured on densely sampled edges about the
    # image of its centre, is pinched with alpha <= cell_alpha <= ALPHA_STAR;
    # the cap is as large as a chart allows, where the exponential map
    # shrinks most
    r = 0.1
    chart = CubeToDisk(SphericalDisk(TILTED, r))
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1500):
        rho = rng.uniform(3.0, 7.0)
        scale = math.exp(-rho)
        side = scale * rng.uniform(1.0, 2.0)
        lo = rng.uniform(-r, r - side, size=2)
        dist = _angle(chart.forward(_square_edge(lo, side, 256)), chart.forward(lo + side / 2.0))
        alpha = max(scale / np.min(dist), np.max(dist) / scale)
        assert alpha <= cell_alpha(rho, side) <= ALPHA_STAR
        worst = max(worst, alpha)
    assert worst > 0.9 * ALPHA_STAR


# ---------------------------------------------------------------------------
# sector averages and good heights

# find_good_height with r_max = 1 pools one sector [rho, rho + 1] x Omega,
# so its mean is the sector average

def test_sector_average_constant_field():
    d = SphericalDisk(np.array([0.0, 0.0, -1.0]), 0.05)
    res = find_good_height(2.0, d, 0.01, 1.0, lambda p: np.full(p.shape[0], 3.14),
                           rng=np.random.default_rng(5), n_slab=128)
    assert res["n"] == 512
    assert res["mean"] == pytest.approx(3.14, abs=1e-12)
    assert res["se"] < 1e-12


def test_sector_average_harmonic_extension_is_tiny(ext_linear):
    d = SphericalDisk(np.array([0.3, -0.5, -math.sqrt(1 - 0.34)]), math.exp(-3.0))
    res = find_good_height(3.0, d, 0.01, 1.0, tension_sq_field(ext_linear),
                           rng=np.random.default_rng(6), n_slab=64)
    assert res["mean"] < 1e-7


def test_sector_average_decays_toward_boundary(ext_stretch):
    direction = np.array([0.3, -0.5, -math.sqrt(1 - 0.34)])
    rng = np.random.default_rng(7)
    vals = []
    for rho_min in (1.0, 5.0):
        d = SphericalDisk(direction, math.exp(-rho_min))
        res = find_good_height(rho_min, d, 0.01, 1.0, tension_sq_field(ext_stretch),
                               rng=rng, n_slab=128)
        vals.append(res["mean"])
    assert vals[1] < vals[0]


def test_find_good_height_harmonic_immediate(ext_linear):
    d = SphericalDisk(np.array([0.0, 0.0, -1.0]), math.exp(-4.0))
    res = find_good_height(4.0, d, 0.01, 8.0, tension_sq_field(ext_linear),
                           rng=np.random.default_rng(8), n_slab=128)
    assert res["success"] and res["r1"] == pytest.approx(1.0)


def test_find_good_height_stretch_fixture(ext_stretch):
    d = SphericalDisk(np.array([0.3, -0.5, -math.sqrt(1 - 0.34)]), math.exp(-6.0))
    res = find_good_height(6.0, d, 0.01, 8.0, tension_sq_field(ext_stretch),
                           rng=np.random.default_rng(9), n_slab=256)
    assert res["success"]
    assert res["r1"] == pytest.approx(1.0)  # pinned fixture
    assert 1.0 <= res["r1"] <= 8.0


def test_find_good_height_fails_near_center(ext_stretch):
    # rho_min far below the empirical threshold with a tiny delta
    d = SphericalDisk(np.array([0.3, -0.5, -math.sqrt(1 - 0.34)]), math.exp(-0.5))
    res = find_good_height(0.5, d, 1e-6, 2.0, tension_sq_field(ext_stretch),
                           rng=np.random.default_rng(10), n_slab=64)
    assert not res["success"]
    assert res["mean"] > 1e-6


def test_find_good_height_rejects_r_max_below_one(ext_stretch):
    # with r_max < 1 no slab reaches the first candidate height
    d = SphericalDisk(np.array([0.0, 0.0, -1.0]), math.exp(-4.0))
    with pytest.raises(ValueError, match="r_max"):
        find_good_height(4.0, d, 0.01, 0.5, tension_sq_field(ext_stretch),
                         rng=np.random.default_rng(11), n_slab=16)


# ---------------------------------------------------------------------------
# the full pipeline

def test_cover_annulus_toy_single_disk(ext_linear):
    # small t, so one disk larger than SMALL_CAP, and r0 within a unit of
    # the annulus width (8.73): only the structure is exercised
    # (bookkeeping, disjointness)
    rep = cover_annulus(2.6, 0.1, tension_sq_field(ext_linear),
                        r0=8.0, max_cylinders=1, n_slab=64, seed=0)
    cyl = rep.cylinders[0]
    assert cyl.disjoint and cyl.contained
    assert len(cyl.sectors) >= 1
    assert all(1.0 <= s.r1 <= 8.0 for s in cyl.sectors)
    assert cyl.leftover_estimate <= cyl.leftover_bound + 1e-12


def test_cover_annulus_linear_all_good(ext_linear):
    from qcflow.heatkernel import l_of_eps

    rep = cover_annulus(16.0, 0.1, tension_sq_field(ext_linear),
                        max_cylinders=1, enumeration_cap=4, audit_branches=1,
                        n_slab=64, seed=11)
    assert rep.r_in == pytest.approx(32.0 - 4.0 * l_of_eps(0.1))
    assert rep.r_out == pytest.approx(32.0 + 4.0 * l_of_eps(0.1))
    cyl = rep.cylinders[0]
    assert cyl.all_good
    assert cyl.disjoint and cyl.contained
    assert len(cyl.sectors) > 1 and 2.0 <= cyl.alpha <= ALPHA_STAR
    assert cyl.leftover_estimate <= cyl.leftover_bound + 1e-12
    assert all(1.0 <= s.r1 <= 8.0 for s in cyl.sectors)
    assert all(rep.r_out - 8.0 < bt <= rep.r_out for bt in cyl.branch_tops)
    assert np.isfinite(cyl.weighted_tension_avg)
    assert cyl.weighted_tension_avg <= 0.1
    rows = rep.csv_rows()
    assert rows[0][0] == "cylinder"
    svg = sector_svg(rep)
    assert svg.startswith("<svg") and "</svg>" in svg


def _cell(rho, address, side=1e-21):
    return SectorRecord(rho, 1.0, np.full(2, 1e-20), side, address, 0.0, True)


def test_disjointness_compares_cell_addresses_at_any_depth():
    # two identical 1e-21 cells at one height overlap; a corner comparison
    # with an absolute slack of 1e-15 reported them disjoint
    deep = ((0, 1, 3),) * 20
    assert not _check_disjoint([_cell(40.0, deep), _cell(40.0, deep)])
    # cells whose addresses part are disjoint, an ancestor overlaps its
    # descendants, and cells stacked apart in rho never overlap
    cousin = deep[:7] + ((2, 1, 3),) + deep[8:]
    assert _check_disjoint([_cell(40.0, deep), _cell(40.0, cousin)])
    assert not _check_disjoint([_cell(40.0, deep), _cell(39.5, deep[:5], side=1e-9)])
    assert _check_disjoint([_cell(40.0, deep), _cell(39.0, deep[:5], side=1e-9)])
    assert not _check_disjoint([_cell(40.0, deep), _cell(39.5, ())])


def test_cover_annulus_rejects_annulus_through_origin(ext_linear):
    with pytest.raises(ValueError):
        cover_annulus(1.0, 0.1, tension_sq_field(ext_linear))


def test_main_annulus_r0_edges():
    from qcflow.heatkernel import l_of_eps

    # at t = 3, R_in = 1.31 < ln 5: the caps are too wide for a chart, so a
    # cylinder keeps its base sector, whose top can be R_in + 1.  r0 must put
    # the stop line R_out - r0 below that top, and not below R_in
    r_in, r_out = main_annulus(3.0, 0.1, 9.0)
    width = r_out - r_in  # 9.38
    for r0 in (width - 1.0 + 1e-9, width):
        assert main_annulus(3.0, 0.1, r0) == (r_in, r_out)
    with pytest.raises(ValueError, match=r"< ln 5 .* take r0 > 8\.37891"):
        main_annulus(3.0, 0.1, width - 1.0 - 1e-9)
    with pytest.raises(ValueError, match="9.37891 wide, narrower than r0"):
        main_annulus(3.0, 0.1, width + 1e-9)
    # the chart rule starts where R_in = 2t - l sqrt(t) reaches ln 5
    l = l_of_eps(0.1)
    t_chart = ((l + math.sqrt(l * l + 8.0 * math.log(5.0))) / 4.0) ** 2  # 3.24
    assert main_annulus(t_chart * (1.0 + 1e-9), 0.1, 1.0)[0] > math.log(5.0)
    with pytest.raises(ValueError, match="take r0 >"):
        main_annulus(t_chart * (1.0 - 1e-9), 0.1, 1.0)


def test_main_annulus_refuses_a_tail_of_eps_or_more():
    # the kernel mass outside the annulus reaches eps at eps = 0.14825 for
    # t >= 4 (bisection on annulus_tail_mass): 0.14759 at eps = 0.148 and
    # 0.15022 at eps = 0.149 here.  The quadrature starts at t = 1.
    assert main_annulus(8.0, 0.148, 1.0)[0] > 0.0
    with pytest.raises(ValueError, match=r"t=8.0, eps=0.149: .* is 0.150216"):
        main_annulus(8.0, 0.149, 1.0)
    with pytest.raises(ValueError, match=r"t=0.9: .* t >= 1"):
        main_annulus(0.9, 0.2, 2.0)


def _assert_measured_cover_branch(ext, t):
    """cover_annulus at t measures the disk cover at R_in and puts its
    cylinders over the strided lattice centres of that cover."""
    rep = cover_annulus(t, 0.1, tension_sq_field(ext),
                        max_cylinders=2, enumeration_cap=3, audit_branches=1,
                        n_slab=48, seed=1)
    assert rep.cover_report  # the real cover was built and measured
    assert rep.cover_report["covered_fraction"] == 1.0
    assert len(rep.cylinders) == 2
    count, radius = rep.cover_report["count"], rep.cover_report["radius"]
    lattice = FibonacciCover(count, radius).center(np.arange(0, count, max(1, count // 2))[:2])
    for c, center in zip(rep.cylinders, lattice):
        assert np.array_equal(c.disk.center, center)
        assert c.disk.radius == radius
        assert c.disjoint and c.contained and c.all_good


def test_cover_annulus_materialised_cover_branch(ext_linear):
    # t = 3.5: a cover of 2974 caps at R_in
    _assert_measured_cover_branch(ext_linear, 3.5)


def test_cover_annulus_measures_the_cover_up_to_the_lattice_limit(ext_linear):
    # t = 7: 5.4e7 caps at R_in, below MAX_LATTICE_COUNT
    _assert_measured_cover_branch(ext_linear, 7.0)


def test_cover_annulus_samples_cylinders_beyond_the_lattice_limit(ext_linear):
    # at t = 8 the cover at R_in would need 1.09e9 caps, more than float64
    # resolves on the lattice: no cover is built and the centres are sampled
    r_in = main_annulus(8.0, 0.1, 8.0)[0]
    assert _lattice_count(math.exp(-r_in) / 2.0) > MAX_LATTICE_COUNT
    rep = cover_annulus(8.0, 0.1, tension_sq_field(ext_linear),
                        max_cylinders=1, enumeration_cap=3, audit_branches=1,
                        n_slab=48, seed=1)
    assert rep.cover_report == {}
    assert len(rep.cylinders) == 1 and rep.cylinders[0].all_good


def test_lattice_count_is_finite_at_the_smallest_cap():
    # the annulus may reach R_OUT_MAX, where 4 pi / spacing^2 overflows and
    # an unclamped count raises OverflowError
    assert _lattice_count(math.exp(-R_OUT_MAX) / 2.0) > MAX_LATTICE_COUNT
