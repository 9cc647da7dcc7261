"""Sector coverings of the main annulus.

Besicovitch-style disk covers of S^2 are built from a Fibonacci-spiral
lattice with spacing 0.9 x disk radius and held in closed form (count,
radius), all disks sharing one radius; the overlap multiplicity is a
measured constant, counted through the inverse Fibonacci map with no
centre array.  The count runs block by block: beside the 16 B per sample
of its drawn angles, it holds one block of 8192 sample points (192 KiB)
and, for each 910 of them, 9 candidate centres per point, i.e.
910 x 9 x 8 B = 64 KiB per array.  Cylinders over the main annulus
are partitioned into admissible sectors by stacking: each good sector's
top face, viewed as a Euclidean cube through a bi-Lipschitz chart, is
partitioned into subcubes of the next admissible scale and a good sector
is erected over each.
A cell is a square (corner plus side) whose side is carried down the
stack, and its admissibility follows in closed form from that side and
the chart's Lipschitz constants.

The stack tree grows exponentially with the cylinder height (cell sizes
shrink like e^{-rho}), so the pipeline enumerates the first levels
exactly and audits deeper levels along sampled root-to-top chains; the
leftover bound per cylinder comes from the stopping rule, which every
branch obeys.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .heatkernel import AnnulusSpec, l_of_eps

__all__ = [
    "SphericalDisk",
    "CubeImage",
    "CubeToDisk",
    "FibonacciCover",
    "besicovitch_cover",
    "fibonacci_sphere",
    "partition_cube",
    "cell_alpha",
    "main_annulus",
    "find_good_height",
    "cover_annulus",
    "CoveringReport",
    "sector_svg",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
LATTICE_SPACING = 0.9   # lattice spacing / disk radius
BETA_IMPL = 9           # measured max multiplicity fixture (R in {2,4,6})
SMALL_CAP = 0.1         # cube charts only in the almost-flat regime
MAX_FULL_COVER = 2_000_000
SLAB_WIDTH = 0.25   # radial slab of find_good_height: candidate heights 1, 1.25, ...
SE_FACTOR = 2.0     # find_good_height accepts mean + SE_FACTOR * se < delta
SVG_WIDTH, SVG_HEIGHT = 640, 480

# Lipschitz constants of the cube chart (radial squish, then the exponential
# map at the cap centre).  At angle theta from the nearest axis (c = cos theta,
# s = sin theta, c^2 in [1/2, 1]) the squish has the differential
# [[c, -s], [0, c]] in polar frames.  Its squared singular values solve
# x^2 - (1 + c^2) x + c^4 = 0, so the smallest singular value is 1/(sqrt2 phi)
# on the diagonals (c^2 = 1/2) and the largest 2/sqrt3 (at c^2 = 2/3).  The
# exponential map stretches no length and shrinks tangential ones by
# sin(theta)/theta, at worst sin(SMALL_CAP)/SMALL_CAP.  The cube and the cap
# are convex, so:
L_FWD = 2.0 / math.sqrt(3.0)                                                # ~1.1547
L_INV = math.sqrt(2.0) * GOLDEN_RATIO * SMALL_CAP / math.sin(SMALL_CAP)     # ~2.2921
# A cell of side sigma holds the disk of radius sigma/2 about its centre and
# lies in the one of radius sigma/sqrt2, so its image holds the geodesic disk
# of radius sigma/(2 L_INV) and lies in the one of radius L_FWD sigma/sqrt2
# about the image of the centre.  Over the partition window
# sigma in [e^-rho, 2 e^-rho] that pinches it with alpha <= 2 L_INV
# (the outer side needs only sqrt2 L_FWD ~ 1.63):
ALPHA_STAR = 2.0 * L_INV                                                    # ~4.584
# R_out bound: a cell side sigma >= e^-R_out squares to a sector weight of
# at least e^{-2 R_out}, which stays a normal float64 up to here (~354.2).
R_OUT_MAX = -0.5 * math.log(sys.float_info.min)


def _chord(geodesic_radius):
    return 2.0 * math.sin(min(geodesic_radius, math.pi) / 2.0)


@dataclass
class SphericalDisk:
    """Geodesic disk on S^2: unit center vector plus geodesic radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not 0.0 < self.radius <= math.pi:
            raise ValueError("disk radius must lie in (0, pi]")

    def area(self):
        # 2 pi (1 - cos r) written to survive r below 1e-8
        return 4.0 * math.pi * math.sin(self.radius / 2.0) ** 2

    def sample_weighted(self, rng, k):
        """k points uniform w.r.t. spherical measure on the disk, unit weights.

        Small caps use the flat-disk angle law theta = r sqrt(u) directly:
        1 - cos(r) underflows at double precision for r ~ 1e-9 while the
        flat law is exact to O(r^2) relative bias.
        """
        t1, t2 = _tangent_basis(self.center)
        u = rng.uniform(size=k)
        if self.radius < 1e-4:
            theta = self.radius * np.sqrt(u)
        else:
            cost = 1.0 - u * (1.0 - math.cos(self.radius))
            theta = np.arccos(np.clip(cost, -1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=k)
        tang = np.cos(phi)[:, None] * t1 + np.sin(phi)[:, None] * t2
        return _exp_on_sphere(self.center, theta, tang), np.ones(k)


def _tangent_basis(c):
    k = int(np.argmin(np.abs(c)))
    e = np.zeros(3)
    e[k] = 1.0
    t1 = np.cross(c, e)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(c, t1)
    return t1, t2


def _exp_on_sphere(c, theta, tang):
    """exp_c(theta * tang) written as c + sin(theta) tang - 2 sin^2(theta/2) c.

    The grouped form keeps the small correction additive instead of
    forming cos(theta), which rounds to 1 for theta below 1e-8.
    """
    theta = np.asarray(theta, dtype=float)[..., None]
    return c + np.sin(theta) * tang - 2.0 * np.sin(theta / 2.0) ** 2 * c


def _sphere_angles(rng, k):
    """Heights z and azimuths of k points uniform on S^2 (Archimedes), every z drawn first."""
    return rng.uniform(-1.0, 1.0, size=k), rng.uniform(0.0, 2.0 * math.pi, size=k)


def _sphere_points(z, phi):
    """Unit vectors at heights z and azimuths phi."""
    rad = np.sqrt(1.0 - z * z)
    return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])


def _uniform_sphere(rng, k):
    """k points uniform on S^2."""
    return _sphere_points(*_sphere_angles(rng, k))


def _lattice_xyz(i, n_points):
    """Coordinates of the spiral-lattice points with (float) indices i."""
    z = 1.0 - (2.0 * i + 1.0) / n_points
    theta = 2.0 * math.pi * i / GOLDEN_RATIO**2
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return rad * np.cos(theta), rad * np.sin(theta), z


def fibonacci_sphere(n_points):
    """Deterministic spiral lattice of n_points on S^2."""
    return np.column_stack(_lattice_xyz(np.arange(n_points, dtype=float), n_points))


# theta_i = 2 pi i / phi^2 is at most 2 pi N / phi^2 < 2.4 N.  Its float64 value
# carries the rounding of two operations, and the inverse's basis rounds the
# same products, so centre and assumed lattice point differ by at most about
# 4 ulp(2.4 N) <= 4 * 2.4 N * 2^-52 radians: no more than that along the
# centre's latitude circle.  Keeping it below 1% of the lattice spacing
# sqrt(4 pi / N) bounds N^(3/2) and gives N <= ~6.5e8 (R ~ 8.08).
MAX_LATTICE_COUNT = int((0.01 * math.sqrt(4.0 * math.pi) / (4 * 2.4 * 2.0**-52)) ** (2.0 / 3.0))
POLAR_ROWS = 50     # rows at each pole searched directly (the inverse fails within ~2)
_PATCH = np.mgrid[0:3, 0:3].reshape(2, -1)   # (a, b) offsets from the patch's low corner
_FIB = np.round(GOLDEN_RATIO ** np.arange(32) / math.sqrt(5.0)).astype(np.int64)
# Point-centre distances held at once by caps_at: 910 points x 9 patch
# centres x 8 B = 64 KiB per array, of which a block keeps about a dozen
# alive (~0.75 MiB).  The arrays stay below glibc's default 128 KiB mmap
# threshold: in the benchmark's cover workload, blocks of 2^14 (128 KiB
# arrays) took about 5,000 page faults per 679,382-cap cover build against
# about 350 for 2^13, at the same speed; blocks of 2^16 ran ~1.5x slower.
_BLOCK = 1 << 13
# Sample points formed and counted at once by besicovitch_cover: 8192 x 3 x
# 8 B = 192 KiB of points, which caps_at splits into blocks of _BLOCK.
_SAMPLE_BLOCK = 1 << 13


@dataclass(frozen=True)
class FibonacciCover:
    """count disks of one radius centred on the count-point spiral lattice.

    The centres are closed-form (center(i) is fibonacci_sphere(count)[i],
    bit for bit), so the cover holds no array; caps_at counts the caps over
    points through the inverse spherical-Fibonacci map (Keinert et al.,
    Spherical Fibonacci Mapping, ACM TOG 34(6), 2015), valid for
    count <= MAX_LATTICE_COUNT.
    """

    count: int
    radius: float

    def center(self, i):
        """Unit centre(s) of the disk(s) with index (array) i."""
        return np.stack(_lattice_xyz(np.asarray(i, dtype=float), self.count), axis=-1)

    def caps_at(self, points):
        """(multiplicity, nearest centre chord) for each unit vector in points.

        A point at height z lies in zone k = max(2, floor(log_phi^2(sqrt5 pi
        N (1 - z^2)))), where the lattice in (theta, z) has the local basis
        of consecutive Fibonacci numbers F_k, F_k+1: index F moves theta by
        2 pi (F/phi^2 - round(F/phi^2)) and z by -2F/N.  The point's cell in
        that basis is solved for, and the 3 x 3 patch of offsets around the
        cell corner nearest the point holds every centre within one chord
        (tests/test_covering.py certifies it in every zone); lattice point
        (a, b) is index a F_k + b F_k+1.  Outside the polar rows k >= 6, so
        no two offsets share an index.  Points in the first or last
        POLAR_ROWS rows, where the local basis fails, are checked against
        the polar band: every centre within one chord in height of those
        rows.  So the multiplicity is exact, and so is the nearest chord
        wherever it is at most one chord; beyond that it is an upper bound.
        """
        points = np.asarray(points, dtype=float)
        n, chord = self.count, _chord(self.radius)
        mult = np.zeros(len(points), dtype=np.int64)
        near = np.empty(len(points))
        polar = np.abs(points[:, 2]) > 1.0 - 2.0 * POLAR_ROWS / n
        band = np.arange(min(n, POLAR_ROWS + int(n * chord / 2.0) + 1))
        for south in (False, True):
            idx = np.flatnonzero(polar & ((points[:, 2] < 0.0) == south))
            if idx.size == 0:   # most blocks hold no polar point
                continue
            rows = n - 1 - band if south else band
            cx, cy, cz = _lattice_xyz(rows.astype(float), n)
            step = max(1, _BLOCK // len(band))
            for j in range(0, len(idx), step):
                blk = idx[j:j + step]
                mult[blk], near[blk] = _count_caps(points[blk], (cx, cy, cz), chord)
        idx = np.flatnonzero(~polar)
        step = _BLOCK // _PATCH.shape[1]
        for j in range(0, len(idx), step):
            blk = idx[j:j + step]
            mult[blk], near[blk] = self._caps_by_inverse(points[blk], chord)
        return mult, near

    def _caps_by_inverse(self, p, chord):
        n = self.count
        z = p[:, 2]
        k = np.maximum(2, np.floor(np.log(math.sqrt(5.0) * n * math.pi * (1.0 - z * z))
                                   / math.log(GOLDEN_RATIO**2)).astype(np.int64))
        f0, f1 = _FIB[k], _FIB[k + 1]
        q0, q1 = f0 / GOLDEN_RATIO**2, f1 / GOLDEN_RATIO**2
        t0, t1 = 2.0 * math.pi * (q0 - np.round(q0)), 2.0 * math.pi * (q1 - np.round(q1))
        z0, z1 = -2.0 * f0 / n, -2.0 * f1 / n
        x = np.arctan2(p[:, 1], p[:, 0])
        y = z - (1.0 - 1.0 / n)
        det = t0 * z1 - t1 * z0
        # the patch starts one below the cell corner nearest the point: at
        # floor(a) - 1 where the fraction a - floor(a) is below 1/2
        ca = np.floor((z1 * x - t1 * y) / det - 0.5).astype(np.int64)
        cb = np.floor((t0 * y - z0 * x) / det - 0.5).astype(np.int64)
        i = ((ca[:, None] + _PATCH[0]) * f0[:, None]
             + (cb[:, None] + _PATCH[1]) * f1[:, None])
        valid = (i >= 0) & (i < n)
        centres = _lattice_xyz(np.where(valid, i, 0).astype(float), n)
        return _count_caps(p, centres, chord, valid)


def _count_caps(p, centres, chord, valid=True):
    """(caps within chord, nearest chord) of each point p[j] over centres[j] (or all).

    The squared chord sums x, y, z in that order, as a KD-tree does.
    """
    dx, dy, dz = (p[:, j, None] - c for j, c in enumerate(centres))
    d = np.where(valid, np.sqrt(dx * dx + dy * dy + dz * dz), np.inf)
    return np.sum(d <= chord, axis=1), np.min(d, axis=1)


def besicovitch_cover(R, sample_size=100_000, rng=None):
    """Disks of radius e^{-R}/2 covering S^2 with bounded multiplicity.

    Returns (cover, report): cover is the FibonacciCover of report["count"]
    disks of radius report["radius"] on a Fibonacci lattice with spacing
    LATTICE_SPACING x radius; the report also carries the coverage and
    multiplicity measured at sample_size uniform points.
    """
    radius = math.exp(-R) / 2.0
    if radius > math.pi:
        raise ValueError("disk radius exceeds pi")
    if sample_size < 1:
        raise ValueError(f"sample_size={sample_size}: need at least one sample")
    spacing = LATTICE_SPACING * radius
    n_pts = max(4, int(math.ceil(4.0 * math.pi / spacing**2)))
    if n_pts > MAX_LATTICE_COUNT:
        raise ValueError(f"R={R}: {n_pts} caps exceed the {MAX_LATTICE_COUNT} "
                         "that float64 resolves on the Fibonacci lattice")
    cover = FibonacciCover(n_pts, radius)
    # drawn as _uniform_sphere draws them, then formed and counted a block
    # at a time: only the angles grow with sample_size (16 B per sample)
    z, phi = _sphere_angles(rng or np.random.default_rng(0), sample_size)
    top = total = covered = 0
    far = 0.0
    for j in range(0, sample_size, _SAMPLE_BLOCK):
        blk = slice(j, j + _SAMPLE_BLOCK)
        mult, near = cover.caps_at(_sphere_points(z[blk], phi[blk]))
        top = max(top, int(np.max(mult)))
        total += int(np.sum(mult))
        covered += int(np.count_nonzero(mult))
        far = max(far, float(np.max(near)))
    report = {
        "R": R,
        "radius": radius,
        "count": n_pts,
        "max_multiplicity": top,
        "mean_multiplicity": total / sample_size,
        "covered_fraction": covered / sample_size,
        "covering_radius_sample": 2.0 * math.asin(min(1.0, far / 2.0)),
    }
    return cover, report


def _squish(u):
    """Radial squish factor |u|_inf / |u|_2 of cube coordinates (0 at the origin)."""
    sup = np.max(np.abs(u), axis=-1)
    eu = np.linalg.norm(u, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(eu > 0.0, sup / np.where(eu > 0, eu, 1.0), 0.0)


class CubeToDisk:
    """Bi-Lipschitz bijection from the cube of side 2 x radius onto a cap.

    Radial cube-to-disk flattening in the tangent plane followed by the
    spherical exponential map at the cap center; only valid for small
    caps (radius <= SMALL_CAP) where the sphere is almost flat.  The chart
    is L_FWD-Lipschitz and its inverse L_INV-Lipschitz (derived above).
    """

    def __init__(self, disk):
        if disk.radius > SMALL_CAP:
            raise ValueError("cube chart requires a small cap (radius <= 0.1)")
        self.disk = disk
        self.t1, self.t2 = _tangent_basis(disk.center)

    def forward(self, u):
        """Cube coordinates (..., 2) -> points of the cap (..., 3)."""
        u = np.asarray(u, dtype=float)
        v = u * _squish(u)[..., None]
        theta = np.linalg.norm(v, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            vhat = v / np.where(theta > 0, theta, 1.0)[..., None]
        tang = vhat[..., 0:1] * self.t1 + vhat[..., 1:2] * self.t2
        return _exp_on_sphere(self.disk.center, theta, tang)

    def jacobian(self, u):
        """|det D(forward)| = (|u|_inf / |u|_2)^2 sin(theta) / theta, theta = |u|_inf.

        The radial squish scales area by its factor squared and the
        exponential map at the cap center by sin(theta) / theta; the closed
        form keeps full relative precision at every cap size.
        """
        u = np.asarray(u, dtype=float)
        fac = _squish(u)
        theta = fac * np.linalg.norm(u, axis=-1)
        return fac * fac * np.sinc(theta / np.pi)


@dataclass
class CubeImage:
    """Angular set B(Q) of the square Q = lo + [0, side]^2 of the chart cube.

    The side is carried from the parent cell rather than recomputed from
    corners, so it stays resolved at depths where absolute chart
    coordinates no longer resolve it.  Sampling is by cube-uniform draws reweighted with
    the chart Jacobian, which gives unbiased spherical-measure averages
    without rejection.
    """

    chart: CubeToDisk
    lo: np.ndarray
    side: float

    def sample_weighted(self, rng, k):
        """Cube-uniform samples with spherical-measure importance weights."""
        u = rng.uniform(self.lo, self.lo + self.side, size=(k, 2))
        w = self.chart.jacobian(u)
        return self.chart.forward(u), w / np.mean(w)


def cell_alpha(rho, side):
    """Admissibility factor of a chart cell of the given side over height rho.

    Its image is pinched between geodesic disks of radii side/(2 L_INV) and
    L_FWD side/sqrt2, so it is admissible at rho for
    alpha = max(2 L_INV e^-rho / side, L_FWD side e^rho / sqrt2).
    """
    scale = math.exp(-rho)
    return max(2.0 * L_INV * (scale / side), L_FWD * (side / scale) / math.sqrt(2.0))


def partition_cube(side, target_R):
    """Split a cube of the given side into n^2 equal subcubes with side in [e^-R', 2 e^-R'].

    Returns (n_per_axis, subcube side).  Requires side >= e * e^{-R'}
    (guaranteed by stacking with heights >= 1).
    """
    scale = math.exp(-target_R)
    if side < math.e * scale * (1.0 - 1e-12):
        raise ValueError("cube too small to partition at the requested scale")
    n_per_axis = int(math.ceil(side / (2.0 * scale)))
    sub = side / n_per_axis
    if sub < scale:
        n_per_axis -= 1
        sub = side / n_per_axis
    if not (scale * (1 - 1e-12) <= sub <= 2.0 * scale * (1 + 1e-12)):
        raise AssertionError("partition side escaped the admissible window")
    return n_per_axis, sub


def subcube(lo, side, idx):
    """Corner of the idx-th subcube (multi-index over axes) of the given side."""
    return lo + np.asarray(idx, dtype=float) * side


def _weighted_mean_se(vals, weights):
    wsum = float(np.sum(weights))
    mean = float(np.sum(weights * vals) / wsum)
    # ratio-estimator standard error
    se = float(np.sqrt(np.sum((weights * (vals - mean)) ** 2)) / wsum)
    return mean, se


def find_good_height(frame, rho_min, omega, delta, r_max, field, rng=None, n_slab=256):
    """First height r1 in {1, 1 + SLAB_WIDTH, ...} whose sector average of field is < delta.

    Samples incrementally per radial slab of width SLAB_WIDTH (slabs have
    equal d rho d zeta measure, so the pooled mean is the sector average)
    and accepts when mean + SE_FACTOR * se < delta.  Returns a dict;
    success False reports the best average found (good heights are only
    guaranteed once rho_min exceeds an empirical threshold).
    """
    n_slabs_total = int(round(r_max / SLAB_WIDTH))
    if n_slabs_total * SLAB_WIDTH + 1e-9 < 1.0:
        raise ValueError(f"r_max={r_max} stops below the first candidate height 1")
    rng = rng or np.random.default_rng(0)
    vals = []
    wts = []
    best = (math.inf, 0.0)
    se = math.inf
    out = {"success": False, "r1": None, "mean": math.inf, "se": math.inf, "n": 0}
    for k in range(n_slabs_total):
        lo = rho_min + k * SLAB_WIDTH
        rho = rng.uniform(lo, lo + SLAB_WIDTH, size=n_slab)
        zeta, w = omega.sample_weighted(rng, n_slab)
        pts = frame.from_polar(rho, zeta)
        vals.append(np.asarray(field(pts), dtype=float))
        wts.append(w)
        r_here = (k + 1) * SLAB_WIDTH
        if r_here + 1e-9 < 1.0:
            continue
        allv = np.concatenate(vals)
        allw = np.concatenate(wts)
        mean, se = _weighted_mean_se(allv, allw)
        if mean < best[0]:
            best = (mean, r_here)
        if mean + SE_FACTOR * se < delta:
            out.update(success=True, r1=r_here, mean=mean, se=se, n=allv.size)
            return out
    out.update(mean=best[0], r1=best[1], se=se, n=allv.size)
    return out


@dataclass
class SectorRecord:
    rho: float
    r1: float
    lo: np.ndarray
    side: float
    address: tuple  # (i, j, n_per) per partition from the base cell down to this cell
    mean: float
    good: bool


@dataclass
class CylinderReport:
    index: int
    disk: SphericalDisk
    sectors: list
    branch_tops: list
    disjoint: bool
    contained: bool
    alpha: float  # worst admissibility factor of the sectors
    leftover_bound: float
    leftover_estimate: float
    weighted_tension_avg: float

    @property
    def all_good(self):
        return all(s.good for s in self.sectors)


@dataclass
class CoveringReport:
    r_in: float
    r_out: float
    cylinders: list
    cover_report: dict  # the measured sphere cover; empty when the cylinders are sampled

    def csv_rows(self):
        rows = [
            (
                "cylinder",
                "sector_count",
                "stack_height_min",
                "leftover_measure",
                "weighted_tension_avg",
                "all_good",
            )
        ]
        for c in self.cylinders:
            min_top = min(c.branch_tops) if c.branch_tops else self.r_in
            rows.append(
                (
                    c.index,
                    len(c.sectors),
                    min_top - self.r_in,
                    c.leftover_estimate,
                    c.weighted_tension_avg,
                    int(c.all_good),
                )
            )
        return rows


def _check_disjoint(sectors):
    """Whether every two sectors that overlap in rho have disjoint cells.

    Two cells are disjoint exactly when neither address is a prefix of the
    other; comparing addresses, not corners, holds at any depth.
    """
    for i in range(len(sectors)):
        for j in range(i + 1, len(sectors)):
            a, b = sectors[i], sectors[j]
            rho_overlap = (a.rho < b.rho + b.r1 - 1e-12) and (b.rho < a.rho + a.r1 - 1e-12)
            k = min(len(a.address), len(b.address))
            if rho_overlap and a.address[:k] == b.address[:k]:
                return False
    return True


def main_annulus(t, eps):
    """(R_in, R_out) of the main annulus at time t that the cover can stack over.

    R_in > 0 keeps the annulus off the center, and R_out <= R_OUT_MAX keeps
    every cap radius and sector weight a normal float64 (t <= 159 at
    eps = 0.1); a ValueError names t otherwise.
    """
    annulus = AnnulusSpec(t, l_of_eps(eps))
    if annulus.r_in <= 0:
        raise ValueError(f"t={t}: the main annulus at eps={eps} reaches the center; "
                         "increase t")
    if annulus.r_out > R_OUT_MAX:
        raise ValueError(f"t={t}: the main annulus at eps={eps} ends at "
                         f"R_out={annulus.r_out:.6g} > {R_OUT_MAX:.6g}, where sector "
                         "weights underflow float64; decrease t")
    return annulus.r_in, annulus.r_out


def cover_annulus(frame, t, eps, field, r0=8.0, max_cylinders=4,
                  enumeration_cap=12, audit_branches=3, n_slab=256, seed=0):
    """Stack good sectors over cylinders covering the main annulus of H^3.

    field(pts) is the quantity averaged over sectors, normally
    |tau(G_a(f))|^2; a sector is good when its average is below eps, and
    good heights are sought up to r0.  Covers at large t have
    astronomically many cylinders and stack cells, so max_cylinders
    cylinders are processed (a deterministic sample when the full cover is
    infeasible) and stack levels beyond enumeration_cap cells are audited
    along sampled root-to-top chains; the leftover bound holds branch-wise
    by the stopping rule, which every audited branch verifies.
    """
    rng = np.random.default_rng(seed)
    r_in, r_out = main_annulus(t, eps)
    radius = math.exp(-r_in) / 2.0
    cover_report = {}
    # the full cover has about 4 pi / (LATTICE_SPACING radius)^2 caps
    if LATTICE_SPACING * radius >= math.sqrt(4.0 * math.pi / MAX_FULL_COVER):
        cover, cover_report = besicovitch_cover(r_in, rng=rng)
        step = max(1, cover.count // max_cylinders)
        centers = cover.center(np.arange(0, cover.count, step)[:max_cylinders])
        chosen = [SphericalDisk(c, radius) for c in centers]
    else:
        # sampled cylinders from the (virtual) cover: uniform random centers
        chosen = [SphericalDisk(c, radius) for c in _uniform_sphere(rng, max_cylinders)]

    reports = []
    for ci, disk in enumerate(chosen):
        reports.append(
            _cover_one_cylinder(
                ci, frame, disk, r_in, r_out, r0, eps, field, rng,
                enumeration_cap, audit_branches, n_slab,
            )
        )
    return CoveringReport(r_in, r_out, reports, cover_report)


def _cover_one_cylinder(ci, frame, disk, r_in, r_out, r0, eps, field, rng,
                        enumeration_cap, audit_branches, n_slab):
    sectors = []
    branch_tops = []
    stop_line = r_out - r0

    use_chart = disk.radius <= SMALL_CAP
    chart = CubeToDisk(disk) if use_chart else None

    def eval_cell(omega, rho, lo, side, address):
        res = find_good_height(
            frame, rho, omega, eps, r0, field, rng=rng, n_slab=n_slab
        )
        r1 = res["r1"] if res["r1"] else 1.0
        sectors.append(SectorRecord(rho, r1, lo, side, address, res["mean"],
                                    bool(res["success"])))
        return rho + r1

    # base sector: Omega = the full disk, whose chart cube has side 2 x radius
    base_lo = np.array([-disk.radius, -disk.radius])
    base_side = 2.0 * disk.radius
    top = eval_cell(disk, r_in, base_lo, base_side, ())

    if top > stop_line or not use_chart:
        branch_tops.append(top)
    else:
        n_per, side = partition_cube(base_side, top)
        n_children_total = n_per**2
        idxs = [(i, j) for i in range(n_per) for j in range(n_per)]
        if n_children_total > enumeration_cap:
            pick = rng.choice(n_children_total, size=enumeration_cap, replace=False)
            idxs = [idxs[p] for p in sorted(pick)]
        audit_set = set(
            map(int, rng.choice(len(idxs), size=min(audit_branches, len(idxs)),
                                replace=False))
        )
        for pos, idx in enumerate(idxs):
            lo = subcube(base_lo, side, idx)
            address = (idx + (n_per,),)
            child_top = eval_cell(CubeImage(chart, lo, side), top, lo, side, address)
            if pos in audit_set:
                # descend one random chain to the top of the cylinder
                c_lo, c_side, c_rho, c_address = lo, side, child_top, address
                while c_rho <= stop_line:
                    np_ax, c_side = partition_cube(c_side, c_rho)
                    pick_idx = (
                        int(rng.integers(np_ax)),
                        int(rng.integers(np_ax)),
                    )
                    c_lo = subcube(c_lo, c_side, pick_idx)
                    c_address += (pick_idx + (np_ax,),)
                    c_rho = eval_cell(CubeImage(chart, c_lo, c_side), c_rho, c_lo, c_side,
                                      c_address)
                branch_tops.append(c_rho)

    good_secs = [s for s in sectors if s.good]
    # cube-measure area proxy, uniform bias
    weights = [s.r1 * (s.side * s.side) for s in good_secs]
    if weights:
        wsum = float(np.sum(weights))
        wavg = float(np.sum([w * s.mean for w, s in zip(weights, good_secs)]) / wsum)
    else:
        wavg = math.nan
    # the base Omega is the disk of radius e^{-R_in}/2 itself, so alpha = 2
    alpha = max([2.0] + [cell_alpha(s.rho, s.side) for s in sectors[1:]])

    contained = all(
        s.rho >= r_in - 1e-9 and s.rho + s.r1 <= r_out + 1e-9 for s in sectors
    )
    tops_ok = all(r_out - r0 < bt <= r_out + 1e-9 for bt in branch_tops)
    leftover_bound = r0 * disk.area()
    if branch_tops:
        leftover_est = float(np.mean([r_out - bt for bt in branch_tops])) * disk.area()
    else:
        leftover_est = leftover_bound
    return CylinderReport(
        index=ci,
        disk=disk,
        sectors=sectors,
        branch_tops=branch_tops,
        disjoint=_check_disjoint(sectors),
        contained=contained and tops_ok,
        alpha=alpha,
        leftover_bound=leftover_bound,
        leftover_estimate=leftover_est,
        weighted_tension_avg=wavg,
    )


def sector_svg(report):
    """Minimal SVG cross-section of the first cylinder's sector stack.

    Sectors are drawn over (first cube coordinate) x (rho - R_in); good
    sectors are outlined in black, bad cells in red.
    """
    cyl = report.cylinders[0]
    span_rho = report.r_out - report.r_in
    half = cyl.disk.radius
    width, height = SVG_WIDTH, SVG_HEIGHT
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for s in cyl.sectors:
        x0 = (s.lo[0] + half) / (2 * half) * (width - 40) + 20
        x1 = (s.lo[0] + s.side + half) / (2 * half) * (width - 40) + 20
        y1 = height - 20 - (s.rho - report.r_in) / span_rho * (height - 40)
        y0 = height - 20 - (s.rho + s.r1 - report.r_in) / span_rho * (height - 40)
        color = "black" if s.good else "red"
        parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
            f'height="{y1 - y0:.2f}" fill="none" stroke="{color}" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
