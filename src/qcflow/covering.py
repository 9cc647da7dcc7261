"""Sector coverings of the main annulus.

Besicovitch-style disk covers of S^2 are built from a Fibonacci-spiral
lattice with spacing 0.9 x disk radius and held as one (N, 3) array of
unit centers, all disks sharing one radius; the overlap multiplicity is a
measured constant.  Cylinders over the main annulus are partitioned into
admissible sectors by stacking: each good sector's top face, viewed as a
Euclidean cube through a bi-Lipschitz chart, is partitioned into subcubes
of the next admissible scale and a good sector is erected over each.

The stack tree grows exponentially with the cylinder height (cell sizes
shrink like e^{-rho}), so the pipeline enumerates the first levels
exactly and audits deeper levels along sampled root-to-top chains; the
leftover bound per cylinder comes from the stopping rule, which every
branch obeys.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PolarFrame
from .heatkernel import AnnulusSpec, l_of_eps

__all__ = [
    "SphericalDisk",
    "CubeImage",
    "CubeToDisk",
    "Sector",
    "AdmissibilityCertificate",
    "besicovitch_cover",
    "fibonacci_sphere",
    "partition_cube",
    "admissibility_check",
    "sector_average",
    "find_good_height",
    "cover_annulus",
    "CoveringReport",
    "sector_svg",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
LATTICE_SPACING = 0.9   # lattice spacing / disk radius
BETA_IMPL = 9           # measured max multiplicity fixture (R in {2,4,6})
L0_IMPL = 2.2           # measured cube-to-disk bi-Lipschitz fixture (~2.12)
SMALL_CAP = 0.1         # cube charts only in the almost-flat regime
MAX_FULL_COVER = 2_000_000


def admissibility_factor(n=3):
    """alpha for cube-image sectors: max(2, sqrt(n)) L0.

    A cube of side sigma contains the 2-ball of radius sigma/2, so the
    inner disk radius is sigma/(2 L0) and the constant must carry the
    factor 2 (sqrt(n) alone is too small when n < 4).
    """
    return max(2.0, math.sqrt(n)) * L0_IMPL


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

    def contains(self, zeta):
        zeta = np.asarray(zeta, dtype=float)
        return _stable_angle(zeta, self.center) <= self.radius

    def sample(self, rng, k):
        """k points uniform w.r.t. spherical measure on the disk.

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
        return _exp_on_sphere(self.center, theta, tang)

    def sample_weighted(self, rng, k):
        return self.sample(rng, k), np.ones(k)


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


def _stable_angle(a, b):
    """Geodesic angle between unit vectors via the chordal distance."""
    chord = np.linalg.norm(a - b, axis=-1)
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))


def _uniform_sphere(rng, k):
    """k points uniform on S^2: height z and azimuth drawn uniformly (Archimedes)."""
    z = rng.uniform(-1.0, 1.0, size=k)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=k)
    rad = np.sqrt(1.0 - z * z)
    return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])


def fibonacci_sphere(n_points):
    """Deterministic spiral lattice of n_points on S^2."""
    i = np.arange(n_points, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n_points
    theta = 2.0 * math.pi * i / GOLDEN_RATIO**2
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([rad * np.cos(theta), rad * np.sin(theta), z])


def besicovitch_cover(R, sample_size=100_000, rng=None):
    """Disks of radius e^{-R}/2 covering S^2 with bounded multiplicity.

    Returns (centers, report): centers is the (count, 3) array of unit
    vectors of a Fibonacci lattice with spacing LATTICE_SPACING x radius,
    each the center of one disk of radius report["radius"]; the report
    also carries the sampled coverage and multiplicity measurements.
    """
    radius = math.exp(-R) / 2.0
    if radius > math.pi:
        raise ValueError("disk radius exceeds pi")
    spacing = LATTICE_SPACING * radius
    n_pts = max(4, int(math.ceil(4.0 * math.pi / spacing**2)))
    centers = fibonacci_sphere(n_pts)
    tree = cKDTree(centers, balanced_tree=False, compact_nodes=False)

    samples = _uniform_sphere(rng or np.random.default_rng(0), sample_size)

    chord = _chord(radius)
    k = 24
    dists, _ = tree.query(samples, k=k, workers=-1)
    mult = np.sum(dists <= chord, axis=1)
    while np.any(mult >= k) and k < 512:
        k *= 2
        dists, _ = tree.query(samples, k=k, workers=-1)
        mult = np.sum(dists <= chord, axis=1)
    cover_rad_sample = 2.0 * math.asin(min(1.0, float(np.max(dists[:, 0])) / 2.0))

    report = {
        "R": R,
        "radius": radius,
        "count": n_pts,
        "max_multiplicity": int(np.max(mult)),
        "mean_multiplicity": float(np.mean(mult)),
        "covered_fraction": float(np.mean(mult >= 1)),
        "covering_radius_sample": cover_rad_sample,
    }
    return centers, report


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
    caps (radius <= SMALL_CAP) where the sphere is almost flat.  The
    flattening and its inverse are exposed separately because tangent
    coordinates stay fully resolved at scales where unit vectors on the
    sphere no longer are.
    """

    def __init__(self, disk):
        if disk.radius > SMALL_CAP:
            raise ValueError("cube chart requires a small cap (radius <= 0.1)")
        self.disk = disk
        self.t1, self.t2 = _tangent_basis(disk.center)

    @property
    def half_side(self):
        return self.disk.radius

    def flatten(self, u):
        """Cube coordinates -> tangent-plane disk coordinates (radial squish)."""
        u = np.asarray(u, dtype=float)
        return u * _squish(u)[..., None]

    def unflatten(self, v):
        v = np.asarray(v, dtype=float)
        sup = np.max(np.abs(v), axis=-1)
        eu = np.linalg.norm(v, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            fac = np.where(sup > 0.0, eu / np.where(sup > 0, sup, 1.0), 0.0)
        return v * fac[..., None]

    def forward(self, u):
        """Cube coordinates (..., 2) -> points of the cap (..., 3)."""
        v = self.flatten(u)
        theta = np.linalg.norm(v, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            vhat = v / np.where(theta > 0, theta, 1.0)[..., None]
        tang = vhat[..., 0:1] * self.t1 + vhat[..., 1:2] * self.t2
        return _exp_on_sphere(self.disk.center, theta, tang)

    def inverse(self, zeta):
        zeta = np.asarray(zeta, dtype=float)
        theta = _stable_angle(zeta, self.disk.center)
        diff = zeta - self.disk.center
        # the tangent-plane components of the chord are sin(theta) t-hat,
        # so scaling by theta/sin(theta) recovers the log map exactly
        with np.errstate(invalid="ignore", divide="ignore"):
            fac = np.where(theta > 1e-300, theta / np.sin(theta), 1.0)
        v = fac[..., None] * np.stack([diff @ self.t1, diff @ self.t2], axis=-1)
        return self.unflatten(v)

    def jacobian(self, u):
        """|det D(forward)| = (|u|_inf / |u|_2)^2 sin(theta) / theta, theta = |flatten(u)|.

        The radial squish scales area by its factor squared and the
        exponential map at the cap center by sin(theta) / theta; the closed
        form keeps full relative precision at every cap size.
        """
        u = np.asarray(u, dtype=float)
        fac = _squish(u)
        theta = fac * np.linalg.norm(u, axis=-1)
        return fac * fac * np.sinc(theta / np.pi)

    def measured_bilipschitz(self, rng, n_pairs=10_000):
        """Max two-sided distortion of sampled pair distances."""
        r = self.half_side
        u = rng.uniform(-r, r, size=(n_pairs, 2, 2))
        a, b = self.forward(u[:, 0]), self.forward(u[:, 1])
        dS = _stable_angle(a, b)
        dE = np.linalg.norm(u[:, 0] - u[:, 1], axis=-1)
        ok = dE > 1e-12
        ratio = dS[ok] / dE[ok]
        return float(max(np.max(ratio), 1.0 / np.min(ratio)))


@dataclass
class CubeImage:
    """Angular set B(Q) for a sub-rectangle Q of the chart cube.

    Geometry queries run in tangent-plane coordinates, which keep full
    relative precision for arbitrarily small subcells; sampling is by
    cube-uniform draws reweighted with the chart Jacobian, which gives
    unbiased spherical-measure averages without rejection.
    """

    chart: CubeToDisk
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)

    @property
    def center(self):
        return self.chart.forward(0.5 * (self.lo + self.hi))

    def side(self):
        return float(np.max(self.hi - self.lo))

    def contains(self, zeta):
        u = self.chart.inverse(zeta)
        tol = 1e-9 * self.side() + 1e-30
        return np.all((u >= self.lo - tol) & (u <= self.hi + tol), axis=-1)

    def radii_estimate(self, n_side=64):
        """(inner, outer) geodesic radii about the image of the center.

        Distances are measured in the flattened tangent plane (exact to
        O(radius^2) relative), so they remain meaningful for cells far
        below the resolution of unit vectors.
        """
        ts = np.linspace(0.0, 1.0, n_side)
        edges = []
        for a in range(2):
            for val in (self.lo[a], self.hi[a]):
                pts = np.empty((n_side, 2))
                pts[:, a] = val
                pts[:, 1 - a] = self.lo[1 - a] + ts * (self.hi[1 - a] - self.lo[1 - a])
                edges.append(pts)
        edge = np.concatenate(edges, axis=0)
        vc = self.chart.flatten(0.5 * (self.lo + self.hi))
        vs = self.chart.flatten(edge)
        d = np.linalg.norm(vs - vc, axis=-1)
        return float(np.min(d)), float(np.max(d))

    def sample_weighted(self, rng, k):
        """Cube-uniform samples with spherical-measure importance weights."""
        u = rng.uniform(self.lo, self.hi, size=(k, 2))
        w = self.chart.jacobian(u)
        return self.chart.forward(u), w / np.mean(w)

    def sample(self, rng, k):
        pts, _ = self.sample_weighted(rng, k)
        return pts


@dataclass
class Sector:
    """Geodesic polar region rho_min <= rho <= rho_min + r, zeta in Omega."""

    frame: PolarFrame
    rho_min: float
    r: float
    omega: object  # SphericalDisk or CubeImage

    def __post_init__(self):
        if self.rho_min <= 0 or self.r <= 0:
            raise ValueError("sector needs rho_min > 0 and r > 0")

    def sample_points(self, rng, k):
        """(points, weights) sampling d rho d zeta on the sector."""
        rho = rng.uniform(self.rho_min, self.rho_min + self.r, size=k)
        zeta, w = self.omega.sample_weighted(rng, k)
        return self.frame.from_polar(rho, zeta), w


@dataclass
class AdmissibilityCertificate:
    alpha: float
    inner: SphericalDisk
    outer: SphericalDisk
    rho_min: float


def admissibility_check(omega, rho_min, alpha, n_witness=256, rng=None):
    """Certificate that omega is pinched between concentric disks.

    Requires a disk of radius >= e^{-rho_min}/alpha inside omega and one
    of radius <= alpha e^{-rho_min} containing it, both centered at
    omega's center; returns the certificate or None with the failure
    recorded by the caller.  Containments are verified on samples.
    """
    scale = math.exp(-rho_min)
    if isinstance(omega, SphericalDisk):
        inner_r = outer_r = omega.radius
        center = omega.center
    else:
        inner_r, outer_r = omega.radii_estimate()
        center = omega.center
    if inner_r < scale / alpha or outer_r > scale * alpha:
        return None
    rng = rng or np.random.default_rng(0)
    inner = SphericalDisk(center, inner_r)
    outer = SphericalDisk(center, min(outer_r * (1 + 1e-9), math.pi))
    pts = inner.sample(rng, n_witness)
    if not np.all(omega.contains(pts)):
        return None
    pts = omega.sample(rng, n_witness)
    if not np.all(outer.contains(pts)):
        return None
    return AdmissibilityCertificate(alpha, inner, outer, rho_min)


def partition_cube(lo, hi, target_R):
    """Split a cube into N^m equal subcubes with side in [e^-R', 2 e^-R'].

    Returns (n_per_axis, side).  Requires side(cube) >= e * e^{-R'}
    (guaranteed by stacking with heights >= 1).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ell = float(np.max(hi - lo))
    scale = math.exp(-target_R)
    if ell < math.e * scale * (1.0 - 1e-12):
        raise ValueError("cube too small to partition at the requested scale")
    n_per_axis = int(math.ceil(ell / (2.0 * scale)))
    side = ell / n_per_axis
    if side < scale:
        n_per_axis -= 1
        side = ell / n_per_axis
    if not (scale * (1 - 1e-12) <= side <= 2.0 * scale * (1 + 1e-12)):
        raise AssertionError("partition side escaped the admissible window")
    return n_per_axis, side


def subcube(lo, side, idx):
    """Rectangle of the idx-th subcube (multi-index over axes)."""
    lo = np.asarray(lo, dtype=float)
    idx = np.asarray(idx, dtype=float)
    new_lo = lo + idx * side
    return new_lo, new_lo + side


def _weighted_mean_se(vals, weights):
    wsum = float(np.sum(weights))
    mean = float(np.sum(weights * vals) / wsum)
    # ratio-estimator standard error
    se = float(np.sqrt(np.sum((weights * (vals - mean)) ** 2)) / wsum)
    return mean, se


def sector_average(sector, field, n_mc=4096, rng=None):
    """Monte Carlo average of field over the sector, uniform in d rho d zeta.

    field maps point arrays (k, n) to values (k,).  Cube-image angular
    sets are sampled through their chart with Jacobian importance
    weights.  Returns (mean, standard_error, n_samples).
    """
    rng = rng or np.random.default_rng(0)
    pts, w = sector.sample_points(rng, n_mc)
    vals = np.asarray(field(pts), dtype=float)
    mean, se = _weighted_mean_se(vals, w)
    return mean, se, n_mc


def find_good_height(frame, rho_min, omega, delta, r_max, field, rng=None,
                     n_slab=256, dr=0.25, se_factor=2.0):
    """First height r1 in {1, 1+dr, ...} whose sector average of field is < delta.

    Samples incrementally per radial slab of width dr (slabs have equal
    d rho d zeta measure, so the pooled mean is the sector average) and
    accepts when mean + se_factor * se < delta.  Returns a dict; success
    False reports the best average found (good heights are only
    guaranteed once rho_min exceeds an empirical threshold).
    """
    n_slabs_total = int(round(r_max / dr))
    if n_slabs_total * dr + 1e-9 < 1.0:
        raise ValueError(f"r_max={r_max} stops below the first candidate height 1")
    rng = rng or np.random.default_rng(0)
    vals = []
    wts = []
    best = (math.inf, 0.0)
    se = math.inf
    out = {"success": False, "r1": None, "mean": math.inf, "se": math.inf, "n": 0}
    for k in range(n_slabs_total):
        lo = rho_min + k * dr
        rho = rng.uniform(lo, lo + dr, size=n_slab)
        zeta, w = omega.sample_weighted(rng, n_slab)
        pts = frame.from_polar(rho, zeta)
        vals.append(np.asarray(field(pts), dtype=float))
        wts.append(w)
        r_here = (k + 1) * dr
        if r_here + 1e-9 < 1.0:
            continue
        allv = np.concatenate(vals)
        allw = np.concatenate(wts)
        mean, se = _weighted_mean_se(allv, allw)
        if mean < best[0]:
            best = (mean, r_here)
        if mean + se_factor * se < delta:
            out.update(success=True, r1=r_here, mean=mean, se=se, n=allv.size)
            return out
    out.update(mean=best[0], r1=best[1], se=se, n=allv.size)
    return out


@dataclass
class SectorRecord:
    rho: float
    r1: float
    lo: np.ndarray
    hi: np.ndarray
    mean: float
    se: float
    good: bool
    level: int
    resolution_limited: bool = False  # angular scale below ~100 eps: the
    #                                   direction samples collapse in float64


@dataclass
class CylinderReport:
    index: int
    disk: SphericalDisk
    sectors: list
    branch_tops: list
    n_children_total: int
    n_bad: int
    disjoint: bool
    contained: bool
    leftover_bound: float
    leftover_estimate: float
    weighted_tension_avg: float

    @property
    def all_good(self):
        return self.n_bad == 0


@dataclass
class CoveringReport:
    t: float
    eps: float
    r_in: float
    r_out: float
    r0: float
    cover_count_estimate: float
    cylinders: list
    cover_report: dict = field(default_factory=dict)

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


def _rects_disjoint(a_lo, a_hi, b_lo, b_hi):
    return bool(np.any(a_hi <= b_lo + 1e-15) or np.any(b_hi <= a_lo + 1e-15))


def _check_disjoint(sectors):
    for i in range(len(sectors)):
        for j in range(i + 1, len(sectors)):
            a, b = sectors[i], sectors[j]
            rho_overlap = (a.rho < b.rho + b.r1 - 1e-12) and (b.rho < a.rho + a.r1 - 1e-12)
            if rho_overlap and not _rects_disjoint(a.lo, a.hi, b.lo, b.hi):
                return False
    return True


def cover_annulus(frame, t, eps, field, r0=8.0, delta=None, max_cylinders=4,
                  enumeration_cap=12, audit_branches=3, n_slab=256, seed=0,
                  disks=None, n=3, r_max=None):
    """Stack good sectors over cylinders covering the main annulus.

    field(pts) is the quantity averaged over sectors, normally
    |tau(G_a(f))|^2.  Covers at large t have astronomically many
    cylinders and stack cells, so max_cylinders cylinders are processed
    (a deterministic sample when the full cover is infeasible) and stack
    levels beyond enumeration_cap cells are audited along sampled
    root-to-top chains; the leftover bound holds branch-wise by the
    stopping rule, which every audited branch verifies.
    """
    rng = np.random.default_rng(seed)
    delta = eps if delta is None else delta
    r_max = r_max if r_max is not None else r0
    annulus = AnnulusSpec(t, l_of_eps(eps), n)
    r_in, r_out = annulus.r_in, annulus.r_out
    if r_in <= 0:
        raise ValueError("main annulus touches the center; increase t")

    radius = math.exp(-r_in) / 2.0
    n_est = 4.0 * math.pi / (LATTICE_SPACING * radius) ** 2
    cover_report = {}
    if disks is not None:
        chosen = disks[:max_cylinders]
        n_est = float(len(disks))
    elif n_est <= MAX_FULL_COVER:
        centers, cover_report = besicovitch_cover(r_in, rng=rng)
        step = max(1, len(centers) // max_cylinders)
        chosen = [SphericalDisk(c, radius) for c in centers[::step][:max_cylinders]]
        n_est = float(len(centers))
    else:
        # sampled cylinders from the (virtual) cover: uniform random centers
        chosen = [SphericalDisk(c, radius) for c in _uniform_sphere(rng, max_cylinders)]

    reports = []
    for ci, disk in enumerate(chosen):
        reports.append(
            _cover_one_cylinder(
                ci, frame, disk, r_in, r_out, r0, delta, field, rng,
                enumeration_cap, audit_branches, n_slab, r_max,
            )
        )
    return CoveringReport(
        t, eps, r_in, r_out, r0, n_est, reports, cover_report
    )


def _cover_one_cylinder(ci, frame, disk, r_in, r_out, r0, delta, field, rng,
                        enumeration_cap, audit_branches, n_slab, r_max):
    sectors = []
    branch_tops = []
    n_bad = 0
    stop_line = r_out - r0

    use_chart = disk.radius <= SMALL_CAP
    chart = CubeToDisk(disk) if use_chart else None
    half = disk.radius  # cube side = 2 * radius = e^{-R_in}

    def eval_cell(omega, rho, level, lo, hi):
        nonlocal n_bad
        res = find_good_height(
            frame, rho, omega, delta, r_max, field, rng=rng, n_slab=n_slab
        )
        good = bool(res["success"])
        if not good:
            n_bad += 1
        r1 = res["r1"] if res["r1"] else 1.0
        scale = omega.radius if isinstance(omega, SphericalDisk) else omega.side()
        sectors.append(
            SectorRecord(rho, r1, np.array(lo), np.array(hi), res["mean"],
                         res["se"], good, level,
                         resolution_limited=scale < 100 * np.finfo(float).eps)
        )
        return rho + r1

    # base sector: Omega = the full disk
    base_lo = np.array([-half, -half])
    base_hi = np.array([half, half])
    top = eval_cell(disk, r_in, 0, base_lo, base_hi)

    if top > stop_line or not use_chart:
        branch_tops.append(top)
        n_children_total = 0
    else:
        n_per, side = partition_cube(base_lo, base_hi, top)
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
            lo, hi = subcube(base_lo, side, idx)
            omega = CubeImage(chart, lo, hi)
            child_top = eval_cell(omega, top, 1, lo, hi)
            if pos in audit_set:
                # descend one random chain to the top of the cylinder
                c_lo, c_hi, c_rho = lo, hi, child_top
                level = 2
                while c_rho <= stop_line:
                    np_ax, c_side = partition_cube(c_lo, c_hi, c_rho)
                    pick_idx = (
                        int(rng.integers(np_ax)),
                        int(rng.integers(np_ax)),
                    )
                    c_lo, c_hi = subcube(c_lo, c_side, pick_idx)
                    omega = CubeImage(chart, c_lo, c_hi)
                    c_rho = eval_cell(omega, c_rho, level, c_lo, c_hi)
                    level += 1
                branch_tops.append(c_rho)

    good_secs = [s for s in sectors if s.good]
    weights = []
    for s in good_secs:
        width = float(np.prod(s.hi - s.lo))
        weights.append(s.r1 * width)  # cube-measure area proxy, uniform bias
    if weights:
        wsum = float(np.sum(weights))
        wavg = float(np.sum([w * s.mean for w, s in zip(weights, good_secs)]) / wsum)
    else:
        wavg = math.nan

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
        n_children_total=n_children_total,
        n_bad=n_bad,
        disjoint=_check_disjoint(sectors),
        contained=contained and tops_ok,
        leftover_bound=leftover_bound,
        leftover_estimate=leftover_est,
        weighted_tension_avg=wavg,
    )


def sector_svg(report, cylinder_index=0, width=640, height=480):
    """Minimal SVG cross-section of one cylinder's sector stack.

    Sectors are drawn over (first cube coordinate) x (rho - R_in); good
    sectors are outlined in black, bad cells in red.
    """
    cyl = report.cylinders[cylinder_index]
    span_rho = report.r_out - report.r_in
    half = cyl.disk.radius
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for s in cyl.sectors:
        x0 = (s.lo[0] + half) / (2 * half) * (width - 40) + 20
        x1 = (s.hi[0] + half) / (2 * half) * (width - 40) + 20
        y1 = height - 20 - (s.rho - report.r_in) / span_rho * (height - 40)
        y0 = height - 20 - (s.rho + s.r1 - report.r_in) / span_rho * (height - 40)
        color = "black" if s.good else "red"
        parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" '
            f'height="{y1 - y0:.2f}" fill="none" stroke="{color}" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
