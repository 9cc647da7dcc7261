"""Radial heat kernel of H^3 and the ballistic main-annulus estimates.

The kernel has the closed form

    H(rho, t) = (4 pi t)^{-3/2} (rho / sinh rho) exp(-t - rho^2 / 4t),

validated internally by mass normalisation and the radial PDE residual.
The radial mass density H(rho, t) * 4 pi sinh^2(rho) concentrates, for
large t, on the main annulus 2t +/- l sqrt(t) with a fixed Gaussian
profile e^{-r^2/4} in r = (rho - 2t)/sqrt(t).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialKernel",
    "AnnulusSpec",
    "l_of_eps",
    "annulus_tail_mass",
    "annulus_average_bounds",
    "reduce_to_annulus",
    "peak_location",
]

# Calibrated fixtures (see tests/test_heatkernel.py for the recalibration
# sweeps that pin them).  C3_TAIL is the constant in l(eps) =
# sqrt(8 log(C/eps)); C3_SANDWICH bounds the annulus/Gaussian ratio both
# ways.
C3_TAIL = 0.25
C3_SANDWICH = 50.0

GL12 = np.polynomial.legendre.leggauss(12)  # (nodes, weights) on [-1, 1]


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


def _cutoff(t):
    """Radius past which the kernel's radial mass is negligible at time t."""
    return 2 * t + 12.0 * math.sqrt(t) + 20.0


def _annulus_edges(t, lo=0.0, hi=None):
    """Panel edges graded to resolve the bump at 2t on scale sqrt(t).

    Panels of width sqrt(t)/16 span 2t +/- 14 sqrt(t).
    """
    st = math.sqrt(t)
    if hi is None:
        hi = _cutoff(t)
    coarse = np.linspace(lo, hi, 65)
    fine = 2 * t + st * np.linspace(-14.0, 14.0, 225)
    edges = np.union1d(coarse, fine)
    return edges[(edges >= lo) & (edges <= hi)]


@dataclass
class AnnulusSpec:
    """Main annulus at time t: [R_in, R_out] = 2t -/+ l sqrt(t)."""

    t: float
    l: float

    @property
    def r_in(self):
        return 2 * self.t - self.l * math.sqrt(self.t)

    @property
    def r_out(self):
        return 2 * self.t + self.l * math.sqrt(self.t)


class RadialKernel:
    """Heat kernel of H^3 as a radial function H(rho, t)."""

    def __init__(self, n=3):
        if n != 3:
            raise ValueError(f"n={n}: the closed-form heat kernel is H^3's, n = 3")

    def density(self, rho, t):
        """Pointwise kernel value from the closed form."""
        if np.any(np.asarray(t) <= 0):
            raise ValueError("t must be positive")
        rho = np.asarray(rho, dtype=float)
        return np.exp(self.log_density(rho, t))

    def log_density(self, rho, t):
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
        """H(rho,t) * 4 pi * sinh^2(rho): integrates to 1 over rho."""
        return np.exp(self.log_radial_mass_density(rho, t))

    def log_radial_mass_density(self, rho, t):
        rho = np.asarray(rho, dtype=float)
        lg = self.log_density(rho, t)
        out = lg + np.log(4.0 * math.pi)
        return np.where(rho > 0.0, out + 2 * _log_sinh(np.maximum(rho, 1e-300)), -np.inf)

    def total_mass(self, t):
        """Quadrature of the radial mass density; equals 1 up to truncation."""
        edges = _annulus_edges(t)
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


def annulus_tail_mass(t, l):
    """Kernel mass outside |rho - 2t| <= l sqrt(t).

    Computed as the direct quadrature of the two tail pieces, which is
    accurate for small tails; l = 0 returns the total mass 1.
    """
    if t < 1.0:
        raise ValueError(f"t={t}: the tail mass is computed for t >= 1")
    kern = RadialKernel()
    ann = AnnulusSpec(t, l)
    hi = _cutoff(t)
    total = 0.0
    if ann.r_in > 0.0:
        edges = _annulus_edges(t, lo=0.0, hi=ann.r_in)
        total += _panel_quad(lambda r: kern.radial_mass_density(r, t), edges)
    if ann.r_out < hi:
        edges = _annulus_edges(t, lo=ann.r_out, hi=hi)
        total += _panel_quad(lambda r: kern.radial_mass_density(r, t), edges)
    return total


def annulus_average_bounds(Phi, t, l):
    """Annulus integral of Phi against the kernel vs its Gaussian comparator.

    Returns a dict with the annulus integral int Phi H sinh^2 d rho
    (over the main annulus), the comparator
    int_{-l}^{l} Phi(2t + r sqrt t) e^{-r^2/4} dr, their ratio, and
    whether the two-sided sandwich with C3_SANDWICH holds.  Requires
    t >= 2 l^2 and l >= 1.
    """
    if l < 1.0:
        raise ValueError("sandwich hypothesis requires l >= 1")
    if t < 2.0 * l * l:
        raise ValueError("sandwich hypothesis requires t >= 2 l^2")
    kern = RadialKernel()
    ann = AnnulusSpec(t, l)

    def integrand(rho):
        return Phi(rho) * kern.radial_mass_density(rho, t) / (4.0 * math.pi)

    edges = _annulus_edges(t, lo=max(ann.r_in, 0.0), hi=ann.r_out)
    annulus = _panel_quad(integrand, edges)

    st = math.sqrt(t)

    def gauss_integrand(r):
        return Phi(2 * t + r * st) * np.exp(-(r**2) / 4.0)

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


def reduce_to_annulus(Phi, t, eps):
    """Upper bound (C'/sqrt t) int_{R_in}^{R_out} Phi d rho + eps, C' = C3_SANDWICH.

    Asserts domination of the full integral
    int_0^inf Phi H 4 pi sinh^2 d rho; requires t >= 2 l(eps)^2.
    Returns (bound, full_integral, holds).
    """
    l = l_of_eps(eps)
    if t < 2.0 * l * l:
        raise ValueError("hypothesis t >= 2 l(eps)^2 violated")
    kern = RadialKernel()
    ann = AnnulusSpec(t, l)

    redges = np.linspace(max(ann.r_in, 0.0), ann.r_out, 257)
    annulus_plain = _panel_quad(lambda r: np.asarray(Phi(r), dtype=float), redges)
    bound = C3_SANDWICH / math.sqrt(t) * annulus_plain + eps

    edges = _annulus_edges(t)
    full = _panel_quad(lambda r: Phi(r) * kern.radial_mass_density(r, t), edges)
    return bound, full, bound >= full - 1e-12


def peak_location(t):
    """Argmax over rho of H(rho,t) sinh^2(rho); near 2t for large t."""
    kern = RadialKernel()
    st = math.sqrt(t)
    grid = 2 * t + st * np.linspace(-6.0, 6.0, 4001)
    grid = grid[grid > 0]
    vals = kern.log_radial_mass_density(grid, t)
    return float(grid[np.argmax(vals)])
