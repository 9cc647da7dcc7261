"""Green's function of the punctured ball and distance-Laplacian checks.

The Green's function of -Laplace on r B^n (unit-ball model, Euclidean
radial coordinate rho = |x|) is

    g_r(rho) = (1/n) int_rho^r (1 - s^2)^{n-2} / s^{n-1} ds,   rho <= r,

zero for rho > r.  Its volume integral against the hyperbolic measure
diverges logarithmically as r -> 1, at rate at least (n C_g / 2)
log(1/(1-r^2)) for the calibrated lower-bound constant C_g.
"""

import math
from functools import partial

import numpy as np

from . import tension as tn
from .heatkernel import _panel_quad as _panel_quad_rule

__all__ = [
    "green",
    "green_lower_bound_check",
    "green_volume_integral",
    "distance_laplacian_check",
]

# Calibrated lower-bound constant: the sweep minimum of
# g_r(rho) rho^{n-2} / (1-rho^2)^{n-1} over rho in (0, 0.9 r] is about
# 0.076 for the n = 3 family and 0.044 for n = 4 at r = 0.9; pinned with
# margin under both.
C_GREEN = 0.04

DIST_LAP_TOL = 1e-3  # slack of the distance-Laplacian inequality (difference error)
DIST_MIN = 0.05      # below this distance d^2 is skipped: d degenerates at 0

# the Green's-function integrals use a 16-point rule on every panel
_panel_quad = partial(_panel_quad_rule, rule=np.polynomial.legendre.leggauss(16))


def green(r, rho, n=3):
    """g_r(rho); closed form for n = 3, panel quadrature otherwise.

    rho = 0 is a genuine singularity and returns inf.
    """
    rho_arr = np.asarray(rho, dtype=float)
    scalar = rho_arr.ndim == 0
    rho_arr = np.atleast_1d(rho_arr)
    if np.any(rho_arr < 0) or np.any(rho_arr > 1):
        raise ValueError("rho must lie in [0, 1]")
    out = np.zeros_like(rho_arr)
    inside = (rho_arr < r) & (rho_arr > 0)
    if n == 3:
        # antiderivative of (1-s^2)/s^2 is -1/s - s
        x = rho_arr[inside]
        out[inside] = ((1.0 / x + x) - (1.0 / r + r)) / 3.0
    else:
        for i in np.nonzero(inside)[0]:
            x = rho_arr[i]
            edges = np.geomspace(x, r, 33)
            out[i] = _panel_quad(
                lambda s: (1.0 - s**2) ** (n - 2) / s ** (n - 1), edges
            ) / n
    out[rho_arr == 0.0] = math.inf
    return float(out[0]) if scalar else out


def green_lower_bound_check(r, rho, n=3):
    """Check g_r(rho) >= C_GREEN (1-rho^2)^{n-1} / rho^{n-2}.

    Returns (lhs, rhs, holds).  The bound is calibrated on the sweep
    rho <= 0.9 r; near rho = r the Green's function vanishes while the
    comparison function does not, so the inequality genuinely fails there.
    """
    lhs = green(r, rho, n)
    rho = np.asarray(rho, dtype=float)
    rhs = C_GREEN * (1.0 - rho**2) ** (n - 1) / rho ** (n - 2)
    return lhs, rhs, np.all(lhs >= rhs)


def green_volume_integral(r, n=3):
    """int g_r d(hyperbolic volume), with sigma(S^{n-1}) normalised to 1.

    Equals int_0^r n rho^{n-1} g_r(rho) / (1-rho^2)^n d rho; diverges like
    (n C_g / 2) log(1/(1-r^2)) as r -> 1.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")

    def integrand(rho):
        g = green(r, rho, n)
        return n * rho ** (n - 1) * g / (1.0 - rho**2) ** n

    coarse = np.linspace(1e-12, r, 65)
    fine = 1.0 - np.geomspace(1.0 - r, 1.0, 129)
    edges = np.union1d(coarse, fine[(fine > 0) & (fine < r)])
    return _panel_quad(integrand, np.sort(edges))


def distance_laplacian_check(F, G, pts):
    """Check Delta d^2 >= -2 d (|tau(F)| + |tau(G)|) - DIST_LAP_TOL at pts.

    d(p) = dist(F(p), G(p)); the Laplace-Beltrami operator is evaluated
    by central differences in half-space coordinates.  Points with
    d < DIST_MIN are skipped (the distance function degenerates there).
    Returns (lap, rhs, holds, skipped) as arrays.
    """
    from .geometry import dist

    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = pts.shape[-1]

    def d2(q):
        return dist(F(q), G(q)) ** 2

    s = pts[..., -1]
    h = 1e-3 * s
    val = d2(pts)
    lap = np.zeros(pts.shape[:-1])
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        step = h[..., None] * e
        lap += (d2(pts + step) - 2.0 * val + d2(pts - step)) / h**2
    # Laplace-Beltrami on H^n: s^2 (euclidean laplacian) - (n-2) s d/ds
    e = np.zeros(n)
    e[-1] = 1.0
    step = h[..., None] * e
    dds = (d2(pts + step) - d2(pts - step)) / (2.0 * h)
    lap = s**2 * lap - (n - 2) * s * dds

    d = np.sqrt(val)
    rhs = -2.0 * d * (tn.tension_norm(F, pts) + tn.tension_norm(G, pts))
    skipped = d < DIST_MIN
    holds = skipped | (lap >= rhs - DIST_LAP_TOL)
    return lap, rhs, holds, skipped
