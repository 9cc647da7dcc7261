"""Energy density, tension field and distortion of maps H^n -> H^n.

All operators work in upper half-space coordinates and read one jet
tuple (val, jac, lap, s_dom): image points val (..., n), Jacobian
jac[..., g, i] = dF^g/dx^i, diagonal second derivatives
lap[..., g, i] = d^2 F^g/dx_i^2 and base heights s_dom (...).  The metric
is diagonal, so the tension contraction only needs the diagonal second
derivatives.  A map with its own `jet` method (a good extension, in unit
frames) supplies the tuple itself; for any other map `fd_jet` takes it by
central differences with step proportional to the height of the base
point, so accuracy is uniform in the hyperbolic metric.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundary import singular_value_ratio

__all__ = [
    "HyperMap",
    "JetData",
    "jet",
    "energy_density",
    "tension_field",
    "tension_norm",
    "map_distortion",
    "good_set_membership",
    "fd_jet",
    "energy_from_jet",
    "tension_from_jet",
]

FD_REL_STEP = 1e-4  # h = 1e-4 * s, stencils stay inside the half-space
H_MIN = 1e-300


@dataclass
class HyperMap:
    """Evaluable map H^n -> H^n acting on coordinate arrays (..., n)."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, pts):
        return self.evaluator(np.asarray(pts, dtype=float))


def as_hypermap(obj, name=""):
    """Wrap an isometry or bare callable as a HyperMap."""
    if isinstance(obj, HyperMap):
        return obj
    if hasattr(obj, "apply"):
        return HyperMap(obj.apply, name=name or obj.__class__.__name__)
    return HyperMap(obj, name=name)


@dataclass
class JetData:
    """Value, Jacobian and Hessian of a map at one point (Euclidean coords)."""

    value: np.ndarray     # (n,)
    jacobian: np.ndarray  # (n, n), jacobian[g, i] = dF^g/dx^i
    hessian: np.ndarray   # (n, n, n), hessian[g, i, j] = d2F^g/dx^i dx^j

    def symmetry_defect(self):
        return float(np.max(np.abs(self.hessian - np.swapaxes(self.hessian, 1, 2))))


def _steps(pts, h_rel):
    s = pts[..., -1]
    h = h_rel * s
    if np.any(h < H_MIN):
        raise ValueError("finite-difference step underflowed below h_min")
    return h


def jet(F, p, h_rel=FD_REL_STEP):
    """Full finite-difference 2-jet of F at a single point p.

    O(h^2) accurate; the stencil stays in the half-space because the step
    is proportional to the height.
    """
    pc = np.asarray(p.coords if hasattr(p, "coords") else p, dtype=float)
    n = pc.shape[-1]
    h = float(_steps(pc, h_rel))
    val = F(pc)
    jac = np.empty((n, n))
    hess = np.empty((n, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fp, fm = F(pc + e), F(pc - e)
        jac[:, i] = (fp - fm) / (2.0 * h)
        hess[:, i, i] = (fp - 2.0 * val + fm) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            mixed = (
                F(pc + ei + ej) - F(pc + ei - ej) - F(pc - ei + ej) + F(pc - ei - ej)
            ) / (4.0 * h**2)
            hess[:, i, j] = mixed
            hess[:, j, i] = mixed
    return JetData(val, jac, hess)


def tension_from_jet(value, jac, lap_diag, s_dom):
    """Tension vector from value, Jacobian and diagonal second derivatives.

    tau^g = g^{ii} (d2F^g - Gamma^k_{ii} dF^g_k + Gamma~^g_{ab} dF^a_i dF^b_i)
    with the half-space Christoffel symbols
    Gamma^k_{ij} = -(d_{kj} d_{in} + d_{ki} d_{jn} - d_{ij} d_{kn})/s.

    value: (..., n) image points, jac: (..., n, n), lap_diag: (..., n, n)
    with lap_diag[..., g, i] = d^2 F^g / dx_i^2, s_dom: (...) base heights.
    Returns (tau (..., n), |tau| in the target metric at value).
    """
    value = np.asarray(value, dtype=float)
    n = value.shape[-1]
    S = value[..., -1]
    s2 = s_dom * s_dom
    n2_s = (n - 2) * s_dom
    two_s2_S = 2.0 * s2 / S
    buf = np.empty(S.shape)
    d = [[jac[..., g, i] for i in range(n)] for g in range(n)]  # dF^g/dx^i

    # target Christoffel terms at height S = F^n need the horizontal and
    # vertical parts of |dF|^2, summed left to right over (g, i)
    horiz_sq = _dot(d[0], d[0], buf)
    for row in d[1:-1]:
        for r in row:
            horiz_sq += np.multiply(r, r, out=buf)
    vert_sq = _dot(d[-1], d[-1], buf)

    tau = np.empty(value.shape)
    taus = []
    for g in range(n):
        tau_g = lap_diag[..., g, 0] + lap_diag[..., g, 1]
        for i in range(2, n):
            tau_g += lap_diag[..., g, i]
        tau_g *= s2
        tau_g -= np.multiply(n2_s, d[g][-1], out=buf)
        if g < n - 1:
            tau_g -= np.multiply(two_s2_S, _dot(d[g], d[-1], buf), out=buf)
        else:
            tau_g += np.multiply(s2 / S, horiz_sq - vert_sq, out=buf)
        tau[..., g] = tau_g
        taus.append(tau_g)

    norm = np.sqrt(_dot(taus, taus, buf)) / S
    return tau, norm


def _dot(xs, ys, buf):
    """sum_i xs[i] * ys[i], accumulated left to right; buf holds each product."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc += np.multiply(x, y, out=buf)
    return acc


def fd_jet(F, pts, h_rel=FD_REL_STEP):
    """Jet tuple (val, jac, lap, s_dom) of F at pts by central differences.

    The step is h_rel times the base height, so the 2n-point stencil stays
    inside the half-space.  Batched over leading axes.
    """
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[-1]
    h = _steps(pts, h_rel)
    val = F(pts)
    jac = np.empty(val.shape + (n,))
    lap = np.empty_like(jac)
    for i in range(n):
        step = np.zeros(pts.shape)
        step[..., i] = h
        fp, fm = F(pts + step), F(pts - step)
        jac[..., i] = (fp - fm) / (2.0 * h[..., None])
        lap[..., i] = (fp - 2.0 * val + fm) / (h**2)[..., None]
    return val, jac, lap, pts[..., -1]


def _jet_of(F, pts):
    """F's own jet tuple when it has one, else its central-difference jet."""
    return F.jet(pts) if hasattr(F, "jet") else fd_jet(F, pts)


def energy_from_jet(val, jac, s_dom):
    """e = (s/S)^2 |dF|^2 / 2, summed one Jacobian entry at a time."""
    entries = [jac[..., g, i] for g in range(jac.shape[-2]) for i in range(jac.shape[-1])]
    e = _dot(entries, entries, np.empty(jac.shape[:-2]))
    e *= 0.5 * (s_dom / val[..., -1]) ** 2
    return e


def tension_field(F, pts, h_rel=FD_REL_STEP):
    """Tension vector and its hyperbolic norm at pts (batched).

    Returns (tau (..., n) in Euclidean components at F(p), |tau| measured
    in the target metric at F(p)), from central differences of F.
    """
    return tension_from_jet(*fd_jet(F, pts, h_rel))


def tension_norm(F, pts):
    """|tau(F)| at pts; dispatches to a map-specific evaluator when present.

    Good extensions carry a conjugation-stabilised evaluator that stays
    accurate arbitrarily close to the boundary.
    """
    if hasattr(F, "tension_norm"):
        return F.tension_norm(pts)
    return tension_field(F, pts)[1]


def energy_density(F, pts):
    """e(F) = 1/2 g^{ij} h_{ab} dF^a_i dF^b_j = (s/S)^2 |dF|_F^2 / 2."""
    val, jac, _, s_dom = _jet_of(F, np.asarray(pts, dtype=float))
    return energy_from_jet(val, jac, s_dom)


def map_distortion(F, pts):
    """Ratio of extreme singular values of the metric-normalised differential.

    The s/S normalisation cancels in the ratio, so this is the singular
    value ratio of the coordinate Jacobian; inf for singular differentials.
    """
    return singular_value_ratio(_jet_of(F, np.asarray(pts, dtype=float))[1])


def good_set_membership(f, eps, pts, ext=None, big_K=None):
    """Membership of pts in the good set of the extension of f.

    Returns (energy > 1, distortion < 2K, |tau| < eps) plus the
    conjunction, all as boolean arrays.
    """
    from .extension import GoodExtension  # deferred: extension builds on this module

    if ext is None:
        ext = GoodExtension(f)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    K = f.declared_K if big_K is None else big_K
    e = energy_density(ext, pts)
    dist = map_distortion(ext, pts)
    tau = tension_norm(ext, pts)
    ok_e = e > 1.0
    ok_k = dist < 2.0 * K
    ok_t = tau < eps
    return ok_e, ok_k, ok_t, ok_e & ok_k & ok_t
