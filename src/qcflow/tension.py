"""Energy density, tension field and distortion of maps H^n -> H^n.

All operators work in upper half-space coordinates.  Derivatives are
central finite differences with step proportional to the height of the
base point, so accuracy is uniform in the hyperbolic metric.  The metric
is diagonal, so the tension contraction only needs the diagonal second
derivatives.  Maps that carry their own evaluators (good extensions, with
a `jet` and a `tension_norm` method) are dispatched to them.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "HyperMap",
    "JetData",
    "jet",
    "energy_density",
    "tension_field",
    "tension_norm",
    "map_distortion",
    "good_set_membership",
    "tension_from_jet",
]

FD_REL_STEP = 1e-4  # h = 1e-4 * s, stencils stay inside the half-space
H_MIN = 1e-300


@dataclass
class HyperMap:
    """Evaluable map H^n -> H^n acting on coordinate arrays (..., n)."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    meta: dict = field(default_factory=dict)

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
    plus = np.empty((n, n))
    minus = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fp, fm = F(pc + e), F(pc - e)
        plus[:, i], minus[:, i] = fp, fm
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


def _diag_stencil_eval(F, pts, h_rel):
    """Values of F on the center +/- h e_i stencil; returns (val, plus, minus, h)."""
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[-1]
    h = _steps(pts, h_rel)
    val = F(pts)
    plus = np.empty(pts.shape[:-1] + (n, n))
    minus = np.empty(pts.shape[:-1] + (n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        step = h[..., None] * e
        plus[..., i, :] = F(pts + step)
        minus[..., i, :] = F(pts - step)
    # plus[..., i, g] = F^g(p + h e_i)
    return val, plus, minus, h


def _jac_lap(F, pts, h_rel=FD_REL_STEP):
    val, plus, minus, h = _diag_stencil_eval(F, pts, h_rel)
    jac = (plus - minus) / (2.0 * h[..., None, None])
    lap = (plus - 2.0 * val[..., None, :] + minus) / (h**2)[..., None, None]
    # reorder to [..., g, i]
    return val, np.swapaxes(jac, -1, -2), np.swapaxes(lap, -1, -2)


def tension_field(F, pts, h_rel=FD_REL_STEP):
    """Tension vector and its hyperbolic norm at pts (batched).

    Returns (tau (..., n) in Euclidean components at F(p), |tau| measured
    in the target metric at F(p)).
    """
    pts = np.asarray(pts, dtype=float)
    val, jac, lap = _jac_lap(F, pts, h_rel)
    return tension_from_jet(val, jac, lap, pts[..., -1])


def tension_norm(F, pts):
    """|tau(F)| at pts; dispatches to a map-specific evaluator when present.

    Good extensions carry a conjugation-stabilised evaluator that stays
    accurate arbitrarily close to the boundary.
    """
    if hasattr(F, "tension_norm"):
        return F.tension_norm(pts)
    return tension_field(F, pts)[1]


def energy_density(F, pts, h_rel=FD_REL_STEP):
    """e(F) = 1/2 g^{ij} h_{ab} dF^a_i dF^b_j = (s/S)^2 |dF|_F^2 / 2.

    A map's own `jet` is taken in unit frames, where s/S = 1.
    """
    pts = np.asarray(pts, dtype=float)
    if hasattr(F, "jet"):
        return 0.5 * np.sum(F.jet(pts)[0] ** 2, axis=(-2, -1))
    val, jac, _ = _jac_lap(F, pts, h_rel)
    S = val[..., -1]
    s = pts[..., -1]
    return 0.5 * (s / S) ** 2 * np.sum(jac**2, axis=(-2, -1))


def map_distortion(F, pts, h_rel=FD_REL_STEP):
    """Ratio of extreme singular values of the metric-normalised differential.

    The s/S normalisation cancels in the ratio, so this is the singular
    value ratio of the coordinate Jacobian (a map's own `jet` when present);
    inf for singular differentials.
    """
    pts = np.asarray(pts, dtype=float)
    if hasattr(F, "jet"):
        jac = F.jet(pts)[0]
    else:
        _, jac, _ = _jac_lap(F, pts, h_rel)
    sv = np.linalg.svd(jac, compute_uv=False)
    smin = sv[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(smin > 0.0, sv[..., 0] / np.where(smin > 0, smin, 1.0), np.inf)


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
