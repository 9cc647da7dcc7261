"""The good extension of a quasiconformal boundary map.

For f fixing infinity the extension sends (x, s) to the Gaussian average
of f at scale s, with vertical part s sqrt(avg energy / (n-1)):

    ( int f(x + s y) phi(y) dy ,
      s/sqrt(n-1) * sqrt( int e(f)(x + s y) phi(y) dy ) )

with phi the standard Gaussian on R^{n-1}.  Extensions anchored at a
finite boundary point are obtained by conjugating with an isometry that
carries the anchor to infinity; partial conformal naturality makes the
result independent of that choice.

The extension itself is never finite-differenced: since
G(., s) = exp((s^2/2) Delta) f, its Jacobian and diagonal second
derivatives are Gaussian moments of the same node values the average
uses (Stein identities, as in the Gaussian-smoothing gradient of
Nesterov and Spokoiny, Found. Comput. Math. 17, 2017).  `GoodExtension.jet`
reads them off one set of node evaluations per point, in a frame
conjugated to unit scale, as the jet tuple that energy, distortion and
tension take.
"""

import numpy as np

from . import boundary as bd
from . import tension as tn
from .geometry import (
    INFINITY,
    Mobius,
    boundary_antipode,
    dist,
    general_isometry,
    is_infinity,
)

__all__ = [
    "QuadratureRule",
    "GoodExtension",
    "anchoring_isometry",
    "check_partial_conformal_naturality",
    "quasi_isometry_constants",
    "tension_sup_estimate",
]

DEFAULT_ORDER = 21
CHUNK = 256          # points per evaluation and jet chunk: node arrays stay small
DEEP_HEIGHT = 1e-4   # below this, the jet uses the local-model evaluation
DEEP_GUARD = 2e-3    # keep the local model away from catalog singular points


class QuadratureRule:
    """Tensor-product Gauss-Hermite rule for the weight (2pi)^{-m/2} e^{-|y|^2/2}.

    Normalised so the constant 1 integrates to 1; odd monomials and
    off-diagonal second moments integrate to 0 by symmetry of the nodes.
    """

    def __init__(self, dim, order=DEFAULT_ORDER):
        t, w = np.polynomial.hermite.hermgauss(order)
        # substitute y = sqrt(2) t so that sum w_i f(y_i)/sqrt(pi) = E[f(Y)]
        y1 = np.sqrt(2.0) * t
        w1 = w / np.sqrt(np.pi)
        grids = np.meshgrid(*([y1] * dim), indexing="ij")
        self.nodes = np.stack([g.ravel() for g in grids], axis=-1)  # (Q, dim)
        wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
        self.weights = np.prod(np.stack([g.ravel() for g in wgrids]), axis=0)
        self.dim = dim
        self.order = order

    def integrate(self, vals):
        """Integrate values sampled at the nodes; vals has shape (..., Q[, m])."""
        vals = np.asarray(vals)
        if vals.ndim >= 2 and vals.shape[-1] != self.weights.shape[0]:
            return np.einsum("...qm,q->...m", vals, self.weights)
        return vals @ self.weights


def _stein_weights(quad):
    """(Q, 2m+3) weights taking node values u(y_k) to the jet of E u(x + sY) at (0, 1).

    Columns: value; d/dx_i (i < m) and d/ds; d^2/dx_i^2 and d^2/ds^2.  From
    d_i E u(x + sY) = E[u(x + sY) Y_i] / s and the heat equation
    d_s E u(sY) = s Delta E u(sY): the Hermite weights Y_i, Y_i^2 - 1,
    |Y|^2 - m and (|Y|^2 - m)^2 - 3|Y|^2 + m.  Every column but the first
    integrates constants to zero.
    """
    y = quad.nodes
    m = quad.dim
    r2 = np.sum(y**2, axis=-1)
    lap = r2 - m
    cols = [np.ones_like(r2), *y.T, lap, *(y.T**2 - 1.0), lap**2 - 3.0 * r2 + m]
    return np.stack(cols, axis=-1) * quad.weights[:, None]


def _chunked(n_pts):
    for start in range(0, n_pts, CHUNK):
        yield slice(start, min(start + CHUNK, n_pts))


class GoodExtension:
    """Good extension of a boundary map, anchored at a boundary point.

    Callable on coordinate arrays (..., n) -> (..., n).  When the anchor
    is a finite point a, evaluation routes through the canonical isometry
    M with M(a) = infinity: M^{-1} o G_infinity(M f M^{-1}) o M.
    """

    def __init__(self, f, anchor=INFINITY, order=DEFAULT_ORDER):
        self.f = f
        self.anchor = anchor
        self.order = order
        self.n = f.dim + 1
        self.quad = QuadratureRule(f.dim, order)
        self._stein = _stein_weights(self.quad)
        if is_infinity(anchor):
            if not f.fixes_infinity:
                raise ValueError("anchor is infinity but f does not fix infinity")
            self.mob = None
            self.f_inf = f
        else:
            a = np.asarray(anchor, dtype=float)
            if np.max(np.abs(f(a) - a)) > 1e-8 * max(1.0, float(np.max(np.abs(a)))):
                raise ValueError("f does not fix the requested anchor")
            self.mob = anchoring_isometry(anchor, self.n)
            # M f M^{-1} fixes M(anchor) = infinity by construction
            self.f_inf = bd.conjugate_boundary(f, self.mob, self.mob, fixed_point=INFINITY)
        self.name = f"G[{f.name}]@{anchor!r}"

    # -- plain evaluation ---------------------------------------------------

    def _nodes_direct(self, x, s):
        """f and e(f) at the scaled quadrature nodes x + s y_k, shapes (..., Q[, m])."""
        args = x[..., None, :] + s[..., None, None] * self.quad.nodes
        return self.f_inf(args), bd.boundary_energy_density(self.f_inf, args)

    def _eval_inf(self, pts):
        """G_infinity(f_inf) on (..., n) arrays."""
        pts = np.asarray(pts, dtype=float)
        s = pts[..., -1]
        fv, e = self._nodes_direct(pts[..., :-1], s)
        horiz = self.quad.integrate(fv)
        vert = s * np.sqrt(self.quad.integrate(e) / (self.n - 1))
        return np.concatenate([horiz, vert[..., None]], axis=-1)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.mob is None:
            return self._eval_chunked(pts)
        inner = self.mob.apply(pts)
        out = self._eval_chunked(inner)
        return self.mob.inverse().apply(out)

    def _eval_chunked(self, pts):
        flat = pts.reshape(-1, pts.shape[-1])
        out = np.empty_like(flat)
        for sl in _chunked(flat.shape[0]):
            out[sl] = self._eval_inf(flat[sl])
        return out.reshape(pts.shape)

    # -- moment jet ----------------------------------------------------------

    def jet(self, pts):
        """Jet tuple (val, jac, lap, s_dom) of the extension in per-point unit frames.

        Each base point p is carried to (0, ..., 0, 1) and its image G(p)
        to (0, ..., 0, 1) by similarities on both sides (after the
        anchoring isometry for finite anchors), so val is e_n, s_dom is 1,
        jac (..., n, n) is the Jacobian there and lap (..., n, n) holds the
        diagonal second derivatives, lap[..., g, i] = d^2 F^g / dx_i^2.
        Energy, distortion and tension are isometry invariant, so they can
        be read off this frame (see `tension`).
        """
        pts = np.asarray(pts, dtype=float)
        n = self.n
        flat = np.atleast_2d(pts.reshape(-1, n))
        if self.mob is not None:
            flat = self.mob.apply(flat)
        jac = np.empty((flat.shape[0], n, n))
        lap = np.empty_like(jac)
        for sl in _chunked(flat.shape[0]):
            jac[sl], lap[sl] = self._jet_unit_frame(flat[sl])
        shape = pts.shape[:-1] + (n, n)
        val = np.zeros(pts.shape)
        val[..., -1] = 1.0
        return val, jac.reshape(shape), lap.reshape(shape), np.ones(pts.shape[:-1])

    def _nodes_deep(self, x0, s0):
        """f - f(x0) and e(f) at the scaled nodes from the fitted 2-jet of f.

        Below DEEP_HEIGHT the quadrature window has radius ~9 s, far under
        the float64 resolution of f's outputs; evaluating the 2-jet model
        of f in scaled coordinates removes that rounding wall (the model
        error is a smooth O(s^2 |D^3 f|) perturbation).  A and H are f's
        exact jet at x0, and the model Jacobian A + s H[., y] gives the
        energy.
        """
        y = self.quad.nodes
        A = bd.boundary_jacobian(self.f_inf, x0)              # (B, m, m)
        H = self.f_inf.hessian(x0)                            # (B, m, m, m)
        Jmod = A[:, None] + s0[:, None, None, None] * np.einsum("bijk,qk->bqij", H, y)
        # f(x0 + s y) - f(x0) = s (A + s H[., y] / 2) y
        step = np.einsum("bqij,qj->bqi", 0.5 * (A[:, None] + Jmod), y)
        return s0[:, None, None] * step, np.sum(Jmod**2, axis=(-2, -1))

    def _jet_unit_frame(self, pts):
        """Moment jet of G_infinity(f_inf) at pts, each conjugated to (0, 1).

        With Y ~ N(0, I_m) and u(y) = (f(x0 + s0 y) - y0) / S0, the
        conjugated horizontal part is E u(x + sY), whose derivatives at
        (0, 1) are Gaussian moments of u (Stein identities, see
        `_stein_weights`); the vertical part s sqrt(E e(x + sY) / E e(Y))
        follows from the same moments of e by the chain rule.
        """
        m = self.n - 1
        x0 = pts[:, :-1]
        s0 = pts[:, -1]
        deep = s0 < DEEP_HEIGHT
        for sp in self.f_inf.singular_points:
            d_sing = np.linalg.norm(x0 - np.asarray(sp, dtype=float), axis=-1)
            deep &= d_sing > np.maximum(30.0 * s0, DEEP_GUARD)
        fv = np.empty(x0.shape[:1] + self.quad.nodes.shape)
        e = np.empty(fv.shape[:-1])
        for idx, nodes in ((~deep, self._nodes_direct), (deep, self._nodes_deep)):
            if np.any(idx):
                fv[idx], e[idx] = nodes(x0[idx], s0[idx])

        W = self._stein
        mom_e = e @ W                                      # (B, 2m + 3)
        S0 = s0 * np.sqrt(mom_e[:, 0] / m)
        # the derivative columns of W sum to zero, so recentring by y0 is
        # implicit and u's moments are f's divided by S0
        mom_f = np.einsum("bqg,qk->bkg", fv, W[:, 1:]) / S0[:, None, None]
        jac = np.empty((len(pts), m + 1, m + 1))
        lap = np.empty_like(jac)
        jac[:, :m] = np.swapaxes(mom_f[:, : m + 1], -1, -2)
        lap[:, :m] = np.swapaxes(mom_f[:, m + 1 :], -1, -2)
        # vertical part s sqrt(r), r = E e(x + sY) / E e(Y)
        r = mom_e[:, 1:] / mom_e[:, :1]
        d1 = 0.5 * r[:, : m + 1]                           # first derivatives of sqrt(r)
        jac[:, m] = d1
        jac[:, m, m] += 1.0
        lap[:, m] = 0.5 * r[:, m + 1 :] - d1**2
        lap[:, m, m] += 2.0 * d1[:, m]
        return jac, lap

    # -- tension -------------------------------------------------------------

    def tension_norm(self, pts):
        """|tau| at pts, stable arbitrarily close to the boundary."""
        return self.tension_vector(pts)[1]

    def tension_vector(self, pts):
        """(tau, |tau|) from the moment jet, |tau| in the target metric.

        The vector components live in the per-point unit frames of `jet`;
        the norms are frame-invariant, which is all downstream consumers use.
        """
        return tn.tension_from_jet(*self.jet(pts))


def anchoring_isometry(a, n=3):
    """Canonical isometry sending the boundary point a to infinity.

    Determined by carrying (a, antipode(a), reference) to (infinity, 0, e1),
    where the reference point is the stereographic image of a sphere point
    orthogonal to the lift of a.
    """
    if is_infinity(a):
        return Mobius.identity(n)
    a = np.asarray(a, dtype=float)
    xi = _lift_to_sphere(a)
    # unit vector orthogonal to xi, picked stably among the coordinate axes
    k = int(np.argmin(np.abs(xi)))
    ek = np.zeros(n)
    ek[k] = 1.0
    v = ek - (ek @ xi) * xi
    v = v / np.linalg.norm(v)
    third = _project_to_boundary(v)
    return general_isometry(
        [a, boundary_antipode(a, n), third],
        [INFINITY, np.zeros(n - 1), _e1(n - 1)],
        n,
    )


def _e1(m):
    e = np.zeros(m)
    e[0] = 1.0
    return e


def _lift_to_sphere(x):
    """Inverse stereographic projection R^{n-1} -> S^{n-1} (north pole = infinity)."""
    nn = float(np.sum(x**2))
    return np.concatenate([2.0 * x, [nn - 1.0]]) / (nn + 1.0)


def _project_to_boundary(xi):
    """Stereographic projection; the north pole goes to INFINITY."""
    if xi[-1] > 1.0 - 1e-14:
        return INFINITY
    return xi[:-1] / (1.0 - xi[-1])


def check_partial_conformal_naturality(f, I, J, a, b, pts, order=DEFAULT_ORDER):
    """Max deviation of I o G_b(f) o J^{-1} from G_a(I o f o J^{-1}) over pts.

    Requires I(b) = J(b) = a for the anchors involved; returns the max
    hyperbolic distance between the two sides.
    """
    for iso in (I, J):
        img = iso.boundary(b)
        if is_infinity(img) != is_infinity(a):
            raise ValueError("isometry does not map anchor b to anchor a")
        if not is_infinity(a) and np.max(np.abs(np.asarray(img) - np.asarray(a))) > 1e-9:
            raise ValueError("isometry does not map anchor b to anchor a")

    ext_b = GoodExtension(f, b, order)
    f_conj = bd.conjugate_boundary(f, I, J, fixed_point=a)
    ext_a = GoodExtension(f_conj, a, order)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    lhs = I.apply(ext_b(J.inverse().apply(pts)))
    rhs = ext_a(pts)
    return float(np.max(dist(lhs, rhs)))


def quasi_isometry_constants(F, pairs, a_grid=None):
    """Smallest empirical (L, A) on sampled pairs.

    Scans additive constants on a grid and, for each, takes the least
    multiplicative constant satisfying both quasi-isometry inequalities on
    every pair; returns the (L, A) with minimal L, breaking ties toward
    small A.  This is a lower bound on the true constants.
    """
    if a_grid is None:
        a_grid = np.linspace(0.0, 2.0, 41)
    p, q = pairs
    d_dom = dist(p, q)
    d_img = dist(F(p), F(q))
    keep = d_dom > 1e-9
    d_dom, d_img = d_dom[keep], d_img[keep]
    best = None
    for A in a_grid:
        with np.errstate(divide="ignore"):
            L_upper = np.max((d_dom - A) / d_img) if np.all(d_img > 0) else np.inf
            L_lower = np.max(d_img / (d_dom + A))
        L = max(1.0, L_upper, L_lower)
        if best is None or L < best[0] - 1e-12:
            best = (float(L), float(A))
    return best


def tension_sup_estimate(F, sampler, n_samples, seed=0):
    """Max |tau(F)| over sampled points; nondecreasing in n_samples.

    sampler(rng, k) must return k points (k, n) and be prefix-stable for
    a fixed seed so that larger sample counts extend smaller ones.
    """
    rng = np.random.default_rng(seed)
    pts = sampler(rng, n_samples)
    return float(np.max(tn.tension_norm(F, pts)))
