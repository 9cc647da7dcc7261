"""The good extension of a quasiconformal boundary map.

For f fixing infinity the extension sends (x, s) to the Gaussian average
of f at scale s, with vertical part s sqrt(avg energy / (n-1)):

    ( int f(x + s y) phi(y) dy ,
      s/sqrt(n-1) * sqrt( int e(f)(x + s y) phi(y) dy ) )

with phi the standard Gaussian on R^{n-1}.  An extension anchored at a
finite boundary point a is conjugated by the isometry that translates a
to 0 and then inverts, carrying a to infinity.  Partial conformal
naturality makes the result independent of that choice: every other
isometry carrying a to infinity is this one followed by a similarity,
whose scale and translation leave the tensor-product quadrature exactly
invariant, so another choice moves the computed extension only by
rotating the quadrature grid (its quadrature error).

The extension itself is never finite-differenced: since
G(., s) = exp((s^2/2) Delta) f, its Jacobian and diagonal second
derivatives are Gaussian moments of the same node values the average
uses (Stein identities, as in the Gaussian-smoothing gradient of
Nesterov and Spokoiny, Found. Comput. Math. 17, 2017).  `GoodExtension.jet`
reads them, in a frame conjugated to unit scale, as the jet tuple that
energy, distortion and tension take: above DEEP_HEIGHT from one set of node
evaluations per point, below it in closed form from the exact 2-jet of f
(its Gaussian moments are polynomials in the Jacobian, Hessian and s).
"""

import numpy as np

from . import boundary as bd
from . import tension as tn
from .geometry import INFINITY, Mobius, dist, is_infinity

__all__ = [
    "QuadratureRule",
    "GoodExtension",
    "anchoring_isometry",
    "check_partial_conformal_naturality",
    "quasi_isometry_constants",
    "tension_sup_estimate",
]

DEFAULT_ORDER = 21
# Points per evaluation and jet chunk.  At 64 (m = 2, Q = 441) a chunk's sample
# block is 0.45 MB and its Jacobians 0.9 MB (the extension workload peaks at
# 47 MiB, 56 at 256).  It suits FlowGrid's step, which allocates nothing
# grid-sized: with 256, init_flow's 1.8 MB sample blocks and 3.6 MB Jacobians
# raise glibc's dynamic mmap and trim thresholds, and only that kept an
# allocating step's freed temporaries mapped; at 64 such a step faults their
# pages in afresh every time (flow workload, 2 cores: 2.77 s against 2.25 s).
CHUNK = 64
DEEP_HEIGHT = 1e-4   # below this, the jet takes closed-form moments of the local 2-jet
DEEP_GUARD = 2e-3    # keep the local model away from catalog singular points
QI_ADDITIVE_GRID = np.linspace(0.0, 2.0, 41)  # A scanned by quasi_isometry_constants


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
        self.nodes = np.stack([g.ravel() for g in grids]).T  # (Q, dim), component-major
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
    is a finite point a, evaluation routes through M = `anchoring_isometry(a)`,
    translation by -a then inversion: M^{-1} o G_infinity(M f M^{-1}) o M.
    Up to the rotation of the quadrature grid the result does not depend
    on which isometry carries a to infinity.
    """

    def __init__(self, f, anchor=INFINITY, order=DEFAULT_ORDER):
        self.f = f
        self.n = f.dim + 1
        self.quad = QuadratureRule(f.dim, order)
        self._stein = _stein_weights(self.quad)
        self._last_jet = None  # (key, jet tuple) of the last batch `jet` computed
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

    # -- plain evaluation ---------------------------------------------------

    def _nodes_direct(self, x, s):
        """f and e(f) at the scaled quadrature nodes x + s y_k, shapes (B, Q[, m]).

        x (B, m) and s (B,).  The nodes are one component-major (m, B, Q)
        block passed as its (B, Q, m) view, so each per-component operation
        of the evaluators and Jacobians reads contiguous memory.
        """
        args = s[:, None] * self.quad.nodes.T[:, None, :]
        args += x.T[:, :, None]
        args = args.transpose(1, 2, 0)
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

        The last batch is remembered: the same points (same shape and
        bytes) get the same read-only arrays back, so the energy,
        distortion and tension of one batch share one jet.
        """
        pts = np.asarray(pts, dtype=float)
        key = (pts.shape, pts.tobytes())
        if self._last_jet is not None and self._last_jet[0] == key:
            return self._last_jet[1]
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
        out = (val, jac.reshape(shape), lap.reshape(shape), np.ones(pts.shape[:-1]))
        for a in out:
            a.flags.writeable = False
        self._last_jet = (key, out)
        return out

    def _moments_direct(self, x0, s0):
        """Stein moments of e(f), (B, 2m+3), and of f / s0, (B, m, 2m+2), from node sums."""
        fv, e = self._nodes_direct(x0, s0)
        W = self._stein
        return e @ W, np.swapaxes(fv, 1, 2) @ W[:, 1:] / s0[:, None, None]

    def _moments_deep(self, x0, s0):
        """The same moments in closed form from f's exact 2-jet A, H at x0.

        Below DEEP_HEIGHT the quadrature window has radius ~9 s, far under
        the float64 resolution of f's outputs, so f(x0 + s y) - f(x0) is
        replaced by its quadratic model u(y) = s A y + (s^2/2) H[y, y] (the
        model error is a smooth O(s^2 |D^3 f|) perturbation), with energy
        e(y) = |A + s H[., ., y]|^2.  The Gaussian moments of u and e
        against the columns of `_stein_weights` are polynomials in A, H and
        s, on which the order-21 rule is exact.  With c_k = sum A_ij H_ijk
        and M_k = sum H_ijk^2 they are, column by column:
        e: |A|^2 + s^2 tr M, 2 s c, 2 s^2 tr M, 2 s^2 M, 2 s^2 tr M;
        u / s: A, s tr H_g, s H_gii, s tr H_g.
        """
        A = bd.boundary_jacobian(self.f_inf, x0)                  # (B, m, m)
        H = self.f_inf.hessian(x0)                                # (B, m, m, m)
        s = s0[:, None]
        s2 = s * s
        c = np.sum(A[..., None] * H, axis=(1, 2))                 # (B, m)
        M = np.sum(H * H, axis=(1, 2))                            # (B, m)
        trM = np.sum(M, axis=-1, keepdims=True)
        e0 = np.sum(A * A, axis=(1, 2))[:, None] + s2 * trM
        mom_e = np.concatenate([e0, 2.0 * s * c, 2.0 * s2 * trM, 2.0 * s2 * M, 2.0 * s2 * trM],
                               axis=-1)
        Hdiag = s[..., None] * np.diagonal(H, axis1=-2, axis2=-1)  # (B, m, m)
        trH = np.sum(Hdiag, axis=-1, keepdims=True)
        return mom_e, np.concatenate([A, trH, Hdiag, trH], axis=-1)

    def _jet_unit_frame(self, pts):
        """Moment jet of G_infinity(f_inf) at pts, each conjugated to (0, 1).

        With Y ~ N(0, I_m) and u(y) = (f(x0 + s0 y) - y0) / S0, the
        conjugated horizontal part is E u(x + sY), whose derivatives at
        (0, 1) are Gaussian moments of u (Stein identities, see
        `_stein_weights`); the vertical part s sqrt(E e(x + sY) / E e(Y))
        follows from the same moments of e by the chain rule.  The moments
        are node sums above DEEP_HEIGHT and closed-form polynomials in f's
        2-jet below it (`_moments_deep`).
        """
        m = self.n - 1
        x0 = pts[:, :-1]
        s0 = pts[:, -1]
        deep = s0 < DEEP_HEIGHT
        for sp in self.f_inf.singular_points:
            d_sing = np.linalg.norm(x0 - np.asarray(sp, dtype=float), axis=-1)
            deep &= d_sing > np.maximum(30.0 * s0, DEEP_GUARD)
        mom_e = np.empty((len(pts), 2 * m + 3))
        mom_f = np.empty((len(pts), m, 2 * m + 2))
        for idx, moments in ((~deep, self._moments_direct), (deep, self._moments_deep)):
            if np.any(idx):
                mom_e[idx], mom_f[idx] = moments(x0[idx], s0[idx])

        # the derivative columns of W sum to zero, so recentring by y0 is
        # implicit and u's moments are f's divided by S0 = s0 sqrt(E e(Y) / m);
        # mom_f already holds f's divided by s0
        mom_f /= np.sqrt(mom_e[:, 0] / m)[:, None, None]
        jac = np.empty((len(pts), m + 1, m + 1))
        lap = np.empty_like(jac)
        jac[:, :m] = mom_f[:, :, : m + 1]
        lap[:, :m] = mom_f[:, :, m + 1 :]
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
    """Isometry sending the boundary point a to infinity: translation by -a, then inversion.

    Every other isometry sending a to infinity is this one followed by a
    similarity (Ahlfors, Mobius transformations in several dimensions,
    1981).  The identity when a is already INFINITY.
    """
    if is_infinity(a):
        return Mobius.identity(n)
    shift = Mobius([("sim", 1.0, np.eye(n - 1), -np.asarray(a, dtype=float))])
    return Mobius.inversion(n).compose(shift)


def check_partial_conformal_naturality(f, I, J, a, b, pts):
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

    ext_b = GoodExtension(f, b)
    f_conj = bd.conjugate_boundary(f, I, J, fixed_point=a)
    ext_a = GoodExtension(f_conj, a)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    lhs = I.apply(ext_b(J.inverse().apply(pts)))
    rhs = ext_a(pts)
    return float(np.max(dist(lhs, rhs)))


def quasi_isometry_constants(F, pairs):
    """Smallest empirical (L, A) on sampled pairs.

    Scans the additive constants A in QI_ADDITIVE_GRID and, for each, takes
    the least multiplicative constant satisfying both quasi-isometry
    inequalities on every pair; returns the (L, A) with minimal L, breaking
    ties toward small A.  This is a lower bound on the true constants.
    """
    p, q = pairs
    d_dom = dist(p, q)
    d_img = dist(F(p), F(q))
    keep = d_dom > 1e-9
    d_dom, d_img = d_dom[keep], d_img[keep]
    best = None
    for A in QI_ADDITIVE_GRID:
        with np.errstate(divide="ignore"):
            L_upper = np.max((d_dom - A) / d_img) if np.all(d_img > 0) else np.inf
            L_lower = np.max(d_img / (d_dom + A))
        L = max(1.0, L_upper, L_lower)
        if best is None or L < best[0] - 1e-12:
            best = (float(L), float(A))
    return best


def tension_sup_estimate(F, sampler, n_samples):
    """Max |tau(F)| over sampled points; nondecreasing in n_samples.

    sampler(rng, k) must return k points (k, n) and be prefix-stable for
    the fixed seed 0 so that larger sample counts extend smaller ones.
    """
    rng = np.random.default_rng(0)
    pts = sampler(rng, n_samples)
    return float(np.max(tn.tension_norm(F, pts)))
