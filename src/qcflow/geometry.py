"""Upper half-space model of hyperbolic n-space.

Points carry Euclidean coordinates (x, s) with x in R^{n-1} and height
s > 0; the metric is (|dx|^2 + ds^2)/s^2.  Tangent vectors are stored in
Euclidean coordinates and the metric factor 1/s^2 is applied explicitly
where norms are taken.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "INFINITY",
    "Point",
    "dist",
    "geodesic_step",
    "log_map",
    "IsometryFixingInfinity",
    "Mobius",
    "chain_rule",
    "PolarFrame",
]

ORTHO_TOL = 1e-12
STEP_SCRATCH_ROWS = 8  # temporaries of geodesic_step


class _BoundaryInfinity:
    """Singleton marker for the boundary point at infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _BoundaryInfinity()


def is_infinity(b):
    return b is INFINITY


@dataclass(frozen=True)
class Point:
    """A point of H^n: horizontal part x in R^{n-1}, height s > 0."""

    x: np.ndarray
    s: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "s", float(self.s))
        if not self.s > 0.0:
            raise ValueError(f"point height must be positive, got {self.s}")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("point has non-finite horizontal coordinates")

    @property
    def n(self):
        return self.x.shape[-1] + 1

    @property
    def coords(self):
        return np.concatenate([self.x, [self.s]])

    @classmethod
    def from_coords(cls, c):
        c = np.asarray(c, dtype=float)
        return cls(c[:-1], c[-1])


def _coords(p):
    """Accept a Point or a raw (..., n) coordinate array."""
    if isinstance(p, Point):
        return p.coords
    return np.asarray(p, dtype=float)


def dist(p, q):
    """Hyperbolic distance; broadcasts over leading axes of raw arrays.

    Uses d = 2 asinh(|p-q| / (2 sqrt(s_p s_q))), which is exact and stable
    for nearby points (the acosh form loses half the digits there).
    """
    pc, qc = _coords(p), _coords(q)
    dd = np.sum((pc - qc) ** 2, axis=-1)
    sp = pc[..., -1]
    sq = qc[..., -1]
    return 2.0 * np.arcsinh(np.sqrt(dd / (4.0 * sp * sq)))


def geodesic_step(p, v, t, out=None, scratch=None):
    """Point at hyperbolic distance t*|v| along the geodesic from p with velocity v.

    Closed form of the semicircle geodesic in the plane spanned by the
    horizontal part of v and the vertical axis.  With u = v/|v|,
    a^2 = |u_h|^2, b = u_n, E = e^{-l} and l = t|v|/s0, put q = 1 + |b| and
    D = a^2 + q^2 E^2 (b > 0) or D = q^2 + a^2 E^2 (b <= 0); then the point
    is (x0 + s0 q (1 - E^2)/D u_h, s0 2qE/D).  Nothing divides by the
    horizontal speed, so nearly vertical velocities lose no digits, and a
    zero velocity returns p bit for bit.  Broadcasts over leading axes.
    The result is written into out when given; scratch, a
    (STEP_SCRATCH_ROWS, ...) float array, holds the temporaries.
    """
    pc = _coords(p)
    v = np.asarray(v, dtype=float)
    pc, v = np.broadcast_arrays(pc, v)
    single = pc.ndim == 1
    if single:  # 0-d results would be numpy scalars, which do not update in place
        pc, v = pc[None], v[None]
    if out is None:
        out = np.empty(pc.shape)
    if scratch is None:
        scratch = np.empty((STEP_SCRATCH_ROWS,) + pc.shape[:-1])
    a2, tmp, w, ell, q, E, qq, D = scratch[:STEP_SCRATCH_ROWS]
    n = pc.shape[-1]
    s0 = pc[..., -1]
    vn = v[..., -1]

    np.multiply(v[..., 0], v[..., 0], out=a2)  # |v_h|^2, divided by |v|^2 below
    for k in range(1, n - 1):
        a2 += np.multiply(v[..., k], v[..., k], out=tmp)
    np.multiply(vn, vn, out=w)
    w += a2
    np.sqrt(w, out=w)
    np.multiply(w, np.asarray(t, dtype=float), out=ell)
    ell /= s0  # signed arc length
    rest = w == 0.0
    np.copyto(w, 1.0, where=rest)
    np.divide(vn, w, out=q)  # b
    np.copyto(q, 1.0, where=rest)  # at rest: any unit u with a = 0
    down = q <= 0.0
    a2 /= np.multiply(w, w, out=tmp)
    np.abs(q, out=q)
    q += 1.0
    np.exp(np.negative(ell, out=E), out=E)
    E2 = np.multiply(E, E, out=tmp)
    np.multiply(q, q, out=qq)
    np.multiply(qq, E2, out=D)
    D += a2  # b > 0
    np.copyto(D, np.add(qq, np.multiply(a2, E2, out=tmp), out=tmp), where=down)
    q *= s0
    q /= D  # s0 q / D

    move = np.expm1(np.multiply(-2.0, ell, out=ell), out=ell)
    move *= q
    move /= w  # -(horizontal move) per unit of v_h
    for k in range(n - 1):
        np.subtract(pc[..., k], np.multiply(move, v[..., k], out=tmp), out=out[..., k])
    np.multiply(q, np.multiply(2.0, E, out=E), out=out[..., -1])
    if single:
        out = out[0]
        if isinstance(p, Point):
            return Point.from_coords(out)
    return out


def log_map(p, q):
    """Tangent vector v at p with exp_p(v) = q and |v| = dist(p, q).

    Inverse of geodesic_step at unit time.  Broadcasts over leading axes.
    """
    pc, qc = np.broadcast_arrays(_coords(p), _coords(q))
    x0, s0 = pc[..., :-1], pc[..., -1]
    # conjugate to p = (0,1)
    y = (qc[..., :-1] - x0) / s0[..., None]
    sig = qc[..., -1] / s0
    w = np.linalg.norm(y, axis=-1)
    rho = dist(pc, qc)
    vertical = w < 1e-14 * np.maximum(1.0, sig)

    with np.errstate(invalid="ignore", divide="ignore"):
        c = (w**2 + sig**2 - 1.0) / (2.0 * np.where(vertical, 1.0, w))
        rr = np.sqrt(c**2 + 1.0)
        # angles of the start point (0,1) and of q on the semicircle
        phi0 = np.arctan2(1.0, -c)
        phiq = np.arctan2(sig, w - c)
        flip = np.where(phiq < phi0, 1.0, -1.0)
        norm_dir = np.sqrt(1.0 + c**2)
        e_hat = y / np.where(vertical, 1.0, w)[..., None]
        u_h = flip / norm_dir
        u_v = flip * c / norm_dir

    sign_vert = np.where(sig >= 1.0, 1.0, -1.0)
    u = np.empty_like(pc)
    u[..., :-1] = np.where(vertical[..., None], 0.0, e_hat * u_h[..., None])
    u[..., -1] = np.where(vertical, sign_vert, u_v)
    # scale: |v|_hyp = rho, at p the metric divides by s0
    return u * (rho * s0)[..., None]


def _check_rotation(O, n_minus_1):
    O = np.asarray(O, dtype=float)
    if O.shape != (n_minus_1, n_minus_1):
        raise ValueError(f"rotation must be {n_minus_1}x{n_minus_1}")
    if np.max(np.abs(O.T @ O - np.eye(n_minus_1))) > ORTHO_TOL:
        raise ValueError("rotation is not orthogonal to 1e-12")
    if abs(np.linalg.det(O) - 1.0) > 1e-10:
        raise ValueError("rotation must have determinant +1")
    return O


class Mobius:
    """General isometry of H^n as a chain of similarities and inversions.

    The inversion primitive is p -> p/|p|^2 (Euclidean inversion in the
    unit sphere), which restricts to x -> x/|x|^2 on the boundary and
    swaps 0 and infinity.
    """

    def __init__(self, chain):
        self.chain = list(chain)

    @staticmethod
    def identity(n):
        return Mobius([("sim", 1.0, np.eye(n - 1), np.zeros(n - 1))])

    @staticmethod
    def inversion(n):
        return Mobius([("inv", n)])

    def apply(self, p):
        pc = _coords(p)
        out = np.array(pc, dtype=float, copy=True)
        for prim in self.chain:
            if prim[0] == "sim":
                _, a, O, b = prim
                out[..., :-1] = a * (out[..., :-1] @ O.T) + b
                out[..., -1] = a * out[..., -1]
            else:
                out = out / np.sum(out**2, axis=-1, keepdims=True)
        if isinstance(p, Point) and out.ndim == 1:
            return Point.from_coords(out)
        return out

    def boundary(self, x):
        """Boundary action on R^{n-1} u {INFINITY} (scalar points)."""
        for prim in self.chain:
            if prim[0] == "sim":
                _, a, O, b = prim
                if is_infinity(x):
                    continue
                x = a * (np.asarray(x, dtype=float) @ O.T) + b
            else:
                if is_infinity(x):
                    x = np.zeros(prim[1] - 1)
                else:
                    x = np.asarray(x, dtype=float)
                    nn = np.sum(x**2)
                    x = INFINITY if nn == 0.0 else x / nn
        return x

    def boundary_array(self, x):
        """Vectorised boundary action; poles map to inf entries."""
        x = np.asarray(x, dtype=float)
        for prim in self.chain:
            if prim[0] == "sim":
                _, a, O, b = prim
                x = a * (x @ O.T) + b
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    x = x / np.sum(x**2, axis=-1, keepdims=True)
        return x

    def boundary_jet(self, x, jet):
        """Push a jet through the boundary action, one primitive at a time.

        x holds the values h(.) of some map h and jet = (Dh,) or (Dh, D2h)
        its derivatives there, D[..., i, j] = d_j h_i and
        D2[..., i, j, k] = d_j d_k h_i.  Returns (M(x), jet of M o h) by
        `chain_rule`.  A similarity a O x + b contributes a O; the
        inversion x/|x|^2 contributes (I - 2 x x^T/|x|^2)/|x|^2, conformal
        with factor |x|^{-2} (Ahlfors, Mobius transformations in several
        dimensions, 1981), and second derivatives
        (-2 (d_ij x_k + d_ik x_j + d_jk x_i) + 8 x_i x_j x_k/|x|^2)/|x|^4.
        At a pole the jet is non-finite, like the boundary action.
        """
        x = np.asarray(x, dtype=float)
        m = x.shape[-1]
        eye = np.eye(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            for prim in self.chain:
                if prim[0] == "sim":
                    _, a, O, b = prim
                    x = a * (x @ O.T) + b
                    jet = ((a * O) @ jet[0],) + tuple(
                        a * np.einsum("ia,...ajk->...ijk", O, d2) for d2 in jet[1:])
                else:
                    nn = np.sum(x**2, axis=-1, keepdims=True)[..., None]
                    xi, xj = x[..., :, None], x[..., None, :]
                    outer = ((eye - 2.0 * xi * xj / nn) / nn,)
                    if len(jet) == 2:
                        xk = x[..., None, None, :]
                        sym = (eye[:, :, None] * xk + eye[:, None, :] * xj[..., None]
                               + eye * xi[..., None])
                        cube = xi[..., None] * xj[..., None] * xk
                        outer += ((8.0 * cube / nn[..., None] - 2.0 * sym)
                                  / (nn * nn)[..., None],)
                    jet = chain_rule(outer, jet)
                    x = x / nn[..., 0]
        return x, jet

    def compose(self, other):
        """self o other (apply other first)."""
        return Mobius(other.chain + self.chain)

    def inverse(self):
        inv_chain = []
        for prim in reversed(self.chain):
            if prim[0] == "sim":
                _, a, O, b = prim
                inv_chain.append(("sim", 1.0 / a, O.T, -(b @ O) / a))
            else:
                inv_chain.append(prim)
        return Mobius(inv_chain)


class IsometryFixingInfinity(Mobius):
    """Isometry (x, s) -> (a O(x) + b, a s) of the upper half-space.

    A Mobius chain of one similarity; composing or inverting it gives a
    plain Mobius.
    """

    def __init__(self, scale, rotation, translation):
        translation = np.asarray(translation, dtype=float)
        rotation = _check_rotation(rotation, translation.shape[-1])
        scale = float(scale)
        if not scale > 0.0:
            raise ValueError("scale must be positive")
        super().__init__([("sim", scale, rotation, translation)])

    @classmethod
    def identity(cls, n):
        return cls(1.0, np.eye(n - 1), np.zeros(n - 1))


def chain_rule(outer, inner):
    """Jet of g o h from the jet of g at h(x) and the jet of h at x.

    Jets are (D,) or (D, D2) with D[..., i, j] = d_j y_i and
    D2[..., i, j, k] = d_j d_k y_i:  D(g o h) = Dg Dh and
    D^2(g o h) = D^2 g[Dh ., Dh .] + Dg D^2 h.
    """
    D = outer[0] @ inner[0]
    if len(inner) == 1:
        return (D,)
    D2 = np.einsum("...iab,...aj,...bk->...ijk", outer[1], inner[0], inner[0])
    D2 += np.einsum("...ia,...ajk->...ijk", outer[0], inner[1])
    return D, D2


class PolarFrame:
    """Geodesic polar coordinates centered at a point of H^n.

    The frame stores the coordinate tangent basis at the center, scaled to
    be orthonormal for the hyperbolic metric; directions zeta live on the
    unit sphere of the basis coordinates.
    """

    def __init__(self, center):
        self.center = center if isinstance(center, Point) else Point.from_coords(center)
        self.basis = np.eye(self.center.n) * self.center.s

    @property
    def n(self):
        return self.center.n

    def from_polar(self, rho, zeta):
        """Map (rho, zeta) to H^n; zeta has shape (..., n), rho broadcasts."""
        zeta = np.asarray(zeta, dtype=float)
        v = zeta @ self.basis
        return geodesic_step(self.center.coords, v, np.asarray(rho, dtype=float))

    def to_polar(self, p):
        """Inverse of from_polar; returns (rho, zeta)."""
        pc = _coords(p)
        rho = dist(self.center.coords, pc)
        v = log_map(self.center.coords, pc)
        zeta = (v @ self.basis.T) / self.center.s**2
        with np.errstate(invalid="ignore", divide="ignore"):
            zeta = zeta / np.where(rho == 0.0, 1.0, rho)[..., None]
        return rho, zeta
