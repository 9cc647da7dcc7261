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
    "general_isometry",
    "PolarFrame",
    "HorocyclicCoord",
    "horocyclic_to_euclidean",
    "euclidean_to_horocyclic",
    "boundary_antipode",
]

ORTHO_TOL = 1e-12


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


def geodesic_step(p, v, t):
    """Point at hyperbolic distance t*|v| along the geodesic from p with velocity v.

    Closed form of the semicircle geodesic in the plane spanned by the
    horizontal part of v and the vertical axis.  With u = v/|v|,
    a^2 = |u_h|^2, b = u_n, E = e^{-l} and l = t|v|/s0, put q = 1 + |b| and
    D = a^2 + q^2 E^2 (b > 0) or D = q^2 + a^2 E^2 (b <= 0); then the point
    is (x0 + s0 q (1 - E^2)/D u_h, s0 2qE/D).  Nothing divides by the
    horizontal speed, so nearly vertical velocities lose no digits.
    Broadcasts over leading axes.
    """
    pc = _coords(p)
    v = np.asarray(v, dtype=float)
    pc, v = np.broadcast_arrays(pc, v)
    single = pc.ndim == 1
    if single:  # 0-d results would be numpy scalars, which do not update in place
        pc, v = pc[None], v[None]
    n = pc.shape[-1]
    s0 = pc[..., -1]
    vn = v[..., -1]

    a2 = v[..., 0] * v[..., 0]  # |v_h|^2, divided by |v|^2 below
    for k in range(1, n - 1):
        a2 += v[..., k] * v[..., k]
    w = vn * vn
    w += a2
    np.sqrt(w, out=w)
    ell = w * np.asarray(t, dtype=float)
    ell /= s0  # signed arc length
    rest = w == 0.0
    w[rest] = 1.0
    b = vn / w
    b[rest] = 1.0  # at rest: any unit u with a = 0
    a2 /= w * w
    q = np.abs(b)
    q += 1.0
    E = np.exp(-ell)
    E2 = E * E
    qq = q * q
    D = qq * E2
    D += a2  # b > 0
    np.copyto(D, qq + a2 * E2, where=b <= 0.0)
    q *= s0
    q /= D  # s0 q / D

    out = np.empty(pc.shape)
    move = np.expm1(-2.0 * ell)
    move *= q
    move /= w  # -(horizontal move) per unit of v_h
    for k in range(n - 1):
        out[..., k] = pc[..., k] - move * v[..., k]
    out[..., -1] = q * (2.0 * E)
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

    def as_mobius(self):
        return self


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


def _rotation_to_e1(u):
    """Rotation in SO(m) carrying unit vector u to e1."""
    m = u.shape[0]
    if m == 1:
        # SO(1) = {1}; only u = e1 can be rotated to e1
        if u[0] < 0:
            raise ValueError("no SO(1) rotation carries -e1 to e1")
        return np.eye(1)
    e1 = np.zeros(m)
    e1[0] = 1.0
    c = float(u @ e1)
    if c > 1.0 - 1e-14:
        return np.eye(m)
    if c < -1.0 + 1e-14:
        # rotate by pi in the (e1, e2) plane
        R = np.eye(m)
        R[0, 0] = R[1, 1] = -1.0
        return R
    w = u - c * e1
    w = w / np.linalg.norm(w)
    # rotation by -theta in the (e1, w) plane, identity on the complement
    s = np.sqrt(1.0 - c * c)
    R = np.eye(m)
    R += (c - 1.0) * (np.outer(e1, e1) + np.outer(w, w))
    R += s * (np.outer(e1, w) - np.outer(w, e1))
    return R


def _carry_to_standard(triple, n):
    """Mobius isometry carrying a boundary triple to (INFINITY, 0, e1)."""
    p1, p2, p3 = triple
    M = Mobius.identity(n)
    if not is_infinity(p1):
        shift = Mobius([("sim", 1.0, np.eye(n - 1), -np.asarray(p1, dtype=float))])
        M = Mobius.inversion(n).compose(shift)
    q2 = M.boundary(p2)
    if is_infinity(q2):
        raise ValueError("degenerate triple: repeated boundary points")
    M = Mobius([("sim", 1.0, np.eye(n - 1), -q2)]).compose(M)
    q3 = M.boundary(p3)
    if is_infinity(q3):
        raise ValueError("degenerate triple: repeated boundary points")
    r = np.linalg.norm(q3)
    if r < 1e-14:
        raise ValueError("degenerate triple: repeated boundary points")
    if n - 1 >= 2:
        O = _rotation_to_e1(q3 / r)
    else:
        O = np.eye(1)
        if q3[0] < 0:
            # boundary of H^2: fall back to scale only; sign cannot be fixed in SO(0+1)
            raise ValueError("triple not orientable onto (inf, 0, e1) in dimension 2")
    M = Mobius([("sim", 1.0 / r, O, np.zeros(n - 1))]).compose(M)
    return M


def general_isometry(src_triple, dst_triple, n=3):
    """Mobius isometry of H^n carrying one boundary triple to another.

    Triples are ordered; entries are points of R^{n-1} or INFINITY.  The
    result is the canonical choice obtained by routing both triples
    through (INFINITY, 0, e1).
    """
    A = _carry_to_standard(src_triple, n)
    B = _carry_to_standard(dst_triple, n)
    return B.inverse().compose(A)


def boundary_antipode(a, n=3):
    """Antipodal boundary point under the standard sphere identification.

    Stereographically, the antipode of x is -x/|x|^2; the antipode of 0 is
    INFINITY and vice versa.
    """
    if is_infinity(a):
        return np.zeros(n - 1)
    a = np.asarray(a, dtype=float)
    nn = np.sum(a**2)
    if nn == 0.0:
        return INFINITY
    return -a / nn


class PolarFrame:
    """Geodesic polar coordinates centered at a point of H^n.

    The frame stores an orthonormal (for the hyperbolic metric) tangent
    basis at the center; directions zeta live on the unit sphere of the
    basis coordinates.
    """

    def __init__(self, center, basis=None):
        self.center = center if isinstance(center, Point) else Point.from_coords(center)
        n = self.center.n
        if basis is None:
            basis = np.eye(n) * self.center.s
        self.basis = np.asarray(basis, dtype=float)
        gram = self.basis @ self.basis.T / self.center.s**2
        if np.max(np.abs(gram - np.eye(n))) > 1e-10:
            raise ValueError("basis is not orthonormal for the metric at center")

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


@dataclass(frozen=True)
class HorocyclicCoord:
    """Horocyclic coordinates (b, h): boundary footpoint plus signed height."""

    base: np.ndarray
    signed_height: float

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "signed_height", float(self.signed_height))


def horocyclic_to_euclidean(c):
    """(b, h) -> (b, e^{-h}); the height-0 horosphere passes through (0, 1)."""
    return Point(c.base, np.exp(-c.signed_height))


def euclidean_to_horocyclic(p):
    p = p if isinstance(p, Point) else Point.from_coords(p)
    return HorocyclicCoord(p.x, -np.log(p.s))
