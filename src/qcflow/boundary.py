"""Quasiconformal boundary maps of R^{n-1} u {infinity} and their measurements.

A BoundaryMap wraps a vectorised evaluator together with its declared
fixed point, a claimed distortion bound and its exact 2-jet: `jacobian`
and `hessian` callables.  Energy density and distortion are read off the
exact Jacobian; nothing here finite-differences the evaluator.

Catalog jets, with r = |x| and p = K - 1 for the radial stretch |x|^p x:

    identity, linear     J = I or A, H = 0
    radial_stretch       J_ij = r^p d_ij + p r^(p-2) x_i x_j
                         H_ijk = p r^(p-2) (d_ij x_k + d_ik x_j + d_jk x_i)
                                 + p (p-2) r^(p-4) x_i x_j x_k
    shear                J = I + c sech^2(x_2) e_1 e_2^T,
                         H_122 = -2 c sech^2(x_2) tanh(x_2)

At the origin the radial-stretch terms with negative powers of r are
taken as 0, so J is 0 there when K > 1.  Conjugates I o f o J^{-1} carry
the jet through the Mobius chains by the chain rule
(`geometry.Mobius.boundary_jet`).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import INFINITY, chain_rule, is_infinity

__all__ = [
    "BoundaryMap",
    "MissingJetError",
    "boundary_energy_density",
    "boundary_jacobian",
    "conjugate_boundary",
    "make_boundary_map",
    "CATALOG",
]


FIXED_POINT_TOL = 1e-10


class MissingJetError(ValueError):
    """A BoundaryMap was built without its exact jacobian and hessian."""


@dataclass
class BoundaryMap:
    """Evaluable boundary map with declared fixed point, distortion bound and 2-jet.

    evaluator acts on arrays of shape (..., n-1) and is vectorised, and so
    are jacobian, returning (..., m, m) with J[..., i, j] = d f_i / dx_j, and
    hessian, returning (..., m, m, m) with H[..., i, j, k] = d^2 f_i / dx_j dx_k.
    singular_points lists finite boundary points where the map fails to be
    smooth (local models must keep away from them).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    fixed_point: object  # array or INFINITY
    declared_K: float = 1.0
    name: str = ""
    dim: int = 2  # boundary dimension n-1
    singular_points: tuple = ()
    jacobian: Callable[[np.ndarray], np.ndarray] = None
    hessian: Callable[[np.ndarray], np.ndarray] = None

    def __post_init__(self):
        if self.jacobian is None or self.hessian is None:
            raise MissingJetError(
                f"boundary map {self.name!r} needs exact jacobian and hessian callables"
            )

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))

    @property
    def fixes_infinity(self):
        return is_infinity(self.fixed_point)

    def check_fixed_point(self):
        """f fixes its declared fixed point to FIXED_POINT_TOL relative."""
        if self.fixes_infinity:
            return True
        fp = np.asarray(self.fixed_point, dtype=float)
        return np.max(np.abs(self(fp) - fp)) <= FIXED_POINT_TOL * max(1.0, np.max(np.abs(fp)))


def boundary_jacobian(f, x):
    """Exact Jacobian of f at x, shape (..., m, m)."""
    return f.jacobian(np.asarray(x, dtype=float))


def boundary_energy_density(f, x):
    """Squared Frobenius norm of the Jacobian of f at x.

    Normalised so the identity has energy n-1; a non-finite Jacobian (at a
    pole) gives a non-finite energy for the caller to flag.
    """
    J = boundary_jacobian(f, x)
    e = np.zeros(J.shape[:-2])
    for i in range(J.shape[-2]):
        for j in range(J.shape[-1]):
            e += J[..., i, j] ** 2
    return e


def singular_value_ratio(J):
    """Largest over smallest singular value of J (..., m, m).

    inf where J is singular, nan where J has a non-finite entry (the SVD
    would not converge on it).
    """
    J = np.asarray(J)
    finite = np.all(np.isfinite(J), axis=(-2, -1))
    if not np.all(finite):
        J = np.where(finite[..., None, None], J, 0.0)
    sv = np.linalg.svd(J, compute_uv=False)
    smin = sv[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(smin > 0.0, sv[..., 0] / np.where(smin > 0, smin, 1.0), np.inf)
    return np.where(finite, ratio, np.nan)


def conjugate_boundary(f, I, J, fixed_point=None):
    """Boundary map I o f o J^{-1} for isometries I, J (boundary traces).

    Distortion is unchanged since isometries act conformally on the
    boundary.  The conjugate fixes I(b) for every fixed point b of f with
    I(b) = J(b); pass fixed_point to select which one to record when f
    fixes several (e.g. the radial stretch fixes both 0 and infinity).
    Its jet is f's jet pushed through both Mobius chains by the chain rule.
    """
    Jinv = J.inverse()

    def ev(x):
        return I.boundary_array(f(Jinv.boundary_array(x)))

    def jet(x, second):
        x = np.asarray(x, dtype=float)
        m = x.shape[-1]
        start = (np.broadcast_to(np.eye(m), x.shape + (m,)),)
        if second:
            start += (np.zeros(x.shape + (m, m)),)
        y, inner = Jinv.boundary_jet(x, start)
        with np.errstate(invalid="ignore"):  # non-finite at the poles of J^{-1}
            f_jet = (f.jacobian(y), f.hessian(y)) if second else (f.jacobian(y),)
            return I.boundary_jet(f(y), chain_rule(f_jet, inner))[1]

    fp = I.boundary(f.fixed_point) if fixed_point is None else fixed_point
    sing = []
    for s in f.singular_points:
        img = J.boundary(np.asarray(s, dtype=float))
        if not is_infinity(img):
            sing.append(np.asarray(img, dtype=float))
    pole = J.boundary(INFINITY)  # J^{-1} blows up there
    if not is_infinity(pole):
        sing.append(np.asarray(pole, dtype=float))
    return BoundaryMap(
        ev, fp, declared_K=f.declared_K, name=f"conj({f.name})", dim=f.dim,
        singular_points=tuple(sing),
        jacobian=lambda x: jet(x, False)[0],
        hessian=lambda x: jet(x, True)[1],
    )


# ---------------------------------------------------------------------------
# catalog

def _affine_jet(A):
    """Jacobian and Hessian callables of x -> A x: A (a read-only view) and 0."""
    m = A.shape[0]
    return (lambda x: np.broadcast_to(A, x.shape + (m,)),
            lambda x: np.zeros(x.shape + (m, m)))


def _identity(dim):
    jac, hess = _affine_jet(np.eye(dim))
    return BoundaryMap(lambda x: np.array(x, copy=True), INFINITY, 1.0, "identity", dim,
                       jacobian=jac, hessian=hess)


def _linear(matrix):
    A = np.asarray(matrix, dtype=float)
    sv = np.linalg.svd(A, compute_uv=False)
    K = sv[0] / sv[-1]
    jac, hess = _affine_jet(A)
    return BoundaryMap(
        lambda x: x @ A.T, INFINITY, float(K), "linear", A.shape[0],
        jacobian=jac, hessian=hess,
    )


def _component_major(lead, dim, alloc):
    """A (lead..., dim, dim) view of alloc((dim, dim) + lead): each J[..., i, j] is contiguous."""
    return np.moveaxis(alloc((dim, dim) + lead), (0, 1), (-2, -1))


def _sq_norm(x):
    """|x|^2 summed one component at a time."""
    r2 = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        r2 += x[..., k] * x[..., k]
    return r2


def _over_r2(a, r2):
    """a / r^2, taken as 0 where r = 0."""
    return np.divide(a, r2, out=np.zeros_like(r2), where=r2 > 0.0)


def _radial_stretch(K, dim):
    """f(x) = |x|^{K-1} x; fixes 0 and infinity, distortion K."""
    expo = K - 1.0

    def ev(x):
        r = np.sqrt(_sq_norm(x))[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = np.where(r > 0.0, r**expo, 0.0)
        return fac * x

    def coeffs(x):
        """r^2, r^p and p r^(p-2), the last 0 at the origin."""
        r2 = _sq_norm(x)
        with np.errstate(divide="ignore"):  # r^p at the origin for K < 1
            fac = np.sqrt(r2) ** expo
        return r2, fac, _over_r2(expo * fac, r2)

    def jac(x):
        _, fac, c2 = coeffs(x)
        J = _component_major(x.shape[:-1], dim, np.empty)
        for i in range(dim):
            c2x = c2 * x[..., i]
            for j in range(dim):
                J[..., i, j] = c2x * x[..., j]
            J[..., i, i] += fac
        return J

    def hess(x):
        r2, _, c2 = coeffs(x)
        c3 = _over_r2((expo - 2.0) * c2, r2)
        eye = np.eye(dim)
        xi, xj, xk = x[..., :, None, None], x[..., None, :, None], x[..., None, None, :]
        sym = eye[:, :, None] * xk + eye[:, None, :] * xj + eye * xi
        return c2[..., None, None, None] * sym + c3[..., None, None, None] * (xi * xj * xk)

    return BoundaryMap(
        ev, INFINITY, float(K), f"radial_stretch[{K}]", dim,
        singular_points=(np.zeros(dim),), jacobian=jac, hessian=hess,
    )


def _shear(c, dim):
    """(x1 + c tanh(x2), x2, ...): smooth bounded shear fixing infinity."""

    def ev(x):
        out = np.array(x, copy=True)
        out[..., 0] = out[..., 0] + c * np.tanh(x[..., 1])
        return out

    def sech2(t):
        """sech^2 t = 4 e^{-2|t|} / (1 + e^{-2|t|})^2, free of overflow."""
        e = np.exp(-2.0 * np.abs(t))
        return 4.0 * e / (1.0 + e) ** 2

    def jac(x):
        J = _component_major(x.shape[:-1], dim, np.zeros)
        for i in range(dim):
            J[..., i, i] = 1.0
        J[..., 0, 1] = c * sech2(x[..., 1])
        return J

    def hess(x):
        H = np.zeros(x.shape + (dim, dim))
        H[..., 0, 1, 1] = -2.0 * c * sech2(x[..., 1]) * np.tanh(x[..., 1])
        return H

    q = abs(c)  # sup |g'| = 1
    K = ((q + np.sqrt(4.0 + q * q)) / 2.0) ** 2
    return BoundaryMap(ev, INFINITY, float(K), f"shear[{c}]", dim, jacobian=jac, hessian=hess)


def make_boundary_map(name, dim=2, **params):
    """Catalog constructor addressable by name, e.g. from CLI config."""
    if name == "identity":
        return _identity(dim)
    if name == "linear":
        return _linear(params["matrix"])
    if name == "radial_stretch":
        return _radial_stretch(float(params.get("K", 1.5)), dim)
    if name == "shear":
        return _shear(float(params.get("c", 0.5)), dim)
    raise KeyError(f"unknown boundary map {name!r}")


CATALOG = ("identity", "linear", "radial_stretch", "shear")
