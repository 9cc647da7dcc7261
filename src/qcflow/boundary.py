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

import math
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
    "into_block",
    "make_boundary_map",
    "CATALOG",
]


FIXED_POINT_TOL = 1e-10


class MissingJetError(ValueError):
    """A BoundaryMap was built without its exact jacobian and hessian."""


@dataclass
class BoundaryMap:
    """Evaluable boundary map with declared fixed point, distortion bound and 2-jet.

    evaluator(x, out=None) acts on arrays of shape (..., m), m = n-1, and
    is vectorised, and so are jacobian(x, out=None), returning (..., m, m)
    with J[..., i, j] = d f_i / dx_j, and hessian(x), returning (..., m, m, m)
    with H[..., i, j, k] = d^2 f_i / dx_j dx_k.  out, when given, is a
    C-contiguous (rows, *x.shape[:-1]) block, m rows for the values and
    m*m + 1 for the Jacobian: the only scratch, and where a computed result
    goes (row i*m + j takes J[..., i, j]; `into_block` writes one computed
    whole).  singular_points lists finite boundary points where the map
    fails to be smooth (local models must keep away from them).
    """

    evaluator: Callable[..., np.ndarray]
    fixed_point: object  # array or INFINITY
    declared_K: float = 1.0
    name: str = ""
    dim: int = 2  # boundary dimension n-1
    singular_points: tuple = ()
    jacobian: Callable[..., np.ndarray] = None
    hessian: Callable[[np.ndarray], np.ndarray] = None

    def __post_init__(self):
        if self.jacobian is None or self.hessian is None:
            raise MissingJetError(
                f"boundary map {self.name!r} needs exact jacobian and hessian callables"
            )

    def __call__(self, x, out=None):
        return self.evaluator(np.asarray(x, dtype=float), out)

    @property
    def fixes_infinity(self):
        return is_infinity(self.fixed_point)

    def check_fixed_point(self):
        """f fixes its declared fixed point to FIXED_POINT_TOL relative."""
        if self.fixes_infinity:
            return True
        fp = np.asarray(self.fixed_point, dtype=float)
        return np.max(np.abs(self(fp) - fp)) <= FIXED_POINT_TOL * max(1.0, np.max(np.abs(fp)))


def _rows(out, rows, x):
    """out, or a fresh (rows, *x.shape[:-1]) block, and its rows as arrays (0-d ones too)."""
    block = np.empty((rows,) + x.shape[:-1]) if out is None else out
    return block, [block[r, ...] for r in range(rows)]


def _view(block, tail):
    """The (..., *tail) view of a block's leading rows, the tail's entries in C order."""
    k = len(tail)
    rows = block[:math.prod(tail)].reshape(tail + block.shape[1:])
    return rows.transpose(*range(k, rows.ndim), *range(k))


def into_block(out, result):
    """result, copied into the leading rows of the block out as `BoundaryMap` asks."""
    if out is None:
        return result
    dest = _view(out, result.shape[out.ndim - 1:])
    dest[...] = result
    return dest


def boundary_jacobian(f, x, out=None):
    """Exact Jacobian of f at x, shape (..., m, m), written into out when given."""
    return f.jacobian(np.asarray(x, dtype=float), out)


def boundary_energy_density(f, x, out=None):
    """Squared Frobenius norm of the Jacobian of f at x.

    Normalised so the identity has energy n-1; a non-finite Jacobian (at a
    pole) gives a non-finite energy for the caller to flag.  out is the
    Jacobian's block; the squared entries go into its rows and their sum,
    returned, into the last.  A Jacobian that is one matrix broadcast over
    x (the affine maps) has its squares summed once, in the same order, and
    its squared rows are left unwritten.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    out, rows = _rows(out, m * m + 1, x)
    J = boundary_jacobian(f, x, out)
    if J.size and not any(J.strides[:-2]):
        sq = np.square(J[(0,) * (J.ndim - 2)]).ravel()
        rows[-1][...] = sum(sq[1:], sq[0])
        return rows[-1]
    e = np.square(J[..., 0, 0], out=rows[-1])
    for r in range(1, m * m):
        e += np.square(J[..., r // m, r % m], out=rows[r])
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

    def ev(x, out=None):
        return into_block(out, I.boundary_array(f(Jinv.boundary_array(x))))

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
    images = [J.boundary(np.asarray(s, dtype=float)) for s in f.singular_points]
    images.append(J.boundary(INFINITY))  # J^{-1} blows up there
    sing = [np.asarray(img, dtype=float) for img in images if not is_infinity(img)]
    return BoundaryMap(
        ev, fp, declared_K=f.declared_K, name=f"conj({f.name})", dim=f.dim,
        singular_points=tuple(sing),
        jacobian=lambda x, out=None: into_block(out, jet(x, False)[0]),
        hessian=lambda x: jet(x, True)[1],
    )


# ---------------------------------------------------------------------------
# catalog

def _affine(A, ev, K, name):
    """x -> A x, evaluated by ev: J = A (a read-only view, out unused), H = 0."""
    m = A.shape[0]
    return BoundaryMap(
        ev, INFINITY, K, name, m,
        jacobian=lambda x, out=None: np.broadcast_to(A, x.shape + (m,)),
        hessian=lambda x: np.zeros(x.shape + (m, m)))


def _identity(dim):
    return _affine(np.eye(dim), lambda x, out=None: into_block(_rows(out, dim, x)[0], x),
                   1.0, "identity")


def _linear(matrix):
    A = np.asarray(matrix, dtype=float)
    sv = np.linalg.svd(A, compute_uv=False)

    def ev(x, out=None):  # in C order, as x @ A.T allocates it
        return np.matmul(x, A.T, out=None if out is None else
                         np.reshape(out[:A.shape[0]], x.shape, copy=False))

    return _affine(A, ev, float(sv[0] / sv[-1]), "linear")


def _radial_stretch(K, dim):
    """f(x) = |x|^{K-1} x; fixes 0 and infinity, distortion K."""
    expo = K - 1.0

    def sq_norm(x, r2, tmp):
        """|x|^2 into r2, summed one component at a time; tmp takes each square."""
        np.square(x[..., 0], out=r2)
        for k in range(1, dim):
            r2 += np.square(x[..., k], out=tmp)
        return r2

    def coeffs(x, r2, fac, c2):
        """Rows r^2, r^p and p r^(p-2), the last 0 at the origin; c2 is scratch first."""
        np.sqrt(sq_norm(x, r2, c2), out=fac)
        with np.errstate(divide="ignore"):  # r^p at the origin for K < 1
            fac **= expo
        np.multiply(expo, fac, out=c2)
        pos = r2 > 0.0
        np.divide(c2, r2, out=c2, where=pos)
        c2[~pos] = 0.0
        return r2, fac, c2

    def ev(x, out=None):
        block, o = _rows(out, dim, x)
        fac = np.sqrt(sq_norm(x, o[0], o[-1]), out=o[0])
        pos = fac > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            fac **= expo
        fac[~pos] = 0.0
        for k in range(dim - 1, -1, -1):  # fac itself last
            np.multiply(fac, x[..., k], out=o[k])
        return _view(block, (dim,))

    def jac(x, out=None):
        block, J = _rows(out, dim * dim + 1, x)
        _, fac, c2 = coeffs(x, J[-2], J[-1], J[0])
        for i in (*range(1, dim), 0):  # row 0 last: its diagonal holds c2
            diag = np.multiply(c2, x[..., i], out=J[i * (dim + 1)])
            for j in set(range(dim)) - {i}:
                np.multiply(diag, x[..., j], out=J[i * dim + j])
            diag *= x[..., i]
            diag += fac
        return _view(block, (dim, dim))

    def hess(x):
        r2, _, c2 = coeffs(x, *_rows(None, 3, x)[1])
        c3 = np.divide((expo - 2.0) * c2, r2, out=np.zeros_like(r2), where=r2 > 0.0)
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

    def ev(x, out=None):
        block, o = _rows(out, dim, x)
        np.multiply(c, np.tanh(x[..., 1], out=o[1]), out=o[1])
        np.add(x[..., 0], o[1], out=o[0])
        block[1:dim] = np.moveaxis(x[..., 1:], -1, 0)
        return _view(block, (dim,))

    def sech2(t, out, den):
        """sech^2 t = 4 e^{-2|t|} / (1 + e^{-2|t|})^2, free of overflow; den is scratch."""
        e = np.exp(np.multiply(-2.0, np.abs(t, out=out), out=out), out=out)
        np.multiply(np.add(1.0, e, out=den), den, out=den)
        return np.divide(np.multiply(4.0, e, out=e), den, out=e)

    def jac(x, out=None):
        block = _rows(out, dim * dim + 1, x)[0]
        J = _view(block, (dim, dim))
        J[...] = np.eye(dim)
        J01 = sech2(x[..., 1], block[1, ...], block[-1, ...])
        J01 *= c
        return J

    def hess(x):
        H = np.zeros(x.shape + (dim, dim))
        H[..., 0, 1, 1] = -2.0 * c * sech2(x[..., 1], *_rows(None, 2, x)[1]) * np.tanh(x[..., 1])
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
