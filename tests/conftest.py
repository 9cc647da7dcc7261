from dataclasses import dataclass

import numpy as np
import pytest

from qcflow.boundary import make_boundary_map
from qcflow.extension import GoodExtension
from qcflow.geometry import geodesic_step
from qcflow.tension import energy_from_jet, tension_from_jet

# Hypothesis draws a share of its integers and floats from a pool of the
# literals of every local module imported so far, src/ included, so the
# examples of a derandomized property would move with any constant edited in
# the library and with the import order.  The pool is pinned empty: examples
# depend on the strategies, the test and the hypothesis version alone.  The
# numpy-only test files run without hypothesis installed.
try:
    from hypothesis.internal.conjecture import providers as hypothesis_providers
    from hypothesis.internal.constants_ast import Constants
except ImportError:
    pass
else:
    assert hasattr(hypothesis_providers, "_get_local_constants"), (
        "hypothesis no longer builds its literal pool in "
        "providers._get_local_constants; pin the pool where it does now"
    )
    PINNED_LITERAL_POOL = Constants()
    hypothesis_providers._get_local_constants = lambda: PINNED_LITERAL_POOL

FD_REL_STEP = 1e-4  # h = 1e-4 * s, stencils stay inside the half-space
H_MIN = 1e-300
# An isometry's exact jet (`Mobius.jet`) over 2200 random chains with
# inversions and rotations (the strategies of test_geometry.py): worst |tau|
# 3.6e-15, |energy - 3/2| 1.6e-15, |distortion - 1| 1.1e-15; about 3x that.
ISOMETRY_TAU_TOL = 1e-14
ISOMETRY_JET_TOL = 5e-15


@pytest.fixture(scope="session")
def f_linear():
    return make_boundary_map("linear", matrix=np.diag([2.0, 1.0]))


@pytest.fixture(scope="session")
def f_stretch():
    return make_boundary_map("radial_stretch", K=1.5)


@pytest.fixture(scope="session")
def f_shear():
    return make_boundary_map("shear", c=0.5)


@pytest.fixture(scope="session")
def ext_linear(f_linear):
    return GoodExtension(f_linear)


@pytest.fixture(scope="session")
def ext_stretch(f_stretch):
    return GoodExtension(f_stretch)


def box_points(rng, k, box=2.0, s_range=(0.25, 4.0)):
    """k points in a coordinate box, heights log-uniform."""
    x = rng.uniform(-box, box, size=(k, 2))
    s = np.exp(rng.uniform(np.log(s_range[0]), np.log(s_range[1]), size=k))
    return np.column_stack([x, s])


@dataclass
class JetData:
    """Value, Jacobian and Hessian of a map at one point (Euclidean coords)."""

    value: np.ndarray     # (n,)
    jacobian: np.ndarray  # (n, n), jacobian[g, i] = dF^g/dx^i
    hessian: np.ndarray   # (n, n, n), hessian[g, i, j] = d2F^g/dx^i dx^j

    def symmetry_defect(self):
        return float(np.max(np.abs(self.hessian - np.swapaxes(self.hessian, 1, 2))))


def jet(F, p, h_rel=FD_REL_STEP):
    """Full finite-difference 2-jet of F at a single point p, the tests' reference.

    O(h^2) accurate; the step h = h_rel * s is proportional to the height,
    so the stencil stays in the half-space.
    """
    pc = np.asarray(p, dtype=float)
    n = pc.shape[-1]
    h = h_rel * float(pc[-1])
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


# ---------------------------------------------------------------------------
# finite-difference jets: the oracle for maps with exact jets, and the jet of
# plain test maps, which the library's energy, distortion and tension read

def _steps(pts, h_rel):
    s = pts[..., -1]
    h = h_rel * s
    if np.any(h < H_MIN):
        raise ValueError("finite-difference step underflowed below h_min")
    return h


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
    lap = np.zeros_like(val)
    for i in range(n):
        step = np.zeros(pts.shape)
        step[..., i] = h
        fp, fm = F(pts + step), F(pts - step)
        jac[..., i] = (fp - fm) / (2.0 * h[..., None])
        lap += (fp - 2.0 * val + fm) / (h**2)[..., None]
    return val, jac, lap, pts[..., -1]


def tension_field(F, pts, h_rel=FD_REL_STEP):
    """(tau, |tau|) of the callable F at pts, from its central-difference jet."""
    return tension_from_jet(*fd_jet(F, pts, h_rel))


class FDMap:
    """A plain callable on coordinate arrays, given its central-difference jet."""

    def __init__(self, F, h_rel=FD_REL_STEP):
        self.F, self.h_rel = F, h_rel

    def __call__(self, pts):
        return self.F(pts)

    def jet(self, pts):
        return fd_jet(self.F, pts, self.h_rel)


def apply_reference(M, p):
    """The Mobius chain M acting on coordinate rows p without lifting its
    similarities: each moves the horizontal part by a O x + b and scales the
    height by a, and the inversion divides by |p|^2.  `Mobius.__call__`
    must give these bits."""
    out = np.array(p, dtype=float, copy=True)
    for prim in M.chain:
        if prim[0] == "sim":
            _, a, O, b = prim
            out[..., :-1] = a * (out[..., :-1] @ O.T) + b
            out[..., -1] = a * out[..., -1]
        else:
            out = out / np.sum(out**2, axis=-1, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# reference flow step: FlowGrid's stencil on freshly allocated (..., n) arrays,
# the tests' bit-for-bit oracle for the grid's buffered flat-range kernels

def identity_values(box, res):
    """Node coordinates (..., n) of a FlowGrid over box; res is an int (n = 3) or a tuple."""
    X, s_lo, s_hi = box
    res = (res,) * 3 if isinstance(res, int) else res
    axes = [np.linspace(-X, X, r) for r in res[:-1]] + [np.linspace(s_lo, s_hi, res[-1])]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def reference_jets(grid, u):
    """Value, Jacobian, coordinate Laplacian and heights at grid's interior nodes.

    u: node values (..., n) on grid's nodes.  Like the grid, the stencil
    multiplies by the reciprocals 0.5/h and 1/h^2 instead of dividing, and
    the Laplacian adds the axes' second differences in axis order.
    """
    core = grid.interior()
    n = grid.n
    val = u[core]
    jac = np.empty((n, n) + val.shape[:-1])
    lap = np.empty((n, n) + val.shape[:-1])  # per axis, summed below
    for g in range(n):
        ug = np.ascontiguousarray(u[..., g])
        minus_2val = -2.0 * ug[core]
        for ax in range(n):
            h = grid.spacings[ax]
            sl_p = list(core)
            sl_m = list(core)
            sl_p[ax] = slice(2, None)
            sl_m[ax] = slice(0, -2)
            up = ug[tuple(sl_p)]
            um = ug[tuple(sl_m)]
            np.subtract(up, um, out=jac[g, ax])
            jac[g, ax] *= 0.5 / h
            np.add(up, minus_2val, out=lap[g, ax])
            lap[g, ax] += um
            lap[g, ax] *= 1.0 / h**2
    s_dom = identity_values(grid.box, grid.resolution)[core][..., -1]
    lap_sum = lap[:, 0]
    for ax in range(1, n):
        lap_sum += lap[:, ax]
    return val, np.moveaxis(jac, (0, 1), (-2, -1)), np.moveaxis(lap_sum, 0, -1), s_dom


def reference_tension(grid, u):
    """(tau, |tau|, energy density) at grid's interior nodes for node values u."""
    val, jac, lap, s_dom = reference_jets(grid, u)
    tau, norm = tension_from_jet(val, jac, lap, s_dom)
    return tau, norm, energy_from_jet(val, jac, s_dom)


def reference_flow_step(grid, u, dt):
    """Node values one forward-Euler step after u (a new array; u is kept)."""
    tau = reference_tension(grid, u)[0]
    core = grid.interior()
    moved = u.copy()
    moved[core] = geodesic_step(u[core], tau, dt)
    return moved
