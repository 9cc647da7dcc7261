from dataclasses import dataclass

import numpy as np
import pytest

from qcflow.boundary import make_boundary_map
from qcflow.extension import GoodExtension
from qcflow.geometry import geodesic_step
from qcflow.tension import FD_REL_STEP, energy_from_jet, tension_from_jet


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


def jet(F, p):
    """Full finite-difference 2-jet of F at a single point p, the tests' reference.

    O(h^2) accurate; the step h = FD_REL_STEP * s is proportional to the height,
    so the stencil stays in the half-space.
    """
    pc = np.asarray(p, dtype=float)
    n = pc.shape[-1]
    h = FD_REL_STEP * float(pc[-1])
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
# reference flow step: FlowGrid's stencil on freshly allocated (..., n) arrays,
# the tests' bit-for-bit oracle for the grid's buffered flat-range kernels

def reference_jets(grid, u):
    """Value, Jacobian, diagonal second derivatives and heights at grid's interior nodes.

    u: node values (..., n) on grid's nodes.  Like the grid, the stencil
    multiplies by the reciprocals 0.5/h and 1/h^2 instead of dividing.
    """
    core = grid.interior()
    n = grid.n
    val = u[core]
    jac = np.empty((n, n) + val.shape[:-1])
    lap = np.empty((n, n) + val.shape[:-1])
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
    s_dom = grid.nodes[core][..., -1]
    jac, lap = (np.moveaxis(a, (0, 1), (-2, -1)) for a in (jac, lap))
    return val, jac, lap, s_dom


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
