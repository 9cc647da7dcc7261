"""Energy density, tension field and distortion of maps H^n -> H^n.

A map is any callable taking coordinate arrays (..., n) to (..., n).  All
operators work in upper half-space coordinates and read one jet
tuple (val, jac, lap, s_dom): image points val (..., n), Jacobian
jac[..., g, i] = dF^g/dx^i, diagonal second derivatives
lap[..., g, i] = d^2 F^g/dx_i^2 and base heights s_dom (...).  The metric
is diagonal, so the tension contraction only needs the diagonal second
derivatives.  A map with its own `jet` method (a good extension, in unit
frames) supplies the tuple itself; for any other map `fd_jet` takes it by
central differences with step proportional to the height of the base
point, so accuracy is uniform in the hyperbolic metric.
"""

import numpy as np

from .boundary import singular_value_ratio

__all__ = [
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
SCRATCH_ROWS = 7   # temporaries of tension_from_jet (energy_from_jet needs one)


def _steps(pts, h_rel):
    s = pts[..., -1]
    h = h_rel * s
    if np.any(h < H_MIN):
        raise ValueError("finite-difference step underflowed below h_min")
    return h


def tension_from_jet(value, jac, lap_diag, s_dom, out=None, scratch=None, energy=None):
    """Tension vector from value, Jacobian and diagonal second derivatives.

    tau^g = g^{ii} (d2F^g - Gamma^k_{ii} dF^g_k + Gamma~^g_{ab} dF^a_i dF^b_i)
    with the half-space Christoffel symbols
    Gamma^k_{ij} = -(d_{kj} d_{in} + d_{ki} d_{jn} - d_{ij} d_{kn})/s.

    value: (..., n) image points, jac: (..., n, n), lap_diag: (..., n, n)
    with lap_diag[..., g, i] = d^2 F^g / dx_i^2, s_dom: (...) base heights.
    Returns (tau (..., n), |tau| in the target metric at value), written
    into the pair out when given.  scratch, a (SCRATCH_ROWS, ...) float
    array, holds the temporaries; both are allocated when not given.  An
    energy array (...) receives the energy density, summed from the squared
    Jacobian entries formed here in the order of `energy_from_jet`, so the
    two agree bit for bit.
    """
    value = np.asarray(value, dtype=float)
    if value.ndim == 1:  # one point: its 0-d rows would be numpy scalars, which take no out=
        tau, norm = tension_from_jet(value[None], jac[None], lap_diag[None],
                                     np.asarray(s_dom)[None], out, scratch,
                                     None if energy is None else energy[None])
        return tau[0], norm[0]
    n = value.shape[-1]
    S = value[..., -1]
    if out is None:  # component-major, so every tau[..., g] is contiguous
        out = np.empty((n,) + S.shape).transpose(*range(1, S.ndim + 1), 0), np.empty(S.shape)
    if scratch is None:
        scratch = np.empty((SCRATCH_ROWS,) + S.shape)
    tau, norm = out
    s2, n2_s, two_s2_S, buf, horiz_sq, vert_sq, acc = scratch[:SCRATCH_ROWS]
    np.multiply(s_dom, s_dom, out=s2)
    np.multiply(n - 2, s_dom, out=n2_s)
    np.multiply(2.0, s2, out=two_s2_S)
    two_s2_S /= S
    d = [[jac[..., g, i] for i in range(n)] for g in range(n)]  # dF^g/dx^i

    # target Christoffel terms at height S = F^n need the horizontal and
    # vertical parts of |dF|^2, summed left to right over (g, i)
    _dot(d[0], d[0], buf, out=horiz_sq)
    for row in d[1:-1]:
        for r in row:
            horiz_sq += np.multiply(r, r, out=buf)
    if energy is None:
        _dot(d[-1], d[-1], buf, out=vert_sq)
    else:  # the energy's sum runs on from the horizontal part, square by square
        np.copyto(energy, horiz_sq)
        energy += np.multiply(d[-1][0], d[-1][0], out=vert_sq)
        for r in d[-1][1:]:
            vert_sq += np.multiply(r, r, out=buf)
            energy += buf

    taus = [tau[..., g] for g in range(n)]
    for g, tau_g in enumerate(taus):
        np.add(lap_diag[..., g, 0], lap_diag[..., g, 1], out=tau_g)
        for i in range(2, n):
            tau_g += lap_diag[..., g, i]
        tau_g *= s2
        tau_g -= np.multiply(n2_s, d[g][-1], out=buf)
        if g < n - 1:
            tau_g -= np.multiply(two_s2_S, _dot(d[g], d[-1], buf, out=acc), out=buf)
        else:
            horiz_sq -= vert_sq
            tau_g += np.multiply(np.divide(s2, S, out=two_s2_S), horiz_sq, out=buf)

    np.sqrt(_dot(taus, taus, buf, out=norm), out=norm)
    norm /= S
    if energy is not None:
        _scale_energy(energy, s_dom, S, buf)
    return tau, norm


def _dot(xs, ys, buf, out=None):
    """sum_i xs[i] * ys[i], accumulated left to right; buf holds each product."""
    acc = np.multiply(xs[0], ys[0], out=out)
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


def energy_from_jet(val, jac, s_dom, out=None, scratch=None):
    """e = (s/S)^2 |dF|^2 / 2, summed one Jacobian entry at a time.

    Written into out when given; scratch[0] holds the temporaries.
    """
    entries = [jac[..., g, i] for g in range(jac.shape[-2]) for i in range(jac.shape[-1])]
    buf = np.empty(jac.shape[:-2]) if scratch is None else scratch[0]
    return _scale_energy(_dot(entries, entries, buf, out=out), s_dom, val[..., -1], buf)


def _scale_energy(sq, s_dom, S, buf):
    """sq *= (s/S)^2 / 2 in place: |dF|^2 to the energy density; buf is scratch."""
    np.divide(s_dom, S, out=buf)
    sq *= np.multiply(0.5, np.multiply(buf, buf, out=buf), out=buf)
    return sq


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


def good_set_membership(ext, eps, pts):
    """Membership of pts in the good set of the good extension ext.

    Returns (energy > 1, distortion < 2K, |tau| < eps), with K the
    declared distortion of ext's boundary map, plus the conjunction, all
    as boolean arrays.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    e = energy_density(ext, pts)
    dist = map_distortion(ext, pts)
    tau = tension_norm(ext, pts)
    ok_e = e > 1.0
    ok_k = dist < 2.0 * ext.f.declared_K
    ok_t = tau < eps
    return ok_e, ok_k, ok_t, ok_e & ok_k & ok_t
