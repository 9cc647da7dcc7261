import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcflow.geometry import (
    INFINITY,
    STEP_SCRATCH_ROWS,
    Mobius,
    dist,
    geodesic_step,
    log_map,
)

from qcflow.tension import energy_density, map_distortion, tension_norm

from conftest import ISOMETRY_JET_TOL, ISOMETRY_TAU_TOL, apply_reference, box_points, jet


# ---------------------------------------------------------------------------
# independent oracles

def path_length(points):
    """Hyperbolic length of a polyline given by coordinate rows."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s_mid = 0.5 * (points[:-1, -1] + points[1:, -1])
    return float(np.sum(seg / s_mid))


def geodesic_rk4(p0, v0, t_end, n_steps=4000):
    """Integrate the geodesic ODE x'' = -Gamma(x', x') with RK4."""

    def acc(pos, vel):
        s = pos[-1]
        a = np.empty_like(pos)
        a[:-1] = 2.0 * vel[:-1] * vel[-1] / s
        a[-1] = (vel[-1] ** 2 - np.sum(vel[:-1] ** 2)) / s
        return a

    h = t_end / n_steps
    pos, vel = np.array(p0, dtype=float), np.array(v0, dtype=float)
    for _ in range(n_steps):
        k1p, k1v = vel, acc(pos, vel)
        k2p, k2v = vel + 0.5 * h * k1v, acc(pos + 0.5 * h * k1p, vel + 0.5 * h * k1v)
        k3p, k3v = vel + 0.5 * h * k2v, acc(pos + 0.5 * h * k2p, vel + 0.5 * h * k2v)
        k4p, k4v = vel + h * k3v, acc(pos + h * k3p, vel + h * k3v)
        pos = pos + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        vel = vel + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return pos


# ---------------------------------------------------------------------------
# distance

def test_distance_vertical_geodesic():
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([0.0, 0.0, math.e])
    assert dist(p, q) == pytest.approx(1.0, abs=1e-14)
    assert dist(p, p) == 0.0


def test_distance_against_path_integration():
    # geodesic between (1,0,1) and (0,0,1): semicircle centered at (1/2,0,0)
    c, r = 0.5, math.sqrt(1.25)
    phi0 = math.atan2(1.0, 1.0 - c)
    phi1 = math.atan2(1.0, -c)
    phi = np.linspace(phi0, phi1, 20001)
    pts = np.column_stack([c + r * np.cos(phi), np.zeros_like(phi), r * np.sin(phi)])
    oracle = path_length(pts)
    d = dist([1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert d == pytest.approx(oracle, abs=1e-7)
    assert d == pytest.approx(math.acosh(1.5), abs=1e-12)


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    p, q, r = (box_points(rng, 50) for _ in range(3))
    assert np.allclose(dist(p, q), dist(q, p), atol=1e-12)
    assert np.all(dist(p, q) >= 0)
    assert np.all(dist(p, r) <= dist(p, q) + dist(q, r) + 1e-10)


# ---------------------------------------------------------------------------
# geodesics

def test_geodesic_step_vertical():
    p = np.array([0.0, 0.0, 1.0])
    q = geodesic_step(p, np.array([0.0, 0.0, 1.0]), 1.0)
    assert np.allclose(q, [0.0, 0.0, math.e], atol=1e-14)


def test_geodesic_step_zero_time_is_identity():
    p = np.array([0.3, -0.2, 0.7])
    q = geodesic_step(p, np.array([1.0, 2.0, -0.5]), 0.0)
    assert np.allclose(q, p)


def test_geodesic_unit_speed():
    rng = np.random.default_rng(1)
    p = box_points(rng, 30)
    v = rng.normal(size=(30, 3))
    t = rng.uniform(0.05, 3.0, size=30)
    q = geodesic_step(p, v, t)
    want = t * np.linalg.norm(v, axis=1) / p[:, -1]
    assert np.allclose(dist(p, q), want, atol=1e-10)


def test_geodesic_step_against_rk4():
    p0 = np.array([0.0, 0.0, 1.0])
    v0 = np.array([1.0, 0.0, 0.0])
    q = geodesic_step(p0, v0, 2.0)
    oracle = geodesic_rk4(p0, v0, 2.0)
    assert np.allclose(q, oracle, atol=1e-9)
    # a generic direction as well
    v1 = np.array([0.6, -0.3, 0.5])
    q1 = geodesic_step(p0, v1, 1.7)
    oracle1 = geodesic_rk4(p0, v1, 1.7 * np.linalg.norm(v1))
    # rk4 integrates at unit speed; rescale the velocity
    oracle1 = geodesic_rk4(p0, v1 / np.linalg.norm(v1), 1.7 * np.linalg.norm(v1))
    assert np.allclose(q1, oracle1, atol=1e-8)


def test_log_map_inverts_geodesic_step():
    rng = np.random.default_rng(2)
    p = box_points(rng, 40)
    q = box_points(rng, 40)
    v = log_map(p, q)
    assert np.allclose(geodesic_step(p, v, 1.0), q, atol=1e-9)


@pytest.mark.parametrize("delta", [10.0**-k for k in range(6, 14)])
def test_geodesic_step_nearly_vertical_moves_sideways(delta):
    # v = (delta, 0, 0.7): as delta -> 0 the sideways move tends to
    # delta s0 (e^{2l} - 1) / (2|v|) with l = |v|/s0, the Jacobi field along
    # the vertical geodesic.  x0 = 0 along the move, so no rounding of
    # x0 + dx enters the ratio.
    p = np.array([0.0, -0.2, 1.5])
    q = geodesic_step(p, np.array([delta, 0.0, 0.7]), 1.0)
    limit = 1.5 * math.expm1(2.0 * 0.7 / 1.5) / 1.4
    assert q[0] / delta == pytest.approx(limit, rel=1e-4)
    assert q[1] == p[1]
    assert q[2] == pytest.approx(1.5 * math.exp(0.7 / 1.5), rel=1e-14)


# hypothesis: geodesic_step against dist, log_map and the isometries fixing
# infinity.  Speeds are drawn per unit height, so the arc length stays below 6
# and the end point above 1e-3 of the start height; nearly vertical
# directions are drawn on purpose.
coord = st.floats(-3.0, 3.0)
points = st.tuples(coord, coord, st.floats(0.05, 20.0)).map(np.array)
tilt = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e-9, 1e-9))
directions = st.tuples(tilt, tilt, st.floats(-1.0, 1.0)).filter(
    lambda c: abs(c[0]) + abs(c[1]) + abs(c[2]) > 1e-3
).map(lambda c: np.array(c) / np.linalg.norm(c))
rates = st.floats(0.01, 3.0)  # hyperbolic speed |v|/s0
GEODESIC_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


@GEODESIC_SETTINGS
@given(p=points, u=directions, rate=rates, t=st.floats(0.0, 2.0))
def test_geodesic_step_has_unit_speed_property(p, u, rate, t):
    q = geodesic_step(p, rate * p[-1] * u, t)
    assert q[-1] > 0.0
    assert dist(p, q) == pytest.approx(t * rate, rel=1e-9, abs=1e-12)


@GEODESIC_SETTINGS
@given(p=points, u=directions, rate=rates)
def test_log_map_inverts_geodesic_step_property(p, u, rate):
    v = rate * p[-1] * u
    q = geodesic_step(p, v, 1.0)
    back = log_map(p, q)
    assert np.allclose(back, v, rtol=0.0, atol=1e-8 * p[-1])
    assert np.allclose(geodesic_step(p, back, 1.0), q, rtol=1e-9, atol=1e-9 * p[-1])


@GEODESIC_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 30), t=st.floats(0.0, 2.0))
def test_geodesic_step_into_buffers_matches_the_allocating_call_property(seed, k, t):
    rng = np.random.default_rng(seed)
    p = np.column_stack([rng.uniform(-3.0, 3.0, (k, 2)), rng.uniform(0.05, 20.0, k)])
    v = rng.normal(size=(k, 3)) * p[:, -1:]
    v[rng.random(k) < 0.2, :2] = 0.0  # vertical
    v[rng.random(k) < 0.3] = 0.0  # at rest
    # a component-major out, as FlowGrid passes it; NaN shows a read before a write
    out = np.full((3, k), np.nan).T
    got = geodesic_step(p, v, t, out=out, scratch=np.full((STEP_SCRATCH_ROWS, k), np.nan))
    assert got is out
    assert got.tobytes() == geodesic_step(p, v, t).tobytes()
    rest = ~np.any(v, axis=1)
    assert got[rest].tobytes() == p[rest].tobytes()


@GEODESIC_SETTINGS
@given(p=points, u=directions, rate=rates, t=st.floats(0.0, 2.0),
       angle=st.floats(0.0, 2 * math.pi), scale=st.floats(0.2, 5.0),
       shift=st.tuples(coord, coord))
def test_geodesic_step_commutes_with_isometries_property(p, u, rate, t, angle, scale,
                                                          shift):
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    iso = Mobius.similarity(scale, rot, np.array(shift))
    v = rate * p[-1] * u
    # the differential of (x, s) -> (a O x + b, a s) is a diag(O, 1)
    dv = scale * np.concatenate([rot @ v[:2], v[2:]])
    left = iso(geodesic_step(p, v, t))
    right = geodesic_step(iso(p), dv, t)
    assert dist(left, right) <= 1e-9


# ---------------------------------------------------------------------------
# isometries

def test_isometry_identity_and_scale():
    p = np.array([0.0, 0.0, 1.0])
    ident = Mobius.identity(3)
    assert np.allclose(ident(p), p)
    double = Mobius.similarity(2.0, np.eye(2), np.zeros(2))
    assert np.allclose(double(p), [0.0, 0.0, 2.0])


def test_isometry_validation():
    with pytest.raises(ValueError):
        Mobius.similarity(1.0, np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        Mobius.similarity(1.0, np.diag([1.0, -1.0]), np.zeros(2))  # det -1


def test_isometry_preserves_distance():
    rng = np.random.default_rng(3)
    th = rng.uniform(0, 2 * math.pi)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    iso = Mobius.similarity(1.7, rot, rng.normal(size=2))
    p, q = box_points(rng, 60), box_points(rng, 60)
    assert np.allclose(dist(iso(p), iso(q)), dist(p, q), atol=1e-10)


def test_isometry_group_closure_and_composition_action():
    rng = np.random.default_rng(4)
    isos = []
    for _ in range(3):
        th = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        isos.append(Mobius.similarity(math.exp(rng.normal()), rot, rng.normal(size=2)))
    p = box_points(rng, 20)
    for I in isos:
        for J in isos:
            left = I.compose(J)(p)
            right = I(J(p))
            assert np.allclose(left, right, atol=1e-12)
        back = I.compose(I.inverse())(p)
        assert np.allclose(back, p, atol=1e-12)


def test_isometry_fixing_infinity_is_a_one_similarity_mobius():
    th = 0.4
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    iso = Mobius.similarity(1.5, rot, np.array([0.2, -0.1]))
    assert len(iso.chain) == 1 and iso.chain[0][0] == "sim"
    assert iso.boundary(INFINITY) is INFINITY
    # the identity is the one-similarity chain of scale 1
    ident = Mobius.identity(3)
    assert len(ident.chain) == 1 and ident.chain[0][0] == "sim"
    x = np.random.default_rng(8).normal(size=(10, 2))
    assert np.array_equal(iso.boundary_array(x), 1.5 * (x @ rot.T) + np.array([0.2, -0.1]))
    with pytest.raises(ValueError):
        Mobius.similarity(0.0, np.eye(2), np.zeros(2))


def test_inversion_is_isometry_swapping_zero_and_infinity():
    V = Mobius.inversion(3)
    assert V.boundary(INFINITY) is not INFINITY and np.allclose(V.boundary(INFINITY), 0)
    assert V.boundary(np.zeros(2)) is INFINITY
    rng = np.random.default_rng(7)
    p, q = box_points(rng, 40), box_points(rng, 40)
    assert np.allclose(dist(V(p), V(q)), dist(p, q), atol=1e-10)


# hypothesis: Mobius chains that contain inversions.  A chain alternates 2-3
# random similarities with inversions in the unit sphere.  Boundary points
# that pass within 0.1 of an inversion's pole are discarded; boundary points
# are compared in the chordal metric of the sphere, which is scale-free.
def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def _alternate(sims):
    chain = [sims[0]]
    for sim in sims[1:]:
        chain += [("inv", 3), sim]
    return Mobius(chain)


similarities = st.builds(lambda a, th, b: ("sim", a, _rotation(th), np.array(b)),
                         st.floats(0.2, 5.0), st.floats(0.0, 2 * math.pi),
                         st.tuples(coord, coord))
chains = st.lists(similarities, min_size=2, max_size=3).map(_alternate)
boundary_points = st.tuples(coord, coord).map(np.array)


def _conformal_factor(M, x, clearance=0.1):
    """M's conformal factor at x; None if x passes within clearance of a pole."""
    factor = 1.0
    for prim in M.chain:
        if prim[0] == "sim":
            factor *= prim[1]
        else:
            nn = float(x @ x)
            if nn <= clearance**2:
                return None
            factor /= nn
        x = Mobius([prim]).boundary_array(x)
    return factor


def _chordal(x, y):
    return 2.0 * np.linalg.norm(x - y) / math.sqrt((1.0 + x @ x) * (1.0 + y @ y))


@GEODESIC_SETTINGS
@given(M=chains, p=points, q=points)
def test_mobius_chain_preserves_dist_property(M, p, q):
    d = dist(p, q)
    assert dist(M(p), M(q)) == pytest.approx(d, rel=1e-9, abs=1e-12)


@GEODESIC_SETTINGS
@given(M=chains, N=chains, p=points, x=boundary_points)
def test_mobius_chain_compose_and_inverse_round_trip_property(M, N, p, x):
    assert np.array_equal(M.compose(N)(p), M(N(p)))
    assert dist(M.inverse()(M(p)), p) < 1e-9
    assert dist(M.compose(M.inverse())(p), p) < 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(M.compose(N).boundary_array(x),
                              M.boundary_array(N.boundary_array(x)), equal_nan=True)
    assume(_conformal_factor(M, x) is not None)
    assert _chordal(M.inverse().boundary_array(M.boundary_array(x)), x) < 1e-9


@GEODESIC_SETTINGS
@given(M=st.one_of(chains, st.just(Mobius.inversion(3))), x=boundary_points)
def test_mobius_boundary_jacobian_is_conformal_property(M, x):
    factor = _conformal_factor(M, x)
    assume(factor is not None)
    y, (D,) = M.boundary_jet(x, (np.eye(2),))
    assert np.array_equal(y, M.boundary_array(x))
    # J^T J = lambda^2 I, lambda the product of the chain's factors
    # (a for a similarity, |x|^-2 for the inversion at its argument x)
    assert np.allclose(D.T @ D, factor**2 * np.eye(2), rtol=0.0, atol=1e-12 * factor**2)


# Calibration sweep of the oracle step h_rel (h = h_rel s): worst error of
# the finite-difference jet against `Mobius.jet`, per point over its largest
# Jacobian entry (J) or over max(largest |lap|, largest Jacobian entry / s)
# (lap, the trace of the Hessian), over 20000 examples drawn from the
# strategies of the property below, with the literal pool pinned empty
# (conftest.py).
#
#   central differences (conftest `jet`)
#   h_rel        1e-4     4e-4     1e-3     2e-3     4e-3
#   Jacobian     8.6e-8   1.9e-7   1.2e-6   4.8e-6   1.9e-5
#   lap          8.6e-3   9.8e-4   1.5e-4   3.3e-5   4.8e-5
#   extrapolated from h and h/2, (4 D(h/2) - D(h)) / 3
#   h_rel        5e-3     1e-2     2e-2     4e-2     8e-2
#   Jacobian     8.7e-9   3.6e-9   4.0e-8   6.4e-7   1.0e-5
#   lap          3.0e-5   6.1e-6   9.7e-7   6.4e-7   1.0e-5
#
# An isometry varies on the scale s of the base point, so the truncation
# error falls as h_rel^2 (h_rel^4 extrapolated) whatever the chain, down to a
# rounding floor of eps |M(p)| / h.  That floor is large where the image
# lies far out horizontally for its height: at p = (0, 1, 0.0625) through
# similarities of scale 0.25 a central difference at 1e-4 is off by 5.4e-8.
# The worst cases are rare points at that floor, so a draw of other
# examples moves them: one of 5000 gave 2.5e-8 (Jacobian, 1e-2), 7.0e-6
# (lap, 2e-2) and 2.1e-6 (lap, 4e-2).  The extrapolation reaches its
# truncation error at a 10-20x larger step, where that floor is lower.
# Each step is the one with the least worst error in both draws; the
# tolerances are kept from the central-difference oracle (14x and 23x the
# worst errors of the table, 2x and 7x those of the smaller draw).
ORACLE_STEP_J, ORACLE_TOL_J = 1e-2, 5e-8
ORACLE_STEP_LAP, ORACLE_TOL_LAP = 4e-2, 1.5e-5


def _extrapolated_jet(M, p, h_rel):
    """Jacobian and coordinate Laplacian of M at p, Richardson-extrapolated
    from the central differences at steps h and h/2 (O(h^4))."""
    coarse, fine = jet(M, p, h_rel), jet(M, p, h_rel / 2)
    return tuple((4.0 * b - a) / 3.0 for a, b in (
        (coarse.jacobian, fine.jacobian),
        (np.trace(coarse.hessian, axis1=1, axis2=2),
         np.trace(fine.hessian, axis1=1, axis2=2))))


chains_with_inversion = st.one_of(chains, st.just(Mobius.inversion(3)))


@GEODESIC_SETTINGS
@given(M=chains_with_inversion, p=points)
@example(M=_alternate([("sim", 1.0, _rotation(0.0), np.array((0.0, 2.5))),
                       ("sim", 0.25, _rotation(1.0), np.array((0.0, 3.0))),
                       ("sim", 0.25, _rotation(0.0), np.array((0.0, 2.0)))]),
         p=np.array((0.0, 1.0, 0.0625)))  # the rounding-floor point of the sweep above
def test_mobius_jet_matches_central_differences_property(M, p):
    val, jac, lap, s_dom = M.jet(p[None])
    assert np.array_equal(val[0], M(p)) and s_dom[0] == p[-1]
    scale_j = np.max(np.abs(jac))
    scale_lap = max(np.max(np.abs(lap)), scale_j / p[-1])
    fd_j = _extrapolated_jet(M, p, ORACLE_STEP_J)[0]
    fd_lap = _extrapolated_jet(M, p, ORACLE_STEP_LAP)[1]
    assert np.max(np.abs(jac[0] - fd_j)) < ORACLE_TOL_J * scale_j
    assert np.max(np.abs(lap[0] - fd_lap)) < ORACLE_TOL_LAP * scale_lap


@GEODESIC_SETTINGS
@given(M=chains_with_inversion, p=points)
def test_isometry_is_harmonic_to_rounding_property(M, p):
    # an isometry is harmonic with energy n/2 and distortion 1; the library
    # reads all three off the exact jet
    pts = p[None]
    assert tension_norm(M, pts)[0] <= ISOMETRY_TAU_TOL
    assert abs(energy_density(M, pts)[0] - 1.5) <= ISOMETRY_JET_TOL
    assert abs(map_distortion(M, pts)[0] - 1.0) <= ISOMETRY_JET_TOL


@GEODESIC_SETTINGS
@given(M=chains_with_inversion, p=points, x=boundary_points)
def test_mobius_walk_matches_the_primitive_arithmetic_property(M, p, x):
    # the lifted walk computes the same floating-point operations as the
    # action written primitive by primitive, and the boundary actions share
    # one walk with or without a jet
    assert M(p).tobytes() == apply_reference(M, p).tobytes()
    batch = np.stack([p, 2.0 * p])
    assert M(batch).tobytes() == apply_reference(M, batch).tobytes()
    # x may sit on or next to a pole, where the jet overflows without a warning
    y, _ = M.boundary_jet(x, (np.eye(2), np.zeros((2, 2, 2))))
    assert y.tobytes() == M.boundary_array(x).tobytes()


# ---------------------------------------------------------------------------
# geodesic spheres and balls

def test_geodesic_sphere_area_matches_sinh_squared():
    # the geodesic sphere of radius rho about (0,0,s_c) is the Euclidean
    # sphere with center (0,0,s_c cosh rho) and radius s_c sinh rho; its
    # hyperbolic area is the surface integral of 1/s^2
    rng = np.random.default_rng(9)
    for rho in (0.5, 1.5):
        zeta = rng.normal(size=(4000, 3))
        zeta /= np.linalg.norm(zeta, axis=1, keepdims=True)
        # unit hyperbolic speed at height 1.3
        pts = geodesic_step((0.0, 0.0, 1.3), 1.3 * zeta, rho)
        center = np.array([0.0, 0.0, 1.3 * math.cosh(rho)])
        R = 1.3 * math.sinh(rho)
        assert np.allclose(np.linalg.norm(pts - center, axis=1), R, atol=1e-9)
        # Euclidean-uniform surface samples as the area oracle
        u = rng.normal(size=(200_000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        surf = center + R * u
        keep = surf[:, 2] > 0
        area = 4 * math.pi * R**2 * np.mean(1.0 / surf[keep, 2] ** 2)
        assert area == pytest.approx(4 * math.pi * math.sinh(rho) ** 2, rel=0.02)


def test_geodesic_ball_volume_monte_carlo():
    # importance-sampled ball MC: heights drawn with density ~ 1/s^2
    # (exact inverse CDF) to tame the 1/s^3 volume weight near the bottom
    rng = np.random.default_rng(10)
    s_c = 1.0
    n = 200_000
    for rho in (0.5, 1.0, 2.0):
        H = s_c * math.cosh(rho)
        R = s_c * math.sinh(rho)
        s0, s1 = H - R, H + R
        C = 1.0 / s0 - 1.0 / s1
        u = rng.uniform(size=n)
        s = 1.0 / (1.0 / s0 - u * C)
        r_disk = np.sqrt(np.maximum(0.0, R**2 - (s - H) ** 2))
        # uniform point on the cross-section disk (enters only through r_disk)
        t = np.sqrt(rng.uniform(size=n))
        phi = rng.uniform(0, 2 * math.pi, size=n)
        xy = r_disk[:, None] * t[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
        assert np.all(xy[:, 0] ** 2 + xy[:, 1] ** 2 <= r_disk**2 + 1e-12)
        weights = math.pi * r_disk**2 * C / s
        vol = float(np.mean(weights))
        want = math.pi * (math.sinh(2 * rho) - 2 * rho)
        assert vol == pytest.approx(want, rel=0.01)
