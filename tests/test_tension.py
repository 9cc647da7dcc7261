import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcflow.boundary import singular_value_ratio
from qcflow.extension import anchoring_isometry
from qcflow.geometry import IsometryFixingInfinity
from qcflow.tension import (
    SCRATCH_ROWS,
    energy_density,
    energy_from_jet,
    fd_jet,
    good_set_membership,
    map_distortion,
    tension_field,
    tension_from_jet,
    tension_norm,
)

from conftest import box_points, jet

def IDENTITY(p):
    return np.array(p, dtype=float, copy=True)


def DOUBLE_HEIGHT(p):  # (x, 2s)
    return np.concatenate([p[..., :2], 2.0 * p[..., 2:]], axis=-1)


def SQUARE_HEIGHT(p):  # (x, s^2)
    return np.concatenate([p[..., :2], p[..., 2:] ** 2], axis=-1)


def closed_form_linear_extension(L):
    """(L x, sqrt(e(L)/(n-1)) s): the harmonic extension of a linear map."""
    c = math.sqrt(np.sum(np.asarray(L) ** 2) / 2.0)
    A = np.asarray(L, dtype=float)

    def ev(p):
        return np.concatenate([p[..., :2] @ A.T, c * p[..., 2:]], axis=-1)

    return ev


def test_jet_identity():
    J = jet(IDENTITY, np.array([0.3, -0.2, 0.7]))
    assert np.allclose(J.jacobian, np.eye(3), atol=1e-10)
    assert np.allclose(J.hessian, 0.0, atol=1e-6)
    assert J.symmetry_defect() < 1e-6


def test_jet_double_height():
    J = jet(DOUBLE_HEIGHT, np.array([1.0, 2.0, 0.5]))
    assert np.allclose(J.jacobian, np.diag([1.0, 1.0, 2.0]), atol=1e-10)


def test_jet_of_quadrature_extension_matches_closed_form(ext_linear):
    # the Jacobian of the Gaussian-average extension of diag(2,1) is
    # diag(2, 1, sqrt(5/2)) everywhere
    J = jet(ext_linear, np.array([0.4, -0.3, 1.2]))
    assert np.allclose(J.jacobian, np.diag([2.0, 1.0, math.sqrt(2.5)]), atol=1e-6)
    assert J.symmetry_defect() < 1e-6


def test_energy_density_values():
    rng = np.random.default_rng(0)
    pts = box_points(rng, 12)
    assert np.allclose(energy_density(IDENTITY, pts), 1.5, atol=1e-8)
    assert np.allclose(energy_density(DOUBLE_HEIGHT, pts), 0.75, atol=1e-8)
    iso = IsometryFixingInfinity(1.7, np.eye(2), np.array([0.3, 0.1])).apply
    assert np.allclose(energy_density(iso, pts), 1.5, atol=1e-8)


def test_energy_density_linear_extension_closed_form(ext_linear):
    # e = (s/S)^2 (|L|_F^2 + e(L)/(n-1)) / 2 = n/2 for every linear map
    rng = np.random.default_rng(1)
    pts = box_points(rng, 8)
    assert np.allclose(energy_density(ext_linear, pts), 1.5, atol=1e-5)


def test_tension_identity_and_harmonic():
    rng = np.random.default_rng(2)
    pts = box_points(rng, 12)
    assert np.max(tension_field(IDENTITY, pts)[1]) < 1e-6
    GL = closed_form_linear_extension(np.diag([2.0, 1.0]))
    assert np.max(tension_field(GL, pts)[1]) < 1e-6


def test_tension_of_quadrature_extension_small(ext_linear):
    rng = np.random.default_rng(3)
    pts = box_points(rng, 20, box=1.0, s_range=(0.5, 2.0))
    assert np.max(tension_norm(ext_linear, pts)) < 1e-4


def test_tension_square_height_matches_hand_formula():
    # hand contraction for (x, s^2): the horizontal components of tau vanish
    # and the vertical one is 2 s^2 - (n-2) s (2s) + (2 - 4 s^2) = 2 - 4 s^2
    # for n = 3, so |tau| = |2 - 4 s^2| / s^2 in the metric at height s^2
    rng = np.random.default_rng(4)
    pts = box_points(rng, 15)
    s = pts[:, -1]
    _, norm = tension_field(SQUARE_HEIGHT, pts)
    want = np.abs(2.0 - 4.0 * s**2) / s**2
    assert np.allclose(norm, want, rtol=1e-5, atol=1e-5)


def reference_tension(value, jac, lap, s):
    """The contraction in tension_from_jet's docstring, as whole-array sums."""
    n = value.shape[-1]
    S = value[..., -1]
    s2 = s**2
    tau = s2[..., None] * np.sum(lap, axis=-1) - (n - 2) * s[..., None] * jac[..., :, -1]
    cross = np.einsum("...gi,...i->...g", jac[..., :-1, :], jac[..., -1, :])
    tau[..., :-1] -= (2.0 * s2 / S)[..., None] * cross
    tau[..., -1] += (s2 / S) * (np.sum(jac[..., :-1, :] ** 2, axis=(-2, -1))
                                - np.sum(jac[..., -1, :] ** 2, axis=-1))
    return tau, np.linalg.norm(tau, axis=-1) / S


@pytest.mark.parametrize("n,shape", [(2, (40,)), (3, (5, 6, 7)), (4, (30,))])
def test_tension_from_jet_matches_reference_contraction(n, shape):
    rng = np.random.default_rng(n)
    value = rng.normal(size=shape + (n,))
    value[..., -1] = rng.uniform(0.5, 2.0, shape)
    jac, lap = rng.normal(size=(2,) + shape + (n, n))
    s = rng.uniform(0.5, 2.0, shape)
    tau, norm = tension_from_jet(value, jac, lap, s)
    want_tau, want_norm = reference_tension(value, jac, lap, s)
    # the same O(10) products summed in another order: a few ulps of the scale
    assert np.max(np.abs(tau - want_tau)) <= 1e-13 * np.max(np.abs(want_tau))
    assert np.max(np.abs(norm - want_norm)) <= 1e-13 * np.max(want_norm)
    # component-major jets (as FlowGrid.interior_jets returns) give the same bits
    def component_major(a):
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1))),
                           (0, 1), (-2, -1))
    tau_t, norm_t = tension_from_jet(value, component_major(jac), component_major(lap), s)
    assert np.array_equal(tau_t, tau) and np.array_equal(norm_t, norm)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 30), n=st.sampled_from([2, 3, 4]))
def test_kernels_into_buffers_match_the_allocating_calls_property(seed, k, n):
    rng = np.random.default_rng(seed)
    value = rng.normal(size=(k, n))
    value[:, -1] = rng.uniform(0.1, 5.0, k)
    jac, lap = rng.normal(size=(2, k, n, n))
    s = rng.uniform(0.1, 5.0, k)
    # component-major outputs as FlowGrid passes them; NaN shows a read before a write
    tau, norm, energy = np.full((n, k), np.nan).T, np.full(k, np.nan), np.full(k, np.nan)
    scratch = np.full((SCRATCH_ROWS, k), np.nan)
    got = tension_from_jet(value, jac, lap, s, out=(tau, norm), scratch=scratch)
    assert got[0] is tau and got[1] is norm
    for g, w in zip(got, tension_from_jet(value, jac, lap, s)):
        assert g.tobytes() == w.tobytes()
    assert energy_from_jet(value, jac, s, out=energy, scratch=scratch) is energy
    assert energy.tobytes() == energy_from_jet(value, jac, s).tobytes()
    # the energy read off the tension pass is energy_from_jet's, bit for bit,
    # and asking for it leaves the tension unchanged
    energy_t = np.full(k, np.nan)
    with_energy = tension_from_jet(value, jac, lap, s, scratch=scratch, energy=energy_t)
    for g, w in zip(with_energy, got):
        assert g.tobytes() == w.tobytes()
    assert energy_t.tobytes() == energy.tobytes()


def test_one_point_gives_the_row_of_its_batch():
    rng = np.random.default_rng(7)
    value = rng.normal(size=(4, 3))
    value[:, -1] = rng.uniform(0.5, 2.0, 4)
    jac, lap = rng.normal(size=(2, 4, 3, 3))
    s = rng.uniform(0.5, 2.0, 4)
    tau, norm = tension_from_jet(value, jac, lap, s)
    energy = energy_from_jet(value, jac, s)
    for k in range(4):
        tau_k, norm_k = tension_from_jet(value[k], jac[k], lap[k], s[k])
        assert tau_k.tobytes() == tau[k].tobytes()
        assert np.ndim(norm_k) == 0 and norm_k == norm[k]
        assert energy_from_jet(value[k], jac[k], s[k]) == energy[k]
        energy_k = np.empty(())
        tension_from_jet(value[k], jac[k], lap[k], s[k], energy=energy_k)
        assert energy_k == energy[k]


def test_tension_isometry_not_fixing_infinity():
    rng = np.random.default_rng(5)
    M = anchoring_isometry(np.array([2.0, 1.0])).inverse()  # infinity -> (2, 1)
    pts = box_points(rng, 15)
    assert np.max(tension_field(M.apply, pts)[1]) < 1e-4


def test_map_distortion_values(ext_linear):
    rng = np.random.default_rng(6)
    pts = box_points(rng, 10)
    iso = IsometryFixingInfinity(0.6, np.eye(2), np.zeros(2)).apply
    assert np.allclose(map_distortion(iso, pts), 1.0, atol=1e-8)
    assert np.allclose(map_distortion(ext_linear, pts), 2.0, atol=1e-4)
    assert np.allclose(map_distortion(DOUBLE_HEIGHT, pts), 2.0, atol=1e-8)


def test_finite_difference_convergence_order():
    # halving h cuts the tension defect of a curved harmonic map by >= 3x
    M = anchoring_isometry(np.array([1.0, -0.5])).compose(anchoring_isometry(np.array([0.0, 2.0])))
    F = M.apply
    rng = np.random.default_rng(7)
    pts = box_points(rng, 10)
    coarse = np.max(tension_field(F, pts, h_rel=2e-2)[1])
    fine = np.max(tension_field(F, pts, h_rel=1e-2)[1])
    assert coarse / fine >= 3.0


def test_chain_rule_under_isometries():
    rng = np.random.default_rng(8)
    pts = box_points(rng, 12)
    th = 0.9
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    I = IsometryFixingInfinity(1.8, rot, np.array([0.2, -0.4]))

    def composed(p):
        return I.apply(SQUARE_HEIGHT(p))

    t0 = tension_field(SQUARE_HEIGHT, pts)[1]
    t1 = tension_field(composed, pts)[1]
    assert np.allclose(t0, t1, atol=1e-8)
    e0 = energy_density(SQUARE_HEIGHT, pts)
    e1 = energy_density(composed, pts)
    assert np.allclose(e0, e1, atol=1e-8)


def test_good_set_identity_and_linear(ext_linear):
    from qcflow.boundary import make_boundary_map
    from qcflow.extension import GoodExtension

    pts = np.array([[0.2, -0.1, 0.8], [1.0, 1.0, 1.5]])
    ext_id = GoodExtension(make_boundary_map("identity"))
    ok_e, ok_k, ok_t, ok = good_set_membership(ext_id, 1e-3, pts)
    assert np.all(ok)
    ok_e, ok_k, ok_t, ok = good_set_membership(ext_linear, 1e-3, pts)
    assert np.all(ok)


def test_good_set_fraction_near_boundary(ext_stretch):
    rng = np.random.default_rng(9)
    u = rng.uniform(size=(120, 2))
    r = np.sqrt(u[:, 0])
    th = 2 * math.pi * u[:, 1]
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])
    pts = np.column_stack([X, np.full(len(X), 1e-3)])
    *_, ok = good_set_membership(ext_stretch, 0.1, pts)
    assert np.mean(ok) >= 0.9


def test_good_set_fraction_nondecreasing_as_height_drops(ext_stretch, f_shear):
    from qcflow.extension import GoodExtension

    rng = np.random.default_rng(10)
    u = rng.uniform(size=(80, 2))
    r = np.sqrt(u[:, 0])
    th = 2 * math.pi * u[:, 1]
    X = np.column_stack([r * np.cos(th), r * np.sin(th)])
    for ext in (ext_stretch, GoodExtension(f_shear)):
        fracs = []
        for s in (1e-1, 1e-2, 1e-3):
            pts = np.column_stack([X, np.full(len(X), s)])
            *_, ok = good_set_membership(ext, 0.1, pts)
            fracs.append(np.mean(ok))
        assert fracs[0] <= fracs[1] + 1e-12 and fracs[1] <= fracs[2] + 1e-12


def test_fd_jet_matches_the_single_point_jet():
    # the batched stencil takes the same differences as the full 2-jet
    pts = box_points(np.random.default_rng(31), 5)
    val, jac, lap, s_dom = fd_jet(SQUARE_HEIGHT, pts)
    assert np.array_equal(s_dom, pts[:, -1])
    for k, p in enumerate(pts):
        J = jet(SQUARE_HEIGHT, p)
        assert np.array_equal(val[k], J.value)
        assert np.array_equal(jac[k], J.jacobian)
        assert np.array_equal(lap[k], np.diagonal(J.hessian, axis1=1, axis2=2))


@pytest.mark.parametrize("F", [SQUARE_HEIGHT, DOUBLE_HEIGHT], ids=["F0", "F1"])
def test_hypermap_quantities_are_functions_of_fd_jet(F):
    pts = box_points(np.random.default_rng(32), 40)
    val, jac, lap, s_dom = fd_jet(F, pts)
    assert np.array_equal(energy_density(F, pts), energy_from_jet(val, jac, s_dom))
    assert np.array_equal(map_distortion(F, pts), singular_value_ratio(jac))
    for got, want in zip(tension_field(F, pts), tension_from_jet(val, jac, lap, s_dom)):
        assert np.array_equal(got, want)
