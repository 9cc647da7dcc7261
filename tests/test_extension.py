import math

import numpy as np
import pytest

from qcflow.boundary import conjugate_boundary, make_boundary_map
from qcflow.extension import (
    DEEP_HEIGHT,
    GoodExtension,
    QuadratureRule,
    anchoring_isometry,
    check_partial_conformal_naturality,
    quasi_isometry_constants,
    tension_sup_estimate,
)
from qcflow.geometry import INFINITY, IsometryFixingInfinity, Mobius, Point, dist
from qcflow.tension import as_hypermap, energy_density, map_distortion

from conftest import box_points


def test_quadrature_moments():
    q = QuadratureRule(2, 21)
    ones = np.ones(q.nodes.shape[0])
    assert abs(q.integrate(ones) - 1.0) < 1e-12
    assert abs(q.integrate(q.nodes[:, 0])) < 1e-10
    assert abs(q.integrate(q.nodes[:, 0] * q.nodes[:, 1])) < 1e-10
    assert abs(q.integrate(q.nodes[:, 0] ** 2) - 1.0) < 1e-10


def test_extension_of_identity_is_identity():
    f = make_boundary_map("identity")
    rng = np.random.default_rng(0)
    pts = box_points(rng, 20)
    ext = GoodExtension(f)
    assert np.max(np.abs(ext(pts) - pts)) < 1e-10


def test_extension_of_linear_map_closed_form(f_linear, ext_linear):
    rng = np.random.default_rng(1)
    pts = box_points(rng, 25)
    L = np.diag([2.0, 1.0])
    closed = np.column_stack([pts[:, :2] @ L.T, math.sqrt(2.5) * pts[:, 2]])
    assert np.max(np.abs(ext_linear(pts) - closed)) < 1e-9
    one = GoodExtension(f_linear, INFINITY)(Point([0.5, -0.5], 1.0).coords)
    assert np.allclose(one, [1.0, -0.5, math.sqrt(2.5)])


def test_extension_heights_positive(ext_stretch):
    rng = np.random.default_rng(2)
    pts = box_points(rng, 30, s_range=(1e-3, 4.0))
    out = ext_stretch(pts)
    assert np.all(out[:, -1] > 0.0)
    assert np.all(np.isfinite(out))


def test_anchored_at_infinity_matches_infty_form(f_stretch, ext_stretch):
    rng = np.random.default_rng(3)
    pts = box_points(rng, 10)
    via_at = GoodExtension(f_stretch, INFINITY)(pts)
    assert np.allclose(via_at, ext_stretch(pts), atol=1e-12)


def test_anchored_extension_independent_of_identification(f_stretch):
    # canonical identification vs a hand-rolled one through the inversion
    rng = np.random.default_rng(4)
    pts = box_points(rng, 12)
    ext0 = GoodExtension(f_stretch, anchor=np.zeros(2))
    V = Mobius.inversion(3)
    f_conj = conjugate_boundary(f_stretch, V, V, fixed_point=INFINITY)
    alt = V.inverse().apply(GoodExtension(f_conj)(V.apply(pts)))
    assert float(np.max(dist(ext0(pts), alt))) < 1e-6


def test_extension_of_isometry_trace_is_that_isometry():
    # the boundary trace of x -> 2x extends to (x, s) -> (2x, 2s)
    f = make_boundary_map("linear", matrix=2.0 * np.eye(2))
    ext = GoodExtension(f, anchor=np.zeros(2))
    rng = np.random.default_rng(5)
    pts = box_points(rng, 12)
    assert float(np.max(dist(ext(pts), 2.0 * pts))) < 1e-6


def test_partial_conformal_naturality_trivial(f_shear):
    ident = Mobius.identity(3)
    rng = np.random.default_rng(6)
    pts = box_points(rng, 8)
    dev = check_partial_conformal_naturality(
        f_shear, ident, ident, INFINITY, INFINITY, pts
    )
    assert dev < 1e-12


def test_partial_conformal_naturality_isom_infty(f_shear, f_linear):
    th = 0.6
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    I = IsometryFixingInfinity(2.0, rot, np.array([0.5, -0.3])).as_mobius()
    J = IsometryFixingInfinity(0.5, np.eye(2), np.array([1.0, 0.0])).as_mobius()
    rng = np.random.default_rng(7)
    pts = box_points(rng, 15)
    for f in (f_shear, f_linear):
        dev = check_partial_conformal_naturality(f, I, J, INFINITY, INFINITY, pts)
        assert dev < 1e-6


def test_partial_conformal_naturality_through_inversion(f_stretch):
    V = Mobius.inversion(3)
    rng = np.random.default_rng(8)
    pts = box_points(rng, 10)
    dev = check_partial_conformal_naturality(
        f_stretch, V, V, INFINITY, np.zeros(2), pts
    )
    assert dev < 1e-6


def test_pcn_rejects_anchor_mismatch(f_shear):
    I = IsometryFixingInfinity(2.0, np.eye(2), np.zeros(2)).as_mobius()
    with pytest.raises(ValueError):
        check_partial_conformal_naturality(
            f_shear, I, I, np.zeros(2), INFINITY, np.zeros((1, 3))
        )


def test_anchoring_isometry_properties():
    for a in (np.zeros(2), np.array([1.5, -0.5])):
        M = anchoring_isometry(a, 3)
        assert M.boundary(a) is INFINITY
    assert isinstance(anchoring_isometry(INFINITY, 3), Mobius)


def test_quasi_isometry_constants_isometry():
    th = 1.1
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    iso = as_hypermap(IsometryFixingInfinity(1.4, rot, np.array([0.7, 0.2])))
    rng = np.random.default_rng(9)
    pairs = (box_points(rng, 60), box_points(rng, 60))
    L, A = quasi_isometry_constants(iso, pairs)
    assert L == pytest.approx(1.0, abs=1e-9)
    assert A == pytest.approx(0.0, abs=1e-9)


def test_quasi_isometry_constants_extensions(ext_linear, ext_stretch):
    rng = np.random.default_rng(10)
    pairs = (box_points(rng, 60), box_points(rng, 60))
    L, A = quasi_isometry_constants(ext_linear, pairs)
    assert L <= 2.0 + 1e-6
    L2, A2 = quasi_isometry_constants(ext_stretch, pairs)
    # regression fixture from the first pinned run (seeded sample)
    assert L2 == pytest.approx(1.0, abs=0.05)
    assert A2 == pytest.approx(0.75, abs=0.2)


def _box_sampler(rng, k):
    return box_points(rng, k, box=1.5, s_range=(0.3, 3.0))


def test_tension_sup_estimate_cases(ext_linear):
    iso = as_hypermap(IsometryFixingInfinity(2.0, np.eye(2), np.zeros(2)))
    assert tension_sup_estimate(iso, _box_sampler, 50, seed=0) < 1e-4
    assert tension_sup_estimate(ext_linear, _box_sampler, 50, seed=0) < 1e-3
    f2 = make_boundary_map("radial_stretch", K=2.0)
    ext2 = GoodExtension(f2)
    v100 = tension_sup_estimate(ext2, _box_sampler, 100, seed=0)
    v50 = tension_sup_estimate(ext2, _box_sampler, 50, seed=0)
    assert 1.0 < v100 < 5.0  # regression fixture: measured ~2.6
    assert v100 >= v50  # monotone in the sample count (prefix-stable sampler)


def test_linear_extension_energy_and_distortion(ext_linear):
    from qcflow.tension import energy_density, map_distortion

    rng = np.random.default_rng(11)
    pts = box_points(rng, 20)
    assert np.all(energy_density(ext_linear, pts) > 1.0)
    assert np.allclose(map_distortion(ext_linear, pts), 2.0, atol=1e-4)


def test_boundary_trace_recovered_near_height_zero(f_stretch, ext_stretch):
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.5, 1.5, size=(15, 2))
    x = x[np.linalg.norm(x, axis=1) > 0.2]
    pts = np.column_stack([x, np.full(len(x), 1e-4)])
    out = ext_stretch(pts)
    assert np.max(np.abs(out[:, :2] - f_stretch(x))) < 1e-3
    assert np.max(out[:, -1]) < 1e-3


def test_quadrature_order_doubling_converged(f_shear, f_stretch):
    pts = np.array([[2.0, 0.5, 0.2], [-1.5, 1.0, 0.15], [0.8, -2.0, 0.1]])
    for f in (f_shear, f_stretch):
        lo = GoodExtension(f, order=21)(pts)
        hi = GoodExtension(f, order=42)(pts)
        assert np.max(np.abs(lo - hi)) < 1e-8


def test_continuity_in_map_and_anchor(f_stretch):
    # f_k -> f pointwise (translated stretches) with anchors a_k -> a:
    # sampled values and finite-difference jets of the anchored extensions
    # converge on a compact set
    from qcflow.tension import jet

    test_pts = np.array([[0.9, 1.1, 1.0], [1.4, 0.7, 0.6], [1.1, 1.3, 1.6]])
    base_anchor = np.array([0.35, -0.15])

    def translated(c):
        shift = IsometryFixingInfinity(1.0, np.eye(2), c).as_mobius()
        f = conjugate_boundary(f_stretch, shift, shift, fixed_point=np.asarray(c))
        return f

    f_lim = translated(base_anchor)
    ext_lim = GoodExtension(f_lim, anchor=base_anchor)
    ref_vals = ext_lim(test_pts)
    ref_jets = [jet(ext_lim, p) for p in test_pts]

    deltas = [5e-3, 1e-4]
    errs = []
    for d in deltas:
        a_k = base_anchor + np.array([d, -d])
        ext_k = GoodExtension(translated(a_k), anchor=a_k)
        val_err = float(np.max(np.abs(ext_k(test_pts) - ref_vals)))
        jac_err = 0.0
        hess_err = 0.0
        for p, rj in zip(test_pts, ref_jets):
            jk = jet(ext_k, p)
            jac_err = max(jac_err, float(np.max(np.abs(jk.jacobian - rj.jacobian))))
            hess_err = max(hess_err, float(np.max(np.abs(jk.hessian - rj.hessian))))
        errs.append((val_err, jac_err, hess_err))
    assert errs[1][0] < errs[0][0] and errs[1][1] < errs[0][1]
    assert errs[1][0] < 1e-4 and errs[1][1] < 1e-4
    # second derivatives converge too, down to the quadrature-noise floor
    # of the finite-difference hessian (~5e-4 at these steps)
    assert errs[1][2] < 5e-3
    # the limit itself is reproduced when the anchors coincide
    same = GoodExtension(translated(base_anchor), anchor=base_anchor)
    assert float(np.max(np.abs(same(test_pts) - ref_vals))) < 1e-12


def test_rejects_wrong_anchor(f_shear):
    with pytest.raises(ValueError):
        GoodExtension(f_shear, anchor=np.array([0.3, 0.4]))  # shear does not fix it


# ---------------------------------------------------------------------------
# the moment jet


@pytest.mark.parametrize("name", ["f_stretch", "f_shear"])
def test_jet_tension_converges_in_quadrature_order(name, request):
    # order-21 tension against an order-81 reference on s in [0.05, 3]; a
    # 10-seed sweep of this box measured at most 0.028 (stretch) and 0.011
    # (shear), mostly at s > 2.5 where the Gaussian window reaches the
    # maps' singularities
    f = request.getfixturevalue(name)
    pts = box_points(np.random.default_rng(13), 40, box=1.5, s_range=(0.05, 3.0))
    lo = GoodExtension(f, order=21).tension_norm(pts)
    hi = GoodExtension(f, order=81).tension_norm(pts)
    assert float(np.max(np.abs(lo - hi))) < 0.05


@pytest.mark.parametrize("name", ["f_stretch", "f_shear"])
def test_jet_energy_and_distortion_match_finite_differences(name, request):
    f = request.getfixturevalue(name)
    ext = GoodExtension(f)
    fd = as_hypermap(ext)  # hides the jet: central differences of ext itself
    x = np.random.default_rng(14).uniform(-1.0, 1.0, size=(30, 2))

    def rel_gap(s):
        pts = np.column_stack([x, np.full(len(x), s)])
        return max(
            float(np.max(np.abs(energy_density(ext, pts) / energy_density(fd, pts) - 1))),
            float(np.max(np.abs(map_distortion(ext, pts) / map_distortion(fd, pts) - 1))),
        )

    # direct and deep paths; a 10-seed sweep measured <= 3e-7, and below
    # s ~ 1e-5 the finite-difference reference reaches its rounding floor
    for s in (1e-3, 1e-4, 3e-5):
        assert rel_gap(s) < 1e-6
    # at s = 0.1 the order-21 rule no longer integrates the stretch's
    # |x|^(K-1) x exactly, so moments and differences of the rule part;
    # the sweep measured up to 6.5e-3
    assert rel_gap(0.1) < 2e-2


@pytest.mark.parametrize("name", ["f_stretch", "f_shear"])
def test_jet_continuous_across_deep_height(name, request):
    # the local model below DEEP_HEIGHT and direct nodes above it agree;
    # a 10-seed sweep measured jumps up to 1.6e-6 in jac and lap
    f = request.getfixturevalue(name)
    ext = GoodExtension(f)
    x = np.random.default_rng(15).uniform(-1.0, 1.0, size=(30, 2))
    x = x[np.linalg.norm(x, axis=1) > 0.05]
    below = np.column_stack([x, np.full(len(x), DEEP_HEIGHT * (1.0 - 1e-9))])
    above = np.column_stack([x, np.full(len(x), DEEP_HEIGHT)])
    (ja, la), (jb, lb) = ext.jet(below), ext.jet(above)
    assert float(np.max(np.abs(ja - jb))) < 1e-5
    assert float(np.max(np.abs(la - lb))) < 1e-5
    ta, tb = ext.tension_norm(below), ext.tension_norm(above)
    assert float(np.max(np.abs(ta - tb))) < 1e-3 * float(np.max(tb))


def test_jet_of_linear_extension_is_exact(ext_linear):
    # the extension of diag(2, 1) is (Lx, sqrt(5/2) s): in the unit frame
    # its Jacobian is diag(2, 1, sqrt(5/2)) / sqrt(5/2) and it is flat
    pts = box_points(np.random.default_rng(16), 20, s_range=(1e-6, 4.0))
    jac, lap = ext_linear.jet(pts)
    want = np.diag([2.0, 1.0, math.sqrt(2.5)]) / math.sqrt(2.5)
    assert np.max(np.abs(jac - want)) < 1e-9
    assert np.max(np.abs(lap)) < 1e-9
