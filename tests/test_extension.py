import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qcflow import extension
from qcflow.boundary import (
    BoundaryMap,
    boundary_energy_density,
    boundary_jacobian,
    conjugate_boundary,
    into_block,
    make_boundary_map,
)
from qcflow.extension import (
    DEEP_HEIGHT,
    GoodExtension,
    QuadratureRule,
    _stein_weights,
    anchoring_isometry,
    check_partial_conformal_naturality,
    quasi_isometry_constants,
)
from qcflow.geometry import INFINITY, Mobius, dist
from qcflow.tension import (
    energy_density,
    good_set_membership,
    map_distortion,
    tension_from_jet,
    tension_norm,
)

from conftest import ISOMETRY_TAU_TOL, FDMap, box_points, jet


def test_quadrature_moments():
    q = QuadratureRule(2, 21)
    ones = np.ones(q.nodes.shape[0])
    assert abs(q.integrate(ones) - 1.0) < 1e-12
    assert abs(q.integrate(q.nodes[:, 0])) < 1e-10
    assert abs(q.integrate(q.nodes[:, 0] * q.nodes[:, 1])) < 1e-10
    assert abs(q.integrate(q.nodes[:, 0] ** 2) - 1.0) < 1e-10


@pytest.mark.parametrize("order", [21, 81])
def test_stein_d_ds_column_is_the_horizontal_laplacian(order):
    # the heat equation d_s G = s Delta_x G: the d/ds weights |Y|^2 - m are
    # the sum of the per-axis d^2/dx_i^2 weights Y_i^2 - 1, so the jet keeps
    # the columns value, d/dx_i, d/ds and d^2/ds^2 only (measured 3.5e-18)
    q = QuadratureRule(2, order)
    W = _stein_weights(q)
    assert W.shape == (q.weights.size, q.dim + 3)
    per_axis = (q.nodes**2 - 1.0) * q.weights[:, None]
    assert np.max(np.abs(W[:, q.dim + 1] - np.sum(per_axis, axis=-1))) < 1e-13


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
    one = GoodExtension(f_linear, INFINITY)([0.5, -0.5, 1.0])
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
    alt = V.inverse()(GoodExtension(f_conj)(V(pts)))
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
    I = Mobius.similarity(2.0, rot, np.array([0.5, -0.3]))
    J = Mobius.similarity(0.5, np.eye(2), np.array([1.0, 0.0]))
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
    I = Mobius.similarity(2.0, np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        check_partial_conformal_naturality(
            f_shear, I, I, np.zeros(2), INFINITY, np.zeros((1, 3))
        )


def test_anchoring_isometry_properties():
    for a in (np.zeros(2), np.array([1.5, -0.5])):
        M = anchoring_isometry(a, 3)
        assert M.boundary(a) is INFINITY
        assert np.allclose(M.boundary(INFINITY), 0.0, atol=1e-15)
    assert isinstance(anchoring_isometry(INFINITY, 3), Mobius)


def _translated(f, a):
    """x -> a + f(x - a), which fixes a when f fixes 0."""
    T = Mobius([("sim", 1.0, np.eye(2), a)])
    return conjugate_boundary(f, T, T, fixed_point=a)


@pytest.mark.parametrize("a", [np.zeros(2), np.array([0.3, -0.5]), np.array([1.5, 0.7])])
def test_anchored_extension_ignores_a_similarity_after_the_anchoring(
        a, f_linear, f_stretch, monkeypatch):
    # every isometry carrying a to infinity is S o anchoring_isometry(a) for
    # a similarity S; a scale and a shift map the tensor-product
    # Gauss-Hermite nodes of each window onto the nodes of the image window,
    # so G_a is unchanged to rounding (worst 2.7e-14 in distance, 3.7e-14 in
    # |tau| measured).  A rotation is left out: it turns the node grid, so
    # the values move by the quadrature error (0.11 in distance and 0.20 in
    # |tau| measured with the same S turned by 0.7 rad)
    S = Mobius([("sim", 1.7, np.eye(2), np.array([0.4, -1.1]))])
    pts = box_points(np.random.default_rng(21), 50) + np.append(a, 0.0)
    for f in (f_linear, f_stretch):
        ext = GoodExtension(_translated(f, a), anchor=a)
        with monkeypatch.context() as mp:
            mp.setattr(extension, "anchoring_isometry",
                       lambda b, n=3: S.compose(anchoring_isometry(b, n)))
            ext_s = GoodExtension(_translated(f, a), anchor=a)
        assert ext_s.mob.chain[-1][1] == 1.7
        assert float(np.max(dist(ext(pts), ext_s(pts)))) <= 1e-10
        assert float(np.max(np.abs(ext.tension_norm(pts) - ext_s.tension_norm(pts)))) <= 1e-10


def test_quasi_isometry_constants_isometry():
    th = 1.1
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    iso = Mobius.similarity(1.4, rot, np.array([0.7, 0.2]))
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


def _box_sample(k):
    return box_points(np.random.default_rng(0), k, box=1.5, s_range=(0.3, 3.0))


def test_tension_sup_estimate_cases(ext_linear):
    iso = Mobius.similarity(2.0, np.eye(2), np.zeros(2))
    assert np.max(tension_norm(iso, _box_sample(50))) <= ISOMETRY_TAU_TOL  # measured 0
    assert np.max(tension_norm(ext_linear, _box_sample(50))) < 1e-3
    f2 = make_boundary_map("radial_stretch", K=2.0)
    ext2 = GoodExtension(f2)
    v100 = np.max(tension_norm(ext2, _box_sample(100)))
    assert 1.0 < v100 < 5.0  # regression fixture: measured ~2.6


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
    test_pts = np.array([[0.9, 1.1, 1.0], [1.4, 0.7, 0.6], [1.1, 1.3, 1.6]])
    base_anchor = np.array([0.35, -0.15])

    def translated(c):
        shift = Mobius.similarity(1.0, np.eye(2), c)
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

    fd = FDMap(ext)  # central differences of ext itself, not its moment jet

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
    (_, ja, la, _), (_, jb, lb, _) = ext.jet(below), ext.jet(above)
    assert float(np.max(np.abs(ja - jb))) < 1e-5
    assert float(np.max(np.abs(la - lb))) < 1e-5
    ta, tb = ext.tension_norm(below), ext.tension_norm(above)
    assert float(np.max(np.abs(ta - tb))) < 1e-3 * float(np.max(tb))


def test_jet_of_linear_extension_is_exact(ext_linear):
    # the extension of diag(2, 1) is (Lx, sqrt(5/2) s): in the unit frame
    # its Jacobian is diag(2, 1, sqrt(5/2)) / sqrt(5/2) and it is flat
    pts = box_points(np.random.default_rng(16), 20, s_range=(1e-6, 4.0))
    _, jac, lap, _ = ext_linear.jet(pts)
    want = np.diag([2.0, 1.0, math.sqrt(2.5)]) / math.sqrt(2.5)
    assert np.max(np.abs(jac - want)) < 1e-9
    assert np.max(np.abs(lap)) < 1e-9


@pytest.mark.parametrize("anchor", [INFINITY, np.zeros(2)])
def test_tension_vector_is_the_jet_tuple_fed_to_tension_from_jet(f_stretch, anchor):
    # heights on both sides of DEEP_HEIGHT, so the deep and direct paths both run
    ext = GoodExtension(f_stretch, anchor=anchor)
    pts = box_points(np.random.default_rng(17), 30, box=1.0, s_range=(1e-6, 2.0))
    val, jac, lap, s_dom = ext.jet(pts)
    assert val.shape == pts.shape and s_dom.shape == pts.shape[:-1]
    assert np.all(val[:, :-1] == 0.0) and np.all(val[:, -1] == 1.0) and np.all(s_dom == 1.0)
    tau, norm = tension_from_jet(val, jac, lap, s_dom)
    tau_ext, norm_ext = ext.tension_vector(pts)
    assert np.array_equal(tau, tau_ext)
    assert np.array_equal(norm, norm_ext)


# ---------------------------------------------------------------------------
# the jet of the last batch is remembered


def _counting_stretch():
    """The K = 1.5 stretch, counting the points its evaluator and Jacobian are called at."""
    f = make_boundary_map("radial_stretch", K=1.5)
    seen = {"f": 0, "jac": 0}

    def counted(fn, key):
        def wrapped(x, out=None):
            seen[key] += int(np.prod(np.shape(x)[:-1]))
            return fn(x, out)
        return wrapped

    f = dataclasses.replace(f, evaluator=counted(f.evaluator, "f"),
                            jacobian=counted(f.jacobian, "jac"))
    return f, seen


def test_energy_distortion_and_tension_share_one_jet():
    # above DEEP_HEIGHT a jet evaluates f and its Jacobian at the Q = 441
    # nodes of each point once; the good set and the energy -> distortion
    # -> tension sequence of `qcflow extend` read one jet, not three
    f, seen = _counting_stretch()
    pts = box_points(np.random.default_rng(21), 40, box=1.0, s_range=(1e-3, 2.0))
    q = GoodExtension(f).quad.nodes.shape[0]
    assert q == 441
    good_set_membership(GoodExtension(f), 0.1, pts)
    assert seen == {"f": len(pts) * q, "jac": len(pts) * q}

    seen.update(f=0, jac=0)
    ext = GoodExtension(f)
    energy_density(ext, pts)
    map_distortion(ext, pts)
    tension_norm(ext, pts)
    assert seen == {"f": len(pts) * q, "jac": len(pts) * q}


def test_jet_of_a_changed_batch_is_computed_afresh():
    f, seen = _counting_stretch()
    ext = GoodExtension(f)
    pts = box_points(np.random.default_rng(22), 6, box=1.0, s_range=(1e-3, 2.0))
    per_batch = len(pts) * ext.quad.nodes.shape[0]
    first = ext.jet(pts)
    assert ext.jet(pts.copy()) is first
    assert seen["f"] == per_batch
    # one coordinate moved by one ulp
    nudged = pts.copy()
    nudged[2, 0] = np.nextafter(nudged[2, 0], np.inf)
    ext.jet(nudged)
    assert seen["f"] == 2 * per_batch
    # the same bytes in another shape
    _, jac, _, s_dom = ext.jet(nudged.reshape(3, 2, 3))
    assert seen["f"] == 3 * per_batch
    assert jac.shape == (3, 2, 3, 3) and s_dom.shape == (3, 2)
    # only the last batch is kept
    ext.jet(pts)
    assert seen["f"] == 4 * per_batch


@pytest.mark.parametrize("anchor", [INFINITY, np.zeros(2)], ids=["infinity", "finite"])
def test_memoised_jet_equals_a_fresh_extension(f_stretch, anchor):
    # heights on both sides of DEEP_HEIGHT, so the deep and direct paths both run
    pts = box_points(np.random.default_rng(23), 30, box=1.0, s_range=(1e-6, 2.0))
    ext = GoodExtension(f_stretch, anchor=anchor)
    first = ext.jet(pts)
    memo = ext.jet(pts)
    assert memo is first
    fresh = GoodExtension(f_stretch, anchor=anchor).jet(pts)
    for got, want in zip(memo, fresh):
        assert np.array_equal(got, want)


def test_jet_arrays_are_read_only(ext_linear):
    # callers share the remembered arrays, so none may write into them
    pts = box_points(np.random.default_rng(24), 5)
    for arr in ext_linear.jet(pts):
        with pytest.raises(ValueError):
            arr[...] = 0.0


# ---------------------------------------------------------------------------
# closed-form deep moments and the node sums they replace


def _node_sum_moments(quad, A, H, s):
    """Order-`quad.order` quadrature of the 2-jet model, contracted with the Stein weights.

    The reference for `GoodExtension._moments_deep`: e and (f(x0 + s y) - f(x0)) / s of
    the model f(x0) + A d + H[d, d] / 2, d = s y, at every node.
    """
    y = quad.nodes
    W = _stein_weights(quad)
    jmod = A[:, None] + s[:, None, None, None] * np.einsum("bijk,qk->bqij", H, y)
    u = np.einsum("bqij,qj->bqi", 0.5 * (A[:, None] + jmod), y)
    return np.sum(jmod**2, axis=(-2, -1)) @ W, np.einsum("bqg,qk->bgk", u, W[:, 1:])


def _quadratic_map(A, H):
    """The boundary map x -> A x + H[x, x] / 2, whose 2-jet at 0 is (A, H)."""
    return BoundaryMap(
        lambda x, out=None: into_block(out, x @ A.T + 0.5 * np.einsum("ijk,...j,...k->...i",
                                                                       H, x, x)),
        INFINITY, name="quadratic", dim=2,
        jacobian=lambda x, out=None: into_block(out, A + np.einsum("ijk,...k->...ij", H, x)),
        hessian=lambda x: np.broadcast_to(H, x.shape[:-1] + H.shape),
    )


def _deep_case(case, seed):
    """(extension, base points for `ext.f_inf`) with every height below DEEP_HEIGHT."""
    rng = np.random.default_rng(seed)
    s = np.repeat([1e-5, 3e-5, 9.9e-5], 20)
    if case == "random":
        A = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        H = rng.normal(size=(2, 2, 2))
        f = _quadratic_map(A, 0.5 * (H + np.swapaxes(H, -1, -2)))
        return GoodExtension(f), np.column_stack([np.zeros((len(s), 2)), s])
    if case == "stretch":
        ext = GoodExtension(make_boundary_map("radial_stretch", K=1.5))
    else:
        anchor = np.array([0.3, 0.0]) if case == "conjugated" else INFINITY
        ext = GoodExtension(make_boundary_map("shear", c=0.5), anchor=anchor)
    return ext, np.column_stack([rng.uniform(-1.0, 1.0, size=(len(s), 2)), s])


@pytest.mark.parametrize("case", ["random", "stretch", "shear", "conjugated"])
def test_closed_form_deep_moments_match_node_sum(case, monkeypatch):
    # "conjugated" is the shear carried by anchoring_isometry((0.3, 0)) to
    # fix infinity.  Order-21 Gauss-Hermite is exact on the model's moments,
    # so the two differ by rounding alone; a 20-seed sweep of the four cases
    # measured at most 3.2e-15 in the normalised moments, 3.3e-15 in jac
    # and 1.3e-15 in lap
    ext, pts = _deep_case(case, 18)
    x0, s0 = pts[:, :-1], pts[:, -1]
    A, H = boundary_jacobian(ext.f_inf, x0), ext.f_inf.hessian(x0)
    (me, mf), (re, rf) = ext._moments_deep(x0, s0), _node_sum_moments(ext.quad, A, H, s0)
    scale = np.sqrt(re[:, :1] / 2.0)
    assert float(np.max(np.abs(me - re) / re[:, :1])) < 1e-14
    assert float(np.max(np.abs(mf - rf) / scale[..., None])) < 1e-14

    jac, lap = ext._jet_unit_frame(pts)
    monkeypatch.setattr(
        GoodExtension, "_moments_deep",
        lambda self, x, s: _node_sum_moments(
            self.quad, boundary_jacobian(self.f_inf, x), self.f_inf.hessian(x), s),
    )
    ref_jac, ref_lap = ext._jet_unit_frame(pts)
    assert float(np.max(np.abs(jac - ref_jac))) < 1e-14
    assert float(np.max(np.abs(lap - ref_lap))) < 1e-14


def test_deep_jet_of_linear_map_is_exact(ext_linear):
    # the model of a linear map has H = 0, so below DEEP_HEIGHT every
    # second-derivative moment and every s-dependence vanish identically:
    # lap and tension are exactly 0, with no rounding noise, and the
    # unit-frame Jacobian is the same float at every height
    pts = box_points(np.random.default_rng(19), 40, s_range=(1e-7, 0.99 * DEEP_HEIGHT))
    _, jac, lap, _ = ext_linear.jet(pts)
    assert np.all(lap == 0.0)
    assert np.all(jac == jac[0])
    assert np.all(ext_linear.tension_norm(pts) == 0.0)


def test_direct_moments_are_the_node_contraction(ext_stretch):
    # the batched matmul is the plain node contraction.  The sums cancel
    # (their columns integrate constants to 0), so rtol is taken relative
    # to the sum of the terms' magnitudes; a 20-seed sweep of the stretch
    # and the shear measured at most 4.0e-16
    pts = box_points(np.random.default_rng(20), 50, s_range=(DEEP_HEIGHT, 2.0))
    x0, s0 = pts[:, :-1], pts[:, -1]
    mom_e, mom_f = ext_stretch._moments_direct(x0, s0)
    fv, e = ext_stretch._nodes_direct(x0, s0)
    W = ext_stretch._stein[:, 1:]
    ref = np.einsum("bqg,qk->bgk", fv, W) / s0[:, None, None]
    terms = np.einsum("bqg,qk->bgk", np.abs(fv), np.abs(W)) / s0[:, None, None]
    assert np.all(np.abs(mom_f - ref) <= 1e-14 * terms)
    np.testing.assert_array_equal(mom_e, e @ ext_stretch._stein)


def _row_major_oracle(f):
    """The extension of f with its quadrature samples and Jacobians in C order.

    The node pass as it ran before the samples were laid out component-major:
    (B, Q, m) samples x + s y_k and (..., m, m) Jacobians, each row-major.
    """
    g = dataclasses.replace(
        f, jacobian=lambda x, out=None: np.ascontiguousarray(f.jacobian(x, out)))
    ext = GoodExtension(g)

    def nodes_direct(x, s):
        args = x[:, None, :] + s[:, None, None] * np.ascontiguousarray(ext.quad.nodes)
        return g(args), boundary_energy_density(g, args)

    ext._nodes_direct = nodes_direct
    return ext


@pytest.mark.parametrize("name", ["f_stretch", "f_linear", "f_shear"])
def test_component_major_samples_keep_the_row_major_jet(name, request):
    # the jet's node contractions give the same bits whatever the layout;
    # __call__'s einsum may round differently (at most 8.9e-15 in a
    # coordinate, measured over three seeds of these points)
    f = request.getfixturevalue(name)
    pts = box_points(np.random.default_rng(23), 300, s_range=(1e-7, 4.0))
    deep = pts[:, -1] < DEEP_HEIGHT
    assert 0 < np.count_nonzero(deep) < len(pts)
    ext, oracle = GoodExtension(f), _row_major_oracle(f)
    for got, want in zip(ext.jet(pts), oracle.jet(pts)):
        assert got.tobytes() == want.tobytes()
    got, want = ext(pts), oracle(pts)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_node_pass_allocates_no_chunk_sized_arrays(f_stretch):
    # tracemalloc sees numpy's data buffers.  The node pass forms its
    # samples, values, Jacobians and energies in the workspace the extension
    # keeps, so once a first call has allocated it, a jet or an evaluation of
    # a new batch adds less than one (CHUNK, Q) float field to its outputs
    # (measured: 140 kB and 130 kB beyond them, against 226 kB)
    ext = GoodExtension(f_stretch)
    rng = np.random.default_rng(25)
    first, second = (box_points(rng, 400, box=1.0, s_range=(DEEP_HEIGHT, 2.0))
                     for _ in range(2))
    ext.jet(first)
    ext(first)
    field = extension.CHUNK * ext.quad.weights.size * 8
    for call in (ext.jet, ext):
        tracemalloc.start()
        try:
            result = call(second)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in (result if isinstance(result, tuple) else [result]))
        assert peak < outputs + field, call
