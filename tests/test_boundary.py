import numpy as np
import pytest

from qcflow.boundary import (
    BoundaryMap,
    MissingJetError,
    boundary_energy_density,
    boundary_jacobian,
    conjugate_boundary,
    into_block,
    make_boundary_map,
    singular_value_ratio,
)
from qcflow.extension import anchoring_isometry
from qcflow.geometry import INFINITY, Mobius, chain_rule, is_infinity


def test_eval_identity_and_linear():
    ident = make_boundary_map("identity")
    x = np.array([[0.3, -0.7], [2.0, 5.0]])
    assert np.allclose(ident(x), x)
    lin = make_boundary_map("linear", matrix=np.diag([2.0, 1.0]))
    assert np.allclose(lin(np.array([1.0, 1.0])), [2.0, 1.0])


def test_eval_radial_stretch():
    f = make_boundary_map("radial_stretch", K=2.0)
    assert np.allclose(f(np.array([1.0, 0.0])), [1.0, 0.0])
    assert np.allclose(f(np.array([2.0, 0.0])), [4.0, 0.0])
    assert np.allclose(f(np.zeros(2)), [0.0, 0.0])


def test_energy_density_constants():
    ident = make_boundary_map("identity")
    lin = make_boundary_map("linear", matrix=np.diag([2.0, 1.0]))
    x = np.array([[0.5, 0.5], [-1.0, 2.0], [3.0, 0.1]])
    assert np.allclose(boundary_energy_density(ident, x), 2.0, atol=1e-8)
    assert np.allclose(boundary_energy_density(lin, x), 5.0, atol=1e-7)


@pytest.mark.parametrize("shape", [(3, 5, 2), (2,), (0, 2)])
@pytest.mark.parametrize("name", ["identity", "linear"])
def test_affine_energy_is_the_per_node_sum_bit_for_bit(name, shape):
    # the squares 1e16, 1, 1, 1 sum to 1e16 left to right, each 1 rounding
    # away, and to more in any order that adds two ones first
    A = np.array([[1e8, 1.0], [1.0, -1.0]])
    f = make_boundary_map(name, **({"matrix": A} if name == "linear" else {}))
    x = np.random.default_rng(3).normal(size=shape)
    J = np.array(boundary_jacobian(f, x))
    want = np.square(J[..., 0, 0])
    for r in range(1, 4):
        want = want + np.square(J[..., r // 2, r % 2])
    for out in (None, np.full((5,) + shape[:-1], np.nan)):
        e = boundary_energy_density(f, x, out)
        assert e.shape == shape[:-1]
        assert np.array_equal(e, want)
        if out is not None:
            assert np.array_equal(out[-1], want)


def test_energy_density_radial_stretch():
    # polar-frame Jacobian of |x|^{K-1} x has singular values K|x|^{K-1}
    # and |x|^{K-1}; at K=2, |x|=1 the energy is 4 + 1
    f = make_boundary_map("radial_stretch", K=2.0)
    e = boundary_energy_density(f, np.array([1.0, 0.0]))
    assert e == pytest.approx(5.0, abs=1e-6)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 2))
    r = np.linalg.norm(x, axis=1)
    want = (2.0 * r) ** 2 + r**2  # K^2 r^{2(K-1)} + r^{2(K-1)} at K = 2
    assert np.allclose(boundary_energy_density(f, x), want, rtol=1e-6)


def test_distortion_estimates():
    ident = make_boundary_map("identity")
    lin = make_boundary_map("linear", matrix=np.diag([2.0, 1.0]))
    x = np.array([[0.5, -0.4], [1.0, 2.0]])
    assert np.allclose(singular_value_ratio(ident.jacobian(x)), 1.0, atol=1e-8)
    assert np.allclose(singular_value_ratio(lin.jacobian(x)), 2.0, atol=1e-8)


def test_singular_value_ratio_flags_non_finite_rows():
    # a NaN or inf entry gives nan for its row alone instead of an SVD
    # that does not converge; a singular row stays inf
    J = np.stack([np.diag([2.0, 1.0]), np.full((2, 2), np.nan), np.zeros((2, 2)),
                  np.array([[1.0, np.inf], [0.0, 1.0]])])
    got = singular_value_ratio(J)
    assert got[0] == pytest.approx(2.0)
    assert np.isnan(got[1]) and np.isnan(got[3])
    assert got[2] == np.inf


def test_distortion_radial_stretch_equals_K():
    f = make_boundary_map("radial_stretch", K=1.5)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 2)) * np.array([2.0, 0.5])
    x = x[np.linalg.norm(x, axis=1) > 0.05]
    assert np.allclose(singular_value_ratio(f.jacobian(x)), 1.5, atol=1e-4)


def test_shear_distortion_within_declared():
    f = make_boundary_map("shear", c=0.5)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 2)) * 2.0
    K = singular_value_ratio(f.jacobian(x))
    assert np.all(K <= f.declared_K * (1.0 + 1e-3))


def test_catalog_maps_fix_their_fixed_point_and_have_positive_energy():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2)) * 1.5
    for name, params in [("identity", {}), ("linear", {"matrix": np.diag([2.0, 1.0])}),
                         ("radial_stretch", {"K": 1.5}), ("shear", {"c": 0.5})]:
        f = make_boundary_map(name, **params)
        assert f.check_fixed_point()
        e = boundary_energy_density(f, x)
        assert np.all(e > 0.0)
        K = singular_value_ratio(f.jacobian(x))
        assert np.all(K <= f.declared_K * (1.0 + 1e-3))


def test_composition_submultiplicative_distortion():
    f = make_boundary_map("radial_stretch", K=1.5)
    g = make_boundary_map("shear", c=0.5)
    comp = BoundaryMap(lambda x, out=None: into_block(out, f(g(x))), INFINITY,
                       f.declared_K * g.declared_K, "comp", 2,
                       jacobian=lambda x, out=None: into_block(
                           out, f.jacobian(g(x)) @ g.jacobian(x)),
                       hessian=lambda x: chain_rule((f.jacobian(g(x)), f.hessian(g(x))),
                                                    (g.jacobian(x), g.hessian(x)))[1])
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 2)) * 1.5
    Kf = singular_value_ratio(f.jacobian(g(x)))
    Kg = singular_value_ratio(g.jacobian(x))
    Kc = singular_value_ratio(comp.jacobian(x))
    assert np.all(Kc <= Kf * Kg * (1.0 + 1e-3))


def test_conjugate_identity_cases():
    f = make_boundary_map("shear", c=0.5)
    ident = Mobius.identity(3)
    g = conjugate_boundary(f, ident, ident)
    x = np.random.default_rng(5).normal(size=(20, 2))
    assert np.allclose(g(x), f(x))
    fid = make_boundary_map("identity")
    I = Mobius.similarity(2.0, np.eye(2), np.array([1.0, 0.0]))
    gid = conjugate_boundary(fid, I, I)
    assert np.allclose(gid(x), x, atol=1e-12)


def test_conjugate_by_bare_isometry_fixing_infinity():
    # Mobius.similarity builds a one-similarity chain: it conjugates as it is
    # and agrees bit for bit with the hand-built chain
    f = make_boundary_map("radial_stretch", K=1.5)
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    b = np.array([0.4, -0.2])
    I = Mobius.similarity(1.6, rot, b)
    M = Mobius([("sim", 1.6, rot, b)])
    g, h = conjugate_boundary(f, I, I), conjugate_boundary(f, M, M)
    assert is_infinity(g.fixed_point)
    x = np.random.default_rng(21).normal(size=(40, 2))
    assert np.array_equal(g(x), h(x))
    assert np.array_equal(g.jacobian(x), h.jacobian(x))
    assert np.array_equal(g.hessian(x), h.hessian(x))


def test_conjugate_preserves_distortion():
    f = make_boundary_map("radial_stretch", K=1.5)
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    I = Mobius.similarity(1.6, rot, np.array([0.4, -0.2]))
    J = Mobius.similarity(0.8, np.eye(2), np.array([-1.0, 0.3]))
    g = conjugate_boundary(f, I, J)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 2)) * 1.5
    # distortion of the conjugate at x equals distortion of f at J^{-1}(x)
    base = singular_value_ratio(f.jacobian(J.inverse().boundary_array(x)))
    assert np.allclose(singular_value_ratio(g.jacobian(x)), base, atol=1e-6)


def test_conjugate_tracks_singular_points():
    f = make_boundary_map("radial_stretch", K=1.5)
    I = Mobius.similarity(1.0, np.eye(2), np.array([2.0, 0.0]))
    g = conjugate_boundary(f, I, I)
    assert any(np.allclose(s, [2.0, 0.0]) for s in g.singular_points)


def test_jacobian_shape_and_nudge_at_origin():
    f = make_boundary_map("radial_stretch", K=1.5)
    J = boundary_jacobian(f, np.zeros((3, 2)))
    assert J.shape == (3, 2, 2)
    assert np.all(np.isfinite(J))


def test_unknown_catalog_name_rejected():
    with pytest.raises(KeyError):
        make_boundary_map("mystery")


def test_boundary_map_without_jet_is_rejected():
    with pytest.raises(MissingJetError, match="'bare'"):
        BoundaryMap(lambda x: x, INFINITY, 1.0, "bare", 2)
    with pytest.raises(ValueError, match="jacobian and hessian"):
        BoundaryMap(lambda x: x, INFINITY, 1.0, "half", 2, jacobian=lambda x: x)


# ---------------------------------------------------------------------------
# exact jets against a central-difference oracle

def fd_jacobian(f, x, h):
    m = x.shape[-1]
    J = np.empty(x.shape + (m,))
    for j in range(m):
        step = h * np.eye(m)[j]
        J[..., :, j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return J


def fd_hessian(f, x, h):
    m = x.shape[-1]
    H = np.empty(x.shape + (m, m))
    for j in range(m):
        sj = h * np.eye(m)[j]
        for k in range(m):
            sk = h * np.eye(m)[k]
            H[..., :, j, k] = (f(x + sj + sk) - f(x + sj - sk) - f(x - sj + sk)
                               + f(x - sj - sk)) / (4.0 * h * h)
    return H


def _rel_err(exact, approx, scale):
    """Worst entry error per point over the point's largest jet entry."""
    axes = tuple(range(1, exact.ndim))
    return float(np.max(np.max(np.abs(exact - approx), axis=axes) / scale))


def _jet_maps():
    catalog = {
        "identity": make_boundary_map("identity"),
        "linear": make_boundary_map("linear", matrix=np.array([[2.0, 0.3], [-0.1, 1.0]])),
        "radial_stretch[1.5]": make_boundary_map("radial_stretch", K=1.5),
        "radial_stretch[2]": make_boundary_map("radial_stretch", K=2.0),
        "shear": make_boundary_map("shear", c=0.5),
    }
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    iso = Mobius.similarity(1.6, rot, np.array([0.4, -0.2]))
    anchor = anchoring_isometry(np.array([0.3, -0.5]), 3)  # a chain with an inversion
    assert any(prim[0] == "inv" for prim in anchor.chain)
    maps = dict(catalog)
    for name, f in catalog.items():
        maps[f"iso({name})"] = conjugate_boundary(f, iso, iso)
        maps[f"anchor({name})"] = conjugate_boundary(f, anchor, anchor)
    return maps


# Calibration sweep of the oracle step h: worst relative error (`_rel_err`)
# over the 15 maps of `_jet_maps` on the points of the test below.
#
#   h            1e-3     1e-4     1e-5     1e-6     1e-7
#   Jacobian     4.5e-5   4.5e-7   4.5e-9   2.3e-9   1.6e-8
#   h            1e-2     1e-3     1e-4     1e-5
#   Hessian      1.7e-2   1.7e-4   1.7e-6   1.9e-5
#
# The error falls as h^2 (truncation) down to the rounding floor, eps/h for
# J and eps/h^2 for H; the worst maps are the anchored conjugates, whose
# jets vary on the unit scale of the inversion.  Each step is the one with
# the least worst error, and each tolerance is about 4x that error.  The
# exact H is symmetric in its last two axes to 3.2e-15 (worst, same scale).
ORACLE_STEP_J, ORACLE_TOL_J = 1e-6, 1e-8
ORACLE_STEP_H, ORACLE_TOL_H = 1e-4, 7e-6


@pytest.mark.parametrize("name", sorted(_jet_maps()))
def test_exact_jet_matches_central_differences(name):
    f = _jet_maps()[name]
    x = np.random.default_rng(7).normal(size=(200, 2)) * 1.5
    for sp in f.singular_points:
        x = x[np.linalg.norm(x - sp, axis=-1) > 0.2]
    J = boundary_jacobian(f, x)
    H = f.hessian(x)
    assert J.shape == (len(x), 2, 2) and H.shape == (len(x), 2, 2, 2)
    scale_j = np.max(np.abs(J), axis=(1, 2))
    scale_h = np.maximum(np.max(np.abs(H), axis=(1, 2, 3)), scale_j)
    assert _rel_err(J, fd_jacobian(f, x, ORACLE_STEP_J), scale_j) < ORACLE_TOL_J
    assert _rel_err(H, fd_hessian(f, x, ORACLE_STEP_H), scale_h) < ORACLE_TOL_H
    assert _rel_err(H, np.swapaxes(H, -1, -2), scale_h) < 1e-13


@pytest.mark.parametrize("K", [1.0, 1.25, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_radial_stretch_energy_closed_form(K, dim):
    f = make_boundary_map("radial_stretch", K=K, dim=dim)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(500, dim)) * np.exp(rng.uniform(-3.0, 3.0, size=(500, 1)))
    r = np.linalg.norm(x, axis=-1)
    want = (dim - 1 + K * K) * r ** (2.0 * (K - 1.0))
    assert np.max(np.abs(boundary_energy_density(f, x) / want - 1.0)) < 1e-14


def test_radial_stretch_jet_at_origin():
    for K, J0 in [(1.5, np.zeros((2, 2))), (2.0, np.zeros((2, 2))), (1.0, np.eye(2))]:
        f = make_boundary_map("radial_stretch", K=K)
        assert np.array_equal(boundary_jacobian(f, np.zeros(2)), J0)
        assert np.array_equal(f.hessian(np.zeros(2)), np.zeros((2, 2, 2)))


def test_conjugate_jet_is_non_finite_at_the_pole():
    f = make_boundary_map("shear", c=0.5)
    inv = Mobius.inversion(3)
    g = conjugate_boundary(f, inv, inv)
    assert any(np.array_equal(s, np.zeros(2)) for s in g.singular_points)
    assert not np.any(np.isfinite(boundary_jacobian(g, np.zeros(2))))
    assert not np.any(np.isfinite(g.hessian(np.zeros(2))))
