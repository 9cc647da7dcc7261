import math

import numpy as np
import pytest

from qcflow.greens import (
    C_GREEN,
    distance_laplacian_check,
    epsilon0,
    green,
    green_lower_bound_check,
    green_volume_integral,
)
from qcflow.geometry import IsometryFixingInfinity

from conftest import box_points


def calibrate_green_constant(r_list=(0.9, 0.99, 0.999, 1.0), n=3):
    """Sweep minimum of g_r(rho) rho^{n-2} / (1-rho^2)^{n-1} on (0, 0.9 r]."""
    worst = math.inf
    for r in r_list:
        rho = np.linspace(1e-4, 0.9 * r, 2000)
        g = green(r, rho, n)
        ratio = g * rho ** (n - 2) / (1.0 - rho**2) ** (n - 1)
        worst = min(worst, float(np.min(ratio)))
    return worst


def test_green_closed_form_unit_ball():
    # antiderivative of (1-s^2)/s^2 is -1/s - s, so g_1(rho) = (1-rho)^2/(3 rho)
    rho = np.linspace(0.05, 0.95, 40)
    want = (1.0 - rho) ** 2 / (3.0 * rho)
    assert np.allclose(green(1.0, rho), want, atol=1e-14)
    assert green(1.0, 0.5) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_green_vanishes_at_radius_and_beyond():
    assert green(0.7, 0.7) == 0.0
    assert green(0.7, 0.9) == 0.0
    assert math.isinf(green(0.5, 0.0))


def test_green_quadrature_matches_closed_form():
    rng = np.random.default_rng(0)
    from qcflow.greens import _panel_quad

    for _ in range(20):
        r = rng.uniform(0.3, 1.0)
        rho = rng.uniform(0.01, r * 0.99)
        edges = np.geomspace(rho, r, 65)
        quad = _panel_quad(lambda s: (1.0 - s**2) / s**2, edges) / 3.0
        assert green(r, rho) == pytest.approx(quad, abs=1e-10)


def test_green_monotone_decreasing():
    rho = np.linspace(0.05, 0.89, 60)
    g = green(0.9, rho)
    assert np.all(np.diff(g) < 0.0)


def test_green_lower_bound_sweep():
    c_min = calibrate_green_constant()
    assert C_GREEN <= c_min
    for r in (0.9, 0.99, 1.0):
        rho = np.linspace(1e-3, 0.9 * r, 300)
        lhs, rhs, holds = green_lower_bound_check(r, rho)
        assert holds
    # both sides vanish together as rho -> r
    lhs, rhs, _ = green_lower_bound_check(1.0, np.array([0.999]))
    assert lhs[0] < 1e-5 and rhs[0] < 1e-5


def test_green_lower_bound_dimension_four():
    rho = np.linspace(1e-3, 0.81, 200)
    lhs, rhs, holds = green_lower_bound_check(0.9, rho, n=4)
    assert holds


def test_volume_integral_growth():
    vals = [green_volume_integral(r) for r in (0.9, 0.99, 0.999)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert green_volume_integral(0.2) > 0.0
    for r, v in zip((0.9, 0.99, 0.999), vals):
        assert v / math.log(1.0 / (1.0 - r * r)) >= 3.0 * C_GREEN / 2.0


def test_epsilon0():
    assert epsilon0(2.0, 8.0) == pytest.approx(math.tanh(0.25), abs=1e-15)
    assert epsilon0(2.0, 16.0) == pytest.approx(2.0 * epsilon0(2.0, 8.0))
    with pytest.raises(ValueError):
        epsilon0(2.0, 0.0)


def test_distance_laplacian_equal_maps_skipped():
    iso = IsometryFixingInfinity(1.3, np.eye(2), np.zeros(2)).apply
    pts = np.array([[0.2, 0.1, 1.0]])
    lap, rhs, holds, skipped = distance_laplacian_check(iso, iso, pts)
    assert skipped[0] and holds[0]


def test_distance_laplacian_isometry_pair():
    # two distinct isometries: both tensions vanish so the bound is zero,
    # and the squared distance of two isometries is convex
    A = IsometryFixingInfinity(2.0, np.eye(2), np.zeros(2)).apply
    B = IsometryFixingInfinity(1.0, np.eye(2), np.array([1.0, 0.0])).apply
    rng = np.random.default_rng(1)
    pts = box_points(rng, 60)
    lap, rhs, holds, skipped = distance_laplacian_check(A, B, pts)
    assert np.all(holds)
    assert np.all(np.abs(rhs[~skipped]) < 1e-3)
    assert np.all(lap[~skipped] >= -1e-3)


def test_distance_laplacian_extension_pair(ext_linear, ext_stretch):
    rng = np.random.default_rng(2)
    pts = box_points(rng, 100, box=1.5, s_range=(0.4, 3.0))
    lap, rhs, holds, skipped = distance_laplacian_check(ext_stretch, ext_linear, pts)
    assert np.mean(holds) >= 0.99
