import math

import numpy as np
import pytest

from qcflow.heatkernel import (
    C3_SANDWICH,
    C3_TAIL,
    AnnulusSpec,
    RadialKernel,
    RadialProfile,
    annulus_average_bounds,
    annulus_tail_mass,
    gaussian_profile,
    l_of_eps,
    peak_location,
    reduce_to_annulus,
    sphere_area,
)

KERNEL = RadialKernel(3)


# recalibration sweeps that pin C3_TAIL and C3_SANDWICH

def calibrate_tail_constant(eps_list=(0.1, 0.01), t_list=(4.0, 16.0, 64.0), n=3):
    """Smallest C with tail(t, l_C(eps)) < eps across the sweep (bisection).

    The tail is decreasing in l and l is increasing in C, so feasibility
    is monotone in C.
    """

    def feasible(C):
        for eps in eps_list:
            if eps >= C:
                return False
            l = l_of_eps(eps, C)
            for t in t_list:
                if annulus_tail_mass(t, l, n) >= eps:
                    return False
        return True

    lo, hi = 0.02, 16.0
    if not feasible(hi):
        raise RuntimeError("tail constant calibration failed at upper bracket")
    for _ in range(48):
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def calibrate_sandwich_constant(t_list=(8.0, 16.0, 64.0), l_list=(1.0, 2.0), n=3):
    """Max two-sided annulus/Gaussian ratio bound over a profile sweep."""
    profiles = [
        lambda r: np.ones_like(np.asarray(r, dtype=float)),
        lambda r: np.asarray(r, dtype=float) * 0.0 + 2.5,
    ]
    worst = 1.0
    for t in t_list:
        for l in l_list:
            if t < 2.0 * l * l:
                continue
            for Phi in profiles:
                res = annulus_average_bounds(Phi, t, l, n)
                ratio = res["ratio"]
                worst = max(worst, ratio, 1.0 / ratio)
    return worst


def pde_residual(rho, t):
    """Relative residual of d_t H = d_rho^2 H + 2 coth(rho) d_rho H.

    Fourth-order central differences; independent of the closed form's
    own derivation.  Steps balance the h^4 truncation (which grows with
    the log-derivative scales of the kernel) against the value-rounding
    floor eps |log H| / h^2.
    """
    Lr = 1.0 + rho / (2.0 * t)
    Lt = 1.0 + 1.5 / t + rho**2 / (4.0 * t**2)
    hr = 3e-3 / Lr ** (2.0 / 3.0)
    ht = min(3e-3 / Lt ** (2.0 / 3.0), 0.4 * t)
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * hr * hr)
    rows = rho + hr * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    d2 = float(c2 @ KERNEL.density(rows, t))
    c1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * hr)
    d1 = float(c1 @ KERNEL.density(rho + hr * np.array([-2.0, -1.0, 1.0, 2.0]), t))
    ct = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * ht)
    dt = float(
        ct
        @ np.array([KERNEL.density(rho, t + k * ht) for k in (-2.0, -1.0, 1.0, 2.0)])
    )
    return (dt - (d2 + 2.0 / math.tanh(rho) * d1)) / KERNEL.density(rho, t)


def test_kernel_positive_and_rejects_bad_t():
    rho = np.linspace(0.0, 30.0, 100)
    assert np.all(KERNEL.density(rho, 2.0) > 0.0)
    with pytest.raises(ValueError):
        KERNEL.density(1.0, 0.0)
    with pytest.raises(NotImplementedError):
        RadialKernel(4).density(1.0, 1.0)


def test_total_mass_normalised():
    for t in (0.1, 1.0, 10.0, 50.0):
        assert KERNEL.total_mass(t) == pytest.approx(1.0, abs=1e-6)


def test_small_rho_series_branch():
    # the rho/sinh(rho) factor switches to its series below 1e-6
    a = KERNEL.density(5e-7, 1.0)
    b = KERNEL.density(2e-6, 1.0)
    assert a == pytest.approx(b, rel=1e-6)


def test_radial_pde_residual():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.2, 5.0)
        rho = rng.uniform(0.1, 2.0 * t + 8.0 * math.sqrt(t) + 2.0)
        worst = max(worst, abs(pde_residual(rho, t)))
    assert worst < 1e-6


def test_envelope_sandwich():
    for t in (1.0, 4.0, 25.0):
        rho = np.linspace(1e-3, (3 - 1) * t + 14 * math.sqrt(t), 800)
        lo, up = KERNEL.envelope(rho, t)
        d = KERNEL.density(rho, t)
        assert np.all(lo <= d)
        assert np.all(d <= up)


def test_annulus_spec_arithmetic():
    spec = AnnulusSpec(25.0, 2.0, 3)
    assert spec.r_in == pytest.approx(40.0)
    assert spec.r_out == pytest.approx(60.0)


def test_tail_with_zero_width_is_total_mass():
    assert annulus_tail_mass(4.0, 0.0) == pytest.approx(1.0, abs=1e-6)


def test_tail_monotone_in_width():
    tails = [annulus_tail_mass(16.0, l) for l in (0.5, 1.0, 2.0, 3.0)]
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_calibrated_tail_constant_feasible_and_pinned_above_minimum():
    c_min = calibrate_tail_constant()
    assert c_min <= C3_TAIL
    for t in (4.0, 16.0, 64.0):
        for eps in (0.1, 0.01):
            assert annulus_tail_mass(t, l_of_eps(eps)) < eps


def test_l_of_eps_rejects_eps_above_constant():
    with pytest.raises(ValueError):
        l_of_eps(C3_TAIL * 2.0)


def test_ballistic_peak_location():
    for t in (4.0, 16.0, 64.0):
        pk = peak_location(t)
        assert abs(pk - 2.0 * t) <= 2.0 * math.sqrt(t)


def test_gaussian_profile_converges():
    r = np.linspace(-3.0, 3.0, 61)
    p16 = gaussian_profile(16.0, r)
    p64 = gaussian_profile(64.0, r)
    assert float(np.max(np.abs(p16 - p64))) < 0.05


def test_sandwich_constant_and_bounds():
    worst = calibrate_sandwich_constant()
    assert worst <= C3_SANDWICH
    res = annulus_average_bounds(lambda r: np.ones_like(np.asarray(r, float)),
                                 16.0, 2.0)
    assert res["sandwich_holds"]
    assert res["annulus_integral"] > 0.0
    zero = annulus_average_bounds(lambda r: np.zeros_like(np.asarray(r, float)),
                                  16.0, 2.0)
    assert zero["annulus_integral"] == pytest.approx(0.0, abs=1e-15)
    assert zero["gauss_integral"] == pytest.approx(0.0, abs=1e-15)


def test_sandwich_indicator_profile():
    spec = AnnulusSpec(16.0, 2.0, 3)
    mid = 0.5 * (spec.r_in + spec.r_out)

    def inner_half(r):
        r = np.asarray(r, dtype=float)
        return ((r >= spec.r_in) & (r <= mid)).astype(float)

    res = annulus_average_bounds(inner_half, 16.0, 2.0)
    assert res["sandwich_holds"]
    assert 0.0 < res["annulus_integral"]


def test_sandwich_hypotheses_enforced():
    one = lambda r: np.ones_like(np.asarray(r, float))
    with pytest.raises(ValueError):
        annulus_average_bounds(one, 16.0, 0.5)  # l < 1
    with pytest.raises(ValueError):
        annulus_average_bounds(one, 4.0, 2.0)  # t < 2 l^2


def test_reduce_to_annulus_zero_and_constant():
    zero = lambda r: np.zeros_like(np.asarray(r, float))
    bound, full, holds = reduce_to_annulus(zero, 16.0, 0.1)
    assert bound == pytest.approx(0.1)
    assert full == pytest.approx(0.0, abs=1e-15)
    assert holds

    c = 2.5
    const = lambda r: np.full_like(np.asarray(r, float), c)
    bound, full, holds = reduce_to_annulus(const, 16.0, 0.1)
    assert full == pytest.approx(c, abs=1e-6)  # kernel mass is one
    assert holds and bound >= c


def test_reduce_to_annulus_bump_profile():
    spec = AnnulusSpec(64.0, l_of_eps(0.1), 3)
    mid = 0.5 * (spec.r_in + spec.r_out)
    bump = lambda r: 3.0 * np.exp(-((np.asarray(r, float) - mid) ** 2) / 16.0)
    bound, full, holds = reduce_to_annulus(bump, 64.0, 0.1)
    assert holds


def test_reduce_to_annulus_hypothesis_enforced():
    one = lambda r: np.ones_like(np.asarray(r, float))
    with pytest.raises(ValueError):
        reduce_to_annulus(one, 4.0, 0.1)  # t < 2 l(eps)^2


def test_radial_profile_type():
    prof = RadialProfile(lambda r: np.minimum(np.asarray(r, float), 2.0), 2.0)
    v = prof(np.array([1.0, 5.0]))
    assert np.all(v <= prof.sup_bound)


def test_sphere_area_values():
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
