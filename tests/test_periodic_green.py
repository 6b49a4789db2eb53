import numpy as np
import pytest

from metastrain import PeriodicKernel
from metastrain.errors import LatticePointError

ORIGIN = np.zeros(2)


def test_half_period_value_is_zero():
    k = PeriodicKernel(1.0)
    assert k.green([0.5, 0.0], ORIGIN) == pytest.approx(0.0, abs=1e-15)


def test_vertical_reduction():
    # on the axis xi1 = zeta1 the formula reduces to (1/2pi) ln sinh(pi t / L)
    k = PeriodicKernel(1.3)
    for t in (0.2, 0.9, 2.5):
        expected = np.log(np.sinh(np.pi * t / 1.3)) / (2 * np.pi)
        assert k.green([0.0, t], ORIGIN) == pytest.approx(expected, abs=1e-15)


def test_periodicity_and_symmetry():
    k = PeriodicKernel(0.8)
    xi, zeta = np.array([0.21, 0.34]), np.array([-0.05, 0.11])
    assert k.green(xi + [0.8, 0.0], zeta) == pytest.approx(k.green(xi, zeta), abs=1e-14)
    assert k.green(xi, zeta) == pytest.approx(k.green(zeta, xi), abs=1e-16)


def test_lattice_point_rejected():
    k = PeriodicKernel(1.0)
    with pytest.raises(LatticePointError):
        k.green([2.0, 0.0], ORIGIN)
    with pytest.raises(LatticePointError):
        k.grad_green([0.0, 0.0], ORIGIN)


def test_fd_laplacian_vanishes():
    # oracle: five-point Laplacian at an off-lattice point, O(h^2) convergence
    k = PeriodicKernel(1.0)
    p = np.array([0.23, 0.37])
    value = lambda q: k.green(q, ORIGIN)
    residuals = []
    for h in (2e-3, 1e-3):
        lap = (value(p + [h, 0]) + value(p - [h, 0]) + value(p + [0, h])
               + value(p - [0, h]) - 4 * value(p)) / h**2
        residuals.append(abs(lap))
    assert residuals[0] < 1e-4
    assert residuals[1] < 1e-5
    # halving h divides the residual by about 4
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.3)


def test_gradient_matches_central_differences():
    k = PeriodicKernel(1.0)
    p = np.array([0.23, 0.37])
    g = k.grad_green(p, ORIGIN)
    h = 1e-5
    fd = np.array([
        (k.green(p + [h, 0], ORIGIN) - k.green(p - [h, 0], ORIGIN)) / (2 * h),
        (k.green(p + [0, h], ORIGIN) - k.green(p - [0, h], ORIGIN)) / (2 * h),
    ])
    assert np.abs(g - fd).max() < 1e-9


def test_gradient_extremum_at_half_period():
    k = PeriodicKernel(1.0)
    g = k.grad_green([0.5, 0.2], ORIGIN)
    assert abs(g[0]) < 1e-15


def test_gradient_far_field_limit():
    k = PeriodicKernel(1.0)
    g = k.grad_green([0.1, 12.0], ORIGIN)
    assert g[0] == pytest.approx(0.0, abs=1e-14)
    assert g[1] == pytest.approx(1 / 2.0, abs=1e-14)
    g_down = k.grad_green([0.1, -12.0], ORIGIN)
    assert g_down[1] == pytest.approx(-1 / 2.0, abs=1e-14)


def test_far_field_constant_and_antisymmetry():
    k = PeriodicKernel(1.0)
    assert k.far_field(0.0) == pytest.approx(-np.log(2) / (2 * np.pi), abs=1e-16)
    assert k.far_field(0.0) == pytest.approx(-0.110318, abs=1e-6)
    # linear part flips sign, total is even in the separation
    assert k.far_field(3.7) == k.far_field(-3.7)


def test_far_field_agreement():
    k = PeriodicKernel(1.0)
    # below the overflow guard the direct formula is active
    direct = k.green([0.0, 8.0], ORIGIN)
    assert abs(direct - k.far_field(8.0)) < 1e-15
    # beyond the guard the far-field path takes over smoothly
    assert abs(k.green([0.0, 10.5], ORIGIN) - k.far_field(10.5)) == 0.0
    assert abs(k.green([0.3, 40.0], ORIGIN) - k.far_field(40.0)) == 0.0


def test_local_singularity_constant():
    # G - (1/2pi) ln|xi| -> (1/2pi) ln(pi/L)
    for L in (1.0, 2.5):
        k = PeriodicKernel(L)
        expected = np.log(np.pi / L) / (2 * np.pi)
        for r in (1e-3, 1e-4, 1e-5, 1e-6):
            d = np.array([r / np.sqrt(2), r / np.sqrt(2)])
            assert k.green(d, ORIGIN) - np.log(r) / (2 * np.pi) == pytest.approx(
                expected, abs=1e-7)


def test_remainder_value_and_smoothness():
    k = PeriodicKernel(1.4)
    expected0 = np.log(np.pi / 1.4) / (2 * np.pi)
    assert k.remainder(ORIGIN, ORIGIN) == pytest.approx(expected0, abs=1e-16)
    # remainder agrees with G minus the free-space log away from zero
    xi = np.array([0.2, 0.1])
    free = np.log(np.hypot(*xi)) / (2 * np.pi)
    assert k.remainder(xi, ORIGIN) == pytest.approx(k.green(xi, ORIGIN) - free, abs=1e-15)
    # continuous through the origin
    assert k.remainder([1e-9, 0.0], ORIGIN) == pytest.approx(expected0, abs=1e-9)


@pytest.mark.parametrize("L", [0.1, 1.0, 1.4])
def test_remainder_continuous_across_far_field_guard(L):
    # |pi xi2 / L| = 30 switches to the far-field form; R = G - (1/2pi) ln|xi|
    # must not jump there, for any period
    k = PeriodicKernel(L)
    xi2 = 30.0 * L / np.pi
    below = k.remainder([0.1 * L, xi2 * (1 - 1e-12)], ORIGIN)
    above = k.remainder([0.1 * L, xi2 * (1 + 1e-12)], ORIGIN)
    assert above == pytest.approx(below, abs=1e-9)
    free = np.log(np.hypot(0.1 * L, xi2)) / (2 * np.pi)
    assert above == pytest.approx(k.green([0.1 * L, xi2], ORIGIN) - free, abs=1e-9)


def test_remainder_gradient_matches_fd():
    from metastrain.periodic_green import (
        remainder_from_delta,
        remainder_gradient_from_delta,
    )

    L = 1.3
    z = 0.21 + 0.13j
    h = 1e-6
    g = remainder_gradient_from_delta(np.array([z]), L)[0]
    fd1 = (remainder_from_delta(np.array([z + h]), L)[0]
           - remainder_from_delta(np.array([z - h]), L)[0]) / (2 * h)
    fd2 = (remainder_from_delta(np.array([z + 1j * h]), L)[0]
           - remainder_from_delta(np.array([z - 1j * h]), L)[0]) / (2 * h)
    assert abs(g.real - fd1) < 1e-9
    assert abs(g.imag - fd2) < 1e-9
    # gradient vanishes at zero separation (even remainder)
    assert remainder_gradient_from_delta(np.array([0.0 + 0.0j]), L)[0] == 0.0


def test_exponential_approach_rate():
    # fit the decay rate of |G - far_field|, expect 2*pi/L within 5 percent
    for L in (1.0, 1.6):
        k = PeriodicKernel(L)
        ts = np.array([0.35, 0.5, 0.65, 0.8]) * L
        gaps = np.array([abs(k.green([0.11, t], ORIGIN) - k.far_field(t)) for t in ts])
        rate = -np.polyfit(ts, np.log(gaps), 1)[0]
        assert rate == pytest.approx(2 * np.pi / L, rel=0.05)


def test_invalid_period():
    with pytest.raises(ValueError):
        PeriodicKernel(0.0)
    with pytest.raises(ValueError):
        PeriodicKernel(-2.0)
