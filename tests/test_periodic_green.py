"""The lattice Green's function G (``layer_ops.value_from_delta``) and its oracles.

Separations are complex, delta = dxi1 + i*dxi2.
"""

import numpy as np
import pytest

from metastrain.layer_ops import value_from_delta

from lattice_oracles import gradient_from_delta, remainder_from_delta, remainder_gradient_from_delta


def G(delta, L=1.0):
    return float(value_from_delta(delta, L))


def R(delta, L=1.0):
    return float(remainder_from_delta(delta, L))


def far_field(t, L=1.0):
    """|xi2|/(2L) - ln(2)/(2pi), the large-|xi2| limit of G."""
    return abs(t) / (2.0 * L) - np.log(2.0) / (2.0 * np.pi)


def test_half_period_value_is_zero():
    assert G(0.5) == pytest.approx(0.0, abs=1e-15)


def test_vertical_reduction():
    # on the axis xi1 = zeta1 the formula reduces to (1/2pi) ln sinh(pi t / L)
    for t in (0.2, 0.9, 2.5):
        expected = np.log(np.sinh(np.pi * t / 1.3)) / (2 * np.pi)
        assert G(1j * t, 1.3) == pytest.approx(expected, abs=1e-15)


def test_periodicity_and_symmetry():
    xi, zeta = 0.21 + 0.34j, -0.05 + 0.11j
    assert G(xi + 0.8 - zeta, 0.8) == pytest.approx(G(xi - zeta, 0.8), abs=1e-14)
    assert G(xi - zeta, 0.8) == pytest.approx(G(zeta - xi, 0.8), abs=1e-16)


def test_fd_laplacian_vanishes():
    # oracle: five-point Laplacian at an off-lattice point, O(h^2) convergence
    p = 0.23 + 0.37j
    residuals = []
    for h in (2e-3, 1e-3):
        lap = (G(p + h) + G(p - h) + G(p + 1j * h) + G(p - 1j * h) - 4 * G(p)) / h**2
        residuals.append(abs(lap))
    assert residuals[0] < 1e-4
    assert residuals[1] < 1e-5
    # halving h divides the residual by about 4
    assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.3)


def test_gradient_matches_central_differences():
    p = 0.23 + 0.37j
    g = gradient_from_delta(p, 1.0)
    h = 1e-5
    assert abs(g.real - (G(p + h) - G(p - h)) / (2 * h)) < 1e-9
    assert abs(g.imag - (G(p + 1j * h) - G(p - 1j * h)) / (2 * h)) < 1e-9


def test_gradient_extremum_at_half_period():
    assert abs(gradient_from_delta(0.5 + 0.2j, 1.0).real) < 1e-15


def test_gradient_far_field_limit():
    g = gradient_from_delta(0.1 + 12.0j, 1.0)
    assert g.real == pytest.approx(0.0, abs=1e-14)
    assert g.imag == pytest.approx(1 / 2.0, abs=1e-14)
    assert gradient_from_delta(0.1 - 12.0j, 1.0).imag == pytest.approx(-1 / 2.0, abs=1e-14)


def test_far_field_constant_and_antisymmetry():
    # beyond the guard |pi xi2 / L| = 30, G is the far field itself
    for t in (10.5, 40.0):
        assert G(1j * t) == t / 2.0 - np.log(2) / (2 * np.pi)
    assert G(10.5j) - 10.5 / 2.0 == pytest.approx(-0.110318, abs=1e-6)
    # linear part flips sign, total is even in the separation
    assert G(3.7j) == G(-3.7j)
    assert G(12.0j) == G(-12.0j)


def test_far_field_agreement():
    # below the overflow guard the direct formula is active
    assert abs(G(8.0j) - far_field(8.0)) < 1e-15
    # beyond the guard the far-field path takes over smoothly
    assert abs(G(10.5j) - far_field(10.5)) == 0.0
    assert abs(G(0.3 + 40.0j) - far_field(40.0)) == 0.0


def test_local_singularity_constant():
    # G - (1/2pi) ln|xi| -> (1/2pi) ln(pi/L)
    for L in (1.0, 2.5):
        expected = np.log(np.pi / L) / (2 * np.pi)
        for r in (1e-3, 1e-4, 1e-5, 1e-6):
            d = r / np.sqrt(2) * (1 + 1j)
            assert G(d, L) - np.log(r) / (2 * np.pi) == pytest.approx(expected, abs=1e-7)


def test_remainder_value_and_smoothness():
    L = 1.4
    expected0 = np.log(np.pi / L) / (2 * np.pi)
    assert R(0.0, L) == pytest.approx(expected0, abs=1e-16)
    # remainder agrees with G minus the free-space log away from zero
    xi = 0.2 + 0.1j
    free = np.log(abs(xi)) / (2 * np.pi)
    assert R(xi, L) == pytest.approx(G(xi, L) - free, abs=1e-15)
    # continuous through the origin
    assert R(1e-9, L) == pytest.approx(expected0, abs=1e-9)


@pytest.mark.parametrize("L", [0.1, 1.0, 1.4])
def test_remainder_continuous_across_far_field_guard(L):
    # |pi xi2 / L| = 30 switches to the far-field form; R = G - (1/2pi) ln|xi|
    # must not jump there, for any period
    xi2 = 30.0 * L / np.pi
    below = R(0.1 * L + 1j * xi2 * (1 - 1e-12), L)
    above = R(0.1 * L + 1j * xi2 * (1 + 1e-12), L)
    assert above == pytest.approx(below, abs=1e-9)
    free = np.log(np.hypot(0.1 * L, xi2)) / (2 * np.pi)
    assert above == pytest.approx(G(0.1 * L + 1j * xi2, L) - free, abs=1e-9)


def test_remainder_gradient_matches_fd():
    # validates the cot(w) - 1/w oracle of the layer-operator tests
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
        ts = np.array([0.35, 0.5, 0.65, 0.8]) * L
        gaps = np.array([abs(G(0.11 + 1j * t, L) - far_field(t, L)) for t in ts])
        rate = -np.polyfit(ts, np.log(gaps), 1)[0]
        assert rate == pytest.approx(2 * np.pi / L, rel=0.05)
