import numpy as np
import pytest
from scipy.constants import c as C0

from metastrain import MaterialParams, drude_mu, omega_from_wavelength
from metastrain.dispersion import EPS0, MU0, contrast_values, resonance_radicand
from metastrain.errors import ContrastError, DomainError, MetastrainError


def test_drude_high_frequency_limit(water_gold):
    mu = drude_mu(1e20, water_gold)
    assert mu == pytest.approx(MU0, rel=1e-8)


def test_drude_zero_at_plasma_frequency_undamped():
    m = MaterialParams(omega_p=2e15, collision_time=1e10)  # effectively undamped
    assert abs(drude_mu(2e15, m)) < 1e-9 * MU0


def test_drude_closed_form_value(water_gold):
    # oracle: direct evaluation of the closed form at the quoted parameters
    omega, omega_p, T = 1e15, 2e15, 1e-14
    expected = MU0 * (1 - omega_p**2 / (omega**2 + 1j * omega / T))
    assert drude_mu(omega, water_gold) == pytest.approx(expected, rel=1e-15)
    assert drude_mu(omega, water_gold) / MU0 == pytest.approx(
        -2.9603960396039604 + 0.39603960396039606j, rel=1e-12)


def test_drude_rejects_nonpositive_frequency(water_gold):
    with pytest.raises(ValueError):
        drude_mu(0.0, water_gold)
    with pytest.raises(ValueError):
        drude_mu(-1e15, water_gold)


def test_contrast_special_values():
    m = MaterialParams(omega_p=2e15, collision_time=1e12)
    assert contrast_values(2e15 / np.sqrt(2), m) == pytest.approx(0.0, abs=1e-9)
    assert contrast_values(2e15, m) == pytest.approx(0.5, abs=1e-9)


def test_contrast_general_equals_simple_for_vacuum_background(water_gold):
    omegas = np.linspace(3e14, 4e15, 23)
    general = contrast_values(omegas, water_gold)
    # closed form for mu_m = mu0: (omega^2 + i*omega/T) / omega_p^2 - 1/2
    simple = ((omegas**2 + 1j * omegas / water_gold.collision_time) / water_gold.omega_p**2
              - 0.5)
    assert np.abs(general - simple).max() < 1e-13


def test_contrast_positive_imaginary_part(water_gold):
    # Im lam = omega / (T * omega_p^2) for mu_m = mu0
    omega = 1.3e15
    lam = complex(contrast_values(omega, water_gold))
    expected = omega / (water_gold.collision_time * water_gold.omega_p**2)
    assert lam.imag == pytest.approx(expected, rel=1e-12)
    assert lam.imag > 0


def test_contrast_infinite_rejected():
    # far above the plasma frequency with negligible damping, mu_c rounds to
    # exactly mu_m = mu0 and the contrast diverges
    m = MaterialParams(omega_p=2e15, collision_time=1e300)
    assert drude_mu(1e40, m) == m.mu_m
    with pytest.raises(ContrastError):
        contrast_values(np.array([1e40]), m)


def test_resonance_frequency_closed_form():
    # (Re omega)^2 = (lambda_j + 1/2) omega_p^2 - 1/(4 T^2)
    m = MaterialParams(omega_p=2e15, collision_time=1e10)
    assert resonance_radicand(0.5, m) == pytest.approx(4e30, rel=1e-9)
    assert resonance_radicand(0.0, m) == pytest.approx(2e30, rel=1e-9)
    damped = MaterialParams(omega_p=2e15, collision_time=1e-14)
    assert resonance_radicand(0.0, damped) == pytest.approx(2e30 - 2.5e27, rel=1e-12)
    # overdamped: 1e-4 * 4e30 - 2.5e27 < 0, no real resonance frequency
    assert resonance_radicand(-0.4999, damped) == pytest.approx(4e26 - 2.5e27, rel=1e-9)


# omega_from_wavelength is its own inverse: applied to omega it gives the wavelength
def test_wavelength_vacuum():
    m = MaterialParams()
    assert omega_from_wavelength(2 * np.pi * 1e15, m) == pytest.approx(C0 * 1e-15, rel=1e-9)


def test_wavelength_water_scaling(water_gold):
    vac = MaterialParams()
    omega = 1.8e15
    assert (omega_from_wavelength(omega, vac) / omega_from_wavelength(omega, water_gold)
            == pytest.approx(1.77, rel=1e-6))


def test_wavelength_monotone(water_gold):
    assert omega_from_wavelength(1e15, water_gold) > omega_from_wavelength(2e15, water_gold)
    lam = 6.1e-7
    assert omega_from_wavelength(omega_from_wavelength(lam, water_gold),
                                 water_gold) == pytest.approx(lam, rel=1e-14)


def test_resonance_frequency_is_argmax_predictor(water_gold):
    # |lam(omega) - lam_j| over real omega is minimised within one grid step of
    # the closed-form resonance frequency, provided the grid does not resolve
    # scales below the damping correction ~1/(8 T^2 omega)
    omegas = np.linspace(5e14, 2.5e15, 400)
    step = omegas[1] - omegas[0]
    for lam_j in (-0.35, -0.1, 0.2):
        gaps = np.abs(contrast_values(omegas, water_gold) - lam_j)
        omega_grid = omegas[np.argmin(gaps)]
        omega_closed = np.sqrt(resonance_radicand(lam_j, water_gold))
        assert abs(omega_grid - omega_closed) <= step
    # with tenfold weaker damping the statement holds on a much finer grid
    weak = MaterialParams(omega_p=water_gold.omega_p, collision_time=1e-13)
    omegas = np.linspace(5e14, 2.5e15, 4001)
    step = omegas[1] - omegas[0]
    for lam_j in (-0.35, -0.1, 0.2):
        gaps = np.abs(contrast_values(omegas, weak) - lam_j)
        omega_grid = omegas[np.argmin(gaps)]
        assert abs(omega_grid - np.sqrt(resonance_radicand(lam_j, weak))) <= step


def test_angular_reading_flag():
    angular = MaterialParams.from_relative(omega_p=2e15, plasma_frequency_is_angular=True)
    ordinary = MaterialParams.from_relative(omega_p=2e15, plasma_frequency_is_angular=False)
    assert ordinary.omega_p == pytest.approx(2 * np.pi * angular.omega_p, rel=1e-15)


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialParams(omega_p=-1.0)
    with pytest.raises(ValueError):
        MaterialParams(collision_time=0.0)


@pytest.mark.parametrize("relative", [
    {"eps_m_rel": 1e-320},
    {"mu_m_rel": 1e-320},
    {"eps_m_rel": 1e200, "mu_m_rel": 1e200},
    {"omega_p": 1e300},
    {"collision_time": 1e-300},
], ids=["eps_underflows", "mu_underflows", "speed_underflows", "omega_p_squared_overflows",
        "damping_squared_overflows"])
def test_material_rejects_quantities_not_representable_in_si(relative):
    # a domain error is both a ValueError and a package error
    with pytest.raises(DomainError) as info:
        MaterialParams.from_relative(**relative)
    assert isinstance(info.value, ValueError) and isinstance(info.value, MetastrainError)


def test_vacuum_constants_are_codata_2022_literals():
    assert EPS0 == 8.8541878188e-12
    assert MU0 == 1.25663706127e-06
    assert 1.0 / np.sqrt(EPS0 * MU0) == pytest.approx(299792458.0, rel=1e-12)
