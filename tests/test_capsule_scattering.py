import numpy as np
import pytest
from scipy.special import h2vp, hankel2, jv, jvp

from metastrain import (
    IncidentWave,
    cross_sections,
    extinction_spectrum,
    field,
    solve_modal,
)
from metastrain import capsule_scattering
from metastrain.dispersion import contrast_values, omega_from_wavelength
from metastrain.errors import OutOfRangeError, QuadratureFailure
from metastrain.spectral import alpha2_plus_batch

K = 2 * np.pi / 7e-7
R = 1e-6
BETA = (3 + 2j) * 1e-9


@pytest.fixture(scope="module")
def wave():
    return IncidentWave(direction=(1.0, 0.0), wavenumber=K)


@pytest.fixture(scope="module")
def solution(wave):
    return solve_modal(R, wave, BETA)


def test_incident_wave_validation():
    with pytest.raises(ValueError):
        IncidentWave(direction=(1.0, 0.5), wavenumber=K)
    with pytest.raises(ValueError):
        IncidentWave(direction=(1.0, 0.0), wavenumber=-1.0)


def test_transparency_at_zero_beta(wave):
    sol = solve_modal(R, wave, 0.0)
    assert np.abs(sol.scattered_coeffs).max() == 0.0
    for point in ([0.4e-6, -0.3e-6], [2.3e-6, 1.1e-6], [0.0, 0.2e-6]):
        x = np.asarray(point)
        plane = np.exp(1j * K * x[0])
        assert abs(field(sol, x) - plane) < 1e-12
    ext, sca = cross_sections(sol)
    assert ext == 0.0 and sca == 0.0


def test_boundary_conditions_at_64_angles(solution):
    # residuals of derivative continuity and the value-jump identity
    n = solution.orders
    z = K * R
    d_out = (solution.incident_coeffs * jvp(n, z) + solution.scattered_coeffs * h2vp(n, z)) * K
    d_in = solution.interior_coeffs * jvp(n, z) * K
    v_out = solution.incident_coeffs * jv(n, z) + solution.scattered_coeffs * hankel2(n, z)
    v_in = solution.interior_coeffs * jv(n, z)
    scale = max(1.0, float(np.abs(v_in).max()))
    for theta in 2 * np.pi * np.arange(64) / 64:
        phases = np.exp(1j * n * theta)
        deriv_resid = abs(np.sum((d_out - d_in) * phases)) / (K * scale)
        jump_resid = abs(np.sum((v_out - v_in) * phases)
                         + BETA * np.sum(d_in * phases)) / scale
        assert deriv_resid < 1e-10
        assert jump_resid < 1e-10


def test_truncation_convergence(wave):
    # k r = 5 geometry: doubling the mode count leaves field values unchanged
    k = 5.0 / R
    w5 = IncidentWave(direction=(1.0, 0.0), wavenumber=k)
    lo = solve_modal(R, w5, BETA, n_modes=13)
    hi = solve_modal(R, w5, BETA, n_modes=26)
    for point in ([0.4e-6, -0.3e-6], [1.5e-6, 0.8e-6]):
        assert abs(field(lo, point) - field(hi, point)) < 1e-8


def test_truncated_tail_negligible(solution):
    b = np.abs(solution.scattered_coeffs)
    assert max(b[0], b[-1]) < 1e-12 * b.max()


def test_minimum_mode_count_enforced(wave):
    with pytest.raises(ValueError):
        solve_modal(R, wave, BETA, n_modes=int(K * R))


def test_helmholtz_residual_by_fd(solution):
    h = 2e-9
    for p in (np.array([1.7e-6, 0.9e-6]), np.array([0.3e-6, -0.2e-6])):
        u = lambda q: field(solution, q)
        lap = (u(p + [h, 0]) + u(p - [h, 0]) + u(p + [0, h]) + u(p - [0, h]) - 4 * u(p)) / h**2
        assert abs(lap + K**2 * u(p)) / (K**2 * abs(u(p))) < 1e-3


def test_scattered_far_field_decay(solution):
    rho1, rho2 = 200 / K, 800 / K
    s1 = abs(field(solution, [rho1, 0.0]) - np.exp(1j * K * rho1))
    s2 = abs(field(solution, [rho2, 0.0]) - np.exp(1j * K * rho2))
    assert s1 / s2 == pytest.approx(np.sqrt(rho2 / rho1), rel=0.05)


def test_rotation_invariance(wave, solution):
    angle = 0.7
    rotated = IncidentWave(direction=(np.cos(angle), np.sin(angle)), wavenumber=K)
    sol_rot = solve_modal(R, rotated, BETA)
    assert np.abs(np.abs(sol_rot.scattered_coeffs)
                  - np.abs(solution.scattered_coeffs)).max() < 1e-14
    assert np.abs(np.abs(sol_rot.interior_coeffs)
                  - np.abs(solution.interior_coeffs)).max() < 1e-13


def test_dimensionless_reciprocity(wave):
    # solution depends on beta and r only through k*beta and k*r
    s = 3.0
    sol1 = solve_modal(R, wave, BETA)
    wave2 = IncidentWave(direction=(1.0, 0.0), wavenumber=K / s)
    sol2 = solve_modal(R * s, wave2, BETA * s)
    assert np.abs(sol1.scattered_coeffs - sol2.scattered_coeffs).max() < 1e-13


def test_lossless_optical_theorem(wave):
    # real beta: scattering equals extinction (energy conservation)
    for beta in (2.5e-9, -4.0e-9, 1.0e-8):
        ext, sca = cross_sections(solve_modal(R, wave, beta))
        assert abs(ext - sca) <= 1e-8 * max(abs(ext), 1e-30)


def test_absorbing_interface(wave):
    # Im beta > 0 (the sign induced by the damped contrast) absorbs energy
    ext, sca = cross_sections(solve_modal(R, wave, BETA))
    assert ext > sca > 0.0


def test_extinction_spectrum_zero_beta(disk128_dec, water_gold):
    lams = np.linspace(6.5e-7, 1.7e-6, 32)
    curve = extinction_spectrum(R, water_gold, disk128_dec, 5e-9, lams, beta_override=0.0)
    assert np.all(curve.extinction == 0.0)
    assert np.all(curve.scattering == 0.0)


def test_extinction_peak_colocated_with_alpha_peak(disk128_dec, water_gold):
    lams = np.linspace(6.5e-7, 1.7e-6, 400)
    omegas = omega_from_wavelength(lams, water_gold)
    alpha_mag = np.abs(alpha2_plus_batch(disk128_dec, contrast_values(omegas, water_gold)))
    curve = extinction_spectrum(9.9e-7, water_gold, disk128_dec, 5e-9, lams)
    assert abs(int(np.argmax(curve.extinction)) - int(np.argmax(alpha_mag))) <= 1
    assert np.all(curve.extinction >= curve.scattering)


@pytest.mark.parametrize("angle", [0.0, 0.7], ids=["x_axis", "rotated"])
def test_extinction_spectrum_matches_per_wavelength_loop(disk128_dec, water_gold, angle):
    # k r runs from 4.4 to 11.6, so the truncation N = ceil(k r) + 16 varies over the grid;
    # only the oracle's incident wave is rotated: the widths do not depend on direction
    radius, delta = 1.2e-6, 5e-9
    direction = (np.cos(angle), np.sin(angle))
    lams = np.linspace(6.5e-7, 1.7e-6, 64)
    curve = extinction_spectrum(radius, water_gold, disk128_dec, delta, lams)
    omegas = omega_from_wavelength(lams, water_gold)
    betas = 2.0 * delta * alpha2_plus_batch(disk128_dec, contrast_values(omegas, water_gold))
    loop = np.array([
        cross_sections(solve_modal(radius, IncidentWave(direction, 2 * np.pi / lam), beta))
        for lam, beta in zip(lams, betas)
    ])
    np.testing.assert_allclose(curve.extinction, loop[:, 0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(curve.scattering, loop[:, 1], rtol=1e-13, atol=0.0)


def test_extinction_spectrum_reports_singular_mode(disk128_dec, water_gold):
    # beta chosen so that the order-3 system is singular at the sixth wavelength only
    lams = np.linspace(6.5e-7, 1.7e-6, 16)
    k = 2 * np.pi / lams[5]
    z = k * R
    beta = (-2j / (np.pi * z)) / (k * jvp(3, z) * h2vp(3, z))
    with pytest.raises(QuadratureFailure,
                       match=rf"orders \[-3, 3\] .* at wavelength {lams[5]} m"):
        extinction_spectrum(R, water_gold, disk128_dec, 5e-9, lams, beta_override=beta)


@pytest.mark.parametrize("lams", [
    np.linspace(6.5e-7, 1.7e-6, 8),   # k r ~ 1e307: ceil(k r) + 16 overflows int64
    np.linspace(1e-9, 2e-9, 8),       # k r = inf
], ids=["int64_overflow", "infinite"])
def test_oversized_size_parameter_rejected(disk128_dec, water_gold, lams):
    radius = 1e300
    with pytest.raises(OutOfRangeError, match="too large"):
        extinction_spectrum(radius, water_gold, disk128_dec, 5e-9, lams)
    with pytest.raises(OutOfRangeError, match="too large"):
        solve_modal(radius, IncidentWave((1.0, 0.0), 2 * np.pi / lams[0]), BETA)


def test_extinction_spectrum_bessel_calls_independent_of_wavelength_count(
        disk128_dec, water_gold, monkeypatch):
    calls = {"jv": 0, "hankel2": 0}

    def counted(name):
        function = getattr(capsule_scattering, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(capsule_scattering, name, counted(name))
    counts = []
    for size in (8, 800):
        calls.update(jv=0, hankel2=0)
        extinction_spectrum(R, water_gold, disk128_dec, 5e-9,
                            np.linspace(6.5e-7, 1.7e-6, size))
        counts.append(dict(calls))
    assert counts == [{"jv": 1, "hankel2": 1}] * 2


def test_bessel_ladder_matches_scipy_bit_for_bit():
    z = np.array([0.3, 4.4, 11.6])
    n_modes = np.array([17, 21, 28])
    ladders = capsule_scattering._bessel_ladder(z, n_modes)
    for F, reference in zip(ladders, (jv, jvp, hankel2, h2vp)):
        for row, (zi, top) in enumerate(zip(z, n_modes)):
            assert np.array_equal(F[row, :top + 1], reference(np.arange(top + 1), zi))
            assert np.all(F[row, top + 1:] == 0.0)
