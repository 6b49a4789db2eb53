import numpy as np
import pytest
import scipy.special
from scipy.special import h2vp, hankel2, jv, jvp, yn

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

import mpmath_literals

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


def modal_widths(radius, direction, k, beta):
    """(extinction, scattering) of one wavelength from scipy's jvp/h2vp on n = -N..N.

    Independent of the package's Bessel ladder: the oracle for extinction_spectrum.
    """
    z = k * radius
    n_modes = int(np.ceil(z)) + 16
    n = np.arange(-n_modes, n_modes + 1)
    c = np.exp(1j * n * (np.pi / 2.0 - np.arctan2(direction[1], direction[0])))
    Jp, Hp = jvp(n, z), h2vp(n, z)
    b = c * beta * k * Jp**2 / (-2j / (np.pi * z) - beta * k * Jp * Hp)
    return -4.0 / k * np.real(np.sum(b * np.conj(c))), 4.0 / k * np.sum(np.abs(b) ** 2)


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
    loop = np.array([modal_widths(radius, direction, 2 * np.pi / lam, beta)
                     for lam, beta in zip(lams, betas)])
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
    calls = dict.fromkeys(("jv", "y0", "y1", "hankel2"), 0)

    def counted(name):
        function = getattr(scipy.special, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scipy.special, name, counted(name))
    counts = []
    for size in (8, 800):
        calls.update(dict.fromkeys(calls, 0))
        extinction_spectrum(R, water_gold, disk128_dec, 5e-9,
                            np.linspace(6.5e-7, 1.7e-6, size))
        counts.append(dict(calls))
    assert counts == [{"jv": 0, "y0": 1, "y1": 1, "hankel2": 0}] * 2


def test_bessel_ladder_matches_scipy_bit_for_bit():
    # Y = -Im H is cephes yn bit for bit (the ladder repeats its forward
    # recurrence) and H' is the difference formula on those values.  J comes
    # from a backward ratio recurrence closed by the Wronskian, so J and J'
    # are held to 4e-15 of the row maximum against scipy's jv/jvp and J
    # against 40-digit mpmath; the rows include the doubles nearest the zeros
    # j_{0,1} and j_{1,1}, where a ratio J_1/J_0 or J_2/J_1 is huge
    z = np.array(list(mpmath_literals.BESSEL_J))
    n_modes = np.array([len(row) - 1 for row in mpmath_literals.BESSEL_J.values()])
    J, Jp, H, Hp = capsule_scattering._bessel_ladder(z, n_modes)
    for row, (zi, top) in enumerate(zip(z, n_modes)):
        n = np.arange(top + 1)
        Y = yn(n, zi)
        Yp = np.where(n == 0, -yn(1, zi), (yn(n - 1, zi) - yn(n + 1, zi)) / 2.0)
        assert np.array_equal(-H[row, :top + 1].imag, Y)
        assert np.array_equal(-Hp[row, :top + 1].imag, Yp)
        assert np.array_equal(H[row, :top + 1].real, J[row, :top + 1])
        assert np.array_equal(Hp[row, :top + 1].real, Jp[row, :top + 1])
        for F, reference in ((J, jv(n, zi)), (Jp, jvp(n, zi)),
                             (J, np.array(mpmath_literals.BESSEL_J[zi]))):
            error = np.abs(F[row, :top + 1] - reference).max()
            assert error <= 4e-15 * np.abs(reference).max()
        for F in (J, Jp, H, Hp):
            assert np.all(F[row, top + 1:] == 0.0)


def test_bessel_ladder_hankel_matches_amos():
    # H and H' against scipy's hankel2/h2vp (AMOS), entry by entry.  Y_n(z) has
    # condition number about z in z: beyond z ~ 10 both the recurrence (from
    # cephes y0, which reduces z - pi/4 in double precision) and AMOS carry
    # errors of order z * eps; against 30-digit mpmath at z = 1000 they are
    # 6.2e-13 and 2.4e-13.  The rows up to z = 11.6 cover every CLI and
    # benchmark capsule and are held to 2e-14.
    z = np.array([0.3, 4.4, 11.6, 100.3, 2.0e4 + 0.37])
    n_modes = np.ceil(z).astype(int) + 16
    _, _, H, Hp = capsule_scattering._bessel_ladder(z, n_modes)
    for row, (zi, top) in enumerate(zip(z, n_modes)):
        n = np.arange(top + 1)
        tol = max(2e-14, 8.0 * zi * np.finfo(float).eps)
        for F, reference in ((H, hankel2(n, zi)), (Hp, h2vp(n, zi))):
            assert np.max(np.abs(F[row, :top + 1] - reference) / np.abs(reference)) < tol


@pytest.mark.parametrize("call", ["spectrum", "modal"])
def test_tiny_capsule_overflow_rejected(disk128_dec, water_gold, call):
    # k r ~ 1e-23: Y_n overflows below the truncation N = 17
    radius = 1e-30
    lams = np.linspace(6.5e-7, 1.7e-6, 8)
    with pytest.raises(OutOfRangeError, match=r"k \* r = .* too small"):
        if call == "spectrum":
            extinction_spectrum(radius, water_gold, disk128_dec, 5e-9, lams)
        else:
            solve_modal(radius, IncidentWave((1.0, 0.0), 2 * np.pi / lams[0]), BETA)


def test_tiny_capsule_still_finite(disk128_dec, water_gold):
    # k r ~ 1e-13: Y_18 ~ 1e258 is still finite, so the widths are computed.
    # The mode terms are almost imaginary there, so the extinction of the
    # complex form -(4/k) Re sum' s_n loses about four digits to cancellation;
    # the package's real form has none and matches 60-digit mpmath.  The
    # mpmath literals are for a fixed beta: Im and Re of 2*delta*alpha2_plus
    # move by 1e-14 and 1e-13 relative when S moves by one ulp, so a literal
    # for them would hold on one BLAS build only
    radius, delta = mpmath_literals.TINY_RADIUS, 5e-9
    lams = np.linspace(6.5e-7, 1.7e-6, 16)
    curve = extinction_spectrum(radius, water_gold, disk128_dec, delta, lams)
    omegas = omega_from_wavelength(lams, water_gold)
    betas = 2.0 * delta * alpha2_plus_batch(disk128_dec, contrast_values(omegas, water_gold))
    loop = np.array([modal_widths(radius, (1.0, 0.0), 2 * np.pi / lam, beta)
                     for lam, beta in zip(lams, betas)])
    np.testing.assert_allclose(curve.scattering, loop[:, 1], rtol=1e-14, atol=0.0)
    assert np.all(curve.extinction > curve.scattering) and np.all(loop[:, 0] > 0.0)
    fixed = extinction_spectrum(radius, water_gold, disk128_dec, delta, lams,
                                beta_override=mpmath_literals.TINY_BETA)
    np.testing.assert_allclose(fixed.extinction, mpmath_literals.TINY_EXTINCTION,
                               rtol=1e-14, atol=0.0)


def test_ladder_memory_guard_refuses_before_allocating(disk128_dec, water_gold, monkeypatch):
    # k r ~ 1e7 on 16 wavelengths: the ladder would need ~10 GB.  Neither the
    # contrast sums nor the ladder may start before the refusal
    def fail(*args):
        raise AssertionError("allocated before the memory check")

    monkeypatch.setattr(capsule_scattering, "alpha2_plus_batch", fail)
    monkeypatch.setattr(capsule_scattering, "_real_ladder", fail)
    lams = np.linspace(6.5e-7, 1.7e-6, 16)
    with pytest.raises(OutOfRangeError, match=r"too large: the Bessel ladder would need .* MiB"):
        extinction_spectrum(1.0, water_gold, disk128_dec, 5e-9, lams)
    with pytest.raises(OutOfRangeError, match="too large"):
        solve_modal(1e3, IncidentWave((1.0, 0.0), 2 * np.pi / lams[0]), BETA)
