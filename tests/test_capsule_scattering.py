import numpy as np
import pytest
import scipy.special
from scipy.special import h2vp, hankel2, jv, jvp, yn

from metastrain import extinction_spectrum
from metastrain import capsule_scattering
from metastrain.dispersion import contrast_values, omega_from_wavelength
from metastrain.errors import DomainError, MetastrainError, OutOfRangeError, QuadratureFailure
from metastrain.spectral import alpha2_plus_batch

import mpmath_literals
from modal_oracle import ModalSolution

K = 2 * np.pi / 7e-7
R = 1e-6
BETA = (3 + 2j) * 1e-9


@pytest.fixture(scope="module")
def solution():
    return ModalSolution(R, K, BETA)


def test_transparency_at_zero_beta():
    sol = ModalSolution(R, K, 0.0)
    assert np.abs(sol.b).max() == 0.0
    for point in ([0.4e-6, -0.3e-6], [2.3e-6, 1.1e-6], [0.0, 0.2e-6]):
        x = np.asarray(point)
        plane = np.exp(1j * K * x[0])
        assert abs(sol.field(x) - plane) < 1e-12
    ext, sca = sol.widths()
    assert ext == 0.0 and sca == 0.0


def test_boundary_conditions_at_64_angles(solution):
    # residuals of derivative continuity and the value-jump identity
    deriv_resid, jump_resid = solution.boundary_residuals()
    assert deriv_resid < 1e-10
    assert jump_resid < 1e-10


def test_truncation_convergence():
    # k r = 5 geometry: doubling the mode count leaves field values unchanged
    k = 5.0 / R
    lo = ModalSolution(R, k, BETA, n_modes=13)
    hi = ModalSolution(R, k, BETA, n_modes=26)
    for point in ([0.4e-6, -0.3e-6], [1.5e-6, 0.8e-6]):
        assert abs(lo.field(point) - hi.field(point)) < 1e-8


def test_truncated_tail_negligible(solution):
    # the package truncates at the same N = ceil(k r) + 16
    b = np.abs(solution.b)
    assert max(b[0], b[-1]) < 1e-12 * b.max()


def test_helmholtz_residual_by_fd(solution):
    h = 2e-9
    for p in (np.array([1.7e-6, 0.9e-6]), np.array([0.3e-6, -0.2e-6])):
        u = solution.field
        lap = (u(p + [h, 0]) + u(p - [h, 0]) + u(p + [0, h]) + u(p - [0, h]) - 4 * u(p)) / h**2
        assert abs(lap + K**2 * u(p)) / (K**2 * abs(u(p))) < 1e-3


def test_scattered_far_field_decay(solution):
    rho1, rho2 = 200 / K, 800 / K
    s1 = abs(solution.field([rho1, 0.0]) - np.exp(1j * K * rho1))
    s2 = abs(solution.field([rho2, 0.0]) - np.exp(1j * K * rho2))
    assert s1 / s2 == pytest.approx(np.sqrt(rho2 / rho1), rel=0.05)


def test_rotation_invariance(solution):
    rotated = ModalSolution(R, K, BETA, angle=0.7)
    assert np.abs(np.abs(rotated.b) - np.abs(solution.b)).max() < 1e-14
    assert np.abs(np.abs(rotated.a) - np.abs(solution.a)).max() < 1e-13


def test_dimensionless_reciprocity():
    # solution depends on beta and r only through k*beta and k*r
    s = 3.0
    sol1 = ModalSolution(R, K, BETA)
    sol2 = ModalSolution(R * s, K / s, BETA * s)
    assert np.abs(sol1.b - sol2.b).max() < 1e-13


def test_lossless_optical_theorem():
    # real beta: scattering equals extinction (energy conservation)
    for beta in (2.5e-9, -4.0e-9, 1.0e-8):
        ext, sca = ModalSolution(R, K, beta).widths()
        assert abs(ext - sca) <= 1e-8 * max(abs(ext), 1e-30)


def test_absorbing_interface(solution):
    # Im beta > 0 (the sign induced by the damped contrast) absorbs energy
    ext, sca = solution.widths()
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
    lams = np.linspace(6.5e-7, 1.7e-6, 64)
    curve = extinction_spectrum(radius, water_gold, disk128_dec, delta, lams)
    omegas = omega_from_wavelength(lams, water_gold)
    betas = 2.0 * delta * alpha2_plus_batch(disk128_dec, contrast_values(omegas, water_gold))
    loop = np.array([ModalSolution(radius, 2 * np.pi / lam, beta, angle).widths()
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
    # Y is cephes yn bit for bit (the ladder repeats its forward recurrence)
    # and Y' is the difference formula on those values.  J comes
    # from a backward ratio recurrence closed by the Wronskian, so J and J'
    # are held to 4e-15 of the row maximum against scipy's jv/jvp and J
    # against 40-digit mpmath; the rows include the doubles nearest the zeros
    # j_{0,1} and j_{1,1}, where a ratio J_1/J_0 or J_2/J_1 is huge
    z = np.array(list(mpmath_literals.BESSEL_J))
    n_modes = np.array([len(row) - 1 for row in mpmath_literals.BESSEL_J.values()])
    J, Jp, Y, Yp = capsule_scattering._real_ladder(z, n_modes)
    for row, (zi, top) in enumerate(zip(z, n_modes)):
        n = np.arange(top + 1)
        assert np.array_equal(Y[row, :top + 1], yn(n, zi))
        assert np.array_equal(Yp[row, :top + 1], np.where(
            n == 0, -yn(1, zi), (yn(n - 1, zi) - yn(n + 1, zi)) / 2.0))
        for F, reference in ((J, jv(n, zi)), (Jp, jvp(n, zi)),
                             (J, np.array(mpmath_literals.BESSEL_J[zi]))):
            error = np.abs(F[row, :top + 1] - reference).max()
            assert error <= 4e-15 * np.abs(reference).max()
        for F in (J, Jp, Y, Yp):
            assert np.all(F[row, top + 1:] == 0.0)


def test_bessel_ladder_hankel_matches_amos():
    # H = J - iY and H' against scipy's hankel2/h2vp (AMOS), entry by entry.  Y_n(z) has
    # condition number about z in z: beyond z ~ 10 both the recurrence (from
    # cephes y0, which reduces z - pi/4 in double precision) and AMOS carry
    # errors of order z * eps; against 30-digit mpmath at z = 1000 they are
    # 6.2e-13 and 2.4e-13.  The rows up to z = 11.6 cover every CLI and
    # benchmark capsule and are held to 2e-14.
    z = np.array([0.3, 4.4, 11.6, 100.3, 2.0e4 + 0.37])
    n_modes = np.ceil(z).astype(int) + 16
    J, Jp, Y, Yp = capsule_scattering._real_ladder(z, n_modes)
    H, Hp = J - 1j * Y, Jp - 1j * Yp
    for row, (zi, top) in enumerate(zip(z, n_modes)):
        n = np.arange(top + 1)
        tol = max(2e-14, 8.0 * zi * np.finfo(float).eps)
        for F, reference in ((H, hankel2(n, zi)), (Hp, h2vp(n, zi))):
            assert np.max(np.abs(F[row, :top + 1] - reference) / np.abs(reference)) < tol


def test_tiny_capsule_overflow_rejected(disk128_dec, water_gold):
    # k r ~ 1e-23: Y_n overflows below the truncation N = 17
    radius = 1e-30
    lams = np.linspace(6.5e-7, 1.7e-6, 8)
    with pytest.raises(OutOfRangeError, match=r"k \* r = .* too small"):
        extinction_spectrum(radius, water_gold, disk128_dec, 5e-9, lams)


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
    loop = np.array([ModalSolution(radius, 2 * np.pi / lam, beta).widths()
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


def test_non_positive_size_parameter_is_a_package_error():
    with pytest.raises(DomainError) as info:
        capsule_scattering._check_size_parameter(np.array([K, 0.0]), R)
    assert isinstance(info.value, MetastrainError) and isinstance(info.value, ValueError)
