import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.special import h2vp, jvp

from metastrain import decompose, extinction_spectrum, make_disk_cell
from metastrain import capsule_scattering
from metastrain.dispersion import contrast_values, omega_from_wavelength
from metastrain.errors import DomainError, MetastrainError, OutOfRangeError, QuadratureFailure
from metastrain.spectral import alpha2_plus_batch

import allocating_kernels
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
    # one Bessel ladder per spectrum, whatever its length, and no scipy.special call
    calls = dict.fromkeys(("jv", "y0", "y1", "yn", "hankel2", "_real_ladder"), 0)

    def counted(module, name):
        function = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name in calls:
        module = capsule_scattering if name == "_real_ladder" else scipy.special
        monkeypatch.setattr(module, name, counted(module, name))
    counts = []
    for size in (8, 800):
        calls.update(dict.fromkeys(calls, 0))
        extinction_spectrum(R, water_gold, disk128_dec, 5e-9,
                            np.linspace(6.5e-7, 1.7e-6, size))
        counts.append(dict(calls))
    assert counts == [{**dict.fromkeys(calls, 0), "_real_ladder": 1}] * 2


def _mpmath_derivatives(z, orders):
    """J_n'(z) and Y_n'(z) at 40 digits, rounded to double."""
    with mpmath.workdps(40):
        x = mpmath.mpf(float(z))
        return (np.array([float(mpmath.besselj(n, x, derivative=1)) for n in orders]),
                np.array([float(mpmath.bessely(n, x, derivative=1)) for n in orders]))


def test_bessel_ladder_matches_mpmath():
    # against 40-digit mpmath, for z <= 12.5: J' within 4e-15 of each row's
    # maximum and Y' within 3e-15 of |H'| = |J' - iY'|, order by order; up to
    # z = 200, where both carry errors of order z * eps, within 2e-14.  The rows include the doubles nearest the zeros j_{0,1}
    # and j_{1,1}, where a ratio J_1/J_0 or J_2/J_1 overflows; above z = 12.5
    # every seventh order and the last are checked.  The rows come in one
    # call, so the lower rows are zero above their own truncation
    z = np.array([0.05, 0.3, 1.2, 2.404825557695773, 3.8317059702075125, 4.4, 7.995,
                  11.6, 12.5, 25.3, 60.1, 199.7])
    n_modes = np.ceil(z).astype(int) + 16
    Jp, Yp = capsule_scattering._real_ladder(z, n_modes)
    assert Jp.shape == Yp.shape == (n_modes.max() + 1, z.size)
    for row, (zi, top) in enumerate(zip(z, n_modes)):
        orders = np.arange(top + 1) if zi <= 12.5 else np.append(np.arange(0, top, 7), top)
        j_ref, y_ref = _mpmath_derivatives(zi, orders)
        j_bound, y_bound = (4e-15, 3e-15) if zi <= 12.5 else (2e-14, 2e-14)
        assert np.abs(Jp[orders, row] - j_ref).max() <= j_bound * np.abs(j_ref).max()
        assert np.max(np.abs(Yp[orders, row] - y_ref) / np.hypot(j_ref, y_ref)) <= y_bound
        assert np.all(Jp[top + 1:, row] == 0.0) and np.all(Yp[top + 1:, row] == 0.0)


def test_bessel_ladder_hankel_matches_amos():
    # H' = J' - iY' against scipy's h2vp (AMOS), entry by entry.  Y_n(z) has
    # condition number about z in z: beyond z ~ 10 both the ladder and AMOS
    # carry errors of order z * eps.  The rows up to z = 11.6 cover every CLI
    # and benchmark capsule and are held to 2e-14
    z = np.array([0.3, 4.4, 11.6, 100.3, 2.0e4 + 0.37])
    n_modes = np.ceil(z).astype(int) + 16
    Jp, Yp = capsule_scattering._real_ladder(z, n_modes)
    Hp = Jp - 1j * Yp
    for row, (zi, top) in enumerate(zip(z, n_modes)):
        n = np.arange(top + 1)
        tol = max(2e-14, 8.0 * zi * np.finfo(float).eps)
        reference = h2vp(n, zi)
        assert np.max(np.abs(Hp[:top + 1, row] - reference) / np.abs(reference)) < tol


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


DEFAULT_WINDOW = np.linspace(6.5e-7, 1.7e-6, 400)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("z, n_modes", [
    # the default capsule over the default window, k r = 3.7 .. 9.6
    (2 * np.pi / DEFAULT_WINDOW * 9.9e-7, None),
    # the large CI capsule, k r up to about 193
    (2 * np.pi / DEFAULT_WINDOW * 2e-5, None),
    # columns truncated at different orders, and one whose Y overflows above its own
    (np.array([11.6, 0.05, 4.4, 199.7, 2.404825557695773, 60.1]),
     np.array([27, 17, 21, 216, 19, 77])),
], ids=["default", "kr193", "truncated"])
def test_real_ladder_is_bit_identical_to_the_allocating_ladder(z, n_modes):
    n_modes = np.ceil(z).astype(int) + 16 if n_modes is None else n_modes
    Jp, Yp = capsule_scattering._real_ladder(z, n_modes)
    Jq, Yq = allocating_kernels.real_ladder(z, n_modes)
    assert _same_bytes(Jp, Jq) and _same_bytes(Yp, Yq)


@pytest.mark.parametrize("radius, delta", [(9.9e-7, 5e-9), (1.2e-6, 3e-9), (2e-5, 7e-9)])
def test_extinction_spectrum_is_bit_identical_to_the_allocating_widths(
        disk128_dec, water_gold, radius, delta):
    curve = extinction_spectrum(radius, water_gold, disk128_dec, delta, DEFAULT_WINDOW)
    ext, sca = allocating_kernels.extinction(radius, water_gold, disk128_dec, delta,
                                             DEFAULT_WINDOW)
    assert _same_bytes(curve.extinction, ext) and _same_bytes(curve.scattering, sca)


def test_capsules_sharing_a_decomposition_repeat_their_bytes(water_gold):
    # the spectrum op's pattern: capsules A, B, A, then the beta = 0 control with A;
    # a kernel writing into the decomposition's arrays would change A's second curve
    dec = decompose(make_disk_cell(0.45, 1.3, 64))
    lams = np.linspace(6.5e-7, 1.7e-6, 1000)
    (ra, da), (rb, db) = (1.1e-6, 4e-9), (0.85e-6, 6.5e-9)
    first = extinction_spectrum(ra, water_gold, dec, da, lams)
    other = extinction_spectrum(rb, water_gold, dec, db, lams)
    again = extinction_spectrum(ra, water_gold, dec, da, lams)
    control = extinction_spectrum(ra, water_gold, dec, da, lams, beta_override=0.0)
    assert _same_bytes(first.extinction, again.extinction)
    assert _same_bytes(first.scattering, again.scattering)
    for curve, (radius, delta) in ((first, (ra, da)), (other, (rb, db))):
        ext, sca = allocating_kernels.extinction(radius, water_gold, dec, delta, lams)
        assert _same_bytes(curve.extinction, ext) and _same_bytes(curve.scattering, sca)
    assert np.all(control.extinction == 0.0) and np.all(control.scattering == 0.0)


CAPSULES = ((1.1e-6, 4e-9), (0.85e-6, 6.5e-9), (0.95e-6, 5e-9))


def test_capsules_on_one_decomposition_match_fresh_decompositions(water_gold):
    # the shared alpha2_plus batch gives each capsule the bytes of a cold decomposition
    dec = decompose(make_disk_cell(0.4, 1.2, 64))
    lams = np.linspace(6.5e-7, 1.7e-6, 300)
    for radius, delta in CAPSULES:
        warm = extinction_spectrum(radius, water_gold, dec, delta, lams)
        cold = extinction_spectrum(radius, water_gold, decompose(make_disk_cell(0.4, 1.2, 64)),
                                   delta, lams)
        assert _same_bytes(warm.extinction, cold.extinction)
        assert _same_bytes(warm.scattering, cold.scattering)


def test_mode_sums_run_once_per_wavelength_grid(water_gold, monkeypatch):
    from metastrain import spectral

    calls = []
    mode_sums = spectral._mode_sums

    def counted(*args):
        calls.append(args[1].size)
        return mode_sums(*args)

    monkeypatch.setattr(spectral, "_mode_sums", counted)
    dec = decompose(make_disk_cell(0.4, 1.2, 64))
    lams = np.linspace(6.5e-7, 1.7e-6, 300)
    for radius, delta in CAPSULES:
        extinction_spectrum(radius, water_gold, dec, delta, lams)
    assert calls == [300]
    radius, delta = CAPSULES[0]
    extinction_spectrum(radius, water_gold, dec, delta, lams[:200])
    assert calls == [300, 200]


@pytest.mark.parametrize("change, message", [
    ({"delta_phys": np.nan}, "delta_phys must be a positive finite length"),
    ({"delta_phys": np.inf}, "delta_phys must be a positive finite length"),
    ({"delta_phys": -5e-9}, "delta_phys must be a positive finite length"),
    ({"delta_phys": 0.0}, "delta_phys must be a positive finite length"),
    ({"beta_override": complex(np.nan, 0.0)}, "beta_override must be finite"),
    ({"beta_override": complex(0.0, np.inf)}, "beta_override must be finite"),
    ({"wavelengths": 7e-7}, r"wavelengths must be a 1-D array, got shape \(\)"),
    ({"wavelengths": np.full((2, 8), 7e-7)},
     r"wavelengths must be a 1-D array, got shape \(2, 8\)"),
], ids=["nan_delta", "inf_delta", "negative_delta", "zero_delta", "nan_beta", "inf_beta",
        "scalar_wavelength", "2d_wavelengths"])
def test_invalid_capsule_input_refused_before_any_sum(disk128_dec, water_gold, monkeypatch,
                                                       change, message):
    def fail(*args):
        raise AssertionError("computed before the input check")

    monkeypatch.setattr(capsule_scattering, "alpha2_plus_batch", fail)
    monkeypatch.setattr(capsule_scattering, "_real_ladder", fail)
    args = {"radius": R, "material": water_gold, "decomposition": disk128_dec,
            "delta_phys": 5e-9, "wavelengths": np.linspace(6.5e-7, 1.7e-6, 8), **change}
    with pytest.raises(DomainError, match=message):
        extinction_spectrum(**args)
