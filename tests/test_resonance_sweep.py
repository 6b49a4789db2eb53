import dataclasses
import gc
import weakref

import numpy as np
import pytest

from metastrain import decompose, dominant_peak, make_disk_cell, peak_vs_period, sweep
from metastrain.dispersion import MaterialParams, omega_from_wavelength, resonance_radicand
from metastrain.errors import DomainError
from metastrain.resonance_sweep import (
    CalibrationRow,
    CalibrationTable,
    _nearest_mode,
    _resonances,
    find_peaks,
)

WINDOW = (6.5e-7, 1.7e-6)


@pytest.fixture(scope="module")
def disk_curve(disk128_dec, water_gold):
    return sweep(disk128_dec, water_gold, *WINDOW, samples=400)


def test_sweep_basic_structure(disk_curve):
    assert np.all(np.diff(disk_curve.wavelengths) > 0)
    assert np.all(np.isfinite(disk_curve.magnitudes))
    assert np.all(disk_curve.magnitudes > 0)


def test_sweep_has_single_dominant_peak(disk_curve):
    assert len(disk_curve.peaks) >= 1
    strong = [p for p in disk_curve.peaks if p.magnitude > 0.5 * dominant_peak(disk_curve).magnitude]
    assert len(strong) == 1
    assert dominant_peak(disk_curve).magnitude > 2 * np.median(disk_curve.magnitudes)


def test_curve_does_not_keep_its_decomposition(water_gold):
    # a calibration keeps one curve per period; each must let its spectrum go
    dec = decompose(make_disk_cell(0.45, 1.0, 64))
    ref = weakref.ref(dec)
    curve = sweep(dec, water_gold, *WINDOW, samples=50)
    del dec
    gc.collect()
    assert ref() is None
    assert [f.name for f in dataclasses.fields(curve)] == ["wavelengths", "magnitudes", "peaks"]


@pytest.mark.parametrize("window, samples, message", [
    ((1.7e-6, 6.5e-7), 400, "wavelength_min < wavelength_max"),
    (WINDOW, 15, "at least 16 samples"),
], ids=["reversed_window", "too_few_samples"])
def test_sweep_arguments_are_domain_errors(disk128_dec, water_gold, window, samples, message):
    with pytest.raises(DomainError, match=message):
        sweep(disk128_dec, water_gold, *window, samples=samples)


def test_find_peaks_needs_three_samples(disk_curve):
    with pytest.raises(DomainError, match="at least 3 samples"):
        find_peaks(disk_curve.wavelengths[:2], disk_curve.magnitudes[:2])


def test_sweep_flat_far_off_resonance(disk128_dec, water_gold):
    # Re(lam) >> 1/2 at short wavelengths: response decays like 1/|lam|
    curve = sweep(disk128_dec, water_gold, 1.0e-7, 2.0e-7, samples=50)
    assert curve.magnitudes.max() < 0.05
    assert len(curve.peaks) == 0


def test_sweep_grid_refinement_stability(disk128_dec, water_gold):
    coarse = sweep(disk128_dec, water_gold, *WINDOW, samples=200)
    fine = sweep(disk128_dec, water_gold, *WINDOW, samples=400)
    lam_c = dominant_peak(coarse).wavelength
    lam_f = dominant_peak(fine).wavelength
    assert abs(lam_c - lam_f) / lam_f < 1e-3


def test_peak_when_sample_count_small(disk128_dec, water_gold):
    with pytest.raises(ValueError):
        sweep(disk128_dec, water_gold, *WINDOW, samples=8)
    with pytest.raises(ValueError):
        sweep(disk128_dec, water_gold, WINDOW[1], WINDOW[0])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_find_peaks_refuses_a_magnitude_without_a_logarithm(bad):
    # a measured curve may hold a zero, a negative or a missing sample; the
    # log-parabola has no logarithm for it, and a NaN would be skipped silently
    x = np.linspace(0.0, 1.0, 9)
    mag = 1.0 / (1.0 + (x - 0.5) ** 2)
    mag[6] = bad
    with pytest.raises(DomainError, match="peak finding needs positive finite magnitudes"):
        find_peaks(x, mag)


def test_find_peaks_on_synthetic_lorentzian():
    # oracle: analytic Lorentzian centre; refinement must land within 1e-3
    x = np.linspace(0.0, 1.0, 201)
    x0, gamma = 0.53741, 0.04
    mag = 1.0 / ((x - x0) ** 2 + gamma**2)
    peaks = find_peaks(x, mag)
    assert len(peaks) == 1
    assert abs(peaks[0].wavelength - x0) < 1e-3


def test_find_peaks_monotone_curve():
    x = np.linspace(0.0, 1.0, 64)
    assert find_peaks(x, np.exp(x)) == []


def test_find_peaks_symmetric_stencil():
    # peak exactly on a grid point is returned unchanged
    x = np.linspace(1.0, 3.0, 41)
    mag = np.exp(-((x - 2.0) ** 2))
    peaks = find_peaks(x, mag)
    assert len(peaks) == 1
    assert peaks[0].wavelength == 2.0


def test_find_peaks_flat_log_top():
    # the middle sample is one ulp above its neighbours, so all three logs round
    # equal: the log-parabola is flat and the peak stays on the grid point
    x = np.array([1.0, 2.0, 3.0])
    mag = np.array([1e10, np.nextafter(1e10, np.inf), 1e10])
    peaks = find_peaks(x, mag)
    assert len(peaks) == 1
    assert peaks[0].wavelength == 2.0
    assert peaks[0].magnitude == pytest.approx(1e10, rel=1e-15)


def test_peak_pole_correspondence(disk_curve, disk128_dec, water_gold):
    peak = dominant_peak(disk_curve)
    assert peak.mode_index is not None
    lam_j = disk128_dec.eigenvalues[peak.mode_index]
    omega_peak = omega_from_wavelength(peak.wavelength, water_gold)
    omega_pred = np.sqrt(resonance_radicand(lam_j, water_gold))
    assert abs(omega_peak - omega_pred) < 0.5 / water_gold.collision_time


def test_prefactor_invariance(disk_curve):
    peaks = find_peaks(disk_curve.wavelengths, 17.3 * disk_curve.magnitudes)
    assert len(peaks) == len(disk_curve.peaks)
    for scaled_peak, base_peak in zip(peaks, disk_curve.peaks):
        assert scaled_peak.wavelength == pytest.approx(base_peak.wavelength, rel=1e-12)


def test_peak_vs_period_five_rows(water_gold):
    table = peak_vs_period(0.45, [1.0, 1.25, 1.5, 1.75, 2.0], water_gold, *WINDOW,
                           samples=400, node_count=96)
    assert len(table.rows) == 5
    assert table.complete()
    lams = table.peak_wavelengths()
    # strictly monotone (the computed direction: shorter wavelength at larger period)
    assert np.all(np.diff(lams) < 0)
    assert table.is_monotone()


def test_peak_vs_period_single_row_matches_direct(disk128_dec, water_gold, disk_curve):
    table = peak_vs_period(0.45, [1.0], water_gold, *WINDOW, samples=400, node_count=128)
    assert table.rows[0].peak_wavelength == pytest.approx(
        dominant_peak(disk_curve).wavelength, rel=1e-12)


def test_peak_vs_period_closed_form_crosscheck(water_gold):
    # dominant peak within two grid steps of the closed-form resonance for the
    # heaviest-moment mode
    table = peak_vs_period(0.45, [1.0, 1.5], water_gold, *WINDOW, samples=400, node_count=96)
    step = (WINDOW[1] - WINDOW[0]) / 399
    for row in table.rows:
        dec = decompose(make_disk_cell(0.45, row.period, 96))
        lam_j = dec.eigenvalues[dec.dominant_mode()]
        lam_pred = omega_from_wavelength(np.sqrt(resonance_radicand(lam_j, water_gold)), water_gold)
        assert abs(lam_pred - row.peak_wavelength) < 2 * step


@pytest.mark.parametrize("periods, peaks, monotone", [
    ([2.0, 1.0, 1.5], [8.0e-7, 1.4e-6, 1.0e-6], True),
    ([1.5, 2.0, 1.0], [1.0e-6, 1.2e-6, 8.0e-7], True),
    ([2.0, 1.0, 1.5], [8.0e-7, 1.0e-6, 1.4e-6], False),
    ([1.0, 1.0, 2.0], [1.4e-6, 1.2e-6, 8.0e-7], False),
], ids=["falling", "rising", "not_monotone", "repeated_period"])
def test_monotone_in_period_order_not_row_order(periods, peaks, monotone):
    # rows swept out of period order are judged as the same rows sorted by period
    table = CalibrationTable(
        rows=tuple(CalibrationRow(period=p, peak_wavelength=w, peak_magnitude=1.0, mode_index=1)
                   for p, w in zip(periods, peaks)),
        radius=0.45, node_count=64)
    assert table.is_monotone() is monotone


def test_missing_peak_reported_per_row(water_gold):
    table = peak_vs_period(0.45, [1.0], water_gold, 1.0e-7, 2.0e-7,
                           samples=50, node_count=96)
    assert not table.complete()
    assert table.rows[0].peak_wavelength is None and table.rows[0].mode_index is None
    assert not table.is_monotone()


def _nearest_mode_by_loop(eigenvalues, coupled, material, omega_peak):
    """The scalar loop the vectorised lookup replaces: first strictly smaller gap wins.

    Only modes with ``coupled`` set (a non-zero nu2 moment) are candidates.
    """
    best, best_gap = None, np.inf
    for j, lam_j in enumerate(eigenvalues):
        radicand = resonance_radicand(lam_j, material)
        if j == 0 or not coupled[j] or radicand <= 0.0:  # overdamped: no real frequency
            continue
        gap = abs(np.sqrt(radicand) - omega_peak)
        if gap < best_gap:
            best, best_gap = j, gap
    return best


def test_nearest_mode_matches_loop_with_overdamped_modes():
    # with T = 1e-15 every mode below lambda = -0.4375 is overdamped; repeated
    # eigenvalues tie, and the first of them must win; every fifth mode does
    # not couple to nu2 and is never named
    damped = MaterialParams.from_relative(eps_m_rel=1.77**2, omega_p=2.0e15,
                                          collision_time=1.0e-15)
    eigenvalues = np.concatenate([[0.5], np.linspace(-0.5, 0.45, 39), [0.1, 0.1, -0.49]])
    coupled = np.arange(eigenvalues.size) % 5 != 2
    resonances = _resonances(eigenvalues, coupled, damped)
    assert 0 < resonances[0].size < eigenvalues.size - 1
    omegas = np.concatenate([resonances[1], np.linspace(1e14, 3e15, 301), [np.nan, np.inf]])
    for omega in omegas:
        assert _nearest_mode(resonances, omega) == _nearest_mode_by_loop(
            eigenvalues, coupled, damped, omega)


def test_nearest_mode_none_when_every_mode_is_overdamped(disk_curve, disk128_dec):
    # 1/(4 T^2) = 6.25 omega_p^2 exceeds (lambda + 1/2) omega_p^2 for every lambda <= 1/2
    damped = MaterialParams.from_relative(eps_m_rel=1.77**2, omega_p=2.0e15,
                                          collision_time=1.0e-16)
    spectrum = (disk128_dec.eigenvalues, disk128_dec.moments_nu2 != 0.0, damped)
    resonances = _resonances(*spectrum)
    assert resonances[0].size == 0
    assert _nearest_mode(resonances, 1e15) is None
    assert _nearest_mode_by_loop(*spectrum, 1e15) is None
    # the lookup sweep makes for each peak, here with every mode overdamped
    assert disk_curve.peaks
    assert all(_nearest_mode(resonances, omega_from_wavelength(p.wavelength, damped)) is None
               for p in disk_curve.peaks)


def test_peak_modes_match_loop(disk_curve, disk128_dec, water_gold):
    coupled = disk128_dec.moments_nu2 != 0.0
    for peak in disk_curve.peaks:
        omega = omega_from_wavelength(peak.wavelength, water_gold)
        assert peak.mode_index == _nearest_mode_by_loop(disk128_dec.eigenvalues, coupled,
                                                        water_gold, omega)


def test_peak_is_named_after_a_mode_that_couples_to_nu2():
    # the 780 nm peak of this disk lies nearest, in resonance frequency, to
    # mode 252, whose nu2 moment is exactly 0 (it sits on a quarter sector the
    # moment misses); the coupled mode 253 is the one that shapes it
    from metastrain.cli import parse_config

    material = parse_config({}).material_params()
    dec = decompose(make_disk_cell(0.39593358828854036, 0.9734287075896383, 256))
    curve = sweep(dec, material, *WINDOW, samples=400)
    peak = min(curve.peaks, key=lambda p: abs(p.wavelength - 780.05e-9))
    assert abs(peak.wavelength - 780.05e-9) < 0.01e-9
    assert dec.moments_nu2[252] == 0.0
    assert peak.mode_index == 253 and dec.moments_nu2[253] != 0.0
    for peak in curve.peaks:
        assert dec.moments_nu2[peak.mode_index] != 0.0
