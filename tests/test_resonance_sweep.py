import dataclasses
import gc
import weakref

import numpy as np
import pytest

from metastrain import decompose, dominant_peak, find_peaks, make_disk_cell, peak_vs_period, sweep
from metastrain.dispersion import omega_from_wavelength, resonance_frequency

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
    assert curve.eigenvalues.size == 64


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


def test_find_peaks_on_synthetic_lorentzian(disk_curve):
    # oracle: analytic Lorentzian centre; refinement must land within 1e-3
    x = np.linspace(0.0, 1.0, 201)
    x0, gamma = 0.53741, 0.04
    mag = 1.0 / ((x - x0) ** 2 + gamma**2)
    synthetic = dataclasses.replace(disk_curve, wavelengths=x, magnitudes=mag, peaks=())
    peaks = find_peaks(synthetic)
    assert len(peaks) == 1
    assert abs(peaks[0].wavelength - x0) < 1e-3


def test_find_peaks_monotone_curve(disk_curve):
    x = np.linspace(0.0, 1.0, 64)
    synthetic = dataclasses.replace(disk_curve, wavelengths=x, magnitudes=np.exp(x), peaks=())
    assert find_peaks(synthetic) == []


def test_find_peaks_symmetric_stencil(disk_curve):
    # peak exactly on a grid point is returned unchanged
    x = np.linspace(1.0, 3.0, 41)
    mag = np.exp(-((x - 2.0) ** 2))
    synthetic = dataclasses.replace(disk_curve, wavelengths=x, magnitudes=mag, peaks=())
    peaks = find_peaks(synthetic)
    assert len(peaks) == 1
    assert peaks[0].wavelength == 2.0


def test_peak_pole_correspondence(disk_curve, water_gold):
    peak = dominant_peak(disk_curve)
    assert peak.mode_index is not None
    lam_j = disk_curve.eigenvalues[peak.mode_index]
    omega_peak = omega_from_wavelength(peak.wavelength, water_gold)
    omega_pred = resonance_frequency(lam_j, water_gold)
    assert abs(omega_peak - omega_pred) < 0.5 / water_gold.collision_time


def test_prefactor_invariance(disk_curve):
    scaled = dataclasses.replace(disk_curve, magnitudes=17.3 * disk_curve.magnitudes, peaks=())
    peaks = find_peaks(scaled)
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
        from metastrain import wavelength

        lam_pred = wavelength(resonance_frequency(lam_j, water_gold), water_gold)
        assert abs(lam_pred - row.peak_wavelength) < 2 * step


def test_missing_peak_reported_per_row(water_gold):
    table = peak_vs_period(0.45, [1.0], water_gold, 1.0e-7, 2.0e-7,
                           samples=50, node_count=96)
    assert not table.complete()
    assert table.rows[0].note != ""
    assert not table.is_monotone()
