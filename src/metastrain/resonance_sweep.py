"""Wavelength sweeps of the far-field magnitude and peak-versus-period calibration."""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dispersion import (
    MaterialParams,
    contrast_values,
    omega_from_wavelength,
    resonance_frequency,
)
from .errors import OverdampedModeError
from .geometry import make_disk_cell
from .spectral import SpectralDecomposition, alpha2_plus_batch, decompose


@dataclass(frozen=True)
class Peak:
    wavelength: float
    magnitude: float
    mode_index: int | None


@dataclass(frozen=True)
class ResonanceCurve:
    """Sampled |alpha2_plus| versus in-medium wavelength, with refined peaks."""

    wavelengths: np.ndarray
    magnitudes: np.ndarray
    material: MaterialParams
    eigenvalues: np.ndarray
    peaks: tuple[Peak, ...] = ()


def sweep(decomposition: SpectralDecomposition, material: MaterialParams,
          wavelength_min: float, wavelength_max: float, samples: int = 400) -> ResonanceCurve:
    """Sample |alpha2_plus| on a uniform wavelength grid and locate its peaks."""
    if not wavelength_min < wavelength_max:
        raise ValueError("need wavelength_min < wavelength_max")
    if samples < 16:
        raise ValueError("need at least 16 samples")
    lam_grid = np.linspace(wavelength_min, wavelength_max, samples)
    omega = omega_from_wavelength(lam_grid, material)
    contrasts = contrast_values(omega, material)
    magnitudes = np.abs(alpha2_plus_batch(decomposition, contrasts))
    curve = ResonanceCurve(
        wavelengths=lam_grid,
        magnitudes=magnitudes,
        material=material,
        eigenvalues=decomposition.eigenvalues,
    )
    return dataclasses.replace(curve, peaks=tuple(find_peaks(curve)))


def _nearest_mode(curve: ResonanceCurve, peak_wavelength: float) -> int | None:
    omega_peak = omega_from_wavelength(peak_wavelength, curve.material)
    best, best_gap = None, np.inf
    for j, lam_j in enumerate(curve.eigenvalues):
        if j == 0:
            continue  # equilibrium mode carries no normal moment
        try:
            gap = abs(resonance_frequency(lam_j, curve.material) - omega_peak)
        except OverdampedModeError:
            continue
        if gap < best_gap:
            best, best_gap = j, gap
    return best


def find_peaks(curve: ResonanceCurve) -> list[Peak]:
    """Strict interior maxima refined by a three-point parabola in log magnitude."""
    lam = curve.wavelengths
    mag = curve.magnitudes
    if lam.size < 3:
        raise ValueError("peak finding needs at least 3 samples")
    peaks = []
    logm = np.log(mag)
    for i in range(1, lam.size - 1):
        if not (mag[i] > mag[i - 1] and mag[i] > mag[i + 1]):
            continue
        denom = logm[i - 1] - 2.0 * logm[i] + logm[i + 1]
        if denom == 0.0:
            offset = 0.0
        else:
            offset = 0.5 * (logm[i - 1] - logm[i + 1]) / denom
        h = lam[i + 1] - lam[i]
        refined_lam = lam[i] + offset * h
        refined_mag = np.exp(logm[i] - 0.25 * (logm[i - 1] - logm[i + 1]) * offset)
        peaks.append(Peak(
            wavelength=float(refined_lam),
            magnitude=float(refined_mag),
            mode_index=_nearest_mode(curve, float(refined_lam)),
        ))
    return peaks


def dominant_peak(curve: ResonanceCurve) -> Peak | None:
    """Largest refined peak; ties are broken toward longer wavelength."""
    if not curve.peaks:
        return None
    return max(curve.peaks, key=lambda p: (p.magnitude, p.wavelength))


@dataclass(frozen=True)
class CalibrationRow:
    period: float
    peak_wavelength: float | None
    peak_magnitude: float | None
    mode_index: int | None
    note: str = ""


@dataclass(frozen=True)
class CalibrationTable:
    """Dominant peak wavelength per period ratio, for the strain inversion."""

    rows: tuple[CalibrationRow, ...]
    radius: float
    node_count: int
    wavelength_min: float
    wavelength_max: float
    samples: int
    material: MaterialParams

    def complete(self) -> bool:
        return all(r.peak_wavelength is not None for r in self.rows)

    def periods(self) -> np.ndarray:
        return np.array([r.period for r in self.rows])

    def peak_wavelengths(self) -> np.ndarray:
        return np.array([np.nan if r.peak_wavelength is None else r.peak_wavelength
                         for r in self.rows])

    def is_monotone(self) -> bool:
        """Strict monotonicity of peak wavelength in period, in either direction."""
        if not self.complete():
            return False
        diffs = np.diff(self.peak_wavelengths())
        return bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))


def calibrate(make_cell, periods, material: MaterialParams, wavelength_min: float,
              wavelength_max: float, samples: int = 400
              ) -> Iterator[tuple[CalibrationRow, ResonanceCurve]]:
    """Per period: ``make_cell(period)``, spectrum, sweep and dominant peak.

    Yields the calibration row and the resonance curve of each period in
    order.  A curve keeps only the eigenvalues of its spectrum, so one
    decomposition is alive at a time even when the caller keeps every curve.
    """
    for period in periods:
        curve = sweep(decompose(make_cell(period)), material, wavelength_min,
                      wavelength_max, samples)
        peak = dominant_peak(curve)
        if peak is None:
            row = CalibrationRow(period=float(period), peak_wavelength=None,
                                 peak_magnitude=None, mode_index=None,
                                 note="no interior peak in window")
        else:
            row = CalibrationRow(period=float(period), peak_wavelength=peak.wavelength,
                                 peak_magnitude=peak.magnitude, mode_index=peak.mode_index)
        yield row, curve


def peak_vs_period(radius: float, periods, material: MaterialParams,
                   wavelength_min: float, wavelength_max: float,
                   samples: int = 400, node_count: int = 256) -> CalibrationTable:
    """Calibration table of a disk of the given radius over the period ratios."""
    results = calibrate(lambda period: make_disk_cell(radius, period, node_count), periods,
                        material, wavelength_min, wavelength_max, samples)
    return CalibrationTable(rows=tuple(row for row, _ in results), radius=radius, node_count=node_count,
                            wavelength_min=wavelength_min, wavelength_max=wavelength_max,
                            samples=samples, material=material)
