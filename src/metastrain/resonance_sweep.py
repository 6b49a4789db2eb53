"""Wavelength sweeps of the far-field magnitude and peak-versus-period calibration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import (
    MaterialParams,
    contrast_values,
    omega_from_wavelength,
    resonance_radicand,
)
from .errors import DomainError
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
    peaks: tuple[Peak, ...]


def sweep(decomposition: SpectralDecomposition, material: MaterialParams,
          wavelength_min: float, wavelength_max: float, samples: int = 400) -> ResonanceCurve:
    """Sample |alpha2_plus| on a uniform wavelength grid, refine its peaks and name their modes.

    Each peak is named after the coupled mode whose resonance frequency is
    nearest its own; the curve keeps nothing of the decomposition.
    """
    if not wavelength_min < wavelength_max:
        raise DomainError("need wavelength_min < wavelength_max")
    if samples < 16:
        raise DomainError("need at least 16 samples")
    lam_grid = np.linspace(wavelength_min, wavelength_max, samples)
    omega = omega_from_wavelength(lam_grid, material)
    contrasts = contrast_values(omega, material)
    magnitudes = np.abs(alpha2_plus_batch(decomposition, contrasts))
    resonances = _resonances(decomposition.eigenvalues, decomposition.moments_nu2 != 0.0, material)
    peaks = tuple(Peak(p.wavelength, p.magnitude,
                       _nearest_mode(resonances, omega_from_wavelength(p.wavelength, material)))
                  for p in find_peaks(lam_grid, magnitudes))
    return ResonanceCurve(wavelengths=lam_grid, magnitudes=magnitudes, peaks=peaks)


def _resonances(eigenvalues: np.ndarray, coupled: np.ndarray, material: MaterialParams
                ) -> tuple[np.ndarray, np.ndarray]:
    """Coupled modes j >= 1 that are not overdamped, and their real resonance frequencies.

    ``coupled[j]`` says whether mode j has a non-zero nu2 moment, so shapes
    |alpha2_plus|.  The square roots of ``dispersion.resonance_radicand`` over
    all modes at once, where it is positive; the equilibrium mode j = 0
    carries no normal moment.
    """
    radicand = resonance_radicand(eigenvalues[1:], material)
    modes = np.flatnonzero((radicand > 0.0) & coupled[1:]) + 1
    return modes, np.sqrt(radicand[modes - 1])


def _nearest_mode(resonances: tuple[np.ndarray, np.ndarray], omega_peak: float) -> int | None:
    """First mode whose resonance frequency is nearest omega_peak; None if no gap is finite."""
    modes, frequencies = resonances
    gaps = np.abs(frequencies - omega_peak)
    if not (gaps.size and gaps.min() < np.inf):
        return None
    return int(modes[np.argmin(gaps)])


def find_peaks(wavelengths: np.ndarray, magnitudes: np.ndarray) -> list[Peak]:
    """Strict interior maxima of a sampled curve, each refined by a three-point log-parabola.

    Any sampled curve of positive finite magnitudes will do, a measured
    spectrum too; the peaks carry no mode index (``sweep`` names them).
    """
    lam, mag = np.asarray(wavelengths, dtype=float), np.asarray(magnitudes, dtype=float)
    if lam.size < 3:
        raise DomainError("peak finding needs at least 3 samples")
    if not np.all((mag > 0.0) & (mag < np.inf)):
        raise DomainError("peak finding needs positive finite magnitudes")
    peaks = []
    logm = np.log(mag)
    maxima = np.flatnonzero((mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])) + 1
    for i in maxima:
        denom = logm[i - 1] - 2.0 * logm[i] + logm[i + 1]
        if denom == 0.0:
            offset = 0.0
        else:
            offset = 0.5 * (logm[i - 1] - logm[i + 1]) / denom
        h = lam[i + 1] - lam[i]
        refined_lam = lam[i] + offset * h
        refined_mag = np.exp(logm[i] - 0.25 * (logm[i - 1] - logm[i + 1]) * offset)
        peaks.append(Peak(wavelength=float(refined_lam), magnitude=float(refined_mag),
                          mode_index=None))
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


@dataclass(frozen=True)
class CalibrationTable:
    """Dominant peak wavelength per period ratio, for the strain inversion.

    The inversion reads only ``rows``; ``radius`` and ``node_count`` label the
    table.  The sweep settings are None unless a caller passes them: neither
    ``calibrate`` nor a table read back from a file sets them, and nothing in
    the package reads them.
    """

    rows: tuple[CalibrationRow, ...]
    radius: float
    node_count: int
    wavelength_min: float | None = None
    wavelength_max: float | None = None
    samples: int | None = None
    material: MaterialParams | None = None

    def complete(self) -> bool:
        return all(r.peak_wavelength is not None for r in self.rows)

    def periods(self) -> np.ndarray:
        return np.array([r.period for r in self.rows])

    def peak_wavelengths(self) -> np.ndarray:
        return np.array([np.nan if r.peak_wavelength is None else r.peak_wavelength
                         for r in self.rows])

    def is_monotone(self) -> bool:
        """Strict monotonicity of peak wavelength in period, in either direction.

        The rows are taken in period order, whatever order they were swept in.
        """
        if not self.complete():
            return False
        diffs = np.diff(self.peak_wavelengths()[np.argsort(self.periods())])
        return bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))


def calibrate(make_cell, periods, material: MaterialParams, wavelength_min: float,
              wavelength_max: float, samples: int, *, radius: float, node_count: int
              ) -> tuple[CalibrationTable, list[ResonanceCurve]]:
    """Per period: ``make_cell(period)``, spectrum, sweep and dominant peak.

    Returns the calibration table (``radius`` and ``node_count`` label it) and
    the resonance curve of each period in order.  A curve keeps nothing of
    its spectrum, so one decomposition is alive at a time.
    """
    rows, curves = [], []
    for period in periods:
        curve = sweep(decompose(make_cell(period)), material, wavelength_min,
                      wavelength_max, samples)
        peak = dominant_peak(curve)  # None leaves the row's peak fields None
        rows.append(CalibrationRow(period=float(period), peak_wavelength=peak and peak.wavelength,
                                   peak_magnitude=peak and peak.magnitude,
                                   mode_index=peak and peak.mode_index))
        curves.append(curve)
    return CalibrationTable(rows=tuple(rows), radius=radius, node_count=node_count), curves


def peak_vs_period(radius: float, periods, material: MaterialParams,
                   wavelength_min: float, wavelength_max: float,
                   samples: int = 400, node_count: int = 256) -> CalibrationTable:
    """Calibration table of a disk of the given radius over the period ratios."""
    return calibrate(lambda period: make_disk_cell(radius, period, node_count), periods,
                     material, wavelength_min, wavelength_max, samples,
                     radius=radius, node_count=node_count)[0]
