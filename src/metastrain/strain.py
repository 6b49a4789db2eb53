"""Capsule deformation bookkeeping and inversion of peak shifts into strain.

An area-conserving uniaxial stretch turns the circular capsule of radius r
into an ellipse with semi-axes L1 >= L2 = r^2/L1.  Its perimeter is taken as
P = pi*sqrt(2)*sqrt(L1^2 + L2^2) (exact for the circle), and the particles
stay equally spaced so P = N*d.

A measured peak maps back to a period through the monotone piecewise-cubic
Hermite interpolant (PCHIP) of the calibration knots (Fritsch & Carlson,
SIAM J. Numer. Anal. 17, 1980, with Fritsch & Butland's slopes), built as
scipy's ``PchipInterpolator`` builds it.  With knot spacings h_k and secant
slopes m_k, an interior slope is the weighted harmonic mean

    1/d_k = (w1/m_{k-1} + w2/m_k) / (w1 + w2),   w1 = 2h_k + h_{k-1}, w2 = h_k + 2h_{k-1},

or 0 where m_{k-1} and m_k differ in sign or either vanishes.  An end slope
is the three-point ((2h_0 + h_1) m_0 - h_0 m_1) / (h_0 + h_1), set to 0 when
its sign is not m_0's and to 3 m_0 when m_1 has the other sign and it
exceeds 3 |m_0| (Moler, Numerical Computing with MATLAB, 3.6); two knots
give a line.  With s = x - x_k and t = (d_k + d_{k+1} - 2 m_k) / h_k,

    y_k + d_k s + ((m_k - d_k) / h_k - t) s^2 + (t / h_k) s^3

on x_k <= x < x_{k+1}, summed in this order as scipy's ``PPoly`` sums it, so
the map agrees with ``PchipInterpolator`` bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OutOfRangeError
from .resonance_sweep import CalibrationTable

# r^2 stays a normal float and r^4 finite between these radii
_RADIUS_MIN, _RADIUS_MAX = 1e-154, 1e77


@dataclass(frozen=True)
class CapsuleState:
    """Deformed capsule of radius r with N particles on perimeter P.

    The axes, the Taylor deformation index and the particle spacing follow
    from those three: L1, L2 from :func:`axes_from_perimeter`, D from
    :func:`deformation_index` and d = P / N.
    """

    r: float
    N: int
    L1: float = field(init=False)
    L2: float = field(init=False)
    D: float = field(init=False)
    P: float
    d: float = field(init=False)

    def __post_init__(self):
        L1, L2 = axes_from_perimeter(self.r, self.P)
        object.__setattr__(self, "L1", L1)
        object.__setattr__(self, "L2", L2)
        object.__setattr__(self, "D", deformation_index(L1, L2))
        object.__setattr__(self, "d", self.P / self.N)


def deformation_index(L1: float, L2: float) -> float:
    """Taylor index (L1 - L2)/(L1 + L2) for L1 >= L2 > 0."""
    if L2 <= 0.0 or L1 < L2:
        raise DomainError("axes must satisfy L1 >= L2 > 0")
    return (L1 - L2) / (L1 + L2)


def axes_from_perimeter(r: float, P_target: float) -> tuple[float, float]:
    """Invert the perimeter approximation under area conservation.

    With C = (P/(pi*sqrt(2)))^2, the major axis solves t^2 - C t + r^4 = 0 for
    t = L1^2; feasibility requires P >= 2*pi*r (the circle minimises the
    perimeter at fixed area).  The axes must also be resolved in double
    precision: r^2 a normal float, r^4 finite, and L2 above one ulp of L1 so
    that the deformation index stays below 1.
    """
    if not _RADIUS_MIN <= r <= _RADIUS_MAX:
        raise OutOfRangeError(
            f"capsule radius {r:.6g} outside [{_RADIUS_MIN:g}, {_RADIUS_MAX:g}], "
            "where r^2 and r^4 stay normal floats"
        )
    if P_target < 2.0 * np.pi * r * (1.0 - 1e-14):
        raise OutOfRangeError(
            f"target perimeter {P_target:.6g} below the circular minimum {2*np.pi*r:.6g}"
        )
    with np.errstate(over="ignore"):
        C = (P_target / (np.pi * np.sqrt(2.0))) ** 2
        disc = max(C**2 - 4.0 * r**4, 0.0)
    t = 0.5 * (C + np.sqrt(disc))
    L1 = max(float(np.sqrt(t)), r)
    L2 = r**2 / L1
    if not (L1 - L2) / (L1 + L2) < 1.0:
        raise OutOfRangeError(
            f"capsule of radius {r:.6g} stretched to perimeter {P_target:.6g} has axes "
            f"L1 = {L1:.3g}, L2 = {L2:.3g}: the deformation index is not resolved below 1"
        )
    return L1, L2


def _pchip(x: np.ndarray, y: np.ndarray):
    """The PCHIP through the knots (x, y), x strictly ascending, as a function of x."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full(x.size, m[0])
    if x.size > 2:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        clip = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(clip, 3.0 * m0, end))

    def evaluate(at: float) -> float:
        k = min(max(int(np.searchsorted(x, at, side="right")) - 1, 0), x.size - 2)
        s, t = at - x[k], (d[k] + d[k + 1] - 2.0 * m[k]) / h[k]
        return float(y[k] + d[k] * s + ((m[k] - d[k]) / h[k] - t) * (s * s)
                     + t / h[k] * (s * s * s))

    return evaluate


@functools.lru_cache(maxsize=1)
def _peak_to_period(calibration: CalibrationTable):
    """Knot peak wavelengths in ascending order and the monotone map peak -> period.

    Built once per table: inverting several peaks against one table checks,
    sorts and interpolates it once.  A table that fails a check raises on
    every call, since exceptions are not cached.
    """
    if not calibration.complete():
        missing = [row.period for row in calibration.rows if row.peak_wavelength is None]
        raise OutOfRangeError(f"calibration rows without a peak at periods {missing}")
    if len(calibration.rows) < 2:
        raise OutOfRangeError("calibration table needs at least two periods")
    lam = calibration.peak_wavelengths()
    per = calibration.periods()
    if not calibration.is_monotone():
        unique, counts = np.unique(per, return_counts=True)
        repeated = unique[counts > 1]
        named = f": period {float(repeated[0])!r} is listed more than once" if repeated.size else ""
        raise OutOfRangeError(f"calibration table is not strictly monotone in wavelength{named}")
    order = np.argsort(lam)
    lam, per = lam[order], per[order]
    return lam, _pchip(lam, per)


def invert_peak_to_deformation(peak_wavelength: float, calibration: CalibrationTable,
                               r: float, N: int, delta_phys: float) -> CapsuleState:
    """Measured peak wavelength to full capsule state through the calibration table.

    Monotone piecewise-cubic interpolation maps the peak back to a period
    ratio, the physical spacing follows as ratio * delta_phys, and the axes
    come from the perimeter inversion.  A peak within one ulp of the lowest
    or highest knot reads as that knot, so a knot typed in other units and
    converted back still inverts; anything farther out is out of range.
    """
    lam, period_of_peak = _peak_to_period(calibration)
    for knot in (lam[0], lam[-1]):
        if abs(peak_wavelength - knot) <= np.spacing(knot):
            peak_wavelength = float(knot)
    if not lam[0] <= peak_wavelength <= lam[-1]:
        raise OutOfRangeError(
            f"peak wavelength {float(peak_wavelength)!r} m outside the calibrated range "
            f"[{float(lam[0])!r}, {float(lam[-1])!r}] m"
        )
    ratio = period_of_peak(peak_wavelength)
    d_phys = ratio * delta_phys
    return CapsuleState(r=r, N=N, P=N * d_phys)
