"""Capsule deformation bookkeeping and inversion of peak shifts into strain.

An area-conserving uniaxial stretch turns the circular capsule of radius r
into an ellipse with semi-axes L1 >= L2 = r^2/L1.  Its perimeter is taken as
P = pi*sqrt(2)*sqrt(L1^2 + L2^2) (exact for the circle), the particles stay
equally spaced so P = N*d, and the orientation angle is always zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, DomainError, OutOfRangeError
from .resonance_sweep import CalibrationTable

_REL_TOL = 1e-10
# r^2 stays a normal float and r^4 finite between these radii
_RADIUS_MIN, _RADIUS_MAX = 1e-154, 1e77


@dataclass(frozen=True)
class CapsuleState:
    """Deformed capsule: axes, Taylor deformation index and particle spacing."""

    r: float
    N: int
    L1: float
    L2: float
    D: float
    P: float
    d: float
    theta: float = 0.0

    def __post_init__(self):
        if abs(self.L1 * self.L2 - self.r**2) > _REL_TOL * self.r**2:
            raise DomainError("axes violate area conservation L1*L2 = r^2")
        if abs(self.P - self.N * self.d) > _REL_TOL * self.P:
            raise DomainError("perimeter and spacing violate P = N*d")
        if not 0.0 <= self.D < 1.0:
            raise DomainError(f"deformation index {self.D} outside [0, 1)")

    @classmethod
    def from_perimeter(cls, r: float, N: int, P: float) -> "CapsuleState":
        L1, L2 = axes_from_perimeter(r, P)
        return cls(r=r, N=N, L1=L1, L2=L2, D=deformation_index(L1, L2),
                   P=P, d=P / N)


def deformation_index(L1: float, L2: float) -> float:
    """Taylor index (L1 - L2)/(L1 + L2) for L1 >= L2 > 0."""
    if L2 <= 0.0 or L1 < L2:
        raise DomainError("axes must satisfy L1 >= L2 > 0")
    return (L1 - L2) / (L1 + L2)


def perimeter(L1: float, L2: float) -> float:
    """Ellipse perimeter approximation pi*sqrt(2)*sqrt(L1^2 + L2^2)."""
    if L1 <= 0.0 or L2 <= 0.0:
        raise DomainError("axes must be positive")
    return np.pi * np.sqrt(2.0) * np.hypot(L1, L2)


def stretch_ratio(r: float, L1: float) -> float:
    """Perimeter ratio of the area-conserving ellipse with major axis L1 to the circle."""
    if L1 < r:
        raise DomainError("major axis cannot be smaller than the undeformed radius")
    return perimeter(L1, r**2 / L1) / (2.0 * np.pi * r)


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
            "where r^2 and r^4 stay normal floats",
            lo=_RADIUS_MIN, hi=_RADIUS_MAX,
        )
    if P_target < 2.0 * np.pi * r * (1.0 - 1e-14):
        raise OutOfRangeError(
            f"target perimeter {P_target:.6g} below the circular minimum {2*np.pi*r:.6g}",
            lo=2.0 * np.pi * r,
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


@functools.lru_cache(maxsize=1)
def _peak_to_period(calibration: CalibrationTable):
    """Knot peak wavelengths in ascending order and the monotone map peak -> period.

    Built once per table: inverting several peaks against one table checks,
    sorts and interpolates it once.  A table that fails a check raises on
    every call, since exceptions are not cached.
    """
    from scipy.interpolate import PchipInterpolator  # deferred: only inversion needs it

    if not calibration.complete():
        missing = [row.period for row in calibration.rows if row.peak_wavelength is None]
        raise CalibrationError(f"calibration rows without a peak at periods {missing}")
    if not calibration.is_monotone():
        raise CalibrationError("calibration table is not strictly monotone in wavelength")
    lam = calibration.peak_wavelengths()
    per = calibration.periods()
    order = np.argsort(lam)
    lam, per = lam[order], per[order]
    return lam, PchipInterpolator(lam, per)


def invert_peak_to_deformation(peak_wavelength: float, calibration: CalibrationTable,
                               r: float, N: int, delta_phys: float) -> CapsuleState:
    """Measured peak wavelength to full capsule state through the calibration table.

    Monotone piecewise-cubic interpolation maps the peak back to a period
    ratio, the physical spacing follows as ratio * delta_phys, and the axes
    come from the perimeter inversion.
    """
    lam, period_of_peak = _peak_to_period(calibration)
    if not lam[0] <= peak_wavelength <= lam[-1]:
        raise OutOfRangeError(
            f"peak wavelength {peak_wavelength:.6g} m outside the calibrated range "
            f"[{lam[0]:.6g}, {lam[-1]:.6g}] m",
            lo=float(lam[0]), hi=float(lam[-1]),
        )
    ratio = float(period_of_peak(peak_wavelength))
    d_phys = ratio * delta_phys
    return CapsuleState.from_perimeter(r=r, N=N, P=N * d_phys)
