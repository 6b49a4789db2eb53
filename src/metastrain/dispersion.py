"""Drude material model, frequency-dependent contrast and the resonance condition.

Sign convention: the Drude permeability is used exactly as written,
mu_c(omega) = mu0 * (1 - omega_p^2 / (omega^2 + i*omega/T)), which gives the
contrast lam(omega) = (mu_m + mu_c) / (2*(mu_m - mu_c)) a strictly positive
imaginary part for omega > 0 and finite collision time T.  That keeps every
mode sum pole-free; time-harmonic fields carry exp(+i*omega*t) so that
outgoing cylindrical waves are Hankel functions of the second kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# vacuum permittivity and permeability, CODATA 2022 (the edition scipy 1.17
# ships as scipy.constants); literals keep the output bytes independent of the
# installed scipy and keep scipy off the import path
EPS0 = 8.8541878188e-12
MU0 = 1.25663706127e-06


@dataclass(frozen=True)
class MaterialParams:
    """Background and particle material constants in SI units."""

    mu_m: float = MU0
    eps_m: float = EPS0
    omega_p: float = 2.0e15
    collision_time: float = 1.0e-14

    def __post_init__(self):
        # the SI quantities the model reads must be positive finite doubles;
        # scaling a relative constant can underflow to 0 or overflow to inf
        mu_m, eps_m = float(self.mu_m), float(self.eps_m)
        omega_p, T = float(self.omega_p), float(self.collision_time)
        for name, value in (
                ("background permeability mu_m", mu_m),
                ("background permittivity eps_m", eps_m),
                ("eps_m * mu_m", eps_m * mu_m),
                ("plasma frequency omega_p", omega_p),
                ("omega_p^2", omega_p * omega_p),
                ("collision time T", T)):
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite in SI units, got {value!r}")
        # 1/T^2 may underflow to 0 (no damping) but must not overflow
        if not 1.0 / T / T < math.inf:
            raise DomainError(f"1/T^2 must be finite in SI units, got T = {T!r}")

    @classmethod
    def from_relative(cls, mu_m_rel: float = 1.0, eps_m_rel: float = 1.0,
                      omega_p: float = 2.0e15, collision_time: float = 1.0e-14,
                      plasma_frequency_is_angular: bool = True) -> "MaterialParams":
        """Build from relative constants; a non-angular plasma frequency is scaled by 2*pi."""
        wp = omega_p if plasma_frequency_is_angular else 2.0 * np.pi * omega_p
        return cls(
            mu_m=mu_m_rel * MU0,
            eps_m=eps_m_rel * EPS0,
            omega_p=wp,
            collision_time=collision_time,
        )

    @property
    def background_speed(self) -> float:
        """Wave speed in the background medium."""
        return 1.0 / np.sqrt(self.eps_m * self.mu_m)


def drude_mu(omega, material: MaterialParams):
    """Drude permeability mu0 * (1 - omega_p^2 / (omega^2 + i*omega/T))."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise DomainError("frequency must be positive")
    gamma = 1.0 / material.collision_time
    val = MU0 * (1.0 - material.omega_p**2 / (omega**2 + 1j * omega * gamma))
    return complex(val) if val.ndim == 0 else val


def contrast_values(omega, material: MaterialParams):
    """Vectorised contrast (mu_m + mu_c) / (2*(mu_m - mu_c)) over a frequency grid."""
    mu_c = np.asarray(drude_mu(omega, material))
    diff = material.mu_m - mu_c
    if np.any(diff == 0.0):
        raise DomainError("mu_m equals mu_c: contrast is infinite")
    return (material.mu_m + mu_c) / (2.0 * diff)


def resonance_radicand(lambda_j, material: MaterialParams):
    """(lambda_j + 1/2)*omega_p^2 - 1/(4 T^2), the square of Re omega; vectorised.

    The closed form of the resonance condition lambda_j = lam(omega); a mode
    whose radicand is not positive is overdamped and has no real resonance
    frequency.  The damping term is 1/(2T) squared as 0.25/T/T, which underflows
    to zero where T^2 would overflow.
    """
    T = material.collision_time
    return (lambda_j + 0.5) * material.omega_p**2 - 0.25 / T / T


def omega_from_wavelength(lam_m, material: MaterialParams):
    """Angular frequency 2*pi*c/lambda with c the background medium speed.

    The map is its own inverse: applied to an angular frequency it returns the
    wavelength.
    """
    lam_m = np.asarray(lam_m, dtype=float)
    if np.any(lam_m <= 0.0):
        raise DomainError("wavelength must be positive")
    val = 2.0 * np.pi * material.background_speed / lam_m
    return float(val) if val.ndim == 0 else val


def check_window(material: MaterialParams, wavelength_min: float, wavelength_max: float):
    """Refuse a window over which the contrast, or its square, may not be finite.

    Decided from the window's two ends, where the frequencies are extreme.
    Every intermediate of the contrast, omega^2, omega/T and the Drude ratio,
    peaks at one of them, so an overflow there is refused.  Over the window
    Re(mu_m - mu_c) = mu_m - mu0 + mu0 omega_p^2/(omega^2 + 1/T^2) falls with
    omega and |Im(mu_m - mu_c)| = mu0 omega_p^2/(omega T (omega^2 + 1/T^2))
    does too, so |mu_m - mu_c| is at least the larger of their smallest values
    (less a slack for the rounding of the real part, which cancels near a
    sign change).  The contrast (mu_m + mu_c)/(2 (mu_m - mu_c)) is then at
    most mu_m/|mu_m - mu_c| + 1/2 in modulus; the window is refused unless
    2 (mu_m/|mu_m - mu_c| + 1) squares to a finite number, which leaves room
    for the squares of the mode sums.  A :class:`DomainError` names the
    failure.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            omega = omega_from_wavelength([wavelength_max, wavelength_min], material)
            diff = material.mu_m - drude_mu(omega, material)
        except FloatingPointError as exc:
            raise DomainError(f"the Drude permeability is not finite over the window: {exc}"
                              ) from exc
    re_lo, re_hi = diff.real
    slack = 1e-12 * (material.mu_m + MU0 + max(abs(re_lo), abs(re_hi)))
    re_min = re_hi if re_hi > 0.0 else -re_lo if re_lo < 0.0 else 0.0
    floor = max(re_min - slack, abs(diff.imag[1]) * (1.0 - 1e-12))
    with np.errstate(over="ignore", divide="ignore"):  # a floor of 0 is a pole: inf
        bound = material.mu_m / floor + 1.0
        if not (2.0 * bound) ** 2 < math.inf:
            raise DomainError(f"the contrast may reach {bound:.3g} in modulus over the window, "
                              "beyond what its square can hold")
