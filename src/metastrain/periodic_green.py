"""Green's function of the Laplacian with a 1-D lattice of unit sources.

For sources at (n*L, 0), n integer, the closed form is

    G(xi) = (1/4pi) * ln[ sinh^2(pi*xi2/L) + sin^2(pi*xi1/L) ]
          = (1/2pi) * ln|sin(pi*(xi1 + i*xi2)/L)|,

which is L-periodic in xi1 and behaves like (1/2pi)*ln|xi| + (1/2pi)*ln(pi/L)
near the origin.  At large |xi2| it approaches |xi2|/(2L) - ln(2)/(2pi) up to
terms of order exp(-2pi|xi2|/L).

The smooth remainder R(xi) = G(xi) - (1/2pi)*ln|xi| (with the removable
singularity filled in) is exposed separately; the singular quadrature in
:mod:`.layer_ops` integrates the log part with dedicated weights and R with
the plain trapezoidal rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LatticePointError

# beyond this |pi*xi2/L| the sinh^2 term dwarfs everything representable
_FAR_FIELD_GUARD = 30.0

_LN2_OVER_2PI = np.log(2.0) / (2.0 * np.pi)


def value_from_delta(delta: np.ndarray, period_ratio: float) -> np.ndarray:
    """G evaluated at complex separations delta = dxi1 + i*dxi2 (vectorised)."""
    delta = np.asarray(delta, dtype=complex)
    u = np.pi * delta.real / period_ratio
    v = np.pi * delta.imag / period_ratio
    out = np.empty(delta.shape, dtype=float)
    far = np.abs(v) > _FAR_FIELD_GUARD
    near = ~far
    s2 = np.sin(u[near]) ** 2 + np.sinh(v[near]) ** 2
    with np.errstate(divide="ignore"):
        out[near] = np.log(s2) / (4.0 * np.pi)
    out[far] = np.abs(delta.imag[far]) / (2.0 * period_ratio) - _LN2_OVER_2PI
    return out


def gradient_from_delta(delta: np.ndarray, period_ratio: float) -> np.ndarray:
    """Gradient of G in the first argument, returned as d1G + i*d2G."""
    delta = np.asarray(delta, dtype=complex)
    L = period_ratio
    u = np.pi * delta.real / L
    v = np.pi * delta.imag / L
    out = np.empty(delta.shape, dtype=complex)
    far = np.abs(v) > _FAR_FIELD_GUARD
    near = ~far
    den = np.sin(u[near]) ** 2 + np.sinh(v[near]) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out[near] = (np.sin(2.0 * u[near]) + 1j * np.sinh(2.0 * v[near])) / (4.0 * L * den)
    out[far] = 1j * np.sign(v[far]) / (2.0 * L)
    return out


def _cot_minus_inverse(w: np.ndarray) -> np.ndarray:
    """cot(w) - 1/w, stable near w = 0 (value 0 at w = 0)."""
    w = np.asarray(w, dtype=complex)
    out = np.empty(w.shape, dtype=complex)
    small = np.abs(w) < 0.1
    ws = w[small]
    w2 = ws * ws
    out[small] = -ws * (1.0 / 3.0 + w2 * (1.0 / 45.0 + w2 * (2.0 / 945.0 + w2 / 4725.0)))
    wl = w[~small]
    out[~small] = np.cos(wl) / np.sin(wl) - 1.0 / wl
    return out


def remainder_from_delta(delta: np.ndarray, period_ratio: float) -> np.ndarray:
    """Smooth part R(delta) = G(delta) - (1/2pi)*ln|delta|.

    The removable singularity at delta = 0 is filled with (1/2pi)*ln(pi/L).
    Valid for |Re delta| < L (between the neighbouring lattice points).
    """
    delta = np.asarray(delta, dtype=complex)
    L = period_ratio
    u = np.pi * delta.real / L
    v = np.pi * delta.imag / L
    out = np.empty(delta.shape, dtype=float)
    far = np.abs(v) > _FAR_FIELD_GUARD
    near = ~far
    num = np.sin(u[near]) ** 2 + np.sinh(v[near]) ** 2
    den = u[near] ** 2 + v[near] ** 2
    ratio = np.ones_like(num)
    nz = den > 0.0
    ratio[nz] = num[nz] / den[nz]
    # den = (pi/L)^2 |delta|^2: the constant turns ln(num/den)/(4pi) into G - ln|delta|/(2pi)
    out[near] = np.log(ratio) / (4.0 * np.pi) + np.log(np.pi / L) / (2.0 * np.pi)
    with np.errstate(divide="ignore"):
        out[far] = (
            np.abs(delta.imag[far]) / (2.0 * L)
            - _LN2_OVER_2PI
            - np.log(np.abs(delta[far])) / (2.0 * np.pi)
        )
    return out


def remainder_gradient_from_delta(delta: np.ndarray, period_ratio: float) -> np.ndarray:
    """Gradient of the smooth remainder, as d1R + i*d2R (zero at delta = 0)."""
    delta = np.asarray(delta, dtype=complex)
    w = np.pi * delta / period_ratio
    g = _cot_minus_inverse(w) / (2.0 * period_ratio)
    # grad(Re f) = (Re f', -Im f') for holomorphic f
    return g.real - 1j * g.imag


def far_field_value(dxi2, period_ratio: float):
    """Large-|xi2| limit |dxi2|/(2L) - ln(2)/(2pi) of the Green's function."""
    return np.abs(dxi2) / (2.0 * period_ratio) - _LN2_OVER_2PI


@dataclass(frozen=True)
class PeriodicKernel:
    """Periodic Green's function for a lattice of period ``period_ratio`` on the xi1-axis."""

    period_ratio: float

    def __post_init__(self):
        if not self.period_ratio > 0.0:
            raise ValueError(f"period_ratio must be positive, got {self.period_ratio}")

    def _delta(self, xi, zeta) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        zeta = np.asarray(zeta, dtype=float)
        d = xi - zeta
        delta = d[..., 0] + 1j * d[..., 1]
        wrapped = delta.real - self.period_ratio * np.round(delta.real / self.period_ratio)
        dist = np.hypot(wrapped, delta.imag)
        if np.any(dist < 1e-13 * max(1.0, self.period_ratio)):
            raise LatticePointError("xi - zeta lies on the source lattice")
        return delta

    def green(self, xi, zeta) -> float | np.ndarray:
        """G(xi - zeta); L-periodic in xi1 - zeta1 and symmetric under swap."""
        val = value_from_delta(self._delta(xi, zeta), self.period_ratio)
        return float(val) if val.ndim == 0 else val

    def grad_green(self, xi, zeta) -> np.ndarray:
        """Gradient of G in xi, shape (..., 2)."""
        g = gradient_from_delta(self._delta(xi, zeta), self.period_ratio)
        return np.stack([g.real, g.imag], axis=-1)

    def far_field(self, dxi2) -> float | np.ndarray:
        val = far_field_value(dxi2, self.period_ratio)
        return float(val) if np.ndim(val) == 0 else val

    def remainder(self, xi, zeta) -> float | np.ndarray:
        """Smooth part G - (1/2pi)*ln|xi - zeta| (defined across the diagonal)."""
        xi = np.asarray(xi, dtype=float)
        zeta = np.asarray(zeta, dtype=float)
        d = xi - zeta
        delta = d[..., 0] + 1j * d[..., 1]
        val = remainder_from_delta(delta, self.period_ratio)
        return float(val) if val.ndim == 0 else val
