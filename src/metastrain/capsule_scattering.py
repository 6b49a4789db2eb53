"""Scattering by a circular capsule carrying the effective interface condition.

The particle layer is replaced by the transmission condition on the circle
of radius r:

    d(u)/dnu continuous,        u|+ - u|- = -beta * d(u)/dnu,

with beta = 2 * delta_phys * alpha2_plus (a complex length).  The problem
separates in cylindrical modes: interior regular waves J_n, exterior incident
plane wave plus outgoing waves.  Fields carry exp(+i*omega*t), so outgoing
means Hankel functions of the second kind; per mode the 2x2 system has the
closed-form solution

    b_n = c_n * beta*k * J_n'^2 / (W - beta*k * J_n' H_n'),   W = -2i/(pi k r),

using the Wronskian J_n(z) H_n'(z) - J_n'(z) H_n(z) = W, and c_n = i^n
exp(-i n theta_inc) from the Jacobi-Anger expansion of the incident wave.
Only the widths are computed, from the orders |n| <= N = ceil(k r) + 16; the
coefficients themselves are formed in the test oracle ``tests/modal_oracle.py``.

J_n, Y_n and their derivatives come from one Bessel ladder on the orders
n = 0..N+1, with H = J - iY; no ``jv`` or ``hankel2`` call is made.  Y comes
from one ``y0`` and one ``y1`` call by the forward recurrence

    Y_{n+1} = (2n) Y_n / z - Y_{n-1}

(Abramowitz & Stegun 9.1.27).  Y_n is the dominant solution of this
recurrence (it grows like (n-1)! (2/z)^n once n > z, while J_n decays), so
forward recurrence is stable for it (Gautschi, SIAM Rev. 9, 1967).  The
expression is the one cephes ``yn`` evaluates, so Y agrees with
``scipy.special.yn`` bit for bit.  Against 30-digit mpmath, H is within
8e-16 relative at z = 11.6 (AMOS ``hankel2``: 9e-15); at larger z both carry
errors of order z * eps, the conditioning of Y_n(z) in z.

J_n is the minimal solution of the same recurrence, so it comes stably from
the ratios r_n = J_n / J_{n-1} run backward,

    r_n = 1 / (2n / z - r_{n+1}),

from r = 0 at the order top + 20 + ceil(8 cbrt(z_max)), top = N + 1 (Gautschi,
ibid.).  The cube-root term is the width of the turning region n ~ z: with a
fixed margin of 20 orders J is off by 2e-2 at z = 2e4.  The Wronskian
J_{n+1} Y_n - J_n Y_{n+1} = 2 / (pi z) with the Y ladder then fixes the scale
without a normalisation sum (Steed's method: Barnett, Feng, Steed & Goldfarb,
Comput. Phys. Commun. 8, 1974):

    J_n = (2 / (pi z)) / (r_{n+1} Y_n - Y_{n+1})   (n < top),   J_top = r_top J_{top-1}.

The closure inherits the absolute error of Y: against 40-digit mpmath, J is
within 2.3e-15 of each row's maximum on 153 rows z in [0.05, 12.5] (``jv``:
9.3e-16), and within 1.4e-16 when the exact Y is used instead.  The
derivatives are the difference (F_{n-1} - F_{n+1}) / 2 with F_0' = -F_1 (the
formula scipy's ``jvp``/``h2vp`` use), and negative orders follow by
reflection, F_{-n} = (-1)^n F_n.  For very small k r, Y_n overflows below the
truncation and the capsule is rejected; so is a spectrum whose ladder would
not fit the memory budget.

The mode ratio s_n = beta*k * J_n'^2 / (W - beta*k * J_n' H_n') is even in n
and b_n = c_n s_n with |c_n| = 1, so the widths fold onto n = 0..N with weight
1 for n = 0 and 2 for n > 0:

    sigma_ext = -(4/k) Re sum' s_n,        sigma_sca = (4/k) sum' |s_n|^2.

The incidence angle enters only through the phases c_n, which cancel in both
sums: for the circular capsule the widths do not depend on the direction of
incidence.  ``extinction_spectrum`` evaluates the folded sums for all
wavelengths at once on a (wavelength x order) grid, in real arithmetic.
With beta*k = b_r + i b_i and w = 2 / (pi z), the denominator
D = W - beta*k J_n' H_n' has

    Re D = -J_n' (b_r J_n' + b_i Y_n'),    Im D = -w - J_n' (b_i J_n' - b_r Y_n'),

and with q_n = J_n'^2 / |D|^2

    sigma_sca = (4/k) |beta k|^2 sum' q_n J_n'^2,
    sigma_ext = sigma_sca + (4/k) b_i w sum' q_n.

The second term is the absorbed width.  At small k r the terms s_n are almost
imaginary, and their real part taken from the complex form loses digits to
cancellation (up to 1e-3 relative at r = 1e-20 m, k r ~ 1e-13, over the
default window); this form has no cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import MaterialParams, contrast_values, omega_from_wavelength
from .errors import DomainError, OutOfRangeError, QuadratureFailure
from .spectral import SpectralDecomposition, alpha2_plus_batch


# float64 (wavelength x order) arrays live at once in extinction_spectrum, and
# the most bytes they may take; larger spectra are refused before allocating
_LADDER_ARRAYS = 8
_LADDER_BYTES_MAX = 2**29


def _check_size_parameter(k, radius):
    """k r, rejected unless positive and small enough for the Bessel ladder's memory budget.

    The ladder holds _LADDER_ARRAYS arrays of (rows x orders 0..ceil(k r) + 17)
    floats; above _LADDER_BYTES_MAX bytes the request is refused before
    anything is allocated.
    """
    with np.errstate(over="ignore"):
        z = k * radius
        z_max = np.max(z, initial=0.0)
        # inf when k r or the byte count overflows
        ladder_bytes = np.size(z) * (np.ceil(z_max) + 18.0) * 8.0 * _LADDER_ARRAYS
    if not np.all(z > 0.0):
        raise DomainError("k * r must be positive")
    if not ladder_bytes <= _LADDER_BYTES_MAX:
        raise OutOfRangeError(
            f"size parameter k * r = {z_max:.3g} is too large: the Bessel ladder "
            f"would need {ladder_bytes / 2**20:.3g} MiB (limit {_LADDER_BYTES_MAX / 2**20:g} MiB)"
        )
    return z


def _derivative(ladder: np.ndarray) -> np.ndarray:
    """F_n' = (F_{n-1} - F_{n+1}) / 2 on orders 0..top-1, with F_{-1} = -F_1."""
    prime = np.empty_like(ladder[:, :-1])
    prime[:, 0] = -ladder[:, 1]
    prime[:, 1:] = (ladder[:, :-2] - ladder[:, 2:]) / 2.0
    return prime


def _real_ladder(z: np.ndarray, n_modes: np.ndarray):
    """J_n, J_n', Y_n, Y_n' at orders n = 0..max(n_modes), one row per z.

    Y comes from one ``y0`` and one ``y1`` call by forward recurrence.  J, the
    minimal solution, comes from the ratios r_n = J_n / J_{n-1} run backward
    from r = 0 at order top + 20 + ceil(8 cbrt(max z)), top = max(n_modes) + 1
    (the cube-root term is the width of the turning region n ~ z), closed by
    the Wronskian: J_n = (2 / (pi z)) / (r_{n+1} Y_n - Y_{n+1}) for n < top and
    J_top = r_top J_{top-1}.  Against 40-digit mpmath J is within 2.3e-15 of
    each row's maximum for z <= 12.5 (``jv``: 9.3e-16; see the module
    docstring).  Each order is one vectorised row over all z.  All four
    arrays are zero above a row's own ``n_modes``.  Raises
    :class:`OutOfRangeError` when k r is so small that Y overflows below a
    row's truncation.
    """
    # imported here so that only the scattering path pays for scipy.special
    from scipy.special import y0, y1

    top = int(n_modes.max(initial=0)) + 1
    live = np.arange(top + 1) <= n_modes[:, None] + 1
    # one contiguous row per order; above a row's own n_modes + 1 either
    # recurrence may overflow, and those entries are dropped below
    Y = np.empty((top + 1, z.size))
    J = np.empty_like(Y)
    Y[0] = y0(z)
    Y[1] = y1(z)
    wronskian = 2.0 / (np.pi * z)
    ratio = np.zeros(z.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for n in range(1, top):
            Y[n + 1] = (2 * n) * Y[n] / z - Y[n - 1]
        for n in range(top + 20 + int(np.ceil(8.0 * np.cbrt(z.max(initial=0.0)))), 0, -1):
            ratio = 1.0 / ((2 * n) / z - ratio)
            if n <= top:
                J[n - 1] = wronskian / (ratio * Y[n - 1] - Y[n])
            if n == top:
                J[top] = ratio * J[top - 1]
    Y = np.where(live, Y.T, 0.0)
    J = np.where(live, J.T, 0.0)
    finite = (np.isfinite(Y) & np.isfinite(J)).all(axis=1)
    if not finite.all():
        raise OutOfRangeError(
            f"size parameter k * r = {z[np.argmin(finite)]:.3g} is too small: "
            "Y_n overflows below the mode truncation"
        )
    ladders = [J[:, :-1], _derivative(J), Y[:, :-1], _derivative(Y)]
    beyond = np.arange(top) > n_modes[:, None]
    for F in ladders:
        F[beyond] = 0.0
    return ladders


@dataclass(frozen=True)
class ExtinctionCurve:
    wavelengths: np.ndarray
    extinction: np.ndarray
    scattering: np.ndarray
    radius: float
    delta_phys: float
    material: MaterialParams


def extinction_spectrum(radius: float, material: MaterialParams,
                        decomposition: SpectralDecomposition, delta_phys: float,
                        wavelengths, beta_override: complex | None = None) -> ExtinctionCurve:
    """Extinction and scattering versus wavelength for the effective capsule.

    The jump coefficient is recomputed per wavelength as 2*delta_phys*alpha2_plus
    unless ``beta_override`` pins it (used for transparency checks).  Each
    wavelength sums the orders |n| <= N = ceil(k r) + 16 of its own k r, and
    the folded mode sums of the module docstring are taken for all
    wavelengths at once, in their real, cancellation-free form.  The widths do
    not depend on the incidence direction.  A spectrum whose Bessel ladder
    would not fit the memory budget is refused before anything is computed.
    """
    lam_grid = np.asarray(wavelengths, dtype=float)
    k = 2.0 * np.pi / lam_grid
    z = _check_size_parameter(k, radius)
    omega = omega_from_wavelength(lam_grid, material)
    if beta_override is None:
        contrasts = contrast_values(omega, material)
        betas = 2.0 * delta_phys * alpha2_plus_batch(decomposition, contrasts)
    else:
        betas = np.full(lam_grid.shape, complex(beta_override))

    _, Jp, _, Yp = _real_ladder(z, np.ceil(z).astype(int) + 16)
    beta_k = betas * k
    b_r, b_i = beta_k.real[:, None], beta_k.imag[:, None]
    w = 2.0 / (np.pi * z)
    # -Re D and -Im D of D = W - beta*k J' H', and the size of its two terms
    denom2 = (Jp * (b_r * Jp + b_i * Yp)) ** 2 + (w[:, None] + Jp * (b_i * Jp - b_r * Yp)) ** 2
    size = w[:, None] + np.abs(beta_k)[:, None] * np.abs(Jp) * np.hypot(Jp, Yp)
    bad = denom2 < (1e-14 * size) ** 2
    if np.any(bad):
        i = int(np.argmax(bad.any(axis=1)))
        m = np.flatnonzero(bad[i])
        orders = sorted({int(sign * n) for n in m for sign in (-1, 1)})
        raise QuadratureFailure(
            f"singular mode systems at orders {orders} for beta = {betas[i]} "
            f"at wavelength {lam_grid[i]} m"
        )
    q = Jp**2 / denom2
    q[:, 1:] *= 2.0  # the folded orders -n and n
    sca = 4.0 / k * np.abs(beta_k) ** 2 * np.sum(q * Jp**2, axis=1)
    ext = sca + 4.0 / k * beta_k.imag * w * np.sum(q, axis=1)
    return ExtinctionCurve(wavelengths=lam_grid, extinction=ext, scattering=sca,
                           radius=radius, delta_phys=delta_phys, material=material)
