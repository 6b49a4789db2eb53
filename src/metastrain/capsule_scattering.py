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

J_n' and Y_n' come from one Bessel ladder on the orders n = 0..N+1, with
H = J - iY; no scipy function is called.  J_n, the minimal solution of
f_{n-1} = (2n / z) f_n - f_{n+1}, comes from Miller's backward recurrence
(Gautschi, SIAM Rev. 9, 1967) from f = 0, 1 at the orders start + 1, start,
start = N + 21 + ceil(8 cbrt(z_max)) (the cube-root term is the width of
the turning region n ~ z: with a fixed margin of 20 orders J is off by 2e-2
at z = 2e4), normalised by J_0 + 2 sum J_2k = 1.  No order is divided by
another, so the zeros of J_0 and J_1 cost nothing.  Y_0 and Y_1 come from
the same f by the Neumann series (Abramowitz & Stegun 9.1.88-89),

    Y_0 = (2/pi) ((ln(z/2) + gamma) J_0 - 2 sum_{k>=1} (-1)^k J_2k / k),
    Y_1 = -Y_0' = (2/pi) ((ln(z/2) + gamma - 1) J_1 - J_0 / z
                          - sum_{k>=1} (-1)^k (2k + 1) / (k (k + 1)) J_{2k+1}),

and the higher orders by the forward recurrence Y_{n+1} = (2n) Y_n / z - Y_{n-1}
(A&S 9.1.27), stable because Y_n is the dominant solution.  Against
40-digit mpmath, on 153 rows z in [0.05, 12.5], J_n' is within 1.2e-15 of
each row's maximum and Y_n' within 1.6e-15 of |H_n'|; up to z = 200 both
are within 5.6e-15, errors of order z * eps, the conditioning of Y_n(z) in
z, which AMOS ``hankel2`` carries too.  The derivatives are the difference
(F_{n-1} - F_{n+1}) / 2 with F_0' = -F_1, and negative orders follow by
reflection, F_{-n} = (-1)^n F_n.  For very small k r, Y_n overflows below
the truncation and the capsule is rejected; so is a spectrum whose ladder
would not fit the memory budget.

The mode ratio s_n = beta*k * J_n'^2 / (W - beta*k * J_n' H_n') is even in n
and b_n = c_n s_n with |c_n| = 1, so the widths fold onto n = 0..N with weight
1 for n = 0 and 2 for n > 0:

    sigma_ext = -(4/k) Re sum' s_n,        sigma_sca = (4/k) sum' |s_n|^2.

The incidence angle enters only through the phases c_n, which cancel in both
sums: for the circular capsule the widths do not depend on the direction of
incidence.  ``extinction_spectrum`` evaluates the folded sums for all
wavelengths at once on an (order x wavelength) grid, in real arithmetic.
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

The ladder and the widths run in place: the forward recurrence and the
derivatives write through ``out=``, and the widths accumulate Re D and Im D
in two buffers and a scratch one, with J_n'^2 formed once.  Each keeps the
products and the summation order of the plain expressions, so the widths are
the same bytes (``tests/allocating_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import MaterialParams, contrast_values, omega_from_wavelength
from .errors import DomainError, OutOfRangeError, QuadratureFailure
from .spectral import SpectralDecomposition, alpha2_plus_batch


# float64 (order x wavelength) arrays live at once in extinction_spectrum, in
# units of rows x (ceil(k r) + 18) (tracemalloc peaks over 1000 and 4000
# wavelengths: 6.6 at the benchmark's k r <= 12, 6.2 at k r ~ 193), and the
# most bytes they may take; larger spectra are refused before allocating
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
    prime = np.empty_like(ladder[:-1])
    np.negative(ladder[1], out=prime[0])
    np.subtract(ladder[:-2], ladder[2:], out=prime[1:])
    prime[1:] /= 2.0
    return prime


def _real_ladder(z: np.ndarray, n_modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_n' and Y_n' at orders n = 0..max(n_modes), one column per z.

    J by Miller's recurrence, Y_0 and Y_1 from its Neumann series and the
    higher Y by forward recurrence (see the module docstring); each order is
    one vectorised row over all z, written in place.  Both arrays are
    order-major and zero above a column's own ``n_modes``.  Raises
    :class:`OutOfRangeError` when k r is so small that Y overflows below a
    column's truncation.
    """
    top = int(n_modes.max(initial=0)) + 1
    start = top + 20 + int(np.ceil(8.0 * np.cbrt(z.max(initial=0.0))))
    f = np.zeros((start + 2, z.size))
    f[start] = 1.0
    # a z so small that 2/z overflows ends in non-finite columns, refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a backward step grows max |f| at most 2 start / z + 1 times: rescaling
        # by a power of two every `every` orders keeps it below 2^1000
        every = max(1, int(500 // max(np.log2(2.0 * start / z.min(initial=np.inf) + 1.0), 1.0)))
        two_over_z = 2.0 / z
        for n in range(start, 0, -1):
            np.multiply(n * two_over_z, f[n], out=f[n - 1])
            f[n - 1] -= f[n + 1]
            if (start - n) % every == 0 and np.abs(f[n - 1:n + 1]).max(initial=0.0) > 2.0**500:
                f[n - 1:] *= np.ldexp(1.0, -np.frexp(np.abs(f[n - 1:n + 1]).max(axis=0))[1])
        # the sums over f_2k and f_2k+1, k = 1..start/2 (f_{start+1} = 0)
        k = np.arange(1, start // 2 + 1)
        sign = (-1.0) ** k
        norm = f[0] + 2.0 * f[2:start + 1:2].sum(axis=0)
        even = (sign / k) @ f[2:start + 1:2] / norm
        odd = (sign * (2 * k + 1) / (k * (k + 1))) @ f[3:start + 2:2] / norm
        J0, J1 = f[0] / norm, f[1] / norm
        log_term = np.log(z / 2.0) + np.euler_gamma
        Y = np.empty((top + 1, z.size))
        Y[0] = 2.0 / np.pi * (log_term * J0 - 2.0 * even)
        Y[1] = 2.0 / np.pi * ((log_term - 1.0) * J1 - J0 / z - odd)
        for n in range(1, top):
            np.multiply(2 * n, Y[n], out=Y[n + 1])
            Y[n + 1] /= z
            Y[n + 1] -= Y[n - 1]
        Jp = _derivative(f[:top + 1])
        Jp /= norm
        Yp = _derivative(Y)
    # above a column's own n_modes either recurrence may overflow
    truncated = np.arange(top)[:, None] > n_modes
    np.copyto(Jp, 0.0, where=truncated)
    np.copyto(Yp, 0.0, where=truncated)
    finite = np.isfinite(Jp).all(axis=0) & np.isfinite(Yp).all(axis=0)
    if not finite.all():
        raise OutOfRangeError(
            f"size parameter k * r = {z[np.argmin(finite)]:.3g} is too small: "
            "Y_n overflows below the mode truncation"
        )
    return Jp, Yp


def _refuse_non_finite(values: np.ndarray, wavelengths: np.ndarray, what: str):
    """Raise :class:`OutOfRangeError` at the first wavelength (column) where ``values`` is
    not finite."""
    finite = np.isfinite(values).reshape(-1, wavelengths.size).all(axis=0)
    if not finite.all():
        raise OutOfRangeError(f"{what} is not finite at wavelength "
                              f"{float(wavelengths[np.argmin(finite)])!r} m")


@dataclass(frozen=True)
class ExtinctionCurve:
    wavelengths: np.ndarray
    extinction: np.ndarray
    scattering: np.ndarray


def extinction_spectrum(radius: float, material: MaterialParams,
                        decomposition: SpectralDecomposition, delta_phys: float,
                        wavelengths, beta_override: complex | None = None) -> ExtinctionCurve:
    """Extinction and scattering versus wavelength for the effective capsule.

    The jump coefficient is recomputed per wavelength as 2*delta_phys*alpha2_plus
    unless ``beta_override`` pins it (used for transparency checks).  Each
    wavelength sums the orders |n| <= N = ceil(k r) + 16 of its own k r, and
    the folded mode sums of the module docstring are taken for all
    wavelengths at once, in their real, cancellation-free form.  The widths do
    not depend on the incidence direction.  Wavelengths that are not a 1-D
    array, a ``delta_phys`` that is not a positive finite length and a
    ``beta_override`` that is not finite are a :class:`DomainError`; a
    spectrum whose Bessel ladder would not fit the memory budget is refused
    too, both before anything is computed.  So are, as out of range, a
    beta*k or |beta*k|^2 that is not finite, before the ladder, and a layer
    so strong for the capsule that the mode systems' |D|^2 or a width
    overflows.
    """
    lam_grid = np.asarray(wavelengths, dtype=float)
    if lam_grid.ndim != 1:
        raise DomainError(f"wavelengths must be a 1-D array, got shape {lam_grid.shape}")
    if not (np.isfinite(delta_phys) and delta_phys > 0.0):
        raise DomainError(f"delta_phys must be a positive finite length, got {delta_phys!r}")
    if beta_override is not None and not np.isfinite(complex(beta_override)):
        raise DomainError(f"beta_override must be finite, got {beta_override!r}")
    k = 2.0 * np.pi / lam_grid
    z = _check_size_parameter(k, radius)
    omega = omega_from_wavelength(lam_grid, material)
    if beta_override is None:
        alpha2 = alpha2_plus_batch(decomposition, contrast_values(omega, material))
    # 2 delta_phys alpha2 k may overflow, and a product with an infinite part
    # may hold NaN: both are refused here, before the ladder
    with np.errstate(over="ignore", invalid="ignore"):
        betas = (2.0 * delta_phys * alpha2 if beta_override is None
                 else np.full(lam_grid.shape, complex(beta_override)))
        beta_k = betas * k
        beta_k2 = np.abs(beta_k) ** 2
    _refuse_non_finite(beta_k2, lam_grid, "the interface coefficient is too large: |beta * k|^2")

    Jp, Yp = _real_ladder(z, np.ceil(z).astype(int) + 16)  # orders x wavelengths
    b_r, b_i = beta_k.real, beta_k.imag
    w = 2.0 / (np.pi * z)
    # -Re D and -Im D of D = W - beta*k J' H' and their squares summed, in two
    # buffers and a scratch one, then the size of its two terms in the scratch.
    # A strong layer on a small capsule may overflow them: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        Jp2 = Jp * Jp
        re = b_r * Jp
        scratch = b_i * Yp
        re += scratch
        re *= Jp
        im = b_i * Jp
        np.multiply(b_r, Yp, out=scratch)
        im -= scratch
        im *= Jp
        im += w
        re *= re
        im *= im
        denom2 = re
        denom2 += im
    _refuse_non_finite(denom2, lam_grid, "the layer is too strong for the capsule: |D|^2")
    size = np.abs(Jp, out=scratch)
    size *= np.abs(beta_k)
    size *= np.hypot(Jp, Yp, out=im)
    size += w
    size *= 1e-14
    size *= size
    bad = denom2 < size
    if np.any(bad):
        i = int(np.argmax(bad.any(axis=0)))
        m = np.flatnonzero(bad[:, i])
        orders = sorted({int(sign * n) for n in m for sign in (-1, 1)})
        raise QuadratureFailure(
            f"singular mode systems at orders {orders} for beta = {betas[i]} "
            f"at wavelength {lam_grid[i]} m"
        )
    q = np.divide(Jp2, denom2, out=im)
    q[1:] *= 2.0  # the folded orders -n and n
    with np.errstate(over="ignore", invalid="ignore"):
        sca = 4.0 / k * beta_k2 * np.sum(np.multiply(q, Jp2, out=scratch), axis=0)
        ext = sca + 4.0 / k * beta_k.imag * w * np.sum(q, axis=0)
    _refuse_non_finite(np.stack([ext, sca]), lam_grid, "the extinction or scattering width")
    return ExtinctionCurve(wavelengths=lam_grid, extinction=ext, scattering=sca)
