"""The scatter path's kernels as plain expressions, one fresh array per step.

Each function computes the package kernel's products in the same order but
writes no buffer twice, so the package's in-place kernels must match it bit
for bit: the mode sums of alpha2_plus, the Bessel ladder, the widths of
``extinction_spectrum`` and the lattice pair kernels of ``layer_ops``.
"""

import numpy as np

from metastrain.dispersion import contrast_values, omega_from_wavelength
from metastrain.layer_ops import _FAR_FIELD_GUARD


def row_sums(nodes, weights, lams):
    lam = np.asarray(lams, dtype=complex)
    d = lam.real[:, None] - nodes
    q = weights / (d * d + (lam.imag**2)[:, None])
    return (d * q).sum(axis=1) - 1j * lam.imag * q.sum(axis=1)


def alpha2_plus(decomposition, lams):
    lj = decomposition.eigenvalues[1:]
    c = decomposition.moments_nu2[1:] * decomposition.moments_nu2[1:] / (0.5 - lj)
    carried = c != 0.0
    return -row_sums(lj[carried], c[carried], lams) / (2.0 * decomposition.cell.period_ratio)


def _derivative(ladder):
    prime = np.empty_like(ladder[:-1])
    prime[0] = -ladder[1]
    prime[1:] = (ladder[:-2] - ladder[2:]) / 2.0
    return prime


def real_ladder(z, n_modes):
    top = int(n_modes.max(initial=0)) + 1
    start = top + 20 + int(np.ceil(8.0 * np.cbrt(z.max(initial=0.0))))
    every = max(1, int(500 // max(np.log2(2.0 * start / z.min(initial=np.inf) + 1.0), 1.0)))
    two_over_z = 2.0 / z
    f = np.zeros((start + 2, z.size))
    f[start] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(start, 0, -1):
            np.multiply(n * two_over_z, f[n], out=f[n - 1])
            f[n - 1] -= f[n + 1]
            if (start - n) % every == 0 and np.abs(f[n - 1:n + 1]).max(initial=0.0) > 2.0**500:
                f[n - 1:] *= np.ldexp(1.0, -np.frexp(np.abs(f[n - 1:n + 1]).max(axis=0))[1])
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
            Y[n + 1] = (2 * n) * Y[n] / z - Y[n - 1]
        Jp = _derivative(f[:top + 1])
        Jp /= norm
        Yp = _derivative(Y)
    for n in range(int(n_modes.min(initial=top)) + 1, top):
        Jp[n, n_modes < n] = Yp[n, n_modes < n] = 0.0
    return Jp, Yp


def extinction(radius, material, decomposition, delta_phys, wavelengths, beta_override=None):
    """(extinction, scattering) of ``capsule_scattering.extinction_spectrum``."""
    lam_grid = np.asarray(wavelengths, dtype=float)
    k = 2.0 * np.pi / lam_grid
    z = k * radius
    omega = omega_from_wavelength(lam_grid, material)
    if beta_override is None:
        betas = 2.0 * delta_phys * alpha2_plus(decomposition, contrast_values(omega, material))
    else:
        betas = np.full(lam_grid.shape, complex(beta_override))
    Jp, Yp = real_ladder(z, np.ceil(z).astype(int) + 16)
    beta_k = betas * k
    b_r, b_i = beta_k.real, beta_k.imag
    w = 2.0 / (np.pi * z)
    denom2 = (Jp * (b_r * Jp + b_i * Yp)) ** 2 + (w + Jp * (b_i * Jp - b_r * Yp)) ** 2
    q = Jp**2 / denom2
    q[1:] *= 2.0
    sca = 4.0 / k * np.abs(beta_k) ** 2 * np.sum(q * Jp**2, axis=0)
    ext = sca + 4.0 / k * beta_k.imag * w * np.sum(q, axis=0)
    return ext, sca


def pair_kernels(u, v, lag, period_ratio):
    excess = np.maximum(np.abs(v) - _FAR_FIELD_GUARD, 0.0)
    v = np.clip(v, -_FAR_FIELD_GUARD, _FAR_FIELD_GUARD)
    t, sinh_v = np.tan(u), np.sinh(v)
    s2 = t**2 / (t**2 + 1.0) + sinh_v**2
    den = 2.0 * period_ratio * s2
    g1 = t / (t**2 + 1.0) / den
    g2 = sinh_v * np.cosh(v) / den
    pair = np.log(s2 / lag) / (4.0 * np.pi) + excess / (2.0 * np.pi)
    return pair, g1, g2
