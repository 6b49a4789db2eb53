"""Lattice kernels kept as oracles for the real assembly.

The package assembles S and K* from real lattice kernels and evaluates only
the lattice Green's function G itself (``layer_ops.value_from_delta``).  The
gradient of G, the smooth remainder R = G - (1/2pi) ln|delta| and the complex
form of its gradient live here, imported by the layer-operator and Green's
function tests, and so does the assembly of S and K* by one separate pass
over the node pairs each, the exact oracle of the shared pass.
"""

import numpy as np

from metastrain.layer_ops import _FAR_FIELD_GUARD, _LN2_OVER_2PI


def gradient_from_delta(delta, period_ratio):
    """Gradient of G in the first argument, returned as d1G + i*d2G.

    The closed form without a far-field branch: sinh^2 overflows beyond
    |Im delta| ~ 100 L, far outside every separation the tests take.
    """
    w = np.pi * np.asarray(delta, dtype=complex) / period_ratio
    u, v = w.real, w.imag
    return (np.sin(2.0 * u) + 1j * np.sinh(2.0 * v)) / (
        4.0 * period_ratio * (np.sin(u) ** 2 + np.sinh(v) ** 2))


def remainder_from_delta(delta, period_ratio):
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


def cot_minus_inverse(w):
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


def remainder_gradient_from_delta(delta, period_ratio):
    """Gradient of the smooth remainder R = G - (1/2pi) ln|delta|, as d1R + i*d2R."""
    delta = np.asarray(delta, dtype=complex)
    g = cot_minus_inverse(np.pi * delta / period_ratio) / (2.0 * period_ratio)
    # grad(Re f) = (Re f', -Im f') for holomorphic f
    return g.real - 1j * g.imag


def tangent_factors(u):
    """sin^2 u and sin u cos u from t = tan u, as the package's pair kernels take them."""
    t = np.tan(u)
    return t**2 / (t**2 + 1.0), t / (t**2 + 1.0)


def sin_cos_factors(u):
    """sin^2 u and sin u cos u from sin and cos: the closed form the tangent one stands for."""
    sin_u = np.sin(u)
    return sin_u**2, sin_u * np.cos(u)


def per_call_single_layer(cell, factors=tangent_factors):
    """S as assembled by one call per operator, each with its own pass over the node pairs.

    Kept verbatim, n x n index gather of the log rule included, as the
    bit-for-bit oracle of the one-pass assembly of S and K*: ``factors(u)``
    gives sin^2 u and sin u cos u, from tan u as there by default.
    """
    n = cell.node_count
    s = cell.speeds
    i, j, u, v, excess = _per_call_pairs(cell)
    canonical = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    sin2_u, _ = factors(u)
    pair = np.log((sin2_u + np.sinh(v) ** 2) / canonical[j - i]) / (4.0 * np.pi)
    pair += excess / (2.0 * np.pi)
    smooth = np.empty((n, n))
    smooth[i, j] = pair
    smooth[j, i] = pair
    np.fill_diagonal(smooth, np.log(s**2) / (4.0 * np.pi)
                     + np.log(np.pi / cell.period_ratio) / (2.0 * np.pi))
    return (0.5 * _gathered_log_rule(n) + (2.0 * np.pi / n) * smooth) * s[None, :]


def per_call_np_adjoint(cell, factors=tangent_factors):
    """K* as assembled by one call per operator (see :func:`per_call_single_layer`)."""
    n = cell.node_count
    i, j, u, v, _ = _per_call_pairs(cell)
    (sin2_u, sin_cos_u), sinh_v = factors(u), np.sinh(v)
    den = 2.0 * cell.period_ratio * (sin2_u + sinh_v**2)
    g1 = sin_cos_u / den
    g2 = sinh_v * np.cosh(v) / den
    nu = cell.normals
    kernel = np.empty((n, n))
    kernel[i, j] = nu[i, 0] * g1 + nu[i, 1] * g2
    kernel[j, i] = -(nu[j, 0] * g1 + nu[j, 1] * g2)
    np.fill_diagonal(kernel, cell.curvatures / (4.0 * np.pi))
    return (2.0 * np.pi / n) * kernel * cell.speeds[None, :]


def _per_call_pairs(cell):
    i, j = np.triu_indices(cell.node_count, 1)
    scale = np.pi / cell.period_ratio
    x, y = cell.nodes[:, 0], cell.nodes[:, 1]
    u = (x[i] - x[j]) * scale
    v = (y[i] - y[j]) * scale
    excess = np.maximum(np.abs(v) - _FAR_FIELD_GUARD, 0.0)
    return i, j, u, np.clip(v, -_FAR_FIELD_GUARD, _FAR_FIELD_GUARD), excess


def _gathered_log_rule(n):
    symbol = np.zeros(n // 2 + 1)
    symbol[1:-1] = -1.0 / np.arange(1, n // 2)
    symbol[-1] = -2.0 / n
    row = np.fft.irfft(symbol, n)
    return row[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
