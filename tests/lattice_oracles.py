"""Complex-arithmetic lattice kernels kept as oracles for the real assembly.

The package assembles S and K* from real lattice kernels; these are the
older complex forms, imported by the layer-operator and Green's function tests.
"""

import numpy as np


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
