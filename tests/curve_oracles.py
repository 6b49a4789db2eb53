"""Dense closed forms kept as oracles for the curve and capsule code.

``evaluate`` sums a trigonometric curve's series directly at any parameter
values, the oracle of ``TrigCurve.sample``'s one inverse FFT.  ``perimeter``
is the capsule's perimeter model, the forward map that
``strain.axes_from_perimeter`` inverts.
"""

import numpy as np


def evaluate(curve, t, order=0):
    """Curve point (order 0) or t-derivative of given order at any t, as xi1 + i*xi2."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    m = curve.coefficients.size
    k = np.rint(np.fft.fftfreq(m) * m).astype(int)
    return np.exp(1j * t[:, None] * k[None, :]) @ (((1j * k) ** order) * curve.coefficients)


def perimeter(L1, L2):
    """Ellipse perimeter approximation pi*sqrt(2)*sqrt(L1^2 + L2^2)."""
    return np.pi * np.sqrt(2.0) * np.hypot(L1, L2)
