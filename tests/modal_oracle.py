"""Per-mode solution of capsule scattering from scipy's Bessel functions.

The oracle of the capsule tests, independent of the package's Bessel ladder.
A unit plane wave exp(i k (cos t, sin t).x) meets the circle of radius r
carrying the jump condition u|+ - u|- = -beta du/dnu.  Each order n = -N..N
has the incident coefficient c_n = i^n exp(-i n t) and the closed-form
scattered coefficient

    b_n = c_n beta k J_n'^2 / (W - beta k J_n' H_n'),   W = -2i/(pi k r),

with H = H^(2); the interior coefficient a_n comes from derivative continuity
or from the value jump, whichever has the larger pivot.
"""

import numpy as np
from scipy.special import h2vp, hankel2, jv, jvp


class ModalSolution:
    """Orders, c_n, a_n and b_n; N defaults to ceil(k r) + 16, as in the package."""

    def __init__(self, radius, k, beta, angle=0.0, n_modes=None):
        z = k * radius
        n_modes = int(np.ceil(z)) + 16 if n_modes is None else n_modes
        self.radius, self.k, self.beta, self.angle = radius, k, beta, angle
        self.orders = n = np.arange(-n_modes, n_modes + 1)
        self.c = c = np.exp(1j * n * (np.pi / 2.0 - angle))
        self.bessel = J, Jp, H, Hp = jv(n, z), jvp(n, z), hankel2(n, z), h2vp(n, z)
        self.b = b = c * beta * k * Jp**2 / (-2j / (np.pi * z) - beta * k * Jp * Hp)
        with np.errstate(divide="ignore", invalid="ignore"):
            via_derivative = (c * Jp + b * Hp) / Jp
            via_jump = (c * J + b * H) / (J - beta * k * Jp)
        self.a = np.where(np.abs(Jp) >= 0.1 * (np.abs(J) + np.abs(Jp)), via_derivative, via_jump)

    def field(self, x) -> complex:
        """Total field at a point: modal sum inside, plane wave plus scattered sum outside."""
        rho, theta = np.hypot(x[0], x[1]), np.arctan2(x[1], x[0])
        phases = np.exp(1j * self.orders * theta)
        if rho < self.radius:
            return complex(np.sum(self.a * jv(self.orders, self.k * rho) * phases))
        plane = np.exp(1j * self.k * (np.cos(self.angle) * x[0] + np.sin(self.angle) * x[1]))
        return complex(plane + np.sum(self.b * hankel2(self.orders, self.k * rho) * phases))

    def widths(self) -> tuple[float, float]:
        """(extinction, scattering): -(4/k) Re sum b_n conj(c_n) and (4/k) sum |b_n|^2."""
        return (-4.0 / self.k * float(np.real(np.sum(self.b * np.conj(self.c)))),
                4.0 / self.k * float(np.sum(np.abs(self.b) ** 2)))

    def boundary_residuals(self) -> tuple[float, float]:
        """Worst residuals of derivative continuity and of the value jump at 64 angles."""
        J, Jp, H, Hp = self.bessel
        k = self.k
        d_out = (self.c * Jp + self.b * Hp) * k
        d_in = self.a * Jp * k
        v_out = self.c * J + self.b * H
        v_in = self.a * J
        scale = max(1.0, float(np.abs(v_in).max()))
        phases = np.exp(1j * np.outer(2 * np.pi * np.arange(64) / 64, self.orders))
        derivative = np.abs(phases @ (d_out - d_in)) / (k * scale)
        jump = np.abs(phases @ (v_out - v_in) + self.beta * (phases @ d_in)) / scale
        return float(derivative.max()), float(jump.max())
