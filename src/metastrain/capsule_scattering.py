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

J_n, H_n and their derivatives come from one Bessel ladder on the orders
n = 0..N+1.  ``jv`` is evaluated once on every argument.  H = J - iY, and Y
comes from one ``y0`` and one ``y1`` call by the forward recurrence

    Y_{n+1} = (2n) Y_n / z - Y_{n-1}

(Abramowitz & Stegun 9.1.27).  Y_n is the dominant solution of this
recurrence (it grows like (n-1)! (2/z)^n once n > z, while J_n decays), so
forward recurrence is stable for it (Gautschi, SIAM Rev. 9, 1967).  The
expression is the one cephes ``yn`` evaluates, so Y agrees with
``scipy.special.yn`` bit for bit.  Against 30-digit mpmath, H is within
8e-16 relative at z = 11.6 (AMOS ``hankel2``: 9e-15); at larger z both carry
errors of order z * eps, the conditioning of Y_n(z) in z.  The derivatives
are the difference (F_{n-1} - F_{n+1}) / 2 with F_0' = -F_1 (the formula
scipy's ``jvp``/``h2vp`` use, so J' agrees with ``jvp`` bit for bit), and
negative orders follow by reflection, F_{-n} = (-1)^n F_n.  For very small
k r, Y_n overflows below the truncation and the capsule is rejected.

The mode ratio s_n = beta*k * J_n'^2 / (W - beta*k * J_n' H_n') is even in n
and b_n = c_n s_n with |c_n| = 1, so the widths fold onto n = 0..N with weight
1 for n = 0 and 2 for n > 0:

    sigma_ext = -(4/k) Re sum' s_n,        sigma_sca = (4/k) sum' |s_n|^2.

The incidence angle enters only through the phases c_n, which cancel in both
sums: for the circular capsule the widths do not depend on the direction of
incidence.  ``extinction_spectrum`` evaluates the folded sums for all
wavelengths at once on a (wavelength x order) grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import MaterialParams, contrast_values, omega_from_wavelength
from .errors import OutOfRangeError, QuadratureFailure
from .spectral import SpectralDecomposition, alpha2_plus_batch


def _check_size_parameter(k, radius):
    """k r, rejected unless positive and small enough that ceil(k r) + 16 fits in int64."""
    with np.errstate(over="ignore"):
        z = k * radius
    if not np.all(z > 0.0):
        raise ValueError("k * r must be positive")
    # also catches k r = inf; floats below 2**63 convert to int64 exactly
    if not np.all(np.ceil(z) + 16.0 < 2.0**63):
        raise OutOfRangeError(
            f"size parameter k * r = {np.max(z):.3g} is too large for the mode truncation"
        )
    return z


def _derivative(ladder: np.ndarray) -> np.ndarray:
    """F_n' = (F_{n-1} - F_{n+1}) / 2 on orders 0..top-1, with F_{-1} = -F_1."""
    prime = np.empty_like(ladder[:, :-1])
    prime[:, 0] = -ladder[:, 1]
    prime[:, 1:] = (ladder[:, :-2] - ladder[:, 2:]) / 2.0
    return prime


def _bessel_ladder(z: np.ndarray, n_modes: np.ndarray):
    """J_n, J_n', H_n, H_n' (H = H^(2) = J - iY) at orders n = 0..max(n_modes), one row per z.

    ``jv`` is called once, on the orders n <= n_modes + 1 of every row; Y comes
    from one ``y0`` and one ``y1`` call by forward recurrence.  All four arrays
    are zero above a row's own ``n_modes``.  Raises :class:`OutOfRangeError`
    when k r is so small that Y overflows below a row's truncation.
    """
    # imported here so that only the scattering path pays for scipy.special
    from scipy.special import jv, y0, y1

    orders = np.arange(int(n_modes.max(initial=0)) + 2)
    live = orders <= n_modes[:, None] + 1
    nn, zz = np.broadcast_arrays(orders, z[:, None])
    J = np.zeros(live.shape)
    J[live] = jv(nn[live], zz[live])
    # one contiguous row per order; above a row's own n_modes + 1 the recurrence
    # may overflow, and those entries are dropped below
    Y = np.empty((orders.size, z.size))
    Y[0] = y0(z)
    Y[1] = y1(z)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, orders.size - 1):
            Y[n + 1] = (2 * n) * Y[n] / z - Y[n - 1]
    Y = np.where(live, Y.T, 0.0)
    finite = np.isfinite(Y).all(axis=1)
    if not finite.all():
        raise OutOfRangeError(
            f"size parameter k * r = {z[np.argmin(finite)]:.3g} is too small: "
            "Y_n overflows below the mode truncation"
        )
    H = np.empty(live.shape, dtype=complex)
    H.real = J
    H.imag = -Y
    ladders = [J[:, :-1], _derivative(J), H[:, :-1], _derivative(H)]
    beyond = orders[:-1] > n_modes[:, None]
    for F in ladders:
        F[beyond] = 0.0
    return ladders


def _mode_systems(beta_k, wronskian, Jp, Hp):
    """Denominators W - beta*k J_n' H_n' of the mode systems, and where they are singular."""
    coupling = beta_k * Jp * Hp
    denom = wronskian - coupling
    return denom, np.abs(denom) < 1e-14 * (np.abs(wronskian) + np.abs(coupling))


@dataclass(frozen=True)
class IncidentWave:
    """Unit-amplitude plane wave exp(i k kappa.x)."""

    direction: tuple[float, float]
    wavenumber: float

    def __post_init__(self):
        if not self.wavenumber > 0.0:
            raise ValueError("wavenumber must be positive")
        d = np.asarray(self.direction, dtype=float)
        if abs(np.hypot(d[0], d[1]) - 1.0) > 1e-12:
            raise ValueError("incidence direction must be a unit vector")
        object.__setattr__(self, "direction", (float(d[0]), float(d[1])))

    @property
    def angle(self) -> float:
        return float(np.arctan2(self.direction[1], self.direction[0]))


@dataclass(frozen=True)
class ModalScatteringSolution:
    """Cylindrical-mode coefficients of the interface-scattering solution."""

    radius: float
    beta: complex
    wave: IncidentWave
    orders: np.ndarray            # n = -N ... N
    incident_coeffs: np.ndarray   # c_n
    interior_coeffs: np.ndarray   # a_n
    scattered_coeffs: np.ndarray  # b_n

    @property
    def n_modes(self) -> int:
        """Truncation order N (orders run from -N to N)."""
        return int(self.orders[-1])


def solve_modal(radius: float, wave: IncidentWave, beta: complex,
                n_modes: int | None = None) -> ModalScatteringSolution:
    """Solve the per-mode 2x2 systems for the interface condition.

    ``n_modes`` defaults to ceil(k r) + 16, and must be at least k r + 8 when
    given explicitly so the truncated coefficients are negligible.
    """
    k = wave.wavenumber
    z = _check_size_parameter(k, radius)
    if n_modes is None:
        n_modes = int(np.ceil(z)) + 16
    elif n_modes < z + 8:
        raise ValueError(f"n_modes must be at least k*r + 8 = {z + 8:.1f}")

    n = np.arange(-n_modes, n_modes + 1)
    c = np.exp(1j * n * (np.pi / 2.0 - wave.angle))
    parity = 1.0 - 2.0 * (n % 2)
    J, Jp, H, Hp = (parity * F[0, np.abs(n)]
                    for F in _bessel_ladder(np.array([z]), np.array([n_modes])))

    beta_k = beta * k
    denom, bad = _mode_systems(beta_k, -2j / (np.pi * z), Jp, Hp)
    if np.any(bad):
        raise QuadratureFailure(
            f"singular mode systems at orders {n[bad].tolist()} for beta = {beta}"
        )
    b = c * beta_k * Jp**2 / denom

    # interior coefficients from whichever condition has the larger pivot
    with np.errstate(divide="ignore", invalid="ignore"):
        via_derivative = (c * Jp + b * Hp) / Jp
        via_jump = (c * J + b * H) / (J - beta * k * Jp)
    use_derivative = np.abs(Jp) >= 0.1 * (np.abs(J) + np.abs(Jp))
    a = np.where(use_derivative, via_derivative, via_jump)

    return ModalScatteringSolution(radius=radius, beta=complex(beta), wave=wave,
                                   orders=n, incident_coeffs=c,
                                   interior_coeffs=a, scattered_coeffs=b)


def field(solution: ModalScatteringSolution, x) -> complex:
    """Total field at a point: modal sums inside, plane wave plus scattered sum outside."""
    from scipy.special import hankel2, jv

    x = np.asarray(x, dtype=float)
    k = solution.wave.wavenumber
    rho = float(np.hypot(x[0], x[1]))
    theta = float(np.arctan2(x[1], x[0]))
    n = solution.orders
    phases = np.exp(1j * n * theta)
    if rho < solution.radius:
        return complex(np.sum(solution.interior_coeffs * jv(n, k * rho) * phases))
    incident = np.exp(1j * k * (solution.wave.direction[0] * x[0]
                                + solution.wave.direction[1] * x[1]))
    scattered = np.sum(solution.scattered_coeffs * hankel2(n, k * rho) * phases)
    return complex(incident + scattered)


def cross_sections(solution: ModalScatteringSolution) -> tuple[float, float]:
    """(extinction, scattering) widths from the mode coefficients.

    sigma_sca = (4/k) sum |b_n|^2 and, by the two-dimensional optical theorem,
    sigma_ext = -(4/k) Re sum b_n conj(c_n); they agree when the interface is
    lossless (real beta).
    """
    k = solution.wave.wavenumber
    b = solution.scattered_coeffs
    c = solution.incident_coeffs
    sca = 4.0 / k * float(np.sum(np.abs(b) ** 2))
    ext = -4.0 / k * float(np.real(np.sum(b * np.conj(c))))
    return ext, sca


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
    wavelength keeps the truncation N = ceil(k r) + 16 of :func:`solve_modal`,
    and the folded mode sums of the module docstring are taken for all
    wavelengths at once.  The widths do not depend on the incidence direction.
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

    _, Jp, _, Hp = _bessel_ladder(z, np.ceil(z).astype(int) + 16)
    beta_k = (betas * k)[:, None]
    denom, bad = _mode_systems(beta_k, (-2j / (np.pi * z))[:, None], Jp, Hp)
    if np.any(bad):
        i = int(np.argmax(bad.any(axis=1)))
        m = np.flatnonzero(bad[i])
        orders = sorted({int(sign * n) for n in m for sign in (-1, 1)})
        raise QuadratureFailure(
            f"singular mode systems at orders {orders} for beta = {betas[i]} "
            f"at wavelength {lam_grid[i]} m"
        )
    terms = beta_k * Jp**2 / denom
    weights = np.where(np.arange(terms.shape[1]) == 0, 1.0, 2.0)
    ext = -4.0 / k * np.real(np.sum(terms * weights, axis=1))
    sca = 4.0 / k * np.sum(np.abs(terms) ** 2 * weights, axis=1)
    return ExtinctionCurve(wavelengths=lam_grid, extinction=ext, scattering=sca,
                           radius=radius, delta_phys=delta_phys, material=material)
