"""First-order eigenvalue perturbation under normal boundary displacement.

For a simple eigenvalue lam_j with H*-normalised density phi_j, displacing the
boundary by eta along the outward normal changes the eigenvalue at first order
by eta times a combination of two boundary integrals,

    A = Int |phi_j|^2 dsigma,      B = Int |d(S phi_j)/dT|^2 dsigma.

Published statements of this formula disagree on the signs of the two terms,
so three candidate combinations are implemented and validated against direct
finite-difference eigensolves on the perturbed geometry:

    statement  : (1/4 - lam_j^2) * A + B
    proof      : -(1/4 - lam_j^2) * A - B
    corrected  : (1/4 - lam_j^2) * A - B

The corrected combination is the one a free-space disk calibrates to (its
eigenvalues are radius-independent, which forces the two terms to cancel at
lam_j = 0) and is the shipped default; the validator records which candidate
the finite differences actually select.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, DomainError, ModeTrackingError
from .geometry import CellGeometry, perturb_normal
from .spectral import SpectralDecomposition, decompose

SIGN_CONVENTIONS = ("statement", "proof", "corrected")
DEFAULT_SIGN = "corrected"

# eigenvalue gap below which first-order perturbation of a single mode is unsafe
SIMPLE_GAP = 1e-7
MIN_OVERLAP = 0.9  # Gram overlap below which a perturbed mode is not the base mode


def _tangential_derivative(cell: CellGeometry, values: np.ndarray) -> np.ndarray:
    """d/dT of a nodal boundary function by spectral differentiation in the parameter."""
    n = values.size
    spectrum = np.fft.rfft(values)
    k = np.arange(spectrum.size)
    if n % 2 == 0:
        k = k.astype(float)
        spectrum = spectrum * (1j * k)
        spectrum[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
    else:
        spectrum = spectrum * (1j * k)
    return np.fft.irfft(spectrum, n) / cell.speeds


def _mode_gap(decomposition: SpectralDecomposition, j: int) -> float:
    lam = decomposition.eigenvalues
    others = np.delete(lam, j)
    return float(np.min(np.abs(others - lam[j])))


def shape_derivative(decomposition: SpectralDecomposition, cell: CellGeometry, j: int,
                     sign: str = DEFAULT_SIGN) -> float:
    """First-order coefficient d(lam_j)/d(eta) at eta = 0 for mode j >= 1."""
    if sign not in SIGN_CONVENTIONS:
        raise DomainError(f"sign must be one of {SIGN_CONVENTIONS}")
    if j == 0:
        raise DomainError("the equilibrium eigenvalue 1/2 is stationary; pick j >= 1")
    gap = _mode_gap(decomposition, j)
    if gap <= SIMPLE_GAP:
        raise DegenerateModeError(
            f"eigenvalue {decomposition.eigenvalues[j]:.3e} of mode {j} is not simple: "
            f"gap {gap:.3e} <= {SIMPLE_GAP:.0e}"
        )
    lam_j = decomposition.eigenvalues[j]
    phi = decomposition.eigendensities[:, j]
    w = cell.weights
    density_norm = float(w @ phi**2)
    trace = decomposition.single_layer @ phi
    tangential = _tangential_derivative(cell, trace)
    tangential_norm = float(w @ tangential**2)

    term_a = (0.25 - lam_j**2) * density_norm
    if sign == "statement":
        return term_a + tangential_norm
    if sign == "proof":
        return -term_a - tangential_norm
    return term_a - tangential_norm


@dataclass(frozen=True)
class ShapeDerivativeReport:
    """Prediction versus finite differences for one mode over an eta ladder."""

    mode_index: int
    base_eigenvalue: float
    predicted_slopes: dict
    fd_slopes: np.ndarray         # central slope per eta
    eta_ladder: np.ndarray
    selected_sign: str
    sign_consistent: bool
    min_overlap: float

    @property
    def predicted_slope(self) -> float:
        return self.predicted_slopes[self.selected_sign]

    @property
    def fd_slope(self) -> float:
        return float(self.fd_slopes[-1])


def _tracked_eigenvalue(base: SpectralDecomposition, perturbed: SpectralDecomposition,
                        j: int) -> tuple[float, float]:
    """Eigenvalue of the perturbed mode matching base mode j, with its overlap."""
    phi = base.eigendensities[:, j]
    candidates = perturbed.eigendensities[:, 1:]
    cross = phi @ base.gram @ candidates
    norms = np.sqrt(np.einsum("ij,jk,ki->i", candidates.T, base.gram, candidates))
    overlaps = np.abs(cross) / norms
    k = int(np.argmax(overlaps))
    return float(perturbed.eigenvalues[1 + k]), float(overlaps[k])


def validate_shape_derivative(cell: CellGeometry, j: int, eta_ladder) -> ShapeDerivativeReport:
    """Compare the candidate sign conventions against central finite differences.

    For each eta the eigenvalue is recomputed on the curves displaced by +eta
    and -eta, the mode is tracked by its overlap with the base eigendensity in
    the base Gram metric, and the central slope is formed.  The selected sign
    is the candidate closest to the finite-difference slope at the smallest
    eta; consistency additionally requires its error to shrink with eta.
    """
    etas = np.sort(np.asarray(eta_ladder, dtype=float))[::-1]
    if etas.size == 0 or np.any(etas <= 0.0):
        raise DomainError("eta ladder must contain positive values")
    base = decompose(cell)
    predictions = {s: shape_derivative(base, cell, j, sign=s) for s in SIGN_CONVENTIONS}

    slopes = np.empty(etas.size)
    worst_overlap = 1.0
    for i, eta in enumerate(etas):
        lam_plus, o_plus = _tracked_eigenvalue(base, decompose(perturb_normal(cell, eta)), j)
        lam_minus, o_minus = _tracked_eigenvalue(base, decompose(perturb_normal(cell, -eta)), j)
        worst_overlap = min(worst_overlap, o_plus, o_minus)
        if worst_overlap < MIN_OVERLAP:
            raise ModeTrackingError(
                f"mode {j} overlap dropped to {worst_overlap:.3f} at eta = {eta:g}"
            )
        slopes[i] = (lam_plus - lam_minus) / (2.0 * eta)

    errors = {s: abs(slopes[-1] - p) for s, p in predictions.items()}
    selected = min(errors, key=errors.get)
    if etas.size > 1:
        first = abs(slopes[0] - predictions[selected])
        consistent = errors[selected] <= first or errors[selected] < 1e-10
    else:
        consistent = True
    return ShapeDerivativeReport(
        mode_index=j,
        base_eigenvalue=float(base.eigenvalues[j]),
        predicted_slopes=predictions,
        fd_slopes=slopes,
        eta_ladder=etas,
        selected_sign=selected,
        sign_consistent=bool(consistent),
        min_overlap=float(worst_overlap),
    )
