"""First-order eigenvalue perturbation under normal boundary displacement.

For a simple eigenvalue lam_j with H*-normalised density phi_j, displacing the
boundary by eta along the outward normal changes the eigenvalue at first order
by eta times

    (1/4 - lam_j^2) * Int |phi_j|^2 dsigma  -  Int |d(S phi_j)/dT|^2 dsigma.

A free-space disk fixes the relative sign of the two terms: its eigenvalues do
not depend on the radius, so the terms must cancel at lam_j = 0.
``validate_shape_derivative`` checks the formula against central finite
differences of direct eigensolves on the displaced curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, DomainError, ModeTrackingError
from .geometry import CellGeometry, perturb_normal
from .spectral import SpectralDecomposition, decompose

# eigenvalue gap below which first-order perturbation of a single mode is unsafe
SIMPLE_GAP = 1e-7
MIN_OVERLAP = 0.9  # Gram overlap below which a perturbed mode is not the base mode


def _tangential_derivative(cell: CellGeometry, values: np.ndarray) -> np.ndarray:
    """d/dT of a nodal boundary function by spectral differentiation in the parameter."""
    n = values.size  # even, as every node count is
    spectrum = np.fft.rfft(values) * (1j * np.arange(n // 2 + 1))
    spectrum[-1] = 0.0  # the Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(spectrum, n) / cell.speeds


def _mode_gap(decomposition: SpectralDecomposition, j: int) -> float:
    lam = decomposition.eigenvalues
    others = np.delete(lam, j)
    return float(np.min(np.abs(others - lam[j])))


def shape_derivative(decomposition: SpectralDecomposition, cell: CellGeometry, j: int) -> float:
    """First-order coefficient d(lam_j)/d(eta) at eta = 0 for mode j >= 1."""
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
    tangential = _tangential_derivative(cell, decomposition.single_layer @ phi)
    return (0.25 - lam_j**2) * float(w @ phi**2) - float(w @ tangential**2)


@dataclass(frozen=True)
class ShapeDerivativeReport:
    """Prediction versus finite differences for one mode over an eta ladder."""

    predicted_slope: float
    fd_slopes: np.ndarray         # central slope per eta, largest eta first
    eta_ladder: np.ndarray
    converging: bool              # the error at the smallest eta is no larger than at the largest
    min_overlap: float

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


def validate_shape_derivative(base: SpectralDecomposition, j: int,
                              eta_ladder) -> ShapeDerivativeReport:
    """Compare ``shape_derivative`` against central finite differences.

    ``base`` is the decomposition of the unperturbed cell.  For each eta the
    eigenvalue is recomputed on the curves displaced by +eta and -eta, the
    mode is tracked by its overlap with the base eigendensity in the base
    Gram metric, and the central slope is formed.  The report is converging
    when the prediction's error at the smallest eta is at most its error at
    the largest eta, or below 1e-10.
    """
    etas = np.sort(np.asarray(eta_ladder, dtype=float))[::-1]
    if etas.size == 0 or np.any(etas <= 0.0):
        raise DomainError("eta ladder must contain positive values")
    cell = base.cell
    predicted = shape_derivative(base, cell, j)

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

    last, first = abs(slopes[-1] - predicted), abs(slopes[0] - predicted)
    return ShapeDerivativeReport(
        predicted_slope=predicted,
        fd_slopes=slopes,
        eta_ladder=etas,
        converging=bool(last <= first or last < 1e-10),
        min_overlap=float(worst_overlap),
    )
