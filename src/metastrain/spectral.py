"""Spectral analysis of the periodic Neumann-Poincare operator.

K* is compact and self-adjoint on zero-mean densities in the inner product
<u, v> = -<u, S v> (the negative single-layer pairing), so the discrete
eigenproblem is solved as a symmetric-definite generalized problem on the
zero-mean sector, with the Gram matrix G = -W S.  The equilibrium mode
(eigenvalue 1/2, non-zero mean) is computed separately from the full matrix.

The eigenpairs feed two downstream quantities:

* the boundary-layer far-field limits, via the mode sums
      alpha2_plus = -(1/2L) * sum_j <phi_j, nu2>^2 / ((lam - lam_j)(1/2 - lam_j)),
  and the analogous cross sum with <phi_j, nu1> for the first component;
* point values of the corrector fields alpha^(l) = S (lam I - K*)^{-1}[nu_l],
  via a direct dense resolvent solve and off-surface quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import QuadratureFailure, ResonanceError
from .geometry import CellGeometry
from .layer_ops import (
    BoundaryOperator,
    assemble_np_adjoint,
    assemble_single_layer,
    evaluate_single_layer_off_surface,
)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of the discrete K* with the -S Gram structure and normal moments.

    ``eigenvalues[0]`` is the equilibrium eigenvalue (1/2 up to quadrature
    error); the remaining entries are the zero-mean modes sorted in descending
    order.  Columns of ``eigendensities`` are the matching nodal densities,
    orthonormal in the Gram inner product for j >= 1.
    """

    eigenvalues: np.ndarray
    eigendensities: np.ndarray
    moments_nu1: np.ndarray
    moments_nu2: np.ndarray
    gram: np.ndarray
    cell: CellGeometry
    single_layer: np.ndarray
    np_adjoint: np.ndarray

    @property
    def mode_count(self) -> int:
        return self.eigenvalues.size

    @property
    def equilibrium_density(self) -> np.ndarray:
        return self.eigendensities[:, 0]

    def dominant_mode(self) -> int:
        """Index of the mode with the heaviest nu2 coupling weight."""
        weights = self.moments_nu2[1:] ** 2 / (0.5 - self.eigenvalues[1:])
        return 1 + int(np.argmax(weights))


@dataclass(frozen=True)
class BoundaryLayerLimits:
    """Far-field constants of the two corrector fields above (+) and below (-) the grating."""

    alpha1_plus: complex
    alpha1_minus: complex
    alpha2_plus: complex
    alpha2_minus: complex


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigendecompose(single_layer: BoundaryOperator, np_adjoint: BoundaryOperator
                   ) -> SpectralDecomposition:
    """Diagonalise K* in the -S inner product on the zero-mean sector.

    Raises :class:`QuadratureFailure` if the Gram matrix is not positive
    definite there, which indicates a broken discretisation.
    """
    if single_layer.cell is not np_adjoint.cell and not np.array_equal(
        single_layer.weights, np_adjoint.weights
    ):
        raise ValueError("operators were assembled from different cells")
    cell = single_layer.cell
    w = cell.weights
    n = w.size
    S = single_layer.matrix
    K = np_adjoint.matrix

    gram = -(w[:, None] * S)
    gram = 0.5 * (gram + gram.T)
    B = gram @ K
    B = 0.5 * (B + B.T)

    basis = scipy.linalg.null_space(w[None, :])
    gram_z = basis.T @ gram @ basis
    b_z = basis.T @ B @ basis
    try:
        vals, vecs = scipy.linalg.eigh(b_z, gram_z)
    except scipy.linalg.LinAlgError as exc:
        raise QuadratureFailure(
            "Gram matrix -W S is not positive definite on the zero-mean sector"
        ) from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    densities = _fix_signs(basis @ vecs[:, order])

    # equilibrium mode: eigenvalue nearest 1/2 of the full (non-symmetric) matrix
    full_vals, full_vecs = scipy.linalg.eig(K)
    top = int(np.argmax(full_vals.real))
    lam0 = full_vals[top]
    psi0 = np.real(full_vecs[:, top])
    mass = w @ psi0
    if abs(mass) < 1e-13 * np.abs(psi0).max():
        raise QuadratureFailure("equilibrium density has numerically zero mass")
    psi0 = psi0 / mass

    eigenvalues = np.concatenate([[lam0.real], vals])
    eigendensities = np.column_stack([psi0, densities])
    nu1 = gram @ cell.normals[:, 0]
    nu2 = gram @ cell.normals[:, 1]
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        eigendensities=eigendensities,
        moments_nu1=eigendensities.T @ nu1,
        moments_nu2=eigendensities.T @ nu2,
        gram=gram,
        cell=cell,
        single_layer=S,
        np_adjoint=K,
    )


def decompose(cell: CellGeometry) -> SpectralDecomposition:
    """Assemble S and K* on the cell and diagonalise K*: the pipeline's one entry."""
    return eigendecompose(assemble_single_layer(cell), assemble_np_adjoint(cell))


def _check_off_spectrum(decomposition: SpectralDecomposition, lam: complex):
    if lam.imag != 0.0:
        return
    gaps = np.abs(lam.real - decomposition.eigenvalues)
    j = int(np.argmin(gaps))
    if gaps[j] < 1e-12 * max(1.0, abs(lam.real)):
        raise ResonanceError(
            f"real contrast {lam.real} coincides with eigenvalue index {j} "
            f"(lambda_{j} = {decomposition.eigenvalues[j]})",
            mode_index=j,
        )


def alpha_infinity(decomposition: SpectralDecomposition, lam: complex,
                   period_ratio: float | None = None) -> BoundaryLayerLimits:
    """Far-field limits of the corrector fields at contrast lam.

    The mode sum runs over the zero-mean modes only; the equilibrium mode
    carries no normal moment.  Real lam equal to an eigenvalue is a pole and
    is rejected.
    """
    lam = complex(lam)
    _check_off_spectrum(decomposition, lam)
    L = decomposition.cell.period_ratio if period_ratio is None else period_ratio
    lj = decomposition.eigenvalues[1:]
    denom = (lam - lj) * (0.5 - lj)
    m1 = decomposition.moments_nu1[1:]
    m2 = decomposition.moments_nu2[1:]
    a2 = -np.sum(m2 * m2 / denom) / (2.0 * L)
    a1 = -np.sum(m1 * m2 / denom) / (2.0 * L)
    return BoundaryLayerLimits(alpha1_plus=a1, alpha1_minus=-a1,
                               alpha2_plus=a2, alpha2_minus=-a2)


def alpha2_plus_batch(decomposition: SpectralDecomposition, lams: np.ndarray,
                      period_ratio: float | None = None) -> np.ndarray:
    """Vectorised alpha2_plus over an array of (complex) contrasts."""
    L = decomposition.cell.period_ratio if period_ratio is None else period_ratio
    lam = np.asarray(lams, dtype=complex)[:, None]
    lj = decomposition.eigenvalues[None, 1:]
    m2 = decomposition.moments_nu2[None, 1:]
    terms = m2 * m2 / ((lam - lj) * (0.5 - lj))
    return -terms.sum(axis=1) / (2.0 * L)


def resolvent_density(np_adjoint: BoundaryOperator, lam: complex, rhs: np.ndarray,
                      decomposition: SpectralDecomposition | None = None) -> np.ndarray:
    """Solve (lam I - K*) psi = rhs by a direct dense solve.

    A zero-mean right-hand side yields a zero-mean density up to quadrature
    error.  If a decomposition is supplied, real lam too close to the spectrum
    is rejected with the offending mode index.
    """
    lam = complex(lam)
    if decomposition is not None:
        _check_off_spectrum(decomposition, lam)
    n = np_adjoint.matrix.shape[0]
    system = lam * np.eye(n) - np_adjoint.matrix
    rhs = np.asarray(rhs, dtype=complex if lam.imag != 0.0 else float)
    try:
        return scipy.linalg.solve(system, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise ResonanceError(f"resolvent system singular at contrast {lam}") from exc


def alpha_field(decomposition: SpectralDecomposition, lam: complex, component: int,
                xi, upsample: int = 4) -> complex:
    """Corrector field alpha^(component) at an off-surface point xi.

    Solves the resolvent system for the density and evaluates the off-surface
    single layer; component is 1 or 2 for the two normal directions.
    """
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    cell = decomposition.cell
    adjoint = BoundaryOperator(matrix=decomposition.np_adjoint, weights=cell.weights,
                               tag="np_adjoint", cell=cell)
    psi = resolvent_density(adjoint, lam, cell.normals[:, component - 1], decomposition)
    return evaluate_single_layer_off_surface(cell, psi, xi, upsample=upsample)
