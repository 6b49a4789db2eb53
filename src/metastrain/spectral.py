"""Spectral analysis of the periodic Neumann-Poincare operator.

K* is compact and self-adjoint on zero-mean densities in the inner product
<u, v> = -<u, S v> (the negative single-layer pairing), so the discrete
eigenproblem is solved as a symmetric-definite generalized problem on the
zero-mean sector, with the Gram matrix G = -W S.  The sector is spanned by the
trailing columns of one Householder reflector H with H w parallel to e_0, so
its blocks of H G H and H B H come from rank-2 updates and the densities map
back with one rank-1 update.

The equilibrium mode (eigenvalue 1/2, non-zero mean) is found by shifted
inverse iteration on the full matrix: one LU of K* - (1/2 + 1e-10) I, a few
solves and the Rayleigh quotient, with a residual check.

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
    """Make each column's reference entry positive.

    The reference is the lowest-index entry whose magnitude is within 1e-8
    relative of the column maximum: on mirror-symmetric cells the largest |v|
    is tied between mirrored nodes up to round-off, so a plain argmax would let
    round-off choose the sign.
    """
    mag = np.abs(vectors)
    idx = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


# inverse iteration for the equilibrium mode: the shift keeps the LU regular
# when lambda_0 = 1/2 holds to round-off, and each solve damps every other
# mode by shift / (its distance to 1/2)
_EQUILIBRIUM_SHIFT = 1e-10
_EQUILIBRIUM_SOLVES = 3
_EQUILIBRIUM_RESIDUAL = 1e-10


def _equilibrium_mode(K: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenpair of K* nearest 1/2, with the density scaled to unit mass."""
    import scipy.linalg  # deferred, like scipy.special: importing the package stays scipy-free

    n = w.size
    lu = scipy.linalg.lu_factor(K - (0.5 + _EQUILIBRIUM_SHIFT) * np.eye(n))
    psi = np.ones(n)
    for _ in range(_EQUILIBRIUM_SOLVES):
        psi = scipy.linalg.lu_solve(lu, psi)
        psi /= np.linalg.norm(psi)
    k_psi = K @ psi
    lam0 = float(psi @ k_psi)
    residual = float(np.linalg.norm(k_psi - lam0 * psi))
    if not residual <= _EQUILIBRIUM_RESIDUAL:
        raise QuadratureFailure(
            f"equilibrium mode did not converge: |K* psi - lambda psi| = {residual:.3g}"
        )
    mass = w @ psi
    if abs(mass) < 1e-13 * np.abs(psi).max():
        raise QuadratureFailure("equilibrium density has numerically zero mass")
    return lam0, psi / mass


def _reflected_block(A: np.ndarray, h: np.ndarray, beta: float) -> np.ndarray:
    """Trailing (n-1)x(n-1) block of H A H for symmetric A and H = I - beta h h^T."""
    p = beta * (A @ h)
    q = p - (0.5 * beta * (h @ p)) * h
    return A[1:, 1:] - np.outer(h[1:], q[1:]) - np.outer(q[1:], h[1:])


def eigendecompose(single_layer: BoundaryOperator, np_adjoint: BoundaryOperator
                   ) -> SpectralDecomposition:
    """Diagonalise K* in the -S inner product on the zero-mean sector.

    Raises :class:`QuadratureFailure` if the Gram matrix is not positive
    definite there or the equilibrium mode cannot be resolved, either of
    which indicates a broken discretisation.
    """
    if single_layer.cell is not np_adjoint.cell and not np.array_equal(
        single_layer.cell.weights, np_adjoint.cell.weights
    ):
        raise ValueError("operators were assembled from different cells")
    import scipy.linalg

    cell = single_layer.cell
    w = cell.weights
    S = single_layer.matrix
    K = np_adjoint.matrix

    gram = -(w[:, None] * S)
    gram = 0.5 * (gram + gram.T)
    B = gram @ K
    B = 0.5 * (B + B.T)

    # Householder reflector H = I - beta h h^T with H w = -|w| e_0 (the weights
    # are positive): its columns 1..n-1 are an orthonormal basis of w^T x = 0
    norm_w = np.linalg.norm(w)
    h = w.copy()
    h[0] += norm_w
    beta = 1.0 / (norm_w * h[0])
    try:
        vals, vecs = scipy.linalg.eigh(_reflected_block(B, h, beta),
                                       _reflected_block(gram, h, beta))
    except np.linalg.LinAlgError as exc:  # scipy.linalg raises numpy's class
        raise QuadratureFailure(
            "Gram matrix -W S is not positive definite on the zero-mean sector"
        ) from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    densities = np.zeros((w.size, vecs.shape[1]))
    densities[1:] = vecs
    densities -= np.outer(beta * h, h[1:] @ vecs)
    densities = _fix_signs(densities)

    lam0, psi0 = _equilibrium_mode(K, w)
    eigenvalues = np.concatenate([[lam0], vals])
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


def _mode_sums(decomposition: SpectralDecomposition, lams, moments: np.ndarray
               ) -> np.ndarray:
    """-(1/2L) sum_j c_j / (lam - lam_j) for each lam, c_j = m_j <phi_j, nu2> / (1/2 - lam_j).

    With m = moments_nu2 this is alpha2_plus, with m = moments_nu1 alpha1_plus.
    The sum runs over the zero-mean modes only; the equilibrium mode carries
    no normal moment.  The c_j are real, so with d = Re lam - lam_j, b = Im lam
    and q = c / (d^2 + b^2) the sum is sum d q - i b sum q: real arithmetic and
    two row sums per lam, no complex division.  Row sums, not a matrix product,
    keep each lam's value independent of the others in the batch.
    """
    lj = decomposition.eigenvalues[1:]
    c = moments[1:] * decomposition.moments_nu2[1:] / (0.5 - lj)
    lam = np.asarray(lams, dtype=complex)
    d = lam.real[:, None] - lj
    q = c / (d * d + (lam.imag**2)[:, None])
    sums = (d * q).sum(axis=1) - 1j * lam.imag * q.sum(axis=1)
    return -sums / (2.0 * decomposition.cell.period_ratio)


def alpha_infinity(decomposition: SpectralDecomposition, lam: complex) -> BoundaryLayerLimits:
    """Far-field limits of the corrector fields at contrast lam.

    Real lam equal to an eigenvalue is a pole and is rejected.
    """
    lam = complex(lam)
    _check_off_spectrum(decomposition, lam)
    a2 = _mode_sums(decomposition, [lam], decomposition.moments_nu2)[0]
    a1 = _mode_sums(decomposition, [lam], decomposition.moments_nu1)[0]
    return BoundaryLayerLimits(alpha1_plus=a1, alpha1_minus=-a1,
                               alpha2_plus=a2, alpha2_minus=-a2)


def alpha2_plus_batch(decomposition: SpectralDecomposition, lams: np.ndarray) -> np.ndarray:
    """Vectorised alpha2_plus over an array of (complex) contrasts."""
    return _mode_sums(decomposition, lams, decomposition.moments_nu2)


def resolvent_density(decomposition: SpectralDecomposition, lam: complex,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (lam I - K*) psi = rhs by a direct dense solve with the decomposition's K*.

    A zero-mean right-hand side yields a zero-mean density up to quadrature
    error.  Real lam too close to the spectrum is rejected with the offending
    mode index.
    """
    import scipy.linalg

    lam = complex(lam)
    _check_off_spectrum(decomposition, lam)
    adjoint = decomposition.np_adjoint
    system = lam * np.eye(adjoint.shape[0]) - adjoint
    rhs = np.asarray(rhs, dtype=complex if lam.imag != 0.0 else float)
    try:
        return scipy.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"resolvent system singular at contrast {lam}") from exc


def alpha_field(decomposition: SpectralDecomposition, lam: complex, component: int, xi) -> complex:
    """Corrector field alpha^(component) at an off-surface point xi.

    Solves the resolvent system for the density and evaluates the off-surface
    single layer; component is 1 or 2 for the two normal directions.
    """
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    cell = decomposition.cell
    psi = resolvent_density(decomposition, lam, cell.normals[:, component - 1])
    return evaluate_single_layer_off_surface(cell, psi, xi)
