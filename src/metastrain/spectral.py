"""Spectral analysis of the periodic Neumann-Poincare operator.

K* is compact and self-adjoint on zero-mean densities in the inner product
<u, v> = -<u, S v> (the negative single-layer pairing), so the discrete
eigenproblem is solved as a symmetric-definite generalized problem on the
zero-mean sector, with the Gram matrix G = -W S.  The sector is spanned by the
trailing columns of one Householder reflector H with H w parallel to e_0, so
its blocks of H G H and H B H come from rank-2 updates and the densities map
back with one rank-1 update.

A cell mirror-symmetric about a line through node 0 parallel or normal to
the grating (the disk, the ellipse, real-coefficient curves; purely imaginary
ones) gives G and K* that commute with the node mirror P: j -> -j mod n,
because the lattice kernel is even in both offsets.  When both matrices pass
that test to a relative defect of eps * n^2 / 4, the problem splits over the
orthonormal orbit basis into an even sector (e_0, e_{n/2} and
(e_j + e_{n-j}) / sqrt 2, which holds the constant and the zero-mean
constraint) and an odd sector ((e_j - e_{n-j}) / sqrt 2): two generalized
eigh calls of about n/2 instead of one of n - 1.  A cell symmetric under the
second lattice mirror j -> n/2 - j as well (the disk and the ellipse) splits
once more: on the half coordinates that mirror is the reversal
k -> m - 1 - k, so each half block folds into a + and a - quarter of about
n/4 (sizes n/4 + 1, n/4, n/4 and n/4 - 1, the constant in the first).  The
quarters are taken when n is a multiple of 4 and all four half blocks of G
and K* commute with the reversal to the same tolerance; the half blocks are
built once for that test and the solve.  Every other cell takes the whole
space as its one sector.  Which normal moments vanish on a sector is read
off the moment vectors W S nu_l, not assumed: the mirror parallel to the
grating makes nu1 even and nu2 odd, the one normal to it the reverse.

A sector that neither moment vector reaches (two of the four quarters) is
solved for its eigenvalues only: the sweep, the calibration, the extinction
spectrum and ``eigs`` read the eigenvalues and the moments alone.  Its
densities are solved from blocks rebuilt from ``gram`` and ``np_adjoint`` on
the first read of ``eigendensities``, which ``shape_deriv``, ``validate`` and
Gram-overlap mode tracking make; the eigenvalues never change.

The equilibrium mode (eigenvalue 1/2, non-zero mean) is found by shifted
inverse iteration in the sector of the constant, at construction: one LU of
K* - (1/2 + 1e-10) I there, a few solves and the Rayleigh quotient, with a
residual check on the full K*.

The eigenpairs feed two downstream quantities:

* the boundary-layer far-field limits, via the mode sums
      alpha2_plus = -(1/2L) * sum_j <phi_j, nu2>^2 / ((lam - lam_j)(1/2 - lam_j)),
  and the analogous cross sum with <phi_j, nu1> for the first component;
* point values of the corrector fields alpha^(l) = S (lam I - K*)^{-1}[nu_l],
  via a direct dense resolvent solve and off-surface quadrature.

Each mode sum runs over the modes whose weight
c_j = <phi_j, nu_l> <phi_j, nu2> / (1/2 - lam_j) is non-zero, which is exact:
the moments on a sector that the moment vector misses are exactly 0, so a
quarter-sector disk sums 64 of its 255 zero-mean modes for alpha2_plus, a
half-sector cell about n/2 and an asymmetric cell all of them; on a mirrored
cell the cross sum of the first component has no term at all.  A zero-mean
eigenvalue at or above 1/2, which only an unresolved discretisation gives,
has no positive nu2 weight and is reported as a QuadratureFailure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, OutOfRangeError, QuadratureFailure, ResonanceError
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
    orthonormal in the Gram inner product for j >= 1.  The densities of a
    sector that carries no normal moment are solved on the first read of
    ``eigendensities``; until then their columns of ``_densities`` are 0, and
    ``_deferred`` names each such sector with its columns.
    """

    eigenvalues: np.ndarray
    moments_nu1: np.ndarray
    moments_nu2: np.ndarray
    gram: np.ndarray
    cell: CellGeometry
    single_layer: np.ndarray
    np_adjoint: np.ndarray
    _densities: np.ndarray
    _deferred: tuple

    @property
    def mode_count(self) -> int:
        return self.eigenvalues.size

    @property
    def equilibrium_density(self) -> np.ndarray:
        return self._densities[:, 0]

    @cached_property
    def eigendensities(self) -> np.ndarray:
        """The nodal densities, the deferred sectors solved on first read and kept."""
        w = self.cell.weights
        for sector, columns in self._deferred:
            _, densities = _solve_sector(sector, sector.block(self.gram),
                                         sector.block(self.np_adjoint), w, vectors=True)
            self._densities[:, columns] = densities
        return self._densities

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
    is tied between mirrored nodes (up to round-off where the cell's mirror
    does not fix node 0), so a plain argmax would let round-off choose the sign.
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


@dataclass(frozen=True)
class _Sector:
    """An invariant subspace of the cell's node mirrors, by its orthonormal basis Q.

    ``parity`` +1 is the even sector of the mirror P: j -> -j mod n (e_0,
    (e_j + e_{n-j}) / sqrt 2 for 0 < j < n/2, e_{n/2}, in that order), -1 the
    odd one ((e_j - e_{n-j}) / sqrt 2) and 0 the whole space (Q = I).
    ``fold`` +1 or -1 splits a half further by the second mirror
    j -> n/2 - j, which on the m half coordinates is the reversal
    k -> m - 1 - k with sign +: the + side holds the pairs
    (x_k + x_{m-1-k}) / sqrt 2 and then the middle coordinate, the - side the
    pairs (x_k - x_{m-1-k}) / sqrt 2.  ``fold`` 0 keeps the half whole.
    """

    parity: int
    fold: int = 0

    @property
    def holds_constant(self) -> bool:
        return self.parity >= 0 and self.fold >= 0

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """Q^T x along the first axis: P keeps node 0 and reverses nodes 1..n-1."""
        if self.parity:
            pairs = _fold(x[1:], self.parity)
            x = np.concatenate((x[:1], pairs)) if self.parity > 0 else pairs
        return _fold(x, self.fold) if self.fold else x

    def extend(self, y: np.ndarray) -> np.ndarray:
        """Q y along the first axis."""
        if self.fold:
            y = _unfold(y, self.fold)
        if self.parity < 0:  # node 0 is fixed by P, so odd densities vanish there
            y = np.concatenate((np.zeros((1,) + y.shape[1:]), y))
        return np.concatenate((y[:1], _unfold(y[1:], self.parity))) if self.parity else y

    def block(self, A: np.ndarray) -> np.ndarray:
        """Q^T A Q: the block of the half, folded."""
        half = _Sector(self.parity).restrict
        block = half(half(A).T).T
        return _fold_block(block, self.fold) if self.fold else block


def _fold(x: np.ndarray, sign: int) -> np.ndarray:
    """The reversal fold of an odd number m of coordinates along the first axis."""
    k = x.shape[0] // 2
    pairs = (x[:k] + sign * x[:k:-1]) * _SQRT_HALF
    if sign < 0:
        return pairs
    out = np.empty((k + 1,) + x.shape[1:])
    out[:k], out[k] = pairs, x[k]
    return out


def _unfold(y: np.ndarray, sign: int) -> np.ndarray:
    """The inverse map of :func:`_fold` on its side of the reversal."""
    k = y.shape[0] - (sign > 0)
    out = np.zeros((2 * k + 1,) + y.shape[1:])
    pairs = y[:k] * _SQRT_HALF
    out[:k] = pairs
    out[:k:-1] = sign * pairs
    if sign > 0:
        out[k] = y[k]
    return out


def _fold_block(A: np.ndarray, sign: int) -> np.ndarray:
    return _fold(_fold(A, sign).T, sign).T


_SQRT_HALF = np.sqrt(0.5)
_WHOLE = _Sector(0)
_MIRRORED = (_Sector(1), _Sector(-1))


def _mirror_defect(A: np.ndarray) -> float:
    """max |A - P A P| / max |A| for the node mirror P: j -> -j mod n.

    Compared on slice views: the interior block of nodes 1..n/2-1 against
    that of nodes n-1..n/2+1, the two cross blocks, and the rows and columns
    of the fixed nodes 0 and n/2.
    """
    h = A.shape[0] // 2
    lo, hi = slice(1, h), slice(None, h, -1)
    pairs = ((A[lo, lo], A[hi, hi]), (A[lo, hi], A[hi, lo]),
             (A[::h, lo], A[::h, hi]), (A[lo, ::h], A[hi, ::h]))
    return max(float(np.abs(a - b).max()) for a, b in pairs) / float(np.abs(A).max())


def _reversal_defect(A: np.ndarray) -> float:
    """max |A - J A J| / max |A| for the reversal J: k -> m - 1 - k of a half block."""
    return float(np.abs(A - A[::-1, ::-1]).max()) / float(np.abs(A).max())


def _mirror_tolerance(n: int) -> float:
    """Relative mirror defect up to which a cell of n nodes is solved as mirrored.

    On mirrored disks, ellipses and Fourier curves and their normal
    perturbations the defect of K* stays below about 0.15 eps * n^2 (0.18
    once in 400 perturbed bench curves; its near-diagonal entries cancel to
    that level) and that of the Gram matrix below 1e-14; an asymmetric
    cell's is 1e-2 or more.  A cell asymmetric by
    less than this (1.5e-11 at n = 256, 5.8e-11 at n = 1024) is solved as
    mirrored: its cross-sector couplings of that relative size are dropped.
    The same tolerance certifies the second mirror on the half blocks.
    """
    return 0.25 * np.finfo(float).eps * n * n


def _sector_blocks(gram: np.ndarray, K: np.ndarray) -> list:
    """The cell's sectors, each with its blocks of gram and K*.

    The whole space unless gram and K* both commute with P; then the two
    halves, and when n is a multiple of 4 and all four half blocks commute
    with the reversal too, the four quarters folded from those half blocks.
    """
    n = gram.shape[0]
    tolerance = _mirror_tolerance(n)
    if not (_mirror_defect(gram) <= tolerance and _mirror_defect(K) <= tolerance):
        return [(_WHOLE, gram, K)]
    halves = [(sector, sector.block(gram), sector.block(K)) for sector in _MIRRORED]
    if n % 4 or not all(_reversal_defect(A) <= tolerance
                        for _, G, K_half in halves for A in (G, K_half)):
        return halves
    return [(_Sector(sector.parity, fold), _fold_block(G, fold), _fold_block(K_half, fold))
            for sector, G, K_half in halves for fold in (1, -1)]


def _reached(sectors: list, vector: np.ndarray) -> np.ndarray:
    """Whether each sector's projection Q^T vector exceeds the mirror tolerance of max |vector|.

    The moments <phi_j, vector> of a sector it does not reach are round-off.
    The whole space is reached by every non-zero vector.
    """
    scale = _mirror_tolerance(vector.size) * np.abs(vector).max()
    return np.array([np.abs(sector.restrict(vector)).max() > scale for sector in sectors])


def _equilibrium_mode(K: np.ndarray, K_sector: np.ndarray, sector: _Sector,
                      w: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenpair of K* nearest 1/2, by inverse iteration in the sector of the constant.

    The density comes back at unit mass; the residual and mass checks use
    the full K*.
    """
    import scipy.linalg  # deferred, like scipy.special: importing the package stays scipy-free

    lu = scipy.linalg.lu_factor(K_sector - (0.5 + _EQUILIBRIUM_SHIFT) * np.eye(K_sector.shape[0]))
    psi = sector.restrict(np.ones(w.size))
    for _ in range(_EQUILIBRIUM_SOLVES):
        psi = scipy.linalg.lu_solve(lu, psi)
        psi /= np.linalg.norm(psi)
    psi = sector.extend(psi)
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
    """Trailing (m-1)x(m-1) block of H A H for symmetric A and H = I - beta h h^T."""
    p = beta * (A @ h)
    q = p - (0.5 * beta * (h @ p)) * h
    return A[1:, 1:] - np.outer(h[1:], q[1:]) - np.outer(q[1:], h[1:])


def _solve_sector(sector: _Sector, G: np.ndarray, K_sector: np.ndarray, w: np.ndarray,
                  vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The sector's zero-mean eigenvalues in descending order and, if asked, their densities.

    The densities are nodal, sign-fixed and in the same order; without them
    the generalized ``eigh`` computes eigenvalues only.
    """
    import scipy.linalg

    B = G @ K_sector
    B = 0.5 * (B + B.T)
    if sector.holds_constant:
        # columns 1.. of a Householder reflector H = I - beta h h^T with
        # H w = -|w| e_0 (the weights are positive) span w^T x = 0 in the sector
        w_sector = sector.restrict(w)
        norm_w = np.linalg.norm(w_sector)
        h = w_sector.copy()
        h[0] += norm_w
        beta = 1.0 / (norm_w * h[0])
        G, B = _reflected_block(G, h, beta), _reflected_block(B, h, beta)
    try:
        if not vectors:
            return scipy.linalg.eigh(B, G, eigvals_only=True)[::-1], None  # ascending
        vals, vecs = scipy.linalg.eigh(B, G)
    except np.linalg.LinAlgError as exc:  # scipy.linalg raises numpy's class
        raise QuadratureFailure(
            "Gram matrix -W S is not positive definite on the zero-mean sector"
        ) from exc
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    if sector.holds_constant:
        reflected = np.zeros((h.size, vecs.shape[1]))
        reflected[1:] = vecs
        reflected -= np.outer(beta * h, h[1:] @ vecs)
        vecs = reflected
    return vals, _fix_signs(sector.extend(vecs))


def eigendecompose(single_layer: BoundaryOperator, np_adjoint: BoundaryOperator
                   ) -> SpectralDecomposition:
    """Diagonalise K* in the -S inner product on the zero-mean sector.

    Each mirror sector of the cell (or the whole space, on a cell that is
    not mirror-symmetric) is solved on its own; the eigenvalues are merged in
    descending order.  On mirrored cells the moments of a normal component
    on a sector its moment vector misses are exactly 0: with one mirror
    parallel to the grating the nu2 moments of the even modes and the nu1
    moments of the odd ones, the other way round when it is normal to it.
    A sector that neither moment vector reaches is solved for its
    eigenvalues only; its densities wait for the first read of
    ``eigendensities``.

    Raises :class:`QuadratureFailure` if the Gram matrix is not positive
    definite there or the equilibrium mode cannot be resolved, either of
    which indicates a broken discretisation.
    """
    if single_layer.cell is not np_adjoint.cell and not np.array_equal(
        single_layer.cell.weights, np_adjoint.cell.weights
    ):
        raise DomainError("operators were assembled from different cells")

    cell = single_layer.cell
    w = cell.weights
    S = single_layer.matrix
    K = np_adjoint.matrix

    gram = -(w[:, None] * S)
    gram = 0.5 * (gram + gram.T)
    nu1 = gram @ cell.normals[:, 0]
    nu2 = gram @ cell.normals[:, 1]
    blocks = _sector_blocks(gram, K)
    sectors = [sector for sector, _, _ in blocks]
    reach1, reach2 = _reached(sectors, nu1), _reached(sectors, nu2)
    values, densities = [], []
    for i, (sector, G, K_sector) in enumerate(blocks):
        vals, dens = _solve_sector(sector, G, K_sector, w, reach1[i] or reach2[i])
        if sector.holds_constant:
            constant, K_constant = i, K_sector
        values.append(vals)
        densities.append(dens)
    # a stable merge of the descending sector spectra; each sector's densities
    # go to their merged columns of one C-order matrix (the last bits of the
    # moments below follow the layout), those of a deferred sector stay 0
    order = np.argsort(-np.concatenate(values), kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(1, order.size + 1)
    columns = np.split(column, np.cumsum([vals.size for vals in values])[:-1])
    lam0, psi0 = _equilibrium_mode(K, K_constant, sectors[constant], w)
    eigenvalues = np.concatenate([[lam0], np.concatenate(values)[order]])
    eigendensities = np.zeros((w.size, w.size))
    eigendensities[:, 0] = psi0
    label = np.full(w.size, constant)
    for i, (dens, cols) in enumerate(zip(densities, columns)):
        label[cols] = i
        if dens is not None:
            eigendensities[:, cols] = dens
    moments_nu1 = eigendensities.T @ nu1
    moments_nu2 = eigendensities.T @ nu2
    moments_nu1[~reach1[label]] = 0.0
    moments_nu2[~reach2[label]] = 0.0
    deferred = tuple((sectors[i], cols) for i, cols in enumerate(columns) if densities[i] is None)
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        moments_nu1=moments_nu1,
        moments_nu2=moments_nu2,
        gram=gram,
        cell=cell,
        single_layer=S,
        np_adjoint=K,
        _densities=eigendensities,
        _deferred=deferred,
    )


def decompose(cell: CellGeometry) -> SpectralDecomposition:
    """Assemble S and K* on the cell and diagonalise K*: the pipeline's one entry.

    A cell whose working set exceeds the byte budget is refused before
    assembly (see :func:`check_working_set`).
    """
    check_working_set(cell.node_count)
    return eigendecompose(assemble_single_layer(cell), assemble_np_adjoint(cell))


# float64 arrays live at once: n x n ones in a decomposition (9 at the peak of
# n = 512, by tracemalloc) and samples x (n - 1) ones in a full mode sum over a
# batch of contrasts (3 measured); and the most bytes a run may ask for
_DENSE_ARRAYS = 10
_BATCH_ARRAYS = 4
_WORKING_SET_BYTES_MAX = 2**32


def check_working_set(node_count: int, samples: int = 0) -> None:
    """Refuse, before anything is allocated, a run whose working set exceeds the byte budget.

    The estimate counts, in exact integers, the live n x n arrays of one
    decomposition and the samples x (n - 1) ones of one batch of contrasts;
    a negative count is left to the node-count check.  Raises
    :class:`OutOfRangeError` naming the estimate and the limit.
    """
    n = max(int(node_count), 0)
    need = 8 * (_DENSE_ARRAYS * n * n + _BATCH_ARRAYS * int(samples) * max(n - 1, 0))
    if need > _WORKING_SET_BYTES_MAX:
        gib = need / 2**30 if need.bit_length() < 1000 else float("inf")
        with_samples = f" with {samples} sweep samples" if samples else ""
        raise OutOfRangeError(
            f"node_count {node_count}{with_samples} would need about {gib:.3g} GiB "
            f"(limit {_WORKING_SET_BYTES_MAX / 2**30:g} GiB)"
        )


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


def _row_sums(nodes: np.ndarray, weights: np.ndarray, lams) -> np.ndarray:
    """sum_i weights_i / (lam - nodes_i) for each lam, for real nodes and weights.

    With d = Re lam - nodes, b = Im lam and q = weights / (d^2 + b^2) the sum
    is sum d q - i b sum q: real arithmetic and two row sums per lam, no
    complex division.  Row sums, not a matrix product, keep each lam's value
    independent of the others in the batch.
    """
    lam = np.asarray(lams, dtype=complex)
    d = lam.real[:, None] - nodes
    q = weights / (d * d + (lam.imag**2)[:, None])
    return (d * q).sum(axis=1) - 1j * lam.imag * q.sum(axis=1)


def _mode_sums(decomposition: SpectralDecomposition, lams, moments: np.ndarray
               ) -> np.ndarray:
    """-(1/2L) sum_j c_j / (lam - lam_j) for each lam, c_j = m_j <phi_j, nu2> / (1/2 - lam_j).

    The sum over the zero-mean modes whose weight is non-zero; the others
    add exactly nothing.  With m = moments_nu2 it is alpha2_plus, with
    m = moments_nu1 alpha1_plus.  The equilibrium mode carries no normal
    moment.
    """
    lj = decomposition.eigenvalues[1:]
    c = moments[1:] * decomposition.moments_nu2[1:] / (0.5 - lj)
    carried = c != 0.0
    return -_row_sums(lj[carried], c[carried], lams) / (2.0 * decomposition.cell.period_ratio)


def alpha_infinity(decomposition: SpectralDecomposition, lam: complex) -> BoundaryLayerLimits:
    """Far-field limits of the corrector fields at contrast lam.

    Real lam equal to an eigenvalue is a pole and is rejected.
    """
    lam = complex(lam)
    _check_off_spectrum(decomposition, lam)
    a2 = alpha2_plus_batch(decomposition, [lam])[0]
    a1 = _mode_sums(decomposition, [lam], decomposition.moments_nu1)[0]
    return BoundaryLayerLimits(alpha1_plus=a1, alpha1_minus=-a1,
                               alpha2_plus=a2, alpha2_minus=-a2)


def alpha2_plus_batch(decomposition: SpectralDecomposition, lams: np.ndarray) -> np.ndarray:
    """Vectorised alpha2_plus over an array of (complex) contrasts.

    A zero-mean eigenvalue at or above 1/2 has no positive nu2 coupling
    weight; only an unresolved discretisation produces one, and it is
    reported as a :class:`QuadratureFailure` naming the mode.
    """
    eigenvalues = decomposition.eigenvalues
    above = np.flatnonzero(eigenvalues[1:] >= 0.5)
    if above.size:
        j = 1 + int(above[0])
        raise QuadratureFailure(
            f"zero-mean eigenvalue lambda_{j} = {eigenvalues[j]:.6g} is not below 1/2, "
            "so its nu2 coupling weight is not positive: the discretisation does not resolve the cell"
        )
    return _mode_sums(decomposition, lams, decomposition.moments_nu2)


def resolvent_density(decomposition: SpectralDecomposition, lam: complex,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (lam I - K*) psi = rhs by a direct dense solve with the decomposition's K*.

    A zero-mean right-hand side yields a zero-mean density up to quadrature
    error.  Real lam too close to the spectrum is rejected with the offending
    mode index.
    """
    lam = complex(lam)
    _check_off_spectrum(decomposition, lam)
    adjoint = decomposition.np_adjoint
    system = lam * np.eye(adjoint.shape[0]) - adjoint
    rhs = np.asarray(rhs, dtype=complex if lam.imag != 0.0 else float)
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(f"resolvent system singular at contrast {lam}") from exc


def alpha_field(decomposition: SpectralDecomposition, lam: complex, component: int, xi) -> complex:
    """Corrector field alpha^(component) at an off-surface point xi.

    Solves the resolvent system for the density and evaluates the off-surface
    single layer; component is 1 or 2 for the two normal directions.
    """
    if component not in (1, 2):
        raise DomainError("component must be 1 or 2")
    cell = decomposition.cell
    psi = resolvent_density(decomposition, lam, cell.normals[:, component - 1])
    return evaluate_single_layer_off_surface(cell, psi, xi)
