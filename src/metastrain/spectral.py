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
eigh calls of about n/2 instead of one of n - 1.  Every other cell takes the
whole space as its one sector.  Which normal moments vanish on a sector is
read off the moment vectors W S nu_l, not assumed: the mirror parallel to the
grating makes nu1 even and nu2 odd, the one normal to it the reverse.

The equilibrium mode (eigenvalue 1/2, non-zero mean) is found by shifted
inverse iteration in the sector of the constant: one LU of
K* - (1/2 + 1e-10) I there, a few solves and the Rayleigh quotient, with a
residual check on the full K*.

The eigenpairs feed two downstream quantities:

* the boundary-layer far-field limits, via the mode sums
      alpha2_plus = -(1/2L) * sum_j <phi_j, nu2>^2 / ((lam - lam_j)(1/2 - lam_j)),
  and the analogous cross sum with <phi_j, nu1> for the first component;
* point values of the corrector fields alpha^(l) = S (lam I - K*)^{-1}[nu_l],
  via a direct dense resolvent solve and off-surface quadrature.

alpha2_plus is -(1/2L) times the Stieltjes transform of the positive measure
mu = sum_j c_j delta(lam_j), c_j = <phi_j, nu2>^2 / (1/2 - lam_j), which is
numerically carried by a handful of points.  A decomposition keeps the Gauss
rules of mu with k = 4, 6, 8, 10, 12, 16, 24 and 32 nodes, each built on
first use from the first k steps of one Lanczos run on diag(lam_j).  Each
contrast takes the first rule whose truncation error is certified below
2^-53 of its value by the bound
mass * prod beta_i^2 / (prod |lam - node_i|^2 * dist(lam, hull)), and whose
node rounding (eps times the spectral radius per node) moves the value by at
most 2^-46 of it.  A contrast that no rule certifies, such as a real
contrast inside the spectral hull or one at a pole, takes the full sum over
all modes.  The first corrector's cross sum has signed weights and always
takes the full sum.
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

    @cached_property
    def nu2_gauss_rule(self) -> "GaussRule":
        """Gauss rules of the nu2 coupling measure, built on first use and kept."""
        return _gauss_rule(self.eigenvalues, self.moments_nu2)


@dataclass(frozen=True)
class BoundaryLayerLimits:
    """Far-field constants of the two corrector fields above (+) and below (-) the grating."""

    alpha1_plus: complex
    alpha1_minus: complex
    alpha2_plus: complex
    alpha2_minus: complex


# Gauss rules of the nu2 coupling measure: Lanczos steps, the node counts
# tried per contrast, the log of the relative bound on a rule's truncation
# error, and the relative bound on the error of nodes rounded by about eps
# times the spectral radius, which grows near a pole (at 1e-7 from the
# dominant eigenvalue of the default disk a rule was 5.5e-10 off)
_LANCZOS_STEPS = 32
_RULE_RUNGS = (4, 6, 8, 10, 12, 16, 24, 32)
_RULE_LOG_TOLERANCE = np.log(2.0**-53)
_RULE_ROUNDING = 2.0**-46


class GaussRule:
    """Gauss rules of the measure mu = sum_j c_j delta(lam_j), c_j = m_j^2 / (1/2 - lam_j).

    Lanczos runs on diag(lam_j) from sqrt(c / sum c) with full
    reorthogonalisation (Golub & Meurant 2010, ch. 6-7), only as many steps as
    the rules asked for so far need.  The Jacobi matrix of its first k steps
    gives the k-node Gauss rule (Golub & Welsch 1969): the nodes are its
    eigenvalues, the weights the mass times the squared first components of
    its eigenvectors.  ``weights`` are the c_j of the full sum and ``hull``
    is [min lam_j, max lam_j].
    """

    def __init__(self, eigenvalues: np.ndarray, weights: np.ndarray):
        self.eigenvalues = eigenvalues
        self.weights = weights
        self.hull = (float(eigenvalues.min()), float(eigenvalues.max()))
        self.mass = float(weights.sum())
        self._basis = np.zeros((min(_LANCZOS_STEPS, eigenvalues.size), eigenvalues.size))
        self._q = np.sqrt(weights / self.mass)
        self._alpha: list[float] = []
        self._beta: list[float] = []
        self._rungs: dict = {}

    def _step(self) -> bool:
        """One Lanczos step; False once the recurrence is exhausted."""
        i = len(self._alpha)
        if i == self._basis.shape[0] or (self._beta and self._beta[-1] == 0.0):
            return False
        q = self._basis[i] = self._q
        v = self.eigenvalues * q
        basis = self._basis[:i + 1]
        h = basis @ v
        v -= h @ basis
        v -= (basis @ v) @ basis  # a second Gram-Schmidt pass keeps the basis orthonormal
        self._alpha.append(float(h[i]))
        self._beta.append(float(np.sqrt(v @ v)))
        if self._beta[-1] > 0.0:
            self._q = v / self._beta[-1]
        return True

    def rung(self, k: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Nodes, weights and log(mass * prod_{i<=k} beta_i^2) of the k-node rule.

        The last entry is the log of the integral of the squared monic node
        polynomial against mu: the rule's error for sum_j c_j / (lam - lam_j)
        is at most its exponential over prod_i |lam - node_i|^2 * dist(lam, hull).
        Past the end of the recurrence the longest rule is returned.
        """
        while len(self._alpha) < k and self._step():
            pass
        k = min(k, len(self._alpha))
        if k not in self._rungs:
            beta = np.array(self._beta[:k])
            # eigh reads the lower triangle of the symmetric tridiagonal matrix
            nodes, vectors = np.linalg.eigh(np.diag(self._alpha[:k]) + np.diag(beta[:-1], -1))
            with np.errstate(divide="ignore"):  # a zero beta makes the rule exact
                log_moment = np.log(self.mass) + 2.0 * np.log(beta).sum()
            self._rungs[k] = (nodes, self.mass * vectors[0] ** 2, float(log_moment))
        return self._rungs[k]


def _gauss_rule(eigenvalues: np.ndarray, moments: np.ndarray) -> GaussRule:
    """The Gauss rules of the zero-mean modes' nu2 coupling measure.

    A zero-mean eigenvalue at or above 1/2 has no positive weight; only an
    unresolved discretisation produces one, and it is reported as a
    :class:`QuadratureFailure` naming the mode.
    """
    above = np.flatnonzero(eigenvalues[1:] >= 0.5)
    if above.size:
        j = 1 + int(above[0])
        raise QuadratureFailure(
            f"zero-mean eigenvalue lambda_{j} = {eigenvalues[j]:.6g} is not below 1/2, "
            "so its nu2 coupling weight is not positive: the discretisation does not resolve the cell"
        )
    lj, m = eigenvalues[1:], moments[1:]
    return GaussRule(lj, m * m / (0.5 - lj))


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
    """An invariant subspace of the node mirror P: j -> -j mod n, by its orthonormal basis Q.

    ``parity`` +1 is the even sector (e_0, (e_j + e_{n-j}) / sqrt 2 for
    0 < j < n/2, e_{n/2}, in that order), -1 the odd one
    ((e_j - e_{n-j}) / sqrt 2) and 0 the whole space (Q = I).
    """

    parity: int

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """Q^T x along the first axis."""
        if self.parity == 0:
            return x
        h = x.shape[0] // 2
        pairs = (x[1:h] + self.parity * x[:h:-1]) * _SQRT_HALF
        if self.parity < 0:
            return pairs
        out = np.empty((h + 1,) + x.shape[1:])
        out[0], out[1:h], out[h] = x[0], pairs, x[h]
        return out

    def extend(self, y: np.ndarray) -> np.ndarray:
        """Q y along the first axis."""
        if self.parity == 0:
            return y
        h = y.shape[0] - self.parity
        out = np.zeros((2 * h,) + y.shape[1:])
        pairs = (y[1:h] if self.parity > 0 else y) * _SQRT_HALF
        if self.parity > 0:
            out[0], out[h] = y[0], y[h]
        out[1:h] = pairs
        out[:h:-1] = self.parity * pairs
        return out

    def block(self, A: np.ndarray) -> np.ndarray:
        """Q^T A Q."""
        return self.restrict(self.restrict(A).T).T


_SQRT_HALF = np.sqrt(0.5)
_WHOLE = (_Sector(0),)
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


def _mirror_tolerance(n: int) -> float:
    """Relative mirror defect up to which a cell of n nodes is solved as mirrored.

    On mirrored disks, ellipses and Fourier curves and their normal
    perturbations the defect of K* stays below about 0.15 eps * n^2 (0.18
    once in 400 perturbed bench curves; its near-diagonal entries cancel to
    that level) and that of the Gram matrix below 1e-14; an asymmetric
    cell's is 1e-2 or more.  A cell asymmetric by
    less than this (1.5e-11 at n = 256, 5.8e-11 at n = 1024) is solved as
    mirrored: its cross-sector couplings of that relative size are dropped.
    """
    return 0.25 * np.finfo(float).eps * n * n


def _sectors(gram: np.ndarray, K: np.ndarray) -> tuple:
    """The mirror sectors when gram and K* both commute with P, else the whole space."""
    tolerance = _mirror_tolerance(gram.shape[0])
    if _mirror_defect(gram) <= tolerance and _mirror_defect(K) <= tolerance:
        return _MIRRORED
    return _WHOLE


def _clear_vanishing_moments(moments: np.ndarray, parity: np.ndarray, sectors: tuple,
                             vector: np.ndarray) -> None:
    """Set to exactly 0 the moments <phi_j, vector> of every sector that vector misses.

    A sector is missed when the projection Q^T vector is below the mirror
    tolerance of max |vector|; the moments there are then round-off.  The
    whole space is never missed by a non-zero vector.
    """
    scale = _mirror_tolerance(vector.size) * np.abs(vector).max()
    for sector in sectors:
        if np.abs(sector.restrict(vector)).max() <= scale:
            moments[parity == sector.parity] = 0.0


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


def eigendecompose(single_layer: BoundaryOperator, np_adjoint: BoundaryOperator
                   ) -> SpectralDecomposition:
    """Diagonalise K* in the -S inner product on the zero-mean sector.

    Each mirror sector of the cell (or the whole space, on a cell that is
    not mirror-symmetric) is solved on its own; the eigenvalues are merged in
    descending order.  On mirrored cells the moments of a normal component
    on the sector its moment vector misses are exactly 0: the nu2 moments of
    the even modes and the nu1 moments of the odd ones when the mirror is
    parallel to the grating, the other way round when it is normal to it.

    Raises :class:`QuadratureFailure` if the Gram matrix is not positive
    definite there or the equilibrium mode cannot be resolved, either of
    which indicates a broken discretisation.
    """
    if single_layer.cell is not np_adjoint.cell and not np.array_equal(
        single_layer.cell.weights, np_adjoint.cell.weights
    ):
        raise DomainError("operators were assembled from different cells")
    import scipy.linalg

    cell = single_layer.cell
    w = cell.weights
    S = single_layer.matrix
    K = np_adjoint.matrix

    gram = -(w[:, None] * S)
    gram = 0.5 * (gram + gram.T)
    values, densities, parities = [], [], []
    sectors = _sectors(gram, K)
    for sector in sectors:
        G = sector.block(gram)
        K_sector = sector.block(K)
        B = G @ K_sector
        B = 0.5 * (B + B.T)
        if sector.parity >= 0:
            # the sector of the constant: columns 1.. of a Householder reflector
            # H = I - beta h h^T with H w = -|w| e_0 (the weights are positive)
            # span w^T x = 0 within it
            w_sector = sector.restrict(w)
            norm_w = np.linalg.norm(w_sector)
            h = w_sector.copy()
            h[0] += norm_w
            beta = 1.0 / (norm_w * h[0])
            G, B = _reflected_block(G, h, beta), _reflected_block(B, h, beta)
            constant_sector, K_constant = sector, K_sector
        try:
            vals, vecs = scipy.linalg.eigh(B, G)
        except np.linalg.LinAlgError as exc:  # scipy.linalg raises numpy's class
            raise QuadratureFailure(
                "Gram matrix -W S is not positive definite on the zero-mean sector"
            ) from exc
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        if sector.parity >= 0:
            reflected = np.zeros((h.size, vecs.shape[1]))
            reflected[1:] = vecs
            reflected -= np.outer(beta * h, h[1:] @ vecs)
            vecs = reflected
        values.append(vals)
        densities.append(sector.extend(vecs))
        parities.append(np.full(vals.size, sector.parity))
    # a stable merge of the descending sector spectra; take() keeps the
    # densities in C order (a fancy column index gives F order, and the last
    # bits of the moments below follow the layout)
    order = np.argsort(-np.concatenate(values), kind="stable")
    vals = np.concatenate(values)[order]
    densities = _fix_signs(np.take(np.hstack(densities), order, axis=1))

    lam0, psi0 = _equilibrium_mode(K, K_constant, constant_sector, w)
    eigenvalues = np.concatenate([[lam0], vals])
    eigendensities = np.column_stack([psi0, densities])
    parity = np.concatenate([[constant_sector.parity], np.concatenate(parities)[order]])
    nu1 = gram @ cell.normals[:, 0]
    nu2 = gram @ cell.normals[:, 1]
    moments_nu1 = eigendensities.T @ nu1
    moments_nu2 = eigendensities.T @ nu2
    _clear_vanishing_moments(moments_nu1, parity, sectors, nu1)
    _clear_vanishing_moments(moments_nu2, parity, sectors, nu2)
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        eigendensities=eigendensities,
        moments_nu1=moments_nu1,
        moments_nu2=moments_nu2,
        gram=gram,
        cell=cell,
        single_layer=S,
        np_adjoint=K,
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

    The full sum over the zero-mean modes: with m = moments_nu2 it is
    alpha2_plus, with m = moments_nu1 alpha1_plus.  The equilibrium mode
    carries no normal moment.
    """
    lj = decomposition.eigenvalues[1:]
    c = moments[1:] * decomposition.moments_nu2[1:] / (0.5 - lj)
    return -_row_sums(lj, c, lams) / (2.0 * decomposition.cell.period_ratio)


def _hull_distance(lam: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Distance of each complex lam from the real segment [lo, hi]."""
    gap = np.maximum(np.maximum(lo - lam.real, lam.real - hi), 0.0)
    return np.hypot(gap, lam.imag)


def _nu2_sums(decomposition: SpectralDecomposition, lams) -> tuple[np.ndarray, np.ndarray]:
    """sum_j c_j / (lam - lam_j) of alpha2_plus, and the number of terms summed per lam.

    Each lam takes the first certified rung of the Gauss rule of the nu2
    coupling measure; a lam that no rung certifies (a real lam inside the
    spectral hull, or a measure that needs more nodes) takes the full mode
    sum.  The choice is made per lam, so no value depends on the batch.
    """
    rule = decomposition.nu2_gauss_rule
    lam = np.asarray(lams, dtype=complex)
    sums = np.empty(lam.shape, dtype=complex)
    sizes = np.zeros(lam.shape, dtype=int)
    dist = _hull_distance(lam, *rule.hull)
    node_error = np.finfo(float).eps * max(-rule.hull[0], rule.hull[1])
    pending = np.flatnonzero(dist > 0.0)
    size = 0
    for k in _RULE_RUNGS:
        if pending.size == 0:
            break
        nodes, weights, log_moment = rule.rung(k)
        if nodes.size == size:  # the recurrence ended before k steps
            break
        size = nodes.size
        sub = lam[pending]
        f = _row_sums(nodes, weights, sub)
        d = sub.real[:, None] - nodes
        denominator = d * d + (sub.imag**2)[:, None]
        # a product that underflows to 0 leaves its lam uncertified; one that
        # overflows puts the bound far below 2^-53 of the value
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_truncation = (log_moment - np.log(denominator.prod(axis=1))
                              - np.log(dist[pending]))
            rounding = node_error * (weights / denominator).sum(axis=1)
            certified = ((log_truncation <= _RULE_LOG_TOLERANCE + np.log(np.abs(f)))
                         & (rounding <= _RULE_ROUNDING * np.abs(f)))
        done = pending[certified]
        sums[done] = f[certified]
        sizes[done] = nodes.size
        pending = pending[~certified]
    rest = np.flatnonzero(sizes == 0)
    lj = decomposition.eigenvalues[1:]
    sums[rest] = _row_sums(lj, rule.weights, lam[rest])
    sizes[rest] = lj.size
    return sums, sizes


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
    """Vectorised alpha2_plus over an array of (complex) contrasts."""
    sums, _ = _nu2_sums(decomposition, lams)
    return -sums / (2.0 * decomposition.cell.period_ratio)


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
        raise DomainError("component must be 1 or 2")
    cell = decomposition.cell
    psi = resolvent_density(decomposition, lam, cell.normals[:, component - 1])
    return evaluate_single_layer_off_surface(cell, psi, xi)
