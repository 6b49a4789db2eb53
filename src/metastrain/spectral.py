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
because the lattice kernel is even in both offsets.  The group comes with
S and K*, which ``layer_ops`` certifies from the node data at assembly.
Under P the problem splits over the orthonormal orbit basis into an even
sector (e_0, e_{n/2} and (e_j + e_{n-j}) / sqrt 2, which holds the constant
and the zero-mean constraint) and an odd sector ((e_j - e_{n-j}) / sqrt 2):
two generalized eigensolves of about n/2 instead of one of n - 1.  Under the
second lattice mirror j -> n/2 - j as well (the disk and the ellipse, n a
multiple of 4) it splits over the four characters of the group {I, P, M, T}
into quarters of about n/4 (sizes n/4 + 1, n/4, n/4 and n/4 - 1, the
constant in the first).  Each sector block is gathered from the rows of the
orbit representatives alone, the rows S and K* carry: one slice of those
rows per group element, summed with the character's signs and scaled by the
orbit sizes.  The Gram block is gathered from the rows of -W S and made
symmetric at sector size, and the moment vectors Q^T G nu_l are G_s Q^T nu_l.
Operators without a mirror carry the trivial group {I}, whose one sector is
the whole space (Q = I), on the same path.  Which normal moments vanish on a
sector is read off the moment vectors, not assumed: the mirror parallel to
the grating makes nu1 even and nu2 odd, the one normal to it the reverse.

The eigenvectors stay in sector coordinates, where the moments are taken.
A sector that neither moment vector reaches (two of the four quarters) is
solved for its eigenvalues only: the sweep, the calibration, the extinction
spectrum and ``eigs`` read the eigenvalues and the moments alone.  The n x n
S, K*, Gram matrix and densities are built on the first read, which
``shape_deriv``, ``validate``, ``resolvent_density`` and Gram-overlap mode
tracking make; the eigenvalues never change.

Each sector's B x = lam G x (B = G K* made symmetric) is solved by the
Cholesky route: G = L L^T, L^-1 by halves (the diagonal halves in turn, down
to blocks of at most 32 unknowns, which alone go to a general inverse), then
numpy's ``eigvalsh`` or ``eigh`` on C = L^-1 B L^-T, whose vectors y map back
to G-orthonormal x = L^-T y.

The equilibrium mode (eigenvalue 1/2, non-zero mean) is found by shifted
inverse iteration in the sector of the constant, at construction: two solves
with K* - (1/2 + 1e-10) I there, each damping every other mode by the shift
over its distance to 1/2, and the Rayleigh quotient, with a residual check in
the sector.

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
has no positive nu2 weight and is reported as a QuadratureFailure.  The sums
run in two (contrast x mode) buffers with the products and the summation order
of the plain expression, so their values are the same bytes
(``tests/allocating_kernels.py``).

alpha2_plus on a grid of contrasts is kept per decomposition, the last grid
only.  The jump coefficient beta = 2 delta alpha2_plus of the effective
transmission condition is a property of the grating (lattice and material at
each wavelength), not of the capsule that carries it, so capsules that share
a decomposition and a wavelength grid share one batch: 2 of the 3 batches of
a benchmark ``spectrum`` op repeat (the beta = 0 control computes none), none
of the 5 of a ``calibrate`` op (a new decomposition per period) nor the one
of a ``shape`` op, and no CLI command repeats a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, OutOfRangeError, QuadratureFailure
from .geometry import CellGeometry
from .layer_ops import (
    BoundaryOperator,
    _mirror_tolerance,
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
    orthonormal in the Gram inner product for j >= 1.  It keeps the rows of S
    and K*, each sector with its merged columns and its eigenvectors in
    sector coordinates (None where no normal moment lives) and the last
    batch of :func:`alpha2_plus_batch`, a property of the grating that the
    capsules on it share; ``cell`` is the operators' cell, and
    ``single_layer``, ``np_adjoint``, ``gram`` and ``eigendensities`` are
    built on first read.
    """

    eigenvalues: np.ndarray
    moments_nu1: np.ndarray
    moments_nu2: np.ndarray
    equilibrium_density: np.ndarray
    _operators: tuple[BoundaryOperator, BoundaryOperator]
    _sectors: tuple

    @property
    def cell(self) -> CellGeometry:
        return self._operators[0].cell

    @property
    def mode_count(self) -> int:
        return self.eigenvalues.size

    @property
    def single_layer(self) -> np.ndarray:
        return self._operators[0].matrix

    @property
    def np_adjoint(self) -> np.ndarray:
        return self._operators[1].matrix

    @cached_property
    def gram(self) -> np.ndarray:
        """The Gram matrix -W S, made symmetric."""
        gram = -(self.cell.weights[:, None] * self.single_layer)
        return 0.5 * (gram + gram.T)

    @cached_property
    def eigendensities(self) -> np.ndarray:
        """psi0, then each sector's extended eigenvectors in its columns.

        The sectors without eigenvectors are solved from the rows first.
        """
        w = self.cell.weights
        dens = np.zeros((w.size, w.size))
        dens[:, 0] = self.equilibrium_density
        for sector, columns, vectors in self._sectors:
            if vectors is None:
                (blocks,) = _sector_blocks([sector], *self._operators)
                vectors = _solve_sector(sector, *blocks, w, vectors=True)[1]
            dens[:, columns] = sector.extend(vectors)
        return dens

    def dominant_mode(self) -> int:
        """Index of the mode with the heaviest nu2 coupling weight."""
        weights = self.moments_nu2[1:] ** 2 / (0.5 - self.eigenvalues[1:])
        return 1 + int(np.argmax(weights))


@dataclass(frozen=True)
class BoundaryLayerLimits:
    """Far-field constants of the two corrector fields above (+) and below (-) the grating.

    Each limit below is minus the one above.
    """

    alpha1_plus: complex
    alpha1_minus: complex = field(init=False)
    alpha2_plus: complex
    alpha2_minus: complex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha1_minus", -self.alpha1_plus)
        object.__setattr__(self, "alpha2_minus", -self.alpha2_plus)


def _fix_signs(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Flip each column of ``vectors`` so that its reference among ``entries`` is positive.

    ``entries`` are the columns' nodal entries, at the representatives for
    sector coordinates.  The reference is the lowest-index entry whose
    magnitude is within 1e-8 relative of the column maximum: on
    mirror-symmetric cells the largest |v| is tied between mirrored nodes (up
    to round-off where the cell's mirror does not fix node 0), so a plain
    argmax would let round-off choose the sign.
    """
    mag = np.abs(entries)
    idx = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
    signs = np.sign(entries[idx, np.arange(entries.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


# inverse iteration for the equilibrium mode: the shift keeps the solves regular
# when lambda_0 = 1/2 holds to round-off, and each solve damps every other
# mode by shift / (its distance to 1/2)
_EQUILIBRIUM_SHIFT = 1e-10
_EQUILIBRIUM_SOLVES = 2
_EQUILIBRIUM_RESIDUAL = 1e-10


@dataclass(frozen=True)
class _Sector:
    """A character of the cell's node mirror group and the orthonormal basis Q it picks out.

    The group of n nodes is {I} (``parity`` 0: the whole space, Q = I), or
    {I, P} for P: j -> -j mod n, or {I, P, M, T} when M: j -> n/2 - j is in
    it too (T = PM: j -> j + n/2).  ``parity`` is the character's value on
    P and ``fold`` its value on M (0 when M is not in the group).  The orbit
    representatives are all n nodes under {I}, nodes 0 .. n/2 under P alone
    and 0 .. n/4 under both; Q has one column per representative r on whose
    stabiliser the character is 1, in increasing r:
    b_r = sum over the orbit of chi(g) e_g(r) / sqrt |orbit|.
    """

    n: int
    parity: int
    fold: int = 0

    @property
    def holds_constant(self) -> bool:
        return self.parity >= 0 and self.fold >= 0

    @lru_cache(maxsize=16)
    def _orbits(self):
        """The representatives, the positions among them of half orbits, and (chi(g), g(reps)).

        The trivial group's plan is the identity: every node represents its
        own orbit, no orbit is half and the one image is slice(0, n).
        Otherwise an orbit has |group| nodes, but those of node 0 and of the
        last representative (n/2 under P alone, n/4 under both), which P or
        M fixes, have half as many; each is kept where the character is 1 on
        that element.  The images are slices, but P's of a run from node 0.
        The plan is built once per (n, parity, fold), the sector's fields,
        and shared by equal sectors.
        """
        n, h = self.n, self.n // 2
        if not self.parity:  # the trivial group
            return slice(0, n), (), ((1, slice(0, n)),)
        last = n // 4 if self.fold else h
        first = int(self.parity < 0)
        stop = last + ((self.fold or self.parity) > 0)
        halves = (0,) * (first == 0) + (-1,) * (stop > last)
        mirror = slice(n - first, n - stop, -1)
        if first == 0:  # node 0 is its own image: an index array, shared read-only
            mirror = np.arange(n, n - stop, -1) % n
            mirror.setflags(write=False)
        images = ((1, slice(first, stop)), (self.parity, mirror))
        if self.fold:
            images += ((self.fold, slice(h - first, h - stop, -1)),
                       (self.parity * self.fold, slice(first + h, stop + h)))
        return slice(first, stop), halves, images

    @staticmethod
    def _character_sum(images, take) -> np.ndarray:
        """sum_g chi(g) take(g(representatives)): take's own array under the trivial group."""
        (_, identity), *rest = images
        out = take(identity).copy() if rest else take(identity)
        for chi, image in rest:
            (np.add if chi > 0 else np.subtract)(out, take(image), out=out)
        return out

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """Q^T x along the first axis: sqrt |orbit| / |group| * sum_g chi(g) x[g(r)]."""
        _, halves, images = self._orbits()
        out = self._character_sum(images, lambda image: x[image]) * len(images) ** -0.5
        for k in halves:
            out[k] *= _SQRT_HALF
        return out

    def at_representatives(self, y: np.ndarray) -> np.ndarray:
        """(Q y)[r] = y_r / sqrt |orbit| along the first axis: its orbit's lowest-index entry."""
        _, halves, images = self._orbits()
        y = y * len(images) ** -0.5
        for k in halves:
            y[k] *= _SQRT_TWO
        return y

    def extend(self, y: np.ndarray) -> np.ndarray:
        """Q y along the first axis: x[g(r)] = chi(g) y_r / sqrt |orbit| for each g."""
        _, _, images = self._orbits()
        y = self.at_representatives(y)
        x = np.zeros((self.n,) + y.shape[1:])
        for chi, image in images:
            if chi > 0:
                x[image] = y
            else:  # the images with sign - are slices: views of x
                np.negative(y, out=x[image])
        return x

    def block(self, A: np.ndarray) -> np.ndarray:
        """Q^T A Q of a matrix that commutes with the group, from its representatives' rows.

        sqrt(|orbit r| |orbit s|) / |group| * sum_g chi(g) A[r, g(s)]: one
        gather of those rows per group element, and the factor is 1 but on
        the rows and columns of half orbits.
        """
        reps, halves, images = self._orbits()
        rows = A[reps]
        block = self._character_sum(images, lambda image: rows[:, image])
        for k in halves:
            block[k] *= _SQRT_HALF
            block[:, k] *= _SQRT_HALF
        return block


_SQRT_HALF = np.sqrt(0.5)
_SQRT_TWO = np.sqrt(2.0)


def _sectors(n: int, mirrors: int) -> list:
    """The characters of the mirror group (whole space, halves, quarters), the constant's first."""
    parities = (1, -1) if mirrors else (0,)
    folds = (1, -1) if mirrors == 2 else (0,)
    return [_Sector(n, parity, fold) for parity in parities for fold in folds]


def _reached(vectors: list) -> np.ndarray:
    """Whether each sector's Q^T G nu_l exceeds the mirror tolerance of the largest entry of all.

    The moments <phi_j, nu_l> of a sector it does not reach are round-off.
    """
    n = sum(vector.size for vector in vectors)
    scale = _mirror_tolerance(n) * max(np.abs(vector).max() for vector in vectors)
    return np.array([np.abs(vector).max() > scale for vector in vectors])


def _equilibrium_mode(K_sector: np.ndarray, sector: _Sector, w: np.ndarray
                      ) -> tuple[float, np.ndarray]:
    """Eigenpair of K* nearest 1/2, by inverse iteration in the sector of the constant.

    Two solves with K* - (1/2 + shift) I from the sector's constant, each
    normalised.  The density comes back in sector coordinates at unit mass.
    The residual is the full K*'s for an operator that commutes with the
    group.
    """
    shifted = K_sector - (0.5 + _EQUILIBRIUM_SHIFT) * np.eye(K_sector.shape[0])
    psi = sector.restrict(np.ones(w.size))
    try:
        for _ in range(_EQUILIBRIUM_SOLVES):
            psi = np.linalg.solve(shifted, psi)
            psi /= np.linalg.norm(psi)
    except np.linalg.LinAlgError as exc:
        raise QuadratureFailure(
            "equilibrium mode did not converge: K* - (1/2 + shift) I is singular"
        ) from exc
    k_psi = K_sector @ psi
    lam0 = float(psi @ k_psi)
    residual = float(np.linalg.norm(k_psi - lam0 * psi))
    if not residual <= _EQUILIBRIUM_RESIDUAL:
        raise QuadratureFailure(
            f"equilibrium mode did not converge: |K* psi - lambda psi| = {residual:.3g}"
        )
    nodal = sector.extend(psi)
    mass = w @ nodal
    if abs(mass) < 1e-13 * w.sum() * np.abs(nodal).max():
        raise QuadratureFailure("equilibrium density has numerically zero mass")
    return lam0, psi / mass


def _reflected_block(A: np.ndarray, h: np.ndarray, beta: float) -> np.ndarray:
    """Trailing (m-1)x(m-1) block of H A H for symmetric A and H = I - beta h h^T."""
    p = beta * (A @ h)
    q = p - (0.5 * beta * (h @ p)) * h
    return A[1:, 1:] - np.outer(h[1:], q[1:]) - np.outer(q[1:], h[1:])


def _sector_blocks(sectors: list, single_layer: BoundaryOperator,
                   np_adjoint: BoundaryOperator) -> list:
    """Each sector's blocks of -W S, made symmetric at sector size, and of K*, from their rows."""
    rows = single_layer.rows
    gram_rows = -(single_layer.cell.weights[:rows.shape[0], None] * rows)
    blocks = []
    for sector in sectors:
        G = sector.block(gram_rows)
        blocks.append((0.5 * (G + G.T), sector.block(np_adjoint.rows)))
    return blocks


# the largest triangle _triangular_inverse hands to numpy's general inverse
_TRIANGULAR_LEAF = 32


def _triangular_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 of a non-singular lower-triangular L, by halves.

    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]: the diagonal
    halves recursively, down to blocks of at most ``_TRIANGULAR_LEAF`` rows
    that numpy's ``inv`` takes, and the off-diagonal block by two products
    (Golub and Van Loan, Matrix Computations, section 8.7).  About 2 m^3 / 3
    flops in products, against about 2 m^3 for a general inverse.
    """
    m = L.shape[0]
    if m <= _TRIANGULAR_LEAF:
        return np.linalg.inv(L)
    k = m // 2
    inverse = np.zeros((m, m))
    A = inverse[:k, :k] = _triangular_inverse(L[:k, :k])
    D = inverse[k:, k:] = _triangular_inverse(L[k:, k:])
    np.negative(D @ (L[k:, :k] @ A), out=inverse[k:, :k])
    return inverse


def _definite_eigh(B: np.ndarray, G: np.ndarray, vectors: bool
                   ) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues of B x = lam G x and, if asked, x = L^-T y (module docstring).

    L^-1 of the Cholesky factor L of G is taken by halves
    (:func:`_triangular_inverse`).
    """
    try:
        inverse = _triangular_inverse(np.linalg.cholesky(G))
    except np.linalg.LinAlgError as exc:
        raise QuadratureFailure(
            "Gram matrix -W S is not positive definite on the zero-mean sector"
        ) from exc
    C = inverse @ B @ inverse.T
    try:
        if not vectors:
            return np.linalg.eigvalsh(C), None
        vals, y = np.linalg.eigh(C)
    except np.linalg.LinAlgError as exc:
        raise QuadratureFailure("sector eigensolve did not converge") from exc
    return vals, inverse.T @ y


def _solve_sector(sector: _Sector, G: np.ndarray, K_sector: np.ndarray, w: np.ndarray,
                  vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The sector's zero-mean eigenvalues in descending order and, if asked, their eigenvectors.

    The eigenvectors are in sector coordinates, in the same order, with the
    signs that :func:`_fix_signs` gives their nodal densities; without them
    only the eigenvalues are computed.
    """
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
    vals, vecs = _definite_eigh(B, G, vectors)
    if not vectors:
        return vals[::-1], None  # ascending
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    if sector.holds_constant:
        reflected = np.zeros((h.size, vecs.shape[1]))
        reflected[1:] = vecs
        reflected -= np.outer(beta * h, h[1:] @ vecs)
        vecs = reflected
    return vals, _fix_signs(vecs, sector.at_representatives(vecs))


def eigendecompose(single_layer: BoundaryOperator, np_adjoint: BoundaryOperator
                   ) -> SpectralDecomposition:
    """Diagonalise K* in the -S inner product on the zero-mean sector.

    Each sector of the mirror group the operators carry (the whole space
    when they carry none) is solved on its own, from blocks gathered from
    the operators' rows; the eigenvalues are merged in descending order.
    On mirrored cells the moments of a normal component on a sector its
    moment vector misses are exactly 0: with one mirror parallel to the
    grating the nu2 moments of the even modes and the nu1 moments of the odd
    ones, the other way round when it is normal to it.  A sector that
    neither moment vector reaches is solved for its eigenvalues only; its
    densities wait for the first read of ``eigendensities``.

    Raises :class:`DomainError` if the operators differ in cell or group,
    and :class:`QuadratureFailure` if the Gram matrix is not positive
    definite or the equilibrium mode cannot be resolved, either of which
    indicates a broken discretisation.
    """
    cell, other = single_layer.cell, np_adjoint.cell
    if cell is not other and not all(np.array_equal(getattr(cell, name), getattr(other, name))
                                     for name in ("period_ratio", "nodes", "normals", "weights")):
        raise DomainError("operators were assembled from different cells")
    if single_layer.mirrors != np_adjoint.mirrors:
        raise DomainError("operators carry different mirror groups")

    w = cell.weights
    sectors = _sectors(w.size, single_layer.mirrors)
    blocks = _sector_blocks(sectors, single_layer, np_adjoint)
    # Q^T G nu_l = G_s Q^T nu_l, per normal component and sector
    moment_vectors = [[G @ sector.restrict(cell.normals[:, l])
                       for sector, (G, _) in zip(sectors, blocks)] for l in (0, 1)]
    reached = [_reached(vectors) for vectors in moment_vectors]
    values, vectors = zip(*(_solve_sector(sector, *block, w, reach1 or reach2)
                            for sector, block, reach1, reach2 in zip(sectors, blocks, *reached)))
    # a stable merge of the descending sector spectra
    order = np.argsort(-np.concatenate(values), kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(1, order.size + 1)
    columns = np.split(column, np.cumsum([vals.size for vals in values])[:-1])
    lam0, psi0 = _equilibrium_mode(blocks[0][1], sectors[0], w)
    eigenvalues = np.concatenate([[lam0], np.concatenate(values)[order]])
    records = tuple(zip(sectors, columns, vectors))
    # from the sector vectors, <Q v, G nu_l> = v . Q^T G nu_l, on the reached sectors only
    moments = [np.zeros(w.size), np.zeros(w.size)]
    for l in (0, 1):
        if reached[l][0]:
            moments[l][0] = psi0 @ moment_vectors[l][0]
        for (_, cols, vecs), vector, reach in zip(records, moment_vectors[l], reached[l]):
            if reach:
                moments[l][cols] = vecs.T @ vector
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        moments_nu1=moments[0],
        moments_nu2=moments[1],
        equilibrium_density=sectors[0].extend(psi0),
        _operators=(single_layer, np_adjoint),
        _sectors=records,
    )


def decompose(cell: CellGeometry) -> SpectralDecomposition:
    """Assemble S and K* on the cell and diagonalise K*: the pipeline's one entry.

    A cell whose working set exceeds the byte budget is refused before
    assembly (see :func:`check_working_set`).
    """
    check_working_set(cell.node_count)
    return eigendecompose(assemble_single_layer(cell), assemble_np_adjoint(cell))


# float64 arrays live at once: n x n ones in a decomposition (tracemalloc peaks
# at n = 256 and 512: 9.1 without a mirror, 3.7 with one, 2.4 with both; 9.1,
# 5.5, 4.8 with validate's reads, which leave 5.0, 4.5 and 4.2 held) and
# samples x (n - 1) ones in a full mode sum over a batch of contrasts (2.1
# measured at 400 and 4000 samples, n = 256); and the most bytes a run may ask
# for
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
        raise DomainError(
            f"real contrast {lam.real} coincides with eigenvalue index {j} "
            f"(lambda_{j} = {decomposition.eigenvalues[j]})"
        )


def _row_sums(nodes: np.ndarray, weights: np.ndarray, lams) -> np.ndarray:
    """sum_i weights_i / (lam - nodes_i) for each lam, for real nodes and weights.

    With d = Re lam - nodes, b = Im lam and q = weights / (d^2 + b^2) the sum
    is sum d q - i b sum q: real arithmetic and two row sums per lam, no
    complex division, in two (lam x node) buffers.  Row sums, not a matrix
    product, keep each lam's value independent of the others in the batch.
    """
    lam = np.asarray(lams, dtype=complex)
    b = lam.imag
    d = lam.real[:, None] - nodes
    q = d * d
    q += (b**2)[:, None]
    np.divide(weights, q, out=q)
    total = q.sum(axis=1)
    d *= q
    return d.sum(axis=1) - 1j * b * total


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
    return BoundaryLayerLimits(alpha1_plus=a1, alpha2_plus=a2)


def alpha2_plus_batch(decomposition: SpectralDecomposition, lams: np.ndarray) -> np.ndarray:
    """Vectorised alpha2_plus over a 1-D array of (complex) contrasts.

    Input that is not 1-D is a :class:`DomainError`.  A zero-mean eigenvalue
    at or above 1/2 has no positive nu2 coupling weight; only an unresolved
    discretisation produces one, and it is reported as a
    :class:`QuadratureFailure` naming the mode.  Both checks run on every
    call.  The last batch is kept on the decomposition, keyed by the
    contrasts' bytes, and returned read-only: the capsules of one grating
    at one wavelength grid share it.
    """
    lams = np.asarray(lams, dtype=complex)
    if lams.ndim != 1:
        raise DomainError(f"contrasts must be a 1-D array, got shape {lams.shape}")
    eigenvalues = decomposition.eigenvalues
    above = np.flatnonzero(eigenvalues[1:] >= 0.5)
    if above.size:
        j = 1 + int(above[0])
        raise QuadratureFailure(
            f"zero-mean eigenvalue lambda_{j} = {eigenvalues[j]:.6g} is not below 1/2, "
            "so its nu2 coupling weight is not positive: the discretisation does not resolve the cell"
        )
    key = lams.tobytes()
    kept = decomposition.__dict__.get("_alpha2_plus")
    if kept is not None and kept[0] == key:
        return kept[1]
    batch = _mode_sums(decomposition, lams, decomposition.moments_nu2)
    batch.setflags(write=False)
    decomposition.__dict__["_alpha2_plus"] = (key, batch)  # as cached_property keeps its values
    return batch


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
        raise DomainError(f"resolvent system singular at contrast {lam}") from exc


def alpha_field(decomposition: SpectralDecomposition, lam: complex, component: int,
                xi) -> complex | np.ndarray:
    """Corrector field alpha^(component) at off-surface points xi.

    Solves the resolvent system for the density once and evaluates the
    off-surface single layer; component is 1 or 2 for the two normal
    directions.  ``xi`` is one point (shape (2,)), which gives one complex
    value, or an (m, 2) array of points, which gives m values.
    """
    if component not in (1, 2):
        raise DomainError("component must be 1 or 2")
    cell = decomposition.cell
    psi = resolvent_density(decomposition, lam, cell.normals[:, component - 1])
    return evaluate_single_layer_off_surface(cell, psi, xi)
