"""Nystroem discretisation of the periodic layer potentials.

The single layer S, the Neumann-Poincare operator K* (normal derivative of S
in the target point) and its arclength adjoint K are assembled as dense
matrices acting on nodal densities.

The kernel is the Green's function of the Laplacian with unit sources at
(n*L, 0), n integer:

    G(xi) = (1/4pi) * ln[ sinh^2(pi*xi2/L) + sin^2(pi*xi1/L) ],

L-periodic in xi1, like (1/2pi)*ln|xi| + (1/2pi)*ln(pi/L) near the origin,
and within exp(-2pi|xi2|/L) of |xi2|/(2L) - ln(2)/(2pi) at large |xi2|.

Quadrature follows the classical kernel-splitting scheme for analytic curves:
the Green's function is written as

    G = (1/4pi)*ln(4 sin^2((t-s)/2))  +  smooth part,

the canonical log factor is integrated with the spectrally accurate
trigonometric product rule on the uniform parameter grid, and the smooth part
with the plain trapezoidal rule.  The K* kernel is smooth on an analytic
curve; its coincidence limit is the classical curvature term kappa/(4pi).

Both kernels are evaluated in real arithmetic from u + iv = pi*(x_i - x_j)/L,
once per unordered node pair, in one pass: ``assemble_single_layer`` builds K*
alongside S and leaves it on the cell object for the next
``assemble_np_adjoint`` call on that cell, which takes it; a cell without one
runs that same pass, so K* has one assembly path.  The free-space split cancels exactly:

* S, off the diagonal: ln|delta|^2 of the free-space factor cancels the one
  in the lattice remainder R, so the smooth part is
  ln((sin^2 u + sinh^2 v) / (4 sin^2((t_i - t_j)/2))) / (4pi), symmetric in i, j;
* K*, off the diagonal: the free-space gradient Re(conj(nu) delta)/(2pi|delta|^2)
  cancels the 1/w of cot(w) - 1/w, so the entry is the lattice gradient
  (nu1_i sin u cos u + nu2_i sinh v cosh v) / (2L (sin^2 u + sinh^2 v));
  the (j, i) entry has nu_j and the opposite sign, both terms being odd.

Beyond |v| = 30 the lattice terms have reached their far field to within
exp(-60), and v is clipped there so that sinh^2 v cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationDistanceError
from .geometry import CellGeometry

# beyond this |pi*xi2/L| the sinh^2 term dwarfs everything representable
_FAR_FIELD_GUARD = 30.0

_LN2_OVER_2PI = np.log(2.0) / (2.0 * np.pi)


def value_from_delta(delta: np.ndarray, period_ratio: float) -> np.ndarray:
    """G evaluated at complex separations delta = dxi1 + i*dxi2 (vectorised)."""
    delta = np.asarray(delta, dtype=complex)
    u = np.pi * delta.real / period_ratio
    v = np.pi * delta.imag / period_ratio
    out = np.empty(delta.shape, dtype=float)
    far = np.abs(v) > _FAR_FIELD_GUARD
    near = ~far
    s2 = np.sin(u[near]) ** 2 + np.sinh(v[near]) ** 2
    with np.errstate(divide="ignore"):
        out[near] = np.log(s2) / (4.0 * np.pi)
    out[far] = np.abs(delta.imag[far]) / (2.0 * period_ratio) - _LN2_OVER_2PI
    return out


@dataclass(frozen=True)
class BoundaryOperator:
    """Dense boundary operator on the nodal densities of a cell (read-only matrix)."""

    matrix: np.ndarray
    cell: CellGeometry

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def log_quadrature_matrix(n: int) -> np.ndarray:
    """Circulant rule for (1/2pi) * Int ln(4 sin^2((t-s)/2)) f(s) ds on n uniform nodes.

    Exact for trigonometric polynomials up to the grid's Nyquist frequency; the
    symbol of the continuous operator is -1/|m| on exp(i*m*t) and 0 on constants.
    """
    if n % 2 != 0:
        raise DomainError("log quadrature requires an even node count")
    symbol = np.zeros(n // 2 + 1)
    symbol[1:-1] = -1.0 / np.arange(1, n // 2)
    symbol[-1] = -2.0 / n
    row = np.fft.irfft(symbol, n)
    # entry (i, j) is row[(i - j) mod n]: window n - 1 - i of the reversed row
    # taken twice, copied from a strided view rather than gathered by index
    rev = row[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([rev, rev[:-1]]), n)
    return windows[::-1].copy()


def _upper_pairs(cell: CellGeometry):
    """Node pairs i < j and u + iv = pi*(z_i - z_j)/L, v clipped at the far-field guard.

    Also returns how far |v| exceeds the guard (0 inside it).
    """
    i, j = np.triu_indices(cell.node_count, 1)
    scale = np.pi / cell.period_ratio
    x, y = cell.nodes[:, 0], cell.nodes[:, 1]
    u = (x[i] - x[j]) * scale
    v = (y[i] - y[j]) * scale
    excess = np.maximum(np.abs(v) - _FAR_FIELD_GUARD, 0.0)
    return i, j, u, np.clip(v, -_FAR_FIELD_GUARD, _FAR_FIELD_GUARD), excess


# instance attribute under which a cell holds the K* built with its S until
# assemble_np_adjoint takes it (not a field: dataclasses.replace drops it)
_PENDING_ADJOINT = "_pending_np_adjoint"


def assemble_single_layer(cell: CellGeometry) -> BoundaryOperator:
    """Matrix of the periodic single-layer potential on the cell's nodes.

    The same pass over the node pairs also builds K*, which waits on the cell
    object for the next :func:`assemble_np_adjoint` call on it.
    """
    n = cell.node_count
    s = cell.speeds
    nu = cell.normals
    i, j, u, v, excess = _upper_pairs(cell)
    sin_u, sinh_v = np.sin(u), np.sinh(v)
    s2 = sin_u**2 + sinh_v**2

    # K*: grad G = (sin u cos u, sinh v cosh v) / (2L (sin^2 u + sinh^2 v)), odd
    # in the pair, so entry (j, i) has nu_j and the opposite sign
    den = 2.0 * cell.period_ratio * s2
    g1 = sin_u * np.cos(u)
    g1 /= den
    g2 = sinh_v * np.cosh(v)
    g2 /= den
    # pair arrays go as soon as they are used, and the scalings below run in
    # place, so building both matrices peaks lower than S alone did
    del u, v, sin_u, sinh_v, den

    # smooth part G - (1/4pi) ln(4 sin^2((t_i - t_j)/2)); t_j - t_i = 2pi (j - i)/n,
    # and beyond the guard G keeps growing like |v|/(2pi)
    canonical = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
    pair = np.log(s2 / canonical[j - i]) / (4.0 * np.pi)
    pair += excess / (2.0 * np.pi)
    del s2, excess
    adjoint = np.empty((n, n))
    adjoint[i, j] = nu[i, 0] * g1 + nu[i, 1] * g2
    adjoint[j, i] = -(nu[j, 0] * g1 + nu[j, 1] * g2)
    del g1, g2
    np.fill_diagonal(adjoint, cell.curvatures / (4.0 * np.pi))
    adjoint *= 2.0 * np.pi / n
    adjoint *= s[None, :]
    smooth = np.empty((n, n))
    smooth[i, j] = pair
    smooth[j, i] = pair
    del i, j, pair
    np.fill_diagonal(smooth, np.log(s**2) / (4.0 * np.pi)
                     + np.log(np.pi / cell.period_ratio) / (2.0 * np.pi))

    # (0.5 Q + (2pi/n) smooth) * s
    matrix = log_quadrature_matrix(n)
    matrix *= 0.5
    smooth *= 2.0 * np.pi / n
    matrix += smooth
    matrix *= s[None, :]
    cell.__dict__[_PENDING_ADJOINT] = adjoint
    return BoundaryOperator(matrix=matrix, cell=cell)


def assemble_np_adjoint(cell: CellGeometry) -> BoundaryOperator:
    """Matrix of K*, the periodic Neumann-Poincare operator.

    Takes the matrix that :func:`assemble_single_layer` left on this cell
    object, so the cell keeps no copy; without one, runs that pass first.
    """
    if _PENDING_ADJOINT not in cell.__dict__:
        assemble_single_layer(cell)
    return BoundaryOperator(matrix=cell.__dict__.pop(_PENDING_ADJOINT), cell=cell)


def assemble_np(np_adjoint: BoundaryOperator) -> BoundaryOperator:
    """K as the weighted transpose of K*, exact in the discrete arclength pairing."""
    w = np_adjoint.cell.weights
    matrix = np_adjoint.matrix.T * (w[None, :] / w[:, None])
    return BoundaryOperator(matrix=matrix, cell=np_adjoint.cell)


def _upsampled(cell: CellGeometry, density: np.ndarray, factor: int):
    """Trigonometric upsampling of nodes, weights and density (exact for resolved data)."""
    if factor <= 1:
        return cell.nodes_complex, cell.weights, np.asarray(density)
    m = factor * cell.node_count
    z = cell.parametrization.sample(m)
    dz = cell.parametrization.sample(m, order=1)
    weights = np.abs(dz) * (2.0 * np.pi / m)
    density = np.asarray(density)
    # zero-pad the spectrum; the Nyquist bin of the (even) node count is split
    # evenly between frequencies +n/2 and -n/2 of the fine grid
    half = cell.node_count // 2
    coeffs = np.fft.fft(density) * factor
    padded = np.zeros(m, dtype=complex)
    padded[:half] = coeffs[:half]
    padded[m - half + 1:] = coeffs[half + 1:]
    padded[half] = padded[m - half] = 0.5 * coeffs[half]
    dens = np.fft.ifft(padded)
    return z, weights, dens if np.iscomplexobj(density) else dens.real


def evaluate_single_layer_off_surface(cell: CellGeometry, density: np.ndarray, xi,
                                      upsample: int = 4):
    """Plain quadrature of G against the density at points off the boundary.

    ``xi`` is one point (shape (2,)), which gives one value, or a sequence of
    points (shape (m, 2)), which gives an array of m values from one
    upsampling of the curve and density.  The kernel is smooth off-surface,
    so accuracy is set by the distance to the boundary relative to the
    (upsampled) node spacing; points closer than one effective node spacing
    are rejected.
    """
    points = np.asarray(xi, dtype=float)
    z, weights, dens = _upsampled(cell, density, upsample)
    spacing = weights.max()
    values = []
    for x in points.reshape(-1, 2):
        delta = (x[0] + 1j * x[1]) - z
        if np.abs(delta).min() < spacing:
            raise EvaluationDistanceError(
                f"evaluation point within one node spacing ({spacing:.3g}) of the boundary"
            )
        kern = value_from_delta(delta, cell.period_ratio)
        values.append((weights * kern * dens).sum())
    return values[0] if points.ndim == 1 else np.array(values)
