"""Nystroem discretisation of the periodic layer potentials.

The single layer S, the Neumann-Poincare operator K* (normal derivative of S
in the target point), its arclength adjoint K and the double layer D are
assembled as dense matrices acting on nodal densities.

Quadrature follows the classical kernel-splitting scheme for analytic curves:
the Green's function is written as

    G = (1/4pi)*ln(4 sin^2((t-s)/2))  +  smooth part,

the canonical log factor is integrated with the spectrally accurate
trigonometric product rule on the uniform parameter grid, and the smooth part
(which includes the lattice remainder R) with the plain trapezoidal rule.
The K* and D kernels are smooth on an analytic curve; their coincidence limit
is the classical curvature term kappa/(4pi) plus the remainder gradient, which
vanishes at zero separation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDistanceError
from .geometry import CellGeometry
from .periodic_green import (
    _cot_minus_inverse,
    remainder_from_delta,
    value_from_delta,
)

VALID_TAGS = ("single_layer", "np_adjoint", "np", "double_layer")


@dataclass(frozen=True)
class BoundaryOperator:
    """Dense boundary operator on nodal densities, with its quadrature weights."""

    matrix: np.ndarray
    weights: np.ndarray
    tag: str
    cell: CellGeometry

    def __post_init__(self):
        if self.tag not in VALID_TAGS:
            raise ValueError(f"unknown operator tag {self.tag!r}")
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, density: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(density)


def log_quadrature_matrix(n: int) -> np.ndarray:
    """Circulant rule for (1/2pi) * Int ln(4 sin^2((t-s)/2)) f(s) ds on n uniform nodes.

    Exact for trigonometric polynomials up to the grid's Nyquist frequency; the
    symbol of the continuous operator is -1/|m| on exp(i*m*t) and 0 on constants.
    """
    if n % 2 != 0:
        raise ValueError("log quadrature requires an even node count")
    symbol = np.zeros(n // 2 + 1)
    symbol[1:-1] = -1.0 / np.arange(1, n // 2)
    symbol[-1] = -2.0 / n
    row = np.fft.irfft(symbol, n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return row[idx]


def _pairwise_delta(cell: CellGeometry) -> np.ndarray:
    z = cell.nodes_complex
    return z[:, None] - z[None, :]


def assemble_single_layer(cell: CellGeometry) -> BoundaryOperator:
    """Matrix of the periodic single-layer potential on the cell's nodes."""
    n = cell.node_count
    L = cell.period_ratio
    t = cell.t
    s = cell.speeds
    delta = _pairwise_delta(cell)

    # smooth factor between the free-space log and the canonical log
    dt = t[:, None] - t[None, :]
    sin2 = 4.0 * np.sin(dt / 2.0) ** 2
    ratio = np.abs(delta) ** 2
    np.fill_diagonal(ratio, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = ratio / sin2
    np.fill_diagonal(ratio, s**2)
    smooth = np.log(ratio) / (4.0 * np.pi) + remainder_from_delta(delta, L)

    matrix = (0.5 * log_quadrature_matrix(n) + (2.0 * np.pi / n) * smooth) * s[None, :]
    return BoundaryOperator(matrix=matrix, weights=cell.weights, tag="single_layer", cell=cell)


def _np_adjoint_kernel(cell: CellGeometry) -> np.ndarray:
    """Kernel nu(x_i) . grad_x G(x_i - x_j), with its diagonal limit filled in."""
    L = cell.period_ratio
    delta = _pairwise_delta(cell)
    nu = cell.normals_complex

    dist2 = np.abs(delta) ** 2
    np.fill_diagonal(dist2, 1.0)
    free = np.real(np.conj(nu)[:, None] * delta) / (2.0 * np.pi * dist2)
    np.fill_diagonal(free, cell.curvatures / (4.0 * np.pi))

    rem_grad = _cot_minus_inverse(np.pi * delta / L) / (2.0 * L)
    # nu . grad(Re f) = Re(nu_c * f') for holomorphic f with nu_c = nu1 + i*nu2
    rem = np.real(nu[:, None] * rem_grad)
    return free + rem


def assemble_np_adjoint(cell: CellGeometry) -> BoundaryOperator:
    """Matrix of K*, the periodic Neumann-Poincare operator."""
    n = cell.node_count
    matrix = (2.0 * np.pi / n) * _np_adjoint_kernel(cell) * cell.speeds[None, :]
    return BoundaryOperator(matrix=matrix, weights=cell.weights, tag="np_adjoint", cell=cell)


def assemble_np(np_adjoint: BoundaryOperator) -> BoundaryOperator:
    """K as the weighted transpose of K*, exact in the discrete arclength pairing."""
    w = np_adjoint.weights
    matrix = np_adjoint.matrix.T * (w[None, :] / w[:, None])
    return BoundaryOperator(matrix=matrix, weights=w, tag="np", cell=np_adjoint.cell)


def assemble_double_layer(cell: CellGeometry) -> BoundaryOperator:
    """On-surface double layer in the principal-value sense (independent quadrature)."""
    n = cell.node_count
    L = cell.period_ratio
    delta = _pairwise_delta(cell)
    nu = cell.normals_complex

    dist2 = np.abs(delta) ** 2
    np.fill_diagonal(dist2, 1.0)
    free = np.real(np.conj(nu)[None, :] * (-delta)) / (2.0 * np.pi * dist2)
    np.fill_diagonal(free, cell.curvatures / (4.0 * np.pi))

    rem_grad = _cot_minus_inverse(np.pi * delta / L) / (2.0 * L)
    rem = -np.real(nu[None, :] * rem_grad)

    matrix = (2.0 * np.pi / n) * (free + rem) * cell.speeds[None, :]
    return BoundaryOperator(matrix=matrix, weights=cell.weights, tag="double_layer", cell=cell)


def _upsampled(cell: CellGeometry, density: np.ndarray, factor: int):
    """Trigonometric upsampling of nodes, weights and density (exact for resolved data)."""
    if factor <= 1:
        return cell.nodes_complex, cell.weights, np.asarray(density)
    m = factor * cell.node_count
    tf = 2.0 * np.pi * np.arange(m) / m
    z = cell.parametrization.evaluate(tf)
    dz = cell.parametrization.evaluate(tf, order=1)
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
    """Plain quadrature of G against the density at a point off the boundary.

    The kernel is smooth off-surface, so accuracy is set by the distance to the
    boundary relative to the (upsampled) node spacing; points closer than one
    effective node spacing are rejected.
    """
    xi = np.asarray(xi, dtype=float)
    z, weights, dens = _upsampled(cell, density, upsample)
    point = xi[0] + 1j * xi[1]
    delta = point - z
    spacing = weights.max()
    if np.abs(delta).min() < spacing:
        raise EvaluationDistanceError(
            f"evaluation point within one node spacing ({spacing:.3g}) of the boundary"
        )
    kern = value_from_delta(delta, cell.period_ratio)
    return (weights * kern * dens).sum()
