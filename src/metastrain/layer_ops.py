"""Nystroem discretisation of the periodic layer potentials.

The single layer S and the Neumann-Poincare operator K* (normal derivative
of S in the target point) are assembled as dense matrices acting on nodal
densities; the arclength adjoint K is the weighted transpose W^-1 K*^T W.

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

sin^2 u and sin u cos u are taken from one tangent t = tan u, as
t^2 / (1 + t^2) and t / (1 + t^2): numpy runs float64 sin and cos as scalar
loops and tan as a vector one, and the identity costs at most 4 ulp.
Beyond |v| = 30 the lattice terms have reached their far field to within
exp(-60), and v is clipped there so that sinh^2 v cannot overflow.

On node data symmetric under the mirror j -> -j (and j -> n/2 - j, n a
multiple of 4), certified from those data, S and K* commute with the node
mirrors, carry that group, and are evaluated only on the rows of the orbit
representatives 0 .. n/2 (0 .. n/4): their pairs as a triangle, the pairs
from them to the other nodes as one broadcast block.  The operators keep
those rows; the other rows are copied from them as slices on the first read
of the n x n ``matrix``.  Without a mirror every node is a representative:
one triangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError
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
    """Dense boundary operator on a cell's nodal densities, kept as its representatives' rows.

    ``rows``: all n without a mirror, 0 .. n/2 with one, 0 .. n/4 with two;
    ``mirrors``, the lattice mirrors it commutes with, is read off their
    count.  The n x n ``matrix`` is expanded from them on first read, and
    ``rows`` then becomes a view of its first rows; both are read-only.
    """

    rows: np.ndarray
    cell: CellGeometry
    mirrors: int = field(init=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        n = self.cell.node_count
        counts = [_representatives(n, mirrors) for mirrors in range(3 if n % 4 == 0 else 2)]
        if rows.ndim != 2 or rows.shape[1] != n or rows.shape[0] not in counts:
            raise DomainError(f"operator rows of shape {rows.shape} do not fit {n} nodes: a "
                              f"lattice mirror group keeps {' or '.join(map(str, counts))} rows")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "mirrors", counts.index(rows.shape[0]))

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = _mirrored(self.rows, self.mirrors)
        matrix.setflags(write=False)
        object.__setattr__(self, "rows", matrix[:self.rows.shape[0]])
        return matrix


def _representatives(n: int, mirrors: int) -> int:
    """How many orbit representatives (nodes 0 .. r-1) n nodes have under that many mirrors."""
    return (n, n // 2 + 1, n // 4 + 1)[mirrors]


def log_quadrature_matrix(n: int, rows: int | None = None) -> np.ndarray:
    """Circulant rule for (1/2pi) * Int ln(4 sin^2((t-s)/2)) f(s) ds on n uniform nodes.

    Exact for trigonometric polynomials up to the grid's Nyquist frequency; the
    symbol of the continuous operator is -1/|m| on exp(i*m*t) and 0 on constants.
    ``rows`` keeps only the first rows of the matrix.
    """
    if n % 2 != 0:
        raise DomainError("log quadrature requires an even node count")
    # entry (i, j) is row[(i - j) mod n]: window n - 1 - i of the reversed row
    # taken twice, copied from a strided view rather than gathered by index
    windows = np.lib.stride_tricks.sliding_window_view(_reversed_row_twice(n), n)
    return windows[::-1][:rows].copy()


@lru_cache(maxsize=8)
def _reversed_row_twice(n: int) -> np.ndarray:
    """The circulant's reversed first row followed by all but its last entry, once per n."""
    symbol = np.zeros(n // 2 + 1)
    symbol[1:-1] = -1.0 / np.arange(1, n // 2)
    symbol[-1] = -2.0 / n
    rev = np.fft.irfft(symbol, n)[::-1]
    twice = np.concatenate([rev, rev[:-1]])
    twice.setflags(write=False)
    return twice


def _mirror_tolerance(n: int) -> float:
    """Relative mirror defect up to which a cell of n nodes is treated as mirrored.

    On mirrored disks, ellipses and Fourier curves and their normal
    perturbations the defect of K* stays below about 0.15 eps * n^2 (0.18
    once in 400 perturbed bench curves; its near-diagonal entries cancel to
    that level) and that of the Gram matrix below 1e-14; an asymmetric
    cell's is 1e-2 or more.  A cell asymmetric by
    less than this (1.5e-11 at n = 256, 5.8e-11 at n = 1024) is treated as
    mirrored: its cross-sector couplings of that relative size are dropped.
    """
    return 0.25 * np.finfo(float).eps * n * n


def _node_defect(cell: CellGeometry, image: np.ndarray) -> float:
    """First-order bound on the relative defect of S and K* under the node map ``image``.

    The map is read as the mirror flipping xi2 or xi1, whichever the normals
    follow.  Speeds scale columns, so their relative defect counts as it is,
    and the K* diagonal kappa w / 4pi is at most max |K*|.  An entry off it,
    w_k nu_i . grad G(x_i - x_k), moves with nu_i and with the relative defect
    of the offset x_i - x_k, both weighted by 2 w_k / (|x_i - x_k| max |kappa w|)
    >= w_k |grad G| / max |K*|: largest on neighbouring nodes, so each
    neighbour pair's own weight multiplies its offset defect and its nodes'
    larger normal defect.  Over the tolerance it reads 0.06-0.41 on disks and
    ellipses, 0.18-1.44 on bench-range Fourier curves and their normal
    perturbations, 2e12 or more on asymmetric curves.
    """
    z, nu, w = cell.nodes_complex, cell.normals_complex, cell.weights
    kw = cell.curvatures * w
    flip = min((1.0, -1.0), key=lambda f: np.abs(nu[image] - f * nu.conj()).max())
    gap = z[image] - flip * z.conj()
    normal = np.abs(nu[image] - flip * nu.conj())
    # neighbour pair (k, k + 1)
    step = np.abs(np.roll(z, -1) - z)
    weight = 2.0 * np.maximum(w, np.roll(w, -1)) / (step * np.abs(kw).max())
    offset = np.abs(np.roll(gap, -1) - gap) / step
    pairs = weight * (offset + np.maximum(normal, np.roll(normal, -1)))
    return float(np.abs(w[image] / w - 1.0).max()
                 + max(np.abs(kw[image] - kw).max() / np.abs(kw).max(), pairs.max()))


# certificates of the most recent node data, keyed by the bytes _node_defect reads
_CERTIFICATES: dict[bytes, int] = {}
_CERTIFICATES_KEPT = 8


def _mirror_count(cell: CellGeometry) -> int:
    """How many lattice mirrors the node data certify: 0, 1 (j -> -j) or 2 (j -> n/2 - j too).

    A mirror is certified when the bound of :func:`_node_defect` is within
    :func:`_mirror_tolerance`; the second only when n is a multiple of 4.
    The count is kept per node data, so cells of one curve at other periods
    share it.
    """
    key = b"".join(getattr(cell, name).tobytes()
                   for name in ("nodes", "normals", "curvatures", "weights"))
    mirrors = _CERTIFICATES.get(key)
    if mirrors is None:
        n = cell.node_count
        j = np.arange(n)
        tolerance = _mirror_tolerance(n)
        mirrors = 0
        if _node_defect(cell, -j % n) <= tolerance:
            mirrors = 1 if n % 4 or not _node_defect(cell, (n // 2 - j) % n) <= tolerance else 2
        if len(_CERTIFICATES) >= _CERTIFICATES_KEPT:
            del _CERTIFICATES[next(iter(_CERTIFICATES))]  # the oldest
        _CERTIFICATES[key] = mirrors
    return mirrors


def _tangent_factors(u):
    """sin^2 u and sin u cos u from one tangent t = tan u, as t^2 / (1 + t^2) and t / (1 + t^2).

    An identity wherever tan u is finite, which it is at every double; for
    |u| < pi within 4 ulp of the exact values (against 120-bit mpmath, 0,
    +-pi/2 and |u| -> pi included), where products of sin and cos are within
    2.  numpy runs float64 sin and cos as scalar loops several times slower
    than tan.  u is overwritten: t and then sin u cos u go into its buffer.
    """
    t = np.tan(u, out=u)
    sin2 = t * t
    den = sin2 + 1.0
    sin2 /= den
    t /= den
    return sin2, t


def _pair_kernels(u, v, lag, period_ratio):
    """S's smooth part and the two K* gradient components at pair offsets u + iv.

    ``lag()`` gives 4 sin^2((t_i - t_j)/2) of the same pairs; it is called
    once the other pair arrays are gone.  v is clipped at the far-field
    guard, beyond which G keeps growing like |v|/(2pi).  sin^2 u and
    sin u cos u come from tan u (:func:`_tangent_factors`).  u and v are
    overwritten: the first gradient component goes into u's buffer and
    cosh v into v's, and the other kernels into the buffers of sin^2 u and
    sinh v.
    """
    excess = np.abs(v)
    excess -= _FAR_FIELD_GUARD
    np.maximum(excess, 0.0, out=excess)
    np.clip(v, -_FAR_FIELD_GUARD, _FAR_FIELD_GUARD, out=v)
    s2, g1 = _tangent_factors(u)
    g2 = np.sinh(v)
    den = g2 * g2
    s2 += den
    # grad G = (sin u cos u, sinh v cosh v) / (2L (sin^2 u + sinh^2 v)), odd in the pair
    np.multiply(2.0 * period_ratio, s2, out=den)
    g1 /= den
    g2 *= np.cosh(v, out=v)
    g2 /= den
    del u, v, den
    s2 /= lag()
    pair = np.log(s2, out=s2)
    pair /= 4.0 * np.pi
    excess /= 2.0 * np.pi
    pair += excess
    return pair, g1, g2


def _mirrored(rows: np.ndarray, mirrors: int) -> np.ndarray:
    """The n x n matrix that commutes with the node mirrors and has these first rows.

    A[g(i), k] = A[i, g(k)]: rows n/4 + 1 .. n/2 by j -> n/2 - j from rows
    n/4 - 1 .. 0, then rows beyond n/2 by j -> -j from rows n/2 - 1 .. 1.
    """
    if not mirrors:
        return rows
    n = rows.shape[1]
    h, q = n // 2, n // 4
    A = np.empty((n, n))
    A[:rows.shape[0]] = rows
    if mirrors == 2:
        A[q + 1:h + 1, :h + 1] = A[q - 1::-1, h::-1]
        A[q + 1:h + 1, h + 1:] = A[q - 1::-1, :h:-1]
    A[h + 1:, 0] = A[h - 1:0:-1, 0]
    A[h + 1:, 1:] = A[h - 1:0:-1, :0:-1]
    return A


# instance attribute under which a cell holds the K* built with its S until
# assemble_np_adjoint takes it (not a field: dataclasses.replace drops it)
_PENDING_ADJOINT = "_pending_np_adjoint"


def assemble_single_layer(cell: CellGeometry) -> BoundaryOperator:
    """Matrix of the periodic single-layer potential on the cell's nodes.

    The same pass over the node pairs also builds K*, which waits on the cell
    object for the next :func:`assemble_np_adjoint` call on it.
    """
    n = cell.node_count
    L = cell.period_ratio
    s = cell.speeds
    nu = cell.normals
    mirrors = _mirror_count(cell)
    r = _representatives(n, mirrors)
    scale = np.pi / L
    x, y = cell.nodes[:, 0], cell.nodes[:, 1]
    canonical = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2

    # pairs i < j inside the representatives; entry (j, i) of K* has nu_j
    # and the opposite sign, both gradient terms being odd.  Each pair array
    # goes as soon as it is used, and the scalings below run in place
    i, j = np.triu_indices(r, 1)
    pair, g1, g2 = _pair_kernels((x[i] - x[j]) * scale, (y[i] - y[j]) * scale,
                                 lambda: canonical[j - i], L)
    adjoint = np.empty((r, n))
    adjoint[i, j] = nu[i, 0] * g1 + nu[i, 1] * g2
    adjoint[j, i] = -(nu[j, 0] * g1 + nu[j, 1] * g2)
    del g1, g2
    smooth = np.empty((r, n))
    smooth[i, j] = pair
    smooth[j, i] = pair
    del i, j, pair
    if r < n:
        # the representatives against every later node: one broadcast block
        lag = np.lib.stride_tricks.sliding_window_view(canonical, n - r)[r:0:-1]
        pair, g1, g2 = _pair_kernels((x[:r, None] - x[r:]) * scale,
                                     (y[:r, None] - y[r:]) * scale, lambda: lag, L)
        adjoint[:, r:] = nu[:r, :1] * g1 + nu[:r, 1:] * g2
        smooth[:, r:] = pair
        del pair, g1, g2
    np.fill_diagonal(adjoint, cell.curvatures[:r] / (4.0 * np.pi))
    adjoint *= 2.0 * np.pi / n
    adjoint *= s[None, :]
    np.fill_diagonal(smooth, (np.log(s**2) / (4.0 * np.pi)
                              + np.log(np.pi / L) / (2.0 * np.pi))[:r])

    # (0.5 Q + (2pi/n) smooth) * s
    matrix = log_quadrature_matrix(n, r)
    matrix *= 0.5
    smooth *= 2.0 * np.pi / n
    matrix += smooth
    del smooth
    matrix *= s[None, :]
    cell.__dict__[_PENDING_ADJOINT] = BoundaryOperator(adjoint, cell)
    return BoundaryOperator(matrix, cell)


def assemble_np_adjoint(cell: CellGeometry) -> BoundaryOperator:
    """Matrix of K*, the periodic Neumann-Poincare operator.

    Takes the operator that :func:`assemble_single_layer` left on this cell
    object, so the cell keeps no copy; without one, runs that pass first.
    """
    if _PENDING_ADJOINT not in cell.__dict__:
        assemble_single_layer(cell)
    return cell.__dict__.pop(_PENDING_ADJOINT)


def _upsampled(cell: CellGeometry, density: np.ndarray, factor: int):
    """Nodes, weights and density on a grid ``factor`` times finer.

    The nodes are sampled from the curve; the cell's weights and the density
    are interpolated trigonometrically (exact for resolved data), so a defect
    in the weights reaches the off-surface potential too.  The Nyquist bin
    of the (even) node count is split evenly between frequencies +n/2 and
    -n/2 of the fine grid.
    """
    density = np.asarray(density)
    if factor <= 1:
        return cell.nodes_complex, cell.weights, density
    n = cell.node_count
    m, half = factor * n, n // 2
    fine = []
    for values in (cell.weights, density):
        coeffs = np.fft.fft(values) * factor
        padded = np.zeros(m, dtype=complex)
        padded[:half] = coeffs[:half]
        padded[m - half + 1:] = coeffs[half + 1:]
        padded[half] = padded[m - half] = 0.5 * coeffs[half]
        fine.append(np.fft.ifft(padded))
    weights, dens = fine
    return (cell.parametrization.sample(m), weights.real / factor,
            dens if np.iscomplexobj(density) else dens.real)


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
            raise DomainError(
                f"evaluation point within one node spacing ({spacing:.3g}) of the boundary"
            )
        kern = value_from_delta(delta, cell.period_ratio)
        values.append((weights * kern * dens).sum())
    return values[0] if points.ndim == 1 else np.array(values)
