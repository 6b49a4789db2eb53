"""Discretised particle boundaries inside one period cell.

Curves are closed trigonometric polynomials z(t) = sum_k c_k exp(i k t) in the
complex plane z = xi1 + i*xi2, sampled on a uniform parameter grid.  Normals,
curvature and arclength weights come from exact differentiation of the series,
so every geometric quantity converges spectrally for analytic boundaries.

Orientation is normalised to counterclockwise; the outward normal is the
tangent rotated by -90 degrees.  The particle must stay strictly inside the
strip (-L/2, L/2) x R, where L is the cell width in rescaled coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GeometryError

MIN_NODE_COUNT = 16


def _frequencies(count: int) -> np.ndarray:
    return np.rint(np.fft.fftfreq(count) * count).astype(int)


@dataclass(frozen=True)
class TrigCurve:
    """Closed analytic curve given by complex Fourier coefficients in FFT order.

    ``coefficients[j]`` multiplies exp(i*k*t) with k following the numpy FFT
    frequency layout [0, 1, ..., -2, -1].  A disk of radius a is ``[0, a, 0]``;
    an ellipse with semi-axes (a, b) is ``[0, (a+b)/2, (a-b)/2]``.  For even
    lengths the Nyquist slot is orientation-ambiguous, so constructors here
    keep it empty.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise GeometryError("Fourier coefficients must form a non-empty 1-D sequence")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def _series(self, order: int):
        k = _frequencies(self.coefficients.size)
        return k, ((1j * k) ** order) * self.coefficients

    def evaluate(self, t, order: int = 0) -> np.ndarray:
        """Curve point (order 0) or t-derivative of given order at any t, as xi1 + i*xi2."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k, series = self._series(order)
        return np.exp(1j * t[:, None] * k[None, :]) @ series

    def sample(self, count: int, order: int = 0) -> np.ndarray:
        """``evaluate(2*pi*j/count, order)`` for j = 0, ..., count-1, by one inverse FFT.

        exp(i*k*t_j) depends only on k mod count, so folding the coefficients
        into those bins aliases them exactly, for any count.
        """
        k, series = self._series(order)
        bins = np.zeros(count, dtype=complex)
        np.add.at(bins, k % count, series)
        return np.fft.ifft(bins, norm="forward")

    def reversed(self) -> "TrigCurve":
        """Same geometric curve traversed in the opposite direction."""
        m = self.coefficients.size
        return TrigCurve(self.coefficients[(-np.arange(m)) % m])


@dataclass(frozen=True)
class CellGeometry:
    """Discretised particle boundary with all data needed by Nystroem quadrature."""

    period_ratio: float
    nodes: np.ndarray        # (n, 2)
    normals: np.ndarray      # (n, 2), outward unit normals
    curvatures: np.ndarray   # (n,), signed curvature
    weights: np.ndarray      # (n,), arclength quadrature weights
    parametrization: TrigCurve  # sampled at t_j = 2*pi*j/n, counterclockwise

    def __post_init__(self):
        for name in ("nodes", "normals", "curvatures", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def node_count(self) -> int:
        return self.weights.size

    @property
    def perimeter(self) -> float:
        return float(self.weights.sum())

    @property
    def nodes_complex(self) -> np.ndarray:
        return self.nodes[:, 0] + 1j * self.nodes[:, 1]

    @property
    def normals_complex(self) -> np.ndarray:
        return self.normals[:, 0] + 1j * self.normals[:, 1]

    @property
    def speeds(self) -> np.ndarray:
        """|dz/dt| at the nodes (weights divided by the parameter step)."""
        return self.weights * self.node_count / (2.0 * np.pi)


def _finite(value) -> bool:
    """Whether a real number is finite; a (JSON) integer beyond the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_node_count(node_count: int):
    if node_count < MIN_NODE_COUNT:
        raise GeometryError(f"node_count must be at least {MIN_NODE_COUNT}, got {node_count}")
    if node_count % 2 != 0:
        raise GeometryError(f"node_count must be even, got {node_count}")


def _segments_cross(points: np.ndarray) -> bool:
    """Proper-crossing test between all non-adjacent segments of a closed polyline.

    side[i, j] is the cross product e_i x (a_j - a_i) of segment i = a_i -> a_{i+1}
    with node j, as an outer product; segment j straddles the line of segment i
    when side[i, j] and side[i, j+1] have strictly opposite signs, and two
    segments cross when each straddles the other.
    """
    x, y = points.real, points.imag
    ex, ey = np.roll(x, -1) - x, np.roll(y, -1) - y
    side = np.outer(ex, y) - np.outer(ey, x) - (ex * y - ey * x)[:, None]
    straddle = side * np.roll(side, -1, axis=1) < 0.0
    crossing = straddle & straddle.T
    m = points.size
    idx = np.arange(m)
    for step in (-1, 0, 1):  # a segment and its neighbours share a node
        crossing[idx, (idx + step) % m] = False
    return bool(crossing.any())


def _windings(points: np.ndarray) -> float:
    """Turns of the closed polygon through ``points`` about the origin."""
    return float(np.angle(np.roll(points, -1) * np.conj(points)).sum() / (2.0 * np.pi))


def _star_shaped(points: np.ndarray) -> bool:
    """Whether a closed polyline is star-shaped about its vertex centroid.

    Every edge turning the same strict way about the centroid, once in all,
    sweeps each ray from it exactly once, so the polyline is simple: an O(m)
    certificate that spares the O(m^2) crossing test on most curves.
    """
    rel = points - points.mean()
    cross = np.imag(np.conj(rel) * np.roll(rel, -1))
    one_sign = bool(np.all(cross > 0.0) or np.all(cross < 0.0))
    return one_sign and round(abs(_windings(rel))) == 1


@lru_cache(maxsize=8)
def _node_data(coefficients: bytes, node_count: int) -> tuple[float, float, dict | str]:
    """What a curve's cells share at every period: its reach, its longest period and its nodes.

    The reach is max |xi1| on the fine grid, checked against the period per
    call; the longest period is the one beyond which (pi * node spacing /
    period)^2 is no normal float and the lattice kernels lose it.  The node
    data are the validated, counterclockwise curve with its node arrays,
    which its cells make read-only and share, or the message of the first
    check the curve fails after the strip check: area, turns, crossing.  A
    degenerate parametrization, or a curve whose products overflow or fall
    below the normal floats, is raised here, before the strip check.
    """
    curve = TrigCurve(np.frombuffer(coefficients, dtype=complex))
    fine = max(8 * curve.coefficients.size, 256)
    z = curve.sample(fine)
    dz = curve.sample(fine, order=1)
    speed = np.abs(dz)
    if speed.min() <= 1e-12 * speed.max():
        raise GeometryError("degenerate parametrization: |z'(t)| vanishes")
    # the area's conj(z) z', its threshold |z|^2 and the curvatures' |z'|^3 must
    # stay floats; the node grid's speeds exceed this grid's by a few per cent
    # at most, so the cube keeps a margin of 1.1
    size, fastest = float(np.abs(z).max()), float(speed.max())
    largest = float(np.finfo(float).max)
    if not (fastest < largest ** (1.0 / 3.0) / 1.1 and size < largest / max(size, fastest)):
        raise GeometryError(f"curve too large for double precision: |z| reaches {size:.6g} "
                            f"and |z'(t)| {fastest:.6g}")
    # the sector solves multiply the Gram matrix -W S, of order w^2, by the node
    # weights w = |z'(t)| 2 pi / n, and the curvatures divide by |z'|^3 > w^3:
    # the cube of the lightest weight must stay a normal float.  The node
    # grid's speeds fall below this grid's by a few per cent at most
    lightest = float(speed.min()) * 2.0 * np.pi / node_count
    if not lightest > 1.1 * float(np.finfo(float).tiny) ** (1.0 / 3.0):
        raise GeometryError(f"curve too small for double precision: |z| reaches {size:.6g} "
                            f"and the lightest of {node_count} node weights is {lightest:.6g}")
    reach = float(np.abs(z.real).max())
    area = 0.5 * (2.0 * np.pi / fine) * np.sum(np.imag(np.conj(z) * dz))
    if abs(area) < 1e-14 * size * size:
        return reach, np.inf, "degenerate curve: enclosed area is zero"
    # a simple closed curve's tangent turns exactly once (Hopf's Umlaufsatz);
    # a curve traversed twice has no proper crossing but turns twice
    turns = round(_windings(dz))
    if abs(turns) != 1:
        return reach, np.inf, f"curve is not simple: its tangent turns {turns} times, not once"
    polyline = z[:: max(1, fine // 512)]
    if not _star_shaped(polyline) and _segments_cross(polyline):
        return reach, np.inf, "curve is self-intersecting"
    if area < 0.0:
        curve = curve.reversed()
    z = curve.sample(node_count)
    dz = curve.sample(node_count, order=1)
    d2z = curve.sample(node_count, order=2)
    speed = np.abs(dz)
    normal = -1j * (dz / speed)
    spacing = np.abs(np.roll(z, -1) - z).min()
    return reach, np.pi * spacing / np.sqrt(np.finfo(float).tiny), dict(
        nodes=np.column_stack([z.real, z.imag]),
        normals=np.column_stack([normal.real, normal.imag]),
        curvatures=np.imag(np.conj(dz) * d2z) / speed**3,
        weights=speed * (2.0 * np.pi / node_count),
        parametrization=curve,
    )


def _discretize(curve: TrigCurve, period: float, node_count: int) -> CellGeometry:
    if not (_finite(period) and np.isfinite(curve.coefficients).all()):
        raise GeometryError(f"period and Fourier coefficients must be finite, got period {period}")
    reach, longest, data = _node_data(curve.coefficients.tobytes(), node_count)
    if reach >= period / 2.0:
        raise GeometryError(
            f"curve exits the period strip: |xi1| reaches {reach:.6g} with period {period:.6g}"
        )
    if isinstance(data, str):
        raise GeometryError(data)
    if period > longest:
        raise GeometryError(f"period {period:.6g} exceeds {longest:.6g}, beyond which "
                            "(pi * node spacing / period)^2 underflows in the lattice kernels")
    return CellGeometry(period_ratio=float(period), **data)


def make_disk_cell(radius: float, period: float, node_count: int) -> CellGeometry:
    """Disk of given radius centred at the cell origin.

    Rejects disks touching or overlapping their periodic copies (2*radius >= period).
    """
    _check_node_count(node_count)
    if radius <= 0.0:
        raise GeometryError(f"radius must be positive, got {radius}")
    if 2.0 * radius >= period:
        raise GeometryError(
            f"disk of radius {radius} overlaps its periodic copies at period {period}"
        )
    return _discretize(TrigCurve([0.0, radius, 0.0]), period, node_count)


def make_ellipse_cell(semi_axis_1: float, semi_axis_2: float, period: float,
                      node_count: int) -> CellGeometry:
    """Axis-aligned ellipse with semi-axes (semi_axis_1, semi_axis_2)."""
    _check_node_count(node_count)
    a, b = float(semi_axis_1), float(semi_axis_2)
    if a <= 0.0 or b <= 0.0:
        raise GeometryError("ellipse semi-axes must be positive")
    return _discretize(TrigCurve([0.0, (a + b) / 2.0, (a - b) / 2.0]), period, node_count)


def make_smooth_cell(fourier_coefficients, period: float, node_count: int) -> CellGeometry:
    """Cell for a general closed curve given by Fourier coefficients in FFT order.

    The curve must be simple, enclose a nonzero area and stay strictly inside
    the period strip; otherwise a :class:`GeometryError` is raised.
    """
    _check_node_count(node_count)
    return _discretize(TrigCurve(fourier_coefficients), period, node_count)


def perturb_normal(cell: CellGeometry, eta: float) -> CellGeometry:
    """Discretise the curve displaced by eta along its outward normal.

    The displaced curve x + eta*nu(x) is resampled on a fine grid and
    re-expanded as a trigonometric series, which is exact to machine precision
    once the series is resolved (a perturbed disk stays an exact disk).  The
    series keeps the smallest band |k| <= K holding every coefficient above
    the round-off level of the largest, so repeated perturbation does not
    grow it (a perturbed disk keeps three coefficients).
    """
    if not _finite(eta):
        raise GeometryError(f"normal displacement must be finite, got {eta}")
    curve = cell.parametrization
    fine = max(4 * cell.node_count, 4 * curve.coefficients.size, 64)
    z = curve.sample(fine)
    dz = curve.sample(fine, order=1)
    normal = -1j * dz / np.abs(dz)
    samples = z + eta * normal
    coeffs = np.fft.fft(samples) / fine
    mag = np.abs(coeffs)
    above = np.abs(_frequencies(fine)[mag > np.finfo(float).eps * mag.max()])
    band = min(int(above.max()), fine // 2 - 1)  # never the orientation-ambiguous Nyquist slot
    coeffs = np.concatenate([coeffs[:band + 1], coeffs[fine - band:]])
    return _discretize(TrigCurve(coeffs), cell.period_ratio, cell.node_count)
