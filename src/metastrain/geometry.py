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

from dataclasses import dataclass

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
    tangents: np.ndarray     # (n, 2), unit tangents, counterclockwise
    curvatures: np.ndarray   # (n,), signed curvature
    weights: np.ndarray      # (n,), arclength quadrature weights
    parametrization: TrigCurve
    t: np.ndarray            # (n,), uniform parameter grid on [0, 2*pi)

    def __post_init__(self):
        for name in ("nodes", "normals", "tangents", "curvatures", "weights", "t"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def node_count(self) -> int:
        return self.t.size

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


def _validated_curve(curve: TrigCurve, period: float) -> TrigCurve:
    """Reject inadmissible curves; normalise orientation to counterclockwise."""
    fine = max(8 * curve.coefficients.size, 256)
    z = curve.sample(fine)
    dz = curve.sample(fine, order=1)
    speed = np.abs(dz)
    if speed.min() < 1e-12 * max(speed.max(), 1e-300):
        raise GeometryError("degenerate parametrization: |z'(t)| vanishes")
    if np.abs(z.real).max() >= period / 2.0:
        raise GeometryError(
            "curve exits the period strip: |xi1| reaches "
            f"{np.abs(z.real).max():.6g} with period {period:.6g}"
        )
    area = 0.5 * (2.0 * np.pi / fine) * np.sum(np.imag(np.conj(z) * dz))
    if abs(area) < 1e-14 * max(1.0, np.abs(z).max() ** 2):
        raise GeometryError("degenerate curve: enclosed area is zero")
    if _segments_cross(z[:: max(1, fine // 512)]):
        raise GeometryError("curve is self-intersecting")
    if area < 0.0:
        return curve.reversed()
    return curve


def _discretize(curve: TrigCurve, period: float, node_count: int) -> CellGeometry:
    curve = _validated_curve(curve, period)
    t = 2.0 * np.pi * np.arange(node_count) / node_count
    z = curve.sample(node_count)
    dz = curve.sample(node_count, order=1)
    d2z = curve.sample(node_count, order=2)
    speed = np.abs(dz)
    tangent = dz / speed
    normal = -1j * tangent
    curvature = np.imag(np.conj(dz) * d2z) / speed**3
    weights = speed * (2.0 * np.pi / node_count)
    return CellGeometry(
        period_ratio=float(period),
        nodes=np.column_stack([z.real, z.imag]),
        normals=np.column_stack([normal.real, normal.imag]),
        tangents=np.column_stack([tangent.real, tangent.imag]),
        curvatures=curvature,
        weights=weights,
        parametrization=curve,
        t=t,
    )


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
    once the series is resolved (a perturbed disk stays an exact disk).
    """
    curve = cell.parametrization
    fine = max(4 * cell.node_count, 4 * curve.coefficients.size, 64)
    z = curve.sample(fine)
    dz = curve.sample(fine, order=1)
    normal = -1j * dz / np.abs(dz)
    samples = z + eta * normal
    coeffs = np.fft.fft(samples) / fine
    return _discretize(TrigCurve(coeffs), cell.period_ratio, cell.node_count)
