import numpy as np
import pytest
from scipy.integrate import quad

from metastrain import (
    TrigCurve,
    make_disk_cell,
    make_ellipse_cell,
    make_smooth_cell,
    perturb_normal,
)
from metastrain.errors import GeometryError
from metastrain.geometry import _segments_cross


def test_disk_exact_quantities():
    cell = make_disk_cell(0.45, 1.0, 128)
    assert cell.perimeter == pytest.approx(2 * np.pi * 0.45, abs=1e-14)
    assert np.allclose(cell.curvatures, 1 / 0.45, atol=1e-12)
    assert np.allclose(np.hypot(cell.normals[:, 0], cell.normals[:, 1]), 1.0, atol=1e-14)
    assert np.allclose(cell.weights, 2 * np.pi * 0.45 / 128, atol=1e-15)
    # node 0 sits at (radius, 0); its outward normal points along +xi1
    assert cell.normals[0] @ [1.0, 0.0] == pytest.approx(1.0, abs=1e-14)


def test_reference_disk_configuration():
    cell = make_disk_cell(0.45, 1.0, 128)
    assert cell.node_count == 128
    assert cell.period_ratio == 1.0
    assert np.abs(cell.nodes[:, 0]).max() < 0.5


def test_disk_admissibility_errors():
    with pytest.raises(GeometryError):
        make_disk_cell(0.5, 1.0, 64)  # touches periodic copies
    with pytest.raises(GeometryError):
        make_disk_cell(0.55, 1.0, 64)
    with pytest.raises(GeometryError):
        make_disk_cell(0.45, 1.0, 8)  # below minimum node count
    with pytest.raises(GeometryError):
        make_disk_cell(0.45, 1.0, 65)  # odd
    with pytest.raises(GeometryError):
        make_disk_cell(-0.1, 1.0, 64)


def test_closed_curve_quadrature_identities():
    for cell in (make_disk_cell(0.3, 1.0, 64), make_ellipse_cell(0.35, 0.2, 1.0, 96)):
        # integral of the normal over a closed curve vanishes
        assert np.abs(cell.weights @ cell.normals).max() < 1e-12
        assert np.abs((cell.normals * cell.tangents).sum(axis=1)).max() < 1e-13


def test_smooth_cell_circle_matches_disk():
    disk = make_disk_cell(0.4, 1.0, 64)
    smooth = make_smooth_cell([0.0, 0.4, 0.0], 1.0, 64)
    assert np.allclose(disk.nodes, smooth.nodes, atol=1e-15)
    assert np.allclose(disk.weights, smooth.weights, atol=1e-15)


def test_ellipse_perimeter_against_arclength_quadrature():
    cell = make_ellipse_cell(0.45, 0.30, 1.0, 128)
    # oracle: adaptive quadrature of |z'(t)|
    speed = lambda t: np.abs(cell.parametrization.evaluate(t, order=1))[0]
    exact, err = quad(speed, 0.0, 2 * np.pi, limit=200)
    assert err < 1e-7
    assert cell.perimeter == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("count", [64, 16, 13, 5])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_sample_matches_dense_evaluate(order, count):
    # complex coefficients with the Nyquist slot filled; counts below 16 fold them
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    curve = TrigCurve(coeffs)
    k = np.fft.fftfreq(16, 1.0 / 16)
    t = 2 * np.pi * np.arange(count) / count
    scale = np.abs(k**order * coeffs).sum()
    assert np.abs(curve.sample(count, order) - curve.evaluate(t, order)).max() < 1e-13 * scale


def test_perturb_normal_matches_parallel_curve():
    # the curve displaced by eta along its normal has speed |z'|(1 + eta*kappa)
    # and curvature kappa/(1 + eta*kappa) at the same parameter
    coeffs = np.zeros(8)
    coeffs[[1, 2, 3, 6, 7]] = [0.32, 0.012, -0.005, 0.008, 0.015]
    cell = make_smooth_cell(coeffs, 1.3, 128)
    kappa = cell.curvatures
    for eta in (1e-2, -1e-2, 1e-3):
        moved = perturb_normal(cell, eta)
        assert np.abs(moved.weights - cell.weights * (1 + eta * kappa)).max() < 1e-13
        assert np.abs(moved.curvatures - kappa / (1 + eta * kappa)).max() < 1e-9


def test_curve_exiting_strip_rejected():
    # width 1.2 in xi1 with period 1.0
    with pytest.raises(GeometryError, match="strip"):
        make_smooth_cell([0.0, 0.6, 0.0], 1.0, 64)


def test_self_intersecting_curve_rejected():
    # inner loop: r(t) = 0.2 + 0.35*cos(2t) goes negative, producing crossings
    t = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    z = (0.2 + 0.35 * np.cos(2 * t)) * np.exp(1j * t)
    coeffs = np.fft.fft(z) / z.size
    with pytest.raises(GeometryError):
        make_smooth_cell(coeffs, 4.0, 64)


def complex_segments_cross(points):
    """Proper-crossing test in complex form on four m x m arrays (oracle)."""
    a, b = points, np.roll(points, -1)
    m = points.size

    def cross(o, p, q):
        return np.imag(np.conj(p - o) * (q - o))

    a1, a2 = a[:, None], b[:, None]
    b1, b2 = a[None, :], b[None, :]
    crossing = ((cross(a1, a2, b1) * cross(a1, a2, b2) < 0)
                & (cross(b1, b2, a1) * cross(b1, b2, a2) < 0))
    gap = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    return bool((crossing & ~((gap <= 1) | (gap >= m - 1))).any())


def test_segments_cross_matches_complex_form():
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(60):
        k = int(rng.integers(3, 10))
        coeffs = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 0.7 ** np.arange(k)
        coeffs[1] += rng.uniform(0.0, 3.0)
        points = TrigCurve(coeffs).sample(int(rng.choice([64, 200, 512])))
        verdict = _segments_cross(points)
        assert verdict == complex_segments_cross(points)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)  # both outcomes are exercised
    t = 2 * np.pi * np.arange(256) / 256
    figure_eight = np.sin(t) + 0.5j * np.sin(2 * t)
    assert _segments_cross(figure_eight) and complex_segments_cross(figure_eight)
    assert not _segments_cross(0.3 * np.exp(1j * t))


def test_orientation_normalised():
    # clockwise ellipse coefficients produce the same outward-normal frame
    ccw = make_smooth_cell([0.0, 0.375, 0.075], 1.0, 64)
    cw = make_smooth_cell([0.0, 0.075, 0.375], 1.0, 64)
    assert ccw.normals[0] @ [1.0, 0.0] > 0.999
    assert cw.normals[0] @ [1.0, 0.0] > 0.999
    assert np.all(cw.curvatures > 0)


def test_perturb_identity():
    cell = make_ellipse_cell(0.35, 0.22, 1.0, 64)
    same = perturb_normal(cell, 0.0)
    assert np.abs(same.nodes - cell.nodes).max() < 1e-13
    assert np.abs(same.weights - cell.weights).max() < 1e-13


def test_perturb_disk_is_disk():
    cell = make_disk_cell(0.3, 1.0, 64)
    grown = perturb_normal(cell, 0.05)
    radii = np.hypot(grown.nodes[:, 0], grown.nodes[:, 1])
    assert np.allclose(radii, 0.35, atol=1e-14)
    assert grown.perimeter == pytest.approx(2 * np.pi * 0.35, abs=1e-13)


def test_perturb_perimeter_first_order():
    # dP/deta = integral of curvature = 2*pi for a simple closed curve
    cell = make_ellipse_cell(0.35, 0.22, 1.0, 96)
    for eta in (1e-3, 1e-4):
        grown = perturb_normal(cell, eta)
        gain = grown.perimeter - cell.perimeter
        assert gain == pytest.approx(eta * (cell.weights @ cell.curvatures), abs=20 * eta**2)
        assert gain == pytest.approx(2 * np.pi * eta, abs=20 * eta**2)


def test_perturb_rejects_inadmissible():
    cell = make_disk_cell(0.45, 1.0, 64)
    with pytest.raises(GeometryError):
        perturb_normal(cell, 0.06)  # grows past the strip


def test_spectral_convergence_of_perimeter():
    # doubling the node count leaves the perimeter unchanged at machine level
    coeffs = [0.0, 0.3, 0.05, 0.0, 0.0, 0.02]
    p1 = make_smooth_cell(coeffs, 1.0, 64).perimeter
    p2 = make_smooth_cell(coeffs, 1.0, 128).perimeter
    assert abs(p2 - p1) < 1e-12


def test_immutability():
    cell = make_disk_cell(0.3, 1.0, 64)
    with pytest.raises(ValueError):
        cell.nodes[0, 0] = 99.0
