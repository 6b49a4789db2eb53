import numpy as np
import pytest

from metastrain import (
    decompose,
    make_disk_cell,
    make_ellipse_cell,
    make_smooth_cell,
    perturb_normal,
    shape_derivative,
)
from metastrain.errors import DomainError, MetastrainError, QuadratureFailure
from metastrain.shape_deriv import (
    _tangential_derivative,
    _tracked_eigenvalue,
    validate_shape_derivative,
)


@pytest.fixture(scope="module")
def ellipse_report(ellipse128_dec):
    j = ellipse128_dec.dominant_mode()
    return validate_shape_derivative(ellipse128_dec, j, [1e-2, 1e-3, 1e-4])


def test_sign_selection_on_ellipse(ellipse_report, ellipse128_dec):
    # oracle: central finite differences of direct eigensolves on the
    # displaced curves match the formula and miss both of its sign flips by far
    assert ellipse_report.converging
    assert ellipse_report.min_overlap > 0.99
    shipped = ellipse_report.predicted_slope
    err = abs(ellipse_report.fd_slope - shipped)
    assert err < 1e-6
    j = ellipse128_dec.dominant_mode()
    phi = ellipse128_dec.eigendensities[:, j]
    a = (0.25 - ellipse128_dec.eigenvalues[j] ** 2) * (ellipse128_dec.cell.weights @ phi**2)
    flipped = [2 * a - shipped, shipped - 2 * a]  # a + b and -a - b against the shipped a - b
    assert min(abs(ellipse_report.fd_slope - f) for f in flipped) > 1e3 * err


def test_error_shrinks_along_eta_ladder(ellipse_report):
    errors = np.abs(ellipse_report.fd_slopes - ellipse_report.predicted_slope)
    assert np.all(np.diff(errors) < 0)
    exponent = np.polyfit(np.log(ellipse_report.eta_ladder), np.log(errors), 1)[0]
    assert exponent >= 0.9


def test_plus_minus_slopes_agree(ellipse128, ellipse128_dec):
    # one-sided slopes agree to O(eta)
    j = ellipse128_dec.dominant_mode()
    lam0 = ellipse128_dec.eigenvalues[j]
    eta = 1e-3

    def tracked(cell):
        dec = decompose(cell)
        phi = ellipse128_dec.eigendensities[:, j]
        cand = dec.eigendensities[:, 1:]
        norms = np.sqrt(np.einsum("ij,jk,ki->i", cand.T, ellipse128_dec.gram, cand))
        overlaps = np.abs(phi @ ellipse128_dec.gram @ cand) / norms
        return dec.eigenvalues[1 + int(np.argmax(overlaps))]

    up = (tracked(perturb_normal(ellipse128, eta)) - lam0) / eta
    down = (lam0 - tracked(perturb_normal(ellipse128, -eta))) / eta
    assert up == pytest.approx(down, abs=50 * eta)


def test_disk_far_cell_slope_vanishes(disk_free_dec):
    # free-space disk eigenvalues do not depend on the radius
    cell = disk_free_dec.cell
    j = disk_free_dec.dominant_mode()
    coefficient = shape_derivative(disk_free_dec, cell, j)
    assert abs(coefficient) < 1e-4


def test_disk_period_coupling_detected(disk128_dec):
    # at period ratio 1 the eigenvalues move under radius changes
    report = validate_shape_derivative(disk128_dec, disk128_dec.dominant_mode(), [1e-3, 1e-4])
    assert abs(report.fd_slope) > 0.1
    assert abs(report.fd_slope - report.predicted_slope) < 1e-5


def test_eta_zero_identity(disk128_dec):
    # the expansion evaluated at eta = 0 returns the base eigenvalue exactly
    j = disk128_dec.dominant_mode()
    lam = disk128_dec.eigenvalues[j]
    coefficient = shape_derivative(disk128_dec, disk128_dec.cell, j)
    assert lam + 0.0 * coefficient == lam


_PERIOD_CELLS = {
    "disk": lambda period: make_disk_cell(0.45, period, 256),
    "ellipse": lambda period: make_ellipse_cell(0.35, 0.22, period, 256),
    "curve": lambda period: make_smooth_cell(
        [0, 0.3 + 0.02j, 0.03 - 0.01j, 0, 0, 0, 0.01j, 0.02], period, 256),
}


@pytest.mark.parametrize("period", [1.0, 1.5])
@pytest.mark.parametrize("shape", sorted(_PERIOD_CELLS))
def test_period_derivative_is_the_dilation_shape_derivative(shape, period):
    # the cell problem is scale-free, so stretching the period by 1 + t acts
    # as shrinking the particle by the dilation x -> (1 - t) x, a normal
    # displacement of -t V with V = x . nu.  The shape derivative weighted by V
    # then gives
    #   -L dlam_j/dL = (1/4 - lam_j^2) Int V phi_j^2 - Int V |d(S phi_j)/dT|^2,
    # checked against central differences in L, the mode tracked by Gram overlap
    make = _PERIOD_CELLS[shape]
    base = decompose(make(period))
    cell = base.cell
    j = base.dominant_mode()
    lam, phi = base.eigenvalues[j], base.eigendensities[:, j]
    v = np.einsum("ij,ij->i", cell.nodes, cell.normals)
    tangential = _tangential_derivative(cell, base.single_layer @ phi)
    predicted = ((0.25 - lam**2) * (cell.weights @ (v * phi**2))
                 - cell.weights @ (v * tangential**2))
    h = 1e-4
    (plus, o_plus), (minus, o_minus) = (
        _tracked_eigenvalue(base, decompose(make(period * (1.0 + s * h))), j) for s in (1, -1))
    assert min(o_plus, o_minus) > 0.999
    fd = -(plus - minus) / (2.0 * h)
    assert abs(fd - predicted) <= 1e-6 * abs(predicted), (fd, predicted)


def test_degenerate_mode_refused():
    # a disk in a very wide cell has nearly degenerate pairs near zero
    cell = make_disk_cell(0.45, 1e6, 64)
    dec = decompose(cell)
    gaps = np.abs(np.diff(np.sort(dec.eigenvalues[1:])))
    j = 1 + int(np.argmin(np.abs(dec.eigenvalues[1:] - dec.eigenvalues[np.argmin(gaps) + 1])))
    if gaps.min() < 1e-7:
        with pytest.raises(DomainError, match=f"of mode {j} is not simple: gap "):
            shape_derivative(dec, cell, j)
    else:
        pytest.skip("pairing not degenerate enough on this grid")


def test_mode_lost_between_displaced_curves_is_a_tracking_error():
    # the dominant mode of this mirror-symmetric curve (real Fourier
    # coefficients in FFT order) keeps an overlap of 0.99995 with its displaced
    # self at eta = 1e-3, but of only 0.869 at eta = 1e-2
    coefficients = [0.0, 0.267733035089089, 0.0008628204785357044, -0.0033832876894147068,
                    0.0, 0.0, -0.00029213548286044673, -0.01992207358370119]
    dec = decompose(make_smooth_cell(coefficients, 1.5327673571201306, 128))
    j = dec.dominant_mode()
    assert validate_shape_derivative(dec, j, [1e-3]).min_overlap > 0.999
    message = rf"mode {j} overlap dropped to 0\.869 at eta = 0\.01"
    with pytest.raises(QuadratureFailure, match=message):
        validate_shape_derivative(dec, j, [1e-2, 1e-3])


def test_tracked_eigenvalue_matches_the_three_operand_norms():
    # the Gram norms of the candidates, one product and a column-wise dot,
    # against the plain three-operand expression, on validate's ellipse ladder
    base = decompose(make_ellipse_cell(0.35, 0.22, 1.0, 96))
    j = base.dominant_mode()
    phi = base.eigendensities[:, j]
    for eta in (1e-2, -1e-2, 1e-3, -1e-3):
        perturbed = decompose(perturb_normal(base.cell, eta))
        candidates = perturbed.eigendensities[:, 1:]
        norms = np.sqrt(np.einsum("ij,jk,ki->i", candidates.T, base.gram, candidates))
        overlaps = np.abs(phi @ base.gram @ candidates) / norms
        k = int(np.argmax(overlaps))
        lam, overlap = _tracked_eigenvalue(base, perturbed, j)
        assert abs(lam - perturbed.eigenvalues[1 + k]) <= 1e-12 * abs(lam)
        assert abs(overlap - overlaps[k]) <= 1e-12 * overlaps[k]


def test_equilibrium_mode_rejected(disk128_dec):
    with pytest.raises(ValueError):
        shape_derivative(disk128_dec, disk128_dec.cell, 0)


@pytest.mark.parametrize("call", [
    lambda dec: shape_derivative(dec, dec.cell, 0),
    lambda dec: validate_shape_derivative(dec, 1, []),
], ids=["equilibrium", "eta_ladder"])
def test_domain_errors_are_package_errors(call, disk128_dec):
    with pytest.raises(DomainError) as info:
        call(disk128_dec)
    assert isinstance(info.value, MetastrainError) and isinstance(info.value, ValueError)
