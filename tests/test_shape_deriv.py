import numpy as np
import pytest

from metastrain import (
    decompose,
    make_disk_cell,
    perturb_normal,
    shape_derivative,
    validate_shape_derivative,
)
from metastrain.errors import DegenerateModeError
from metastrain.shape_deriv import SIGN_CONVENTIONS


@pytest.fixture(scope="module")
def ellipse_report(ellipse128, ellipse128_dec):
    j = ellipse128_dec.dominant_mode()
    return validate_shape_derivative(ellipse128, j, [1e-2, 1e-3, 1e-4])


def test_sign_selection_on_ellipse(ellipse_report):
    # oracle: central finite differences of direct eigensolves on the
    # displaced curves select one candidate decisively
    assert ellipse_report.selected_sign == "corrected"
    assert ellipse_report.sign_consistent
    assert ellipse_report.min_overlap > 0.99
    err = abs(ellipse_report.fd_slope - ellipse_report.predicted_slope)
    assert err < 1e-6
    others = [abs(ellipse_report.fd_slope - ellipse_report.predicted_slopes[s])
              for s in SIGN_CONVENTIONS if s != ellipse_report.selected_sign]
    assert min(others) > 1e3 * err


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
    cell = disk128_dec.cell
    report = validate_shape_derivative(cell, disk128_dec.dominant_mode(), [1e-3, 1e-4])
    assert abs(report.fd_slope) > 0.1
    assert report.selected_sign == "corrected"
    assert abs(report.fd_slope - report.predicted_slope) < 1e-5


def test_eta_zero_identity(disk128_dec):
    # the expansion evaluated at eta = 0 returns the base eigenvalue exactly
    j = disk128_dec.dominant_mode()
    lam = disk128_dec.eigenvalues[j]
    coefficient = shape_derivative(disk128_dec, disk128_dec.cell, j)
    assert lam + 0.0 * coefficient == lam


def test_degenerate_mode_refused():
    # a disk in a very wide cell has nearly degenerate pairs near zero
    cell = make_disk_cell(0.45, 1e6, 64)
    dec = decompose(cell)
    gaps = np.abs(np.diff(np.sort(dec.eigenvalues[1:])))
    j = 1 + int(np.argmin(np.abs(dec.eigenvalues[1:] - dec.eigenvalues[np.argmin(gaps) + 1])))
    if gaps.min() < 1e-7:
        with pytest.raises(DegenerateModeError):
            shape_derivative(dec, cell, j)
    else:
        pytest.skip("pairing not degenerate enough on this grid")


def test_equilibrium_mode_rejected(disk128_dec):
    with pytest.raises(ValueError):
        shape_derivative(disk128_dec, disk128_dec.cell, 0)


def test_report_fields(ellipse_report, ellipse128_dec):
    assert ellipse_report.mode_index == ellipse128_dec.dominant_mode()
    assert ellipse_report.base_eigenvalue == pytest.approx(
        ellipse128_dec.eigenvalues[ellipse_report.mode_index])
    assert set(ellipse_report.predicted_slopes) == set(SIGN_CONVENTIONS)
