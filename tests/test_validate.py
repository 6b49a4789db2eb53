import numpy as np
import pytest

from metastrain import make_disk_cell, make_ellipse_cell, make_smooth_cell
from metastrain.validate import CheckResult, _up_down_symmetric


@pytest.mark.parametrize("cell, symmetric", [
    (make_disk_cell(0.45, 1.0, 64), True),
    (make_ellipse_cell(0.35, 0.22, 1.0, 64), True),
    # raised by 0.1 and started a quarter turn later: mirror line xi2 = 0.1,
    # node j pairs with node (n/2 - j)
    (make_smooth_cell([0.1j, 0.3j, 0.0, 0.0, 0.05j], 1.0, 64), True),
    (make_smooth_cell([0.0, 0.3, 0.03 + 0.01j], 1.2, 64), False),
    # ellipse tilted by 45 degrees
    (make_smooth_cell([0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.05j], 1.0, 64), False),
    # egg r = 0.3 + 0.05 sin(theta): left-right symmetric only
    (make_smooth_cell([0.025j, 0.3, -0.025j, 0.0, 0.0], 1.0, 64), False),
], ids=["disk", "ellipse", "raised_rotated", "complex_coefficient", "tilted_ellipse",
        "egg"])
def test_up_down_symmetry_read_from_nodes(cell, symmetric):
    assert _up_down_symmetric(cell) is symmetric


def test_round_off_residual_prints_as_a_bound():
    # below 1e-3 of the tolerance the residual's digits are round-off
    line = CheckResult("alpha_far_field_limits", True, 6.662e-16, 5e-11).line()
    assert line == "PASS  alpha_far_field_limits       residual<5.0e-14   tol=5.0e-11"


def test_residual_near_tolerance_prints_its_value():
    line = CheckResult("trace_formulae_fd", False, 2.388e-06, 1e-6, detail="x").line()
    assert line == "FAIL  trace_formulae_fd            residual=2.388e-06 tol=1.0e-06  x"
    assert "residual=      inf" in CheckResult("eigendecomposition", False, np.inf, 0.0).line()
