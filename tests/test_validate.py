import numpy as np
import pytest

from metastrain import make_disk_cell, make_ellipse_cell, make_smooth_cell
from metastrain.validate import _up_down_symmetric


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
