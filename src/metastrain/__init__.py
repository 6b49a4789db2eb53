"""Boundary-integral spectral solver for plasmonic gratings and strain sensing.

The pipeline: discretise one particle of the periodic grating, assemble the
periodic layer potentials, diagonalise the Neumann-Poincare operator, sweep
the far-field response over wavelength, and map absorption-peak shifts of a
nanoparticle-coated microcapsule back to its mechanical deformation.

The top level exports the pipeline's entry points; everything else is
imported from its module (``metastrain.geometry``, ``metastrain.spectral``,
...).
"""

from .capsule_scattering import extinction_spectrum
from .dispersion import MaterialParams
from .geometry import make_disk_cell, make_ellipse_cell, make_smooth_cell, perturb_normal
from .layer_ops import assemble_np_adjoint, assemble_single_layer
from .resonance_sweep import dominant_peak, peak_vs_period, sweep
from .shape_deriv import shape_derivative
from .spectral import alpha_field, alpha_infinity, decompose, eigendecompose
from .strain import invert_peak_to_deformation

__version__ = "0.1.0"

__all__ = [
    "MaterialParams",
    "alpha_field",
    "alpha_infinity",
    "assemble_np_adjoint",
    "assemble_single_layer",
    "decompose",
    "dominant_peak",
    "eigendecompose",
    "extinction_spectrum",
    "invert_peak_to_deformation",
    "make_disk_cell",
    "make_ellipse_cell",
    "make_smooth_cell",
    "peak_vs_period",
    "perturb_normal",
    "shape_derivative",
    "sweep",
]
