"""Boundary-integral spectral solver for plasmonic gratings and strain sensing.

The pipeline: discretise one particle of the periodic grating, assemble the
periodic layer potentials, diagonalise the Neumann-Poincare operator, sweep
the far-field response over wavelength, and map absorption-peak shifts of a
nanoparticle-coated microcapsule back to its mechanical deformation.
"""

from .capsule_scattering import ExtinctionCurve, extinction_spectrum
from .dispersion import MaterialParams, drude_mu, omega_from_wavelength, resonance_frequency
from .geometry import (
    CellGeometry,
    TrigCurve,
    make_disk_cell,
    make_ellipse_cell,
    make_smooth_cell,
    perturb_normal,
)
from .layer_ops import (
    BoundaryOperator,
    assemble_np_adjoint,
    assemble_single_layer,
    evaluate_single_layer_off_surface,
)
from .resonance_sweep import (
    CalibrationTable,
    Peak,
    ResonanceCurve,
    dominant_peak,
    find_peaks,
    peak_vs_period,
    sweep,
)
from .shape_deriv import (
    ShapeDerivativeReport,
    shape_derivative,
    validate_shape_derivative,
)
from .spectral import (
    BoundaryLayerLimits,
    SpectralDecomposition,
    alpha_field,
    alpha_infinity,
    decompose,
    eigendecompose,
    resolvent_density,
)
from .strain import (
    CapsuleState,
    axes_from_perimeter,
    deformation_index,
    invert_peak_to_deformation,
    perimeter,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryLayerLimits",
    "BoundaryOperator",
    "CalibrationTable",
    "CapsuleState",
    "CellGeometry",
    "ExtinctionCurve",
    "MaterialParams",
    "Peak",
    "ResonanceCurve",
    "ShapeDerivativeReport",
    "SpectralDecomposition",
    "TrigCurve",
    "alpha_field",
    "alpha_infinity",
    "assemble_np_adjoint",
    "assemble_single_layer",
    "axes_from_perimeter",
    "decompose",
    "deformation_index",
    "dominant_peak",
    "drude_mu",
    "eigendecompose",
    "evaluate_single_layer_off_surface",
    "extinction_spectrum",
    "find_peaks",
    "invert_peak_to_deformation",
    "make_disk_cell",
    "make_ellipse_cell",
    "make_smooth_cell",
    "omega_from_wavelength",
    "peak_vs_period",
    "perimeter",
    "perturb_normal",
    "resolvent_density",
    "resonance_frequency",
    "shape_derivative",
    "sweep",
    "validate_shape_derivative",
]
