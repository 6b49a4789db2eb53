"""Exception types shared across the package."""


class MetastrainError(Exception):
    """Base class for all package-specific failures."""


class DomainError(MetastrainError, ValueError):
    """Argument outside the domain of a model function (also a ``ValueError``)."""


class GeometryError(MetastrainError):
    """Invalid or inadmissible boundary curve."""


class EvaluationDistanceError(MetastrainError):
    """Off-surface evaluation point too close to the boundary for the quadrature."""


class QuadratureFailure(MetastrainError):
    """Discretisation produced an unusable operator (e.g. Gram matrix not positive)."""


class ResonanceError(MetastrainError):
    """The contrast coincides with (or is numerically too close to) a real eigenvalue."""


class DegenerateModeError(MetastrainError):
    """Eigenvalue is not simple enough for first-order perturbation theory."""


class ModeTrackingError(MetastrainError):
    """Perturbed eigenmode could not be identified with the base mode."""


class ContrastError(MetastrainError):
    """Material contrast is undefined (equal permeabilities)."""


class CalibrationError(MetastrainError):
    """Calibration table unusable (non-monotone or incomplete)."""


class OutOfRangeError(MetastrainError):
    """Requested value lies outside the calibrated or feasible range."""


class ConfigError(MetastrainError):
    """Malformed or inconsistent run configuration."""
