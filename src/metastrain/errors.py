"""Exception types shared across the package, one per outcome the CLI tells apart."""


class MetastrainError(Exception):
    """Base class for all package-specific failures; any other one exits 4."""


class DomainError(MetastrainError, ValueError):
    """Argument outside the domain of a model function (also a ``ValueError``); exits 4
    where the CLI does not name it a config error.

    A real contrast on an eigenvalue or a singular resolvent, equal
    permeabilities, an evaluation point too near the boundary and a mode too
    close to another for first-order perturbation are all such arguments.
    """


class GeometryError(MetastrainError):
    """Invalid or inadmissible boundary curve; exits 2 as a config error where the CLI
    builds its cell."""


class QuadratureFailure(MetastrainError):
    """Discretisation produced an unusable operator or mode (e.g. a Gram matrix not
    positive, or a perturbed mode that cannot be told from its neighbours); exits 4."""


class OutOfRangeError(MetastrainError):
    """Requested value outside the calibrated or feasible range, or a calibration
    table that cannot be used (non-monotone, incomplete or unreadable); exits 3."""


class ConfigError(MetastrainError):
    """Malformed or inconsistent run configuration; exits 2."""
