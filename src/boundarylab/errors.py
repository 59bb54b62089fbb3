"""Exception hierarchy shared by all boundarylab modules."""


class BoundaryLabError(Exception):
    """Base class for all package errors."""


# -- geometry ---------------------------------------------------------------

class GeometryError(BoundaryLabError):
    pass


class ChartRangeError(GeometryError):
    """Chart coordinate outside the valid range [0, chart_radius)."""


class InvalidEpsilon(GeometryError):
    """Rescaling parameter must be strictly positive."""


# -- model / operator assembly ---------------------------------------------

class ModelError(BoundaryLabError):
    pass


class FlavorRangeError(ModelError):
    """Operator flavor requires data the model does not carry."""


# -- classifier --------------------------------------------------------------

class ClassifierError(BoundaryLabError):
    pass


class SingularSystem(ClassifierError):
    """Discrete stationarity system has no one-dimensional kernel."""


class IncompatibleRHS(ClassifierError):
    """Corrector right-hand side fails the solvability condition."""


# -- solvers ------------------------------------------------------------------

class SolverError(BoundaryLabError):
    pass


class WrongRegime(SolverError):
    """Solve requested for a boundary verdict it does not apply to."""


class NoConvergence(SolverError):
    """Linear solve failed to reach the residual target."""


class HTransformSingular(SolverError):
    """Hitting probability too small to condition by."""


class NotIntegrable(SolverError):
    """Closed-form hitting probability requires beta/alpha > 1."""


class LevelSetUnresolved(SolverError):
    """Too few grid cells cross a requested level set."""


class ExtensionUndefined(SolverError):
    """Chart coefficients requested outside their validity region."""


# -- configuration ------------------------------------------------------------

class ConfigError(BoundaryLabError):
    """Invalid experiment configuration; message names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
