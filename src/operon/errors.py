"""Exception hierarchy shared across the package."""


class OperonError(Exception):
    """Base class for all failures raised by this package."""


class ShapeError(OperonError):
    """Operands have incompatible shapes."""


class RankDeficientError(OperonError):
    """A matrix required to have full column rank does not."""


class SingularTriangularError(OperonError):
    """A triangular system has a (near-)zero diagonal entry."""


class ZeroMatrixError(OperonError):
    """An all-zero matrix was passed where a nonzero one is required."""


class NonFiniteGradientError(OperonError):
    """A loss or gradient contained NaN or Inf; the run is aborted."""


class DuplicateSensorError(OperonError):
    """Two output sensors, or two training inputs, coincide exactly."""


class NegativeSubstitutionError(OperonError):
    """The squared-pressure substitution produced a non-positive field."""


class CorruptDatasetError(OperonError):
    """A dataset directory is inconsistent with its manifest."""


class SolverError(OperonError):
    """An iterative solver failed to reach its residual target. A solve of
    a stack of systems names the failing one: `system` is its index in the
    stack and `reason` the message without it."""

    def __init__(self, reason: str, system: int | None = None):
        super().__init__(reason if system is None else f"system {system}: {reason}")
        self.reason = reason
        self.system = system
