"""Exception hierarchy shared by the whole toolkit.

Two broad families matter to callers (and to the CLI exit codes): bad
configuration or inputs (ConfigError) versus a numerical procedure that
started but could not finish reliably (NumericalError).
"""


class DynamoError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DynamoError, ValueError):
    """Invalid parameters, shapes, or preconditions on inputs."""


class InvalidTruncation(ConfigError):
    pass


class NotMeanFree(ConfigError):
    pass


class UndefinedDirection(ConfigError):
    pass


class TooLarge(ConfigError):
    """A dense matrix, box-mass grid, sampled volume or stepper run was requested beyond its size cap."""


class NumericalError(DynamoError, RuntimeError):
    """A solver, iteration, or certified check failed at run time."""


class SolverFailure(NumericalError):
    pass


class EigsFailed(NumericalError):
    pass


class ContourTouchesSpectrum(NumericalError):
    pass


class BoundInapplicable(NumericalError):
    """A perturbation bound's smallness hypothesis failed (factor >= 1)."""


class BandBroken(NumericalError):
    """An eigenvalue band lost simplicity at some quadrature node."""


class NotConcentrated(NumericalError):
    pass


class CatalogInfeasible(NumericalError):
    pass


class BlowUpDetected(NumericalError):
    pass
