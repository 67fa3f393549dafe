"""Exception hierarchy shared across the package."""


class BiphotonError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(BiphotonError, ValueError):
    """An argument is outside its documented domain."""


class UnderResolvedError(BiphotonError):
    """A spectral feature is too narrow for the grid or quadrature step."""


class DegenerateInputError(BiphotonError):
    """Inputs produce an identically-zero, numerically-zero or non-finite result."""


class GridMismatchError(BiphotonError):
    """Two arrays were expected on identical frequency grids."""


class TruncationError(BiphotonError):
    """A series truncation left more probability mass than tolerated."""


class CoverageError(BiphotonError):
    """A scan does not cover enough of a fringe period."""


class ConfigError(BiphotonError):
    """Bad configuration: invalid scenario keys or values, a bad flag, or an input
    or output file that is missing, unreadable, unwritable or malformed."""


class RingDetuningWarning(UserWarning):
    """A pump line sits far from its assigned ring resonance."""
