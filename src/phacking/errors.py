"""Exception hierarchy shared across the package."""


class ModelError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateDesignError(ModelError):
    """The rate denominator is zero: the design produces no rejections."""


class CutoffAboveBaselineError(ModelError):
    """Requested cutoff exceeds the baseline; the persistence model only
    covers lowering the cutoff."""


class DomainError(ModelError, ValueError):
    """An argument is outside the open domain of a transform (e.g. a
    probability at exactly 0 or 1 where a normal quantile is needed)."""


class NoRootError(ModelError):
    """No hacking rate in [0, 1) is consistent with the observed rate."""


class DegenerateConfigError(ModelError):
    """Simulation configuration violates its preconditions."""


class UnsupportedShapeError(ModelError):
    """Sweep result shape not renderable by the requested backend."""
