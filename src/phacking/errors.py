"""Exception hierarchy shared across the package."""


class ModelError(Exception):
    """Base class of every error the model raises; the CLI exits 3 on any."""


class DomainError(ModelError, ValueError):
    """An input is outside the domain the model is defined on: an argument
    out of its range, a design with no rejections, a cutoff above the
    baseline, a bad simulation setting or a figure shape no renderer
    draws."""


class NoRootError(ModelError):
    """No hacking rate in [0, 1) is consistent with the observed rate."""
