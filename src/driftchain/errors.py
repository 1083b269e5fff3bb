"""Exception types shared across the package."""


class ConfigError(Exception):
    """Bad configuration, missing input file, or malformed record."""


class NumericalError(Exception):
    """A numerical procedure failed."""


class ZeroEvidenceError(NumericalError):
    """Every candidate has zero likelihood; the posterior is undefined."""


class UnreachableTargetError(NumericalError):
    """No positive-probability route connects source and target."""
