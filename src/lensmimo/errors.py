"""Exception hierarchy shared across the package."""


class LensMimoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LensMimoError):
    """A function argument violates its documented precondition."""


class DegenerateInputError(InvalidInputError):
    """Input is structurally valid but degenerate (e.g. all-zero gains)."""


class NumericalError(LensMimoError):
    """A numerical routine failed (singular/indefinite matrix, ...)."""


class ConfigError(LensMimoError):
    """Bad experiment configuration (unknown key, missing value, ...)."""
