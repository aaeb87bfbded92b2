"""Exception types shared across the package."""


class RareccError(Exception):
    """Base class for all package-specific errors."""


class InputError(RareccError):
    """A numeric input is out of domain (NaN, negative where nonnegative is required)."""


class ContractError(RareccError):
    """A structural contract is violated (dimension mismatch, bad shapes)."""


class ParameterError(RareccError):
    """A configuration or method parameter is outside its admissible range."""


class UnboundedError(RareccError):
    """An optimization problem has unbounded optimal value."""
