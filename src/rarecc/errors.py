"""Exception types, and the one implementation of each shared input rule.

Library counts are integers only (:func:`check_count`); a config file's
counts may also be integral floats, which :func:`rarecc.experiments.as_count`
turns into ints before applying the same rule.
"""

import math

import numpy as np


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


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as an int, if it is an int or numpy integer (not a bool)
    of at least ``least``; anything else raises ParameterError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_vector(v, size: int, name: str, lo: float = 0.0, hi: float = math.inf) -> np.ndarray:
    """``v`` as a float vector of shape (size,): a wrong shape raises
    ContractError, a non-finite entry or one outside [lo, hi] InputError.
    The default bounds require nonnegative entries."""
    v = np.asarray(v, dtype=float)
    if v.shape != (size,):
        raise ContractError(f"{name} has shape {v.shape}, expected ({size},)")
    if not np.isfinite(v).all():
        raise InputError(f"{name} must be finite")
    if (v < lo).any() or (v > hi).any():
        raise InputError(f"{name} must lie in [{lo:g}, {hi:g}]")
    return v


def check_same_n(problem, n: int) -> None:
    """Raise ContractError unless the risk dimension n is the problem's."""
    if n != problem.n:
        raise ContractError(f"risk dimension n={n} disagrees with the problem's n={problem.n}")
