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


def check_delta(delta, name: str = "delta") -> None:
    """Raise ParameterError naming ``name`` unless 0 < delta < 1."""
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"{name} must lie in (0, 1)")


def check_radius(radius) -> float:
    """``radius`` as a float if it is finite and > 0, else ParameterError."""
    if not 0.0 < radius < math.inf:
        raise ParameterError(f"radius must be finite and > 0, got {radius!r}")
    return float(radius)


def check_tail_count(delta: float, count: int, name: str, why: str = "") -> None:
    """Raise ParameterError unless delta * count >= 100, the fewest draws a
    sampled (1 - delta)-quantile or CVaR may rest on; the message names
    ``count`` as ``name`` and ends with ``why``."""
    if delta * count < 100:
        raise ParameterError(f"need delta * {name} >= 100{why}")


def check_vector(v, size: int, name: str, lo: float = 0.0, hi: float = math.inf) -> np.ndarray:
    """``v`` as a float vector of shape (size,): a wrong shape raises
    ContractError; entries that are not numbers, or are non-finite or
    outside [lo, hi], raise InputError.  The default bounds require
    nonnegative entries."""
    try:
        v = np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a vector of numbers: {exc}") from exc
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
