"""Problem definition: box-constrained LP data and the max-of-bilinear loss."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InputError, check_vector


@dataclass(frozen=True)
class ProblemInstance:
    """Data of the profit-maximization problem with a bilinear-max loss.

    Attributes:
        c: objective weights, shape (m,), entries >= 0, not all zero.
        h: box bound > 0; the feasible decisions live in X = [0, h]^m.
        A: stack of d coupling matrices, shape (d, m, n), entries >= 0,
           each matrix having at least one strictly positive entry.
    """

    c: np.ndarray
    h: float
    A: np.ndarray
    m: int = field(init=False)
    n: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        if c.ndim != 1 or A.ndim != 3:
            raise ContractError("c must be a vector and A a (d, m, n) stack")
        d, m, n = A.shape
        if c.shape != (m,):
            raise ContractError(f"c has length {c.shape[0]}, expected m={m}")
        if not (np.isfinite(c).all() and np.isfinite(A).all()):
            raise InputError("c and A must be finite")
        if (c < 0).any() or (A < 0).any():
            raise InputError("c and A must be nonnegative")
        if not (c > 0).any():
            raise InputError("c must have at least one positive entry")
        for i in range(d):
            if not (A[i] > 0).any():
                raise InputError(f"matrix A[{i}] has no positive entry")
        if not (np.isfinite(self.h) and self.h > 0):
            raise InputError("h must be a finite positive number")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemInstance":
        """Build from a config mapping with keys ``c``, ``h``, ``A``."""
        try:
            return cls(c=np.asarray(data["c"], dtype=float),
                       h=float(data["h"]),
                       A=np.asarray(data["A"], dtype=float))
        except KeyError as exc:
            raise ContractError(f"problem config missing key {exc}") from exc


def phi(problem: ProblemInstance, x, L) -> float:
    """Loss functional: the largest of the d bilinear forms x^T A_i L.

    Nonnegative, convex and positively homogeneous in x, and nondecreasing
    in both arguments because all matrix entries are nonnegative.
    """
    x = check_vector(x, problem.m, "x")
    L = check_vector(L, problem.n, "L")
    return float(np.einsum("imn,m,n->i", problem.A, x, L).max())


def phi_many(problem: ProblemInstance, x: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Vectorized loss over a batch of risk vectors, shape (N, n) -> (N,).

    Equal bit for bit to ``(draws @ w.T).max(axis=1)``, but numpy's reduce
    over the narrow axis is several times slower than the product itself, so
    the d columns are folded with an elementwise maximum instead.  For d = 1
    the result is a view of the product.  For n = 1 the product is the
    broadcast ``draws * w.T``: each entry is one multiply either way, and a
    matmul whose inner dimension is 1 costs several times as much per row.
    """
    w = x @ problem.A            # (d, n)
    p = draws * w.T if problem.n == 1 else draws @ w.T    # (N, d)
    loss = p[:, 0]
    for i in range(1, problem.d):
        loss = np.maximum(loss, p[:, i])
    return loss


def box_clip(problem: ProblemInstance, x) -> np.ndarray:
    """Coordinatewise projection of x onto the box X = [0, h]^m."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.m,):
        raise ContractError(f"x has shape {x.shape}, expected ({problem.m},)")
    if not np.isfinite(x).all():
        raise InputError("x must be finite")
    return np.clip(x, 0.0, problem.h)
