"""Small dense linear-program solver (one-phase tableau simplex).

Solves  maximize f^T x  s.t.  A x <= b,  0 <= x <= hi  for dense data with
at most a few thousand rows, under the contract b >= 0 and hi >= 0: x = 0 is
then feasible, so the simplex starts from the slack basis and needs no
phase 1.  This is the form of every cut LP of :func:`rarecc.methods._cut_loop`.
Pivoting is deterministic: Dantzig's rule with lowest-index tie-breaking,
falling back to Bland's anti-cycling rule after a degenerate stall, so
identical inputs always produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InputError, RareccError, UnboundedError

_PIVOT_TOL = 1e-10       # minimum magnitude of an acceptable pivot element
_COST_TOL = 1e-9
_STALL_LIMIT = 64        # degenerate iterations before switching to Bland


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective @ x subject to A x <= b and 0 <= x <= hi, where
    b >= 0 and hi >= 0; ``hi`` defaults to +inf in every coordinate."""

    objective: np.ndarray
    A: np.ndarray
    b: np.ndarray
    hi: np.ndarray | None = None

    def __post_init__(self):
        f = np.asarray(self.objective, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or f.ndim != 1 or b.ndim != 1:
            raise ContractError("A must be a matrix, objective and b vectors")
        mrows, ncols = A.shape
        if mrows < 1 or ncols < 1:
            raise ContractError("need at least one row and one column")
        if f.shape != (ncols,) or b.shape != (mrows,):
            raise ContractError("objective/b shapes inconsistent with A")
        hi = np.full(ncols, np.inf) if self.hi is None else np.asarray(self.hi, dtype=float)
        if hi.shape != (ncols,):
            raise ContractError("bound shapes inconsistent with A")
        if not (np.isfinite(f).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise InputError("objective, A and b must be finite")
        if (b < 0).any():
            raise InputError("b must be nonnegative, so that x = 0 is feasible")
        if not (hi >= 0).all():
            raise InputError("upper bounds must be nonnegative and not NaN")
        object.__setattr__(self, "objective", f)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class SolveResult:
    """Optimal vertex of one LP solve."""

    x: np.ndarray
    objective: float
    iterations: int
    residual: float
    active_rows: list = field(default_factory=list)


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int,
           scratch: np.ndarray) -> None:
    prow = T[row] / T[row, col]
    coef = T[:, col].copy()
    coef[row] = 0.0
    np.multiply(coef[:, None], prow[None, :], out=scratch)
    np.subtract(T, scratch, out=T)
    T[row] = prow
    basis[row] = col


def _iterate(T: np.ndarray, basis: np.ndarray, ncols: int) -> int:
    """Pivot to optimality of the minimization tableau; returns pivot count."""
    iters = 0
    stall = 0
    bland = False
    last_obj = T[-1, -1]
    max_iters = 200 * (T.shape[0] + ncols)
    scratch = np.empty_like(T)
    while True:
        costs = T[-1, :ncols]
        if bland:
            elig = np.flatnonzero(costs < -_COST_TOL)
            if elig.size == 0:
                return iters
            col = int(elig[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -_COST_TOL:
                return iters
        colvals = T[:-1, col]
        rhs = np.maximum(T[:-1, -1], 0.0)
        ok = colvals > _PIVOT_TOL
        if not ok.any():
            raise UnboundedError("LP is unbounded; call sites must supply box bounds")
        ratios = np.where(ok, rhs / np.where(ok, colvals, 1.0), np.inf)
        best = ratios.min()
        tied = np.flatnonzero(ratios <= best + 1e-12)
        row = int(tied[np.argmin(basis[tied])])
        _pivot(T, basis, row, col, scratch)
        iters += 1
        if T[-1, -1] > last_obj + 1e-12 * (1.0 + abs(last_obj)):
            last_obj = T[-1, -1]
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        if iters > max_iters:
            raise RareccError("simplex iteration limit exceeded")


def solve_lp(lp: LinearProgram) -> SolveResult:
    """Solve the LP from the slack basis and return an optimal vertex.

    The region always holds x = 0, so there is no infeasible outcome;
    unboundedness raises :class:`UnboundedError` because every call site is
    supposed to pass a bounded region.
    """
    f, A, b, hi = lp.objective, lp.A, lp.b, lp.hi
    ncols = A.shape[1]

    # materialize finite upper bounds as rows
    ub_idx = np.flatnonzero(np.isfinite(hi))
    G = np.vstack([A, np.eye(ncols)[ub_idx]])
    g = np.concatenate([b, hi[ub_idx]])

    # drop vacuous rows (0 <= g holds for them) and scale the rest
    scale = np.abs(G).max(axis=1)
    keep = scale > _PIVOT_TOL
    G, g, scale = G[keep], g[keep], scale[keep]
    if G.shape[0] == 0:
        raise ContractError("all constraint rows vanished; region is unbounded")
    G = G / scale[:, None]
    g = g / scale

    # slack basis; its costs are zero, so the objective row needs no pricing
    nrows = G.shape[0]
    total = ncols + nrows
    T = np.zeros((nrows + 1, total + 1))
    T[:-1, :ncols] = G
    T[np.arange(nrows), ncols + np.arange(nrows)] = 1.0
    T[:-1, -1] = g
    T[-1, :ncols] = -f
    basis = ncols + np.arange(nrows)
    iters = _iterate(T, basis, total)

    z = np.zeros(total)
    z[basis] = T[:-1, -1]
    x = z[:ncols]
    slack_ok = A @ x - b
    residual = float(max(0.0, slack_ok.max(), -x.min(), (x - hi)[np.isfinite(hi)].max(initial=0.0)))
    active = [int(i) for i in np.flatnonzero(np.abs(slack_ok) <= 1e-7 * (1.0 + np.abs(b)))]
    return SolveResult(x, float(f @ x), iters, residual, active)
