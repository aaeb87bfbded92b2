"""Small dense linear-program solver (one-phase tableau simplex).

Solves  maximize f^T x  s.t.  A x <= b,  0 <= x <= hi  for dense data with
at most a few thousand rows, under the contract b >= 0 and hi >= 0, so that
x = 0 is feasible and no phase 1 is needed.  This is the form of every cut
LP of :func:`rarecc.methods._cut_loop`.  Pivoting is deterministic:
Dantzig's rule with lowest-index tie-breaking, falling back to Bland's
anti-cycling rule after a degenerate stall, so identical inputs always
produce identical output.

Every solve takes one path, :func:`_extend`: append rows to an optimal
tableau, where they only break primal feasibility, restore it with dual
simplex pivots (Lemke 1954) and finish with a primal pass.  A cold solve,
:func:`_cold`, extends the empty tableau by every row, which is the simplex
from the slack basis; :func:`_add_rows` extends an optimal tableau by more
rows.  ``solve_lp(lp, start=)`` adds the rows of ``lp`` after those of the
earlier result; the cut loop calls :func:`_cold` in its first round and
:func:`_add_rows` with each new cut after it, without building a
:class:`LinearProgram` per round, so its pivots and bits are those of
chained ``solve_lp(lp, start=previous)`` calls.  The tableau is written in
z = x / hi for every column with a finite hi > 0, and a cold solve lifts a
cost row whose largest entry is below 1 into [1, 2) by a power of two, so
the absolute tolerances depend on the units of neither x nor f; a tiny row
is dropped only when no z in the unit box can violate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, InputError, RareccError, UnboundedError

_PIVOT_TOL = 1e-10       # minimum magnitude of an acceptable pivot element
_COST_TOL = 1e-9
_FEAS_TOL = 1e-12        # a scaled row's right-hand side below -_FEAS_TOL needs a dual pivot
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
    """Optimal vertex of one LP solve.

    ``_tableau`` holds the LP and its tableau state, the optimal tableau,
    basis and column scale, which a later :func:`solve_lp` with ``start=`` this result
    re-optimises from; it is left out of repr and equality.
    """

    x: np.ndarray
    objective: float
    iterations: int
    residual: float
    active_rows: list = field(default_factory=list)
    _tableau: tuple | None = field(default=None, repr=False, compare=False)


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int,
           scratch: np.ndarray) -> None:
    prow = T[row] / T[row, col]
    coef = T[:, col].copy()
    coef[row] = 0.0
    np.multiply(coef[:, None], prow[None, :], out=scratch)
    np.subtract(T, scratch, out=T)
    T[row] = prow
    basis[row] = col


def _primal_step(T: np.ndarray, basis: np.ndarray, ncols: int, bland: bool):
    """Entering column by reduced cost, leaving row by the ratio test; None
    once every reduced cost is >= -_COST_TOL."""
    costs = T[-1, :ncols]
    if bland:
        elig = (costs < -_COST_TOL).nonzero()[0]
        if elig.size == 0:
            return None
        col = int(elig[0])
    else:
        col = int(costs.argmin())
        if costs[col] >= -_COST_TOL:
            return None
    colvals = T[:-1, col]
    rhs = np.maximum(T[:-1, -1], 0.0)
    ok = colvals > _PIVOT_TOL
    if not ok.any():
        raise UnboundedError("LP is unbounded; call sites must supply box bounds")
    ratios = np.where(ok, rhs / np.where(ok, colvals, 1.0), np.inf)
    tied = (ratios <= ratios.min() + 1e-12).nonzero()[0]
    return int(tied[basis[tied].argmin()]), col


def _dual_step(T: np.ndarray, basis: np.ndarray, ncols: int, bland: bool):
    """Leaving row by its negative right-hand side, entering column by the
    dual ratio test, which keeps every reduced cost >= 0; None once every
    right-hand side is >= -_FEAS_TOL."""
    rhs = T[:-1, -1]
    if bland:
        elig = (rhs < -_FEAS_TOL).nonzero()[0]
        if elig.size == 0:
            return None
        row = int(elig[basis[elig].argmin()])
    else:
        row = int(rhs.argmin())
        if rhs[row] >= -_FEAS_TOL:
            return None
    rowvals = T[row, :ncols]
    cand = (rowvals < -_PIVOT_TOL).nonzero()[0]
    if cand.size == 0:
        # x = 0 satisfies every row, so this is rounding, not infeasibility
        raise RareccError("dual simplex found no pivot in a violated row")
    ratios = np.maximum(T[-1, cand], 0.0) / -rowvals[cand]
    return row, int(cand[(ratios <= ratios.min() + 1e-12).argmax()])


def _iterate(T: np.ndarray, basis: np.ndarray, ncols: int, step, sense: float) -> int:
    """Pivot at ``step``'s choices until it returns None; returns the pivot
    count.  The objective T[-1, -1] moves in direction ``sense`` (+1 for
    primal, -1 for dual pivots); after _STALL_LIMIT pivots that do not move
    it, ``step`` switches to Bland's rule."""
    iters = 0
    stall = 0
    bland = False
    last_obj = T[-1, -1]
    max_iters = 200 * (T.shape[0] + ncols)
    scratch = np.empty_like(T)
    while True:
        choice = step(T, basis, ncols, bland)
        if choice is None:
            return iters
        _pivot(T, basis, *choice, scratch)
        iters += 1
        if sense * T[-1, -1] > sense * last_obj + 1e-12 * (1.0 + abs(last_obj)):
            last_obj = T[-1, -1]
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        if iters > max_iters:
            raise RareccError("simplex iteration limit exceeded")


def _scaled_rows(G: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of G y <= g less the vacuous ones, each scaled to largest
    magnitude 1.  A row is vacuous when its coefficients are all below the
    pivot tolerance and their positive part sums to at most g, so that no
    y in the unit box violates it; a tiny row with a tinier g is kept."""
    scale = np.abs(G).max(axis=1)
    keep = scale > _PIVOT_TOL
    if not keep.all():
        keep |= np.maximum(G, 0.0).sum(axis=1) > g
        G, g, scale = G[keep], g[keep], scale[keep]
    return G / scale[:, None], g / scale


def _extend(T0: np.ndarray, basis0: np.ndarray, ncols: int, G: np.ndarray,
            g: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Optimal tableau and basis after appending the rows G y <= g to the
    optimal tableau T0 with basis basis0, and the pivot count.

    Each row, scaled by :func:`_scaled_rows`, gets a slack column and is
    written in the terms of basis0.  The reduced costs are unchanged, so
    basis0 stays dual feasible, and dual pivots restore primal feasibility;
    a final primal pass, which does not pivot when they end at an optimum,
    guards the cost tolerance.  From the empty tableau [-f | 0] and g >= 0
    the dual pass makes no pivot and the primal pass is the simplex from the
    slack basis.
    """
    G, g = _scaled_rows(G, g)
    rows0, cols0 = T0.shape[0] - 1, T0.shape[1] - 1
    added = g.size
    if rows0 + added == 0:
        raise ContractError("all constraint rows vanished; region is unbounded")
    T = np.zeros((rows0 + added + 1, cols0 + added + 1))
    T[:rows0, :cols0] = T0[:-1, :-1]
    T[:rows0, -1] = T0[:-1, -1]
    T[-1, :cols0] = T0[-1, :-1]
    T[-1, -1] = T0[-1, -1]
    new = T[rows0:-1]
    new[:, :ncols] = G
    idx = np.arange(added)
    new[idx, cols0 + idx] = 1.0
    new[:, -1] = g
    if rows0:
        # eliminate the basic columns; basic columns of T0 are exact unit vectors
        new -= new[:, basis0] @ T[:rows0]
    basis = np.concatenate([basis0, cols0 + idx])
    total = cols0 + added
    iters = _iterate(T, basis, total, _dual_step, -1.0)
    return T, basis, iters + _iterate(T, basis, total, _primal_step, 1.0)


def _reoptimise(tab: tuple, G: np.ndarray, g: np.ndarray) -> tuple[tuple, int, np.ndarray]:
    """The tableau state (T, basis, col) after appending the rows G z <= g,
    written in z = x / col, to the optimal state ``tab``; the pivot count;
    and the x = col * z of its optimal vertex."""
    T0, basis0, col = tab
    T, basis, iters = _extend(T0, basis0, col.size, G, g)
    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:-1, -1]
    return (T, basis, col), iters, col * z[:col.size]


def _cold(f: np.ndarray, A: np.ndarray, b: np.ndarray,
          hi: np.ndarray) -> tuple[tuple, int, np.ndarray]:
    """:func:`_reoptimise` from the empty tableau by the rows A x <= b and
    the finite bounds: the simplex from the slack basis.  The tableau holds
    z = x / col for col = hi where hi is finite and > 0, else 1, and a cost
    row whose largest entry is below 1 is lifted into [1, 2) by a power of
    two, which keeps every cost's bits."""
    ncols = f.size
    col = np.where(np.isfinite(hi) & (hi > 0), hi, 1.0)
    ub_idx = np.flatnonzero(np.isfinite(hi))
    T0 = np.zeros((1, ncols + 1))
    T0[0, :ncols] = -f * col
    top = np.abs(T0[0]).max()
    if 0.0 < top < 1.0:
        T0[0] = np.ldexp(T0[0], 1 - math.frexp(top)[1])
    return _reoptimise((T0, np.empty(0, dtype=int), col),
                       np.vstack([A * col, np.eye(ncols)[ub_idx]]),
                       np.concatenate([b, hi[ub_idx] / col[ub_idx]]))


def _add_rows(tab: tuple, A: np.ndarray, b: np.ndarray) -> tuple[tuple, int, np.ndarray]:
    """:func:`_reoptimise` by the rows A x <= b, given in x."""
    return _reoptimise(tab, A * tab[2], b)


def _same(u: np.ndarray, v: np.ndarray) -> bool:
    return u is v or (u.shape == v.shape and bool((u == v).all()))


def solve_lp(lp: LinearProgram, start: SolveResult | None = None) -> SolveResult:
    """Solve the LP and return an optimal vertex.

    Without ``start`` the solve extends the empty tableau by every row of
    ``lp``.  ``start`` is an earlier result of this function for an LP with
    the same objective and ``hi`` whose rows are the first rows of ``lp``;
    the solve then extends its optimal tableau by the rest, and any other
    ``start`` raises :class:`ContractError`.  The region always holds x = 0,
    so there is no infeasible outcome; unboundedness raises
    :class:`UnboundedError` because every call site is supposed to pass a
    bounded region.
    """
    f, A, b, hi = lp.objective, lp.A, lp.b, lp.hi
    if start is None:
        tab, iters, x = _cold(f, A, b, hi)
    else:
        if start._tableau is None:
            raise ContractError("start carries no tableau to re-optimise from")
        prev, tab = start._tableau
        k = prev.b.size
        if not (k <= b.size and _same(prev.objective, f) and _same(prev.hi, hi)
                and _same(prev.A, A[:k]) and _same(prev.b, b[:k])):
            raise ContractError("start must solve the same objective and hi over the "
                                "first rows of this LP")
        tab, iters, x = _add_rows(tab, A[k:], b[k:])
    slack_ok = A @ x - b
    # largest violation of A x <= b, x >= 0 and x <= hi (-inf where hi is)
    residual = max(0.0, float(np.concatenate([slack_ok, -x, x - hi]).max()))
    active = (np.abs(slack_ok) <= 1e-7 * (1.0 + np.abs(b))).nonzero()[0].tolist()
    return SolveResult(x, float(f @ x), iters, residual, active, (lp, tab))
