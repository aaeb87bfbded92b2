"""Small dense linear-program solver (one-phase tableau simplex) and the
cutting-plane loop that it serves.

Solves  maximize f^T x  s.t.  A x <= b,  0 <= x <= hi  for dense data with
at most a few thousand rows, under the contract b >= 0 and hi >= 0, so that
x = 0 is feasible and no phase 1 is needed.  This is the form of every cut
LP of :func:`cut_loop`.  Pivoting is deterministic: Dantzig's rule with
lowest-index tie-breaking, falling back to Bland's anti-cycling rule after a
degenerate stall, so identical inputs always produce identical output.

A :class:`CutLP` owns one live tableau and takes every solve on one path:
append rows to an optimal tableau, where they only break primal
feasibility, restore it with dual simplex pivots (Lemke 1954) and finish
with a primal pass.  Building it appends every row to the empty tableau,
which is the simplex from the slack basis; :meth:`CutLP.add` appends more.
:func:`solve_lp` builds one from a :class:`LinearProgram`.  The tableau is
written in z = x / hi for every column with a finite hi > 0, and a build
lifts a cost row whose largest entry is below 1 into [1, 2) by a power of
two, so the absolute tolerances depend on the units of neither x nor f; a
tiny row is dropped only when no z in the unit box can violate it.

A cut LP has a few to a few dozen rows, so a numpy call costs more than
its arithmetic, and the bookkeeping runs on Python scalars: the basis is a
list, the ratio tests read their row or column once with ``tolist``, x is
read from one ``tolist`` of the right-hand sides, and a row's slack entry
is written in place.  Every operation that makes a tableau bit is numpy's:
the row scaling, the block copies into the grown tableau, the elimination
of the basic columns as one matrix product, and each pivot's divide, outer
product and subtraction.

:func:`cut_loop` (Kelley 1960) solves  max c^T x  over a box subject to
g(x) <= radius  for a convex, degree-1 homogeneous g known only through a
separation oracle: the sampled CVaR and scenario programs of
:mod:`rarecc.methods` (through :func:`exact_cut_loop`) and the limit
programs of :mod:`rarecc.limits`.  It keeps one :class:`CutLP` and appends
one cut per round.
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
MAX_CUT_ROUNDS = 200


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


def _pivot(T: np.ndarray, basis: list, row: int, col: int,
           scratch: np.ndarray) -> None:
    prow = T[row] / T[row, col]
    coef = T[:, col].copy()
    coef[row] = 0.0
    np.multiply(coef[:, None], prow[None, :], out=scratch)
    np.subtract(T, scratch, out=T)
    T[row] = prow
    basis[row] = col


def _primal_step(T: np.ndarray, basis: list, ncols: int, bland: bool):
    """Entering column by reduced cost, leaving row by the ratio test; None
    once every reduced cost is >= -_COST_TOL."""
    costs = T[-1, :ncols].tolist()
    if bland:
        col = next((j for j, cost in enumerate(costs) if cost < -_COST_TOL), None)
        if col is None:
            return None
    else:
        low = min(costs)
        if low >= -_COST_TOL:
            return None
        col = costs.index(low)
    colvals = T[:-1, col].tolist()
    if not any(v > _PIVOT_TOL for v in colvals):
        raise UnboundedError("LP is unbounded; call sites must supply box bounds")
    ratios = [max(r, 0.0) / v if v > _PIVOT_TOL else math.inf
              for r, v in zip(T[:-1, -1].tolist(), colvals)]
    cap = min(ratios) + 1e-12
    return min((basis[i], i) for i, r in enumerate(ratios) if r <= cap)[1], col


def _dual_step(T: np.ndarray, basis: list, ncols: int, bland: bool):
    """Leaving row by its negative right-hand side, entering column by the
    dual ratio test, which keeps every reduced cost >= 0; None once every
    right-hand side is >= -_FEAS_TOL, or when there is no row."""
    rhs = T[:-1, -1].tolist()
    if not rhs:
        return None
    if bland:
        elig = [i for i, r in enumerate(rhs) if r < -_FEAS_TOL]
        if not elig:
            return None
        row = min(elig, key=basis.__getitem__)
    else:
        low = min(rhs)
        if low >= -_FEAS_TOL:
            return None
        row = rhs.index(low)
    costs = T[-1, :ncols].tolist()
    cand = [(max(costs[j], 0.0) / -v, j) for j, v in enumerate(T[row, :ncols].tolist())
            if v < -_PIVOT_TOL]
    if not cand:
        # x = 0 satisfies every row, so this is rounding, not infeasibility
        raise RareccError("dual simplex found no pivot in a violated row")
    cap = min(cand)[0] + 1e-12
    return row, next(j for ratio, j in cand if ratio <= cap)


def _iterate(T: np.ndarray, basis: list, ncols: int, step, sense: float) -> int:
    """Pivot at ``step``'s choices until it returns None; returns the pivot
    count.  The objective T[-1, -1] moves in direction ``sense`` (+1 for
    primal, -1 for dual pivots); after _STALL_LIMIT pivots that do not move
    it, ``step`` switches to Bland's rule."""
    iters = 0
    stall = 0
    bland = False
    last_obj = float(T[-1, -1])
    max_iters = 200 * (T.shape[0] + ncols)
    scratch = None
    while True:
        choice = step(T, basis, ncols, bland)
        if choice is None:
            return iters
        if scratch is None:
            scratch = np.empty_like(T)
        _pivot(T, basis, *choice, scratch)
        iters += 1
        obj = float(T[-1, -1])
        if sense * obj > sense * last_obj + 1e-12 * (1.0 + abs(last_obj)):
            last_obj = obj
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
    y in the unit box violates it; a tiny row with a tinier g is kept.  A
    column without a finite bound is then solved as if the dropped rows were
    absent: if no other row bounds it, a positive cost there raises
    :class:`UnboundedError`, and when every row is dropped the LP is solved
    over the bounds alone.  One row, as a Kelley round appends, takes a
    scalar scale: the same divisions at a fraction of the calls."""
    if g.size == 1:
        scale = max(map(abs, G[0].tolist()))
        if scale > _PIVOT_TOL or np.maximum(G, 0.0).sum() > g[0]:
            return G / scale, g / scale
        return G[:0], g[:0]
    scale = np.abs(G).max(axis=1)
    keep = scale > _PIVOT_TOL
    if not keep.all():
        keep |= np.maximum(G, 0.0).sum(axis=1) > g
        G, g, scale = G[keep], g[keep], scale[keep]
    return G / scale[:, None], g / scale


def _column_unit(hi: float) -> float:
    """The unit of a tableau column, which holds z = x / unit: the column's
    bound hi where that is finite and > 0, else 1."""
    return hi if 0.0 < hi < math.inf else 1.0


class CutLP:
    """The live, optimal tableau of  max f^T x  s.t.  A x <= b,  0 <= x <= hi
    (b >= 0, hi >= 0), to which rows can be appended.

    Building it is the cold solve: the rows A x <= b, then the finite
    bounds, appended to the empty tableau [-f | 0], where the dual pass makes
    no pivot and the primal pass is the simplex from the slack basis.
    :meth:`add` appends more rows.  ``T`` holds z = x / ``col`` for the
    units of :func:`_column_unit`, and a cost row whose largest entry is
    below 1 is lifted into [1, 2) by a power of two, which keeps every cost's
    bits.  ``x`` is the optimal vertex, ``pivots`` the pivot count so far.
    """

    def __init__(self, f: np.ndarray, A: np.ndarray, b: np.ndarray, hi: np.ndarray):
        self.col = col = np.array([_column_unit(h) for h in hi.tolist()])
        bounded = np.flatnonzero(np.isfinite(hi))
        cost = np.append(-f * col, 0.0)
        top = np.abs(cost).max()
        if 0.0 < top < 1.0:
            cost = np.ldexp(cost, 1 - math.frexp(top)[1])
        self.T, self.basis, self.pivots = cost[None], [], 0
        self._append(np.vstack([A * col, np.eye(f.size)[bounded]]),
                     np.concatenate([b, hi[bounded] / col[bounded]]))

    def add(self, A: np.ndarray, b: np.ndarray) -> None:
        """Append the rows A x <= b, given in x, and reoptimise."""
        self._append(A * self.col, b)

    def _append(self, G: np.ndarray, g: np.ndarray) -> None:
        """Append the rows G z <= g and reoptimise.

        Each row, scaled by :func:`_scaled_rows`, gets a slack column and is
        written in the terms of the optimal basis.  The reduced costs are
        unchanged, so the basis stays dual feasible, and dual pivots restore
        primal feasibility; a final primal pass, which does not pivot when
        they end at an optimum, guards the cost tolerance.
        """
        G, g = _scaled_rows(G, g)
        T0, n = self.T, self.col.size
        rows0, cols0 = T0.shape[0] - 1, T0.shape[1] - 1
        added = g.size
        T = np.zeros((rows0 + added + 1, cols0 + added + 1))
        T[:rows0, :cols0] = T0[:-1, :-1]
        T[:rows0, -1] = T0[:-1, -1]
        T[-1, :cols0] = T0[-1, :-1]
        T[-1, -1] = T0[-1, -1]
        new = T[rows0:-1]
        new[:, :n] = G
        # the new slack columns; new is C-contiguous, so ravel() is a view
        new.ravel()[cols0::new.shape[1] + 1] = 1.0
        new[:, -1] = g
        if rows0:
            # eliminate the basic columns; basic columns of T0 are exact unit vectors
            new -= new.take(self.basis, axis=1) @ T[:rows0]
        basis = self.basis + list(range(cols0, cols0 + added))
        total = cols0 + added
        self.pivots += _iterate(T, basis, total, _dual_step, -1.0)
        self.pivots += _iterate(T, basis, total, _primal_step, 1.0)
        # x is read from the rows whose basic column is structural
        value = dict(zip(basis, T[:-1, -1].tolist()))
        self.T, self.basis, self.x = T, basis, self.col * [value.get(j, 0.0) for j in range(n)]


def solve_lp(lp: LinearProgram) -> SolveResult:
    """Solve the LP from the slack basis and return an optimal vertex.

    The region always holds x = 0, so there is no infeasible outcome;
    unboundedness raises :class:`UnboundedError` because every call site is
    supposed to pass a bounded region.
    """
    f, A, b, hi = lp.objective, lp.A, lp.b, lp.hi
    tableau = CutLP(f, A, b, hi)
    x = tableau.x
    slack_ok = A @ x - b
    # largest violation of A x <= b, x >= 0 and x <= hi (-inf where hi is)
    residual = max(0.0, float(np.concatenate([slack_ok, -x, x - hi]).max()))
    active = (np.abs(slack_ok) <= 1e-7 * (1.0 + np.abs(b))).nonzero()[0].tolist()
    return SolveResult(x, float(f @ x), tableau.pivots, residual, active)


def cut_loop(c: np.ndarray, upper: np.ndarray, radius: float, separate):
    """Kelley's cutting-plane method for  max c^T x  s.t.  0 <= x <= upper,
    g(x) <= radius,  with g convex and positively homogeneous of degree 1.

    ``separate(x)`` returns ``(g(x), s)`` with s a subgradient at x, so that
    g(x) = s^T x and s^T y <= g(y) for every y; each cut s^T y <= radius is
    therefore valid.  Every round solves the small LP over the box and the
    cuts so far, whose optimum bounds the true one from above, and separates
    there.  The loop keeps that LP live in one :class:`CutLP`: round 1
    builds it from the first cut, every later round appends the new cut; a
    non-finite cut raises :class:`InputError`.  When x has one coordinate,
    round 1 takes the 1x1 LP's single pivot here, in the LP's own
    arithmetic, and g is linear on [0, upper], so that cut ends the loop; a
    second round, which rounding could ask for, builds the LP from both cuts.

    The loop stops at the first iterate with g(x) <= radius (1 + 1e-12),
    when the LP returns the iterate it was given (its tolerances cannot
    resolve the newest cut), or after ``MAX_CUT_ROUNDS`` rounds.  It returns
    (x, g(x), cut count, pivots) for the last iterate x, which optimizes a
    relaxation, so c^T x bounds the optimum from above.  Callers check g(x)
    against the radius themselves.
    """
    x = np.where(c > 0, upper, 0.0)
    last = x.tolist()
    rhs = np.array([radius])
    cuts: list[np.ndarray] = []
    pivots, lp = 0, None
    g, s = separate(x)
    for _ in range(MAX_CUT_ROUNDS):
        if g <= radius * (1.0 + 1e-12):
            break
        if not all(map(math.isfinite, s.tolist())):
            raise InputError(f"cut coefficients must be finite, got {s!r}")
        cuts.append(s)
        if c.size == 1 and len(cuts) == 1:
            # the 1x1 cut LP's one pivot, in its arithmetic: the scaled cut
            # reads z <= q, the bound row z <= 1, and the ratio test's tie
            # goes to the cut row's lower basis index
            col = _column_unit(upper[0])
            q = radius / (s[0] * col)
            new_x = np.array([col * (q if q <= 1.0 + 1e-12 else 1.0)])
            pivots = 1
        elif lp is None:
            lp = CutLP(c, np.array(cuts), np.full(len(cuts), radius), upper)
            new_x = lp.x
        else:
            lp.add(s[None], rhs)
            new_x = lp.x
        if (new := new_x.tolist()) == last:
            break
        x, last = new_x, new
        g, s = separate(x)
    return x, g, len(cuts), pivots + (lp.pivots if lp else 0)


def exact_cut_loop(c: np.ndarray, upper: np.ndarray, radius: float, separate):
    """:func:`cut_loop` for the sampled LPs, whose optimum it must reach.

    The LP cannot see a cut's violation below ``_FEAS_TOL`` times the cut's
    largest entry times ``upper`` (4e-10 relative in a loose box), and then
    returns its own iterate x.  If g(x) - radius is within 10 times that,
    the feasible x radius / g(x) is separated and returned instead; its
    value lies below the optimum by at most a relative g(x) / radius - 1.
    Returns :func:`cut_loop`'s tuple and that bound, the stall excess, which
    is 0.0 when the loop's own iterate is returned.
    """
    x, g, cuts, pivots = cut_loop(c, upper, radius, separate)
    excess = 0.0
    if g > radius * (1.0 + 1e-12):
        scaled = x * radius / g
        g_scaled, s = separate(scaled)      # also a subgradient at x
        if g - radius <= 10.0 * _FEAS_TOL * np.max(s * upper):
            x, g, excess = scaled, g_scaled, g / radius - 1.0
    if g > radius * (1.0 + 1e-12):
        raise RareccError(f"cutting-plane loop stopped at g(x) / radius = {g / radius!r} "
                          f"after {cuts} cuts")
    return x, g, cuts, pivots, excess
