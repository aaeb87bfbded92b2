"""Independent reference computations used as test oracles.

Everything here is deliberately written from first principles (sorting,
enumeration, closed forms, linear programs assembled in full) rather than
through the package's own code paths, so agreement is evidence and not
tautology.  The full linear programs are handed to the package's simplex,
which is itself checked against :func:`brute_force_lp`.
"""

import itertools
import math

import numpy as np

import rarecc.lpsolve as lpsolve
from rarecc.errors import RareccError, UnboundedError
from rarecc.lpsolve import (MAX_CUT_ROUNDS, CutLP, LinearProgram, _column_unit,
                            exact_cut_loop, solve_lp)
from rarecc.methods import _oracle_directions, wilson_halfwidth
from rarecc.model import box_clip, phi_many
from rarecc.sampler import copula_exponent, draws_range


class NumpyCutLP(CutLP):
    """``rarecc.lpsolve.CutLP`` with every append written in whole-array
    numpy: the basis is an integer array, every row is scaled, tested and
    written by array operations, each pivot's ratio test runs on arrays,
    and x is gathered by the basis.  It reads the tolerances and the stall
    limit from ``rarecc.lpsolve`` when it runs, so a patched ``_STALL_LIMIT``
    switches both to Bland's rule.  The package's append must give the same
    tableau, basis, pivots and x bit for bit."""

    def _append(self, G, g):
        scale = np.abs(G).max(axis=1)
        keep = (scale > lpsolve._PIVOT_TOL) | (np.maximum(G, 0.0).sum(axis=1) > g)
        G, g = G[keep] / scale[keep][:, None], g[keep] / scale[keep]
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
        np.fill_diagonal(new[:, cols0:-1], 1.0)
        new[:, -1] = g
        basis0 = np.asarray(self.basis, dtype=int)
        if rows0:
            new -= new[:, basis0] @ T[:rows0]
        basis = np.concatenate((basis0, np.arange(cols0, cols0 + added)))
        total = cols0 + added
        self.pivots += _numpy_iterate(T, basis, total, _numpy_dual_step, -1.0)
        self.pivots += _numpy_iterate(T, basis, total, _numpy_primal_step, 1.0)
        rows = (basis < n).nonzero()[0]
        x = np.zeros(n)
        x[basis[rows]] = T[rows, -1]
        self.T, self.basis, self.x = T, basis, self.col * x


def _numpy_primal_step(T, basis, ncols, bland):
    costs = T[-1, :ncols]
    if bland:
        elig = (costs < -lpsolve._COST_TOL).nonzero()[0]
        if elig.size == 0:
            return None
        col = int(elig[0])
    else:
        col = int(costs.argmin())
        if costs[col] >= -lpsolve._COST_TOL:
            return None
    colvals = T[:-1, col]
    ok = colvals > lpsolve._PIVOT_TOL
    if not ok.any():
        raise UnboundedError("unbounded")
    ratios = np.where(ok, np.maximum(T[:-1, -1], 0.0) / np.where(ok, colvals, 1.0), np.inf)
    tied = (ratios <= ratios.min() + 1e-12).nonzero()[0]
    return int(tied[basis[tied].argmin()]), col


def _numpy_dual_step(T, basis, ncols, bland):
    rhs = T[:-1, -1]
    if rhs.size == 0:
        return None
    if bland:
        elig = (rhs < -lpsolve._FEAS_TOL).nonzero()[0]
        if elig.size == 0:
            return None
        row = int(elig[basis[elig].argmin()])
    else:
        row = int(rhs.argmin())
        if rhs[row] >= -lpsolve._FEAS_TOL:
            return None
    rowvals = T[row, :ncols]
    cand = (rowvals < -lpsolve._PIVOT_TOL).nonzero()[0]
    if cand.size == 0:
        raise RareccError("no dual pivot")
    ratios = np.maximum(T[-1, cand], 0.0) / -rowvals[cand]
    return row, int(cand[(ratios <= ratios.min() + 1e-12).argmax()])


def _numpy_iterate(T, basis, ncols, step, sense):
    iters = stall = 0
    bland = False
    last_obj = T[-1, -1]
    while True:
        choice = step(T, basis, ncols, bland)
        if choice is None:
            return iters
        row, col = choice
        prow = T[row] / T[row, col]
        coef = T[:, col].copy()
        coef[row] = 0.0
        T -= coef[:, None] * prow[None, :]
        T[row] = prow
        basis[row] = col
        iters += 1
        if sense * T[-1, -1] > sense * last_obj + 1e-12 * (1.0 + abs(last_obj)):
            last_obj, stall = T[-1, -1], 0
        else:
            stall += 1
            bland = bland or stall >= lpsolve._STALL_LIMIT
        if iters > 200 * (T.shape[0] + ncols):
            raise RareccError("iteration limit")


def chained_cut_loop(c, upper, radius, separate):
    """Kelley's cut loop with the arguments and return tuple of
    ``rarecc.lpsolve.cut_loop``, each round a full, validated
    ``LinearProgram`` over every cut so far: the first such LP builds a
    ``CutLP``, and each later one is appended to it by ``CutLP.add`` with
    the rows beyond the previous LP's.  The loop, which appends one cut per
    round and builds no LP, must match it to the bit.  A scalar program's
    first cut LP is taken by its one pivot in closed form, as in the
    package."""
    x = np.where(c > 0, upper, 0.0)
    cuts = []
    pivots = 0
    cut_lp = prev = None
    g, s = separate(x)
    for _ in range(MAX_CUT_ROUNDS):
        if g <= radius * (1.0 + 1e-12):
            break
        cuts.append(s)
        if c.size == 1 and len(cuts) == 1:
            col = _column_unit(upper[0])
            q = radius / (s[0] * col)
            new_x = np.array([col * (q if q <= 1.0 + 1e-12 else 1.0)])
            pivots += 1
        else:
            lp = LinearProgram(objective=c, A=np.array(cuts), b=np.full(len(cuts), radius),
                               hi=upper)
            if cut_lp is None:
                cut_lp = CutLP(lp.objective, lp.A, lp.b, lp.hi)
            else:
                k = prev.b.size
                cut_lp.add(lp.A[k:], lp.b[k:])
            prev = lp
            new_x = cut_lp.x
        if np.array_equal(new_x, x):
            break
        x = new_x
        g, s = separate(x)
    return x, g, len(cuts), pivots + (cut_lp.pivots if cut_lp else 0)


def whole_sample_oracle(problem, tail, delta, budget, seed):
    """``rarecc.methods.ccp_oracle``'s (x, value, violation, half-width) on
    the whole sample: every direction scores all ``budget`` draws, takes the
    order statistic of rank ceil(budget (1 - delta)) and clips u / q to the
    box; the violations are counted on all the draws."""
    draws = draws_range(tail, seed, 0, budget)
    rank = math.ceil(budget * (1.0 - delta))
    best_val, best = -math.inf, None
    for u in _oracle_directions(problem.m):
        scores = phi_many(problem, u, draws)
        q = float(np.sort(scores)[rank - 1])
        x = np.where(u > 0, problem.h, 0.0) if q <= 0.0 else box_clip(problem, u / q)
        if float(problem.c @ x) > best_val:
            best_val, best = float(problem.c @ x), (u, x, scores, q)
    u, x, scores, q = best
    if q > 0.0 and (u / q <= problem.h).all():
        hits = int((scores > q).sum())
    else:
        hits = int((phi_many(problem, x, draws) > 1.0).sum())
    return x, best_val, hits / budget, wilson_halfwidth(hits, budget)


def whole_sample_cvar(problem, tail, delta, count, seed):
    """``rarecc.methods.cvar_solve``'s (x, value, violation, half-width,
    tau, outer iterations, LP iterations) on the whole sample: each round
    sorts all ``count`` losses, weights the k = ceil(delta count) largest,
    in draw order, by 1/(delta count) and the k-th largest by the
    fractional remainder, and cuts with the same weights on the
    loss-attaining rows A_i L_j; the violations are counted on all the
    draws."""
    draws = draws_range(tail, seed, 0, count)
    dn = delta * count
    k = math.ceil(dn)
    state = {}

    def separate(x):
        losses = phi_many(problem, x, draws)
        largest = np.argsort(losses, kind="stable")[count - k:]
        top = np.sort(largest)
        weights = np.full(k, 1.0 / dn)
        weights[top == largest[0]] = (dn - (k - 1)) / dn
        picked = draws[top]
        mats = problem.A[(picked @ (x @ problem.A).T).argmax(axis=1)]
        rows = np.einsum("jmn,jn->jm", mats, picked)
        state.update(losses=losses, var=float(losses[largest[0]]))
        return float(weights @ losses[top]), weights @ rows

    x, g, cuts, pivots, _ = exact_cut_loop(problem.c, np.full(problem.m, problem.h), 1.0,
                                           separate)
    hits = int((state["losses"] > 1.0).sum())
    return (x, float(problem.c @ x), hits / count, wilson_halfwidth(hits, count),
            min(state["var"] - 1.0, 0.0), cuts + 1, pivots)


def empirical_cvar(losses: np.ndarray, delta: float) -> float:
    """min over tau of tau + E_hat[(L - tau)^+] / delta.

    The objective is piecewise linear with kinks at the order statistics, so
    the minimum is attained at one of them; with s the descending sort and
    S the prefix sums, the objective at tau = s[k] is
    s[k] (1 - k/(delta n)) + S[k]/(delta n).
    """
    n = losses.size
    k_max = min(n, max(2 * int(math.ceil(delta * n)) + 5, 30))
    s = np.sort(losses)[::-1][:k_max]
    prefix = np.concatenate([[0.0], np.cumsum(s[:-1])])
    k = np.arange(k_max)
    vals = s * (1.0 - k / (delta * n)) + prefix / (delta * n)
    return float(vals.min())


def ru_cvar_lp(c, h, A, draws, delta):
    """Optimal (value, x) of the full Rockafellar-Uryasev LP

        max c^T x  s.t.  t + (1/(delta N)) sum_j s_j <= 1,
                         x^T A_i L_j - t - s_j <= 0   for every i and j,
                         0 <= x <= h,  t >= 0,  s >= 0,

    one slack per draw and one row per (matrix, draw) pair.  Losses are
    nonnegative, so restricting the threshold t to t >= 0 loses nothing.
    """
    A = np.asarray(A, dtype=float)
    d, m, _ = A.shape
    N = draws.shape[0]
    rows = np.zeros((d * N + 1, m + 1 + N))
    rows[0, m] = 1.0
    rows[0, m + 1:] = 1.0 / (delta * N)
    for i in range(d):
        block = rows[1 + i * N:1 + (i + 1) * N]
        block[:, :m] = draws @ A[i].T
        block[:, m] = -1.0
        block[np.arange(N), m + 1 + np.arange(N)] = -1.0
    b = np.zeros(d * N + 1)
    b[0] = 1.0
    f = np.zeros(m + 1 + N)
    f[:m] = c
    hi = np.full(m + 1 + N, np.inf)
    hi[:m] = h
    res = solve_lp(LinearProgram(objective=f, A=rows, b=b, hi=hi))
    return res.objective, res.x[:m]


def ks_distance(samples, cdf) -> float:
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = np.asarray([cdf(v) for v in s])
    return float(max(np.abs(np.arange(1, n + 1) / n - f).max(),
                     np.abs(f - np.arange(n) / n).max()))


def brute_force_lp(f, A, b, hi) -> float:
    """Optimal value by enumerating every candidate vertex (active-set
    combinations of rows, lower bounds and upper bounds)."""
    A = np.asarray(A, dtype=float)
    M, N = A.shape
    cands = [("r", i) for i in range(M)] + [("l", j) for j in range(N)] \
        + [("u", j) for j in range(N)]
    best = -math.inf
    for combo in itertools.combinations(cands, N):
        G = np.zeros((N, N))
        g = np.zeros(N)
        for k, (t, i) in enumerate(combo):
            if t == "r":
                G[k], g[k] = A[i], b[i]
            elif t == "l":
                G[k, i], g[k] = 1.0, 0.0
            else:
                G[k, i], g[k] = 1.0, hi[i]
        try:
            x = np.linalg.solve(G, g)
        except np.linalg.LinAlgError:
            continue
        if (A @ x <= b + 1e-9).all() and (x >= -1e-9).all() and (x <= hi + 1e-9).all():
            best = max(best, float(np.dot(f, x)))
    return best


def diag_lt_optimum(a, c, gamma):
    """KKT solution of  max c^T y  s.t.  sum (a_i y_i)^(gamma/(gamma-1)) <= 1
    for gamma > 1, and the vertex solution y_i = 1/a_i for gamma <= 1."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if gamma <= 1.0:
        y = 1.0 / a
        return y, float(c @ y)
    s = np.sum((c / a) ** gamma)
    y = (c / a) ** (gamma - 1.0) / (a * s ** ((gamma - 1.0) / gamma))
    return y, float(s ** (1.0 / gamma))


def _project_scaled_simplex(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0 : b^T x = 1} (breakpoint scan)."""
    pos = b > 0
    bp, vp = b[pos], v[pos]
    ratios = vp / bp
    order = np.argsort(-ratios, kind="stable")
    bs, vs = bp[order], vp[order]
    cum_bv = np.cumsum(bs * vs)
    cum_bb = np.cumsum(bs * bs)
    mu = None
    for k in range(bs.size):
        cand = (cum_bv[k] - 1.0) / cum_bb[k]
        upper = ratios[order][k]
        lower = ratios[order][k + 1] if k + 1 < bs.size else -math.inf
        if lower <= cand <= upper + 1e-15:
            mu = cand
            break
    if mu is None:
        mu = (cum_bv[-1] - 1.0) / cum_bb[-1]
    x = np.maximum(v - mu * b, 0.0)
    x[~pos] = np.maximum(v[~pos], 0.0)
    return x


def rate_numeric(model, b) -> float:
    """Decay rate I(b) of the light model by direct minimization of the
    copula exponent lambda over {x >= 0 : b^T x >= 1}, for b with a positive
    entry.  Candidate vertices e_i / b_i are always evaluated; a
    projected-gradient descent from the analytic center handles the smooth
    regime.  No dual norm is used, so agreement with ``rate_I`` checks it.
    """
    b = np.asarray(b, dtype=float)
    if math.isinf(model.theta):
        # comonotone limit: equalize the active coordinates
        pos = b > 0
        x = np.zeros_like(b)
        x[pos] = 1.0 / b[pos].sum()
        return copula_exponent(model, x)
    beta, theta = model.beta, model.theta
    gamma = beta * theta
    best = math.inf
    for i in np.flatnonzero(b > 0):
        x = np.zeros_like(b)
        x[i] = 1.0 / b[i]
        best = min(best, copula_exponent(model, x))

    x = b / float(b @ b)
    fx = copula_exponent(model, x)
    for _ in range(800):
        s = np.sum(x ** gamma)
        if s <= 0:
            break
        grad = np.zeros_like(x)
        pos = x > 0
        grad[pos] = (gamma / theta) * s ** (1.0 / theta - 1.0) * x[pos] ** (gamma - 1.0)
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            break
        step = 0.5 / gnorm
        improved = False
        for _ in range(40):
            cand = _project_scaled_simplex(x - step * grad, b)
            fc = copula_exponent(model, cand)
            if fc < fx - 1e-16:
                x, fx, improved = cand, fc, True
                break
            step *= 0.5
        if not improved:
            break
    return min(best, fx)


def holder_ht_optimum(w, c, alpha):
    """Solution of  max c^T y  s.t.  sum_j w_j y_j^alpha <= 1  by Hoelder's
    inequality: the heavy limit program for A = I with one atom per axis.
    With q = alpha/(alpha-1) and S = sum_j c_j^q w_j^(1-q), the optimum is
    S^(1/q), attained at y_j = (c_j/w_j)^(q-1) S^(-1/alpha)."""
    w = np.asarray(w, dtype=float)
    c = np.asarray(c, dtype=float)
    q = alpha / (alpha - 1.0)
    s = np.sum(c ** q * w ** (1.0 - q))
    return (c / w) ** (q - 1.0) * s ** (-1.0 / alpha), float(s ** (1.0 / q))


def pareto_cc_value(alpha: float, delta: float, a: float = 1.0, c: float = 1.0) -> float:
    """Exact scalar chance-constrained optimum for a Pareto(alpha) factor."""
    return c * delta ** (1.0 / alpha) / a


def pareto_cvar_value(alpha: float, delta: float, a: float = 1.0, c: float = 1.0) -> float:
    """Exact scalar CVaR-constrained optimum: CVaR_delta of Pareto(alpha) is
    (alpha/(alpha-1)) delta^(-1/alpha)."""
    return c * (1.0 - 1.0 / alpha) * delta ** (1.0 / alpha) / a


def exp_cc_value(delta: float, a: float = 1.0, c: float = 1.0) -> float:
    return c / (a * math.log(1.0 / delta))


def exp_cvar_value(delta: float, a: float = 1.0, c: float = 1.0) -> float:
    """Uses E[L - u | L > u] = 1 for a unit exponential."""
    return c / (a * (math.log(1.0 / delta) + 1.0))


def weibull_cv(alpha: float) -> float:
    m1 = math.gamma(1.0 + 1.0 / alpha)
    m2 = math.gamma(1.0 + 2.0 / alpha)
    return math.sqrt(m2 - m1 * m1) / m1
