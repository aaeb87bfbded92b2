"""Tail-rate functions and the small-risk limit programs.

The light-tail limit program maximizes c^T y over {y >= 0 : J(y) >= 1},
where J aggregates the decay rate I of the loss tail; the heavy-tail limit
program maximizes c^T y over {y >= 0 : sum_k w_k phi(y, theta_k)^alpha <= 1}.
Both constraints read g(y) <= 1 for a monotone, convex, degree-1 homogeneous
g: max_i ||A_i^T y||_p for light tails, (sum_k w_k phi(y, theta_k)^alpha)^(1/alpha)
for heavy ones.  Both programs are solved by the cutting-plane loop of
:mod:`rarecc.methods` with gradient cuts, polished by Newton steps on the KKT
system, and report the relative gap to the loop's upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError, ParameterError, UnboundedError
from .methods import _cut_loop
from .model import ProblemInstance, box_clip
from .sampler import (HeavyTailModel, LightTailModel, TailModel,
                      copula_exponent, tail_radius)

#: Distinguished value for "the rate constraint can never bind" (b = 0 or
#: zero loss rows).  Callers must branch on it; it never enters arithmetic.
INFEASIBLE_RATE = math.inf
_NEWTON_STEPS = 4          # KKT polishing steps after the cut loop
_METHOD = "ray-search"     # LimitSolution.method label written to the CLI's JSON


def is_infeasible_rate(value: float) -> bool:
    return math.isinf(value)


@dataclass(frozen=True)
class RateFunction:
    """Decay-rate evaluator for the light-tail family.

    mode "closed" uses the explicit dual-norm formula; mode "numeric" solves
    the inner minimization by projected gradient over the scaled simplex.
    The two must agree; tests exploit that as a cross-check.
    """

    model: LightTailModel
    mode: str = "closed"

    def __post_init__(self):
        if self.mode not in ("closed", "numeric"):
            raise ParameterError(f"unknown rate mode {self.mode!r}")

    @property
    def gamma(self) -> float:
        return self.model.beta * self.model.theta


@dataclass(frozen=True)
class LimitSolution:
    """Optimizer of a limit program plus solve diagnostics."""

    y_star: np.ndarray
    value: float
    residual: float
    method: str
    gap: float           # upper bound on the optimum over value, minus 1

    def to_json_dict(self) -> dict:
        return {
            "y_star": [float(v) for v in self.y_star],
            "value": float(self.value),
            "residual": float(self.residual),
            "method": self.method,
        }


def lambda_eval(model: LightTailModel, x) -> float:
    """Dependence exponent of the light model, homogeneous of degree beta."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise ContractError(f"x has shape {x.shape}, expected ({model.n},)")
    if not np.isfinite(x).all() or (x < 0).any():
        raise InputError("x must be finite and nonnegative")
    return copula_exponent(model, x)


def _check_b(b, n: int) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ContractError(f"b has shape {b.shape}, expected ({n},)")
    if not np.isfinite(b).all() or (b < 0).any():
        raise InputError("b must be finite and nonnegative")
    return b


def _dual_norm_order(model: LightTailModel) -> float:
    """The p with I(b) = ||b||_p^(-beta): 1 for theta = inf, inf for
    gamma = beta theta <= 1, and gamma / (gamma - 1) otherwise."""
    gamma = model.beta * model.theta
    if math.isinf(gamma):
        return 1.0
    if gamma <= 1.0:
        return math.inf
    return gamma / (gamma - 1.0)


def _dual_norm(B: np.ndarray, p: float) -> np.ndarray:
    """||b||_p of the nonnegative rows b of B (of b itself for a vector),
    scaled by the largest entry so that b^p cannot overflow or underflow;
    for p = inf the scaled entries below 1 vanish and the norm is the max."""
    top = B.max(axis=-1)
    Z = B / np.where(top > 0.0, top, 1.0)[..., None]
    return top * np.sum(Z ** p, axis=-1) ** (1.0 / p)


def _rate_closed(model: LightTailModel, b: np.ndarray) -> float:
    return float(_dual_norm(b, _dual_norm_order(model))) ** (-model.beta)


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


def _rate_numeric(model: LightTailModel, b: np.ndarray) -> float:
    """Inner minimization of lambda over {b^T x >= 1, x >= 0}.

    Candidate vertices e_i / b_i are always evaluated; a projected-gradient
    descent from the analytic center handles the smooth regime.
    """
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


def rate_I(rf: RateFunction, b) -> float:
    """Decay rate of P(b^T L > r): inf of lambda over {x >= 0 : b^T x >= 1}.

    Returns :data:`INFEASIBLE_RATE` for b = 0 (the constraint set is empty).
    Scales as I(t b) = t^(-beta) I(b).
    """
    b = _check_b(b, rf.model.n)
    if not (b > 0).any():
        return INFEASIBLE_RATE
    if rf.mode == "closed":
        return _rate_closed(rf.model, b)
    return _rate_numeric(rf.model, b)


def rate_J(rf: RateFunction, problem: ProblemInstance, y) -> float:
    """Aggregate rate min_i I(y^T A_i): the loss tail decays at speed J(y) q(r).

    Returns :data:`INFEASIBLE_RATE` when every y^T A_i vanishes.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.m,):
        raise ContractError(f"y has shape {y.shape}, expected ({problem.m},)")
    if not np.isfinite(y).all() or (y < 0).any():
        raise InputError("y must be finite and nonnegative")
    if rf.model.n != problem.n:
        raise ContractError("rate function and problem disagree on n")
    rows = y @ problem.A          # (d, n)
    best = INFEASIBLE_RATE
    for b in rows:
        if not (b > 0).any():
            continue
        val = rate_I(rf, b)
        if is_infeasible_rate(best) or val < best:
            best = val
    return best


def angular_moment(model: HeavyTailModel, problem: ProblemInstance, y) -> float:
    """Limit tail ratio sum_k w_k phi(y, theta_k)^alpha of the heavy model."""
    y = np.asarray(y, dtype=float)
    v = np.einsum("imn,kn->kim", problem.A, model.atoms)   # (K, d, m)
    phis = (v @ y).max(axis=1)
    return float(np.sum(model.weights * phis ** model.alpha))


def _solve_limit(c: np.ndarray, separate) -> tuple[np.ndarray, float]:
    """Maximize c^T y over {y >= 0 : g(y) <= 1} for a monotone, convex,
    degree-1 homogeneous g given by ``separate(y) = (g(y), gradient)``.

    Since g(y) >= y_j g(e_j), the box y_j <= 1/g(e_j) cuts off nothing, and a
    profitable coordinate with g(e_j) = 0 makes the program unbounded.
    Every iterate z of the cut loop optimizes a relaxation (to the LP's cost
    tolerance), so the smallest c^T z bounds the value from above, and z
    scales to a feasible z / g(z); y starts as the best of these.  That holds
    however the loop stops: past m = 6 it often stops at its round cap, where
    the gap grows with m.  On a smooth boundary the gap pins y only to about
    the square root of the value gap, so a few Newton steps on the KKT system
    c_S = (c^T y) grad_S g(y) over the support S of y follow, the Jacobian
    taken from central differences of the gradient; a step is kept only if
    it lowers the KKT residual without lowering c^T y.  Returns (y, gap),
    the gap being the bound over c^T y, minus 1, clipped at 0 because
    rounding can put an exact optimum an ulp above the bound.
    """
    m = c.size
    ge = np.array([separate(e)[0] for e in np.eye(m)])
    if ((c > 0) & (ge == 0.0)).any():
        raise UnboundedError("a profitable coordinate carries no tail risk")
    upper = np.divide(1.0, ge, out=np.zeros(m), where=ge > 0.0)
    y, value, bound = None, 0.0, math.inf

    def separate_and_keep_best(z):
        nonlocal y, value, bound
        g, s = separate(z)
        bound = min(bound, float(c @ z))
        if c @ z > value * g:
            y, value = z / g, float(c @ z) / g
        return g, s

    _cut_loop(c, upper, 1.0, separate_and_keep_best)

    S = np.flatnonzero(y > 0.0)

    def kkt(z):
        return c[S] - (c @ z) * separate(z)[1][S]

    r = kkt(y)
    for _ in range(_NEWTON_STEPS):
        H = np.empty((S.size, S.size))
        for col, j in enumerate(S):
            step = np.zeros(m)
            step[j] = 1e-5 * y[j]
            H[:, col] = (separate(y + step)[1][S] - separate(y - step)[1][S]) / (2.0 * step[j])
        jac = -np.outer(separate(y)[1][S], c[S]) - (c @ y) * H
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        z = y.copy()
        z[S] += delta
        if not (np.isfinite(z).all() and (z[S] > 0.0).all()):
            break
        z /= separate(z)[0]
        r_z = kkt(z)
        if not (np.linalg.norm(r_z) < np.linalg.norm(r) and c @ z >= c @ y):
            break
        y, r = z, r_z
    return y, max(bound / float(c @ y) - 1.0, 0.0)


def solve_lt_limit(rf: RateFunction, problem: ProblemInstance) -> LimitSolution:
    """Maximize c^T y subject to y >= 0 and J(y) >= 1.

    With the closed-form rate, J(y) = g(y)^(-beta) for the convex, degree-1
    homogeneous g(y) = max_i ||A_i^T y||_p, the dual norm of
    :func:`_dual_norm_order`, so the program is  max c^T y  s.t.  g(y) <= 1,
    solved by :func:`_solve_limit`.  The solver always uses this dual norm;
    ``rf.mode`` only selects how :func:`rate_I` evaluates the residual.
    """
    if rf.model.n != problem.n:
        raise ContractError("rate function and problem disagree on n")
    p = _dual_norm_order(rf.model)
    A = problem.A

    def separate(y):
        B = y @ A                                   # rows b_i = A_i^T y, (d, n)
        norms = _dual_norm(B, p)
        i = int(np.argmax(norms))
        if norms[i] == 0.0:
            return 0.0, np.zeros(problem.m)
        if math.isinf(p):
            grad = np.zeros(problem.n)
            grad[np.argmax(B[i])] = 1.0
        else:
            grad = (B[i] / norms[i]) ** (p - 1.0)
        return float(norms[i]), A[i] @ grad

    y, gap = _solve_limit(problem.c, separate)
    residual = abs(rate_J(rf, problem, y) - 1.0)
    return LimitSolution(y_star=y, value=float(problem.c @ y), residual=residual,
                         method=_METHOD, gap=gap)


def solve_ht_limit(model: HeavyTailModel, problem: ProblemInstance) -> LimitSolution:
    """Maximize c^T y subject to y >= 0 and sum_k w_k phi(y, theta_k)^alpha <= 1.

    The constraint function g(y) = (sum_k w_k phi(y, theta_k)^alpha)^(1/alpha)
    is convex and degree-1 homogeneous, so the program is  max c^T y  s.t.
    g(y) <= 1, solved by :func:`_solve_limit`.
    """
    if model.n != problem.n:
        raise ContractError("tail model and problem disagree on n")
    alpha, w = model.alpha, model.weights
    v = np.einsum("imn,kn->kim", problem.A, model.atoms)   # (K, d, m)
    k = np.arange(w.size)

    def separate(y):
        vals = v @ y                                          # (K, d)
        top = vals.argmax(axis=1)
        phis = vals[k, top]
        g = float(np.sum(w * phis ** alpha) ** (1.0 / alpha))
        if g == 0.0:
            return 0.0, np.zeros(problem.m)
        return g, (w * (phis / g) ** (alpha - 1.0)) @ v[k, top]

    y, gap = _solve_limit(problem.c, separate)
    residual = abs(angular_moment(model, problem, y) - 1.0)
    return LimitSolution(y_star=y, value=float(problem.c @ y), residual=residual,
                         method=_METHOD, gap=gap)


def limit_to_decision(sol: LimitSolution, tail: TailModel, delta: float,
                      eta: float, problem: ProblemInstance) -> np.ndarray:
    """Scale a limit solution back to a concrete decision at risk level delta.

    Returns (1 - eta) * y_star / r(delta) clipped to the box X, where
    r(delta) is the regime's normalizing radius; eta > 0 trades a fixed
    share of profit for asymptotic feasibility headroom.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    if not 0.0 <= eta < 1.0:
        raise ParameterError("eta must lie in [0, 1)")
    r = tail_radius(tail, delta)
    return box_clip(problem, (1.0 - eta) * sol.y_star / r)
