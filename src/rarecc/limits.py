"""Light-tail decay rates and the small-risk limit programs.

For the light family (Weibull marginals, Gumbel-Hougaard copula) the decay
rate of the loss tail has the closed form I(b) = ||b||_p^(-beta), the dual
norm of :func:`_dual_norm_order`, so J(y) = min_i I(A_i^T y) = g(y)^(-beta)
with g(y) = max_i ||A_i^T y||_p.  The light-tail limit program maximizes
c^T y over {y >= 0 : J(y) >= 1}; the heavy-tail limit program maximizes
c^T y over {y >= 0 : sum_k w_k phi(y, theta_k)^alpha <= 1}.  Both
constraints read g(y) <= 1 for a monotone, convex, degree-1 homogeneous g:
the dual norm above for light tails, (sum_k w_k phi(y, theta_k)^alpha)^(1/alpha)
for heavy ones.  Both programs are solved by the cutting-plane loop of
:mod:`rarecc.lpsolve` with gradient cuts, polished by Newton steps on the KKT
system, and report the relative gap to the loop's upper bound.

The family decisions of the experiments sit here as well:
:func:`solve_limit` solves the tail's limit program, :func:`cvar_ratio_limit`
gives the limit of the CVaR optimum over the chance-constrained one (1, or
1 - 1/alpha under heavy tails) and :func:`scenario_cv_limit` the limiting
coefficient of variation of the scaled scenario value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UnboundedError, check_same_n, check_vector
from .lpsolve import cut_loop
from .model import ProblemInstance, box_clip
from .sampler import (HeavyTailModel, LightTailModel, TailModel,
                      copula_exponent, tail_radius)

_NEWTON_STEPS = 4          # KKT polishing steps after the cut loop


@dataclass(frozen=True)
class LimitSolution:
    """Optimizer of a limit program plus solve diagnostics."""

    y_star: np.ndarray
    value: float
    residual: float
    gap: float           # upper bound on the optimum over value, minus 1

    def to_json_dict(self) -> dict:
        return {
            "y_star": [float(v) for v in self.y_star],
            "value": float(self.value),
            "residual": float(self.residual),
            "method": "cut-loop",
            "gap": float(self.gap),
        }


def lambda_eval(model: LightTailModel, x) -> float:
    """Dependence exponent of the light model, homogeneous of degree beta."""
    return copula_exponent(model, check_vector(x, model.n, "x"))


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


def rate_I(model: LightTailModel, b) -> float:
    """Decay rate of P(b^T L > r): inf of lambda over {x >= 0 : b^T x >= 1},
    which is ||b||_p^(-beta) for the p of :func:`_dual_norm_order`.

    Returns inf for b = 0 (the constraint set is empty).
    Scales as I(t b) = t^(-beta) I(b).
    """
    b = check_vector(b, model.n, "b")
    if not (b > 0).any():
        return math.inf
    return float(_dual_norm(b, _dual_norm_order(model))) ** (-model.beta)


def rate_J(model: LightTailModel, problem: ProblemInstance, y) -> float:
    """Aggregate rate min_i I(y^T A_i) = g(y)^(-beta): the loss tail decays at
    speed J(y) q(r).  g(y) = max_i ||A_i^T y||_p is the function the light
    cut loop of :func:`solve_lt_limit` separates on.

    Returns inf when g(y) = 0, i.e. when every y^T A_i vanishes.
    """
    y = check_vector(y, problem.m, "y")
    check_same_n(problem, model.n)
    g = float(_dual_norm(y @ problem.A, _dual_norm_order(model)).max())
    return math.inf if g == 0.0 else g ** (-model.beta)


def angular_moment(model: HeavyTailModel, problem: ProblemInstance, y) -> float:
    """Limit tail ratio sum_k w_k phi(y, theta_k)^alpha of the heavy model."""
    y = check_vector(y, problem.m, "y")
    check_same_n(problem, model.n)
    v = np.einsum("imn,kn->kim", problem.A, model.atoms)   # (K, d, m)
    phis = (v @ y).max(axis=1)
    return float(np.sum(model.weights * phis ** model.alpha))


def _solve_limit(c: np.ndarray, separate) -> tuple[np.ndarray, float]:
    """Maximize c^T y over {y >= 0 : g(y) <= 1} for a monotone, convex,
    degree-1 homogeneous g given by ``separate(y) = (g(y), gradient)``.

    The cut loop runs with no bound of its own: it boxes y by
    y_j <= 1/g(e_j), starts from those m cuts, and raises
    :class:`UnboundedError` for a profitable coordinate with g(e_j) = 0.
    Its last iterate x optimizes a relaxation (to the LP's cost tolerance),
    so c^T x bounds the value from above, and every iterate z scales to a
    feasible z / g(z); y starts as the best of these.  That holds however
    the loop stops: past m = 6 it often stops at its round cap, where the
    gap grows with m.  On a smooth boundary the gap pins y only to about
    the square root of the value gap, so a few Newton steps on the KKT system
    c_S = (c^T y) grad_S g(y) over the support S of y follow, the Jacobian
    taken from central differences of the gradient; a step is kept only if
    it lowers the KKT residual without lowering c^T y.  Returns (y, gap),
    the gap being the bound over c^T y, minus 1, clipped at 0 because
    rounding can put an exact optimum an ulp above the bound.
    """
    m = c.size
    y, value = None, 0.0

    def separate_and_keep_best(z):
        nonlocal y, value
        g, s = separate(z)
        if g > 0.0 and c @ z > value * g:
            y, value = z / g, float(c @ z) / g
        return g, s

    x, *_ = cut_loop(c, np.full(m, math.inf), 1.0, separate_and_keep_best)
    bound = float(c @ x)

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


def solve_lt_limit(model: LightTailModel, problem: ProblemInstance) -> LimitSolution:
    """Maximize c^T y subject to y >= 0 and J(y) >= 1.

    J(y) = g(y)^(-beta) for the convex, degree-1 homogeneous
    g(y) = max_i ||A_i^T y||_p, the dual norm of :func:`_dual_norm_order`,
    so the program is  max c^T y  s.t.  g(y) <= 1, solved by
    :func:`_solve_limit`.  The residual is |J(y) - 1| at the returned y.
    """
    check_same_n(problem, model.n)
    p = _dual_norm_order(model)
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
    residual = abs(rate_J(model, problem, y) - 1.0)
    return LimitSolution(y_star=y, value=float(problem.c @ y), residual=residual, gap=gap)


def solve_ht_limit(model: HeavyTailModel, problem: ProblemInstance) -> LimitSolution:
    """Maximize c^T y subject to y >= 0 and sum_k w_k phi(y, theta_k)^alpha <= 1.

    The constraint function g(y) = (sum_k w_k phi(y, theta_k)^alpha)^(1/alpha)
    is convex and degree-1 homogeneous, so the program is  max c^T y  s.t.
    g(y) <= 1, solved by :func:`_solve_limit`.
    """
    check_same_n(problem, model.n)
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
    return LimitSolution(y_star=y, value=float(problem.c @ y), residual=residual, gap=gap)


def solve_limit(tail: TailModel, problem: ProblemInstance) -> LimitSolution:
    """The regime's limit program: :func:`solve_lt_limit` for a light tail,
    :func:`solve_ht_limit` for a heavy one."""
    return (solve_lt_limit if isinstance(tail, LightTailModel) else solve_ht_limit)(tail, problem)


def cvar_ratio_limit(tail: TailModel) -> float:
    """The limit, as delta -> 0, of the CVaR optimum over the chance-constrained
    one: 1 under light tails, 1 - 1/alpha under heavy ones."""
    return 1.0 if isinstance(tail, LightTailModel) else 1.0 - 1.0 / tail.alpha


def scenario_cv_limit(tail: TailModel, problem: ProblemInstance) -> float:
    """The limiting coefficient of variation of the radius-scaled scenario
    value: 0 under light tails, where it concentrates; for a scalar heavy
    instance the CV of its Weibull(alpha) limit law; nan for any other."""
    if isinstance(tail, LightTailModel):
        return 0.0
    if not problem.scalar:
        return math.nan
    m1 = math.gamma(1.0 + 1.0 / tail.alpha)
    m2 = math.gamma(1.0 + 2.0 / tail.alpha)
    return math.sqrt(m2 - m1 * m1) / m1


def limit_to_decision(sol: LimitSolution, tail: TailModel, delta: float,
                      eta: float, problem: ProblemInstance) -> np.ndarray:
    """Scale a limit solution back to a concrete decision at risk level delta.

    Returns (1 - eta) * y_star / r(delta) clipped to the box X, where
    r(delta) is the regime's normalizing radius; eta > 0 trades a fixed
    share of profit for asymptotic feasibility headroom.  :func:`tail_radius`
    checks that delta lies in (0, 1).
    """
    if not 0.0 <= eta < 1.0:
        raise ParameterError("eta must lie in [0, 1)")
    r = tail_radius(tail, delta)
    return box_clip(problem, (1.0 - eta) * sol.y_star / r)
