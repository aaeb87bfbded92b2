"""The three risk-level-indexed solution methods and their support code.

* :func:`ccp_oracle` - brute-force Monte Carlo reference: per simplex
  direction, the largest scale whose empirical violation stays within delta.
* :func:`cvar_solve` - the sample-average Rockafellar-Uryasev linear program.
* :func:`scenario_solve` - the sampled-constraint linear program.

Both linear programs have the form  max c^T x  over a box, subject to
g(x) <= radius  for a polyhedral, convex, degree-1 homogeneous g: the sample
CVaR of the loss, or the largest sampled row value.  Neither is assembled in
full.  One cutting-plane loop (Kelley 1960) serves both, and the limit
programs of :mod:`rarecc.limits` with gradient cuts: it solves a small LP
in the m decision variables over the cuts found so far, evaluates g and a
subgradient at its optimum with one pass over the sample, and adds that cut,
until g(x) <= radius (1 + 1e-12).  The result is the optimum of the full LP.
A one-variable program needs one cut, because g is linear on [0, upper];
its 1x1 cut LP is then solved by the one pivot the simplex would make,
computed in closed form, and a scalar scenario program scores its rows by
an elementwise product instead of a matrix-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InputError, ParameterError, RareccError, check_count, check_delta,
                     check_same_n, check_tail_count, check_vector)
from .lpsolve import _FEAS_TOL, _add_rows, _cold
# unused here, but bench/spans.py wraps this name in this module
from .lpsolve import solve_lp  # noqa: F401
from .model import ProblemInstance, box_clip, phi_many
from .sampler import (HeavyTailModel, LightTailModel, SampleBatch, TailModel,
                      draws_range, exceedances, light_qinv)
from .search import quasirandom_simplex, simplex_grid

_Z95 = 1.959963984540054
_MAX_CUT_ROUNDS = 200


@dataclass(frozen=True)
class MethodResult:
    """Decision, value and Monte Carlo diagnostics of one method run."""

    x: np.ndarray
    value: float
    delta: float | None
    violation_estimate: float | None
    violation_halfwidth: float | None
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "method": self.meta.get("method", "unknown"),
            "x": [float(v) for v in self.x],
            "value": float(self.value),
            "delta": self.delta,
            "violation": self.violation_estimate,
            "violation_halfwidth": self.violation_halfwidth,
            "seed": self.meta.get("seed"),
            "gap": self.meta.get("gap"),
        }


def wilson_halfwidth(successes: int, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ParameterError("trials must be positive")
    p = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    return _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom


def violation_prob(problem: ProblemInstance, x, tail: TailModel,
                   budget: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of P(loss(x, L) > 1) with a Wilson 95% half-width.

    Counts the violations with :func:`~rarecc.sampler.exceedances`, one
    shard per CPU.  Each shard draws, or for a heavy tail reads the draws'
    uniforms of, one chunk at a time, a fresh array of 8 // t whole
    4096-row blocks for t shards (at most 0.75 MiB of draws in total at
    n = 3), so those chunks and their losses are all the count holds,
    whatever the budget.  The result depends only on (tail, seed, budget).
    """
    budget = check_count("budget", budget, least=1000)
    check_same_n(problem, tail.n)
    x = check_vector(x, problem.m, "x", lo=-1e-12, hi=problem.h + 1e-12)
    hits = int(exceedances(tail, seed, budget, lambda draws: (phi_many(problem, x, draws),),
                           (1.0,))[0])
    return hits / budget, wilson_halfwidth(hits, budget)


def _oracle_directions(m: int) -> np.ndarray:
    return simplex_grid(m, 50) if m <= 3 else quasirandom_simplex(m, 1000)


def ccp_oracle(problem: ProblemInstance, tail: TailModel, delta: float,
               budget: int, seed: int) -> MethodResult:
    """Monte Carlo reference solution of the chance-constrained program.

    One shared sample (common random numbers) serves every direction u of a
    deterministic simplex grid; the maximal feasible scale along u is the
    reciprocal of the empirical (1-delta)-quantile of loss(u, L), taken as
    the order statistic of rank ceil(budget (1-delta)).  Exact up to Monte
    Carlo quantile error and grid resolution.
    """
    check_delta(delta)
    budget = check_count("budget", budget)
    check_same_n(problem, tail.n)
    check_tail_count(delta, budget, "budget", " for a stable quantile")
    draws = draws_range(tail, seed, 0, budget)
    rank = math.ceil(budget * (1.0 - delta))
    best_val, best = -math.inf, None
    for u in _oracle_directions(problem.m):
        scores = phi_many(problem, u, draws)
        q = float(np.partition(scores, rank - 1)[rank - 1])
        if q <= 0.0:
            x = np.where(u > 0, problem.h, 0.0)
        else:
            x = box_clip(problem, u / q)
        val = float(problem.c @ x)
        if val > best_val:
            best_val, best = val, (u, x, scores, q)
    u, best_x, scores, q = best
    if q > 0.0 and (u / q <= problem.h).all():
        # loss(u/q, L) = score/q, but evaluating it at x can round the
        # boundary draw's loss up to 1 + ulp; compare the scores with q
        hits = int((scores > q).sum())
    else:
        hits = int((phi_many(problem, best_x, draws) > 1.0).sum())
    return MethodResult(
        x=best_x, value=best_val, delta=delta,
        violation_estimate=hits / budget,
        violation_halfwidth=wilson_halfwidth(hits, budget),
        meta={"method": "ccp_oracle", "seed": seed, "budget": budget,
              "quantile_rank": rank},
    )


def _cut_loop(c: np.ndarray, upper: np.ndarray, radius: float, separate):
    """Kelley's cutting-plane method for  max c^T x  s.t.  0 <= x <= upper,
    g(x) <= radius,  with g convex and positively homogeneous of degree 1.

    ``separate(x)`` returns ``(g(x), s)`` with s a subgradient at x, so that
    g(x) = s^T x and s^T y <= g(y) for every y; each cut s^T y <= radius is
    therefore valid.  Every round solves the small LP over the box and the
    cuts so far, whose optimum bounds the true one from above, and separates
    there.  The loop keeps that LP's simplex tableau itself: round 1 solves
    it cold from the slack basis (:func:`~rarecc.lpsolve._cold`), and every
    later round appends only the new cut (:func:`~rarecc.lpsolve._add_rows`),
    which re-optimises with dual simplex pivots.  No
    :class:`~rarecc.lpsolve.LinearProgram` is built per round; a non-finite
    cut raises :class:`InputError`.

    When x has one coordinate, round 1 builds no tableau: the cold solve of
    the 1x1 LP is a single pivot, taken here in the LP's own floating-point
    operations, so x is the LP's to the bit.  g is linear on [0, upper], so
    that one cut ends the loop; a second round, which rounding could in
    principle ask for, builds the tableau cold from both cuts.

    The loop stops at the first iterate with g(x) <= radius (1 + 1e-12),
    when the LP returns the iterate it was given (its tolerances cannot
    resolve the newest cut), or after ``_MAX_CUT_ROUNDS`` rounds.  It returns
    (x, g(x), cut count, pivots) for the last iterate x, which optimizes a
    relaxation, so c^T x bounds the optimum from above.  Callers check g(x)
    against the radius themselves.
    """
    x = np.where(c > 0, upper, 0.0)
    cuts: list[np.ndarray] = []
    pivots = 0
    tab = None
    g, s = separate(x)
    for _ in range(_MAX_CUT_ROUNDS):
        if g <= radius * (1.0 + 1e-12):
            break
        cuts.append(s)
        if c.size == 1 and len(cuts) == 1:
            # the 1x1 cut LP's one pivot, in its arithmetic: the tableau holds
            # z = x / col, the scaled cut reads z <= q, the bound row z <= 1,
            # and the ratio test's tie goes to the cut row's lower basis index
            col = upper[0] if 0.0 < upper[0] < math.inf else 1.0
            q = radius / (s[0] * col)
            new_x = np.array([col * (q if q <= 1.0 + 1e-12 else 1.0)])
            pivots += 1
        else:
            if not np.isfinite(s).all():
                raise InputError(f"cut coefficients must be finite, got {s!r}")
            if tab is None:
                tab, iters, new_x = _cold(c, np.array(cuts), np.full(len(cuts), radius), upper)
            else:
                tab, iters, new_x = _add_rows(tab, s[None], np.array([radius]))
            pivots += iters
        if np.array_equal(new_x, x):
            break
        x = new_x
        g, s = separate(x)
    return x, g, len(cuts), pivots


def _exact_cut_loop(c: np.ndarray, upper: np.ndarray, radius: float, separate):
    """:func:`_cut_loop` for the sampled LPs, whose optimum it must reach.

    The LP cannot see a cut's violation below ``_FEAS_TOL`` times the cut's
    largest entry times ``upper`` (4e-10 relative in a loose box), and then
    returns its own iterate x.  If g(x) - radius is within 10 times that,
    the feasible x radius / g(x) is separated and returned instead; its
    value lies below the optimum by at most a relative g(x) / radius - 1.
    Returns :func:`_cut_loop`'s tuple and that bound, the stall excess, which
    is 0.0 when the loop's own iterate is returned.
    """
    x, g, cuts, pivots = _cut_loop(c, upper, radius, separate)
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


def cvar_solve(problem: ProblemInstance, tail: TailModel, delta: float,
               sample_count: int, seed: int) -> MethodResult:
    """Solve the sample-average CVaR relaxation  max c^T x  s.t.
    CVaR_delta(loss(x, L_j)) <= 1  over the box.

    This is the Rockafellar-Uryasev linear program, solved by the cut loop in
    the m decision variables: with k = ceil(delta N), the sample CVaR at x
    weights the k largest losses by 1/(delta N) each, the smallest of them by
    the fractional remainder, and the same weights on the loss-attaining rows
    A_i L_j give the subgradient.  ``tau`` is the value-at-risk (the k-th
    largest loss) minus 1, clipped to at most 0; ``gap`` is CVaR - 1 at exit,
    and ``stall_excess`` bounds how far below the optimum a rescued answer of
    :func:`_exact_cut_loop` may lie (0.0 for any other).
    """
    check_delta(delta)
    n_total = check_count("sample_count", sample_count)
    check_same_n(problem, tail.n)
    check_tail_count(delta, n_total, "sample_count")
    draws = draws_range(tail, seed, 0, n_total)
    dn = delta * n_total
    k = math.ceil(dn)
    weights = np.full(k, 1.0 / dn)
    weights[0] = (dn - (k - 1)) / dn          # top[0] is the k-th largest loss
    # with one matrix, A_0 attains every loss and needs no argmax
    A0 = problem.A[np.zeros(k, dtype=np.intp)] if problem.d == 1 else None
    losses = top = None

    def separate(x):
        nonlocal losses, top
        losses = phi_many(problem, x, draws)
        top = np.argpartition(losses, n_total - k)[n_total - k:]
        picked = draws[top]
        mats = A0 if A0 is not None else \
            problem.A[(picked @ (x @ problem.A).T).argmax(axis=1)]    # loss-attaining A_i
        rows = np.einsum("jmn,jn->jm", mats, picked)
        return float(weights @ losses[top]), weights @ rows

    x, g, cuts, pivots, excess = _exact_cut_loop(problem.c, np.full(problem.m, problem.h),
                                                 1.0, separate)
    hits = int((losses > 1.0).sum())
    return MethodResult(
        x=x, value=float(problem.c @ x), delta=delta,
        violation_estimate=hits / n_total,
        violation_halfwidth=wilson_halfwidth(hits, n_total),
        meta={"method": "cvar", "seed": seed, "samples": n_total,
              "tau": min(float(losses[top[0]]) - 1.0, 0.0), "kept_scenarios": k,
              "outer_iterations": cuts + 1, "lp_iterations": pivots, "gap": g - 1.0,
              "stall_excess": excess},
    )


def scenario_solve(problem: ProblemInstance, batch: SampleBatch,
                   radius: float) -> MethodResult:
    """Solve the sampled-constraint program at the given constraint radius.

    maximize c^T y  s.t.  y in [0, h radius]^m  and  y^T A_i L_j <= radius
    for every matrix i and scenario j; radius 1 recovers the plain scenario
    program, the regime radii give its scaled variants.  Solved by the cut
    loop: each round adds the sampled row with the largest y^T A_i L_j.
    ``binding_candidates`` counts the rows added, ``gap`` is the largest
    row value over the radius, minus 1, at exit, and ``stall_excess`` is as
    in :func:`cvar_solve`.
    """
    if batch.count < 1:
        raise ParameterError("scenario batch must be nonempty")
    if not 0.0 < radius < math.inf:
        raise ParameterError(f"radius must be finite and > 0, got {radius!r}")
    check_same_n(problem, batch.n)
    W = np.einsum("imn,jn->jim", problem.A, batch.samples).reshape(-1, problem.m)
    scalar = problem.m == 1

    def separate(y):
        scores = W[:, 0] * y[0] if scalar else W @ y     # the same bits for m = 1
        j = int(np.argmax(scores))
        return float(scores[j]), W[j]

    radius = float(radius)
    x, g, cuts, pivots, excess = _exact_cut_loop(
        problem.c, np.full(problem.m, problem.h * radius), radius, separate)
    return MethodResult(
        x=x, value=float(problem.c @ x), delta=None,
        violation_estimate=None, violation_halfwidth=None,
        meta={"method": "scenario", "seed": batch.seed, "radius": radius,
              "scenarios": batch.count, "binding_candidates": cuts,
              "lp_iterations": pivots, "gap": g / radius - 1.0, "stall_excess": excess},
    )


def sample_size_rule(delta: float, beta_conf: float, dim: int) -> int:
    """Published scenario-count prescription guaranteeing feasibility with
    probability at least 1 - beta_conf:
    ceil((2/delta) log(1/beta_conf) + 2 dim + (2 dim / delta) log(2/delta)).
    """
    check_delta(delta)
    if not 0.0 < beta_conf < 1.0:
        raise ParameterError("beta_conf must lie in (0, 1)")
    dim = check_count("dim", dim)
    val = (2.0 / delta) * math.log(1.0 / beta_conf) + 2.0 * dim \
        + (2.0 * dim / delta) * math.log(2.0 / delta)
    return int(math.ceil(val))


def _scalar_data(problem: ProblemInstance) -> tuple[float, float]:
    if not (problem.m == 1 and problem.n == 1 and problem.d == 1):
        raise ParameterError("analytic oracle needs a scalar instance (m = n = d = 1)")
    return float(problem.c[0]), float(problem.A[0, 0, 0])


def analytic_ccp_value(problem: ProblemInstance, tail: TailModel, delta: float) -> float:
    """Exact optimal value of the scalar chance-constrained problem."""
    check_delta(delta)
    c0, a = _scalar_data(problem)
    if isinstance(tail, LightTailModel):
        x = 1.0 / (a * light_qinv(tail, math.log(1.0 / delta)))
    else:
        x = delta ** (1.0 / tail.alpha) / a
    return c0 * min(x, problem.h)


def analytic_cvar_value(problem: ProblemInstance, tail: TailModel, delta: float) -> float:
    """Exact optimal value of the scalar CVaR-constrained problem.

    Closed forms exist for the Pareto radius (any alpha) and for the
    exponential marginal (beta = 1); other light tails raise.
    """
    check_delta(delta)
    c0, a = _scalar_data(problem)
    if isinstance(tail, HeavyTailModel):
        x = (1.0 - 1.0 / tail.alpha) * delta ** (1.0 / tail.alpha) / a
    else:
        if abs(tail.beta - 1.0) > 1e-12:
            raise ParameterError("analytic CVaR optimum implemented for beta = 1 only")
        x = 1.0 / (a * (math.log(1.0 / delta) + 1.0))
    return c0 * min(x, problem.h)
