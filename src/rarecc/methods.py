"""The three risk-level-indexed solution methods and their support code.

* :func:`ccp_oracle` - brute-force Monte Carlo reference: per simplex
  direction, the largest scale whose empirical violation stays within delta.
* :func:`cvar_solve` - the sample-average Rockafellar-Uryasev linear program.
* :func:`scenario_solve` - the sampled-constraint linear program.

Both linear programs have the form  max c^T x  over a box, subject to
g(x) <= radius  for a polyhedral, convex, degree-1 homogeneous g: the sample
CVaR of the loss, or the largest sampled row value.  Neither is assembled in
full: the cutting-plane loop (Kelley 1960) of :mod:`rarecc.lpsolve`, which
the limit programs of :mod:`rarecc.limits` share, solves a small LP in the
m decision variables over the cuts found so far, evaluates g and a
subgradient at its optimum with one pass over the sample, and adds that
cut, until g(x) <= radius (1 + 1e-12).  It starts from the cuts at the
unit vectors, which box x by what the constraint implies, so the result is
the optimum of the full LP whatever the box h.

No method knows the tail family.  The oracle and the CVaR program read
:func:`~rarecc.sampler.top_rows`, and a sample of fewer rows than draws,
which holds only each atom's top radii, counts its violations over every
draw where the rows held cannot decide them.  A CVaR round whose VaR is
tied ranks the rows by loss, then radius, both descending, then draw
index, so a reduced sample picks the rows the whole one does.  The scalar
closed forms are c_0 min(1/(a r), h), with r the marginal's VaR
(:func:`~rarecc.sampler.tail_radius`) for the chance constraint and its
CVaR (:func:`~rarecc.sampler.tail_cvar`) for the CVaR one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ParameterError, check_count, check_delta, check_radius, check_same_n,
                     check_tail_count, check_vector)
from .lpsolve import exact_cut_loop
from .model import ProblemInstance, phi_many
# draws_range is unused here, but bench/spans.py wraps the name in this module
from .sampler import (SampleBatch, TailModel, draws_range, exceedances,  # noqa: F401
                      tail_cvar, tail_radius, top_rows)

_Z95 = 1.959963984540054


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

    Counts the violations with :func:`~rarecc.sampler.exceedances`, which
    holds one chunk of draws or uniforms at a time, whatever the budget.
    The result depends only on (tail, seed, budget).
    """
    budget = check_count("budget", budget, least=1000)
    check_same_n(problem, tail.n)
    x = check_vector(x, problem.m, "x", lo=-1e-12, hi=problem.h + 1e-12)
    hits = _violations(problem, x, tail, seed, budget)
    return hits / budget, wilson_halfwidth(hits, budget)


def _violations(problem: ProblemInstance, x, tail: TailModel, seed: int, count: int) -> int:
    """The number of the draws [0, count) whose loss at x exceeds 1."""
    return int(exceedances(tail, seed, count, lambda d: (phi_many(problem, x, d),), (1.0,))[0])


def _tail_size(delta: float, count: int) -> float:
    """delta count, the size of a level-delta tail of count draws, snapped
    to the nearest integer when it lies within 4 ulps of one.  A decimal
    delta is rounded to binary, so the product can land an ulp off the
    integer that the decimal product is (1e-5 * 10**7 reads
    100.00000000000001), and ceil(delta count) or floor(delta count) + 1
    would then be one off."""
    dn = delta * count
    near = round(dn)
    return float(near) if abs(dn - near) <= 4.0 * math.ulp(dn) else dn


def simplex_grid(m: int, per_axis: int = 50) -> np.ndarray:
    """Deterministic grid on the unit simplex in R^m.

    Returns an array of shape (num_points, m) whose rows are nonnegative,
    sum to one, and have coordinates that are integer multiples of
    1/per_axis.
    """
    if m == 1:
        return np.ones((1, 1))
    pts = []
    for comp in itertools.combinations(range(per_axis + m - 1), m - 1):
        parts = []
        prev = -1
        for c in comp:
            parts.append(c - prev - 1)
            prev = c
        parts.append(per_axis + m - 2 - prev)
        pts.append(parts)
    return np.asarray(pts, dtype=float) / per_axis


def quasirandom_simplex(m: int, count: int = 1000) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit simplex.

    Uses a Kronecker (additive golden-ratio) sequence mapped to the simplex
    through the exponential-spacings transform.
    """
    # generalized golden ratio for dimension m
    phi = 2.0
    for _ in range(40):
        phi = (1.0 + phi) ** (1.0 / (m + 1))
    alpha = np.array([(1.0 / phi) ** (k + 1) for k in range(m)])
    j = np.arange(1, count + 1)[:, None]
    v = np.mod(0.5 + j * alpha[None, :], 1.0)
    e = -np.log1p(-v * (1.0 - 1e-12))
    return e / e.sum(axis=1, keepdims=True)


@functools.cache
def _oracle_directions(m: int) -> np.ndarray:
    """The oracle's direction grid in R^m, built once per m and read-only."""
    grid = simplex_grid(m, 50) if m <= 3 else quasirandom_simplex(m, 1000)
    grid.flags.writeable = False
    return grid


def ccp_oracle(problem: ProblemInstance, tail: TailModel, delta: float,
               budget: int, seed: int) -> MethodResult:
    """Monte Carlo reference solution of the chance-constrained program.

    One shared sample serves every direction u of a deterministic simplex
    grid; the maximal feasible scale along u is the reciprocal of the
    empirical (1-delta)-quantile of loss(u, L), the t-th largest for
    t = floor(delta budget) + 1 (:func:`_tail_size`), of rank
    budget - t + 1, so that at most delta budget draws exceed it.  Exact up
    to Monte Carlo quantile error and grid resolution.  The sample is
    :func:`~rarecc.sampler.top_rows` with k = t, which hold every score
    at or above the t-th largest, as a loss grows with the radius: every
    result is the whole sample's, bit for bit.  When those rows are fewer
    than the budget and the box clips the answer, no score bounds the
    rounded losses, and the violations are counted over every draw.
    """
    check_delta(delta)
    budget = check_count("budget", budget)
    check_same_n(problem, tail.n)
    check_tail_count(delta, budget, "budget", " for a stable quantile")
    top = math.floor(_tail_size(delta, budget)) + 1
    rank = budget - top + 1
    draws = top_rows(tail, seed, budget, top)
    at = len(draws) - top          # the t-th largest score's index in sorted order
    best_val, best = -math.inf, None
    for u in _oracle_directions(problem.m):
        scores = phi_many(problem, u, draws)
        q = float(np.partition(scores, at)[at])
        if q <= 0.0:
            x = np.where(u > 0, problem.h, 0.0)
        else:
            x = np.minimum(u / q, problem.h)      # u / q >= 0: the box projection
        val = float(problem.c @ x)
        if val > best_val:
            best_val, best = val, (u, x, scores, q)
    u, best_x, scores, q = best
    if q > 0.0 and (u / q <= problem.h).all():
        # loss(u/q, L) = score/q, but evaluating it at x can round the
        # boundary draw's loss up to 1 + ulp; compare the scores with q
        hits = int((scores > q).sum())
    elif len(draws) < budget:
        hits = _violations(problem, best_x, tail, seed, budget)
    else:
        hits = int((phi_many(problem, best_x, draws) > 1.0).sum())
    return MethodResult(
        x=best_x, value=best_val, delta=delta,
        violation_estimate=hits / budget,
        violation_halfwidth=wilson_halfwidth(hits, budget),
        meta={"method": "ccp_oracle", "seed": seed, "budget": budget,
              "quantile_rank": rank},
    )


def cvar_solve(problem: ProblemInstance, tail: TailModel, delta: float,
               sample_count: int, seed: int) -> MethodResult:
    """Solve the sample-average CVaR relaxation  max c^T x  s.t.
    CVaR_delta(loss(x, L_j)) <= 1  over the box.

    This is the Rockafellar-Uryasev linear program, solved by the cut loop in
    the m decision variables: with k = ceil(delta N), the sample CVaR at x
    weights the k largest losses by 1/(delta N) each, the smallest of them,
    the value-at-risk (VaR), by the fractional remainder, and the same
    weights on the loss-attaining rows A_i L_j give the subgradient.  Both
    sums run over the k rows in draw order, so they depend on which rows
    are largest and not on where they lie in the sample.  When the VaR's
    loss is tied, the k rows are the first k by loss, then row sum (the
    radius), both descending, then draw index, and the fractional weight
    goes on the k-th; the tied rows picked are each atom's largest radii.
    The sample is therefore :func:`~rarecc.sampler.top_rows`, which hold
    the k largest losses at every x >= 0, and it gives the whole sample's
    results bit for bit.  With one matrix, A_0 attains every loss, and the
    rows A_0 L_j of a sample reduced to fewer than N rows are made once by
    the einsum that a round would apply to its k rows; each row of it is the
    same bits either way, and each round takes its k.

    The violations are counted on the rows held.  That is exact when the VaR
    is at most 1, as a row left out has a loss at most its atom's k-th
    largest, which is at most the VaR; above it a reduced sample counts all
    N draws (:func:`~rarecc.sampler.exceedances`).  ``tau`` is the VaR minus
    1, clipped to at most 0; ``gap`` is CVaR - 1 at exit.
    ``outer_iterations`` counts the separations: the cut loop's m
    unit-vector cuts, which box x by x_j <= 1 / CVaR(e_j), its later cuts
    and the last iterate's.
    """
    check_delta(delta)
    n_total = check_count("sample_count", sample_count)
    check_same_n(problem, tail.n)
    check_tail_count(delta, n_total, "sample_count")
    dn = _tail_size(delta, n_total)
    k = math.ceil(dn)
    draws = top_rows(tail, seed, n_total, k)
    reduced = len(draws) < n_total
    at = len(draws) - k
    even = np.full(k, 1.0 / dn)
    var_weight = (dn - (k - 1)) / dn
    # with one matrix, A_0 attains every loss and needs no argmax; a reduced
    # sample's K k rows A_0 L_j are made once, while a whole sample's N rows
    # are many more than the k a round reads, so it makes those per round
    A0 = problem.A[np.zeros(len(draws) if reduced else k, np.intp)] if problem.d == 1 else None
    rows_all = np.einsum("jmn,jn->jm", A0, draws) if reduced and A0 is not None else None
    losses = var = None

    def separate(x):
        nonlocal losses, var
        losses = phi_many(problem, x, draws)
        top = losses.argpartition(at)[at:]
        var = top[0]                            # the k-th largest loss
        if np.count_nonzero(losses == losses[var]) > 1:
            # which tied rows argpartition picks depends on the whole array;
            # each atom's largest radii are picked in every sample that holds them
            top = np.lexsort((-draws.sum(axis=1), -losses))[:k]
            var = top[-1]
        top.sort()
        weights = even.copy()
        weights[top.searchsorted(var)] = var_weight
        if rows_all is not None:
            rows = rows_all.take(top, axis=0)
        else:
            picked = draws.take(top, axis=0)
            mats = A0 if A0 is not None else \
                problem.A[(picked @ (x @ problem.A).T).argmax(axis=1)]    # loss-attaining A_i
            rows = np.einsum("jmn,jn->jm", mats, picked)
        return float(weights @ losses[top]), weights @ rows

    x, g, cuts, pivots = exact_cut_loop(problem.c, np.full(problem.m, problem.h), 1.0, separate)
    value_at_risk = float(losses[var])
    if reduced and value_at_risk > 1.0:
        hits = _violations(problem, x, tail, seed, n_total)
    else:
        hits = int((losses > 1.0).sum())
    return MethodResult(
        x=x, value=float(problem.c @ x), delta=delta,
        violation_estimate=hits / n_total,
        violation_halfwidth=wilson_halfwidth(hits, n_total),
        meta={"method": "cvar", "seed": seed, "samples": n_total,
              "tau": min(value_at_risk - 1.0, 0.0), "kept_scenarios": k,
              "outer_iterations": cuts + 1, "lp_iterations": pivots, "gap": g - 1.0},
    )


def scenario_solve(problem: ProblemInstance, batch: SampleBatch,
                   radius: float) -> MethodResult:
    """Solve the sampled-constraint program at the given constraint radius.

    maximize c^T y  s.t.  y in [0, h radius]^m  and  y^T A_i L_j <= radius
    for every matrix i and scenario j; radius 1 recovers the plain scenario
    program, the regime radii give its scaled variants.  Solved by the cut
    loop: each round adds the sampled row with the largest y^T A_i L_j.
    A heavy :func:`~rarecc.sampler.scenario_batch` gives K d rows for K
    atoms, and the x and value of all its ``count`` draws (``scenarios``)
    bit for bit.  ``binding_candidates`` counts the rows added, the cut
    loop's m unit-vector cuts among them, which box each y_k by the radius
    over the largest k-th entry of a sampled row, and ``gap`` is the largest
    row value over the radius, minus 1, at exit.
    """
    if batch.count < 1:
        raise ParameterError("scenario batch must be nonempty")
    radius = check_radius(radius)
    check_same_n(problem, batch.n)
    W = np.einsum("imn,jn->jim", problem.A, batch.samples).reshape(-1, problem.m)
    scalar = problem.m == 1

    def separate(y):
        scores = W[:, 0] * y[0] if scalar else W @ y     # the same bits for m = 1
        j = int(np.argmax(scores))
        return float(scores[j]), W[j]

    x, g, cuts, pivots = exact_cut_loop(
        problem.c, np.full(problem.m, problem.h * radius), radius, separate)
    return MethodResult(
        x=x, value=float(problem.c @ x), delta=None,
        violation_estimate=None, violation_halfwidth=None,
        meta={"method": "scenario", "seed": batch.seed, "radius": radius,
              "scenarios": batch.count, "binding_candidates": cuts,
              "lp_iterations": pivots, "gap": g / radius - 1.0},
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


def _scalar_optimum(problem: ProblemInstance, tail: TailModel, level, delta: float) -> float:
    """max c_0 x over [0, h] s.t. a x r <= 1 for r = level(tail, delta), for
    the scalar instance (m = n = d = 1) with c = (c_0) and A = ((a)); a
    tail of another n raises ContractError."""
    if not problem.scalar:
        raise ParameterError("analytic oracle needs a scalar instance (m = n = d = 1)")
    check_same_n(problem, tail.n)
    return float(problem.c[0]) * min(1.0 / (float(problem.A[0, 0, 0]) * level(tail, delta)),
                                     problem.h)


def analytic_ccp_value(problem: ProblemInstance, tail: TailModel, delta: float) -> float:
    """Exact optimal value of the scalar chance-constrained problem,
    c_0 min(1/(a r), h) for the regime's radius r
    (:func:`~rarecc.sampler.tail_radius`): x L <= 1/a with probability
    1 - delta exactly when x r <= 1/a."""
    return _scalar_optimum(problem, tail, tail_radius, delta)


def analytic_cvar_value(problem: ProblemInstance, tail: TailModel, delta: float) -> float:
    """Exact optimal value of the scalar CVaR-constrained problem,
    c_0 min(1/(a CVaR_delta(L)), h) for the marginal's CVaR
    (:func:`~rarecc.sampler.tail_cvar`), which has closed forms for the
    Pareto radius (any alpha) and the exponential marginal (beta = 1); other
    light tails raise.
    """
    return _scalar_optimum(problem, tail, tail_cvar, delta)


# The benchmark's traced run (bench/spans.py) still wraps this name, left
# from the LP wrapper that lpsolve.CutLP replaced; ROADMAP item 1 drops it
# from its WRAPS and deletes it here.
def solve_lp(*args, **kwargs):
    raise NotImplementedError("every LP is solved by a rarecc.lpsolve.CutLP")
