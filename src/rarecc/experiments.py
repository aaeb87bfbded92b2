"""Experiment runner: reproduces the asymptotic statements as CSV reports.

``_KINDS`` names each experiment kind's grid field and runner.  A runner
checks the config, does the set-up its grid points share and returns two
functions that compute numbers only: ``task(g, seed)`` gives one
replication's (stat, target, aux1, aux2) at grid value g, and
``agg(g, stats)`` the same four for that grid point's replicated
statistics.  :func:`_run_grid` writes every report row from them: one per
(grid point, replication), plus a single aggregate row (rep = -1) per grid
point.  Per-replication seeds are derived from the master seed and the
(grid index, replication index) counters only, so results are identical
across reruns and across worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, InputError, ParameterError, check_count, check_delta,
                     check_tail_count, check_vector)
from .limits import (angular_moment, limit_to_decision, solve_ht_limit,
                     solve_lt_limit)
from .methods import (analytic_ccp_value, analytic_cvar_value, ccp_oracle,
                      cvar_solve, scenario_solve, violation_prob, wilson_halfwidth)
from .model import ProblemInstance, phi_many
from .sampler import (HeavyTailModel, LightTailModel, TailModel, exceedances,
                      heavy_fbar_inv, heavy_radius_max, sample_tail, tail_radius)
# unused here, but bench/spans.py wraps these two names in this module
from .sampler import draws_range, heavy_radii_range  # noqa: F401
from .search import mix_seed


def as_count(name: str, value, least: int = 1) -> int:
    """A config count: an integral float (``1000.0``, not ``2.5``) counts as
    the int it equals, then :func:`~rarecc.errors.check_count` applies."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    return check_count(name, value, least)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs.  All three grids are converted and
    checked, whatever the kind, and only the grid that ``_KINDS[kind]``
    names is run.  Counts may be integral floats (:func:`as_count`), except
    ``workers``."""

    kind: str
    problem: ProblemInstance
    tail: TailModel
    delta_grid: tuple = (1e-2, 1e-3, 1e-4)
    k_grid: tuple = (10 ** 3, 10 ** 4, 10 ** 5)
    replications: int = 1
    budget: int = 100_000
    master_seed: int = 0
    eta: float = 0.0
    r_grid: tuple = (10.0, 100.0)
    y_probe: np.ndarray | None = None
    workers: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown experiment kind {self.kind!r}")
        object.__setattr__(self, "workers", check_count("workers", self.workers))
        for name in ("replications", "budget"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        object.__setattr__(self, "master_seed", as_count("master_seed", self.master_seed,
                                                         least=0))
        object.__setattr__(self, "eta", float(self.eta))
        for name in ("delta_grid", "k_grid", "r_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "k_grid", tuple(as_count("k_grid value", k)
                                                 for k in self.k_grid))
        grid_name = _KINDS[self.kind][0]
        if not getattr(self, grid_name):
            raise ParameterError(f"{self.kind} needs a nonempty {grid_name}")
        for name in ("delta_grid", "k_grid", "r_grid"):
            # report rows are keyed by grid value, so a repeat would make two groups alike
            grid = [float(g) for g in getattr(self, name)]
            if len(set(grid)) != len(grid):
                raise ParameterError(f"{name} has duplicate values")
        for d in self.delta_grid:
            check_delta(float(d), f"delta_grid value {d!r}")
        if not all(0.0 < float(r) < math.inf for r in self.r_grid):
            raise ParameterError(f"r_grid values must be finite and > 0, got {self.r_grid!r}")
        if self.y_probe is not None:
            try:
                y = check_vector(self.y_probe, self.problem.m, "y_probe")
            except (ContractError, InputError) as exc:
                raise ParameterError(str(exc)) from exc
            object.__setattr__(self, "y_probe", y)


@dataclass(frozen=True)
class ReportRow:
    """One CSV record; ``rep`` is -1 for per-grid-point aggregate rows."""

    kind: str
    grid: float
    rep: int
    stat: float
    target: float
    aux1: float
    aux2: float
    seed: int


def _is_scalar(problem: ProblemInstance) -> bool:
    return problem.m == 1 and problem.n == 1 and problem.d == 1


def _run_grid(cfg: ExperimentConfig, grid, task, agg) -> list[ReportRow]:
    """Every report row of one experiment, in grid order.

    ``task(g, seed)`` returns one replication's (stat, target, aux1, aux2)
    at grid value g; it runs over grid x replications, on a thread pool when
    cfg.workers > 1.  ``agg(g, stats)`` returns the same four numbers for
    the list of a grid point's replicated stats.  The rows are laid out here
    and nowhere else: each replication's row carries its seed, and the
    aggregate row after them has rep = -1 and the master seed.
    """
    R = cfg.replications
    jobs = [(g, mix_seed(cfg.master_seed, gi, rep))
            for gi, g in enumerate(grid) for rep in range(R)]
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(lambda j: task(*j), jobs))
    else:
        results = [task(*j) for j in jobs]
    # pool.map keeps job order, so grid point gi owns jobs [gi R, (gi + 1) R)
    rows = []
    for gi, g in enumerate(grid):
        group = range(gi * R, (gi + 1) * R)
        rows += [ReportRow(cfg.kind, float(g), rep, *results[i], jobs[i][1])
                 for rep, i in enumerate(group)]
        rows.append(ReportRow(cfg.kind, float(g), -1, *agg(g, [results[i][0] for i in group]),
                              cfg.master_seed))
    return rows


def _mean_cv(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    mean = float(v.mean())
    sd = float(v.std(ddof=1)) if v.size > 1 else 0.0
    return mean, (sd / mean if mean != 0.0 else 0.0)


def _run_cvar_ratio(cfg: ExperimentConfig):
    """Ratio of the CVaR relaxation's value to the chance-constrained optimum.

    The reference optimum comes from the exact scalar formula when the
    instance is scalar, otherwise from the Monte Carlo oracle.  The target
    column records the limiting ratio: 1 under light tails, 1 - 1/alpha
    under heavy tails.
    """
    light = isinstance(cfg.tail, LightTailModel)
    target = 1.0 if light else 1.0 - 1.0 / cfg.tail.alpha
    scalar = _is_scalar(cfg.problem)
    # the first method each task runs checks this rule too; every delta is
    # checked here, before any task runs
    name, why = ("sample_count", "") if scalar else ("budget", " for a stable quantile")
    for delta in cfg.delta_grid:
        check_tail_count(float(delta), cfg.budget, name, why)

    def task(delta, seed):
        if scalar:
            v_ref = analytic_ccp_value(cfg.problem, cfg.tail, delta)
        else:
            v_ref = ccp_oracle(cfg.problem, cfg.tail, delta, cfg.budget,
                               mix_seed(seed, 1)).value
        v_cvar = cvar_solve(cfg.problem, cfg.tail, delta, cfg.budget,
                            mix_seed(seed, 2)).value
        return v_cvar / v_ref, target, v_ref, v_cvar

    def agg(delta, stats):
        mean, cv = _mean_cv(stats)
        try:
            ref = (analytic_cvar_value(cfg.problem, cfg.tail, delta)
                   / analytic_ccp_value(cfg.problem, cfg.tail, delta)) if scalar else target
        except ParameterError:
            ref = target
        return mean, target, cv, ref

    return task, agg


def _weibull_cv(alpha: float) -> float:
    m1 = math.gamma(1.0 + 1.0 / alpha)
    m2 = math.gamma(1.0 + 2.0 / alpha)
    return math.sqrt(m2 - m1 * m1) / m1


def _run_scenario_convergence(cfg: ExperimentConfig):
    """Value of the radius-scaled scenario program versus the limit value.

    Light tails: the normalized value concentrates at the limit value and
    the per-k coefficient of variation shrinks.  Heavy tails: the value
    stays random; for the scalar single-atom case its limit law is a
    Weibull(alpha) multiple of the limit value, whose CV is recorded in the
    aggregate row.
    """
    if min(cfg.k_grid) < 2:
        # the radius at risk level 1/k needs 1/k < 1
        raise ParameterError("scenario scaling needs k >= 2")
    light = isinstance(cfg.tail, LightTailModel)
    v_lim = (solve_lt_limit if light else solve_ht_limit)(cfg.tail, cfg.problem).value
    if light:
        cv_ref = 0.0
    elif _is_scalar(cfg.problem):
        cv_ref = _weibull_cv(cfg.tail.alpha)
    else:
        cv_ref = math.nan

    def task(k, seed):
        batch = sample_tail(cfg.tail, seed, k)
        radius = tail_radius(cfg.tail, 1.0 / k)
        res = scenario_solve(cfg.problem, batch, radius)
        return res.value, v_lim, res.value / v_lim, radius

    def agg(k, stats):
        mean, cv = _mean_cv(stats)
        return mean, v_lim, cv, cv_ref

    return task, agg


def _run_feasibility_factor(cfg: ExperimentConfig):
    """Violation probability of the rescaled limit decision, relative to delta.

    Restricted to the tail-independent light family with subexponential
    marginals (theta = 1, beta < 1), where the asymptotic inflation factor
    equals the risk dimension n; a positive shrink eta sends the ratio to
    zero instead (recorded as target 0).
    """
    tail = cfg.tail
    if not isinstance(tail, LightTailModel) or tail.theta != 1.0 or tail.beta >= 1.0:
        raise ParameterError("feasibility_factor needs a light tail with theta = 1, beta < 1")
    sol = solve_lt_limit(tail, cfg.problem)
    target = float(tail.n) if cfg.eta == 0.0 else 0.0

    def task(delta, seed):
        x = limit_to_decision(sol, tail, delta, cfg.eta, cfg.problem)
        est, hw = violation_prob(cfg.problem, x, tail, cfg.budget, seed)
        return est / delta, target, hw / delta, cfg.eta

    def agg(delta, stats):
        mean, cv = _mean_cv(stats)
        return mean, target, cv, cfg.eta

    return task, agg


def ks_distance(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance between data and a CDF."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    f = np.asarray([cdf(v) for v in s])
    upper = np.abs(np.arange(1, n + 1) / n - f).max()
    lower = np.abs(f - np.arange(0, n) / n).max()
    return float(max(upper, lower))


def frechet_cdf(t, alpha: float) -> float:
    if t <= 0.0:
        return 0.0
    return math.exp(-t ** (-alpha))


def _run_frechet_check(cfg: ExperimentConfig):
    """Distribution of the normalized maximal radius over many replications.

    Per replication the statistic is max_j R_j / Fbar^{-1}(1/k); the
    aggregate row carries the KS distance of the replicated statistics to
    the Frechet(alpha) law, whose median is the per-row target.

    The maximal radius is taken from the uniforms without building the k
    radii, equal to their maximum bit for bit
    (:func:`~rarecc.sampler.heavy_radius_max` gives the proof).
    """
    tail = cfg.tail
    if not isinstance(tail, HeavyTailModel):
        raise ParameterError("frechet_check needs a heavy tail")
    alpha = tail.alpha
    median = math.log(2.0) ** (-1.0 / alpha)

    def task(k, seed):
        stat = heavy_radius_max(tail, seed, k) / heavy_fbar_inv(tail, 1.0 / k)
        return stat, median, alpha, k

    def agg(k, stats):
        ks = ks_distance(stats, lambda t: frechet_cdf(t, alpha))
        mean, _ = _mean_cv(stats)
        return ks, median, mean, len(stats)

    return task, agg


def _run_tail_ratio(cfg: ExperimentConfig):
    """Monte Carlo check of the exceedance ratio against its angular moment.

    For a probe decision y the ratio P(loss(y, L) > r) / P(|L| > r) is
    estimated at each probe radius r on one shared sample, whose two
    exceedance counts are one :func:`~rarecc.sampler.exceedances`; the
    closed-form limit sum_k w_k phi(y, theta_k)^alpha is the target.
    """
    tail = cfg.tail
    if not isinstance(tail, HeavyTailModel):
        raise ParameterError("tail_ratio needs a heavy tail")
    if cfg.y_probe is not None:
        y = cfg.y_probe
    else:
        y = 0.5 * solve_ht_limit(tail, cfg.problem).y_star
    closed = angular_moment(tail, cfg.problem, y)

    def losses(draws):
        return phi_many(cfg.problem, y, draws), draws.sum(axis=1)

    def task(r, seed):
        hits_num, hits_den = map(int, exceedances(tail, seed, cfg.budget, losses, (r, r)))
        # a probe with identically zero loss has ratio 0 by definition; the
        # exceedance floor only guards estimates of a positive limit
        if hits_den < 100 or (closed > 0.0 and hits_num < 100):
            raise ParameterError(
                f"fewer than 100 exceedances at r={r} (num={hits_num}, den={hits_den}); "
                "increase the budget or lower r")
        return hits_num / hits_den, closed, wilson_halfwidth(hits_num, hits_den), hits_den

    def agg(r, stats):
        mean, cv = _mean_cv(stats)
        return mean, closed, cv, closed

    return task, agg


# kind -> (the config field holding its grid, its runner)
_KINDS = {
    "cvar_ratio": ("delta_grid", _run_cvar_ratio),
    "scenario_convergence": ("k_grid", _run_scenario_convergence),
    "feasibility_factor": ("delta_grid", _run_feasibility_factor),
    "frechet_check": ("k_grid", _run_frechet_check),
    "tail_ratio": ("r_grid", _run_tail_ratio),
}


def run_experiment(cfg: ExperimentConfig) -> tuple[list[ReportRow], list[str]]:
    """Run cfg.kind's runner over its grid; returns (rows, CSV comment lines)."""
    grid_name, runner = _KINDS[cfg.kind]
    rows = _run_grid(cfg, getattr(cfg, grid_name), *runner(cfg))
    comments = []
    if cfg.kind == "cvar_ratio":
        comments.append(f"# oracle={'analytic' if _is_scalar(cfg.problem) else 'mc'}")
    return rows, comments


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def write_report(rows: list[ReportRow], path, comments: list[str] = ()) -> None:
    """Write rows as CSV: pinned 8-column header, 12 significant digits, LF."""
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(line.rstrip("\n") + "\n")
        fh.write("kind,grid,rep,stat,target,aux1,aux2,seed\n")
        for r in rows:
            fh.write(",".join([r.kind, _fmt(r.grid), str(r.rep), _fmt(r.stat),
                               _fmt(r.target), _fmt(r.aux1), _fmt(r.aux2),
                               str(r.seed)]) + "\n")
