"""Experiment runner: reproduces the asymptotic statements as CSV reports.

Each run_* function maps a config to a list of report rows, one per
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

from .errors import ParameterError, check_count
from .limits import (angular_moment, limit_to_decision, solve_ht_limit,
                     solve_lt_limit)
from .methods import (_STREAM_CHUNK, analytic_ccp_value, analytic_cvar_value,
                      ccp_oracle, cvar_solve, scenario_solve, violation_prob,
                      wilson_halfwidth)
from .model import ProblemInstance, phi_many
from .sampler import (HeavyTailModel, LightTailModel, TailModel, draws_range,
                      heavy_fbar_inv, heavy_radii_range, sample_tail,
                      tail_radius)
from .search import mix_seed

EXPERIMENT_KINDS = ("cvar_ratio", "scenario_convergence", "feasibility_factor",
                    "frechet_check", "tail_ratio")


def as_count(name: str, value, least: int = 1) -> int:
    """A config count: an integral float (``1000.0``, not ``2.5``) counts as
    the int it equals, then :func:`~rarecc.errors.check_count` applies."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    return check_count(name, value, least)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; grids irrelevant to a kind are ignored.
    Counts may be integral floats (:func:`as_count`), except ``workers``."""

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
        if self.kind not in EXPERIMENT_KINDS:
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
        needs_delta = self.kind in ("cvar_ratio", "feasibility_factor")
        needs_k = self.kind in ("scenario_convergence", "frechet_check")
        if needs_delta and not self.delta_grid:
            raise ParameterError(f"{self.kind} needs a nonempty delta_grid")
        if needs_k and not self.k_grid:
            raise ParameterError(f"{self.kind} needs a nonempty k_grid")
        if self.kind == "tail_ratio" and not self.r_grid:
            raise ParameterError("tail_ratio needs a nonempty r_grid")
        for name in ("delta_grid", "k_grid", "r_grid"):
            # report rows are keyed by grid value, so a repeat would make two groups alike
            grid = [float(g) for g in getattr(self, name)]
            if len(set(grid)) != len(grid):
                raise ParameterError(f"{name} has duplicate values")
        if not all(0.0 < float(r) < math.inf for r in self.r_grid):
            raise ParameterError(f"r_grid values must be finite and > 0, got {self.r_grid!r}")
        if self.y_probe is not None:
            try:
                y = np.asarray(self.y_probe, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"y_probe must be a vector of numbers: {exc}") from exc
            if y.shape != (self.problem.m,):
                raise ParameterError(f"y_probe has shape {y.shape}, expected "
                                     f"({self.problem.m},)")
            if not (np.isfinite(y).all() and (y >= 0.0).all()):
                raise ParameterError("y_probe must be finite and nonnegative")
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


def _run_grid(cfg: ExperimentConfig, grid, task, agg):
    """Evaluate ``task(gi, g, rep, seed)`` over grid x replications, in
    parallel when asked, then append one aggregate row per grid point."""
    jobs = [(gi, g, rep, mix_seed(cfg.master_seed, gi, rep))
            for gi, g in enumerate(grid) for rep in range(cfg.replications)]
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(lambda j: task(*j), jobs))
    else:
        rows = [task(*j) for j in jobs]
    # pool.map keeps job order, so grid point gi owns rows [gi R, (gi + 1) R)
    R = cfg.replications
    out = []
    for gi, g in enumerate(grid):
        mine = rows[gi * R:(gi + 1) * R]
        out.extend(mine)
        out.append(agg(gi, g, mine))
    return out


def _mean_cv(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    mean = float(v.mean())
    sd = float(v.std(ddof=1)) if v.size > 1 else 0.0
    return mean, (sd / mean if mean != 0.0 else 0.0)


def run_cvar_ratio(cfg: ExperimentConfig) -> list[ReportRow]:
    """Ratio of the CVaR relaxation's value to the chance-constrained optimum.

    The reference optimum comes from the exact scalar formula when the
    instance is scalar, otherwise from the Monte Carlo oracle.  The target
    column records the limiting ratio: 1 under light tails, 1 - 1/alpha
    under heavy tails.
    """
    if cfg.kind != "cvar_ratio":
        raise ParameterError("config kind must be cvar_ratio")
    light = isinstance(cfg.tail, LightTailModel)
    target = 1.0 if light else 1.0 - 1.0 / cfg.tail.alpha
    scalar = _is_scalar(cfg.problem)

    def task(gi, delta, rep, seed):
        if scalar:
            v_ref = analytic_ccp_value(cfg.problem, cfg.tail, delta)
        else:
            v_ref = ccp_oracle(cfg.problem, cfg.tail, delta, cfg.budget,
                               mix_seed(seed, 1)).value
        v_cvar = cvar_solve(cfg.problem, cfg.tail, delta, cfg.budget,
                            mix_seed(seed, 2)).value
        return ReportRow(cfg.kind, float(delta), rep, v_cvar / v_ref, target,
                         v_ref, v_cvar, seed)

    def agg(gi, delta, rows):
        mean, cv = _mean_cv([r.stat for r in rows])
        try:
            ref = (analytic_cvar_value(cfg.problem, cfg.tail, delta)
                   / analytic_ccp_value(cfg.problem, cfg.tail, delta)) if scalar else target
        except ParameterError:
            ref = target
        return ReportRow(cfg.kind, float(delta), -1, mean, target, cv, ref,
                         cfg.master_seed)

    return _run_grid(cfg, cfg.delta_grid, task, agg)


def _limit_value(cfg: ExperimentConfig):
    if isinstance(cfg.tail, LightTailModel):
        return solve_lt_limit(cfg.tail, cfg.problem)
    return solve_ht_limit(cfg.tail, cfg.problem)


def _weibull_cv(alpha: float) -> float:
    m1 = math.gamma(1.0 + 1.0 / alpha)
    m2 = math.gamma(1.0 + 2.0 / alpha)
    return math.sqrt(m2 - m1 * m1) / m1


def run_scenario_convergence(cfg: ExperimentConfig) -> list[ReportRow]:
    """Value of the radius-scaled scenario program versus the limit value.

    Light tails: the normalized value concentrates at the limit value and
    the per-k coefficient of variation shrinks.  Heavy tails: the value
    stays random; for the scalar single-atom case its limit law is a
    Weibull(alpha) multiple of the limit value, whose CV is recorded in the
    aggregate row.
    """
    if cfg.kind != "scenario_convergence":
        raise ParameterError("config kind must be scenario_convergence")
    light = isinstance(cfg.tail, LightTailModel)
    sol = _limit_value(cfg)
    v_lim = sol.value
    if light:
        cv_ref = 0.0
    elif _is_scalar(cfg.problem):
        cv_ref = _weibull_cv(cfg.tail.alpha)
    else:
        cv_ref = math.nan

    def task(gi, k, rep, seed):
        if k < 2:
            # the radius at risk level 1/k needs 1/k < 1
            raise ParameterError("scenario scaling needs k >= 2")
        batch = sample_tail(cfg.tail, seed, k)
        radius = tail_radius(cfg.tail, 1.0 / k)
        res = scenario_solve(cfg.problem, batch, radius)
        return ReportRow(cfg.kind, float(k), rep, res.value, v_lim,
                         res.value / v_lim, radius, seed)

    def agg(gi, k, rows):
        mean, cv = _mean_cv([r.stat for r in rows])
        return ReportRow(cfg.kind, float(k), -1, mean, v_lim, cv, cv_ref,
                         cfg.master_seed)

    return _run_grid(cfg, cfg.k_grid, task, agg)


def run_feasibility_factor(cfg: ExperimentConfig) -> list[ReportRow]:
    """Violation probability of the rescaled limit decision, relative to delta.

    Restricted to the tail-independent light family with subexponential
    marginals (theta = 1, beta < 1), where the asymptotic inflation factor
    equals the risk dimension n; a positive shrink eta sends the ratio to
    zero instead (recorded as target 0).
    """
    if cfg.kind != "feasibility_factor":
        raise ParameterError("config kind must be feasibility_factor")
    tail = cfg.tail
    if not isinstance(tail, LightTailModel) or tail.theta != 1.0 or tail.beta >= 1.0:
        raise ParameterError("feasibility_factor needs a light tail with theta = 1, beta < 1")
    sol = solve_lt_limit(tail, cfg.problem)
    target = float(tail.n) if cfg.eta == 0.0 else 0.0

    def task(gi, delta, rep, seed):
        x = limit_to_decision(sol, tail, delta, cfg.eta, cfg.problem)
        est, hw = violation_prob(cfg.problem, x, tail, cfg.budget, seed)
        return ReportRow(cfg.kind, float(delta), rep, est / delta, target,
                         hw / delta, cfg.eta, seed)

    def agg(gi, delta, rows):
        mean, cv = _mean_cv([r.stat for r in rows])
        return ReportRow(cfg.kind, float(delta), -1, mean, target, cv, cfg.eta,
                         cfg.master_seed)

    return _run_grid(cfg, cfg.delta_grid, task, agg)


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


def run_frechet_check(cfg: ExperimentConfig) -> list[ReportRow]:
    """Distribution of the normalized maximal radius over many replications.

    Per replication the statistic is max_j R_j / Fbar^{-1}(1/k); the
    aggregate row carries the KS distance of the replicated statistics to
    the Frechet(alpha) law, whose median is the per-row target.
    """
    if cfg.kind != "frechet_check":
        raise ParameterError("config kind must be frechet_check")
    tail = cfg.tail
    if not isinstance(tail, HeavyTailModel):
        raise ParameterError("frechet_check needs a heavy tail")
    alpha = tail.alpha
    median = math.log(2.0) ** (-1.0 / alpha)

    def task(gi, k, rep, seed):
        radii = heavy_radii_range(tail, seed, 0, k)
        stat = float(radii.max() / heavy_fbar_inv(tail, 1.0 / k))
        return ReportRow(cfg.kind, float(k), rep, stat, median, alpha, k, seed)

    def agg(gi, k, rows):
        stats = [r.stat for r in rows]
        ks = ks_distance(stats, lambda t: frechet_cdf(t, alpha))
        mean, _ = _mean_cv(stats)
        return ReportRow(cfg.kind, float(k), -1, ks, median, mean, len(stats),
                         cfg.master_seed)

    return _run_grid(cfg, cfg.k_grid, task, agg)


def _row_sums(block: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D block, accumulated column by column left to right.

    Several times faster than ``block.sum(axis=1)`` on a tall, narrow block,
    and bit-identical to it for up to 7 columns.  From 8 columns on numpy
    sums pairwise; this stays left to right.
    """
    s = block[:, 0].copy()
    for j in range(1, block.shape[1]):
        s += block[:, j]
    return s


def run_tail_ratio(cfg: ExperimentConfig) -> list[ReportRow]:
    """Monte Carlo check of the exceedance ratio against its angular moment.

    For a probe decision y the ratio P(loss(y, L) > r) / P(|L| > r) is
    estimated on a shared sample at each probe radius r; the closed-form
    limit sum_k w_k phi(y, theta_k)^alpha is the target.
    """
    if cfg.kind != "tail_ratio":
        raise ParameterError("config kind must be tail_ratio")
    tail = cfg.tail
    if not isinstance(tail, HeavyTailModel):
        raise ParameterError("tail_ratio needs a heavy tail")
    if cfg.y_probe is not None:
        y = cfg.y_probe
    else:
        y = 0.5 * solve_ht_limit(tail, cfg.problem).y_star
    closed = angular_moment(tail, cfg.problem, y)

    def task(gi, r, rep, seed):
        hits_num = hits_den = 0
        for lo in range(0, cfg.budget, _STREAM_CHUNK):
            hi = min(lo + _STREAM_CHUNK, cfg.budget)
            block = draws_range(tail, seed, lo, hi)
            hits_num += int((phi_many(cfg.problem, y, block) > r).sum())
            hits_den += int((_row_sums(block) > r).sum())
        # a probe with identically zero loss has ratio 0 by definition; the
        # exceedance floor only guards estimates of a positive limit
        if hits_den < 100 or (closed > 0.0 and hits_num < 100):
            raise ParameterError(
                f"fewer than 100 exceedances at r={r} (num={hits_num}, den={hits_den}); "
                "increase the budget or lower r")
        stat = hits_num / hits_den
        return ReportRow(cfg.kind, float(r), rep, stat, closed,
                         wilson_halfwidth(hits_num, hits_den), hits_den, seed)

    def agg(gi, r, rows):
        mean, cv = _mean_cv([r_.stat for r_ in rows])
        return ReportRow(cfg.kind, float(r), -1, mean, closed, cv, closed,
                         cfg.master_seed)

    return _run_grid(cfg, cfg.r_grid, task, agg)


_RUNNERS = {
    "cvar_ratio": run_cvar_ratio,
    "scenario_convergence": run_scenario_convergence,
    "feasibility_factor": run_feasibility_factor,
    "frechet_check": run_frechet_check,
    "tail_ratio": run_tail_ratio,
}


def run_experiment(cfg: ExperimentConfig) -> tuple[list[ReportRow], list[str]]:
    """Dispatch on cfg.kind; returns (rows, CSV comment lines)."""
    rows = _RUNNERS[cfg.kind](cfg)
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
