"""Seeded answer lists for the rarecc benchmark, with their correctness checks.

An *answer* is one public rarecc call whose result a user would act on.
``build`` turns a workload name and seed into a fixed list of answers; the
harness in ``run.py`` times each ``call`` and runs its ``check`` outside the
timed region.  A check raises :class:`CheckFailed` or returns the answer's
fingerprint: the optimal value (or estimate, or CSV digest).  Fingerprints
must repeat exactly in every pass of a run; those of answers without a closed
form (``recorded``) are also compared with the references in ``refs.json``.

Every call goes through a module attribute (``methods.cvar_solve``, not a
name imported here), so the traced run can wrap it.  Checks use the
functions bound below at import time, which tracing never replaces.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from rarecc import cli, methods
from rarecc.model import ProblemInstance
from rarecc.sampler import HeavyTailModel, LightTailModel, draws_range

WORKLOADS = ("cvar", "reproduce")
# the random stream of each workload; refs.json was recorded with these
_STREAMS = {"cvar": 0, "reproduce": 3}

#: Optimal values must match closed forms and recorded references this closely.
REL_TOL = 1e-9
#: The limit programs are solved by a Nelder-Mead ray search with no
#: certificate; the package's own tests hold it to 1e-6.
LIMIT_TOL = 1e-6


class CheckFailed(Exception):
    """An answer's result disagrees with its closed form, invariant or reference."""


@dataclass(frozen=True)
class Answer:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    recorded: bool = False      # no closed form: compare with refs.json


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def _seed_from(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 63))


def _close(got: float, want: float, what: str, rel: float = REL_TOL) -> None:
    if not abs(got - want) <= rel * max(abs(got), abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def _in_box(x: np.ndarray, hi: float, what: str) -> None:
    if (x < -1e-9).any() or (x > hi * (1 + 1e-9)).any():
        raise CheckFailed(f"{what}: decision {x} leaves the box [0, {hi}]")


def _losses(problem: ProblemInstance, x: np.ndarray, draws: np.ndarray) -> np.ndarray:
    return (draws @ (x @ problem.A).T).max(axis=1)


def sample_cvar(losses: np.ndarray, delta: float) -> float:
    """Sample CVaR: min over tau of tau + mean((L - tau)^+) / delta.

    The objective is piecewise linear with kinks at the order statistics; at
    the j-th largest value s_j it equals s_j (1 - j/(delta n)) + S_j/(delta n)
    with S_j the sum of the j larger values, and the minimum sits near
    j = delta n.
    """
    n = losses.size
    dn = delta * n
    k = min(n, math.ceil(dn) + 1)
    top = np.sort(np.partition(losses, n - k)[n - k:])[::-1]
    prefix = np.concatenate([[0.0], np.cumsum(top[:-1])])
    j = np.arange(k)
    return float((top * (1.0 - j / dn) + prefix / dn).min())


def _instances() -> dict:
    scalar = ProblemInstance(c=[1.0], h=10.0, A=[[[1.0]]])
    ident2 = ProblemInstance(c=[1.0, 1.0], h=100.0, A=[np.eye(2)])
    diag3 = ProblemInstance(c=[3.0, 2.0, 1.0], h=1000.0, A=[np.diag([1.0, 2.0, 4.0])])
    return {
        "pareto": (scalar, HeavyTailModel.from_pairs(n=1, alpha=2.0, pairs=[(1.0, [1.0])])),
        "exp": (scalar, LightTailModel(n=1, beta=1.0, theta=1.0)),
        "heavy2": (ident2, HeavyTailModel.from_pairs(
            n=2, alpha=2.0, pairs=[(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])])),
        "light3": (diag3, LightTailModel(n=3, beta=0.5, theta=2.0)),
    }


def _is_scalar(problem: ProblemInstance) -> bool:
    return problem.m == problem.n == problem.d == 1


# ---------------------------------------------------------------- cvar

# (instance, delta, sample count, repeats).  delta N of 100-400 keeps pruned
# LPs of 300-600 rows (the scalar row counts do not depend on the draws);
# heavy2 at N=500 takes the direct, unpruned path.  The two 600-row solves
# are the slowest class, a sixth of the answers, so answer_p90_ms follows them.
_CVAR_PLAN = [
    ("pareto", 1e-2, 20_000, 2), ("exp", 1e-2, 20_000, 2),
    ("light3", 1e-2, 10_000, 2), ("heavy2", 1e-2, 10_000, 2),
    ("heavy2", 0.2, 500, 2), ("pareto", 1e-2, 40_000, 1), ("exp", 1e-2, 40_000, 1),
]


def _cvar_answer(name, problem, tail, delta, count, seed) -> Answer:
    def check(res):
        draws = draws_range(tail, seed, 0, count)
        x = np.asarray(res.x)
        _in_box(x, problem.h, "cvar")
        _close(res.value, float(problem.c @ x), "cvar value vs c.x")
        cv = sample_cvar(_losses(problem, x, draws), delta)
        if cv > 1.0 + 1e-7:
            raise CheckFailed(f"cvar: sample CVaR at the solution is {cv!r} > 1")
        if _is_scalar(problem):
            a, c0 = problem.A[0, 0, 0], problem.c[0]
            want = c0 * min(problem.h, 1.0 / (a * sample_cvar(draws[:, 0], delta)))
            _close(res.value, want, "cvar value vs sorted-draw optimum")
        return [res.value]

    return Answer(f"cvar/{name}/delta={delta:g}/N={count}/seed={seed}",
                  lambda: methods.cvar_solve(problem, tail, delta, count, seed), check,
                  recorded=not _is_scalar(problem))


def _cvar(seed: int, workdir, workers: int) -> list[Answer]:
    rng = _rng(seed, "cvar")
    inst = _instances()
    return [_cvar_answer(name, *inst[name], delta, count, _seed_from(rng))
            for name, delta, count, reps in _CVAR_PLAN for _ in range(reps)]


# ------------------------------------------------------------ reproduce

_TWO_ATOM = {"problem": {"c": [1.0, 1.0], "h": 100.0, "A": [[[1.0, 0.0], [0.0, 1.0]]]},
             "tail": {"kind": "heavy", "alpha": 2.0,
                      "atoms": [[0.5, [1.0, 0.0]], [0.5, [0.0, 1.0]]]}}
_PARETO = {"problem": {"c": [1.0], "h": 10.0, "A": [[[1.0]]]},
           "tail": {"kind": "heavy", "alpha": 2.0}}
# reduced copies of the bundled experiment kinds; grid key and config
_REPRODUCE = {
    "scenario_convergence": ("k_grid", dict(_PARETO, experiment={
        "kind": "scenario_convergence", "k_grid": [1000, 10000], "replications": 60})),
    "feasibility_factor": ("delta_grid", {
        "problem": {"c": [1.0, 1.0, 1.0], "h": 1000.0,
                    "A": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]},
        "tail": {"kind": "light", "beta": 0.5, "theta": 1.0},
        "experiment": {"kind": "feasibility_factor", "delta_grid": [1e-3],
                       "replications": 2, "budget": 1_000_000, "eta": 0.0}}),
    "frechet_check": ("k_grid", dict(_PARETO, experiment={
        "kind": "frechet_check", "k_grid": [10000], "replications": 300})),
    "tail_ratio": ("r_grid", dict(_TWO_ATOM, experiment={
        "kind": "tail_ratio", "r_grid": [10.0, 30.0], "replications": 1,
        "budget": 1_000_000, "y_probe": [0.9, 0.3]})),
    "cvar_ratio": ("delta_grid", dict(_TWO_ATOM, experiment={
        "kind": "cvar_ratio", "delta_grid": [2e-2], "replications": 4, "budget": 5000})),
}
_CSV_HEADER = b"kind,grid,rep,stat,target,aux1,aux2,seed"


def _cli(argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.cli_main(argv)
    return call


def _experiment_answer(name, cfg_path, csv_path, rows, workers) -> Answer:
    def check(rc):
        if rc != 0:
            raise CheckFailed(f"experiment {name}: exit code {rc}")
        data = csv_path.read_bytes()
        lines = [ln for ln in data.split(b"\n") if ln and not ln.startswith(b"#")]
        if lines[0] != _CSV_HEADER or len(lines) - 1 != rows:
            raise CheckFailed(f"experiment {name}: expected {rows} rows under the pinned header")
        return [hashlib.sha256(data).hexdigest()]

    argv = ["experiment", str(cfg_path), "--out", str(csv_path), "--workers", str(workers)]
    return Answer(f"experiment/{name}", _cli(argv), check, recorded=True)


def _limit_cli_answer(command, cfg, exact, workdir) -> Answer:
    path, out_path = workdir / f"{command}.json", workdir / f"{command}-solution.json"
    path.write_text(json.dumps(cfg))

    def check(rc):
        if rc != 0:
            raise CheckFailed(f"{command}: exit code {rc}")
        value = json.loads(out_path.read_text())["value"]
        _close(value, exact, f"{command} value vs closed form", LIMIT_TOL)
        return [value]

    return Answer(f"cli/{command}", _cli([command, str(path), "--out", str(out_path)]), check)


def _reproduce(seed: int, workdir, workers: int) -> list[Answer]:
    rng = _rng(seed, "reproduce")
    out = []
    for name, (grid_key, cfg) in _REPRODUCE.items():
        cfg = dict(cfg, master_seed=_seed_from(rng))
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        exp = cfg["experiment"]
        rows = len(exp[grid_key]) * (exp["replications"] + 1)
        out.append(_experiment_answer(name, path, workdir / f"{name}-w{workers}.csv",
                                      rows, workers))
    # the two limit-program examples solved before the experiments, with the
    # objective drawn from the seed.  Light: gamma = beta theta <= 1, so the
    # optimum is the vertex y_i = 1/a_i.  Heavy two-atom: the constraint is
    # |y|_2 <= sqrt(2), so the optimum is sqrt(2) |c|_2.
    a, c = np.array([1.0, 2.0, 4.0]), rng.uniform(0.5, 2.0, 3)
    light = {"problem": {"c": c.tolist(), "h": 1000.0, "A": [np.diag(a).tolist()]},
             "tail": {"kind": "light", "beta": 0.5, "theta": 1.0}}
    out.append(_limit_cli_answer("lt-limit", light, float(np.sum(c / a)), workdir))
    c = rng.uniform(0.5, 2.0, 2)
    heavy = dict(_TWO_ATOM, problem=dict(_TWO_ATOM["problem"], c=c.tolist()))
    out.append(_limit_cli_answer("ht-limit", heavy, math.sqrt(2.0) * float(np.linalg.norm(c)),
                                 workdir))
    return out


_BUILDERS = {"cvar": _cvar, "reproduce": _reproduce}


def build(workload: str, seed: int, workdir, workers: int) -> list[Answer]:
    """The workload's answer list for ``seed``; ``workers`` is the experiment
    thread count and only affects ``reproduce``, which writes its configs
    into ``workdir``."""
    return _BUILDERS[workload](seed, workdir, workers)
