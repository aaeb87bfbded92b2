import math

import numpy as np
import pytest

import rarecc.experiments
from _oracles import exp_cc_value, exp_cvar_value
from rarecc import (ExperimentConfig, HeavyTailModel, LightTailModel,
                    ParameterError, ProblemInstance, ks_distance, phi_many,
                    run_experiment, wilson_halfwidth, write_report)
from rarecc.experiments import frechet_cdf
from rarecc.sampler import draws_range
from test_sampler import STREAM_BUDGETS


def heavy_cfg(**kw):
    prob = ProblemInstance(c=[1.0], h=10.0, A=[[[1.0]]])
    tail = HeavyTailModel.from_pairs(n=1, alpha=2.0, pairs=[(1.0, [1.0])])
    base = dict(problem=prob, tail=tail, master_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def light_cfg(**kw):
    prob = ProblemInstance(c=[1.0], h=10.0, A=[[[1.0]]])
    tail = LightTailModel(n=1, beta=1.0, theta=1.0)
    base = dict(problem=prob, tail=tail, master_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_cvar_ratio_heavy_targets_and_stats():
    cfg = heavy_cfg(kind="cvar_ratio", delta_grid=(1e-2,), replications=2,
                    budget=60_000)
    rows, comments = run_experiment(cfg)
    assert comments == ["# oracle=analytic"]
    per_rep = [r for r in rows if r.rep >= 0]
    agg = [r for r in rows if r.rep == -1]
    assert len(per_rep) == 2 and len(agg) == 1
    for r in per_rep:
        assert r.target == pytest.approx(0.5)        # 1 - 1/alpha
        assert r.stat == pytest.approx(0.5, rel=0.25)
    # aggregate carries the exact finite-delta reference ratio
    assert agg[0].aux2 == pytest.approx(0.5)


def test_cvar_ratio_light_reference_column():
    cfg = light_cfg(kind="cvar_ratio", delta_grid=(1e-2,), replications=1,
                    budget=60_000)
    rows, _ = run_experiment(cfg)
    agg = [r for r in rows if r.rep == -1][0]
    assert agg.target == 1.0
    ref = exp_cvar_value(1e-2) / exp_cc_value(1e-2)
    assert agg.aux2 == pytest.approx(ref, rel=1e-12)
    assert agg.stat == pytest.approx(ref, rel=0.05)


def test_scenario_convergence_light_tightens():
    cfg = light_cfg(kind="scenario_convergence", k_grid=(100, 10_000),
                    replications=40)
    rows, _ = run_experiment(cfg)
    aggs = {int(r.grid): r for r in rows if r.rep == -1}
    assert aggs[100].target == pytest.approx(1.0)    # c^T y* for Exp(1), a=1
    # dispersion shrinks and the mean approaches the limit value
    assert aggs[10_000].aux1 < aggs[100].aux1
    assert abs(aggs[10_000].stat - 1.0) < abs(aggs[100].stat - 1.0) + 0.05


def test_scenario_convergence_heavy_cv_reference():
    cfg = heavy_cfg(kind="scenario_convergence", k_grid=(2000,), replications=60)
    rows, _ = run_experiment(cfg)
    agg = [r for r in rows if r.rep == -1][0]
    assert agg.aux2 == pytest.approx(0.5227, abs=2e-4)   # Weibull(2) CV
    assert 0.3 < agg.aux1 < 0.8


def test_feasibility_factor_dimension_one_is_exact():
    cfg = light_cfg(kind="feasibility_factor", delta_grid=(1e-2,),
                    replications=1, budget=400_000)
    cfg = ExperimentConfig(**{**cfg.__dict__, "tail": LightTailModel(n=1, beta=0.5)})
    rows, _ = run_experiment(cfg)
    row = [r for r in rows if r.rep == 0][0]
    # n = 1: the true violation equals delta exactly; MC noise only
    assert abs(row.stat - 1.0) <= 4 * row.aux1
    assert row.target == 1.0


def test_feasibility_factor_requires_subexponential():
    cfg_bad = light_cfg(kind="feasibility_factor", delta_grid=(1e-2,),
                        replications=1)
    with pytest.raises(ParameterError):
        run_experiment(cfg_bad)     # beta = 1 not < 1


def test_frechet_check_k1_anti_test():
    cfg = heavy_cfg(kind="frechet_check", k_grid=(1, 5000), replications=300)
    rows, _ = run_experiment(cfg)
    aggs = {int(r.grid): r for r in rows if r.rep == -1}
    assert aggs[1].stat > 0.1          # no max effect at k = 1
    assert aggs[5000].stat < 0.08
    assert aggs[5000].target == pytest.approx(math.log(2.0) ** -0.5, rel=1e-9)


def test_tail_ratio_two_atom(two_atom_model, identity_problem2):
    cfg = ExperimentConfig(kind="tail_ratio", problem=identity_problem2,
                           tail=two_atom_model, r_grid=(10.0,), replications=1,
                           budget=2_000_000, master_seed=6,
                           y_probe=np.array([1.0, 0.5]))
    rows, _ = run_experiment(cfg)
    row = [r for r in rows if r.rep == 0][0]
    closed = 0.5 * 1.0 ** 2 + 0.5 * 0.5 ** 2
    assert row.target == pytest.approx(closed)
    assert row.stat == pytest.approx(closed, rel=0.05)


def test_tail_ratio_single_atom_quarter(identity_problem2):
    # phi(y, atom) = 0.5 at alpha = 2 gives a limit ratio of 0.25
    model = HeavyTailModel.from_pairs(n=2, alpha=2.0, pairs=[(1.0, [0.5, 0.5])])
    cfg = ExperimentConfig(kind="tail_ratio", problem=identity_problem2,
                           tail=model, r_grid=(10.0,), replications=1,
                           budget=3_000_000, master_seed=7,
                           y_probe=np.array([0.5, 0.5]))
    rows, _ = run_experiment(cfg)
    row = [r for r in rows if r.rep == 0][0]
    assert row.target == pytest.approx(0.25)
    assert row.stat == pytest.approx(0.25, rel=0.05)


def test_tail_ratio_zero_probe(two_atom_model, identity_problem2):
    cfg = ExperimentConfig(kind="tail_ratio", problem=identity_problem2,
                           tail=two_atom_model, r_grid=(10.0,), replications=1,
                           budget=200_000, master_seed=7,
                           y_probe=np.zeros(2))
    rows, _ = run_experiment(cfg)
    row = [r for r in rows if r.rep == 0][0]
    assert row.stat == 0.0 and row.target == 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_tail_ratio_streams_like_the_whole_sample(two_atom_model, identity_problem2, workers):
    y = np.array([1.0, 0.5])
    for budget in STREAM_BUDGETS:
        cfg = ExperimentConfig(kind="tail_ratio", problem=identity_problem2,
                               tail=two_atom_model, r_grid=(1.5, 2.0), replications=2,
                               budget=budget, master_seed=3, y_probe=y, workers=workers)
        rows = [r for r in run_experiment(cfg)[0] if r.rep >= 0]
        assert len(rows) == 4
        for row in rows:
            draws = draws_range(two_atom_model, row.seed, 0, budget)
            num = int((phi_many(identity_problem2, y, draws) > row.grid).sum())
            den = int((draws.sum(axis=1) > row.grid).sum())
            assert (row.stat, row.aux1, row.aux2) == (num / den, wilson_halfwidth(num, den),
                                                      den), (budget, row)


def test_tail_ratio_insufficient_exceedances(two_atom_model, identity_problem2):
    cfg = ExperimentConfig(kind="tail_ratio", problem=identity_problem2,
                           tail=two_atom_model, r_grid=(1000.0,), replications=1,
                           budget=100_000, master_seed=6)
    with pytest.raises(ParameterError):
        run_experiment(cfg)


def test_rows_sorted_and_counted():
    cfg = heavy_cfg(kind="frechet_check", k_grid=(10, 100), replications=7)
    rows, _ = run_experiment(cfg)
    assert len(rows) == 2 * (7 + 1)
    grids = [r.grid for r in rows]
    assert grids == sorted(grids)
    by_grid = [r.rep for r in rows if r.grid == 10.0]
    assert by_grid == list(range(7)) + [-1]


def test_determinism_and_worker_invariance():
    base = dict(kind="scenario_convergence", k_grid=(500,), replications=9)
    r1, _ = run_experiment(heavy_cfg(**base, workers=1))
    r2, _ = run_experiment(heavy_cfg(**base, workers=1))
    r3, _ = run_experiment(heavy_cfg(**base, workers=4))
    assert r1 == r2 == r3


def test_csv_format(tmp_path):
    cfg = heavy_cfg(kind="frechet_check", k_grid=(50,), replications=3)
    rows, comments = run_experiment(cfg)
    out = tmp_path / "report.csv"
    write_report(rows, out, comments)
    data = out.read_bytes()
    assert b"\r" not in data
    lines = data.decode().splitlines()
    assert lines[0] == "kind,grid,rep,stat,target,aux1,aux2,seed"
    assert len(lines) == 1 + len(rows)
    stat_field = lines[1].split(",")[3]
    assert stat_field == f"{float(stat_field):.12g}"   # 12 significant digits
    # identical rerun writes identical bytes
    out2 = tmp_path / "report2.csv"
    rows2, comments2 = run_experiment(cfg)
    write_report(rows2, out2, comments2)
    assert out2.read_bytes() == data


def test_ks_distance_helper():
    rng = np.random.default_rng(0)
    u = rng.uniform(size=4000)
    assert ks_distance(u, lambda t: min(max(t, 0.0), 1.0)) < 0.03
    assert ks_distance(u, lambda t: frechet_cdf(t, 2.0)) > 0.2


def test_config_validation():
    with pytest.raises(ParameterError):
        heavy_cfg(kind="nonsense")
    with pytest.raises(ParameterError):
        heavy_cfg(kind="cvar_ratio", delta_grid=(), replications=1)
    with pytest.raises(ParameterError):
        heavy_cfg(kind="frechet_check", k_grid=(10,), replications=0)
    with pytest.raises(ParameterError):
        run_experiment(light_cfg(kind="tail_ratio", r_grid=(10.0,)))
    # rows are grouped by grid value: a repeat would double every group
    with pytest.raises(ParameterError):
        heavy_cfg(kind="frechet_check", k_grid=(100, 100), replications=3)
    with pytest.raises(ParameterError):
        heavy_cfg(kind="cvar_ratio", delta_grid=(1e-2, 0.01))


@pytest.mark.parametrize("y_probe", [[1.0, 2.0, 3.0], [[1.0]], [math.nan], [math.inf],
                                     [-1.0], ["x"]])
def test_config_rejects_bad_y_probe(y_probe):
    # shape (m,), finite and nonnegative, checked before any solver sees it
    with pytest.raises(ParameterError, match="y_probe"):
        heavy_cfg(kind="tail_ratio", r_grid=(10.0,), y_probe=y_probe)


def test_config_stores_y_probe_as_float_vector():
    cfg = heavy_cfg(kind="tail_ratio", r_grid=(10.0,), y_probe=[1])
    assert cfg.y_probe.dtype == float and cfg.y_probe.tolist() == [1.0]


@pytest.mark.parametrize("r", [-5.0, 0.0, math.inf, math.nan])
def test_config_rejects_bad_r_grid(r):
    # r_grid [-5.0] ran and wrote stat = 1 rows
    with pytest.raises(ParameterError, match="r_grid"):
        heavy_cfg(kind="tail_ratio", r_grid=(10.0, r))


@pytest.mark.parametrize("delta", [1.5, 1.0, 0.0, -0.1, math.nan])
def test_config_rejects_bad_delta_grid(delta):
    # [0.02, 1.5] ran every 0.02 replication before failing on 1.5
    with pytest.raises(ParameterError, match="delta_grid"):
        heavy_cfg(kind="cvar_ratio", delta_grid=(0.02, delta))


def test_config_holds_the_defaults_and_conversions():
    cfg = heavy_cfg(kind="cvar_ratio", r_grid=[10, 30.0], eta=0, k_grid=[100])
    assert cfg.delta_grid == (1e-2, 1e-3, 1e-4)
    assert cfg.r_grid == (10, 30.0) and cfg.k_grid == (100,)
    assert type(cfg.eta) is float
    assert heavy_cfg(kind="frechet_check").k_grid == (10 ** 3, 10 ** 4, 10 ** 5)


def test_heavy_scenario_scaling_needs_k_of_two():
    # risk level 1/k = 1 lies outside (0, 1), for heavy tails as for light ones
    with pytest.raises(ParameterError, match="k >= 2"):
        run_experiment(heavy_cfg(kind="scenario_convergence", k_grid=(1,)))


def test_scenario_k_rule_fails_before_any_work(monkeypatch):
    # a k < 2 anywhere in the grid stops the run before the limit solve and
    # before the replications of the valid k that precede it
    def ran(*args, **kwargs):
        raise AssertionError("work started before the k rule was checked")

    for name in ("sample_tail", "solve_ht_limit", "solve_lt_limit"):
        monkeypatch.setattr(rarecc.experiments, name, ran)
    for cfg in (heavy_cfg, light_cfg):
        with pytest.raises(ParameterError, match="k >= 2"):
            run_experiment(cfg(kind="scenario_convergence", k_grid=(1000, 1)))


@pytest.mark.parametrize("oracle", ["analytic", "mc"])
def test_cvar_ratio_tail_count_rule_fails_before_any_work(monkeypatch, oracle, two_atom_model,
                                                          identity_problem2):
    # delta * budget = 20 < 100 at the last grid point must fail before the
    # replications of the valid delta ahead of it run
    def ran(*args, **kwargs):
        raise AssertionError("work started before the tail-count rule was checked")

    for name in ("analytic_ccp_value", "ccp_oracle", "cvar_solve"):
        monkeypatch.setattr(rarecc.experiments, name, ran)
    kw = dict(kind="cvar_ratio", delta_grid=(0.02, 0.0001), replications=4, budget=200_000)
    if oracle == "analytic":
        cfg, message = heavy_cfg(**kw), "need delta \\* sample_count >= 100$"
    else:
        cfg = heavy_cfg(problem=identity_problem2, tail=two_atom_model, **kw)
        message = "need delta \\* budget >= 100 for a stable quantile"
    with pytest.raises(ParameterError, match=message):
        run_experiment(cfg)


@pytest.mark.parametrize("workers", [0, -3, True, 2.0])
def test_config_rejects_bad_workers(workers):
    with pytest.raises(ParameterError):
        heavy_cfg(kind="frechet_check", k_grid=(10,), workers=workers)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "5"])
def test_config_rejects_bad_master_seed(seed):
    with pytest.raises(ParameterError):
        heavy_cfg(kind="frechet_check", k_grid=(10,), master_seed=seed)


def test_config_accepts_integral_master_seed():
    for seed in (0, 7.0, np.int64(3)):
        cfg = heavy_cfg(kind="frechet_check", k_grid=(10,), master_seed=seed)
        assert cfg.master_seed == seed and type(cfg.master_seed) is int


@pytest.mark.parametrize("k", [0, 100.7, True, -1.0, float("nan"), float("inf"), "100"])
def test_config_rejects_bad_k(k):
    with pytest.raises(ParameterError):
        heavy_cfg(kind="frechet_check", k_grid=(k,))


def test_config_accepts_integral_k():
    cfg = heavy_cfg(kind="frechet_check", k_grid=(1000.0, np.int64(10), 1), workers=np.int64(2))
    assert cfg.k_grid == (1000, 10, 1)
    assert all(type(k) is int for k in cfg.k_grid)
