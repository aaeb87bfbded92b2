import math
import tracemalloc

import numpy as np
import pytest

import rarecc.experiments
import rarecc.limits
import rarecc.lpsolve
import rarecc.methods
import rarecc.sampler
from _oracles import (chained_cut_loop, empirical_cvar, exp_cc_value, exp_cvar_value,
                      pareto_cc_value, pareto_cvar_value, ru_cvar_lp, whole_sample_cvar,
                      whole_sample_oracle)
from rarecc import (ContractError, ExperimentConfig, HeavyTailModel, InputError, LightTailModel,
                    ParameterError, ProblemInstance, RareccError, SampleBatch,
                    analytic_ccp_value, analytic_cvar_value, angular_moment, box_clip,
                    ccp_oracle, cvar_solve, phi, phi_many, rate_J, sample_size_rule,
                    scenario_solve, solve_ht_limit, solve_lt_limit, violation_prob,
                    wilson_halfwidth)
from rarecc.lpsolve import CutLP, LinearProgram, solve_lp
from rarecc.sampler import (_CHUNK, draws_range, heavy_top, sample_tail, scenario_batch,
                            tail_radius)
from test_sampler import STREAM_BUDGETS, random_heavy_model


# ------------------------------------------------------- violation_prob

def test_violation_zero_decision(scalar_problem, scalar_pareto2):
    est, hw = violation_prob(scalar_problem, [0.0], scalar_pareto2, 10_000, 1)
    assert est == 0.0
    assert 0.0 < hw < 1e-3


def test_violation_scalar_pareto(scalar_problem, scalar_pareto2):
    # P(0.1 L > 1) = P(L > 10) = 1e-2 exactly
    est, hw = violation_prob(scalar_problem, [0.1], scalar_pareto2, 1_000_000, 2)
    se = math.sqrt(0.01 * 0.99 / 1_000_000)
    assert abs(est - 0.01) <= 3 * se


def test_violation_scalar_exponential(scalar_problem, scalar_exp):
    delta = 1e-3
    x = 1.0 / math.log(1.0 / delta)
    est, hw = violation_prob(scalar_problem, [x], scalar_exp, 4_000_000, 3)
    se = math.sqrt(delta * (1 - delta) / 4_000_000)
    assert abs(est - delta) <= 4 * se
    assert hw <= 3 * se * 1.5


def test_violation_parameter_errors(scalar_problem, scalar_exp):
    with pytest.raises(ParameterError):
        violation_prob(scalar_problem, [0.1], scalar_exp, 999, 1)
    with pytest.raises(InputError):
        violation_prob(scalar_problem, [100.0], scalar_exp, 10_000, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_violation_rejects_non_finite_decision(bad):
    problem = ProblemInstance(c=[1.0, 1.0], h=10.0, A=[np.eye(2)])
    with pytest.raises(InputError, match="finite"):
        violation_prob(problem, [bad, 1.0], LightTailModel(n=2, beta=1.0), 10_000, 1)
    with pytest.raises(InputError, match="finite"):
        box_clip(problem, [bad, 1.0])


@pytest.mark.parametrize("call", [
    lambda prob: violation_prob(prob, ["a", 1.0], LightTailModel(n=2, beta=1.0), 10_000, 1),
    lambda prob: phi(prob, ["a", 1.0], [1.0, 1.0]),
    lambda prob: phi(prob, [1.0, 1.0], [1.0, "a"]),
    lambda prob: box_clip(prob, ["a", 1.0]),
    lambda prob: rate_J(LightTailModel(n=2, beta=1.0), prob, ["a", 1.0]),
    lambda prob: angular_moment(
        HeavyTailModel.from_pairs(n=2, alpha=2.0, pairs=[(1.0, [0.5, 0.5])]), prob, [None, {}]),
], ids=["violation_prob", "phi_x", "phi_L", "box_clip", "rate_J", "angular_moment"])
def test_non_numeric_vector_is_an_input_error(call):
    # a non-numeric entry is bad input like a NaN: InputError, not numpy's ValueError
    problem = ProblemInstance(c=[1.0, 1.0], h=10.0, A=[np.eye(2)])
    with pytest.raises(InputError, match="must be a vector of numbers"):
        call(problem)


STREAM_CASES = {
    # d = 2 folds two products; n = 3 light draws with stable factors
    "light": (ProblemInstance(c=[1.0, 1.0, 1.0], h=10.0, A=[np.eye(3), np.full((3, 3), 0.4)]),
              LightTailModel(n=3, beta=0.7, theta=2.5), [0.3, 0.2, 0.1]),
    "heavy": (ProblemInstance(c=[1.0, 1.0], h=10.0, A=[[[1.0, 0.5], [0.0, 1.0]]]),
              HeavyTailModel.from_pairs(n=2, alpha=2.0, pairs=[(0.5, [1, 0]), (0.5, [0, 1])]),
              [0.4, 0.3]),
}


@pytest.mark.parametrize("budget", STREAM_BUDGETS)
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_violation_streams_like_the_whole_sample(case, budget):
    problem, tail, x = STREAM_CASES[case]
    losses = phi_many(problem, np.asarray(x), draws_range(tail, 17, 0, budget))
    hits = int((losses > 1.0).sum())
    assert 0 < hits < budget
    assert violation_prob(problem, x, tail, budget, 17) == (hits / budget,
                                                            wilson_halfwidth(hits, budget))


def test_violation_memory_is_one_chunk(monkeypatch):
    # the whole budget would take 22.9 MiB of light draws at n = 3, and
    # 15.3 MiB of a two-atom heavy model's uniforms and picks; the CPU count
    # sets the number of shards, which split one chunk between them
    light = (ProblemInstance(c=[1.0, 1.0, 1.0], h=10.0, A=[np.eye(3)]),
             LightTailModel(n=3, beta=0.5, theta=2.0), [0.1] * 3)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(rarecc.sampler, "_cpu_count", lambda: cpus)
        for problem, tail, x in (light, STREAM_CASES["heavy"]):
            violation_prob(problem, x, tail, 1000, 1)   # lazy set-up outside the trace
            tracemalloc.start()
            try:
                violation_prob(problem, x, tail, 1_000_000, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20, (cpus, tail, peak)


def test_violation_deterministic(scalar_problem, scalar_pareto2):
    a = violation_prob(scalar_problem, [0.05], scalar_pareto2, 50_000, 9)
    b = violation_prob(scalar_problem, [0.05], scalar_pareto2, 50_000, 9)
    assert a == b


# ----------------------------------------------------------- ccp_oracle

def test_oracle_scalar_pareto(scalar_problem, scalar_pareto2):
    delta = 1e-3
    res = ccp_oracle(scalar_problem, scalar_pareto2, delta, 2_000_000, 4)
    exact = pareto_cc_value(2.0, delta)
    assert res.value == pytest.approx(exact, rel=0.05)
    assert res.meta["quantile_rank"] == math.ceil(2_000_000 * (1 - delta))


def test_oracle_scalar_exponential(scalar_problem, scalar_exp):
    delta = 1e-3
    res = ccp_oracle(scalar_problem, scalar_exp, delta, 2_000_000, 5)
    assert res.value == pytest.approx(exp_cc_value(delta), rel=0.02)


def test_oracle_symmetric_direction(identity_problem2, two_atom_model):
    # symmetric c, A and tail: the optimal direction is (0.5, 0.5); with
    # quantile noise ~0.2% the empirical argmax can wander a few grid steps
    delta = 0.05
    res = ccp_oracle(identity_problem2, two_atom_model, delta, 1_000_000, 6)
    u = res.x / res.x.sum()
    assert abs(u[0] - 0.5) <= 3 * 0.02 + 1e-12
    # exact optimum: P(phi(u, L) > q) = u1^2/(2 q^2) + u2^2/(2 q^2) = delta
    # gives q = 1/(2 sqrt(delta)) at u = (1/2, 1/2), value 1/q = 2 sqrt(delta)
    assert res.value == pytest.approx(2.0 * math.sqrt(delta), rel=0.02)


def test_oracle_saturates_budgeted_constraint(scalar_problem, scalar_pareto2):
    delta = 1e-2
    res = ccp_oracle(scalar_problem, scalar_pareto2, delta, 200_000, 7)
    est, hw = violation_prob(scalar_problem, res.x, scalar_pareto2, 1_000_000, 1234)
    # quantile error ~ 1% relative at this budget; allow a generous multiple
    assert abs(est - delta) <= 0.1 * delta


def test_oracle_in_sample_violation_within_delta(identity_problem2, two_atom_model):
    # seed 7: the boundary draw's loss at u/q evaluates to 1 + ulp
    delta, budget = 1e-2, 20_000
    res = ccp_oracle(identity_problem2, two_atom_model, delta, budget, 7)
    assert res.violation_estimate <= delta
    assert res.value == pytest.approx(0.19672571022291754, rel=1e-12)


def test_oracle_quasirandom_directions_at_m_four(monkeypatch):
    # A = I4 and one atom at (1/4, ..., 1/4): loss(u, L) = R/4 for every u on
    # the simplex, so each direction scales to 4 / q and the optimum is
    # c.x = 4 delta^(1/alpha) = 0.4, whichever direction wins
    calls = []
    quasirandom = rarecc.methods.quasirandom_simplex

    def counted(m, count):
        calls.append((m, count))
        return quasirandom(m, count)

    monkeypatch.setattr(rarecc.methods, "quasirandom_simplex", counted)
    # the grid is built once per m: an earlier oracle at m = 4 has cached it
    rarecc.methods._oracle_directions.cache_clear()
    problem = ProblemInstance(c=np.ones(4), h=10.0, A=[np.eye(4)])
    tail = HeavyTailModel.from_pairs(n=4, alpha=2.0, pairs=[(1.0, [0.25] * 4)])
    delta, budget = 1e-2, 100_000
    res = ccp_oracle(problem, tail, delta, budget, 3)
    ccp_oracle(problem, tail, delta, 10_000, 4)
    assert calls == [(4, 1000)]
    assert not rarecc.methods._oracle_directions(4).flags.writeable
    # the quantile's relative standard error is 1 / (alpha sqrt(budget delta))
    se = 1.0 / (2.0 * math.sqrt(budget * delta))
    assert res.value == pytest.approx(4.0 * math.sqrt(delta), rel=4 * se)
    assert res.x.shape == (4,) and (res.x >= 0.0).all() and (res.x <= problem.h).all()
    assert res.value == pytest.approx(float(problem.c @ res.x), rel=1e-12)
    assert abs(res.violation_estimate - delta) <= 4 * math.sqrt(delta / budget)


def _random_program(rng, m, n, d, h):
    A = rng.random((d, m, n)) * (rng.random((d, m, n)) < 0.7)
    A[np.arange(d), rng.integers(0, m, d), rng.integers(0, n, d)] += 0.5
    return ProblemInstance(c=rng.uniform(0.1, 2.0, m), h=h, A=A)


def _reduced_and_whole(seed):
    """A random heavy program (K = 1-4 atoms, m = 1-3, n = 1-3, d = 1-2; a
    box of 0.05 clips most oracle answers) with a scenario count and an
    oracle budget around block and chunk edges."""
    rng = np.random.default_rng(seed)
    K, m, n, d = (int(rng.integers(1, hi + 1)) for hi in (4, 3, 3, 2))
    tail = random_heavy_model(rng, K, n)
    problem = _random_program(rng, m, n, d, (0.05, 0.5, 50.0)[seed % 3])
    count = (2, 700, 4097, _CHUNK + 5, 2 * _CHUNK + 999)[seed % 5]
    delta = (0.01, 0.03, 0.1, 0.2)[seed % 4]
    # m = 3 scores 1326 directions, so its whole-sample reference stays small
    budget = math.ceil(100 / delta) + int(rng.integers(0, 4000 if m == 3 else 2 * _CHUNK))
    return problem, tail, count, delta, budget


@pytest.mark.parametrize("seed", range(24))
def test_reduced_heavy_programs_match_the_whole_sample(seed):
    problem, tail, count, delta, budget = _reduced_and_whole(seed)
    radius = tail_radius(tail, 1.0 / count)
    batch = scenario_batch(tail, seed, count)
    assert batch.count == count and len(batch.samples) <= min(count, tail.weights.size * 2)
    whole = scenario_solve(problem, sample_tail(tail, seed, count), radius)
    reduced = scenario_solve(problem, batch, radius)
    assert reduced.x.tobytes() == whole.x.tobytes()
    assert reduced.value == whole.value and reduced.meta == whole.meta

    res = ccp_oracle(problem, tail, delta, budget, seed)
    x, value, violation, halfwidth = whole_sample_oracle(problem, tail, delta, budget, seed)
    assert res.x.tobytes() == x.tobytes()
    assert (res.value, res.violation_estimate, res.violation_halfwidth) == \
        (value, violation, halfwidth)
    assert res.meta["quantile_rank"] == math.ceil(budget * (1.0 - delta))

    res = cvar_solve(problem, tail, delta, budget, seed)
    x, value, violation, halfwidth, tau, outer, pivots = \
        whole_sample_cvar(problem, tail, delta, budget, seed)
    assert res.x.tobytes() == x.tobytes()
    assert (res.value, res.violation_estimate, res.violation_halfwidth) == \
        (value, violation, halfwidth)
    assert (res.meta["tau"], res.meta["outer_iterations"], res.meta["lp_iterations"]) == \
        (tau, outer, pivots)


def test_oracle_counts_every_draw_at_a_clipped_answer(monkeypatch, two_atom_model):
    # the box binds, so the violations at x are counted over all the draws
    # (exceedances), not over the rows of the reduced sample
    problem = ProblemInstance(c=[1.0, 1.0], h=0.02, A=[np.eye(2)])
    counted = []
    exceedances = rarecc.methods.exceedances
    monkeypatch.setattr(rarecc.methods, "exceedances",
                        lambda *args: counted.append(args[2]) or exceedances(*args))
    res = ccp_oracle(problem, two_atom_model, 0.01, 50_000, 3)
    assert counted == [50_000] and (res.x == 0.02).any()
    x, value, violation, _ = whole_sample_oracle(problem, two_atom_model, 0.01, 50_000, 3)
    assert res.x.tobytes() == x.tobytes()
    assert (res.value, res.violation_estimate) == (value, violation)


def test_cvar_counts_every_draw_when_the_value_at_risk_exceeds_one(
        monkeypatch, two_atom_model, identity_problem2):
    # the loop returns 4 x*, where the VaR is about 2: rows that the reduced
    # sample left out violate too, so the count runs over all the draws
    loop = rarecc.methods.exact_cut_loop

    def beyond(c, upper, radius, separate):
        x, g, cuts, pivots, excess = loop(c, upper, radius, separate)
        g, _ = separate(4.0 * x)
        return 4.0 * x, g, cuts, pivots, excess

    monkeypatch.setattr(rarecc.methods, "exact_cut_loop", beyond)
    counted = []
    exceedances = rarecc.methods.exceedances
    monkeypatch.setattr(rarecc.methods, "exceedances",
                        lambda *args: counted.append(args[2]) or exceedances(*args))
    delta, count, seed = 0.01, 50_000, 3
    res = cvar_solve(identity_problem2, two_atom_model, delta, count, seed)
    assert counted == [count] and res.meta["tau"] == 0.0
    whole = phi_many(identity_problem2, res.x, draws_range(two_atom_model, seed, 0, count)) > 1.0
    kept = phi_many(identity_problem2, res.x, heavy_top(two_atom_model, seed, count, 500)) > 1.0
    assert res.violation_estimate == whole.sum() / count
    assert kept.sum() < whole.sum()


def test_heavy_oracle_and_scenario_task_hold_top_rows(two_atom_model, identity_problem2):
    # 10^6 draws at n = 2 take 15.3 MiB; the oracle and the CVaR program
    # hold each atom's 1000 largest radii (about 31 KiB of rows) and the
    # scenario task one row per atom, besides one chunk of uniforms and
    # picks (0.5 MiB) and the chunk's temporaries, which peak near 0.6 MiB
    # in all
    cfg = ExperimentConfig(kind="scenario_convergence", problem=identity_problem2,
                           tail=two_atom_model, k_grid=(10 ** 6,))
    task, _ = rarecc.experiments._run_scenario_convergence(cfg)
    for run in (lambda: ccp_oracle(identity_problem2, two_atom_model, 1e-3, 10 ** 6, 5),
                lambda: task(10 ** 6, 5),
                lambda: cvar_solve(identity_problem2, two_atom_model, 1e-3, 10 ** 6, 5)):
        run()       # lazy set-up outside the trace
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20, peak


def test_oracle_pre_violation(scalar_problem, scalar_pareto2):
    with pytest.raises(ParameterError):
        ccp_oracle(scalar_problem, scalar_pareto2, 1e-4, 100_000, 1)


# ------------------------------------------------- shared budget and n rules

_BUDGETED = {
    "oracle": lambda prob, tail, budget: ccp_oracle(prob, tail, 0.05, budget, 1),
    "violation": lambda prob, tail, budget: violation_prob(prob, [0.1], tail, budget, 1),
    "cvar": lambda prob, tail, budget: cvar_solve(prob, tail, 0.05, budget, 1),
}


@pytest.mark.parametrize("method", sorted(_BUDGETED))
@pytest.mark.parametrize("budget", [1e5, 1500.5, 20000.7, True, np.True_],
                         ids=["1e5", "1500.5", "20000.7", "True", "np.True_"])
def test_budget_must_be_an_integer(scalar_problem, scalar_pareto2, method, budget):
    # a float budget raised numpy's TypeError or ran with int(budget) draws
    with pytest.raises(ParameterError, match="must be an integer"):
        _BUDGETED[method](scalar_problem, scalar_pareto2, budget)
    assert _BUDGETED[method](scalar_problem, scalar_pareto2, np.int64(5000)) is not None


@pytest.mark.parametrize("method", sorted(_BUDGETED))
def test_tail_dimension_must_match_problem(scalar_problem, two_atom_model, method):
    # a mismatch crashed with numpy's matmul ValueError
    with pytest.raises(ContractError, match="n=2"):
        _BUDGETED[method](scalar_problem, two_atom_model, 5000)


# ----------------------------------------------------------- cvar_solve

def test_cvar_matches_sort_reduction_scalar(scalar_problem, scalar_pareto2,
                                            scalar_exp):
    for tail, delta, n in [(scalar_pareto2, 1e-3, 150_000),
                           (scalar_exp, 1e-3, 150_000),
                           (scalar_pareto2, 0.25, 500),
                           (scalar_exp, 0.3, 401)]:
        res = cvar_solve(scalar_problem, tail, delta, n, 13)
        losses = draws_range(tail, 13, 0, n).ravel()
        ref = 1.0 / empirical_cvar(losses, delta)
        assert res.value == pytest.approx(ref, rel=1e-9), (delta, n)


@pytest.mark.parametrize("seed", range(8))
def test_light_cvar_sums_its_top_rows_in_draw_order(seed):
    # a light sample is held whole; its rounds sum in draw order too, so the
    # bits do not depend on the order argpartition leaves the top rows in
    rng = np.random.default_rng(seed)
    m, n, d = (int(rng.integers(1, hi + 1)) for hi in (3, 3, 2))
    tail = LightTailModel(n=n, beta=float(rng.uniform(0.5, 2.0)), theta=(1.0, 2.0)[seed % 2])
    problem = _random_program(rng, m, n, d, (0.5, 50.0)[seed % 2])
    delta, count = (0.01, 0.05)[seed % 2], 20_000 + 777 * seed
    res = cvar_solve(problem, tail, delta, count, seed)
    x, value, violation, halfwidth, tau, outer, pivots = \
        whole_sample_cvar(problem, tail, delta, count, seed)
    assert res.x.tobytes() == x.tobytes()
    assert (res.value, res.violation_estimate, res.violation_halfwidth, res.meta["tau"],
            res.meta["outer_iterations"], res.meta["lp_iterations"]) == \
        (value, violation, halfwidth, tau, outer, pivots)


def test_cvar_scalar_analytic_sanity(scalar_problem, scalar_pareto2, scalar_exp):
    res = cvar_solve(scalar_problem, scalar_pareto2, 1e-3, 300_000, 21)
    assert res.value == pytest.approx(pareto_cvar_value(2.0, 1e-3), rel=0.15)
    res = cvar_solve(scalar_problem, scalar_exp, 1e-3, 300_000, 21)
    assert res.value == pytest.approx(exp_cvar_value(1e-3), rel=0.05)


def _heavy_two_matrix():
    prob = ProblemInstance(c=[1.0, 0.5], h=10.0,
                           A=[np.array([[1.0, 0.2], [0.1, 0.9]]),
                              np.array([[0.3, 0.8], [1.0, 0.1]])])
    tail = HeavyTailModel.from_pairs(n=2, alpha=2.0,
                                     pairs=[(0.4, [1, 0]), (0.6, [0.3, 0.7])])
    return prob, tail


def test_cvar_equals_full_ru_lp():
    prob, tail = _heavy_two_matrix()
    res = cvar_solve(prob, tail, 0.25, 500, 9)
    value, x = ru_cvar_lp(prob.c, prob.h, prob.A, draws_range(tail, 9, 0, 500), 0.25)
    assert res.value == pytest.approx(value, rel=1e-8)
    assert np.allclose(res.x, x, atol=1e-7)
    assert res.meta["outer_iterations"] > 2
    assert res.meta["kept_scenarios"] == 125
    assert res.meta["gap"] <= 1e-12


def test_cut_loop_round_cap(monkeypatch):
    prob, tail = _heavy_two_matrix()
    monkeypatch.setattr(rarecc.lpsolve, "MAX_CUT_ROUNDS", 1)
    with pytest.raises(RareccError):
        cvar_solve(prob, tail, 0.25, 500, 9)


def test_sampled_lps_raise_when_cut_lp_stalls(stalled_lp):
    prob, tail = _heavy_two_matrix()
    with pytest.raises(RareccError):
        cvar_solve(prob, tail, 0.25, 500, 9)
    with pytest.raises(RareccError):
        scenario_solve(prob, sample_tail(tail, 9, 200), 1.0)


def test_cvar_returns_the_scaled_iterate_when_a_loose_box_hides_the_violation():
    # at h = 100 the cut LP cannot see the newest cut's violation, 2.6e-10
    # relative, and hands back its own iterate; at h = 1 the box does not bind
    tail = HeavyTailModel.from_pairs(n=2, alpha=2.0, pairs=[(0.5, [1, 0]), (0.5, [0, 1])])
    problems = [ProblemInstance(c=[1.0, 1.0], h=h, A=[np.eye(2)]) for h in (100.0, 1.0)]
    loose, tight = (cvar_solve(problem, tail, 0.02, 200_000, 22) for problem in problems)
    assert loose.meta["gap"] <= 1e-12
    assert tight.value * (1.0 - 1e-9) <= loose.value <= tight.value * (1.0 + 1e-12)
    # the rescue reports how far below the optimum its answer may lie
    assert loose.meta["stall_excess"] > 0.0 and tight.meta["stall_excess"] == 0.0
    assert loose.value >= tight.value * (1.0 - loose.meta["stall_excess"])
    # the violation count and tau describe the returned x
    losses = phi_many(problems[0], loose.x, draws_range(tail, 22, 0, 200_000))
    assert loose.violation_estimate == np.count_nonzero(losses > 1.0) / 200_000
    k = loose.meta["kept_scenarios"]
    assert loose.meta["tau"] == min(np.sort(losses)[-k] - 1.0, 0.0)


def test_cut_loop_warm_starts_after_round_one(monkeypatch):
    # round 1 builds the first cut's LP; every later round appends the one
    # new cut to that same live LP
    calls = []

    class Spy(CutLP):
        def __init__(self, f, A, b, hi):
            super().__init__(f, A, b, hi)
            calls.append(("build", self, A, self.pivots))

        def add(self, A, b):
            before = self.pivots
            super().add(A, b)
            calls.append(("add", self, A, self.pivots - before))
    monkeypatch.setattr(rarecc.lpsolve, "CutLP", Spy)
    prob, tail = _heavy_two_matrix()
    res = cvar_solve(prob, tail, 0.25, 500, 9)
    assert len(calls) == res.meta["outer_iterations"] - 1 > 2
    assert calls[0][0] == "build" and calls[0][2].shape == (1, prob.m)
    for step, lp, A, _ in calls[1:]:
        assert step == "add" and lp is calls[0][1] and A.shape == (1, prob.m)
    assert res.meta["lp_iterations"] == sum(iters for *_, iters in calls) == calls[0][1].pivots


@pytest.mark.parametrize("bad_round", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_cut_loop_rejects_a_non_finite_cut(m, bad_round):
    # at m = 2 round 1 builds the cut LP and round 2 appends to it; at m = 1
    # round 1 takes the closed-form pivot, which read an inf cut as x = 0 and
    # a nan cut as the start corner; a cut with an inf or nan entry is bad
    # input either way
    for bad in (np.inf, np.nan):
        cuts = iter(np.eye(m)[[0, -1]])
        rounds = []

        def separate(x):
            rounds.append(x)
            s = next(cuts).copy()
            if len(rounds) == bad_round:
                s[-1 if bad_round == 1 else 0] = bad
            return 2.0, s
        with pytest.raises(InputError, match="finite"):
            rarecc.lpsolve.cut_loop(np.ones(m), np.full(m, 10.0), 1.0, separate)
        assert len(rounds) == bad_round


def _cut_programs(seed):
    """A random cut-loop instance: m = 2-4, d = 1-2, n = 1-3, a box of
    h = 10^(-6..6) and risk matrices scaled to 1 / h, so that the box is
    at most a few decades from the cuts, and a light and a heavy tail."""
    rng = np.random.default_rng(seed)
    m, d, n = (int(v) for v in rng.integers((2, 1, 1), (5, 3, 4)))
    h = 10.0 ** rng.uniform(-6.0, 6.0)
    A = rng.uniform(0.0, 1.0, (d, m, n)) ** 4 * 10.0 ** rng.uniform(-1.0, 2.0) / h
    prob = ProblemInstance(c=rng.uniform(0.1, 2.0, m), h=h, A=A)
    light = LightTailModel(n=n, beta=float(rng.uniform(0.5, 2.0)),
                           theta=float(rng.choice([1.0, 2.0, math.inf])))
    atoms = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 5)))
    heavy = HeavyTailModel.from_pairs(n=n, alpha=float(rng.uniform(1.5, 3.0)),
                                      pairs=[(1.0 / len(atoms), a) for a in atoms])
    return prob, light, heavy


def _outcome(run):
    try:
        res = run()
    except RareccError as exc:
        return type(exc), str(exc)
    if hasattr(res, "y_star"):
        return res.y_star.tobytes(), res.value, res.gap
    return (res.x.tobytes(), res.value, res.meta["lp_iterations"],
            res.meta.get("outer_iterations", res.meta.get("binding_candidates")),
            res.meta["gap"], res.meta["stall_excess"])


@pytest.mark.parametrize("seed", range(16))
def test_live_tableau_matches_chained_solve_lp(monkeypatch, seed):
    # the cut loop keeps its tableau and appends one cut per round; a loop
    # that builds every round's full LP and appends the rows beyond the last
    # round's must give the same x bytes, pivots and cut counts, in every cut
    # loop of every solver
    prob, light, heavy = _cut_programs(seed)
    runs = [lambda: cvar_solve(prob, light, 0.1, 1000, seed),
            lambda: cvar_solve(prob, heavy, 0.05, 2000, seed),
            lambda: scenario_solve(prob, sample_tail(light, seed, 300), 1.0),
            lambda: scenario_solve(prob, sample_tail(heavy, seed, 300), 0.5),
            lambda: solve_lt_limit(light, prob),
            lambda: solve_ht_limit(heavy, prob)]
    results = {}
    for name, loop in (("live", rarecc.lpsolve.cut_loop), ("chained", chained_cut_loop)):
        loops = []

        def recorded(c, upper, radius, separate, _loop=loop, _loops=loops):
            x, g, cuts, pivots = _loop(c, upper, radius, separate)
            _loops.append((x.tobytes(), g, cuts, pivots))
            return x, g, cuts, pivots
        monkeypatch.setattr(rarecc.lpsolve, "cut_loop", recorded)
        monkeypatch.setattr(rarecc.limits, "cut_loop", recorded)
        results[name] = [_outcome(run) for run in runs], loops
    assert results["live"] == results["chained"]
    assert len(results["live"][1]) == len(runs)


def test_one_cut_loops_match_cold_solve(monkeypatch, scalar_problem, scalar_pareto2, scalar_exp):
    # a scalar program's one cut is the separation at upper; its answer must
    # be the cold solve of that 1x1 LP, bit for bit
    loops = []
    exact = rarecc.methods.exact_cut_loop

    def capture(c, upper, radius, separate):
        loops.append((c, upper, radius, separate))
        return exact(c, upper, radius, separate)
    monkeypatch.setattr(rarecc.methods, "exact_cut_loop", capture)
    runs = [cvar_solve(scalar_problem, scalar_pareto2, 0.05, 4000, 2),
            cvar_solve(scalar_problem, scalar_exp, 0.05, 4000, 3),
            scenario_solve(scalar_problem, sample_tail(scalar_pareto2, 4, 500), 1.0)]
    assert len(loops) == len(runs)
    for (c, upper, radius, separate), res in zip(loops, runs):
        _, cut = separate(upper)
        lp = LinearProgram(objective=c, A=[cut], b=[radius], hi=upper)
        assert res.x.tobytes() == solve_lp(lp).x.tobytes()
        assert res.meta["lp_iterations"] == 1


def test_one_pivot_matches_cold_solve_bit_for_bit():
    # the scalar cut loop's closed-form pivot against solve_lp on the same
    # 1x1 LP, over twelve decades of bound and radius (the LP's absolute
    # tolerances bound the range; see the next test), with q = radius /
    # (s upper) below 1, within 1e-12 of 1 (the ratio test's tie) and above
    rng = np.random.default_rng(10)
    seen = {"cut": 0, "tie": 0, "bound": 0, "no cut": 0}
    for i in range(400):
        c = np.array([10.0 ** rng.uniform(-2, 2)])
        upper = np.array([10.0 ** rng.uniform(-6, 6)])
        radius = 10.0 ** rng.uniform(-6, 6)
        q0 = (rng.uniform(0.01, 1.0), 1.0 + rng.uniform(-1e-12, 3e-12),
              rng.uniform(1.0, 3.0))[i % 3]
        s = np.array([radius / (q0 * upper[0])])
        lifted = i % 2 == 0

        def separate(x):
            # lifted: g(upper) reads above s^T upper, as a rounded sum can
            if lifted and x[0] == upper[0]:
                return 2.0 * radius, s
            return float(s @ x), s
        x, g, cuts, pivots = rarecc.lpsolve.cut_loop(c, upper, radius, separate)
        if not lifted and s[0] * upper[0] <= radius * (1.0 + 1e-12):
            seen["no cut"] += 1
            assert (x.tobytes(), cuts, pivots) == (upper.tobytes(), 0, 0)
            continue
        ref = solve_lp(LinearProgram(objective=c, A=[s], b=[radius], hi=upper))
        assert x.tobytes() == ref.x.tobytes(), (c, upper, radius, s)
        assert (cuts, pivots) == (1, ref.iterations) == (1, 1)
        q = radius / (s[0] * upper[0])
        seen["cut" if q <= 1.0 else "tie" if q <= 1.0 + 1e-12 else "bound"] += 1
    assert min(seen.values()) >= 15, seen


def test_one_pivot_reaches_optimum_below_lp_tolerances():
    # solve_lp's absolute tolerances misread these 1x1 cut LPs: with c h below
    # its cost tolerance it returned x = 0, and it dropped a cut row below
    # its pivot tolerance as vacuous and raised; the one pivot solves both
    batch = SampleBatch(samples=np.array([[2.0], [5.0]]), seed=0)
    res = scenario_solve(ProblemInstance(c=[1e-12], h=1.0, A=[[[1.0]]]), batch, 1.0)
    assert res.x[0] == 0.2 and res.meta["gap"] <= 1e-12
    res = scenario_solve(ProblemInstance(c=[1.0], h=10.0, A=[[[1.0]]]), batch, 1e-12)
    assert res.x[0] == pytest.approx(2e-13, rel=1e-15) and res.meta["gap"] <= 1e-12


def test_scenario_reaches_optimum_at_tiny_scales():
    # the cut LP's absolute tolerances read c = 1e-12 as zero cost and the
    # radius-1e-12 cut as a vacuous row, and both programs returned x = 0
    batch = SampleBatch(samples=np.array([[2.0, 1.0], [5.0, 3.0]]), seed=0)
    res = scenario_solve(ProblemInstance(c=[1e-12, 1e-12], h=1.0, A=[np.eye(2)]), batch, 1.0)
    assert res.x == pytest.approx([0.0, 1.0 / 3.0], rel=1e-12, abs=1e-15)
    assert abs(res.meta["gap"]) <= 1e-12
    res = scenario_solve(ProblemInstance(c=[1.0, 1.0], h=10.0, A=[np.eye(2)]), batch, 1e-12)
    assert res.x == pytest.approx([0.0, 1e-12 / 3.0], rel=1e-12, abs=1e-27)
    assert abs(res.meta["gap"]) <= 1e-12


def test_scenario_value_scales_with_c_and_radius():
    # the value is linear in c and in the radius; at 10^(-13..8) the answer
    # must match the unit-scale program, which the LP's tolerances fit
    rng = np.random.default_rng(11)
    for _ in range(150):
        m, n, d = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
        A, c = rng.random((d, m, n)) + 0.01, rng.random(m) + 0.05
        batch = SampleBatch(samples=5.0 * rng.random((int(rng.integers(2, 30)), n)), seed=0)
        ref = scenario_solve(ProblemInstance(c=c, h=50.0, A=A), batch, 1.0).value
        s = 10.0 ** rng.uniform(-13.0, 8.0)
        by_c = scenario_solve(ProblemInstance(c=c * s, h=50.0, A=A), batch, 1.0)
        by_radius = scenario_solve(ProblemInstance(c=c, h=50.0, A=A), batch, s)
        for res in (by_c, by_radius):
            assert res.value / s == pytest.approx(ref, rel=1e-9), (m, n, d, s)
            assert res.meta["gap"] <= 1e-12


@pytest.mark.parametrize("m, n, d", [(1, 1, 1), (1, 3, 2), (2, 1, 1), (3, 2, 2)])
def test_scenario_matches_matmul_separation(m, n, d):
    # m = 1 scores the rows by an elementwise product, which must give the
    # bits of the matrix-vector product that every other m uses
    rng = np.random.default_rng(100 * m + 10 * n + d)
    prob = ProblemInstance(c=rng.random(m) + 0.1, h=50.0, A=rng.random((d, m, n)) + 0.01)
    batch = sample_tail(LightTailModel(n=n, beta=0.8, theta=2.0), 5, 3000)
    W = np.einsum("imn,jn->jim", prob.A, batch.samples).reshape(-1, m)

    def separate(y):
        scores = W @ y
        j = int(np.argmax(scores))
        return float(scores[j]), W[j]
    for radius in (0.3, 1.0, 40.0):
        res = scenario_solve(prob, batch, radius)
        x, g, cuts, pivots, excess = rarecc.lpsolve.exact_cut_loop(
            prob.c, np.full(m, prob.h * radius), radius, separate)
        assert res.x.tobytes() == x.tobytes() and res.meta["gap"] == g / radius - 1.0
        assert (res.meta["binding_candidates"], res.meta["lp_iterations"]) == (cuts, pivots)
        assert res.meta["stall_excess"] == excess


def test_cvar_value_does_not_depend_on_units_of_x():
    # x = 1e-6 y solves the instance with A scaled by 1e6 and h by 1e-6;
    # the cut LP's tolerances must not see the difference
    A = np.array([[[.342, .94, .566], [.9, .925, .9], [.498, .583, .534], [.02, .946, .151]]])
    c = [.598, .714, .808, .588]
    tail = LightTailModel(n=3, beta=1.459, theta=2.0)
    ref = cvar_solve(ProblemInstance(c=c, h=1e3, A=A), tail, 0.05, 4000, 68)
    res = cvar_solve(ProblemInstance(c=c, h=1e-3, A=A * 1e6), tail, 0.05, 4000, 68)
    assert res.value * 1e6 == pytest.approx(ref.value, rel=1e-9)


def test_cvar_zero_always_feasible(scalar_problem, scalar_exp):
    # the LP must never report infeasible: x = 0, tau = -1 satisfies it
    res = cvar_solve(scalar_problem, scalar_exp, 0.3, 400, 3)
    assert res.value >= 0.0
    assert res.meta["tau"] <= 0.0


def test_cvar_pre_violation(scalar_problem, scalar_exp):
    with pytest.raises(ParameterError):
        cvar_solve(scalar_problem, scalar_exp, 1e-4, 100_000, 1)


def test_cvar_below_oracle_matched_randomness(scalar_problem, scalar_pareto2):
    delta, budget, seed = 1e-2, 200_000, 31
    v_cvar = cvar_solve(scalar_problem, scalar_pareto2, delta, budget, seed).value
    v_oracle = ccp_oracle(scalar_problem, scalar_pareto2, delta, budget, seed).value
    assert v_cvar <= v_oracle * 1.02


# ------------------------------------------------------- scenario_solve

def test_scenario_empty_risk_batch(scalar_problem):
    batch = SampleBatch(samples=np.zeros((5, 1)), seed=0)
    res = scenario_solve(scalar_problem, batch, 2.0)
    assert res.x[0] == pytest.approx(scalar_problem.h * 2.0)


@pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
def test_scenario_rejects_a_radius_that_is_not_finite_and_positive(
        scalar_problem, scalar_pareto2, identity_problem2, two_atom_model, radius):
    # an infinite radius would give x = inf at m = 1 and an InputError from the
    # cut LP at m = 2
    for problem, tail in ((scalar_problem, scalar_pareto2), (identity_problem2, two_atom_model)):
        with pytest.raises(ParameterError, match="radius must be finite and > 0"):
            scenario_solve(problem, sample_tail(tail, 1, 1000), radius)


def test_scenario_max_binds(scalar_problem):
    batch = SampleBatch(samples=np.array([[2.0], [5.0]]), seed=0)
    res = scenario_solve(scalar_problem, batch, 1.0)
    assert res.x[0] == pytest.approx(0.2)
    assert res.value == pytest.approx(0.2)


def test_scenario_monotone_in_batch(identity_problem2, two_atom_model):
    big = sample_tail(two_atom_model, 40, 400)
    small = SampleBatch(samples=big.samples[:150], seed=40)
    v_small = scenario_solve(identity_problem2, small, 1.0).value
    v_big = scenario_solve(identity_problem2, big, 1.0).value
    assert v_big <= v_small + 1e-12


def test_scenario_scale_equivariance(identity_problem2, two_atom_model):
    batch = sample_tail(two_atom_model, 41, 300)
    base = scenario_solve(identity_problem2, batch, 1.0)
    for r in (0.5, 3.0, 117.0):
        scaled = scenario_solve(identity_problem2, batch, r)
        assert scaled.value == pytest.approx(r * base.value, rel=1e-9)


def test_scenario_equals_full_lp():
    prob = ProblemInstance(c=[3.0, 2.0, 1.0], h=1000.0,
                           A=[np.diag([1.0, 2.0, 4.0]),
                              np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])])
    batch = sample_tail(LightTailModel(n=3, beta=0.5, theta=2.0), 17, 2000)
    res = scenario_solve(prob, batch, 1.5)
    rows = np.concatenate([batch.samples @ a.T for a in prob.A])
    full = solve_lp(LinearProgram(objective=prob.c, A=rows, b=np.full(rows.shape[0], 1.5),
                                  hi=np.full(3, prob.h * 1.5)))
    assert res.value == pytest.approx(full.objective, rel=1e-9)
    assert res.meta["binding_candidates"] >= 2
    assert res.meta["gap"] <= 1e-12


def test_scenario_parameter_errors(scalar_problem):
    with pytest.raises(ParameterError):
        scenario_solve(scalar_problem, SampleBatch(samples=np.zeros((0, 1)), seed=0), 1.0)
    with pytest.raises(ParameterError):
        scenario_solve(scalar_problem, SampleBatch(samples=np.ones((3, 1)), seed=0), 0.0)


# ----------------------------------------------------- sample_size_rule

def test_sample_size_examples():
    assert sample_size_rule(0.01, 0.01, 2) == 3045
    assert sample_size_rule(0.5, 0.5, 1) == 11


def test_sample_size_grows_faster_than_inverse_delta():
    vals = [sample_size_rule(d, 0.01, 2) * d for d in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sample_size_domain():
    with pytest.raises(ParameterError):
        sample_size_rule(0.0, 0.5, 1)
    with pytest.raises(ParameterError):
        sample_size_rule(0.1, 1.0, 1)
    for dim in (0, True, np.True_, 2.0):
        with pytest.raises(ParameterError, match="dim"):
            sample_size_rule(0.1, 0.5, dim)


# ------------------------------------------------------- analytic oracles

def test_analytic_values_match_reference(scalar_problem, scalar_pareto2, scalar_exp):
    assert analytic_ccp_value(scalar_problem, scalar_pareto2, 1e-4) == pytest.approx(
        pareto_cc_value(2.0, 1e-4))
    assert analytic_ccp_value(scalar_problem, scalar_exp, 1e-3) == pytest.approx(
        exp_cc_value(1e-3))
    assert analytic_cvar_value(scalar_problem, scalar_pareto2, 1e-3) == pytest.approx(
        pareto_cvar_value(2.0, 1e-3))
    assert analytic_cvar_value(scalar_problem, scalar_exp, 1e-3) == pytest.approx(
        exp_cvar_value(1e-3))
    with pytest.raises(ParameterError):
        analytic_cvar_value(scalar_problem, LightTailModel(n=1, beta=0.5), 1e-3)


def test_method_result_json_keys(scalar_problem, scalar_pareto2):
    res = cvar_solve(scalar_problem, scalar_pareto2, 0.25, 500, 5)
    d = res.to_json_dict()
    assert set(d) == {"method", "x", "value", "delta", "violation",
                      "violation_halfwidth", "seed", "gap"}
    assert d["method"] == "cvar" and d["seed"] == 5
    assert d["gap"] == res.meta["gap"] <= 1e-12


def test_wilson_halfwidth_basics():
    assert wilson_halfwidth(0, 1000) > 0.0
    assert wilson_halfwidth(500, 1000) == pytest.approx(0.031, abs=0.002)
    with pytest.raises(ParameterError):
        wilson_halfwidth(1, 0)
