import math

import numpy as np
import pytest

import rarecc.methods
from _oracles import (empirical_cvar, exp_cc_value, exp_cvar_value,
                      pareto_cc_value, pareto_cvar_value, ru_cvar_lp)
from rarecc import (HeavyTailModel, InputError, LightTailModel,
                    ParameterError, ProblemInstance, RareccError, SampleBatch,
                    analytic_ccp_value, analytic_cvar_value, ccp_oracle,
                    cvar_solve, sample_heavy, sample_size_rule,
                    scenario_solve, violation_prob, wilson_halfwidth)
from rarecc.lpsolve import LinearProgram, solve_lp
from rarecc.sampler import draws_range, sample_tail


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


def test_oracle_pre_violation(scalar_problem, scalar_pareto2):
    with pytest.raises(ParameterError):
        ccp_oracle(scalar_problem, scalar_pareto2, 1e-4, 100_000, 1)


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
    monkeypatch.setattr(rarecc.methods, "_MAX_CUT_ROUNDS", 1)
    with pytest.raises(RareccError):
        cvar_solve(prob, tail, 0.25, 500, 9)


def test_sampled_lps_raise_when_cut_lp_stalls(stalled_lp):
    prob, tail = _heavy_two_matrix()
    with pytest.raises(RareccError):
        cvar_solve(prob, tail, 0.25, 500, 9)
    with pytest.raises(RareccError):
        scenario_solve(prob, sample_tail(tail, 9, 200), 1.0)


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


def test_scenario_max_binds(scalar_problem):
    batch = SampleBatch(samples=np.array([[2.0], [5.0]]), seed=0)
    res = scenario_solve(scalar_problem, batch, 1.0)
    assert res.x[0] == pytest.approx(0.2)
    assert res.value == pytest.approx(0.2)


def test_scenario_monotone_in_batch(identity_problem2, two_atom_model):
    big = sample_heavy(two_atom_model, 40, 400)
    small = SampleBatch(samples=big.samples[:150], seed=40)
    v_small = scenario_solve(identity_problem2, small, 1.0).value
    v_big = scenario_solve(identity_problem2, big, 1.0).value
    assert v_big <= v_small + 1e-12


def test_scenario_scale_equivariance(identity_problem2, two_atom_model):
    batch = sample_heavy(two_atom_model, 41, 300)
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
    with pytest.raises(ParameterError):
        sample_size_rule(0.1, 0.5, 0)


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
                      "violation_halfwidth", "seed"}
    assert d["method"] == "cvar" and d["seed"] == 5


def test_wilson_halfwidth_basics():
    assert wilson_halfwidth(0, 1000) > 0.0
    assert wilson_halfwidth(500, 1000) == pytest.approx(0.031, abs=0.002)
    with pytest.raises(ParameterError):
        wilson_halfwidth(1, 0)
