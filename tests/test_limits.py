import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rarecc.limits
import rarecc.methods
from _oracles import diag_lt_optimum, holder_ht_optimum, rate_numeric
from rarecc import (ContractError, HeavyTailModel, InputError,
                    LightTailModel, LinearProgram, ParameterError,
                    ProblemInstance, UnboundedError, angular_moment,
                    lambda_eval, limit_to_decision, rate_I, rate_J,
                    solve_ht_limit, solve_lp, solve_lt_limit)
from rarecc.methods import _cut_loop as cut_loop


def diag_problem(a, c, h=1000.0):
    a = np.asarray(a, dtype=float)
    return ProblemInstance(c=c, h=h, A=[np.diag(a)])


# ---------------------------------------------------------------- lambda

def test_lambda_unit_coordinate():
    for beta, theta in [(0.5, 1.0), (2.0, 3.0), (1.0, math.inf)]:
        m = LightTailModel(n=3, beta=beta, theta=theta)
        assert lambda_eval(m, [1.0, 0.0, 0.0]) == pytest.approx(1.0)


def test_lambda_independent_case():
    m = LightTailModel(n=3, beta=0.7, theta=1.0)
    x = np.array([0.5, 1.5, 2.0])
    assert lambda_eval(m, x) == pytest.approx(np.sum(x ** 0.7))


def test_lambda_direct_value():
    m = LightTailModel(n=2, beta=2.0, theta=2.0)
    assert lambda_eval(m, [1.0, 1.0]) == pytest.approx(math.sqrt(2.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=2),
       st.floats(min_value=0.01, max_value=20.0))
def test_lambda_homogeneous_degree_beta(x, r):
    m = LightTailModel(n=2, beta=1.3, theta=2.5)
    x = np.asarray(x)
    assert lambda_eval(m, r * x) == pytest.approx(r ** m.beta * lambda_eval(m, x),
                                                  rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------- rate_I

def test_rate_I_subexponential_closed_form():
    model = LightTailModel(n=2, beta=0.5, theta=1.0)
    assert rate_I(model, [2.0, 1.0]) == pytest.approx(2.0 ** -0.5, rel=1e-12)


def test_rate_I_gamma_two():
    model = LightTailModel(n=2, beta=2.0, theta=1.0)
    assert rate_I(model, [1.0, 1.0]) == pytest.approx(0.5, rel=1e-12)
    # inner optimum is x = (0.5, 0.5): check via the direct minimization
    assert rate_numeric(model, np.array([1.0, 1.0])) == pytest.approx(0.5, rel=1e-8)


def test_rate_I_unit_vector():
    for gamma in (1.5, 2.0, 3.0):
        model = LightTailModel(n=3, beta=gamma / 2.0, theta=2.0)
        assert rate_I(model, [1.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-12)


def test_rate_I_closed_vs_numeric_random():
    rng = np.random.default_rng(3)
    for beta, theta in [(1.5, 2.0), (0.4, 1.0), (0.3, 2.0), (1.0, math.inf)]:
        model = LightTailModel(n=3, beta=beta, theta=theta)
        for _ in range(10):
            b = rng.uniform(0.1, 3.0, size=3)
            assert rate_numeric(model, b) == pytest.approx(rate_I(model, b), rel=1e-6)


def test_rate_I_zero_is_infeasible_sentinel():
    model = LightTailModel(n=2, beta=1.0, theta=1.0)
    assert math.isinf(rate_I(model, [0.0, 0.0]))
    with pytest.raises(InputError):
        rate_I(model, [-1.0, 0.0])


def test_rate_I_scaling():
    rng = np.random.default_rng(17)
    model = LightTailModel(n=3, beta=1.7, theta=1.4)
    for _ in range(200):
        b = rng.uniform(0.05, 4.0, size=3)
        t = rng.uniform(0.1, 10.0)
        lhs = rate_I(model, t * b)
        rhs = t ** (-model.beta) * rate_I(model, b)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_rate_level_set_convex():
    # {b : I(b) >= 1}: draw pairs inside, check midpoints stay inside
    rng = np.random.default_rng(5)
    for beta, theta in [(0.5, 1.0), (1.5, 2.0), (2.0, 1.0)]:
        model = LightTailModel(n=3, beta=beta, theta=theta)
        for _ in range(200):
            raw1, raw2 = rng.uniform(0.05, 1.0, (2, 3))
            b1 = raw1 / max(1.0, 1.0 / rate_I(model, raw1) ** (1.0 / beta))
            b2 = raw2 / max(1.0, 1.0 / rate_I(model, raw2) ** (1.0 / beta))
            assert rate_I(model, b1) >= 1.0 - 1e-9
            assert rate_I(model, b2) >= 1.0 - 1e-9
            a = rng.uniform(0.0, 1.0)
            mid = a * b1 + (1 - a) * b2
            assert rate_I(model, mid) >= 1.0 - 1e-9


# ---------------------------------------------------------------- rate_J

def test_rate_J_single_diag_matrix():
    a = np.array([1.0, 2.0, 4.0])
    prob = diag_problem(a, [1.0, 1.0, 1.0])
    model = LightTailModel(n=3, beta=0.5, theta=1.0)
    y = np.array([0.3, 0.2, 0.1])
    assert rate_J(model, prob, y) == pytest.approx(rate_I(model, a * y), rel=1e-12)


def test_rate_J_zero_sentinel():
    prob = diag_problem([1.0, 1.0], [1.0, 1.0])
    model = LightTailModel(n=2, beta=1.0, theta=1.0)
    assert math.isinf(rate_J(model, prob, np.zeros(2)))


def test_rate_J_min_selection():
    a1 = np.array([[1.0, 0.5], [0.2, 1.0]])
    prob = ProblemInstance(c=[1.0, 1.0], h=10.0, A=[a1, 2.0 * a1])
    model = LightTailModel(n=2, beta=1.2, theta=1.5)
    y = np.array([0.7, 0.4])
    i1 = rate_I(model, y @ a1)
    i2 = rate_I(model, y @ (2.0 * a1))
    assert i2 < i1
    assert rate_J(model, prob, y) == pytest.approx(min(i1, i2), rel=1e-12)
    # dense instances with d >= 2, p = inf, p = 1 and smooth p, and rows
    # y^T A_i that vanish because A_i lives off the support of y
    rng = np.random.default_rng(21)
    models = [LightTailModel(n=3, beta=gamma / theta, theta=theta)
              for theta in (1.0, 1.4) for gamma in (0.6, 1.0, 1.8, 3.0)]
    models += [LightTailModel(n=3, beta=beta, theta=math.inf) for beta in (0.5, 2.0)]
    for model in models:
        for trial in range(20):
            m, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            A = rng.uniform(0.0, 2.0, (d, m, 3)) * (rng.uniform(size=(d, m, 3)) < 0.8)
            A[:, 0, 0] += 0.5
            y = rng.uniform(0.0, 3.0, m)
            if trial % 4 == 0:
                y[0] = 0.0
                A[0, 1:] = 0.0                  # y^T A_0 = 0
            prob = ProblemInstance(c=np.ones(m), h=10.0, A=A)
            ref = min(rate_I(model, y @ A[i]) for i in range(d))
            assert rate_J(model, prob, y) == pytest.approx(ref, rel=1e-15)


def test_rate_J_scaling():
    prob = diag_problem([1.0, 3.0], [2.0, 1.0])
    model = LightTailModel(n=2, beta=2.0, theta=1.0)
    y = np.array([0.4, 0.1])
    for t in (0.3, 2.0, 7.5):
        assert rate_J(model, prob, t * y) == pytest.approx(
            t ** (-2.0) * rate_J(model, prob, y), rel=1e-10)


# ------------------------------------------------------------ LT program

def test_lt_vertex_solution_gamma_below_one():
    prob = diag_problem([1.0, 2.0, 4.0], [3.0, 2.0, 1.0])
    model = LightTailModel(n=3, beta=0.5, theta=1.0)
    sol = solve_lt_limit(model, prob)
    assert np.allclose(sol.y_star, [1.0, 0.5, 0.25], rtol=1e-6)
    assert sol.value == pytest.approx(4.25, rel=1e-9)
    assert sol.residual <= 1e-9


def test_lt_symmetric_gamma_two():
    prob = diag_problem([1.0, 1.0], [1.0, 1.0])
    model = LightTailModel(n=2, beta=2.0, theta=1.0)
    sol = solve_lt_limit(model, prob)
    assert sol.value == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert np.allclose(sol.y_star, [1 / math.sqrt(2)] * 2, rtol=1e-6)
    assert np.sum((sol.y_star) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_lt_scalar():
    prob = diag_problem([1.0], [1.0])
    for beta, theta in [(0.5, 1.0), (2.0, 1.5)]:
        sol = solve_lt_limit(LightTailModel(n=1, beta=beta, theta=theta), prob)
        assert sol.y_star[0] == pytest.approx(1.0, rel=1e-9)


def _assert_certified(sol, v_ref):
    """0 <= gap <= 1e-8 and the optimum lies in [value, value (1 + gap)]."""
    assert 0.0 <= sol.gap <= 1e-8
    assert sol.value * (1.0 - 1e-12) <= v_ref <= sol.value * (1.0 + sol.gap) * (1.0 + 1e-12)


def test_lt_matches_kkt_oracle_random_diag():
    rng = np.random.default_rng(12)
    cases = [(gamma, theta, rng.uniform(0.5, 3.0, size=2), rng.uniform(0.5, 3.0, size=2))
             for gamma, theta in [(1.5, 1.0), (3.0, 2.0), (0.8, 1.0)] for _ in range(5)]
    # m = 5, gamma = 3: a smooth optimum with all five coordinates active
    rng = np.random.default_rng(5)
    cases.append((3.0, 2.0, rng.uniform(0.5, 3.0, size=5), rng.uniform(0.5, 3.0, size=5)))
    for gamma, theta, a, c in cases:
        beta = gamma / theta
        prob = diag_problem(a, c)
        sol = solve_lt_limit(LightTailModel(n=a.size, beta=beta, theta=theta),
                             prob)
        y_ref, v_ref = diag_lt_optimum(a, c, gamma)
        assert sol.value == pytest.approx(v_ref, rel=1e-6)
        assert np.allclose(sol.y_star, y_ref, rtol=1e-5)
        _assert_certified(sol, v_ref)


def test_lt_past_cut_round_cap_m7(monkeypatch):
    # the cut loop stops at its round cap; c^T x still certifies the polished y
    rounds = []

    def counted(*args):
        out = cut_loop(*args)
        rounds.append(out[2])
        return out
    monkeypatch.setattr(rarecc.limits, "_cut_loop", counted)
    rng = np.random.default_rng(1)
    a, c = rng.uniform(0.5, 3.0, size=7), rng.uniform(0.5, 3.0, size=7)
    sol = solve_lt_limit(LightTailModel(n=7, beta=1.5, theta=2.0),
                         diag_problem(a, c))
    assert rounds == [rarecc.methods._MAX_CUT_ROUNDS]
    y_ref, v_ref = diag_lt_optimum(a, c, 3.0)
    assert sol.value == pytest.approx(v_ref, rel=1e-9)
    assert np.allclose(sol.y_star, y_ref, rtol=1e-7)
    _assert_certified(sol, v_ref)


def test_limits_when_cut_lp_stalls(stalled_lp):
    # the loop stops at once at the box corner; the scaled, polished corner
    # is still feasible and the gap still covers the optimum
    a, c = np.array([1.0, 2.0, 0.5]), np.array([2.0, 1.0, 1.5])
    model = LightTailModel(n=3, beta=1.5, theta=2.0)
    sol = solve_lt_limit(model, diag_problem(a, c))
    _, v_ref = diag_lt_optimum(a, c, 3.0)
    assert rate_J(model, diag_problem(a, c), sol.y_star) >= 1.0 - 1e-12
    assert sol.gap >= 0.0
    assert sol.value * (1.0 - 1e-12) <= v_ref <= sol.value * (1.0 + sol.gap) * (1.0 + 1e-12)
    model = HeavyTailModel.from_pairs(n=3, alpha=1.5, pairs=[(0.5, [1, 0, 0]), (0.5, [0, 0.5, 0.5])])
    sol = solve_ht_limit(model, diag_problem(a, c))
    assert angular_moment(model, diag_problem(a, c), sol.y_star) <= 1.0 + 1e-12
    assert sol.gap >= 0.0


def test_lt_unbounded_when_profitable_coordinate_carries_no_risk():
    # y_2 enters no loss row, and c_2 > 0: c^T y grows without bound
    prob = ProblemInstance(c=[1.0, 1.0], h=10.0, A=[[[1.0, 0.5], [0.0, 0.0]]])
    for beta, theta in [(0.5, 1.0), (2.0, 1.5), (1.0, math.inf)]:
        with pytest.raises(UnboundedError):
            solve_lt_limit(LightTailModel(n=2, beta=beta, theta=theta), prob)


# ------------------------------------------------------------ HT program

def test_ht_scalar_boundary(scalar_problem, scalar_pareto2):
    sol = solve_ht_limit(scalar_pareto2, scalar_problem)
    assert sol.y_star[0] == pytest.approx(1.0, rel=1e-9)
    assert sol.value == pytest.approx(1.0, rel=1e-9)


def test_ht_single_atom_linear():
    model = HeavyTailModel.from_pairs(n=2, alpha=2.0, pairs=[(1.0, [0.5, 0.5])])
    prob = ProblemInstance(c=[1.0, 0.0], h=100.0, A=[np.eye(2)])
    sol = solve_ht_limit(model, prob)
    assert sol.value == pytest.approx(2.0, rel=1e-8)
    assert np.allclose(sol.y_star, [2.0, 0.0], atol=1e-7)


def test_ht_two_atoms_symmetric(two_atom_model, identity_problem2):
    sol = solve_ht_limit(two_atom_model, identity_problem2)
    assert sol.value == pytest.approx(2.0, rel=1e-8)
    assert np.allclose(sol.y_star, [1.0, 1.0], rtol=1e-6)
    assert sol.residual <= 1e-9


def test_ht_constraint_set_convex(two_atom_model, identity_problem2):
    rng = np.random.default_rng(8)
    for _ in range(200):
        y1, y2 = rng.uniform(0.0, 1.5, (2, 2))
        for y in (y1, y2):
            g = angular_moment(two_atom_model, identity_problem2, y)
            if g > 1.0:
                y /= g ** (1.0 / two_atom_model.alpha) + 1e-12
        a = rng.uniform(0.0, 1.0)
        mid = a * y1 + (1 - a) * y2
        assert angular_moment(two_atom_model, identity_problem2, mid) <= 1.0 + 1e-9


def test_ht_g_degree_one_homogeneous(two_atom_model, identity_problem2):
    rng = np.random.default_rng(9)
    alpha = two_atom_model.alpha
    for _ in range(100):
        y = rng.uniform(0.0, 2.0, 2)
        t = rng.uniform(0.01, 50.0)
        g1 = angular_moment(two_atom_model, identity_problem2, y) ** (1.0 / alpha)
        gt = angular_moment(two_atom_model, identity_problem2, t * y) ** (1.0 / alpha)
        assert gt == pytest.approx(t * g1, rel=1e-12, abs=1e-300)


def test_ht_matches_lp_on_single_atom_instances():
    rng = np.random.default_rng(77)
    for trial in range(20):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        A = rng.uniform(0.1, 2.0, (d, m, n))
        c = rng.uniform(0.1, 2.0, m)
        atom = rng.uniform(0.1, 1.0, n)
        atom /= atom.sum()
        alpha = float(rng.uniform(1.2, 4.0))
        model = HeavyTailModel.from_pairs(n=n, alpha=alpha, pairs=[(1.0, atom)])
        prob = ProblemInstance(c=c, h=1000.0, A=A)
        sol = solve_ht_limit(model, prob)
        # single atom: the moment constraint is phi(y, atom) <= 1, an LP
        rows = np.array([A[i] @ atom for i in range(d)])
        ref = solve_lp(LinearProgram(objective=c, A=rows, b=np.ones(d),
                                     hi=np.full(m, 1000.0)))
        assert sol.value == pytest.approx(ref.objective, rel=1e-6), trial


def test_ht_matches_holder_oracle_axis_atoms():
    # m from 2 to 5; seed 43 (m = 4, alpha = 1.32) has a strongly curved boundary
    for seed in range(40, 60):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        alpha = float(rng.uniform(1.2, 4.0))
        w = rng.uniform(0.2, 1.0, m)
        w /= w.sum()
        c = rng.uniform(0.5, 2.0, m)
        model = HeavyTailModel.from_pairs(n=m, alpha=alpha,
                                          pairs=[(w[j], np.eye(m)[j]) for j in range(m)])
        sol = solve_ht_limit(model, ProblemInstance(c=c, h=1000.0, A=[np.eye(m)]))
        y_ref, v_ref = holder_ht_optimum(w, c, alpha)
        assert sol.value == pytest.approx(v_ref, rel=1e-9), seed
        assert np.allclose(sol.y_star, y_ref, rtol=1e-7), seed
        _assert_certified(sol, v_ref)


def test_ht_unbounded_when_profitable_coordinate_carries_no_risk():
    prob = ProblemInstance(c=[1.0, 1.0], h=10.0, A=[[[1.0, 0.5], [0.0, 0.0]]])
    model = HeavyTailModel.from_pairs(n=2, alpha=2.0,
                                      pairs=[(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])])
    with pytest.raises(UnboundedError):
        solve_ht_limit(model, prob)


def test_limits_clip_lp_iterate_below_zero():
    # In both LPs (n = 1, so g is a max of linear forms) a cut-loop iterate
    # carries an entry just below 0: the light solver raised InputError from
    # its own rate_J, and the heavy one returned y_star[2] = -2.2e-16.
    prob = ProblemInstance(c=[0.53, 0.39, 0.2], h=1.0,
                           A=[[[0.89], [0.26], [0.0]], [[0.32], [0.26], [0.4]],
                              [[0.24], [0.0], [0.56]]])
    sol = solve_lt_limit(LightTailModel(n=1, beta=1.5, theta=math.inf), prob)
    assert (sol.y_star >= 0.0).all()
    assert sol.value == pytest.approx(0.39 / 0.26, rel=1e-12)    # y = e_2 / 0.26
    assert sol.residual <= 1e-12
    prob = ProblemInstance(c=[0.57, 0.47, 0.93], h=1.0,
                           A=[[[0.0], [0.97], [0.43]], [[0.33], [0.0], [0.77]],
                              [[0.33], [0.92], [0.0]]])
    model = HeavyTailModel.from_pairs(n=1, alpha=2.2, pairs=[(1.0, [1.0])])
    sol = solve_ht_limit(model, prob)
    assert (sol.y_star >= 0.0).all()
    assert sol.value == pytest.approx(0.57 / 0.33, rel=1e-12)    # y = e_1 / 0.33
    assert sol.residual <= 1e-12


# --------------------------------------------------- decision rescaling

def test_limits_reject_tail_of_another_dimension(identity_problem2, scalar_pareto2, scalar_exp):
    # angular_moment broadcast the n = 1 atom over n = 2 and returned 4.0
    calls = [lambda: angular_moment(scalar_pareto2, identity_problem2, [1.0, 1.0]),
             lambda: rate_J(scalar_exp, identity_problem2, [1.0, 1.0]),
             lambda: solve_lt_limit(scalar_exp, identity_problem2),
             lambda: solve_ht_limit(scalar_pareto2, identity_problem2)]
    for call in calls:
        with pytest.raises(ContractError, match="n=1"):
            call()


def test_limit_to_decision_heavy(scalar_pareto2):
    from rarecc.limits import LimitSolution
    prob2 = ProblemInstance(c=[1.0, 1.0], h=100.0, A=[np.eye(2)])
    model = HeavyTailModel.from_pairs(n=2, alpha=2.0,
                                      pairs=[(0.5, [1, 0]), (0.5, [0, 1])])
    sol = LimitSolution(y_star=np.array([2.0, 0.0]), value=2.0, residual=0.0, gap=0.0)
    x = limit_to_decision(sol, model, 1e-4, 0.0, prob2)
    assert np.allclose(x, [0.02, 0.0])


def test_limit_to_decision_light_shrink(scalar_problem, scalar_exp):
    from rarecc.limits import LimitSolution
    sol = LimitSolution(y_star=np.array([1.0]), value=1.0, residual=0.0, gap=0.0)
    x = limit_to_decision(sol, scalar_exp, math.exp(-10.0), 0.1, scalar_problem)
    assert x[0] == pytest.approx(0.09, rel=1e-12)
    lt_half = LightTailModel(n=1, beta=0.5)
    x = limit_to_decision(sol, lt_half, 1e-3, 0.0, scalar_problem)
    assert x[0] == pytest.approx(1.0 / 47.717, rel=1e-4)


def test_limit_to_decision_domain(scalar_problem, scalar_exp):
    from rarecc.limits import LimitSolution
    sol = LimitSolution(y_star=np.array([1.0]), value=1.0, residual=0.0, gap=0.0)
    with pytest.raises(ParameterError):
        limit_to_decision(sol, scalar_exp, 0.0, 0.0, scalar_problem)
    with pytest.raises(ParameterError):
        limit_to_decision(sol, scalar_exp, 0.5, 1.0, scalar_problem)
