import numpy as np
import pytest

import rarecc.lpsolve
from _oracles import brute_force_lp
from rarecc import (ContractError, InputError, LinearProgram, UnboundedError,
                    solve_lp)
from rarecc.lpsolve import SolveResult


def test_single_constraint():
    res = solve_lp(LinearProgram(objective=[1.0], A=[[1.0]], b=[3.0], hi=[10.0]))
    assert res.x[0] == pytest.approx(3.0)
    assert res.objective == pytest.approx(3.0)


def test_simplex_face():
    res = solve_lp(LinearProgram(objective=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0]))
    assert res.objective == pytest.approx(1.0)


def test_unbounded_raises():
    with pytest.raises(UnboundedError):
        solve_lp(LinearProgram(objective=[1.0, 1.0], A=[[1.0, -1.0]], b=[1.0]))


def test_random_instances_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(50):
        M = int(rng.integers(1, 8))
        N = int(rng.integers(1, 5))
        A = rng.uniform(-1.0, 2.0, (M, N))
        b = rng.uniform(0.0, 3.0, M)
        f = rng.uniform(-1.0, 2.0, N)
        hi = rng.uniform(0.5, 4.0, N)
        res = solve_lp(LinearProgram(objective=f, A=A, b=b, hi=hi))
        ref = brute_force_lp(f, A, b, hi)
        assert res.objective == pytest.approx(ref, rel=1e-8, abs=1e-8), trial
    # the same kind of LP with a fifth of the bounds at 0, written in
    # x' = x / s for a column scale s from 1e-6 to 1e6: the optimum is that
    # of the unscaled LP, whichever units the columns are in
    for trial in range(200):
        M = int(rng.integers(1, 8))
        N = int(rng.integers(1, 5))
        A = rng.uniform(-1.0, 2.0, (M, N))
        b = rng.uniform(0.0, 3.0, M)
        f = rng.uniform(-1.0, 2.0, N)
        hi = rng.uniform(0.5, 4.0, N)
        hi[rng.random(N) < 0.2] = 0.0
        s = 10.0 ** rng.uniform(-6.0, 6.0, N)
        res = solve_lp(LinearProgram(objective=f * s, A=A * s, b=b, hi=hi / s))
        ref = brute_force_lp(f, A, b, hi)
        assert res.objective == pytest.approx(ref, rel=1e-8, abs=1e-8), trial
        assert res.residual <= 1e-9, trial


def test_feasibility_residual_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        M, N = 6, 4
        A = rng.uniform(0.0, 2.0, (M, N))
        b = rng.uniform(0.5, 3.0, M)
        f = rng.uniform(0.0, 2.0, N)
        res = solve_lp(LinearProgram(objective=f, A=A, b=b, hi=np.full(N, 5.0)))
        assert res.residual <= 1e-9 * (1.0 + np.abs(b).max())


def test_deterministic_pivoting():
    rng = np.random.default_rng(1)
    A = rng.uniform(0.0, 1.0, (6, 4))
    b = rng.uniform(1.0, 2.0, 6)
    f = rng.uniform(0.0, 1.0, 4)
    lp = LinearProgram(objective=f, A=A, b=b, hi=np.full(4, 3.0))
    r1, r2 = solve_lp(lp), solve_lp(lp)
    assert r1.x.tobytes() == r2.x.tobytes()
    assert r1.iterations == r2.iterations


def test_shape_validation():
    with pytest.raises(ContractError):
        LinearProgram(objective=[1.0, 1.0], A=[[1.0]], b=[1.0])
    with pytest.raises(InputError):
        LinearProgram(objective=[np.inf], A=[[1.0]], b=[1.0])
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0], A=[[1.0]], b=[-1.0])
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0], A=[[1.0]], b=[1.0], hi=[-1.0])


def _cut_sequence(rng, m, count):
    """Rows as the cut loop adds them, with repeats and parallel copies."""
    rows = []
    for _ in range(count):
        u = rng.random()
        if rows and u < 0.15:
            rows.append(rows[int(rng.integers(len(rows)))].copy())
        elif rows and u < 0.3:
            rows.append(rows[int(rng.integers(len(rows)))] * rng.uniform(0.5, 2.0))
        else:
            row = rng.uniform(-0.3, 2.0, m) * (rng.random(m) < 0.8)
            rows.append(row)
    return np.array(rows)


def test_warm_start_matches_cold_solve():
    rng = np.random.default_rng(8)
    warm_pivots = cold_pivots = 0
    for trial in range(80):
        m = int(rng.integers(2, 9))
        A = _cut_sequence(rng, m, int(rng.integers(1, 31)))
        f = rng.uniform(-0.5, 2.0, m)
        hi = rng.uniform(0.5, 4.0, m)
        b = rng.uniform(0.5, 2.0, A.shape[0])
        res = None
        for k in range(1, A.shape[0] + 1):
            lp = LinearProgram(objective=f, A=A[:k], b=b[:k], hi=hi)
            cold = solve_lp(lp)
            res = cold if res is None else solve_lp(lp, start=res)
            scale = 1.0 + abs(cold.objective)
            assert abs(res.objective - cold.objective) <= 1e-9 * scale, (trial, k)
            assert np.abs(res.x - cold.x).max() <= 1e-9 * (1.0 + np.abs(cold.x).max()), (trial, k)
            assert res.residual <= 1e-9 * (1.0 + b[:k].max()), (trial, k)
            if k > 1:
                warm_pivots += res.iterations
                cold_pivots += cold.iterations
    assert warm_pivots < cold_pivots


def test_warm_start_adds_several_rows_at_once():
    rng = np.random.default_rng(3)
    A = _cut_sequence(rng, 4, 12)
    f, hi, b = rng.uniform(0.1, 2.0, 4), np.full(4, 3.0), np.ones(12)
    first = solve_lp(LinearProgram(objective=f, A=A[:2], b=b[:2], hi=hi))
    lp = LinearProgram(objective=f, A=A, b=b, hi=hi)
    res, cold = solve_lp(lp, start=first), solve_lp(lp)
    assert res.objective == pytest.approx(cold.objective, rel=1e-12)
    assert np.allclose(res.x, cold.x, rtol=1e-10, atol=1e-12)


def test_warm_start_contract():
    f, hi = np.array([1.0, 2.0]), np.array([3.0, 3.0])
    A = np.array([[1.0, 1.0], [2.0, 0.5], [0.5, 2.0]])
    start = solve_lp(LinearProgram(objective=f, A=A[:2], b=np.ones(2), hi=hi))
    bad = [
        LinearProgram(objective=f, A=A[[0, 2]], b=np.ones(2), hi=hi),         # other row
        LinearProgram(objective=f, A=A[:1], b=np.ones(1), hi=hi),             # fewer rows
        LinearProgram(objective=f, A=A, b=np.array([1.0, 2.0, 1.0]), hi=hi),  # other b
        LinearProgram(objective=f * 2.0, A=A, b=np.ones(3), hi=hi),
        LinearProgram(objective=f, A=A, b=np.ones(3), hi=hi * 2.0),
        LinearProgram(objective=f, A=A, b=np.ones(3)),                        # hi = inf
    ]
    for lp in bad:
        with pytest.raises(ContractError):
            solve_lp(lp, start=start)
    bare = SolveResult(start.x, start.objective, start.iterations, start.residual)
    with pytest.raises(ContractError):
        solve_lp(LinearProgram(objective=f, A=A, b=np.ones(3), hi=hi), start=bare)


def test_warm_start_leaves_start_intact():
    f, hi = np.array([1.0, 1.0]), np.array([2.0, 2.0])
    lp1 = LinearProgram(objective=f, A=[[1.0, 0.0]], b=[1.5], hi=hi)
    start = solve_lp(lp1)
    x1 = start.x.copy()
    lp2 = LinearProgram(objective=f, A=[[1.0, 0.0], [0.0, 1.0]], b=[1.5, 0.5], hi=hi)
    res = solve_lp(lp2, start=start)
    assert res.x.tolist() == [1.5, 0.5] and res.iterations == 1
    assert start.x.tolist() == x1.tolist()
    # the same start serves a second, different extension
    lp3 = LinearProgram(objective=f, A=[[1.0, 0.0], [1.0, 1.0]], b=[1.5, 1.0], hi=hi)
    assert solve_lp(lp3, start=start).objective == pytest.approx(1.0)
    assert start == SolveResult(start.x, start.objective, start.iterations, start.residual,
                                start.active_rows)
    assert "_tableau" not in repr(start)


def _degenerate_lp(rng):
    """A random LP whose vertex x = 0 is degenerate: about 60% of the
    right-hand sides and 30% of the costs are 0.  Returns the LP and the
    row count of a prefix to warm-start from."""
    M, N = int(rng.integers(2, 11)), int(rng.integers(2, 7))
    A = rng.uniform(-1.0, 2.0, (M, N))
    b = rng.uniform(0.0, 3.0, M) * (rng.random(M) >= 0.6)
    f = rng.uniform(-1.0, 2.0, N) * (rng.random(N) >= 0.3)
    hi = rng.uniform(0.5, 4.0, N)
    return LinearProgram(objective=f, A=A, b=b, hi=hi), int(rng.integers(1, M))


def _cold_and_warm(lp, k):
    first = solve_lp(LinearProgram(objective=lp.objective, A=lp.A[:k], b=lp.b[:k], hi=lp.hi))
    return solve_lp(lp), solve_lp(lp, start=first)


def test_blands_rule_reaches_the_default_optimum(monkeypatch):
    # with a stall limit of 1 the first pivot that leaves the objective
    # where it was switches the primal and the dual pass to Bland's rule
    rng = np.random.default_rng(2024)
    cases = [_degenerate_lp(rng) for _ in range(200)]
    default = [_cold_and_warm(lp, k) for lp, k in cases]
    bland_steps = {}
    for name in ("_primal_step", "_dual_step"):
        def step(T, basis, ncols, bland, _name=name, _step=getattr(rarecc.lpsolve, name)):
            bland_steps[_name] = bland_steps.get(_name, 0) + bland
            return _step(T, basis, ncols, bland)
        monkeypatch.setattr(rarecc.lpsolve, name, step)
    monkeypatch.setattr(rarecc.lpsolve, "_STALL_LIMIT", 1)
    for trial, ((lp, k), ref) in enumerate(zip(cases, default)):
        for res, want in zip(_cold_and_warm(lp, k), ref):
            assert abs(res.objective - want.objective) <= 1e-9 * (1.0 + abs(want.objective)), trial
            assert res.residual <= 1e-9, trial
    assert bland_steps["_primal_step"] > 0 and bland_steps["_dual_step"] > 0, bland_steps
