import numpy as np
import pytest

import rarecc.lpsolve
from _oracles import NumpyCutLP, brute_force_lp
from rarecc import (ContractError, InputError, LinearProgram, RareccError, UnboundedError,
                    solve_lp)
from rarecc.lpsolve import CutLP


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


@pytest.mark.parametrize("f, A, hi, x, pivots", [
    ([-1.0], [[0.0]], None, [0.0], 0),
    ([0.0, -2.0], [[0.0, 0.0]], None, [0.0, 0.0], 0),
    ([1.0], [[0.0]], None, None, 0),
    ([1.0], [[1e-12]], None, None, 0),
    ([-1.0], [[0.0]], [2.0], [0.0], 0),
    ([0.0, -2.0], [[0.0, 0.0]], [2.0, 2.0], [0.0, 0.0], 0),
    ([1.0], [[0.0]], [2.0], [2.0], 1),
], ids=["negative", "zero-and-negative", "positive", "tiny-row-positive", "negative-boxed",
        "zero-and-negative-boxed", "positive-boxed"])
def test_every_row_vacuous(f, A, hi, x, pivots):
    # no x >= 0 violates a row whose coefficients are all below the pivot
    # tolerance, so the LP is solved over its bounds alone: x = 0 when no
    # cost is positive, else the bound, or UnboundedError without one
    lp = LinearProgram(objective=f, A=A, b=[1.0], hi=hi)
    if x is None:
        with pytest.raises(UnboundedError):
            solve_lp(lp)
        return
    res = solve_lp(lp)
    assert res.x.tolist() == x and res.iterations == pivots and res.residual == 0.0


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


def _violation(lp, x):
    """Largest violation of A x <= b, x >= 0 and x <= hi, as solve_lp's
    residual."""
    return max(0.0, float(np.concatenate([lp.A @ x - lp.b, -x, x - lp.hi]).max()))


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
        warm = None
        for k in range(1, A.shape[0] + 1):
            lp = LinearProgram(objective=f, A=A[:k], b=b[:k], hi=hi)
            cold = solve_lp(lp)
            before = 0 if warm is None else warm.pivots
            if warm is None:
                warm = CutLP(lp.objective, lp.A, lp.b, lp.hi)
            else:
                warm.add(lp.A[k - 1:], lp.b[k - 1:])
            iters, x = warm.pivots - before, warm.x
            scale = 1.0 + abs(cold.objective)
            assert abs(f @ x - cold.objective) <= 1e-9 * scale, (trial, k)
            assert np.abs(x - cold.x).max() <= 1e-9 * (1.0 + np.abs(cold.x).max()), (trial, k)
            assert _violation(lp, x) <= 1e-9 * (1.0 + b[:k].max()), (trial, k)
            if k > 1:
                warm_pivots += iters
                cold_pivots += cold.iterations
    assert warm_pivots < cold_pivots


def test_warm_start_adds_several_rows_at_once():
    rng = np.random.default_rng(3)
    A = _cut_sequence(rng, 4, 12)
    f, hi, b = rng.uniform(0.1, 2.0, 4), np.full(4, 3.0), np.ones(12)
    warm = CutLP(f, A[:2], b[:2], hi)
    warm.add(A[2:], b[2:])
    cold = solve_lp(LinearProgram(objective=f, A=A, b=b, hi=hi))
    assert f @ warm.x == pytest.approx(cold.objective, rel=1e-12)
    assert np.allclose(warm.x, cold.x, rtol=1e-10, atol=1e-12)


def test_warm_start_leaves_start_intact():
    # add changes the CutLP it is called on; two LPs built alike take two extensions
    f, hi = np.array([1.0, 1.0]), np.array([2.0, 2.0])
    first, second = (CutLP(f, np.array([[1.0, 0.0]]), np.array([1.5]), hi) for _ in range(2))
    before = first.pivots
    first.add(np.array([[0.0, 1.0]]), np.array([0.5]))
    assert first.x.tolist() == [1.5, 0.5] and first.pivots - before == 1
    second.add(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert f @ second.x == pytest.approx(1.0)


def test_appending_a_dropped_row_changes_nothing():
    # rows that no point of the unit box can violate are dropped before any pivot
    f, hi = np.array([1.0, 2.0]), np.array([2.0, 3.0])
    lp = CutLP(f, np.array([[1.0, 1.0]]), np.array([2.5]), hi)
    x, pivots, shape = lp.x.tobytes(), lp.pivots, lp.T.shape
    lp.add(np.array([[1e-12, -1e-12], [0.0, 0.0]]), np.array([1.0, 0.0]))
    assert (lp.x.tobytes(), lp.pivots, lp.T.shape) == (x, pivots, shape)


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
    """(objective, largest violation) of the LP solved cold, and solved
    cold over its first k rows with the rest then appended."""
    warm = CutLP(lp.objective, lp.A[:k], lp.b[:k], lp.hi)
    warm.add(lp.A[k:], lp.b[k:])
    return [(float(lp.objective @ x), _violation(lp, x)) for x in (solve_lp(lp).x, warm.x)]


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
        for (value, violation), (want, _) in zip(_cold_and_warm(lp, k), ref):
            assert abs(value - want) <= 1e-9 * (1.0 + abs(want)), trial
            assert violation <= 1e-9, trial
    assert bland_steps["_primal_step"] > 0 and bland_steps["_dual_step"] > 0, bland_steps


def _state(lp):
    return lp.x.tobytes(), lp.pivots, list(lp.basis), lp.T.tobytes()


def _build_or_add(make):
    """The CutLP that ``make`` builds or changes, or the type of the error it raises."""
    try:
        return make()
    except (UnboundedError, RareccError) as err:
        return type(err)


@pytest.mark.parametrize("stall_limit", [64, 1])
def test_list_bookkeeping_matches_the_numpy_tableau(monkeypatch, stall_limit):
    # the package's tableau keeps its basis in a list and reads its ratio
    # tests, its basis and x through tolist; the numpy reference does each on
    # arrays, and every bit must agree after every append, on any BLAS
    # kernel; a stall limit of 1 switches both to Bland's rule
    monkeypatch.setattr(rarecc.lpsolve, "_STALL_LIMIT", stall_limit)
    bland_steps = {"_primal_step": 0, "_dual_step": 0}
    for name in bland_steps:
        def step(T, basis, ncols, bland, _name=name, _step=getattr(rarecc.lpsolve, name)):
            bland_steps[_name] += bland
            return _step(T, basis, ncols, bland)
        monkeypatch.setattr(rarecc.lpsolve, name, step)
    rng = np.random.default_rng(300 + stall_limit)
    appends = 0
    for trial in range(150):
        m = int(rng.integers(1, 6))
        A = _cut_sequence(rng, m, int(rng.integers(1, 16)))
        odd = rng.random(len(A))
        A[odd < 0.1] *= 1e-11                       # tiny rows, kept only when b is tinier
        A[(odd >= 0.1) & (odd < 0.15)] = 0.0        # vacuous rows
        b = rng.uniform(0.5, 2.0, len(A)) if trial % 2 else np.ones(len(A))
        b[rng.random(len(A)) < 0.1] = 1e-13
        b[rng.random(len(A)) < 0.2] = 0.0           # degenerate vertices
        box = trial % 3
        hi = (rng.uniform(0.05, 50.0, m) if box == 0 else np.full(m, np.inf) if box == 1
              else np.where(rng.random(m) < 0.5, np.inf, rng.uniform(0.05, 50.0, m)))
        f = rng.uniform(-0.5, 2.0, m) * 10.0 ** rng.uniform(-3.0, 1.0) * (rng.random(m) >= 0.3)
        k = int(rng.integers(1, len(A) + 1))
        got = _build_or_add(lambda: CutLP(f, A[:k], b[:k], hi))
        want = _build_or_add(lambda: NumpyCutLP(f, A[:k], b[:k], hi))
        while True:
            if isinstance(got, type) or isinstance(want, type):
                assert got is want, trial
                break
            assert _state(got) == _state(want), (trial, k)
            if k == len(A):
                break
            step = int(rng.integers(1, 4)) if rng.random() < 0.3 else 1
            rows = slice(k, min(k + step, len(A)))
            got = _build_or_add(lambda: got.add(A[rows], b[rows]) or got)
            want = _build_or_add(lambda: want.add(A[rows], b[rows]) or want)
            k = rows.stop
            appends += 1
    assert appends > 300
    if stall_limit == 1:
        assert bland_steps["_primal_step"] > 0 and bland_steps["_dual_step"] > 0, bland_steps
