import numpy as np
import pytest

from _oracles import brute_force_lp
from rarecc import (ContractError, InputError, LinearProgram, UnboundedError,
                    solve_lp)


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
