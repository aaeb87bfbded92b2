import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarecc import ContractError, InputError, ProblemInstance, box_clip, phi, phi_many

finite01 = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def make_problem(m=2, n=2, d=2):
    A = np.zeros((d, m, n))
    A[0] = np.eye(m, n)
    A[1] = np.eye(m, n)[:, ::-1]
    return ProblemInstance(c=np.ones(m), h=5.0, A=A)


def test_phi_zero_decision():
    p = make_problem()
    assert phi(p, np.zeros(2), np.array([3.0, 4.0])) == 0.0


def test_phi_scalar_product():
    p = ProblemInstance(c=[1.0], h=10.0, A=[[[2.0]]])
    assert phi(p, [3.0], [5.0]) == pytest.approx(30.0)


def test_phi_coordinate_swap_max():
    p = make_problem()
    # A1 = I, A2 = coordinate swap: phi((1,0), (2,5)) = max(2, 5)
    assert phi(p, [1.0, 0.0], [2.0, 5.0]) == pytest.approx(5.0)


def test_phi_dimension_mismatch():
    p = make_problem()
    with pytest.raises(ContractError):
        phi(p, [1.0, 0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ContractError):
        phi(p, [1.0, 0.0], [1.0])


def test_phi_bad_values():
    p = make_problem()
    with pytest.raises(InputError):
        phi(p, [1.0, -0.5], [1.0, 1.0])
    with pytest.raises(InputError):
        phi(p, [1.0, 0.0], [np.nan, 1.0])



@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_phi_many_equals_row_max(d):
    # the column-wise maximum must reproduce max(axis=1) bit for bit
    # (n = 1 takes the broadcast product, m = 1 a one-row x @ A)
    rng = np.random.default_rng(d)
    for m, n in itertools.product((1, 3), range(1, 5)):
        A = rng.random((d, m, n)) * (rng.random((d, m, n)) < 0.7)
        A[:, 0, 0] += 0.1
        prob = ProblemInstance(c=np.ones(m), h=1.0, A=A)
        x = rng.random(m)
        for N in (0, 1, 4097):
            draws = rng.pareto(1.5, (N, n))
            want = (draws @ (x @ prob.A).T).max(axis=1)
            got = phi_many(prob, x, draws)
            assert got.shape == (N,) and got.tobytes() == want.tobytes(), (m, n, N)


def test_box_clip_examples():
    p1 = ProblemInstance(c=[1.0, 1.0], h=1.0, A=[np.eye(2)])
    assert np.allclose(box_clip(p1, [2.0, -1.0]), [1.0, 0.0])
    inside = np.array([0.3, 0.7])
    assert np.array_equal(box_clip(p1, inside), inside)
    p2 = ProblemInstance(c=[1.0, 1.0], h=0.5, A=[np.eye(2)])
    assert np.allclose(box_clip(p2, [0.25, 0.75]), [0.25, 0.5])


def test_box_clip_idempotent():
    p = make_problem()
    x = np.array([7.0, -3.0])
    once = box_clip(p, x)
    assert np.array_equal(box_clip(p, once), once)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite01, min_size=2, max_size=2),
       st.lists(finite01, min_size=2, max_size=2),
       st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_phi_positive_homogeneity(x, L, t):
    p = make_problem()
    lhs = phi(p, t * np.asarray(x), L)
    rhs = t * phi(p, x, L)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite01, min_size=2, max_size=2),
       st.lists(finite01, min_size=2, max_size=2),
       st.lists(finite01, min_size=2, max_size=2))
def test_phi_monotone_in_x(x, bump, L):
    p = make_problem()
    x = np.asarray(x)
    assert phi(p, x + np.asarray(bump), L) >= phi(p, x, L) - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(finite01, min_size=2, max_size=2),
       st.lists(finite01, min_size=2, max_size=2),
       st.lists(finite01, min_size=2, max_size=2),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_phi_convex_in_x(x1, x2, L, a):
    p = make_problem()
    x1, x2 = np.asarray(x1), np.asarray(x2)
    mid = a * x1 + (1 - a) * x2
    assert phi(p, mid, L) <= a * phi(p, x1, L) + (1 - a) * phi(p, x2, L) + 1e-10


def test_instance_validation():
    with pytest.raises(InputError):
        ProblemInstance(c=[0.0, 0.0], h=1.0, A=[np.eye(2)])
    with pytest.raises(InputError):
        ProblemInstance(c=[1.0, -1.0], h=1.0, A=[np.eye(2)])
    with pytest.raises(InputError):
        ProblemInstance(c=[1.0, 1.0], h=0.0, A=[np.eye(2)])
    with pytest.raises(InputError):
        ProblemInstance(c=[1.0, 1.0], h=1.0, A=[np.zeros((2, 2))])
    with pytest.raises(ContractError):
        ProblemInstance(c=[1.0, 1.0], h=1.0, A=np.eye(2))


def test_from_dict_roundtrip():
    p = ProblemInstance.from_dict(
        {"c": [3, 2, 1], "h": 100.0,
         "A": [[[1, 0, 0], [0, 2, 0], [0, 0, 4]]]})
    assert p.m == p.n == 3 and p.d == 1
    with pytest.raises(ContractError):
        ProblemInstance.from_dict({"c": [1.0], "h": 1.0})
