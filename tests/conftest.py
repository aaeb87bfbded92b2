import numpy as np
import pytest

import rarecc.lpsolve
from rarecc import HeavyTailModel, LightTailModel, ProblemInstance


@pytest.fixture
def scalar_problem():
    return ProblemInstance(c=[1.0], h=10.0, A=[[[1.0]]])


@pytest.fixture
def scalar_pareto2():
    return HeavyTailModel.from_pairs(n=1, alpha=2.0, pairs=[(1.0, [1.0])])


@pytest.fixture
def scalar_exp():
    return LightTailModel(n=1, beta=1.0, theta=1.0)


@pytest.fixture
def two_atom_model():
    return HeavyTailModel.from_pairs(
        n=2, alpha=2.0, pairs=[(0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])])


@pytest.fixture
def identity_problem2():
    return ProblemInstance(c=[1.0, 1.0], h=100.0, A=[np.eye(2)])


@pytest.fixture
def stalled_lp(monkeypatch):
    """Make the first cut LP hand back the box corner the cut loop starts
    from: it is built with no cut, only the box.  The loop then stops, so
    no later round appends a cut."""
    class Stalled(rarecc.lpsolve.CutLP):
        def __init__(self, f, A, b, hi):
            super().__init__(f, A[:0], b[:0], hi)

        def add(self, A, b):
            raise AssertionError("a stalled cut loop appends no cut")
    monkeypatch.setattr(rarecc.lpsolve, "CutLP", Stalled)
