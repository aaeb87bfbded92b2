from types import SimpleNamespace

import numpy as np
import pytest

import rarecc.methods
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
    """Make every cut LP hand back the box corner the cut loop starts from."""
    def solve(lp):
        return SimpleNamespace(status="optimal", iterations=0,
                               x=np.where(lp.objective > 0, lp.hi, 0.0))
    monkeypatch.setattr(rarecc.methods, "solve_lp", solve)
