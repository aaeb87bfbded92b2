"""Sharded Monte Carlo counts: the same counts at any shard count, inside
the experiment pool or out of it.

Every test forces the CPU count the shards see, so none depends on the host.
"""

import sys
import threading
import time

import numpy as np
import pytest

import rarecc.sampler as sampler
from rarecc import (ExperimentConfig, HeavyTailModel, ProblemInstance, phi_many, run_experiment,
                    violation_prob)
from rarecc.sampler import _BLOCK, _CHUNK, _shard_sum, draws_range, exceedances
from test_methods import STREAM_CASES
from test_sampler import STREAM_BUDGETS, STREAM_MODELS

SHARD_COUNTS = (1, 2, 3)
# the reader of the stream that the counts of each case's shards go through
READER = {"light": "draws_range", "heavy": "_heavy_uniforms"}


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` gives the shards k CPUs, and returns a map from each
    reader of the stream, :func:`draws_range` and the heavy uniforms'
    ``_heavy_uniforms``, to the list of the [start, stop) ranges that the
    shards read through it from then on."""
    reads = {}

    def spy(name):
        reader, ranges = getattr(sampler, name), reads.setdefault(name, [])

        def read(model, seed, start, stop, *args, **kwargs):
            ranges.append((start, stop))
            return reader(model, seed, start, stop, *args, **kwargs)
        return read

    for name in ("draws_range", "_heavy_uniforms"):
        monkeypatch.setattr(sampler, name, spy(name))

    def force(count):
        monkeypatch.setattr(sampler, "_cpu_count", lambda: count)
        for ranges in reads.values():
            ranges.clear()
        return reads

    return force


def shard_threads():
    """The shard threads still alive; a count joins its own before it returns."""
    return [t for t in threading.enumerate() if t.name.startswith("rarecc-shard")]


def shard_rows(cpus, count):
    """The rows of one chunk of a count of ``count`` draws on ``cpus`` CPUs."""
    shards = min(cpus, sampler._SHARDS_MAX, -(-count // _CHUNK))
    return _CHUNK // _BLOCK // shards * _BLOCK


def assert_tiled(ranges, count, rows):
    """The ranges are the chunks of ``rows`` draws that tile [0, count)."""
    ranges = sorted(ranges)
    assert ranges[0][0] == 0 and ranges[-1][1] == count
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert len(ranges) == -(-count // rows)


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_violation_is_the_same_at_every_shard_count(cpus, case):
    problem, tail, x = STREAM_CASES[case]
    for budget in STREAM_BUDGETS:
        results = []
        for k in SHARD_COUNTS:
            reads = cpus(k)
            results.append(violation_prob(problem, x, tail, budget, 17))
            assert_tiled(reads[READER[case]], budget, shard_rows(k, budget))
            assert not shard_threads()
        assert results[0] == results[1] == results[2], budget


def tail_ratio_cfg(model, problem, budget, workers=1):
    return ExperimentConfig(kind="tail_ratio", problem=problem, tail=model,
                            r_grid=(1.5, 2.0), replications=2, budget=budget,
                            master_seed=3, y_probe=[1.0, 0.5], workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_tail_ratio_rows_are_the_same_at_every_shard_count(cpus, workers, two_atom_model,
                                                           identity_problem2):
    # at two workers every task's count shards too, on threads of its own
    for budget in STREAM_BUDGETS:
        cfg = tail_ratio_cfg(two_atom_model, identity_problem2, budget, workers)
        rows = []
        for k in SHARD_COUNTS:
            reads = cpus(k)
            rows.append([(r.stat, r.aux1, r.aux2) for r in run_experiment(cfg)[0]])
            # two radii times two replications, one count each
            assert len(reads["_heavy_uniforms"]) == 4 * -(-budget // shard_rows(k, budget))
        assert rows[0] == rows[1] == rows[2], budget


# heavy exceedance counts: (problem, model, probe), counted as phi(probe, L) > 1.5
# and |L|_1 > 3
HEAVY_CASES = {
    "one_atom": (ProblemInstance(c=[1.0, 1.0], h=10.0, A=[np.eye(2)]),
                 STREAM_MODELS["heavy_one_atom"], [0.6, 0.8]),
    "two_atoms": STREAM_CASES["heavy"],
    "three_atoms_d2": (ProblemInstance(c=[1.0, 1.0], h=10.0,
                                       A=[np.eye(2), [[0.2, 0.9], [0.4, 0.1]]]),
                       STREAM_MODELS["heavy_three_atoms"], [0.5, 0.4]),
    # the probe's loss is 0 on the atom (1, 0)
    "zero_loss_atom": (STREAM_CASES["heavy"][0], STREAM_CASES["heavy"][1], [0.0, 0.6]),
    # at n = 1 a chunk's radius uniforms and picks outgrow its draws
    "two_atoms_n1": (ProblemInstance(c=[1.0], h=10.0, A=[[[1.0]]]),
                     HeavyTailModel.from_pairs(n=1, alpha=1.5, pairs=[(0.3, [1.0]), (0.7, [1.0])]),
                     [0.9]),
}
THRESHOLDS = (1.5, 3.0)


def heavy_losses(case):
    problem, _, x = HEAVY_CASES[case]
    x = np.asarray(x, dtype=float)
    return lambda draws: (phi_many(problem, x, draws), draws.sum(axis=1))


@pytest.mark.parametrize("case", sorted(HEAVY_CASES))
def test_heavy_exceedances_equal_the_counts_of_the_draws(cpus, case):
    model, losses = HEAVY_CASES[case][1], heavy_losses(case)
    for budget in STREAM_BUDGETS:
        want = [np.count_nonzero(loss > t)
                for loss, t in zip(losses(draws_range(model, 17, 0, budget)), THRESHOLDS)]
        assert all(0 < hits < budget for hits in want)
        for k in SHARD_COUNTS:
            reads = cpus(k)
            assert list(exceedances(model, 17, budget, losses, THRESHOLDS)) == want, (budget, k)
            assert_tiled(reads["_heavy_uniforms"], budget, shard_rows(k, budget))


@pytest.mark.parametrize("case", sorted(HEAVY_CASES))
def test_heavy_exceedances_gathered_below_the_highest_level(cpus, case):
    # thresholds that put the highest level (loss(theta_k) / t)^alpha of each
    # loss at 1/32, so each chunk gathers only about 1/32 of its rows
    model, losses = HEAVY_CASES[case][1], heavy_losses(case)
    thresholds = [float(loss.max()) * 32.0 ** (1.0 / model.alpha)
                  for loss in losses(model.atoms)]
    for budget in STREAM_BUDGETS:
        want = [np.count_nonzero(loss > t)
                for loss, t in zip(losses(draws_range(model, 17, 0, budget)), thresholds)]
        assert all(0 < hits < budget for hits in want)
        for k in SHARD_COUNTS:
            cpus(k)
            assert list(exceedances(model, 17, budget, losses, thresholds)) == want, (budget, k)


@pytest.mark.parametrize("case", sorted(HEAVY_CASES))
def test_heavy_exceedances_are_the_same_when_every_chunk_is_drawn(cpus, monkeypatch, case):
    model, losses = HEAVY_CASES[case][1], heavy_losses(case)
    want = {}
    for budget in STREAM_BUDGETS:
        reads = cpus(1)
        want[budget] = list(exceedances(model, 17, budget, losses, THRESHOLDS))
        assert not reads["draws_range"]
    # no uniform lies outside a margin this wide, so every chunk is drawn
    monkeypatch.setattr(sampler, "_MARGIN", 2.0 ** 900)
    for budget in STREAM_BUDGETS:
        for k in SHARD_COUNTS:
            reads = cpus(k)
            assert list(exceedances(model, 17, budget, losses, THRESHOLDS)) == want[budget]
            assert_tiled(reads["draws_range"], budget, shard_rows(k, budget))


def test_a_zero_uniform_sends_its_chunk_to_the_draws(cpus, monkeypatch):
    # a zero uniform is an infinite radius, which the draws may turn into nan
    model, losses = HEAVY_CASES["two_atoms"][1], heavy_losses("two_atoms")
    budget = 3 * _CHUNK + 123
    reads = cpus(1)
    want = list(exceedances(model, 17, budget, losses, THRESHOLDS))
    read = sampler._heavy_uniforms
    zeroed = []

    def zero_in_second_chunk(model, seed, start, stop, *args, **kwargs):
        u, pick = read(model, seed, start, stop, *args, **kwargs)
        # once: the draws of the chunk read its uniforms again, unchanged
        if start == _CHUNK and not zeroed:
            u[7] = 0.0
            zeroed.append(start)
        return u, pick

    monkeypatch.setattr(sampler, "_heavy_uniforms", zero_in_second_chunk)
    reads = cpus(1)
    assert list(exceedances(model, 17, budget, losses, THRESHOLDS)) == want
    assert zeroed and reads["draws_range"] == [(_CHUNK, 2 * _CHUNK)]


@pytest.mark.parametrize("bad_start", [0, _CHUNK, 2 * _CHUNK])
def test_shard_exception_propagates_after_the_other_shards_stop(cpus, bad_start):
    cpus(3)
    count = 3 * _CHUNK + 123     # three shards, from 0, _CHUNK and 2 * _CHUNK
    lock = threading.Lock()
    running = [0]

    def count_chunk(lo, hi):
        with lock:
            running[0] += 1
        try:
            if lo == bad_start:
                raise RuntimeError("shard failed")
            time.sleep(0.005)    # keeps the other shards busy when one fails
            return hi - lo
        finally:
            with lock:
                running[0] -= 1

    with pytest.raises(RuntimeError, match="shard failed"):
        _shard_sum(count, count_chunk)
    assert running[0] == 0
    assert not shard_threads()
    assert _shard_sum(count, lambda lo, hi: hi - lo) == count


def test_side_by_side_counts_do_not_deadlock(cpus):
    # each count starts and joins its own shard threads, with a thread switch
    # at nearly every bytecode so that the two counts interleave
    problem, tail, x = STREAM_CASES["light"]
    budget = 3 * _CHUNK + 123
    cpus(1)
    want = violation_prob(problem, x, tail, budget, 17)
    cpus(2)
    results = [None, None]

    def count(i):
        results[i] = violation_prob(problem, x, tail, budget, 17)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=count, args=(i,), daemon=True) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert results == [want, want]
    assert not shard_threads()
