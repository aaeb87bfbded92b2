"""Sharded Monte Carlo counts: the same counts at any shard count, inside
the experiment pool or out of it.

Every test runs on a fresh shard pool whose CPU count it forces, so none
depends on the host or on the tests before it.
"""

import sys
import threading
import time

import numpy as np
import pytest

import rarecc.sampler as sampler
from rarecc import ExperimentConfig, run_experiment, violation_prob
from rarecc.sampler import _BLOCK, _CHUNK, draws_range, sharded_sum
from test_methods import STREAM_CASES
from test_sampler import STREAM_BUDGETS

SHARD_COUNTS = (1, 2, 3)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` gives the shards k CPUs and a fresh pool, and returns the
    list of the [start, stop) ranges that the shards draw from then on."""
    ranges = []

    def spy(model, seed, start, stop, out=None):
        ranges.append((start, stop))
        return draws_range(model, seed, start, stop, out)

    monkeypatch.setattr(sampler, "draws_range", spy)

    def drop_pool():
        if sampler._POOL is not None:
            sampler._POOL.shutdown()
        monkeypatch.setattr(sampler, "_POOL", None)

    def force(count):
        drop_pool()
        monkeypatch.setattr(sampler, "_cpu_count", lambda: count)
        ranges.clear()
        return ranges

    yield force
    drop_pool()


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
            ranges = cpus(k)
            results.append(violation_prob(problem, x, tail, budget, 17))
            assert_tiled(ranges, budget, shard_rows(k, budget))
        assert results[0] == results[1] == results[2], budget


def tail_ratio_cfg(model, problem, budget, workers=1):
    return ExperimentConfig(kind="tail_ratio", problem=problem, tail=model,
                            r_grid=(1.5, 2.0), replications=2, budget=budget,
                            master_seed=3, y_probe=[1.0, 0.5], workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_tail_ratio_rows_are_the_same_at_every_shard_count(cpus, workers, two_atom_model,
                                                           identity_problem2):
    # at two workers every task's count shards too, through the one pool
    for budget in STREAM_BUDGETS:
        cfg = tail_ratio_cfg(two_atom_model, identity_problem2, budget, workers)
        rows = []
        for k in SHARD_COUNTS:
            ranges = cpus(k)
            rows.append([(r.stat, r.aux1, r.aux2) for r in run_experiment(cfg)[0]])
            # two radii times two replications, one count each
            assert len(ranges) == 4 * -(-budget // shard_rows(k, budget))
        assert rows[0] == rows[1] == rows[2], budget


@pytest.mark.parametrize("bad_start", [0, _CHUNK, 2 * _CHUNK])
def test_shard_exception_propagates_after_the_other_shards_stop(cpus, bad_start):
    cpus(3)
    model = STREAM_CASES["heavy"][1]
    count = 3 * _CHUNK + 123     # three shards, from 0, _CHUNK and 2 * _CHUNK
    bad_row = draws_range(model, 5, bad_start, bad_start + 1)[0]
    lock = threading.Lock()
    running = [0]

    def count_fn(chunk):
        with lock:
            running[0] += 1
        try:
            if np.array_equal(chunk[0], bad_row):
                raise RuntimeError("shard failed")
            time.sleep(0.005)    # keeps the other shards busy when one fails
            return len(chunk)
        finally:
            with lock:
                running[0] -= 1

    with pytest.raises(RuntimeError, match="shard failed"):
        sharded_sum(model, 5, count, count_fn)
    assert running[0] == 0
    assert sharded_sum(model, 5, count, len) == count


def test_side_by_side_counts_do_not_deadlock(cpus):
    # one spare CPU, and the pool's one thread is busy: each caller must run
    # the shards that no thread has started itself
    problem, tail, x = STREAM_CASES["light"]
    budget = 3 * _CHUNK + 123
    cpus(1)
    want = violation_prob(problem, x, tail, budget, 17)
    cpus(2)
    release = threading.Event()
    blocker = sampler._shard_pool().submit(release.wait, 60)
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
        release.set()
    assert blocker.result(timeout=60)
    assert results == [want, want]
