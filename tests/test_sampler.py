import functools
import hashlib
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rarecc.sampler
from _oracles import ks_distance
from rarecc import (HeavyTailModel, InputError, LightTailModel, ParameterError,
                    ProblemInstance, heavy_fbar_inv, joint_tail_light, light_qinv,
                    sample_tail)
from rarecc.model import phi_many
from rarecc.sampler import (_CHUNK, _atom_index, _heavy_uniforms, draws_range, exceedances,
                            heavy_radii_range, heavy_radius_max, heavy_top, tail_radius)

# budgets around the chunk boundaries of a streamed count
STREAM_BUDGETS = (1000, 4097, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 123)


def test_light_determinism():
    m = LightTailModel(n=3, beta=0.7, theta=2.0)
    b1 = sample_tail(m, 99, 5000)
    b2 = sample_tail(m, 99, 5000)
    assert b1.samples.tobytes() == b2.samples.tobytes()
    assert sample_tail(m, 100, 5000).samples.tobytes() != b1.samples.tobytes()


# one model per branch of the block samplers
STREAM_MODELS = {
    "light_indep": LightTailModel(n=3, beta=0.7, theta=1.0),
    "light_dep": LightTailModel(n=3, beta=0.7, theta=2.5),
    "light_comonotone": LightTailModel(n=3, beta=1.3, theta=math.inf),
    "heavy_one_atom": HeavyTailModel.from_pairs(n=2, alpha=1.7,
                                                pairs=[(1.0, [0.25, 0.75])]),
    "heavy_three_atoms": HeavyTailModel.from_pairs(
        n=2, alpha=2.5, pairs=[(0.2, [1, 0]), (0.5, [0.5, 0.5]), (0.3, [0, 1])]),
}

# sha256 of draws [1000, 10000) at seed 2024; these pin the stream format
STREAM_DIGESTS = {
    "light_indep": "c2e4ae1e3e397e4a0d7de1a2522f492b3984bfaf8d66193dab3e7a63cc786413",
    "light_dep": "422b776bf6373172bdb3fa1d9f36e300bfe909c1045c3b9263e613f70e2a18ba",
    "light_comonotone": "a726ffcb100fed139c2ee6696c90f411208010b50eea6cc33b18bbc8e3781e08",
    "heavy_one_atom": "64fe97e24c945033d8bace25f2b5bfc28befebbd226d7ef9b084677bffb33808",
    "heavy_three_atoms": "bcd5d4dc07a09656138fe348e6d0abf0cede17db9f7ec1ef4d1a98f8901d2208",
}
RADII_DIGEST = "deb51d57eb136629b6aef8b530a0b5a26ab0c85de55c2f5eb4866622ba955a69"
# sha256 of draws [_CHUNK - 5000, 2 _CHUNK + 5000) at seed 2024, across two
# edges of the chunks that heavy draws are built in
CROSS_CHUNK_DIGESTS = {
    "heavy_one_atom": "9b8baaf236c634610b89d3c56420db8b7d4062a31adac43c851812f9d1e1891c",
    "heavy_three_atoms": "c32b3c4fc29621edadd5ec8a975dc3cbb772bd5b947e07294e925b79e133aa34",
}


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(STREAM_MODELS))
def test_stream_digest(name):
    assert _sha256(draws_range(STREAM_MODELS[name], 2024, 1000, 10_000)) == STREAM_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CROSS_CHUNK_DIGESTS))
def test_stream_digest_across_chunks(name):
    draws = draws_range(STREAM_MODELS[name], 2024, _CHUNK - 5000, 2 * _CHUNK + 5000)
    assert _sha256(draws) == CROSS_CHUNK_DIGESTS[name]


def test_radii_stream_digest():
    radii = heavy_radii_range(STREAM_MODELS["heavy_three_atoms"], 2024, 1000, 10_000)
    assert _sha256(radii) == RADII_DIGEST


def _stream_ranges(seed):
    """draw(start, stop) for every branch of the block samplers, and the radii."""
    ranges = {name: functools.partial(draws_range, m, seed) for name, m in STREAM_MODELS.items()}
    ranges["radii"] = functools.partial(heavy_radii_range, STREAM_MODELS["heavy_three_atoms"], seed)
    return ranges


def test_shard_merge_invariance():
    # draws [0, k) + [k, n) must equal draws [0, n) for any split point
    ranges = _stream_ranges(7)
    for name, draw in ranges.items():
        full = draw(0, 10_000)
        for cut in (1, 100, 4095, 4096, 4097, 9999):
            merged = np.concatenate([draw(0, cut), draw(cut, 10_000)])
            assert np.array_equal(merged, full), (name, cut)
        # partial first and last blocks around a whole one, and ranges inside
        # one block or across one edge, which draw only a prefix where they can
        for lo, hi in ((4095, 8193), (5, 17), (4095, 4097), (4096, 4097)):
            part = draw(lo, hi)
            assert part.flags.c_contiguous, (name, lo, hi)
            assert part.tobytes() == full[lo:hi].tobytes(), (name, lo, hi)
        assert draw(5, 5).shape[0] == 0
    # heavy draws are built one chunk at a time
    for name in CROSS_CHUNK_DIGESTS:
        draw = ranges[name]
        full = draw(0, 2 * _CHUNK + 10)
        for cut in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
            merged = np.concatenate([draw(0, cut), draw(cut, 2 * _CHUNK + 10)])
            assert np.array_equal(merged, full), (name, cut)


def test_empty_range_reads_no_block(monkeypatch, two_atom_model):
    # an empty range that starts mid-block used to read that block, picks too
    blocks = []
    at = rarecc.sampler._STREAMS.at
    monkeypatch.setattr(rarecc.sampler._STREAMS, "at",
                        lambda seed, block: blocks.append(block) or at(seed, block))
    light = LightTailModel(n=2, beta=1.0, theta=2.0)
    assert heavy_radii_range(two_atom_model, 1, 5000, 5000).shape == (0,)
    u, pick = rarecc.sampler._heavy_uniforms(two_atom_model, 1, 5000, 5000)
    assert u.shape == pick.shape == (0,)
    for model in (light, two_atom_model):
        assert draws_range(model, 1, 5000, 5000).shape == (0, 2)
    assert blocks == []
    draws_range(light, 1, 5000, 5001)
    assert blocks == [1]


def test_unaligned_range_owns_only_its_rows(two_atom_model):
    # a range that starts mid-block is read from the block's row 0; the rows
    # it returns must not keep the rows before ``start`` alive
    light = LightTailModel(n=2, beta=1.0, theta=2.0)
    parts = [draws_range(light, 1, 4095, 4097), draws_range(two_atom_model, 1, 4095, 4097),
             heavy_radii_range(two_atom_model, 1, 4095, 4097),
             *rarecc.sampler._heavy_uniforms(two_atom_model, 1, 4095, 4097)]
    for i, part in enumerate(parts):
        assert part.shape[0] == 2, i
        assert part.base is None or part.base.nbytes <= part.nbytes, i


def _philox_block(seed, block):
    """A block's uniforms and picks, read whole from a Philox constructed
    with the block's key."""
    gen = np.random.Generator(np.random.Philox(key=[seed, block]))
    return gen.random(4096), gen.random(4096)


@pytest.mark.parametrize("atoms", [2, 3, 4])
def test_partial_blocks_jump_to_their_picks(atoms):
    # a block that stops early reads its rows' uniforms and then sets the
    # counter to its picks' first word, B; the rows must be those of whole
    # blocks, from their first row or from any start
    rng = np.random.default_rng(30 + atoms)
    weights = rng.uniform(0.2, 1.0, atoms)
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    model = HeavyTailModel(n=2, alpha=1.5, weights=weights, atoms=np.eye(2)[np.arange(atoms) % 2])
    for _ in range(25):
        seed, block = int(rng.integers(2**63)), int(rng.integers(0, 5))
        rows, skip = int(rng.integers(1, 4096)), int(rng.integers(0, 4096))
        whole = [_philox_block(seed, b) for b in (block, block + 1)]
        u_all, pick_all = (np.concatenate([w[i] for w in whole]) for i in (0, 1))
        for lo in (0, skip):
            start = block * 4096 + lo
            u, pick = _heavy_uniforms(model, seed, start, start + rows)
            assert u.tobytes() == u_all[lo:lo + rows].tobytes(), (seed, block, lo, rows)
            assert pick.tobytes() == pick_all[lo:lo + rows].tobytes(), (seed, block, lo, rows)


def test_philox_counter_c_continues_the_stream_at_word_4c():
    # the jump rests on numpy's Philox stepping its counter before it fills
    # an empty buffer: counter c makes the next word the stream's word 4c
    rng = np.random.default_rng(4)
    for c in (0, 1, 2, 1023, 1024, 1025, int(rng.integers(3, 5000))):
        key = [int(rng.integers(2**63)), int(rng.integers(2**63))]
        words = np.random.Philox(key=key).random_raw(4 * c + 9)
        bits = np.random.Philox(key=key)
        state = bits.state
        state["state"]["counter"] = [c, 0, 0, 0]
        state["buffer_pos"] = 4
        bits.state = state
        assert bits.random_raw(9).tolist() == words[4 * c:].tolist(), c
        doubles = np.random.Generator(np.random.Philox(key=key)).random(4 * c + 9)
        jumped = rarecc.sampler._STREAMS.at(key[0], key[1], 4 * c).random(9)
        assert jumped.tobytes() == doubles[4 * c:].tobytes(), c


def test_draws_range_threads_match_serial():
    # each thread re-keys its own generator; ranges interleaved over more
    # threads than cores, with frequent switches, must equal the serial draws
    ranges = _stream_ranges(31)
    jobs = [(name, lo, lo + size) for lo in range(0, 20_000, 2_500)
            for name in sorted(ranges) for size in (1, 777, 4096, 5000)]
    serial = [ranges[name](lo, hi) for name, lo, hi in jobs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(ranges[name], lo, hi) for name, lo, hi in jobs]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    for job, a, b in zip(jobs, serial, threaded):
        assert a.tobytes() == b.tobytes(), job


def test_import_leaves_numpy_random_unloaded():
    # a thread's generator is built on its first block, so that importing the
    # package stays cheap
    src = os.path.dirname(os.path.dirname(rarecc.sampler.__file__))
    code = "import sys, rarecc; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_atom_index_follows_the_cumulative_weights():
    # past 256 atoms the index needs a wider type than one byte
    rng = np.random.default_rng(4)
    for k in (2, 3, 300):
        weights = rng.random(k)
        model = HeavyTailModel(n=1, alpha=2.0, weights=weights / weights.sum(),
                               atoms=np.ones((k, 1)))
        pick = np.concatenate([rng.random(50_000), np.cumsum(model.weights), [0.0]])
        want = np.searchsorted(np.cumsum(model.weights)[:-1], pick, side="right")
        assert np.array_equal(_atom_index(model, pick), want), k


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 7.3, 60.0, 5000.0])
def test_radius_max_equals_max_of_all_radii(monkeypatch, wide, alpha):
    if wide:
        # keep every uniform below twice the smallest, which exercises the
        # choice among several kept pows
        monkeypatch.setattr(rarecc.sampler, "_MARGIN", 1.0 / alpha)
    model = HeavyTailModel.from_pairs(n=2, alpha=alpha,
                                      pairs=[(0.4, [1.0, 0.0]), (0.6, [0.5, 0.5])])
    for k in (1, 2, 4095, 4096, 4097) + STREAM_BUDGETS:
        for seed in range(4):
            radii = heavy_radii_range(model, seed, 0, k)
            assert heavy_radius_max(model, seed, k) == radii.max(), (k, seed)


def random_heavy_model(rng, K, n):
    """A heavy model with K atoms in R^n, some atom coordinates zero."""
    atoms = rng.random((K, n)) * (rng.random((K, n)) < 0.7)
    atoms[np.arange(K), rng.integers(0, n, K)] += 0.5
    return HeavyTailModel(n=n, alpha=float(rng.uniform(1.2, 4.0)),
                          weights=rng.dirichlet(np.ones(K)),
                          atoms=atoms / atoms.sum(axis=1, keepdims=True))


# draw counts around block and chunk edges, and the k of each atom's top rows
TOP_COUNTS = (1, 2, 4095, 4097, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 777)
TOP_KS = (1, 2, 7, 150, None)       # None: k = count, at or above every atom's draws


def _check_heavy_top(model, seed, count, k):
    # the rule: per atom, every row whose uniform is at most a relative
    # alpha 2^-40 above the atom's k-th smallest, or every row of an atom
    # with at most k draws; the rows come in draw order
    u, pick = _heavy_uniforms(model, seed, 0, count)
    atom = np.zeros(count, dtype=int) if pick is None else _atom_index(model, pick)
    radii = heavy_radii_range(model, seed, 0, count)
    want = []
    for a in range(model.weights.size):
        mine = np.flatnonzero(atom == a)
        if mine.size > k:
            kth = np.sort(u[mine])[k - 1]
            largest = mine[np.argsort(-radii[mine], kind="stable")[:k]]
            mine = mine[u[mine] <= kth * (1.0 + rarecc.sampler._MARGIN * model.alpha)]
            # the rule keeps each atom's k largest radii, whatever else it keeps
            assert np.isin(largest, mine).all(), (seed, count, k, a)
        want.append(mine)
    want = np.sort(np.concatenate(want))
    top = heavy_top(model, seed, count, k)
    assert top.dtype == np.float64 and top.flags.c_contiguous
    assert top.tobytes() == draws_range(model, seed, 0, count)[want].tobytes(), (seed, count, k)


@pytest.mark.parametrize("seed", range(35))
def test_heavy_top_rows_are_the_draws_of_each_atoms_largest_radii(seed):
    rng = np.random.default_rng(seed)
    model = random_heavy_model(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
    count = TOP_COUNTS[seed % len(TOP_COUNTS)]
    k = TOP_KS[seed // len(TOP_COUNTS)] or count
    _check_heavy_top(model, seed, count, k)


@pytest.mark.parametrize("seed", range(4))
def test_heavy_top_keeps_every_row_within_a_wide_margin(monkeypatch, seed):
    # a margin that keeps every uniform below twice an atom's k-th smallest
    # makes each chunk keep many rows that a later chunk's cutoff drops
    rng = np.random.default_rng(100 + seed)
    model = random_heavy_model(rng, int(rng.integers(1, 5)), 2)
    monkeypatch.setattr(rarecc.sampler, "_MARGIN", 1.0 / model.alpha)
    _check_heavy_top(model, seed, 3 * _CHUNK + 5, (1, 2, 40, 300)[seed])


@pytest.mark.parametrize("spread, taus", [(0.05, [True, False]), (4.0, [True]), (1e6, [False])])
def test_heavy_top_rows_do_not_depend_on_the_first_pass(monkeypatch, two_atom_model, spread,
                                                        taus):
    # a small spread leaves the atoms fewer than k uniforms below tau, so the
    # full pass reads the rows again; a large one puts tau above 1, where only
    # the full pass runs; the default gathers below tau alone
    passes = []
    below = rarecc.sampler._below
    monkeypatch.setattr(rarecc.sampler, "_SPREAD", spread)
    monkeypatch.setattr(rarecc.sampler, "_below",
                        lambda *args: passes.append(args[-1] < math.inf) or below(*args))
    _check_heavy_top(two_atom_model, 11, 3 * _CHUNK + 5, 50)
    assert passes == taus


def test_heavy_top_rejects_bad_counts(two_atom_model):
    for count, k in ((0, 1), (10, 0), (10, 1.5)):
        with pytest.raises(ParameterError):
            heavy_top(two_atom_model, 1, count, k)


@pytest.mark.parametrize("t", [0.47, 1.2, 3.0, 10.0])
def test_heavy_exceedances_match_their_closed_form(t):
    # R >= 1 is Pareto, so P(loss(R theta_k) > t) = min(1, (loss(theta_k) / t)^alpha)
    # for a degree-1 homogeneous loss, and a count is binomial
    model = STREAM_MODELS["heavy_three_atoms"]
    problem = ProblemInstance(c=[1.0, 1.0], h=10.0, A=[np.eye(2), [[0.2, 0.9], [0.4, 0.1]]])
    x = np.array([0.5, 0.4])
    budget = 400_000
    hits = exceedances(model, 5, budget, lambda draws: (phi_many(problem, x, draws),
                                                        draws.sum(axis=1)), (t, t))
    for count, loss in zip(hits, (phi_many(problem, x, model.atoms), np.ones(3))):
        p = float(np.sum(model.weights * np.minimum(1.0, (loss / t) ** model.alpha)))
        assert abs(count - budget * p) <= 4.0 * math.sqrt(budget * p * (1.0 - p)), (count, p)


def test_exceedance_thresholds_must_be_positive():
    model = STREAM_MODELS["heavy_one_atom"]
    for bad in ((0.0,), (-1.0,), (math.inf,), (math.nan,)):
        with pytest.raises(ParameterError, match="thresholds"):
            exceedances(model, 1, 1000, lambda draws: (draws.sum(axis=1),), bad)


def test_light_exponential_mean():
    # theta=1, beta=1: coordinates are unit exponentials
    m = LightTailModel(n=1, beta=1.0, theta=1.0)
    batch = sample_tail(m, 1, 1_000_000)
    assert batch.samples.mean() == pytest.approx(1.0, abs=0.01)


def test_light_joint_survival_weibull_half():
    # theta=1, beta=0.5, probe (2,2): P = exp(-2 sqrt(2)) ~ 0.0591
    m = LightTailModel(n=2, beta=0.5, theta=1.0)
    n_draws = 1_000_000
    batch = sample_tail(m, 2, n_draws)
    p_true = math.exp(-2.0 * math.sqrt(2.0))
    p_emp = float((batch.samples > 2.0).all(axis=1).mean())
    se = math.sqrt(p_true * (1 - p_true) / n_draws)
    assert abs(p_emp - p_true) <= 3 * se


def test_light_comonotone_coordinates_equal():
    m = LightTailModel(n=4, beta=1.7, theta=math.inf)
    batch = sample_tail(m, 3, 2000)
    assert np.array_equal(batch.samples.min(axis=1), batch.samples.max(axis=1))


@pytest.mark.parametrize("beta,theta", [(1.0, 1.0), (0.5, 2.0), (2.0, 1.5),
                                        (1.0, math.inf)])
def test_light_marginal_ks(beta, theta):
    m = LightTailModel(n=2, beta=beta, theta=theta)
    batch = sample_tail(m, 11, 100_000)
    for j in range(2):
        dist = ks_distance(batch.samples[:, j],
                           lambda v: 1.0 - math.exp(-v ** beta))
        assert dist < 0.02


def test_light_joint_probe_grid():
    m = LightTailModel(n=2, beta=0.7, theta=1.6)
    n_draws = 1_000_000
    batch = sample_tail(m, 5, n_draws)
    probes = [(0.2, 0.2), (1.0, 0.5), (1.0, 1.0), (2.0, 0.1), (1.5, 1.5)]
    for x in probes:
        x = np.asarray(x)
        p_true = joint_tail_light(m, x)
        p_emp = float((batch.samples > x).all(axis=1).mean())
        se = math.sqrt(max(p_true * (1 - p_true), 1e-12) / n_draws)
        assert abs(p_emp - p_true) <= 4 * se, (x, p_emp, p_true)


def test_heavy_scalar_pareto_tail(scalar_pareto2):
    n_draws = 1_000_000
    batch = sample_tail(scalar_pareto2, 8, n_draws)
    p_emp = float((batch.samples[:, 0] > 10.0).mean())
    se = math.sqrt(0.01 * 0.99 / n_draws)
    assert abs(p_emp - 0.01) <= 3 * se


def test_heavy_radius_identity(two_atom_model):
    batch = sample_tail(two_atom_model, 21, 50_000)
    radii = heavy_radii_range(two_atom_model, 21, 0, 50_000)
    ratio = batch.samples.sum(axis=1) / radii
    assert np.abs(ratio - 1.0).max() <= 1e-12
    # one nonzero coordinate per row, so the row sum is the radius exactly
    assert np.array_equal(batch.samples.sum(axis=1), radii)


def test_heavy_angle_independent_of_radius(two_atom_model):
    n_draws = 2_000_000
    batch = sample_tail(two_atom_model, 4, n_draws)
    radii = batch.samples.sum(axis=1)
    for r in (1.0, 10.0, 100.0):
        sel = batch.samples[radii > r]
        assert sel.shape[0] > 50
        frac = float((sel[:, 0] > 0).mean())      # atom e1 picked
        se = math.sqrt(0.25 / sel.shape[0])
        assert abs(frac - 0.5) <= 4 * se, (r, frac)


def test_heavy_conditional_angle_far_tail(two_atom_model):
    n_draws = 1_000_000
    batch = sample_tail(two_atom_model, 6, n_draws)
    radii = batch.samples.sum(axis=1)
    sel = batch.samples[radii > 100.0]
    frac = float((sel[:, 0] > 0).mean())
    se = math.sqrt(0.25 / sel.shape[0])
    assert abs(frac - 0.5) <= 3 * se


def test_light_qinv_values():
    assert light_qinv(LightTailModel(n=1, beta=1.0), 7.0) == pytest.approx(7.0)
    assert light_qinv(LightTailModel(n=1, beta=2.0), 9.0) == pytest.approx(3.0)
    u = math.log(1e3)
    assert light_qinv(LightTailModel(n=1, beta=0.5), u) == pytest.approx(47.717, abs=5e-3)
    with pytest.raises(ParameterError):
        light_qinv(LightTailModel(n=1, beta=1.0), 0.0)


def test_heavy_fbar_inv_values():
    mk = lambda a: HeavyTailModel.from_pairs(n=1, alpha=a, pairs=[(1.0, [1.0])])
    assert heavy_fbar_inv(mk(2.0), 1e-4) == pytest.approx(100.0)
    assert heavy_fbar_inv(mk(1.5), 1.0) == pytest.approx(1.0)
    assert heavy_fbar_inv(mk(3.0), 0.008) == pytest.approx(5.0)
    with pytest.raises(ParameterError):
        heavy_fbar_inv(mk(2.0), 0.0)
    with pytest.raises(ParameterError):
        heavy_fbar_inv(mk(2.0), 1.5)


@pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -0.5, math.nan])
def test_tail_radius_needs_delta_in_unit_interval(scalar_exp, scalar_pareto2, delta):
    # light delta = 0 raised ZeroDivisionError and delta = 2 "u must be
    # positive"; heavy delta = 1 returned radius 1
    for model in (scalar_exp, scalar_pareto2):
        with pytest.raises(ParameterError, match=r"delta must lie in \(0, 1\)"):
            tail_radius(model, delta)


def test_joint_tail_light_values():
    m = LightTailModel(n=2, beta=2.0, theta=2.0)
    assert joint_tail_light(m, [0.0, 0.0]) == pytest.approx(1.0)
    assert joint_tail_light(m, [1.0, 1.0]) == pytest.approx(math.exp(-math.sqrt(2.0)))
    m1 = LightTailModel(n=1, beta=1.0)
    assert joint_tail_light(m1, [2.0]) == pytest.approx(math.exp(-2.0))
    with pytest.raises(InputError):
        joint_tail_light(m, [-1.0, 0.0])


def test_parameter_errors():
    with pytest.raises(ParameterError):
        LightTailModel(n=1, beta=0.0)
    with pytest.raises(ParameterError):
        LightTailModel(n=1, beta=1.0, theta=0.5)
    for n in (0, 2.5, True):
        with pytest.raises(ParameterError, match="dimension n"):
            LightTailModel(n=n, beta=1.0)
        with pytest.raises(ParameterError, match="dimension n"):
            HeavyTailModel.from_pairs(n=n, alpha=2.0, pairs=[(1.0, [1.0])])
    for count in (0, True, np.True_, 1.0):
        with pytest.raises(ParameterError):
            sample_tail(LightTailModel(n=1, beta=1.0), 0, count)
    assert sample_tail(LightTailModel(n=1, beta=1.0), 0, np.int64(3)).count == 3
    with pytest.raises(ParameterError):
        HeavyTailModel.from_pairs(n=1, alpha=2.0, pairs=[])
    with pytest.raises(ParameterError):
        HeavyTailModel.from_pairs(n=2, alpha=2.0,
                                  pairs=[(0.5, [1, 0]), (0.4, [0, 1])])
    with pytest.raises(ParameterError):
        HeavyTailModel.from_pairs(n=1, alpha=1.0, pairs=[(1.0, [1.0])])


@pytest.mark.parametrize("pairs", [
    [(1.0, [math.nan, math.nan])],
    [(math.nan, [1.0, 0.0]), (0.5, [0.0, 1.0])],
    [(0.5, [math.inf, 0.0]), (0.5, [0.0, 1.0])],
    [(0.5, [1.0, 0.0]), (0.5, [math.nan, 1.0])],
])
def test_heavy_model_rejects_non_finite(pairs):
    # every comparison with NaN is false, so NaN passed the sign checks
    with pytest.raises(ParameterError, match="finite"):
        HeavyTailModel.from_pairs(n=2, alpha=2.0, pairs=pairs)
