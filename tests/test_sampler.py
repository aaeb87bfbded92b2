import functools
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rarecc.sampler
from _oracles import ks_distance
from rarecc import (ContractError, HeavyTailModel, InputError, LightTailModel,
                    ParameterError, dump_batch_csv,
                    heavy_fbar_inv, joint_tail_light, light_qinv,
                    load_batch_csv, sample_tail)
from rarecc.sampler import (_CHUNK, draw_chunks, draws_range, heavy_radii_range,
                            heavy_radius_max, tail_radius)

# budgets around the chunk boundaries of draw_chunks
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


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(STREAM_MODELS))
def test_stream_digest(name):
    assert _sha256(draws_range(STREAM_MODELS[name], 2024, 1000, 10_000)) == STREAM_DIGESTS[name]


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
    for name, draw in _stream_ranges(7).items():
        full = draw(0, 10_000)
        for cut in (1, 100, 4095, 4096, 4097, 9999):
            merged = np.concatenate([draw(0, cut), draw(cut, 10_000)])
            assert np.array_equal(merged, full), (name, cut)
        # partial first and last blocks around a whole one, and ranges inside
        # one block or across one edge, which draw only a prefix where they can
        for lo, hi in ((4095, 8193), (5, 17), (4095, 4097), (4096, 4097)):
            assert draw(lo, hi).tobytes() == full[lo:hi].tobytes(), (name, lo, hi)
        assert draw(5, 5).shape[0] == 0


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


@pytest.mark.parametrize("name", sorted(STREAM_MODELS))
def test_draw_chunks_concatenate_to_the_range(name):
    model = STREAM_MODELS[name]
    for count in (1, 4097, _CHUNK, 2 * _CHUNK + 5):
        chunks = [(view.base, view.copy()) for view in draw_chunks(model, 7, count)]
        buf = chunks[0][0]
        # every view is a refill of one buffer of at most _CHUNK rows
        assert buf.shape == (min(count, _CHUNK), model.n)
        assert all(base is buf for base, _ in chunks)
        whole = np.concatenate([view for _, view in chunks])
        assert whole.tobytes() == draws_range(model, 7, 0, count).tobytes()


def test_draws_range_writes_into_out():
    model = STREAM_MODELS["light_dep"]
    out = np.empty((5000, 3))
    assert draws_range(model, 3, 100, 5100, out=out) is out
    assert out.tobytes() == draws_range(model, 3, 100, 5100).tobytes()
    for bad in (np.empty((4999, 3)), np.empty((5000, 3), dtype=np.float32),
                np.empty((3, 5000)).T):
        with pytest.raises(ContractError, match="out"):
            draws_range(model, 3, 100, 5100, out=bad)


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


def test_batch_csv_roundtrip(tmp_path, two_atom_model):
    batch = sample_tail(two_atom_model, 1234, 500)
    path = tmp_path / "batch.csv"
    dump_batch_csv(batch, path)
    text = path.read_text()
    assert text.startswith("# seed=1234\nL1,L2\n")
    assert text.endswith("\n") and "\r" not in text
    back = load_batch_csv(path)
    assert back.seed == 1234
    assert np.array_equal(back.samples, batch.samples)


def test_batch_csv_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# seed=1\nL1\n")
    with pytest.raises(ContractError):
        load_batch_csv(path)
