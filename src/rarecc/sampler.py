"""Risk-vector generators and their exact tail functions.

Two parametric families are implemented:

* Light tails: Weibull(beta) marginals tied together by a Gumbel-Hougaard
  survival copula with dependence theta >= 1, so the joint survival is
  exactly ``P(L > x) = exp(-copula_exponent(x))``.  Dependent draws use the
  Kanter representation of a positive stable variable.
* Heavy tails: polar construction L = R * Theta with R standard Pareto of
  index alpha and Theta drawn from a finite set of atoms on the L1 simplex,
  independent of R.

Draws are generated in fixed-size blocks, each block from its own
counter-keyed Philox stream, so the value of draw ``i`` depends only on
(model, seed, i), however a range is split (:class:`_BlockStreams`).

Within a block of B = 4096 draws a light model reads its stream in this
order, and :func:`_heavy_uniforms`, the one reader of a heavy block, states
the heavy order:

* theta = 1 (within 1e-9): the (B, n) unit exponentials;
* 1 < theta < inf: the (B, n) unit exponentials, then the B stable angles
  V, then the B stable exponentials W;
* theta = inf: the B shared exponentials.

Each block reads its own stream front to back, so a value depends only on
the numbers read up to it in its own block, never on what is read after
it.  A block may therefore leave out its trailing numbers when nothing uses
them, and every value stays the same: where row ``j`` of a block reads only
the stream's first numbers (theta = 1 and theta = inf), a partial first or
last block draws only its rows ``[0, hi)``.  Theta in (1, inf) reads V and
W after all B rows, and its exponentials take a varying number of words
each, so its partial blocks still draw the whole block.  A heavy block
takes one word per number, so its picks start at word B, and Philox is
counter-based: a partial heavy block reads its rows' uniforms, sets the
counter to word B and reads only its rows' picks (:class:`_BlockStreams`).
Every reader reads a range from the row 0 of its first block (:func:`_own`).

Two kinds of reader stream a heavy budget one ``_CHUNK`` = 8 B rows at a
time instead of holding it.  A Monte Carlo count (:func:`exceedances`) adds
the integer counts of its chunks, split between up to one thread per CPU
(:func:`_shard_sum`), so it is the same for any split.  :func:`heavy_top`
keeps only the rows of each atom's k largest radii, about K k rows, and
:func:`heavy_radius_max` only the smallest uniforms (:func:`_least`); both
first gather only the uniforms below a few times each atom's expected
cutoff, and read the stream again in the rare case those miss a kept row.
Every heavy chunk is read by :func:`_gathered`, which keeps the uniforms at
or below a level and gives their atoms, and every heavy row is built by
:func:`_heavy_rows`, for :func:`draws_range` and :func:`heavy_top` alike.

A caller needs to know neither family.  :func:`top_rows` gives the rows a
program that reads the k largest losses needs: a light model's whole
sample, a heavy model's :func:`heavy_top`.  The oracle, CVaR and scenario
programs of :mod:`rarecc.methods` run on them, and hold the whole sample
exactly when they get every row.  :func:`tail_radius` and :func:`tail_cvar`
give the scalar marginal's VaR and CVaR at risk level delta, from which the
scalar closed forms c_0 min(1/(a r), h) follow.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, check_count, check_delta, check_vector

_MASK64 = (1 << 64) - 1
_BLOCK = 4096          # draws per Philox stream; fixed, part of the format
_CHUNK = 8 * _BLOCK    # rows that a count's shards hold between them, and of each heavy transform
# each shard also holds a block's scratch while it draws (about 0.2 MiB for
# dependent light draws), so more shards would outgrow one chunk's memory
_SHARDS_MAX = 4
# uniforms a relative alpha _MARGIN apart give radii and losses about _MARGIN
# apart, beyond rounding: _least keeps and exceedances draws what lies closer
_MARGIN = 2.0 ** -40
# _least first gathers the uniforms up to about _SPREAD times an atom's
# expected k-th smallest, and reads them all when that misses a kept row
_SPREAD = 4.0


@dataclass(frozen=True)
class LightTailModel:
    """Weibull(beta) marginals with Gumbel-Hougaard survival dependence.

    ``theta = 1`` gives independent coordinates, ``theta = math.inf`` the
    comonotone (all coordinates equal) case.
    """

    n: int
    beta: float
    theta: float = 1.0

    def __post_init__(self):
        check_count("dimension n", self.n)
        if not 0 < self.beta < math.inf:
            raise ParameterError("beta must be finite and positive")
        if not self.theta >= 1:
            raise ParameterError("theta must be >= 1")


@dataclass(frozen=True)
class HeavyTailModel:
    """Pareto(alpha) radius with an atomic angular law on the L1 simplex."""

    n: int
    alpha: float
    weights: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        check_count("dimension n", self.n)
        if not 1 < self.alpha < math.inf:
            raise ParameterError("alpha must be finite and exceed 1")
        w = np.asarray(self.weights, dtype=float)
        pts = np.asarray(self.atoms, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ParameterError("at least one angular atom is required")
        if pts.shape != (w.size, self.n):
            raise ContractError(f"atoms must have shape ({w.size}, {self.n})")
        if not (np.isfinite(w).all() and np.isfinite(pts).all()):
            raise ParameterError("atom weights and atoms must be finite")
        if (w <= 0).any():
            raise ParameterError("atom weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError("atom weights must sum to 1 within 1e-12")
        if (pts < 0).any():
            raise ParameterError("atoms must be nonnegative")
        if np.abs(pts.sum(axis=1) - 1.0).max() > 1e-9:
            raise ParameterError("atoms must lie on the L1 unit simplex")
        # renormalize rows so |L|_1 == R holds to machine precision
        pts = pts / pts.sum(axis=1, keepdims=True)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", pts)

    @classmethod
    def from_pairs(cls, n: int, alpha: float, pairs) -> "HeavyTailModel":
        """Build from ``[(weight, atom_coords), ...]`` pairs."""
        w = np.array([p[0] for p in pairs], dtype=float)
        pts = np.array([p[1] for p in pairs], dtype=float)
        return cls(n=n, alpha=alpha, weights=w, atoms=pts)


TailModel = LightTailModel | HeavyTailModel


@dataclass(frozen=True)
class SampleBatch:
    """Draws, one per row, and their seed; ``count`` draws are sampled, the
    rows unless :func:`scenario_batch` kept fewer."""

    samples: np.ndarray
    seed: int
    count: int | None = None

    def __post_init__(self):
        if self.count is None:
            object.__setattr__(self, "count", self.samples.shape[0])

    @property
    def n(self) -> int:
        return self.samples.shape[1]


class _BlockStreams(threading.local):
    """One Philox generator per thread, re-keyed for each block.

    Setting the state (counter 0, key ``[seed, block]``, empty buffer) gives
    the stream of ``Philox(key=[seed, block])`` at a fifth of the cost: that
    constructor first seeds a throwaway SeedSequence from os.urandom.  The
    state holds Python ints, which the setter reads about three times faster
    than the items of uint64 arrays.  Philox is counter-based: each counter
    step makes four 64-bit words, and the generator steps the counter before
    it fills its empty buffer, so counter c with an empty buffer continues
    the stream at word 4c.  The generator is built on a thread's first
    block, so that importing the package does not import numpy.random.
    """

    gen = None

    def at(self, seed: int, block: int, word: int = 0) -> np.random.Generator:
        """The generator, positioned at word ``word`` (a multiple of 4) of
        the block's stream."""
        if self.gen is None:
            self.philox = np.random.Philox(0)
            self.gen = np.random.Generator(self.philox)
            self.key, self.counter = [0, 0], [0, 0, 0, 0]
            self.state = {"bit_generator": "Philox",
                          "state": {"counter": self.counter, "key": self.key},
                          "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                          "has_uint32": 0, "uinteger": 0}
        self.key[0], self.key[1] = seed & _MASK64, block & _MASK64
        self.counter[0] = word >> 2
        self.philox.state = self.state
        return self.gen


_STREAMS = _BlockStreams()


def _stable_oneside(exponent: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter construction of a positive stable variable S with
    ``E[exp(-t S)] = exp(-t**exponent)``, from V ~ U(0, pi), W ~ Exp(1)."""
    a = exponent
    return (np.sin(a * v) / np.sin(v) ** (1.0 / a)) * (np.sin((1.0 - a) * v) / w) ** ((1.0 - a) / a)


def _light_block(model: LightTailModel, rng: np.random.Generator, out: np.ndarray) -> None:
    """Write the block's first len(out) draws into ``out`` of shape (rows, n)."""
    beta, theta = model.beta, model.theta
    if math.isinf(theta):
        e = rng.standard_exponential(len(out))
        e **= 1.0 / beta
        out[:] = e[:, None]
        return
    if theta < 1.0 + 1e-9:
        # near-independent: the stable factor degenerates, skip it
        rng.standard_exponential(out=out)
        out **= 1.0 / beta
        return
    # V and W follow all B rows of exponentials, so a partial block draws them all
    rows = len(out)
    e = out if rows == _BLOCK else np.empty((_BLOCK, model.n))
    rng.standard_exponential(out=e)
    v = rng.uniform(0.0, np.pi, _BLOCK)[:rows]
    w = rng.standard_exponential(_BLOCK)[:rows]
    np.divide(e[:rows], _stable_oneside(1.0 / theta, v, w)[:, None], out=out)
    out **= 1.0 / (theta * beta)


def _heavy_uniforms(model: HeavyTailModel, seed: int, start: int, stop: int,
                    picks: bool = True) -> tuple:
    """The radius uniforms of the heavy draws [start, stop) and their
    angular picks (None without ``picks`` or for one atom), in new arrays.

    The one reader of the heavy stream: a block's words 0 to B - 1 are its
    B uniforms u and words B to 2B - 1 its B picks, and its draw i is
    u_i^(-1/alpha) times the atom :func:`_atom_index` gives pick i.  Each
    block reads its rows up to ``stop``: the uniforms, then the picks.  A
    block read whole reads its words in order; one that stops early reads
    its rows' uniforms and then sets the counter to word B
    (:meth:`_BlockStreams.at`), so it skips the rest of both.  An empty
    range reads no block.
    """
    if start < 0 or stop < start:
        raise ParameterError("invalid draw range")
    first = start // _BLOCK * _BLOCK
    picks = picks and model.weights.size > 1
    u = np.empty(stop - first if stop > start else 0)
    pick = np.empty(u.size) if picks else None
    for lo in range(0, u.size, _BLOCK):
        rng = _STREAMS.at(seed, (first + lo) // _BLOCK)
        rng.random(out=u[lo:lo + _BLOCK])
        if picks:
            if lo + _BLOCK > u.size:            # a partial block: skip to word B
                rng = _STREAMS.at(seed, (first + lo) // _BLOCK, _BLOCK)
            rng.random(out=pick[lo:lo + _BLOCK])
    rows = slice(start - first, stop - first)
    return _own(u[rows], start), (_own(pick[rows], start) if picks else None)


def _own(rows: np.ndarray, start: int) -> np.ndarray:
    """The rows of a range read from its first block's row 0: the view when
    ``start`` is a block start, as for every range the package reads, else
    a copy, so that the rows do not keep the block's earlier rows alive."""
    return rows if start % _BLOCK == 0 else rows.copy()


def _atom_index(model: HeavyTailModel, pick: np.ndarray) -> np.ndarray:
    """The atom of each angular pick: atom k when cum[k-1] <= pick < cum[k]
    for the cumulative weights cum.  Counting only the first K - 1 cutoffs
    sends a pick above the rounded cumsum's last entry to atom K - 1.  The
    index has the smallest unsigned type that holds K - 1."""
    cuts = np.cumsum(model.weights)[:-1]
    idx = np.zeros(len(pick), dtype=np.min_scalar_type(len(cuts)))
    for cut in cuts:
        idx += pick >= cut
    return idx


def _gathered(model: HeavyTailModel, seed: int, lo: int, hi: int, level: float,
              picks: bool = True) -> tuple:
    """The uniforms at or below ``level`` of the heavy draws [lo, hi), in
    draw order, and their atoms (:func:`_atom_index`; None without
    ``picks`` or for one atom).  A level of 1 or more, inf included, keeps
    every draw unfiltered; a zero uniform lies below every level."""
    u, pick = _heavy_uniforms(model, seed, lo, hi, picks)
    if level < 1.0:
        near = (u <= level).nonzero()[0]
        u, pick = u.take(near), None if pick is None else pick.take(near)
    return u, None if pick is None else _atom_index(model, pick)


def _heavy_rows(model: HeavyTailModel, u: np.ndarray, atom) -> np.ndarray:
    """The heavy draws u^(-1/alpha) theta_atom of the uniforms u and their
    atoms (None: atom 0), one row each, in a new array; ``u`` becomes the
    radii."""
    u **= -1.0 / model.alpha
    return (model.atoms[0] if atom is None else model.atoms.take(atom, axis=0)) * u[:, None]


def draws_range(model: TailModel, seed: int, start: int, stop: int) -> np.ndarray:
    """Draws with indices [start, stop), a C-contiguous (stop - start, n)
    array, bit-identical however the range is split.  Light draws are written
    block by block, heavy ones built by :func:`_heavy_rows` from
    :func:`_gathered` one ``_CHUNK`` at a time.
    """
    if start < 0 or stop < start:
        raise ParameterError("invalid draw range")
    first = start // _BLOCK * _BLOCK if stop > start else stop
    out = np.empty((stop - first, model.n))
    if isinstance(model, LightTailModel):
        for lo in range(first, stop, _BLOCK):
            _light_block(model, _STREAMS.at(seed, lo // _BLOCK),
                         out[lo - first:min(lo + _BLOCK, stop) - first])
        return _own(out[start - first:], start)
    for lo in range(first, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        out[lo - first:hi - first] = _heavy_rows(model, *_gathered(model, seed, lo, hi, 1.0))
    return _own(out[start - first:], start)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_sum(count: int, count_chunk):
    """The sum of ``count_chunk(lo, hi)`` over the chunks [lo, hi)
    of the draws [0, count), as an int64 numpy scalar or array.

    One contiguous run per shard, up to one shard per CPU (at most
    ``_SHARDS_MAX``) with a chunk each; the sum does not depend on their
    number.  The caller runs shard 0 and threads of the count's own the
    others, joined before it returns, so counts side by side share no pool
    and a shard's exception propagates once the others stop.  A chunk is
    8 // t whole blocks for t shards, so the shards hold one ``_CHUNK``.
    """
    count = check_count("count", count)
    shards = min(_cpu_count(), _SHARDS_MAX, -(-count // _CHUNK))
    rows = _CHUNK // _BLOCK // shards * _BLOCK
    units = -(-count // rows)
    bounds = [min(count, i * units // shards * rows) for i in range(shards + 1)]

    def shard(i):
        return np.sum([count_chunk(lo, min(lo + rows, count))
                       for lo in range(bounds[i], bounds[i + 1], rows)], axis=0, dtype=np.int64)

    with ThreadPoolExecutor(max(1, shards - 1), thread_name_prefix="rarecc-shard") as pool:
        futures = [pool.submit(shard, i) for i in range(1, shards)]
        return shard(0) + sum(fut.result() for fut in futures)


def exceedances(model: TailModel, seed: int, count: int, loss_fn, thresholds) -> np.ndarray:
    """For each threshold t_j, the number of the draws [0, count) whose j-th
    loss exceeds t_j, as an int64 array.

    ``loss_fn`` maps a (rows, n) array of risk vectors to one array of row
    losses per threshold, each positively homogeneous of degree 1 and
    computed with a few roundings from nonnegative terms, as
    :func:`~rarecc.model.phi_many` and row sums are.  The counts are those of
    ``count_nonzero(loss > t_j)`` on the draws, bit for bit, summed over the
    chunks of :func:`_shard_sum`.

    A light chunk is drawn and counted that way.  A heavy draw is
    R theta_k with R = u^(-1/alpha), so its j-th loss exceeds t_j exactly
    when u lies below tau_jk = (loss_j(theta_k) / t_j)^alpha, up to
    rounding.  A heavy chunk is therefore counted from its uniforms and
    atoms alone, gathering only the uniforms at or below the largest
    widened level (:func:`_gathered`).  A chunk with a uniform within a
    relative alpha ``_MARGIN`` of its level, where rounding could decide, or
    with a zero uniform (an infinite radius, whose draw may hold nan), is
    drawn and counted as a light one is, on the same rows.
    """
    t = np.asarray(thresholds, dtype=float)
    if not (np.isfinite(t).all() and (t > 0).all()):
        raise ParameterError(f"thresholds must be finite and > 0, got {thresholds!r}")

    def by_draws(lo, hi):
        losses = loss_fn(draws_range(model, seed, lo, hi))
        return [np.count_nonzero(loss > tj) for loss, tj in zip(losses, t)]

    if isinstance(model, LightTailModel):
        return _shard_sum(count, by_draws)
    levels = (np.asarray(loss_fn(model.atoms), dtype=float) / t[:, None]) ** model.alpha
    widen = _MARGIN * model.alpha
    low, high = levels * (1.0 - widen), levels * (1.0 + widen)
    highest = high.max()

    def count_chunk(lo, hi):
        u, atom = _gathered(model, seed, lo, hi, highest)
        picked = [True] if atom is None else [atom == k for k in range(len(model.weights))]

        def hits(levels, op):
            return [sum(np.count_nonzero(op(u, level) & mask) for level, mask in zip(row, picked))
                    for row in levels]

        below = hits(low, np.less)
        if below == hits(high, np.less_equal) and u.min(initial=1.0) > 0.0:
            return below
        return by_draws(lo, hi)

    return _shard_sum(count, count_chunk)


def heavy_radii_range(model: HeavyTailModel, seed: int, start: int, stop: int) -> np.ndarray:
    """Radii of the heavy draws with indices [start, stop)."""
    u, _ = _heavy_uniforms(model, seed, start, stop, picks=False)
    u **= -1.0 / model.alpha
    return u


def _least(model: HeavyTailModel, seed: int, count: int, k: int, picks: bool = True) -> tuple:
    """(uniforms, atoms or None), in draw order, of the draws
    [0, count) whose uniform is at most a relative alpha ``_MARGIN`` above
    the k-th smallest of its atom's, or of all uniforms without ``picks``;
    an atom with at most k draws keeps them all.

    The k largest radii u ** (-1/alpha) have the k smallest uniforms, and
    past the margin a radius is smaller beyond pow's rounding.  The k-th
    smallest of an atom's n_a uniforms lies near k / n_a, so a first pass
    (:func:`_below`) gathers only the uniforms at most
    tau = ``_SPREAD`` (k + 4) / (count w_min), about ``_SPREAD`` times that
    for the atom of least weight w_min; the 4 keeps an atom with fewer than
    k of them rare (e^-20) at k = 1.  When every atom has k of them and
    its cutoff lies at or below tau, they hold every row below the cutoffs,
    and they are the answer; otherwise a full pass with no tau reads the
    rows again.  Both give the same rows, and both read each chunk through
    :func:`_gathered`.
    """
    tau = _SPREAD * (k + 4) / (count * (float(model.weights.min()) if picks else 1.0))
    if tau < 1.0:
        u, atom, cut = _below(model, seed, count, k, picks, tau)
        if max(cut) <= tau:
            return u, atom
    return _below(model, seed, count, k, picks, math.inf)[:2]


def _below(model: HeavyTailModel, seed: int, count: int, k: int, picks: bool,
           tau: float) -> tuple:
    """(uniforms, atoms or None, cutoffs) of the draws [0, count) whose
    uniform is at most tau and at most its atom's cutoff: the atom's k-th
    smallest such uniform times 1 + alpha ``_MARGIN``, or inf while the atom
    has fewer than k.  After each chunk adds its rows below the limits, the
    kept rows set the cutoffs again, so about K k rows are held besides the
    chunk, and :func:`_gathered` gives an atom index only to the rows below
    the loosest limit.
    """
    widen = 1.0 + _MARGIN * model.alpha
    cut = [math.inf] * (model.weights.size if picks else 1)
    lim = [tau] * len(cut)

    def below(u, atom):
        return (u <= (lim[0] if atom is None else np.array(lim).take(atom))).nonzero()[0]

    kept = None
    for lo in range(0, count, _CHUNK):
        u, atom = _gathered(model, seed, lo, min(lo + _CHUNK, count), max(lim), picks)
        if kept:                # the kept rows and the new ones set the cutoffs again
            near = below(u, atom)
            if not near.size:
                continue
            u = np.concatenate((kept[0], u.take(near)))
            atom = None if atom is None else np.concatenate((kept[1], atom.take(near)))
        for a in range(len(cut)):
            ua = u if atom is None else u[atom == a]
            if ua.size < k:
                cut[a] = math.inf
            else:
                cut[a] = float(ua.min() if k == 1 else np.partition(ua, k - 1)[k - 1]) * widen
        lim = [min(c, tau) for c in cut]
        near = below(u, atom)
        kept = (u.take(near), None if atom is None else atom.take(near))
    return kept + (cut,)


def heavy_top(model: HeavyTailModel, seed: int, count: int, k: int) -> np.ndarray:
    """The rows of the draws [0, count) that hold each atom's k largest
    radii (:func:`_least`), in draw order, equal bit for bit to those rows
    of :func:`draws_range`, since both build them with :func:`_heavy_rows`.
    For x >= 0, phi(x, R theta) = R phi(x, theta), so each atom's k largest
    losses at any x lie in them, and so do the k largest losses of the whole
    sample: the oracle's quantile and the CVaR program's
    k = ceil(delta count) weighted losses."""
    return _heavy_rows(model, *_least(model, seed, check_count("count", count),
                                      check_count("k", k)))


def heavy_radius_max(model: HeavyTailModel, seed: int, count: int) -> float:
    """``heavy_radii_range(model, seed, 0, count).max()``, bit for bit, from
    the smallest uniforms alone (:func:`_least` with k = 1, no picks)."""
    low, _ = _least(model, seed, check_count("count", count), 1, picks=False)
    low **= -1.0 / model.alpha
    return float(low.max())


def top_rows(model: TailModel, seed: int, count: int, k: int) -> np.ndarray:
    """Rows of the draws [0, count), in draw order, that hold the k largest
    losses at every x >= 0 of any loss that grows with the radius: all of a
    light model's draws (:func:`draws_range`); each atom's k largest radii
    of a heavy model's (:func:`heavy_top`).  A caller holds the whole sample
    exactly when it gets ``count`` rows."""
    count = check_count("count", count)
    if isinstance(model, LightTailModel):
        return draws_range(model, seed, 0, count)
    return heavy_top(model, seed, count, k)


def scenario_batch(model: TailModel, seed: int, count: int) -> SampleBatch:
    """The draws [0, count) that can bind a scenario program over them:
    :func:`top_rows` with k = 1, since y^T A_i R theta = R y^T A_i theta
    for y >= 0."""
    return SampleBatch(samples=top_rows(model, seed, count, 1), seed=seed, count=count)


def sample_tail(model: TailModel, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` i.i.d. risk vectors of either family, the draws
    [0, count) of :func:`draws_range`.  A light draw with theta > 1 is
    L_i = (E_i / S)^(1/(theta beta)) for unit exponentials E_i and a
    positive stable S of exponent 1/theta; a heavy one is L = R * Theta.
    """
    count = check_count("count", count)
    return SampleBatch(samples=draws_range(model, seed, 0, count), seed=seed)


def copula_exponent(model: LightTailModel, x: np.ndarray) -> float:
    """Gumbel-Hougaard exponent ``(sum_i x_i^(beta theta))^(1/theta)``.

    For theta = inf the limit ``max_i x_i^beta`` is used.  Homogeneous of
    degree beta; the joint survival of the light model is exp(-value).
    """
    x = np.asarray(x, dtype=float)
    if math.isinf(model.theta):
        return float(np.max(x) ** model.beta)
    return float(np.sum(x ** (model.beta * model.theta)) ** (1.0 / model.theta))


def joint_tail_light(model: LightTailModel, x) -> float:
    """Exact joint survival P(L > x) = exp(-copula_exponent(x))."""
    return math.exp(-copula_exponent(model, check_vector(x, model.n, "x")))


def light_qinv(model: LightTailModel, u: float) -> float:
    """Inverse of the tail-rate scale q(r) = r^beta, i.e. u^(1/beta)."""
    if not u > 0:
        raise ParameterError("u must be positive")
    return float(u) ** (1.0 / model.beta)


def heavy_fbar_inv(model: HeavyTailModel, delta: float) -> float:
    """Radius threshold with tail mass delta: delta^(-1/alpha) (delta in (0, 1])."""
    if not 0.0 < delta <= 1.0:
        raise ParameterError("delta must lie in (0, 1]")
    return float(delta) ** (-1.0 / model.alpha)


def tail_radius(model: TailModel, delta: float) -> float:
    """The regime's normalizing radius at risk level delta in (0, 1)."""
    check_delta(delta)
    if isinstance(model, LightTailModel):
        return light_qinv(model, math.log(1.0 / delta))
    return heavy_fbar_inv(model, delta)


def tail_cvar(model: TailModel, delta: float) -> float:
    """CVaR at risk level delta in (0, 1) of the scalar marginal: the Pareto
    radius delta^(-1/alpha) over 1 - 1/alpha, or log(1/delta) + 1 for the
    unit exponential (beta = 1); no other light tail has one here."""
    check_delta(delta)
    if isinstance(model, HeavyTailModel):
        return heavy_fbar_inv(model, delta) / (1.0 - 1.0 / model.alpha)
    if abs(model.beta - 1.0) > 1e-12:
        raise ParameterError("CVaR closed form implemented for beta = 1 only")
    return math.log(1.0 / delta) + 1.0
