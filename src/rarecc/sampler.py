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
(model, seed, i).  Batches can therefore be produced in parallel shards
and merged in any order without changing the result.  Each thread keeps
one Philox generator and re-keys it to ``[seed, block]`` with counter 0
before each block, which gives the same stream as a fresh generator with
that key without building one per block.

Within a block of B = 4096 draws the stream is read in this order:

* light, theta = 1 (within 1e-9): the (B, n) unit exponentials;
* light, 1 < theta < inf: the (B, n) unit exponentials, then the B stable
  angles V, then the B stable exponentials W;
* light, theta = inf: the B shared exponentials;
* heavy: the B radius uniforms, then the B angular picks.

Each block reads its own stream front to back, so a value depends only on
the numbers read up to it in its own block, never on what is read after
it.  A block may therefore leave out its trailing draws when nothing uses
them, and every value stays the same:

* the heavy radii (:func:`heavy_radii_range`) and one-atom heavy models,
  whose picks would all select the same atom, never draw the picks;
* where row ``j`` of a block reads only the stream's first numbers (light
  theta = 1 and theta = inf, one-atom heavy models and the radii), a
  partial first or last block draws only its rows ``[0, hi)``.  Light
  1 < theta < inf reads V and W, and a multi-atom heavy model its picks,
  after all B rows, so their partial blocks still draw the whole block.

A Monte Carlo budget need not be held at once.  :func:`draw_chunks` yields
the draws [0, count) as successive (rows, n) views of one buffer of
``_CHUNK`` = 8 B rows (0.75 MiB at n = 3), allocated per call and refilled
in place through :func:`draws_range`, so an estimate that reduces each
chunk before asking for the next keeps one chunk in memory whatever its
budget.  :func:`heavy_radius_max` takes the largest heavy radius the same
way, from one block of uniforms at a time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, check_count, check_vector

_MASK64 = (1 << 64) - 1
_BLOCK = 4096          # draws per Philox stream; fixed, part of the format
_CHUNK = 8 * _BLOCK    # rows per view of draw_chunks
_MARGIN = 2.0 ** -40   # heavy_radius_max compares the pows of uniforms this close, times alpha


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
        if not self.beta > 0:
            raise ParameterError("beta must be positive")
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
        if not self.alpha > 1:
            raise ParameterError("alpha must exceed 1")
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
    """A matrix of i.i.d. draws (one per row) plus the generating seed."""

    samples: np.ndarray
    seed: int

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]


class _BlockStreams(threading.local):
    """One Philox generator per thread, re-keyed for each block.

    Setting the state (counter 0, key ``[seed, block]``, empty buffer) gives
    the stream of ``Philox(key=[seed, block])`` at a fifth of the cost: that
    constructor first seeds a throwaway SeedSequence from os.urandom.  The
    generator is built on a thread's first block, so that importing the
    package does not import numpy.random.
    """

    gen = None

    def at(self, seed: int, block: int) -> np.random.Generator:
        """The generator, positioned at the start of the block's stream."""
        if self.gen is None:
            self.philox = np.random.Philox(0)
            self.gen = np.random.Generator(self.philox)
            self.key = np.zeros(2, dtype=np.uint64)
            self.state = {"bit_generator": "Philox",
                          "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self.key},
                          "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                          "has_uint32": 0, "uinteger": 0}
        self.key[:] = (seed & _MASK64, block & _MASK64)
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


def _radii_block(model: HeavyTailModel, rng: np.random.Generator, out: np.ndarray) -> None:
    """Write the block's first len(out) Pareto radii into ``out``."""
    rng.random(out=out)
    out **= -1.0 / model.alpha


def _heavy_block(model: HeavyTailModel, rng: np.random.Generator, out: np.ndarray) -> None:
    """Write the block's first len(out) draws into ``out`` of shape (rows, n)."""
    rows = len(out)
    if model.weights.size == 1:
        # the picks would all select atom 0, so they are not drawn
        r = np.empty(rows)
        _radii_block(model, rng, r)
        np.multiply.outer(r, model.atoms[0], out=out)
        return
    # the picks follow all B radius uniforms, so a partial block draws them all
    r = np.empty(_BLOCK)
    _radii_block(model, rng, r)
    pick = rng.random(_BLOCK)[:rows]
    # atom k is picked when cum[k-1] <= pick < cum[k]; counting only the first
    # K - 1 cutoffs sends a pick above the rounded cumsum's last entry to atom K - 1
    idx = np.zeros(rows, dtype=np.intp)
    for cut in np.cumsum(model.weights)[:-1]:
        idx += pick >= cut
    # idx <= K - 1 already; mode "clip" only spares take the buffered copy
    # of ``out`` that mode "raise" makes
    np.take(model.atoms, idx, axis=0, out=out, mode="clip")
    out *= r[:rows, None]


def _splice(block_fn, model, seed: int, start: int, stop: int, row_shape: tuple,
            out: np.ndarray | None = None) -> np.ndarray:
    """Rows [start, stop) of the concatenated per-block streams of block_fn,
    written into ``out`` (a new array when it is None).

    ``block_fn(model, rng, out)`` writes the first len(out) rows of the
    block whose stream ``rng`` reads.  A block whose part of the range
    starts at its row 0 is written in place into its slice of the result;
    only a partial first block goes through a scratch array, of its rows
    up to the range's end.
    """
    if start < 0 or stop < start:
        raise ParameterError("invalid draw range")
    shape = (stop - start,) + row_shape
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ContractError(f"out must be a C-contiguous float64 array of shape {shape}")
    pos = 0
    for b in range(start // _BLOCK, (stop + _BLOCK - 1) // _BLOCK if stop > start else 0):
        lo = max(start - b * _BLOCK, 0)
        hi = min(stop - b * _BLOCK, _BLOCK)
        rng = _STREAMS.at(seed, b)
        if lo == 0:
            block_fn(model, rng, out[pos:pos + hi])
        else:
            scratch = np.empty((hi,) + row_shape)
            block_fn(model, rng, scratch)
            out[pos:pos + hi - lo] = scratch[lo:]
        pos += hi - lo
    return out


def draws_range(model: TailModel, seed: int, start: int, stop: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Draws with indices [start, stop); bit-identical however the range is split.

    Written into ``out``, a C-contiguous float64 array of shape
    (stop - start, n), when it is given; returns the array written.
    """
    block_fn = _light_block if isinstance(model, LightTailModel) else _heavy_block
    return _splice(block_fn, model, seed, start, stop, (model.n,), out)


def draw_chunks(model: TailModel, seed: int, count: int):
    """Yield the draws [0, count) as successive (rows, n) views of one
    buffer of min(count, _CHUNK) rows.

    Each view is refilled in place by the next step, so a caller reduces a
    chunk before it asks for the next one.  The buffer belongs to this call
    alone, so threads may stream side by side.
    """
    count = check_count("count", count)
    buf = np.empty((min(count, _CHUNK), model.n))
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        yield draws_range(model, seed, lo, hi, out=buf[:hi - lo])


def heavy_radii_range(model: HeavyTailModel, seed: int, start: int, stop: int) -> np.ndarray:
    """Radii of the heavy draws with indices [start, stop)."""
    return _splice(_radii_block, model, seed, start, stop, ())


def heavy_radius_max(model: HeavyTailModel, seed: int, count: int) -> float:
    """``heavy_radii_range(model, seed, 0, count).max()``, bit for bit,
    without building the radii.

    A radius is u ** (-1/alpha) for its uniform u, so the largest radius
    comes from the smallest uniform.  Each block's uniforms are read into
    one buffer of B rows, and only those within a relative alpha 2^-40 of
    the smallest are kept; their pows are taken as :func:`heavy_radii_range`
    takes them, and the largest is returned.  Uniforms further apart than
    that margin give radii about 2^-40 apart relative, far beyond pow's
    rounding error, so this does not rely on pow being monotone in its last
    bit.
    """
    count = check_count("count", count)
    widen = 1.0 + _MARGIN * model.alpha
    buf = np.empty(min(count, _BLOCK))
    smallest = math.inf
    kept = []
    for b in range((count + _BLOCK - 1) // _BLOCK):
        u = buf[:min(count - b * _BLOCK, _BLOCK)]
        _STREAMS.at(seed, b).random(out=u)
        least = float(u.min())
        if least <= smallest * widen:
            smallest = min(smallest, least)
            kept.append(u[u <= smallest * widen])
    low = np.concatenate(kept)
    low = low[low <= smallest * widen]
    low **= -1.0 / model.alpha
    return float(low.max())


def sample_tail(model: TailModel, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` i.i.d. risk vectors of either family, the draws
    [0, count) of :func:`draws_range`.

    Light construction: for theta > 1 draw a positive stable S with exponent
    1/theta and unit exponentials E_1..E_n, set L_i = (E_i / S)^(1/(theta
    beta)); for theta = 1 the coordinates are independent Weibull(beta);
    for theta = inf one shared exponential drives all coordinates.  Heavy
    construction: L = R * Theta.
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
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    if isinstance(model, LightTailModel):
        return light_qinv(model, math.log(1.0 / delta))
    return heavy_fbar_inv(model, delta)


def dump_batch_csv(batch: SampleBatch, path) -> None:
    """Write a batch as CSV: a ``# seed=`` comment, a header, one draw per row."""
    n = batch.n
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# seed={batch.seed}\n")
        fh.write(",".join(f"L{i + 1}" for i in range(n)) + "\n")
        for row in batch.samples:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_batch_csv(path) -> SampleBatch:
    """Read a batch written by :func:`dump_batch_csv`."""
    seed = 0
    rows = []
    with open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line.lstrip("# ").partition("=")
                if key.strip() == "seed":
                    seed = int(val)
                continue
            if line.startswith("L1"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ContractError(f"no sample rows found in {path}")
    return SampleBatch(samples=np.asarray(rows, dtype=float), seed=seed)
