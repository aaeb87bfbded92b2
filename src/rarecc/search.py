"""Deterministic search utilities: seed mixing and simplex grids.

Everything here is pure and deterministic.  The seed mixers derive the
random streams of experiment tasks; the simplex grids are the search
directions of the Monte Carlo oracle.
"""

from __future__ import annotations

import itertools

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """One step of the splitmix64 finalizer (64-bit avalanche mix)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(master: int, *indices: int) -> int:
    """Derive a child seed from a master seed and a tuple of counters.

    The derivation is scheduling-independent: it depends only on the counter
    values, never on evaluation order, so parallel workers agree bit-for-bit.
    """
    z = master & _MASK64
    for k in indices:
        z = splitmix64(z ^ splitmix64((k + 1) & _MASK64))
    return z


def simplex_grid(m: int, per_axis: int = 50) -> np.ndarray:
    """Deterministic grid on the unit simplex in R^m.

    Returns an array of shape (num_points, m) whose rows are nonnegative,
    sum to one, and have coordinates that are integer multiples of
    1/per_axis.
    """
    if m == 1:
        return np.ones((1, 1))
    pts = []
    for comp in itertools.combinations(range(per_axis + m - 1), m - 1):
        parts = []
        prev = -1
        for c in comp:
            parts.append(c - prev - 1)
            prev = c
        parts.append(per_axis + m - 2 - prev)
        pts.append(parts)
    return np.asarray(pts, dtype=float) / per_axis


def quasirandom_simplex(m: int, count: int = 1000) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit simplex.

    Uses a Kronecker (additive golden-ratio) sequence mapped to the simplex
    through the exponential-spacings transform.
    """
    # generalized golden ratio for dimension m
    phi = 2.0
    for _ in range(40):
        phi = (1.0 + phi) ** (1.0 / (m + 1))
    alpha = np.array([(1.0 / phi) ** (k + 1) for k in range(m)])
    j = np.arange(1, count + 1)[:, None]
    v = np.mod(0.5 + j * alpha[None, :], 1.0)
    e = -np.log1p(-v * (1.0 - 1e-12))
    return e / e.sum(axis=1, keepdims=True)


# The benchmark's traced run (bench/spans.py) still wraps these two names,
# left from a simplex maximizer that the cut loop replaced; ROADMAP item 1
# drops them from its WRAPS and deletes them here.
def maximize_over_simplex(*args, **kwargs):
    raise NotImplementedError("the limit programs are solved by rarecc.lpsolve.cut_loop")


def nelder_mead(*args, **kwargs):
    raise NotImplementedError("the limit programs are solved by rarecc.lpsolve.cut_loop")
