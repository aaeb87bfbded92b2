"""Deterministic search utilities: seed mixing, simplex grids, Nelder-Mead.

Everything here is pure and deterministic.  The seed mixers derive the
random streams of experiment tasks; the simplex grids are the search
directions of the Monte Carlo oracle.  :func:`maximize_over_simplex` and
:func:`nelder_mead` are a derivative-free maximizer over the simplex that no
solver of the package calls; they stay because the benchmark's traced run
(``bench/spans.py``) wraps them by name.
"""

from __future__ import annotations

import itertools
import math

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


def nelder_mead(fn, x0: np.ndarray, scale: float = 0.05,
                xatol: float = 1e-10, fatol: float = 1e-12,
                maxiter: int = 4000):
    """Minimize ``fn`` from ``x0`` with a deterministic Nelder-Mead simplex.

    Returns (x_best, f_best). Standard reflection/expansion/contraction
    coefficients; ties are broken by index so the path is reproducible.
    """
    n = x0.size
    if n == 0:
        return x0.copy(), fn(x0)
    sim = np.repeat(x0[None, :], n + 1, axis=0)
    for i in range(n):
        sim[i + 1, i] += scale if x0[i] == 0.0 else scale * max(1.0, abs(x0[i]))
    fvals = np.array([fn(p) for p in sim])

    for _ in range(maxiter):
        order = np.argsort(fvals, kind="stable")
        sim, fvals = sim[order], fvals[order]
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fvals[1:] - fvals[0])) <= fatol):
            break
        centroid = sim[:-1].mean(axis=0)
        xr = centroid + (centroid - sim[-1])
        fr = fn(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - sim[-1])
            fe = fn(xe)
            if fe < fr:
                sim[-1], fvals[-1] = xe, fe
            else:
                sim[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            sim[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (sim[-1] - centroid)
            fc = fn(xc)
            if fc < min(fr, fvals[-1]):
                sim[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    sim[i] = sim[0] + 0.5 * (sim[i] - sim[0])
                    fvals[i] = fn(sim[i])
    i = int(np.argmin(fvals))
    return sim[i].copy(), float(fvals[i])


def _direction_from_free(z: np.ndarray, m: int) -> np.ndarray | None:
    """Map m-1 free coordinates to a point on the simplex (clip + renormalize)."""
    u = np.empty(m)
    u[:-1] = z
    u[-1] = 1.0 - z.sum()
    u = np.clip(u, 0.0, None)
    s = u.sum()
    if s <= 0.0:
        return None
    return u / s


def maximize_over_simplex(value_fn, m: int, per_axis: int = 50,
                          qr_starts: int = 1000, refine_starts: int = 6,
                          xatol: float = 1e-10):
    """Maximize ``value_fn`` over the unit simplex, deterministically.

    Scans a deterministic grid (combinatorial for m <= 3, quasi-random for
    larger m), then refines the best starts with chained Nelder-Mead runs.
    ``value_fn`` maps a direction u (sum 1, u >= 0) to a float; it may return
    ``math.inf`` to flag an unbounded ray and -inf for useless directions.

    Returns (u_best, value_best).
    """
    grid = simplex_grid(m, per_axis) if m <= 3 else quasirandom_simplex(m, qr_starts)
    vals = np.array([value_fn(u) for u in grid])
    if np.isposinf(vals).any():
        i = int(np.argmax(np.isposinf(vals)))
        return grid[i], math.inf
    best_order = np.argsort(-vals, kind="stable")[:refine_starts]

    if m == 1:
        return np.ones(1), float(vals[0])

    def neg(z):
        u = _direction_from_free(z, m)
        if u is None:
            return 1e300
        v = value_fn(u)
        if v == math.inf:
            raise _UnboundedRay(u)
        return -v

    u_best, v_best = grid[best_order[0]].copy(), float(vals[best_order[0]])
    for idx in best_order:
        z = grid[idx][:-1].copy()
        try:
            for step in (0.05, 0.01, 1e-4):
                z, fz = nelder_mead(neg, z, scale=step, xatol=xatol)
        except _UnboundedRay as ray:
            return ray.direction, math.inf
        if -fz > v_best + 1e-15 * max(1.0, abs(v_best)):
            u = _direction_from_free(z, m)
            if u is not None:
                u_best, v_best = u, -fz
    return u_best, v_best


class _UnboundedRay(Exception):
    """Raised inside refinement when a direction with infinite value is hit."""

    def __init__(self, direction):
        super().__init__("unbounded ray")
        self.direction = direction
