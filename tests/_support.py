"""Rules, point sets, measurements and the zonal-sum oracle that the tests and
`layer_timing.py` share.

`rotated_rule` is a Gauss-Legendre rule with no product layout, so it takes
the scattered-point paths.  `ring_grid` forms the points of a product grid
ring-major, the layout `spherefit` scans for, with no use of the package's
own ring code.  `zonal_sums` evaluates sum_i w_i |sum_k c_k P_k(x_p . x_i)|
from `harmonics.legendre_matrix`, independently of the degree-streaming loop
of `approx._kernel_blocks` and of the ring tables.  `traced` and `timed`
measure one call's tracemalloc peak and its best wall time.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, NamedTuple

import numpy as np

from spherefit import harmonics
from spherefit.cubature import CubatureRule, gauss_legendre_rule


def rotated_rule(M: int, seed) -> CubatureRule:
    """gauss_legendre_rule(M) under a random rotation: no product grid.  The
    rotation is drawn from np.random.default_rng(seed), so a Generator passed
    as `seed` is drawn from in place."""
    rule = gauss_legendre_rule(M)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return CubatureRule(M, rule.points @ Q.T, rule.weights)


def fibonacci_points(n: int) -> np.ndarray:
    """n points of a Fibonacci spiral, on the sphere to rounding."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + 5.0**0.5) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def random_unit(rng, n: int) -> np.ndarray:
    """n random unit vectors, from rng's normal draws."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ring_grid(t: np.ndarray, azimuths: int) -> tuple[np.ndarray, np.ndarray]:
    """Rings at heights t with `azimuths` equispaced azimuths from phi = 0:
    the rings' phi = 0 points (sqrt(1 - t^2), 0, t), and every point,
    ring-major."""
    u = np.sqrt(1.0 - t * t)[:, None]
    phi = 2.0 * np.pi * np.arange(azimuths) / azimuths
    points = np.stack(np.broadcast_arrays(u * np.cos(phi), u * np.sin(phi), t[:, None]), axis=-1)
    return np.column_stack([u[:, 0], np.zeros_like(t), t]), points.reshape(-1, 3)


def norm_probe_points(rule: CubatureRule, resolution: int) -> np.ndarray:
    """Every point of a walk's probe layout on a product rule, formed as a
    walk once formed them: the rings of probe_grid(resolution) at the
    smallest multiple of the rule's A azimuths no coarser than 2(resolution+1)."""
    A = rule.rings.azimuths
    heights = gauss_legendre_rule(resolution).rings.meridian[:, 2]
    return ring_grid(heights, A * -(-2 * (resolution + 1) // A))[1]


def legendre_blocks(rule: CubatureRule, points: np.ndarray, M: int):
    """(rows, L) per block of points, L[p, i, k] = P_k(x_p . x_i) at the
    points points[rows] and every node, from `harmonics.legendre_matrix`."""
    chunk = max(1, 2**15 // rule.n_points)
    for lo in range(0, points.shape[0], chunk):
        dots = np.clip(points[lo : lo + chunk] @ rule.points.T, -1.0, 1.0)
        yield slice(lo, lo + chunk), harmonics.legendre_matrix(M, dots).reshape(*dots.shape, M + 1)


def zonal_sums(rule: CubatureRule, probes: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_i w_i |sum_k c_k P_k(x_p . x_i)| at every probe p, for the
    coefficients c_0..c_M, or for each column of a block of them: shape
    (probes,) or (probes, columns).  With the identity as the block, entry
    (p, k) is sum_i w_i |P_k(x_p . x_i)|."""
    out = np.empty((probes.shape[0], *coefs.shape[1:]))
    for rows, L in legendre_blocks(rule, probes, coefs.shape[0] - 1):
        out[rows] = np.einsum("pi...,i->p...", np.abs(L @ coefs), rule.weights)
    return out


class Traced(NamedTuple):
    result: Any
    peak: int  # bytes traced at most during the call
    held: int  # bytes traced on return that were not before the call


def traced(fn) -> Traced:
    """Call fn() under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        return Traced(result, peak, current - before)
    finally:
        tracemalloc.stop()


def timed(fn, repeats: int = 1, min_seconds: float = 0.0) -> tuple[float, int]:
    """The minimum wall seconds of fn() over at least `repeats` calls and at
    least `min_seconds` of calls, without tracemalloc, and the tracemalloc
    peak in bytes of one more call."""
    best, spent, runs = np.inf, 0.0, 0
    while runs < repeats or spent < min_seconds:
        t0 = time.perf_counter()
        fn()
        took = time.perf_counter() - t0
        best, spent, runs = min(best, took), spent + took, runs + 1
    return best, traced(fn).peak
