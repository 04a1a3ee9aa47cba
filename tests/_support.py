"""Rules, point sets, measurements and the oracles that the tests and
`layer_timing.py` share.

`rotated_rule` is a Gauss-Legendre rule with no product layout, so it takes
the scattered-point paths.  `ring_grid` forms the points of a product grid
ring-major, the layout `spherefit` scans for, with no use of the package's
own ring code.  `zonal_sums` evaluates sum_i w_i |sum_k c_k P_k(x_p . x_i)|
from `harmonics.legendre_matrix`, independently of the degree-streaming loop
of `approx._kernel_blocks` and of the ring tables.
`synthesized_functional` is the penalized functional with the fit
synthesized at every node, the oracle of `approx.penalized_functional`.
`longdouble_gauss_legendre` recomputes Gauss-Legendre nodes and weights in
long double.  `record_table_probes` records the probes of each `grid-abs`
table built.  `SUP_NORM_KINDS` are the walk bounds that balance sup norms
over a probe layout.  `traced` and `timed` measure one call's tracemalloc peak and
its best wall time, and `blas_setting` names the BLAS thread setting that
timings and output listings hold for.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from typing import Any, NamedTuple

import numpy as np

from spherefit import approx, harmonics
from spherefit.cubature import CubatureRule, gauss_legendre_rule

# the `approx.NORM_BOUND_KINDS` whose walks take sup-norm steps on the probe
# layout; ``l2`` takes its steps by Parseval
SUP_NORM_KINDS = ("grid", "grid-abs", "crude")


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


def synthesized_functional(samples: approx.SampleSet, coeffs, alpha: float, beta) -> float:
    """sum_i w_i (p(x_i) - y_i)^2 + alpha * rkhs_norm_sq(p), with p synthesized
    at every rule node (`evaluate_grid`); alpha = 0 gives the misfit alone."""
    resid = approx.evaluate_grid(coeffs, samples.rule.points) - samples.values
    penalty = approx.rkhs_norm_sq(coeffs, beta) if alpha else 0.0
    return float(samples.rule.weights @ (resid * resid)) + alpha * penalty


def longdouble_gauss_legendre(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n = t.size Gauss-Legendre nodes x, two Newton steps from the nodes
    `t`, and the weights w = 2 / ((1 - x^2) P_n'(x)^2), all in long double:
    an oracle to about 1e-18 where long double has a 64-bit mantissa, which
    numpy's leggauss (off by 1.1e-10 at n = 251) is not."""
    n = t.size

    def p_and_derivative(x):
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (x * p - p_prev) / (x * x - 1)

    x = t.astype(np.longdouble)
    for _ in range(2):
        p, dp = p_and_derivative(x)
        x = x - p / dp
    dp = p_and_derivative(x)[1]
    return x, 2 / ((1 - x * x) * dp * dp)


def record_table_probes(monkeypatch) -> list:
    """The probes of each table `approx.weighted_abs_legendre_sums` builds
    from now on, through the module global the `grid-abs` oracle calls; the
    table has a row per probe and a column per degree."""
    calls = []
    table = approx.weighted_abs_legendre_sums

    def recording(rule, M, probes):
        calls.append(probes)
        return table(rule, M, probes)

    monkeypatch.setattr(approx, "weighted_abs_legendre_sums", recording)
    return calls


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


def blas_setting() -> str:
    """One line: `OPENBLAS_NUM_THREADS` (or unset) and `os.cpu_count()`."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"OPENBLAS_NUM_THREADS {threads}, os.cpu_count() {os.cpu_count()}"
