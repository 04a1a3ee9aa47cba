"""Cost of the operator-norm oracles and the zonal-kernel sums at high degree.

Prints, for M = 30, 60 and 120, on `gauss_legendre_rule(M)` with the default
probe resolution 2M:

  * the wall time and the tracemalloc peak of one cold build of the
    `grid-abs` norm oracle (`params._probe_norm`, which classifies the probes
    of the walk's layout `params._probe_rings` and builds the table on one
    probe per class), with the table's shape: what the `grid-abs` balancing
    walk builds once per rule;
  * the wall time of one warm `grid` pass, the `grid` oracle evaluated once
    more after a first evaluation has built the ring tables: what each step
    of a `grid` walk costs;
  * the wall time and the tracemalloc peak of `evaluate_kernel_form` at the
    256 Fibonacci points the benchmark checks fits on.

Then, once, the wall time and the tracemalloc peak of one `grid` pass at
M = 30 on the Gauss-Legendre rule under a random rotation, which has no ring
layout: the pass sums the kernel over every node at each of the 7442 points
of probe_grid(60), in the degree loop of `approx._kernel_blocks`.

The rules and the probe grid are made before the clock starts, as the walk
makes them before it builds the oracle, and the memo is bypassed.  Each
wall time but the warm `grid` pass comes from a run without tracemalloc,
which slows these loops by about a third; the peak, which counts every numpy
array, from a second run.  The warm `grid` time is the minimum of REPEATS
passes.

Not collected by pytest (the name does not start with `test_`).  Run from the
repository root (nearly all of the time goes to M = 120; pass degrees to run
fewer, e.g. `30 60`):

    PYTHONPATH=src python tests/grid_abs_table_timing.py [M ...]
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from spherefit import _rings, approx, params
from spherefit.approx import SampleSet, default_probe_resolution
from spherefit.cubature import CubatureRule, gauss_legendre_rule, probe_grid

DEGREES = (30, 60, 120)
REPEATS = 3
ROTATED_DEGREE = 30


def cost(fn) -> tuple[float, float]:
    """Wall seconds of fn(), then the tracemalloc peak in MB of one more call."""
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, peak / 2**20


def build(M: int) -> tuple[float, float, tuple[int, int]]:
    """Wall seconds, tracemalloc peak in MB and table shape of one build."""
    rule, resolution = gauss_legendre_rule(M), default_probe_resolution(M)
    probe_grid(resolution)
    seconds, peak = cost(lambda: params._probe_norm.__wrapped__(rule, M, resolution, "grid-abs"))
    rings, azimuths, _ = _rings.probe_classes(rule.rings, params._probe_rings(rule, resolution))
    return seconds, peak, (rings.size * azimuths.size, M + 1)


def fibonacci_points(n: int) -> np.ndarray:
    """The benchmark's check points (`bench/ops.py` `check_probes`)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + 5.0**0.5) * i
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def kernel_form(M: int) -> tuple[float, float]:
    """Wall seconds and tracemalloc peak in MB of `evaluate_kernel_form` at
    256 points, Laplace-Beltrami weights, alpha = 1e-4."""
    rule = gauss_legendre_rule(M)
    samples = SampleSet(rule, np.sin(rule.points @ np.array([1.0, 2.0, 3.0])))
    beta, points = params.weights_laplace_beltrami(M), fibonacci_points(256)
    return cost(lambda: approx.evaluate_kernel_form(samples, M, 1e-4, beta, points))


def rotated_grid_pass(M: int) -> tuple[float, float]:
    """Wall seconds and tracemalloc peak in MB of one `grid` pass, at
    alpha = 0, on gauss_legendre_rule(M) under a random rotation."""
    rule = gauss_legendre_rule(M)
    Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
    rotated = CubatureRule(M, rule.points @ Q.T, rule.weights)
    assert rotated.rings is None
    probe_grid(default_probe_resolution(M))
    sup = params._probe_norm.__wrapped__(rotated, M, default_probe_resolution(M), "grid")
    return cost(lambda: sup(np.ones(M + 1)))


def grid_pass(M: int) -> float:
    """Wall seconds of one warm `grid` oracle evaluation, at alpha = 0."""
    rule, resolution = gauss_legendre_rule(M), default_probe_resolution(M)
    sup = params._probe_norm.__wrapped__(rule, M, resolution, "grid")
    factors = np.ones(M + 1)
    sup(factors)
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sup(factors)
        best = min(best, time.perf_counter() - t0)
    return best


def main(degrees) -> None:
    print(
        "| degree M | table rows x columns | `grid-abs` build | tracemalloc peak "
        "| warm `grid` pass | kernel form, 256 points | tracemalloc peak |"
    )
    print("|---|---|---|---|---|---|---|")
    for M in degrees:
        seconds, peak_mb, (rows, cols) = build(M)
        pass_seconds = grid_pass(M)
        form_seconds, form_mb = kernel_form(M)
        print(
            f"| {M} | {rows} x {cols} | {seconds:.3f} s | {peak_mb:.1f} MB | {pass_seconds:.3f} s "
            f"| {form_seconds:.3f} s | {form_mb:.1f} MB |",
            flush=True,
        )
    seconds, peak_mb = rotated_grid_pass(ROTATED_DEGREE)
    print(
        f"\nrotated gauss_legendre_rule({ROTATED_DEGREE}), one `grid` pass on "
        f"probe_grid({default_probe_resolution(ROTATED_DEGREE)}): {seconds:.2f} s, "
        f"tracemalloc peak {peak_mb:.1f} MB"
    )


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or DEGREES)
