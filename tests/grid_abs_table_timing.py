"""Cost of the operator-norm oracles at high degree.

Prints, for M = 30, 60 and 120, on `gauss_legendre_rule(M)` with the default
probe resolution 2M:

  * the wall time and the tracemalloc peak of one cold build of the
    `grid-abs` norm oracle (`params._probe_norm`, which classifies the probes
    and builds the table on one probe per class), with the table's shape:
    what the `grid-abs` balancing walk builds once per rule;
  * the wall time of one warm `grid` pass, the `grid` oracle evaluated once
    more after a first evaluation has built the ring tables: what each step
    of a `grid` walk costs.

The rule and the probe grid are made before the clock starts, as the walk
makes them before it builds the oracle, and the memo is bypassed.  The
`grid-abs` wall time comes from a build without tracemalloc, which slows this
loop by about a third; the peak, which counts every numpy array, and the
table shape from a second build.  The `grid` time is the minimum of REPEATS
warm passes.

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

from spherefit import approx, params
from spherefit.approx import default_probe_resolution
from spherefit.cubature import gauss_legendre_rule, probe_grid

DEGREES = (30, 60, 120)
REPEATS = 3


def build(M: int) -> tuple[float, float, tuple[int, int]]:
    """Wall seconds, tracemalloc peak in MB and table shape of one build."""
    rule, resolution = gauss_legendre_rule(M), default_probe_resolution(M)
    probe_grid(resolution)
    t0 = time.perf_counter()
    params._probe_norm.__wrapped__(rule, M, resolution, "grid-abs")
    seconds = time.perf_counter() - t0
    # the second build records the table's shape through the module global
    # the oracle calls
    table, shapes = approx.weighted_abs_legendre_sums, []

    def recording(*args):
        S = table(*args)
        shapes.append(S.shape)
        return S

    approx.weighted_abs_legendre_sums = recording
    tracemalloc.start()
    try:
        params._probe_norm.__wrapped__(rule, M, resolution, "grid-abs")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        approx.weighted_abs_legendre_sums = table
    return seconds, peak / 2**20, shapes[0]


def grid_pass(M: int) -> float:
    """Wall seconds of one warm `grid` oracle evaluation, at alpha = 0."""
    rule, resolution = gauss_legendre_rule(M), default_probe_resolution(M)
    sup = params._probe_norm.__wrapped__(rule, M, resolution, "grid")
    c = (2 * np.arange(M + 1) + 1) / (4 * np.pi)
    sup(c)
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sup(c)
        best = min(best, time.perf_counter() - t0)
    return best


def main(degrees) -> None:
    print("| degree M | table rows x columns | `grid-abs` build | tracemalloc peak | warm `grid` pass |")
    print("|---|---|---|---|---|")
    for M in degrees:
        seconds, peak_mb, (rows, cols) = build(M)
        pass_seconds = grid_pass(M)
        print(
            f"| {M} | {rows} x {cols} | {seconds:.2f} s | {peak_mb:.1f} MB | {pass_seconds:.3f} s |",
            flush=True,
        )


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or DEGREES)
