"""Cost of the harmonic recurrence: ring-transform tables and dense matrices.

Prints two tables.  The first gives, for M = 30, 60 and 120, the wall time
of one build of each part of a ring table (`_rings.degree_layout`, which
depends on M alone; `_rings.legendre_part`, on M and the ring heights;
`_rings.trig_table`, on M and the azimuth count) and of a whole one-shot
`_rings.ring_table`, with the tracemalloc peak of the whole build, on the
rings of `gauss_legendre_rule(M)` and on those of the probe grid
`probe_grid(2M)`, the probe rings of a balanced fit at degree M.  Beside
each it gives the Legendre part's bytes and the (M+1)^2 R 8 bytes of a
zero-padded (M+1, M+1, R) table on the same R rings.  A plan
(`approx._Plan`) builds the layout once and the Legendre part once per ring
set, and a trig table per azimuth count it is asked for.  The second table
gives the same for the dense `sph_harm_matrix` on a randomly rotated
`gauss_legendre_rule(M)`, which has no ring layout, at the degrees up to 60,
with the matrix's own size.  Wall times are the minimum of REPEATS builds
without tracemalloc; the peak, which counts every numpy array, comes from
one more build.

Not collected by pytest (the name does not start with `test_`).  Run from the
repository root (about 10 s; pass degrees to run fewer, e.g. `30 60`):

    PYTHONPATH=src python tests/legendre_table_timing.py [M ...]
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from spherefit import _rings
from spherefit.cubature import gauss_legendre_rule
from spherefit.harmonics import sph_harm_matrix

DEGREES = (30, 60, 120)
# the dense matrix takes 222 MB at M = 60 and about 3.4 GB at M = 120
DENSE_MAX_DEGREE = 60
REPEATS = 5


def measure(build) -> tuple[float, float]:
    """Minimum wall seconds over REPEATS calls of build(), and the
    tracemalloc peak in MB of one more call."""
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak / 1e6


def rotated_rule_points(M: int) -> np.ndarray:
    """Nodes of gauss_legendre_rule(M) under a fixed random rotation."""
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))
    return gauss_legendre_rule(M).points @ q.T


def main(degrees) -> None:
    print(
        "| degree M | rings | layout | Legendre part | trig table | whole table "
        "| tracemalloc peak | Legendre values | zero-padded table |"
    )
    print("|---|---|---|---|---|---|---|---|---|")
    for M in degrees:
        layout = _rings.degree_layout(M)
        for label, res in (("rule", M), ("probe", 2 * M)):
            rings = gauss_legendre_rule(res).rings
            layout_s = measure(lambda: _rings.degree_layout(M))[0]
            legendre_s = measure(lambda: _rings.legendre_part(layout, rings.meridian))[0]
            trig_s = measure(lambda: _rings.trig_table(M, rings.azimuths))[0]
            whole_s, peak = measure(lambda: _rings.ring_table(M, rings))
            R = rings.meridian.shape[0]
            values = _rings.legendre_part(layout, rings.meridian).P.nbytes / 1e6
            padded = (M + 1) ** 2 * R * 8 / 1e6
            print(
                f"| {M} | {label} ({R} x {rings.azimuths}) | {1e3 * layout_s:.2f} ms "
                f"| {1e3 * legendre_s:.2f} ms | {1e3 * trig_s:.2f} ms | {1e3 * whole_s:.2f} ms "
                f"| {peak:.2f} MB | {values:.2f} MB | {padded:.2f} MB |",
                flush=True,
            )
    print()
    print("| degree M | points | dense matrix | size | tracemalloc peak |")
    print("|---|---|---|---|---|")
    for M in (d for d in degrees if d <= DENSE_MAX_DEGREE):
        pts = rotated_rule_points(M)
        seconds, peak = measure(lambda: sph_harm_matrix(M, pts))
        size = (M + 1) ** 2 * pts.shape[0] * 8 / 1e6
        print(f"| {M} | {pts.shape[0]} | {seconds:.4f} s | {size:.1f} MB | {peak:.1f} MB |", flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or DEGREES)
