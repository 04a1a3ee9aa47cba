"""Cost of the transforms on scattered points and of the exactness check.

Prints two tables.  The first gives, for a randomly rotated
`gauss_legendre_rule(M)`, which is no product grid and so takes the harmonic
matrix in blocks of points, the wall time and the tracemalloc peak of
`analyze` of fresh samples and of `evaluate_grid` at the rule's nodes.  The
second gives the same for the exactness check that `load_rule` runs
(`cubature._check_exactness`, an analysis of the constant 1 at degree 2M):
on `gauss_legendre_rule(M)`, which takes the ring transform, and on the
rotated rules.  Wall times are the minimum of REPEATS calls without
tracemalloc; the peak, which counts every numpy array, comes from one more
call.

Not collected by pytest (the name does not start with `test_`).  Run from the
repository root (about two minutes, most of it the rotated exactness check at
M = 120; the check at M = 500 peaks near 1.1 GB):

    PYTHONPATH=src python tests/transform_timing.py \\
        [--transform M ...] [--exact-product M ...] [--exact-rotated M ...]

Each option replaces the default degrees of its rows; an option given no
degrees drops them.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from spherefit import CubatureRule, HarmonicCoefficients, SampleSet, analyze, evaluate_grid
from spherefit.cubature import _check_exactness, gauss_legendre_rule

REPEATS = 3


def measure(fn) -> tuple[float, float]:
    """Minimum wall seconds over REPEATS calls of fn(), and the tracemalloc
    peak in MB of one more call."""
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak / 1e6


def rotated_rule(M: int) -> CubatureRule:
    """gauss_legendre_rule(M) under a fixed random rotation."""
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))
    rule = gauss_legendre_rule(M)
    return CubatureRule(M, rule.points @ q.T, rule.weights)


def row(*cells) -> None:
    print("| " + " | ".join(str(c) for c in cells) + " |", flush=True)


def main(transform, exact_product, exact_rotated) -> None:
    row("degree M", "points", "call", "wall", "tracemalloc peak")
    row("---", "---", "---", "---", "---")
    for M in transform:
        rule = rotated_rule(M)
        rng = np.random.default_rng(M)
        values = rng.normal(size=rule.n_points)
        coeffs = HarmonicCoefficients(M, rng.normal(size=(M + 1) ** 2))
        calls = {
            "analyze": lambda: analyze(SampleSet(rule, values), M),
            "evaluate_grid": lambda: evaluate_grid(coeffs, rule.points),
        }
        for name, fn in calls.items():
            seconds, peak = measure(fn)
            row(M, f"rotated, {rule.n_points}", name, f"{seconds:.3f} s", f"{peak:.1f} MB")
    print()
    row("degree M", "rule", "exactness check wall", "tracemalloc peak")
    row("---", "---", "---", "---")
    cases = [("product", M, gauss_legendre_rule) for M in exact_product]
    cases += [("rotated", M, rotated_rule) for M in exact_rotated]
    for label, M, make in cases:
        rule = make(M)
        seconds, peak = measure(lambda: _check_exactness(rule))
        row(M, f"{label}, {rule.n_points}", f"{seconds:.3f} s", f"{peak:.1f} MB")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transform", type=int, nargs="*", default=[30, 60, 120])
    parser.add_argument("--exact-product", type=int, nargs="*", default=[30, 60, 120, 250, 500])
    parser.add_argument("--exact-rotated", type=int, nargs="*", default=[30, 60, 120])
    args = parser.parse_args()
    main(args.transform, args.exact_product, args.exact_rotated)
