"""Cost of a balancing-walk step, alone and inside experiment 3.

Prints two tables.  The first gives, for M = 30, 60 and 120, the wall time
per step and the tracemalloc peak of one walk over the whole default grid
(alpha_i = 8 * 0.8^i, i = 1..60: omega is set so high that no step
triggers, so every walk takes 59 steps).  The data are the reference fit's:
the Franke-plus-cap function at the nodes of gauss_legendre_rule(M),
Gaussian noise of sigma 0.5 (seed 1) and Laplace-Beltrami weights.  The
walk uses the `crude` bound, so a step is the difference of two successive
fits in the probe-grid sup norm and nothing else.  Each walk is on a fresh
`SampleSet`, so it includes one analysis; the walks share one plan
(`approx._Plan`), so the ring tables are built once, before the clock.  Wall
times are the minimum over at least REPEATS walks and MIN_SECONDS, without
tracemalloc; the peak comes from one more walk.

The second table gives, for one `run_experiment_3(seed, 50)` (seeds 0 and 1,
the bench's reference size), its wall time, its walks and steps, the wall
time of its walks per step (the `grid-abs` threshold included), and the
tracemalloc peak of a second run.  Each run builds its own plan: the ring
tables and the walks' `grid-abs` oracle.

Not collected by pytest (the name does not start with `test_`).  Run from the repository root (about 20 s; pass
degrees to run fewer, e.g. `30 60`):

    PYTHONPATH=src python tests/walk_step_timing.py [M ...]
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from spherefit import (
    BalancingConfig,
    SampleSet,
    approx,
    balancing_principle,
    experiments,
    gauss_legendre_rule,
    params,
    weights_laplace_beltrami,
)

DEGREES = (30, 60, 120)
DATA_SEED = 1
EXP3_SEEDS = (0, 1)
EXP3_SIMULATIONS = 50
# timed walks per degree: at least REPEATS, and at least MIN_SECONDS of them
REPEATS = 5
MIN_SECONDS = 1.0


def traced_peak(run) -> float:
    """tracemalloc peak in MB of one call of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def walk_table(degrees) -> None:
    d = experiments.DEFAULTS
    print("| degree M | steps | wall per step | tracemalloc peak |")
    print("|---|---|---|---|")
    for M in degrees:
        rule = gauss_legendre_rule(M)
        clean = experiments.franke_cap_eval(rule.points)
        spec = experiments.NoiseSpec("gaussian", d["gaussian_sigma"], DATA_SEED)
        noisy, delta = experiments.add_noise(clean, spec)
        beta = weights_laplace_beltrami(M)
        cfg = BalancingConfig(
            alpha0=d["grid_anchor"], q=d["grid_ratio"], L=d["grid_len"], omega=1e12,
            delta=delta, norm_bound="crude",
        )
        plan = approx._Plan(rule, M, cfg.resolution(M))
        walk = lambda: balancing_principle(SampleSet(rule, noisy), M, beta, cfg, plan=plan)
        steps = len(walk().trace)
        best, spent, runs = np.inf, 0.0, 0
        while runs < REPEATS or spent < MIN_SECONDS:
            t0 = time.perf_counter()
            walk()
            took = time.perf_counter() - t0
            best, spent, runs = min(best, took), spent + took, runs + 1
        peak = traced_peak(walk)
        print(f"| {M} | {steps} | {1e6 * best / steps:.1f} us | {peak:.2f} MB |", flush=True)


def exp3_table() -> None:
    """Wall time of experiment 3 and of its walks, counted by wrapping the
    public `balancing_principle` where the kernel search and the driver
    look it up."""
    walks = {"calls": 0, "steps": 0, "seconds": 0.0}
    inner = params.balancing_principle

    def counted(*args, **kwargs):
        t0 = time.perf_counter()
        result = inner(*args, **kwargs)
        walks["seconds"] += time.perf_counter() - t0
        walks["calls"] += 1
        walks["steps"] += len(result.trace)
        return result

    print("| seed | op wall | walks | steps | walk wall per step | tracemalloc peak |")
    print("|---|---|---|---|---|---|")
    params.balancing_principle = experiments.balancing_principle = counted
    try:
        for seed in EXP3_SEEDS:
            walks.update(calls=0, steps=0, seconds=0.0)
            t0 = time.perf_counter()
            experiments.run_experiment_3(seed, EXP3_SIMULATIONS)
            wall = time.perf_counter() - t0
            calls, steps, seconds = walks["calls"], walks["steps"], walks["seconds"]
            peak = traced_peak(lambda: experiments.run_experiment_3(seed, EXP3_SIMULATIONS))
            print(
                f"| {seed} | {wall:.3f} s | {calls} | {steps} | "
                f"{1e6 * seconds / steps:.1f} us | {peak:.2f} MB |",
                flush=True,
            )
    finally:
        params.balancing_principle = experiments.balancing_principle = inner


def main(degrees) -> None:
    walk_table(degrees)
    print()
    exp3_table()


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or DEGREES)
