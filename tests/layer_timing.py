"""Wall time and tracemalloc peak of each layer of spherefit, by degree M.

Each section prints one table (`rotated-pass` one line):

  tables        one build of each part of a ring table (`_rings.degree_layout`,
                on M alone; `_rings.legendre_part`, on M and the ring heights;
                `_rings.trig_table`, on M and the azimuth count) and of a whole
                `_rings.ring_table` on a layout built beforehand (so the
                "whole table" column is the Legendre part and the trig table,
                not the layout), with its peak, on the rings of
                gauss_legendre_rule(M) and of probe_grid(2M), the probe rings
                of a balanced fit; beside them the Legendre part's bytes and
                the (M+1)^2 R 8 bytes of a zero-padded table on the same R
                rings.  A plan (`approx._Plan`) builds the layout once and a
                whole table on the rule's rings and on the probe rings.
  dense         the dense `sph_harm_matrix` on a rotated gauss_legendre_rule(M),
                which has no ring layout, and its size, up to DENSE_MAX_DEGREE.
  transforms    `analyze` of fresh samples and `evaluate_grid` at the nodes of
                the rotated rule: the harmonic matrix in blocks of points; and
                `penalized_functional` at alpha 1e-3 of samples whose analysis
                is kept, with Laplace-Beltrami weights, which makes no
                transform.
  exactness     the check `load_rule` runs (`cubature._check_exactness`, an
                analysis of the constant 1 at degree 2M) on
                gauss_legendre_rule(M), through the ring transform, and on the
                rotated rule up to ROTATED_MAX_DEGREE.
  norms         on gauss_legendre_rule(M) and the walk's probe rings
                (resolution 2M): one cold build of the `grid-abs` oracle on a
                fresh plan (`approx._Plan.norm`: the probe classes of
                `approx._probe_rings`, one table row per class) and the
                table's shape; one warm `grid` pass, the cost of a `grid` walk
                step; `evaluate_kernel_form` at 256 Fibonacci points.
  rotated-pass  one `grid` pass at M = 30 on the rotated rule: the kernel sums
                over every node at each of the 7442 points of probe_grid(60),
                in the degree loop of `approx._kernel_blocks`.
  walk          per step, a `crude` walk and an `l2` walk over the whole
                default grid (omega so high that all 59 steps run), on the
                reference fit's data: the Franke-plus-cap function at the
                nodes of gauss_legendre_rule(M), Gaussian noise of sigma 0.5
                (seed 1), Laplace-Beltrami weights.  A `crude` step is the
                probe sup of two successive fits' difference and nothing else;
                an `l2` step is that difference's L2 norm by Parseval and the
                threshold's closed form, O(M).  Both walk one `SampleSet` whose
                analysis is kept, on one plan per kind, so neither includes
                the analysis; the `crude` walk's plan builds its probe table
                first, outside the clock.  The `crude` walk runs up to
                CRUDE_WALK_MAX_DEGREE (its probe table takes 505 MB at
                M = 500), the `l2` walk at every degree.
  exp3          one `run_experiment_3(seed, 50)` at seeds 0 and 1, the bench's
                reference size, with the wall time of its two phases: the
                search (`kernel_select`: 101 walks, fits and functionals)
                and the comparison that follows it (50 noise draws and
                analyses, one batched walk per method, 100 fits and scores).
  accuracy      no timing: the largest error of the ring round trip
                `_rings.analysis(synthesis(c))` on gauss_legendre_rule(M),
                for normal coefficients c (seed M), and the largest relative
                error of the rule's M + 1 Gauss-Legendre weights against
                their long-double recomputation (`_support`), which needs an
                80-bit long double.

Before the tables one line names the BLAS thread setting
(`OPENBLAS_NUM_THREADS`, or `unset`) and `os.cpu_count()`: with OpenBLAS's
default threading on a 2-core machine one large matrix product sometimes
stalls for about 16 ms, so compare timings, and the last bits of a synthesis
at M >= 60, only between runs under one setting.

Rules and data are made before the clock starts.  Wall times are the minimum
of REPEATS calls without tracemalloc (the walk's of at least REPEATS walks
and MIN_SECONDS); a cold build, the kernel form, the rotated pass and
experiment 3 run once.  The peak, which counts every numpy array, comes from
one more call.  The rotated rule is gauss_legendre_rule(M) under the rotation
of seed 7 (seed 0 for the rotated pass).

Not collected by pytest (the name does not start with `test_`).  Run from the
repository root.  With no section named, all of them run, most of the time
going to the rotated exactness check at M = 120; the check at M = 500 peaks
near 1.1 GB.  `--degrees` replaces the default degrees of every section that
has them:

    PYTHONPATH=src python tests/layer_timing.py [SECTION ...] [--degrees M ...]
"""

from __future__ import annotations

import argparse
import time
from unittest import mock

import numpy as np

from _support import (
    blas_setting, fibonacci_points, longdouble_gauss_legendre, rotated_rule, timed, traced,
)

from spherefit import (
    BalancingConfig, HarmonicCoefficients, SampleSet, _rings, analyze, approx, balancing_principle,
    evaluate_grid, experiments, gauss_legendre_nodes, gauss_legendre_rule,
    penalized_functional, sph_harm_matrix, weights_laplace_beltrami,
)
from spherefit.cubature import _check_exactness

DEGREES = (30, 60, 120)
EXACTNESS_DEGREES = (30, 60, 120, 250, 500)
CRUDE_WALK_MAX_DEGREE = 250
# the dense matrix takes 222 MB at M = 60 and about 3.4 GB at M = 120
DENSE_MAX_DEGREE = 60
# the rotated exactness check costs O(M^4)
ROTATED_MAX_DEGREE = 120
ROTATED_PASS_DEGREE = 30
REPEATS = 3
MIN_SECONDS = 1.0
DATA_SEED = 1
EXP3_SEEDS = (0, 1)
EXP3_SIMULATIONS = 50
MB = 1e6


def row(*cells) -> None:
    print("| " + " | ".join(str(c) for c in cells) + " |", flush=True)


def header(*names) -> None:
    row(*names)
    row(*["---"] * len(names))


def tables(degrees) -> None:
    header(
        "degree M", "rings", "layout", "Legendre part", "trig table", "whole table",
        "tracemalloc peak", "Legendre values", "zero-padded table",
    )
    for M in degrees:
        layout = _rings.degree_layout(M)
        for label, res in (("rule", M), ("probe", 2 * M)):
            rings = gauss_legendre_rule(res).rings
            builds = (
                lambda: _rings.degree_layout(M),
                lambda: _rings.legendre_part(layout, rings.meridian),
                lambda: _rings.trig_table(M, rings.azimuths),
                lambda: _rings.ring_table(layout, rings),
            )
            times = [timed(build, REPEATS) for build in builds]
            R = rings.meridian.shape[0]
            values = _rings.legendre_part(layout, rings.meridian).P.nbytes
            row(
                M, f"{label} ({R} x {rings.azimuths})", *(f"{1e3 * s:.2f} ms" for s, _ in times),
                f"{times[-1][1] / MB:.2f} MB", f"{values / MB:.2f} MB",
                f"{(M + 1) ** 2 * R * 8 / MB:.2f} MB",
            )


def dense(degrees) -> None:
    header("degree M", "points", "dense matrix", "size", "tracemalloc peak")
    for M in (d for d in degrees if d <= DENSE_MAX_DEGREE):
        pts = rotated_rule(M, 7).points
        seconds, peak = timed(lambda: sph_harm_matrix(M, pts), REPEATS)
        size = (M + 1) ** 2 * pts.shape[0] * 8
        row(M, pts.shape[0], f"{seconds:.4f} s", f"{size / MB:.1f} MB", f"{peak / MB:.1f} MB")


def transforms(degrees) -> None:
    header("degree M", "points", "call", "wall", "tracemalloc peak")
    for M in degrees:
        rule = rotated_rule(M, 7)
        rng = np.random.default_rng(M)
        values = rng.normal(size=rule.n_points)
        coeffs = HarmonicCoefficients(M, rng.normal(size=(M + 1) ** 2))
        kept, beta = SampleSet(rule, values), weights_laplace_beltrami(M)
        analyze(kept, M)
        calls = {
            "analyze": lambda: analyze(SampleSet(rule, values), M),
            "evaluate_grid": lambda: evaluate_grid(coeffs, rule.points),
            "penalized_functional": lambda: penalized_functional(kept, coeffs, 1e-3, beta),
        }
        for name, fn in calls.items():
            seconds, peak = timed(fn, REPEATS)
            row(
                M, f"rotated, {rule.n_points}", name, f"{1e3 * seconds:.4g} ms",
                f"{peak / MB:.1f} MB",
            )


def exactness(degrees) -> None:
    header("degree M", "rule", "exactness check wall", "tracemalloc peak")
    cases = [("product", gauss_legendre_rule(M)) for M in degrees]
    cases += [("rotated", rotated_rule(M, 7)) for M in degrees if M <= ROTATED_MAX_DEGREE]
    for label, rule in cases:
        seconds, peak = timed(lambda: _check_exactness(rule), REPEATS)
        row(rule.degree_M, f"{label}, {rule.n_points}", f"{seconds:.3f} s", f"{peak / MB:.1f} MB")


def norms(degrees) -> None:
    header(
        "degree M", "table rows x columns", "`grid-abs` build", "tracemalloc peak",
        "warm `grid` pass", "kernel form, 256 points", "tracemalloc peak",
    )
    for M in degrees:
        rule = gauss_legendre_rule(M)
        build_s, build_peak = timed(lambda: approx._Plan(rule, M).norm("grid-abs"))
        rings, azimuths = _rings.probe_classes(rule.rings, approx._Plan(rule, M).probe_rings)
        sup, factors = approx._Plan(rule, M).norm("grid"), np.ones(M + 1)
        sup(factors)
        pass_s = timed(lambda: sup(factors), REPEATS)[0]
        samples = SampleSet(rule, np.sin(rule.points @ np.array([1.0, 2.0, 3.0])))
        beta, points = weights_laplace_beltrami(M), fibonacci_points(256)
        form = lambda: approx.evaluate_kernel_form(samples, M, 1e-4, beta, points)
        form_s, form_peak = timed(form)
        row(
            M, f"{rings.size * azimuths.size} x {M + 1}", f"{build_s:.3f} s",
            f"{build_peak / MB:.1f} MB", f"{pass_s:.3f} s", f"{form_s:.3f} s",
            f"{form_peak / MB:.1f} MB",
        )


def rotated_pass() -> None:
    M = ROTATED_PASS_DEGREE
    rule = rotated_rule(M, 0)
    assert rule.rings is None
    sup = approx._Plan(rule, M).norm("grid")
    seconds, peak = timed(lambda: sup(np.ones(M + 1)))
    print(
        f"rotated gauss_legendre_rule({M}), one `grid` pass on probe_grid({2 * M}): "
        f"{seconds:.2f} s, tracemalloc peak {peak / MB:.1f} MB",
        flush=True,
    )


def walk(degrees) -> None:
    d = experiments.DEFAULTS
    header("degree M", "steps", "`crude` per step", "`crude` peak", "`l2` per step", "`l2` peak")
    for M in degrees:
        rule = gauss_legendre_rule(M)
        clean = experiments.franke_cap_eval(rule.points)
        spec = experiments.NoiseSpec("gaussian", d["gaussian_sigma"], DATA_SEED)
        noisy, delta = experiments.add_noise(clean, spec)
        beta = weights_laplace_beltrami(M)
        cells = []
        for bound in ("crude", "l2"):
            if bound == "crude" and M > CRUDE_WALK_MAX_DEGREE:
                cells += ["—", "—"]
                continue
            cfg = BalancingConfig(
                alpha0=d["grid_anchor"], q=d["grid_ratio"], L=d["grid_len"], omega=1e12,
                delta=delta, norm_bound=bound,
            )
            plan, samples = approx._Plan(rule, M), SampleSet(rule, noisy)
            run = lambda: balancing_principle(samples, M, beta, cfg, plan=plan)
            steps = len(run().trace)
            best, peak = timed(run, REPEATS, MIN_SECONDS)
            cells += [f"{1e6 * best / steps:.2f} us", f"{peak / MB:.3f} MB"]
        row(M, steps, *cells)


def exp3() -> None:
    marks = {}
    inner = experiments.kernel_select

    def timed_search(*args, **kwargs):
        marks["search"] = time.perf_counter()
        result = inner(*args, **kwargs)
        marks["comparison"] = time.perf_counter()
        return result

    header("seed", "op wall", "search", "comparison", "tracemalloc peak")
    # `run_experiment_3` looks the search up in experiments
    with mock.patch.object(experiments, "kernel_select", timed_search):
        for seed in EXP3_SEEDS:
            t0 = time.perf_counter()
            experiments.run_experiment_3(seed, EXP3_SIMULATIONS)
            end = time.perf_counter()
            search, comparison = marks["comparison"] - marks["search"], end - marks["comparison"]
            peak = traced(lambda: experiments.run_experiment_3(seed, EXP3_SIMULATIONS)).peak
            row(
                seed, f"{1e3 * (end - t0):.1f} ms", f"{1e3 * search:.1f} ms",
                f"{1e3 * comparison:.1f} ms", f"{peak / MB:.2f} MB",
            )


def accuracy(degrees) -> None:
    header("degree M", "ring round trip, max error", "nodes n", "weights, max relative error")
    longdouble = np.finfo(np.longdouble).nmant >= 63
    for M in degrees:
        table = _rings.ring_table(_rings.degree_layout(M), gauss_legendre_rule(M).rings)
        c = np.random.default_rng(M).normal(size=(M + 1) ** 2)
        trip = np.abs(_rings.analysis(table, _rings.synthesis(table, c)) - c).max()
        t, v = gauss_legendre_nodes(M + 1)
        w = longdouble_gauss_legendre(t)[1]
        error = f"{np.abs((v - w) / w).max():.2e}" if longdouble else "no 80-bit long double"
        row(M, f"{trip:.2e}", M + 1, error)


# each section and its default degrees (None: a fixed size)
SECTIONS = {
    "tables": (tables, DEGREES),
    "dense": (dense, DEGREES),
    "transforms": (transforms, DEGREES),
    "exactness": (exactness, EXACTNESS_DEGREES),
    "norms": (norms, DEGREES),
    "rotated-pass": (rotated_pass, None),
    "walk": (walk, EXACTNESS_DEGREES),
    "exp3": (exp3, None),
    "accuracy": (accuracy, EXACTNESS_DEGREES),
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="*", metavar="SECTION", help=", ".join(SECTIONS))
    parser.add_argument("--degrees", type=int, nargs="+", help="in place of each section's defaults")
    args = parser.parse_args(argv)
    unknown = set(args.sections) - set(SECTIONS)
    if unknown:
        parser.error(f"unknown sections {sorted(unknown)}; choose from {', '.join(SECTIONS)}")
    print(blas_setting())
    for name in args.sections or SECTIONS:
        section, defaults = SECTIONS[name]
        print()
        section() if defaults is None else section(args.degrees or defaults)


if __name__ == "__main__":
    main()
