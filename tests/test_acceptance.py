"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
for passing tests too (pytest otherwise shows captured output only on
failure).
"""

import time

import numpy as np
import pytest

from spherefit import (
    FilterSpec,
    HarmonicCoefficients,
    PenalizationWeights,
    SampleSet,
    analyze,
    evaluate,
    evaluate_grid,
    filtered_approx,
    gauss_legendre_rule,
    kernel_section,
    operator_norm_bound,
    penalized_functional,
    probe_grid,
    regularized_fit,
    rerun_from_config,
    rkhs_norm_sq,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
    sph_harm_matrix,
)
from spherefit.experiments import write_experiment_1, write_experiment_2

from _criterion6 import predicted_ratio, simulated_ratio
from _dense_solver import regularized_fit_via_solver
from _scalar import unit

FOUR_PI = 4 * np.pi


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def median_curve(result, method):
    return float(np.median([e for _, e in result.curves[method]]))


def test_criterion_1_cubature_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for M in (3, 8, 15, 30):
        rule = gauss_legendre_rule(M)
        Y = sph_harm_matrix(2 * M, rule.points)
        rng = np.random.default_rng(100 + M)
        C = rng.normal(size=(100, (2 * M + 1) ** 2))
        approx_ints = (C @ Y) @ rule.weights
        exact_ints = np.sqrt(FOUR_PI) * C[:, 0]
        scaled = np.abs(approx_ints - exact_ints) / (1 + np.linalg.norm(C, axis=1))
        worst = max(worst, float(scaled.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30
    assert report(
        1, ok, f"cubature exactness, worst scaled residual {worst:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_2_solver_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2)
    for M in (2, 5, 10):
        rule = gauss_legendre_rule(M)
        for _ in range(20):
            samples = SampleSet(rule, rng.normal(size=rule.n_points))
            alpha = float(10 ** rng.uniform(-6, 0))
            beta = PenalizationWeights(M, np.sort(rng.uniform(0.05, 4.0, M + 1)))
            closed = regularized_fit(samples, M, alpha, beta)
            solved = regularized_fit_via_solver(samples, M, alpha, beta)
            rel = np.abs(closed.values - solved.values).max() / np.abs(closed.values).max()
            worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60
    assert report(
        2, ok, f"closed form vs dense solve, worst relative gap {worst:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_3_hyperinterpolation_reproduction():
    t0 = time.perf_counter()
    M = 30
    rule = gauss_legendre_rule(M)
    Y = sph_harm_matrix(M, rule.points)
    rng = np.random.default_rng(3)
    C = rng.normal(size=(50, (M + 1) ** 2))
    values = C @ Y
    analyzed = (values * rule.weights) @ Y.T
    worst = float(np.abs(analyzed - C).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30
    assert report(
        3, ok, f"projection reproduces degree-30 polynomials, worst dev {worst:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_4_addition_theorem():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(1000, 3))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    zs = rng.normal(size=(1000, 3))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    Yx = sph_harm_matrix(60, xs)
    Yz = sph_harm_matrix(60, zs)
    dots = np.clip(np.einsum("ij,ij->i", xs, zs), -1, 1)
    from spherefit.harmonics import legendre_matrix

    L = legendre_matrix(60, dots)
    worst = 0.0
    for k in range(61):
        sl = slice(k * k, (k + 1) ** 2)
        lhs = np.einsum("ji,ji->i", Yx[sl], Yz[sl])
        rhs = (2 * k + 1) / FOUR_PI * L[:, k]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10
    assert report(
        4, ok, f"addition theorem to degree 60, worst dev {worst:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_5_filter_correctness():
    t0 = time.perf_counter()
    h = FilterSpec.spline_c1()
    checks = []
    ts_low = np.linspace(0, 0.5, 101)
    checks.append(np.all(h(ts_low) == 1.0))
    ts_high = np.linspace(1.0000001, 5, 101)
    checks.append(np.all(h(ts_high) == 0.0))
    checks.append(abs(h(0.75) - 0.5) < 1e-15)
    step = 1e-7
    for b in (0.5, 0.75, 1.0):
        right = (h(b + step) - h(b)) / step
        left = (h(b) - h(b - step)) / step
        checks.append(abs(right - left) <= 1e-6)

    # filtered projection reproduces polynomials up to half the degree
    M = 30
    rule = gauss_legendre_rule(M)
    rng = np.random.default_rng(5)
    low = rng.normal(size=(M // 2 + 1) ** 2)
    padded = np.zeros((M + 1) ** 2)
    padded[: low.size] = low
    coeffs = HarmonicCoefficients(M, padded)
    samples = SampleSet(rule, evaluate_grid(coeffs, rule.points))
    filtered = filtered_approx(analyze(samples, M), h)
    worst = float(np.abs(filtered.values - padded).max())
    checks.append(worst <= 1e-9)
    elapsed = time.perf_counter() - t0
    ok = all(checks)
    assert report(
        5, ok, f"filter shape, C1 joins, half-degree reproduction {worst:.2e} ({elapsed:.1f}s)"
    )


@pytest.fixture(scope="module")
def experiment_1_full():
    return run_experiment_1(simulations=50, seed=0)


def test_criterion_6_plain_ls_ratio(experiment_1_full):
    t0 = time.perf_counter()
    med_a = median_curve(experiment_1_full, "plain-ls")
    med_c = median_curve(experiment_1_full, "ones-best")
    med_d = median_curve(experiment_1_full, "apriori-best")
    ratio = med_a / med_d
    elapsed = time.perf_counter() - t0
    ok = 1.5 <= ratio <= 5.0
    assert report(
        6,
        ok,
        f"median plain-LS / median a-priori-best = {ratio:.1f}, required in [1.5, 5] "
        f"(for reference, plain-LS / flat-weights-best = {med_a / med_c:.2f}) ({elapsed:.1f}s)",
    )


def test_criterion_6_bp_tracks_oracle(experiment_1_full):
    med_b = median_curve(experiment_1_full, "apriori-bp")
    med_d = median_curve(experiment_1_full, "apriori-best")
    ok = med_b <= 1.25 * med_d
    assert report(
        6,
        ok,
        f"balanced alpha vs oracle alpha with the same weights: "
        f"{med_b:.4f} <= 1.25 * {med_d:.4f}",
    )


# Spread of simulated / predicted - 1 over seeds 0-39 (20 simulations each):
# standard deviation 0.028, 0.015, 0.020 and largest deviation 0.073, 0.031,
# 0.044 at the three cells below.  0.1 is about 3.5 standard deviations at
# the reference cell and above every deviation seen; the mean deviation is
# under 0.002 at each cell, so the prediction carries no visible bias.
@pytest.mark.parametrize("decay, noise", [(1.2, 0.05), (1.05, 0.05), (1.1, 0.05)])
def test_criterion_6_ratio_matches_closed_form(decay, noise):
    # the ratio criterion 6 bounds is what the closed-form expected error of
    # experiment 1's model predicts, at the reference cell (far outside
    # [1.5, 5]) and at two milder cells inside it
    predicted = predicted_ratio(decay, noise)
    simulated = simulated_ratio(decay, noise, seed=0, simulations=20)
    assert simulated == pytest.approx(predicted, rel=0.1)


def test_criterion_7_franke_balancing_band():
    t0 = time.perf_counter()
    in_band = 0
    denoised = 0
    alphas = []
    for seed in range(10):
        res = run_experiment_2(seed=seed)
        a = res.report.alpha_star
        alphas.append(a)
        in_band += 1e-5 <= a <= 1e-3
        denoised += res.report.sup_error < res.noisy_sup_error
    elapsed = time.perf_counter() - t0
    ok = in_band >= 8 and denoised == 10 and elapsed < 300
    assert report(
        7,
        ok,
        f"alpha_star in [1e-5, 1e-3] for {in_band}/10 seeds "
        f"(range {min(alphas):.2e}..{max(alphas):.2e}), denoised {denoised}/10 ({elapsed:.1f}s)",
    )


def test_criterion_8_kernel_selection_direction():
    t0 = time.perf_counter()
    res = run_experiment_3(seed=0, simulations=50)
    med_lb = median_curve(res, "laplace-beltrami+bp")
    med_sel = median_curve(res, "selected-kernel+bp")
    b = res.selection.best
    in_box = 0 <= b.lambda1 <= 5 and 0 <= b.lambda2 <= 5
    elapsed = time.perf_counter() - t0
    ok = med_sel <= med_lb and in_box and elapsed < 900
    assert report(
        8,
        ok,
        f"selected ({b.lambda1:.2f}, {b.lambda2:.2f}) median {med_sel:.4f} "
        f"vs ladder median {med_lb:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    checks = []

    # coefficient shrinkage monotone in alpha
    M = 6
    rule = gauss_legendre_rule(M)
    samples = SampleSet(rule, rng.normal(size=rule.n_points))
    beta = PenalizationWeights(M, np.arange(M + 1.0) + 0.5)
    prev = np.abs(regularized_fit(samples, M, 0.0, beta).values)
    mono = True
    for alpha in np.geomspace(1e-8, 1e4, 25):
        cur = np.abs(regularized_fit(samples, M, alpha, beta).values)
        mono &= bool(np.all(cur <= prev + 1e-15))
        prev = cur
    checks.append(mono)

    # minimizer property under random perturbations
    alpha = 0.15
    star = regularized_fit(samples, M, alpha, beta)
    base = penalized_functional(samples, star, alpha, beta)
    minimal = all(
        penalized_functional(
            samples,
            HarmonicCoefficients(M, star.values + rng.normal(scale=1e-3, size=star.values.size)),
            alpha,
            beta,
        )
        >= base - 1e-12
        for _ in range(20)
    )
    checks.append(minimal)

    # reproducing property through the polarized inner product
    reproduced = True
    p = HarmonicCoefficients(M, rng.normal(size=(M + 1) ** 2))
    for _ in range(10):
        x = unit(*rng.normal(size=3))
        kx = kernel_section(beta, x)
        plus = HarmonicCoefficients(M, p.values + kx.values)
        minus = HarmonicCoefficients(M, p.values - kx.values)
        inner = (rkhs_norm_sq(plus, beta) - rkhs_norm_sq(minus, beta)) / 4
        reproduced &= abs(inner - evaluate(p, x)) <= 1e-9
    checks.append(reproduced)

    # operator-norm estimate: below the crude bound, and >= 1 at alpha = 0
    M30 = 30
    rule30 = gauss_legendre_rule(M30)
    beta30 = PenalizationWeights(M30, np.arange(M30 + 1.0))
    probes = probe_grid(2 * M30)
    nb0 = operator_norm_bound(rule30, M30, 0.0, beta30, probes)
    checks.append(nb0.estimate >= 1 - 1e-9)
    checks.append(nb0.estimate <= nb0.crude_upper)
    for alpha in (1e-4, 0.05):
        nb = operator_norm_bound(rule30, M30, alpha, beta30, probes)
        checks.append(nb.estimate <= nb.crude_upper)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 120
    assert report(
        9,
        ok,
        f"shrinkage/minimizer/reproducing/norm-bound properties all hold ({elapsed:.1f}s)",
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    import json

    res1 = run_experiment_1(simulations=3, seed=17)
    paths1 = write_experiment_1(res1, tmp_path / "exp1_a")
    echo = json.loads(paths1[0].read_text())[0]["config"]
    paths2 = write_experiment_1(rerun_from_config(echo), tmp_path / "exp1_b")
    same1 = all(p1.read_bytes() == p2.read_bytes() for p1, p2 in zip(paths1, paths2))

    res2 = run_experiment_2(seed=17)
    paths3 = write_experiment_2(res2, tmp_path / "exp2_a")
    echo2 = json.loads(paths3[0].read_text())["config"]
    paths4 = write_experiment_2(rerun_from_config(echo2), tmp_path / "exp2_b")
    same2 = all(p1.read_bytes() == p2.read_bytes() for p1, p2 in zip(paths3, paths4))
    elapsed = time.perf_counter() - t0
    ok = same1 and same2
    assert report(
        10, ok, f"re-runs from config echoes are byte-identical ({elapsed:.1f}s)"
    )
