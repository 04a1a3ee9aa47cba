import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherefit import (
    CubatureRule,
    FilterSpec,
    HarmonicCoefficients,
    PenalizationWeights,
    SampleSet,
    SpherePoint,
    analyze,
    evaluate,
    evaluate_grid,
    evaluate_kernel_form,
    filtered_approx,
    gauss_legendre_rule,
    kernel_section,
    load_coefficients,
    operator_norm_bound,
    penalized_functional,
    probe_grid,
    regularized_fit,
    regularized_fit_via_solver,
    rkhs_norm_sq,
    save_coefficients,
    sph_harm_matrix,
)
from spherefit import _rings, approx, harmonics
from spherefit.approx import expand_by_degree

FOUR_PI = 4 * np.pi


def sample_polynomial(rule, coeffs):
    return SampleSet(rule, evaluate_grid(coeffs, rule.points))


def random_coeffs(M, rng):
    return HarmonicCoefficients(M, rng.normal(size=(M + 1) ** 2))


class TestAnalyze:
    def test_reproduces_polynomials(self):
        rng = np.random.default_rng(0)
        for M in (3, 9):
            rule = gauss_legendre_rule(M)
            p = random_coeffs(M, rng)
            out = analyze(sample_polynomial(rule, p), M)
            assert np.abs(out.values - p.values).max() <= 1e-9

    def test_constant_samples(self):
        rule = gauss_legendre_rule(4)
        out = analyze(SampleSet(rule, np.ones(rule.n_points)), 4)
        assert out.values[0] == pytest.approx(np.sqrt(FOUR_PI), abs=1e-10)
        assert out.values[0] == pytest.approx(3.5449077018, abs=1e-9)
        assert np.abs(out.values[1:]).max() <= 1e-10

    def test_single_harmonic(self):
        rule = gauss_legendre_rule(3)
        flat = 3 * 3 + 2 - 1  # (k=3, j=2)
        vals = sph_harm_matrix(3, rule.points)[flat]
        out = analyze(SampleSet(rule, vals), 3)
        expected = np.zeros(16)
        expected[flat] = 1.0
        assert np.abs(out.values - expected).max() <= 1e-10

    def test_insufficient_rule_rejected(self):
        rule = gauss_legendre_rule(3)
        with pytest.raises(ValueError):
            analyze(SampleSet(rule, np.zeros(rule.n_points)), 4)


class TestRegularizedFit:
    def test_alpha_zero_is_analysis(self):
        rng = np.random.default_rng(1)
        rule = gauss_legendre_rule(5)
        s = SampleSet(rule, rng.normal(size=rule.n_points))
        beta = PenalizationWeights(5, np.arange(6.0) + 1)
        assert np.array_equal(
            regularized_fit(s, 5, 0.0, beta).values, analyze(s, 5).values
        )

    def test_single_harmonic_damping(self):
        # unit data along (k0, j0) with alpha=1, beta_{k0}=2 -> coefficient 1/5
        M, k0, j0 = 4, 2, 1
        rule = gauss_legendre_rule(M)
        flat = k0 * k0 + j0 - 1
        vals = sph_harm_matrix(M, rule.points)[flat]
        beta = PenalizationWeights(M, np.array([0.0, 1.0, 2.0, 2.0, 2.0]))
        out = regularized_fit(SampleSet(rule, vals), M, 1.0, beta)
        assert out.values[flat] == pytest.approx(0.2, abs=1e-10)
        mask = np.ones(out.values.size, bool)
        mask[flat] = False
        assert np.abs(out.values[mask]).max() <= 1e-10

    def test_huge_alpha_annihilates(self):
        rng = np.random.default_rng(2)
        rule = gauss_legendre_rule(4)
        s = SampleSet(rule, rng.normal(size=rule.n_points))
        beta = PenalizationWeights(4, np.ones(5))
        out = regularized_fit(s, 4, 1e12, beta)
        ref = analyze(s, 4)
        assert np.abs(out.values).max() <= 1e-9 * np.abs(ref.values).max()

    def test_shrinkage_monotone_in_alpha(self):
        rng = np.random.default_rng(3)
        rule = gauss_legendre_rule(4)
        s = SampleSet(rule, rng.normal(size=rule.n_points))
        beta = PenalizationWeights(4, np.arange(5.0))
        prev = np.abs(regularized_fit(s, 4, 0.0, beta).values)
        for alpha in np.geomspace(1e-6, 1e3, 12):
            cur = np.abs(regularized_fit(s, 4, alpha, beta).values)
            assert np.all(cur <= prev + 1e-15)
            prev = cur

    def test_degree_mismatch_rejected(self):
        rule = gauss_legendre_rule(4)
        s = SampleSet(rule, np.zeros(rule.n_points))
        with pytest.raises(ValueError):
            regularized_fit(s, 4, 0.1, PenalizationWeights(3, np.ones(4)))


class TestSolverOracle:
    @pytest.mark.parametrize("M", [2, 5, 10])
    def test_matches_closed_form(self, M):
        rng = np.random.default_rng(M)
        rule = gauss_legendre_rule(M)
        for _ in range(4):
            s = SampleSet(rule, rng.normal(size=rule.n_points))
            alpha = float(rng.uniform(1e-6, 1.0))
            beta = PenalizationWeights(M, np.sort(rng.uniform(0.1, 5.0, M + 1)))
            closed = regularized_fit(s, M, alpha, beta)
            solved = regularized_fit_via_solver(s, M, alpha, beta)
            rel = np.abs(closed.values - solved.values).max() / (
                1e-30 + np.abs(closed.values).max()
            )
            assert rel <= 1e-8

    def test_alpha_zero_matches_analysis(self):
        rng = np.random.default_rng(4)
        rule = gauss_legendre_rule(3)
        s = SampleSet(rule, rng.normal(size=rule.n_points))
        beta = PenalizationWeights(3, np.ones(4))
        out = regularized_fit_via_solver(s, 3, 0.0, beta)
        ref = analyze(s, 3)
        assert np.abs(out.values - ref.values).max() <= 1e-8

    def test_scalar_case(self):
        # M=0 with constant samples: gamma = c*sqrt(4 pi)/(1+alpha*beta0^2)
        rule = gauss_legendre_rule(0)
        c, alpha, b0 = 2.5, 0.3, 1.7
        s = SampleSet(rule, np.full(rule.n_points, c))
        out = regularized_fit_via_solver(s, 0, alpha, PenalizationWeights(0, [b0]))
        assert out.values[0] == pytest.approx(
            c * np.sqrt(FOUR_PI) / (1 + alpha * b0**2), rel=1e-12
        )

    def test_degree_cap(self):
        rule = gauss_legendre_rule(41)
        s = SampleSet(rule, np.zeros(rule.n_points))
        with pytest.raises(ValueError):
            regularized_fit_via_solver(s, 41, 0.1, PenalizationWeights(41, np.ones(42)))


class TestEvaluate:
    def test_constant_mode(self):
        coeffs = HarmonicCoefficients(0, [1.0])
        for p in (SpherePoint(0, 0, 1), SpherePoint(1, 0, 0)):
            assert evaluate(coeffs, p) == pytest.approx(1 / np.sqrt(FOUR_PI), abs=1e-15)

    def test_zero_coefficients(self):
        assert evaluate(HarmonicCoefficients.zeros(3), SpherePoint(0, 1, 0)) == 0.0

    def test_kernel_form_agreement(self):
        rng = np.random.default_rng(5)
        M = 6
        rule = gauss_legendre_rule(M)
        s = SampleSet(rule, rng.normal(size=rule.n_points))
        alpha = 0.05
        beta = PenalizationWeights(M, np.arange(M + 1.0))
        gamma = regularized_fit(s, M, alpha, beta)
        pts = rng.normal(size=(100, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        direct = evaluate_grid(gamma, pts)
        kernel = evaluate_kernel_form(s, M, alpha, beta, pts)
        assert np.abs(direct - kernel).max() <= 1e-9

    def test_rejects_several_points(self):
        coeffs = HarmonicCoefficients(1, [1.0, 0.0, 2.0, 0.0])
        with pytest.raises(ValueError, match="one point"):
            evaluate(coeffs, [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])

    def test_grid_single_and_empty(self):
        rng = np.random.default_rng(6)
        coeffs = random_coeffs(2, rng)
        p = SpherePoint(0.1, -0.7, 0.9)
        assert evaluate_grid(coeffs, p)[0] == evaluate(coeffs, p)
        assert evaluate_grid(coeffs, np.empty((0, 3))).size == 0

    def test_odd_zonal_parity(self):
        # odd-degree zonal harmonics flip sign at antipodes
        coeffs = HarmonicCoefficients.zeros(3).values.copy()
        coeffs[3 * 3 + 3] = 1.0  # (k=3, m=0)
        cf = HarmonicCoefficients(3, coeffs)
        v = np.array([0.3, -0.2, 0.65])
        v /= np.linalg.norm(v)
        vals = evaluate_grid(cf, np.stack([v, -v]))
        assert vals[0] == pytest.approx(-vals[1], abs=1e-14)


def rel_err(fast, dense):
    return np.abs(fast - dense).max() / np.abs(dense).max()


def dense_values(M, pts, coeffs, chunk=2000):
    """Oracle synthesis through the dense harmonic matrix, in point chunks."""
    return np.concatenate(
        [sph_harm_matrix(M, pts[lo : lo + chunk]).T @ coeffs for lo in range(0, len(pts), chunk)]
    )


def dense_analysis(M, rule, values, chunk=2000):
    """Oracle analysis sum_i w_i Y(x_i) y_i through the dense matrix, in chunks."""
    wy = rule.weights * values
    return sum(
        sph_harm_matrix(M, rule.points[lo : lo + chunk]) @ wy[lo : lo + chunk]
        for lo in range(0, rule.n_points, chunk)
    )


def fibonacci_points(n):
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + 5.0**0.5) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


@pytest.fixture
def dense_calls(monkeypatch):
    """Degrees of the dense harmonic matrices that approx builds."""
    calls = []

    def counting(M, pts):
        calls.append(M)
        return sph_harm_matrix(M, pts)

    monkeypatch.setattr(approx, "sph_harm_matrix", counting)
    return calls


class TestRingTransform:
    @pytest.mark.parametrize("M", [0, 1, 2, 7, 30, 60])
    def test_matches_dense(self, M, dense_calls):
        rng = np.random.default_rng(100 + M)
        rule = gauss_legendre_rule(M)
        assert rule.rings is not None and rule.rings.azimuths == 2 * (M + 1)
        y = rng.normal(size=rule.n_points)
        fast = analyze(SampleSet(rule, y), M).values
        assert rel_err(fast, dense_analysis(M, rule, y)) <= 1e-12
        c = random_coeffs(M, rng)
        for pts in (rule.points, probe_grid(max(1, 2 * M))):
            assert rel_err(evaluate_grid(c, pts), dense_values(M, pts, c.values)) <= 1e-12
        assert dense_calls == []

    @settings(max_examples=30, deadline=None)
    @given(M=st.integers(0, 20), seed=st.integers(0, 2**32 - 1), resolution=st.integers(0, 20))
    def test_fast_equals_dense_property(self, M, seed, resolution):
        rng = np.random.default_rng(seed)
        rule = gauss_legendre_rule(M + resolution)
        c = rng.normal(size=(M + 1) ** 2) * rng.uniform(0, 1, size=(M + 1) ** 2) ** 4
        fast = evaluate_grid(HarmonicCoefficients(M, c), rule.points)
        assert rel_err(fast, dense_values(M, rule.points, c)) <= 1e-12
        y = rng.normal(size=rule.n_points)
        assert rel_err(analyze(SampleSet(rule, y), M).values, dense_analysis(M, rule, y)) <= 1e-12

    def test_degree_250_round_trip(self):
        # P_m^m ~ u^m underflows at the polar rings for large m; the transform
        # must still invert exactly on the rule
        M = 250
        rng = np.random.default_rng(250)
        rule = gauss_legendre_rule(M)
        c = rng.normal(size=(M + 1) ** 2)
        values = evaluate_grid(HarmonicCoefficients(M, c), rule.points)
        back = analyze(SampleSet(rule, values), M).values
        assert rel_err(back, c) <= 1e-12

    def test_scattered_points_take_dense_path(self, dense_calls):
        rng = np.random.default_rng(101)
        M = 6
        pts = fibonacci_points(300)
        rule = CubatureRule(M, pts, np.full(300, 4 * np.pi / 300))
        assert rule.rings is None
        c = random_coeffs(M, rng)
        y = rng.normal(size=300)
        assert np.array_equal(evaluate_grid(c, pts), sph_harm_matrix(M, pts).T @ c.values)
        assert np.array_equal(analyze(SampleSet(rule, y), M).values, dense_analysis(M, rule, y, chunk=300))
        assert dense_calls == [M, M]

    def test_permuted_nodes_take_dense_path(self, dense_calls):
        rng = np.random.default_rng(102)
        M = 7
        rule = gauss_legendre_rule(M)
        perm = rng.permutation(rule.n_points)
        shuffled = CubatureRule(M, rule.points[perm], rule.weights[perm])
        assert shuffled.rings is None
        y = rng.normal(size=rule.n_points)
        ring = analyze(SampleSet(rule, y), M).values
        dense = analyze(SampleSet(shuffled, y[perm]), M).values
        assert rel_err(dense, ring) <= 1e-12
        c = random_coeffs(M, rng)
        assert rel_err(evaluate_grid(c, rule.points[perm]), evaluate_grid(c, rule.points)[perm]) <= 1e-12
        assert dense_calls == [M, M]

    def test_weights_varying_along_ring_take_dense_path(self, dense_calls):
        rng = np.random.default_rng(103)
        M = 5
        rule = gauss_legendre_rule(M)
        phi = np.arctan2(rule.points[:, 1], rule.points[:, 0])
        # the cosine averages out over each ring, so the weights still sum to 4 pi
        tilted = CubatureRule(M, rule.points, rule.weights * (1 + 0.1 * np.cos(phi)))
        assert tilted.rings is None
        y = rng.normal(size=rule.n_points)
        fast = analyze(SampleSet(tilted, y), M).values
        assert rel_err(fast, dense_analysis(M, tilted, y)) <= 1e-12
        assert dense_calls == [M]

    def test_too_few_azimuths_take_dense_path(self, dense_calls):
        rng = np.random.default_rng(104)
        M = 4
        pts = gauss_legendre_rule(M - 1).points  # 2M azimuths per ring
        c = random_coeffs(M, rng)
        assert rel_err(evaluate_grid(c, pts), dense_values(M, pts, c.values)) <= 1e-12
        assert dense_calls == [M]


class TestOperatorNormBound:
    def test_degree_zero_closed_form(self):
        rule = gauss_legendre_rule(0)
        for alpha, b0 in ((0.5, 2.0), (3.0, 0.25)):
            nb = operator_norm_bound(
                rule, 0, alpha, PenalizationWeights(0, [b0]), probe_grid(2)
            )
            expected = 1 / (1 + alpha * b0**2)
            assert nb.estimate == pytest.approx(expected, abs=1e-10)
            assert nb.crude_upper == pytest.approx(expected, abs=1e-12)

    def test_alpha_zero_at_least_one(self):
        M = 8
        rule = gauss_legendre_rule(M)
        nb = operator_norm_bound(
            rule, M, 0.0, PenalizationWeights(M, np.ones(M + 1)), probe_grid(2 * M)
        )
        assert nb.estimate >= 1 - 1e-9

    def test_huge_alpha_vanishes(self):
        M = 4
        rule = gauss_legendre_rule(M)
        nb = operator_norm_bound(
            rule, M, 1e12, PenalizationWeights(M, np.ones(M + 1)), probe_grid(8)
        )
        assert nb.estimate <= 1e-10

    def test_estimate_below_crude(self):
        rng = np.random.default_rng(7)
        M = 5
        rule = gauss_legendre_rule(M)
        probes = probe_grid(10)
        for _ in range(5):
            alpha = float(rng.uniform(0, 0.5))
            beta = PenalizationWeights(M, np.sort(rng.uniform(0.0, 3.0, M + 1)))
            nb = operator_norm_bound(rule, M, alpha, beta, probes)
            assert nb.estimate <= nb.crude_upper

    def test_empty_probes_rejected(self):
        rule = gauss_legendre_rule(1)
        with pytest.raises(ValueError):
            operator_norm_bound(
                rule, 1, 0.1, PenalizationWeights(1, np.ones(2)), np.empty((0, 3))
            )


def probe_by_probe_sums(rule, probes, cols):
    """sum_i w_i |sum_k c_k P_k(x_p . x_i)| for every probe p and column c."""
    M = cols.shape[0] - 1
    out = np.empty((probes.shape[0], cols.shape[1]))
    for p, x in enumerate(probes):
        L = harmonics.legendre_matrix(M, np.clip(rule.points @ x, -1.0, 1.0))
        out[p] = rule.weights @ np.abs(L @ cols)
    return out


def assert_reduction_exact(rule, probes, cols):
    full = probe_by_probe_sums(rule, probes, cols)
    assert rel_err(approx._max_weighted_abs_kernel(rule, probes, cols), full.max(axis=0)) <= 1e-12
    M = cols.shape[0] - 1
    table = approx.weighted_abs_legendre_sums(rule, M, probes)
    assert table.shape == (probes.shape[0], M + 1)
    assert rel_err(table, probe_by_probe_sums(rule, probes, np.eye(M + 1))) <= 1e-12


def product_rule(t, ring_weights, azimuths, M):
    """Product rule with the given ring heights and per-ring weight shares."""
    u = np.sqrt(1.0 - t * t)
    phi = 2.0 * np.pi * np.arange(azimuths) / azimuths
    pts = np.stack(
        [np.outer(u, np.cos(phi)).ravel(), np.outer(u, np.sin(phi)).ravel(), np.repeat(t, azimuths)],
        axis=1,
    )
    w = np.repeat(ring_weights / ring_weights.sum() * FOUR_PI / azimuths, azimuths)
    return CubatureRule(M, pts, w)


class TestSupNormReduction:
    @settings(max_examples=25, deadline=None)
    @given(M=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_reduced_equals_full_property(self, M, seed, data):
        resolution = data.draw(st.integers(1, max(1, 3 * M)), label="resolution")
        rng = np.random.default_rng(seed)
        rule = gauss_legendre_rule(M)
        probes = probe_grid(resolution)
        assert _rings.probe_classes(rule.rings, _rings.ring_layout(probes)) is not None
        assert_reduction_exact(rule, probes, rng.normal(size=(M + 1, 3)))

    def test_class_count_on_default_probes(self):
        # (M+1)^2 classes on probe_grid(2M): M+1 mirrored ring pairs (the
        # equator alone) times M+1 azimuth keys
        for M in (1, 4, 30):
            classes = _rings.probe_classes(
                gauss_legendre_rule(M).rings, _rings.ring_layout(probe_grid(2 * M))
            )
            assert classes[0].size == (M + 1) ** 2
            assert classes[1].size == probe_grid(2 * M).shape[0]

    def test_scattered_probes_take_full_set(self):
        rng = np.random.default_rng(200)
        M = 6
        rule = gauss_legendre_rule(M)
        probes = fibonacci_points(200)
        assert _rings.probe_classes(rule.rings, _rings.ring_layout(probes)) is None
        assert_reduction_exact(rule, probes, rng.normal(size=(M + 1, 2)))

    @pytest.mark.parametrize(
        "t, ring_weights",
        [
            (np.array([-0.7, -0.1, 0.4, 0.9]), np.array([1.0, 2.0, 2.0, 1.0])),
            (np.array([-0.6, -0.2, 0.2, 0.6]), np.array([1.0, 2.0, 3.0, 1.5])),
        ],
        ids=["heights", "weights"],
    )
    def test_rule_without_mirror_rings_keeps_hemispheres_apart(self, t, ring_weights):
        rng = np.random.default_rng(201)
        M = 5
        rule = product_rule(t, ring_weights, 9, M)
        assert rule.rings is not None
        probes = probe_grid(8)
        probe_rings = _rings.ring_layout(probes)
        reps, inverse = _rings.probe_classes(rule.rings, probe_rings)
        # every probe ring is its own class; only the azimuth symmetry applies
        assert np.unique(probes[reps, 2]).size == probe_rings.meridian.shape[0]
        assert reps.size < probes.shape[0]
        assert_reduction_exact(rule, probes, rng.normal(size=(M + 1, 2)))

    def test_permuted_rule_takes_full_set(self):
        rng = np.random.default_rng(202)
        M = 5
        rule = gauss_legendre_rule(M)
        perm = rng.permutation(rule.n_points)
        shuffled = CubatureRule(M, rule.points[perm], rule.weights[perm])
        probes = probe_grid(2 * M)
        assert _rings.probe_classes(shuffled.rings, _rings.ring_layout(probes)) is None
        assert_reduction_exact(shuffled, probes, rng.normal(size=(M + 1, 2)))

    def test_operator_norm_bound_evaluates_one_probe_per_class(self, monkeypatch):
        sizes = []
        legendre_matrix = harmonics.legendre_matrix

        def counting(k_max, t, out=None):
            sizes.append(np.size(t))
            return legendre_matrix(k_max, t, out=out)

        monkeypatch.setattr(harmonics, "legendre_matrix", counting)
        M = 30
        rule = gauss_legendre_rule(M)
        beta = PenalizationWeights(M, np.arange(M + 1.0) ** 2)
        operator_norm_bound(rule, M, 1e-4, beta, probe_grid(2 * M))
        assert sum(sizes) == 961 * 1922


class TestFilters:
    def test_spline_values(self):
        h = FilterSpec.spline_c1()
        assert h(0.0) == 1.0 and h(0.5) == 1.0 and h(0.25) == 1.0
        assert h(0.75) == pytest.approx(0.5, abs=1e-15)
        assert h(1.0) == 0.0 and h(1.5) == 0.0
        ts = np.linspace(0, 2, 401)
        vals = h(ts)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_spline_c1_at_breakpoints(self):
        h = FilterSpec.spline_c1()
        step = 1e-7
        for b in (0.5, 0.75, 1.0):
            right = (h(b + step) - h(b)) / step
            left = (h(b) - h(b - step)) / step
            assert abs(right - left) <= 1e-6

    def test_fourier_partial_sum(self):
        h = FilterSpec.fourier_partial_sum()
        assert h(0.0) == 1.0 and h(1.0) == 1.0
        assert h(1.0000001) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec("boxcar")

    def test_filtered_low_degrees_unchanged(self):
        rng = np.random.default_rng(8)
        M = 8
        coeffs = random_coeffs(M, rng)
        out = filtered_approx(coeffs, FilterSpec.spline_c1())
        half = (M // 2 + 1) ** 2
        assert np.array_equal(out.values[:half], coeffs.values[:half])

    def test_filtered_three_quarters(self):
        M = 8
        vals = np.zeros((M + 1) ** 2)
        k = 6  # k/M = 3/4
        vals[k * k] = 2.0
        out = filtered_approx(HarmonicCoefficients(M, vals), FilterSpec.spline_c1())
        assert out.values[k * k] == pytest.approx(1.0, abs=1e-14)

    def test_fourier_is_identity(self):
        rng = np.random.default_rng(9)
        coeffs = random_coeffs(5, rng)
        out = filtered_approx(coeffs, FilterSpec.fourier_partial_sum())
        assert np.array_equal(out.values, coeffs.values)

    def test_reproduces_half_degree_polynomials(self):
        M = 10
        rng = np.random.default_rng(10)
        rule = gauss_legendre_rule(M)
        low = random_coeffs(M // 2, rng)
        padded = np.zeros((M + 1) ** 2)
        padded[: low.values.size] = low.values
        samples = sample_polynomial(rule, HarmonicCoefficients(M, padded))
        out = filtered_approx(analyze(samples, M), FilterSpec.spline_c1())
        assert np.abs(out.values - padded).max() <= 1e-9


class TestRkhs:
    def test_flat_weights_give_l2(self):
        rng = np.random.default_rng(11)
        coeffs = random_coeffs(4, rng)
        beta = PenalizationWeights(4, np.ones(5))
        assert rkhs_norm_sq(coeffs, beta) == pytest.approx(
            np.sum(coeffs.values**2), rel=1e-14
        )

    def test_unit_coefficient(self):
        vals = np.zeros(9)
        vals[2 * 2] = 1.0  # (k=2, j=1)
        beta = PenalizationWeights(2, [1.0, 2.0, 3.0])
        assert rkhs_norm_sq(HarmonicCoefficients(2, vals), beta) == 9.0

    def test_zero_coefficients(self):
        beta = PenalizationWeights(2, [0.0, 1.0, 2.0])
        assert rkhs_norm_sq(HarmonicCoefficients.zeros(2), beta) == 0.0

    def test_kernel_section_rejects_several_points(self):
        beta = PenalizationWeights(2, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="one point"):
            kernel_section(beta, [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])

    def test_reproducing_property_by_polarization(self):
        # <p, K(., x)> recovers p(x); inner product from the squared norm
        rng = np.random.default_rng(12)
        M = 5
        beta = PenalizationWeights(M, np.arange(M + 1.0) + 0.5)
        p = random_coeffs(M, rng)
        for _ in range(5):
            v = rng.normal(size=3)
            x = SpherePoint(*v)
            kx = kernel_section(beta, x)
            plus = HarmonicCoefficients(M, p.values + kx.values)
            minus = HarmonicCoefficients(M, p.values - kx.values)
            inner = (rkhs_norm_sq(plus, beta) - rkhs_norm_sq(minus, beta)) / 4
            assert inner == pytest.approx(evaluate(p, x), abs=1e-9)

    def test_kernel_section_needs_positive_weights(self):
        beta = PenalizationWeights(2, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            kernel_section(beta, SpherePoint(0, 0, 1))


class TestPenalizedFunctional:
    def test_exact_reproduction_zero(self):
        rng = np.random.default_rng(13)
        M = 4
        rule = gauss_legendre_rule(M)
        p = random_coeffs(M, rng)
        s = sample_polynomial(rule, p)
        beta = PenalizationWeights(M, np.ones(M + 1))
        assert penalized_functional(s, analyze(s, M), 0.0, beta) <= 1e-9

    def test_zero_coefficients(self):
        rng = np.random.default_rng(14)
        rule = gauss_legendre_rule(3)
        vals = rng.normal(size=rule.n_points)
        s = SampleSet(rule, vals)
        beta = PenalizationWeights(3, np.ones(4))
        expected = float(rule.weights @ vals**2)
        assert penalized_functional(
            s, HarmonicCoefficients.zeros(3), 0.7, beta
        ) == pytest.approx(expected, rel=1e-12)

    def test_minimizer_property(self):
        rng = np.random.default_rng(15)
        M = 4
        rule = gauss_legendre_rule(M)
        s = SampleSet(rule, rng.normal(size=rule.n_points))
        alpha = 0.2
        beta = PenalizationWeights(M, np.arange(M + 1.0) + 1)
        star = regularized_fit(s, M, alpha, beta)
        base = penalized_functional(s, star, alpha, beta)
        for _ in range(20):
            bump = rng.normal(scale=1e-3, size=star.values.size)
            perturbed = HarmonicCoefficients(M, star.values + bump)
            assert penalized_functional(s, perturbed, alpha, beta) >= base - 1e-12


class TestTypesAndSerialization:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            PenalizationWeights(2, [1.0, -0.5, 2.0])
        with pytest.raises(ValueError):
            PenalizationWeights(2, [2.0, 1.0, 3.0])
        PenalizationWeights(2, [0.0, 0.0, 1.0])  # zeros are fine

    def test_sample_length_mismatch(self):
        rule = gauss_legendre_rule(2)
        with pytest.raises(ValueError):
            SampleSet(rule, np.zeros(rule.n_points - 1))

    def test_coefficient_length(self):
        with pytest.raises(ValueError):
            HarmonicCoefficients(2, np.zeros(8))

    def test_coefficients_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        coeffs = random_coeffs(4, rng)
        path = tmp_path / "coeffs.csv"
        save_coefficients(coeffs, path)
        assert path.read_text().splitlines()[0] == "k,j,value"
        back = load_coefficients(path)
        assert back.degree_M == 4
        assert np.array_equal(back.values, coeffs.values)
