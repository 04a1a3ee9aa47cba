import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _dense_solver import regularized_fit_via_solver
from _scalar import sph_harm_matrix_loop, unit
from _support import (
    fibonacci_points, legendre_blocks, norm_probe_points, random_unit, record_table_probes,
    ring_grid, rotated_rule, synthesized_functional, traced, zonal_sums,
)

from spherefit import (
    CubatureRule,
    FilterSpec,
    HarmonicCoefficients,
    PenalizationWeights,
    SampleSet,
    analyze,
    evaluate,
    evaluate_grid,
    filtered_approx,
    gauss_legendre_nodes,
    gauss_legendre_rule,
    kernel_section,
    load_coefficients,
    operator_norm_bound,
    penalized_functional,
    probe_grid,
    regularized_fit,
    rkhs_norm_sq,
    save_coefficients,
    sph_harm_matrix,
)
from spherefit import _rings, approx, experiments, harmonics, params
from spherefit.approx import evaluate_kernel_form, expand_by_degree

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

    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(0, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_closed_form_equals_dense_solve(self, M, seed, data):
        # non-decreasing beta with zeros allowed (unpenalized low degrees), alpha in [0, 1]
        steps = data.draw(st.lists(st.floats(0.0, 5.0), min_size=M + 1, max_size=M + 1))
        beta = PenalizationWeights(M, np.cumsum(steps))
        alpha = data.draw(st.floats(0.0, 1.0))
        rule = gauss_legendre_rule(M)
        s = SampleSet(rule, np.random.default_rng(seed).normal(size=rule.n_points))
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
        for p in (unit(0, 0, 1), unit(1, 0, 0)):
            assert evaluate(coeffs, p) == pytest.approx(1 / np.sqrt(FOUR_PI), abs=1e-15)

    def test_zero_coefficients(self):
        assert evaluate(HarmonicCoefficients.zeros(3), unit(0, 1, 0)) == 0.0

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
        p = unit(0.1, -0.7, 0.9)
        assert evaluate_grid(coeffs, p)[0] == evaluate(coeffs, p)
        assert evaluate_grid(coeffs, np.empty((0, 3))).size == 0

    def test_one_point_on_the_meridian_matches_the_ring_transform(self, dense_calls):
        # evaluate is evaluate_grid of one point: a point on the phi = 0
        # meridian is a one-ring product set, and points on the meridian,
        # taken together, are rings of one azimuth, so both take the ring
        # transform and match the dense matrix; a point off the meridian
        # takes one block of the harmonic matrix
        rng = np.random.default_rng(8)
        M = 60
        coeffs = random_coeffs(M, rng)
        theta = rng.uniform(0.0, np.pi, 5)
        pts = np.stack([np.sin(theta), np.zeros(5), np.cos(theta)], axis=1)
        assert _rings.ring_layout(pts).azimuths == 1
        values = np.array([evaluate(coeffs, p) for p in pts])
        dense = sph_harm_matrix(M, pts).T @ coeffs.values
        assert rel_err(values, dense) <= 1e-13
        assert rel_err(evaluate_grid(coeffs, pts), dense) <= 1e-13
        assert dense_calls == []
        p = unit(0.1, -0.7, 0.9)
        assert evaluate(coeffs, p) == (sph_harm_matrix(M, p).T @ coeffs.values)[0]
        assert dense_calls == [M]

    def test_odd_zonal_parity(self):
        # odd-degree zonal harmonics flip sign at antipodes
        coeffs = HarmonicCoefficients.zeros(3).values.copy()
        coeffs[3 * 3 + 3] = 1.0  # (k=3, m=0)
        cf = HarmonicCoefficients(3, coeffs)
        v = np.array([0.3, -0.2, 0.65])
        v /= np.linalg.norm(v)
        vals = evaluate_grid(cf, np.stack([v, -v]))
        assert vals[0] == pytest.approx(-vals[1], abs=1e-14)

    @pytest.mark.parametrize("fault", ["point-count", "repeated-ring", "turned-node"])
    def test_near_product_sets_take_the_harmonic_matrix(self, fault):
        # the nodes of gauss_legendre_rule(1), rings of 4, spoilt: two nodes
        # repeated (10 points, no multiple of 4), the first ring repeated (a
        # third ring at its height), or node 5 turned 1e-9 rad off its
        # azimuth; ring_layout finds no rings in any
        pts = gauss_legendre_rule(1).points
        if fault == "point-count":
            pts = np.vstack([pts, pts[:2]])
        elif fault == "repeated-ring":
            pts = np.vstack([pts, pts[:4]])
        else:
            pts = pts.copy()
            u, phi = np.hypot(pts[5, 0], pts[5, 1]), np.arctan2(pts[5, 1], pts[5, 0]) + 1e-9
            pts[5, :2] = u * np.cos(phi), u * np.sin(phi)
        assert _rings.ring_layout(pts) is None
        coeffs = random_coeffs(6, np.random.default_rng(9))
        dense = sph_harm_matrix(6, pts).T @ coeffs.values
        assert np.abs(evaluate_grid(coeffs, pts) - dense).max() <= 1e-12


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


@pytest.fixture
def dense_calls(monkeypatch):
    """Degrees of the harmonic matrix blocks that the transforms build, one
    entry per block of points (`_rings._HarmonicBlocks`)."""
    calls = []

    def counting(M, pts):
        calls.append(M)
        return sph_harm_matrix(M, pts)

    monkeypatch.setattr(_rings, "sph_harm_matrix", counting)
    return calls


def plan_probing(rule, M, resolution):
    """An `approx._Plan` of `rule` and M whose probe rings are
    `approx._probe_rings(rule, resolution)`, a layout that a walk, which
    probes at resolution 2M, never takes on its own."""
    plan = approx._Plan(rule, M)
    plan.probe_rings = approx._probe_rings(rule, resolution)
    return plan


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

    @pytest.mark.parametrize("M", [0, 3, 8])
    def test_odd_azimuth_count(self, M, dense_calls):
        # A = 2M+1 azimuths, the fewest an exact product rule can have; with
        # M+1 Gauss-Legendre heights the rule is still exact to degree 2M
        rng = np.random.default_rng(110 + M)
        t, v = gauss_legendre_nodes(M + 1)
        rule = product_rule(t, v, 2 * M + 1, M)
        assert rule.rings.azimuths == 2 * M + 1
        y = rng.normal(size=rule.n_points)
        assert rel_err(analyze(SampleSet(rule, y), M).values, dense_analysis(M, rule, y)) <= 1e-12
        c = random_coeffs(M, rng)
        values = evaluate_grid(c, rule.points)
        assert rel_err(values, dense_values(M, rule.points, c.values)) <= 1e-12
        assert rel_err(analyze(SampleSet(rule, values), M).values, c.values) <= 1e-12
        assert dense_calls == []

    def test_degree_120_on_482_azimuths(self):
        # 482 = 2 * 241 azimuths per ring: the probe rings at M = 120
        M = 120
        rng = np.random.default_rng(120)
        probes = probe_grid(2 * M)
        assert _rings.ring_layout(probes).azimuths == 482
        c = rng.normal(size=(M + 1) ** 2)
        sample = rng.choice(probes.shape[0], 500, replace=False)
        fast = evaluate_grid(HarmonicCoefficients(M, c), probes)[sample]
        assert rel_err(fast, sph_harm_matrix(M, probes[sample]).T @ c) <= 1e-12
        t, v = gauss_legendre_nodes(M + 1)
        rule = product_rule(t, v, 482, M)
        values = evaluate_grid(HarmonicCoefficients(M, c), rule.points)
        assert rel_err(analyze(SampleSet(rule, values), M).values, c) <= 1e-12

    @pytest.mark.parametrize("M", [0, 1, 2, 5, 30, 60])
    def test_legendre_table_is_the_loop_recurrence_reordered(self, M):
        # each value of the table, times (-1)^(k+m) on a ring below the
        # equator, is row k^2+k+m of sph_harm_matrix (and of the loop oracle)
        # at the ring's phi = 0 point, bit for bit; each harmonic of order
        # m >= 0 has one position and the positions of none are zero.  On the
        # mirrored Gauss-Legendre rings (with a ring at t = 0) and on random
        # rings without mirror pairs
        rng = np.random.default_rng(M)
        t = rng.uniform(-1.0, 1.0, 7)
        for meridian in (
            gauss_legendre_rule(2 * M).rings.meridian,
            np.column_stack([np.sqrt(1.0 - t * t), np.zeros_like(t), t]),
        ):
            Y = sph_harm_matrix(M, meridian)
            assert np.array_equal(Y.view(np.int64), sph_harm_matrix_loop(M, meridian).view(np.int64))
            rings = _rings.RingLayout(meridian, None, 1)
            table = _rings.ring_table(_rings.degree_layout(M), rings)
            below, height = np.divmod(table.ring, table.P.shape[-1])
            # rows[q, i, 0, p, j]: the harmonic with cos(m phi) of order m
            # (slot i's own for p = 0, its partner's for p = 1) at position j
            n = table.rows[:, :, 0]
            held = n < (M + 1) ** 2
            q, i, p, j = np.nonzero(held)
            cos_harmonics = [k * k + k + np.arange(k + 1) for k in range(M + 1)]
            assert np.array_equal(np.sort(n[held]), np.concatenate(cos_harmonics))
            values = table.P[q, i, j][:, height] * np.where((below == 1) & (q[:, None] == 1), -1.0, 1.0)
            assert np.array_equal(values.view(np.int64), Y[n[held]].view(np.int64))
            assert np.all(table.P[~held.any(axis=2)] == 0.0)

    def test_legendre_table_memory_at_degree_60(self):
        # the recurrence writes each degree into the table and adds no
        # table-sized intermediate: a cold build on the 121 probe rings of
        # M = 60 peaks at 1.9 MB, the 0.94 MB table plus the cos / sin
        # table of the 242 azimuths, the index tables and a few vectors of
        # the 61 ring heights
        rings = gauss_legendre_rule(120).rings
        assert traced(lambda: _rings.ring_table(_rings.degree_layout(60), rings)).peak <= 4.24e6

    def test_scattered_points_take_dense_path(self, dense_calls):
        rng = np.random.default_rng(101)
        M = 6
        pts = fibonacci_points(300)
        rule = CubatureRule(M, pts, np.full(300, 4 * np.pi / 300))
        assert rule.rings is None
        c = random_coeffs(M, rng)
        y = rng.normal(size=300)
        chunk = _rings.transform(M, pts, None).chunk
        assert chunk >= 300
        assert np.array_equal(evaluate_grid(c, pts), sph_harm_matrix(M, pts).T @ c.values)
        assert np.array_equal(analyze(SampleSet(rule, y), M).values, dense_analysis(M, rule, y, chunk=chunk))
        assert dense_calls == [M, M]

    def test_scattered_points_span_several_blocks(self, dense_calls):
        # at M = 30 a point's harmonic column holds 7.7 KB, so a block of
        # about 16 MB holds 2182 points and 5000 points take three blocks;
        # the blocked transforms match the unblocked matrix to rounding, and
        # the blocked oracle bit for bit
        rng = np.random.default_rng(105)
        M, n = 30, 5000
        pts = fibonacci_points(n)
        rule = CubatureRule(M, pts, np.full(n, 4 * np.pi / n))
        chunk = _rings.transform(M, pts, None).chunk
        blocks = -(-n // chunk)
        assert blocks >= 2
        c = random_coeffs(M, rng)
        y = rng.normal(size=n)
        Y = sph_harm_matrix(M, pts)
        assert rel_err(evaluate_grid(c, pts), Y.T @ c.values) <= 1e-12
        fast = analyze(SampleSet(rule, y), M).values
        assert rel_err(fast, Y @ (rule.weights * y)) <= 1e-12
        assert np.array_equal(fast, dense_analysis(M, rule, y, chunk=chunk))
        assert dense_calls == [M] * (2 * blocks)

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

    def test_blocked_transforms_memory_at_degree_60(self):
        # a rotated gauss_legendre_rule(60) is no product grid: analysis and
        # synthesis hold one block of about 16 MB of the harmonic matrix at
        # a time (17 MB measured), not the whole 225 MB matrix
        M = 60
        rule = rotated_rule(M, 7)
        rng = np.random.default_rng(106)
        samples = SampleSet(rule, rng.normal(size=rule.n_points))
        c = random_coeffs(M, rng)
        assert traced(lambda: analyze(samples, M)).peak <= 32e6
        assert traced(lambda: evaluate_grid(c, rule.points)).peak <= 32e6

    def test_too_few_azimuths_take_ring_path(self, dense_calls):
        rng = np.random.default_rng(104)
        M = 4
        pts = gauss_legendre_rule(M - 1).points  # 2M azimuths per ring
        c = random_coeffs(M, rng)
        assert rel_err(evaluate_grid(c, pts), dense_values(M, pts, c.values)) <= 1e-12
        assert dense_calls == []

    @pytest.mark.parametrize("M", [1, 4, 9])
    @pytest.mark.parametrize("azimuths", ["1", "2", "M", "2M", "2M+1"])
    def test_any_azimuth_count_takes_ring_path(self, M, azimuths, dense_calls):
        # m phi_j is reduced mod 2 pi in integers, so the ring sums factor
        # for any A; a rule with A <= 2M is not exact to degree 2M, but its
        # discrete sums still match the dense ones.  A = 1 puts every ring's
        # one point on the phi = 0 meridian.
        A = {"1": 1, "2": 2, "M": M, "2M": 2 * M, "2M+1": 2 * M + 1}[azimuths]
        rng = np.random.default_rng(120 + 10 * M + A)
        t, v = gauss_legendre_nodes(M + 1)
        rule = product_rule(t, v, A, M)
        assert rule.rings is not None and rule.rings.azimuths == A
        y = rng.normal(size=rule.n_points)
        assert rel_err(analyze(SampleSet(rule, y), M).values, dense_analysis(M, rule, y)) <= 1e-12
        c = random_coeffs(M, rng)
        assert rel_err(evaluate_grid(c, rule.points), dense_values(M, rule.points, c.values)) <= 1e-12
        assert dense_calls == []

    @pytest.mark.parametrize("bound", params.NORM_BOUND_KINDS)
    def test_coarse_probe_walk_takes_ring_path(self, bound, dense_calls):
        # on a rule that is no product grid, given a plan that probes
        # probe_grid(3), the walk probes its 8 azimuths, fewer than 2M + 1 at
        # M = 10, yet the step differences
        # still come from the ring synthesis; the one dense matrix is the
        # rule's analysis.  With omega = 1 no threshold is met, so every
        # grid value is synthesized.
        M, resolution = 10, 3
        rng = np.random.default_rng(130)
        rotated = rotated_rule(M, rng)
        assert rotated.rings is None
        samples = SampleSet(rotated, rng.normal(size=rotated.n_points))
        beta = params.weights_laplace_beltrami(M)
        cfg = params.BalancingConfig(
            alpha0=8.0, q=0.5, L=12, omega=1.0, delta=0.5, norm_bound=bound
        )
        plan = plan_probing(rotated, M, resolution)
        result = params.balancing_principle(samples, M, beta, cfg, plan=plan)
        assert dense_calls == [M]
        assert len(result.trace) == cfg.L - 1 and not result.triggered
        pts = probe_grid(resolution)
        assert _rings.ring_layout(pts).azimuths == 2 * (resolution + 1) < 2 * M + 1
        gamma = analyze(samples, M).values
        b2 = expand_by_degree(beta.beta**2)
        grid = cfg.grid()
        values = [dense_values(M, pts, gamma / (1.0 + a * b2)) for a in grid]
        for z, step in zip(range(cfg.L - 2, -1, -1), result.trace):
            assert step.alpha == grid[z]
            expected = np.abs(values[z] - values[z + 1]).max()
            assert step.difference == pytest.approx(expected, rel=1e-12)


class TestDegreeWeightedSup:
    """`_rings.degree_weighted_sup` against the maximum of the full ring
    synthesis of the degree-weighted coefficients, to 1e-12 of that maximum."""

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        azimuths=st.one_of(st.sampled_from([1, 2]), st.integers(3, 40)),
        n_rings=st.integers(1, 6),
    )
    @example(M=6, seed=1, azimuths=1, n_rings=3)
    def test_matches_synthesis_property(self, M, seed, azimuths, n_rings):
        # random mirrored product layouts, as the step requires, odd and even
        # azimuth counts: each ring at t and -t with equal weight, plus one at
        # t = 0.  A = 1 has only phi = 0; at A = 2 both azimuths are their own
        # mirror
        rng = np.random.default_rng(seed)
        t = rng.uniform(-1.0, 1.0, n_rings)
        t = np.concatenate([t, [0.0], -t])
        u = np.sqrt(1.0 - t * t)
        rings = _rings.RingLayout(np.column_stack([u, np.zeros_like(t), t]), np.ones_like(t), azimuths)
        assert _rings.mirrored(rings)
        c = rng.normal(size=(M + 1) ** 2)
        w = rng.normal(size=M + 1) * (rng.uniform(size=M + 1) < 0.7)
        table = _rings.ring_table(_rings.degree_layout(M), rings)
        sup = _rings.degree_weighted_sup(table, c)
        # one helper serves any number of weight vectors
        for weights in (w, np.zeros(M + 1), w[::-1]):
            expected = np.abs(_rings.synthesis(table, c * expand_by_degree(weights))).max()
            assert abs(sup(weights) - expected) <= 1e-12 * expected

    def test_degree_120_on_probe_grid(self):
        # the walk's default probe rings at M = 120: 241 rings of 482 azimuths
        M = 120
        rng = np.random.default_rng(121)
        rings = gauss_legendre_rule(2 * M).rings
        c = rng.normal(size=(M + 1) ** 2)
        w = rng.uniform(size=M + 1)
        w[::7] = 0.0
        table = _rings.ring_table(_rings.degree_layout(M), rings)
        expected = np.abs(_rings.synthesis(table, c * expand_by_degree(w))).max()
        assert abs(_rings.degree_weighted_sup(table, c)(w) - expected) <= 1e-12 * expected


def random_ring_set(kind, rng):
    """Ring heights and weights: Gauss-Legendre rings with a ring at t = 0
    ("gl-equator", an odd count) or without one ("gl"), mirrored heights
    with unequal weights ("weights"), heights without mirror pairs
    ("heights") or a single ring ("single")."""
    if kind.startswith("gl"):
        n = 2 * int(rng.integers(0, 6)) + (kind == "gl-equator")
        return gauss_legendre_nodes(max(n, 1))
    if kind == "weights":
        half = rng.uniform(0.05, 0.95, int(rng.integers(1, 5)))
        t = np.concatenate([-half, half])
    else:
        t = rng.uniform(-0.95, 0.95, 1 if kind == "single" else int(rng.integers(2, 8)))
    return t, rng.uniform(0.5, 2.0, t.size)


def ring_set_layout(t, ring_weights, azimuths):
    """The `RingLayout` of rings at heights t with A azimuths and these
    per-ring weights, and its points, ring-major."""
    meridian, points = ring_grid(t, azimuths)
    return _rings.RingLayout(meridian, ring_weights, azimuths), points


def ring_tables(rule, probe_rings, M):
    """The degree-M `ring_table`s of a product rule's rings and of probe rings."""
    layout = _rings.degree_layout(M)
    return _rings.ring_table(layout, rule.rings), _rings.ring_table(layout, probe_rings)


class TestRingTablesAgainstDenseOracles:
    """Every reader of the ring tables (analysis, synthesis, the walk's
    `degree_weighted_sup` and the `grid` sums `weighted_abs_kernel_sums`)
    against the dense matrices `sph_harm_matrix` and `legendre_matrix`, on
    ring sets with and without mirror pairs, to 1e-12; the walk's step only
    on ring sets in +-t pairs, the ones it takes."""

    KINDS = ["gl-equator", "gl", "weights", "heights", "single"]
    PAIRED = ["gl-equator", "gl", "weights"]

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(0, 12),
        kind=st.sampled_from(KINDS),
        probe_kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
        azimuths=st.integers(1, 27),
        probe_azimuths=st.integers(1, 27),
    )
    @example(M=0, kind="gl-equator", probe_kind="single", seed=0, azimuths=1, probe_azimuths=2)
    @example(M=1, kind="gl", probe_kind="weights", seed=1, azimuths=4, probe_azimuths=3)
    @example(M=2, kind="weights", probe_kind="heights", seed=2, azimuths=7, probe_azimuths=5)
    @example(M=3, kind="heights", probe_kind="gl-equator", seed=3, azimuths=8, probe_azimuths=8)
    def test_matches_dense_oracles_property(self, M, kind, probe_kind, seed, azimuths, probe_azimuths):
        rng = np.random.default_rng(seed)
        rings, points = ring_set_layout(*random_ring_set(kind, rng), azimuths)
        Y = sph_harm_matrix(M, points)
        c = rng.normal(size=(M + 1) ** 2)
        table = _rings.ring_table(_rings.degree_layout(M), rings)
        assert rel_err(_rings.synthesis(table, c), Y.T @ c) <= 1e-12
        y = rng.normal(size=points.shape[0])
        weights = np.repeat(rings.weights, azimuths)
        assert rel_err(_rings.analysis(table, y), Y @ (weights * y)) <= 1e-12
        sup = _rings.degree_weighted_sup(table, c)
        for w in (rng.normal(size=M + 1), np.ones(M + 1)):
            expected = np.abs(Y.T @ (c * expand_by_degree(w))).max()
            if kind in self.PAIRED:
                assert abs(sup(w) - expected) <= 1e-12 * expected
        # the grid sums on every probe of another ring set
        probe_rings, probes = ring_set_layout(*random_ring_set(probe_kind, rng), probe_azimuths)
        coefs = rng.normal(size=M + 1)
        L = harmonics.legendre_matrix(M, np.clip(probes @ points.T, -1.0, 1.0))
        expected = np.abs(L @ coefs).reshape(probes.shape[0], -1) @ weights
        every = np.arange(probe_rings.meridian.shape[0]), np.arange(probe_azimuths)
        probe = _rings.ring_table(_rings.degree_layout(M), probe_rings)
        fast = _rings.weighted_abs_kernel_sums(table, probe, *every, coefs)
        assert rel_err(fast.ravel(), expected) <= 1e-12

    def test_walk_probe_table_at_degree_120(self):
        # the probe rings of a degree-120 walk, 241 rings at 121 heights:
        # 7.2 MB, a quarter of (M+1)^2 values per ring
        plan = approx._Plan(gauss_legendre_rule(120), 120)
        assert plan.probe_table.P.nbytes <= 8e6

    def test_grid_pass_memory_at_degree_120(self):
        # a warm `grid` pass holds one probe ring class's a_m(p, s) and kernel
        # values at a time (1.9 MB measured), not the (R', R, M+1) array of
        # every a_m (14 MB)
        M = 120
        rule = gauss_legendre_rule(M)
        sup = approx._norm_oracle(rule, M, approx._probe_rings(rule, 2 * M), "grid")
        f = approx.filter_factors(M, 1e-4, params.weights_laplace_beltrami(M))
        sup(f)
        assert traced(lambda: sup(f)).peak <= 2.5e6


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

    @pytest.mark.parametrize("M", [3, 12])
    def test_crude_closed_form_at_positive_degree(self, M):
        # crude_upper and the walk's `crude` oracle are both
        # sum_k (2k+1) / (1 + alpha beta_k^2), here written out
        rule, beta = gauss_legendre_rule(M), params.weights_laplace_beltrami(M)
        oracle = approx._norm_oracle(rule, M, approx._probe_rings(rule, 2 * M), "crude")
        for alpha in (0.0, 1e-3, 0.5):
            crude = sum((2 * k + 1) / (1 + alpha * b**2) for k, b in enumerate(beta.beta))
            nb = operator_norm_bound(rule, M, alpha, beta, probe_grid(2 * M))
            assert nb.crude_upper == pytest.approx(crude, rel=1e-14)
            assert oracle(approx.filter_factors(M, alpha, beta)) == pytest.approx(crude, rel=1e-14)

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

    def test_degree_beyond_rule_rejected(self):
        # the same pairing analyze and regularized_fit refuse, for the sup norm
        # and for the `grid-abs` table
        rule, probes = gauss_legendre_rule(3), probe_grid(10)
        with pytest.raises(ValueError, match="exact to degree 6"):
            operator_norm_bound(rule, 5, 1e-3, PenalizationWeights(5, np.ones(6)), probes)
        with pytest.raises(ValueError, match="exact to degree 6"):
            approx.weighted_abs_legendre_sums(rule, 5, probes)


def kernel_coefficients(factors):
    """c_k = (2k+1) f_k / (4 pi) for filter factors f_0..f_M, per column."""
    k = np.arange(factors.shape[0]).reshape(-1, *[1] * (factors.ndim - 1))
    return (2 * k + 1) / FOUR_PI * factors


def assert_reduction_exact(rule, probes, factors):
    """The oracles at the filter factors in each column, against every probe."""
    cols = kernel_coefficients(factors)
    full = zonal_sums(rule, probes, cols)
    M = cols.shape[0] - 1
    sup = approx._norm_oracle(rule, M, _rings.ring_layout(probes), "grid", probes)
    maxima = [sup(f) for f in factors.T]
    assert rel_err(np.array(maxima), full.max(axis=0)) <= 1e-12
    table = approx.weighted_abs_legendre_sums(rule, M, probes)
    assert table.shape == (probes.shape[0], M + 1)
    assert rel_err(table, zonal_sums(rule, probes, np.eye(M + 1))) <= 1e-12
    # the grid-abs oracle, on one row per class, against the full table
    envelope = approx._norm_oracle(rule, M, _rings.ring_layout(probes), "grid-abs", probes)
    f = np.abs(factors[:, 0])
    upper = (table @ kernel_coefficients(f)).max()
    assert abs(envelope(f) - upper) <= 1e-12 * upper


def product_rule(t, ring_weights, azimuths, M):
    """Product rule with the given ring heights and per-ring weight shares."""
    w = np.repeat(ring_weights / ring_weights.sum() * FOUR_PI / azimuths, azimuths)
    return CubatureRule(M, ring_grid(t, azimuths)[1], w)


def block_indices(probe_rings, rings, azimuths):
    """Flat indices of the probes at (rings[i], azimuths[j]), ring-major."""
    return (rings[:, None] * probe_rings.azimuths + azimuths).ravel()


def class_of_every_probe(rule_rings, probe_rings, rings, azimuths):
    """Flat class index i * azimuths.size + j of every probe of the layout,
    ring-major: class (i, j) holds the probes whose ring has the radius and
    height of probe ring rings[i] (its |height| when the rule's rings are
    mirrored) and whose azimuth index q has the key of azimuths[j],
    min(qA mod A', -qA mod A') for the rule's A and the probes' A'
    azimuths.  Every probe must fall into exactly one class."""
    A, Ap = rule_rings.azimuths, probe_rings.azimuths
    key = np.arange(Ap) * A % Ap
    key = np.minimum(key, (Ap - key) % Ap)
    az_class = np.argmax(key[:, None] == key[azimuths], axis=1)
    assert np.array_equal(key[azimuths][az_class], key)
    ring_key = probe_rings.meridian[:, [0, 2]].copy()
    if _rings.mirrored(rule_rings):
        ring_key[:, 1] = np.abs(ring_key[:, 1])
    same = np.all(ring_key[:, None] == ring_key[rings], axis=2)
    assert np.all(same.sum(axis=1) == 1)
    ring_class = np.argmax(same, axis=1)
    return (ring_class[:, None] * azimuths.size + az_class).ravel()


class TestSupNormReduction:
    @settings(max_examples=25, deadline=None)
    @given(M=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_reduced_equals_full_property(self, M, seed, data):
        resolution = data.draw(st.integers(1, max(1, 3 * M)), label="resolution")
        rng = np.random.default_rng(seed)
        rule = gauss_legendre_rule(M)
        probes = probe_grid(resolution)
        probe_rings = _rings.ring_layout(probes)
        classes = _rings.probe_classes(rule.rings, probe_rings)
        assert classes is not None
        rings, azimuths = classes
        # the classes form one ring x azimuth block, and each class is
        # represented by its first probe in flat order
        inverse = class_of_every_probe(rule.rings, probe_rings, rings, azimuths)
        reps = block_indices(probe_rings, rings, azimuths)
        assert np.array_equal(reps, np.unique(inverse, return_index=True)[1])
        # every probe's row of the full grid-abs table is its representative's
        table = approx.weighted_abs_legendre_sums(rule, M, probes)
        rep_rows = approx.weighted_abs_legendre_sums(rule, M, probes[reps])
        assert rel_err(table, rep_rows[inverse]) <= 1e-12
        assert_reduction_exact(rule, probes, rng.normal(size=(M + 1, 3)))

    def test_class_count_on_default_probes(self):
        # (M+1)^2 classes on probe_grid(2M): M+1 mirrored ring pairs (the
        # equator alone) times M+1 azimuth keys
        for M in (1, 4, 30):
            rule_rings = gauss_legendre_rule(M).rings
            probe_rings = _rings.ring_layout(probe_grid(2 * M))
            rings, azimuths = _rings.probe_classes(rule_rings, probe_rings)
            assert rings.size == M + 1 and azimuths.size == M + 1
            assert rings.size * azimuths.size == (M + 1) ** 2
            inverse = class_of_every_probe(rule_rings, probe_rings, rings, azimuths)
            assert np.unique(inverse).size == (M + 1) ** 2

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
        rings, azimuths = _rings.probe_classes(rule.rings, probe_rings)
        reps = block_indices(probe_rings, rings, azimuths)
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
        # pairs at which `_kernel_blocks` streams Legendre values
        sizes, probe_counts = [], []
        legendre_columns = harmonics._legendre_columns
        kernel_sums = _rings.weighted_abs_kernel_sums

        def counting(k_max, t):
            sizes.append(t.size)
            return legendre_columns(k_max, t)

        def recording(rule_table, probe_table, rings, azimuths, coefs):
            probe_counts.append(rings.size * azimuths.size)
            return kernel_sums(rule_table, probe_table, rings, azimuths, coefs)

        monkeypatch.setattr(harmonics, "_legendre_columns", counting)
        monkeypatch.setattr(_rings, "weighted_abs_kernel_sums", recording)
        M = 30
        rule = gauss_legendre_rule(M)
        beta = PenalizationWeights(M, np.arange(M + 1.0) ** 2)
        operator_norm_bound(rule, M, 1e-4, beta, probe_grid(2 * M))
        # the addition theorem needs no Legendre values at (probe, node) pairs
        assert sizes == [] and probe_counts == [961]
        probes = probe_grid(2 * M)
        approx._norm_oracle(rule, M, _rings.ring_layout(probes), "grid-abs", probes)
        # the table sums over one node of each antipodal pair: the 15 rings
        # with t > 0 and the equator, 16 x 62 = 992 of the 1922 nodes
        assert sum(sizes) == 961 * 992
        # the public table keeps a row for every probe it is given
        sizes.clear()
        approx.weighted_abs_legendre_sums(rule, M, probe_grid(2 * M))
        assert sum(sizes) == 7442 * 992


def kernel_form_values(samples, c, points):
    """sum_k c_k sum_i w_i y_i P_k(x_p . x_i) at every point."""
    rule, out = samples.rule, np.empty(points.shape[0])
    for rows, L in legendre_blocks(rule, points, c.size - 1):
        out[rows] = (L @ c) @ (rule.weights * samples.values)
    return out


def random_product_rule(kind, M, rng):
    """GL rule, or a product rule with random rings: mirrored rings of equal
    weight ("mirror", and "odd" with an odd azimuth count), mirrored heights
    with other weights ("weights"), or heights without mirror pairs
    ("heights")."""
    if kind == "gl":
        return gauss_legendre_rule(M)
    R = int(rng.integers(1, M + 3))
    half = rng.uniform(0.05, 0.95, R // 2)
    t = np.concatenate([-half, np.zeros(R % 2), half[::-1]])
    weights = rng.uniform(0.5, 2.0, R)
    if kind in ("mirror", "odd"):
        weights = (weights + weights[::-1]) / 2
    elif kind == "heights":
        t = rng.uniform(-0.95, 0.95, R)
    azimuths = int(rng.integers(1, 2 * M + 3))
    if kind == "odd":
        azimuths |= 1
    return product_rule(t, weights, azimuths, M)


class TestAdditionTheoremSupNorm:
    @settings(max_examples=40, deadline=None)
    @given(
        M=st.integers(0, 12),
        kind=st.sampled_from(["gl", "mirror", "weights", "heights"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_kernel_blocks_property(self, M, kind, seed, data):
        resolution = data.draw(st.integers(1, max(1, 3 * M)), label="resolution")
        rng = np.random.default_rng(seed)
        rule = random_product_rule(kind, M, rng)
        probes = probe_grid(resolution)
        probe_rings = _rings.ring_layout(probes)
        rings, azimuths = _rings.probe_classes(rule.rings, probe_rings)
        reps = block_indices(probe_rings, rings, azimuths)
        sup = approx._norm_oracle(rule, M, probe_rings, "grid")
        for f in rng.normal(size=(2, M + 1)):
            c = kernel_coefficients(f)
            reference = zonal_sums(rule, probes, c)
            fast = _rings.weighted_abs_kernel_sums(*ring_tables(rule, probe_rings, M), rings, azimuths, c)
            assert fast.shape == (rings.size, azimuths.size)
            assert rel_err(fast.ravel(), reference[reps]) <= 1e-12
            maximum = sup(f)
            assert abs(maximum - reference.max()) <= 1e-12 * reference.max()

    def test_degree_120_at_sampled_probes(self):
        rng = np.random.default_rng(300)
        M = 120
        rule = gauss_legendre_rule(M)
        probes = probe_grid(2 * M)
        probe_rings = _rings.ring_layout(probes)
        # a 4 x 4 block of probe rings and azimuths: 16 probes
        rings = rng.choice(probe_rings.meridian.shape[0], 4, replace=False)
        azimuths = rng.choice(probe_rings.azimuths, 4, replace=False)
        sample = block_indices(probe_rings, rings, azimuths)
        k = np.arange(M + 1)
        beta = PenalizationWeights(M, k * (k + 1.0))
        for alpha in (0.0, 1e-6):
            c = (2 * k + 1) / FOUR_PI * approx.filter_factors(M, alpha, beta)
            fast = _rings.weighted_abs_kernel_sums(*ring_tables(rule, probe_rings, M), rings, azimuths, c)
            assert rel_err(fast.ravel(), zonal_sums(rule, probes[sample], c)) <= 1e-12


class TestPlanTables:
    """A plan lends two whole ring tables on one degree layout: the rule's
    and the walk's probe rings', which share the rule's Legendre part where
    the two ring sets lie at the same heights.  The scorer of experiments 2
    and 3 takes the probe table with its own trig table and ring weights."""

    @pytest.mark.parametrize("M", [0, 1, 2, 7, 30])
    def test_scorer_table_is_the_scoring_rules_table(self, monkeypatch, M):
        # the scoring rule gauss_legendre_rule(max(1, 2M)) lies on the walk's
        # probe rings bit for bit, so the probe table with the rule's trig
        # table swapped in is the rule's own table
        tables, synthesis = [], _rings.synthesis
        monkeypatch.setattr(_rings, "synthesis", lambda t, c: tables.append(t) or synthesis(t, c))
        plan = approx._Plan(gauss_legendre_rule(M), M)
        score = experiments._franke_scorer(plan)[2]
        score(HarmonicCoefficients.zeros(M))
        (table,) = tables
        rings = gauss_legendre_rule(max(1, 2 * M)).rings
        fresh = _rings.ring_table(_rings.degree_layout(M), rings)
        for name, a, b in zip(fresh._fields, table, fresh):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert table.P is plan.probe_table.P

    @pytest.mark.parametrize("product, builds", [(False, 0), (True, 2)])
    def test_grid_oracle_reads_ring_tables_only_on_a_product_rule(
        self, monkeypatch, product, builds
    ):
        # a rotated rule's `grid` oracle sums over every probe and node, so
        # the plan lends it no tables: the rule's rings and the probe rings'
        # Legendre parts are built only for a product rule
        M = 10
        rule = gauss_legendre_rule(M) if product else rotated_rule(M, 7)
        calls, legendre_part = [], _rings.legendre_part
        monkeypatch.setattr(_rings, "legendre_part", lambda *a: calls.append(a) or legendre_part(*a))
        plan = approx._Plan(rule, M)
        k = np.arange(M + 1)
        f = approx.filter_factors(M, 1e-3, PenalizationWeights(M, k * (k + 1.0)))
        value = plan.norm("grid")(f)
        assert len(calls) == builds
        assert value == approx._norm_oracle(rule, M, plan.probe_rings, "grid")(f)

    def test_norm_bound_builds_one_layout_and_two_legendre_parts(self, monkeypatch):
        # with no plan, the `grid` oracle of a product rule on product probes
        # builds the tables of the rule's rings and of the probe rings on one
        # degree layout
        M = 10
        layouts, legendre = [], []
        degree_layout, legendre_part = _rings.degree_layout, _rings.legendre_part
        monkeypatch.setattr(_rings, "degree_layout", lambda M: layouts.append(M) or degree_layout(M))
        monkeypatch.setattr(_rings, "legendre_part", lambda *a: legendre.append(a) or legendre_part(*a))
        k = np.arange(M + 1)
        beta = PenalizationWeights(M, k * (k + 1.0))
        approx.operator_norm_bound(gauss_legendre_rule(M), M, 1e-3, beta, probe_grid(2 * M))
        assert layouts == [M]
        assert len(legendre) == 2

    @pytest.mark.parametrize("M", [1, 2, 5, 30])
    def test_every_empty_probe_row_is_the_far_side_of_the_equator(self, M):
        # the walk's step takes the maximum over every row of the probe
        # table: its one row without a ring, at t = 0, reads E - O with O = 0
        plan = approx._Plan(gauss_legendre_rule(M), M)
        table, t = plan.probe_table, plan.probe_rings.meridian[:, 2]
        H = table.P.shape[-1]
        empty = np.setdiff1d(np.arange(2 * H), table.ring)
        (equator,) = table.ring[t == 0.0]
        assert empty.tolist() == [H + equator]
        assert not table.P[1, :, :, equator].any()

    def test_probe_rings_of_the_rule_share_its_legendre_part(self):
        # at resolution M the walk's probe rings are the rings of gauss_legendre_rule(M)
        plan = plan_probing(gauss_legendre_rule(6), 6, 6)
        assert plan.probe_table.P is plan.table.P
        assert plan.probe_table.rows is plan.table.rows


def assert_table_matches_all_nodes(rule, M, probes):
    table = approx.weighted_abs_legendre_sums(rule, M, probes)
    reference = zonal_sums(rule, probes, np.eye(M + 1))
    assert table.shape == reference.shape
    # probe by probe, relative to the row's largest entry (an entry can be 0)
    assert np.all(np.abs(table - reference).max(axis=1) <= 1e-12 * reference.max(axis=1))


class TestAntipodalFold:
    @settings(max_examples=40, deadline=None)
    @given(
        M=st.integers(0, 12),
        kind=st.sampled_from(["gl", "mirror", "weights", "heights"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_table_matches_all_node_reference_property(self, M, kind, seed, data):
        resolution = data.draw(st.integers(1, max(1, 3 * M)), label="resolution")
        rule = random_product_rule(kind, M, np.random.default_rng(seed))
        rings = rule.rings
        nodes, weights = _rings.antipodal_half(rings, rule.points, rule.weights)
        # only mirrored rings with an even azimuth count fold, onto the rings
        # with t >= 0; random heights or weights have no mirror pairs
        folds = kind in ("gl", "mirror") and rings.azimuths % 2 == 0
        upper = int(np.count_nonzero(rings.meridian[:, 2] >= 0.0))
        expected = upper * rings.azimuths if folds else rule.n_points
        assert nodes.shape[0] == weights.size == expected
        assert weights.sum() == pytest.approx(rule.weights.sum(), rel=1e-14)
        assert_table_matches_all_nodes(rule, M, probe_grid(resolution))

    @pytest.mark.parametrize(
        "t, ring_weights, azimuths",
        [
            (np.array([-0.6, -0.2, 0.2, 0.6]), np.array([1.0, 2.0, 2.0, 1.0]), 9),
            (np.array([-0.7, -0.1, 0.4, 0.9]), np.array([1.0, 2.0, 2.0, 1.0]), 10),
            (np.array([-0.6, -0.2, 0.2, 0.6]), np.array([1.0, 2.0, 3.0, 1.5]), 10),
        ],
        ids=["odd-azimuths", "heights", "weights"],
    )
    def test_rules_without_antipodal_pairs_keep_every_node(self, t, ring_weights, azimuths):
        M = 4
        rule = product_rule(t, ring_weights, azimuths, M)
        assert rule.rings is not None
        nodes, weights = _rings.antipodal_half(rule.rings, rule.points, rule.weights)
        assert nodes is rule.points and weights is rule.weights
        assert_table_matches_all_nodes(rule, M, probe_grid(2 * M))


class TestStreamedKernelSums:
    """The three consumers of `approx._kernel_blocks`, which streams P_k one
    degree at a time, against `harmonics.legendre_matrix`."""

    @settings(max_examples=40, deadline=None)
    @given(
        M=st.integers(0, 12),
        kind=st.sampled_from(["scattered", "gl", "mirror", "weights", "heights", "odd"]),
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(1, 300),
    )
    def test_consumers_match_legendre_matrix_property(self, M, kind, seed, n_points):
        rng = np.random.default_rng(seed)
        if kind == "scattered":
            N = int(rng.integers(1, 400))
            w = rng.uniform(0.5, 2.0, N)
            rule = CubatureRule(M, random_unit(rng, N), w / w.sum() * FOUR_PI)
        else:
            rule = random_product_rule(kind, M, rng)
        # scattered points, so every consumer runs the degree loop: several
        # blocks once n_points x nodes > 32768
        points = random_unit(rng, n_points)
        assert _rings.ring_layout(points) is None
        table = approx.weighted_abs_legendre_sums(rule, M, points)
        reference = zonal_sums(rule, points, np.eye(M + 1))
        assert np.all(np.abs(table - reference).max(axis=1) <= 1e-12 * reference.max(axis=1))
        f = rng.normal(size=M + 1)
        sup = approx._norm_oracle(rule, M, _rings.ring_layout(points), "grid", points)
        sums = zonal_sums(rule, points, kernel_coefficients(f))
        assert abs(sup(f) - sums.max()) <= 1e-12 * sums.max()
        samples = SampleSet(rule, rng.normal(size=rule.n_points))
        alpha, beta = float(rng.uniform(0.0, 1.0)), params.weights_laplace_beltrami(M)
        values = evaluate_kernel_form(samples, M, alpha, beta, points)
        c = kernel_coefficients(approx.filter_factors(M, alpha, beta))
        expected = kernel_form_values(samples, c, points)
        assert rel_err(values, expected) <= 1e-12

    def test_kernel_form_memory_at_degree_60(self):
        # 256 points against the 7442 nodes of gauss_legendre_rule(60): four
        # points per block, each degree in a few vectors of 29 768 values; a
        # (pairs, M+1) Legendre array per block would peak at 14.6 MB
        M = 60
        rule = gauss_legendre_rule(M)
        samples = SampleSet(rule, np.sin(rule.points[:, 0]))
        beta = params.weights_laplace_beltrami(M)
        points = fibonacci_points(256)
        assert traced(lambda: evaluate_kernel_form(samples, M, 1e-4, beta, points)).peak < 4 * 2**20


class TestInvariantProbeSet:
    """The one probe layout of a balancing walk, `approx._probe_rings`, and
    the norm oracle on it, against the full probe set the layout stands for."""

    @settings(max_examples=40, deadline=None)
    @given(
        M=st.integers(0, 12),
        kind=st.sampled_from(["gl", "mirror", "heights", "odd"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_oracle_matches_every_point_property(self, M, kind, seed, data):
        resolution = data.draw(st.integers(1, max(1, 3 * M)), label="resolution")
        rng = np.random.default_rng(seed)
        rule = random_product_rule(kind, M, rng)
        probes = norm_probe_points(rule, resolution)
        probe_rings = approx._probe_rings(rule, resolution)
        # the probe grid's rings at the smallest multiple of the rule's A
        # azimuths no coarser than the probe grid: the full set's layout
        A, Ap = rule.rings.azimuths, probe_rings.azimuths
        assert Ap % A == 0 and Ap - A < 2 * (resolution + 1) <= Ap
        scanned = _rings.ring_layout(probes)
        assert scanned.azimuths == Ap and probe_rings.weights is None
        assert np.array_equal(scanned.meridian, probe_rings.meridian)
        # the rule's rotation maps the set to itself: each ring keeps the
        # azimuth offsets 0, 2 pi / Ap, ..., up to pi / A
        rings, azimuths = _rings.probe_classes(rule.rings, probe_rings)
        assert azimuths.size == Ap // A // 2 + 1
        # representatives formed from the layout are the set's points, bit for bit
        reps = _rings.ring_points(probe_rings.meridian[rings], Ap, azimuths)
        assert np.array_equal(reps, probes[block_indices(probe_rings, rings, azimuths)])
        oracle = {b: approx._norm_oracle(rule, M, probe_rings, b) for b in params.NORM_BOUND_KINDS}
        table = zonal_sums(rule, probes, np.eye(M + 1))
        beta = params.weights_laplace_beltrami(M)
        for alpha in rng.uniform(0.0, 1.0, 2):
            f = approx.filter_factors(M, alpha, beta)
            c = kernel_coefficients(f)
            reference = zonal_sums(rule, probes, c)
            assert abs(oracle["grid"](f) - reference.max()) <= 1e-12 * reference.max()
            upper = (table @ c).max()
            assert abs(oracle["grid-abs"](f) - upper) <= 1e-12 * upper
            # the closed form sum_k (2k+1) / (1 + alpha beta_k^2), written out
            crude = sum((2 * k + 1) / (1 + alpha * b**2) for k, b in enumerate(beta.beta))
            assert oracle["crude"](f) == pytest.approx(crude, rel=1e-14)
            assert approx._crude(f) == pytest.approx(crude, rel=1e-14)

    @pytest.mark.parametrize("M, resolution", [(6, 12), (5, 3), (9, 30)])
    def test_grid_abs_table_at_the_sets_representatives(self, monkeypatch, M, resolution):
        # the table's probes are those the full set held at the class
        # representatives, so the table is the one built from the full set
        calls = record_table_probes(monkeypatch)
        rule = gauss_legendre_rule(M)
        probe_rings = approx._probe_rings(rule, resolution)
        approx._norm_oracle(rule, M, probe_rings, "grid-abs")
        rings, azimuths = _rings.probe_classes(rule.rings, probe_rings)
        full = norm_probe_points(rule, resolution)
        assert len(calls) == 1
        assert np.array_equal(calls[0], full[block_indices(probe_rings, rings, azimuths)])

    def test_rule_without_rings_takes_the_probe_grid(self, monkeypatch):
        # no product rule, no classes: the full set is probe_grid(r) itself
        M, resolution = 5, 10
        calls = record_table_probes(monkeypatch)
        rotated = rotated_rule(M, 302)
        assert rotated.rings is None
        probe_rings = approx._probe_rings(rotated, resolution)
        assert probe_rings.azimuths == 2 * (resolution + 1)
        beta = params.weights_laplace_beltrami(M)
        f = approx.filter_factors(M, 1e-3, beta)
        envelope = approx._norm_oracle(rotated, M, probe_rings, "grid-abs")
        assert len(calls) == 1 and np.array_equal(calls[0], probe_grid(resolution))
        sup = approx._norm_oracle(rotated, M, probe_rings, "grid")
        c = kernel_coefficients(f)
        reference = zonal_sums(rotated, probe_grid(resolution), c)
        assert abs(sup(f) - reference.max()) <= 1e-12 * reference.max()
        upper = (zonal_sums(rotated, probe_grid(resolution), np.eye(M + 1)) @ c).max()
        assert abs(envelope(f) - upper) <= 1e-12 * upper

    def test_degree_120_at_sampled_probes(self):
        rng = np.random.default_rng(301)
        M = 120
        rule = gauss_legendre_rule(M)
        probes = norm_probe_points(rule, 2 * M)
        probe_rings = approx._probe_rings(rule, 2 * M)
        rings, azimuths = _rings.probe_classes(rule.rings, probe_rings)
        assert rings.size * azimuths.size == 2 * (M + 1)
        inverse = class_of_every_probe(rule.rings, probe_rings, rings, azimuths)
        # 16 probes of the set against their class representatives
        sample = rng.choice(probes.shape[0], 16, replace=False)
        classes = inverse[sample]
        k = np.arange(M + 1)
        beta = PenalizationWeights(M, k * (k + 1.0))
        c = (2 * k + 1) / FOUR_PI * approx.filter_factors(M, 1e-6, beta)
        fast = _rings.weighted_abs_kernel_sums(*ring_tables(rule, probe_rings, M), rings, azimuths, c)
        assert rel_err(fast.ravel()[classes], zonal_sums(rule, probes[sample], c)) <= 1e-12
        reps = block_indices(probe_rings, rings, azimuths)[classes]
        rows = approx.weighted_abs_legendre_sums(rule, M, probes[reps])
        reference = zonal_sums(rule, probes[sample], np.eye(M + 1))
        assert np.all(np.abs(rows - reference).max(axis=1) <= 1e-12 * reference.max(axis=1))

    @pytest.mark.parametrize("M", [30, 60])
    def test_maxima_match_a_16_times_finer_azimuth_set(self, M):
        # the set is a subset of one with 16 times its azimuths on the same
        # rings; both bounds' maxima agree with that set's to 1e-4 relative
        # (3.4e-5 at most, at M = 60) and stay under the crude bound
        rule = gauss_legendre_rule(M)
        probe_rings = approx._probe_rings(rule, 2 * M)
        fine_rings = _rings.RingLayout(probe_rings.meridian, None, 16 * probe_rings.azimuths)
        beta = params.weights_laplace_beltrami(M)
        for bound in ("grid", "grid-abs"):
            coarse_max = approx._norm_oracle(rule, M, probe_rings, bound)
            fine_max = approx._norm_oracle(rule, M, fine_rings, bound)
            for alpha in (0.0, 1e-4, 1.0):
                f = approx.filter_factors(M, alpha, beta)
                estimate, reference = coarse_max(f), fine_max(f)
                assert reference * (1 - 1e-4) <= estimate <= reference * (1 + 1e-12)
                assert estimate <= approx._crude(f)


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

    def test_repr_names_the_kind(self):
        assert repr(FilterSpec.spline_c1()) == "FilterSpec('spline_c1')"

    @pytest.mark.parametrize("kind", FilterSpec.KINDS)
    def test_nan_rejected_inf_is_zero(self, kind):
        h = FilterSpec(kind)
        with pytest.raises(ValueError, match="NaN"):
            h(float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            h(np.array([0.5, np.nan]))
        assert h(float("inf")) == 0.0

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
            x = unit(*v)
            kx = kernel_section(beta, x)
            plus = HarmonicCoefficients(M, p.values + kx.values)
            minus = HarmonicCoefficients(M, p.values - kx.values)
            inner = (rkhs_norm_sq(plus, beta) - rkhs_norm_sq(minus, beta)) / 4
            assert inner == pytest.approx(evaluate(p, x), abs=1e-9)

    def test_kernel_section_needs_positive_weights(self):
        beta = PenalizationWeights(2, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            kernel_section(beta, unit(0, 0, 1))


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

    @pytest.fixture(scope="class")
    def noisy(self):
        """Normal values (seed M) on gauss_legendre_rule(M) or its rotation
        (seed 7), which has no ring layout, one sample set per (M, kind)."""
        made = {}

        def samples(M, kind):
            if (M, kind) not in made:
                rule = gauss_legendre_rule(M) if kind == "product" else rotated_rule(M, 7)
                made[M, kind] = SampleSet(rule, np.random.default_rng(M).normal(size=rule.n_points))
            return made[M, kind]

        return samples

    @pytest.mark.parametrize("coefficients", ["filtered", "arbitrary"])
    @pytest.mark.parametrize("alpha", [0.0, 1e-5, 1e-3])
    @pytest.mark.parametrize("kind", ["product", "rotated"])
    @pytest.mark.parametrize("M", [1, 7, 30])
    def test_matches_the_synthesis_form(self, noisy, M, kind, alpha, coefficients):
        # from the analysis alone, the functional of any degree-M coefficients
        # equals the misfit summed over the synthesized fit at every node
        s, beta = noisy(M, kind), params.weights_laplace_beltrami(M)
        if coefficients == "filtered":
            c = regularized_fit(s, M, alpha, beta)
        else:
            c = random_coeffs(M, np.random.default_rng([M, int(1e6 * alpha)]))
        expected = synthesized_functional(s, c, alpha, beta)
        assert penalized_functional(s, c, alpha, beta) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("kind", ["product", "rotated"])
    def test_makes_no_synthesis(self, monkeypatch, kind):
        M = 6
        rule = gauss_legendre_rule(M) if kind == "product" else rotated_rule(M, 7)
        s = SampleSet(rule, np.random.default_rng(16).normal(size=rule.n_points))
        c = random_coeffs(M, np.random.default_rng(17))

        def refused(*args):
            raise AssertionError("penalized_functional synthesized its fit")

        monkeypatch.setattr(_rings, "synthesis", refused)
        assert np.isfinite(penalized_functional(s, c, 1e-3, params.weights_laplace_beltrami(M)))

    def test_coefficients_above_the_rules_degree_refused(self):
        rule = gauss_legendre_rule(3)
        s = SampleSet(rule, np.random.default_rng(18).normal(size=rule.n_points))
        c = random_coeffs(4, np.random.default_rng(19))
        with pytest.raises(ValueError, match="needs exactness 8"):
            penalized_functional(s, c, 0.1, params.weights_ones(4))


class TestWeightsBeyondTheFloatRange:
    """At (lambda1, lambda2) = (5, 5) the kernel weights stay finite to degree
    277, but beta_k^2 overflows from degree 137.  At M = 140 the fits take the
    exact limit: f_k = 0 there for alpha > 0; at alpha = 0, f_k = 1 and the
    functional is the misfit alone."""

    M = 140

    @pytest.fixture(scope="class")
    def case(self):
        rule = gauss_legendre_rule(self.M)
        s = SampleSet(rule, np.random.default_rng(31).normal(size=rule.n_points))
        return s, params.weights_from_kernel_params(self.M, params.KernelParams(5, 5))

    def test_positive_alpha_drops_the_overflowing_degrees(self, case):
        s, beta = case
        alpha = 1e-3
        with np.errstate(over="ignore"):
            b2 = beta.beta**2
        finite = np.isfinite(b2)
        assert np.array_equal(np.flatnonzero(~finite), np.arange(137, self.M + 1))
        b2 = np.where(finite, b2, 0.0)
        gamma = regularized_fit(s, self.M, alpha, beta)
        f = np.where(finite, 1.0 / (1.0 + alpha * b2), 0.0)
        assert np.array_equal(gamma.values, expand_by_degree(f) * analyze(s, self.M).values)
        # the reference sums the degrees whose beta_k^2 is finite, and only those
        resid = evaluate_grid(gamma, s.rule.points) - s.values
        penalty = np.sum((expand_by_degree(b2) * gamma.values**2)[expand_by_degree(finite)])
        value = penalized_functional(s, gamma, alpha, beta)
        assert np.isfinite(value)
        assert value == pytest.approx(s.rule.weights @ resid**2 + alpha * penalty, rel=1e-12)
        assert rkhs_norm_sq(HarmonicCoefficients.zeros(self.M), beta) == 0.0

    def test_zero_alpha_is_the_plain_fit(self, case):
        s, beta = case
        gamma = regularized_fit(s, self.M, 0.0, beta)
        plain = analyze(s, self.M)
        assert np.array_equal(gamma.values, plain.values)
        value = penalized_functional(s, gamma, 0.0, beta)
        assert value == penalized_functional(s, plain, 0.0, params.weights_ones(self.M))


class TestTypesAndSerialization:
    def test_weights_validation(self):
        with pytest.raises(ValueError):
            PenalizationWeights(2, [1.0, -0.5, 2.0])
        with pytest.raises(ValueError):
            PenalizationWeights(2, [2.0, 1.0, 3.0])
        PenalizationWeights(2, [0.0, 0.0, 1.0])  # zeros are fine

    def test_array_types_compare_by_identity(self):
        # == answers instead of asking an array for one truth value: two
        # instances made from equal arrays are different objects
        rule = gauss_legendre_rule(2)
        makers = [
            lambda: SampleSet(rule, np.arange(rule.n_points, dtype=float)),
            lambda: HarmonicCoefficients(2, np.arange(9.0)),
            lambda: PenalizationWeights(2, [1.0, 2.0, 3.0]),
        ]
        for make in makers:
            a, b = make(), make()
            assert a == a and not (a == b) and a != b
            assert hash(a) != hash(b) and len({a, a, b}) == 2

    def test_sample_length_mismatch(self):
        rule = gauss_legendre_rule(2)
        with pytest.raises(ValueError):
            SampleSet(rule, np.zeros(rule.n_points - 1))

    def test_coefficient_length(self):
        with pytest.raises(ValueError):
            HarmonicCoefficients(2, np.zeros(8))

    def test_coefficients_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            HarmonicCoefficients(-1, [])

    def test_weights_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PenalizationWeights(-1, [])

    def test_coefficients_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        coeffs = random_coeffs(4, rng)
        path = tmp_path / "coeffs.csv"
        save_coefficients(coeffs, path)
        assert path.read_text().splitlines()[0] == "k,j,value"
        back = load_coefficients(path)
        assert back.degree_M == 4
        assert np.array_equal(back.values, coeffs.values)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_coefficients_roundtrip_property(self, tmp_path_factory, data):
        M = data.draw(st.integers(0, 12), label="M")
        n = (M + 1) ** 2
        floats = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(st.lists(floats, min_size=n, max_size=n), label="values")
        path = tmp_path_factory.mktemp("coeffs") / "coeffs.csv"
        save_coefficients(HarmonicCoefficients(M, values), path)
        back = load_coefficients(path)
        assert back.degree_M == M
        assert np.array_equal(back.values, np.array(values, dtype=float))

    def test_swapped_columns_rejected(self, tmp_path):
        # read by position, (j, k) = (1, 0) loaded as (k, j) = (1, 1)
        path = tmp_path / "coeffs.csv"
        path.write_text("j,k,value\n1,0,1\n1,1,2\n2,1,3\n3,1,4\n")
        with pytest.raises(ValueError, match="expected k,j,value"):
            load_coefficients(path)

    @pytest.mark.filterwarnings("error")
    def test_header_without_rows_rejected(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("k,j,value\n")
        with pytest.raises(ValueError, match="no rows"):
            load_coefficients(path)

    def test_fractional_order_rejected(self, tmp_path):
        # j = 1.9 used to be truncated to 1
        path = tmp_path / "coeffs.csv"
        path.write_text("k,j,value\n0,1,1\n1,1.9,2\n1,2,3\n1,3,4\n")
        with pytest.raises(ValueError, match="whole numbers"):
            load_coefficients(path)

    def test_order_outside_degree_rejected(self, tmp_path):
        # (0, 2) has the flat index of (1, 1), so it used to load as that pair
        path = tmp_path / "coeffs.csv"
        path.write_text("k,j,value\n0,1,1\n0,2,2\n1,2,3\n1,3,4\n")
        with pytest.raises(ValueError, match="1 <= j <= 2k\\+1"):
            load_coefficients(path)
