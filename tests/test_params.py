import dataclasses
import tracemalloc

import numpy as np
import pytest

from spherefit import (
    BalancingConfig,
    CubatureRule,
    KernelParams,
    PenalizationWeights,
    RandomSearchConfig,
    SampleSet,
    analyze,
    balancing_principle,
    experiments,
    gauss_legendre_rule,
    kernel_select,
    operator_norm_bound,
    probe_grid,
    regularized_fit,
    save_bp_trace,
    weights_from_kernel_params,
    weights_laplace_beltrami,
    weights_ones,
    weights_sgg_apriori,
)
from spherefit import _rings, approx, params
from spherefit.approx import expand_by_degree, filter_factors, weighted_abs_legendre_sums


def walk_probe_points(rule, resolution):
    """Every point of the walk's probe layout, `params._probe_rings`."""
    rings = params._probe_rings(rule, resolution)
    return _rings.ring_points(rings.meridian, rings.azimuths)


def noisy_samples(M, seed=0, scale=1.0):
    rule = gauss_legendre_rule(M)
    rng = np.random.default_rng(seed)
    return SampleSet(rule, scale * rng.normal(size=rule.n_points))


class TestWeightFamilies:
    def test_sgg_first_value(self):
        a = 1.2 ** -np.arange(6.0)
        w = weights_sgg_apriori(5, a)
        assert w.beta[0] == pytest.approx(0.5**0.75, rel=1e-14)
        assert w.beta[0] == pytest.approx(0.5946, abs=1e-4)

    def test_sgg_third_value(self):
        a = 1.2 ** -np.arange(6.0)
        w = weights_sgg_apriori(5, a)
        # oracle: 1.2 * 2.5**(3/4) = 2.38581...
        assert w.beta[2] == pytest.approx(1.2 * 2.5**0.75, rel=1e-12)
        assert w.beta[2] == pytest.approx(2.3858, abs=1e-4)

    def test_sgg_flat_factors(self):
        w = weights_sgg_apriori(4, np.ones(5))
        k = np.arange(5.0)
        assert np.allclose(w.beta, (k + 0.5) ** 0.75, atol=1e-15)

    def test_sgg_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            weights_sgg_apriori(2, [1.0, 0.0, 1.0])

    def test_sgg_rejects_nonmonotone_result(self):
        # growing factors shrink beta_k below beta_{k-1}
        with pytest.raises(ValueError):
            weights_sgg_apriori(2, [1.0, 4.0, 16.0])

    def test_laplace_beltrami(self):
        w = weights_laplace_beltrami(30)
        assert w.beta[0] == 0.0
        assert w.beta[1] == 2.0
        assert w.beta[1] ** 2 == 4.0
        assert w.beta[30] == 930.0
        assert w.beta[30] ** 2 == 864900.0

    def test_kernel_weights_flat(self):
        w = weights_from_kernel_params(4, KernelParams(0.0, 0.0))
        assert np.array_equal(w.beta, np.ones(5))

    def test_kernel_weights_polynomial(self):
        w = weights_from_kernel_params(4, KernelParams(0.0, 2.0))
        assert w.beta[3] == pytest.approx(4.0, rel=1e-14)

    def test_kernel_weights_exponential(self):
        w = weights_from_kernel_params(3, KernelParams(np.log(4.0), 0.0))
        assert w.beta[1] == pytest.approx(4.0, rel=1e-14)

    def test_kernel_weights_nondecreasing_over_box(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = KernelParams(float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
            w = weights_from_kernel_params(10, p)
            assert np.all(np.diff(w.beta) >= 0)

    def test_kernel_params_reject_negative(self):
        with pytest.raises(ValueError):
            KernelParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, -2.0)

    def test_ones(self):
        assert np.array_equal(weights_ones(3).beta, np.ones(4))


class TestBalancingConfig:
    def test_grid_strictly_decreasing(self):
        cfg = BalancingConfig(alpha0=8.0, q=0.8, L=60, omega=0.002, delta=0.05)
        grid = cfg.grid()
        assert grid.size == 60
        assert grid[0] == pytest.approx(6.4)
        assert np.all(np.diff(grid) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BalancingConfig(alpha0=0.0, q=0.8, L=10, omega=0.002, delta=0.05)
        with pytest.raises(ValueError):
            BalancingConfig(alpha0=1.0, q=1.0, L=10, omega=0.002, delta=0.05)
        with pytest.raises(ValueError):
            BalancingConfig(alpha0=1.0, q=0.5, L=1, omega=0.002, delta=0.05)
        with pytest.raises(ValueError):
            BalancingConfig(alpha0=1.0, q=0.5, L=10, omega=0.0, delta=0.05)
        with pytest.raises(ValueError):
            BalancingConfig(alpha0=1.0, q=0.5, L=10, omega=0.002, delta=-1.0)
        with pytest.raises(ValueError):
            BalancingConfig(alpha0=1.0, q=0.5, L=10, omega=0.002, delta=0.0, norm_bound="x")

    def test_whole_numbers_only(self):
        base = dict(alpha0=1.0, q=0.5, omega=0.002, delta=0.05)
        with pytest.raises(ValueError, match="grid length"):
            BalancingConfig(L=10.5, **base)
        with pytest.raises(ValueError, match="probe resolution"):
            BalancingConfig(L=10, probe_resolution=10.5, **base)
        with pytest.raises(ValueError, match="grid length"):
            BalancingConfig(L=True, **base)
        cfg = BalancingConfig(L=10.0, probe_resolution=np.int64(6), **base)
        assert type(cfg.L) is int and cfg.L == 10
        assert type(cfg.probe_resolution) is int and cfg.probe_resolution == 6


class TestBalancingPrinciple:
    CFG = dict(alpha0=8.0, q=0.8, L=20, omega=0.002, probe_resolution=8)

    def test_zero_delta_triggers_immediately(self):
        s = noisy_samples(4, seed=3)
        beta = PenalizationWeights(4, np.arange(5.0) + 1)
        cfg = BalancingConfig(delta=0.0, **self.CFG)
        res = balancing_principle(s, 4, beta, cfg)
        assert res.triggered
        assert len(res.trace) == 1
        # first comparison wins: alpha_{L-1}
        assert res.alpha_star == pytest.approx(8.0 * 0.8**19)

    def test_huge_omega_never_triggers(self):
        s = noisy_samples(4, seed=3)
        beta = PenalizationWeights(4, np.arange(5.0) + 1)
        cfg = BalancingConfig(
            alpha0=8.0, q=0.8, L=20, omega=1e12, delta=1.0, probe_resolution=8
        )
        res = balancing_principle(s, 4, beta, cfg)
        assert not res.triggered
        assert res.alpha_star == pytest.approx(8.0 * 0.8)  # largest grid value
        assert len(res.trace) == 19  # every comparison recorded

    def test_trace_alphas_ascending_and_complete(self):
        s = noisy_samples(5, seed=4)
        beta = PenalizationWeights(5, np.arange(6.0))
        cfg = BalancingConfig(delta=0.05, **self.CFG)
        res = balancing_principle(s, 5, beta, cfg)
        alphas = [t.alpha for t in res.trace]
        assert np.all(np.diff(alphas) > 0)
        assert all(not t.triggered for t in res.trace[:-1])
        assert res.trace[-1].triggered == res.triggered

    def test_threshold_scaling_exact(self):
        # powers of two scale thresholds exactly
        s = noisy_samples(4, seed=5)
        beta = PenalizationWeights(4, np.arange(5.0) + 0.5)
        base = BalancingConfig(delta=0.05, norm_bound="crude", **self.CFG)
        res1 = balancing_principle(s, 4, beta, base)
        for c in (2.0, 4.0, 0.5):
            scaled = BalancingConfig(delta=c * 0.05, norm_bound="crude", **self.CFG)
            res2 = balancing_principle(s, 4, beta, scaled)
            for t1, t2 in zip(res1.trace, res2.trace):
                assert t2.threshold == c * t1.threshold

    def test_deterministic(self):
        s = noisy_samples(4, seed=6)
        beta = PenalizationWeights(4, np.arange(5.0) + 1)
        cfg = BalancingConfig(delta=0.1, **self.CFG)
        r1 = balancing_principle(s, 4, beta, cfg)
        r2 = balancing_principle(s, 4, beta, cfg)
        assert r1.alpha_star == r2.alpha_star
        assert r1.trace == r2.trace

    def test_grid_norm_matches_operator_norm_bound(self):
        s = noisy_samples(3, seed=7)
        beta = PenalizationWeights(3, np.arange(4.0) + 1)
        cfg = BalancingConfig(
            alpha0=1.0, q=0.5, L=5, omega=1e9, delta=1.0, probe_resolution=6
        )
        res = balancing_principle(s, 3, beta, cfg)
        probes = walk_probe_points(s.rule, 6)
        grid = cfg.grid()
        omega_delta = cfg.omega * cfg.delta
        for step, z in zip(res.trace, range(cfg.L - 2, -1, -1)):
            nb = operator_norm_bound(s.rule, 3, grid[z + 1], beta, probes)
            assert step.threshold == pytest.approx(omega_delta * nb.estimate, rel=1e-12)

    def test_grid_walk_classifies_the_probes_once(self, monkeypatch):
        # the probe classes depend only on the rule and the probe grid, so a
        # walk classifies the probes once, however many steps it takes, and a
        # second walk on the same rule reuses the memoized oracle.  The walk
        # takes the probe rings from the probe grid's (memoized) rule, which
        # found them when it was built, so it scans for none; one
        # operator_norm_bound call on the layout's points as bare probes
        # scans and classifies once.
        calls = {"ring_layout": 0, "probe_classes": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(_rings, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(_rings, name, counting)
        params._probe_norm.cache_clear()
        s = noisy_samples(6, seed=12)
        beta = PenalizationWeights(6, np.arange(7.0) + 1)
        cfg = BalancingConfig(alpha0=2.0, q=0.5, L=6, omega=1e9, delta=1.0)
        res = balancing_principle(s, 6, beta, cfg)
        assert len(res.trace) == cfg.L - 1
        assert calls == {"ring_layout": 0, "probe_classes": 1}
        balancing_principle(s, 6, beta, cfg)
        assert calls == {"ring_layout": 0, "probe_classes": 1}
        operator_norm_bound(s.rule, 6, 1e-3, beta, walk_probe_points(s.rule, 12))
        assert calls == {"ring_layout": 1, "probe_classes": 2}

    def test_norm_bound_variants_order(self):
        # grid <= grid-abs <= crude thresholds, step by step
        s = noisy_samples(4, seed=8)
        beta = PenalizationWeights(4, np.arange(5.0) + 1)
        results = {}
        for kind in ("grid", "grid-abs", "crude"):
            cfg = BalancingConfig(
                alpha0=2.0, q=0.5, L=6, omega=1e9, delta=1.0,
                probe_resolution=8, norm_bound=kind,
            )
            results[kind] = balancing_principle(s, 4, beta, cfg)
        for a, b, c in zip(
            results["grid"].trace, results["grid-abs"].trace, results["crude"].trace
        ):
            assert a.threshold <= b.threshold * (1 + 1e-12)
            assert b.threshold <= c.threshold * (1 + 1e-12)

    def test_grid_abs_table_follows_the_rule(self):
        # same points, reweighted rings (still summing to 4 pi, as the rule
        # integrates t^2 exactly): the first rule's table must not be reused
        rule = gauss_legendre_rule(4)
        t = rule.points[:, 2]
        other = CubatureRule(4, rule.points, rule.weights * (1.0 + 0.3 * (t * t - 1.0 / 3.0)))
        beta = PenalizationWeights(4, np.arange(5.0) + 1)
        cfg = BalancingConfig(
            alpha0=2.0, q=0.5, L=6, omega=1e9, delta=1.0,
            probe_resolution=8, norm_bound="grid-abs",
        )
        y = np.random.default_rng(9).normal(size=rule.n_points)
        balancing_principle(SampleSet(rule, y), 4, beta, cfg)
        res = balancing_principle(SampleSet(other, y), 4, beta, cfg)
        table = weighted_abs_legendre_sums(other, 4, walk_probe_points(other, 8))
        k = np.arange(5)
        grid = cfg.grid()
        for step, z in zip(res.trace, range(cfg.L - 2, -1, -1)):
            c = (2 * k + 1) / (4 * np.pi) * filter_factors(4, grid[z + 1], beta)
            expected = cfg.omega * cfg.delta * (table @ c).max()
            assert step.threshold == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def record_table_shapes(monkeypatch):
        """Shapes of the tables the `grid-abs` oracle builds, through the
        module global the builder calls."""
        shapes = []
        table = approx.weighted_abs_legendre_sums

        def recording(rule, M, probes):
            S = table(rule, M, probes)
            shapes.append(S.shape)
            return S

        monkeypatch.setattr(approx, "weighted_abs_legendre_sums", recording)
        return shapes

    def test_grid_abs_table_keeps_one_row_per_probe_class(self, monkeypatch):
        # probes of one class share a table row, so max(table @ c) needs one
        # row per class: 31 ring classes x 2 azimuth offsets on the invariant
        # set of M = 30.  A rule in another node order is no product grid,
        # so it takes probe_grid(10) and keeps every probe
        shapes = self.record_table_shapes(monkeypatch)
        rule = gauss_legendre_rule(30)
        params._probe_norm.__wrapped__(rule, 30, 60, "grid-abs")
        assert shapes == [(62, 31)]
        rule = gauss_legendre_rule(5)
        perm = np.random.default_rng(10).permutation(rule.n_points)
        shuffled = CubatureRule(5, rule.points[perm], rule.weights[perm])
        params._probe_norm.__wrapped__(shuffled, 5, 10, "grid-abs")
        assert shapes[1:] == [(probe_grid(10).shape[0], 6)]

    @staticmethod
    def count_probe_classes(monkeypatch):
        calls = []
        probe_classes = _rings.probe_classes

        def counting(*args):
            calls.append(args)
            return probe_classes(*args)

        monkeypatch.setattr(_rings, "probe_classes", counting)
        return calls

    def test_grid_abs_table_classifies_the_probes_once(self, monkeypatch):
        # one probe_classes call per table build; the public table takes the
        # probes as given and does not classify them
        calls = self.count_probe_classes(monkeypatch)
        rule = gauss_legendre_rule(10)
        params._probe_norm.__wrapped__(rule, 10, 20, "grid-abs")
        assert len(calls) == 1
        assert weighted_abs_legendre_sums(rule, 10, probe_grid(20)).shape == (882, 11)
        assert len(calls) == 1

    @pytest.mark.parametrize("M, resolution", [(5, 2), (11, 5), (30, 30)])
    def test_single_azimuth_class_build_classifies_once(self, monkeypatch, M, resolution):
        # with 2(r + 1) <= 2(M + 1) the invariant set keeps the rule's
        # azimuths, all in one class, so the class representatives form a
        # one-azimuth product grid; the build still classifies the probes
        # once and keeps one row per ring class
        calls = self.count_probe_classes(monkeypatch)
        shapes = self.record_table_shapes(monkeypatch)
        rule = gauss_legendre_rule(M)
        sup = params._probe_norm.__wrapped__(rule, M, resolution, "grid-abs")
        assert len(calls) == 1
        rings, azimuths, _ = _rings.probe_classes(rule.rings, params._probe_rings(rule, resolution))
        assert azimuths.size == 1 and shapes == [(rings.size, M + 1)]
        c = (2 * np.arange(M + 1) + 1) / (4 * np.pi)
        full = weighted_abs_legendre_sums(rule, M, walk_probe_points(rule, resolution)) @ c
        assert sup(np.ones(M + 1)) == pytest.approx(full.max(), rel=1e-12)

    def test_grid_abs_table_memory_at_degree_60(self, monkeypatch):
        # a fresh M = 60 build (the rule made beforehand) makes one table, a row
        # per probe class (122) and a column per degree (61), and its traced
        # peak stays under 25 MB; the next test bounds the same build at 4 MB
        shapes = self.record_table_shapes(monkeypatch)
        rule = gauss_legendre_rule(60)
        tracemalloc.start()
        try:
            params._probe_norm.__wrapped__(rule, 60, 120, "grid-abs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(122, 61)]
        assert peak < 25 * 2**20

    def test_grid_abs_oracle_streams_the_degree_at_degree_60(self):
        # the degree loop keeps a few vectors of one block's pairs (262 KB
        # each): a cold build, probe set and classes included, stays under
        # 4 MB, where a (pairs, M+1) Legendre array per block peaks at 16.8 MB
        rule = gauss_legendre_rule(60)
        tracemalloc.start()
        try:
            params._probe_norm.__wrapped__(rule, 60, 120, "grid-abs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_grid_abs_oracle_forms_no_probe_set_at_degree_120(self):
        # a cold M = 120 build forms its 242 class representatives from the
        # probe layout and peaks at 2.9 MB; forming the layout's 116 644
        # points as well (2.8 MB) takes the peak to 5.6 MB
        rule = gauss_legendre_rule(120)
        gauss_legendre_rule(240)  # the probe rings' rule, made beforehand as by a walk
        tracemalloc.start()
        try:
            params._probe_norm.__wrapped__(rule, 120, 240, "grid-abs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_walk_refuses_weights_of_another_degree(self):
        s = noisy_samples(4, seed=19)
        for bound in params.NORM_BOUND_KINDS:
            cfg = BalancingConfig(alpha0=2.0, q=0.5, L=4, omega=1.0, delta=0.1, norm_bound=bound)
            for beta in (weights_ones(0), weights_ones(5)):
                with pytest.raises(ValueError, match="weights are for degree"):
                    balancing_principle(s, 4, beta, cfg)

    def test_grid_abs_thresholds_equal_full_table_maxima(self):
        M = 30
        samples = noisy_samples(M, seed=11)
        beta = weights_laplace_beltrami(M)
        cfg = BalancingConfig(
            alpha0=8.0, q=0.8, L=12, omega=1e9, delta=0.5, norm_bound="grid-abs"
        )
        res = balancing_principle(samples, M, beta, cfg)
        assert len(res.trace) == cfg.L - 1
        probes = walk_probe_points(samples.rule, 2 * M)
        table = weighted_abs_legendre_sums(samples.rule, M, probes)
        k = np.arange(M + 1)
        grid = cfg.grid()
        for step, z in zip(res.trace, range(cfg.L - 2, -1, -1)):
            c = (2 * k + 1) / (4 * np.pi) * filter_factors(M, grid[z + 1], beta)
            # the walk's table holds one row per class, this one a row per
            # probe; a class's rows agree to rounding (at most 2.1e-16
            # relative at M = 30 with OpenBLAS), as dot products round by
            # row position within a block
            expected = cfg.omega * cfg.delta * (table @ c).max()
            assert step.threshold == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_trace_csv(self, tmp_path):
        s = noisy_samples(3, seed=9)
        beta = PenalizationWeights(3, np.ones(4))
        cfg = BalancingConfig(
            alpha0=1.0, q=0.5, L=4, omega=0.1, delta=0.1, probe_resolution=6
        )
        res = balancing_principle(s, 3, beta, cfg)
        path = tmp_path / "trace.csv"
        save_bp_trace(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,difference,threshold,triggered"
        assert len(lines) == 1 + len(res.trace)


class TestWalkAgainstFullSynthesis:
    """The walk takes each step's difference as the half-azimuth sup of one
    degree-weighted expansion; the reference synthesizes both fits on every
    point of the walk's probe layout and subtracts them."""

    M = 30

    @staticmethod
    def reference_walk(samples, M, beta, cfg):
        """(alpha_star, triggered, steps, largest |fit value|), each step an
        (alpha, difference, threshold, triggered) tuple."""
        alphas = cfg.grid()
        resolution = cfg.probe_resolution or 2 * M
        rings = params._probe_rings(samples.rule, resolution)
        gamma = analyze(samples, M).values
        b2 = expand_by_degree(beta.beta**2)
        if cfg.norm_bound == "crude":
            norm = lambda alpha: approx.crude_norm_upper(M, alpha, beta)
        else:
            sup = approx._norm_oracle(samples.rule, M, rings, cfg.norm_bound)
            norm = lambda alpha: sup(filter_factors(M, alpha, beta))
        fits = [_rings.synthesis(rings, M, gamma / (1.0 + alphas[cfg.L - 1] * b2))]
        steps, alpha_star, triggered = [], alphas[0], False
        for z in range(cfg.L - 2, -1, -1):
            fits.append(_rings.synthesis(rings, M, gamma / (1.0 + alphas[z] * b2)))
            difference = float(np.abs(fits[-1] - fits[-2]).max())
            threshold = cfg.omega * cfg.delta * norm(alphas[z + 1])
            hit = difference > threshold
            steps.append((float(alphas[z]), difference, float(threshold), hit))
            if hit:
                alpha_star, triggered = float(alphas[z]), True
                break
        return alpha_star, triggered, steps, max(np.abs(f).max() for f in fits)

    @pytest.mark.parametrize("sigma", [0.005, 0.05, 0.5])
    @pytest.mark.parametrize("bound", params.NORM_BOUND_KINDS)
    def test_same_walk_as_full_synthesis(self, bound, sigma):
        # the reference fit's data.  Both walks compute the thresholds by
        # the same expression, so they agree bit for bit.  The differences
        # agree to 1e-12 of the largest fit value (1.1e-15 measured): the
        # reference subtracts two nearly equal fits, so its rounding is
        # relative to the fits, not to their difference
        M, d = self.M, experiments.DEFAULTS
        rule = gauss_legendre_rule(M)
        clean = experiments.franke_cap_eval(rule.points)
        noisy, delta = experiments.add_noise(clean, experiments.NoiseSpec("gaussian", sigma, 1))
        beta = weights_laplace_beltrami(M)
        cfg = BalancingConfig(
            alpha0=d["grid_anchor"], q=d["grid_ratio"], L=d["grid_len"], omega=d["omega"],
            delta=delta, norm_bound=bound,
        )
        alpha_star, triggered, steps, scale = self.reference_walk(SampleSet(rule, noisy), M, beta, cfg)
        res = balancing_principle(SampleSet(rule, noisy), M, beta, cfg)
        assert res.alpha_star == alpha_star and res.triggered == triggered
        assert len(res.trace) == len(steps)
        for step, (alpha, difference, threshold, hit) in zip(res.trace, steps):
            assert step.alpha == alpha and step.threshold == threshold
            assert step.triggered == hit
            assert abs(step.difference - difference) <= 1e-12 * scale


class TestOneAnalysisPerSampleSet:
    """`analyze` keeps its coefficients on the sample set, so the walks and
    fits of one sample set run the ring analysis once."""

    @pytest.fixture
    def analyses(self, monkeypatch):
        degrees = []
        analysis = _rings.analysis

        def counting(rings, M, values):
            degrees.append(M)
            return analysis(rings, M, values)

        monkeypatch.setattr(_rings, "analysis", counting)
        return degrees

    def test_kernel_search_analyzes_once(self, analyses):
        # 3 x 3 draws and the final mean: ten walks and ten fits
        s = noisy_samples(6, seed=15)
        search = RandomSearchConfig(runs=3, steps_per_run=3, box=((0, 3), (0, 3)), seed=4)
        bp = BalancingConfig(alpha0=8.0, q=0.8, L=20, omega=0.002, delta=0.5, norm_bound="grid-abs")
        kernel_select(s, 6, search, bp)
        assert analyses == [6]

    def test_walk_then_fit_analyzes_once(self, analyses):
        s = noisy_samples(6, seed=16)
        beta = weights_laplace_beltrami(6)
        cfg = BalancingConfig(alpha0=8.0, q=0.8, L=20, omega=0.002, delta=0.5)
        res = balancing_principle(s, 6, beta, cfg)
        gamma = regularized_fit(s, 6, res.alpha_star, beta)
        assert analyses == [6]
        factors = expand_by_degree(filter_factors(6, res.alpha_star, beta))
        assert np.array_equal(gamma.values, factors * analyze(s, 6).values)
        assert analyses == [6]

    def test_one_entry_per_degree(self, analyses):
        s = noisy_samples(6, seed=17)
        low, high = analyze(s, 4), analyze(s, 6)
        assert analyze(s, 4.0) is low and analyze(s, np.int64(6)) is high
        assert analyses == [4, 6]
        assert sorted(s._analyses) == [4, 6]
        assert low.degree_M == 4 and high.degree_M == 6
        assert SampleSet(s.rule, s.values)._analyses == {}

    def test_analyses_stay_out_of_repr_and_eq(self):
        field = {f.name: f for f in dataclasses.fields(SampleSet)}["_analyses"]
        assert not (field.init or field.repr or field.compare)
        s = noisy_samples(3, seed=18)
        twin = SampleSet(s.rule, s.values)
        before = repr(s)
        analyze(s, 3)
        assert s._analyses and not twin._analyses
        assert repr(s) == before and "_analyses" not in before
        # sample sets compare by identity, analyzed or not
        assert s == s and s != twin


class TestKernelSelect:
    BP = dict(alpha0=2.0, q=0.5, L=8, omega=0.002, delta=0.05, probe_resolution=6)

    def test_collapsed_box(self):
        s = noisy_samples(3, seed=10)
        search = RandomSearchConfig(
            runs=3, steps_per_run=2, box=((0.7, 0.7), (1.3, 1.3)), seed=42
        )
        res = kernel_select(s, 3, search, BalancingConfig(**self.BP))
        assert res.best == KernelParams(0.7, 1.3)

    def test_single_draw(self):
        s = noisy_samples(3, seed=11)
        search = RandomSearchConfig(runs=1, steps_per_run=1, box=((0, 2), (0, 2)), seed=5)
        res = kernel_select(s, 3, search, BalancingConfig(**self.BP))
        rng = np.random.default_rng([5, 0])
        l1 = float(rng.uniform(0, 2))
        l2 = float(rng.uniform(0, 2))
        assert res.best == KernelParams(l1, l2)
        assert res.per_run == (KernelParams(l1, l2),)

    def test_deterministic(self):
        s = noisy_samples(3, seed=12)
        search = RandomSearchConfig(runs=2, steps_per_run=3, box=((0, 3), (0, 3)), seed=9)
        bp = BalancingConfig(**self.BP)
        r1 = kernel_select(s, 3, search, bp)
        r2 = kernel_select(s, 3, search, bp)
        assert r1 == r2

    def test_objectives_nonnegative_and_in_box(self):
        s = noisy_samples(3, seed=13)
        search = RandomSearchConfig(runs=3, steps_per_run=3, box=((0, 4), (1, 5)), seed=1)
        res = kernel_select(s, 3, search, BalancingConfig(**self.BP))
        assert all(v >= 0 for v in res.objective_values)
        assert res.best_objective >= 0
        for p in res.per_run:
            assert 0 <= p.lambda1 <= 4 and 1 <= p.lambda2 <= 5
        assert 0 <= res.best.lambda1 <= 4 and 1 <= res.best.lambda2 <= 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomSearchConfig(runs=0, steps_per_run=1)
        with pytest.raises(ValueError):
            RandomSearchConfig(runs=1, steps_per_run=1, box=((2, 1), (0, 5)))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(box=((0, np.inf), (0, 1))), "search box"),
            (dict(box=((0, 1), (-np.inf, 1))), "search box"),
            (dict(box=((0, np.nan), (0, 1))), "search box"),
            (dict(seed=-1), "seed"),
            (dict(seed=True), "seed"),
            (dict(seed="3"), "seed"),
            (dict(seed=2.5), "seed"),
        ],
    )
    def test_seed_and_box_checked_when_built(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RandomSearchConfig(runs=1, steps_per_run=1, **kwargs)

    def test_whole_number_seed(self):
        search = RandomSearchConfig(runs=1, steps_per_run=1, box=((0, 2), (0, 2)), seed=np.int64(5))
        assert type(search.seed) is int
        res = kernel_select(noisy_samples(3, seed=11), 3, search, BalancingConfig(**self.BP))
        assert res.seed == 5 and type(res.seed) is int

    def test_whole_number_counts(self):
        with pytest.raises(ValueError, match="runs"):
            RandomSearchConfig(runs=2.5, steps_per_run=1)
        with pytest.raises(ValueError, match="steps_per_run"):
            RandomSearchConfig(runs=1, steps_per_run=1.5)
        search = RandomSearchConfig(runs=2.0, steps_per_run=np.int64(1), seed=3)
        assert type(search.runs) is int and type(search.steps_per_run) is int
        s = noisy_samples(3, seed=14)
        assert len(kernel_select(s, 3, search, BalancingConfig(**self.BP)).per_run) == 2
