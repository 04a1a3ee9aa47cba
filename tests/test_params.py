import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _support import SUP_NORM_KINDS, norm_probe_points, record_table_probes, rotated_rule, traced

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
    sph_harm_matrix,
    weights_from_kernel_params,
    weights_laplace_beltrami,
    weights_ones,
    weights_sgg_apriori,
)
from spherefit import _rings, approx, params
from spherefit.approx import expand_by_degree, filter_factors, weighted_abs_legendre_sums


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
        with pytest.raises(ValueError, match="grid length"):
            BalancingConfig(L=True, **base)
        cfg = BalancingConfig(L=10.0, **base)
        assert type(cfg.L) is int and cfg.L == 10


class TestBalancingPrinciple:
    CFG = dict(alpha0=8.0, q=0.8, L=20, omega=0.002)

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
        cfg = BalancingConfig(alpha0=8.0, q=0.8, L=20, omega=1e12, delta=1.0)
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
        cfg = BalancingConfig(alpha0=1.0, q=0.5, L=5, omega=1e9, delta=1.0)
        res = balancing_principle(s, 3, beta, cfg)
        probes = norm_probe_points(s.rule, 6)
        grid = cfg.grid()
        omega_delta = cfg.omega * cfg.delta
        for step, z in zip(res.trace, range(cfg.L - 2, -1, -1)):
            nb = operator_norm_bound(s.rule, 3, grid[z + 1], beta, probes)
            assert step.threshold == pytest.approx(omega_delta * nb.estimate, rel=1e-12)

    def test_grid_walk_classifies_the_probes_once(self, monkeypatch):
        # the probe classes depend only on the rule and the probe grid, so a
        # walk classifies the probes once, however many steps it takes; a
        # second walk given the first one's plan reuses its oracle, and one
        # given none classifies them anew.  The walk forms its probe rings
        # from the Gauss-Legendre nodes, so it scans for none; one
        # operator_norm_bound call on the layout's points as bare probes
        # scans and classifies once.
        calls = {"ring_layout": 0, "probe_classes": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(_rings, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(_rings, name, counting)
        s = noisy_samples(6, seed=12)
        beta = PenalizationWeights(6, np.arange(7.0) + 1)
        cfg = BalancingConfig(alpha0=2.0, q=0.5, L=6, omega=1e9, delta=1.0)
        plan = approx._Plan(s.rule, 6)
        res = balancing_principle(s, 6, beta, cfg, plan=plan)
        assert len(res.trace) == cfg.L - 1
        assert calls == {"ring_layout": 0, "probe_classes": 1}
        balancing_principle(s, 6, beta, cfg, plan=plan)
        assert calls == {"ring_layout": 0, "probe_classes": 1}
        balancing_principle(s, 6, beta, cfg)
        assert calls == {"ring_layout": 0, "probe_classes": 2}
        operator_norm_bound(s.rule, 6, 1e-3, beta, norm_probe_points(s.rule, 12))
        assert calls == {"ring_layout": 1, "probe_classes": 3}

    def test_norm_bound_variants_order(self):
        # grid <= grid-abs <= crude thresholds, step by step
        s = noisy_samples(4, seed=8)
        beta = PenalizationWeights(4, np.arange(5.0) + 1)
        results = {}
        for kind in ("grid", "grid-abs", "crude"):
            cfg = BalancingConfig(alpha0=2.0, q=0.5, L=6, omega=1e9, delta=1.0, norm_bound=kind)
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
            alpha0=2.0, q=0.5, L=6, omega=1e9, delta=1.0, norm_bound="grid-abs"
        )
        y = np.random.default_rng(9).normal(size=rule.n_points)
        balancing_principle(SampleSet(rule, y), 4, beta, cfg)
        res = balancing_principle(SampleSet(other, y), 4, beta, cfg)
        table = weighted_abs_legendre_sums(other, 4, norm_probe_points(other, 8))
        k = np.arange(5)
        grid = cfg.grid()
        for step, z in zip(res.trace, range(cfg.L - 2, -1, -1)):
            c = (2 * k + 1) / (4 * np.pi) * filter_factors(4, grid[z + 1], beta)
            expected = cfg.omega * cfg.delta * (table @ c).max()
            assert step.threshold == pytest.approx(expected, rel=1e-12)

    def test_grid_abs_table_keeps_one_row_per_probe_class(self, monkeypatch):
        # probes of one class share a table row, so max(table @ c) needs one
        # row per class: 31 ring classes x 2 azimuth offsets on the invariant
        # set of M = 30.  A rule in another node order is no product grid,
        # so it takes probe_grid(10) and keeps every probe
        tables = record_table_probes(monkeypatch)
        rule = gauss_legendre_rule(30)
        approx._Plan(rule, 30).norm("grid-abs")
        assert [len(probes) for probes in tables] == [62]
        rule = gauss_legendre_rule(5)
        perm = np.random.default_rng(10).permutation(rule.n_points)
        shuffled = CubatureRule(5, rule.points[perm], rule.weights[perm])
        approx._Plan(shuffled, 5).norm("grid-abs")
        assert [len(probes) for probes in tables[1:]] == [probe_grid(10).shape[0]]

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
        approx._Plan(rule, 10).norm("grid-abs")
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
        tables = record_table_probes(monkeypatch)
        rule = gauss_legendre_rule(M)
        probe_rings = approx._probe_rings(rule, resolution)
        sup = approx._norm_oracle(rule, M, probe_rings, "grid-abs")
        assert len(calls) == 1
        rings, azimuths = _rings.probe_classes(rule.rings, probe_rings)
        assert azimuths.size == 1 and [len(probes) for probes in tables] == [rings.size]
        c = (2 * np.arange(M + 1) + 1) / (4 * np.pi)
        full = weighted_abs_legendre_sums(rule, M, norm_probe_points(rule, resolution)) @ c
        assert sup(np.ones(M + 1)) == pytest.approx(full.max(), rel=1e-12)

    def test_grid_abs_table_memory_at_degree_60(self, monkeypatch):
        # a fresh M = 60 build (the rule made beforehand) makes one table, a row
        # per probe class (122) and a column per degree (61), and its traced
        # peak stays under 25 MB; the next test bounds the same build at 4 MB
        tables = record_table_probes(monkeypatch)
        rule = gauss_legendre_rule(60)
        peak = traced(lambda: approx._Plan(rule, 60).norm("grid-abs")).peak
        assert [len(probes) for probes in tables] == [122]
        assert peak < 25 * 2**20

    def test_grid_abs_oracle_streams_the_degree_at_degree_60(self):
        # the degree loop keeps a few vectors of one block's pairs (262 KB
        # each): a cold build, probe set and classes included, stays under
        # 4 MB, where a (pairs, M+1) Legendre array per block peaks at 16.8 MB
        rule = gauss_legendre_rule(60)
        assert traced(lambda: approx._Plan(rule, 60).norm("grid-abs")).peak < 4 * 2**20

    def test_grid_abs_oracle_forms_no_probe_set_at_degree_120(self):
        # a cold M = 120 build forms its 242 class representatives from the
        # probe layout and peaks at 2.9 MB; forming the layout's 116 644
        # points as well (2.8 MB) takes the peak to 5.6 MB
        rule = gauss_legendre_rule(120)
        assert traced(lambda: approx._Plan(rule, 120).norm("grid-abs")).peak < 4 * 2**20

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
        probes = norm_probe_points(samples.rule, 2 * M)
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
        cfg = BalancingConfig(alpha0=1.0, q=0.5, L=4, omega=0.1, delta=0.1)
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
        rings = approx._probe_rings(samples.rule, 2 * M)
        table = _rings.ring_table(_rings.degree_layout(M), rings)
        gamma = analyze(samples, M).values
        b2 = expand_by_degree(beta.beta**2)
        if cfg.norm_bound == "crude":
            norm = lambda alpha: approx._crude(filter_factors(M, alpha, beta))
        else:
            sup = approx._norm_oracle(samples.rule, M, rings, cfg.norm_bound)
            norm = lambda alpha: sup(filter_factors(M, alpha, beta))
        fits = [_rings.synthesis(table, gamma / (1.0 + alphas[cfg.L - 1] * b2))]
        steps, alpha_star, triggered = [], alphas[0], False
        for z in range(cfg.L - 2, -1, -1):
            fits.append(_rings.synthesis(table, gamma / (1.0 + alphas[z] * b2)))
            difference = float(np.abs(fits[-1] - fits[-2]).max())
            threshold = cfg.omega * cfg.delta * norm(alphas[z + 1])
            hit = difference > threshold
            steps.append((float(alphas[z]), difference, float(threshold), hit))
            if hit:
                alpha_star, triggered = float(alphas[z]), True
                break
        return alpha_star, triggered, steps, max(np.abs(f).max() for f in fits)

    @pytest.mark.parametrize("sigma", [0.005, 0.05, 0.5])
    @pytest.mark.parametrize("bound", SUP_NORM_KINDS)
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


class TestL2Walk:
    """The ``l2`` walk balances L2 norms on the sphere in closed form: a
    step's difference by Parseval from the kept analysis, the threshold's
    norm by the addition theorem from the rule's weights."""

    RULES = ("product", "product-finer", "rotated")

    @staticmethod
    def rule_of(kind, M, rng):
        if kind == "product":
            return gauss_legendre_rule(M)
        if kind == "product-finer":
            return gauss_legendre_rule(M + 3)
        return rotated_rule(M, rng)

    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(0, 12), kind=st.sampled_from(RULES), seed=st.integers(0, 2**32 - 1))
    @example(M=0, kind="rotated", seed=0)
    @example(M=12, kind="product", seed=1)
    def test_difference_is_the_cubature_l2_norm_property(self, M, kind, seed):
        # each step's difference against the L2 norm, by cubature on the
        # rule (exact for the square of a degree-M polynomial), of the
        # difference of the two fits synthesized at the nodes; omega so high
        # that every step is taken
        rng = np.random.default_rng(seed)
        rule = self.rule_of(kind, M, rng)
        samples = SampleSet(rule, rng.normal(size=rule.n_points))
        k = np.arange(M + 1.0)
        beta = PenalizationWeights(M, 1.0 + k * (k + 1.0))
        cfg = BalancingConfig(alpha0=4.0, q=0.5, L=10, omega=1e12, delta=1.0, norm_bound="l2")
        res = balancing_principle(samples, M, beta, cfg)
        assert len(res.trace) == cfg.L - 1 and res.stop == "grid-end"
        alphas = cfg.grid()
        for z, step in zip(range(cfg.L - 2, -1, -1), res.trace):
            near, far = (
                approx.evaluate_grid(regularized_fit(samples, M, alphas[i], beta), rule.points)
                for i in (z, z + 1)
            )
            expected = float(np.sqrt(rule.weights @ (near - far) ** 2))
            assert step.alpha == alphas[z]
            assert abs(step.difference - expected) <= 1e-12 * expected

    def test_threshold_norm_is_the_rms_l2_norm_of_the_fit_of_white_noise(self):
        # on a rule with no ring layout: E ||T_f eps||^2 = sigma^2 tr(A) for
        # A = W Y^T F^2 Y W, and tr(A) is sum_i w_i^2 / (4 pi) sum_k (2k+1)
        # f_k^2 by the addition theorem, the square of the norm in the
        # threshold of a one-step walk (omega = delta = 1) at alpha = alpha_2,
        # to rounding.  The mean over N draws of ||T_f eps||^2 (by Parseval,
        # the fit's squared coefficient norm) has standard deviation
        # sigma^2 sqrt(2 tr(A^2) / N); it must lie within 5 of them
        M, sigma, N = 8, 0.7, 1000
        rng = np.random.default_rng(31)
        rule = rotated_rule(M, rng)
        assert rule.rings is None
        beta = weights_laplace_beltrami(M)
        cfg = BalancingConfig(alpha0=1.2e-2, q=0.5, L=2, omega=1.0, delta=1.0, norm_bound="l2")
        alpha = cfg.grid()[1]
        f = filter_factors(M, alpha, beta)
        (step,) = balancing_principle(SampleSet(rule, rng.normal(size=rule.n_points)), M, beta, cfg).trace
        expected = (sigma * step.threshold) ** 2
        B = expand_by_degree(f)[:, None] * sph_harm_matrix(M, rule.points) * rule.weights
        A = B.T @ B
        assert sigma**2 * np.trace(A) == pytest.approx(expected, rel=1e-12)
        squares = [
            regularized_fit(SampleSet(rule, rng.normal(0.0, sigma, rule.n_points)), M, alpha, beta)
            .norm() ** 2
            for _ in range(N)
        ]
        spread = sigma**2 * np.sqrt(2.0 * np.sum(A * A) / N)
        assert abs(np.mean(squares) - expected) <= 5.0 * spread
        assert spread <= 0.05 * expected  # the check is not vacuous

    @settings(max_examples=40, deadline=None)
    @given(
        M=st.integers(0, 12), kind=st.sampled_from(("product", "rotated")),
        by=st.sampled_from(("weights", "samples")), rows=st.integers(1, 6),
        block=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1),
    )
    @example(M=12, kind="product", by="weights", rows=6, block=1, seed=2)
    @example(M=0, kind="rotated", by="samples", rows=5, block=1000, seed=3)
    def test_batched_rows_equal_single_walks_property(self, M, kind, by, rows, block, seed):
        # a row is one weight vector against one sample set's energies, or
        # one sample set, with its own delta, against one weight vector; each
        # row of a batch, in blocks of `block` entries, gives the alpha,
        # differences and thresholds of `balancing_principle` on that row
        rng = np.random.default_rng(seed)
        rule = self.rule_of(kind, M, rng)
        many = lambda which: rows if by == which else 1
        samples = [SampleSet(rule, rng.lognormal() * rng.normal(size=rule.n_points))
                   for _ in range(many("samples"))]
        betas = [PenalizationWeights(M, np.cumsum(rng.exponential(3.0, M + 1)))
                 for _ in range(many("weights"))]
        deltas = rng.uniform(0.0, 2.0, many("samples"))
        cfg = dict(alpha0=4.0, q=0.5, L=10, omega=10 ** rng.uniform(-3.0, 1.0), norm_bound="l2")
        grid = BalancingConfig(**cfg, delta=1.0).grid()
        with mock.patch.object(params, "_WALK_BLOCK", block):
            blocks = list(params._l2_walks(
                rule.weights, np.array([analyze(s, M).values for s in samples]),
                np.array([b.beta for b in betas]), grid, cfg["omega"] * deltas,
            ))
        stops, differences, thresholds = (np.concatenate(parts) for parts in zip(*blocks))
        assert stops.shape == (rows,) and differences.shape == thresholds.shape == (rows, 9)
        for r in range(rows):
            pick = lambda seq: seq[r if len(seq) > 1 else 0]
            res = balancing_principle(
                pick(samples), M, pick(betas), BalancingConfig(**cfg, delta=pick(deltas))
            )
            n = len(res.trace)
            assert res.alpha_star == grid[stops[r]]
            assert [step.difference for step in res.trace] == differences[r, :n].tolist()
            assert [step.threshold for step in res.trace] == thresholds[r, :n].tolist()

    def test_refuses_energies_beyond_the_float_range(self):
        # 1e200 at the nodes: gamma_kj^2 overflows, so the energies are inf,
        # in a single walk and in a kernel search's batch
        rule = gauss_legendre_rule(3)
        samples = SampleSet(rule, np.full(rule.n_points, 1e200))
        cfg = BalancingConfig(alpha0=2.0, q=0.5, L=8, omega=0.03, delta=0.05, norm_bound="l2")
        search = RandomSearchConfig(runs=2, steps_per_run=3, box=((0, 2), (0, 2)), seed=1)
        with pytest.raises(ValueError, match="finite per-degree energies"):
            balancing_principle(samples, 3, weights_ones(3), cfg)
        with pytest.raises(ValueError, match="finite per-degree energies"):
            kernel_select(samples, 3, search, cfg)


class TestStopReason:
    """`BalancingResult.stop` says where the walk stopped, from `triggered`
    and the trace length; it adds no field."""

    def test_derived_from_triggered_and_trace_length(self):
        step = params.TraceStep(0.1, 1.0, 0.5, True)
        assert params.BalancingResult(0.1, True, (step,)).stop == "first-step"
        assert params.BalancingResult(0.1, True, (step, step)).stop == "interior"
        assert params.BalancingResult(0.1, False, (step, step)).stop == "grid-end"
        assert params.BalancingResult(0.1, False, (step,)).stop == "grid-end"

    def test_no_field_added(self):
        names = [f.name for f in dataclasses.fields(params.BalancingResult)]
        assert names == ["alpha_star", "triggered", "trace"]
        assert params.BalancingResult(0.1, False, ()) == params.BalancingResult(0.1, False, ())

    @pytest.mark.parametrize(
        "omega, stop", [(1e-12, "first-step"), (0.03, "interior"), (1e12, "grid-end")]
    )
    def test_each_stop_of_an_l2_walk(self, omega, stop):
        # the reference fit's data: Franke-plus-cap at the nodes, sigma 0.5
        M = 30
        rule = gauss_legendre_rule(M)
        spec = experiments.NoiseSpec("gaussian", 0.5, 1)
        noisy, delta = experiments.add_noise(experiments.franke_cap_eval(rule.points), spec)
        cfg = BalancingConfig(alpha0=8.0, q=0.8, L=60, omega=omega, delta=delta, norm_bound="l2")
        res = balancing_principle(SampleSet(rule, noisy), M, weights_laplace_beltrami(M), cfg)
        assert res.stop == stop
        assert type(res.alpha_star) is float
        assert res.triggered == (stop != "grid-end")
        assert (len(res.trace) == 1) == (stop == "first-step")


class TestOneAnalysisPerSampleSet:
    """`analyze` keeps its coefficients on the sample set, so the walks and
    fits of one sample set run the ring analysis once."""

    @pytest.fixture
    def analyses(self, monkeypatch):
        degrees = []
        analysis = _rings.analysis

        def counting(table, values):
            # the table holds one position per harmonic, (M+1)^2 of them
            degrees.append(round(table.position.size**0.5) - 1)
            return analysis(table, values)

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
    BP = dict(alpha0=2.0, q=0.5, L=8, omega=0.002, delta=0.05)

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

    def test_weights_whose_square_overflows(self):
        # at (5, 5), beta_k^2 exceeds the float range from degree 137
        s = noisy_samples(140, seed=19)
        search = RandomSearchConfig(runs=1, steps_per_run=1, box=((5, 5), (5, 5)))
        res = kernel_select(s, 140, search, BalancingConfig(**self.BP, norm_bound="crude"))
        assert np.isfinite(res.objective_values).all() and np.isfinite(res.best_objective)

    @pytest.mark.parametrize("box", [((5, 5), (5, 5)), ((0, 5), (0, 5))])
    def test_box_whose_weights_overflow_refused_before_any_walk(self, monkeypatch, box):
        # at (5, 5) the weights themselves exceed the float range from degree 278;
        # a sup-norm search walks by `balancing_principle`, an l2 one by `_l2_walks`
        walks = []

        def walk(*args):
            walks.append(args)
            raise AssertionError("walked before the box was checked")

        for name in ("balancing_principle", "_l2_walks"):
            monkeypatch.setattr(params, name, walk)
        search = RandomSearchConfig(runs=2, steps_per_run=3, box=box)
        samples = noisy_samples(300, seed=20)
        for bound in ("grid", "l2"):
            with pytest.raises(ValueError, match=r"\(5, 5\).*fit degree 300"):
                kernel_select(samples, 300, search, BalancingConfig(**self.BP, norm_bound=bound))
        assert walks == []

    def test_run_with_no_finite_objective_refused(self):
        # 1e200 at the nodes: every objective of a sup-norm search is NaN
        rule = gauss_legendre_rule(3)
        samples = SampleSet(rule, np.full(rule.n_points, 1e200))
        search = RandomSearchConfig(runs=2, steps_per_run=3, box=((0, 2), (0, 2)), seed=1)
        with pytest.raises(ValueError, match="run 0 .*no candidate with a finite objective"):
            kernel_select(samples, 3, search, BalancingConfig(**self.BP, norm_bound="crude"))

    def test_a_long_l2_run_walks_in_blocks(self):
        # one run of 2000 candidates at M = 30: the unblocked (2000, 60, 31)
        # table of filter factors alone would take 30 MB
        M = 30
        samples = noisy_samples(M, seed=21)
        plan = approx._Plan(samples.rule, M)
        analyze(samples, M, plan=plan)
        search = RandomSearchConfig(runs=1, steps_per_run=2000, seed=3)
        bp = BalancingConfig(alpha0=8.0, q=0.8, L=60, omega=0.03, delta=1.5, norm_bound="l2")
        assert traced(lambda: kernel_select(samples, M, search, bp, plan=plan)).peak < 4 * 2**20

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


class TestPlan:
    """One `approx._Plan` per (rule, degree): the tables
    and oracles the walks and fits on one rule share, made by the caller,
    passed on as `plan=`, and dropped when the caller returns."""

    @pytest.mark.parametrize("resolution", [1, 2, 7, 60, 240])
    def test_probe_rings_are_the_probe_grids_rings(self, resolution):
        # formed from the Gauss-Legendre nodes alone, bit for bit the rings
        # of probe_grid(resolution); a product rule's probe rings take a
        # multiple of its 12 azimuths, a rule without rings the grid's own
        rule = gauss_legendre_rule(5)
        perm = np.random.default_rng(21).permutation(rule.n_points)
        shuffled = CubatureRule(5, rule.points[perm], rule.weights[perm])
        meridian = gauss_legendre_rule(resolution).rings.meridian
        for r, azimuths in ((rule, 12 * -(-(resolution + 1) // 6)), (shuffled, 2 * (resolution + 1))):
            rings = approx._probe_rings(r, resolution)
            assert np.array_equal(rings.meridian.view(np.int64), meridian.view(np.int64))
            assert rings.weights is None and rings.azimuths == azimuths

    @pytest.mark.parametrize("field", ["rule", "degree"])
    def test_refuses_a_plan_made_for_another(self, field):
        s = noisy_samples(4, seed=20)
        twin = CubatureRule(4, s.rule.points, s.rule.weights)  # equal arrays, another rule
        made_for = {"rule": (twin, 4), "degree": (s.rule, 3)}
        plan = approx._Plan(*made_for[field])
        beta = weights_laplace_beltrami(4)
        cfg = BalancingConfig(alpha0=2.0, q=0.5, L=4, omega=1.0, delta=0.1)
        search = RandomSearchConfig(runs=1, steps_per_run=1)
        calls = [
            lambda: balancing_principle(s, 4, beta, cfg, plan=plan),
            lambda: kernel_select(s, 4, search, cfg, plan=plan),
            lambda: analyze(s, 4, plan=plan),
            lambda: regularized_fit(s, 4, 0.1, beta, plan=plan),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"plan was made for another {field}"):
                call()

    @pytest.mark.parametrize("bound", params.NORM_BOUND_KINDS)
    def test_results_do_not_depend_on_the_plan(self, bound):
        # the keyword selects no behaviour: a shared plan and a plan per
        # call give the same walks and search, bit for bit
        M = 6
        cfg = BalancingConfig(alpha0=8.0, q=0.8, L=20, omega=0.002, delta=0.5, norm_bound=bound)
        search = RandomSearchConfig(runs=2, steps_per_run=2, box=((0, 3), (0, 3)), seed=5)
        beta = weights_laplace_beltrami(M)
        s = noisy_samples(M, seed=22)
        plan = approx._Plan(s.rule, M)
        alone = noisy_samples(M, seed=22)
        shared = balancing_principle(s, M, beta, cfg, plan=plan)
        own = balancing_principle(alone, M, beta, cfg)
        assert shared == own
        assert kernel_select(s, M, search, cfg, plan=plan) == kernel_select(alone, M, search, cfg)

    @pytest.mark.parametrize("bound", ["grid", "grid-abs"])
    def test_walk_frees_its_plan_on_return(self, bound):
        # a walk given no plan makes its own and drops it: once it returns,
        # with the analysis it kept on the sample set cleared, under 0.5 MB
        # stays held: at most 11 kB measured at M = 60 and at M = 120, where
        # module memos of the tables, the oracle and the probe rule held
        # 3.0 MB and 17 MB
        M = 60
        s = noisy_samples(M, seed=23)
        cfg = BalancingConfig(alpha0=8.0, q=0.8, L=60, omega=0.002, delta=0.5, norm_bound=bound)
        beta = weights_laplace_beltrami(M)

        def walk():
            balancing_principle(s, M, beta, cfg)
            s._analyses.clear()

        assert traced(walk).held < 0.5e6
