import numpy as np
import pytest

from spherefit import (
    BalancingConfig,
    KernelParams,
    PenalizationWeights,
    RandomSearchConfig,
    SampleSet,
    balancing_principle,
    gauss_legendre_rule,
    kernel_select,
    operator_norm_bound,
    probe_grid,
    save_bp_trace,
    weights_from_kernel_params,
    weights_laplace_beltrami,
    weights_ones,
    weights_sgg_apriori,
)


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
        probes = probe_grid(6)
        grid = cfg.grid()
        omega_delta = cfg.omega * cfg.delta
        for step, z in zip(res.trace, range(cfg.L - 2, -1, -1)):
            nb = operator_norm_bound(s.rule, 3, grid[z + 1], beta, probes)
            assert step.threshold == pytest.approx(omega_delta * nb.estimate, rel=1e-12)

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
