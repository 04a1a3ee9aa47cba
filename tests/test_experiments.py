import inspect
import json

import numpy as np
import pytest

from spherefit import (
    HarmonicCoefficients,
    NoiseSpec,
    SampleSet,
    add_noise,
    analyze,
    evaluate_grid,
    franke_cap_eval,
    gauss_legendre_rule,
    relative_error_l2,
    rerun_from_config,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
    sgg_generate,
    sgg_recover,
)
from spherefit import experiments
from spherefit.experiments import (
    SggModel,
    write_experiment_1,
    write_experiment_2,
    write_experiment_3,
)


def franke_only_oracle(x1, x2, x3):
    """Independent scalar transcription of the four-term test function."""
    import math

    return (
        0.75 * math.exp(-(9 * x1 - 2) ** 2 / 4 - (9 * x2 - 2) ** 2 / 4 - (9 * x3 - 2) ** 2 / 4)
        + 0.75 * math.exp(-(9 * x1 + 1) ** 2 / 49 - (9 * x2 + 1) / 49 - (9 * x3 + 1) / 10)
        + 0.5 * math.exp(-(9 * x1 - 7) ** 2 / 4 - (9 * x2 - 3) ** 2 / 4 - (9 * x3 - 5) ** 2 / 4)
        - 0.2 * math.exp(-(9 * x1 - 4) ** 2 - (9 * x2 - 7) ** 2 - (9 * x3 - 5) ** 2)
    )


class TestSggGenerate:
    def test_deterministic(self):
        m1, y1 = sgg_generate(6, 1.2, seed=123)
        m2, y2 = sgg_generate(6, 1.2, seed=123)
        assert np.array_equal(m1.g_true.values, m2.g_true.values)
        assert np.array_equal(y1.values, y2.values)

    def test_decay_factors(self):
        model, _ = sgg_generate(30, 1.2, seed=0)
        assert model.a[30] == pytest.approx(1.2**-30, rel=1e-14)
        assert model.a[30] == pytest.approx(0.004213, abs=1e-6)

    def test_leading_term_bounds(self):
        for seed in range(20):
            model, y = sgg_generate(3, 1.2, seed=seed)
            # k=0 observed coefficient is (1/2)^(-3/2) * x with x in [0, 1]
            assert 0.0 <= y.values[0] <= 2**1.5

    def test_observed_equals_damped_truth(self):
        model, y = sgg_generate(4, 1.5, seed=7)
        a_flat = np.repeat(model.a, 2 * np.arange(5) + 1)
        assert np.allclose(y.values, a_flat * model.g_true.values, atol=0)

    def test_rejects_small_decay(self):
        with pytest.raises(ValueError):
            sgg_generate(3, 1.0, seed=0)


class TestAddNoise:
    def test_zero_level(self):
        vals = np.array([1.0, -2.0, 3.0])
        for kind in ("uniform_supnorm", "gaussian"):
            noisy, sup = add_noise(vals, NoiseSpec(kind, 0.0, seed=1))
            assert np.array_equal(noisy, vals)
            assert sup == 0.0

    def test_uniform_supnorm_exact(self):
        vals = np.zeros(500)
        noisy, sup = add_noise(vals, NoiseSpec("uniform_supnorm", 0.05, seed=2))
        assert sup == 0.05
        assert np.abs(noisy).max() == 0.05  # one component attains the level
        assert np.all(np.abs(noisy) <= 0.05)

    def test_gaussian_sup_statistics(self):
        # max |N(0, 0.5)| over 1922 draws concentrates in [1.2, 2.4]
        inside = 0
        for seed in range(100):
            _, sup = add_noise(
                np.zeros(1922), NoiseSpec("gaussian", 0.5, seed=seed)
            )
            inside += 1.2 <= sup <= 2.4
        assert inside >= 95

    def test_deterministic(self):
        vals = np.ones(64)
        n1, _ = add_noise(vals, NoiseSpec("gaussian", 0.3, seed=9))
        n2, _ = add_noise(vals, NoiseSpec("gaussian", 0.3, seed=9))
        assert np.array_equal(n1, n2)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("poisson", 1.0)


class TestSggRecover:
    @pytest.mark.parametrize("M", [3, 10])
    def test_noise_free_pipeline(self, M):
        model, y = sgg_generate(M, 1.2, seed=M)
        rule = gauss_legendre_rule(M)
        samples = SampleSet(rule, evaluate_grid(y, rule.points))
        recovered = sgg_recover(analyze(samples, M), model)
        rel = np.linalg.norm(recovered.values - model.g_true.values) / np.linalg.norm(
            model.g_true.values
        )
        assert rel <= 1e-8

    def test_zero_maps_to_zero(self):
        model, _ = sgg_generate(3, 1.2, seed=1)
        out = sgg_recover(HarmonicCoefficients.zeros(3), model)
        assert np.all(out.values == 0.0)

    def test_identity_when_flat(self):
        g = HarmonicCoefficients(2, np.arange(9.0))
        model = SggModel(M=2, a=np.ones(3), rho=1.0, g_true=g)
        out = sgg_recover(g, model)
        assert np.array_equal(out.values, g.values)


class TestRelativeError:
    def test_exact(self):
        t = HarmonicCoefficients(1, [1.0, 2.0, 3.0, 4.0])
        assert relative_error_l2(t, t) == 0.0

    def test_zero_estimate(self):
        t = HarmonicCoefficients(1, [1.0, 2.0, 3.0, 4.0])
        assert relative_error_l2(HarmonicCoefficients.zeros(1), t) == 1.0

    def test_double_estimate(self):
        t = HarmonicCoefficients(1, [1.0, 2.0, 3.0, 4.0])
        d = HarmonicCoefficients(1, 2 * t.values)
        assert relative_error_l2(d, t) == pytest.approx(1.0, rel=1e-14)

    def test_zero_truth_rejected(self):
        z = HarmonicCoefficients.zeros(1)
        with pytest.raises(ValueError):
            relative_error_l2(z, z)


class TestFrankeCap:
    def test_matches_independent_oracle_off_cap(self):
        # (1, 0, 0) lies far from the cap center, so only the four-term sum acts
        val = franke_cap_eval((1.0, 0.0, 0.0))
        assert val.shape == (1,)  # one point gives an array, as evaluate_grid does
        assert val[0] == pytest.approx(franke_only_oracle(1.0, 0.0, 0.0), abs=1e-15)

    def test_cap_contribution_at_center(self):
        c = (-0.5, -0.5, 1 / np.sqrt(2))
        cap = franke_cap_eval(c)[0] - franke_only_oracle(*c)
        assert cap == pytest.approx(2.0, abs=1e-12)

    def test_cap_edge_continuity(self):
        # rotate the center by exactly the cap radius inside the (c, e3) plane
        c = np.array([-0.5, -0.5, 1 / np.sqrt(2)])
        tangent = np.array([0.5, 0.5, 1 / np.sqrt(2)])  # unit, orthogonal to c
        edge = np.cos(0.5) * c + np.sin(0.5) * tangent
        cap = franke_cap_eval(edge)[0] - franke_only_oracle(*edge)
        assert abs(cap) <= 1e-12

    def test_outside_cap_is_franke_only(self):
        rng = np.random.default_rng(3)
        c = np.array([-0.5, -0.5, 1 / np.sqrt(2)])
        pts = rng.normal(size=(50, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        outside = pts[pts @ c < np.cos(0.5) - 1e-9]
        vals = franke_cap_eval(outside)
        ref = [franke_only_oracle(*p) for p in outside]
        assert np.abs(vals - ref).max() <= 1e-14

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(10, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vals = franke_cap_eval(pts)
        for p, v in zip(pts, vals):
            assert franke_cap_eval(p)[0] == pytest.approx(v, abs=1e-15)


class TestExperimentRuns:
    def test_experiment_1_small(self):
        res = run_experiment_1(simulations=3, seed=11)
        assert set(res.curves) == {"plain-ls", "apriori-bp", "ones-best", "apriori-best"}
        for curve in res.curves.values():
            errs = [e for _, e in curve]
            assert len(errs) == 3
            assert np.all(np.diff(errs) >= 0)  # ascending
        assert len(res.reports) == 12
        assert all(np.isfinite(r.rel_error) for r in res.reports)

    def test_positional_order_is_seed_then_simulations(self):
        for run in (run_experiment_1, run_experiment_3):
            assert list(inspect.signature(run).parameters) == ["seed", "simulations"]

    def test_experiment_1_deterministic(self):
        r1 = run_experiment_1(simulations=2, seed=5)
        r2 = run_experiment_1(simulations=2, seed=5)
        assert r1.curves == r2.curves

    def test_experiment_2_fields(self):
        res = run_experiment_2(seed=0)
        r = res.report
        assert r.method == "laplace-beltrami+bp"
        assert r.alpha_star > 0
        assert np.isfinite(r.rel_error) and np.isfinite(r.sup_error)
        assert r.sup_error < res.noisy_sup_error  # denoising achieved
        d = r.to_dict()
        for key in (
            "run_id", "seed", "method", "alpha_star", "lambda1", "lambda2",
            "rel_error", "sup_error", "config",
        ):
            assert key in d

    def test_experiment_2_near_interpolatory_sanity(self):
        # noise-free samples, smallest grid alpha vs plain projection
        from spherefit.approx import regularized_fit
        from spherefit.params import BalancingConfig, weights_laplace_beltrami

        M = 30
        rule = gauss_legendre_rule(M)
        clean = franke_cap_eval(rule.points)
        samples = SampleSet(rule, clean)
        beta = weights_laplace_beltrami(M)
        grid = BalancingConfig(alpha0=8.0, q=0.8, L=60, omega=0.002, delta=0.0).grid()
        probe = gauss_legendre_rule(2 * M)
        truth = franke_cap_eval(probe.points)
        hyper = evaluate_grid(analyze(samples, M), probe.points)
        small = evaluate_grid(regularized_fit(samples, M, grid[-1], beta), probe.points)
        err_hyper = np.abs(hyper - truth).max()
        err_small = np.abs(small - truth).max()
        assert err_small <= 10 * err_hyper

    def test_experiment_3_small(self):
        res = run_experiment_3(seed=1, simulations=2)
        b = res.selection.best
        assert 0.0 <= b.lambda1 <= 5.0 and 0.0 <= b.lambda2 <= 5.0
        assert res.config["search_runs"] == 10
        assert res.config["search_steps"] == 10
        assert set(res.curves) == {"laplace-beltrami+bp", "selected-kernel+bp"}
        sel_reports = [r for r in res.reports if r.method == "selected-kernel+bp"]
        assert all(r.lambda1 == b.lambda1 for r in sel_reports)


class TestReportsRoundTrip:
    def test_experiment_1_rerun_byte_identical(self, tmp_path):
        res = run_experiment_1(simulations=2, seed=3)
        dir1 = tmp_path / "first"
        paths1 = write_experiment_1(res, dir1)
        config = json.loads((dir1 / "exp1_reports.json").read_text())[0]["config"]
        res2 = rerun_from_config(config)
        paths2 = write_experiment_1(res2, tmp_path / "second")
        for p1, p2 in zip(paths1, paths2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_experiment_2_rerun_byte_identical(self, tmp_path):
        res = run_experiment_2(seed=8)
        paths1 = write_experiment_2(res, tmp_path / "first")
        config = json.loads((tmp_path / "first" / "exp2_report.json").read_text())["config"]
        res2 = rerun_from_config(config)
        paths2 = write_experiment_2(res2, tmp_path / "second")
        for p1, p2 in zip(paths1, paths2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_curve_csv_schema(self, tmp_path):
        res = run_experiment_1(simulations=2, seed=4)
        write_experiment_1(res, tmp_path)
        lines = (tmp_path / "exp1_curves.csv").read_text().splitlines()
        assert lines[0] == "sim_index,method,rel_error"
        assert len(lines) == 1 + 4 * 2

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            rerun_from_config({"experiment": 9})


class TestConfigEcho:
    """An echo is re-run only as the run would write it: any other is refused
    before the run starts."""

    @pytest.mark.parametrize(
        "which, edit, key",
        [
            (2, {"degree": 4}, "degree"),
            (1, {"omega": 0.02}, "omega"),
            (3, {"search_runs": 2}, "search_runs"),
            (1, {"degree": 30.0}, "degree"),  # a float is no JSON integer
            (1, {"simulations": True}, "simulations"),  # true is no JSON 1
            (2, {"bogus": 1}, "bogus"),
        ],
    )
    def test_edited_or_unknown_key_rejected(self, which, edit, key):
        echo = {**experiments._config(which, 0, None if which == 2 else 1), **edit}
        with pytest.raises(ValueError, match=key):
            rerun_from_config(echo)

    @pytest.mark.parametrize("key", ["seed", "simulations", "rng", "noise_level"])
    def test_missing_key_rejected(self, key):
        echo = experiments._config(1, 3, 2)
        del echo[key]
        with pytest.raises(ValueError, match=f"'{key}' \\(absent"):
            rerun_from_config(echo)

    def test_boolean_experiment_rejected(self):
        echo = {**experiments._config(1, 0, 2), "experiment": True}
        with pytest.raises(ValueError, match="experiment"):
            rerun_from_config(echo)

    def test_simulations_in_experiment_2_echo_rejected(self):
        echo = {**experiments._config(2, 0), "simulations": 2}
        with pytest.raises(ValueError, match="simulations"):
            rerun_from_config(echo)

    def test_every_differing_key_is_named(self):
        echo = {**experiments._config(3, 0, 2), "degree": 60, "omega": 0.2, "extra": None}
        del echo["rng"]
        with pytest.raises(ValueError) as exc:
            rerun_from_config(echo)
        for key in ("degree", "omega", "extra", "rng"):
            assert f"'{key}'" in str(exc.value)


class TestDriverArguments:
    @pytest.mark.parametrize(
        "run, kwargs, name",
        [
            (run_experiment_2, {"seed": 1.5}, "seed"),
            (run_experiment_2, {"seed": True}, "seed"),
            (run_experiment_2, {"seed": "1"}, "seed"),
            (run_experiment_1, {"simulations": 2.5}, "simulations"),
            (run_experiment_1, {"simulations": True}, "simulations"),
            (run_experiment_1, {"simulations": 0}, "simulations"),
            (run_experiment_3, {"seed": 0.5, "simulations": 2}, "seed"),
            (run_experiment_3, {"simulations": -1}, "simulations"),
            (run_experiment_1, {"seed": -1, "simulations": 1},
             "seed must be non-negative, got -1"),
            (run_experiment_2, {"seed": -1}, "seed must be non-negative, got -1"),
            (run_experiment_3, {"seed": -2.0, "simulations": 1},
             "seed must be non-negative, got -2"),
        ],
    )
    def test_non_whole_seed_or_count_rejected(self, run, kwargs, name):
        with pytest.raises(ValueError, match=name):
            run(**kwargs)

    def test_whole_float_seed_runs_as_int(self):
        assert run_experiment_1(seed=2.0, simulations=1).config["seed"] == 2

    def test_patched_simulation_count_is_honoured(self, monkeypatch):
        # the default count is read from DEFAULTS when the driver runs
        monkeypatch.setattr(experiments, "DEFAULTS", {**experiments.DEFAULTS, "simulations": 2})
        res = run_experiment_1(seed=0)
        assert res.config["simulations"] == 2
        assert len(res.curves["plain-ls"]) == 2
