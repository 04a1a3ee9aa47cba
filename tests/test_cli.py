import argparse
import json

import numpy as np
import pytest

from spherefit import (
    CubatureRule, SampleSet, _rings, approx, cubature, evaluate_grid, experiments,
    gauss_legendre_nodes, gauss_legendre_rule, load_coefficients, params, regularized_fit,
    save_rule,
)
from spherefit.cli import build_parser, main
from spherefit.experiments import (
    NoiseSpec, add_noise, franke_cap_eval, run_experiment_1, run_experiment_2, run_experiment_3,
    sgg_generate,
)


def write_samples(path, values):
    with open(path, "w") as fh:
        fh.write("value\n")
        for v in values:
            fh.write(f"{float(v):.17g}\n")


def flag_ids(entries):
    """A test id for config entries, each key spelled as its flag."""
    return "-".join(f"{k.replace('_', '-')}={v!r}" for k, v in entries.items())


class TestGenRule:
    def test_degree_zero(self, tmp_path, capsys):
        out = tmp_path / "rule.csv"
        assert main(["gen-rule", "--degree", "0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,w"
        assert len(lines) == 3
        w = sum(float(l.split(",")[3]) for l in lines[1:])
        assert w == pytest.approx(4 * np.pi, abs=1e-10)

    def test_reference_degree(self, tmp_path):
        out = tmp_path / "rule.csv"
        assert main(["gen-rule", "--degree", "30", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 1922

    def test_unwritable_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rule.csv"
        rc = main(["gen-rule", "--degree", "1", "--out", str(out)])
        assert rc != 0
        assert "error" in capsys.readouterr().err


class TestFit:
    def test_fixed_alpha(self, tmp_path):
        M = 4
        rule = gauss_legendre_rule(M)
        _, y = sgg_generate(M, 1.2, seed=0)
        samples = tmp_path / "samples.csv"
        write_samples(samples, evaluate_grid(y, rule.points))
        out = tmp_path / "fit"
        rc = main(
            [
                "fit", "--degree", str(M), "--samples", str(samples),
                "--beta", "laplace-beltrami", "--alpha", "0.01",
                "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "fit_summary.json").read_text())
        assert summary["alpha_source"] == "fixed"
        assert summary["alpha"] == 0.01
        assert summary["norm_estimate"] <= summary["norm_crude_upper"]
        coeffs = load_coefficients(out / "coefficients.csv")
        assert coeffs.degree_M == M

    def test_norm_estimate_is_the_walks_operator_norm(self, tmp_path):
        # the estimate is the plan's `grid` oracle on the walk's probe
        # layout (`approx._probe_rings`), not the maximum on probe_grid(60),
        # which differs in the sixth digit at this alpha
        M, alpha = 30, 6.805647338418785e-4
        rule = gauss_legendre_rule(M)
        samples = tmp_path / "samples.csv"
        write_samples(samples, franke_cap_eval(rule.points))
        out = tmp_path / "fit"
        rc = main(
            [
                "fit", "--degree", str(M), "--samples", str(samples),
                "--beta", "laplace-beltrami", "--alpha", repr(alpha),
                "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "fit_summary.json").read_text())
        f = approx.filter_factors(M, alpha, params.weights_laplace_beltrami(M))
        assert summary["norm_estimate"] == approx._Plan(rule, M).norm("grid")(f)

    def test_grid_fit_classifies_its_probes_once(self, tmp_path, monkeypatch):
        # the walk and the norm estimate share one plan's `grid` oracle on
        # one probe layout, so `fit --bp` classifies the probes once and
        # scans no point set for rings (the rule found its own when it was
        # built, and the walk forms its probe rings from the nodes)
        M = 30
        samples = tmp_path / "samples.csv"
        write_samples(samples, franke_cap_eval(gauss_legendre_rule(M).points))
        calls = {"ring_layout": 0, "probe_classes": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(_rings, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(_rings, name, counting)
        rc = main(
            [
                "fit", "--degree", str(M), "--samples", str(samples),
                "--beta", "laplace-beltrami", "--bp", "--noise-level", "0.5",
                "--bp-norm-bound", "grid", "--out", str(tmp_path / "fit"),
            ]
        )
        assert rc == 0
        assert calls == {"ring_layout": 0, "probe_classes": 1}

    def test_walk_makes_no_probe_rule(self, tmp_path, monkeypatch):
        # the walk forms its probe rings from the Gauss-Legendre nodes: a
        # `grid-abs` fit at M = 30 makes the rule gauss_legendre_rule(30)
        # and no probe rule gauss_legendre_rule(60)
        made, build = [], cubature.gauss_legendre_rule

        def making(M):
            made.append(M)
            return build(M)

        monkeypatch.setattr(cubature, "gauss_legendre_rule", making)
        samples = tmp_path / "samples.csv"
        write_samples(samples, franke_cap_eval(build(30).points))
        rc = main(
            [
                "fit", "--degree", "30", "--samples", str(samples),
                "--beta", "laplace-beltrami", "--bp", "--noise-level", "0.5",
                "--bp-norm-bound", "grid-abs", "--out", str(tmp_path / "fit"),
            ]
        )
        assert rc == 0 and made == [30]

    def test_bp_writes_trace(self, tmp_path):
        M = 3
        rule = gauss_legendre_rule(M)
        rng = np.random.default_rng(0)
        samples = tmp_path / "samples.csv"
        write_samples(samples, rng.normal(size=rule.n_points))
        out = tmp_path / "fit"
        rc = main(
            [
                "fit", "--degree", str(M), "--samples", str(samples),
                "--beta", "ones", "--bp", "--noise-level", "0.05",
                "--grid-len", "10", "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "fit_summary.json").read_text())
        assert summary["alpha_source"] == "bp"
        trace = (out / "bp_trace.csv").read_text().splitlines()
        assert trace[0] == "alpha,difference,threshold,triggered"
        assert len(trace) >= 2

    @pytest.mark.parametrize("omega, stop, steps", [(None, "first-step", 1), ("1e12", "grid-end", 59)])
    def test_bp_records_where_the_walk_stopped(self, tmp_path, capsys, omega, stop, steps):
        # the reference data at M = 30: the default `grid` walk at omega
        # 0.002 stops at its first step, and says so without a warning
        M = 30
        rule = gauss_legendre_rule(M)
        spec = NoiseSpec("gaussian", 0.5, 1)
        noisy, delta = add_noise(franke_cap_eval(rule.points), spec)
        samples = tmp_path / "samples.csv"
        write_samples(samples, noisy)
        out = tmp_path / "fit"
        argv = ["fit", "--degree", str(M), "--samples", str(samples), "--beta",
                "laplace-beltrami", "--bp", "--noise-level", repr(delta), "--out", str(out)]
        assert main(argv + ([] if omega is None else ["--omega", omega])) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "fit_summary.json").read_text())
        assert summary["bp_stop"] == stop
        assert len((out / "bp_trace.csv").read_text().splitlines()) == 1 + steps
        fixed = tmp_path / "fixed"
        assert main(argv[:7] + ["--alpha", "1e-4", "--out", str(fixed)]) == 0
        assert "bp_stop" not in json.loads((fixed / "fit_summary.json").read_text())

    def test_summary_does_not_depend_on_the_output_directory(self, tmp_path):
        # the summary names its sibling files relative to the output
        # directory, so the same fit written twice gives the same bytes
        M = 3
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.random.default_rng(4).normal(size=gauss_legendre_rule(M).n_points))
        summaries = []
        for out in (tmp_path / "a", tmp_path / "b" / "nested"):
            rc = main(
                [
                    "fit", "--degree", str(M), "--samples", str(samples),
                    "--beta", "ones", "--bp", "--noise-level", "0.05", "--out", str(out),
                ]
            )
            assert rc == 0
            summaries.append((out / "fit_summary.json").read_bytes())
            summary = json.loads(summaries[-1])
            assert (out / summary["coefficients"]).is_file()
            assert (out / summary["bp_trace"]).is_file()
        assert summaries[0] == summaries[1]

    def test_count_mismatch_names_both(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(7))
        rc = main(
            ["fit", "--degree", "3", "--samples", str(samples), "--alpha", "0.1"]
        )
        assert rc != 0
        err = capsys.readouterr().err
        assert "7" in err and "32" in err

    def test_kernel_beta_spec(self, tmp_path):
        M = 2
        rule = gauss_legendre_rule(M)
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.ones(rule.n_points))
        out = tmp_path / "fit"
        rc = main(
            [
                "fit", "--degree", str(M), "--samples", str(samples),
                "--beta", "kernel:0.5,1.5", "--alpha", "0.0", "--out", str(out),
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("alpha", ["0.001", "0"])
    def test_kernel_weights_whose_square_overflows(self, tmp_path, alpha):
        # at (5, 5), beta_k^2 exceeds the float range from degree 137
        M = 140
        samples = tmp_path / "samples.csv"
        write_samples(samples, franke_cap_eval(gauss_legendre_rule(M).points))
        out = tmp_path / "fit"
        rc = main(
            [
                "fit", "--degree", str(M), "--samples", str(samples),
                "--beta", "kernel:5,5", "--alpha", alpha, "--out", str(out),
            ]
        )
        assert rc == 0
        assert np.isfinite(json.loads((out / "fit_summary.json").read_text())["functional"])

    def test_bad_beta_rejected(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(8))
        rc = main(
            ["fit", "--degree", "1", "--samples", str(samples),
             "--beta", "whatever", "--alpha", "0.1"]
        )
        assert rc != 0

    def test_needs_alpha_or_bp(self, tmp_path):
        samples = tmp_path / "samples.csv"
        rule = gauss_legendre_rule(1)
        write_samples(samples, np.zeros(rule.n_points))
        rc = main(["fit", "--degree", "1", "--samples", str(samples)])
        assert rc != 0

    def test_rejected_invocation_creates_nothing(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(1).n_points))
        out = tmp_path / "made_dir"
        rc = main(["fit", "--degree", "1", "--samples", str(samples), "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    def test_rejected_fixed_alpha_creates_nothing(self, tmp_path, capsys, alpha):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(1).n_points))
        out = tmp_path / "fit"
        argv = ["fit", "--degree", "1", "--samples", str(samples), "--alpha", alpha,
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "alpha" in err
        assert not out.exists()

    def test_fit_refused_late_creates_nothing(self, tmp_path, capsys):
        # samples of 1e200 fit, but their functional leaves the float range:
        # the summary is refused before the output directory is made
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.full(gauss_legendre_rule(2).n_points, 1e200))
        out = tmp_path / "fit"
        argv = ["fit", "--degree", "2", "--samples", str(samples), "--alpha", "0.1",
                "--out", str(out)]
        assert main(argv) == 2
        assert "not JSON compliant" in capsys.readouterr().err
        assert not out.exists()

    def test_bp_needs_noise_level(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(2).n_points))
        out = tmp_path / "fit"
        argv = ["fit", "--degree", "2", "--samples", str(samples), "--bp", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "noise" in err
        assert not out.exists()
        # the config key is accepted in place of the flag
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"noise_level": 0.05, "grid_len": 5}))
        assert main(argv + ["--config", str(config)]) == 0
        assert (out / "bp_trace.csv").exists()

    @pytest.mark.parametrize(
        "entries",
        [{"degree": 4.9}, {"grid_len": 5.7}, {"degree": "3"}],
        ids=["degree", "grid-len", "string"],
    )
    def test_non_integral_config_value_rejected(self, tmp_path, capsys, entries):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(3).n_points))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"degree": 3, "noise_level": 0.05, **entries}))
        out = tmp_path / "fit"
        argv = ["fit", "--samples", str(samples), "--bp", "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(entries)) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entries",
        [
            {"alpha": True, "bp": False}, {"alpha": "0.1", "bp": False}, {"omega": True},
            {"noise_level": True}, {"grid_anchor": "8"}, {"grid_ratio": False},
            {"sgg_decay": True}, {"bp": "false"}, {"bp": 1}, {"beta": 5}, {"out": 5},
            {"samples": 5}, {"rule": 5}, {"bp_norm_bound": 5},
        ],
        ids=flag_ids,
    )
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, monkeypatch, entries):
        # a JSON boolean is no number and a string no switch: neither is coerced
        monkeypatch.chdir(tmp_path)
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(3).n_points))
        config = tmp_path / "config.json"
        base = {"degree": 3, "samples": str(samples), "bp": True, "noise_level": 0.05, "out": "fit"}
        config.write_text(json.dumps({**base, **entries}))
        assert main(["fit", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(entries)) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "samples.csv"]

    def test_whole_numbers_accepted_as_reals(self, tmp_path):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(2).n_points))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"degree": 2, "alpha": 0, "bp": False, "sgg_decay": 2}))
        out = tmp_path / "fit"
        assert main(["fit", "--samples", str(samples), "--config", str(config),
                     "--out", str(out)]) == 0
        assert json.loads((out / "fit_summary.json").read_text())["alpha"] == 0.0

    @pytest.mark.parametrize(
        "entries",
        [
            {"omega": True, "grid_len": 2.5}, {"grid_len": 2.5}, {"grid_len": 1},
            {"omega": 0}, {"omega": True}, {"grid_anchor": -1}, {"grid_ratio": 1.5},
            {"bp_norm_bound": "sup"}, {"noise_level": -0.1},
        ],
        ids=flag_ids,
    )
    def test_bad_balancing_value_rejected_with_fixed_alpha(self, tmp_path, capsys, entries):
        # the --bp keys are checked as in a balanced fit, though a fixed-alpha
        # fit does not use them
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(2).n_points))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.1, **entries}))
        out = tmp_path / "fit"
        argv = ["fit", "--degree", "2", "--samples", str(samples), "--config", str(config),
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_rule_below_degree_creates_nothing(self, tmp_path, capsys):
        # the rule's exactness is checked before the output directory is made
        rule_path = tmp_path / "rule.csv"
        assert main(["gen-rule", "--degree", "3", "--out", str(rule_path)]) == 0
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(3).n_points))
        out = tmp_path / "fit"
        argv = ["fit", "--degree", "5", "--rule", str(rule_path), "--samples", str(samples),
                "--alpha", "0.1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        # loaded at --degree 5, the rule must be exact to degree 10
        assert err.startswith("error:") and "not exact to degree 10" in err
        assert not out.exists()

    def test_rule_file_roundtrip(self, tmp_path):
        rule_path = tmp_path / "rule.csv"
        assert main(["gen-rule", "--degree", "3", "--out", str(rule_path)]) == 0
        rule = gauss_legendre_rule(3)
        samples = tmp_path / "samples.csv"
        write_samples(samples, franke_cap_eval(rule.points))
        out = tmp_path / "fit"
        rc = main(
            ["fit", "--degree", "3", "--rule", str(rule_path),
             "--samples", str(samples), "--beta", "sgg", "--alpha", "0.1",
             "--out", str(out)]
        )
        assert rc == 0

    def test_rule_of_any_point_count(self, tmp_path):
        # 5 Gauss-Legendre rings of 9 azimuths: 45 points, exact to degree 8,
        # a point count from which no degree can be inferred
        M = 4
        t, v = gauss_legendre_nodes(5)
        phi = 2 * np.pi * np.arange(9) / 9
        u = np.sqrt(1 - t * t)[:, None]
        points = np.stack(
            [(u * np.cos(phi)).ravel(), (u * np.sin(phi)).ravel(), np.repeat(t, 9)], axis=1
        )
        rule = CubatureRule(M, points, np.repeat(v * 2 * np.pi / 9, 9))
        rule_path, samples, out = tmp_path / "rule.csv", tmp_path / "samples.csv", tmp_path / "fit"
        save_rule(rule, rule_path)
        values = franke_cap_eval(rule.points)
        write_samples(samples, values)
        rc = main(
            ["fit", "--degree", str(M), "--rule", str(rule_path), "--samples", str(samples),
             "--beta", "laplace-beltrami", "--alpha", "0.1", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "fit_summary.json").exists()
        want = regularized_fit(SampleSet(rule, values), M, 0.1, params.weights_laplace_beltrami(M))
        assert np.array_equal(load_coefficients(out / "coefficients.csv").values, want.values)


def write_samples_with_nodes(path, points, values):
    with open(path, "w") as fh:
        fh.write("x1,x2,x3,value\n")
        for (x1, x2, x3), v in zip(points, values):
            fh.write(f"{x1:.17g},{x2:.17g},{x3:.17g},{float(v):.17g}\n")


class TestSamplesWithNodes:
    M = 3

    def fit(self, samples, out):
        return main(
            ["fit", "--degree", str(self.M), "--samples", str(samples), "--beta", "ones",
             "--alpha", "0.01", "--out", str(out)]
        )

    def test_matching_nodes_give_the_value_only_fit(self, tmp_path):
        rule = gauss_legendre_rule(self.M)
        values = franke_cap_eval(rule.points)
        plain, with_nodes = tmp_path / "plain.csv", tmp_path / "nodes.csv"
        write_samples(plain, values)
        write_samples_with_nodes(with_nodes, rule.points, values)
        assert self.fit(plain, tmp_path / "a") == 0
        assert self.fit(with_nodes, tmp_path / "b") == 0
        coefficients = [(tmp_path / d / "coefficients.csv").read_bytes() for d in "ab"]
        assert coefficients[0] == coefficients[1]

    @pytest.mark.parametrize("offset", [1e-9, np.nan])
    def test_node_mismatch_rejected(self, tmp_path, capsys, offset):
        rule = gauss_legendre_rule(self.M)
        points = rule.points.copy()
        points[5, 0] += offset
        samples = tmp_path / "samples.csv"
        write_samples_with_nodes(samples, points, franke_cap_eval(rule.points))
        out = tmp_path / "fit"
        assert self.fit(samples, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "row 6" in err
        assert not out.exists()

    def test_shuffled_rows_rejected(self, tmp_path, capsys):
        rule = gauss_legendre_rule(self.M)
        perm = np.random.default_rng(0).permutation(rule.n_points)
        samples = tmp_path / "samples.csv"
        write_samples_with_nodes(samples, rule.points[perm], franke_cap_eval(rule.points[perm]))
        out = tmp_path / "fit"
        assert self.fit(samples, out) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_unknown_columns_rejected(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("x1,value\n0,1\n")
        out = tmp_path / "fit"
        assert self.fit(samples, out) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_one_column_under_another_name_rejected(self, tmp_path, capsys):
        rule = gauss_legendre_rule(self.M)
        samples = tmp_path / "samples.csv"
        samples.write_text("y\n" + "".join(f"{v:.17g}\n" for v in franke_cap_eval(rule.points)))
        out = tmp_path / "fit"
        assert self.fit(samples, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "expected value or x1,x2,x3,value" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("header", ["value", "x1,x2,x3,value"])
    def test_header_without_rows_rejected(self, tmp_path, capsys, header):
        samples = tmp_path / "samples.csv"
        samples.write_text(header + "\n")
        out = tmp_path / "fit"
        assert self.fit(samples, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no rows" in err
        assert not out.exists()


class TestExperimentCommand:
    def test_experiment_1_outputs(self, tmp_path):
        rc = main(
            ["experiment", "--which", "1", "--seed", "7", "--simulations", "2",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        curves = (tmp_path / "exp1_curves.csv").read_text().splitlines()
        methods = {line.split(",")[1] for line in curves[1:]}
        assert methods == {"plain-ls", "apriori-bp", "ones-best", "apriori-best"}

    def test_experiment_2_alpha_star(self, tmp_path):
        rc = main(["experiment", "--which", "2", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "exp2_report.json").read_text())
        assert report["alpha_star"] > 0

    def test_experiment_3_lambdas(self, tmp_path):
        rc = main(
            ["experiment", "--which", "3", "--seed", "2", "--simulations", "2",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "exp3_report.json").read_text())
        best = report["kernel_search"]["best"]
        assert 0 <= best["lambda1"] <= 5 and 0 <= best["lambda2"] <= 5

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(
                ["experiment", "--which", "1", "--seed", "1", "--simulations", "2",
                 "--out", str(d)]
            ) == 0
        for name in ("exp1_reports.json", "exp1_curves.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"which": 1, "seed": 4, "simulations": 2}))
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        reports = json.loads((out / "exp1_reports.json").read_text())
        assert reports[0]["seed"] == 4
        # flag overrides config: a whole number
        out2 = tmp_path / "out2"
        rc = main(
            ["experiment", "--config", str(cfg), "--seed", "9", "--out", str(out2)]
        )
        assert rc == 0
        reports = json.loads((out2 / "exp1_reports.json").read_text())
        assert reports[0]["seed"] == 9
        # ... a real, a string and a switch, on a fit
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.ones(gauss_legendre_rule(2).n_points))
        fit_cfg = tmp_path / "fit.json"
        fit_cfg.write_text(json.dumps({
            "degree": 2, "samples": str(samples), "alpha": 0.5, "beta": "ones",
            "out": str(tmp_path / "unused"),
        }))
        fit_out = tmp_path / "fit"
        argv = ["fit", "--config", str(fit_cfg), "--alpha", "0.25",
                "--beta", "laplace-beltrami", "--out", str(fit_out)]
        assert main(argv) == 0
        summary = json.loads((fit_out / "fit_summary.json").read_text())
        assert (summary["alpha"], summary["beta"]) == (0.25, "laplace-beltrami")
        assert not (tmp_path / "unused").exists()
        fit_cfg.write_text(json.dumps({
            "degree": 2, "samples": str(samples), "bp": False, "noise_level": 0.05,
            "grid_len": 5,
        }))
        assert main(["fit", "--config", str(fit_cfg), "--bp", "--out", str(fit_out)]) == 0
        assert json.loads((fit_out / "fit_summary.json").read_text())["alpha_source"] == "bp"

    def test_simulations_for_experiment_2_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["experiment", "--which", "2", "--simulations", "5", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "simulations" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "entries",
        [{"which": 1.5}, {"which": 4}, {"which": 1, "simulations": 2.5}, {"which": 1, "seed": 0.5}],
    )
    def test_non_integral_config_value_rejected(self, tmp_path, capsys, entries):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["experiment", "--which", "2", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed must be non-negative, got -1" in err
        assert not out.exists()

    def test_missing_which_rejected(self, tmp_path, capsys):
        assert main(["experiment", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestConfigKeys:
    @pytest.mark.parametrize(
        "command, entries, unknown",
        [
            ("gen-rule", {"degree": 2, "out": "rule.csv", "degre": 3}, "degre"),
            ("fit", {"omgea": 0.2, "alpha": 0.1, "samples": "samples.csv", "degree": 1}, "omgea"),
            # experiments run at the reference degree only
            ("experiment", {"which": 2, "degree": 60}, "degree"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, monkeypatch, command, entries, unknown):
        # a mistyped key would otherwise leave its setting at the default
        monkeypatch.chdir(tmp_path)
        write_samples(tmp_path / "samples.csv", np.zeros(gauss_legendre_rule(1).n_points))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{unknown}'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "samples.csv"]

    @pytest.mark.parametrize("key", ["degree", "alpha", "rule"])
    def test_null_entry_rejected(self, tmp_path, capsys, key):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(1).n_points))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degree": 1, "alpha": 0.1, key: None}))
        out = tmp_path / "fit"
        argv = ["fit", "--samples", str(samples), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    def test_non_object_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["gen-rule", "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err


class TestOneVocabulary:
    """Every setting is spelled once, as a key of `experiments.SETTINGS`: a
    config-file, echo and `DEFAULTS` key is the key, a flag `--` and the key
    with `_` as `-`."""

    def test_every_flag_config_and_echo_key_is_a_table_key(self):
        table = experiments.SETTINGS
        (subcommands,) = (
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        taken, echoed = set(), set()
        for name, sub in subcommands.choices.items():
            keys = sub.get_default("keys")  # what --config accepts
            flags = {s for a in sub._actions for s in a.option_strings}
            flags -= {"-h", "--help", "--config"}
            assert flags == {"--" + key.replace("_", "-") for key in keys}, name
            assert set(keys) <= set(table), name
            taken.update(keys)
        for n in (1, 2, 3):
            echo = experiments._config(n, 0)
            assert set(echo) <= set(table) and "noise_level" not in echo
            echoed.update(echo)
        assert set(experiments.DEFAULTS) <= set(table)
        assert not [key for key in table if "-" in key]
        # no row is dead, and exactly the keys no subcommand takes lack a reader
        assert taken | echoed | set(experiments.DEFAULTS) == set(table)
        assert {key for key, (read, _, _) in table.items() if read is None} == set(table) - taken

    def test_fit_from_an_echo_balances_as_the_experiment(self, tmp_path, monkeypatch):
        # experiment 2's fit keys, copied from its echo into a `fit --config`
        # file, give the walk the experiment's balancing set-up
        echo = experiments._config(2, 0)
        keys = ("degree", "grid_anchor", "grid_ratio", "grid_len", "omega", "bp_norm_bound")
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({key: echo[key] for key in keys}))
        rule = gauss_legendre_rule(echo["degree"])
        spec = NoiseSpec(echo["noise_kind"], echo["gaussian_sigma"], 1)
        noisy, delta = add_noise(franke_cap_eval(rule.points), spec)
        samples = tmp_path / "samples.csv"
        write_samples(samples, noisy)
        walks, walk = [], params.balancing_principle

        def recording(samples, M, beta, cfg, **kwargs):
            walks.append(cfg)
            return walk(samples, M, beta, cfg, **kwargs)

        monkeypatch.setattr(params, "balancing_principle", recording)
        argv = ["fit", "--config", str(config), "--samples", str(samples), "--bp",
                "--noise-level", repr(delta), "--beta", "laplace-beltrami",
                "--out", str(tmp_path / "fit")]
        assert main(argv) == 0
        assert walks == [experiments._bp_config(echo, delta)]

    @pytest.mark.parametrize(
        "entry", [{"grid-len": 5}, {"norm-bound": "grid"}, {"bp_probe_resolution": 6}], ids=flag_ids
    )
    def test_old_spelling_rejected(self, tmp_path, capsys, entry):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps(entry))
        assert main(["fit", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"unknown key(s) '{next(iter(entry))}'" in err


class TestParserHygiene:
    def test_unknown_flag_rejected(self):
        for argv in (
            ["gen-rule", "--degree", "1", "--out", "x.csv", "--bogus"],
            ["fit", "--degree", "1", "--alpha", "0.1", "--bp-probe-resolution", "6"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code != 0

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in (
            "--degree", "--rule", "--samples", "--beta", "--alpha", "--bp",
            "--omega", "--grid-anchor", "--grid-ratio", "--grid-len",
            "--noise-level", "--out",
        ):
            assert flag in text

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0


class TestOnePlanPerRun:
    """`fit` and an experiment driver share one plan across their walks,
    fits and norm estimates: the degree layout is built once per degree,
    the Legendre part once per (degree, rings), the trig table once per
    (degree, azimuth count), and the probes classified once per bound."""

    @pytest.fixture
    def builds(self, monkeypatch):
        layouts, legendre, trig, classified = [], [], [], []
        degree_layout, legendre_part = _rings.degree_layout, _rings.legendre_part
        trig_table, probe_classes = _rings.trig_table, _rings.probe_classes

        def laying_out(M):
            layouts.append(M)
            return degree_layout(M)

        def tabulating(layout, meridian):
            legendre.append((layout.rows.shape, meridian.tobytes()))
            return legendre_part(layout, meridian)

        def trig_building(M, azimuths):
            trig.append((M, azimuths))
            return trig_table(M, azimuths)

        def classifying(*args):
            classified.append(args)
            return probe_classes(*args)

        monkeypatch.setattr(_rings, "degree_layout", laying_out)
        monkeypatch.setattr(_rings, "legendre_part", tabulating)
        monkeypatch.setattr(_rings, "trig_table", trig_building)
        monkeypatch.setattr(_rings, "probe_classes", classifying)
        return layouts, legendre, trig, classified

    @pytest.mark.parametrize(
        "mode, bounds",
        [
            (["--bp", "--noise-level", "0.5", "--bp-norm-bound", "grid"], 1),
            (["--bp", "--noise-level", "0.5", "--bp-norm-bound", "grid-abs"], 2),
            (["--alpha", "1e-4"], 1),
        ],
    )
    def test_fit(self, tmp_path, builds, mode, bounds):
        # the rule's rings on 2(M+1) azimuths and the probe rings on 4(M+1);
        # the `grid` estimate reuses a `grid` walk's oracle, and builds its
        # own after a `grid-abs` walk or at a fixed alpha
        M = 30
        samples = tmp_path / "samples.csv"
        write_samples(samples, franke_cap_eval(gauss_legendre_rule(M).points))
        rc = main(
            [
                "fit", "--degree", str(M), "--samples", str(samples),
                "--beta", "laplace-beltrami", *mode, "--out", str(tmp_path / "fit"),
            ]
        )
        layouts, legendre, trig, classified = builds
        assert rc == 0
        assert layouts == [M]
        assert len(legendre) == len(set(legendre)) == 2
        assert sorted(trig) == [(M, 62), (M, 124)]
        assert len(classified) == bounds

    def test_fit_on_a_rule_file_at_the_probe_rings(self, tmp_path, builds):
        # gauss_legendre_rule(2M) lies on the walk's probe rings and their
        # azimuths: the plan builds one Legendre part and one trig table at
        # M, after the rule file's exactness check builds its own at 2M
        M = 30
        rule, samples = tmp_path / "rule.csv", tmp_path / "samples.csv"
        assert main(["gen-rule", "--degree", str(2 * M), "--out", str(rule)]) == 0
        write_samples(samples, franke_cap_eval(gauss_legendre_rule(2 * M).points))
        layouts, legendre, trig, classified = builds
        assert layouts == legendre == trig == []
        rc = main(
            [
                "fit", "--degree", str(M), "--rule", str(rule), "--samples", str(samples),
                "--beta", "laplace-beltrami", "--bp", "--noise-level", "0.5",
                "--bp-norm-bound", "grid", "--out", str(tmp_path / "fit"),
            ]
        )
        assert rc == 0
        assert layouts == [2 * M, M]
        assert len(legendre) == len(set(legendre)) == 2
        assert sorted(trig) == [(M, 122), (2 * M, 122)]
        assert len(classified) == 1

    def test_experiment_1(self, builds):
        # the rule's rings for the data and the fits, the probe rings for the
        # walks' step differences; the `crude` bound classifies no probes
        run_experiment_1(0, 2)
        layouts, legendre, trig, classified = builds
        assert layouts == [30]
        assert len(legendre) == len(set(legendre)) == 2
        assert sorted(trig) == [(30, 62), (30, 124)]
        assert classified == []

    def test_experiment_3(self, builds):
        # over 105 walks and 101 scores: the rule's rings on 62 azimuths, and
        # the scoring rule gauss_legendre_rule(2M)'s on 2(2M+1); the `l2`
        # walks build no probe table and classify no probes
        run_experiment_3(0, 2)
        layouts, legendre, trig, classified = builds
        assert layouts == [30]
        assert len(legendre) == len(set(legendre)) == 2
        assert sorted(trig) == [(30, 62), (30, 122)]
        assert classified == []

    def test_experiment_2(self, builds):
        # the same two tables for one walk and one score
        run_experiment_2(0)
        layouts, legendre, trig, classified = builds
        assert layouts == [30]
        assert len(legendre) == len(set(legendre)) == 2
        assert sorted(trig) == [(30, 62), (30, 122)]
        assert classified == []
