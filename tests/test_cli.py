import json

import numpy as np
import pytest

from spherefit import evaluate_grid, gauss_legendre_rule, load_coefficients
from spherefit.cli import main
from spherefit.experiments import franke_cap_eval, sgg_generate


def write_samples(path, values):
    with open(path, "w") as fh:
        fh.write("value\n")
        for v in values:
            fh.write(f"{float(v):.17g}\n")


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
                "--grid-len", "10", "--probe-resolution", "6",
                "--out", str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "fit_summary.json").read_text())
        assert summary["alpha_source"] == "bp"
        trace = (out / "bp_trace.csv").read_text().splitlines()
        assert trace[0] == "alpha,difference,threshold,triggered"
        assert len(trace) >= 2

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
        config.write_text(json.dumps({"noise-level": 0.05, "grid-len": 5}))
        assert main(argv + ["--config", str(config)]) == 0
        assert (out / "bp_trace.csv").exists()

    @pytest.mark.parametrize(
        "entries",
        [{"probe-resolution": 10.5}, {"degree": 4.9}, {"grid-len": 5.7}, {"degree": "3"}],
        ids=["probe-resolution", "degree", "grid-len", "string"],
    )
    def test_non_integral_config_value_rejected(self, tmp_path, capsys, entries):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(3).n_points))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"degree": 3, "noise-level": 0.05, **entries}))
        out = tmp_path / "fit"
        argv = ["fit", "--samples", str(samples), "--bp", "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(entries)) in err
        assert not out.exists()

    def test_non_integral_probe_resolution_rejected_with_fixed_alpha(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        write_samples(samples, np.zeros(gauss_legendre_rule(2).n_points))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"probe-resolution": 6.5}))
        out = tmp_path / "fit"
        argv = ["fit", "--degree", "2", "--samples", str(samples), "--alpha", "0.1",
                "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
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
        # flag overrides config
        out2 = tmp_path / "out2"
        rc = main(
            ["experiment", "--config", str(cfg), "--seed", "9", "--out", str(out2)]
        )
        assert rc == 0
        reports = json.loads((out2 / "exp1_reports.json").read_text())
        assert reports[0]["seed"] == 9


    @pytest.mark.parametrize(
        "entries", [{"which": 1.5}, {"which": 1, "simulations": 2.5}, {"which": 1, "seed": 0.5}]
    )
    def test_non_integral_config_value_rejected(self, tmp_path, capsys, entries):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_missing_which_rejected(self, tmp_path, capsys):
        assert main(["experiment", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestParserHygiene:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-rule", "--degree", "1", "--out", "x.csv", "--bogus"])
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
