"""The benchmark's workloads: inputs, the op each child runs, and its checks.

Each op has three parts:
  * `build_inputs` runs in the parent before the op's child starts, and
    writes the inputs of one seed-derived data set to the work directory;
  * `prepare` returns the timed call, made in a fresh child interpreter;
  * `check` runs after the timer in the same child.  It compares the op's
    output with the package's independent oracles (the zonal-kernel
    evaluation, the balancing stopping rule, the analytic norm bound, the
    search box and alpha grid), never with golden digests, so a deliberate
    change of alpha is not a failure.  It also returns `rel_error`.

Why each workload is in the benchmark is recorded in BENCHMARK.json and
README.md next to this file.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import spherefit
import spherefit.cli  # the package __init__ does not load the CLI
from spherefit import approx, cubature, experiments, params

SIGMA = experiments.DEFAULTS["gaussian_sigma"]
N_CHECK_PROBES = 256
CHECK_RTOL = 1e-10

# degree (fits) or simulation count (exp3) at reference size and in smoke mode
WORKLOADS = {
    "fit-grid-m30": {"kind": "cli-fit", "size": 30, "smoke_size": 4},
    "fit-crude-m60": {"kind": "lib-fit", "size": 60, "smoke_size": 6},
    "exp3-search": {"kind": "exp3", "size": 50, "smoke_size": 2},
}

# the smoke-mode exp3 shrinks the reference study through its constants table
EXP3_SMOKE_DEFAULTS = {"degree": 6, "search_runs": 2, "search_steps": 3}

# wrapped functions each workload calls at least once; every other wrapped
# function must report zero calls on it
REACHES = {
    "cli-fit": {
        "harmonics.legendre_matrix", "harmonics.sph_harm_matrix",
        "params.balancing_principle", "approx.operator_norm_bound",
        "approx.analyze", "approx.regularized_fit", "approx.evaluate_grid",
        "approx.penalized_functional", "approx.save_coefficients",
        "cubature.gauss_legendre_rule", "cubature.probe_grid", "cli.main",
    },
    "lib-fit": {
        "harmonics.sph_harm_matrix", "params.balancing_principle",
        "approx.analyze", "approx.regularized_fit", "approx.evaluate_grid",
        "cubature.gauss_legendre_rule", "cubature.probe_grid",
    },
    "exp3": {
        "harmonics.legendre_matrix", "harmonics.sph_harm_matrix",
        "params.balancing_principle", "params.kernel_select",
        "approx.weighted_abs_legendre_sums", "approx.analyze",
        "approx.regularized_fit", "approx.evaluate_grid",
        "approx.penalized_functional", "cubature.gauss_legendre_rule",
        "cubature.probe_grid", "experiments.run_experiment_3",
        "experiments.franke_cap_eval", "experiments.add_noise",
    },
}


class CheckFailed(Exception):
    """An op's output disagrees with an independent oracle."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def make_spec(workload: str, seed: int, smoke: bool, work: Path) -> dict:
    w = WORKLOADS[workload]
    return {
        "workload": workload,
        "kind": w["kind"],
        "size": w["smoke_size"] if smoke else w["size"],
        "seed": seed,
        "smoke": smoke,
        "work": str(work),
    }


def data_seed(seed: int, dataset: int) -> int:
    """Seed of the run's data set number `dataset`."""
    return int(np.random.SeedSequence([seed, dataset]).generate_state(1)[0])


def build_inputs(spec: dict, dataset: int, op_index: int) -> dict:
    """Spec of one op on data set `dataset` of the run, with its inputs on disk.

    The fits get the Franke+cap truth at the rule nodes plus Gaussian noise;
    exp3 draws its own data from its seed.
    """
    op = dict(spec, dataset=dataset, op=op_index, data_seed=data_seed(spec["seed"], dataset))
    if spec["kind"] == "exp3":
        return op
    rule = cubature.gauss_legendre_rule(spec["size"])
    truth = experiments.franke_cap_eval(rule.points)
    noisy, delta = experiments.add_noise(truth, experiments.NoiseSpec("gaussian", SIGMA, op["data_seed"]))
    stem = Path(spec["work"]) / f"samples{dataset}"
    np.save(f"{stem}.npy", noisy)
    with open(f"{stem}.csv", "w", newline="") as fh:
        fh.write("value\n")
        fh.writelines(f"{v:.17g}\n" for v in noisy)
    op.update(delta=delta, samples=str(stem))
    return op


def out_dir(op: dict) -> Path:
    return Path(op["work"]) / f"out{op['op']}"


# ---------------------------------------------------------------------------
# ops


def _bp_config(d: dict, delta: float, norm_bound: str) -> params.BalancingConfig:
    """Balancing settings from a table keyed like `experiments.DEFAULTS`."""
    return params.BalancingConfig(
        alpha0=d["grid_anchor"], q=d["grid_ratio"], L=d["grid_len"], omega=d["omega"],
        delta=delta, norm_bound=norm_bound,
    )


def prepare(op: dict):
    """Untimed set-up in the child; returns the zero-argument op callable."""
    kind, M = op["kind"], op["size"]
    if kind == "cli-fit":
        argv = [
            "fit", "--degree", str(M), "--samples", op["samples"] + ".csv",
            "--beta", "laplace-beltrami", "--bp", "--noise-level", repr(op["delta"]),
            "--out", str(out_dir(op)),
        ]
        return lambda: spherefit.cli.main(argv)
    if kind == "lib-fit":
        values = np.load(op["samples"] + ".npy")
        cfg = _bp_config(experiments.DEFAULTS, op["delta"], "crude")

        def lib_fit():
            rule = spherefit.gauss_legendre_rule(M)
            samples = spherefit.SampleSet(rule, values)
            beta = spherefit.weights_laplace_beltrami(M)
            bres = spherefit.balancing_principle(samples, M, beta, cfg)
            gamma = spherefit.regularized_fit(samples, M, bres.alpha_star, beta)
            return bres, gamma, spherefit.evaluate_grid(gamma, spherefit.probe_grid(2 * M))

        return lib_fit
    if op["smoke"]:
        experiments.DEFAULTS.update(EXP3_SMOKE_DEFAULTS)
    return lambda: spherefit.experiments.run_experiment_3(op["data_seed"], M)


# ---------------------------------------------------------------------------
# checks


def check_probes(n: int = N_CHECK_PROBES) -> np.ndarray:
    """A fixed Fibonacci point set, independent of every rule in the package."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + 5.0**0.5) * i
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _check_fit(samples, M, alpha, beta, gamma, trace, triggered) -> None:
    pts = check_probes()
    direct = approx.evaluate_grid(gamma, pts)
    kernel = approx.evaluate_kernel_form(samples, M, alpha, beta, pts)
    scale = float(np.abs(kernel).max())
    err = float(np.abs(direct - kernel).max())
    _require(err <= CHECK_RTOL * scale, f"coefficients disagree with the kernel form: {err:.3e} of {scale:.3e}")
    _require(len(trace) > 0, "empty balancing trace")
    for step in trace[:-1]:
        _require(step.difference <= step.threshold, f"walk passed a triggered step at alpha={step.alpha!r}")
    last = trace[-1]
    _require((last.difference > last.threshold) == triggered, "last step does not match the triggered flag")
    if triggered:
        _require(alpha == last.alpha, f"alpha {alpha!r} is not the triggering step {last.alpha!r}")


def _franke_rel_error(values, M: int) -> float:
    """Relative L2 error of values at the 2M rule's nodes against the noiseless
    truth, by cubature on that rule."""
    rule = cubature.gauss_legendre_rule(2 * M)
    truth = experiments.franke_cap_eval(rule.points)
    return float(np.sqrt(rule.weights @ (values - truth) ** 2) / np.sqrt(rule.weights @ truth**2))


def check(op: dict, result) -> float:
    """Raise CheckFailed if the op's output is wrong; return its rel_error."""
    kind, M = op["kind"], op["size"]
    if kind != "exp3":
        rule = cubature.gauss_legendre_rule(M)
        samples = approx.SampleSet(rule, np.load(op["samples"] + ".npy"))
        beta = params.weights_laplace_beltrami(M)
    if kind == "cli-fit":
        _require(result == 0, f"cli exited with {result}")
        out = out_dir(op)
        summary = json.loads((out / "fit_summary.json").read_text())
        gamma = approx.load_coefficients(out / "coefficients.csv")
        with open(out / "bp_trace.csv", newline="") as fh:
            trace = [
                params.TraceStep(float(r["alpha"]), float(r["difference"]), float(r["threshold"]), r["triggered"] == "true")
                for r in csv.DictReader(fh)
            ]
        _check_fit(samples, M, summary["alpha"], beta, gamma, trace, summary["bp_triggered"])
        _require(
            summary["norm_estimate"] <= summary["norm_crude_upper"],
            f"norm estimate {summary['norm_estimate']!r} exceeds the crude bound {summary['norm_crude_upper']!r}",
        )
        return _franke_rel_error(approx.evaluate_grid(gamma, cubature.gauss_legendre_rule(2 * M).points), M)
    if kind == "lib-fit":
        bres, gamma, probe_values = result
        _check_fit(samples, M, bres.alpha_star, beta, gamma, bres.trace, bres.triggered)
        # the op already evaluated the fit on probe_grid(2M), the 2M rule's nodes
        return _franke_rel_error(probe_values, M)
    cfg = result.config
    grid = set(_bp_config(cfg, 0.0, cfg["bp_norm_bound"]).grid().tolist())
    errors = []
    for r in result.reports:
        _require(r.rel_error is not None and np.isfinite(r.rel_error), f"{r.run_id}: rel_error {r.rel_error!r}")
        _require(r.alpha_star in grid, f"{r.run_id}: alpha_star {r.alpha_star!r} is not a grid value")
        if r.method == "selected-kernel+bp":
            errors.append(r.rel_error)
    (l1lo, l1hi), (l2lo, l2hi) = cfg["search_box"]
    best = result.selection.best
    _require(
        l1lo <= best.lambda1 <= l1hi and l2lo <= best.lambda2 <= l2hi,
        f"selected ({best.lambda1!r}, {best.lambda2!r}) lies outside the box {cfg['search_box']}",
    )
    _require(len(errors) == cfg["simulations"], "missing selected-kernel reports")
    return float(np.median(errors))
