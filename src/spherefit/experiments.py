"""Synthetic studies: data generation, noise, error metrics, and the three
reference experiments (exponentially damped recovery with a priori weights,
Franke-plus-cap denoising with a balanced parameter, and a posteriori kernel
selection), reproducible bit for bit from (config, seed): numpy's PCG64
draws independent streams from (seed, tag, index) entropy, so simulations
can run in any order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._files import write_csv, write_json
from ._rings import synthesis
from .approx import (
    HarmonicCoefficients,
    SampleSet,
    _Plan,
    analyze,
    expand_by_degree,
    regularized_fit,
)
from .cubature import gauss_legendre_rule, probe_grid
from .harmonics import _whole_number, as_unit_vectors
from .params import (
    BalancingConfig,
    RandomSearchConfig,
    balancing_principle,
    kernel_select,
    weights_from_kernel_params,
    weights_laplace_beltrami,
    weights_ones,
    weights_sgg_apriori,
)

# Reference-study constants; the CLI and the experiment drivers read these and
# nothing hard-codes them at call sites.
DEFAULTS = {
    "degree": 30,             # reconstruction degree M
    "grid_anchor": 8.0,       # alpha_i = grid_anchor * grid_ratio**i
    "grid_ratio": 0.8,
    "grid_len": 60,
    "omega": 0.002,           # balancing-principle design parameter
    "sgg_decay": 1.2,         # a_k = sgg_decay**(-k)
    "uniform_noise": 0.05,    # sup-norm of the uniform noise vector
    "gaussian_sigma": 0.5,    # std dev of the Gaussian noise
    "simulations": 50,
    "search_box": ((0.0, 5.0), (0.0, 5.0)),
    "search_runs": 10,
    "search_steps": 10,
    "rng": "numpy-pcg64",
}

NOISE_KINDS = ("uniform_supnorm", "gaussian")


@dataclass(frozen=True)
class SggModel:
    """Downward-continuation model: observed coefficients are a_k * g_{k,j}."""

    M: int
    a: np.ndarray
    rho: float
    g_true: HarmonicCoefficients

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).ravel().copy()
        if a.size != self.M + 1:
            raise ValueError(f"need {self.M + 1} damping factors, got {a.size}")
        if np.any(~np.isfinite(a)) or np.any(a <= 0.0):
            raise ValueError("damping factors must be positive and finite")
        if not self.rho > 0.0:
            raise ValueError(f"radius scale must be positive, got {self.rho}")
        if self.g_true.degree_M != self.M:
            raise ValueError("ground-truth coefficients must match the model degree")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class NoiseSpec:
    """Pointwise noise model: uniform scaled to an exact sup-norm, or Gaussian."""

    kind: str
    level: float
    seed: object = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not (self.level >= 0.0 and np.isfinite(self.level)):
            raise ValueError(f"noise level must be non-negative, got {self.level}")


@dataclass
class ExperimentReport:
    """One method on one simulated data set, with enough config to re-run."""

    run_id: str
    seed: int
    method: str
    alpha_star: float | None
    lambda1: float | None
    lambda2: float | None
    rel_error: float | None
    sup_error: float | None
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# data generation, noise, and metrics


def sgg_generate(M: int, decay_base: float, seed) -> tuple[SggModel, HarmonicCoefficients]:
    """Draw a random smooth target and its exponentially damped observation.

    a_k = decay_base**(-k); g_{k,j} = (k+1/2)^(-3/2) * x_{k,j} with x uniform
    on [0, 1].  Returns the model and the exact coefficients of the observed
    function y = sum_k a_k sum_j g_{k,j} (1/rho) Y_{k,j} with rho = 1 (any
    rho cancels from the recovered coefficients, see `sgg_recover`).
    """
    if not decay_base > 1.0:
        raise ValueError(f"decay base must exceed 1, got {decay_base}")
    rng = np.random.default_rng(seed)
    k = np.arange(M + 1, dtype=float)
    a = decay_base**-k
    x = rng.uniform(0.0, 1.0, (M + 1) ** 2)
    g = expand_by_degree((k + 0.5) ** -1.5) * x
    model = SggModel(M=M, a=a, rho=1.0, g_true=HarmonicCoefficients(M, g))
    y_coeffs = HarmonicCoefficients(M, expand_by_degree(a) * g / model.rho)
    return model, y_coeffs


def add_noise(clean_values, spec: NoiseSpec) -> tuple[np.ndarray, float]:
    """Contaminate values pointwise; returns (noisy values, realized sup-norm).

    `uniform_supnorm` rescales a uniform[-1,1] vector so its largest entry is
    exactly `level`; `gaussian` adds independent N(0, level^2) draws.
    """
    clean = np.asarray(clean_values, dtype=float).ravel()
    if spec.level == 0.0:
        return clean.copy(), 0.0
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform_supnorm":
        eps = rng.uniform(-1.0, 1.0, clean.size)
        eps = (eps / np.abs(eps).max()) * spec.level
        return clean + eps, float(spec.level)
    eps = rng.normal(0.0, spec.level, clean.size)
    return clean + eps, float(np.abs(eps).max())


def sgg_recover(gamma: HarmonicCoefficients, model: SggModel) -> HarmonicCoefficients:
    """Undo the per-degree damping: g_{k,j} = rho * gamma_{k,j} / a_k."""
    if gamma.degree_M != model.M:
        raise ValueError(
            f"coefficients of degree {gamma.degree_M} do not match model degree {model.M}"
        )
    return HarmonicCoefficients(
        model.M, model.rho * gamma.values / expand_by_degree(model.a)
    )


def relative_error_l2(estimate: HarmonicCoefficients, truth: HarmonicCoefficients) -> float:
    """Euclidean coefficient-error ratio ||estimate - truth|| / ||truth||."""
    if estimate.degree_M != truth.degree_M:
        raise ValueError("coefficient vectors must have the same degree")
    denom = truth.norm()
    if denom == 0.0:
        raise ValueError("relative error is undefined for a zero truth vector")
    return float(np.linalg.norm(estimate.values - truth.values) / denom)


_CAP_CENTER = np.array([-0.5, -0.5, 1.0 / np.sqrt(2.0)])
_CAP_RADIUS = 0.5


def franke_cap_eval(points):
    """Franke test function plus a raised cap, on unit vectors.

    Returns an array of values, one per point; a (3,) point gives one value.
    """
    pts = as_unit_vectors(points)
    x1, x2, x3 = pts[:, 0], pts[:, 1], pts[:, 2]
    y1 = (
        0.75 * np.exp(-((9 * x1 - 2) ** 2) / 4 - ((9 * x2 - 2) ** 2) / 4 - ((9 * x3 - 2) ** 2) / 4)
        + 0.75 * np.exp(-((9 * x1 + 1) ** 2) / 49 - (9 * x2 + 1) / 49 - (9 * x3 + 1) / 10)
        + 0.5 * np.exp(-((9 * x1 - 7) ** 2) / 4 - ((9 * x2 - 3) ** 2) / 4 - ((9 * x3 - 5) ** 2) / 4)
        - 0.2 * np.exp(-((9 * x1 - 4) ** 2) - ((9 * x2 - 7) ** 2) - ((9 * x3 - 5) ** 2))
    )
    dots = np.clip(pts @ _CAP_CENTER, -1.0, 1.0)
    cap = np.where(dots >= np.cos(_CAP_RADIUS), 2.0 * np.cos(np.pi * np.arccos(dots)), 0.0)
    return y1 + cap


# ---------------------------------------------------------------------------
# shared experiment plumbing


def _config(experiment, seed, simulations=None) -> dict:
    """The config echo of experiment 1, 2 or 3 at a whole-number `seed`, from
    `DEFAULTS` as it stands.  Experiments 1 and 3 take a whole `simulations`
    of at least 1 (None reads `DEFAULTS`); experiment 2 runs once, so none."""
    if isinstance(experiment, bool) or experiment not in (1, 2, 3):
        raise ValueError(f"experiment must be 1, 2 or 3, got {experiment!r}")
    seed = _whole_number(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    config = {"experiment": int(experiment), "seed": seed}
    shared = ("degree", "grid_anchor", "grid_ratio", "grid_len", "omega", "rng")
    config.update((key, DEFAULTS[key]) for key in shared)
    if experiment == 1:
        config.update(noise_kind="uniform_supnorm", noise_level=DEFAULTS["uniform_noise"],
                      bp_norm_bound="crude", decay=DEFAULTS["sgg_decay"])
    else:
        config.update(noise_kind="gaussian", noise_level=DEFAULTS["gaussian_sigma"],
                      bp_norm_bound="grid-abs")
    if experiment == 3:
        config.update(search_box=[list(b) for b in DEFAULTS["search_box"]],
                      search_runs=DEFAULTS["search_runs"], search_steps=DEFAULTS["search_steps"])
    if experiment == 2:
        if simulations is not None:
            raise ValueError(f"experiment 2 runs once: no simulations, got {simulations!r}")
        return config
    n = DEFAULTS["simulations"] if simulations is None else simulations
    n = _whole_number(n, "simulations")
    if n < 1:
        raise ValueError(f"simulations must be at least 1, got {n}")
    return {**config, "simulations": n}


def _bp_config(config: dict, delta: float) -> BalancingConfig:
    """The balancing set-up a config echo describes, at noise level `delta`."""
    return BalancingConfig(
        alpha0=config["grid_anchor"],
        q=config["grid_ratio"],
        L=config["grid_len"],
        omega=config["omega"],
        delta=delta,
        norm_bound=config["bp_norm_bound"],
    )


def _weighted_l2_rel_error(rule, values, truth_values) -> float:
    """Quadrature estimate of ||f - g||_L2 / ||g||_L2 from node values."""
    num = float(np.sqrt(rule.weights @ (values - truth_values) ** 2))
    den = float(np.sqrt(rule.weights @ truth_values**2))
    return num / den


def _sorted_curve(errors) -> list[tuple[int, float]]:
    """(sim_index, error) pairs in ascending error order."""
    order = np.argsort(errors, kind="stable")
    return [(int(i), float(errors[i])) for i in order]


def _best_alpha_on_grid(grid, gamma_hat, b2_flat, a_flat, g_true_values):
    """Oracle: the grid value minimizing the true relative coefficient error."""
    best_alpha, best_err = None, np.inf
    norm_g = np.linalg.norm(g_true_values)
    for alpha in grid:
        rec = gamma_hat / (1.0 + alpha * b2_flat) / a_flat
        err = np.linalg.norm(rec - g_true_values) / norm_g
        if err < best_err:
            best_alpha, best_err = float(alpha), float(err)
    return best_alpha, best_err


# ---------------------------------------------------------------------------
# experiment 1: damped-coefficient recovery with a priori weights


def run_experiment_1(seed: int = 0, simulations: int | None = None):
    """Compare plain projection, balanced and oracle regularization.

    Per simulation: random damped target on the degree-30 rule, uniform noise
    of sup-norm 0.05, then four recoveries -- plain (alpha = 0), a priori
    weights with a balanced alpha, flat weights with the oracle alpha, and a
    priori weights with the oracle alpha.  Errors are relative coefficient
    errors of the recovered target.  `simulations` defaults to DEFAULTS'.
    """
    config = _config(1, seed, simulations)
    seed, M, simulations = config["seed"], config["degree"], config["simulations"]
    rule = gauss_legendre_rule(M)
    bp_cfg = _bp_config(config, config["noise_level"])
    plan = _Plan(rule, M, bp_cfg.resolution(M))
    grid = bp_cfg.grid()
    beta_one = weights_ones(M)
    b2_one = expand_by_degree(beta_one.beta**2)

    methods = ("plain-ls", "apriori-bp", "ones-best", "apriori-best")
    errors = {m: np.empty(simulations) for m in methods}
    reports = []
    for sim in range(simulations):
        model, y_coeffs = sgg_generate(M, config["decay"], [seed, sim, 0])
        clean = plan.synthesize(y_coeffs.values)
        noisy, eps_sup = add_noise(
            clean, NoiseSpec("uniform_supnorm", config["noise_level"], [seed, sim, 1])
        )
        samples = SampleSet(rule, noisy)
        gamma_hat = analyze(samples, M, plan=plan)
        a_flat = expand_by_degree(model.a)
        g_true = model.g_true

        beta_sgg = weights_sgg_apriori(M, model.a)
        b2_sgg = expand_by_degree(beta_sgg.beta**2)

        err_a = relative_error_l2(sgg_recover(gamma_hat, model), g_true)

        bres = balancing_principle(samples, M, beta_sgg, bp_cfg, plan=plan)
        rec_b = sgg_recover(regularized_fit(samples, M, bres.alpha_star, beta_sgg), model)
        err_b = relative_error_l2(rec_b, g_true)

        alpha_c, err_c = _best_alpha_on_grid(grid, gamma_hat.values, b2_one, a_flat, g_true.values)
        alpha_d, err_d = _best_alpha_on_grid(grid, gamma_hat.values, b2_sgg, a_flat, g_true.values)

        per_method = {
            "plain-ls": (0.0, err_a),
            "apriori-bp": (bres.alpha_star, err_b),
            "ones-best": (alpha_c, err_c),
            "apriori-best": (alpha_d, err_d),
        }
        for method, (alpha_used, err) in per_method.items():
            errors[method][sim] = err
            reports.append(
                ExperimentReport(
                    run_id=f"exp1-sim{sim:03d}-{method}",
                    seed=seed,
                    method=method,
                    alpha_star=alpha_used,
                    lambda1=None,
                    lambda2=None,
                    rel_error=err,
                    sup_error=None,
                    config=config,
                )
            )
    curves = {m: _sorted_curve(errors[m]) for m in methods}
    return Experiment1Result(reports=reports, curves=curves, config=config)


@dataclass
class Experiment1Result:
    reports: list
    curves: dict
    config: dict


# ---------------------------------------------------------------------------
# experiment 2: Franke-plus-cap denoising with a balanced parameter


def run_experiment_2(seed: int = 0):
    """Denoise the Franke-plus-cap function with degree-ladder weights.

    Gaussian noise of sigma 0.5 at the rule nodes; the balancing principle
    picks alpha; reported errors are the probe-grid sup error and a
    quadrature estimate of the relative L2 error of the reconstruction.
    """
    config = _config(2, seed)
    seed, M = config["seed"], config["degree"]
    rule = gauss_legendre_rule(M)
    clean = franke_cap_eval(rule.points)
    noisy, eps_sup = add_noise(clean, NoiseSpec("gaussian", config["noise_level"], [seed, 0]))
    samples = SampleSet(rule, noisy)
    beta = weights_laplace_beltrami(M)
    bp_cfg = _bp_config(config, eps_sup)
    plan = _Plan(rule, M, bp_cfg.resolution(M))
    bres = balancing_principle(samples, M, beta, bp_cfg, plan=plan)
    gamma = regularized_fit(samples, M, bres.alpha_star, beta, plan=plan)

    # the rule at the walk's probe resolution 2M lies on the plan's probe rings
    probe_rule = gauss_legendre_rule(plan.resolution)
    truth_probe = franke_cap_eval(probe_rule.points)
    rec_probe = synthesis(plan.ring_table(probe_rule.rings), gamma.values)
    sup_error = float(np.abs(rec_probe - truth_probe).max())
    rel_error = _weighted_l2_rel_error(probe_rule, rec_probe, truth_probe)
    rec_nodes = plan.synthesize(gamma.values)

    report = ExperimentReport(
        run_id="exp2",
        seed=seed,
        method="laplace-beltrami+bp",
        alpha_star=bres.alpha_star,
        lambda1=None,
        lambda2=None,
        rel_error=rel_error,
        sup_error=sup_error,
        config=config,
    )
    return Experiment2Result(
        report=report,
        bp_result=bres,
        noisy_sup_error=eps_sup,
        node_values=(clean, noisy, rec_nodes),
        probe_values=(truth_probe, rec_probe),
        config=config,
    )


@dataclass
class Experiment2Result:
    report: ExperimentReport
    bp_result: object
    noisy_sup_error: float
    node_values: tuple
    probe_values: tuple
    config: dict


# ---------------------------------------------------------------------------
# experiment 3: a posteriori kernel selection


def run_experiment_3(seed: int = 0, simulations: int | None = None):
    """Select penalization weights a posteriori and compare against the ladder.

    One noisy realization drives the kernel search (Random Search over the
    rate box, balanced alpha per candidate); the winner is then pitted
    against the Laplace-Beltrami weights on fresh noisy realizations, both
    with balanced alphas, in relative L2 error against the clean function.
    `simulations` defaults to DEFAULTS'.
    """
    config = _config(3, seed, simulations)
    seed, M, simulations = config["seed"], config["degree"], config["simulations"]
    rule = gauss_legendre_rule(M)
    clean = franke_cap_eval(rule.points)

    # one blurred realization drives the selection
    sel_noisy, sel_eps = add_noise(
        clean, NoiseSpec("gaussian", config["noise_level"], [seed, 0])
    )
    sel_samples = SampleSet(rule, sel_noisy)
    search_seed = int(np.random.SeedSequence([seed, 2]).generate_state(1)[0])
    search = RandomSearchConfig(
        runs=config["search_runs"],
        steps_per_run=config["search_steps"],
        box=tuple(tuple(b) for b in config["search_box"]),
        seed=search_seed,
    )
    sel_cfg = _bp_config(config, sel_eps)
    # the search and every walk and fit below share one plan of the rule
    plan = _Plan(rule, M, sel_cfg.resolution(M))
    selection = kernel_select(sel_samples, M, search, sel_cfg, plan=plan)
    beta_sel = weights_from_kernel_params(M, selection.best)
    beta_lb = weights_laplace_beltrami(M)

    probe_rule = gauss_legendre_rule(plan.resolution)
    truth_probe = franke_cap_eval(probe_rule.points)
    probe_table = plan.ring_table(probe_rule.rings)

    methods = {"laplace-beltrami+bp": beta_lb, "selected-kernel+bp": beta_sel}
    errors = {m: np.empty(simulations) for m in methods}
    reports = []
    for sim in range(simulations):
        noisy, eps_sup = add_noise(
            clean, NoiseSpec("gaussian", config["noise_level"], [seed, 1, sim])
        )
        samples = SampleSet(rule, noisy)
        for method, beta in methods.items():
            bres = balancing_principle(samples, M, beta, _bp_config(config, eps_sup), plan=plan)
            gamma = regularized_fit(samples, M, bres.alpha_star, beta, plan=plan)
            rec_probe = synthesis(probe_table, gamma.values)
            err = _weighted_l2_rel_error(probe_rule, rec_probe, truth_probe)
            errors[method][sim] = err
            is_sel = method == "selected-kernel+bp"
            reports.append(
                ExperimentReport(
                    run_id=f"exp3-sim{sim:03d}-{method}",
                    seed=seed,
                    method=method,
                    alpha_star=bres.alpha_star,
                    lambda1=selection.best.lambda1 if is_sel else None,
                    lambda2=selection.best.lambda2 if is_sel else None,
                    rel_error=float(err),
                    sup_error=float(np.abs(rec_probe - truth_probe).max()),
                    config=config,
                )
            )
    curves = {m: _sorted_curve(errors[m]) for m in methods}
    return Experiment3Result(
        selection=selection, reports=reports, curves=curves, config=config
    )


@dataclass
class Experiment3Result:
    selection: object
    reports: list
    curves: dict
    config: dict


def rerun_from_config(config: dict):
    """Re-run an experiment from a report's config echo.  An echo key that is
    edited, unknown or missing, or whose value has another JSON type (`true`
    is not `1`), raises ValueError naming it."""
    expected = _config(config.get("experiment"), config.get("seed", 0), config.get("simulations"))

    def shown(echo, key):
        return json.dumps(echo[key], sort_keys=True, default=repr) if key in echo else "absent"

    differ = [
        f"{key!r} ({shown(config, key)}, expected {shown(expected, key)})"
        for key in sorted(config.keys() | expected.keys(), key=str)
        if shown(config, key) != shown(expected, key)
    ]
    if differ:
        raise ValueError(f"config echo differs from the one its run writes: {', '.join(differ)}")
    run = _EXPERIMENTS[expected["experiment"]][0]
    return run(**{key: expected[key] for key in ("seed", "simulations") if key in expected})


# ---------------------------------------------------------------------------
# persisted outputs (deterministic byte-for-byte for a fixed result)


def _write_curves(curves: dict, path) -> None:
    rows = [(i, method, err) for method in sorted(curves) for i, err in curves[method]]
    write_csv(path, "sim_index,method,rel_error", zip(*rows))


def write_experiment_1(result: Experiment1Result, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports_path = out / "exp1_reports.json"
    curves_path = out / "exp1_curves.csv"
    write_json([r.to_dict() for r in result.reports], reports_path)
    _write_curves(result.curves, curves_path)
    return [reports_path, curves_path]


def write_experiment_2(result: Experiment2Result, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "exp2_report.json"
    payload = result.report.to_dict()
    payload["noisy_sup_error"] = result.noisy_sup_error
    payload["bp_triggered"] = result.bp_result.triggered
    write_json(payload, report_path)

    rule = gauss_legendre_rule(result.config["degree"])
    nodes_path = out / "exp2_surface_nodes.csv"
    write_csv(
        nodes_path, "x1,x2,x3,y,y_noisy,reconstruction", [*rule.points.T, *result.node_values]
    )
    probe_path = out / "exp2_reconstruction.csv"
    probes = probe_grid(2 * result.config["degree"])
    write_csv(probe_path, "x1,x2,x3,y,reconstruction", [*probes.T, *result.probe_values])
    return [report_path, nodes_path, probe_path]


def write_experiment_3(result: Experiment3Result, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "exp3_report.json"
    payload = {
        "config": result.config,
        "kernel_search": asdict(result.selection),
        "reports": [r.to_dict() for r in result.reports],
    }
    write_json(payload, report_path)
    curves_path = out / "exp3_curves.csv"
    _write_curves(result.curves, curves_path)
    return [report_path, curves_path]


# experiment number -> (driver, writer of its files)
_EXPERIMENTS = {
    1: (run_experiment_1, write_experiment_1),
    2: (run_experiment_2, write_experiment_2),
    3: (run_experiment_3, write_experiment_3),
}
