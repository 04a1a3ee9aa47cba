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

from . import _rings
from ._files import write_csv, write_json
from .approx import (
    NORM_BOUND_KINDS, HarmonicCoefficients, SampleSet, _Plan, analyze, expand_by_degree,
    filter_factors,
)
from .cubature import CubatureRule, gauss_legendre_rule
from .harmonics import _whole_number, as_unit_vectors
from .params import (
    BalancingConfig,
    BalancingResult,
    KernelSelectResult,
    RandomSearchConfig,
    _balanced_fit,
    _l2_alphas,
    kernel_select,
    weights_from_kernel_params,
    weights_laplace_beltrami,
    weights_ones,
    weights_sgg_apriori,
)

# Reference-study constants; the experiment drivers and the CLI read them when
# they run, and nothing hard-codes them at call sites.  SETTINGS says what each is.
DEFAULTS = {
    "degree": 30,
    "grid_anchor": 8.0,
    "grid_ratio": 0.8,
    "grid_len": 60,
    "omega": 0.002,
    "l2_omega": 0.03,
    "sgg_decay": 1.2,
    "uniform_noise": 0.05,
    "gaussian_sigma": 0.5,
    "simulations": 50,
    "search_box": ((0.0, 5.0), (0.0, 5.0)),
    "search_runs": 10,
    "search_steps": 10,
    "rng": "numpy-pcg64",
}

NOISE_KINDS = ("uniform_supnorm", "gaussian")


def _real(value, key: str) -> float:
    """A real number; rejects true and "1.5" rather than coercing them."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _text(value, key: str) -> str:
    """A string such as a path or a name."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _switch(value, key: str) -> bool:
    """An on/off switch; only true or false is accepted."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


_PRESET = object()

# Every setting, spelled once: its key in DEFAULTS, in a config echo and in a
# `--config` file, and with `_` as `-` its flag.  key -> (reader, default,
# help).  A default of _PRESET is DEFAULTS[key] as it stands when a command
# runs; a reader of None marks a key that no command takes.
SETTINGS = {
    "which": (_whole_number, None, "experiment number: 1, 2 or 3"),
    "seed": (_whole_number, 0, "base RNG seed"),
    "simulations": (_whole_number, None, "simulations of experiment 1 or 3 (default: DEFAULTS')"),
    "degree": (_whole_number, _PRESET, "reconstruction degree M"),
    "rule": (_text, None, "rule CSV, exact to degree 2*--degree (default: generate one)"),
    "samples": (_text, None, "CSV with a `value` column (x1,x2,x3 optional), one row per node"),
    "beta": (_text, "ones", "weight family: ones|sgg|laplace-beltrami|kernel:l1,l2"),
    "sgg_decay": (_real, _PRESET, "decay base of --beta sgg and experiment 1: a_k = base**-k"),
    "alpha": (_real, None, "fixed regularization parameter"),
    "bp": (_switch, False, "pick alpha by the balancing principle"),
    "omega": (_real, _PRESET, "balancing design parameter"),
    "l2_omega": (None, _PRESET, "omega of experiments 2 and 3, whose walks balance in L2"),
    "grid_anchor": (_real, _PRESET, "alpha grid anchor: alpha_i = anchor * ratio**i"),
    "grid_ratio": (_real, _PRESET, "alpha grid ratio in (0,1)"),
    "grid_len": (_whole_number, _PRESET, "alpha grid length"),
    "noise_level": (_real, None, "delta, the sup norm of the data noise, which --bp needs"),
    "bp_norm_bound": (_text, BalancingConfig.norm_bound,
                      "operator-norm bound of --bp: " + "|".join(NORM_BOUND_KINDS)),
    "out": (_text, None, "output path: gen-rule's CSV file, else a directory (default: .)"),
    "uniform_noise": (None, _PRESET, "sup norm of experiment 1's uniform noise"),
    "gaussian_sigma": (None, _PRESET, "standard deviation of experiments 2 and 3's Gaussian noise"),
    "noise_kind": (None, None, "how an experiment draws its noise: " + "|".join(NOISE_KINDS)),
    "search_box": (None, _PRESET, "experiment 3's (lambda1, lambda2) search box"),
    "search_runs": (None, _PRESET, "experiment 3's random-search runs"),
    "search_steps": (None, _PRESET, "experiment 3's steps per random-search run"),
    "rng": (None, _PRESET, "the bit generator of every draw"),
}


def _read(key: str, value):
    """`value` checked by the reader of setting `key`."""
    return SETTINGS[key][0](value, key)


@dataclass(frozen=True)
class SggModel:
    """Downward-continuation model: observed coefficients are a_k * g_{k,j}."""

    M: int
    a: np.ndarray
    g_true: HarmonicCoefficients

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).ravel().copy()
        if a.size != self.M + 1:
            raise ValueError(f"need {self.M + 1} damping factors, got {a.size}")
        if np.any(~np.isfinite(a)) or np.any(a <= 0.0):
            raise ValueError("damping factors must be positive and finite")
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
    function y = sum_k a_k sum_j g_{k,j} Y_{k,j}.
    """
    if not decay_base > 1.0:
        raise ValueError(f"decay base must exceed 1, got {decay_base}")
    rng = np.random.default_rng(seed)
    k = np.arange(M + 1, dtype=float)
    a = decay_base**-k
    x = rng.uniform(0.0, 1.0, (M + 1) ** 2)
    g = expand_by_degree((k + 0.5) ** -1.5) * x
    model = SggModel(M=M, a=a, g_true=HarmonicCoefficients(M, g))
    return model, HarmonicCoefficients(M, expand_by_degree(a) * g)


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
    """Undo the per-degree damping: g_{k,j} = gamma_{k,j} / a_k."""
    if gamma.degree_M != model.M:
        raise ValueError(
            f"coefficients of degree {gamma.degree_M} do not match model degree {model.M}"
        )
    return HarmonicCoefficients(model.M, gamma.values / expand_by_degree(model.a))


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


# each experiment's echo: the keys it takes from DEFAULTS, its noise kind,
# its walk's norm bound and the DEFAULTS key of the walk's omega.  Experiment
# 1 recovers damped coefficients, so its walk balances sup norms; experiments
# 2 and 3 report L2 errors and balance in L2
_SHARED = ("degree", "grid_anchor", "grid_ratio", "grid_len", "rng")
_ECHOES = {
    1: ((*_SHARED, "uniform_noise", "sgg_decay", "simulations"), "uniform_supnorm", "crude",
        "omega"),
    2: ((*_SHARED, "gaussian_sigma"), "gaussian", "l2", "l2_omega"),
    3: ((*_SHARED, "gaussian_sigma", "search_box", "search_runs", "search_steps", "simulations"),
        "gaussian", "l2", "l2_omega"),
}


def _config(which, seed, simulations=None) -> dict:
    """The config echo of experiment `which` (1, 2 or 3) at a whole-number
    `seed`, from `DEFAULTS` as it stands.  Experiments 1 and 3 take a whole
    `simulations` of at least 1 (None reads `DEFAULTS`); experiment 2 runs
    once, so none."""
    which, seed = _read("which", which), _read("seed", seed)
    if which not in _ECHOES:
        raise ValueError(f"which must be 1, 2 or 3, got {which}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    keys, noise_kind, bound, omega = _ECHOES[which]
    config = {key: DEFAULTS[key] for key in keys}
    config.update(which=which, seed=seed, noise_kind=noise_kind, bp_norm_bound=bound,
                  omega=DEFAULTS[omega])
    if "simulations" in config:
        n = _read("simulations", config["simulations"] if simulations is None else simulations)
        if n < 1:
            raise ValueError(f"simulations must be at least 1, got {n}")
        config["simulations"] = n
    elif simulations is not None:
        raise ValueError(f"experiment 2 runs once: no simulations, got {simulations!r}")
    return config


def _bp_config(config: dict, delta: float) -> BalancingConfig:
    """The balancing set-up that a config echo or `fit`'s settings describe,
    at noise level `delta`."""
    return BalancingConfig(
        alpha0=config["grid_anchor"], q=config["grid_ratio"], L=config["grid_len"],
        omega=config["omega"], delta=delta, norm_bound=config["bp_norm_bound"],
    )


def _study(config: dict) -> tuple[int, CubatureRule, _Plan]:
    """The degree M of a config echo, its rule gauss_legendre_rule(M) and the
    one plan every walk, fit and score of the run shares."""
    M = config["degree"]
    rule = gauss_legendre_rule(M)
    return M, rule, _Plan(rule, M)


def _franke_scorer(plan: _Plan):
    """The Franke-plus-cap function on gauss_legendre_rule(plan.resolution):
    returns its points, its values there and a scorer of degree-M
    coefficients, which gives the fit's values there, its relative error
    in `_weighted_l2_norm` and its sup error.  The scorer synthesizes on
    the rule's ring table, built once on the plan's degree layout; the
    truth's norm is taken once, with the scorer."""
    rule = gauss_legendre_rule(plan.resolution)
    table = _rings.ring_table(plan.layout, rule.rings)
    truth = franke_cap_eval(rule.points)
    truth_norm = _weighted_l2_norm(rule, truth)

    def score(coeffs: HarmonicCoefficients) -> tuple[np.ndarray, float, float]:
        values = _rings.synthesis(table, coeffs.values)
        error = values - truth
        return values, _weighted_l2_norm(rule, error) / truth_norm, float(np.abs(error).max())

    return rule.points, truth, score


def _weighted_l2_norm(rule, values) -> float:
    """Quadrature estimate of ||f||_L2 from the values of f at the nodes."""
    return float(np.sqrt(rule.weights @ values**2))


def _report(config, run_id, method, alpha, rel_error, sup_error=None, kernel=None):
    """One method's `ExperimentReport`, with the rates of a `KernelParams` `kernel`."""
    lambda1, lambda2 = (None, None) if kernel is None else (kernel.lambda1, kernel.lambda2)
    return ExperimentReport(
        run_id=run_id, seed=config["seed"], method=method, alpha_star=alpha, lambda1=lambda1,
        lambda2=lambda2, rel_error=rel_error, sup_error=sup_error, config=config,
    )


def _sorted_curve(errors) -> list[tuple[int, float]]:
    """(sim_index, error) pairs in ascending error order."""
    order = np.argsort(errors, kind="stable")
    return [(int(i), float(errors[i])) for i in order]


def _best_alpha_on_grid(grid, gamma_hat, beta, model):
    """Oracle: the grid value at which the `beta` fit of the analysis
    coefficients `gamma_hat` recovers `model`'s target best."""
    b2_flat, a_flat = expand_by_degree(beta.beta**2), expand_by_degree(model.a)
    g_true_values = model.g_true.values
    best_alpha, best_err = None, np.inf
    norm_g = np.linalg.norm(g_true_values)
    for alpha in grid:
        rec = gamma_hat.values / (1.0 + alpha * b2_flat) / a_flat
        err = np.linalg.norm(rec - g_true_values) / norm_g
        if err < best_err:
            best_alpha, best_err = float(alpha), float(err)
    return best_alpha, best_err


@dataclass
class _StudyResult:
    """Experiment 1's or 3's reports and error curves; experiment 3's kernel search."""

    reports: list
    curves: dict
    config: dict
    selection: KernelSelectResult | None = None


# ---------------------------------------------------------------------------
# experiment 1: damped-coefficient recovery with a priori weights


def run_experiment_1(seed: int = 0, simulations: int | None = None):
    """Compare plain projection, balanced and oracle regularization.

    Per simulation: random damped target on the rule of degree
    DEFAULTS["degree"], uniform noise of sup-norm DEFAULTS["uniform_noise"],
    then four recoveries -- plain (alpha = 0), a priori weights with a
    balanced alpha, flat weights with the oracle alpha, and a priori weights
    with the oracle alpha.  Errors are relative coefficient errors of the
    recovered target.  `simulations` defaults to DEFAULTS'.
    """
    config = _config(1, seed, simulations)
    seed, simulations, noise_kind = config["seed"], config["simulations"], config["noise_kind"]
    M, rule, plan = _study(config)
    bp_cfg = _bp_config(config, config["uniform_noise"])
    grid, beta_one = bp_cfg.grid(), weights_ones(M)

    methods = ("plain-ls", "apriori-bp", "ones-best", "apriori-best")
    errors = {m: np.empty(simulations) for m in methods}
    reports = []
    for sim in range(simulations):
        model, y_coeffs = sgg_generate(M, config["sgg_decay"], [seed, sim, 0])
        clean = _rings.synthesis(plan.table, y_coeffs.values)
        noisy, _ = add_noise(clean, NoiseSpec(noise_kind, config["uniform_noise"], [seed, sim, 1]))
        samples = SampleSet(rule, noisy)
        gamma_hat, g_true = analyze(samples, M, plan=plan), model.g_true
        beta_sgg = weights_sgg_apriori(M, model.a)
        bres, gamma = _balanced_fit(samples, M, beta_sgg, bp_cfg, plan)
        per_method = {
            "plain-ls": (0.0, relative_error_l2(sgg_recover(gamma_hat, model), g_true)),
            "apriori-bp": (bres.alpha_star, relative_error_l2(sgg_recover(gamma, model), g_true)),
            "ones-best": _best_alpha_on_grid(grid, gamma_hat, beta_one, model),
            "apriori-best": _best_alpha_on_grid(grid, gamma_hat, beta_sgg, model),
        }
        for method, (alpha, err) in per_method.items():
            errors[method][sim] = err
            reports.append(_report(config, f"exp1-sim{sim:03d}-{method}", method, alpha, err))
    curves = {m: _sorted_curve(errors[m]) for m in methods}
    return _StudyResult(reports, curves, config)


# ---------------------------------------------------------------------------
# experiment 2: Franke-plus-cap denoising with a balanced parameter


@dataclass
class Experiment2Result:
    """The run's report and walk, and the CSV columns it writes: x1, x2, x3
    of the rule's nodes or of the scoring rule's points, then the values."""

    report: ExperimentReport
    bp_result: BalancingResult
    noisy_sup_error: float
    node_columns: tuple
    probe_columns: tuple
    config: dict


def run_experiment_2(seed: int = 0) -> Experiment2Result:
    """Denoise the Franke-plus-cap function with degree-ladder weights.

    Gaussian noise of sigma DEFAULTS["gaussian_sigma"] at the rule nodes; the
    balancing principle picks alpha, balancing L2 norms (the ``l2`` bound at
    DEFAULTS["l2_omega"]), the norm the run is scored in; reported errors are
    the sup error and a quadrature estimate of the relative L2 error of the
    reconstruction on the scoring rule.
    """
    config = _config(2, seed)
    M, rule, plan = _study(config)
    clean = franke_cap_eval(rule.points)
    noise = NoiseSpec(config["noise_kind"], config["gaussian_sigma"], [config["seed"], 0])
    noisy, eps_sup = add_noise(clean, noise)
    samples = SampleSet(rule, noisy)
    bres, gamma = _balanced_fit(
        samples, M, weights_laplace_beltrami(M), _bp_config(config, eps_sup), plan
    )
    probe_points, truth, score = _franke_scorer(plan)
    rec_probe, rel_error, sup_error = score(gamma)
    return Experiment2Result(
        report=_report(config, "exp2", "laplace-beltrami+bp", bres.alpha_star, rel_error,
                       sup_error),
        bp_result=bres,
        noisy_sup_error=eps_sup,
        node_columns=(*rule.points.T, clean, noisy, _rings.synthesis(plan.table, gamma.values)),
        probe_columns=(*probe_points.T, truth, rec_probe),
        config=config,
    )


# ---------------------------------------------------------------------------
# experiment 3: a posteriori kernel selection


def run_experiment_3(seed: int = 0, simulations: int | None = None):
    """Select penalization weights a posteriori and compare against the ladder.

    One noisy realization drives the kernel search (Random Search over the
    rate box, balanced alpha per candidate); the winner is then pitted
    against the Laplace-Beltrami weights on fresh noisy realizations, both
    with balanced alphas, in relative L2 error against the clean function.
    Every walk balances L2 norms (the ``l2`` bound at DEFAULTS["l2_omega"]),
    O(M) per step with no probe layout.  The simulations are analyzed first,
    keeping each analysis and, as its walk's delta, its realized sup norm;
    then each method walks them all in one batch (`params._l2_walks`), each
    walk equal to its `balancing_principle`, and the fits, each equal to its
    `regularized_fit`, are scored and reported by simulation.  `simulations`
    defaults to DEFAULTS'.
    """
    config = _config(3, seed, simulations)
    seed, simulations, noise_kind = config["seed"], config["simulations"], config["noise_kind"]
    M, rule, plan = _study(config)
    clean = franke_cap_eval(rule.points)

    # one blurred realization drives the selection
    noise = NoiseSpec(noise_kind, config["gaussian_sigma"], [seed, 0])
    sel_noisy, sel_eps = add_noise(clean, noise)
    search = RandomSearchConfig(
        runs=config["search_runs"],
        steps_per_run=config["search_steps"],
        box=tuple(tuple(b) for b in config["search_box"]),
        seed=int(np.random.SeedSequence([seed, 2]).generate_state(1)[0]),
    )
    selection = kernel_select(
        SampleSet(rule, sel_noisy), M, search, _bp_config(config, sel_eps), plan=plan
    )
    *_, score = _franke_scorer(plan)

    methods = {
        "laplace-beltrami+bp": (weights_laplace_beltrami(M), None),
        "selected-kernel+bp": (weights_from_kernel_params(M, selection.best), selection.best),
    }
    # keep each simulation's analysis and realized sup norm, its walk's delta
    gammas, deltas = np.empty((simulations, (M + 1) ** 2)), np.empty(simulations)
    for sim in range(simulations):
        noisy, deltas[sim] = add_noise(
            clean, NoiseSpec(noise_kind, config["gaussian_sigma"], [seed, 1, sim])
        )
        gammas[sim] = analyze(SampleSet(rule, noisy), M, plan=plan).values
    grid = _bp_config(config, 0.0).grid()  # each walk's delta is its simulation's
    alphas = {
        method: _l2_alphas(rule.weights, gammas, beta.beta, grid, config["omega"] * deltas)
        for method, (beta, _) in methods.items()
    }
    errors = {m: np.empty(simulations) for m in methods}
    reports = []
    for sim in range(simulations):
        for method, (beta, kernel) in methods.items():
            alpha = alphas[method][sim]
            # `regularized_fit` of the simulation's samples, from the kept analysis
            fit = expand_by_degree(filter_factors(M, alpha, beta)) * gammas[sim]
            _, err, sup_error = score(HarmonicCoefficients(M, fit))
            errors[method][sim] = err
            reports.append(_report(config, f"exp3-sim{sim:03d}-{method}", method, alpha, err,
                                   sup_error, kernel))
    curves = {m: _sorted_curve(errors[m]) for m in methods}
    return _StudyResult(reports, curves, config, selection)


def rerun_from_config(config: dict):
    """Re-run an experiment from a report's config echo.  An echo key that is
    edited, unknown or missing, or whose value has another JSON type (`true`
    is not `1`), raises ValueError naming it."""
    expected = _config(config.get("which"), config.get("seed", 0), config.get("simulations"))

    def shown(echo, key):
        return json.dumps(echo[key], sort_keys=True, default=repr) if key in echo else "absent"

    differ = [
        f"{key!r} ({shown(config, key)}, expected {shown(expected, key)})"
        for key in sorted(config.keys() | expected.keys(), key=str)
        if shown(config, key) != shown(expected, key)
    ]
    if differ:
        raise ValueError(f"config echo differs from the one its run writes: {', '.join(differ)}")
    run = _EXPERIMENTS[expected["which"]][0]
    return run(**{key: expected[key] for key in ("seed", "simulations") if key in expected})


# ---------------------------------------------------------------------------
# persisted outputs (deterministic byte-for-byte for a fixed result)


def _paths(out_dir, *names) -> list[Path]:
    """`out_dir`, made if absent, joined with each file name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return [out / name for name in names]


def _write_study(result: _StudyResult, out_dir, report_name: str, payload) -> list[Path]:
    """The report file `report_name` holding `payload`, and the curves CSV."""
    n = result.config["which"]
    report_path, curves_path = _paths(out_dir, report_name, f"exp{n}_curves.csv")
    write_json(payload, report_path)
    rows = [(i, method, err) for method in sorted(result.curves)
            for i, err in result.curves[method]]
    write_csv(curves_path, "sim_index,method,rel_error", zip(*rows))
    return [report_path, curves_path]


def write_experiment_1(result: _StudyResult, out_dir) -> list[Path]:
    return _write_study(result, out_dir, "exp1_reports.json",
                        [r.to_dict() for r in result.reports])


def write_experiment_2(result: Experiment2Result, out_dir) -> list[Path]:
    paths = _paths(out_dir, "exp2_report.json", "exp2_surface_nodes.csv",
                   "exp2_reconstruction.csv")
    payload = {**result.report.to_dict(), "noisy_sup_error": result.noisy_sup_error,
               "bp_triggered": result.bp_result.triggered}
    write_json(payload, paths[0])
    write_csv(paths[1], "x1,x2,x3,y,y_noisy,reconstruction", result.node_columns)
    write_csv(paths[2], "x1,x2,x3,y,reconstruction", result.probe_columns)
    return paths


def write_experiment_3(result: _StudyResult, out_dir) -> list[Path]:
    payload = {
        "config": result.config,
        "kernel_search": asdict(result.selection),
        "reports": [r.to_dict() for r in result.reports],
    }
    return _write_study(result, out_dir, "exp3_report.json", payload)


# experiment number -> (driver, writer of its files)
_EXPERIMENTS = {
    1: (run_experiment_1, write_experiment_1),
    2: (run_experiment_2, write_experiment_2),
    3: (run_experiment_3, write_experiment_3),
}
