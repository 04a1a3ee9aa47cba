"""Command-line interface: rule generation, fitting, and the experiments.

Subcommands:
  gen-rule    write a Gauss-Legendre cubature rule as CSV
  fit         fit noisy samples on a rule, fixed alpha or balanced alpha
  experiment  run reference experiment 1, 2 or 3 and persist its reports

Values are resolved with the precedence: command-line flag, then config-file
entry (--config, JSON), then built-in default (the reference-experiment
constants in `experiments.DEFAULTS`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import approx, cubature, experiments, params
from .experiments import DEFAULTS
from .harmonics import _whole_number


def _merge(args: argparse.Namespace, config: dict, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _merge_int(args: argparse.Namespace, config: dict, key: str, default=None):
    """`_merge` for a whole-number value; rejects 4.9 rather than truncating it."""
    val = _merge(args, config, key, default)
    return None if val is None else _whole_number(val, key)


def _merge_real(args: argparse.Namespace, config: dict, key: str, default=None):
    """`_merge` for a real number; rejects true and "1.5" rather than coercing them."""
    val = _merge(args, config, key, default)
    if val is not None and (isinstance(val, bool) or not isinstance(val, (int, float))):
        raise ValueError(f"{key} must be a number, got {val!r}")
    return None if val is None else float(val)


def _merge_flag(args: argparse.Namespace, config: dict, key: str) -> bool:
    """`_merge` for an on/off switch, off by default; only true or false is accepted."""
    val = _merge(args, config, key, False)
    if not isinstance(val, bool):
        raise ValueError(f"{key} must be true or false, got {val!r}")
    return val


def _merge_text(args: argparse.Namespace, config: dict, key: str, default=None):
    """`_merge` for a string value such as a path or a name."""
    val = _merge(args, config, key, default)
    if val is not None and not isinstance(val, str):
        raise ValueError(f"{key} must be a string, got {val!r}")
    return val


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return cfg


def _parse_beta(spec: str, M: int, sgg_decay: float) -> approx.PenalizationWeights:
    if spec == "ones":
        return params.weights_ones(M)
    if spec == "laplace-beltrami":
        return params.weights_laplace_beltrami(M)
    if spec == "sgg":
        a = sgg_decay ** -np.arange(M + 1, dtype=float)
        return params.weights_sgg_apriori(M, a)
    if spec.startswith("kernel:"):
        try:
            l1, l2 = (float(v) for v in spec[len("kernel:"):].split(","))
        except ValueError as exc:
            raise ValueError(
                f"bad kernel weight spec {spec!r}; expected kernel:<lambda1>,<lambda2>"
            ) from exc
        return params.weights_from_kernel_params(M, params.KernelParams(l1, l2))
    raise ValueError(
        f"unknown beta family {spec!r}; expected ones|sgg|laplace-beltrami|kernel:l1,l2"
    )


# sample coordinates farther than this from the rule's nodes are rejected
_NODE_TOL = 1e-12


def _load_samples(path, rule) -> approx.SampleSet:
    """Values from a CSV with a `value` column, one row per node in the rule's
    order, and optionally the node coordinates x1,x2,x3, checked against the rule."""
    with open(path) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with_nodes = header == ["x1", "x2", "x3", "value"]
    if data.shape[1] != len(header) or not (len(header) == 1 or with_nodes):
        raise ValueError(
            f"samples file {path} must hold a single `value` column, "
            "or the columns x1,x2,x3,value"
        )
    values = data[:, -1]
    if values.size != rule.n_points:
        raise ValueError(
            f"sample count {values.size} does not match rule node count {rule.n_points}"
        )
    if with_nodes:
        off = np.abs(data[:, :3] - rule.points).max(axis=1)
        misplaced = ~(off <= _NODE_TOL)  # NaN coordinates count as misplaced
        if misplaced.any():
            row = int(np.argmax(misplaced))
            raise ValueError(
                f"samples file {path}: data row {row + 1} lies {off[row]:.3g} from rule "
                f"node {row + 1} (tolerance {_NODE_TOL:g}); rows must follow the rule's node order"
            )
    return approx.SampleSet(rule, values)


def cmd_gen_rule(args) -> int:
    config = _load_config(args.config)
    M = _merge_int(args, config, "degree", DEFAULTS["degree"])
    out = _merge_text(args, config, "out")
    if out is None:
        raise ValueError("gen-rule needs an output path (--out)")
    rule = cubature.gauss_legendre_rule(M)
    cubature.save_rule(rule, out)
    print(f"wrote {rule.n_points} nodes to {out}")
    print(f"weight sum {rule.weights.sum():.15f} (4*pi = {4 * np.pi:.15f})")
    return 0


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    M = _merge_int(args, config, "degree", DEFAULTS["degree"])
    probe_resolution = _merge_int(args, config, "probe-resolution")
    out_dir = Path(_merge_text(args, config, "out", "."))
    rule_path = _merge_text(args, config, "rule")
    samples_path = _merge_text(args, config, "samples")
    if samples_path is None:
        raise ValueError("fit needs a samples file (--samples)")
    alpha_flag = _merge_real(args, config, "alpha")
    use_bp = _merge_flag(args, config, "bp")
    noise_level = _merge_real(args, config, "noise-level")
    beta_spec = _merge_text(args, config, "beta", "ones")
    if alpha_flag is not None and use_bp:
        raise ValueError("pass either --alpha or --bp, not both")
    if alpha_flag is None and not use_bp:
        raise ValueError("fit needs either --alpha <value> or --bp")
    if alpha_flag is not None and not (np.isfinite(alpha_flag) and alpha_flag >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha_flag}")
    if use_bp and noise_level is None:
        raise ValueError(
            "fit --bp needs the noise level (--noise-level or config key noise-level)"
        )
    rule = (
        cubature.load_rule(rule_path) if rule_path else cubature.gauss_legendre_rule(M)
    )
    samples = _load_samples(samples_path, rule)
    beta = _parse_beta(beta_spec, M, _merge_real(args, config, "sgg-decay", DEFAULTS["sgg_decay"]))

    # built in both modes, so a fixed-alpha fit rejects the same bad --bp
    # values a balanced one does; only a balanced fit needs the noise level
    bp_cfg = params.BalancingConfig(
        alpha0=_merge_real(args, config, "grid-anchor", DEFAULTS["grid_anchor"]),
        q=_merge_real(args, config, "grid-ratio", DEFAULTS["grid_ratio"]),
        L=_merge_int(args, config, "grid-len", DEFAULTS["grid_len"]),
        omega=_merge_real(args, config, "omega", DEFAULTS["omega"]),
        delta=0.0 if noise_level is None else noise_level,
        probe_resolution=probe_resolution,
        norm_bound=_merge_text(args, config, "norm-bound", "grid"),
    )
    if probe_resolution is None:
        probe_resolution = approx.default_probe_resolution(M)
    probes = cubature.probe_grid(probe_resolution)

    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"degree": M, "beta": beta_spec}
    if use_bp:
        bres = params.balancing_principle(samples, M, beta, bp_cfg)
        alpha = bres.alpha_star
        trace_path = out_dir / "bp_trace.csv"
        params.save_bp_trace(bres, trace_path)
        summary.update(
            alpha_source="bp",
            alpha=alpha,
            bp_triggered=bres.triggered,
            bp_trace=str(trace_path),
            bp_norm_bound=bres.norm_bound,
            bp_probe_resolution=bres.probe_resolution,
        )
    else:
        alpha = alpha_flag
        summary.update(alpha_source="fixed", alpha=alpha)

    gamma = approx.regularized_fit(samples, M, alpha, beta)
    coeff_path = out_dir / "coefficients.csv"
    approx.save_coefficients(gamma, coeff_path)

    bound = approx.operator_norm_bound(rule, M, alpha, beta, probes)
    summary.update(
        coefficients=str(coeff_path),
        norm_estimate=bound.estimate,
        norm_crude_upper=bound.crude_upper,
        functional=approx.penalized_functional(samples, gamma, alpha, beta),
    )
    summary_path = out_dir / "fit_summary.json"
    with open(summary_path, "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {coeff_path} and {summary_path} (alpha = {alpha:.6g})")
    return 0


_EXPERIMENT_WRITERS = {
    1: experiments.write_experiment_1,
    2: experiments.write_experiment_2,
    3: experiments.write_experiment_3,
}


def cmd_experiment(args) -> int:
    config = _load_config(args.config)
    which = _merge_int(args, config, "which")
    seed = _merge_int(args, config, "seed", 0)
    sims = _merge_int(args, config, "simulations", DEFAULTS["simulations"])
    out_dir = Path(_merge_text(args, config, "out", "."))
    result = experiments.rerun_from_config(
        {"experiment": which, "seed": seed, "simulations": sims}
    )
    paths = _EXPERIMENT_WRITERS[which](result, out_dir)
    for p in paths:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherefit",
        description="Regularized least-squares approximation on the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rule = sub.add_parser("gen-rule", help="write a Gauss-Legendre rule as CSV")
    p_rule.add_argument("--degree", type=int, help="reconstruction degree M")
    p_rule.add_argument("--out", help="output CSV path")
    p_rule.add_argument("--config", help="JSON config file")
    p_rule.set_defaults(func=cmd_gen_rule)

    p_fit = sub.add_parser("fit", help="fit sampled values on a rule")
    p_fit.add_argument("--degree", type=int, help="reconstruction degree M")
    p_fit.add_argument("--rule", help="rule CSV (default: generate for --degree)")
    p_fit.add_argument(
        "--samples", help="CSV with a `value` column (and optionally x1,x2,x3), one row per node"
    )
    p_fit.add_argument(
        "--beta", help="weight family: ones|sgg|laplace-beltrami|kernel:l1,l2"
    )
    p_fit.add_argument("--sgg-decay", type=float, help="decay base for --beta sgg")
    p_fit.add_argument("--alpha", type=float, help="fixed regularization parameter")
    p_fit.add_argument(
        "--bp", action="store_const", const=True, help="pick alpha by the balancing principle"
    )
    p_fit.add_argument("--omega", type=float, help="balancing design parameter")
    p_fit.add_argument("--grid-anchor", type=float, help="alpha grid anchor")
    p_fit.add_argument("--grid-ratio", type=float, help="alpha grid ratio in (0,1)")
    p_fit.add_argument("--grid-len", type=int, help="alpha grid length")
    p_fit.add_argument("--noise-level", type=float, help="assumed sup-norm of the noise")
    p_fit.add_argument("--probe-resolution", type=int, help="sup-norm probe grid degree")
    p_fit.add_argument(
        "--norm-bound", choices=params.NORM_BOUND_KINDS, help="operator-norm bound in BP"
    )
    p_fit.add_argument("--out", help="output directory")
    p_fit.add_argument("--config", help="JSON config file")
    p_fit.set_defaults(func=cmd_fit)

    p_exp = sub.add_parser("experiment", help="run a reference experiment")
    p_exp.add_argument("--which", type=int, choices=(1, 2, 3), help="experiment number")
    p_exp.add_argument("--seed", type=int, help="base RNG seed")
    p_exp.add_argument(
        "--simulations", type=int, help="simulation count for experiments 1 and 3"
    )
    p_exp.add_argument("--out", help="output directory")
    p_exp.add_argument("--config", help="JSON config file")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
