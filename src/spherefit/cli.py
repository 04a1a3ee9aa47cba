"""Command-line interface: rule generation, fitting, and the experiments.

Subcommands:
  gen-rule    write a Gauss-Legendre cubature rule as CSV
  fit         fit noisy samples on a rule, fixed alpha or balanced alpha
  experiment  run reference experiment 1, 2 or 3 and persist its reports

Every setting is declared once, in the one table `experiments.SETTINGS` (key,
reader, default, help), which also spells the keys of `experiments.DEFAULTS`
and of the experiments' config echoes.  A subcommand lists its keys; a
config-file key is the key itself and a flag is `--` and the key with `_` as
`-`.  A setting resolves as command-line flag, then config-file entry
(--config, JSON), then default (`experiments.DEFAULTS` for the
reference-study settings).  A config key that is no setting of the
subcommand is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import approx, cubature, experiments, params
from ._files import json_text, read_csv, write_json
from .harmonics import _whole_number


# how each reader's flag is parsed; a switch flag can only turn it on
_FLAG_KWARGS = {
    _whole_number: {"type": int},
    experiments._real: {"type": float},
    experiments._text: {},
    experiments._switch: {"action": "store_const", "const": True},
}


def _resolve(args: argparse.Namespace) -> dict:
    """Each setting of the subcommand: its flag if given, else its entry in the
    --config file (a JSON object), else its default; checked by its reader.
    A config key that is no setting of the subcommand is an error."""
    config = {}
    if args.config is not None:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    unknown = sorted(set(config) - set(args.keys))
    if unknown:
        raise ValueError(
            f"config file {args.config}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"{args.command} takes {', '.join(args.keys)}"
        )
    values = {}
    for key in args.keys:
        default, flag = experiments.SETTINGS[key][1], getattr(args, key)
        if flag is not None or key in config:
            values[key] = experiments._read(key, config[key] if flag is None else flag)
        else:
            values[key] = experiments.DEFAULTS[key] if default is experiments._PRESET else default
    return values


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
    data = read_csv(path, "value", "x1,x2,x3,value")
    with_nodes = data.shape[1] == 4
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


def cmd_gen_rule(settings: dict) -> int:
    M, out = settings["degree"], settings["out"]
    if out is None:
        raise ValueError("gen-rule needs an output path (--out)")
    rule = cubature.gauss_legendre_rule(M)
    cubature.save_rule(rule, out)
    print(f"wrote {rule.n_points} nodes to {out}")
    print(f"weight sum {rule.weights.sum():.15f} (4*pi = {4 * np.pi:.15f})")
    return 0


def cmd_fit(settings: dict) -> int:
    M, alpha, use_bp = settings["degree"], settings["alpha"], settings["bp"]
    noise_level = settings["noise_level"]
    out_dir = Path(settings["out"] or ".")
    if settings["samples"] is None:
        raise ValueError("fit needs a samples file (--samples)")
    if alpha is not None and use_bp:
        raise ValueError("pass either --alpha or --bp, not both")
    if alpha is None and not use_bp:
        raise ValueError("fit needs either --alpha <value> or --bp")
    if alpha is not None and not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if use_bp and noise_level is None:
        raise ValueError("fit --bp needs the noise level (--noise-level or config key noise_level)")
    rule_path = settings["rule"]
    # a rule file may hold any rule exact to 2M; load_rule checks that
    rule = cubature.load_rule(rule_path, M) if rule_path else cubature.gauss_legendre_rule(M)
    samples = _load_samples(settings["samples"], rule)
    beta = _parse_beta(settings["beta"], M, settings["sgg_decay"])

    # built in both modes, so a fixed-alpha fit rejects the same bad --bp
    # values a balanced one does; only a balanced fit needs the noise level
    bp_cfg = experiments._bp_config(settings, 0.0 if noise_level is None else noise_level)
    # the walk, the fit and the norm estimate share one plan of the rule
    plan = approx._Plan(rule, M)

    summary = {"degree": M, "beta": settings["beta"], "coefficients": "coefficients.csv"}
    if use_bp:
        bres = params.balancing_principle(samples, M, beta, bp_cfg, plan=plan)
        alpha = bres.alpha_star
        summary.update(
            alpha_source="bp",
            alpha=alpha,
            bp_triggered=bres.triggered,
            bp_trace="bp_trace.csv",
            bp_norm_bound=bp_cfg.norm_bound,
        )
    else:
        summary.update(alpha_source="fixed", alpha=alpha)

    gamma = approx.regularized_fit(samples, M, alpha, beta, plan=plan)
    bound = approx._norm_bound(plan.norm("grid"), M, alpha, beta)
    summary.update(
        norm_estimate=bound.estimate,
        norm_crude_upper=bound.crude_upper,
        functional=approx.penalized_functional(samples, gamma, alpha, beta),
    )
    # all or nothing: every output is formed, and the summary checked, first
    json_text(summary)
    out_dir.mkdir(parents=True, exist_ok=True)
    if use_bp:
        params.save_bp_trace(bres, out_dir / summary["bp_trace"])
    coeff_path, summary_path = out_dir / summary["coefficients"], out_dir / "fit_summary.json"
    approx.save_coefficients(gamma, coeff_path)
    write_json(summary, summary_path)
    print(f"wrote {coeff_path} and {summary_path} (alpha = {alpha:.6g})")
    return 0


def cmd_experiment(settings: dict) -> int:
    config = experiments._config(settings["which"], settings["seed"], settings["simulations"])
    result = experiments.rerun_from_config(config)
    write = experiments._EXPERIMENTS[config["which"]][1]
    for p in write(result, Path(settings["out"] or ".")):
        print(f"wrote {p}")
    return 0


# each subcommand's settings, keys of `experiments.SETTINGS`
_COMMANDS = {
    "gen-rule": (cmd_gen_rule, "write a Gauss-Legendre rule as CSV", ("degree", "out")),
    "fit": (cmd_fit, "fit sampled values on a rule", (
        "degree", "rule", "samples", "beta", "sgg_decay", "alpha", "bp", "omega", "grid_anchor",
        "grid_ratio", "grid_len", "noise_level", "bp_norm_bound", "out",
    )),
    "experiment": (cmd_experiment, "run a reference experiment",
                   ("which", "seed", "simulations", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherefit",
        description="Regularized least-squares approximation on the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in keys:
            read, _, help_flag = experiments.SETTINGS[key]
            # argparse stores --grid-len as grid_len: the key again
            p.add_argument("--" + key.replace("_", "-"), help=help_flag, **_FLAG_KWARGS[read])
        p.add_argument("--config", help="JSON config file")
        p.set_defaults(func=func, keys=keys)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_resolve(args))
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
