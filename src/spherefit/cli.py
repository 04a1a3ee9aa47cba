"""Command-line interface: rule generation, fitting, and the experiments.

Subcommands:
  gen-rule    write a Gauss-Legendre cubature rule as CSV
  fit         fit noisy samples on a rule, fixed alpha or balanced alpha
  experiment  run reference experiment 1, 2 or 3 and persist its reports

Each setting is declared once, in its subcommand's table, and resolves as:
command-line flag, then config-file entry (--config, JSON), then default
(`experiments.DEFAULTS` for the reference-study settings).  A config key that
is no setting of the subcommand is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import approx, cubature, experiments, params
from ._files import read_csv, write_json
from .harmonics import _whole_number


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


# how each reader's flag is parsed; a switch flag can only turn it on
_FLAG_KWARGS = {
    _whole_number: {"type": int},
    _real: {"type": float},
    _text: {},
    _switch: {"action": "store_const", "const": True},
}


# One table per subcommand, one row per setting: (key, reader, default, help).
# A setting is given as flag `--<key>` or config key `<key>`.  A default of
# _PRESET is read from `experiments.DEFAULTS` (`_` for `-`) when the command runs.
_PRESET = object()
_DEGREE = ("degree", _whole_number, _PRESET, "reconstruction degree M")
_OUT_DIR = ("out", _text, ".", "output directory")

_GEN_RULE = (_DEGREE, ("out", _text, None, "output CSV path"))

_FIT = (
    _DEGREE,
    ("rule", _text, None, "rule CSV, exact to degree 2*--degree (default: generate one)"),
    ("samples", _text, None,
     "CSV with a `value` column (and optionally x1,x2,x3), one row per node"),
    ("beta", _text, "ones", "weight family: ones|sgg|laplace-beltrami|kernel:l1,l2"),
    ("sgg-decay", _real, _PRESET, "decay base for --beta sgg"),
    ("alpha", _real, None, "fixed regularization parameter"),
    ("bp", _switch, False, "pick alpha by the balancing principle"),
    ("omega", _real, _PRESET, "balancing design parameter"),
    ("grid-anchor", _real, _PRESET, "alpha grid anchor"),
    ("grid-ratio", _real, _PRESET, "alpha grid ratio in (0,1)"),
    ("grid-len", _whole_number, _PRESET, "alpha grid length"),
    ("noise-level", _real, None, "assumed sup-norm of the noise"),
    ("probe-resolution", _whole_number, None, "sup-norm probe grid degree"),
    ("norm-bound", _text, "grid",
     "operator-norm bound in BP: " + "|".join(params.NORM_BOUND_KINDS)),
    _OUT_DIR,
)

_EXPERIMENT = (
    ("which", _whole_number, None, "experiment number: 1, 2 or 3"),
    ("seed", _whole_number, 0, "base RNG seed"),
    ("simulations", _whole_number, None, "simulation count for experiments 1 and 3"),
    _OUT_DIR,
)


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
    keys = [row[0] for row in args.settings]
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ValueError(
            f"config file {args.config}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"{args.command} takes {', '.join(keys)}"
        )
    values = {}
    for key, read, default, _ in args.settings:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None or key in config:
            values[key] = read(config[key] if flag is None else flag, key)
        elif default is _PRESET:
            values[key] = experiments.DEFAULTS[key.replace("-", "_")]
        else:
            values[key] = default
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
    noise_level, probe_resolution = settings["noise-level"], settings["probe-resolution"]
    out_dir = Path(settings["out"])
    if settings["samples"] is None:
        raise ValueError("fit needs a samples file (--samples)")
    if alpha is not None and use_bp:
        raise ValueError("pass either --alpha or --bp, not both")
    if alpha is None and not use_bp:
        raise ValueError("fit needs either --alpha <value> or --bp")
    if alpha is not None and not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if use_bp and noise_level is None:
        raise ValueError("fit --bp needs the noise level (--noise-level or config key noise-level)")
    rule_path = settings["rule"]
    # a rule file may hold any rule exact to 2M; load_rule checks that
    rule = cubature.load_rule(rule_path, M) if rule_path else cubature.gauss_legendre_rule(M)
    samples = _load_samples(settings["samples"], rule)
    beta = _parse_beta(settings["beta"], M, settings["sgg-decay"])

    # built in both modes, so a fixed-alpha fit rejects the same bad --bp
    # values a balanced one does; only a balanced fit needs the noise level
    bp_cfg = params.BalancingConfig(
        alpha0=settings["grid-anchor"], q=settings["grid-ratio"], L=settings["grid-len"],
        omega=settings["omega"], delta=0.0 if noise_level is None else noise_level,
        probe_resolution=probe_resolution, norm_bound=settings["norm-bound"],
    )
    if probe_resolution is None:
        probe_resolution = approx.default_probe_resolution(M)

    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"degree": M, "beta": settings["beta"]}
    if use_bp:
        bres = params.balancing_principle(samples, M, beta, bp_cfg)
        alpha = bres.alpha_star
        trace_path = out_dir / "bp_trace.csv"
        params.save_bp_trace(bres, trace_path)
        summary.update(
            alpha_source="bp",
            alpha=alpha,
            bp_triggered=bres.triggered,
            bp_trace=trace_path.name,
            bp_norm_bound=bres.norm_bound,
            bp_probe_resolution=bres.probe_resolution,
        )
    else:
        summary.update(alpha_source="fixed", alpha=alpha)

    gamma = approx.regularized_fit(samples, M, alpha, beta)
    coeff_path = out_dir / "coefficients.csv"
    approx.save_coefficients(gamma, coeff_path)

    # the walk's memoized `grid` oracle, clamped as in operator_norm_bound
    sup = params._probe_norm(rule, M, probe_resolution, "grid")
    crude = approx.crude_norm_upper(M, alpha, beta)
    summary.update(
        coefficients=coeff_path.name,
        norm_estimate=min(sup(approx.filter_factors(M, alpha, beta)), crude),
        norm_crude_upper=crude,
        functional=approx.penalized_functional(samples, gamma, alpha, beta),
    )
    summary_path = out_dir / "fit_summary.json"
    write_json(summary, summary_path)
    print(f"wrote {coeff_path} and {summary_path} (alpha = {alpha:.6g})")
    return 0


def cmd_experiment(settings: dict) -> int:
    config = experiments._config(settings["which"], settings["seed"], settings["simulations"])
    result = experiments.rerun_from_config(config)
    write = experiments._EXPERIMENTS[config["experiment"]][1]
    for p in write(result, Path(settings["out"])):
        print(f"wrote {p}")
    return 0


_COMMANDS = {
    "gen-rule": (cmd_gen_rule, "write a Gauss-Legendre rule as CSV", _GEN_RULE),
    "fit": (cmd_fit, "fit sampled values on a rule", _FIT),
    "experiment": (cmd_experiment, "run a reference experiment", _EXPERIMENT),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherefit",
        description="Regularized least-squares approximation on the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, settings) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, read, _, help_flag in settings:
            p.add_argument("--" + key, help=help_flag, **_FLAG_KWARGS[read])
        p.add_argument("--config", help="JSON config file")
        p.set_defaults(func=func, settings=settings)
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
