"""Balancing-walk diagnostic: where the walk stops for each operator-norm
bound, design parameter omega and noise level, against the best alpha on
the same grid.

The default mode uses the reference fit's data: the Franke-plus-cap function
at the nodes of gauss_legendre_rule(30), Gaussian noise of standard
deviation sigma (seed 1), delta the realized sup norm of that noise,
Laplace-Beltrami weights, and the grid alpha_i = 8 * 0.8^i, i = 1..L, of
`experiments.DEFAULTS` (L = 60 unless `--grid-len` says otherwise).  For
each bound and omega (0.002, 0.02 and 0.2 for the sup-norm bounds `grid`,
`grid-abs` and `crude`; L2_OMEGAS for `l2`) and each sigma (0.005, 0.05,
0.5) one row gives the steps the walk took, whether a threshold was met,
alpha_star, and the relative L2 error of the fit at alpha_star by cubature
on gauss_legendre_rule(60).  Per sigma, one oracle row gives the grid value
of least error, its index i and that error.

`--experiments` runs the held-out comparison of experiments 2 and 3 at each
degree of `--degrees` (30, 60 and 120), with `experiments.DEFAULTS["degree"]`
patched and every walk of both experiments switched to one bound and omega
(`experiments._ECHOES` patched):
  * tuning, on TUNE_SEEDS (100-109): the `l2` walk at each omega of
    L2_OMEGAS; the omega chosen is the one whose median error, divided by
    the oracle's, has the smallest worst case over the six (experiment,
    degree) cells.  The omega of the smallest mean is printed beside it;
  * reporting, on REPORT_SEEDS (200-209, or `--report-seeds`): the `l2` walk
    at the chosen omega (and at the mean's, where it differs) against the
    `grid-abs` walk at 0.002 and the oracle.  Seeds 0-9, the experiments'
    default seeds, were reported on while the choice rule was still being
    settled, so they are not held out.
Each cell is a median over the seeds.  An experiment-2 run's error is its
report's `rel_error`; an experiment-3 run's errors are the medians over its
simulations of the `selected-kernel+bp` reports (the kernel search's result,
which criterion 8 and the benchmark read) and of the `laplace-beltrami+bp`
reports (the ladder).  The oracle takes, per fit, the grid value of least
error for the Laplace-Beltrami weights (experiment 2's fit, experiment 3's
ladder), from the noisy data each experiment draws.  Its errors come from
the coefficients by Parseval: on the scoring rule gauss_legendre_rule(2M),
with g the truth's degree-M analysis there and T its weighted energy,
||p - truth||^2 = c.c - 2 c.g + T, which equals the experiments' cubature
score to rounding (checked against experiment 2's report).

Not collected by pytest (the name does not start with `test_`).  Run from the
repository root (the default mode a few seconds, `--experiments` a few
minutes):

    PYTHONPATH=src python tests/bp_walk_sweep.py [--grid-len 90]
    PYTHONPATH=src python tests/bp_walk_sweep.py --experiments [--degrees 30 60 120]
"""

from __future__ import annotations

import argparse
import contextlib
from unittest import mock

import numpy as np

from spherefit import (
    BalancingConfig,
    SampleSet,
    analyze,
    balancing_principle,
    evaluate_grid,
    experiments,
    gauss_legendre_rule,
    regularized_fit,
    weights_laplace_beltrami,
)
from spherefit.approx import expand_by_degree, filter_factors

DEGREE = 30
DATA_SEED = 1
L2_OMEGAS = (0.02, 0.025, 0.03, 0.04, 0.05)
OMEGAS = {"grid": (0.002, 0.02, 0.2), "grid-abs": (0.002, 0.02, 0.2), "crude": (0.002, 0.02, 0.2),
          "l2": L2_OMEGAS}
SIGMAS = (0.005, 0.05, 0.5)
DEGREES = (30, 60, 120)
TUNE_SEEDS = tuple(range(100, 110))
REPORT_SEEDS = tuple(range(200, 210))
SUP_WALK = ("grid-abs", 0.002)


def reference_table(grid_len: int) -> None:
    d = experiments.DEFAULTS
    rule, check = gauss_legendre_rule(DEGREE), gauss_legendre_rule(2 * DEGREE)
    clean, truth = experiments.franke_cap_eval(rule.points), experiments.franke_cap_eval(check.points)
    beta = weights_laplace_beltrami(DEGREE)
    grid = dict(alpha0=d["grid_anchor"], q=d["grid_ratio"], L=grid_len)

    def error(samples, alpha):
        values = evaluate_grid(regularized_fit(samples, DEGREE, alpha, beta), check.points)
        norm = lambda v: experiments._weighted_l2_norm(check, v)
        return norm(values - truth) / norm(truth)

    print("| sigma | bound | omega | steps | triggered | alpha_star | error |")
    print("|---|---|---|---|---|---|---|")
    for sigma in SIGMAS:
        noisy, delta = experiments.add_noise(clean, experiments.NoiseSpec("gaussian", sigma, DATA_SEED))
        samples = SampleSet(rule, noisy)
        for bound, omegas in OMEGAS.items():
            for omega in omegas:
                cfg = BalancingConfig(omega=omega, delta=delta, norm_bound=bound, **grid)
                res = balancing_principle(samples, DEGREE, beta, cfg)
                print(
                    f"| {sigma:g} | {bound} | {omega:g} | {len(res.trace)} | "
                    f"{'yes' if res.triggered else 'no'} | {res.alpha_star:.4g} | "
                    f"{error(samples, res.alpha_star):.4g} |"
                )
        errors = [error(samples, alpha) for alpha in cfg.grid()]
        best = int(np.argmin(errors))
        print(
            f"| {sigma:g} | oracle (i = {best + 1}) | — | — | — | {cfg.grid()[best]:.4g} | "
            f"{errors[best]:.4g} |"
        )


# ---------------------------------------------------------------------------
# held-out comparison of experiments 2 and 3


@contextlib.contextmanager
def walking(M: int, bound: str, omega: float):
    """Experiments 2 and 3 at degree M, every walk of `bound` at `omega`."""
    echoes = {n: (*experiments._ECHOES[n][:2], bound, "omega") for n in (2, 3)}
    with mock.patch.dict(experiments.DEFAULTS, degree=M, omega=omega), \
            mock.patch.dict(experiments._ECHOES, echoes):
        yield


class Oracle:
    """Least grid error of Laplace-Beltrami fits at degree M, by Parseval on
    the scoring rule gauss_legendre_rule(max(1, 2M))."""

    def __init__(self, M: int):
        d = experiments.DEFAULTS
        self.M, self.rule = M, gauss_legendre_rule(M)
        self.clean = experiments.franke_cap_eval(self.rule.points)
        scoring = gauss_legendre_rule(max(1, 2 * M))
        truth = experiments.franke_cap_eval(scoring.points)
        self.g = analyze(SampleSet(scoring, truth), M).values
        self.energy = float(scoring.weights @ truth**2)
        beta = weights_laplace_beltrami(M)
        alphas = BalancingConfig(d["grid_anchor"], d["grid_ratio"], d["grid_len"], 1.0, 0.0).grid()
        self.factors = np.array([expand_by_degree(filter_factors(M, a, beta)) for a in alphas])
        self.alphas = alphas

    def errors(self, noise_seed) -> np.ndarray:
        """Each grid value's error, on the experiments' draw `noise_seed`."""
        spec = experiments.NoiseSpec("gaussian", experiments.DEFAULTS["gaussian_sigma"], noise_seed)
        noisy, _ = experiments.add_noise(self.clean, spec)
        c = self.factors * analyze(SampleSet(self.rule, noisy), self.M).values
        sq = np.einsum("ij,ij->i", c, c) - 2.0 * (c @ self.g) + self.energy
        return np.sqrt(np.maximum(sq, 0.0) / self.energy)

    def experiment_2(self, seed: int) -> float:
        return float(self.errors([seed, 0]).min())

    def experiment_3(self, seed: int, simulations: int) -> float:
        return float(np.median([self.errors([seed, 1, sim]).min() for sim in range(simulations)]))


def run_cell(which: int, seed: int, oracle: Oracle | None = None) -> tuple:
    """A run's errors: (error,) for experiment 2, (selected, ladder) for 3."""
    if which == 2:
        res = experiments.run_experiment_2(seed)
        if oracle is not None:
            alpha = res.report.alpha_star
            i = int(np.flatnonzero(oracle.alphas == alpha)[0])
            check = oracle.errors([seed, 0])[i]
            assert abs(check - res.report.rel_error) <= 1e-9 * res.report.rel_error, (check, res)
        return (res.report.rel_error,)
    res = experiments.run_experiment_3(seed)
    per = {m: [r.rel_error for r in res.reports if r.method == m]
           for m in ("selected-kernel+bp", "laplace-beltrami+bp")}
    return tuple(float(np.median(v)) for v in per.values())


def medians(rows) -> tuple:
    return tuple(float(np.median(col)) for col in zip(*rows))


def held_out(degrees, report_seeds=REPORT_SEEDS) -> None:
    sims = experiments.DEFAULTS["simulations"]
    tune = {}  # (which, M, omega) -> median error tuple; (which, M, "oracle") too
    print(f"Tuning on seeds {TUNE_SEEDS[0]}-{TUNE_SEEDS[-1]}: median error of the `l2` walk")
    print("| experiment | M | " + " | ".join(f"omega {w:g}" for w in L2_OMEGAS) + " | oracle |")
    print("|---" * (len(L2_OMEGAS) + 3) + "|", flush=True)
    for M in degrees:
        oracle = Oracle(M)
        for which in (2, 3):
            for omega in L2_OMEGAS:
                with walking(M, "l2", omega):
                    tune[which, M, omega] = medians([run_cell(which, s) for s in TUNE_SEEDS])
            ora = [oracle.experiment_2(s) if which == 2 else oracle.experiment_3(s, sims)
                   for s in TUNE_SEEDS]
            tune[which, M, "oracle"] = float(np.median(ora))
            cells = [" / ".join(f"{v:.4f}" for v in tune[which, M, w]) for w in L2_OMEGAS]
            print(f"| {which} | {M} | " + " | ".join(cells) + f" | {tune[which, M, 'oracle']:.4f} |",
                  flush=True)
    print("(experiment 3: selected-kernel / ladder medians; the oracle is the ladder's)")

    def ratios(omega):
        return [tune[n, M, omega][0] / tune[n, M, "oracle"] for n in (2, 3) for M in degrees]

    # a too-small omega stops the walk at its first step, far from the
    # oracle, while a too-large one over-smooths gradually; so the rule is
    # the smallest worst case, not the smallest mean
    chosen = min(L2_OMEGAS, key=lambda w: max(ratios(w)))
    by_mean = min(L2_OMEGAS, key=lambda w: np.mean(ratios(w)))
    print("\nmedian error / oracle median over the cells, worst and mean: "
          + ", ".join(f"{w:g}: {max(ratios(w)):.4f}, {np.mean(ratios(w)):.4f}" for w in L2_OMEGAS)
          + f"; chosen omega {chosen:g} (by the mean: {by_mean:g})")

    walks = [("l2", w) for w in dict.fromkeys((chosen, by_mean))] + [SUP_WALK]
    print(f"\nReported on seeds {', '.join(map(str, report_seeds))}: median error")
    print("| experiment | M | " + " | ".join(f"`{b}` {w:g}" for b, w in walks) + " | oracle |")
    print("|---" * (len(walks) + 3) + "|", flush=True)
    for M in degrees:
        oracle = Oracle(M)
        for which in (2, 3):
            cells = []
            for bound, omega in walks:
                with walking(M, bound, omega):
                    rows = [run_cell(which, s, oracle) for s in report_seeds]
                cells.append(" / ".join(f"{v:.4f}" for v in medians(rows)))
            ora = [oracle.experiment_2(s) if which == 2 else oracle.experiment_3(s, sims)
                   for s in report_seeds]
            print(f"| {which} | {M} | " + " | ".join(cells) + f" | {np.median(ora):.4f} |",
                  flush=True)
    print("(experiment 3: selected-kernel / ladder medians; the oracle is the ladder's)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid-len", type=int, default=experiments.DEFAULTS["grid_len"],
                        help="grid length L of the reference table")
    parser.add_argument("--experiments", action="store_true",
                        help="the held-out comparison of experiments 2 and 3")
    parser.add_argument("--degrees", type=int, nargs="+", default=DEGREES,
                        help="degrees of --experiments")
    parser.add_argument("--report-seeds", type=int, nargs="+", default=REPORT_SEEDS,
                        help="seeds of --experiments' report")
    args = parser.parse_args()
    if args.experiments:
        held_out(args.degrees, args.report_seeds)
    else:
        reference_table(args.grid_len)


if __name__ == "__main__":
    main()
