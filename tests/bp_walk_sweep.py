"""Balancing-walk diagnostic: where the walk stops for each operator-norm
bound, design parameter omega and noise level, against the best alpha on
the same grid.

The data are the reference fit's: the Franke-plus-cap function at the nodes
of gauss_legendre_rule(30), Gaussian noise of standard deviation sigma
(seed 1), delta the realized sup norm of that noise, Laplace-Beltrami
weights, and the grid alpha_i = 8 * 0.8^i, i = 1..L, of `experiments.DEFAULTS`
(L = 60 unless `--grid-len` says otherwise), on the walk's probe rings
(resolution 60).  For each bound (`grid`, `grid-abs`, `crude`), omega (0.002,
0.02, 0.2) and sigma (0.005, 0.05, 0.5) one row gives the steps the walk
took, whether a threshold was met, alpha_star, and the relative L2 error of
the fit at alpha_star by cubature on gauss_legendre_rule(60).  Per sigma, one oracle row gives the
grid value of least error, its index i and that error.

Not collected by pytest (the name does not start with `test_`).  Run from the
repository root (a few seconds):

    PYTHONPATH=src python tests/bp_walk_sweep.py [--grid-len 90]
"""

from __future__ import annotations

import argparse

import numpy as np

from spherefit import (
    BalancingConfig,
    SampleSet,
    balancing_principle,
    evaluate_grid,
    experiments,
    gauss_legendre_rule,
    regularized_fit,
    weights_laplace_beltrami,
)

DEGREE = 30
DATA_SEED = 1
BOUNDS = ("grid", "grid-abs", "crude")
OMEGAS = (0.002, 0.02, 0.2)
SIGMAS = (0.005, 0.05, 0.5)


def main() -> None:
    d = experiments.DEFAULTS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid-len", type=int, default=d["grid_len"], help="grid length L")
    args = parser.parse_args()
    rule, check = gauss_legendre_rule(DEGREE), gauss_legendre_rule(2 * DEGREE)
    clean, truth = experiments.franke_cap_eval(rule.points), experiments.franke_cap_eval(check.points)
    beta = weights_laplace_beltrami(DEGREE)
    grid = dict(alpha0=d["grid_anchor"], q=d["grid_ratio"], L=args.grid_len)

    def error(samples, alpha):
        values = evaluate_grid(regularized_fit(samples, DEGREE, alpha, beta), check.points)
        return experiments._weighted_l2_rel_error(check, values, truth)

    print("| sigma | bound | omega | steps | triggered | alpha_star | error |")
    print("|---|---|---|---|---|---|---|")
    for sigma in SIGMAS:
        noisy, delta = experiments.add_noise(clean, experiments.NoiseSpec("gaussian", sigma, DATA_SEED))
        samples = SampleSet(rule, noisy)
        for bound in BOUNDS:
            for omega in OMEGAS:
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


if __name__ == "__main__":
    main()
