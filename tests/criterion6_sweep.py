"""Criterion-6 diagnostic: how the plain-LS / a-priori-best error ratio of
experiment 1 follows the decay base and the noise level.

Prints a table of median(plain-LS error) / median(a-priori-best error), the
ratio acceptance criterion 6 bounds to [1.5, 5], with one row per decay base
and one column per uniform-noise sup-norm.  Each cell shows the closed-form
prediction of `_criterion6.predicted_ratio`, then the simulated ratio of
`run_experiment_1` with 20 simulations and seed 0, on a per-run copy of
`experiments.DEFAULTS` that changes only those two constants
(`_criterion6.simulate`).  The reference setting is decay 1.2, noise 0.05.

A second table sets the a priori parameter choice of
`_criterion6.predicted_alpha` (the grid value that minimizes the closed-form
expected error, and its predicted relative error) beside the median
alpha_star and median relative error of the `apriori-bp` (balancing
principle) and `apriori-best` (best alpha on the grid) runs of the same
simulations.

Not collected by pytest (the name does not start with `test_`).  Run from the
repository root (a few seconds):

    PYTHONPATH=src python tests/criterion6_sweep.py
"""

from __future__ import annotations

from _criterion6 import median_alpha_and_error, median_ratio, predicted_alpha, predicted_ratio, simulate

DECAYS = (1.02, 1.05, 1.1, 1.2)
NOISES = (0.005, 0.05, 0.5)
SIMULATIONS = 20
SEED = 0


def main() -> None:
    results = {(d, n): simulate(d, n, SEED, SIMULATIONS) for d in DECAYS for n in NOISES}
    print("plain-LS / apriori-best error ratio, predicted / simulated")
    print("| decay \\ noise | " + " | ".join(f"{n:g}" for n in NOISES) + " |")
    print("|---" * (len(NOISES) + 1) + "|")
    for decay in DECAYS:
        cells = " | ".join(
            f"{predicted_ratio(decay, noise):.3g} / {median_ratio(results[decay, noise]):.3g}"
            for noise in NOISES
        )
        label = f"{decay:g}" + (" (reference)" if decay == 1.2 else "")
        print(f"| {label} | {cells} |")
    print()
    print("alpha / relative error: a priori choice (predicted), then medians of the simulations")
    print("| decay | noise | a priori (predicted) | apriori-bp | apriori-best |")
    print("|---|---|---|---|---|")
    for (decay, noise), result in results.items():
        cells = [predicted_alpha(decay, noise)]
        cells += [median_alpha_and_error(result, m) for m in ("apriori-bp", "apriori-best")]
        print(f"| {decay:g} | {noise:g} | " + " | ".join(f"{a:.2e} / {e:.3g}" for a, e in cells) + " |")


if __name__ == "__main__":
    main()
