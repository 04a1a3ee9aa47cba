"""Criterion-6 diagnostic: how the plain-LS / a-priori-best error ratio of
experiment 1 follows the decay base and the noise level.

Prints a table of median(plain-LS error) / median(a-priori-best error), the
ratio acceptance criterion 6 bounds to [1.5, 5], with one row per decay base
and one column per uniform-noise sup-norm.  Each cell runs
`run_experiment_1` with 20 simulations and seed 0 on a per-run copy of
`experiments.DEFAULTS` that changes only those two constants; DEFAULTS itself
is left as it is.  The reference setting is decay 1.2, noise 0.05.

Not collected by pytest (the name does not start with `test_`).  Run from the
repository root (a few seconds):

    PYTHONPATH=src python tests/criterion6_sweep.py
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from spherefit import experiments

DECAYS = (1.02, 1.05, 1.1, 1.2)
NOISES = (0.005, 0.05, 0.5)
SIMULATIONS = 20
SEED = 0


def median_error(result, method: str) -> float:
    return float(np.median([e for _, e in result.curves[method]]))


def ratio(decay: float, noise: float) -> float:
    """Plain-LS / a-priori-best median error ratio at this decay base and noise."""
    defaults = {**experiments.DEFAULTS, "sgg_decay": decay, "uniform_noise": noise}
    with mock.patch.object(experiments, "DEFAULTS", defaults):
        result = experiments.run_experiment_1(seed=SEED, simulations=SIMULATIONS)
    return median_error(result, "plain-ls") / median_error(result, "apriori-best")


def main() -> None:
    print("| decay \\ noise | " + " | ".join(f"{n:g}" for n in NOISES) + " |")
    print("|---" * (len(NOISES) + 1) + "|")
    for decay in DECAYS:
        cells = " | ".join(f"{ratio(decay, noise):.2f}" for noise in NOISES)
        label = f"{decay:g}" + (" (reference)" if decay == 1.2 else "")
        print(f"| {label} | {cells} |")


if __name__ == "__main__":
    main()
