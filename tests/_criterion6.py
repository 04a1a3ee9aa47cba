"""Closed-form expected error of experiment 1, a test oracle for criterion 6.

Experiment 1 draws g_kj = (k+1/2)^(-3/2) x_kj with x_kj uniform on [0, 1],
observes a_k g_kj with a_k = decay^-k at the nodes of gauss_legendre_rule(M),
adds uniform noise of sup norm delta, and recovers g from the analysis
coefficients filtered by f_k = 1/(1 + alpha beta_k^2), with the a priori
weights beta_k^2 = a_k^-1 (k+1/2)^(3/2).  The rule is exact to degree 2M, so
the analysis reproduces the signal, and the noise reaches coefficient (k, j)
with variance (delta^2 / 3) q_kj, q_kj = sum_i w_i^2 Y_kj(x_i)^2.  The
recovery error (f_k - 1) g_kj + f_k a_k^-1 n_kj therefore has the expected
square

    E ||err||^2 = sum_kj [(1 - f_k)^2 E g_kj^2 + f_k^2 a_k^-2 (delta^2 / 3) q_kj]

with E g_kj^2 = (k+1/2)^-3 / 3.  The rescaling of the noise by its realized
maximum is ignored.  The predicted plain-LS / a-priori-best ratio of
criterion 6 is sqrt(E at alpha = 0 / the minimum of E over the grid).

The grid value at that minimum is an a priori parameter choice: it needs the
model's smoothness and noise level, which experiment 1 knows and real data do
not.  `predicted_alpha` returns it with its predicted relative error
sqrt(E ||err||^2 / E ||g||^2), E ||g||^2 = sum_k (2k+1) (k+1/2)^-3 / 3.

`simulated_ratio` is the same ratio of median errors from `run_experiment_1`
(`simulate`, `median_ratio`) at other decay and noise constants, on a
per-run copy of `experiments.DEFAULTS` that changes only those two; DEFAULTS
itself is left as it is.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from spherefit import experiments, gauss_legendre_rule, sph_harm_matrix
from spherefit.approx import expand_by_degree


def expected_error_sq(M: int, decay: float, noise: float, alphas) -> np.ndarray:
    """E ||err||^2 of the a priori recovery at each alpha."""
    rule = gauss_legendre_rule(M)
    q = sph_harm_matrix(M, rule.points) ** 2 @ rule.weights**2
    k = np.arange(M + 1, dtype=float)
    a = decay**-k
    beta2 = expand_by_degree((k + 0.5) ** 1.5 / a)
    signal = expand_by_degree((k + 0.5) ** -3 / 3.0)
    noise_var = expand_by_degree(a**-2.0) * (noise**2 / 3.0) * q
    f = 1.0 / (1.0 + np.asarray(alphas, dtype=float)[:, None] * beta2)
    return ((1.0 - f) ** 2 * signal + f**2 * noise_var).sum(axis=1)


def _alpha_grid() -> np.ndarray:
    """Experiment 1's alpha grid at `experiments.DEFAULTS`."""
    d = experiments.DEFAULTS
    return d["grid_anchor"] * d["grid_ratio"] ** np.arange(1, d["grid_len"] + 1)


def predicted_ratio(decay: float, noise: float) -> float:
    """sqrt(E ||err||^2 at alpha = 0 / its minimum over experiment 1's alpha
    grid), at the degree and grid of `experiments.DEFAULTS`."""
    grid = np.concatenate([[0.0], _alpha_grid()])
    plain, *on_grid = expected_error_sq(experiments.DEFAULTS["degree"], decay, noise, grid)
    return float(np.sqrt(plain / min(on_grid)))


def predicted_alpha(decay: float, noise: float) -> tuple[float, float]:
    """The a priori choice: the value of experiment 1's alpha grid that
    minimizes E ||err||^2, and its predicted relative error."""
    M, grid = experiments.DEFAULTS["degree"], _alpha_grid()
    expected = expected_error_sq(M, decay, noise, grid)
    k = np.arange(M + 1)
    signal = np.sum((2 * k + 1) * (k + 0.5) ** -3 / 3.0)
    best = int(np.argmin(expected))
    return float(grid[best]), float(np.sqrt(expected[best] / signal))


def simulate(decay: float, noise: float, seed: int, simulations: int):
    """`run_experiment_1` at the given decay base and noise sup norm."""
    defaults = {**experiments.DEFAULTS, "sgg_decay": decay, "uniform_noise": noise}
    with mock.patch.object(experiments, "DEFAULTS", defaults):
        return experiments.run_experiment_1(seed=seed, simulations=simulations)


def median_alpha_and_error(result, method: str) -> tuple[float, float]:
    """Median alpha_star and median relative error of one method's runs."""
    reports = [r for r in result.reports if r.method == method]
    return float(np.median([r.alpha_star for r in reports])), float(np.median([r.rel_error for r in reports]))


def median_ratio(result) -> float:
    """median(plain-LS error) / median(a-priori-best error) of one run."""
    plain, best = (median_alpha_and_error(result, m)[1] for m in ("plain-ls", "apriori-best"))
    return plain / best


def simulated_ratio(decay: float, noise: float, seed: int, simulations: int) -> float:
    """`median_ratio` of experiment 1 at the given decay base and noise."""
    return median_ratio(simulate(decay, noise, seed, simulations))
