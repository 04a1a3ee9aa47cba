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

`simulated_ratio` is the same ratio of median errors from `run_experiment_1`
at other decay and noise constants, on a per-run copy of
`experiments.DEFAULTS` that changes only those two; DEFAULTS itself is left
as it is.
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


def predicted_ratio(decay: float, noise: float) -> float:
    """sqrt(E ||err||^2 at alpha = 0 / its minimum over experiment 1's alpha
    grid), at the degree and grid of `experiments.DEFAULTS`."""
    d = experiments.DEFAULTS
    grid = d["grid_anchor"] * d["grid_ratio"] ** np.arange(1, d["grid_len"] + 1)
    plain, *on_grid = expected_error_sq(d["degree"], decay, noise, np.concatenate([[0.0], grid]))
    return float(np.sqrt(plain / min(on_grid)))


def simulated_ratio(decay: float, noise: float, seed: int, simulations: int) -> float:
    """median(plain-LS error) / median(a-priori-best error) of experiment 1."""
    defaults = {**experiments.DEFAULTS, "sgg_decay": decay, "uniform_noise": noise}
    with mock.patch.object(experiments, "DEFAULTS", defaults):
        result = experiments.run_experiment_1(seed=seed, simulations=simulations)
    plain, best = (np.median([e for _, e in result.curves[m]]) for m in ("plain-ls", "apriori-best"))
    return float(plain / best)
