"""The regularized least-squares fit by a dense solve of its normal
equations, a test oracle for the closed form `spherefit.regularized_fit`.

On a positive-weight rule exact to degree 2M the discrete Gram matrix is the
identity, so the package fits by damping the analysis coefficients with
1/(1 + alpha*beta_k^2).  This module assembles and solves the normal
equations instead, with no use of that identity.
"""

from __future__ import annotations

import numpy as np

from spherefit.approx import (
    HarmonicCoefficients, PenalizationWeights, SampleSet, _require_exactness, expand_by_degree,
    filter_factors,
)
from spherefit.harmonics import sph_harm_matrix

_SOLVER_DEGREE_CAP = 40


def regularized_fit_via_solver(
    samples: SampleSet,
    M: int,
    alpha: float,
    beta: PenalizationWeights,
) -> HarmonicCoefficients:
    """Solve the normal equations explicitly with a dense SPD solver.

    Assembles (G + alpha * B G B) gamma = Y W y with G = Y W Y^T and solves by
    Cholesky factorization.  This is a deliberately independent cross-check of
    the closed form in `regularized_fit`; the matrix is materialized, so the
    degree is capped at 40 to bound memory.
    """
    _require_exactness(samples.rule, M)
    filter_factors(M, alpha, beta)  # checks the weights' degree and alpha
    if M > _SOLVER_DEGREE_CAP:
        raise ValueError(f"dense solver capped at degree {_SOLVER_DEGREE_CAP}, got {M}")
    Y = sph_harm_matrix(M, samples.rule.points)
    w = samples.rule.weights
    G = (Y * w) @ Y.T
    b = expand_by_degree(beta.beta)
    A = G + alpha * (b[:, None] * G * b[None, :])
    rhs = Y @ (w * samples.values)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - signals a rule bug
        raise np.linalg.LinAlgError(
            "normal-equation matrix is not positive definite; "
            "the rule is likely not exact to the required degree"
        ) from exc
    return HarmonicCoefficients(M, np.linalg.solve(L.T, np.linalg.solve(L, rhs)))
