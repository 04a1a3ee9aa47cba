"""Parameter choice for the regularized fit: penalization-weight families,
the balancing principle on a geometric alpha grid, and an a posteriori
kernel search over a two-parameter weight family by repeated Random Search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _rings
from ._files import write_csv
from .approx import (
    NORM_BOUND_KINDS,
    PenalizationWeights,
    SampleSet,
    _plan_for,
    analyze,
    filter_factors,
    penalized_functional,
    regularized_fit,
)
from .harmonics import FOUR_PI, _whole_number


@dataclass(frozen=True)
class BalancingConfig:
    """Geometric grid and thresholding constants for the balancing principle.

    The candidate grid is alpha_i = alpha0 * q**i for i = 1..L (strictly
    decreasing).  `omega` scales the noise-propagation threshold, `delta` is
    the assumed sup-norm of the data noise.  `norm_bound` picks the norm the
    walk balances and how the noise propagation is computed:

      * ``grid``     -- the sup norm over the walk's probe layout, which the
                        rule and the fit degree fix (`approx._Plan`); the
                        operator norm is the probe maximum of the exact
                        kernel sum (default);
      * ``grid-abs`` -- the same sup norm, with the operator norm's absolute
                        values pulled inside the degree sum, an upper
                        envelope that is much cheaper when many fits share
                        one rule;
      * ``crude``    -- the same sup norm, with the analytic operator-norm
                        bound sum_k (2k+1)/(1+alpha*beta_k^2);
      * ``l2``       -- the L2 norm on the sphere, by Parseval, with no probe
                        layout; the noise propagation is the root-mean-square
                        L2 norm of the fit of unit white noise at the nodes,
                        sqrt(sum_i w_i^2/(4 pi)) sqrt(sum_k (2k+1) f_k^2).
    """

    alpha0: float
    q: float
    L: int
    omega: float
    delta: float
    norm_bound: str = "grid"

    def __post_init__(self):
        object.__setattr__(self, "L", _whole_number(self.L, "grid length"))
        if not (self.alpha0 > 0.0 and np.isfinite(self.alpha0)):
            raise ValueError(f"grid anchor must be positive, got {self.alpha0}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"grid ratio must lie in (0, 1), got {self.q}")
        if self.L < 2:
            raise ValueError(f"grid length must be at least 2, got {self.L}")
        if not (self.omega > 0.0 and np.isfinite(self.omega)):
            raise ValueError(f"design parameter omega must be positive, got {self.omega}")
        if not (self.delta >= 0.0 and np.isfinite(self.delta)):
            raise ValueError(f"noise level must be non-negative, got {self.delta}")
        if self.norm_bound not in NORM_BOUND_KINDS:
            raise ValueError(
                f"unknown norm bound {self.norm_bound!r}; expected one of {NORM_BOUND_KINDS}"
            )

    def grid(self) -> np.ndarray:
        """Candidate values alpha_1 > alpha_2 > ... > alpha_L."""
        return self.alpha0 * self.q ** np.arange(1, self.L + 1, dtype=float)


@dataclass(frozen=True)
class KernelParams:
    """Rates of the weight family beta_k^2 = exp(l1*(k+1)) * (k+1)^l2."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (self.lambda1 >= 0.0 and np.isfinite(self.lambda1)):
            raise ValueError(f"lambda1 must be non-negative, got {self.lambda1}")
        if not (self.lambda2 >= 0.0 and np.isfinite(self.lambda2)):
            raise ValueError(f"lambda2 must be non-negative, got {self.lambda2}")


@dataclass(frozen=True)
class RandomSearchConfig:
    """Budget and box for the repeated Random Search over (lambda1, lambda2)."""

    runs: int
    steps_per_run: int
    box: tuple = ((0.0, 5.0), (0.0, 5.0))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "runs", _whole_number(self.runs, "runs"))
        object.__setattr__(
            self, "steps_per_run", _whole_number(self.steps_per_run, "steps_per_run")
        )
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed"))
        if self.runs < 1 or self.steps_per_run < 1:
            raise ValueError("runs and steps_per_run must both be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        (l1lo, l1hi), (l2lo, l2hi) = self.box
        if not np.all(np.isfinite([l1lo, l1hi, l2lo, l2hi])):
            raise ValueError(f"search box bounds must be finite, got {self.box}")
        if not (0.0 <= l1lo <= l1hi and 0.0 <= l2lo <= l2hi):
            raise ValueError(f"search box must satisfy 0 <= lo <= hi per axis, got {self.box}")


class TraceStep(NamedTuple):
    alpha: float
    difference: float
    threshold: float
    triggered: bool


@dataclass(frozen=True)
class BalancingResult:
    alpha_star: float
    triggered: bool
    trace: tuple

    @property
    def stop(self) -> str:
        """Where the walk stopped: ``first-step`` when its first comparison
        met the threshold, ``interior`` when a later one did, ``grid-end``
        when none did and alpha_star is the grid's largest value."""
        if not self.triggered:
            return "grid-end"
        return "first-step" if len(self.trace) == 1 else "interior"


@dataclass(frozen=True)
class KernelSelectResult:
    best: KernelParams
    per_run: tuple
    objective_values: tuple
    best_objective: float
    seed: int


# ---------------------------------------------------------------------------
# penalization weight families


def weights_ones(M: int) -> PenalizationWeights:
    """The default flat weights beta_k = 1."""
    return PenalizationWeights(M, np.ones(M + 1))


def weights_sgg_apriori(M: int, a) -> PenalizationWeights:
    """A priori weights beta_k = a_k^{-1/2} (k+1/2)^{3/4}.

    `a` holds the positive per-degree damping factors of the observation
    operator; the weight type refuses factors that make beta decrease.
    """
    a = np.asarray(a, dtype=float).ravel()
    if a.size != M + 1:
        raise ValueError(f"need {M + 1} damping factors for degree {M}, got {a.size}")
    if np.any(~np.isfinite(a)) or np.any(a <= 0.0):
        raise ValueError("damping factors must be positive and finite")
    k = np.arange(M + 1, dtype=float)
    return PenalizationWeights(M, a**-0.5 * (k + 0.5) ** 0.75)


def weights_laplace_beltrami(M: int) -> PenalizationWeights:
    """Weights beta_k = k(k+1), the surface-Laplacian eigenvalue ladder."""
    k = np.arange(M + 1, dtype=float)
    return PenalizationWeights(M, k * (k + 1.0))


def weights_from_kernel_params(M: int, p: KernelParams) -> PenalizationWeights:
    """Weights beta_k = exp(lambda1*(k+1)/2) * (k+1)^(lambda2/2).  ValueError
    where beta_M exceeds the float range (at (5, 5) from degree 278)."""
    k = np.arange(M + 1, dtype=float)
    with np.errstate(over="ignore"):
        beta = np.exp(p.lambda1 * (k + 1.0) / 2.0) * (k + 1.0) ** (p.lambda2 / 2.0)
    if not np.isfinite(beta).all():
        raise ValueError(f"kernel weights of (lambda1, lambda2) = ({p.lambda1!r}, {p.lambda2!r}) "
                         f"overflow from degree {np.argmin(np.isfinite(beta))} (fit degree {M})")
    return PenalizationWeights(M, beta)


# ---------------------------------------------------------------------------
# balancing principle


def balancing_principle(
    samples: SampleSet, M: int, beta: PenalizationWeights, cfg: BalancingConfig, *, plan=None
) -> BalancingResult:
    """Pick the regularization parameter by balancing successive differences.

    Walks the grid from the smallest candidate upward and stops at the first
    alpha_z whose fit differs from the previous one by more than
    omega * delta * ||T_{alpha_{z+1}}|| in the norm `cfg.norm_bound` names.
    Every comparison is recorded in the trace; if the threshold is never
    exceeded the largest grid value is returned with `triggered=False`.

    The two fits differ by the degree filter f(alpha)_k = 1/(1 + alpha beta_k^2)
    alone, so a step's difference comes from the kept analysis coefficients
    gamma weighted by d = f(alpha_z) - f(alpha_{z+1}); no fit is synthesized.
    In the sup norm it is the probe maximum `_rings.degree_weighted_sup`, and
    the threshold's norm is the `cfg.norm_bound` oracle at f = f(alpha_{z+1}).
    In L2 (``l2``) both are closed forms, O(M) per step with no probe: the
    difference is sqrt(sum_k d_k^2 E_k) by Parseval, with the per-degree
    energies E_k = sum_j gamma_kj^2, and the norm is the root-mean-square L2
    norm of the fit of unit white noise at the nodes, sqrt(sum_i w_i^2 /
    (4 pi)) sqrt(sum_k (2k+1) f_k^2), exact on any rule exact to degree 2M
    by the addition theorem.  `plan`, an `approx._Plan`, lends the probe
    rings' table and the oracle.
    """
    filter_factors(M, 0.0, beta)  # checks the weights' degree
    alphas = cfg.grid()
    plan = _plan_for(plan, samples.rule, M)
    gamma = analyze(samples, M, plan=plan).values
    if cfg.norm_bound == "l2":
        energies = np.add.reduceat(gamma * gamma, np.arange(M + 1) ** 2)
        odd = 2 * np.arange(M + 1) + 1.0
        w = samples.rule.weights
        noise = np.sqrt(w @ w / FOUR_PI)
        step = lambda d: float(np.sqrt((d * d) @ energies))
        norm = lambda f: float(noise * np.sqrt(odd @ (f * f)))
    else:
        step = _rings.degree_weighted_sup(plan.probe_table, gamma)
        norm = plan.norm(cfg.norm_bound)
    with np.errstate(over="ignore"):  # f = 0, the exact limit, where alpha*beta_k^2 overflows
        factors = 1.0 / (1.0 + np.multiply.outer(alphas, beta.beta**2))
    omega_delta = cfg.omega * cfg.delta

    trace = []
    alpha_star, triggered = alphas[0], False
    for z in range(cfg.L - 2, -1, -1):
        difference = step(factors[z] - factors[z + 1])
        threshold = omega_delta * norm(factors[z + 1])
        hit = difference > threshold
        trace.append(TraceStep(float(alphas[z]), difference, float(threshold), hit))
        if hit:
            alpha_star, triggered = float(alphas[z]), True
            break
    return BalancingResult(alpha_star, triggered, tuple(trace))


def _balanced_fit(samples: SampleSet, M: int, beta: PenalizationWeights, cfg, plan):
    """(`BalancingResult`, fit): the walk, then the fit at its alpha, both on `plan`."""
    bres = balancing_principle(samples, M, beta, cfg, plan=plan)
    return bres, regularized_fit(samples, M, bres.alpha_star, beta, plan=plan)


def save_bp_trace(result: BalancingResult, path) -> None:
    """Write the comparison trace as CSV `alpha,difference,threshold,triggered`."""
    rows = [(*step[:3], "true" if step.triggered else "false") for step in result.trace]
    write_csv(path, "alpha,difference,threshold,triggered", zip(*rows))


# ---------------------------------------------------------------------------
# a posteriori kernel selection


def kernel_select(
    samples: SampleSet, M: int, search: RandomSearchConfig, bp: BalancingConfig, *, plan=None
) -> KernelSelectResult:
    """Select weight-family rates by repeated Random Search.

    A candidate (lambda1, lambda2) is scored by the penalized functional of
    its own balanced fit: weights from the candidate, alpha from the
    balancing principle, functional evaluated at the resulting coefficients.
    Each run keeps the best of its uniform draws; the reported optimum is the
    coordinate-wise mean of the per-run winners, scored once more at the end.
    Every walk and fit shares one `approx._Plan`, `plan` when given.

    The weights grow with both rates, so a box whose upper corner gives
    weights beyond the float range is refused (ValueError) before the first
    walk.  Where only beta_k^2 overflows, the fits take its exact limit
    (`filter_factors`, `rkhs_norm_sq`).
    """
    (l1lo, l1hi), (l2lo, l2hi) = search.box
    weights_from_kernel_params(M, KernelParams(l1hi, l2hi))
    plan = _plan_for(plan, samples.rule, M)

    def objective(p: KernelParams) -> float:
        beta = weights_from_kernel_params(M, p)
        bres, gamma = _balanced_fit(samples, M, beta, bp, plan)
        return penalized_functional(samples, gamma, bres.alpha_star, beta)

    per_run, values = [], []
    for run in range(search.runs):
        rng = np.random.default_rng([search.seed, run])
        best_p, best_v = None, np.inf
        for _ in range(search.steps_per_run):
            # Generator.uniform(a, a) is exactly a, so a collapsed axis draws its endpoint
            p = KernelParams(float(rng.uniform(l1lo, l1hi)), float(rng.uniform(l2lo, l2hi)))
            v = objective(p)
            if v < best_v:
                best_p, best_v = p, v
        per_run.append(best_p)
        values.append(best_v)

    def mean_of(vals):
        # exact for a collapsed box, where every run returns the same point
        return vals[0] if all(v == vals[0] for v in vals) else float(np.mean(vals))

    best = KernelParams(
        mean_of([p.lambda1 for p in per_run]),
        mean_of([p.lambda2 for p in per_run]),
    )
    return KernelSelectResult(
        best=best,
        per_run=tuple(per_run),
        objective_values=tuple(values),
        best_objective=objective(best),
        seed=search.seed,
    )
