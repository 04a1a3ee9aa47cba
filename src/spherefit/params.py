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
    `alpha_star` is a Python float.

    The two fits differ by the degree filter f(alpha)_k = 1/(1 + alpha beta_k^2)
    alone, so a step's difference comes from the kept analysis coefficients
    gamma weighted by d = f(alpha_z) - f(alpha_{z+1}); no fit is synthesized.
    In the sup norm it is the probe maximum `_rings.degree_weighted_sup`, and
    the threshold's norm is the `cfg.norm_bound` oracle at f = f(alpha_{z+1});
    each step is a probe pass, taken only until the walk stops.  In L2
    (``l2``) both are closed forms, O(M) per step with no probe: the
    difference is sqrt(sum_k d_k^2 E_k) by Parseval, with the per-degree
    energies E_k = sum_j gamma_kj^2, and the norm is the root-mean-square L2
    norm of the fit of unit white noise at the nodes, sqrt(sum_i w_i^2 /
    (4 pi)) sqrt(sum_k (2k+1) f_k^2), exact on any rule exact to degree 2M
    by the addition theorem.  Its steps are one row of `_l2_walks`, which
    `kernel_select` and experiment 3 run for many rows at once; an energy
    beyond the float range is refused (ValueError).  `plan`, an
    `approx._Plan`, lends the probe rings' table and the oracle.
    """
    filter_factors(M, 0.0, beta)  # checks the weights' degree
    alphas = cfg.grid()
    plan = _plan_for(plan, samples.rule, M)
    gamma = analyze(samples, M, plan=plan).values
    omega_delta = cfg.omega * cfg.delta
    if cfg.norm_bound == "l2":
        [(_, (differences,), (thresholds,))] = _l2_walks(
            samples.rule.weights, gamma, beta.beta, alphas, omega_delta
        )
        steps = zip(alphas[-2::-1], differences, thresholds)
    else:
        step = _rings.degree_weighted_sup(plan.probe_table, gamma)
        norm = plan.norm(cfg.norm_bound)
        with np.errstate(over="ignore"):  # f = 0, the exact limit, where alpha*beta_k^2 overflows
            factors = 1.0 / (1.0 + np.multiply.outer(alphas, beta.beta**2))
        steps = (
            (alphas[z], step(factors[z] - factors[z + 1]), omega_delta * norm(factors[z + 1]))
            for z in range(cfg.L - 2, -1, -1)
        )

    trace = []
    for alpha, difference, threshold in steps:
        trace.append(TraceStep(float(alpha), float(difference), float(threshold),
                               bool(difference > threshold)))
        if trace[-1].triggered:
            break
    triggered = trace[-1].triggered
    return BalancingResult(trace[-1].alpha if triggered else float(alphas[0]), triggered,
                           tuple(trace))


# entries of each (rows, grid, degrees) array of one block of `_l2_walks`,
# 256 KB: a search over thousands of candidates stays within a few MB, as
# `approx._BLOCK_PAIRS` bounds the kernel sums
_WALK_BLOCK = 32_768


def _l2_walks(weights, gamma, beta, alphas, omega_delta):
    """The ``l2`` walk of `balancing_principle` for many rows at once, on
    the rule of node weights `weights` and the decreasing grid `alphas`.

    Row r walks the analysis coefficients gamma[r] with the penalization
    weights beta[r] and the threshold factor omega_delta[r] = omega * delta;
    an argument with one row (or a 1-D one) serves every row.  Yields, per
    block of rows, (stops, differences, thresholds): differences[r, s] and
    thresholds[r, s] belong to step s, which compares alpha_z with
    alpha_{z+1} at z = L - 2 - s, and stops[r] indexes the row's alpha_star
    in `alphas`: the first step from the small end whose difference exceeds
    its threshold, else 0.  Each row's values are those of the row walked
    alone, bit for bit.  ValueError where an energy sum_j gamma_kj^2 is not
    finite.
    """
    gamma, beta = np.atleast_2d(gamma, beta)
    omega_delta = np.atleast_1d(omega_delta)
    M = beta.shape[1] - 1
    with np.errstate(over="ignore"):  # inf, refused below, or f = 0, the exact limit
        energies = np.add.reduceat(gamma * gamma, np.arange(M + 1) ** 2, axis=1)
        beta_sq = beta**2
    if not np.isfinite(energies).all():
        raise ValueError("the l2 walk needs finite per-degree energies sum_j gamma_kj^2; "
                         "the samples' analysis exceeds the float range")
    noise = np.sqrt(weights @ weights / FOUR_PI)
    odd = 2 * np.arange(M + 1) + 1.0
    ascending = alphas[::-1, None]
    rows = max(len(energies), len(beta_sq), len(omega_delta))
    chunk = max(1, _WALK_BLOCK // (alphas.size * (M + 1)))
    for lo in range(0, rows, chunk):
        block = lambda a: a if len(a) == 1 else a[lo : lo + chunk]
        with np.errstate(over="ignore"):
            f = 1.0 / (1.0 + ascending * block(beta_sq)[:, None, :])
        d = f[:, 1:] - f[:, :-1]
        d *= d  # squared in place, as f below: three arrays of a block at a time
        differences = np.sqrt((d * block(energies)[:, None, :]).sum(axis=2))
        f *= f
        norms = noise * np.sqrt((odd * f[:, :-1]).sum(axis=2))
        thresholds = block(omega_delta)[:, None] * norms
        hit = differences > thresholds
        stops = np.where(hit.any(axis=1), alphas.size - 2 - hit.argmax(axis=1), 0)
        yield stops, differences, thresholds


def _l2_alphas(weights, gamma, beta, alphas, omega_delta) -> list:
    """Each row's alpha_star of `_l2_walks`, as Python floats."""
    stops = [stops for stops, _, _ in _l2_walks(weights, gamma, beta, alphas, omega_delta)]
    return alphas[np.concatenate(stops)].tolist()


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
    Each run draws its candidates, walks them, then keeps the first of its
    smallest objectives; a NaN never wins, and a run with no finite objective
    is refused (ValueError).  The reported optimum is the coordinate-wise mean
    of the per-run winners, scored once more at the end.  With the ``l2``
    bound a run's walks are one batch (`_l2_walks`), each equal to its
    `balancing_principle`; a sup-norm walk is one `balancing_principle` call
    per candidate.  Every walk and fit shares one `approx._Plan`, `plan` when
    given.

    The weights grow with both rates, so a box whose upper corner gives
    weights beyond the float range is refused (ValueError) before the first
    walk.  Where only beta_k^2 overflows, the fits take its exact limit
    (`filter_factors`, `rkhs_norm_sq`).
    """
    (l1lo, l1hi), (l2lo, l2hi) = search.box
    weights_from_kernel_params(M, KernelParams(l1hi, l2hi))
    plan = _plan_for(plan, samples.rule, M)

    def objectives(candidates) -> list:
        betas = [weights_from_kernel_params(M, p) for p in candidates]
        if bp.norm_bound == "l2":
            gamma = analyze(samples, M, plan=plan).values
            alphas = _l2_alphas(samples.rule.weights, gamma, np.array([b.beta for b in betas]),
                                bp.grid(), bp.omega * bp.delta)
        else:
            alphas = [balancing_principle(samples, M, b, bp, plan=plan).alpha_star for b in betas]
        return [
            penalized_functional(samples, regularized_fit(samples, M, a, b, plan=plan), a, b)
            for a, b in zip(alphas, betas)
        ]

    per_run, values = [], []
    for run in range(search.runs):
        rng = np.random.default_rng([search.seed, run])
        # Generator.uniform(a, a) is exactly a, so a collapsed axis draws its endpoint
        candidates = [KernelParams(float(rng.uniform(l1lo, l1hi)), float(rng.uniform(l2lo, l2hi)))
                      for _ in range(search.steps_per_run)]
        best_p, best_v = None, np.inf
        for p, v in zip(candidates, objectives(candidates)):
            if v < best_v:
                best_p, best_v = p, v
        if best_p is None:
            raise ValueError(f"run {run} of the kernel search has no candidate with a finite "
                             "objective")
        per_run.append(best_p)
        values.append(best_v)

    def mean_of(vals):
        # exact for a collapsed box, where every run returns the same point
        return vals[0] if all(v == vals[0] for v in vals) else float(np.mean(vals))

    best = KernelParams(
        mean_of([p.lambda1 for p in per_run]),
        mean_of([p.lambda2 for p in per_run]),
    )
    [best_objective] = objectives([best])
    return KernelSelectResult(
        best=best,
        per_run=tuple(per_run),
        objective_values=tuple(values),
        best_objective=best_objective,
        seed=search.seed,
    )
