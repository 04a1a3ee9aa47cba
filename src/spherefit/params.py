"""Parameter choice strategies for the regularized fit.

Three penalization-weight families (a flat default, the a priori recipe for
exponentially damped data, and a Laplace-Beltrami ladder), the balancing
principle for picking the regularization parameter from a geometric grid,
and an a posteriori kernel search over a two-parameter weight family driven
by repeated Random Search.
"""

from __future__ import annotations

import hashlib
import numbers
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .approx import (
    PenalizationWeights,
    SampleSet,
    _max_weighted_abs_kernel,
    _synthesizer,
    analyze,
    crude_norm_upper,
    default_probe_resolution,
    expand_by_degree,
    filter_factors,
    penalized_functional,
    regularized_fit,
    weighted_abs_legendre_sums,
)
from .cubature import probe_grid
from .harmonics import FOUR_PI

NORM_BOUND_KINDS = ("grid", "grid-abs", "crude")


def _whole_number(value, name: str) -> int:
    """`value` as an int; ValueError unless it is a whole number (not a bool)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class BalancingConfig:
    """Geometric grid and thresholding constants for the balancing principle.

    The candidate grid is alpha_i = alpha0 * q**i for i = 1..L (strictly
    decreasing).  `omega` scales the noise-propagation threshold, `delta` is
    the assumed sup-norm of the data noise.  `probe_resolution` selects the
    grid used for sup norms (twice the fit degree when omitted), and
    `norm_bound` picks how the operator norm in the threshold is computed:

      * ``grid``     -- probe-grid maximum of the exact kernel sum (default);
      * ``grid-abs`` -- probe-grid maximum with the absolute values pulled
                        inside the degree sum, an upper envelope that is much
                        cheaper when many fits share one rule;
      * ``crude``    -- the analytic bound sum_k (2k+1)/(1+alpha*beta_k^2).
    """

    alpha0: float
    q: float
    L: int
    omega: float
    delta: float
    probe_resolution: int | None = None
    norm_bound: str = "grid"

    def __post_init__(self):
        object.__setattr__(self, "L", _whole_number(self.L, "grid length"))
        if self.probe_resolution is not None:
            object.__setattr__(
                self,
                "probe_resolution",
                _whole_number(self.probe_resolution, "probe resolution"),
            )
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
        if self.probe_resolution is not None and self.probe_resolution < 1:
            raise ValueError("probe resolution must be >= 1")
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
        if self.runs < 1 or self.steps_per_run < 1:
            raise ValueError("runs and steps_per_run must both be at least 1")
        (l1lo, l1hi), (l2lo, l2hi) = self.box
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
    grid: np.ndarray
    probe_resolution: int
    norm_bound: str


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

    `a` holds the per-degree damping factors of the observation operator
    (strictly positive, typically decaying); decaying factors make the
    result non-decreasing, which the weight type enforces.
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
    """Weights beta_k = exp(lambda1*(k+1)/2) * (k+1)^(lambda2/2)."""
    k = np.arange(M + 1, dtype=float)
    return PenalizationWeights(M, np.exp(p.lambda1 * (k + 1.0) / 2.0) * (k + 1.0) ** (p.lambda2 / 2.0))


# ---------------------------------------------------------------------------
# balancing principle


class _AbsSumsCache:
    """Per-(rule, probes, degree) cache of the |P_k| weight-sum tables."""

    def __init__(self, capacity: int = 4):
        self._store: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._capacity = capacity

    def get(self, rule, M: int, probes: np.ndarray) -> np.ndarray:
        key = (
            M,
            hashlib.blake2b(rule.points.tobytes(), digest_size=16).digest(),
            hashlib.blake2b(probes.tobytes(), digest_size=16).digest(),
        )
        hit = self._store.get(key)
        if hit is not None:
            self._store.move_to_end(key)
            return hit
        table = weighted_abs_legendre_sums(rule, M, probes)
        table.setflags(write=False)
        self._store[key] = table
        if len(self._store) > self._capacity:
            self._store.popitem(last=False)
        return table


_abs_sums_cache = _AbsSumsCache()


class _NormOracle:
    """Operator-norm values along the grid under the configured bound."""

    def __init__(self, samples: SampleSet, M: int, beta: PenalizationWeights, cfg, probes):
        self._M = M
        self._beta = beta
        self._kind = cfg.norm_bound
        self._alphas = cfg.grid()
        self._cache: dict[int, float] = {}
        self._rule = samples.rule
        self._probes = probes
        if self._kind == "grid-abs":
            self._table = _abs_sums_cache.get(samples.rule, M, probes)

    def _coef_column(self, i: int) -> np.ndarray:
        k = np.arange(self._M + 1)
        return (2 * k + 1) / FOUR_PI * filter_factors(self._M, self._alphas[i], self._beta)

    def value(self, i: int) -> float:
        if i in self._cache:
            return self._cache[i]
        if self._kind == "crude":
            v = crude_norm_upper(self._M, self._alphas[i], self._beta)
        elif self._kind == "grid-abs":
            v = float((self._table @ self._coef_column(i)).max())
        else:
            # batch a few grid values per pass; the walk moves to smaller i
            idxs = [j for j in range(i, max(i - 6, -1), -1) if j not in self._cache]
            cols = np.stack([self._coef_column(j) for j in idxs], axis=1)
            vals = _max_weighted_abs_kernel(self._rule, self._probes, cols)
            for j, vj in zip(idxs, vals):
                self._cache[j] = float(vj)
            return self._cache[i]
        self._cache[i] = v
        return v


def balancing_principle(
    samples: SampleSet, M: int, beta: PenalizationWeights, cfg: BalancingConfig
) -> BalancingResult:
    """Pick the regularization parameter by balancing successive differences.

    Walks the grid from the smallest candidate upward and stops at the first
    alpha_z whose fit differs from the previous one by more than
    omega * delta * ||T_{alpha_{z+1}}|| in the probe-grid sup norm.  Every
    comparison is recorded in the trace; if the threshold is never exceeded
    the largest grid value is returned with `triggered=False`.
    """
    alphas = cfg.grid()
    resolution = cfg.probe_resolution or default_probe_resolution(M)
    probes = probe_grid(resolution)
    synthesize = _synthesizer(M, probes)
    gamma_hat = analyze(samples, M).values
    b2 = expand_by_degree(beta.beta**2)
    norms = _NormOracle(samples, M, beta, cfg, probes)
    omega_delta = cfg.omega * cfg.delta

    def fit_values(i: int) -> np.ndarray:
        return synthesize(gamma_hat / (1.0 + alphas[i] * b2))

    trace = []
    prev = fit_values(cfg.L - 1)
    alpha_star, triggered = alphas[0], False
    for z in range(cfg.L - 2, -1, -1):
        cur = fit_values(z)
        difference = float(np.abs(cur - prev).max())
        threshold = omega_delta * norms.value(z + 1)
        hit = difference > threshold
        trace.append(TraceStep(float(alphas[z]), difference, float(threshold), hit))
        if hit:
            alpha_star, triggered = float(alphas[z]), True
            break
        prev = cur
    return BalancingResult(
        alpha_star=alpha_star,
        triggered=triggered,
        trace=tuple(trace),
        grid=alphas,
        probe_resolution=resolution,
        norm_bound=cfg.norm_bound,
    )


def save_bp_trace(result: BalancingResult, path) -> None:
    """Write the comparison trace as CSV `alpha,difference,threshold,triggered`."""
    with open(path, "w", newline="") as fh:
        fh.write("alpha,difference,threshold,triggered\n")
        for step in result.trace:
            fh.write(
                f"{step.alpha:.17g},{step.difference:.17g},{step.threshold:.17g},"
                f"{'true' if step.triggered else 'false'}\n"
            )


# ---------------------------------------------------------------------------
# a posteriori kernel selection


def kernel_select(
    samples: SampleSet, M: int, search: RandomSearchConfig, bp: BalancingConfig
) -> KernelSelectResult:
    """Select weight-family rates by repeated Random Search.

    A candidate (lambda1, lambda2) is scored by the penalized functional of
    its own balanced fit: weights from the candidate, alpha from the
    balancing principle, functional evaluated at the resulting coefficients.
    Each run keeps the best of its uniform draws; the reported optimum is the
    coordinate-wise mean of the per-run winners, scored once more at the end.
    """
    (l1lo, l1hi), (l2lo, l2hi) = search.box
    scores: dict[tuple, float] = {}

    def objective(p: KernelParams) -> float:
        key = (p.lambda1, p.lambda2)
        if key not in scores:
            beta = weights_from_kernel_params(M, p)
            bres = balancing_principle(samples, M, beta, bp)
            gamma = regularized_fit(samples, M, bres.alpha_star, beta)
            scores[key] = penalized_functional(samples, gamma, bres.alpha_star, beta)
        return scores[key]

    def draw(rng, lo, hi):
        u = float(rng.uniform(lo, hi))
        # uniform(a, a) is not exactly a; snap collapsed axes to the endpoint
        return lo if lo == hi else u

    per_run, values = [], []
    for run in range(search.runs):
        rng = np.random.default_rng([search.seed, run])
        best_p, best_v = None, np.inf
        for _ in range(search.steps_per_run):
            p = KernelParams(draw(rng, l1lo, l1hi), draw(rng, l2lo, l2hi))
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


def kernel_report_dict(result: KernelSelectResult) -> dict:
    """JSON-ready report of a kernel search."""
    return {
        "best": {"lambda1": result.best.lambda1, "lambda2": result.best.lambda2},
        "per_run": [
            {"lambda1": p.lambda1, "lambda2": p.lambda2} for p in result.per_run
        ],
        "objective_values": list(result.objective_values),
        "best_objective": result.best_objective,
        "seed": result.seed,
    }


def save_kernel_report(result: KernelSelectResult, path) -> None:
    """Write a kernel-search report as JSON."""
    import json

    with open(path, "w", newline="") as fh:
        json.dump(kernel_report_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
