"""Approximation operators on the sphere.

Covers discrete harmonic analysis on an exact rule, the regularized
least-squares fit with its closed-form degree filter 1/(1 + alpha*beta_k^2),
an independent dense-solver cross-check, filtered approximation, sup-norm
bounds for the fit operator, and the weighted-coefficient (RKHS) norms the
penalized functional is built from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _rings, harmonics
from ._files import read_csv, write_csv
from .cubature import CubatureRule
from .harmonics import (
    FOUR_PI, _degree, _one_point, as_unit_vectors, basis_size, sph_harm_matrix,
)

_SOLVER_DEGREE_CAP = 40


def expand_by_degree(per_degree: np.ndarray) -> np.ndarray:
    """Repeat a length-(M+1) per-degree array across the 2k+1 orders."""
    per_degree = np.asarray(per_degree)
    M = per_degree.size - 1
    return np.repeat(per_degree, 2 * np.arange(M + 1) + 1)


@dataclass(frozen=True, eq=False)
class HarmonicCoefficients:
    """Coefficient vector over the flat harmonic layout of a given degree, compared by identity."""

    degree_M: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "degree_M", _degree(self.degree_M))
        vals = np.asarray(self.values, dtype=float).ravel().copy()
        if vals.size != basis_size(self.degree_M):
            raise ValueError(
                f"coefficient vector of degree {self.degree_M} needs "
                f"{basis_size(self.degree_M)} entries, got {vals.size}"
            )
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, degree: int) -> "HarmonicCoefficients":
        return cls(degree, np.zeros(basis_size(degree)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True, eq=False)
class PenalizationWeights:
    """Non-negative, non-decreasing per-degree penalization factors beta_k, compared by identity."""

    degree_M: int
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "degree_M", _degree(self.degree_M))
        b = np.asarray(self.beta, dtype=float).ravel().copy()
        if b.size != self.degree_M + 1:
            raise ValueError(
                f"need {self.degree_M + 1} weights for degree {self.degree_M}, got {b.size}"
            )
        if not np.all(np.isfinite(b)):
            raise ValueError("penalization weights must be finite")
        if np.any(b < 0.0):
            raise ValueError("penalization weights must be non-negative")
        if np.any(np.diff(b) < 0.0):
            raise ValueError("penalization weights must be non-decreasing in the degree")
        b.setflags(write=False)
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Function values at the nodes of a cubature rule.

    `analyze` keeps its coefficients in `_analyses`, one entry per degree,
    so a balancing walk and the fits that follow it analyze a sample set
    once.  The entry is not shown in the repr; sample sets compare by identity.
    """

    rule: CubatureRule
    values: np.ndarray
    _analyses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel().copy()
        if vals.size != self.rule.n_points:
            raise ValueError(
                f"{vals.size} sample values for a rule with {self.rule.n_points} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


class FilterSpec:
    """Coefficient filter h on [0, inf), applied as h(k/M).

    kinds:
      * ``spline_c1`` -- the C^1 quadratic spline that is 1 on [0, 1/2],
        1 - 8(t - 1/2)^2 on [1/2, 3/4], 8(1 - t)^2 on [3/4, 1], 0 beyond.
      * ``fourier_partial_sum`` -- 1 on [0, 1], 0 beyond (plain truncation).
    """

    KINDS = ("spline_c1", "fourier_partial_sum")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"unknown filter kind {kind!r}; expected one of {self.KINDS}")
        self.kind = kind

    @classmethod
    def spline_c1(cls) -> "FilterSpec":
        return cls("spline_c1")

    @classmethod
    def fourier_partial_sum(cls) -> "FilterSpec":
        return cls("fourier_partial_sum")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise ValueError("filter argument must be non-negative, not NaN")
        if self.kind == "fourier_partial_sum":
            out = np.where(t <= 1.0, 1.0, 0.0)
        else:
            out = np.select(
                [t <= 0.5, t <= 0.75, t <= 1.0],
                [1.0, 1.0 - 8.0 * (t - 0.5) ** 2, 8.0 * (1.0 - t) ** 2],
                default=0.0,
            )
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return f"FilterSpec({self.kind!r})"


class NormBound(NamedTuple):
    estimate: float
    crude_upper: float


# ---------------------------------------------------------------------------
# synthesis: ring transform on product grids, dense harmonic matrix elsewhere


def _synthesizer(M: int, pts: np.ndarray, rings: _rings.RingLayout | None):
    """Map from degree-M flat coefficients to values at the given unit
    vectors, whose `_rings.ring_layout` is `rings`."""
    if rings is not None:
        return functools.partial(_rings.synthesis, rings, M)
    Y = sph_harm_matrix(M, pts)
    return lambda coeffs: Y.T @ coeffs


# ---------------------------------------------------------------------------
# analysis and the regularized fit


def _require_exactness(rule: CubatureRule, M: int) -> None:
    if rule.degree_M < M:
        raise ValueError(
            f"rule is exact to degree {2 * rule.degree_M}, "
            f"but analysis to degree {M} needs exactness {2 * M}"
        )


def analyze(samples: SampleSet, M: int) -> HarmonicCoefficients:
    """Discrete Fourier coefficients gamma_{k,j} = sum_i w_i Y_{k,j}(x_i) y_i.

    On a rule exact to degree 2M this is the orthogonal projection of the
    sampled function onto the degree-M polynomials (hyperinterpolation), and
    reproduces every polynomial of degree <= M from its samples.
    """
    M = _degree(M)
    _require_exactness(samples.rule, M)
    coeffs = samples._analyses.get(M)
    if coeffs is None:
        rule = samples.rule
        if rule.rings is not None:
            values = _rings.analysis(rule.rings, M, samples.values)
        else:
            values = sph_harm_matrix(M, rule.points) @ (rule.weights * samples.values)
        coeffs = samples._analyses[M] = HarmonicCoefficients(M, values)
    return coeffs


def filter_factors(M: int, alpha: float, beta: PenalizationWeights) -> np.ndarray:
    """Per-degree damping factors 1/(1 + alpha*beta_k^2)."""
    if beta.degree_M != M:
        raise ValueError(f"weights are for degree {beta.degree_M}, expected {M}")
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"regularization parameter must be >= 0, got {alpha}")
    return 1.0 / (1.0 + alpha * beta.beta**2)


def _kernel_coefficients(M: int, alpha: float, beta: PenalizationWeights) -> np.ndarray:
    """Zonal-kernel coefficients (2k+1)/(4 pi (1 + alpha*beta_k^2)) of the fit."""
    return (2 * np.arange(M + 1) + 1) / FOUR_PI * filter_factors(M, alpha, beta)


def regularized_fit(
    samples: SampleSet, M: int, alpha: float, beta: PenalizationWeights
) -> HarmonicCoefficients:
    """Closed-form solution of the weighted regularized least-squares problem.

    gamma_{k,j} = (1/(1 + alpha*beta_k^2)) sum_i w_i Y_{k,j}(x_i) y_i,
    i.e. the analysis coefficients passed through the degree filter.
    """
    factors = expand_by_degree(filter_factors(M, alpha, beta))
    plain = analyze(samples, M)
    return HarmonicCoefficients(M, factors * plain.values)


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


def evaluate(coeffs: HarmonicCoefficients, x) -> float:
    """Value of the polynomial sum_{k,j} gamma_{k,j} Y_{k,j} at one point."""
    # the dense path: a one-point ring table would evict a rule's from the memo
    return float(_synthesizer(coeffs.degree_M, _one_point(x), None)(coeffs.values)[0])


def evaluate_grid(coeffs: HarmonicCoefficients, points) -> np.ndarray:
    """Polynomial values at many points; empty input gives an empty array.

    Product grids (Gauss-Legendre rules, probe grids), whatever their
    azimuth count, take the ring transform; other point sets the dense matrix.
    """
    pts = as_unit_vectors(points)
    if pts.shape[0] == 0:
        return np.empty(0)
    return _synthesizer(coeffs.degree_M, pts, _rings.ring_layout(pts))(coeffs.values)


def evaluate_kernel_form(
    samples: SampleSet, M: int, alpha: float, beta: PenalizationWeights, points
) -> np.ndarray:
    """Evaluate the regularized fit through its zonal-kernel representation.

    sum_k (2k+1)/(4 pi (1+alpha*beta_k^2)) sum_i w_i P_k(x . x_i) y_i, which
    agrees with evaluating `regularized_fit` coefficients in the harmonic
    basis.  Kept as an independent evaluation path for cross-checks.
    """
    _require_exactness(samples.rule, M)
    pts = as_unit_vectors(points)
    c = _kernel_coefficients(M, alpha, beta)
    wy = samples.rule.weights * samples.values
    out = np.empty(pts.shape[0])
    for lo, nb, K in _kernel_sums(samples.rule.points, c, pts):
        out[lo : lo + nb] = K.reshape(nb, -1) @ wy
    return out


# (point, node) pairs per `_kernel_blocks` block: one degree's values fill a
# vector of 262 KB, which stays in cache while it is reduced; much smaller
# blocks lose more to the per-block overhead than they gain
_BLOCK_PAIRS = 32_768


def _kernel_blocks(nodes: np.ndarray, M: int, points: np.ndarray):
    """Yield (lo, nb, columns) per block points[lo : lo + nb] of about
    `_BLOCK_PAIRS` (point, node) pairs, at least one point.  `columns` yields
    P_0..P_M(x_p . x_i) in turn at entry p * n_nodes + i of a vector that later
    degrees overwrite (`harmonics._legendre_columns`), so no (pairs, M+1)
    array is formed."""
    chunk = max(1, _BLOCK_PAIRS // max(1, nodes.shape[0]))
    for lo in range(0, points.shape[0], chunk):
        block = points[lo : lo + chunk]
        dots = np.clip(block @ nodes.T, -1.0, 1.0).ravel()
        yield lo, block.shape[0], harmonics._legendre_columns(M, dots)


def _kernel_sums(nodes: np.ndarray, c: np.ndarray, points: np.ndarray):
    """Yield (lo, nb, K) per `_kernel_blocks` block, K = sum_k c_k P_k(x_p . x_i)
    at entry p * n_nodes + i, accumulated one degree at a time."""
    for lo, nb, columns in _kernel_blocks(nodes, c.size - 1, points):
        K, term = np.zeros(nb * nodes.shape[0]), np.empty(nb * nodes.shape[0])
        for ck, P in zip(c, columns):
            K += np.multiply(ck, P, out=term)
        yield lo, nb, K


# ---------------------------------------------------------------------------
# sup-norm machinery for the fit operator


def weighted_abs_legendre_sums(rule: CubatureRule, M: int, probes) -> np.ndarray:
    """Table S[p, k] = sum_i w_i |P_k(x_p . x_i)|, one row per probe point.

    The table depends only on the rule and the probes, so `grid-abs` upper
    bounds of the fit operator's sup norm for any (alpha, beta) reduce to
    max(S @ c).  |P_k| is even, so on a rule whose rings come in mirror pairs
    with an even azimuth count the sum runs over one node of each antipodal
    pair at twice its weight (`_rings.antipodal_half`): 992 of the 1922
    nodes of `gauss_legendre_rule(30)`.  Either way the table equals the one
    computed probe by probe over every node, up to rounding.
    """
    _require_exactness(rule, M)
    pts = as_unit_vectors(probes)
    if pts.shape[0] == 0:
        raise ValueError("need at least one probe point")
    nodes, weights = _rings.antipodal_half(rule.rings, rule.points, rule.weights)
    S = np.empty((pts.shape[0], M + 1))
    for lo, nb, columns in _kernel_blocks(nodes, M, pts):
        magnitude = np.empty(nb * nodes.shape[0])
        for k, P in enumerate(columns):
            S[lo : lo + nb, k] = np.abs(P, out=magnitude).reshape(nb, -1) @ weights
    return S


def _norm_oracle(
    rule: CubatureRule, M: int, probe_rings: _rings.RingLayout | None, bound: str, probes=None
):
    """Map from filter factors f_0..f_M (f >= 0 for ``grid-abs``) to the
    `bound` on the sup norm of the fit operator over the rule: for ``crude``
    sum_k (2k+1) f_k; else, with c_k = (2k+1) f_k / (4 pi), the maximum over
    the probes of sum_i w_i |sum_k c_k P_k(x . x_i)| for ``grid``, and of its
    upper envelope sum_k c_k sum_i w_i |P_k(x . x_i)| for ``grid-abs``.

    The probes are those of the ring layout `probe_rings`, or the points
    `probes` when they are no product grid (`probe_rings` None).  They are
    classified here and only here (`_rings.probe_classes`).  On product
    grids the sums agree within a class, so only the ring x azimuth block of
    class representatives is evaluated: ``grid`` by the addition theorem on
    each call, ``grid-abs`` as one `weighted_abs_legendre_sums` row per
    class, built once at points formed from the layout.  On a balancing
    walk's layout (`params._probe_rings`) the block holds 2(M+1) probes at
    the default resolution 2M, against (M+1)^2 on probe_grid(2M).  Other
    rules keep every probe, through `_kernel_blocks`, formed from the layout
    unless given.  Either way the maximum is over the full probe set.
    """
    weight = 2 * np.arange(M + 1) + 1
    if bound == "crude":
        return lambda f: float(np.sum(weight * f))
    scale = weight / FOUR_PI
    classes = _rings.probe_classes(rule.rings, probe_rings)
    if classes is not None:
        rings, azimuths, _ = classes
        if bound == "grid":
            block = (rule.rings, probe_rings, rings, azimuths)
            return lambda f: float(_rings.weighted_abs_kernel_sums(*block, scale * f).max())
        probes = _rings.ring_points(probe_rings.meridian[rings], probe_rings.azimuths, azimuths)
    elif probes is None:
        probes = _rings.ring_points(probe_rings.meridian, probe_rings.azimuths)
    if bound == "grid-abs":
        table = weighted_abs_legendre_sums(rule, M, probes)
        return lambda f: float((table @ (scale * f)).max())

    def sup(f):
        sums = np.empty(probes.shape[0])
        for lo, nb, K in _kernel_sums(rule.points, scale * f, probes):
            sums[lo : lo + nb] = np.abs(K, out=K).reshape(nb, -1) @ rule.weights
        return float(sums.max())

    return sup


def crude_norm_upper(M: int, alpha: float, beta: PenalizationWeights) -> float:
    """Analytic upper bound sum_k (2k+1)/(1 + alpha*beta_k^2) for the operator norm."""
    return float(np.sum((2 * np.arange(M + 1) + 1) * filter_factors(M, alpha, beta)))


def operator_norm_bound(
    rule: CubatureRule, M: int, alpha: float, beta: PenalizationWeights, probes
) -> NormBound:
    """Sup-norm of the fit operator: probe-grid estimate and crude upper bound.

    estimate = max over the probe points x of
        sum_i w_i |sum_k (2k+1)/(4 pi (1+alpha*beta_k^2)) P_k(x . x_i)|,
    a lower bound on the true sup norm that sharpens with the probe grid;
    crude_upper = sum_k (2k+1)/(1+alpha*beta_k^2) >= estimate always.
    When the rule and the probes are product grids, the kernel sums come
    from the addition theorem, one matrix product per probe ring, at one
    probe per symmetry class; no Legendre value at a (probe, node) pair is
    formed.  Either way the estimate is the maximum over the full probe set,
    of any kind; `fit` takes the walk's `grid` oracle on its probe layout.
    """
    _require_exactness(rule, M)
    pts = as_unit_vectors(probes)
    if pts.shape[0] == 0:
        raise ValueError("need at least one probe point")
    sup = _norm_oracle(rule, M, _rings.ring_layout(pts), "grid", pts)
    est = sup(filter_factors(M, alpha, beta))
    crude = crude_norm_upper(M, alpha, beta)
    # the weight sum carries ~1e-12 roundoff; the true norm never exceeds crude
    return NormBound(estimate=min(est, crude), crude_upper=crude)


def default_probe_resolution(M: int) -> int:
    """Probe-grid resolution used for sup norms when none is requested."""
    return max(1, 2 * M)


# ---------------------------------------------------------------------------
# filtered approximation and weighted-coefficient norms


def filtered_approx(coeffs: HarmonicCoefficients, filt: FilterSpec) -> HarmonicCoefficients:
    """Apply the coefficient filter h(k/M) to degree-M analysis coefficients."""
    M = coeffs.degree_M
    k = np.arange(M + 1, dtype=float)
    h = filt(k / M) if M > 0 else np.ones(1)
    return HarmonicCoefficients(M, expand_by_degree(h) * coeffs.values)


def rkhs_norm_sq(coeffs: HarmonicCoefficients, beta: PenalizationWeights) -> float:
    """Weighted coefficient norm sum_k beta_k^2 sum_j gamma_{k,j}^2."""
    if beta.degree_M != coeffs.degree_M:
        raise ValueError(
            f"weights degree {beta.degree_M} does not match coefficients degree {coeffs.degree_M}"
        )
    b2 = expand_by_degree(beta.beta**2)
    return float(np.sum(b2 * coeffs.values**2))


def kernel_section(beta: PenalizationWeights, x) -> HarmonicCoefficients:
    """Coefficients of the reproducing-kernel section K(., x).

    K(., x) = sum_k beta_k^{-2} sum_j Y_{k,j}(x) Y_{k,j}; every beta_k must be
    strictly positive here, unlike in the regularized fit where a zero weight
    merely means an unpenalized degree.
    """
    if np.any(beta.beta == 0.0):
        raise ValueError(
            "kernel construction requires strictly positive penalization weights "
            "(beta_k^{-2} is formed); got a zero entry"
        )
    M = beta.degree_M
    Yx = sph_harm_matrix(M, _one_point(x))[:, 0]
    return HarmonicCoefficients(M, expand_by_degree(beta.beta**-2.0) * Yx)


def penalized_functional(
    samples: SampleSet,
    coeffs: HarmonicCoefficients,
    alpha: float,
    beta: PenalizationWeights,
) -> float:
    """Weighted data misfit plus alpha times the weighted coefficient norm.

    sum_i w_i (p(x_i) - y_i)^2 + alpha * rkhs_norm_sq(p), with p evaluated
    from the coefficients at the rule nodes.
    """
    rule = samples.rule
    p_at_nodes = _synthesizer(coeffs.degree_M, rule.points, rule.rings)(coeffs.values)
    resid = p_at_nodes - samples.values
    return float(rule.weights @ (resid * resid)) + alpha * rkhs_norm_sq(coeffs, beta)


# ---------------------------------------------------------------------------
# coefficient serialization


def save_coefficients(coeffs: HarmonicCoefficients, path) -> None:
    """Write coefficients as CSV `k,j,value` in flat order, full precision."""
    n = np.arange(coeffs.values.size)
    k = np.sqrt(n).astype(int)
    write_csv(path, "k,j,value", [k, n - k * k + 1, coeffs.values])


def load_coefficients(path) -> HarmonicCoefficients:
    """Read a coefficient CSV written by `save_coefficients`."""
    data = read_csv(path, "k,j,value")
    n = data.shape[0]
    M = int(round(np.sqrt(n))) - 1
    if basis_size(M) != n:
        raise ValueError(f"{n} rows is not a full coefficient set of any degree")
    k, j = data[:, 0], data[:, 1]
    whole = np.isfinite(k) & (k == np.floor(k)) & (j == np.floor(j))
    if not np.all(whole & (j >= 1) & (j <= 2 * k + 1)):
        raise ValueError(f"k,j in {path} must be whole numbers with 1 <= j <= 2k+1")
    flat = (k**2 + j - 1).astype(int)
    if not np.array_equal(np.sort(flat), np.arange(n)):
        raise ValueError("k,j pairs do not enumerate a complete coefficient set")
    values = np.empty(n)
    values[flat] = data[:, 2]
    return HarmonicCoefficients(M, values)
