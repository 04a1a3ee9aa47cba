"""Approximation operators on the sphere.

Covers discrete harmonic analysis on an exact rule, the regularized
least-squares fit with its closed-form degree filter 1/(1 + alpha*beta_k^2),
an independent dense-solver cross-check, filtered approximation, sup-norm
bounds for the fit operator, and the weighted-coefficient (RKHS) norms the
penalized functional is built from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import _rings, harmonics
from .cubature import CubatureRule
from .harmonics import FOUR_PI, _one_point, as_unit_vectors, basis_size, sph_harm_matrix

_SOLVER_DEGREE_CAP = 40


def expand_by_degree(per_degree: np.ndarray) -> np.ndarray:
    """Repeat a length-(M+1) per-degree array across the 2k+1 orders."""
    per_degree = np.asarray(per_degree)
    M = per_degree.size - 1
    return np.repeat(per_degree, 2 * np.arange(M + 1) + 1)


@dataclass(frozen=True)
class HarmonicCoefficients:
    """Coefficient vector over the flat harmonic layout of a given degree."""

    degree_M: int
    values: np.ndarray

    def __post_init__(self):
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


@dataclass(frozen=True)
class PenalizationWeights:
    """Non-negative, non-decreasing per-degree penalization factors beta_k."""

    degree_M: int
    beta: np.ndarray

    def __post_init__(self):
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


@dataclass(frozen=True)
class SampleSet:
    """Function values at the nodes of a cubature rule."""

    rule: CubatureRule
    values: np.ndarray

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
        if np.any(t < 0.0):
            raise ValueError("filter argument must be non-negative")
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


def _synthesizer(M: int, pts: np.ndarray):
    """Map from degree-M flat coefficients to values at the given unit vectors."""
    rings = _rings.ring_layout(pts)
    if rings is not None and rings.supports(M):
        return functools.partial(_rings.synthesis, rings, M)
    Y = sph_harm_matrix(M, pts)
    return lambda coeffs: Y.T @ coeffs


# ---------------------------------------------------------------------------
# analysis and the regularized fit


def _require_exactness(samples: SampleSet, M: int) -> None:
    if samples.rule.degree_M < M:
        raise ValueError(
            f"rule is exact to degree {2 * samples.rule.degree_M}, "
            f"but analysis to degree {M} needs exactness {2 * M}"
        )


def analyze(samples: SampleSet, M: int) -> HarmonicCoefficients:
    """Discrete Fourier coefficients gamma_{k,j} = sum_i w_i Y_{k,j}(x_i) y_i.

    On a rule exact to degree 2M this is the orthogonal projection of the
    sampled function onto the degree-M polynomials (hyperinterpolation), and
    reproduces every polynomial of degree <= M from its samples.
    """
    _require_exactness(samples, M)
    rings = samples.rule.rings
    if rings is not None and rings.supports(M):
        return HarmonicCoefficients(M, _rings.analysis(rings, M, samples.values))
    Y = sph_harm_matrix(M, samples.rule.points)
    return HarmonicCoefficients(M, Y @ (samples.rule.weights * samples.values))


def filter_factors(M: int, alpha: float, beta: PenalizationWeights) -> np.ndarray:
    """Per-degree damping factors 1/(1 + alpha*beta_k^2)."""
    if beta.degree_M != M:
        raise ValueError(f"weights are for degree {beta.degree_M}, expected {M}")
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"regularization parameter must be >= 0, got {alpha}")
    return 1.0 / (1.0 + alpha * beta.beta**2)


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
    max_degree: int = _SOLVER_DEGREE_CAP,
) -> HarmonicCoefficients:
    """Solve the normal equations explicitly with a dense SPD solver.

    Assembles (G + alpha * B G B) gamma = Y W y with G = Y W Y^T and solves by
    Cholesky factorization.  This is a deliberately independent cross-check of
    the closed form in `regularized_fit`; the matrix is materialized, so the
    degree is capped (default 40) to bound memory.
    """
    _require_exactness(samples, M)
    if beta.degree_M != M:
        raise ValueError(f"weights are for degree {beta.degree_M}, expected {M}")
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"regularization parameter must be >= 0, got {alpha}")
    if M > max_degree:
        raise ValueError(
            f"dense solver capped at degree {max_degree}; raise max_degree to override"
        )
    Y = sph_harm_matrix(M, samples.rule.points)
    w = samples.rule.weights
    G = (Y * w) @ Y.T
    b = expand_by_degree(beta.beta)
    A = G + alpha * (b[:, None] * G * b[None, :])
    rhs = Y @ (w * samples.values)
    try:
        cho = scipy.linalg.cho_factor(A, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - signals a rule bug
        raise np.linalg.LinAlgError(
            "normal-equation matrix is not positive definite; "
            "the rule is likely not exact to the required degree"
        ) from exc
    return HarmonicCoefficients(M, scipy.linalg.cho_solve(cho, rhs, check_finite=False))


def evaluate(coeffs: HarmonicCoefficients, x) -> float:
    """Value of the polynomial sum_{k,j} gamma_{k,j} Y_{k,j} at one point."""
    return float(evaluate_grid(coeffs, _one_point(x))[0])


def evaluate_grid(coeffs: HarmonicCoefficients, points) -> np.ndarray:
    """Polynomial values at many points; empty input gives an empty array.

    Product grids with more than 2M azimuths per ring (Gauss-Legendre rules,
    probe grids) take the ring transform; other point sets the dense matrix.
    """
    pts = as_unit_vectors(points)
    if pts.shape[0] == 0:
        return np.empty(0)
    return _synthesizer(coeffs.degree_M, pts)(coeffs.values)


def evaluate_kernel_form(
    samples: SampleSet, M: int, alpha: float, beta: PenalizationWeights, points
) -> np.ndarray:
    """Evaluate the regularized fit through its zonal-kernel representation.

    sum_k (2k+1)/(4 pi (1+alpha*beta_k^2)) sum_i w_i P_k(x . x_i) y_i, which
    agrees with evaluating `regularized_fit` coefficients in the harmonic
    basis.  Kept as an independent evaluation path for cross-checks.
    """
    _require_exactness(samples, M)
    pts = as_unit_vectors(points)
    c = (2 * np.arange(M + 1) + 1) / FOUR_PI * filter_factors(M, alpha, beta)
    wy = samples.rule.weights * samples.values
    out = np.empty(pts.shape[0])
    nodes = samples.rule.points
    chunk = max(1, 200_000 // max(1, nodes.shape[0]))
    for lo in range(0, pts.shape[0], chunk):
        block = pts[lo : lo + chunk]
        dots = np.clip(block @ nodes.T, -1.0, 1.0).ravel()
        L = harmonics.legendre_matrix(M, dots)
        out[lo : lo + block.shape[0]] = (L @ c).reshape(block.shape[0], -1) @ wy
    return out


# ---------------------------------------------------------------------------
# sup-norm machinery for the fit operator


def _max_weighted_abs_kernel(
    rule: CubatureRule, probes: np.ndarray, coef_cols: np.ndarray
) -> np.ndarray:
    """max over probes of sum_i w_i |sum_k c_k P_k(x . x_i)| per coefficient column.

    `coef_cols` has shape (M+1, ncols); one maximum is returned per column.
    On product grids only one probe per symmetry class is evaluated
    (`_rings.probe_classes`); the maximum is that of the full probe set.
    """
    classes = _rings.probe_classes(rule.rings, _rings.ring_layout(probes))
    if classes is not None:
        probes = probes[classes[0]]
    nodes, weights = rule.points, rule.weights
    M = coef_cols.shape[0] - 1
    ncols = coef_cols.shape[1]
    n_nodes = nodes.shape[0]
    best = np.zeros(ncols)
    coefs_t = np.ascontiguousarray(coef_cols.T)
    chunk = max(1, 200_000 // max(1, n_nodes))
    L = None
    for lo in range(0, probes.shape[0], chunk):
        block = probes[lo : lo + chunk]
        dots = np.clip(block @ nodes.T, -1.0, 1.0).ravel()
        if L is None or L.shape[0] != dots.size:
            L = np.empty((dots.size, M + 1), order="F")
        harmonics.legendre_matrix(M, dots, out=L)
        # L.T is a C-ordered view of the Fortran-ordered L, so each kernel row
        # below is contiguous and reshapes to (probes, nodes) without copying
        G = coefs_t @ L.T
        np.abs(G, out=G)
        for c in range(ncols):
            per_probe = G[c].reshape(block.shape[0], n_nodes) @ weights
            best[c] = max(best[c], per_probe.max())
    return best


def weighted_abs_legendre_sums(rule: CubatureRule, M: int, probes) -> np.ndarray:
    """Table S[p, k] = sum_i w_i |P_k(x_p . x_i)| over the probe points.

    The table depends only on the rule and the probes, so sup-norm upper
    bounds of the fit operator for any (alpha, beta) reduce to max(S @ c).
    On product grids the rows are computed once per probe symmetry class
    (`_rings.probe_classes`) and copied to the other probes of the class;
    the table equals the one computed probe by probe.
    """
    pts = as_unit_vectors(probes)
    if pts.shape[0] == 0:
        raise ValueError("need at least one probe point")
    classes = _rings.probe_classes(rule.rings, _rings.ring_layout(pts))
    if classes is not None:
        pts = pts[classes[0]]
    nodes = rule.points
    S = np.empty((pts.shape[0], M + 1))
    chunk = max(1, 200_000 // max(1, nodes.shape[0]))
    L = None
    for lo in range(0, pts.shape[0], chunk):
        block = pts[lo : lo + chunk]
        nb = block.shape[0]
        dots = np.clip(block @ nodes.T, -1.0, 1.0).ravel()
        if L is None or L.shape[0] != dots.size:
            L = np.empty((dots.size, M + 1), order="F")
        harmonics.legendre_matrix(M, dots, out=L)
        np.abs(L, out=L)
        # columns of the Fortran-ordered L are contiguous: reshape is a view
        for k in range(M + 1):
            S[lo : lo + nb, k] = L[:, k].reshape(nb, nodes.shape[0]) @ rule.weights
    return S if classes is None else S[classes[1]]


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
    On product grids only one probe per symmetry class is evaluated, and
    the estimate equals the maximum over the full probe set.
    """
    pts = as_unit_vectors(probes)
    if pts.shape[0] == 0:
        raise ValueError("need at least one probe point")
    c = (2 * np.arange(M + 1) + 1) / FOUR_PI * filter_factors(M, alpha, beta)
    est = float(_max_weighted_abs_kernel(rule, pts, c[:, None])[0])
    crude = crude_norm_upper(M, alpha, beta)
    # the weight sum carries ~1e-12 roundoff; the true norm never exceeds crude
    return NormBound(estimate=min(est, crude), crude_upper=crude)


def default_probe_resolution(M: int) -> int:
    """Probe-grid resolution used for sup norms when none is requested."""
    return max(1, 2 * M)


# ---------------------------------------------------------------------------
# filtered approximation and weighted-coefficient norms


def filtered_approx(
    coeffs: HarmonicCoefficients, filt: FilterSpec, M: int | None = None
) -> HarmonicCoefficients:
    """Apply the coefficient filter h(k/M) to degree-M analysis coefficients."""
    if M is None:
        M = coeffs.degree_M
    elif M != coeffs.degree_M:
        raise ValueError(f"coefficients are of degree {coeffs.degree_M}, not {M}")
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
    p_at_nodes = evaluate_grid(coeffs, samples.rule.points)
    resid = p_at_nodes - samples.values
    return float(samples.rule.weights @ (resid * resid)) + alpha * rkhs_norm_sq(coeffs, beta)


# ---------------------------------------------------------------------------
# coefficient serialization


def save_coefficients(coeffs: HarmonicCoefficients, path) -> None:
    """Write coefficients as CSV `k,j,value` in flat order, full precision."""
    with open(path, "w", newline="") as fh:
        fh.write("k,j,value\n")
        for n, v in enumerate(coeffs.values):
            k = int(np.sqrt(n))
            fh.write(f"{k},{n - k * k + 1},{v:.17g}\n")


def load_coefficients(path) -> HarmonicCoefficients:
    """Read a coefficient CSV written by `save_coefficients`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"expected 3 columns k,j,value in {path}")
    n = data.shape[0]
    M = int(round(np.sqrt(n))) - 1
    if basis_size(M) != n:
        raise ValueError(f"{n} rows is not a full coefficient set of any degree")
    flat = (data[:, 0] ** 2 + data[:, 1] - 1).astype(int)
    if not np.array_equal(np.sort(flat), np.arange(n)):
        raise ValueError("k,j pairs do not enumerate a complete coefficient set")
    values = np.empty(n)
    values[flat] = data[:, 2]
    return HarmonicCoefficients(M, values)
