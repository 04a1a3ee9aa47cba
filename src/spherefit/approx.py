"""Approximation operators on the sphere: harmonic analysis on an exact
rule, the regularized least-squares fit with its closed-form degree filter
1/(1 + alpha*beta_k^2), filtered approximation, sup-norm bounds for the fit
operator, the weighted-coefficient (RKHS) norms, and the transform plans many
fits on one rule share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _rings, harmonics
from ._files import read_csv, write_csv
from .cubature import CubatureRule, _gl_meridian
from .harmonics import (
    FOUR_PI, _degree, _one_point, as_unit_vectors, basis_size, sph_harm_matrix,
)


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

    `analyze` keeps its coefficients in `_analyses`, one entry per degree, so
    a walk and the fits that follow it analyze a sample set once.  Sample
    sets compare by identity.
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
# analysis and the regularized fit


def _require_exactness(rule: CubatureRule, M: int) -> None:
    if rule.degree_M < M:
        raise ValueError(
            f"rule is exact to degree {2 * rule.degree_M}, "
            f"but analysis to degree {M} needs exactness {2 * M}"
        )


def analyze(samples: SampleSet, M: int, *, plan=None) -> HarmonicCoefficients:
    """Discrete Fourier coefficients gamma_{k,j} = sum_i w_i Y_{k,j}(x_i) y_i.

    On a rule exact to degree 2M this is the orthogonal projection of the
    sampled function onto the degree-M polynomials (hyperinterpolation), and
    reproduces every polynomial of degree <= M from its samples.  `plan`, a
    `_Plan`, lends its transform.
    """
    M = _degree(M)
    _require_exactness(samples.rule, M)
    plan = _plan_for(plan, samples.rule, M)
    if M not in samples._analyses:
        samples._analyses[M] = HarmonicCoefficients(M, _rings.analysis(plan.table, samples.values))
    return samples._analyses[M]


def filter_factors(M: int, alpha: float, beta: PenalizationWeights) -> np.ndarray:
    """Per-degree damping factors 1/(1 + alpha*beta_k^2): all 1 at alpha = 0,
    and 0, the exact limit, where alpha*beta_k^2 exceeds the float range."""
    if beta.degree_M != M:
        raise ValueError(f"weights are for degree {beta.degree_M}, expected {M}")
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"regularization parameter must be >= 0, got {alpha}")
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + alpha * beta.beta**2) if alpha else np.ones(M + 1)


def regularized_fit(
    samples: SampleSet, M: int, alpha: float, beta: PenalizationWeights, *, plan=None
) -> HarmonicCoefficients:
    """Closed-form solution of the weighted regularized least-squares problem.

    gamma_{k,j} = (1/(1 + alpha*beta_k^2)) sum_i w_i Y_{k,j}(x_i) y_i,
    i.e. the analysis coefficients (`analyze`, given `plan`) through the degree filter.
    """
    factors = expand_by_degree(filter_factors(M, alpha, beta))
    plain = analyze(samples, M, plan=plan)
    return HarmonicCoefficients(M, factors * plain.values)


def evaluate(coeffs: HarmonicCoefficients, x) -> float:
    """Value of the polynomial sum_{k,j} gamma_{k,j} Y_{k,j} at one point."""
    return float(evaluate_grid(coeffs, _one_point(x))[0])


def evaluate_grid(coeffs: HarmonicCoefficients, points) -> np.ndarray:
    """Polynomial values at many points (`_rings.transform`); empty input
    gives an empty array."""
    pts = as_unit_vectors(points)
    table = _rings.transform(coeffs.degree_M, pts, _rings.ring_layout(pts))
    return _rings.synthesis(table, coeffs.values)


def evaluate_kernel_form(
    samples: SampleSet, M: int, alpha: float, beta: PenalizationWeights, points
) -> np.ndarray:
    """Evaluate the regularized fit through its zonal-kernel representation.

    sum_k (2k+1)/(4 pi (1+alpha*beta_k^2)) sum_i w_i P_k(x . x_i) y_i, which
    agrees with evaluating `regularized_fit` coefficients in the harmonic
    basis.  No package code calls it: it is kept here, out of the package
    namespace, as the independent path the benchmark checks each fit against.
    """
    _require_exactness(samples.rule, M)
    pts = as_unit_vectors(points)
    c = (2 * np.arange(M + 1) + 1) / FOUR_PI * filter_factors(M, alpha, beta)
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

    `grid-abs` bounds of the fit operator's sup norm for any (alpha, beta)
    reduce to max(S @ c).  |P_k| is even, so on a mirrored rule the sum runs
    over one node of each antipodal pair at twice its weight
    (`_rings.antipodal_half`): 992 of the 1922 nodes of
    `gauss_legendre_rule(30)`.
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


NORM_BOUND_KINDS = ("grid", "grid-abs", "crude")


def _norm_oracle(rule: CubatureRule, M: int, probe_rings, bound: str, probes=None, plan=None):
    """Map from filter factors f_0..f_M (f >= 0 for ``grid-abs``) to the
    `bound` on the sup norm of the fit operator over the rule: `_crude` for
    ``crude``; else, with c_k = (2k+1) f_k / (4 pi), the maximum over the
    probes of sum_i w_i |sum_k c_k P_k(x . x_i)| for ``grid``, and of its
    upper envelope sum_k c_k sum_i w_i |P_k(x . x_i)| for ``grid-abs``.

    The probes are those of the ring layout `probe_rings`, else the points
    `probes`.  They are classified here only (`_rings.probe_classes`): on
    product grids one probe per class is evaluated, ``grid`` by the addition
    theorem on the ring tables of the rule and the probes (those of `plan`,
    a `_Plan` of rule, M and `probe_rings`, else built here; no other branch
    reads tables), ``grid-abs`` as one `weighted_abs_legendre_sums`
    row per class.  Other rules keep every probe, through `_kernel_blocks`.
    """
    if bound == "crude":
        return _crude
    scale = (2 * np.arange(M + 1) + 1) / FOUR_PI
    classes = _rings.probe_classes(rule.rings, probe_rings)
    if classes is not None:
        rings, azimuths = classes
        if bound == "grid":
            if plan is None:
                layout = _rings.degree_layout(M)
                tables = [_rings.ring_table(layout, r) for r in (rule.rings, probe_rings)]
            else:
                tables = plan.table, plan.probe_table
            block = (*tables, rings, azimuths)
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


def _crude(f: np.ndarray) -> float:
    """sum_k (2k+1) f_k, the sup norm bound of filter factors f_0..f_M."""
    return float(np.sum((2 * np.arange(f.size) + 1) * f))


def _norm_bound(sup, M: int, alpha: float, beta: PenalizationWeights) -> NormBound:
    """The `NormBound` of the `grid` oracle `sup` at (alpha, beta)."""
    f = filter_factors(M, alpha, beta)
    crude = _crude(f)
    # the weight sum carries ~1e-12 roundoff; the true norm never exceeds crude
    return NormBound(estimate=min(sup(f), crude), crude_upper=crude)


def operator_norm_bound(
    rule: CubatureRule, M: int, alpha: float, beta: PenalizationWeights, probes
) -> NormBound:
    """Sup-norm of the fit operator: probe-grid estimate and crude upper bound.

    estimate = max over the probe points x of
        sum_i w_i |sum_k (2k+1)/(4 pi (1+alpha*beta_k^2)) P_k(x . x_i)|,
    a lower bound on the true sup norm that sharpens with the probe grid;
    crude_upper = sum_k (2k+1)/(1+alpha*beta_k^2) >= estimate always.
    The sums come from `_norm_oracle`.
    """
    _require_exactness(rule, M)
    pts = as_unit_vectors(probes)
    if pts.shape[0] == 0:
        raise ValueError("need at least one probe point")
    return _norm_bound(_norm_oracle(rule, M, _rings.ring_layout(pts), "grid", pts), M, alpha, beta)


# ---------------------------------------------------------------------------
# transform plans: the operators many fits on one rule share


def _probe_rings(rule: CubatureRule, resolution: int) -> _rings.RingLayout:
    """The one probe layout of a balancing walk: the rings of
    probe_grid(resolution), without building it.  On a product rule with A
    azimuths per ring it takes the smallest multiple of A no coarser than
    the probe grid's 2(resolution+1), so the rule's symmetries map the
    probes to themselves: on gauss_legendre_rule(M) at resolution 2M,
    2(M+1) probe classes remain, against (M+1)^2 on probe_grid(2M).  Other
    rules keep the probe grid's azimuths."""
    meridian = _gl_meridian(resolution + 1)[0]
    meridian.setflags(write=False)
    azimuths = 2 * (resolution + 1)
    if rule.rings is not None:
        A = rule.rings.azimuths
        azimuths = A * -(-azimuths // A)
    return _rings.RingLayout(meridian, None, azimuths)


class _Plan:
    """What the analyses, walks, fits and norm oracles on one rule share at
    degree M, each part built on first use: the walk's probe rings
    (`_probe_rings` at resolution max(1, 2M)), the `_rings.degree_layout` of
    M, two whole ring tables built on it, `table` on the rule's rings (the
    rule's `_rings.transform` on a scattered rule) and `probe_table` on the
    probe rings, which takes the rule table's Legendre part where the two
    ring sets lie at the same heights bit for bit, and each bound's
    `_norm_oracle`, lent the plan.  Like the plans of SHTns and FFTW, one
    per (degree, grid), made and dropped by the caller that runs many fits,
    not memoized."""

    def __init__(self, rule: CubatureRule, M: int):
        self.rule, self.M, self.resolution = rule, M, max(1, 2 * M)
        self._norms = {}

    @functools.cached_property
    def probe_rings(self):
        return _probe_rings(self.rule, self.resolution)

    @functools.cached_property
    def layout(self):
        return _rings.degree_layout(self.M)

    @functools.cached_property
    def table(self):
        if self.rule.rings is None:
            return _rings.transform(self.M, self.rule.points, None, self.rule.weights)
        return _rings.ring_table(self.layout, self.rule.rings)

    @functools.cached_property
    def probe_table(self):
        rings, probe = self.rule.rings, self.probe_rings
        if rings is None or not np.array_equal(rings.meridian, probe.meridian):
            return _rings.ring_table(self.layout, probe)
        same = rings.azimuths == probe.azimuths
        trig = self.table.trig if same else _rings.trig_table(self.M, probe.azimuths)
        return self.table._replace(trig=trig, weights=None)

    def norm(self, bound: str):
        if bound not in self._norms:
            self._norms[bound] = _norm_oracle(self.rule, self.M, self.probe_rings, bound, plan=self)
        return self._norms[bound]


def _plan_for(plan: _Plan | None, rule: CubatureRule, M: int):
    """`plan`, refused unless made for this rule object and degree; else a
    new plan, so no result depends on it."""
    if plan is None:
        return _Plan(rule, M)
    for name, built, wanted in (("rule", plan.rule, rule), ("degree", plan.M, M)):
        if built != wanted:
            raise ValueError(f"the plan was made for another {name}")
    return plan


# ---------------------------------------------------------------------------
# filtered approximation and weighted-coefficient norms


def filtered_approx(coeffs: HarmonicCoefficients, filt: FilterSpec) -> HarmonicCoefficients:
    """Apply the coefficient filter h(k/M) to degree-M analysis coefficients."""
    M = coeffs.degree_M
    k = np.arange(M + 1, dtype=float)
    h = filt(k / M) if M > 0 else np.ones(1)
    return HarmonicCoefficients(M, expand_by_degree(h) * coeffs.values)


def rkhs_norm_sq(coeffs: HarmonicCoefficients, beta: PenalizationWeights) -> float:
    """Weighted coefficient norm sum_k beta_k^2 sum_j gamma_{k,j}^2.  A zero
    coefficient adds 0, also where beta_k^2 exceeds the float range (inf)."""
    if beta.degree_M != coeffs.degree_M:
        raise ValueError(
            f"weights degree {beta.degree_M} does not match coefficients degree {coeffs.degree_M}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        terms = expand_by_degree(beta.beta**2) * coeffs.values**2
    return float(np.sum(np.where(coeffs.values == 0.0, 0.0, terms)))


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
    samples: SampleSet, coeffs: HarmonicCoefficients, alpha: float, beta: PenalizationWeights
) -> float:
    """Weighted data misfit plus alpha times the weighted coefficient norm,
    sum_i w_i (p(x_i) - y_i)^2 + alpha * rkhs_norm_sq(p), for the degree-M
    polynomial p of `coeffs`, from the analysis alone (no synthesis).

    On a rule exact to degree 2M the discrete inner product is exact on
    degree-M polynomials (Sloan, J. Approx. Theory 83, 1995), so with
    gamma = `analyze`(samples, M) the misfit is
    (sum_i w_i y_i^2 - gamma . gamma) + |c - gamma|^2.  The residual energy
    in parentheses is >= 0 by Bessel's inequality; on data that is itself a
    degree-M polynomial it is rounding noise of either sign, of order
    1e-16 sum_i w_i y_i^2.  Coefficients above the rule's degree get
    `analyze`'s ValueError.  Where the energies exceed the float range the
    misfit is NaN.  At alpha = 0 it is the misfit alone, even where the norm
    is infinite.
    """
    gamma = analyze(samples, coeffs.degree_M).values
    y, d = samples.values, coeffs.values - gamma
    with np.errstate(over="ignore"):  # an energy beyond the float range is inf
        misfit = (float(y @ (samples.rule.weights * y)) - float(gamma @ gamma)) + float(d @ d)
    penalty = rkhs_norm_sq(coeffs, beta)  # checks the weights' degree at alpha = 0 too
    return misfit + (alpha * penalty if alpha else 0.0)


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
