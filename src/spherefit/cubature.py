"""Positive-weight cubature on the sphere built from Gauss-Legendre nodes.

The product rule with n = M+1 Gauss-Legendre colatitudes and 2n equispaced
azimuths integrates every spherical polynomial of degree <= 2M+1 exactly:
the azimuth sum annihilates all non-zonal harmonics of order |m| < 2n, and
the colatitude sum is an n-point Gauss rule, exact to degree 2n-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._files import read_csv, write_csv
from ._rings import RingLayout, analysis, ring_layout, ring_points, transform
from .harmonics import FOUR_PI, _degree, _whole_number, as_unit_vectors

_WEIGHT_SUM_TOL = 1e-10
_EXACTNESS_TOL = 1e-10
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class CubatureRule:
    """A point set on the sphere with positive weights summing to 4 pi.

    The rule is exact for all spherical polynomials of degree <= 2*degree_M.
    `rings`, the ring layout of a product grid or None, picks its transform.
    Rules compare and hash by identity, even when made from equal arrays, so
    a plan (`approx._Plan`) knows the rule it was made for.
    """

    degree_M: int
    points: np.ndarray
    weights: np.ndarray
    rings: RingLayout | None = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "degree_M", _degree(self.degree_M))
        pts = as_unit_vectors(self.points)
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.size:
            raise ValueError(f"{pts.shape[0]} points but {w.size} weights")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("cubature weights must be strictly positive")
        if abs(w.sum() - FOUR_PI) > _WEIGHT_SUM_TOL:
            raise ValueError(
                f"weights sum to {w.sum():.12e}, expected 4*pi = {FOUR_PI:.12e}"
            )
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rings", ring_layout(pts, w))

    @property
    def n_points(self) -> int:
        return self.weights.size


def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on P_n from the usual Chebyshev-type initial guesses,
    solved on the positive half and mirrored so nodes come in exact +-t
    pairs with identical weights.
    """
    n = _whole_number(n, "node count")
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")

    def p_and_derivative(x):
        """P_n(x) and P_n'(x) by the three-term recurrence."""
        pk_prev = np.ones_like(x)
        pk = x.copy()
        for k in range(2, n + 1):
            pk_prev, pk = pk, ((2 * k - 1) * x * pk - (k - 1) * pk_prev) / k
        return pk, n * (x * pk - pk_prev) / (x * x - 1.0)

    # guesses for the n // 2 largest roots (descending in t)
    x = np.cos(np.pi * (np.arange(n // 2) + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        pk, dpk = p_and_derivative(x)
        step = pk / dpk
        x -= step
        if not step.size or np.abs(step).max() < _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration failed to converge for n={n}")
    dpk = p_and_derivative(x)[1]
    w = 2.0 / ((1.0 - x * x) * dpk * dpk)

    mid_x, mid_w = [], []
    if n % 2:
        # the middle root of an odd-degree P_n is exactly 0
        pk_prev = 1.0  # builds up P_{n-1}(0) through even degrees
        for k in range(2, n + 1, 2):
            pk_prev *= -(k - 1.0) / k
        dp0 = n * (0.0 - pk_prev) / (0.0 - 1.0)
        mid_x, mid_w = [0.0], [2.0 / (dp0 * dp0)]
    # x descends, so -x, the middle root and x reversed ascend
    return np.concatenate([-x, mid_x, x[::-1]]), np.concatenate([w, mid_w, w[::-1]])


def _gl_meridian(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The phi = 0 points (sqrt(1 - t^2), 0, t) of the rings at the n
    Gauss-Legendre nodes t, ascending, and the nodes' weights."""
    t, v = gauss_legendre_nodes(n)
    return np.column_stack([np.sqrt(1.0 - t * t), np.zeros_like(t), t]), v


def gauss_legendre_rule(M: int) -> CubatureRule:
    """Product Gauss-Legendre rule with 2(M+1)^2 points, exact on degree 2M+1.

    Colatitudes are the M+1 roots of P_{M+1}; azimuths are the 2(M+1) angles
    pi*r/(M+1); the weight at (t_s, phi_r) is (pi/(M+1)) * v_s.  Built anew
    by each call: a caller that needs the rule again keeps it.
    """
    n = _degree(M) + 1
    meridian, v = _gl_meridian(n)
    # colatitude-major layout: node (s, r) sits at index s*2n + r
    weights = np.repeat(v * (np.pi / n), 2 * n)
    return CubatureRule(degree_M=n - 1, points=ring_points(meridian, 2 * n), weights=weights)


def probe_grid(resolution_degree: int) -> np.ndarray:
    """Deterministic point set for sup-norm estimation on the sphere.

    The points of gauss_legendre_rule(resolution_degree), weights discarded.
    """
    resolution_degree = _whole_number(resolution_degree, "resolution degree")
    if resolution_degree < 1:
        raise ValueError(f"resolution degree must be >= 1, got {resolution_degree}")
    return gauss_legendre_rule(resolution_degree).points


def save_rule(rule: CubatureRule, path) -> None:
    """Write a rule as CSV with header x1,x2,x3,w at full double precision."""
    write_csv(path, "x1,x2,x3,w", [*rule.points.T, rule.weights])


def load_rule(path, degree_M: int | None = None) -> CubatureRule:
    """Read a rule from CSV written by `save_rule`.

    An omitted `degree_M` is inferred from the Gauss-Legendre point count
    N = 2(M+1)^2; other counts need it.  The rule must integrate every
    harmonic of degree <= 2 * degree_M to within 1e-10 (`_check_exactness`),
    or ValueError is raised.
    """
    data = read_csv(path, "x1,x2,x3,w")
    if degree_M is None:
        root = np.sqrt(data.shape[0] / 2.0)
        if abs(root - round(root)) > 1e-9 or round(root) < 1:
            raise ValueError(
                f"cannot infer degree from {data.shape[0]} points; pass degree_M explicitly"
            )
        degree_M = int(round(root)) - 1
    rule = CubatureRule(degree_M=degree_M, points=data[:, :3], weights=data[:, 3])
    _check_exactness(rule)
    return rule


def _check_exactness(rule: CubatureRule) -> None:
    """Raise ValueError unless the rule integrates every harmonic of degree
    <= 2 * degree_M: its analysis of the constant 1 on its transform of that
    degree is sqrt(4 pi) e_0.  The fit's closed form relies on this (it
    makes the discrete Gram matrix the identity)."""
    degree = 2 * rule.degree_M
    ones = np.ones(rule.n_points)
    moments = analysis(transform(degree, rule.points, rule.rings, rule.weights), ones)
    moments[0] -= np.sqrt(FOUR_PI)
    worst = int(np.argmax(np.abs(moments)))
    if abs(moments[worst]) > _EXACTNESS_TOL:
        raise ValueError(
            f"rule is not exact to degree {degree}: the cubature sum of the "
            f"degree-{int(np.sqrt(worst))} harmonic {worst} is off by {abs(moments[worst]):.3e}; "
            f"pass the degree the rule supports as degree_M"
        )
