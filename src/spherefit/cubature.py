"""Positive-weight cubature on the sphere built from Gauss-Legendre nodes.

The product rule with n = M+1 Gauss-Legendre colatitudes and 2n equispaced
azimuths integrates every spherical polynomial of degree <= 2M+1 exactly:
the azimuth sum annihilates all non-zonal harmonics of order |m| < 2n, and
the colatitude sum is an n-point Gauss rule, exact to degree 2n-1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._rings import RingLayout, ring_layout
from .harmonics import FOUR_PI, as_unit_vectors, basis_size, sph_harm_matrix

_WEIGHT_SUM_TOL = 1e-10
_EXACTNESS_TOL = 1e-10
_EXACTNESS_CHUNK = 256  # points per harmonic block in the load-time exactness check
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class CubatureRule:
    """A point set on the sphere with positive weights summing to 4 pi.

    `degree_M` is the reconstruction degree the rule supports: the rule is
    exact for all spherical polynomials of degree <= 2*degree_M.  `rings`
    holds the ring layout when the rule is a product grid (ring transform
    for analysis), else None (dense harmonic matrix).
    """

    degree_M: int
    points: np.ndarray
    weights: np.ndarray
    rings: RingLayout | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = as_unit_vectors(self.points)
        w = np.asarray(self.weights, dtype=float).ravel()
        if self.degree_M < 0:
            raise ValueError(f"degree must be non-negative, got {self.degree_M}")
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
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    half = n // 2
    # guesses for the `half` largest roots (descending in t)
    i = np.arange(half)
    x = np.cos(np.pi * (i + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        pk_prev = np.ones_like(x)
        pk = x.copy()
        for k in range(2, n + 1):
            pk_prev, pk = pk, ((2 * k - 1) * x * pk - (k - 1) * pk_prev) / k
        dpk = n * (x * pk - pk_prev) / (x * x - 1.0)
        step = pk / dpk
        x -= step
        if not step.size or np.abs(step).max() < _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration failed to converge for n={n}")
    pk_prev = np.ones_like(x)
    pk = x.copy()
    for k in range(2, n + 1):
        pk_prev, pk = pk, ((2 * k - 1) * x * pk - (k - 1) * pk_prev) / k
    dpk = n * (x * pk - pk_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dpk * dpk)

    if n % 2:
        # the middle root of an odd-degree P_n is exactly 0
        pk_prev = 1.0  # builds up P_{n-1}(0) through even degrees
        for k in range(2, n + 1, 2):
            pk_prev *= -(k - 1.0) / k
        dp0 = n * (0.0 - pk_prev) / (0.0 - 1.0)
        w0 = 2.0 / (dp0 * dp0)
        nodes = np.concatenate([-x[::-1], [0.0], x])
        weights = np.concatenate([w[::-1], [w0], w])
    else:
        nodes = np.concatenate([-x[::-1], x])
        weights = np.concatenate([w[::-1], w])
    order = np.argsort(nodes)
    return nodes[order], weights[order]


@functools.lru_cache(maxsize=16)
def _gl_rule_cached(M: int) -> CubatureRule:
    n = M + 1
    t, v = gauss_legendre_nodes(n)
    u = np.sqrt(1.0 - t * t)
    phi = np.pi * np.arange(2 * n) / n
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)

    # colatitude-major layout: node (s, r) sits at index s*2n + r
    x1 = np.outer(u, cos_phi).ravel()
    x2 = np.outer(u, sin_phi).ravel()
    x3 = np.repeat(t, 2 * n)
    weights = np.repeat(v * (np.pi / n), 2 * n)
    points = np.stack([x1, x2, x3], axis=1)
    return CubatureRule(degree_M=M, points=points, weights=weights)


def gauss_legendre_rule(M: int) -> CubatureRule:
    """Product Gauss-Legendre rule with 2(M+1)^2 points, exact on degree 2M+1.

    Colatitudes are the M+1 roots of P_{M+1}; azimuths are the 2(M+1) angles
    pi*r/(M+1); the weight at (t_s, phi_r) is (pi/(M+1)) * v_s.
    """
    if M < 0:
        raise ValueError(f"degree must be non-negative, got {M}")
    return _gl_rule_cached(M)


def probe_grid(resolution_degree: int) -> np.ndarray:
    """Deterministic point set for sup-norm estimation on the sphere.

    The points of gauss_legendre_rule(resolution_degree), weights discarded.
    """
    if resolution_degree < 1:
        raise ValueError(f"resolution degree must be >= 1, got {resolution_degree}")
    return gauss_legendre_rule(resolution_degree).points


def integrate(rule: CubatureRule, f) -> float:
    """Cubature sum sum_i w_i f(x_i).

    `f` must accept an (n, 3) array of unit vectors and return n values.
    """
    values = np.asarray(f(rule.points), dtype=float).ravel()
    if values.size != rule.n_points:
        raise ValueError(
            f"integrand returned {values.size} values for {rule.n_points} nodes"
        )
    return float(rule.weights @ values)


def save_rule(rule: CubatureRule, path) -> None:
    """Write a rule as CSV with header x1,x2,x3,w at full double precision."""
    with open(path, "w", newline="") as fh:
        fh.write("x1,x2,x3,w\n")
        for (x1, x2, x3), w in zip(rule.points, rule.weights):
            fh.write(f"{x1:.17g},{x2:.17g},{x3:.17g},{w:.17g}\n")


def load_rule(path, degree_M: int | None = None) -> CubatureRule:
    """Read a rule from CSV written by `save_rule`.

    The file does not store the exactness degree.  If `degree_M` is omitted
    it is inferred from the Gauss-Legendre point count N = 2(M+1)^2; other
    point counts require an explicit degree.  Either way the rule must
    integrate every harmonic of degree <= 2 * degree_M to within 1e-10, or
    ValueError is raised.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 4:
        raise ValueError(f"expected 4 columns x1,x2,x3,w in {path}")
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
    <= 2 * degree_M: sum_i w_i Y_n(x_i) = sqrt(4 pi) for n = 0, else 0.

    The fit's closed form relies on this (it makes the discrete Gram matrix
    the identity).  Harmonics are built a block of points at a time.  On a
    product grid only the phi = 0 point of each ring is needed: over a ring
    of A azimuths, cos(m phi) sums to A when A divides m and to 0 otherwise,
    and sin(m phi) sums to 0.
    """
    degree = 2 * rule.degree_M
    rings = rule.rings
    if rings is None:
        points, weights = rule.points, rule.weights
    else:
        points, weights = rings.meridian, rings.azimuths * rings.weights
    moments = np.zeros(basis_size(degree))
    for lo in range(0, points.shape[0], _EXACTNESS_CHUNK):
        hi = lo + _EXACTNESS_CHUNK
        moments += sph_harm_matrix(degree, points[lo:hi]) @ weights[lo:hi]
    if rings is not None:
        n = np.arange(moments.size)
        k = np.sqrt(n).astype(int)
        moments[(n - k * k - k) % rings.azimuths != 0] = 0.0
    moments[0] -= np.sqrt(FOUR_PI)
    worst = int(np.argmax(np.abs(moments)))
    if abs(moments[worst]) > _EXACTNESS_TOL:
        k = int(np.sqrt(worst))
        raise ValueError(
            f"rule is not exact to degree {degree}: the cubature sum of the "
            f"degree-{k} harmonic {worst} is off by {abs(moments[worst]):.3e}; "
            f"pass the degree the rule supports as degree_M"
        )
