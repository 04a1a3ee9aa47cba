"""Single-point forms of the harmonic basis and a loop form of the harmonic
matrix, used as test oracles.

The package evaluates Legendre polynomials and harmonics only in matrix form;
these wrappers pick one entry out of those matrices so tests can compare
against closed forms and the addition theorem point by point.
`sph_harm_matrix_loop` runs the harmonic recurrence one (degree, order) pair
at a time, the form `sph_harm_matrix` vectorizes over the orders with the
same floating-point operations.  `unit` makes a test point: the package
refuses points off the sphere, so tests normalize theirs first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spherefit.harmonics import (
    _SQRT2, FOUR_PI, _one_point, as_unit_vectors, basis_size, legendre_matrix, sph_harm_matrix,
)


def unit(*v) -> np.ndarray:
    """The unit vector along (v1, v2, v3), as a (3,) array."""
    v = np.array(v, dtype=float)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class HarmonicIndex:
    """Index (k, j) of a spherical harmonic: degree k >= 0, 1 <= j <= 2k+1."""

    k: int
    j: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"degree must be non-negative, got {self.k}")
        if not 1 <= self.j <= 2 * self.k + 1:
            raise ValueError(
                f"order index j={self.j} outside [1, {2 * self.k + 1}] for degree {self.k}"
            )

    @property
    def m(self) -> int:
        """Signed order, m = j - k - 1 in [-k, k]."""
        return self.j - self.k - 1

    @property
    def flat(self) -> int:
        """Position in the degree-major flat layout, k^2 + j - 1."""
        return self.k * self.k + self.j - 1

    @classmethod
    def from_flat(cls, n: int) -> "HarmonicIndex":
        if n < 0:
            raise ValueError("flat index must be non-negative")
        k = int(np.sqrt(n))
        return cls(k, n - k * k + 1)


def legendre_batch(k_max: int, t: float) -> np.ndarray:
    """All Legendre polynomial values P_0(t), ..., P_{k_max}(t)."""
    return legendre_matrix(k_max, [float(t)])[0]


def legendre_eval(k: int, t: float) -> float:
    """P_k(t) for t in [-1, 1]."""
    return float(legendre_batch(k, t)[k])


def sph_harm_eval(idx: HarmonicIndex, x) -> float:
    """Value of the real orthonormal harmonic Y_{k,j} at a point."""
    return float(sph_harm_matrix(idx.k, _one_point(x))[idx.flat, 0])


def addition_kernel(k: int, x, z) -> float:
    """Zonal kernel ((2k+1)/(4 pi)) P_k(x . z).

    Equals sum_j Y_{k,j}(x) Y_{k,j}(z) for the orthonormal basis of degree k.
    """
    xv = _one_point(x)[0]
    zv = _one_point(z)[0]
    dot = float(np.clip(xv @ zv, -1.0, 1.0))
    return (2 * k + 1) / FOUR_PI * legendre_eval(k, dot)


def sph_harm_matrix_loop(degree: int, points) -> np.ndarray:
    """`sph_harm_matrix` with its recurrence run one (degree, order) pair at
    a time: each order m from its diagonal value upward in the degree."""
    pts = as_unit_vectors(points)
    n = pts.shape[0]
    t = np.clip(pts[:, 2], -1.0, 1.0)
    u = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])

    Y = np.empty((basis_size(degree), n))
    pmm = np.full(n, 1.0 / np.sqrt(FOUR_PI))
    for m in range(degree + 1):
        if m > 0:
            pmm = pmm * u * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
            cos_m = _SQRT2 * np.cos(m * phi)
            sin_m = _SQRT2 * np.sin(m * phi)
        p_prev2 = None
        p_prev = None
        for k in range(m, degree + 1):
            if k == m:
                p = pmm
            elif k == m + 1:
                p = np.sqrt(2.0 * m + 3.0) * t * pmm
            else:
                a = np.sqrt((2.0 * k - 1.0) * (2.0 * k + 1.0) / ((k - m) * (k + m)))
                b = np.sqrt(
                    (2.0 * k + 1.0) * (k + m - 1.0) * (k - m - 1.0)
                    / ((2.0 * k - 3.0) * (k - m) * (k + m))
                )
                p = a * t * p_prev - b * p_prev2
            base = k * k + k
            if m == 0:
                Y[base] = p
            else:
                Y[base + m] = p * cos_m
                Y[base - m] = p * sin_m
            p_prev2, p_prev = p_prev, p
    return Y
