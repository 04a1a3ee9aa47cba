"""Legendre polynomials and a real orthonormal spherical harmonic basis.

The basis used throughout the package is

    Y_{k,m}(x) = Nbar_{k,|m|} P_k^{|m|}(x3) * { sqrt(2) cos(m phi),  m > 0
                                               { 1,                  m = 0
                                               { sqrt(2) sin(|m| phi), m < 0

with Nbar_{k,m} = sqrt((2k+1)/(4 pi) * (k-m)!/(k+m)!) and no Condon-Shortley
phase.  Degrees k and order indices j (1 <= j <= 2k+1, m = j - k - 1) are laid
out flat as n = k^2 + j - 1, i.e. degree-major with orders ascending.

All evaluation goes through normalized recurrences, so degrees of several
hundred are safe from overflow.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * np.pi
_SQRT2 = np.sqrt(2.0)

# slack accepted on |t| for Legendre arguments, and on |x|^2 - 1 for points
_T_SLACK = 1e-14
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere.

    Coordinates with a non-unit norm are rescaled onto the sphere, however
    large or small they are; the all-zero vector and non-finite input are
    rejected.
    """

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        v = np.array([self.x1, self.x2, self.x3], dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("sphere point coordinates must be finite")
        scale = np.abs(v).max()
        if scale == 0.0:
            raise ValueError("cannot place the zero vector on the sphere")
        # entries above 2 cannot be a unit vector's, and v @ v could overflow
        if scale > 2.0 or abs(float(v @ v) - 1.0) > _UNIT_TOL:
            # after dividing by the largest entry the norm lies in [1, sqrt(3)]
            v /= scale
            v /= math.hypot(*v)
        object.__setattr__(self, "x1", float(v[0]))
        object.__setattr__(self, "x2", float(v[1]))
        object.__setattr__(self, "x3", float(v[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])


def _whole_number(value, name: str) -> int:
    """`value` as an int; ValueError unless it is a whole number (not a bool)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def basis_size(degree: int) -> int:
    """Dimension of the spherical polynomial space of the given degree."""
    return (degree + 1) ** 2


def as_unit_vectors(points) -> np.ndarray:
    """Coerce points to an (n, 3) float array of unit vectors.

    Accepts a SpherePoint, a length-3 array-like, an (n, 3) array, or a
    sequence of either.  Rows must already satisfy |x|^2 = 1 within 1e-12.
    """
    if isinstance(points, SpherePoint):
        pts = points.as_array()[None, :]
    else:
        seq = points
        if isinstance(seq, (list, tuple)) and len(seq) > 0 and isinstance(seq[0], SpherePoint):
            pts = np.array([p.as_array() for p in seq])
        else:
            pts = np.atleast_2d(np.asarray(seq, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (n, 3), got {pts.shape}")
    if pts.shape[0] and not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    if pts.shape[0]:
        nsq = np.einsum("ij,ij->i", pts, pts)
        worst = np.abs(nsq - 1.0).max()
        if worst > _UNIT_TOL:
            raise ValueError(f"points must lie on the unit sphere (|x|^2 - 1 up to {worst:.2e})")
    return pts


def _one_point(x) -> np.ndarray:
    """Coerce a scalar entry point's argument to one unit vector, shape (1, 3)."""
    pts = as_unit_vectors(x)
    if pts.shape[0] != 1:
        raise ValueError(f"expected exactly one point, got {pts.shape[0]}")
    return pts


def _check_t(t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _T_SLACK):
        raise ValueError("Legendre argument must lie in [-1, 1]")
    return np.clip(t, -1.0, 1.0)


def legendre_matrix(k_max: int, t, out: np.ndarray | None = None) -> np.ndarray:
    """Legendre values for an array of arguments, shape (len(t), k_max+1).

    Column k holds P_k(t), built column by column with the three-term
    recurrence P_k = ((2k-1)/k) t P_{k-1} - ((k-1)/k) P_{k-2} from P_0 = 1
    and P_1 = t (`gauss_legendre_nodes` and `sph_harm_matrix` run their own
    recurrences).  A preallocated `out` (ideally Fortran-ordered for fast
    column updates) can be supplied to avoid repeated allocation in hot loops.
    """
    k_max = _whole_number(k_max, "degree")
    if k_max < 0:
        raise ValueError(f"degree must be non-negative, got {k_max}")
    t = _check_t(np.asarray(t, dtype=float).ravel())
    n = t.size
    if out is None:
        out = np.empty((n, k_max + 1), order="F")
    out[:, 0] = 1.0
    if k_max >= 1:
        out[:, 1] = t
    for k in range(2, k_max + 1):
        np.multiply(t, out[:, k - 1], out=out[:, k])
        out[:, k] *= (2.0 * k - 1.0) / k
        out[:, k] -= ((k - 1.0) / k) * out[:, k - 2]
    return out


def sph_harm_matrix(degree: int, points) -> np.ndarray:
    """Matrix of all harmonics up to `degree` at the given points.

    Returns an array of shape ((degree+1)^2, n) whose row k^2 + j - 1 holds
    Y_{k,j} at every point.  Azimuth is taken as 0 at the poles, where all
    m != 0 harmonics vanish anyway.
    """
    degree = _whole_number(degree, "degree")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    pts = as_unit_vectors(points)
    n = pts.shape[0]
    t = np.clip(pts[:, 2], -1.0, 1.0)
    u = np.hypot(pts[:, 0], pts[:, 1])  # sin(theta), exact for unit vectors
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

