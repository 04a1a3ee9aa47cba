"""Legendre polynomials and a real orthonormal spherical harmonic basis.

The basis used throughout the package is

    Y_{k,m}(x) = Nbar_{k,|m|} P_k^{|m|}(x3) * { sqrt(2) cos(m phi),  m > 0
                                               { 1,                  m = 0
                                               { sqrt(2) sin(|m| phi), m < 0

with Nbar_{k,m} = sqrt((2k+1)/(4 pi) * (k-m)!/(k+m)!) and no Condon-Shortley
phase.  Degrees k and order indices j (1 <= j <= 2k+1, m = j - k - 1) are laid
out flat as n = k^2 + j - 1, i.e. degree-major with orders ascending.

All evaluation goes through normalized recurrences, so degrees of several
hundred are safe from overflow.  `sph_harm_matrix` runs its recurrence over
the degree only, every order of a degree in one vectorized step, so the
matrix of degree M takes O(M) numpy steps however few the points are.
"""

from __future__ import annotations

import numbers

import numpy as np

FOUR_PI = 4.0 * np.pi
_SQRT2 = np.sqrt(2.0)

# slack accepted on |t| for Legendre arguments, and on |x|^2 - 1 for points
_T_SLACK = 1e-14
_UNIT_TOL = 1e-12


def _whole_number(value, name: str) -> int:
    """`value` as an int; ValueError unless it is a whole number (not a bool)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _degree(value) -> int:
    """A polynomial degree: a whole number, at least 0."""
    degree = _whole_number(value, "degree")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    return degree


def basis_size(degree: int) -> int:
    """Dimension of the spherical polynomial space of the given degree."""
    return (degree + 1) ** 2


def as_unit_vectors(points) -> np.ndarray:
    """Points as an (n, 3) float array of unit vectors.

    Takes an array-like of shape (3,), one point, or (n, 3).  Coordinates
    must be finite and each row must satisfy |x|^2 = 1 within 1e-12; points
    off the sphere are refused, not rescaled onto it.
    """
    given = np.asarray(points, dtype=float)
    pts = np.atleast_2d(given)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected points of shape (3,) or (n, 3), got {given.shape}")
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


def _legendre_columns(k_max: int, t: np.ndarray):
    """Yield P_0(t), ..., P_k_max(t) in turn, t in [-1, 1], by the recurrence
    P_k = ((2k-1)/k) t P_{k-1} - ((k-1)/k) P_{k-2} from P_{-1} = 0, P_0 = 1,
    in three vectors of t's length that later degrees overwrite."""
    prev, cur, new = np.zeros_like(t), np.ones_like(t), np.empty_like(t)
    yield cur
    for k in range(1, k_max + 1):
        np.multiply(t, cur, out=new)
        new *= (2.0 * k - 1.0) / k
        prev *= (k - 1.0) / k
        new -= prev
        prev, cur, new = cur, new, prev
        yield cur


def legendre_matrix(k_max: int, t) -> np.ndarray:
    """Legendre values for an array of arguments, shape (len(t), k_max+1).

    Column k holds P_k(t) from `_legendre_columns`, the one plain Legendre
    recurrence, which the zonal-kernel sums of `approx` stream one degree at
    a time instead; `gauss_legendre_nodes` (Newton on P_n) and
    `sph_harm_matrix` (normalized P_k^m) run their own.
    """
    k_max = _degree(k_max)
    t = _check_t(np.asarray(t, dtype=float).ravel())
    out = np.empty((t.size, k_max + 1), order="F")
    for k, column in enumerate(_legendre_columns(k_max, t)):
        out[:, k] = column
    return out


def sph_harm_matrix(degree: int, points) -> np.ndarray:
    """Matrix of all harmonics up to `degree` at the given points.

    Returns an array of shape ((degree+1)^2, n) whose row k^2 + j - 1 holds
    Y_{k,j} at every point.  Azimuth is taken as 0 at the poles, where all
    m != 0 harmonics vanish anyway.

    The normalized Legendre recurrence runs over the degree k only, all
    orders m <= k of a degree in one step (as in Schaeffer, arXiv:1202.6522),
    so the matrix takes O(degree) numpy steps.  Step k writes the values
    Nbar P_k^m into rows k^2+k+m, m >= 0: order k from the diagonal, order
    k-1 from it by one product, and the orders m <= k-2 from the two
    degrees below by the three-term recurrence.  Once no step reads degree
    k's values, its -m rows get the products with sqrt(2) sin(m phi) and its
    +m rows those with sqrt(2) cos(m phi), m > 0.
    """
    degree = _degree(degree)
    pts = as_unit_vectors(points)
    M, n = degree, pts.shape[0]
    t = np.clip(pts[:, 2], -1.0, 1.0)
    u = np.hypot(pts[:, 0], pts[:, 1])  # sin(theta), exact for unit vectors
    phi = np.arctan2(pts[:, 1], pts[:, 0])

    Y = np.empty((basis_size(M), n))
    Y[0] = 1.0 / np.sqrt(FOUR_PI)
    # cos_m[m-1] holds sqrt(2) cos(m phi); sqrt(2) sin(m phi) waits in row
    # M^2+M-m, the -m row of degree M, which is the last one written
    cos_m = np.empty((M, n))
    for m in range(1, M + 1):
        cos_m[m - 1] = _SQRT2 * np.cos(m * phi)
        Y[M * M + M - m] = _SQRT2 * np.sin(m * phi)
    orders = np.arange(1, M + 1, dtype=float)
    diagonal = np.sqrt((2.0 * orders + 1.0) / (2.0 * orders))  # P_m^m from P_{m-1}^{m-1}
    next_to_diagonal = np.sqrt(2.0 * orders + 1.0)  # P_m^{m-1} from P_{m-1}^{m-1}
    a, b = _recurrence_coefficients(M)
    for k in range(1, M + 1):
        row = k * k + k  # row of order m >= 0 of degree k is row + m
        prev, prev2 = row - 2 * k, row - 4 * k + 2  # the same rows of degrees k-1, k-2
        if k >= 2:
            # (a t) P_{k-1}^m - b P_{k-2}^m for m <= k-2; the k-1 rows of
            # degree k-1's -m harmonics are free until its sin products
            at = Y[prev - k + 1 : prev]
            np.multiply(a[k, : k - 1, None], t, out=at)
            at *= Y[prev : prev + k - 1]
            new = Y[row : row + k - 1]
            np.multiply(b[k, : k - 1, None], Y[prev2 : prev2 + k - 1], out=new)
            np.subtract(at, new, out=new)
        np.multiply(next_to_diagonal[k - 1], t, out=Y[row + k - 1])
        Y[row + k - 1] *= Y[prev + k - 1]
        np.multiply(Y[prev + k - 1], u, out=Y[row + k])
        Y[row + k] *= diagonal[k - 1]
        if k >= 3:
            _apply_azimuth(Y, k - 2, cos_m)
    for k in range(max(1, M - 1), M + 1):
        _apply_azimuth(Y, k, cos_m)
    return Y


def _recurrence_coefficients(M: int) -> tuple[np.ndarray, np.ndarray]:
    """a[k, m] and b[k, m] of P_k^m = a t P_{k-1}^m - b P_{k-2}^m for the
    normalized values, 0 <= m <= k-2 <= M-2 (zero elsewhere)."""
    k, m = np.tril_indices(M + 1, -2)
    a, b = np.zeros((M + 1, M + 1)), np.zeros((M + 1, M + 1))
    a[k, m] = np.sqrt((2.0 * k - 1.0) * (2.0 * k + 1.0) / ((k - m) * (k + m)))
    b[k, m] = np.sqrt(
        (2.0 * k + 1.0) * (k + m - 1.0) * (k - m - 1.0) / ((2.0 * k - 3.0) * (k - m) * (k + m))
    )
    return a, b


def _apply_azimuth(Y: np.ndarray, k: int, cos_m: np.ndarray) -> None:
    """Turn degree k's values Nbar P_k^m in rows k^2+k+m into its harmonics:
    row k^2+k-m gets them times sqrt(2) sin(m phi), read from row M^2+M-m
    (the same row when k = M), and row k^2+k+m times sqrt(2) cos(m phi)."""
    M = cos_m.shape[0]
    row = k * k + k
    values = Y[row + k : row : -1]  # orders k, k-1, ..., 1
    sin = Y[M * M + M - k : M * M + M]
    if k < M:
        np.multiply(values, sin, out=Y[k * k : row])
    else:
        sin *= values
    Y[row + 1 : row + k + 1] *= cos_m[:k]
