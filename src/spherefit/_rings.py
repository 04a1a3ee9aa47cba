"""Ring transform: fast analysis and synthesis on product grids.

A product grid stores R rings one after another.  Ring s holds A points
(u_s cos phi_r, u_s sin phi_r, t_s) at the equispaced azimuths
phi_r = 2 pi r / A, r = 0..A-1, and any weights are constant along a ring.
Gauss-Legendre rules and probe grids are of this kind.

For A > 2M a harmonic sum of degree M factors into an FFT along each ring
and, per order m, a product with that order's normalized Legendre values at
the ring colatitudes (Driscoll & Healy 1994; Schaeffer, arXiv:1202.6522).
That costs O(M^3) time and memory where the dense harmonic matrix costs
O(M^4).  The Legendre values are taken from `sph_harm_matrix` on one point
per ring at phi = 0, where row k^2+k+m holds sqrt(2) Nbar P_k^m(t_s) for
m > 0 and Nbar P_k^0(t_s) for m = 0: the values the transform needs, built
by the same recurrence as the dense path.

`probe_classes` groups probe points at which the sup-norm kernel sums over
a product rule agree, so that those sums are evaluated once per group.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .harmonics import basis_size, sph_harm_matrix

# largest coordinate deviation from the ideal ring positions, and relative
# weight deviation along a ring, still accepted as a product grid
_RING_TOL = 1e-14


class RingLayout(NamedTuple):
    """Rings of a product grid: the phi = 0 point of each ring, the ring
    weights (None for a bare point set) and the azimuth count A."""

    meridian: np.ndarray
    weights: np.ndarray | None
    azimuths: int

    def supports(self, M: int) -> bool:
        """Whether the rings resolve every order m <= M (A > 2M)."""
        return self.azimuths > 2 * M


def ring_layout(points: np.ndarray, weights: np.ndarray | None = None) -> RingLayout | None:
    """Ring structure of (n, 3) unit vectors, or None if they are no product grid."""
    n = points.shape[0]
    if n == 0:
        return None
    t = points[:, 2]
    off_ring = np.flatnonzero(t != t[0])
    A = int(off_ring[0]) if off_ring.size else n
    if n % A:
        return None
    grid = points.reshape(n // A, A, 3)
    meridian = grid[:, 0]
    if np.any(meridian[:, 1] != 0.0) or np.any(meridian[:, 0] < 0.0):
        return None
    phi = 2.0 * np.pi * np.arange(A) / A
    u = meridian[:, 0:1]
    if (
        np.abs(grid[:, :, 0] - u * np.cos(phi)).max() > _RING_TOL
        or np.abs(grid[:, :, 1] - u * np.sin(phi)).max() > _RING_TOL
        or np.abs(grid[:, :, 2] - meridian[:, 2:3]).max() > _RING_TOL
    ):
        return None
    ring_w = None
    if weights is not None:
        w = weights.reshape(n // A, A)
        ring_w = w[:, 0].copy()
        if np.any(np.abs(w - ring_w[:, None]) > _RING_TOL * ring_w[:, None]):
            return None
        ring_w.setflags(write=False)
    meridian = meridian.copy()
    meridian.setflags(write=False)
    return RingLayout(meridian, ring_w, A)


@functools.lru_cache(maxsize=4)
def _legendre_table(M: int, meridian: bytes) -> tuple:
    """Per order m: flat rows of the +m and -m harmonics of degrees m..M, and
    the (M+1-m, R) Legendre values at the rings.  Memoized by degree and rings."""
    Y = sph_harm_matrix(M, np.frombuffer(meridian).reshape(-1, 3))
    table = []
    for m in range(M + 1):
        k = np.arange(m, M + 1)
        plus, minus = k * k + k + m, k * k + k - m
        P = Y[plus]
        P.setflags(write=False)
        table.append((plus, minus, P))
    return tuple(table)


def _table(M: int, rings: RingLayout) -> tuple:
    return _legendre_table(M, rings.meridian.tobytes())


def analysis(rings: RingLayout, M: int, values: np.ndarray) -> np.ndarray:
    """sum_i w_i Y_n(x_i) y_i for every flat index n of degree <= M.

    Needs ring weights and `rings.supports(M)`.
    """
    R = rings.meridian.shape[0]
    F = np.fft.rfft(values.reshape(R, rings.azimuths), axis=1)[:, : M + 1]
    F *= rings.weights[:, None]
    # column pairs (Re, Im) per order: the sums of y cos(m phi) and -y sin(m phi)
    F = F.view(np.float64)
    out = np.empty(basis_size(M))
    for m, (plus, minus, P) in enumerate(_table(M, rings)):
        G = P @ F[:, 2 * m : 2 * m + 2]
        out[plus] = G[:, 0]
        if m:
            out[minus] = -G[:, 1]
    return out


def synthesis(rings: RingLayout, M: int, coeffs: np.ndarray) -> np.ndarray:
    """Values at the grid points of the degree-M expansion with these
    flat coefficients.  Needs `rings.supports(M)`."""
    R = rings.meridian.shape[0]
    Z = np.zeros((R, rings.azimuths // 2 + 1), dtype=np.complex128)
    Zr = Z.view(np.float64)
    for m, (plus, minus, P) in enumerate(_table(M, rings)):
        # ring term a cos(m phi) + b sin(m phi) enters the inverse rFFT as (a - ib)/2
        Zr[:, 2 * m] = coeffs[plus] @ P
        if m:
            Zr[:, 2 * m + 1] = -(coeffs[minus] @ P)
    Z[:, 1:] *= 0.5
    return np.fft.irfft(Z, n=rings.azimuths, axis=1, norm="forward").ravel()


def probe_classes(
    rule_rings: RingLayout | None, probe_rings: RingLayout | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """Classes of probes at which every weighted zonal sum over the rule agrees.

    A sum F(x) = sum_i w_i g(x . x_i) over a product rule with A azimuths per
    ring depends on the azimuth psi of x only through +-psi mod 2 pi / A.  On
    probe rings with A' azimuths, the probe at psi = 2 pi q / A' therefore
    has the key min(qA mod A', (A' - qA mod A') mod A').  When the rule's
    rings come in exact mirror pairs (t, -t) of equal radius and weight, F is
    also even in x3, so probe rings of equal radius and |t| share classes.

    Returns (representatives, inverse): the index of one probe per class,
    and for each probe the position of its class in `representatives`.
    Returns None when the rule (with weights) or the probes are no product
    grid.
    """
    if rule_rings is None or probe_rings is None:
        return None
    A, Ap = rule_rings.azimuths, probe_rings.azimuths
    shift = np.arange(Ap) * A % Ap
    _, az_class = np.unique(np.minimum(shift, (Ap - shift) % Ap), return_inverse=True)
    ring_key = probe_rings.meridian[:, [0, 2]]
    rule = np.column_stack([rule_rings.meridian[:, [0, 2]], rule_rings.weights])
    mirror = rule * [1.0, -1.0, 1.0]
    if np.array_equal(rule[np.lexsort(rule.T)], mirror[np.lexsort(mirror.T)]):
        ring_key[:, 1] = np.abs(ring_key[:, 1])
    _, ring_class = np.unique(ring_key, axis=0, return_inverse=True)
    key = ring_class.reshape(-1, 1) * (az_class.max() + 1) + az_class
    _, representatives, inverse = np.unique(key, return_index=True, return_inverse=True)
    return representatives, inverse.ravel()
