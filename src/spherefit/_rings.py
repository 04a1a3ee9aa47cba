"""Ring transform: fast analysis and synthesis on product grids.

A product grid stores R rings one after another.  Ring s holds A points
(u_s cos phi_r, u_s sin phi_r, t_s) at the equispaced azimuths
phi_r = 2 pi r / A, r = 0..A-1, and any weights are constant along a ring.
Gauss-Legendre rules and probe grids are of this kind.

A harmonic sum of degree M factors into sums along each ring against
cos(m phi) and sin(m phi), m = 0..M, and, per order m, a product with that
order's normalized Legendre values at the ring colatitudes (Driscoll & Healy
1994; Schaeffer, arXiv:1202.6522), for any A: a product rule needs A > 2M
to be exact, the transform does not.  Both stages are
matrix products here.  Synthesis lines the coefficients up by order, takes
one batched product over the orders with the zero-padded (M+1, M+1, R)
Legendre table, and one product of the ring amplitudes with the
(2(M+1), A) table of cos(m phi_j) and sin(m phi_j); analysis is the
transpose.  That costs O(M^3) time and memory where the dense harmonic
matrix costs O(M^4).  At the degrees this package runs, a ring holds
A = 2(M+1) points, often twice a prime, so the products beat an FFT along
the rings and a loop over the orders.  The Legendre values are taken from
`sph_harm_matrix` on one point per ring at phi = 0, where row k^2+k+m holds
sqrt(2) Nbar P_k^m(t_s) for m > 0 and Nbar P_k^0(t_s) for m = 0: the values
the transform needs, built by the same recurrence as the dense path.  That
recurrence takes all orders of one degree in one vectorized step, so a table
costs O(M) numpy steps on vectors of R ring heights, not one step per
(degree, order) pair.

`degree_weighted_sup` gives each step of the balancing walk, the sup norm
of a degree-weighted expansion, from the cosine and sine halves of every
ring on half its azimuths, without synthesizing the expansion.

`probe_classes` groups the probe points at which the sup-norm kernel sums
over a product rule agree.  The groups form one ring x azimuth block (ring
classes times azimuth classes), found in one place, `approx._norm_oracle`,
once per oracle it builds.  `weighted_abs_kernel_sums` evaluates the `grid`
sums on that block, one per group, by the addition theorem with the same
Legendre table; the `grid-abs` table takes one row per group from
`approx.weighted_abs_legendre_sums` at the points `ring_points` builds from
the group's ring and azimuth.  A balancing walk takes every sup norm, its
step differences and its operator norms, on one probe layout
(`params._probe_rings`) and forms no probe point: the rings of the probe
grid, at a multiple of the rule's azimuth count A.  Its azimuths then fall
into the offsets 0 to pi/A from the rule's, two of them at the default
resolution 2M, so on gauss_legendre_rule(M) 2(M+1) groups remain where
probe_grid(2M) leaves (M+1)^2.
`antipodal_half` keeps one node of each antipodal pair of a mirrored rule
for sums whose terms are even in x . x_i, such as the `grid-abs` table.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .harmonics import FOUR_PI, basis_size, sph_harm_matrix

# largest coordinate deviation from the ideal ring positions, and relative
# weight deviation along a ring, still accepted as a product grid
_RING_TOL = 1e-14


class RingLayout(NamedTuple):
    """Rings of a product grid: the phi = 0 point of each ring, the ring
    weights (None for a bare point set) and the azimuth count A."""

    meridian: np.ndarray
    weights: np.ndarray | None
    azimuths: int


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


class _RingTable(NamedTuple):
    """Operators of the ring transform at degree M on one set of rings.

    P[m, k, s] holds the Legendre values of order m and degree k at ring s
    (zero for k < m).  rows[m, 0, k] and rows[m, 1, k] are the flat indices
    of the +m and -m harmonics of degree k, so that coeffs[rows] lines the
    coefficients up with P; `position` maps each flat index back into
    rows.ravel().  trig holds cos(m phi_j) in row 2m and sin(m phi_j) in
    row 2m+1 for the A ring azimuths phi_j."""

    P: np.ndarray
    rows: np.ndarray
    position: np.ndarray
    trig: np.ndarray


@functools.lru_cache(maxsize=4)
def _legendre_table(M: int, meridian: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transform's P, rows and position, memoized by degree and rings.

    They do not depend on the azimuth count, so point sets on the same rings
    (the probe grid and a balancing walk's probe layout) share one table."""
    k, m, sign = np.arange(M + 1), np.arange(M + 1)[:, None, None], np.array([[1], [-1]])
    # entries with k < m point at row 0 and meet the zeros of P there
    rows = (k * k + k + sign * m) * (k >= m)
    # P is Y reordered in place, so the table costs no second copy.  First
    # degree-major, row k(M+1)+m = Y row k^2+k+m for m <= k and zero above:
    # degree k's rows only move up, so going down from k = M overwrites only
    # rows already moved.  Then swap the blocks (k, m) and (m, k).
    Y = sph_harm_matrix(M, np.frombuffer(meridian).reshape(-1, 3))
    for deg in range(M, -1, -1):
        top = deg * (M + 1)
        Y[top : top + deg + 1] = Y[deg * deg + deg : deg * deg + 2 * deg + 1]
        Y[top + deg + 1 : top + M + 1] = 0.0
    P = Y.reshape(M + 1, M + 1, -1)
    for deg in range(1, M + 1):
        below = P[deg, :deg].copy()
        P[deg, :deg] = P[:deg, deg]
        P[:deg, deg] = below
    # order 0 has no -m harmonic: its sin(0 phi) row is zero
    used = (k >= m) & ((sign > 0) | (m > 0))
    position = np.empty(basis_size(M), dtype=np.intp)
    position[rows[used]] = np.flatnonzero(used)
    for a in (P, rows, position):
        a.setflags(write=False)
    return P, rows, position


@functools.lru_cache(maxsize=4)
def _trig_table(M: int, azimuths: int) -> np.ndarray:
    """cos(m phi_j) in row 2m and sin(m phi_j) in row 2m+1, memoized."""
    cos, sin = _trig_columns(np.arange(azimuths), azimuths, M)
    trig = np.stack([cos, sin], axis=1).reshape(2 * (M + 1), azimuths)
    trig.setflags(write=False)
    return trig


def _table(M: int, rings: RingLayout) -> _RingTable:
    return _RingTable(*_legendre_table(M, rings.meridian.tobytes()), _trig_table(M, rings.azimuths))


def analysis(rings: RingLayout, M: int, values: np.ndarray) -> np.ndarray:
    """sum_i w_i Y_n(x_i) y_i for every flat index n of degree <= M.

    Needs ring weights.
    """
    P, _, position, trig = _table(M, rings)
    R = rings.meridian.shape[0]
    # rows (2m, 2m+1): the weighted ring sums of y cos(m phi) and y sin(m phi)
    G = trig @ values.reshape(R, rings.azimuths).T
    G *= rings.weights
    H = np.matmul(G.reshape(M + 1, 2, R), P.transpose(0, 2, 1))
    return H.ravel()[position]


def synthesis(rings: RingLayout, M: int, coeffs: np.ndarray) -> np.ndarray:
    """Values at the grid points of the degree-M expansion with these
    flat coefficients."""
    P, rows, _, trig = _table(M, rings)
    R = rings.meridian.shape[0]
    # per order m and ring: the amplitudes of cos(m phi) and sin(m phi)
    B = np.matmul(coeffs[rows], P)
    return (B.reshape(2 * (M + 1), R).T @ trig).ravel()


def degree_weighted_sup(rings: RingLayout, M: int, coeffs: np.ndarray):
    """w -> max over the grid of |sum_k w_k sum_j c_kj Y_kj(x)|.

    `coeffs` holds the flat c_kj and w the per-degree weights w_0..w_M.  The
    coefficients are lined up by order once; each call takes one product
    over the orders with the Legendre table, then, per ring, the cosine half
    C(phi) = sum_m a_m cos(m phi) and the sine half S(phi) = sum_m b_m sin(m phi)
    at the azimuths phi_j, j = 0..A/2, only.  As phi_(A-j) = -phi_j, the
    expansion is C + S at phi_j and C - S at phi_(A-j), so the largest
    |C| + |S| is the maximum over the whole ring, for any azimuth count A.
    """
    P, rows, _, trig = _table(M, rings)
    half = rings.azimuths // 2 + 1
    cos, sin = trig[0::2, :half], trig[1::2, :half]
    lined_up = coeffs[rows]

    def sup(w: np.ndarray) -> float:
        B = np.matmul(lined_up * w, P)
        C = B[:, 0].T @ cos
        S = B[:, 1].T @ sin
        np.abs(C, out=C)
        C += np.abs(S, out=S)
        return float(C.max())

    return sup


def mirrored(rings: RingLayout) -> bool:
    """Whether weighted rings come in exact mirror pairs (t, -t) of equal
    radius and weight; a ring at t = 0 is its own mirror."""
    rule = np.column_stack([rings.meridian[:, [0, 2]], rings.weights])
    mirror = rule * [1.0, -1.0, 1.0]
    return np.array_equal(rule[np.lexsort(rule.T)], mirror[np.lexsort(mirror.T)])


def antipodal_half(
    rings: RingLayout | None, points: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One node of each antipodal pair of a rule, with the pair's weight.

    When a product rule's rings are `mirrored` and A is even, the antipode
    of the node at azimuth index r on ring t is the node at index r + A/2 on
    ring -t, of equal weight.  A sum sum_i w_i g(x . x_i) with g(-s) = g(s)
    is then the sum over the rings with t > 0 at weight 2 w_i, plus the
    rings at t = 0 whole.  Returns those nodes and weights, or the inputs
    unchanged for other rules.
    """
    if rings is None or rings.azimuths % 2 or not mirrored(rings):
        return points, weights
    t = rings.meridian[:, 2]
    keep = t >= 0.0
    A = rings.azimuths
    half = points.reshape(-1, A, 3)[keep].reshape(-1, 3)
    share = weights.reshape(-1, A)[keep] * np.where(t[keep] > 0.0, 2.0, 1.0)[:, None]
    return half, share.ravel()


def probe_classes(
    rule_rings: RingLayout | None, probe_rings: RingLayout | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Classes of probes at which every weighted zonal sum over the rule agrees.

    A sum F(x) = sum_i w_i g(x . x_i) over a product rule with A azimuths per
    ring depends on the azimuth psi of x only through +-psi mod 2 pi / A.  On
    probe rings with A' azimuths, the probe at psi = 2 pi q / A' therefore
    has the key min(qA mod A', (A' - qA mod A') mod A').  When the rule's
    rings come in exact mirror pairs (t, -t) of equal radius and weight, F is
    also even in x3, so probe rings of equal radius and |t| share classes.

    The two keys are independent, so the classes form one ring x azimuth
    block.  Returns (rings, azimuths, inverse): the first probe ring of each
    ring class, the first azimuth q of each azimuth class, and for each probe
    the index i * azimuths.size + j of its class, i the class of its ring and
    j that of its azimuth.  The probe at (rings[i], azimuths[j]) represents
    class (i, j).  Returns None when the rule (with weights) or the probes
    are no product grid.
    """
    if rule_rings is None or probe_rings is None:
        return None
    A, Ap = rule_rings.azimuths, probe_rings.azimuths
    shift = np.arange(Ap) * A % Ap
    _, azimuths, az_class = np.unique(
        np.minimum(shift, (Ap - shift) % Ap), return_index=True, return_inverse=True
    )
    ring_key = probe_rings.meridian[:, [0, 2]]
    if mirrored(rule_rings):
        ring_key[:, 1] = np.abs(ring_key[:, 1])
    _, rings, ring_class = np.unique(ring_key, axis=0, return_index=True, return_inverse=True)
    inverse = ring_class.reshape(-1, 1) * azimuths.size + az_class
    return rings, azimuths, inverse.ravel()


def ring_points(meridian: np.ndarray, azimuths: int, q=None) -> np.ndarray:
    """Points at the azimuths 2 pi q / `azimuths` (every one when q is None)
    on the rings whose phi = 0 points are `meridian`, ring-major."""
    phi = 2.0 * np.pi * (np.arange(azimuths) if q is None else q) / azimuths
    u, t = meridian[:, 0:1], meridian[:, 2:3]
    points = np.broadcast_arrays(u * np.cos(phi), u * np.sin(phi), t)
    return np.stack(points, axis=-1).reshape(-1, 3)


def _trig_columns(q: np.ndarray, n: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of m * 2 pi q / n, shape (M+1, len(q)), with the angle
    reduced mod 2 pi in integers first."""
    angle = (2.0 * np.pi / n) * (np.outer(np.arange(M + 1), q) % n)
    return np.cos(angle), np.sin(angle)


def weighted_abs_kernel_sums(
    rule_rings: RingLayout, probe_rings: RingLayout, rings, azimuths, coefs: np.ndarray
) -> np.ndarray:
    """sum_i w_i |sum_k c_k P_k(x . x_i)| over the rule on a block of probes.

    `coefs` holds the c_k, k = 0..M.  Entry (i, j) of the returned
    (rings.size, azimuths.size) block is the sum at the probe on probe ring
    rings[i] at azimuth index azimuths[j]; on the representatives of
    `probe_classes`, found once by the caller, that is one sum per class.
    By the addition theorem, the kernel between probe ring p at
    azimuth psi and rule ring s at azimuth phi is
    sum_m a_m(p, s) cos(m (psi - phi)) with
    a_m(p, s) = sum_k c_k 4 pi / (2k+1) P[m, k, p] P[m, k, s], where P is
    the ring table's Legendre table (which carries the sqrt(2) for m > 0),
    so one batched product over the orders gives every a_m.
    With the (M+1, K, A) table of cos(m (psi_j - phi_r)) over the K probe
    azimuths psi_j in use and the A rule azimuths phi_r, one matrix product
    per probe ring gives the kernel at every (probe azimuth, rule node) pair
    of that ring: O(R M K A) time per probe ring for R rule rings, and no
    condition on A.
    """
    M = coefs.size - 1
    R, A = rule_rings.meridian.shape[0], rule_rings.azimuths
    d = FOUR_PI / (2 * np.arange(M + 1) + 1) * coefs
    rule_table = _table(M, rule_rings)
    probe_P = _legendre_table(M, probe_rings.meridian.tobytes())[0]
    # a[p, s, m] = a_m(p, s); the zeros of P for k < m add nothing
    a = np.matmul(probe_P[:, :, rings].transpose(0, 2, 1) * d, rule_table.P)
    a = np.ascontiguousarray(a.transpose(1, 2, 0))
    cos_psi, sin_psi = _trig_columns(azimuths, probe_rings.azimuths, M)
    cos_phi, sin_phi = rule_table.trig[0::2], rule_table.trig[1::2]
    # row m, column (j, r): cos(m (psi_j - phi_r)) by the angle-sum formula
    cos_table = np.empty((M + 1, azimuths.size * A))
    for m in range(M + 1):
        cos_table[m] = (
            np.outer(cos_psi[m], cos_phi[m]) + np.outer(sin_psi[m], sin_phi[m])
        ).ravel()
    V = np.empty((R, cos_table.shape[1]))
    out = np.empty((rings.size, azimuths.size))
    for a_p, row in zip(a, out):
        np.matmul(a_p, cos_table, out=V)
        np.abs(V, out=V)
        row[:] = (rule_rings.weights @ V).reshape(azimuths.size, A).sum(axis=1)
    return out
