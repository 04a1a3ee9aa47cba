"""Harmonic transforms, chosen once per point set by `transform`: the ring
transform on a product grid, else the harmonic matrix (`sph_harm_matrix`) one
block of about `_BLOCK_BYTES` at a time.  `analysis` and `synthesis` take
either.

A product grid stores R rings of A points (u_s cos phi_r, u_s sin phi_r, t_s),
phi_r = 2 pi r / A, one after another, with any weights constant along a
ring.  A harmonic sum of degree M factors into sums along each ring against
cos(m phi) and sin(m phi), m = 0..M, and, per order m, a product with that
order's normalized Legendre values at the ring colatitudes (Driscoll & Healy
1994; Schaeffer, arXiv:1202.6522), for any A: two matrix products, O(M^3)
time and memory where the dense matrix costs O(M^4).

A `_RingTable` is laid out as SHTns lays it out, from three parts: the
`degree_layout` of M, the `legendre_part` of M and the ring heights, and the
`trig_table` of M and the azimuth count.  `ring_table` is the one place a
table is assembled, from a layout it is given; a plan (`approx._Plan`)
builds the layout once and lends two whole tables, on the rule's rings and
on the walk's probe rings, which share the rule's Legendre part where the
two ring sets lie at the same heights, as SHTns keeps one configuration per
(degree, grid).  A table has one row per ring: a point set that repeats a ring
height is no product grid to `ring_layout`, so it takes the block path.  The
walk's step (`degree_weighted_sup`) and the `grid` sums
(`weighted_abs_kernel_sums`) read ring tables only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .harmonics import _SQRT2, FOUR_PI, _associated_legendre, basis_size, sph_harm_matrix

# bytes of one block of the harmonic matrix (256-point blocks are slow at low M)
_BLOCK_BYTES = 1 << 24

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
    """Ring structure of (n, 3) unit vectors, or None if they are no product
    grid of rings at distinct heights t (rings at one t share their radius)."""
    n = points.shape[0]
    if n == 0:
        return None
    off_ring = np.flatnonzero(points[:, 2] != points[0, 2])
    A = int(off_ring[0]) if off_ring.size else n
    if n % A:
        return None
    grid = points.reshape(n // A, A, 3)
    meridian, t = grid[:, 0], np.sort(grid[:, 0, 2])
    if np.any(meridian[:, 1] != 0.0) or np.any(meridian[:, 0] < 0.0) or np.any(t[1:] == t[:-1]):
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


class _DegreeLayout(NamedTuple):
    """Where each harmonic of degree <= M sits in a ring table.  The orders
    pair up in S = M // 2 + 1 slots, order i with M' - i, M' = M | 1 (for
    even M order 0 has the empty partner M + 1).  Split by the parity q of
    k + m, a slot's degrees k >= m fill K even and K - 1 odd positions.
    rows[q, i, c, p, j] is the flat index of the harmonic at position j of
    parity q in slot i with azimuth factor cos (c = 0) or sin (c = 1) of the
    slot's order (p = 0) or its partner (p = 1), else (M+1)^2, so
    coefficients extended by one zero and indexed by rows line up with the
    Legendre values.  `position` maps each flat index back into rows.ravel();
    degree[q, i, 0, 0, j] is k."""

    rows: np.ndarray
    position: np.ndarray
    degree: np.ndarray


class _LegendrePart(NamedTuple):
    """Legendre values of a ring table, once per ring height (u, |t|), as
    P_k^m(-t) = (-1)^(k+m) P_k^m(t).  P[q, i, j, h] is sqrt(2) Nbar P_k^m(|t|)
    (Nbar P_k^0(|t|) for m = 0) of position j of parity q in slot i
    (`_DegreeLayout`) at height h, 0 at empty positions.  Ring s lies at row
    ring[s] = side * H + height of the (side, height) axis, its own: side 0
    (t >= 0) reads E + O from the sums E, O over the even and odd positions,
    side 1 reads E - O, and a row without a ring the mirror of its height's."""

    P: np.ndarray
    ring: np.ndarray


class _RingTable(NamedTuple):
    """Operators of the ring transform at degree M on one set of rings: the
    `_DegreeLayout`, the `_LegendrePart`, the `trig_table` and the ring
    weights (None for bare points)."""

    rows: np.ndarray
    position: np.ndarray
    degree: np.ndarray
    P: np.ndarray
    ring: np.ndarray
    trig: np.ndarray
    weights: np.ndarray | None


# E + O and E - O from the sums (E, O) over the even and the odd positions,
# and (E, O) from the sums over a height's rings above and below the equator
_SIDES = np.array([[1.0, 1.0], [1.0, -1.0]])


def _heights(meridian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (H, 2) heights (u, |t|) of the rings with these phi = 0 points,
    which repeat none (`ring_layout`), and each ring's row side * H + height,
    side 1 for t < 0: the rings at (u, t) and (u, -t) share a height."""
    u, t = meridian[:, 0], meridian[:, 2]
    side = np.signbit(t).astype(np.intp)
    key = np.column_stack([u, np.minimum(np.abs(t), 1.0)])
    heights, height = np.unique(key, axis=0, return_inverse=True)
    return heights, side * heights.shape[0] + height.ravel()


def degree_layout(M: int) -> _DegreeLayout:
    """The `_DegreeLayout` of degree M."""
    S, K = M // 2 + 1, M // 2 + 1 + M % 2
    # every harmonic degree k >= order m >= 0: its parity, slot, member and position
    k, m = np.tril_indices(M + 1)
    parity = (k - m) % 2
    member = (m > M // 2).astype(np.intp)
    slot = np.where(member, (M | 1) - m, m)
    j = (k - m) // 2 + member * ((M - slot - parity) // 2 + 1)
    size = basis_size(M)
    rows = np.full((2, S, 2, 2, K), size, dtype=np.intp)
    position = np.empty(size, dtype=np.intp)
    for c, n, harmonic in ((0, k * k + k + m, m >= 0), (1, k * k + k - m, m > 0)):
        where = (parity, slot, np.full_like(k, c), member, j)
        index = np.ravel_multi_index(where, rows.shape)[harmonic]
        rows.ravel()[index] = n[harmonic]
        position[n[harmonic]] = index
    degree = np.zeros((2, S, 1, 1, K), dtype=np.intp)
    degree[parity, slot, 0, 0, j] = k
    for a in (rows, position, degree):
        a.setflags(write=False)
    return _DegreeLayout(rows, position, degree)


def legendre_part(layout: _DegreeLayout, meridian: np.ndarray) -> _LegendrePart:
    """The `_LegendrePart` of the degree of `layout` on the rings at
    `meridian`: bit for bit the values of `sph_harm_matrix`, up to the sign
    (-1)^(k+m) below the equator."""
    heights, ring = _heights(meridian)
    _, S, _, _, K = layout.rows.shape
    M = int(layout.degree.max())
    # the position of each order's cos harmonic, m = 0..k, degree by degree
    q, i, _, _, j = np.unravel_index(layout.position, layout.rows.shape)
    at = (q * S + i) * K + j
    P = np.zeros((2, S, K, heights.shape[0]))
    target = P.reshape(-1, heights.shape[0])
    scale = np.full((M + 1, 1), _SQRT2)
    scale[0] = 1.0
    for deg, values in enumerate(_associated_legendre(M, heights[:, 1], heights[:, 0])):
        target[at[deg * deg + deg : (deg + 1) ** 2]] = values * scale[: deg + 1]
    for a in (P, ring):
        a.setflags(write=False)
    return _LegendrePart(P, ring)


def trig_table(M: int, azimuths: int) -> np.ndarray:
    """trig[c, p * S + i]: cos (c = 0) or sin (c = 1) of m phi_j for the
    order m of slot i and member p (`_DegreeLayout`) at the azimuths
    phi_j = 2 pi j / `azimuths`; the sums by order are laid out (c, p, i)
    to match."""
    i = np.arange(M // 2 + 1)
    orders = np.concatenate([i, (M | 1) - i])
    # m phi_j, reduced mod 2 pi in integers first
    angle = (2.0 * np.pi / azimuths) * (np.outer(orders, np.arange(azimuths)) % azimuths)
    trig = np.stack([np.cos(angle), np.sin(angle)])
    trig.setflags(write=False)
    return trig


def ring_table(layout: _DegreeLayout, rings: RingLayout) -> _RingTable:
    """The operators of the ring transform at the degree M of `layout` on
    these rings: their Legendre part and trig table, built anew."""
    M = int(layout.degree.max())
    legendre = legendre_part(layout, rings.meridian)
    return _RingTable(*layout, *legendre, trig_table(M, rings.azimuths), rings.weights)


def _by_order(sums: np.ndarray) -> np.ndarray:
    """The (2, S, 4, n) view of sums by order laid out (parity, c, p, slot,
    n): the shape of one batched product over the parities and slots with
    the rows (c, p) of a slot, while each half c keeps its orders in the
    (p, slot) order of the trig table."""
    q, c, p, S, n = sums.shape
    return sums.reshape(q, c * p, S, n).transpose(0, 2, 1, 3)


class _HarmonicBlocks(NamedTuple):
    """Harmonic matrix of degree M on weighted or bare (None) points: `each_block(fn)`
    yields fn(slice, matrix) per `chunk` points, so one block's matrix lives at a time."""

    M: int
    points: np.ndarray
    weights: np.ndarray | None
    chunk: int

    def each_block(self, fn):
        for lo in range(0, self.points.shape[0], self.chunk):
            block = slice(lo, lo + self.chunk)
            yield fn(block, sph_harm_matrix(self.M, self.points[block]))


def transform(M: int, points: np.ndarray, rings: RingLayout | None, weights=None):
    """The transform at degree M on these points: the `ring_table` of their
    `rings` (`ring_layout`), else `_HarmonicBlocks` with these `weights`."""
    if rings is not None:
        return ring_table(degree_layout(M), rings)
    return _HarmonicBlocks(M, points, weights, max(1, _BLOCK_BYTES // (8 * basis_size(M))))


def analysis(table, values: np.ndarray) -> np.ndarray:
    """sum_i w_i Y_n(x_i) y_i for every flat index n of degree <= M, on the
    points of a weighted `transform` of degree M."""
    if isinstance(table, _HarmonicBlocks):
        wy = table.weights * values
        return sum(table.each_block(lambda block, Y: Y @ wy[block]))
    S, H, A = table.rows.shape[1], table.P.shape[-1], table.trig.shape[-1]
    # per height: the weighted values of its rings above and below, then
    # their sum and difference, and the sums against cos(m phi) and sin(m phi)
    sides = np.zeros((2 * H, A))
    sides[table.ring] = values.reshape(-1, A) * table.weights[:, None]
    EO = _SIDES @ sides.reshape(2, -1)
    G = np.matmul(table.trig.reshape(-1, A), EO.reshape(2, H, A).transpose(0, 2, 1))
    sums = np.matmul(_by_order(G.reshape(2, 2, 2, S, H)), table.P.transpose(0, 1, 3, 2))
    return sums.ravel()[table.position]


def synthesis(table, coeffs: np.ndarray) -> np.ndarray:
    """Values at the points of a `transform` of degree M of the degree-M
    expansion with these flat coefficients."""
    if isinstance(table, _HarmonicBlocks):
        return np.concatenate([np.empty(0), *table.each_block(lambda _, Y: Y.T @ coeffs)])
    (_, S, _, _, K), H = table.rows.shape, table.P.shape[-1]
    # per order and height: E and O, the amplitudes of cos(m phi) and sin(m phi)
    EO = np.empty((2, 2, 2, S, H))
    lined_up = np.append(coeffs, 0.0)[table.rows]
    np.matmul(lined_up.reshape(2, S, 4, K), table.P, out=_by_order(EO))
    # per height: E and O along the ring, then the rings above and below
    along = EO.reshape(2, -1, H).transpose(0, 2, 1) @ table.trig.reshape(-1, table.trig.shape[-1])
    sides = (_SIDES @ along.reshape(2, -1)).reshape(2 * H, -1)
    return sides[table.ring].ravel()


def degree_weighted_sup(table: _RingTable, coeffs: np.ndarray):
    """w -> max over the grid of a `ring_table` of degree M of
    |sum_k w_k sum_j c_kj Y_kj(x)|.

    `coeffs` holds the flat c_kj and w the per-degree weights w_0..w_M.  Each
    call takes one product with the Legendre values, turns the even- and
    odd-degree sums E, O into E + O and E - O, and forms per ring the cosine
    half C(phi) = sum_m a_m cos(m phi) and the sine half
    S(phi) = sum_m b_m sin(m phi) at phi_j, j = 0..A/2, only: the expansion
    is C + S at phi_j and C - S at phi_(A-j) = -phi_j, so the largest
    |C| + |S| over the table's rows is the maximum over the grid.  Every
    array is allocated once.

    The rings must come in exact +-t pairs, as the walk's probe rings
    (`approx._probe_rings`) do: then the one row without a ring, the far side
    of a ring at t = 0, equals that ring's row, whose odd-parity values are 0.
    """
    (_, S, _, _, K), H = table.rows.shape, table.P.shape[-1]
    half = table.trig.shape[-1] // 2 + 1
    trig = table.trig[:, None, :, :half]
    lined_up = np.append(coeffs, 0.0)[table.rows]
    lhs = np.empty_like(lined_up)
    EO = np.empty((2, 2, 2, S, H))
    sides = np.empty_like(EO)
    # per (cosine or sine half, side): C (or S) at each height and azimuth;
    # |C| + |S| goes to the cosine half
    halves = np.empty((2, 2, H, half))
    lhs4, EO4 = lhs.reshape(2, S, 4, K), _by_order(EO)
    EO2, sides2 = EO.reshape(2, -1), sides.reshape(2, -1)
    orders = sides.reshape(2, 2, 2 * S, H).transpose(1, 0, 3, 2)

    def sup(w: np.ndarray) -> float:
        np.multiply(lined_up, w[table.degree], out=lhs)
        np.matmul(lhs4, table.P, out=EO4)
        np.matmul(_SIDES, EO2, out=sides2)
        np.matmul(orders, trig, out=halves)
        np.abs(halves, out=halves)
        np.add(halves[0], halves[1], out=halves[0])
        return float(halves[0].max())

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

    On `mirrored` rings with even A, the antipode of node r on ring t is node
    r + A/2 on ring -t, of equal weight, so a sum sum_i w_i g(x . x_i) with
    g(-s) = g(s) runs over the rings with t > 0 at weight 2 w_i and the
    rings at t = 0 whole.  Other rules come back unchanged.
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
) -> tuple[np.ndarray, np.ndarray] | None:
    """Classes of probes at which every weighted zonal sum over the rule agrees.

    A sum F(x) = sum_i w_i g(x . x_i) over a product rule with A azimuths per
    ring depends on the azimuth psi of x only through +-psi mod 2 pi / A: on
    probe rings with A' azimuths, the probe at psi = 2 pi q / A' has the key
    min(qA mod A', (A' - qA mod A') mod A').  On a `mirrored` rule F is also
    even in x3, so probe rings of equal radius and |t| share classes.  The
    classes form one ring x azimuth block: returns the first probe ring of
    each ring class and the first azimuth q of each azimuth class, or None
    when the rule (with weights) or the probes are no product grid.
    """
    if rule_rings is None or probe_rings is None:
        return None
    A, Ap = rule_rings.azimuths, probe_rings.azimuths
    shift = np.arange(Ap) * A % Ap
    _, azimuths = np.unique(np.minimum(shift, (Ap - shift) % Ap), return_index=True)
    ring_key = probe_rings.meridian[:, [0, 2]]
    if mirrored(rule_rings):
        ring_key[:, 1] = np.abs(ring_key[:, 1])
    _, rings = np.unique(ring_key, axis=0, return_index=True)
    return rings, azimuths


def ring_points(meridian: np.ndarray, azimuths: int, q=None) -> np.ndarray:
    """Points at the azimuths 2 pi q / `azimuths` (every one when q is None)
    on the rings whose phi = 0 points are `meridian`, ring-major."""
    phi = 2.0 * np.pi * (np.arange(azimuths) if q is None else q) / azimuths
    u, t = meridian[:, 0:1], meridian[:, 2:3]
    points = np.broadcast_arrays(u * np.cos(phi), u * np.sin(phi), t)
    return np.stack(points, axis=-1).reshape(-1, 3)


def weighted_abs_kernel_sums(
    rule: _RingTable, probe: _RingTable, rings, azimuths, coefs: np.ndarray
) -> np.ndarray:
    """sum_i w_i |sum_k c_k P_k(x . x_i)| over the rule on a block of probes.

    `rule` and `probe` are the degree-M ring tables of the rule's rings and
    of the probe rings, `coefs` the c_k.  Entry (i, j) is the sum at the
    probe on ring rings[i] at azimuth index azimuths[j].  By the addition
    theorem the kernel between probe ring p at azimuth psi and rule ring s
    at azimuth phi is sum_m a_m(p, s) cos(m (psi - phi)), with
    a_m(p, s) = sum_k c_k 4 pi / (2k+1) P_k^m(t_p) P_k^m(t_s) in the tables'
    normalization.  Per probe ring, one batched product over the parities
    and slots of the two tables gives the even- and odd-degree parts E, O
    of every a_m at every rule height (a_m = E + O on the probe's side of
    the equator, E - O across it), and one product with cos(m (psi_j - phi_r))
    the kernel at every (probe azimuth, rule node) pair: O(R M K A) time per
    probe ring for R rule rings and K probe azimuths, for any A.
    """
    M = coefs.size - 1
    A = rule.trig.shape[-1]
    d = FOUR_PI / (2 * np.arange(M + 1) + 1) * coefs
    # d_k at each position, kept where it belongs to the slot's order (p = 0)
    # or to its partner (p = 1)
    S, H = rule.P.shape[1], rule.P.shape[-1]
    weight = d[rule.degree[:, :, 0]] * (rule.rows[:, :, 0] < d.size**2)
    (cos_psi, sin_psi), (cos_phi, sin_phi) = probe.trig[:, :, azimuths, None], rule.trig[:, :, None]
    # row m, column (j, r): cos(m (psi_j - phi_r)) by the angle-sum formula
    cos_table = (cos_psi * cos_phi + sin_psi * sin_phi).reshape(cos_phi.shape[0], -1)
    EO = np.empty((2, 2, S, H))
    EO4 = EO.transpose(0, 2, 1, 3)
    side, height = np.divmod(rule.ring, H)
    probe_side, probe_height = np.divmod(probe.ring[rings], probe.P.shape[-1])
    out = np.empty((rings.size, azimuths.size))
    for p_side, p_height, row in zip(probe_side, probe_height, out):
        np.matmul(weight * probe.P[:, :, None, :, p_height], rule.P, out=EO4)
        sides = (_SIDES @ EO.reshape(2, -1)).reshape(2, 2 * S, H)
        V = sides[side ^ p_side, :, height] @ cos_table
        np.abs(V, out=V)
        row[:] = (rule.weights @ V).reshape(azimuths.size, A).sum(axis=1)
    return out
