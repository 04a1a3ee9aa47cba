import numpy as np
import pytest

from _scalar import (
    HarmonicIndex, addition_kernel, legendre_batch, legendre_eval, sph_harm_eval,
    sph_harm_matrix_loop, unit,
)
from _support import random_unit, rotated_rule, traced

from spherefit import (
    CubatureRule, HarmonicCoefficients, PenalizationWeights, SampleSet, evaluate, evaluate_grid,
    franke_cap_eval, gauss_legendre_rule, kernel_section, operator_norm_bound, sph_harm_matrix,
)
from spherefit.approx import evaluate_kernel_form, weighted_abs_legendre_sums
from spherefit.harmonics import legendre_matrix

FOUR_PI = 4 * np.pi


def assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestLegendre:
    def test_degree_zero_is_one(self):
        assert legendre_eval(0, 0.3) == 1.0

    def test_degree_one_is_identity(self):
        assert legendre_eval(1, -0.7) == -0.7

    def test_degree_two_closed_form(self):
        # oracle: P_2(t) = (3 t^2 - 1) / 2
        t = 0.5
        assert legendre_eval(2, t) == pytest.approx((3 * t * t - 1) / 2, abs=1e-15)
        assert legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_batch_at_one(self):
        assert np.allclose(legendre_batch(2, 1.0), [1.0, 1.0, 1.0], atol=0)

    def test_batch_closed_forms(self):
        assert np.allclose(legendre_batch(2, 0.5), [1.0, 0.5, -0.125], atol=1e-15)

    def test_batch_degree_zero(self):
        assert legendre_batch(0, 0.0).tolist() == [1.0]

    def test_batch_matches_eval_exactly(self):
        # same recurrence path, so equality is exact
        rng = np.random.default_rng(7)
        for t in rng.uniform(-1, 1, 5):
            batch = legendre_batch(17, t)
            for k in range(18):
                assert batch[k] == legendre_eval(k, t)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(11)
        ts = np.concatenate([rng.uniform(-1, 1, 200), [-1.0, 1.0, 0.0]])
        for t in ts:
            assert abs(legendre_eval(200, t)) <= 1 + 1e-12
        vals = legendre_batch(200, 0.73)
        assert np.all(np.abs(vals) <= 1 + 1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            legendre_eval(3, 1.001)
        with pytest.raises(ValueError):
            legendre_eval(-1, 0.5)
        with pytest.raises(ValueError, match="non-negative"):
            legendre_matrix(-1, [0.5])

    def test_tiny_overshoot_tolerated(self):
        assert legendre_eval(4, 1 + 5e-15) == legendre_eval(4, 1.0)


# Every entry point that takes points refuses, rather than rescales, input
# off the sphere.  The one-point entries get the last row only.
_RULE, _BETA = gauss_legendre_rule(2), PenalizationWeights(2, [1.0, 2.0, 3.0])
_SAMPLES = SampleSet(_RULE, np.ones(_RULE.n_points))
_POINT_ENTRIES = {
    "evaluate_grid": lambda pts: evaluate_grid(HarmonicCoefficients.zeros(2), pts),
    "evaluate": lambda pts: evaluate(HarmonicCoefficients.zeros(2), pts[-1]),
    "operator_norm_bound": lambda pts: operator_norm_bound(_RULE, 2, 0.1, _BETA, pts),
    "kernel_section": lambda pts: kernel_section(_BETA, pts[-1]),
    "franke_cap_eval": franke_cap_eval,
    "sph_harm_matrix": lambda pts: sph_harm_matrix(2, pts),
    "CubatureRule": lambda pts: CubatureRule(0, pts, np.full(len(pts), FOUR_PI / len(pts))),
    "evaluate_kernel_form": lambda pts: evaluate_kernel_form(_SAMPLES, 2, 0.1, _BETA, pts),
    "weighted_abs_legendre_sums": lambda pts: weighted_abs_legendre_sums(_RULE, 2, pts),
}


def _with_last_row(row):
    return np.array([[0.0, 0.0, 1.0], row])


@pytest.mark.parametrize("entry", _POINT_ENTRIES)
@pytest.mark.parametrize(
    "points, fault",
    [
        (_with_last_row(unit(0.6, 0.8, 0.0) * np.sqrt(1 + 1e-9)), "must lie on the unit sphere"),
        (_with_last_row([np.nan, 0.0, 1.0]), "must be finite"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), r"shape \(3,\) or \(n, 3\), got \((2, )?2,?\)"),
    ],
    ids=["off-sphere", "nan", "two-columns"],
)
def test_points_off_the_sphere_are_refused(entry, points, fault):
    with pytest.raises(ValueError, match=fault):
        _POINT_ENTRIES[entry](points)


@pytest.mark.parametrize("entry", _POINT_ENTRIES)
def test_points_within_rounding_of_the_sphere_are_accepted(entry):
    # |x|^2 - 1 = 1e-13, inside the 1e-12 tolerance
    points = _with_last_row(unit(0.6, 0.8, 0.0) * np.sqrt(1 + 1e-13))
    _POINT_ENTRIES[entry](points)


class TestHarmonicIndex:
    def test_order_bounds(self):
        HarmonicIndex(2, 1)
        HarmonicIndex(2, 5)
        with pytest.raises(ValueError):
            HarmonicIndex(2, 0)
        with pytest.raises(ValueError):
            HarmonicIndex(2, 6)
        with pytest.raises(ValueError):
            HarmonicIndex(-1, 1)

    def test_signed_order_bijection(self):
        for k in range(4):
            ms = [HarmonicIndex(k, j).m for j in range(1, 2 * k + 2)]
            assert ms == list(range(-k, k + 1))

    def test_flat_roundtrip(self):
        for n in range(36):
            idx = HarmonicIndex.from_flat(n)
            assert idx.flat == n


class TestSphHarm:
    def test_constant_mode(self):
        # 1/sqrt(4 pi), forced by orthonormality of the constant
        rng = np.random.default_rng(3)
        for v in random_unit(rng, 4):
            val = sph_harm_eval(HarmonicIndex(0, 1), v)
            assert val == pytest.approx(0.2820947917738781, abs=1e-15)

    def test_zonal_degree_one_at_pole(self):
        val = sph_harm_eval(HarmonicIndex(1, 2), unit(0.0, 0.0, 1.0))
        assert val == pytest.approx(np.sqrt(3 / FOUR_PI), abs=1e-14)
        assert val == pytest.approx(0.4886025119, abs=1e-9)

    def test_zonal_vanishes_on_equator(self):
        assert sph_harm_eval(HarmonicIndex(1, 2), unit(1.0, 0.0, 0.0)) == 0.0

    def test_nonzonal_vanish_at_poles(self):
        Y = sph_harm_matrix(5, [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
        for k in range(6):
            for j in range(1, 2 * k + 2):
                if j != k + 1:
                    assert abs(Y[k * k + j - 1]).max() == 0.0

    def test_orthonormal_under_exact_rule(self):
        for M in (2, 8):
            rule = gauss_legendre_rule(M)
            Y = sph_harm_matrix(M, rule.points)
            gram = (Y * rule.weights) @ Y.T
            assert np.abs(gram - np.eye((M + 1) ** 2)).max() <= 1e-10

    def test_scalar_eval_rejects_several_points(self):
        with pytest.raises(ValueError, match="one point"):
            sph_harm_eval(HarmonicIndex(1, 2), [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])

    @pytest.mark.parametrize("M", [0, 1, 2, 5, 30, 60, 120])
    def test_matrix_is_the_loop_recurrence_bit_for_bit(self, M):
        # vectorized over the orders, the recurrence keeps every floating-point
        # operation of the loop over (degree, order) pairs: on ring meridians
        # with both poles (the ring transform's tables) and scattered points
        poles = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
        meridian = np.vstack([gauss_legendre_rule(M).rings.meridian, poles])
        scattered = random_unit(np.random.default_rng(40 + M), 50)
        for pts in (meridian, scattered):
            assert_same_bits(sph_harm_matrix(M, pts), sph_harm_matrix_loop(M, pts))

    def test_matrix_is_the_loop_recurrence_at_degree_500(self):
        pts = random_unit(np.random.default_rng(500), 5)
        assert_same_bits(sph_harm_matrix(500, pts), sph_harm_matrix_loop(500, pts))

    def test_dense_matrix_memory(self):
        # the recurrence writes its intermediates into rows of the matrix
        # that are not final yet; the azimuth pass after it keeps two (M x n)
        # tables, sqrt(2) cos(m phi) and sqrt(2) sin(m phi), 6% of it at M = 30
        pts = rotated_rule(30, 30).points
        Y, peak, _ = traced(lambda: sph_harm_matrix(30, pts))
        assert peak <= 1.1 * Y.nbytes

    def test_matrix_matches_scalar_eval(self):
        rng = np.random.default_rng(5)
        pts = random_unit(rng, 3)
        Y = sph_harm_matrix(4, pts)
        for n in range(25):
            idx = HarmonicIndex.from_flat(n)
            for i, p in enumerate(pts):
                assert Y[n, i] == pytest.approx(sph_harm_eval(idx, p), abs=1e-15)


class TestAdditionKernel:
    def test_degree_zero(self):
        x = unit(0.3, -0.5, 1.1)
        z = unit(-1.0, 0.2, 0.1)
        assert addition_kernel(0, x, z) == pytest.approx(1 / FOUR_PI, abs=1e-15)

    def test_rejects_several_points(self):
        x = unit(0.0, 0.0, 1.0)
        two = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]
        with pytest.raises(ValueError, match="one point"):
            addition_kernel(2, two, x)
        with pytest.raises(ValueError, match="one point"):
            addition_kernel(2, x, two)

    def test_same_point(self):
        x = unit(0.3, 0.4, 0.5)
        assert addition_kernel(1, x, x) == pytest.approx(3 / FOUR_PI, abs=1e-15)

    def test_orthogonal_degree_two(self):
        x = unit(1.0, 0.0, 0.0)
        z = unit(0.0, 0.0, 1.0)
        # P_2(0) = -1/2
        assert addition_kernel(2, x, z) == pytest.approx(5 / FOUR_PI * -0.5, abs=1e-15)

    def test_addition_theorem(self):
        rng = np.random.default_rng(17)
        xs = random_unit(rng, 30)
        zs = random_unit(rng, 30)
        Yx = sph_harm_matrix(60, xs)
        Yz = sph_harm_matrix(60, zs)
        dots = np.clip(np.einsum("ij,ij->i", xs, zs), -1, 1)
        for k in range(61):
            sl = slice(k * k, (k + 1) ** 2)
            lhs = np.einsum("ji,ji->i", Yx[sl], Yz[sl])
            rhs = np.array([(2 * k + 1) / FOUR_PI * legendre_eval(k, d) for d in dots])
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_depends_only_on_dot_product(self):
        # two pairs sharing the same dot product give the same kernel value
        c = 0.37
        s = np.sqrt(1 - c * c)
        pair1 = (unit(0, 0, 1), unit(s, 0, c))
        pair2 = (unit(1, 0, 0), unit(c, s, 0))
        for k in (1, 5, 12):
            v1 = addition_kernel(k, *pair1)
            v2 = addition_kernel(k, *pair2)
            assert abs(v1 - v2) <= 1e-12


# x3 of the test points: both poles and four near-pole points, where u^m
# underflows so that about half of the entries of Y are exact zeros at
# degree 500, and three points away from the poles
_NEAR_POLE_X3 = (1.0, -1.0, 1 - 1e-15, 1 - 1e-10, 1 - 1e-6, -(1 - 1e-12), 0.3, 0.0, -0.8)


def test_addition_theorem_at_degree_500():
    # sum_j Y_kj(x) Y_kj(y) = (2k+1)/(4 pi) P_k(x . y) for every pair and every k <= 500
    K = 500
    x3 = np.array(_NEAR_POLE_X3)
    phi = 0.7 + 1.3 * np.arange(x3.size)
    u = np.sqrt((1 - x3) * (1 + x3))
    pts = np.column_stack([u * np.cos(phi), u * np.sin(phi), x3])
    Y = sph_harm_matrix(K, pts)
    P = legendre_matrix(K, np.clip(pts @ pts.T, -1.0, 1.0).ravel())
    eps = np.finfo(float).eps
    for k in range(K + 1):
        Yk = Y[k * k : (k + 1) ** 2]
        scale = (2 * k + 1) / FOUR_PI
        # |P_k'| <= k(k+1)/2 on [-1, 1] carries the rounding of the dot products
        bound = 2 * eps * (1 + k * (k + 1) / 2) * scale
        assert np.abs((Yk.T @ Yk).ravel() - scale * P[:, k]).max() <= bound, k
