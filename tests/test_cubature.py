import numpy as np
import pytest

from spherefit import (
    CubatureRule,
    HarmonicCoefficients,
    PenalizationWeights,
    SampleSet,
    analyze,
    approx,
    gauss_legendre_nodes,
    gauss_legendre_rule,
    load_rule,
    probe_grid,
    save_rule,
    sph_harm_matrix,
)
from spherefit.harmonics import legendre_matrix

FOUR_PI = 4 * np.pi


class TestGaussLegendreNodes:
    def test_against_numpy(self):
        # independent oracle for the Newton construction
        for n in (1, 2, 3, 5, 8, 12, 31, 61):
            t, v = gauss_legendre_nodes(n)
            t_ref, v_ref = np.polynomial.legendre.leggauss(n)
            assert np.abs(t - t_ref).max() <= 1e-14
            assert np.abs(v - v_ref).max() <= 1e-14

    def test_symmetry_exact(self):
        for n in (4, 7, 31):
            t, v = gauss_legendre_nodes(n)
            assert np.all(t == -t[::-1])
            assert np.all(v == v[::-1])
            if n % 2:
                assert t[n // 2] == 0.0

    def test_weight_sum(self):
        for n in (3, 16, 101):
            _, v = gauss_legendre_nodes(n)
            assert v.sum() == pytest.approx(2.0, abs=1e-13)


class TestGaussLegendreRule:
    def test_degree_zero(self):
        rule = gauss_legendre_rule(0)
        assert rule.n_points == 2
        assert np.all(rule.points[:, 2] == 0.0)  # equator
        assert np.allclose(rule.weights, 2 * np.pi, atol=1e-14)
        assert rule.weights.sum() == pytest.approx(FOUR_PI, abs=1e-12)

    def test_degree_one(self):
        # 2 colatitudes at +-1/sqrt(3) x 4 azimuths; each weight (pi/2)*1
        # (the per-point weight follows from the 1D weights summing to 2 and
        # the total being 4 pi)
        rule = gauss_legendre_rule(1)
        assert rule.n_points == 8
        assert np.allclose(np.abs(rule.points[:, 2]), 1 / np.sqrt(3), atol=1e-15)
        assert np.allclose(rule.weights, np.pi / 2, atol=1e-14)
        assert rule.weights.sum() == pytest.approx(FOUR_PI, abs=1e-12)

    def test_reference_point_count(self):
        assert gauss_legendre_rule(30).n_points == 1922

    def test_point_count_formula(self):
        for M in (0, 3, 11):
            assert gauss_legendre_rule(M).n_points == 2 * (M + 1) ** 2

    def test_weights_positive_and_sum(self):
        for M in (4, 25):
            rule = gauss_legendre_rule(M)
            assert np.all(rule.weights > 0)
            assert abs(rule.weights.sum() - FOUR_PI) <= 1e-10

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            gauss_legendre_rule(-1)


class TestExactness:
    @pytest.mark.parametrize("M", [3, 8])
    def test_random_polynomials(self, M):
        rule = gauss_legendre_rule(M)
        Y = sph_harm_matrix(2 * M, rule.points)
        rng = np.random.default_rng(M)
        for _ in range(25):
            c = rng.normal(size=(2 * M + 1) ** 2)
            approx = rule.weights @ (Y.T @ c)
            exact = np.sqrt(FOUR_PI) * c[0]  # only the constant mode integrates
            assert abs(approx - exact) <= 1e-9 * (1 + np.linalg.norm(c))


class TestIntegrate:
    def test_constant(self):
        rule = gauss_legendre_rule(6)
        assert rule.weights @ np.ones(rule.n_points) == pytest.approx(FOUR_PI, abs=1e-10)

    def test_harmonic_integrates_to_zero(self):
        rule = gauss_legendre_rule(5)
        f = lambda p: sph_harm_matrix(3, p)[10]  # k=3, j=2 -> flat 3^2 + 2 - 1
        assert abs(rule.weights @ f(rule.points)) <= 1e-9

    def test_squared_harmonic_is_one(self):
        rule = gauss_legendre_rule(5)
        f = lambda p: sph_harm_matrix(5, p)[27] ** 2  # (k=5, j=3), degree 10 <= 2M
        assert rule.weights @ f(rule.points) == pytest.approx(1.0, abs=1e-9)


class TestProbeGrid:
    def test_counts(self):
        assert probe_grid(30).shape == (1922, 3)
        assert probe_grid(1).shape == (8, 3)
        assert probe_grid(60).shape == (7442, 3)

    def test_deterministic(self):
        assert np.array_equal(probe_grid(9), probe_grid(9))

    def test_matches_rule_points(self):
        assert np.array_equal(probe_grid(4), gauss_legendre_rule(4).points)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            probe_grid(0)


class TestRuleValidation:
    def test_negative_weight_rejected(self):
        good = gauss_legendre_rule(1)
        w = good.weights.copy()
        w[0] = -w[0]
        with pytest.raises(ValueError):
            CubatureRule(1, good.points, w)

    def test_wrong_sum_rejected(self):
        good = gauss_legendre_rule(1)
        with pytest.raises(ValueError):
            CubatureRule(1, good.points, good.weights * 1.01)

    def test_rules_compare_by_identity(self):
        rule = gauss_legendre_rule(3)
        twin = CubatureRule(3, rule.points.copy(), rule.weights.copy())
        assert rule == rule
        assert not rule == twin
        assert len({rule, twin, rule}) == 2  # hashable, by identity

    def test_off_sphere_rejected(self):
        good = gauss_legendre_rule(1)
        pts = good.points.copy()
        pts[0] *= 1.5
        with pytest.raises(ValueError):
            CubatureRule(1, pts, good.weights)


_RULE1 = gauss_legendre_rule(1)

# every entry point that takes a degree, returning the degree it stored
DEGREE_ENTRY_POINTS = {
    "CubatureRule": lambda d: CubatureRule(d, _RULE1.points, _RULE1.weights).degree_M,
    "HarmonicCoefficients": lambda d: HarmonicCoefficients(d, np.zeros(4)).degree_M,
    "PenalizationWeights": lambda d: PenalizationWeights(d, [1.0, 1.0]).degree_M,
    "gauss_legendre_nodes": lambda d: gauss_legendre_nodes(d)[0].size,  # d nodes
    "gauss_legendre_rule": lambda d: gauss_legendre_rule(d).degree_M,
    "legendre_matrix": lambda d: legendre_matrix(d, [0.5]).shape[1] - 1,  # d+1 columns
    "probe_grid": lambda d: probe_grid(d).shape[0] // 8,  # 2(d+1)^2 points
    "sph_harm_matrix": lambda d: sph_harm_matrix(d, _RULE1.points).shape[0] // 4,  # (d+1)^2 rows
}


@pytest.mark.parametrize("entry", sorted(DEGREE_ENTRY_POINTS))
def test_degree_must_be_whole_number(entry):
    make = DEGREE_ENTRY_POINTS[entry]
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match="must be an integer"):
            make(bad)
    degree = make(1.0)
    assert type(degree) is int and degree == 1


class TestSerialization:
    def test_roundtrip_bitwise(self, tmp_path):
        rule = gauss_legendre_rule(7)
        path = tmp_path / "rule.csv"
        save_rule(rule, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,w"
        back = load_rule(path)
        assert back.degree_M == 7
        assert np.array_equal(back.points, rule.points)
        assert np.array_equal(back.weights, rule.weights)

    def test_loaded_rule_takes_ring_path(self, tmp_path, monkeypatch):
        rule = gauss_legendre_rule(9)
        path = tmp_path / "rule.csv"
        save_rule(rule, path)
        back = load_rule(path)
        assert back.rings is not None and back.rings.azimuths == 20
        assert np.array_equal(back.rings.meridian, rule.rings.meridian)
        assert np.array_equal(back.rings.weights, rule.rings.weights)

        def no_dense(*args):
            raise AssertionError("dense harmonic matrix built for a product rule")

        monkeypatch.setattr(approx, "sph_harm_matrix", no_dense)
        y = np.random.default_rng(3).normal(size=rule.n_points)
        assert np.array_equal(
            analyze(SampleSet(back, y), 9).values, analyze(SampleSet(rule, y), 9).values
        )

    def test_explicit_degree(self, tmp_path):
        rule = gauss_legendre_rule(2)
        path = tmp_path / "rule.csv"
        save_rule(rule, path)
        assert load_rule(path, degree_M=2).degree_M == 2

    def test_overstated_degree_rejected(self, tmp_path):
        # GL(3) is exact to degree 7; degree_M=5 claims exactness to 10
        path = tmp_path / "rule.csv"
        save_rule(gauss_legendre_rule(3), path)
        with pytest.raises(ValueError, match="not exact to degree 10"):
            load_rule(path, degree_M=5)
        assert load_rule(path, degree_M=3).degree_M == 3

    def test_overstated_degree_rejected_for_scattered_rule(self, tmp_path):
        # shuffled rows are no product grid, so the check sums every point
        rule = gauss_legendre_rule(3)
        perm = np.random.default_rng(5).permutation(rule.n_points)
        path = tmp_path / "rule.csv"
        save_rule(CubatureRule(3, rule.points[perm], rule.weights[perm]), path)
        assert load_rule(path, degree_M=3).rings is None
        with pytest.raises(ValueError, match="not exact to degree 8"):
            load_rule(path, degree_M=4)

    def test_swapped_columns_rejected(self, tmp_path):
        # read by position, this file loaded as the mirrored rule
        rule = gauss_legendre_rule(4)
        path = tmp_path / "rule.csv"
        with open(path, "w") as fh:
            fh.write("x2,x1,x3,w\n")
            for (x1, x2, x3), w in zip(rule.points, rule.weights):
                fh.write(f"{x2:.17g},{x1:.17g},{x3:.17g},{w:.17g}\n")
        with pytest.raises(ValueError, match="expected x1,x2,x3,w"):
            load_rule(path)

    @pytest.mark.filterwarnings("error")
    def test_header_without_rows_rejected(self, tmp_path):
        path = tmp_path / "rule.csv"
        path.write_text("x1,x2,x3,w\n")
        with pytest.raises(ValueError, match="no rows"):
            load_rule(path)

    def test_bad_count_needs_degree(self, tmp_path):
        path = tmp_path / "rule.csv"
        rule = gauss_legendre_rule(1)
        with open(path, "w") as fh:
            fh.write("x1,x2,x3,w\n")
            for (x1, x2, x3), w in zip(rule.points[:5], rule.weights[:5]):
                fh.write(f"{x1},{x2},{x3},{w}\n")
        with pytest.raises(ValueError):
            load_rule(path)
