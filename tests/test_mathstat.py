import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import norm_cdf, normal_es
from riskengine.mathstat import (
    chi2_sf,
    empirical_quantile,
    norm_inv_cdf,
    qq_points,
    rolling_quantile,
)

PHI = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def _cdf_by_quadrature(x):
    # integrate the density from 0, exploit symmetry for the other half
    tail, _ = quad(PHI, 0.0, abs(x), epsabs=1e-13)
    return 0.5 + tail if x >= 0 else 0.5 - tail


def _inv_cdf_by_bisection(p, lo=-12.0, hi=12.0):
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormCdf:
    def test_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_symmetry(self):
        for x in [0.1, 0.5, 1.0, 2.5, 4.0]:
            assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_against_quadrature(self):
        assert norm_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        for x in [-3.0, -1.2, 0.3, 1.959964, 2.8]:
            assert norm_cdf(x) == pytest.approx(_cdf_by_quadrature(x), abs=1e-12)

    def test_erfc_identity(self):
        for x in np.linspace(-6, 6, 41):
            assert abs(norm_cdf(x) - 0.5 * math.erfc(-x / math.sqrt(2))) <= 1e-12

    def test_monotone(self):
        xs = np.linspace(-8, 8, 200)
        values = [norm_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestNormInvCdf:
    def test_median(self):
        assert norm_inv_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_against_bisection(self):
        assert norm_inv_cdf(0.05) == pytest.approx(-1.644854, abs=1e-5)
        assert norm_inv_cdf(0.01) == pytest.approx(-2.326348, abs=1e-5)
        for p in [0.001, 0.01, 0.05, 0.3, 0.7, 0.95, 0.999]:
            assert norm_inv_cdf(p) == pytest.approx(_inv_cdf_by_bisection(p), abs=1e-9)

    def test_cdf_residual_small(self):
        for p in [1e-9, 1e-4, 0.025, 0.5, 0.975, 1 - 1e-4, 1 - 1e-9]:
            assert abs(norm_cdf(norm_inv_cdf(p)) - p) <= 1e-9

    def test_round_trip_identity(self):
        for x in np.linspace(-6, 6, 61):
            assert norm_inv_cdf(norm_cdf(x)) == pytest.approx(x, abs=1e-8)

    def test_matches_ndtri(self):
        special = pytest.importorskip("scipy.special")
        levels = [1e-10, 0.001, 0.01, 0.025, 0.05, 0.49999999999999994, 0.5002,
                  0.999999, 1 - 1e-10]
        levels += [(i - 0.5) / 2500 for i in range(1, 2501)]
        for p in levels:
            assert norm_inv_cdf(p) == pytest.approx(float(special.ndtri(p)),
                                                    rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            norm_inv_cdf(p)


class TestEmpiricalQuantile:
    def test_integer_ladder(self):
        xs = list(range(1, 101))
        assert empirical_quantile(xs, 0.05) == 5

    def test_constant_sample(self):
        assert empirical_quantile([3.3] * 17, 0.25) == 3.3

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(21)
        xs = rng.normal(size=1000)
        for p in [0.01, 0.05, 0.1, 0.5, 0.9, 0.999]:
            k = math.ceil(p * len(xs) - 1e-9)
            assert empirical_quantile(xs, p) == sorted(xs)[k - 1]

    def test_result_is_member(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            xs = rng.normal(size=int(rng.integers(1, 60)))
            p = float(rng.uniform(0.01, 0.99))
            assert empirical_quantile(xs, p) in xs

    def test_affine_equivariance(self):
        rng = np.random.default_rng(23)
        xs = rng.normal(size=77)
        for p in [0.05, 0.33, 0.77]:
            q = empirical_quantile(xs, p)
            assert empirical_quantile(2.5 * xs + 1.0, p) == pytest.approx(
                2.5 * q + 1.0, rel=1e-15)

    def test_decimal_levels_hit_intended_rank(self):
        # p*n lands exactly on an integer in exact arithmetic for all of these
        for n, p, k in [(100, 0.05, 5), (200, 0.05, 10), (1000, 0.01, 10),
                        (300, 0.1, 30), (20, 0.25, 5)]:
            xs = np.arange(1, n + 1, dtype=float)
            assert empirical_quantile(xs, p) == k

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 0.0)


def _per_window(xs, m, p):
    return np.array([empirical_quantile(xs[t - m:t], p)
                     for t in range(m, len(xs))])


class TestRollingQuantile:
    def test_matches_per_window_oracle_across_blocks(self):
        # ties and both signed zeros: partitioned 2**17 // 20_000 = 6 windows
        # at a time, so 50 windows span 9 blocks; adding 0.0 leaves only +0.0
        # and one block of all 50 windows (fewer than m // 4) goes through
        # bound-then-select
        rng = np.random.default_rng(24)
        m = 20_000
        signed = np.round(rng.normal(size=m + 50), 1)
        for xs in (signed, signed + 0.0):
            out = rolling_quantile(xs, m, 0.05)
            assert out.tobytes() == _per_window(xs, m, 0.05).tobytes()

    def test_matches_per_window_oracle_across_groups(self):
        # a group holds 2**16 // (m + m//4 - 1) blocks of m // 4 windows, so
        # 30,010 windows span three groups and end in a shifted block; the
        # run of equal values leaves one group too many candidates, which
        # that group alone partitions
        rng = np.random.default_rng(31)
        m = 100
        xs = rng.standard_normal(m + 30_010)
        xs[15_000:16_000] = -3.0
        for p in (0.01, 0.05, 0.25):
            out = rolling_quantile(xs, m, p)
            assert out.tobytes() == _per_window(xs, m, p).tobytes()

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.45])
    @pytest.mark.parametrize("kind", ["continuous", "all-equal", "rounded"])
    def test_scratch_memory_is_bounded(self, kind, p):
        # parent design: about 1 MB; bound-then-select must stay within 4 MB
        n, m = 200_000, 200
        rng = np.random.default_rng(5)
        xs = {"continuous": rng.standard_normal(n),
              "all-equal": np.full(n, 0.25),
              "rounded": np.round(rng.standard_normal(n), 1) + 0.0}[kind]
        tracemalloc.start()
        try:
            out = rolling_quantile(xs, m, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 4 * 2 ** 20

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        xs = np.linspace(-1.0, 1.0, 300)
        xs[150] = bad
        with pytest.raises(ValueError, match="non-finite"):
            rolling_quantile(xs, 100, 0.05)

    def test_errors(self):
        with pytest.raises(ValueError):
            rolling_quantile(np.zeros(20), 20, 0.05)
        with pytest.raises(ValueError):
            rolling_quantile(np.zeros(21), 0, 0.05)
        with pytest.raises(ValueError):
            rolling_quantile(np.zeros(21), 20, 1.0)


class TestChi2Sf:
    def test_survival_at_zero(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(0.0, 2) == 1.0

    def test_critical_values(self):
        assert chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-5)
        assert chi2_sf(5.991465, 2) == pytest.approx(0.05, abs=1e-6)

    def test_df2_closed_form(self):
        for x in [0.0, 0.5, 2.0, 10.0]:
            assert chi2_sf(x, 2) == math.exp(-x / 2.0)

    def test_against_quadrature(self):
        def density(u, df):
            return u ** (df / 2.0 - 1.0) * math.exp(-u / 2.0) / (
                2.0 ** (df / 2.0) * math.gamma(df / 2.0))

        for df in (1, 2):
            for x in [0.2, 1.0, 3.0, 7.5]:
                expected, _ = quad(density, x, np.inf, args=(df,), epsabs=1e-13)
                assert chi2_sf(x, df) == pytest.approx(expected, abs=1e-10)

    def test_df1_tail_matches_scipy(self):
        # 1 - Phi(sqrt(x)) cancels: 1.5e-5 off at 50, exactly 0.0 from ~68.8
        stats = pytest.importorskip("scipy.stats")
        for x in [1.0, 10.0, 33.3, 50.0, 95.0, 200.0]:
            assert chi2_sf(x, 1) == pytest.approx(float(stats.chi2.sf(x, 1)),
                                                  rel=5e-14, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.1, 1)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 3)


class TestQqPoints:
    def test_two_point_symmetric(self):
        points = qq_points([-1.0, 1.0], mean=0.0, sd=1.0)
        z75 = norm_inv_cdf(0.75)
        assert points.theoretical.tolist() == pytest.approx([-z75, z75])
        assert points.empirical.tolist() == [-1.0, 1.0]

    def test_affine_equivariance(self):
        rng = np.random.default_rng(31)
        x = rng.normal(loc=0.2, scale=3.0, size=101)
        mean, sd = float(np.mean(x)), float(np.std(x, ddof=1))
        raw = qq_points(x, mean, sd)
        standardized = qq_points((x - mean) / sd, 0.0, 1.0)
        assert np.allclose(standardized.theoretical,
                           (raw.theoretical - mean) / sd, atol=1e-12)
        assert np.allclose(standardized.empirical, (raw.empirical - mean) / sd)

    def test_simulated_normal_slope_near_one(self):
        rng = np.random.default_rng(32)
        sample = rng.normal(size=10_000)
        points = qq_points(sample, 0.0, 1.0)
        slope = np.polyfit(points.theoretical, points.empirical, 1)[0]
        assert 0.95 <= slope <= 1.05

    def test_coordinates_nondecreasing(self):
        rng = np.random.default_rng(33)
        points = qq_points(rng.normal(size=500), 0.1, 2.0)
        assert np.all(np.diff(points.theoretical) >= 0)
        assert np.all(np.diff(points.empirical) >= 0)
        assert len(points.theoretical) == 500

    def test_bad_sd(self):
        with pytest.raises(ValueError):
            qq_points([1.0, 2.0], 0.0, 0.0)


class TestNormalEs:
    def test_half_tail_closed_form(self):
        assert normal_es(0.5, 1.0) == pytest.approx(-0.797885, abs=1e-6)

    def test_scale_equivariance(self):
        assert normal_es(0.05, 2.0) == pytest.approx(2.0 * normal_es(0.05, 1.0),
                                                     rel=1e-14)

    def test_against_simulation(self):
        rng = np.random.default_rng(34)
        draws = rng.standard_normal(10_000_000)
        k = int(0.01 * draws.size)
        worst = np.partition(draws, k - 1)[:k]
        assert normal_es(0.01, 1.0) == pytest.approx(float(worst.mean()), rel=5e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_es(0.0, 1.0)
        with pytest.raises(ValueError):
            normal_es(0.5, -1.0)
