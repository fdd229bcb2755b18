import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskengine.backtest import (
    BreachSeries,
    TransitionCounts,
    breach_frequency,
    breaches,
    evaluate,
    lr_conditional,
    lr_independence,
    lr_unconditional,
    transition_counts,
)
from riskengine.errors import DataError
from riskengine.mathstat import chi2_sf
from riskengine.var_engine import VarSeries


def _dates(n, start=0):
    return tuple(date.fromordinal(737000 + start + i) for i in range(n))


def _breach(flags):
    return BreachSeries(dates=_dates(len(flags)), indicator=np.asarray(flags))


def _var_series(realized, var, level=0.05):
    realized = np.asarray(realized, float)
    return VarSeries(dates=_dates(len(realized)), realized=realized,
                     var=np.asarray(var, float), method="hs", level=level)


def brute_force_independence(flags):
    """Term-by-term likelihood evaluation (L0, L1 as literal products)."""
    flags = list(flags)
    n00 = n01 = n10 = n11 = 0
    for prev, curr in zip(flags, flags[1:]):
        n00 += prev == 0 and curr == 0
        n01 += prev == 0 and curr == 1
        n10 += prev == 1 and curr == 0
        n11 += prev == 1 and curr == 1
    if n00 + n01 == 0 or n10 + n11 == 0:
        return None
    total = n00 + n01 + n10 + n11
    p_hat = (n01 + n11) / total
    pi0 = n01 / (n00 + n01)
    pi1 = n11 / (n10 + n11)
    l0 = (1 - p_hat) ** (n00 + n10) * p_hat ** (n01 + n11)
    l1 = ((1 - pi0) ** n00 * pi0 ** n01 * (1 - pi1) ** n10 * pi1 ** n11)
    return -2.0 * math.log(l0 / l1)


class TestBreachSeries:
    @pytest.mark.parametrize("flags", [[0, 2, 1], [-1, 0], [0.5, 1.9, 0.0],
                                       [1.0, 0.999]])
    def test_rejects_values_other_than_zero_and_one(self, flags):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            _breach(flags)

    def test_accepts_bool_and_integral_float_flags(self):
        assert _breach([True, False]).indicator.tolist() == [1, 0]
        assert _breach([1.0, 0.0, 1.0]).indicator.tolist() == [1, 0, 1]

    def test_length_mismatch_is_data_error(self):
        with pytest.raises(DataError, match="differ in length"):
            BreachSeries(dates=_dates(2), indicator=np.array([0, 1, 0]))


class TestBreaches:
    def test_definitional(self):
        b = breaches(_var_series([-0.05], [-0.02]))
        assert b.indicator.tolist() == [1]

    def test_tie_is_not_a_breach(self):
        b = breaches(_var_series([-0.02], [-0.02]))
        assert b.indicator.tolist() == [0]

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(71)
        realized = rng.normal(size=500)
        var = rng.normal(size=500)
        got = breaches(_var_series(realized, var)).indicator
        expected = [1 if r < v else 0 for r, v in zip(realized, var)]
        assert got.tolist() == expected


class TestBreachFrequency:
    def test_all_zeros(self):
        assert breach_frequency(_breach([0] * 10)) == 0.0

    def test_one_in_ten(self):
        assert breach_frequency(_breach([1] + [0] * 9)) == pytest.approx(0.1)

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(72)
        flags = (rng.random(5000) < 0.07).astype(int)
        assert breach_frequency(_breach(flags)) == pytest.approx(
            flags.sum() / len(flags), rel=1e-15)

    def test_concatenation_is_weighted_mean(self):
        rng = np.random.default_rng(73)
        a = (rng.random(300) < 0.1).astype(int)
        b = (rng.random(700) < 0.02).astype(int)
        fa = breach_frequency(_breach(a))
        fb = breach_frequency(_breach(b))
        combined = breach_frequency(_breach(np.concatenate([a, b])))
        assert combined == pytest.approx((300 * fa + 700 * fb) / 1000, rel=1e-12)


class TestTransitionCounts:
    def test_hand_enumerated(self):
        got = transition_counts(_breach([0, 0, 0, 1, 0, 0, 1, 0]))
        assert (got.n00, got.n01, got.n10, got.n11) == (3, 2, 2, 0)

    def test_all_zeros(self):
        got = transition_counts(_breach([0] * 12))
        assert (got.n00, got.n01, got.n10, got.n11) == (11, 0, 0, 0)

    def test_alternating(self):
        k = 6
        got = transition_counts(_breach([0, 1] * k))
        assert got.n01 == k
        assert got.n10 == k - 1
        assert got.n00 == got.n11 == 0

    def test_matches_pairwise_scan(self):
        rng = np.random.default_rng(74)
        flags = (rng.random(400) < 0.3).astype(int)
        got = transition_counts(_breach(flags))
        scan = {"00": 0, "01": 0, "10": 0, "11": 0}
        for prev, curr in zip(flags, flags[1:]):
            scan[f"{prev}{curr}"] += 1
        assert (got.n00, got.n01, got.n10, got.n11) == (
            scan["00"], scan["01"], scan["10"], scan["11"])
        assert got.total == len(flags) - 1


class TestLrIndependence:
    def test_zero_when_transition_rates_match(self):
        stat, p = lr_independence(TransitionCounts(n00=4, n01=1, n10=4, n11=1))
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_single_leading_breach_is_positive_zero(self):
        # the sequence 1, 0, 0, ...: both likelihoods agree, LR is -0.0 raw
        stat, p = lr_independence(TransitionCounts(n00=10, n01=0, n10=1, n11=0))
        assert stat == 0.0 and math.copysign(1.0, stat) == 1.0
        assert p == 1.0

    def test_matches_direct_likelihoods(self):
        flags = [0, 0, 0, 1, 0, 0, 1, 0]
        stat, _ = lr_independence(transition_counts(_breach(flags)))
        assert stat == pytest.approx(brute_force_independence(flags), abs=1e-12)

    def test_all_zero_indicator_untestable(self):
        stat, p = lr_independence(transition_counts(_breach([0] * 20)))
        assert stat is None and p is None

    def test_all_one_indicator_untestable(self):
        stat, p = lr_independence(transition_counts(_breach([1] * 20)))
        assert stat is None and p is None

    def test_random_sequences_match_brute_force(self):
        rng = np.random.default_rng(75)
        for _ in range(200):
            n = int(rng.integers(50, 501))
            flags = (rng.random(n) < rng.uniform(0.02, 0.5)).astype(int)
            expected = brute_force_independence(flags)
            stat, p = lr_independence(transition_counts(_breach(flags)))
            if expected is None:
                assert stat is None and p is None
            else:
                assert stat == pytest.approx(expected, abs=1e-10)
                assert stat >= 0.0
                assert p == pytest.approx(chi2_sf(stat, 1), abs=1e-15)


class TestLrUnconditional:
    def test_zero_at_nominal_rate(self):
        stat, p = lr_unconditional(50, 1000, 0.05)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_exact_nominal_count_is_positive_zero(self):
        # 115/2300 is exactly 0.05, so the statistic rounds to -0.0 before
        # clamping; the JSON must read 0.0, not -0.0
        stat, p = lr_unconditional(115, 2300, 0.05)
        assert stat == 0.0 and math.copysign(1.0, stat) == 1.0
        assert p == 1.0

    def test_zero_breaches_closed_form(self):
        stat, _ = lr_unconditional(0, 250, 0.01)
        assert stat == pytest.approx(-2 * 250 * math.log(0.99), abs=1e-12)
        assert stat == pytest.approx(5.0252, abs=1e-3)

    def test_all_breaches_defined(self):
        stat, _ = lr_unconditional(100, 100, 0.05)
        assert stat == pytest.approx(-2 * 100 * math.log(0.05), rel=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(76)
        for _ in range(100):
            n = int(rng.integers(10, 2000))
            x = int(rng.integers(0, n + 1))
            alpha = float(rng.uniform(0.005, 0.2))
            p_hat = x / n
            log_l0 = (n - x) * math.log(1 - alpha) + (x * math.log(alpha) if x else 0.0)
            log_l1 = ((n - x) * math.log(1 - p_hat) if x < n else 0.0) + (
                x * math.log(p_hat) if x else 0.0)
            expected = -2.0 * (log_l0 - log_l1)
            stat, p = lr_unconditional(x, n, alpha)
            assert stat == pytest.approx(max(expected, 0.0), abs=1e-10)
            assert stat >= 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lr_unconditional(1, 10, 1.5)
        with pytest.raises(ValueError):
            lr_unconditional(11, 10, 0.05)


class TestLrConditional:
    def test_both_zero(self):
        stat, p = lr_conditional(0.0, 0.0)
        assert stat == 0.0 and p == 1.0

    def test_df2_closed_form(self):
        stat, p = lr_conditional(3.0, 2.0)
        assert stat == 5.0
        assert p == pytest.approx(math.exp(-2.5), abs=1e-6)
        assert p == pytest.approx(0.082085, abs=1e-6)

    def test_undefined_propagates(self):
        stat, p = lr_conditional(1.2, None)
        assert stat is None and p is None


class TestSizeCalibration:
    def test_unconditional_rejection_rate(self):
        # i.i.d. Bernoulli(alpha) indicators: 5%-level rejections in [2%, 9%]
        rng = np.random.default_rng(77)
        alpha, n, trials = 0.05, 1000, 2000
        critical = 3.841458820694124  # chi2(1) upper 5% point
        counts = rng.binomial(n, alpha, size=trials)
        rejections = sum(
            lr_unconditional(int(x), n, alpha)[0] > critical for x in counts)
        assert 0.02 <= rejections / trials <= 0.09


class TestEvaluate:
    def test_report_consistency(self):
        rng = np.random.default_rng(78)
        flags = (rng.random(800) < 0.06).astype(int)
        report = evaluate(_breach(flags), alpha=0.05)
        assert report.breach_count == int(flags.sum())
        assert report.frequency == pytest.approx(flags.mean(), rel=1e-15)
        assert report.lr_cc == pytest.approx(report.lr_uc + report.lr_ind,
                                             rel=1e-12)
        assert report.p_cc == pytest.approx(chi2_sf(report.lr_cc, 2), abs=1e-15)

    def test_untestable_independence_flows_through(self):
        report = evaluate(_breach([0] * 50), alpha=0.05)
        assert report.lr_uc is not None
        assert report.lr_ind is None
        assert report.lr_cc is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(flags=st.lists(st.integers(0, 1), min_size=2, max_size=400),
       alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
def test_statistics_are_valid_or_null_when_a_state_is_never_left(flags, alpha):
    report = evaluate(_breach(flags), alpha)
    # a state is left when it occurs anywhere but the last day
    untestable = not {0, 1} <= set(flags[:-1])
    assert report.lr_uc is not None
    assert (report.lr_ind is None) == untestable
    assert (report.lr_cc is None) == untestable
    for stat, p in [(report.lr_uc, report.p_uc), (report.lr_ind, report.p_ind),
                    (report.lr_cc, report.p_cc)]:
        assert (stat is None) == (p is None)
        if stat is not None:
            assert stat >= 0.0
            assert 0.0 <= p <= 1.0
