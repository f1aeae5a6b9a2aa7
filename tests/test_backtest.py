import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentfolio.backtest import (
    WealthCurve,
    annualized_return,
    benchmark_value,
    compare_strategies,
    fapv,
    max_drawdown,
    performance_report,
    run_backtest,
    sharpe_vs_bh,
)
from sentfolio.errors import AlignmentError, DegenerateInputError, InsufficientDataError
from sentfolio.portfolio_opt import Weights, bah_weights, rebalancing_weights

D0 = dt.date(2020, 1, 1)


def dates(n):
    return [D0 + dt.timedelta(days=i) for i in range(n)]


def curve_from_values(values):
    n = len(values)
    w = [Weights.equal(1)] * (n - 1)
    return WealthCurve(dates=dates(n), values=list(map(float, values)), weights=w)


class TestRunBacktest:
    def test_flat_market_flat_wealth(self):
        gross = np.ones((5, 3))
        curve = run_backtest(rebalancing_weights(gross), gross, dates(6), 10_000)
        assert curve.values == [10_000.0] * 6

    def test_single_asset_compounding(self):
        # 10% then 10%: 10000 -> 11000 -> 12100
        gross = np.array([[1.1], [1.1]])
        w = [Weights.equal(1)] * 2
        curve = run_backtest(w, gross, dates(3), 10_000)
        assert curve.values[-1] == pytest.approx(12_100.0)

    def test_two_asset_one_day(self):
        # w = (0.5, 0.5), gross (1.2, 0.8) -> factor exactly 1.0
        gross = np.array([[1.2, 0.8]])
        curve = run_backtest([Weights.equal(2)], gross, dates(2), 10_000)
        assert curve.values[-1] == pytest.approx(10_000.0)

    def test_bah_equals_average_of_assets(self):
        # buy-and-hold final wealth = initial * mean of asset cumulative growth
        rng = np.random.default_rng(2)
        gross = 1.0 + 0.02 * rng.standard_normal((20, 4))
        curve = run_backtest(bah_weights(gross), gross, dates(21), 10_000)
        expected = 10_000 * np.prod(gross, axis=0).mean()
        assert curve.values[-1] == pytest.approx(expected, rel=1e-12)

    def test_weight_count_mismatch(self):
        with pytest.raises(AlignmentError):
            run_backtest([Weights.equal(2)], np.ones((2, 2)), dates(3))

    def test_date_count_mismatch(self):
        with pytest.raises(AlignmentError):
            run_backtest([Weights.equal(2)], np.ones((1, 2)), dates(3))

    def test_nonpositive_gross_rejected(self):
        with pytest.raises(AlignmentError):
            run_backtest([Weights.equal(1)], np.array([[0.0]]), dates(2))


class TestFapv:
    def test_identity_start(self):
        assert fapv(curve_from_values([10_000, 12_000])) == pytest.approx(1.2)

    def test_multiplicative_in_segments(self):
        full = curve_from_values([100, 110, 99, 120])
        first = curve_from_values([100, 110])
        rest = curve_from_values([110, 99, 120])
        assert fapv(full) == pytest.approx(fapv(first) * fapv(rest), rel=1e-12)

    def test_capital_invariance(self):
        a = curve_from_values([10_000, 12_000])
        b = curve_from_values([1, 1.2])
        assert fapv(a) == pytest.approx(fapv(b))


class TestBenchmarkValue:
    def test_self_is_one(self):
        c = curve_from_values([100, 105, 103])
        assert benchmark_value(c, c) == 1.0

    def test_ratio(self):
        a = curve_from_values([100, 120])
        b = curve_from_values([100, 100])
        assert benchmark_value(a, b) == pytest.approx(1.2)

    def test_date_mismatch(self):
        a = curve_from_values([100, 120])
        b = curve_from_values([100, 100, 100])
        with pytest.raises(AlignmentError):
            benchmark_value(a, b)


class TestSharpeVsBh:
    def test_self_is_one(self):
        r = np.array([0.01, -0.02, 0.005, 0.03])
        assert sharpe_vs_bh(r, r) == pytest.approx(1.0)

    def test_scaled_stream_is_one(self):
        # doubling every daily return doubles both the mean ratio and the
        # volatility ratio, so SR stays 1
        r = np.array([0.01, -0.02, 0.005, 0.03])
        assert sharpe_vs_bh(2 * r, r) == pytest.approx(1.0)

    def test_negated_stream_is_minus_one(self):
        r = np.array([0.01, -0.02, 0.005, 0.03])
        assert sharpe_vs_bh(-r, r) == pytest.approx(-1.0)

    def test_flat_benchmark_degenerate(self):
        with pytest.raises(DegenerateInputError):
            sharpe_vs_bh(np.array([0.01, 0.02]), np.zeros(2))

    def test_near_zero_benchmark_days_skipped(self):
        r_bh = np.array([0.02, 1e-12, -0.01])
        r_p = np.array([0.02, 5.0, -0.01])  # huge ratio on the skipped day
        val = sharpe_vs_bh(r_p, r_bh)
        assert np.isfinite(val)

    def test_shape_mismatch(self):
        with pytest.raises(AlignmentError):
            sharpe_vs_bh(np.zeros(3), np.zeros(4))


class TestMaxDrawdown:
    def test_drop_to_terminal(self):
        # terminal 75 vs interior 100: (100 - 75) / 100 = 0.25
        assert max_drawdown(curve_from_values([80, 100, 75])) == pytest.approx(0.25)

    def test_monotone_rise_is_zero(self):
        assert max_drawdown(curve_from_values([100, 110, 120])) == 0.0

    def test_recovered_dip_counts(self):
        # the 100 -> 80 loss counts although the curve ends above every point
        assert max_drawdown(curve_from_values([100, 80, 130])) == pytest.approx(0.2)

    def test_round_trip_is_not_zero(self):
        assert max_drawdown(curve_from_values([100, 50, 100])) == 0.5

    @given(st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=40))
    @settings(max_examples=200)
    def test_matches_brute_force_peak_to_trough(self, values):
        worst = max((values[i] - values[j]) / values[i]
                    for i in range(len(values)) for j in range(i, len(values)))
        assert max_drawdown(curve_from_values(values)) == pytest.approx(worst, rel=1e-12, abs=1e-15)

    def test_scaling_invariance(self):
        vals = [100, 140, 90, 120]
        a = max_drawdown(curve_from_values(vals))
        b = max_drawdown(curve_from_values([7 * v for v in vals]))
        assert a == pytest.approx(b, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            max_drawdown(curve_from_values([100]))


class TestAnnualizedReturn:
    def test_full_year_identity(self):
        vals = [100.0] + [0.0] * 251 + [150.0]
        vals[1:252] = list(np.linspace(100, 150, 251))
        c = curve_from_values(vals)
        assert annualized_return(c) == pytest.approx(0.5)

    def test_half_year_compounds(self):
        vals = list(np.linspace(100, 120, 127))  # 126 periods = half a year
        c = curve_from_values(vals)
        assert annualized_return(c) == pytest.approx(1.2**2 - 1)

    def test_flat_curve_zero(self):
        assert annualized_return(curve_from_values([100] * 10)) == pytest.approx(0.0)


class TestReports:
    def make_curves(self):
        rng = np.random.default_rng(4)
        gross = 1.0 + 0.01 * rng.standard_normal((30, 3))
        ds = dates(31)
        bh = run_backtest(bah_weights(gross), gross, ds)
        rb = run_backtest(rebalancing_weights(gross), gross, ds)
        return {"BuyHold": bh, "Rebalancing": rb}

    def test_bh_reference_row(self):
        curves = self.make_curves()
        reports = compare_strategies(curves, "BuyHold")
        bh_row = next(r for r in reports if r.strategy == "BuyHold")
        assert bh_row.bv == pytest.approx(1.0)
        assert bh_row.sharpe_vs_bh == pytest.approx(1.0)
        assert bh_row.fapv == pytest.approx(bh_row.final_capital / 10_000)

    def test_missing_benchmark(self):
        curves = self.make_curves()
        with pytest.raises(AlignmentError):
            compare_strategies(curves, bh_name="Nope")

    def test_performance_report_fields(self):
        curves = self.make_curves()
        rep = performance_report("Rebalancing", curves["Rebalancing"], curves["BuyHold"])
        assert rep.final_capital == curves["Rebalancing"].final_capital
        assert rep.mdd >= 0.0
