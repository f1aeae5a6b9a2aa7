import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentfolio.errors import (
    DegenerateMarketError,
    DimensionError,
    InsufficientDataError,
    ValidationError,
)
from sentfolio import portfolio_opt
from sentfolio.portfolio_opt import (
    Moments,
    Weights,
    bah_weights,
    best_stock_weights,
    estimate_moments,
    frontier_samples,
    mean_variance_select,
    portfolio_stats,
    predictive_weights,
    rebalancing_weights,
    sample_simplex,
)


class TestWeights:
    def test_equal(self):
        w = Weights.equal(4)
        assert w.values == (0.25, 0.25, 0.25, 0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Weights(values=(1.2, -0.2))

    def test_sum_enforced(self):
        with pytest.raises(ValidationError):
            Weights(values=(0.5, 0.4))

    def test_round_trip(self):
        w = Weights.from_array(np.array([0.3, 0.7]))
        np.testing.assert_array_equal(w.as_array(), [0.3, 0.7])


class TestSampleSimplex:
    def test_rows_on_simplex(self):
        W = sample_simplex(5, 1000, seed=0)
        assert (W >= 0).all()
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_single_asset(self):
        np.testing.assert_array_equal(sample_simplex(1, 10, seed=3), np.ones((10, 1)))

    def test_deterministic(self):
        np.testing.assert_array_equal(
            sample_simplex(4, 100, seed=9), sample_simplex(4, 100, seed=9)
        )

    def test_two_asset_mean_half(self):
        W = sample_simplex(2, 100_000, seed=1)
        assert W[:, 0].mean() == pytest.approx(0.5, abs=0.01)

    def test_prefix_extension(self):
        # doubling count extends the sample set under the same seed
        small = sample_simplex(5, 500, seed=7)
        big = sample_simplex(5, 1000, seed=7)
        np.testing.assert_array_equal(big[:500], small)

    def test_bad_args(self):
        with pytest.raises(DimensionError):
            sample_simplex(0, 10, seed=0)
        with pytest.raises(DimensionError):
            sample_simplex(3, 0, seed=0)


class TestMoments:
    def test_hand_case(self):
        # two assets, three periods; mean and ddof-1 covariance by hand
        R = np.array([[0.01, 0.02], [0.03, -0.02], [0.02, 0.03]])
        m = estimate_moments(R)
        np.testing.assert_allclose(m.mu, [0.02, 0.01])
        np.testing.assert_allclose(m.cov, np.cov(R.T, ddof=1), atol=1e-15)

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(ValidationError):
            Moments(mu=np.zeros(2), cov=np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_non_psd_rejected(self):
        with pytest.raises(ValidationError):
            Moments(mu=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            Moments(mu=np.zeros(3), cov=np.eye(2))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            estimate_moments(np.zeros((1, 3)))


class TestPortfolioStats:
    def test_equal_weight_iid(self):
        # sigma/sqrt(2) diversification for two i.i.d. assets
        m = Moments(mu=np.array([0.01, 0.01]), cov=0.04 * np.eye(2))
        s = portfolio_stats(Weights.equal(2), m)
        assert s.exp_return == pytest.approx(0.01)
        assert s.volatility == pytest.approx(0.2 / math.sqrt(2))

    def test_zero_vol_sharpe_zero(self):
        m = Moments(mu=np.array([0.05]), cov=np.zeros((1, 1)))
        assert portfolio_stats(Weights.equal(1), m).sharpe == 0.0

    def test_risk_free_subtracted(self):
        m = Moments(mu=np.array([0.10, 0.10]), cov=0.01 * np.eye(2))
        s = portfolio_stats(Weights.equal(2), m, risk_free=0.02)
        assert s.sharpe == pytest.approx(0.08 / s.volatility)

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=30)
    def test_two_asset_variance_formula(self, w0):
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        m = Moments(mu=np.array([0.01, 0.02]), cov=cov)
        s = portfolio_stats(Weights(values=(w0, 1.0 - w0)), m)
        w1 = 1.0 - w0
        expected = w0 * w0 * 0.04 + 2 * w0 * w1 * 0.01 + w1 * w1 * 0.09
        assert s.volatility**2 == pytest.approx(expected, rel=1e-12)


class TestMeanVarianceSelect:
    def dominant_market(self):
        # asset 0 has much higher mean at equal risk and no coupling
        mu = np.array([0.05, 0.001, 0.001])
        return Moments(mu=mu, cov=0.0001 * np.eye(3))

    def test_dominant_asset_gets_bulk(self):
        (best,) = mean_variance_select(self.dominant_market(), count=50_000, seed=0)
        assert best.weights.values[0] > 0.9

    def test_matches_frontier_argmax(self):
        m = self.dominant_market()
        W, _, rows = frontier_samples(m, count=5000, seed=4)
        ((_, sharpe),) = rows
        (best,) = mean_variance_select(m, count=5000, seed=4)
        np.testing.assert_array_equal(best.weights.as_array(), W[np.argmax(sharpe)])

    def test_count_doubling_never_worse(self):
        m = self.dominant_market()
        prev = -np.inf
        for count in (1000, 2000, 4000, 8000):
            (s,) = [pick.sharpe for pick in mean_variance_select(m, count=count, seed=11)]
            assert s >= prev
            prev = s

    def test_beats_equal_weights(self):
        m = self.dominant_market()
        (best,) = mean_variance_select(m, count=50_000, seed=0)
        eq = portfolio_stats(Weights.equal(3), m)
        assert best.sharpe >= eq.sharpe

    def test_mu_scaling_preserves_argmax(self):
        # Sharpe with zero risk-free is homogeneous in mu, so rescaling mu
        # leaves the selected weights unchanged
        m = self.dominant_market()
        scaled = Moments(mu=10.0 * m.mu, cov=m.cov)
        (a,) = mean_variance_select(m, count=5000, seed=6)
        (b,) = mean_variance_select(scaled, count=5000, seed=6)
        assert a.weights == b.weights

    def test_degenerate_market(self):
        m = Moments(mu=np.array([0.01, 0.02]), cov=np.zeros((2, 2)))
        with pytest.raises(DegenerateMarketError):
            mean_variance_select(m, count=100, seed=0)


class TestBahWeights:
    def test_drift_two_assets(self):
        # day 0: equal; asset 0 doubles -> (2/3, 1/3) with no trading
        gross = np.array([[2.0, 1.0], [1.0, 1.0]])
        ws = bah_weights(gross)
        assert ws[0].values == (0.5, 0.5)
        np.testing.assert_allclose(ws[1].as_array(), [2 / 3, 1 / 3])

    def test_flat_market_constant(self):
        ws = bah_weights(np.ones((4, 3)))
        for w in ws:
            np.testing.assert_allclose(w.as_array(), 1 / 3)

    def test_length_matches_periods(self):
        assert len(bah_weights(np.ones((5, 2)))) == 5


class TestRebalancing:
    def test_always_equal(self):
        ws = rebalancing_weights(4, 6)
        assert len(ws) == 6
        assert all(w == Weights.equal(4) for w in ws)


class TestBestStock:
    def test_day_zero_equal(self):
        ws = best_stock_weights(np.array([[1.1, 0.9]]))
        assert ws[0] == Weights.equal(2)

    def test_tracks_cumulative_winner(self):
        gross = np.array([[1.2, 1.0], [0.5, 1.0], [1.0, 1.0]])
        ws = best_stock_weights(gross)
        assert ws[1].values == (1.0, 0.0)  # asset 0 cum 1.2
        assert ws[2].values == (0.0, 1.0)  # asset 0 cum 0.6 < 1.0

    def test_tie_breaks_low_index(self):
        ws = best_stock_weights(np.ones((3, 4)))
        assert ws[1].values[0] == 1.0

    def test_basis_vector(self):
        rng = np.random.default_rng(0)
        ws = best_stock_weights(1.0 + 0.02 * rng.standard_normal((10, 5)))
        for w in ws[1:]:
            arr = w.as_array()
            assert sorted(arr)[:-1] == [0.0] * 4
            assert arr.max() == 1.0


class TestPredictiveWeights:
    def make_inputs(self, V=1, T=3, n=3, seed=0):
        rng = np.random.default_rng(seed)
        last = np.full((T, n), 100.0)
        pred = last * (1.0 + rng.normal(0.0, 0.01, size=(V, T, n)))
        trailing = [rng.normal(0.0, 0.02, size=(30, n)) for _ in range(T)]
        return pred, last, trailing

    def test_one_weight_per_day(self):
        pred, last, trailing = self.make_inputs(V=2)
        ws = predictive_weights(pred, last, trailing, count=2000, seed=0)
        assert [len(w) for w in ws] == [3, 3]

    def test_deterministic(self):
        pred, last, trailing = self.make_inputs()
        a = predictive_weights(pred, last, trailing, count=2000, seed=5)
        b = predictive_weights(pred, last, trailing, count=2000, seed=5)
        assert a == b

    def test_variants_scored_as_if_alone(self):
        pred, last, trailing = self.make_inputs(V=3, T=4, n=4)
        shared = predictive_weights(pred, last, trailing, count=2000, seed=2)
        for v in range(3):
            (alone,) = predictive_weights(pred[v:v + 1], last, trailing, count=2000, seed=2)
            assert [w.as_array().tobytes() for w in shared[v]] == [
                w.as_array().tobytes() for w in alone]

    def test_degenerate_day_falls_back_to_equal(self):
        pred = np.array([[[101.0, 102.0]], [[99.0, 98.0]]])
        last = np.array([[100.0, 100.0]])
        trailing = [np.zeros((10, 2))]
        ws = predictive_weights(pred, last, trailing, count=100, seed=0)
        assert ws == [[Weights.equal(2)], [Weights.equal(2)]]

    def test_misaligned_inputs(self):
        pred, last, trailing = self.make_inputs()
        with pytest.raises(DimensionError):
            predictive_weights(pred, last[:-1], trailing, count=100, seed=0)
        with pytest.raises(DimensionError):  # a trailing window of 2 assets, not 3
            predictive_weights(pred, last, [w[:, :2] for w in trailing], count=100, seed=0)
        with pytest.raises(DimensionError):  # one forecast without its variant axis
            predictive_weights(pred[0], last, trailing, count=100, seed=0)

    def test_each_day_covariance_checked_once(self, monkeypatch):
        pred, last, trailing = self.make_inputs(V=2, T=4)
        expected = [estimate_moments(w).cov for w in trailing]
        checked = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: checked.append(a.copy()) or eigvalsh(a))
        predictive_weights(pred, last, trailing, count=100, seed=0)
        assert [c.tobytes() for c in checked] == [c.tobytes() for c in expected]

    @pytest.mark.parametrize("T", [1, 6])
    def test_one_workspace_per_call(self, monkeypatch, T):
        """Every day, a degenerate one too, draws in the call's one workspace."""
        pred, last, trailing = self.make_inputs(V=2, T=T)
        trailing[0] = np.zeros_like(trailing[0])
        built = []

        class Counted(portfolio_opt.MonteCarloWorkspace):
            def __init__(self, count, n_assets):
                built.append((count, n_assets))
                super().__init__(count, n_assets)

        monkeypatch.setattr(portfolio_opt, "MonteCarloWorkspace", Counted)
        predictive_weights(pred, last, trailing, count=500, seed=0)
        assert built == [(500, 3)]

    def test_strong_signal_tilts_weights(self):
        # asset 0 predicted +5%, others flat; independent equal risk
        pred = np.array([[[105.0, 100.0, 100.0]]])
        last = np.array([[100.0, 100.0, 100.0]])
        rng = np.random.default_rng(1)
        trailing = [rng.normal(0.0, 0.01, size=(50, 3))]
        ((w,),) = predictive_weights(pred, last, trailing, count=20_000, seed=0)
        assert w.values[0] > 0.5
