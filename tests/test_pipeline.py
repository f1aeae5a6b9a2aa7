import dataclasses
import datetime as dt
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sentfolio
from sentfolio.backtest import DEFAULT_INITIAL_CAPITAL
from sentfolio.errors import ConfigurationError
from sentfolio.forecast_lstm import LstmConfig
from sentfolio.market_data import (
    FEATURE_NAMES, NEUTRAL_SENTIMENT, PRICE_INDEX, AlignedPanel, SplitSpec, split_chronological,
)
from sentfolio.pipeline import (
    ALL_STRATEGIES,
    LSTM_VARIANTS,
    STRATEGY_BUY_HOLD,
    STRATEGY_LSTM,
    STRATEGY_LSTM_SENTIMENT,
    neutralize_sentiment,
    replicates,
    run_pipeline,
    train_forecaster,
    train_variants,
)
from sentfolio.portfolio_opt import DEFAULT_COV_WINDOW, Weights
from sentfolio.synthetic import make_panel

FAST_LSTM = LstmConfig(hidden_size=4, num_layers=1, epochs=3, seed=0)


@pytest.fixture(scope="module")
def panel():
    return make_panel(seed=1, n_days=120)


@pytest.fixture(scope="module")
def result(panel):
    return run_pipeline(panel, lstm_config=FAST_LSTM, mc_count=500)


class TestNeutralizeSentiment:
    def test_sentiment_features_neutral(self, panel):
        flat = neutralize_sentiment(panel)
        for asset in flat.assets:
            for name, default in NEUTRAL_SENTIMENT.items():
                assert (np.asarray(flat.features[asset][name]) == default).all()

    def test_prices_and_volume_preserved(self, panel):
        flat = neutralize_sentiment(panel)
        for asset in flat.assets:
            np.testing.assert_array_equal(
                flat.features[asset]["adj_close"], panel.features[asset]["adj_close"]
            )
            np.testing.assert_array_equal(
                flat.features[asset]["volume"], panel.features[asset]["volume"]
            )

    def test_shape_unchanged(self, panel):
        flat = neutralize_sentiment(panel)
        assert flat.feature_matrix().shape == panel.feature_matrix().shape

    def test_original_untouched(self, panel):
        before = panel.feature_matrix().copy()
        neutralize_sentiment(panel)
        np.testing.assert_array_equal(panel.feature_matrix(), before)


class TestTrainVariants:
    def test_each_variant_reads_its_panel(self, panel):
        trained = train_variants(panel, SplitSpec(), FAST_LSTM)
        assert tuple(trained) == LSTM_VARIANTS
        _, _, flat = trained[STRATEGY_LSTM]
        np.testing.assert_array_equal(flat.values, neutralize_sentiment(panel).values)
        assert trained[STRATEGY_LSTM_SENTIMENT][2] is panel

    def test_models_match_train_forecaster(self, panel):
        (name, (model, report, _)), = train_variants(
            panel, SplitSpec(), FAST_LSTM, (STRATEGY_LSTM_SENTIMENT,)).items()
        alone, alone_report = train_forecaster(panel, SplitSpec(), FAST_LSTM)
        assert name == STRATEGY_LSTM_SENTIMENT
        assert model.theta.tobytes() == alone.theta.tobytes()
        assert report == alone_report


def test_only_the_pipeline_builds_the_variants():
    # one definition of which panel each LSTM variant reads: train_variants
    calls = {name: [f"{path.name}:{n}"
                    for path in sorted(Path(sentfolio.__file__).parent.glob("*.py"))
                    for n, line in enumerate(path.read_text().splitlines(), start=1)
                    if re.search(rf"\b{name}\(", line) and not line.startswith("def ")]
             for name in ("neutralize_sentiment", "train_forecaster")}
    assert {name: [c.split(":")[0] for c in found] for name, found in calls.items()} == {
        "neutralize_sentiment": ["pipeline.py"], "train_forecaster": ["pipeline.py"]}, calls


class TestReplicates:
    def test_runs_give_the_pipeline_capitals(self, panel, result):
        capitals = replicates([(panel, 0, 0), (panel, 1, 7)], SplitSpec(), FAST_LSTM,
                              500, DEFAULT_COV_WINDOW, DEFAULT_INITIAL_CAPITAL)
        other = run_pipeline(panel, lstm_config=dataclasses.replace(FAST_LSTM, seed=1),
                             mc_count=500, mc_seed=7)
        assert capitals == [
            (r.curves[STRATEGY_LSTM_SENTIMENT].final_capital, r.curves[STRATEGY_LSTM].final_capital)
            for r in (result, other)]
        assert capitals[0] != capitals[1]


class TestRunPipeline:
    def test_all_strategies_present(self, result):
        assert set(result.curves) == set(ALL_STRATEGIES)
        assert {r.strategy for r in result.reports} == set(ALL_STRATEGIES)

    def test_strategies_keep_the_table_order(self, result):
        assert ALL_STRATEGIES == (
            "Buy and Hold", "Best Stock", "Rebalancing", "LSTM", "LSTM Sentiment")
        assert tuple(result.curves) == ALL_STRATEGIES
        assert tuple(r.strategy for r in result.reports) == ALL_STRATEGIES

    def test_benchmark_row_normalized(self, result):
        bh = next(r for r in result.reports if r.strategy == STRATEGY_BUY_HOLD)
        assert bh.bv == pytest.approx(1.0)
        assert bh.sharpe_vs_bh == pytest.approx(1.0)

    def test_curves_share_dates(self, result):
        dates = {tuple(c.dates) for c in result.curves.values()}
        assert len(dates) == 1

    def test_initial_capital_applied(self, panel):
        res = run_pipeline(
            panel, lstm_config=FAST_LSTM, mc_count=200,
            initial_capital=500.0,
            strategies=(STRATEGY_BUY_HOLD,),
        )
        assert res.curves[STRATEGY_BUY_HOLD].values[0] == 500.0

    def test_panel_sizes_the_forecaster(self):
        # a three-asset panel under the default LstmConfig: the network reads
        # 18 features and predicts 3 prices
        three = make_panel(seed=1, n_days=120, assets=("AAA", "BBB", "CCC"))
        res = run_pipeline(three, lstm_config=LstmConfig(hidden_size=4, num_layers=1, epochs=1),
                           mc_count=200)
        assert set(res.curves) == set(ALL_STRATEGIES)
        periods = len(res.curves[STRATEGY_BUY_HOLD].dates) - 1
        for name in LSTM_VARIANTS:
            assert [len(w.values) for w in res.curves[name].weights] == [3] * periods

    def test_deterministic(self, panel, result):
        again = run_pipeline(panel, lstm_config=FAST_LSTM, mc_count=500)
        for name in ALL_STRATEGIES:
            assert again.curves[name].values == result.curves[name].values

    @pytest.mark.parametrize("variant", [STRATEGY_LSTM, STRATEGY_LSTM_SENTIMENT])
    def test_one_variant_matches_shared_draws(self, panel, result, variant):
        # each variant's curve and weights, bit for bit, whether or not the
        # other variant shares its Monte-Carlo draws
        alone = run_pipeline(panel, lstm_config=FAST_LSTM, mc_count=500,
                             strategies=(STRATEGY_BUY_HOLD, variant))
        assert list(alone.curves) == [STRATEGY_BUY_HOLD, variant]
        mine, shared = alone.curves[variant], result.curves[variant]
        assert np.array(mine.values).tobytes() == np.array(shared.values).tobytes()
        assert (np.array([w.values for w in mine.weights]).tobytes()
                == np.array([w.values for w in shared.weights]).tobytes())

    def test_counts_the_days_that_fall_back_to_equal_weights(self, panel, result):
        """A halt that freezes every close from row 107 on leaves the test
        days from row 112 on (7 days) with all-zero trailing windows of 5
        returns: both LSTM variants hold equal weights on those days, and
        only on those."""
        halted = AlignedPanel(dates=panel.dates, assets=panel.assets, values=panel.values.copy())
        halted.values[108:, :, PRICE_INDEX] = halted.values[107, :, PRICE_INDEX]
        res = run_pipeline(halted, lstm_config=FAST_LSTM, mc_count=500, cov_window=5)
        assert (res.equal_weight_days, result.equal_weight_days) == (7, 0)
        equal = Weights.equal(len(panel.assets))
        for name in LSTM_VARIANTS:
            assert [w == equal for w in res.curves[name].weights[-8:]] == [False] + [True] * 7

    def test_train_reports_for_both_variants(self, result):
        assert set(result.train_reports) == {STRATEGY_LSTM, STRATEGY_LSTM_SENTIMENT}

    def test_no_replicates_no_ttest(self, result):
        assert result.ttest is None


def _weight_bytes(curve):
    return np.array([w.values for w in curve.weights]).tobytes()


class TestMetamorphic:
    """Relations that run_pipeline keeps bit for bit.  Scaling by a power of
    two is exact in floating point, also through the min-max scaler and
    back, so prices x4 and volumes x8 give the LSTMs the same scaled inputs
    and every price ratio stays the same.  The CLI path is left out: the
    price files hold decimal text rounded to six places, and the rounding of
    four times a price is not four times its rounding."""

    def test_price_and_volume_scale_keeps_weights(self, panel, result):
        values = panel.values.copy()
        values[:, :, PRICE_INDEX] *= 4.0
        values[:, :, FEATURE_NAMES.index("volume")] *= 8.0
        scaled = run_pipeline(AlignedPanel(list(panel.dates), list(panel.assets), values),
                              lstm_config=FAST_LSTM, mc_count=500)
        for name in ALL_STRATEGIES:
            assert _weight_bytes(scaled.curves[name]) == _weight_bytes(result.curves[name]), name
            assert scaled.curves[name].values == result.curves[name].values, name

    def test_double_capital_doubles_wealth(self, panel, result):
        doubled = run_pipeline(panel, lstm_config=FAST_LSTM, mc_count=500,
                               initial_capital=2 * DEFAULT_INITIAL_CAPITAL)
        for name in ALL_STRATEGIES:
            assert _weight_bytes(doubled.curves[name]) == _weight_bytes(result.curves[name]), name
            twice = 2 * np.array(result.curves[name].values)
            assert np.array(doubled.curves[name].values).tobytes() == twice.tobytes(), name


@settings(max_examples=10, deadline=None)
@given(cut=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
def test_no_look_ahead(panel, result, cut, seed):
    """Weight row t is chosen at test row t's close and wealth value k uses
    prices up to row k, so changing every feature from test row c on leaves
    every strategy's first c weight rows and wealth values bit-identical."""
    train, val, _ = split_chronological(panel, SplitSpec())
    m = len(result.curves[STRATEGY_BUY_HOLD].values)
    c = 1 + cut % (m - 1)
    values = panel.values.copy()
    first = train.n_rows + val.n_rows + c
    values[first:] *= np.random.default_rng(seed).uniform(0.5, 1.5, values[first:].shape)
    changed = run_pipeline(AlignedPanel(list(panel.dates), list(panel.assets), values),
                           lstm_config=FAST_LSTM, mc_count=500)
    for name in ALL_STRATEGIES:
        mine, theirs = changed.curves[name], result.curves[name]
        assert _weight_bytes_until(mine, c) == _weight_bytes_until(theirs, c), name
        assert mine.values[:c] == theirs.values[:c], name
    # the change reaches the test period: row c's wealth moves
    assert changed.curves[STRATEGY_BUY_HOLD].values[c] != result.curves[STRATEGY_BUY_HOLD].values[c]


def _weight_bytes_until(curve, c):
    return np.array([w.values for w in curve.weights[:c]]).tobytes()


class TestTestWindow:
    def test_narrows_evaluation(self, panel):
        full = run_pipeline(panel, lstm_config=FAST_LSTM, mc_count=200,
                            strategies=(STRATEGY_BUY_HOLD,))
        dates = full.curves[STRATEGY_BUY_HOLD].dates
        sub = run_pipeline(
            panel, lstm_config=FAST_LSTM, mc_count=200,
            strategies=(STRATEGY_BUY_HOLD,),
            test_window=(dates[3], dates[10]),
        )
        sub_dates = sub.curves[STRATEGY_BUY_HOLD].dates
        assert sub_dates[0] >= dates[3]
        assert sub_dates[-1] <= dates[10]
        assert len(sub_dates) < len(dates)

    def test_empty_window_rejected(self, panel):
        with pytest.raises(ConfigurationError):
            run_pipeline(
                panel, lstm_config=FAST_LSTM, mc_count=200,
                strategies=(STRATEGY_BUY_HOLD,),
                test_window=(dt.date(1990, 1, 1), dt.date(1990, 1, 2)),
            )
