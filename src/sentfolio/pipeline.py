"""End-to-end orchestration: panels in, trained models, strategy curves and
metric tables out.  Both the CLI and the acceptance suite drive this module."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backtest import (
    DEFAULT_INITIAL_CAPITAL,
    PerfReport,
    WealthCurve,
    compare_strategies,
    run_backtest,
)
from .errors import ConfigurationError, InsufficientDataError
from .forecast_lstm import LstmConfig, LstmModel, TrainReport, make_windows, predict_series, train
from .market_data import (
    FEATURE_NAMES, NEUTRAL_SENTIMENT, AlignedPanel, SplitSpec, split_chronological,
)
from .portfolio_opt import (
    DEFAULT_COV_WINDOW,
    DEFAULT_SAMPLE_COUNT,
    bah_weights,
    best_stock_weights,
    predictive_weights,
    rebalancing_weights,
)
from .stats import TestResult

# Table row names, benchmark first.
STRATEGY_BUY_HOLD = "Buy and Hold"
STRATEGY_BEST_STOCK = "Best Stock"
STRATEGY_REBALANCING = "Rebalancing"
STRATEGY_LSTM = "LSTM"
STRATEGY_LSTM_SENTIMENT = "LSTM Sentiment"
ALL_STRATEGIES = (
    STRATEGY_BUY_HOLD,
    STRATEGY_BEST_STOCK,
    STRATEGY_REBALANCING,
    STRATEGY_LSTM,
    STRATEGY_LSTM_SENTIMENT,
)


@dataclass
class PipelineResult:
    curves: dict[str, WealthCurve]
    reports: list[PerfReport]
    ttest: TestResult | None
    train_reports: dict[str, TrainReport] = field(default_factory=dict)


def neutralize_sentiment(panel: AlignedPanel) -> AlignedPanel:
    """Copy of the panel with sentiment features forced to neutral defaults;
    this is the input of the non-sentiment LSTM variant."""
    values = panel.values.copy()
    for name, default in NEUTRAL_SENTIMENT.items():
        values[:, :, FEATURE_NAMES.index(name)] = default
    return AlignedPanel(dates=list(panel.dates), assets=list(panel.assets), values=values)


def train_forecaster(
    panel: AlignedPanel, split: SplitSpec, config: LstmConfig
) -> tuple[LstmModel, TrainReport, int]:
    """Fit scaler on the train split, train on train/val windows.

    Returns (model, report, index of the first test row in the panel).
    """
    train_panel, val_panel, test_panel = split_chronological(panel, split)
    model = LstmModel(config)
    model.fit_scaler(train_panel.feature_matrix(), panel.price_column_indices())
    report = train(
        model,
        make_windows(train_panel, config.window),
        make_windows(val_panel, config.window),
    )
    test_start = train_panel.n_rows + val_panel.n_rows
    return model, report, test_start


def predict_test_segment(
    model: LstmModel, panel: AlignedPanel, test_start: int
) -> np.ndarray:
    """Walk-forward predictions for every test row, using the last `window`
    pre-test rows as context so the first test day is covered."""
    w = model.config.window
    if test_start < w:
        raise InsufficientDataError(f"need {w} rows of context before the test split")
    context = panel.slice(test_start - w, panel.n_rows)
    _, preds = predict_series(model, context)
    return preds  # row k predicts the price on test row k


def _predictive_curve(
    model: LstmModel,
    panel: AlignedPanel,
    test_start: int,
    mc_count: int,
    mc_seed: int,
    cov_window: int,
    initial_capital: float,
) -> WealthCurve:
    prices_full = panel.price_matrix()
    simple_full = prices_full[1:] / prices_full[:-1] - 1.0
    preds = predict_test_segment(model, panel, test_start)
    test_prices = prices_full[test_start:]
    m = test_prices.shape[0]
    gross = test_prices[1:] / test_prices[:-1]
    # decision at end of test row t (global g) targets the price on row t+1
    predicted = preds[1:]
    last_closes = test_prices[:-1]
    trailing = []
    for t in range(m - 1):
        g = test_start + t  # returns through day g end at simple_full[g-1]
        lo = max(0, g - cov_window)
        trailing.append(simple_full[lo:g])
    weights = predictive_weights(
        predicted, last_closes, trailing, count=mc_count, seed=mc_seed
    )
    dates = panel.dates[test_start:]
    return run_backtest(weights, gross, dates, initial_capital)


def run_pipeline(
    panel: AlignedPanel,
    split: SplitSpec | None = None,
    lstm_config: LstmConfig | None = None,
    mc_count: int = DEFAULT_SAMPLE_COUNT,
    mc_seed: int = 0,
    cov_window: int = DEFAULT_COV_WINDOW,
    initial_capital: float = DEFAULT_INITIAL_CAPITAL,
    strategies: tuple[str, ...] = ALL_STRATEGIES,
    replicate_capitals: tuple[list[float], list[float]] | None = None,
    test_window: tuple | None = None,
) -> PipelineResult:
    """Train both LSTM variants, run every requested strategy over the test
    split and assemble the comparison table.

    ``test_window`` optionally narrows the evaluated period to a (from, to)
    date range inside the test split (the down-market scenario); training is
    unaffected.
    """
    split = split or SplitSpec()
    lstm_config = lstm_config or LstmConfig()
    curves: dict[str, WealthCurve] = {}
    train_reports: dict[str, TrainReport] = {}

    train_panel, val_panel, _ = split_chronological(panel, split)
    t0 = train_panel.n_rows + val_panel.n_rows
    t1 = panel.n_rows
    if test_window is not None:
        d_from, d_to = test_window
        idx = [i for i in range(t0, t1) if d_from <= panel.dates[i] <= d_to]
        if len(idx) < 2:
            raise ConfigurationError(
                f"down-market window {d_from}..{d_to} has fewer than 2 test rows"
            )
        t0, t1 = idx[0], idx[-1] + 1
    eval_panel = panel.slice(0, t1)
    test_panel = panel.slice(t0, t1)
    test_prices = test_panel.price_matrix()
    gross = test_prices[1:] / test_prices[:-1]
    dates = test_panel.dates
    n_assets = len(panel.assets)
    n_periods = gross.shape[0]

    if STRATEGY_BUY_HOLD in strategies:
        curves[STRATEGY_BUY_HOLD] = run_backtest(
            bah_weights(gross), gross, dates, initial_capital
        )
    if STRATEGY_BEST_STOCK in strategies:
        curves[STRATEGY_BEST_STOCK] = run_backtest(
            best_stock_weights(gross), gross, dates, initial_capital
        )
    if STRATEGY_REBALANCING in strategies:
        curves[STRATEGY_REBALANCING] = run_backtest(
            rebalancing_weights(n_assets, n_periods), gross, dates, initial_capital
        )
    if STRATEGY_LSTM in strategies:
        plain_panel = neutralize_sentiment(panel)
        model, report, _ = train_forecaster(plain_panel, split, lstm_config)
        train_reports[STRATEGY_LSTM] = report
        curves[STRATEGY_LSTM] = _predictive_curve(
            model, neutralize_sentiment(eval_panel), t0, mc_count, mc_seed,
            cov_window, initial_capital,
        )
    if STRATEGY_LSTM_SENTIMENT in strategies:
        model, report, _ = train_forecaster(panel, split, lstm_config)
        train_reports[STRATEGY_LSTM_SENTIMENT] = report
        curves[STRATEGY_LSTM_SENTIMENT] = _predictive_curve(
            model, eval_panel, t0, mc_count, mc_seed, cov_window, initial_capital
        )

    reports, ttest = compare_strategies(
        curves, bh_name=STRATEGY_BUY_HOLD, replicate_capitals=replicate_capitals
    )
    return PipelineResult(
        curves=curves, reports=reports, ttest=ttest, train_reports=train_reports
    )
