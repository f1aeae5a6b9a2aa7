"""End-to-end orchestration: panels in, trained models, strategy curves and
metric tables out.  Both the CLI and the acceptance suite drive this module."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace

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
    NEUTRAL_SENTIMENT, SENTIMENT_INDEX, AlignedPanel, SplitSpec, split_chronological,
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
# The two forecasters the paper compares: LSTM reads the panel with its
# sentiment neutralized, LSTM Sentiment reads it as it is.
LSTM_VARIANTS = (STRATEGY_LSTM, STRATEGY_LSTM_SENTIMENT)
ALL_STRATEGIES = (STRATEGY_BUY_HOLD, STRATEGY_BEST_STOCK, STRATEGY_REBALANCING, *LSTM_VARIANTS)


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
    values[:, :, SENTIMENT_INDEX] = list(NEUTRAL_SENTIMENT.values())
    return AlignedPanel(dates=list(panel.dates), assets=list(panel.assets), values=values)


def train_forecaster(
    panel: AlignedPanel, split: SplitSpec, config: LstmConfig
) -> tuple[LstmModel, TrainReport]:
    """Fit scaler on the train split, train on train/val windows."""
    train_panel, val_panel, _ = split_chronological(panel, split)
    model = LstmModel(config, len(panel.assets))
    model.fit_scaler(train_panel.feature_matrix())
    report = train(
        model,
        make_windows(train_panel, config.window),
        make_windows(val_panel, config.window),
    )
    return model, report


def train_variants(
    panel: AlignedPanel,
    split: SplitSpec,
    config: LstmConfig,
    names: tuple[str, ...] = LSTM_VARIANTS,
) -> dict[str, tuple[LstmModel, TrainReport, AlignedPanel]]:
    """Train each LSTM variant in ``names`` (see LSTM_VARIANTS) on its view
    of ``panel``; returns ``{name: (model, report, the panel it reads)}``."""
    trained = {}
    for name in names:
        variant = neutralize_sentiment(panel) if name == STRATEGY_LSTM else panel
        trained[name] = (*train_forecaster(variant, split, config), variant)
    return trained


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


def _predictive_curves(
    eval_panel: AlignedPanel,
    trained: dict[str, tuple[LstmModel, TrainReport, AlignedPanel]],
    test_start: int,
    mc_count: int,
    mc_seed: int,
    cov_window: int,
    initial_capital: float,
) -> dict[str, WealthCurve]:
    """One wealth curve per trained LSTM variant (see train_variants), each
    forecasting from its own panel up to the last row of ``eval_panel``.  The
    variants share prices, so the returns, last closes and trailing windows
    are built once, and every variant's daily selection runs on the same
    Monte-Carlo draws."""
    prices_full = eval_panel.price_matrix()
    simple_full = prices_full[1:] / prices_full[:-1] - 1.0
    test_prices = prices_full[test_start:]
    m = test_prices.shape[0]
    gross = test_prices[1:] / test_prices[:-1]
    # decision at end of test row t (global g) targets the price on row t+1
    predicted = np.stack([
        predict_test_segment(model, panel.slice(0, eval_panel.n_rows), test_start)[1:]
        for model, _, panel in trained.values()
    ])
    last_closes = test_prices[:-1]
    trailing = []
    for t in range(m - 1):
        g = test_start + t  # returns through day g end at simple_full[g-1]
        lo = max(0, g - cov_window)
        trailing.append(simple_full[lo:g])
    weights = predictive_weights(
        predicted, last_closes, trailing, count=mc_count, seed=mc_seed
    )
    dates = eval_panel.dates[test_start:]
    return {
        name: run_backtest(w, gross, dates, initial_capital)
        for name, w in zip(trained, weights)
    }


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
    trained = train_variants(
        panel, split, lstm_config, tuple(n for n in LSTM_VARIANTS if n in strategies))
    if trained:
        curves.update(_predictive_curves(
            eval_panel, trained, t0, mc_count, mc_seed, cov_window, initial_capital
        ))

    reports, ttest = compare_strategies(
        curves, bh_name=STRATEGY_BUY_HOLD, replicate_capitals=replicate_capitals
    )
    return PipelineResult(
        curves=curves, reports=reports, ttest=ttest,
        train_reports={name: report for name, (_, report, _) in trained.items()},
    )


def replicates(
    runs: Iterable[tuple[AlignedPanel, int, int]],
    split: SplitSpec,
    lstm_config: LstmConfig,
    mc_count: int,
    cov_window: int,
    initial_capital: float,
    test_window: tuple | None = None,
) -> list[tuple[float, float]]:
    """The paper's experiment: for each run ``(panel, LSTM seed, Monte-Carlo
    seed)``, both LSTM variants trained with that seed and backtested on that
    panel.  Returns each run's (LSTM Sentiment final capital, LSTM final
    capital), the pairs a paired t-test compares."""
    capitals = []
    for panel, seed, mc_seed in runs:
        curves = run_pipeline(
            panel, split, replace(lstm_config, seed=seed), mc_count, mc_seed, cov_window,
            initial_capital, strategies=(STRATEGY_BUY_HOLD, *LSTM_VARIANTS),
            test_window=test_window,
        ).curves
        capitals.append((curves[STRATEGY_LSTM_SENTIMENT].final_capital,
                         curves[STRATEGY_LSTM].final_capital))
    return capitals
