"""End-to-end orchestration: panels in, trained models, strategy curves and
metric tables out.  Both the CLI and the acceptance suite drive this module.

The backtest is one frame.  ``run_pipeline`` computes the test span's prices,
gross returns and dates once, and every strategy runs over them: the
benchmarks of ``BENCHMARKS``, each a function of the gross returns, and the
two LSTM variants, whose mean-variance weights are picked from each day's
forecast.  ``ALL_STRATEGIES`` is the table's order of them."""

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
from .errors import ConfigurationError
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

# Table row names, benchmark first.
STRATEGY_BUY_HOLD = "Buy and Hold"
STRATEGY_BEST_STOCK = "Best Stock"
STRATEGY_REBALANCING = "Rebalancing"
STRATEGY_LSTM = "LSTM"
STRATEGY_LSTM_SENTIMENT = "LSTM Sentiment"
# The two forecasters the paper compares: LSTM reads the panel with its
# sentiment neutralized, LSTM Sentiment reads it as it is.
LSTM_VARIANTS = (STRATEGY_LSTM, STRATEGY_LSTM_SENTIMENT)
# The benchmark strategies, each a function of the test span's gross returns.
BENCHMARKS = {
    STRATEGY_BUY_HOLD: bah_weights,
    STRATEGY_BEST_STOCK: best_stock_weights,
    STRATEGY_REBALANCING: rebalancing_weights,
}
ALL_STRATEGIES = (*BENCHMARKS, *LSTM_VARIANTS)


@dataclass
class PipelineResult:
    curves: dict[str, WealthCurve]
    reports: list[PerfReport]
    # Never set: the replicate t-test runs in cli.cmd_report, on replicates.csv.
    # The field stays because perfbench/workloads._pipeline_digest reads it.
    ttest: None = None
    train_reports: dict[str, TrainReport] = field(default_factory=dict)
    equal_weight_days: int = 0  # days on which the LSTM variants fell back to equal weights


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


def _predictive_curves(
    prices: np.ndarray,
    gross: np.ndarray,
    dates: list,
    trained: dict[str, tuple[LstmModel, TrainReport, AlignedPanel]],
    t0: int,
    mc_count: int,
    mc_seed: int,
    cov_window: int,
    initial_capital: float,
) -> tuple[dict[str, WealthCurve], int]:
    """One wealth curve per trained LSTM variant (see train_variants) over the
    test span: rows ``t0`` to the last row of ``prices``, whose ``gross``
    returns and ``dates`` run_pipeline computed, and the number of days that
    fell back to equal weights.  Each variant forecasts from its own panel;
    the variants share prices, so the last closes and trailing windows are
    built once, and every variant's daily selection runs on the same
    Monte-Carlo draws."""
    t1 = prices.shape[0]
    simple = prices[1:] / prices[:-1] - 1.0
    # Row k of a forecast predicts test row k from the `window` rows before
    # it (train_forecaster leaves t0 > window); the decision at the end of
    # test row t targets row t + 1, so the first row is not used.
    predicted = np.stack([
        predict_series(model, variant.slice(t0 - model.config.window, t1))[1:]
        for model, _, variant in trained.values()
    ])
    # the trailing returns of global row g end at simple[g - 1]
    trailing = [simple[max(0, g - cov_window):g] for g in range(t0, t1 - 1)]
    weights, equal_days = predictive_weights(
        predicted, prices[t0:-1], trailing, count=mc_count, seed=mc_seed
    )
    return {
        name: run_backtest(w, gross, dates, initial_capital)
        for name, w in zip(trained, weights)
    }, equal_days


def run_pipeline(
    panel: AlignedPanel,
    split: SplitSpec | None = None,
    lstm_config: LstmConfig | None = None,
    mc_count: int = DEFAULT_SAMPLE_COUNT,
    mc_seed: int = 0,
    cov_window: int = DEFAULT_COV_WINDOW,
    initial_capital: float = DEFAULT_INITIAL_CAPITAL,
    strategies: tuple[str, ...] = ALL_STRATEGIES,
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
    prices = panel.price_matrix()[:t1]
    gross = prices[t0 + 1:] / prices[t0:-1]
    dates = panel.dates[t0:t1]
    curves = {
        name: run_backtest(weights(gross), gross, dates, initial_capital)
        for name, weights in BENCHMARKS.items() if name in strategies
    }
    trained = train_variants(
        panel, split, lstm_config, tuple(n for n in LSTM_VARIANTS if n in strategies))
    equal_days = 0
    if trained:
        predictive, equal_days = _predictive_curves(
            prices, gross, dates, trained, t0, mc_count, mc_seed, cov_window,
            initial_capital,
        )
        curves.update(predictive)

    return PipelineResult(
        curves=curves, reports=compare_strategies(curves, bh_name=STRATEGY_BUY_HOLD),
        train_reports={name: report for name, (_, report, _) in trained.items()},
        equal_weight_days=equal_days,
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
