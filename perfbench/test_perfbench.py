"""Checks of the benchmark itself, on tiny inputs (a few seconds in all).

    python3 -m pytest perfbench -q

The central check: every per-layer metric is non-zero on the workload it is
meant to be read on.  A renamed or rebound function in ``src/`` then fails
here instead of quietly reading 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "study": wl.Study(wl.StudyScale(n_days=200, epochs=3, mc_count=500)),
    "allocate": wl.Allocate(wl.AllocateScale(
        n_days=400, mc_count=500, cov_window=20, halt_start=340)),
    "cli": wl.Cli(wl.CliScale(n_days=150, texts_per_day=4, epochs=1,
                              mc_count=200, max_lag=2)),
}

LAYERS_USED = {
    "study": ("pipeline", "market_data", "forecast_lstm", "portfolio_opt", "backtest"),
    "allocate": ("pipeline", "market_data", "forecast_lstm", "portfolio_opt", "backtest"),
    "cli": spans.LAYERS,
}

# Each per-layer metric, on the workload whose end-to-end numbers it explains.
LISTED = {
    "study": [
        "forecast_lstm.train.s", "forecast_lstm.loss_and_grads.s",
        "forecast_lstm.loss_and_grads.calls", "forecast_lstm.adam_step.s",
        "forecast_lstm.loss.s", "forecast_lstm.loss.calls",
        "forecast_lstm.best_epoch_ratio", "portfolio_opt.mean_variance_select.s",
        "portfolio_opt.mean_variance_select.calls", "portfolio_opt.samples",
        "pipeline.edge_fapv",
    ],
    "allocate": [
        "forecast_lstm.forward.s", "portfolio_opt.mean_variance_select.s",
        "portfolio_opt.mean_variance_select.calls", "portfolio_opt.samples",
        "portfolio_opt.fallbacks", "portfolio_opt.predictive_weights.s",
        "backtest.run_backtest.s", "backtest.run_backtest.periods",
        "backtest.compare_strategies.s",
    ],
    "cli": [
        "portfolio_opt.frontier_samples.s", "pipeline.run_pipeline.s",
        "pipeline.train_forecaster.calls", "pipeline.neutralize_sentiment.s",
        "sentiment.load_sentiment_csv.s", "sentiment.load_sentiment_csv.calls",
        "sentiment.records", "sentiment.weekly_windows.s", "sentiment.daily_features.s",
        "market_data.load_prices.s", "market_data.load_prices.rows",
        "market_data.align_panel.s", "stats.granger.s", "stats.pearson.calls",
        "cli.read_panel.s", "cli.write_panel.s", "cli.bytes_written",
        "svg.line_chart.s", "svg.scatter_chart.s",
    ] + [f"cli.{c}.s" for c in wl.CLI_COMMANDS],
}
ANY_WORKLOAD = ["trace_overhead_s", "trace.spans"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = {}
    for name, workload in TINY.items():
        inputs = workload.setup(3, tmp_path_factory.mktemp(name))
        report, tracer = run.measure(workload, inputs, 1.0, 1, f"test-{name}")
        out[name] = (report, report.pop("_metrics"), tracer)
    return out


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_is_correct(traced, name):
    report, _, _ = traced[name]
    assert report["correct"], report["problems"]
    assert report["failed"] == 0 and report["attempted"] >= 2
    # tracing must not change a single output byte
    assert len(report["digests"]["0"]) == 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_listed_layer_metrics_are_nonzero(traced, name):
    _, metrics, _ = traced[name]
    names = LISTED[name] + [f"{layer}.self_s" for layer in LAYERS_USED[name]]
    zero = [m for m in names if not metrics.get(m)]
    assert not zero, f"{name}: metrics reading 0: {zero}"


def test_every_per_layer_metric_is_listed_on_a_workload():
    listed = {m for names in LISTED.values() for m in names} | set(ANY_WORKLOAD)
    listed |= {f"{layer}.self_s" for layer in spans.LAYERS}
    assert {m["name"] for m in spec()["per_layer"]} == listed


def test_lstm_and_selector_counts(traced):
    _, study, _ = traced["study"]
    scale = TINY["study"].scale
    assert study["pipeline.train_forecaster.calls"] == 2
    assert study["forecast_lstm.loss.calls"] == 2 * 2 * scale.epochs
    assert study["portfolio_opt.samples"] == (
        scale.mc_count * study["portfolio_opt.mean_variance_select.calls"])
    _, cli, _ = traced["cli"]
    # train fits 2 models; backtest fits 2 more plus 2 per replicate seed
    assert cli["pipeline.train_forecaster.calls"] == 2 + 2 + 2 * 2
    assert cli["sentiment.load_sentiment_csv.calls"] == 3


def test_spans_nest_under_their_callers(traced):
    _, _, tracer = traced["cli"]
    names = [s.name for s in tracer.spans]
    for command in wl.CLI_COMMANDS:
        assert f"cli.{command}" in names
    roots = {s.name for s in tracer.spans if s.parent is None}
    assert roots == {f"cli.{c}" for c in wl.CLI_COMMANDS}
    assert all(s.run_id == "test-cli" and s.end >= s.start for s in tracer.spans)


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer("t")
    tracer.spans = [
        spans.Span("pipeline.run", 0.0, 10.0, None, "t"),
        spans.Span("forecast_lstm.train", 1.0, 7.0, 0, "t"),
        spans.Span("forecast_lstm.loss", 2.0, 3.0, 1, "t"),
        spans.Span("portfolio_opt.select", 8.0, 9.5, 0, "t"),
    ]
    totals = tracer.totals()
    assert totals["pipeline.self_s"] == pytest.approx(2.5)
    assert totals["forecast_lstm.self_s"] == pytest.approx(6.0)
    assert totals["portfolio_opt.self_s"] == pytest.approx(1.5)
    assert totals["forecast_lstm.train.s"] == pytest.approx(6.0)


def test_install_rebinds_imported_names_and_restores_them():
    from sentfolio import cli, forecast_lstm, pipeline, portfolio_opt, stats

    originals = (forecast_lstm.train, pipeline.train, cli.granger,
                 cli.mean_variance_select, forecast_lstm.LstmModel.forward)
    restore = spans.install(spans.Tracer("t"))
    try:
        assert pipeline.train is forecast_lstm.train is not originals[0]
        assert cli.granger is stats.granger is not originals[2]
        assert cli.mean_variance_select is portfolio_opt.mean_variance_select
        assert pipeline.predictive_weights is portfolio_opt.predictive_weights
    finally:
        restore()
    assert (forecast_lstm.train, pipeline.train, cli.granger,
            cli.mean_variance_select, forecast_lstm.LstmModel.forward) == originals


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
