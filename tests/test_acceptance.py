"""Acceptance suite: the nine primary criteria, each as one test, and the
golden digests of their outputs.

Every test prints a [PASS] line with the measured quantity so a plain pytest -s
run doubles as the acceptance protocol transcript.
"""

import datetime as dt
import hashlib
import time

import numpy as np
import pytest
import scipy.stats

from conftest import skip_unless_golden_build
from sentfolio.backtest import (
    DEFAULT_INITIAL_CAPITAL,
    WealthCurve,
    annualized_return,
    fapv,
    max_drawdown,
    run_backtest,
)
from sentfolio.cli import REPORT_HEADER, main
from sentfolio.forecast_lstm import LstmConfig, LstmModel, gradient_check, make_windows
from sentfolio.market_data import SplitSpec
from sentfolio.pipeline import STRATEGY_BUY_HOLD, replicates, run_pipeline
from sentfolio.portfolio_opt import (
    DEFAULT_COV_WINDOW,
    Moments,
    Weights,
    mean_variance_select,
    portfolio_stats,
)
from sentfolio.stats import f_sf, granger, paired_t_test, pearson, student_t_sf
from sentfolio.synthetic import make_panel, write_market_csv


def test_criterion_1_gradient_integrity():
    """Analytic vs central-difference gradients: < 1e-4 over >= 200 probes x 5
    seeds, under 30 s."""
    panel = make_panel(seed=0, n_days=120)
    X, Y = make_windows(panel)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        model = LstmModel(LstmConfig(seed=seed), len(panel.assets))
        model.fit_scaler(panel.feature_matrix())
        err = gradient_check(model, (X, Y), probe_count=200, seed=seed)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    print(f"[PASS] criterion 1: max relative gradient error {worst:.3e} "
          f"(5 seeds x 200 probes, {elapsed:.1f}s)")


def test_criterion_2_statistical_oracles():
    """pearson, paired_t_test, t/F tails match scipy within 1e-6 on 50
    randomized cases; t^2/F identity within 1e-8."""
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(-5, 5))
        df = float(rng.uniform(1, 60))
        worst = max(worst, abs(student_t_sf(t, df) - scipy.stats.t.sf(t, df)))
        f = float(rng.uniform(0, 8))
        d1, d2 = int(rng.integers(1, 12)), int(rng.integers(2, 40))
        worst = max(worst, abs(f_sf(f, d1, d2) - scipy.stats.f.sf(f, d1, d2)))
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        ours = pearson(x, y)
        ref = scipy.stats.pearsonr(x, y)
        worst = max(worst, abs(ours.statistic - ref.statistic),
                    abs(ours.p_value - ref.pvalue))
        a = rng.standard_normal(10)
        b = rng.standard_normal(10)
        ours_t = paired_t_test(a, b)
        ref_t = scipy.stats.ttest_rel(a, b)
        worst = max(worst, abs(ours_t.statistic - ref_t.statistic),
                    abs(ours_t.p_value - ref_t.pvalue))
    assert worst < 1e-6
    identity_worst = max(
        abs(f_sf(t * t, 1, df) - 2 * student_t_sf(abs(t), df))
        for t in np.linspace(-4, 4, 17) for df in (2, 7, 23)
    )
    assert identity_worst < 1e-8
    print(f"[PASS] criterion 2: oracle deviation {worst:.3e} over 50 cases, "
          f"t^2/F identity gap {identity_worst:.3e}")


def test_criterion_3_granger_calibration():
    """Lag-1 false-rejection rate on independent noise in [0.01, 0.10];
    constructed causal pair rejects at p < 0.01; under 60 s."""
    start = time.perf_counter()
    rejections = 0
    for seed in range(200):
        rng = np.random.default_rng(3000 + seed)
        r = rng.standard_normal(200)
        s = rng.standard_normal(200)
        if granger(r, s, max_lag=1)[0].p_value < 0.05:
            rejections += 1
    rate = rejections / 200
    assert 0.01 <= rate <= 0.10

    rng = np.random.default_rng(42)
    n = 300
    s = rng.standard_normal(n)
    r = np.zeros(n)
    for t in range(1, n):
        r[t] = 0.8 * s[t - 1] + 0.1 * rng.standard_normal()
    causal_p = granger(r, s, max_lag=1)[0].p_value
    assert causal_p < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[PASS] criterion 3: null rejection rate {rate:.3f}, causal lag-1 "
          f"p {causal_p:.2e} ({elapsed:.1f}s)")


def test_criterion_4_mean_variance_sanity():
    """Dominant asset takes > 0.9 weight among 50,000 samples; selection beats
    equal weights."""
    m = Moments(mu=np.array([0.02, 0.0]), cov=0.0004 * np.eye(2))
    (best,) = mean_variance_select(m, count=50_000, seed=0)
    assert best.weights.values[0] > 0.9
    eq = portfolio_stats(Weights.equal(2), m)
    assert best.sharpe >= eq.sharpe - 1e-6
    print(f"[PASS] criterion 4: dominant weight {best.weights.values[0]:.4f}, "
          f"sharpe {best.sharpe:.4f} >= equal-weight {eq.sharpe:.4f}")


def test_criterion_5_backtest_identities():
    """SR(BH) and BV(BH) are exactly 1; single-asset wealth matches
    closed-form compounding within 1e-9."""
    panel = make_panel(seed=5, n_days=120)
    result = run_pipeline(
        panel,
        lstm_config=LstmConfig(hidden_size=4, num_layers=1, epochs=2, seed=0),
        mc_count=500,
        strategies=(STRATEGY_BUY_HOLD, "Rebalancing"),
    )
    bh_row = next(r for r in result.reports if r.strategy == STRATEGY_BUY_HOLD)
    assert bh_row.bv == 1.0
    assert bh_row.sharpe_vs_bh == 1.0

    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(41)]
    gross = np.full((40, 1), 1.01)
    curve = run_backtest([Weights.equal(1)] * 40, gross, dates, 10_000.0)
    closed_form = 10_000.0 * 1.01**40
    assert curve.final_capital == pytest.approx(closed_form, rel=1e-9)
    print(f"[PASS] criterion 5: SR(BH)={bh_row.sharpe_vs_bh}, BV(BH)={bh_row.bv}, "
          f"compounding error {abs(curve.final_capital - closed_form):.2e}")


def test_criterion_6_metric_arithmetic():
    """MDD of (100, 120, 90) = 0.25; AR of fAPV 2.0 over 252 periods = 1.0;
    fAPV multiplicative over concatenated segments within 1e-12."""
    def curve(values):
        ds = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(len(values))]
        return WealthCurve(dates=ds, values=[float(v) for v in values], weights=[])

    mdd = max_drawdown(curve([100, 120, 90]))
    assert mdd == pytest.approx(0.25, abs=1e-15)

    doubling = curve(list(np.linspace(100, 200, 253)))
    ar = annualized_return(doubling)
    assert ar == pytest.approx(1.0, rel=1e-12)

    values = [100, 103, 99, 112, 108, 121]
    full = fapv(curve(values))
    split_prod = fapv(curve(values[:3])) * fapv(curve(values[2:]))
    assert abs(full - split_prod) < 1e-12
    print(f"[PASS] criterion 6: MDD {mdd}, AR {ar:.12f}, "
          f"fAPV multiplicativity gap {abs(full - split_prod):.2e}")


def test_criterion_7_directional_reproduction():
    """On the sentiment-driven synthetic market, LSTM+sentiment beats the
    neutralized LSTM over 10 seeds with paired-t p < 0.05, in under 10 min."""
    start = time.perf_counter()
    capitals = replicates(
        ((make_panel(seed=100 + i, n_days=800), i, i) for i in range(10)),
        SplitSpec(),
        LstmConfig(num_layers=1, hidden_size=16, learning_rate=0.01, epochs=150),
        mc_count=50_000,
        cov_window=DEFAULT_COV_WINDOW,
        initial_capital=DEFAULT_INITIAL_CAPITAL,
    )
    with_sent, without_sent = zip(*capitals)
    elapsed = time.perf_counter() - start
    ttest = paired_t_test(with_sent, without_sent)
    assert np.mean(with_sent) > np.mean(without_sent)
    assert ttest.statistic > 0
    assert ttest.p_value < 0.05
    assert ttest.df == (9,)
    assert elapsed < 600.0
    print(f"[PASS] criterion 7: mean capital {np.mean(with_sent):.0f} vs "
          f"{np.mean(without_sent):.0f}, t={ttest.statistic:.3f} "
          f"p={ttest.p_value:.4f} (n=10, df=9, {elapsed:.0f}s)")


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-cli")
    write_market_csv(root / "data", seed=8, n_days=100)
    (root / "config.yaml").write_text(
        "assets: [AAA, BBB, CCC, DDD, EEE]\n"
        "data_dir: data\n"
        "out_dir: out\n"
        "sentiment_file: data/sentiment.csv\n"
        "lstm: {hidden_size: 4, num_layers: 1, epochs: 2, seed: 0}\n"
        "monte_carlo: {count: 500, seed: 0}\n"
        "max_lag: 2\n"
    )
    cfg = str(root / "config.yaml")
    for command in ("ingest", "analyze", "backtest", "report"):
        assert main([command, "--config", cfg]) == 0
    return root


def test_criterion_8_table_shape(cli_workspace):
    """Report columns match the published comparison-table header with five
    strategy rows; analyze artifacts carry the correlation/causality layouts."""
    report = (cli_workspace / "out" / "report.csv").read_text().splitlines()
    assert report[1].split(",") == REPORT_HEADER
    strategies = [row.split(",")[0] for row in report[2:]]
    assert len(strategies) == 5
    assert strategies[0] == STRATEGY_BUY_HOLD
    corr = (cli_workspace / "out" / "correlation.csv").read_text().splitlines()
    assert corr[1] == "asset,mean,max,median,ratio"
    assert len(corr) == 2 + 5
    gr = (cli_workspace / "out" / "granger.csv").read_text().splitlines()
    assert gr[1] == "asset,lag,F,df1,df2,p,significant"
    print(f"[PASS] criterion 8: report header {report[1]!r} with rows "
          f"{strategies}")


def test_criterion_9_determinism(cli_workspace):
    """Identical config + seed reruns are byte-identical, including into a
    fresh output directory."""
    cfg = str(cli_workspace / "config.yaml")
    out = cli_workspace / "out"
    artifacts = ["panel.csv", "wealth_curves.csv", "report.csv", "report.json",
                 "wealth.svg", "correlation.csv", "granger.csv"]
    before = {name: (out / name).read_bytes() for name in artifacts}
    alt = cli_workspace / "alt"
    for command in ("ingest", "analyze", "backtest", "report"):
        assert main([command, "--config", cfg, "--out", str(alt)]) == 0
    for name in artifacts:
        assert (alt / name).read_bytes() == before[name], name
    print(f"[PASS] criterion 9: {len(artifacts)} artifacts byte-identical "
          "across independent reruns")


# -- golden digests ----------------------------------------------------------
# SHA-256 pins of the criterion-9 artifacts and of one run_pipeline result,
# taken with conftest's GOLDEN_NUMPY and GOLDEN_BLAS.
GOLDEN_ARTIFACTS = {
    "panel.csv": "0f478b085d67f8a97a1fd12de2c72231af86b957a8f5666bdb5cf9e95ec3e110",
    "wealth_curves.csv": "6080ad97b8b5c61b4e17ec141ef544fa9e885ae08fc811bdabc163df3d8d45ea",
    "report.csv": "dd6eca6aa29ce0d2fa1bab99aa074290966c5c044f968554348d122f03159c1c",
    "report.json": "d6d0e07dfc79a13aef7066f39e8271b21fcf2a013ab51b63685f43146f90bcf0",
    "wealth.svg": "0f15b3700dcd517bde63772b0be95c2b38d2d6b8f853f8eb991a95d7d6335131",
    "correlation.csv": "3ae17c2345b97d986bfe40e2032691edaa2c2d017c1a8466a287b9fe777efd95",
    "granger.csv": "e1bfabd6c2957e46cbd1f3839a2f5db67d5d6046b93d643402bae3efe7eaaa66",
}
GOLDEN_PIPELINE = "2befb20721b106efbaa57358bd4c9d08685ef4500469f38b554e8cbfe0afd1ec"


def _pipeline_digest(result) -> str:
    """Curve values, weight rows and training losses of a PipelineResult."""
    h = hashlib.sha256()
    for name, curve in result.curves.items():
        h.update(name.encode())
        h.update(repr(curve.values).encode())
        h.update(repr([w.values for w in curve.weights]).encode())
    for name, tr in sorted(result.train_reports.items()):
        h.update(repr((name, tr.train_mse, tr.val_mse, tr.best_epoch)).encode())
    if result.ttest is not None:
        h.update(repr((result.ttest.statistic, result.ttest.p_value)).encode())
    return h.hexdigest()


def test_golden_digests(cli_workspace):
    """The criterion-9 artifacts and a small run_pipeline result hash to the
    pinned SHA-256 digests, so a refactor that claims identical outputs is
    checked against the outputs from before it, not only against itself."""
    skip_unless_golden_build()
    out = cli_workspace / "out"
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_ARTIFACTS}
    assert got == GOLDEN_ARTIFACTS
    result = run_pipeline(make_panel(seed=1, n_days=120), mc_count=500,
                          lstm_config=LstmConfig(hidden_size=4, num_layers=1, epochs=3, seed=0))
    assert _pipeline_digest(result) == GOLDEN_PIPELINE
    print(f"[PASS] golden digests: {len(got)} artifacts and one pipeline run")
