import contextlib
import csv
import datetime as dt
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from conftest import skip_unless_golden_build
from sentfolio import portfolio_opt, sentiment
from sentfolio.cli import (
    KEYS, REPORT_HEADER, _weekly_stats_and_returns, load_config, main, read_panel,
)
from sentfolio.market_data import AlignedPanel, split_chronological
from sentfolio.synthetic import make_panel, write_market_csv

LEXICON = "good\t0.5\ngreat\t0.8\nbad\t-0.5\nawful\t-0.8\n"

AUDIT = """text,label
good,Positive
bad,Negative
,Neutral
"""

CONFIG_TEMPLATE = """\
assets: [AAA, BBB, CCC, DDD, EEE]
data_dir: data
out_dir: out
sentiment_file: data/sentiment.csv
lexicon_file: lexicon.tsv
audit_file: audit.csv
lstm:
  hidden_size: 4
  num_layers: 1
  epochs: 2
  seed: 0
monte_carlo:
  count: 300
  seed: 0
max_lag: 2
"""


THREE_ASSETS = CONFIG_TEMPLATE.replace("AAA, BBB, CCC, DDD, EEE", "AAA, BBB, CCC")


def populate(root, config=CONFIG_TEMPLATE):
    """Market CSVs, lexicon, audit sample and ``config`` under ``root``."""
    write_market_csv(root / "data", seed=3, n_days=100)
    (root / "config.yaml").write_text(config)
    (root / "lexicon.tsv").write_text(LEXICON)
    (root / "audit.csv").write_text(AUDIT)
    return root


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A populated data directory with a config, run through ingest once."""
    root = populate(tmp_path_factory.mktemp("cli"))
    assert main(["ingest", "--config", str(root / "config.yaml")]) == 0
    return root


def run(workspace, *args):
    return main([*args, "--config", str(workspace / "config.yaml")])


def artifact(workspace, name):
    return workspace / "out" / name


class TestConfig:
    def test_load(self, workspace):
        cfg = load_config(workspace / "config.yaml")
        assert cfg.assets == ["AAA", "BBB", "CCC", "DDD", "EEE"]
        assert cfg.mc_count == 300
        assert cfg.lstm.hidden_size == 4

    def test_hash_stable(self, workspace):
        a = load_config(workspace / "config.yaml")
        b = load_config(workspace / "config.yaml")
        assert a.hash() == b.hash()

    def test_seed_override_changes_stamp(self, workspace):
        base = load_config(workspace / "config.yaml")
        seeded = load_config(workspace / "config.yaml", seed_override=7)
        assert seeded.seed == 7
        assert seeded.stamp() != base.stamp()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_missing_asset_file_exit_2(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "config.yaml").write_text("assets: [ZZZ]\ndata_dir: data\n")
        assert main(["ingest", "--config", str(tmp_path / "config.yaml")]) == 2

    def test_only_reading_a_config_loads_yaml(self):
        """The package and the benchmark's modules import without PyYAML,
        which costs about 1 MB of memory; ``load_config`` imports it."""
        root = Path(__file__).resolve().parent.parent
        code = ("import sys, sentfolio\n"
                "from sentfolio import (backtest, cli, forecast_lstm, market_data, pipeline,\n"
                "                       portfolio_opt, sentiment, stats, svg, synthetic)\n"
                "import spans, workloads\n"
                "print('yaml' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestIngest:
    def test_panel_artifact(self, workspace):
        path = artifact(workspace, "panel.csv")
        assert path.exists()
        first = path.read_text().splitlines()[0]
        assert first.startswith("# config=") and "seed=0" in first

    def test_round_trip_panel(self, workspace):
        cfg = load_config(workspace / "config.yaml")
        panel = read_panel(cfg)
        assert len(panel.assets) == 5
        assert panel.n_features == 30

    def test_rerun_byte_identical(self, workspace):
        path = artifact(workspace, "panel.csv")
        before = path.read_bytes()
        assert run(workspace, "ingest") == 0
        assert path.read_bytes() == before

    def test_sentiment_joined_into_panel(self, workspace):
        cfg = load_config(workspace / "config.yaml")
        panel = read_panel(cfg)
        ratios = panel.features["AAA"]["ratio"]
        assert any(abs(r - 1.0) > 0.01 for r in ratios)


class TestLabel:
    def test_writes_labeled(self, workspace):
        assert run(workspace, "label") == 0
        lines = artifact(workspace, "labeled.csv").read_text().splitlines()
        assert lines[1].split(",")[:2] == ["date", "asset"]
        assert len(lines) > 100


class TestAnalyze:
    def test_artifacts(self, workspace):
        assert run(workspace, "analyze") == 0
        corr = artifact(workspace, "correlation.csv").read_text().splitlines()
        assert corr[1] == "asset,mean,max,median,ratio"
        assert len(corr) == 2 + 5  # stamp + header + one row per asset
        gr = artifact(workspace, "granger.csv").read_text().splitlines()
        assert gr[1] == "asset,lag,F,df1,df2,p,significant"
        assert len(gr) == 2 + 5 * 2  # max_lag 2

    def test_requires_panel(self, tmp_path):
        write_market_csv(tmp_path / "data", seed=3, n_days=60)
        (tmp_path / "config.yaml").write_text(
            "assets: [AAA]\ndata_dir: data\nsentiment_file: data/sentiment.csv\n"
        )
        assert main(["analyze", "--config", str(tmp_path / "config.yaml")]) == 2


class TestTrainBacktestReport:
    def test_train_writes_checkpoints(self, workspace):
        assert run(workspace, "train") == 0
        assert artifact(workspace, "lstm.json").exists()
        assert artifact(workspace, "lstm_sentiment.json").exists()
        loss = artifact(workspace, "loss_lstm.csv").read_text().splitlines()
        assert loss[1] == "epoch,train_mse,val_mse"
        assert len(loss) == 2 + 2  # epochs: 2

    def test_backtest_writes_curves(self, workspace):
        assert run(workspace, "backtest") == 0
        lines = artifact(workspace, "wealth_curves.csv").read_text().splitlines()
        header = lines[1].split(",")
        assert header[0] == "date"
        assert "Buy and Hold" in header
        assert "LSTM Sentiment" in header

    def test_backtest_deterministic(self, workspace):
        path = artifact(workspace, "wealth_curves.csv")
        before = path.read_bytes()
        assert run(workspace, "backtest") == 0
        assert path.read_bytes() == before

    def test_report_table(self, workspace):
        assert run(workspace, "report") == 0
        lines = artifact(workspace, "report.csv").read_text().splitlines()
        assert lines[1].split(",") == REPORT_HEADER
        payload = json.loads(artifact(workspace, "report.json").read_text())
        assert payload["strategies"]["Buy and Hold"]["bv"] == pytest.approx(1.0)
        assert payload["strategies"]["Buy and Hold"]["sr"] == pytest.approx(1.0)
        assert artifact(workspace, "wealth.svg").read_text().startswith("<svg")

    def test_report_requires_backtest(self, tmp_path):
        write_market_csv(tmp_path / "data", seed=3, n_days=60)
        (tmp_path / "config.yaml").write_text("assets: [AAA]\ndata_dir: data\n")
        assert main(["report", "--config", str(tmp_path / "config.yaml")]) == 2

    def test_down_market_subwindow(self, workspace):
        full = artifact(workspace, "wealth_curves.csv").read_text().splitlines()
        dates = [ln.split(",")[0] for ln in full[2:]]
        lo, hi = dates[1], dates[-2]
        assert run(workspace, "backtest", "--down-market", f"{lo},{hi}") == 0
        sub = artifact(workspace, "wealth_curves.csv").read_text().splitlines()
        assert len(sub) < len(full)
        # restore the full-window artifact for later tests
        assert run(workspace, "backtest") == 0

    def test_down_market_empty_exit_2(self, workspace):
        code = run(workspace, "backtest", "--down-market", "1990-01-01,1990-01-05")
        assert code == 2

    def test_down_market_malformed_exit_2(self, workspace):
        assert run(workspace, "backtest", "--down-market", "nonsense") == 2

    def test_down_market_wrong_command_exit_2(self, workspace):
        assert run(workspace, "report", "--down-market", "1990-01-01,1990-01-05") == 2


class TestFrontier:
    def test_artifacts(self, workspace):
        assert run(workspace, "frontier") == 0
        lines = artifact(workspace, "frontier.csv").read_text().splitlines()
        assert lines[1] == "exp_return,volatility,sharpe"
        assert len(lines) == 2 + 300  # monte_carlo.count
        assert artifact(workspace, "frontier.svg").read_text().startswith("<svg")

    def test_one_draw_gives_the_cloud_and_the_pick(self, workspace, monkeypatch):
        draws = []
        draw = portfolio_opt._draw_simplex
        monkeypatch.setattr(portfolio_opt, "_draw_simplex",
                            lambda W, *rest: draws.append(len(W)) or draw(W, *rest))
        assert run(workspace, "frontier") == 0
        assert draws == [300]
        monkeypatch.undo()
        # the cloud is frontier_samples' on the train split's returns
        cfg = load_config(workspace / "config.yaml")
        prices = split_chronological(read_panel(cfg), cfg.split)[0].price_matrix()
        moments = portfolio_opt.estimate_moments(prices[1:] / prices[:-1] - 1.0)
        _, vol, ((exp_ret, sharpe),) = portfolio_opt.frontier_samples(moments, 300, cfg.mc_seed)
        assert artifact(workspace, "frontier.csv").read_text().splitlines()[2:] == [
            ",".join(map(repr, row)) for row in zip(exp_ret.tolist(), vol.tolist(), sharpe.tolist())]


class TestAudit:
    def test_confusion_matrix(self, workspace):
        assert run(workspace, "audit") == 0
        lines = artifact(workspace, "confusion.csv").read_text().splitlines()
        assert lines[1] == "true_label,Positive,Negative,Neutral"
        assert len(lines) == 2 + 3


class TestSeedOverride:
    def test_seed_flag_changes_artifact_stamp(self, workspace, tmp_path):
        out = tmp_path / "alt"
        code = main(["ingest", "--config", str(workspace / "config.yaml"),
                     "--seed", "9", "--out", str(out)])
        assert code == 0
        first = (out / "panel.csv").read_text().splitlines()[0]
        assert "seed=9" in first


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _ingested(root):
    assert run(root, "ingest") == 0
    return root / "out" / "panel.csv"


def _cut_last_field(path, lineno, replacement=""):
    lines = path.read_text().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1].rsplit(",", 1)[0] + replacement + "\n"
    path.write_text("".join(lines))


def _truncate_panel_row(root):
    _cut_last_field(_ingested(root), 5)


def _swap_panel_columns(root):
    _edit(_ingested(root), "AAA:likes,AAA:retweets", "AAA:retweets,AAA:likes")


def _config_edit(old, new):
    return lambda root: _edit(root / "config.yaml", old, new)


def _sentiment_field(lineno, index, value, ingest_first=False):
    """Set field ``index`` of line ``lineno`` of the (unquoted) sentiment CSV."""
    return _data_field("sentiment.csv", lineno, index, value, ingest_first)


def _data_field(name, lineno, index, value, ingest_first=False):
    """Set field ``index`` of line ``lineno`` of (unquoted) data file ``name``."""
    def corrupt(root):
        if ingest_first:
            _ingested(root)
        _set_field(root / "data" / name, lineno, index, value)
    return corrupt


def _set_field(path, lineno, index, value):
    """Set field ``index`` of line ``lineno`` of the (unquoted) CSV ``path``."""
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[lineno - 1].rstrip("\r\n").split(",")
    fields[index] = value
    lines[lineno - 1] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def _sentiment_lines(lineno, *new_lines):
    """Replace line ``lineno`` of the sentiment CSV with ``new_lines``."""
    return _data_lines("sentiment.csv", lineno, *new_lines)


def _data_lines(name, lineno, *new_lines):
    """Replace line ``lineno`` of data file ``name`` with ``new_lines``."""
    def corrupt(root):
        path = root / "data" / name
        lines = path.read_text().splitlines(keepends=True)
        lines[lineno - 1:lineno] = [ln + "\n" for ln in new_lines]
        path.write_text("".join(lines))
    return corrupt


def _non_utf8(name, lineno):
    """Put a 0xff byte at the start of line ``lineno`` of ``name``."""
    def corrupt(root):
        path = root / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = b"\xff" + lines[lineno - 1]
        path.write_bytes(b"".join(lines))
    return corrupt


def _lexicon(text):
    return lambda root: (root / "lexicon.tsv").write_text(text)


def _out_files(**texts):
    """Write each ``name=text`` as the artifact ``out/<name>.csv``."""
    def corrupt(root):
        (root / "out").mkdir(exist_ok=True)
        for name, text in texts.items():
            (root / "out" / f"{name}.csv").write_text(text)
    return corrupt


def _overflowing_return(path_of, low="1e-10", high="1e300", line=4):
    """Closes of ``low`` and then ``high`` for AAA on lines ``line`` and
    ``line + 1`` of the file ``path_of(root)``: by default their ratio
    overflows a float."""
    def corrupt(root):
        path = path_of(root)
        _set_field(path, line, 1, low)
        _set_field(path, line + 1, 1, high)
    return corrupt


def _huge_return(path_of):
    """Closes of 1e-100 and then 1e100 for AAA on lines 70 and 71 of the file
    ``path_of(root)``: the return of 1e200 is a float, but its square is
    not."""
    return _overflowing_return(path_of, "1e-100", "1e100", 70)


def _two_huge_returns(path_of, line):
    """Closes of 1e-150, 1.3e4 and 1.69e158 for AAA from line ``line`` of the
    file ``path_of(root)`` on: each of the two returns of about 1.3e154
    squares to a float, but the sum of their squares does not."""
    def corrupt(root):
        path = path_of(root)
        for offset, close in enumerate(("1e-150", "1.3e4", "1.69e158")):
            _set_field(path, line + offset, 1, close)
    return corrupt


def _flat_prices(root):
    """Every price file at a constant price, then ingest."""
    for asset in ("AAA", "BBB", "CCC"):
        path = root / "data" / f"{asset}.csv"
        dates = [row.split(",")[0] for row in path.read_text().splitlines()[1:]]
        path.write_text("date,adj_close,volume\n" + "".join(f"{d},10.0,100\n" for d in dates))
    _ingested(root)


STAMP = "# config=000000000000 seed=0\n"
WEALTH_CURVES = STAMP + """\
date,Buy and Hold,LSTM
2015-01-02,10000.0,10000.0
2015-01-05,10100.0,9950.0
2015-01-06,10050.0,10020.0
2015-01-07,10200.0,10110.0
"""
REPLICATES = STAMP + """\
seed,lstm_sentiment_final,lstm_final
1,10100.0,10050.0
2,10200.0,10010.0
"""
FLAT_BENCHMARK = STAMP + """\
date,Buy and Hold,LSTM
2015-01-02,10000.0,10000.0
2015-01-05,10000.0,9950.0
2015-01-06,10000.0,10020.0
2015-01-07,10000.0,10110.0
"""
FIELD_LIMIT = 131_072  # csv.field_size_limit() by default
MONTE_CARLO = "monte_carlo:\n  count: 300\n  seed: 0\n"

BAD_INPUTS = {
    "split not a mapping": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\nsplit: 0.5"), "split must be a mapping"),
    "monte_carlo not a mapping": (
        "ingest", _config_edit(MONTE_CARLO, "monte_carlo: 5\n"), "monte_carlo must be a mapping"),
    "split fraction not a number": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\nsplit: {train: lots}"),
        "split.train must be a number"),
    "monte_carlo count not a number": (
        "ingest", _config_edit("count: 300", "count: many"), "monte_carlo.count must be an integer"),
    "monte_carlo count zero": (
        "ingest", _config_edit("count: 300", "count: 0"), "monte_carlo.count must be >= 1"),
    "monte_carlo count fractional": (
        "ingest", _config_edit("count: 300", "count: 2.5"), "monte_carlo.count must be an integer"),
    "cov_window not a number": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\ncov_window: wide"),
        "cov_window must be an integer"),
    "initial_capital not a number": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\ninitial_capital: rich"),
        "initial_capital must be a number"),
    "max_lag not a number": (
        "ingest", _config_edit("max_lag: 2", "max_lag: two"), "max_lag must be an integer"),
    "replicate_seeds not a list": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\nreplicate_seeds: 5"),
        "replicate_seeds must be a list"),
    "assets not a list": (
        "ingest", _config_edit("assets: [AAA, BBB, CCC]", "assets: 5"), "assets must be a list"),
    "data_dir not a path": (
        "ingest", _config_edit("data_dir: data", "data_dir: [data]"), "data_dir must be a path"),
    "lstm input_width is no key": (
        "ingest", lambda root: _edit(root / "config.yaml", "  hidden_size: 4",
                                     "  hidden_size: 4\n  input_width: 18"),
        "unknown key lstm.input_width"),
    "unknown lstm key": (
        "ingest", lambda root: _edit(root / "config.yaml", "hidden_size:", "hidden:"),
        "hidden"),
    "malformed yaml": (
        "ingest", lambda root: _edit(root / "config.yaml", "out_dir: out", "out_dir: [out"),
        "config.yaml:"),
    "nan volume": (
        "ingest", lambda root: _cut_last_field(root / "data" / "BBB.csv", 4, ",nan"),
        "BBB.csv:4:"),
    "infinite price": (
        "ingest", _data_field("BBB.csv", 3, 1, "1e400"), "BBB.csv:3: non-finite adj_close inf"),
    "unbalanced quote in price row": (
        "ingest", _data_field("BBB.csv", 3, 1, '"39.355874'),
        "BBB.csv:3: quoted field runs on to line 101"),
    "short price row": (
        "ingest", _data_lines("BBB.csv", 3, "2015-01-03"), "BBB.csv:3: 1 fields, expected 3"),
    "long price row": (
        "ingest", lambda root: _cut_last_field(root / "data" / "BBB.csv", 4, ",73815,1"),
        "BBB.csv:4: 4 fields, expected 3"),
    "bad price date after a blank line": (
        "ingest", _data_lines("BBB.csv", 3, "", "2015-13-03,39.355874,99517"),
        "BBB.csv:4: malformed row"),
    "truncated panel row": ("train", _truncate_panel_row, "panel.csv:5:"),
    "panel columns out of order": ("train", _swap_panel_columns, "panel.csv:2:"),
    "audit file without text": (
        "audit", lambda root: (root / "audit.csv").write_text("label\nPositive\n"), "text"),
    "audit file without label": (
        "audit", lambda root: (root / "audit.csv").write_text("text\ngood\n"), "label"),
    "short sentiment row": (
        "ingest", _sentiment_lines(3, "2015-01-02"), "sentiment.csv:3: 1 fields, expected 8"),
    "infinite engagement count": (
        "label", _sentiment_field(3, 5, "inf"), "sentiment.csv:3: count 'inf' is not a finite"),
    "fractional engagement count": (
        "ingest", _sentiment_field(4, 7, "2.7"), "sentiment.csv:4: count '2.7' is not a finite"),
    "infinite polarity": (
        "analyze", _sentiment_field(3, 4, "inf", ingest_first=True),
        "sentiment.csv:3: polarity inf outside [-1, 1]"),
    "polarity above 1": (
        "ingest", _sentiment_field(5, 4, "5"), "sentiment.csv:5: polarity 5.0 outside [-1, 1]"),
    "error after a multi-line record": (
        "ingest", _sentiment_lines(2, '2015-01-02,AAA,"spans\nthree\nlines",Positive,0.5,1,2,3',
                                   "2015-13-02,AAA,,Positive,0.5,0,0,0"),
        "sentiment.csv:5: month must be in 1..12"),
    "sentiment quote that runs past the field limit": (
        "ingest", _sentiment_field(4, 2, '"'),
        f"sentiment.csv:4: field larger than field limit ({FIELD_LIMIT})"),
    "unterminated quote at the end of a price file": (
        "ingest", lambda root: _cut_last_field(root / "data" / "BBB.csv", 101, ',"25534'),
        "BBB.csv:101: unexpected end of data"),
    "oversized price field": (
        "ingest", _data_field("BBB.csv", 3, 1, "1" * (FIELD_LIMIT + 1)),
        "BBB.csv:3: field larger than field limit"),
    "oversized panel field": (
        "train", lambda root: _set_field(_ingested(root), 4, 1, "1" * (FIELD_LIMIT + 1)),
        "panel.csv:4: field larger than field limit"),
    "non-finite panel value": (
        "train", lambda root: _set_field(_ingested(root), 6, 2, "nan"),
        "panel.csv:6: non-finite value"),
    # panel.csv fields 1-6 are AAA's features in FEATURE_NAMES order, 7-12 BBB's
    "zero close in the panel": (
        "train", lambda root: _set_field(_ingested(root), 6, 1, "0.0"),
        "panel.csv:6: non-positive value 0.0 of AAA:adj_close on 2015-01-05"),
    **{f"negative close in the panel's train split, read by {command}": (
        command, lambda root: _set_field(_ingested(root), 20, 1, "-1.5"),
        "panel.csv:20: non-positive value -1.5 of AAA:adj_close on 2015-01-19")
       for command in ("analyze", "frontier")},
    "negative close in the panel's test span": (
        "backtest", lambda root: _set_field(_ingested(root), 95, 1, "-1.5"),
        "panel.csv:95: non-positive value -1.5 of AAA:adj_close on 2015-04-04"),
    "negative engagement count in the panel": (
        "train", lambda root: _set_field(_ingested(root), 30, 8, "-3.0"),
        "panel.csv:30: negative value -3.0 of BBB:likes on 2015-01-29"),
    "zero sentiment ratio in the panel": (
        "analyze", lambda root: _set_field(_ingested(root), 40, 12, "0.0"),
        "panel.csv:40: non-positive value 0.0 of BBB:ratio on 2015-02-08"),
    "initial capital whose wealth overflows a float": (
        "backtest", lambda root: (_ingested(root), _config_edit(
            "max_lag: 2", "max_lag: 2\ninitial_capital: 1.7e+308")(root)),
        "initial_capital 1.7e+308: the wealth on 2015-04-06 is inf, outside the range"),
    "initial capital below the normal floats": (
        "backtest", lambda root: (_ingested(root), _config_edit(
            "max_lag: 2", "max_lag: 2\ninitial_capital: 5.0e-324")(root)),
        "initial_capital 5e-324: the wealth on 2015-03-23 is 5e-324, outside the range"),
    # 10**16 samples of 3 assets, 2.4e17 bytes: more than any address space,
    # so no allocation is granted, however memory is overcommitted
    "Monte-Carlo samples that no memory holds": (
        "frontier", lambda root: (_ingested(root), _config_edit(
            "count: 300", "count: 10000000000000000")(root)),
        "out of memory (Unable to allocate"),
    "wealth curves holding only the stamp": (
        "report", _out_files(wealth_curves=STAMP), "wealth_curves.csv:2: header must contain date"),
    "short wealth curve row": (
        "report", _out_files(wealth_curves=WEALTH_CURVES.replace(",10050.0,10020.0", "")),
        "wealth_curves.csv:5: 1 fields, expected 3"),
    "non-numeric capital": (
        "report", _out_files(wealth_curves=WEALTH_CURVES.replace("9950.0", "rich")),
        "wealth_curves.csv:4: could not convert string to float: 'rich'"),
    "non-finite capital": (
        "report", _out_files(wealth_curves=WEALTH_CURVES.replace("10200.0", "inf")),
        "wealth_curves.csv:6: capital 'inf' is not a positive finite number"),
    "non-numeric replicate capital": (
        "report", _out_files(wealth_curves=WEALTH_CURVES,
                             replicates=REPLICATES.replace("10010.0", "lots")),
        "replicates.csv:4: could not convert string to float: 'lots'"),
    "unbalanced quote in audit file": (
        "audit", lambda root: (root / "audit.csv").write_text(AUDIT.replace("good", '"good')),
        "audit.csv:2: unexpected end of data"),
    "oversized audit field": (
        "audit", lambda root: (root / "audit.csv").write_text(
            AUDIT.replace("bad", "b" * (FIELD_LIMIT + 1))),
        "audit.csv:3: field larger than field limit"),
    "unknown true label in audit file": (
        "audit", lambda root: (root / "audit.csv").write_text(AUDIT.replace("Negative", "Negatve")),
        "audit.csv:3: unknown true label 'Negatve'"),
    "return that overflows a float": (
        "ingest", _overflowing_return(lambda root: root / "data" / "AAA.csv"),
        "AAA: the return from 2015-01-04 to 2015-01-05 overflows a float (close 1e-10, then 1e+300)"),
    "panel return that overflows a float": (
        "analyze", _overflowing_return(_ingested),
        "panel.csv:5: AAA: the return from 2015-01-03 to 2015-01-04 overflows a float"),
    "return whose square overflows a float": (
        "ingest", _huge_return(lambda root: root / "data" / "AAA.csv"),
        "AAA: the return from 2015-03-11 to 2015-03-12 overflows a float when squared "
        "(close 1e-100, then 1e+100)"),
    **{f"panel return whose square overflows a float, read by {command}": (
        command, _huge_return(_ingested),
        "panel.csv:71: AAA: the return from 2015-03-10 to 2015-03-11 overflows a float "
        "when squared") for command in ("analyze", "backtest", "frontier")},
    "returns whose squares overflow a float when summed": (
        "ingest", _two_huge_returns(lambda root: root / "data" / "AAA.csv", 70),
        "AAA: the return from 2015-03-12 to 2015-03-13 overflows a float when its square "
        "is added to those of the returns before it (close 13000.0, then 1.69e+158)"),
    # panel.csv line L holds row L - 3; the train split is rows 0-59, the
    # test span rows 80-99, each test day's trailing window the 50 returns
    # before it.  read_panel refuses each of these panels.
    "returns whose squares overflow the train split's covariance": (
        "frontier", _two_huge_returns(_ingested, 4),
        "panel.csv:6: AAA: the return from 2015-01-04 to 2015-01-05 overflows a float "
        "when its square is added to those of the returns before it"),
    "panel returns whose squares overflow a float when summed, read by analyze": (
        "analyze", _two_huge_returns(_ingested, 70),
        "panel.csv:72: AAA: the return from 2015-03-11 to 2015-03-12 overflows a float "
        "when its square is added"),
    "return whose square overflows a trailing covariance when added to another's": (
        "backtest", _two_huge_returns(_ingested, 70),
        "panel.csv:72: AAA: the return from 2015-03-11 to 2015-03-12 overflows a float "
        "when its square is added"),
    "return whose square overflows a trailing covariance in the test span when added to another's": (
        "backtest", _two_huge_returns(_ingested, 85),
        "panel.csv:87: AAA: the return from 2015-03-26 to 2015-03-27 overflows a float "
        "when its square is added"),
    "last return, which only a metric reads, overflowing it with the return before": (
        "backtest", _two_huge_returns(_ingested, 100),
        "panel.csv:102: AAA: the return from 2015-04-10 to 2015-04-11 overflows a float "
        "when its square is added"),
    "huge last return, whose square is a float but whose annualized return is not": (
        "backtest", _overflowing_return(_ingested, "1e-50", "1e50", 101),
        "panel.csv: Buy and Hold: a metric overflows"),
    "frontier on prices that never move": (
        "frontier", _flat_prices, "the train split's returns never vary"),
    "misspelled replicate_seeds": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\nreplicate_seed: [1, 2]"),
        "unknown key replicate_seed"),
    "misspelled monte_carlo count": (
        "ingest", _config_edit("count: 300", "cuont: 300"), "unknown key monte_carlo.cuont"),
    "misspelled split fraction": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\nsplit: {tarin: 0.5}"),
        "unknown key split.tarin"),
    "misspelled max_lag": ("ingest", _config_edit("max_lag: 2", "max_lags: 2"), "unknown key max_lags"),
    "misspelled cov_window": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\ncov_windw: 3"), "unknown key cov_windw"),
    "misspelled lexicon_file": (
        "ingest", _config_edit("lexicon_file:", "lexicon_fle:"), "unknown key lexicon_fle"),
    "repeated key": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\nmax_lag: 3"),
        "config.yaml:16: malformed YAML: repeated key 'max_lag'"),
    "one replicate seed": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\nreplicate_seeds: [1]"),
        "replicate_seeds must hold 0 or 2+ distinct seeds, got [1]"),
    "repeated replicate seed": (
        "ingest", _config_edit("max_lag: 2", "max_lag: 2\nreplicate_seeds: [1, 1]"),
        "replicate_seeds must hold 0 or 2+ distinct seeds, got [1, 1]"),
    "benchmark that never moves": (
        "report", _out_files(wealth_curves=FLAT_BENCHMARK),
        "wealth_curves.csv: Buy and Hold: benchmark returns all below threshold"),
    "replicate capitals with constant differences": (
        "report", _out_files(wealth_curves=WEALTH_CURVES,
                             replicates=REPLICATES.replace("10010.0", "10150.0")),
        "replicates.csv: zero-variance differences"),
    "strategy that never moves": (
        "report", _out_files(wealth_curves=WEALTH_CURVES.replace(
            "9950.0", "10000.0").replace("10020.0", "10000.0").replace("10110.0", "10000.0")),
        "wealth_curves.csv: LSTM: strategy return stream has zero variance"),
    "path holding a NUL character": (
        "ingest", _config_edit("data_dir: data", 'data_dir: "da\\0ta"'),
        "data_dir must be a path, got 'da\\x00ta'"),
    "sentiment_file that is a directory": (
        "ingest", _config_edit("data/sentiment.csv", "data"), "Is a directory"),
    "capital that overflows a metric": (
        "report", _out_files(wealth_curves=WEALTH_CURVES.replace("10110.0", "1e300")),
        "wealth_curves.csv: LSTM: a metric overflows"),
    "non-UTF-8 config": ("ingest", _non_utf8("config.yaml", 15), "config.yaml:15: not UTF-8"),
    "non-UTF-8 lexicon": ("ingest", _non_utf8("lexicon.tsv", 3), "lexicon.tsv:3: not UTF-8"),
    "non-UTF-8 price file": ("ingest", _non_utf8("data/BBB.csv", 90), "BBB.csv:90: not UTF-8"),
    "lexicon token with a hyphen": (
        "label", _lexicon(LEXICON + "bull-ish\t0.6\n"), "lexicon.tsv:5: 'bull-ish' is not a token"),
    "lexicon token of two words": (
        "label", _lexicon(LEXICON + "good day\t0.3\n"), "lexicon.tsv:5: 'good day' is not a token"),
    "lexicon token holding a NUL byte": (
        "label", _lexicon("go\0od\t0.5\n" + LEXICON), "lexicon.tsv:1: 'go\\x00od' is not a token"),
    "repeated lexicon token": (
        "label", _lexicon(LEXICON + "Good\t0.9\n"), "lexicon.tsv:5: token 'good' repeats line 1"),
    "nan lexicon valence": (
        "label", _lexicon(LEXICON.replace("good\t0.5", "good\tnan")),
        "lexicon.tsv:1: valence 'nan' outside [-1, 1]"),
    "lexicon holding only comments": (
        "label", _lexicon("# token<TAB>valence\n\n# none yet\n"), "lexicon.tsv: empty lexicon"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    command, corrupt, expected = BAD_INPUTS[case]
    root = populate(tmp_path, THREE_ASSETS)
    corrupt(root)
    capsys.readouterr()
    assert run(root, command) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert expected in lines[0]


def test_backtest_prints_its_equal_weight_days(tmp_path, capsys):
    """With every close frozen from row 88 on and trailing windows of 5
    returns, the test days from row 93 on (6 of 19) have no volatility to
    rank: the LSTM variants hold equal weights there, and backtest says so."""
    root = populate(tmp_path, THREE_ASSETS + "cov_window: 5\n")
    for asset in ("AAA", "BBB", "CCC"):
        path = root / "data" / f"{asset}.csv"
        close = path.read_text().splitlines()[89].split(",")[1]
        for line in range(91, 102):
            _set_field(path, line, 1, close)
    assert run(root, "ingest") == 0
    capsys.readouterr()
    assert run(root, "backtest") == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "equal weights on 6 of 19 days (no volatility to rank)")


def test_three_asset_chain(tmp_path):
    root = populate(tmp_path, THREE_ASSETS)
    for command in ("ingest", "train", "backtest", "report"):
        assert run(root, command) == 0, command
    checkpoint = json.loads(artifact(root, "lstm.json").read_text())
    assert checkpoint["n_assets"] == 3
    H, inputs = 4, 3 * 6  # hidden_size 4, one layer, 6 features per asset
    assert len(checkpoint["theta"]) == inputs * 4 * H + H * 4 * H + 4 * H + H * 3 + 3
    lines = artifact(root, "report.csv").read_text().splitlines()
    assert len(lines) == 2 + 5  # stamp + header + one row per strategy


def _scale_from(path, first, columns, rng, write):
    """Multiply the ``columns`` of each row of the CSV at ``path`` dated
    ``first`` or later by U(0.5, 1.5) factors, each value written by ``write``."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    at = [header.index(name) for name in columns]
    for row in rows:
        if row[0] >= first:
            for i in at:
                row[i] = write(float(row[i]) * rng.uniform(0.5, 1.5))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


@pytest.fixture(scope="module")
def backtested(tmp_path_factory):
    root = populate(tmp_path_factory.mktemp("backtested"), THREE_ASSETS)
    for command in ("ingest", "backtest"):
        assert run(root, command) == 0, command
    return root


@settings(max_examples=10, deadline=None)
@given(cut=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
def test_no_look_ahead_through_the_files(backtested, cut, seed):
    """Changing the price files' closes and the sentiment rows' engagement
    counts from test row c's date on leaves the first c values of
    wealth_curves.csv byte-identical and moves value c."""
    before = artifact(backtested, "wealth_curves.csv").read_text().splitlines()[2:]
    c = 1 + cut % (len(before) - 1)
    first = before[c].split(",")[0]
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = populate(Path(tmp), THREE_ASSETS)
        for asset in ("AAA", "BBB", "CCC"):
            _scale_from(root / "data" / f"{asset}.csv", first, ["adj_close"], rng,
                        lambda v: f"{v:.6f}")
        _scale_from(root / "data" / "sentiment.csv", first, ["likes", "retweets", "comments"],
                    rng, lambda v: str(round(v)))
        for command in ("ingest", "backtest"):
            assert run(root, command, "--out", f"{tmp}/changed") == 0, command
        after = Path(tmp, "changed", "wealth_curves.csv").read_text().splitlines()[2:]
    assert after[:c] == before[:c]
    assert after[c].split(",")[0] == first
    assert all(a != b for a, b in zip(after[c].split(",")[1:], before[c].split(",")[1:]))


def test_backtest_without_replicates_drops_their_old_file(tmp_path):
    root = populate(tmp_path, THREE_ASSETS + "replicate_seeds: [1, 2]\n")
    for command in ("ingest", "backtest", "report"):
        assert run(root, command) == 0, command
    assert "paired_t_test" in json.loads(artifact(root, "report.json").read_text())
    (root / "config.yaml").write_text(THREE_ASSETS)
    for command in ("backtest", "report"):
        assert run(root, command) == 0, command
    assert not artifact(root, "replicates.csv").exists()
    assert "paired_t_test" not in json.loads(artifact(root, "report.json").read_text())


def test_analyze_writes_nan_granger_rows_for_constant_ratio(tmp_path):
    root = populate(tmp_path, THREE_ASSETS)
    sentiment_csv = root / "data" / "sentiment.csv"
    lines = sentiment_csv.read_text().splitlines(keepends=True)
    sentiment_csv.write_text("".join(ln for ln in lines if ",CCC," not in ln))
    for command in ("ingest", "analyze"):
        assert run(root, command) == 0, command
    rows = [ln.split(",") for ln in artifact(root, "granger.csv").read_text().splitlines()[2:]]
    assert [r[:2] for r in rows] == [[a, lag] for a in ("AAA", "BBB", "CCC") for lag in "12"]
    for asset, _, f_stat, _, _, p, significant in rows:
        assert (f_stat == "nan" and p == "nan") == (asset == "CCC")
        assert asset != "CCC" or significant == "0"


# -- weekly returns of correlation.csv --------------------------------------

NO_SENTIMENT = sentiment.SentimentTable(
    assets=(), day=np.empty(0, np.int64), asset=np.empty(0, np.int64), text=[],
    label=np.empty(0, np.int8), polarity=np.empty(0), engagement=np.empty((0, 3), np.int64),
    line=np.empty(0, np.int64))


def _thinned(panel, keep):
    rows = np.flatnonzero(keep)
    return AlignedPanel([panel.dates[i] for i in rows], list(panel.assets), panel.values[rows])


def test_weekly_return_runs_from_the_last_close_before_the_week():
    # every third row dropped, and rows 20-29, so that a week has no date
    rows = np.arange(100)
    panel = _thinned(make_panel(seed=8, n_days=100), (rows % 3 != 1) & ((rows < 20) | (rows >= 30)))
    close = np.asarray(panel.features["AAA"]["adj_close"])
    week_of = [(d - panel.dates[0]).days // 7 for d in panel.dates]
    last = {k: i for i, k in enumerate(week_of)}  # each week's last row
    want, prev = [], 0
    for k in sorted(last):
        if last[k] > prev:
            want.append(close[last[k]] / close[prev] - 1)
        prev = last[k]
    weeks, got = _weekly_stats_and_returns(panel, "AAA", NO_SENTIMENT)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert len(weeks) == len(got)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 50), n_days=st.integers(2, 60), drop=st.integers(0, 2**32 - 1))
def test_weekly_returns_tile_the_period(seed, n_days, drop):
    panel = make_panel(seed=seed, n_days=n_days)
    keep = np.random.default_rng(drop).random(n_days) < 0.4
    keep[[0, -1]] = True
    panel = _thinned(panel, keep)
    for asset in panel.assets:
        close = np.asarray(panel.features[asset]["adj_close"])
        weeks, returns = _weekly_stats_and_returns(panel, asset, NO_SENTIMENT)
        assert len(weeks) == len(returns)
        assert math.prod(1.0 + r for r in returns) == pytest.approx(
            close[-1] / close[0], rel=1e-12, abs=0.0)


# -- exit-code contract for the sentiment file ------------------------------

def _small_sentiment_rows():
    """Labeled and unlabeled rows for three assets, one every third day."""
    texts = ["good day", "not bad", "awful open", "", "very great", "flat"]
    rows = []
    for k in range(0, 90, 3):
        date = (dt.date(2015, 1, 2) + dt.timedelta(days=k)).isoformat()
        for a, asset in enumerate(("AAA", "BBB", "CCC")):
            label, pol = [("Positive", "0.5"), ("Negative", "-0.25"), ("", "")][(k + a) % 3]
            rows.append([date, asset, texts[(k + a) % 6], label, pol, str(k), "1", ""])
    return rows


SMALL_SENTIMENT = _small_sentiment_rows()
HEADER = "date,asset,text,label,polarity,likes,retweets,comments"
FIELD_VALUES = ["2015-13-02", "yesterday", "", "nan", "inf", "-inf", "-3", "2.5", "1e400",
                "Bullish", "Neutral", "5", "-1.5", "0", "ZZZ"]
MUTATIONS = st.one_of(
    st.just(("drop", None)),
    st.just(("add", "x")),
    st.tuples(st.just("set"), st.sampled_from(FIELD_VALUES)),
    st.tuples(st.just("quote"), st.integers(0, 3)),
)


def _mutated(fields, field, mutation):
    """``fields`` with one MUTATIONS change at index ``field``."""
    kind, value = mutation
    fields = list(fields)
    if kind == "drop":
        del fields[field]
    elif kind == "add":
        fields.insert(field, value)
    elif kind == "set":
        fields[field] = value
    else:
        fields[field] = fields[field][:value] + '"' + fields[field][value:]
    return fields


def _exits_0_or_2_with_one_error_line(root, command):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(root, command)
    lines = err.getvalue().splitlines()
    assert code in (0, 2), (command, lines)
    assert lines == [] if code == 0 else (len(lines) == 1 and lines[0].startswith("error: "))
    assert not caught, (command, [str(w.message) for w in caught])


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = populate(tmp_path_factory.mktemp("fuzz"), THREE_ASSETS)
    (root / "data" / "sentiment.csv").write_text(
        "\n".join([HEADER] + [",".join(r) for r in SMALL_SENTIMENT]) + "\n")
    assert run(root, "ingest") == 0
    return root


@settings(max_examples=40, deadline=None)
@given(row=st.integers(0, len(SMALL_SENTIMENT) - 1), field=st.integers(0, 7),
       mutation=MUTATIONS)
def test_sentiment_mutation_exits_0_or_2_with_one_error_line(fuzz_root, row, field, mutation):
    fields = _mutated(SMALL_SENTIMENT[row], field, mutation)
    rows = [",".join(fields) if i == row else ",".join(r) for i, r in enumerate(SMALL_SENTIMENT)]
    (fuzz_root / "data" / "sentiment.csv").write_text("\n".join([HEADER] + rows) + "\n")
    for command in ("ingest", "label", "analyze"):
        _exits_0_or_2_with_one_error_line(fuzz_root, command)


@settings(max_examples=40, deadline=None)
@given(asset=st.sampled_from(["AAA", "BBB", "CCC"]), row=st.integers(1, 100),
       field=st.integers(0, 2), mutation=MUTATIONS)
def test_price_mutation_exits_0_or_2_with_one_error_line(fuzz_root, asset, row, field,
                                                         mutation):
    (fuzz_root / "data" / "sentiment.csv").write_text(
        "\n".join([HEADER] + [",".join(r) for r in SMALL_SENTIMENT]) + "\n")
    with _line_mutated(fuzz_root / "data" / f"{asset}.csv", row + 1, field, mutation):
        _exits_0_or_2_with_one_error_line(fuzz_root, "ingest")


@contextlib.contextmanager
def _line_mutated(path, lineno, field, mutation, sep=","):
    """``path`` with one MUTATIONS change to field ``field`` of line
    ``lineno``, its fields split by ``sep``, restored on exit."""
    original = path.read_text()
    lines = original.splitlines()
    lines[lineno - 1] = sep.join(_mutated(lines[lineno - 1].split(sep), field, mutation))
    path.write_text("\n".join(lines) + "\n")
    try:
        yield
    finally:
        path.write_text(original)


AUDIT_ROWS = ["good,Positive", "bad,Negative", ",Neutral", "very great,Positive",
              "not awful,Positive", "awful open,Negative", "flat,Neutral"]


@pytest.fixture(scope="module")
def chain_root(tmp_path_factory):
    """A workspace run through ingest and backtest, with a longer audit file."""
    root = populate(tmp_path_factory.mktemp("chain"), THREE_ASSETS)
    (root / "audit.csv").write_text("\n".join(["text,label"] + AUDIT_ROWS) + "\n")
    for command in ("ingest", "backtest"):
        assert run(root, command) == 0, command
    return root


@settings(max_examples=40, deadline=None)
@given(row=st.integers(3, 102), field=st.integers(0, 18), mutation=MUTATIONS)
def test_panel_mutation_exits_0_or_2_with_one_error_line(chain_root, row, field, mutation):
    with _line_mutated(chain_root / "out" / "panel.csv", row, field, mutation):
        _exits_0_or_2_with_one_error_line(chain_root, "train")


@settings(max_examples=40, deadline=None)
@given(row=st.integers(2, len(AUDIT_ROWS) + 1), field=st.integers(0, 1), mutation=MUTATIONS)
def test_audit_mutation_exits_0_or_2_with_one_error_line(chain_root, row, field, mutation):
    with _line_mutated(chain_root / "audit.csv", row, field, mutation):
        _exits_0_or_2_with_one_error_line(chain_root, "audit")


@settings(max_examples=40, deadline=None)
@given(row=st.integers(3, 22), field=st.integers(0, 5), mutation=MUTATIONS)
def test_wealth_curve_mutation_exits_0_or_2_with_one_error_line(chain_root, row, field,
                                                                mutation):
    with _line_mutated(chain_root / "out" / "wealth_curves.csv", row, field, mutation):
        _exits_0_or_2_with_one_error_line(chain_root, "report")


@settings(max_examples=40, deadline=None)
@given(row=st.integers(1, LEXICON.count("\n")), field=st.integers(0, 1), mutation=MUTATIONS)
def test_lexicon_mutation_exits_0_or_2_with_one_error_line(fuzz_root, row, field, mutation):
    _write_small_sentiment(fuzz_root)
    with _line_mutated(fuzz_root / "lexicon.tsv", row, field, mutation, sep="\t"):
        _exits_0_or_2_with_one_error_line(fuzz_root, "label")


REPLICATE_ROWS = ["1,10100.0,10050.0", "2,10200.0,10010.0", "3,9900.0,9950.0",
                  "4,10300.0,10000.0"]


@settings(max_examples=40, deadline=None)
@given(row=st.integers(2, len(REPLICATE_ROWS) + 2), field=st.integers(0, 2), mutation=MUTATIONS)
def test_replicates_mutation_exits_0_or_2_with_one_error_line(chain_root, row, field, mutation):
    path = chain_root / "out" / "replicates.csv"
    path.write_text(STAMP + "\n".join(["seed,lstm_sentiment_final,lstm_final"]
                                      + REPLICATE_ROWS) + "\n")
    try:
        with _line_mutated(path, row, field, mutation):
            _exits_0_or_2_with_one_error_line(chain_root, "report")
    finally:
        path.unlink()


CONFIG_LINES = THREE_ASSETS.splitlines()


@pytest.fixture(scope="module")
def config_root(tmp_path_factory):
    return populate(tmp_path_factory.mktemp("config"), THREE_ASSETS)


@settings(max_examples=40, deadline=None)
@given(row=st.integers(0, len(CONFIG_LINES) - 1), field=st.integers(0, 1), mutation=MUTATIONS)
def test_config_mutation_exits_0_or_2_with_one_error_line(config_root, row, field, mutation):
    """One MUTATIONS change to the key (field 0) or the value (field 1) of
    one line of the config."""
    line = CONFIG_LINES[row]
    indent = line[:len(line) - len(line.lstrip())]
    key, _, value = line.strip().partition(":")
    lines = list(CONFIG_LINES)
    lines[row] = indent + ": ".join(_mutated([key, value.strip()], field, mutation))
    (config_root / "config.yaml").write_text("\n".join(lines) + "\n")
    _exits_0_or_2_with_one_error_line(config_root, "ingest")


def test_readme_example_shows_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    shown = {}
    for key, value in yaml.safe_load(readme.split("```yaml\n")[1].split("```")[0]).items():
        shown.update({f"{key}.{k}": v for k, v in value.items()}
                     if isinstance(value, dict) else {key: value})
    assert sorted(shown) == sorted(KEYS)
    exempt = {"assets", "replicate_seeds"} | {k for k, spec in KEYS.items() if spec.kind is Path}
    assert ({k: v for k, v in shown.items() if k not in exempt}
            == {k: spec.default for k, spec in KEYS.items() if k not in exempt})


# -- lexicon scoring in ingest, label and analyze --------------------------

CHAIN = ("ingest", "label", "analyze")
UNLABELED = sum(1 for row in SMALL_SENTIMENT if not row[3])
# one block of sentiment.BLOCK_ROWS rows: each distinct text is scored once
DISTINCT_UNLABELED = list(dict.fromkeys(row[2] for row in SMALL_SENTIMENT if not row[3]))


def _write_small_sentiment(root):
    (root / "data" / "sentiment.csv").write_text(
        "\n".join([HEADER] + [",".join(r) for r in SMALL_SENTIMENT]) + "\n")
    return root


def _outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# SHA-256 of a lexicon-scored chain's outputs, taken with conftest's
# GOLDEN_NUMPY and GOLDEN_BLAS
LEXICON_CHAIN_DIGESTS = {
    "labeled.csv": "61d55139ca330ef730c92fec33c7749f19c63923cc74abdedd30889e4f98a3d0",
    "panel.csv": "82f3dc79fe0152710a455bf26aef18f3455ee34c08e1d5f1b8cfb5f22470cda6",
    "correlation.csv": "6252937ddd2b28dc072d7f9824b4f11c037d8ac456b0d4c56f6bd0b706b28df4",
}


def test_lexicon_chain_digests(tmp_path):
    skip_unless_golden_build()
    root = _write_small_sentiment(populate(tmp_path, THREE_ASSETS))
    for command in CHAIN:
        assert run(root, command) == 0, command
    assert {name: hashlib.sha256(artifact(root, name).read_bytes()).hexdigest()
            for name in LEXICON_CHAIN_DIGESTS} == LEXICON_CHAIN_DIGESTS


def test_chain_scores_each_unlabeled_text_once(tmp_path, monkeypatch, capsys):
    # each command scores each distinct unlabeled text once per block
    root = _write_small_sentiment(populate(tmp_path, THREE_ASSETS))
    texts = []
    label_text = sentiment.label_text
    monkeypatch.setattr(sentiment, "label_text",
                        lambda text, lexicon: texts.append(text) or label_text(text, lexicon))
    for command in CHAIN:
        assert run(root, command) == 0, command
    assert DISTINCT_UNLABELED == ["awful open", "flat"]
    assert texts == DISTINCT_UNLABELED * len(CHAIN)
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("labels: ")] == [
        f"labels: scored {UNLABELED}"] * len(CHAIN)


EDITS = {
    # line 4 is the first unlabeled row, "awful open"
    "one text": lambda root: _set_field(root / "data" / "sentiment.csv", 4, 2, "great open"),
    "one valence": lambda root: _edit(root / "lexicon.tsv", "good\t0.5", "good\t0.25"),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_edit_rescores_as_in_a_fresh_directory(tmp_path, capsys, edit):
    root = _write_small_sentiment(populate(tmp_path, THREE_ASSETS))
    for command in CHAIN:
        assert run(root, command) == 0, command
    EDITS[edit](root)
    capsys.readouterr()
    for command in CHAIN:
        assert run(root, command) == 0, command
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("labels: ")]
    assert lines == [f"labels: scored {UNLABELED}"] * len(CHAIN)
    fresh = tmp_path / "fresh"
    for command in CHAIN:
        assert main([command, "--config", str(root / "config.yaml"), "--out", str(fresh)]) == 0
    assert _outputs(root / "out") == _outputs(fresh)


def test_byte_order_marks_change_no_output(tmp_path):
    root = _write_small_sentiment(populate(tmp_path, THREE_ASSETS))
    for command in ("ingest", "label"):
        assert run(root, command) == 0, command
    for path in (root / "data" / "AAA.csv", root / "data" / "sentiment.csv",
                 root / "lexicon.tsv"):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    marked = tmp_path / "marked"
    for command in ("ingest", "label"):
        assert main([command, "--config", str(root / "config.yaml"), "--out", str(marked)]) == 0
    for name in ("panel.csv", "labeled.csv"):
        assert (marked / name).read_bytes() == artifact(root, name).read_bytes(), name
