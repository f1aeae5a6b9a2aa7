import contextlib
import datetime as dt
import io
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from sentfolio.cli import REPORT_HEADER, load_config, main, read_panel
from sentfolio.synthetic import write_market_csv

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
        path = root / "data" / name
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[lineno - 1].rstrip("\n").split(",")
        fields[index] = value
        lines[lineno - 1] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
    return corrupt


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
    "lstm width disagrees with assets": (
        "ingest", lambda root: _edit(root / "config.yaml", "  hidden_size: 4",
                                     "  hidden_size: 4\n  input_width: 30"),
        "lstm.input_width is 30"),
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


def test_three_asset_chain(tmp_path):
    root = populate(tmp_path, THREE_ASSETS)
    for command in ("ingest", "train", "backtest", "report"):
        assert run(root, command) == 0, command
    checkpoint = json.loads(artifact(root, "lstm.json").read_text())
    assert (checkpoint["config"]["input_width"], checkpoint["config"]["n_outputs"]) == (18, 3)
    lines = artifact(root, "report.csv").read_text().splitlines()
    assert len(lines) == 2 + 5  # stamp + header + one row per strategy


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
    kind, value = mutation
    fields = list(SMALL_SENTIMENT[row])
    if kind == "drop":
        del fields[field]
    elif kind == "add":
        fields.insert(field, value)
    elif kind == "set":
        fields[field] = value
    else:
        fields[field] = fields[field][:value] + '"' + fields[field][value:]
    rows = [",".join(fields) if i == row else ",".join(r) for i, r in enumerate(SMALL_SENTIMENT)]
    (fuzz_root / "data" / "sentiment.csv").write_text("\n".join([HEADER] + rows) + "\n")
    for command in ("ingest", "label", "analyze"):
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(fuzz_root, command)
        lines = err.getvalue().splitlines()
        assert code in (0, 2), (command, lines)
        assert lines == [] if code == 0 else (len(lines) == 1 and lines[0].startswith("error: "))
        assert not caught, (command, [str(w.message) for w in caught])


@settings(max_examples=40, deadline=None)
@given(asset=st.sampled_from(["AAA", "BBB", "CCC"]), row=st.integers(1, 100),
       field=st.integers(0, 2), mutation=MUTATIONS)
def test_price_mutation_exits_0_or_2_with_one_error_line(fuzz_root, asset, row, field,
                                                         mutation):
    kind, value = mutation
    path = fuzz_root / "data" / f"{asset}.csv"
    original = path.read_text()
    lines = original.splitlines()
    fields = lines[row].split(",")
    if kind == "drop":
        del fields[field]
    elif kind == "add":
        fields.insert(field, value)
    elif kind == "set":
        fields[field] = value
    else:
        fields[field] = fields[field][:value] + '"' + fields[field][value:]
    lines[row] = ",".join(fields)
    (fuzz_root / "data" / "sentiment.csv").write_text(
        "\n".join([HEADER] + [",".join(r) for r in SMALL_SENTIMENT]) + "\n")
    path.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(fuzz_root, "ingest")
    finally:
        path.write_text(original)
    lines = err.getvalue().splitlines()
    assert code in (0, 2), lines
    assert lines == [] if code == 0 else (len(lines) == 1 and lines[0].startswith("error: "))
    assert not caught, [str(w.message) for w in caught]
