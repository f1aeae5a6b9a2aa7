"""Command-line pipeline: ingest, label, analyze, train, backtest, report,
frontier, audit.

Every artifact embeds the config hash and seed on its first line (CSV) or in a
metadata block (JSON), so identical config + seed reruns are byte-identical.
Exit codes: 0 success, 1 internal error, 2 user/config error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import math
import operator
import sys
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import pipeline, sentiment, svg
from .backtest import DEFAULT_INITIAL_CAPITAL, WealthCurve, compare_strategies
from .errors import (
    AlignmentError,
    ConfigurationError,
    DegenerateInputError,
    DegenerateMarketError,
    InsufficientDataError,
    ParseError,
    SentfolioError,
    SingularDesignError,
    ValidationError,
    undecodable,
)
from .csvfile import read_csv
from .forecast_lstm import LstmConfig, save_checkpoint
from .market_data import (
    FEATURE_NAMES,
    SENTIMENT_INDEX,
    AlignedPanel,
    SplitSpec,
    align_panel,
    check_values,
    load_prices,
    split_chronological,
)
from .portfolio_opt import (
    DEFAULT_COV_WINDOW,
    DEFAULT_SAMPLE_COUNT,
    MonteCarloWorkspace,
    estimate_moments,
    mean_variance_select,
)
from .stats import granger, paired_t_test, pearson

USER_ERRORS = (
    ConfigurationError,
    ParseError,
    ValidationError,
    AlignmentError,
    InsufficientDataError,
    FileNotFoundError,
    IsADirectoryError,
)

REPORT_HEADER = ["Models", "Capital", "fAPV", "BV", "SR", "MDD(%)", "AR(%)"]


def _key(name: str, kind: type, default=None, bound: str | None = None):
    """A RunConfig field that the YAML key ``name`` sets; KEYS holds its
    type, default and bound.  The field has no default of its own."""
    return field(metadata={"key": name, "spec": (kind, default, bound)})


@dataclass
class RunConfig:
    assets: list[str] = _key("assets", list[str], [])
    data_dir: Path = _key("data_dir", Path, ".", "exists")
    out_dir: Path = _key("out_dir", Path, "out")
    sentiment_file: Path | None = _key("sentiment_file", Path, None, "exists")
    lexicon_file: Path | None = _key("lexicon_file", Path, None, "exists")
    audit_file: Path | None = _key("audit_file", Path, None, "exists")
    split: SplitSpec
    lstm: LstmConfig
    mc_count: int = _key("monte_carlo.count", int, DEFAULT_SAMPLE_COUNT, ">= 1")
    mc_seed: int = _key("monte_carlo.seed", int, 0, ">= 0")
    cov_window: int = _key("cov_window", int, DEFAULT_COV_WINDOW, ">= 2")
    initial_capital: float = _key("initial_capital", float, DEFAULT_INITIAL_CAPITAL, "> 0")
    max_lag: int = _key("max_lag", int, 8, ">= 1")
    replicate_seeds: list[int] = _key("replicate_seeds", list[int], [], ">= 0")
    raw: dict

    @property
    def seed(self) -> int:
        return self.lstm.seed

    def hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def stamp(self) -> str:
        return f"# config={self.hash()} seed={self.seed}"


# Every key a run config accepts, by dotted name.  A bound is ">= n" or "> n"
# on a number or on each entry of a list, or "exists" on a path.  SplitSpec
# and LstmConfig check the bounds of the split.* and lstm.* keys themselves.
Key = namedtuple("Key", "field kind default bound")
KEYS = {
    **{f.metadata["key"]: Key(f.name, *f.metadata["spec"]) for f in fields(RunConfig) if f.metadata},
    **{f"split.{f.name.removesuffix('_frac')}": Key(f.name, float, f.default, None)
       for f in fields(SplitSpec)},
    **{f"lstm.{f.name}": Key(f.name, type(f.default), f.default, None) for f in fields(LstmConfig)},
}
SECTIONS = {key.split(".")[0] for key in KEYS if "." in key}
BOUNDS = {">=": operator.ge, ">": operator.gt}


def _given(mapping: dict, prefix: str = ""):
    """(dotted key, value) for each key ``mapping`` sets; unknown keys are refused."""
    for key, value in mapping.items():
        name = f"{prefix}{key}"
        if name in SECTIONS:
            if value is not None and not isinstance(value, dict):
                raise ConfigurationError(f"{name} must be a mapping, got {value!r}")
            yield from _given(value or {}, f"{name}.")
        elif name in KEYS and "." not in str(key):  # a key "a.b" is not section a's b
            yield name, value
        else:
            raise ConfigurationError(f"unknown key {name}")


def _checked(key: str, value, kind: type, bound: str | None, base: Path):
    """``value`` of ``key`` as its field holds it, meeting ``bound``: a path
    resolved against ``base``, names, distinct seeds, or a finite number (an
    int passes as a float, a bool as neither)."""
    if kind is Path:
        if not isinstance(value, str) or "\0" in value:
            raise ConfigurationError(f"{key} must be a path, got {value!r}")
        resolved = (base / value).resolve()
        if bound and not resolved.exists():
            raise ConfigurationError(f"{key} does not exist: {resolved}")
        return resolved
    if kind == list[str]:
        if not value or not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigurationError(f"{key} must be a list of one or more names, got {value!r}")
        return value
    if kind == list[int]:
        if not isinstance(value, list):
            raise ConfigurationError(f"{key} must be a list, got {value!r}")
        seeds = [_checked(key, v, int, bound, base) for v in value]
        if len(seeds) == 1 or len(set(seeds)) < len(seeds):
            raise ConfigurationError(f"{key} must hold 0 or 2+ distinct seeds, got {seeds}")
        return seeds
    ok = isinstance(value, int if kind is int else (int, float))
    if isinstance(value, bool) or not ok or not math.isfinite(value):
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{key} must be {what}, got {value!r}")
    if bound and not BOUNDS[bound.split()[0]](value, float(bound.split()[1])):
        raise ConfigurationError(f"{key} must be {bound}, got {value}")
    return value


def load_config(path: str | Path, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    """Parse a YAML run configuration: a key absent from it takes its KEYS default; a
    repeated or unknown key, or a bad value, is a ConfigurationError naming it.

    PyYAML is imported here, not with the module: importing it takes about
    1 MB of memory, which callers of the pipeline alone need not pay."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        """The safe YAML loader, refusing a key that a mapping repeats."""

        def construct_mapping(self, node, deep=False):
            mapping = super().construct_mapping(node, deep)
            keys = [self.construct_object(key_node) for key_node, _ in node.value]
            for i, (key_node, _) in enumerate(node.value):
                if keys[i] in keys[:i]:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"repeated key {keys[i]!r}", key_node.start_mark)
            return mapping

    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), UniqueKeyLoader) or {}
    except UnicodeDecodeError as exc:
        raise undecodable(path) from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date such as 2015-13-02
        mark = getattr(exc, "problem_mark", None)
        where = f":{mark.line + 1}" if mark is not None else ""
        why = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        raise ConfigurationError(f"{path}{where}: malformed YAML: {why}") from exc
    given = dict(_given(raw if isinstance(raw, dict) else {}))
    top, nested = {}, {"split": {}, "lstm": {}}
    for key, (name, kind, default, bound) in KEYS.items():
        value = default if given.get(key) is None else given[key]
        value = None if value is None else _checked(key, value, kind, bound, path.parent)
        nested.get(key.split(".")[0], top)[name] = value
    if seed_override is not None:
        nested["lstm"]["seed"] = seed_override
        raw = dict(raw, lstm=dict(raw.get("lstm") or {}, seed=seed_override))
    if out_override:
        top["out_dir"] = Path(out_override).resolve()
    return RunConfig(**top, split=SplitSpec(**nested["split"]),
                     lstm=LstmConfig(**nested["lstm"]), raw=raw)


# -- artifact persistence ---------------------------------------------------

def _panel_path(cfg: RunConfig) -> Path:
    return cfg.out_dir / "panel.csv"


def write_panel(panel: AlignedPanel, cfg: RunConfig) -> Path:
    path = _panel_path(cfg)
    header = ["date"] + [f"{a}:{f}" for a in panel.assets for f in FEATURE_NAMES]
    _write_csv(path, cfg, header,
               ([d.isoformat()] + [repr(float(v)) for v in row]
                for d, row in zip(panel.dates, panel.feature_matrix())))
    return path


def read_panel(cfg: RunConfig) -> AlignedPanel:
    path = _panel_path(cfg)
    if not path.exists():
        raise ConfigurationError(f"panel artifact missing ({path}); run ingest first")
    with read_csv(path, (), stamped=True) as (header, records):
        assets = [c.split(":")[0] for c in header[1::len(FEATURE_NAMES)]]
        expected = ["date"] + [f"{a}:{f}" for a in assets for f in FEATURE_NAMES]
        if not assets or header != expected:
            raise ParseError(f"{path}:2: header must be date then asset:feature "
                             f"columns in the order {', '.join(FEATURE_NAMES)}")
        if assets != cfg.assets:
            raise ConfigurationError(f"{path} holds assets {assets}, config lists "
                                     f"{cfg.assets}; run ingest again")
        dates = []
        rows = []
        lines = []
        for line, row in records:
            try:
                dates.append(dt.date.fromisoformat(row[0]))
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{line}: malformed row ({exc})") from exc
            lines.append(line)
    values = np.asarray(rows, dtype=float).reshape(len(dates), len(assets), len(FEATURE_NAMES))
    panel = AlignedPanel(dates=dates, assets=assets, values=values)
    check_values(panel, lambda t: f"{path}:{lines[t]}: ")
    return panel


def build_panel(cfg: RunConfig) -> AlignedPanel:
    series = []
    for asset in cfg.assets:
        path = cfg.data_dir / f"{asset}.csv"
        if not path.exists():
            raise ConfigurationError(f"missing asset file: {path}")
        series.append(load_prices(path))
    # a bad sentiment file is reported before an alignment error
    table = None if cfg.sentiment_file is None else sentiment_table(cfg)
    panel = align_panel(series)
    if table is not None:
        for a, asset in enumerate(panel.assets):
            panel.values[:, a, SENTIMENT_INDEX] = sentiment.daily_features(
                table, asset, panel.dates)
    check_values(panel)
    return panel


def sentiment_table(cfg: RunConfig) -> sentiment.SentimentTable:
    """The sentiment file as a table, its unlabeled rows scored by the
    configured lexicon; one line on stdout says how many rows it scored."""
    if cfg.lexicon_file is None:
        return sentiment.load_sentiment_csv(cfg.sentiment_file)
    table = sentiment.load_sentiment_csv(
        cfg.sentiment_file, sentiment.Lexicon.from_file(cfg.lexicon_file))
    print(f"labels: scored {int(table.scored.sum())}")
    return table


def _write_csv(path: Path, cfg: RunConfig, header: list[str], rows: Iterable) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(cfg.stamp() + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommands ------------------------------------------------------------

def cmd_ingest(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    panel = build_panel(cfg)
    path = write_panel(panel, cfg)
    print(f"panel: {panel.n_rows} rows x {len(panel.assets)} assets "
          f"({panel.n_features} features) -> {path}")
    return 0


def cmd_label(cfg: RunConfig) -> int:
    if cfg.sentiment_file is None or cfg.lexicon_file is None:
        raise ConfigurationError("label requires sentiment_file and lexicon_file")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    table = sentiment_table(cfg)
    out = cfg.out_dir / "labeled.csv"
    _write_csv(out, cfg, list(sentiment.COLUMNS), table.csv_rows())
    print(f"labeled {len(table)} records -> {out}")
    return 0


def _weekly_stats_and_returns(panel: AlignedPanel, asset: str,
                              table: sentiment.SentimentTable) -> tuple[np.ndarray, list]:
    """The weekly_windows rows of the weeks that have a return, and each such
    week's return.  Week k's return runs from the last close before week k
    (week 0: the panel's first close) to week k's last close, so the weeks
    tile the period; a week whose return would span a single close is left
    out."""
    weeks = sentiment.weekly_windows(table, asset, panel.dates[0], panel.dates[-1])
    ordinals = [d.toordinal() for d in panel.dates]
    # last[k]: the last row before week k; last[k + 1]: week k's last row
    last = np.searchsorted(ordinals, ordinals[0] + 7 * np.arange(len(weeks) + 1)) - 1
    start, end = np.maximum(last[:-1], 0), last[1:]
    kept = end > start
    prices = np.asarray(panel.features[asset]["adj_close"])
    return weeks[kept], (prices[end[kept]] / prices[start[kept]] - 1.0).tolist()


def cmd_analyze(cfg: RunConfig) -> int:
    panel = read_panel(cfg)
    if cfg.sentiment_file is None:
        raise ConfigurationError("analyze requires sentiment_file")
    n_returns = panel.n_rows - 1
    if n_returns <= 3 * cfg.max_lag + 1:  # granger's rows for max_lag lags
        raise ConfigurationError(
            f"{_panel_path(cfg)}: {n_returns} returns, too few for max_lag {cfg.max_lag} "
            f"(the Granger test needs more than {3 * cfg.max_lag + 1})")
    table = sentiment_table(cfg)

    corr_rows = []
    for asset in panel.assets:
        weeks, weekly_returns = _weekly_stats_and_returns(panel, asset, table)
        row = [asset]
        for series in weeks.T.tolist():  # mean, max, median, ratio
            try:
                row.append(f"{pearson(series, weekly_returns).statistic:.4f}")
            except SentfolioError:
                row.append("nan")
        corr_rows.append(row)
    corr_path = cfg.out_dir / "correlation.csv"
    _write_csv(corr_path, cfg, ["asset", "mean", "max", "median", "ratio"], corr_rows)

    granger_rows = []
    for asset in panel.assets:
        prices = np.asarray(panel.features[asset]["adj_close"])
        returns = prices[1:] / prices[:-1] - 1.0
        ratio = np.asarray(panel.features[asset]["ratio"])[1:]
        try:
            results = granger(returns, ratio, cfg.max_lag)
        except (SingularDesignError, DegenerateInputError):
            # e.g. a constant ratio: no test for this asset, as in correlation.csv
            granger_rows += [[asset, n, "nan", n, returns.size - 3 * n - 1, "nan", 0]
                             for n in range(1, cfg.max_lag + 1)]
            continue
        granger_rows += [[asset, lag, f"{r.statistic:.6f}", *r.df, f"{r.p_value:.6f}",
                          1 if r.reject_at_005 else 0]
                         for lag, r in enumerate(results, 1)]
    granger_path = cfg.out_dir / "granger.csv"
    _write_csv(granger_path, cfg,
               ["asset", "lag", "F", "df1", "df2", "p", "significant"], granger_rows)
    print(f"wrote {corr_path} and {granger_path}")
    return 0


def _checkpoint_paths(cfg: RunConfig) -> dict[str, Path]:
    return {
        pipeline.STRATEGY_LSTM: cfg.out_dir / "lstm.json",
        pipeline.STRATEGY_LSTM_SENTIMENT: cfg.out_dir / "lstm_sentiment.json",
    }


def cmd_train(cfg: RunConfig) -> int:
    panel = read_panel(cfg)
    paths = _checkpoint_paths(cfg)
    for name, (model, report, _) in pipeline.train_variants(panel, cfg.split, cfg.lstm).items():
        save_checkpoint(model, paths[name])
        loss_path = cfg.out_dir / f"loss_{paths[name].stem}.csv"
        _write_csv(loss_path, cfg, ["epoch", "train_mse", "val_mse"],
                   [[e, repr(tr), repr(va)] for e, (tr, va)
                    in enumerate(zip(report.train_mse, report.val_mse))])
        print(f"{name}: best epoch {report.best_epoch} "
              f"val MSE {report.val_mse[report.best_epoch]:.3e} -> {paths[name]}")
    return 0


def _parse_down_market(arg: str | None):
    if arg is None:
        return None
    try:
        lo, hi = arg.split(",")
        return (dt.date.fromisoformat(lo.strip()), dt.date.fromisoformat(hi.strip()))
    except ValueError as exc:
        raise ConfigurationError(f"bad --down-market value {arg!r}") from exc


def cmd_backtest(cfg: RunConfig, down_market: str | None = None) -> int:
    panel = read_panel(cfg)
    window = _parse_down_market(down_market)
    try:
        result = pipeline.run_pipeline(
            panel,
            split=cfg.split,
            lstm_config=cfg.lstm,
            mc_count=cfg.mc_count,
            mc_seed=cfg.mc_seed,
            cov_window=cfg.cov_window,
            initial_capital=cfg.initial_capital,
            test_window=window,
        )
        capitals = cfg.replicate_seeds and pipeline.replicates(
            ((panel, seed, cfg.mc_seed + seed) for seed in cfg.replicate_seeds),
            cfg.split, cfg.lstm, cfg.mc_count, cfg.cov_window, cfg.initial_capital, window)
    except (DegenerateInputError, ValidationError) as exc:
        # the panel's returns overflow a trailing covariance or a metric
        raise ValidationError(f"{_panel_path(cfg)}: {exc}") from exc
    curves_path = cfg.out_dir / "wealth_curves.csv"
    names = list(result.curves)
    dates = result.curves[names[0]].dates
    rows = [[d.isoformat()] + [repr(result.curves[n].values[i]) for n in names]
            for i, d in enumerate(dates)]
    _write_csv(curves_path, cfg, ["date"] + names, rows)

    rep_path = cfg.out_dir / "replicates.csv"
    # report reads replicates.csv when it exists: none may outlive its seeds
    rep_path.unlink(missing_ok=True)
    if capitals:
        _write_csv(rep_path, cfg, ["seed", "lstm_sentiment_final", "lstm_final"],
                   [[seed, *map(repr, pair)] for seed, pair in zip(cfg.replicate_seeds, capitals)])
    print(f"equal weights on {result.equal_weight_days} of {len(dates) - 1} days "
          "(no volatility to rank)")
    print(f"wrote {curves_path}")
    return 0


def _capital(field: str) -> float:
    value = float(field)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"capital {field!r} is not a positive finite number")
    return value


def _read_artifact_csv(path: Path, required: tuple[str, ...], parse_key
                       ) -> tuple[list[str], list, list[list[float]]]:
    """The stamped artifact at ``path``, whose first column is a key read by
    ``parse_key`` and whose other columns hold capitals: the names of those
    columns, the keys, and one list of capitals per row."""
    if not path.exists():
        raise ConfigurationError(f"artifact missing ({path}); run earlier stages first")
    keys, capitals = [], []
    with read_csv(path, required, stamped=True) as (header, records):
        for line, row in records:
            try:
                keys.append(parse_key(row[0]))
                capitals.append([_capital(v) for v in row[1:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{line}: {exc}") from exc
    return header[1:], keys, capitals


def cmd_report(cfg: RunConfig) -> int:
    curves_path = cfg.out_dir / "wealth_curves.csv"
    names, dates, rows = _read_artifact_csv(curves_path, ("date",), dt.date.fromisoformat)
    if len(rows) < 3:  # 2 daily returns, for the Sharpe ratio's ddof=1
        raise ParseError(f"{curves_path}: {len(rows)} rows, need at least 3")
    curves = {
        name: WealthCurve(
            dates=dates,
            values=[r[i] for r in rows],
            weights=[],
        )
        for i, name in enumerate(names)
    }
    try:
        reports = compare_strategies(curves, bh_name=pipeline.STRATEGY_BUY_HOLD)
    except DegenerateInputError as exc:
        raise ValidationError(f"{curves_path}: {exc}") from exc
    ttest = None
    rep_path = cfg.out_dir / "replicates.csv"
    if rep_path.exists():
        rep_names, _, rep_rows = _read_artifact_csv(
            rep_path, ("seed", "lstm_sentiment_final", "lstm_final"), int)
        with_sent = rep_names.index("lstm_sentiment_final")
        without_sent = rep_names.index("lstm_final")
        try:
            ttest = paired_t_test([r[with_sent] for r in rep_rows],
                                  [r[without_sent] for r in rep_rows])
        except (DegenerateInputError, InsufficientDataError) as exc:
            raise ValidationError(f"{rep_path}: {exc}") from exc
    table_rows = [
        [r.strategy, f"{r.final_capital:.2f}", f"{r.fapv:.2f}", f"{r.bv:.2f}",
         f"{r.sharpe_vs_bh:.2f}", f"{100 * r.mdd:.2f}",
         f"{100 * r.annualized_return:.2f}"]
        for r in reports
    ]
    report_path = cfg.out_dir / "report.csv"
    _write_csv(report_path, cfg, REPORT_HEADER, table_rows)

    payload = {
        "config": cfg.hash(),
        "seed": cfg.seed,
        "strategies": {
            r.strategy: {
                "capital": r.final_capital, "fapv": r.fapv, "bv": r.bv,
                "sr": r.sharpe_vs_bh, "mdd_pct": 100 * r.mdd,
                "ar_pct": 100 * r.annualized_return,
            } for r in reports
        },
    }
    if ttest is not None:
        payload["paired_t_test"] = {
            "t": ttest.statistic, "df": ttest.df[0], "p": ttest.p_value,
            "reject_at_005": ttest.reject_at_005,
        }
    (cfg.out_dir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    svg.line_chart({n: c.values for n, c in curves.items()},
                   "Portfolio value over the test period", cfg.out_dir / "wealth.svg")
    print(f"wrote {report_path}")
    return 0


def cmd_frontier(cfg: RunConfig) -> int:
    panel = read_panel(cfg)
    train_panel, _, _ = split_chronological(panel, cfg.split)
    prices = train_panel.price_matrix()
    try:
        moments = estimate_moments(prices[1:] / prices[:-1] - 1.0)
    except (ValidationError, InsufficientDataError) as exc:
        raise type(exc)(f"{_panel_path(cfg)}: train split: {exc}") from exc
    # a workspace of every sample: one chunk, whose scores stay in it
    ws = MonteCarloWorkspace(cfg.mc_count, len(panel.assets))
    try:
        (best,) = mean_variance_select(moments, cfg.mc_count, cfg.mc_seed, ws)
    except DegenerateMarketError as exc:
        raise ValidationError(f"{exc}: the train split's returns never vary") from exc
    exp_ret, vol, sharpe = ws.term, ws.variance, ws.total
    path = cfg.out_dir / "frontier.csv"
    _write_csv(path, cfg, ["exp_return", "volatility", "sharpe"],
               [[repr(float(r)), repr(float(v)), repr(float(s))]
                for r, v, s in zip(exp_ret, vol, sharpe)])
    svg.scatter_chart(
        vol.tolist(), exp_ret.tolist(), "Random portfolios (volatility vs return)",
        cfg.out_dir / "frontier.svg",
        highlight=(best.volatility, best.exp_return),
    )
    print(f"wrote {path}")
    return 0


def cmd_audit(cfg: RunConfig) -> int:
    if cfg.audit_file is None or cfg.lexicon_file is None:
        raise ConfigurationError("audit requires audit_file and lexicon_file")
    lex = sentiment.Lexicon.from_file(cfg.lexicon_file)
    sample = []
    with read_csv(cfg.audit_file, ("text", "label"), multiline=True) as (header, records):
        i_text, i_label = header.index("text"), header.index("label")
        for line, row in records:
            label = row[i_label].strip()
            if label not in sentiment.LABELS:
                raise ParseError(f"{cfg.audit_file}:{line}: unknown true label {label!r}")
            sample.append((row[i_text], label))
    matrix, accuracy = sentiment.audit_labels(sample, lex)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "confusion.csv"
    _write_csv(path, cfg, ["true_label"] + list(sentiment.LABELS),
               [[lab] + [repr(float(v)) for v in matrix[i]]
                for i, lab in enumerate(sentiment.LABELS)])
    print(f"accuracy {accuracy:.4f} over {len(sample)} samples -> {path}")
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "label": cmd_label,
    "analyze": cmd_analyze,
    "train": cmd_train,
    "backtest": cmd_backtest,
    "report": cmd_report,
    "frontier": cmd_frontier,
    "audit": cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sentfolio",
        description="Sentiment-aware portfolio selection pipeline",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override model seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--down-market", default=None, metavar="FROM,TO",
                        help="restrict evaluation to a date sub-window")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "backtest":
            return cmd_backtest(cfg, down_market=args.down_market)
        if args.down_market is not None:
            raise ConfigurationError("--down-market only applies to backtest")
        return COMMANDS[args.command](cfg)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a monte_carlo.count whose samples fit in no memory
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 2
    except SentfolioError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
