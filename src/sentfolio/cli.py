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
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import pipeline, sentiment, svg
from .backtest import DEFAULT_INITIAL_CAPITAL, WealthCurve, compare_strategies
from .errors import (
    AlignmentError,
    ConfigurationError,
    DegenerateInputError,
    DegenerateMarketError,
    DimensionError,
    InsufficientDataError,
    ParseError,
    SentfolioError,
    SingularDesignError,
    ValidationError,
)
from .csvfile import read_csv
from .forecast_lstm import LstmConfig, save_checkpoint
from .market_data import (
    FEATURE_NAMES,
    AlignedPanel,
    SplitSpec,
    align_panel,
    load_prices,
    split_chronological,
)
from .portfolio_opt import (
    DEFAULT_COV_WINDOW,
    DEFAULT_SAMPLE_COUNT,
    estimate_moments,
    frontier_samples,
    mean_variance_select,
)
from .stats import granger, pearson

USER_ERRORS = (
    ConfigurationError,
    ParseError,
    ValidationError,
    AlignmentError,
    InsufficientDataError,
    FileNotFoundError,
)

REPORT_HEADER = ["Models", "Capital", "fAPV", "BV", "SR", "MDD(%)", "AR(%)"]


@dataclass
class RunConfig:
    assets: list[str]
    data_dir: Path
    out_dir: Path
    sentiment_file: Path | None = None
    lexicon_file: Path | None = None
    audit_file: Path | None = None
    split: SplitSpec = field(default_factory=SplitSpec)
    lstm: LstmConfig = field(default_factory=LstmConfig)
    mc_count: int = DEFAULT_SAMPLE_COUNT
    mc_seed: int = 0
    cov_window: int = DEFAULT_COV_WINDOW
    initial_capital: float = DEFAULT_INITIAL_CAPITAL
    max_lag: int = 8
    replicate_seeds: list[int] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value, low in (("monte_carlo.count", self.mc_count, 1),
                                 ("monte_carlo.seed", self.mc_seed, 0),
                                 ("cov_window", self.cov_window, 2),
                                 ("max_lag", self.max_lag, 1),
                                 ("replicate_seeds", min(self.replicate_seeds, default=0), 0)):
            if value < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {value}")
        if not self.initial_capital > 0:
            raise ConfigurationError(f"initial_capital must be positive, got {self.initial_capital}")

    @property
    def seed(self) -> int:
        return self.lstm.seed

    def hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def stamp(self) -> str:
        return f"# config={self.hash()} seed={self.seed}"


def _number(value, name: str, kind: type):
    """``value`` unchanged if it is a finite YAML number of ``kind``; an int
    also passes as a float, a bool passes as neither."""
    ok = isinstance(value, int if kind is int else (int, float))
    if isinstance(value, bool) or not ok or not math.isfinite(value):
        what = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return value


def _section(raw: dict, key: str) -> dict:
    value = {} if raw.get(key) is None else raw[key]
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key} must be a mapping, got {value!r}")
    return dict(value)


def load_config(path: str | Path, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    """Parse a YAML run configuration. Absent keys take the dataclass
    defaults; a key of the wrong type or out of range is a
    ConfigurationError that names it."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f":{mark.line + 1}" if mark is not None else ""
        raise ConfigurationError(f"{path}{where}: malformed YAML") from exc
    if not isinstance(raw, dict) or not raw.get("assets"):
        raise ConfigurationError("config must list assets")
    assets = raw["assets"]
    if not isinstance(assets, list) or not all(isinstance(a, str) for a in assets):
        raise ConfigurationError(f"assets must be a list of names, got {assets!r}")
    base = path.parent

    def respath(key, default=None):
        value = default if raw.get(key) is None else raw[key]
        if value is None:
            return None
        if not isinstance(value, str):
            raise ConfigurationError(f"{key} must be a path, got {value!r}")
        return (base / value).resolve()

    split_raw = _section(raw, "split")
    split = SplitSpec(**{f"{k}_frac": _number(split_raw[k], f"split.{k}", float)
                         for k in ("train", "val", "test") if k in split_raw})
    lstm_raw = _section(raw, "lstm")
    if seed_override is not None:
        lstm_raw["seed"] = seed_override
        raw = dict(raw, lstm=dict(lstm_raw))
    kinds = {f.name: type(f.default) for f in fields(LstmConfig)}
    unknown = sorted(set(lstm_raw) - set(kinds))
    if unknown:
        raise ConfigurationError(f"unknown lstm key(s): {', '.join(unknown)}")
    for key, value in lstm_raw.items():
        _number(value, f"lstm.{key}", kinds[key])
    derived = {"input_width": len(assets) * len(FEATURE_NAMES), "n_outputs": len(assets)}
    for key, value in derived.items():
        if lstm_raw.setdefault(key, value) != value:
            raise ConfigurationError(
                f"lstm.{key} is {lstm_raw[key]}, but {len(assets)} assets need {value}"
            )
    try:
        lstm = LstmConfig(**lstm_raw)
    except DimensionError as exc:
        raise ConfigurationError(f"lstm: {exc}") from exc
    mc = _section(raw, "monte_carlo")
    settings = {}
    for section, key, name, kind in ((mc, "count", "mc_count", int),
                                     (mc, "seed", "mc_seed", int),
                                     (raw, "cov_window", "cov_window", int),
                                     (raw, "initial_capital", "initial_capital", float),
                                     (raw, "max_lag", "max_lag", int)):
        if key in section:
            label = f"monte_carlo.{key}" if section is mc else key
            settings[name] = _number(section[key], label, kind)
    seeds = [] if raw.get("replicate_seeds") is None else raw["replicate_seeds"]
    if not isinstance(seeds, list):
        raise ConfigurationError(f"replicate_seeds must be a list, got {seeds!r}")
    cfg = RunConfig(
        assets=assets,
        data_dir=respath("data_dir", "."),
        out_dir=Path(out_override).resolve() if out_override else respath("out_dir", "out"),
        sentiment_file=respath("sentiment_file"),
        lexicon_file=respath("lexicon_file"),
        audit_file=respath("audit_file"),
        split=split,
        lstm=lstm,
        replicate_seeds=[_number(s, "replicate_seeds", int) for s in seeds],
        raw=raw,
        **settings,
    )
    if not cfg.data_dir.exists():
        raise ConfigurationError(f"data_dir does not exist: {cfg.data_dir}")
    for p in (cfg.sentiment_file, cfg.lexicon_file, cfg.audit_file):
        if p is not None and not p.exists():
            raise ConfigurationError(f"configured path does not exist: {p}")
    return cfg


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
        for line, row in records:
            try:
                dates.append(dt.date.fromisoformat(row[0]))
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{line}: malformed row ({exc})") from exc
            if not all(map(math.isfinite, rows[-1])):
                raise ParseError(f"{path}:{line}: non-finite value")
    values = np.asarray(rows, dtype=float).reshape(len(dates), len(assets), len(FEATURE_NAMES))
    return AlignedPanel(dates=dates, assets=assets, values=values)


def build_panel(cfg: RunConfig) -> AlignedPanel:
    series = []
    for asset in cfg.assets:
        path = cfg.data_dir / f"{asset}.csv"
        if not path.exists():
            raise ConfigurationError(f"missing asset file: {path}")
        series.append(load_prices(path, asset_id=asset))
    daily = None
    if cfg.sentiment_file is not None:
        lex = sentiment.Lexicon.from_file(cfg.lexicon_file) if cfg.lexicon_file else None
        table = sentiment.load_sentiment_csv(cfg.sentiment_file, lexicon=lex)
        all_dates = sorted({d for s in series for d in s.dates})
        daily = {asset: sentiment.daily_features(table, asset, all_dates)
                 for asset in cfg.assets}
    return align_panel(series, daily)


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
    lex = sentiment.Lexicon.from_file(cfg.lexicon_file)
    table = sentiment.load_sentiment_csv(cfg.sentiment_file, lexicon=lex)
    out = cfg.out_dir / "labeled.csv"
    _write_csv(out, cfg, list(sentiment.COLUMNS), table.csv_rows())
    print(f"labeled {len(table)} records -> {out}")
    return 0


def _weekly_stats_and_returns(panel: AlignedPanel, asset: str,
                              table: sentiment.SentimentTable) -> tuple[list, list]:
    """Per-week sentiment aggregates paired with the week's total return."""
    first = panel.dates[0]
    weeks = sentiment.weekly_windows(table, asset, first, panel.dates[-1])
    rows: list[list[int]] = [[] for _ in weeks]
    for i, d in enumerate(panel.dates):
        rows[(d - first).days // 7].append(i)
    prices = np.asarray(panel.features[asset]["adj_close"])
    weekly_returns = []
    kept = []
    for w, idx in zip(weeks, rows):
        if len(idx) < 2:
            continue
        weekly_returns.append(float(prices[idx[-1]] / prices[idx[0]] - 1.0))
        kept.append(w)
    return kept, weekly_returns


def cmd_analyze(cfg: RunConfig) -> int:
    panel = read_panel(cfg)
    if cfg.sentiment_file is None:
        raise ConfigurationError("analyze requires sentiment_file")
    lex = sentiment.Lexicon.from_file(cfg.lexicon_file) if cfg.lexicon_file else None
    table = sentiment.load_sentiment_csv(cfg.sentiment_file, lexicon=lex)

    corr_rows = []
    for asset in panel.assets:
        weeks, weekly_returns = _weekly_stats_and_returns(panel, asset, table)
        row = [asset]
        for attr in ("mean_pol", "max_pol", "median_pol", "ratio"):
            series = [getattr(w, attr) for w in weeks]
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
            report = granger(returns, ratio, cfg.max_lag)
        except (SingularDesignError, DegenerateInputError):
            # e.g. a constant ratio: no test for this asset, as in correlation.csv
            granger_rows += [[asset, n, "nan", n, returns.size - 3 * n - 1, "nan", 0]
                             for n in range(1, cfg.max_lag + 1)]
            continue
        for entry in report.lags:
            granger_rows.append([
                asset, entry.lag, f"{entry.result.statistic:.6f}",
                entry.result.df[0], entry.result.df[1],
                f"{entry.result.p_value:.6f}",
                1 if entry.result.reject_at_005 else 0,
            ])
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
    variants = {
        pipeline.STRATEGY_LSTM: pipeline.neutralize_sentiment(panel),
        pipeline.STRATEGY_LSTM_SENTIMENT: panel,
    }
    for name, variant_panel in variants.items():
        model, report, _ = pipeline.train_forecaster(variant_panel, cfg.split, cfg.lstm)
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
    curves_path = cfg.out_dir / "wealth_curves.csv"
    names = list(result.curves)
    dates = result.curves[names[0]].dates
    rows = [[d.isoformat()] + [repr(result.curves[n].values[i]) for n in names]
            for i, d in enumerate(dates)]
    _write_csv(curves_path, cfg, ["date"] + names, rows)

    if len(cfg.replicate_seeds) >= 2:
        rep_rows = []
        for seed in cfg.replicate_seeds:
            seeded = LstmConfig(**dict(cfg.lstm.__dict__, seed=seed))
            rep = pipeline.run_pipeline(
                panel,
                split=cfg.split,
                lstm_config=seeded,
                mc_count=cfg.mc_count,
                mc_seed=cfg.mc_seed + seed,
                cov_window=cfg.cov_window,
                initial_capital=cfg.initial_capital,
                strategies=(pipeline.STRATEGY_BUY_HOLD, pipeline.STRATEGY_LSTM,
                            pipeline.STRATEGY_LSTM_SENTIMENT),
                test_window=window,
            )
            rep_rows.append([
                seed,
                repr(rep.curves[pipeline.STRATEGY_LSTM_SENTIMENT].final_capital),
                repr(rep.curves[pipeline.STRATEGY_LSTM].final_capital),
            ])
        _write_csv(cfg.out_dir / "replicates.csv", cfg,
                   ["seed", "lstm_sentiment_final", "lstm_final"], rep_rows)
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
    if len(rows) < 2:
        raise ParseError(f"{curves_path}: {len(rows)} rows, need at least 2")
    curves = {
        name: WealthCurve(
            dates=dates,
            values=[r[i] for r in rows],
            weights=[],
        )
        for i, name in enumerate(names)
    }
    replicate_capitals = None
    rep_path = cfg.out_dir / "replicates.csv"
    if rep_path.exists():
        rep_names, _, rep_rows = _read_artifact_csv(
            rep_path, ("seed", "lstm_sentiment_final", "lstm_final"), int)
        with_sent = rep_names.index("lstm_sentiment_final")
        without_sent = rep_names.index("lstm_final")
        replicate_capitals = (
            [r[with_sent] for r in rep_rows],
            [r[without_sent] for r in rep_rows],
        )
    reports, ttest = compare_strategies(
        curves, bh_name=pipeline.STRATEGY_BUY_HOLD,
        replicate_capitals=replicate_capitals,
    )
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
    moments = estimate_moments(prices[1:] / prices[:-1] - 1.0)
    _, vol, rows = frontier_samples(moments, cfg.mc_count, cfg.mc_seed)
    ((exp_ret, sharpe),) = rows
    try:
        (best,) = mean_variance_select(moments, cfg.mc_count, cfg.mc_seed)
    except DegenerateMarketError as exc:
        raise ValidationError(f"{exc}: the train split's returns never vary") from exc
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
    except SentfolioError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
