"""The three benchmark workloads: inputs made from a seed, one timed pass,
and the checks on its outputs.

* ``study``    the paper-scale replication (criterion-7 configuration).
* ``allocate`` a long test span with a tiny forecaster: daily Monte-Carlo
               mean-variance selection dominates.
* ``cli``      the command chain a user runs, on CSV files and raw texts.

A pass returns how many operations it attempted, how many failed their
checks, and a SHA-256 over its deterministic outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WEIGHT_TOL = 1e-9
CLI_COMMANDS = ("ingest", "label", "analyze", "train", "backtest", "report", "frontier")


@dataclass
class PassResult:
    attempted: int
    failed: int
    digest: str | None
    edge_fapv: float | None = None
    problems: list[str] = field(default_factory=list)


def derive_seeds(seed: int, k: int) -> list[int]:
    """k distinct non-negative 31-bit seeds, fixed by ``seed``."""
    state = np.random.SeedSequence(seed).generate_state(k, dtype=np.uint32)
    return [int(s) >> 1 for s in state]


# -- checks shared by the in-process workloads --------------------------------

def _weight_rows_failed(curve) -> int:
    bad = 0
    for w in curve.weights:
        arr = np.asarray(w.values, dtype=float)
        if (arr < -WEIGHT_TOL).any() or abs(arr.sum() - 1.0) > WEIGHT_TOL:
            bad += 1
    return bad


def _check_pipeline(result, bh_name: str) -> tuple[dict[str, int], list[str]]:
    """Failed weight rows per strategy, and what was wrong.

    A whole curve fails when its capital is not finite, when any training
    loss is not finite, or, for Buy and Hold, when its BV or SR against
    itself is not exactly 1."""
    problems = []
    failed = {}
    reports = {r.strategy: r for r in result.reports}
    for name, curve in result.curves.items():
        n_bad = _weight_rows_failed(curve)
        if n_bad:
            problems.append(f"{name}: {n_bad} weight rows off the simplex")
        whole = not all(math.isfinite(v) for v in curve.values)
        if whole:
            problems.append(f"{name}: non-finite capital")
        rep = reports.get(name)
        if name == bh_name and (rep is None or rep.bv != 1.0 or rep.sharpe_vs_bh != 1.0):
            problems.append(f"{name}: BV/SR against itself is not 1")
            whole = True
        tr = result.train_reports.get(name)
        if tr is not None and not all(
                math.isfinite(v) for v in tr.train_mse + tr.val_mse):
            problems.append(f"{name}: non-finite training loss")
            whole = True
        failed[name] = len(curve.weights) if whole else n_bad
    return failed, problems


def _pipeline_digest(result) -> str:
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


def _edge(result) -> float | None:
    from sentfolio.pipeline import STRATEGY_LSTM, STRATEGY_LSTM_SENTIMENT

    if STRATEGY_LSTM not in result.curves or STRATEGY_LSTM_SENTIMENT not in result.curves:
        return None
    fapv = {n: c.final_capital / c.initial_capital for n, c in result.curves.items()}
    return fapv[STRATEGY_LSTM_SENTIMENT] - fapv[STRATEGY_LSTM]


# -- study -------------------------------------------------------------------

@dataclass(frozen=True)
class StudyScale:
    n_days: int = 800
    seeds_per_run: int = 2
    num_layers: int = 1
    hidden_size: int = 16
    learning_rate: float = 0.01
    epochs: int = 150
    mc_count: int = 50_000


class Study:
    """Criterion-7 replication: Buy and Hold plus both LSTM variants on
    ``make_panel(n_days=800)``; one pass is one seed replication, and the
    passes of a run cycle over ``seeds_per_run`` seeds."""

    op_name = "seed pipeline"
    work_unit = "seed replications"
    min_passes = 2

    def __init__(self, scale: StudyScale = StudyScale()):
        self.scale = scale

    def setup(self, seed: int, workdir: Path):
        from sentfolio.synthetic import make_panel

        seeds = derive_seeds(seed, self.scale.seeds_per_run)
        return [(s, make_panel(seed=s, n_days=self.scale.n_days)) for s in seeds]

    def work_per_pass(self, inputs) -> int:
        return 1

    def attempted_per_pass(self, inputs) -> int:
        return 1

    def input_key(self, inputs, index: int) -> int:
        return index % len(inputs)

    def run_pass(self, inputs, index: int, tracer) -> PassResult:
        from sentfolio import pipeline
        from sentfolio.forecast_lstm import LstmConfig

        sc = self.scale
        s, panel = inputs[index % len(inputs)]
        config = LstmConfig(num_layers=sc.num_layers, hidden_size=sc.hidden_size,
                            learning_rate=sc.learning_rate, epochs=sc.epochs, seed=s)
        result = pipeline.run_pipeline(
            panel, lstm_config=config, mc_count=sc.mc_count, mc_seed=s,
            strategies=(pipeline.STRATEGY_BUY_HOLD, pipeline.STRATEGY_LSTM,
                        pipeline.STRATEGY_LSTM_SENTIMENT),
        )
        failed, problems = _check_pipeline(result, pipeline.STRATEGY_BUY_HOLD)
        return PassResult(attempted=1, failed=int(any(failed.values())),
                          digest=_pipeline_digest(result), edge_fapv=_edge(result),
                          problems=problems)


# -- allocate ----------------------------------------------------------------

@dataclass(frozen=True)
class AllocateScale:
    n_days: int = 2000
    num_layers: int = 1
    hidden_size: int = 4
    learning_rate: float = 0.01
    epochs: int = 3
    mc_count: int = 50_000
    cov_window: int = 50
    halt_start: int = 1750


def with_trading_halt(panel, start: int, length: int):
    """Freeze every asset's close (and zero its volume) over rows
    [start, start + length); trading resumes at the original prices.  A halt
    longer than the covariance window leaves all-zero trailing covariances,
    the degenerate market the selector cannot rank."""
    for cols in panel.features.values():
        cols["adj_close"][start:start + length] = cols["adj_close"][start - 1]
        cols["volume"][start:start + length] = 0.0
    return panel


class Allocate:
    """All five strategies on a long market, with a tiny LSTM; one pass is
    one full backtest, and each daily weight row is one decision.  The market
    has a trading halt in the test span, so the equal-weight fallback on a
    degenerate market runs on some days."""

    op_name = "daily allocation decision"
    work_unit = "allocation decisions"
    min_passes = 2

    def __init__(self, scale: AllocateScale = AllocateScale()):
        self.scale = scale

    def setup(self, seed: int, workdir: Path):
        from sentfolio.synthetic import make_panel

        (s,) = derive_seeds(seed, 1)
        sc = self.scale
        panel = make_panel(seed=s, n_days=sc.n_days)
        return s, with_trading_halt(panel, sc.halt_start, sc.cov_window + 10)

    def work_per_pass(self, inputs) -> int:
        return self.attempted_per_pass(inputs)

    def input_key(self, inputs, index: int) -> int:
        return 0

    def attempted_per_pass(self, inputs) -> int:
        from sentfolio.market_data import SplitSpec, split_chronological
        from sentfolio.pipeline import ALL_STRATEGIES

        _, panel = inputs
        _, _, test = split_chronological(panel, SplitSpec())
        return len(ALL_STRATEGIES) * (test.n_rows - 1)

    def run_pass(self, inputs, index: int, tracer) -> PassResult:
        from sentfolio import pipeline
        from sentfolio.forecast_lstm import LstmConfig

        sc = self.scale
        s, panel = inputs
        config = LstmConfig(num_layers=sc.num_layers, hidden_size=sc.hidden_size,
                            learning_rate=sc.learning_rate, epochs=sc.epochs, seed=s)
        result = pipeline.run_pipeline(
            panel, lstm_config=config, mc_count=sc.mc_count, mc_seed=s,
            cov_window=sc.cov_window,
        )
        failed, problems = _check_pipeline(result, pipeline.STRATEGY_BUY_HOLD)
        expected = self.attempted_per_pass(inputs)
        missing = expected - sum(len(c.weights) for c in result.curves.values())
        if missing:
            problems.append(f"{missing} weight rows missing of {expected}")
        return PassResult(attempted=expected,
                          failed=min(expected, sum(failed.values()) + abs(missing)),
                          digest=_pipeline_digest(result), edge_fapv=_edge(result),
                          problems=problems)


# -- cli ---------------------------------------------------------------------

@dataclass(frozen=True)
class CliScale:
    n_days: int = 2000
    texts_per_day: int = 20
    epochs: int = 2
    mc_count: int = 1_000
    max_lag: int = 8


LEXICON = {
    "gain": 0.6, "strong": 0.5, "bullish": 0.8, "beat": 0.5, "upgrade": 0.6,
    "rally": 0.7, "profit": 0.5, "growth": 0.4, "buy": 0.4, "outperform": 0.7,
    "loss": -0.6, "weak": -0.5, "bearish": -0.8, "miss": -0.5, "downgrade": -0.6,
    "selloff": -0.7, "debt": -0.4, "lawsuit": -0.6, "sell": -0.4, "underperform": -0.7,
}
POSITIVE_WORDS = [w for w, v in LEXICON.items() if v > 0]
NEGATIVE_WORDS = [w for w, v in LEXICON.items() if v < 0]
# {a} is the asset, {w} a lexicon word of the wanted sign, {p} a positive
# word that a negation turns negative.
POSITIVE_TEXTS = (
    "{a} looks {w} after the call",
    "really {w} trading day for {a}",
    "{a}: {w} on heavy volume #markets",
    "analysts see {w} quarter ahead for {a}",
)
NEGATIVE_TEXTS = (
    "{a} looks {w} after the call",
    "extremely {w} open for {a} today",
    "not a {p} day for {a}",
    "{a}: {w} on heavy volume #markets",
)
NEUTRAL_TEXTS = (
    "{a} shares traded today",
    "watching {a} into the close",
)


def write_cli_inputs(seed: int, data_dir: Path, sc: CliScale) -> tuple[list[str], int]:
    """Price CSVs, a raw-text sentiment CSV and a lexicon file.

    Each asset-day gets ``texts_per_day`` unlabeled texts whose lexicon
    labels reproduce the generator's daily sentiment ratio, so ``label``
    must run on every row.  Returns (assets, number of sentiment rows)."""
    from sentfolio.synthetic import make_market

    data_dir.mkdir(parents=True, exist_ok=True)
    series, daily, _ = make_market(seed=seed, n_days=sc.n_days)
    rng = np.random.default_rng(seed)
    for s in series:
        with open(data_dir / f"{s.asset_id}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "adj_close", "volume"])
            for d, p, v in zip(s.dates, s.adj_close, s.volume):
                writer.writerow([d.isoformat(), f"{p:.6f}", int(v)])
    (data_dir / "lexicon.tsv").write_text(
        "# token<TAB>valence\n" + "".join(f"{w}\t{v}\n" for w, v in LEXICON.items()))

    n = sc.texts_per_day
    n_neutral = max(1, n // 10)
    polar = n - n_neutral
    rows = 0
    with open(data_dir / "sentiment.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "asset", "text", "likes", "retweets", "comments"])
        for s in series:
            a = s.asset_id.lower()
            for d in s.dates:
                ratio = daily[s.asset_id][d]["ratio"]
                n_neg = min(polar, max(0, round((polar + 2) / (ratio + 1)) - 1))
                kinds = [1] * (polar - n_neg) + [-1] * n_neg + [0] * n_neutral
                picks = rng.integers(0, 1 << 30, size=(n, 3))
                engagement = rng.integers(0, 50, size=(n, 3))
                day = d.isoformat()
                for kind, pick, eng in zip(kinds, picks, engagement):
                    if kind > 0:
                        text = POSITIVE_TEXTS[pick[0] % len(POSITIVE_TEXTS)]
                        word = POSITIVE_WORDS[pick[1] % len(POSITIVE_WORDS)]
                    elif kind < 0:
                        text = NEGATIVE_TEXTS[pick[0] % len(NEGATIVE_TEXTS)]
                        word = NEGATIVE_WORDS[pick[1] % len(NEGATIVE_WORDS)]
                    else:
                        text = NEUTRAL_TEXTS[pick[0] % len(NEUTRAL_TEXTS)]
                        word = ""
                    p = POSITIVE_WORDS[pick[2] % len(POSITIVE_WORDS)]
                    writer.writerow([day, s.asset_id, text.format(a=a, w=word, p=p),
                                     int(eng[0]), int(eng[1]), int(eng[2])])
                    rows += 1
    return [s.asset_id for s in series], rows


def write_cli_config(path: Path, assets: list[str], seed: int, sc: CliScale) -> None:
    path.write_text(
        f"assets: [{', '.join(assets)}]\n"
        "data_dir: data\n"
        "out_dir: out\n"
        "sentiment_file: data/sentiment.csv\n"
        "lexicon_file: data/lexicon.tsv\n"
        f"lstm: {{num_layers: 3, hidden_size: 13, epochs: {sc.epochs}, seed: {seed}}}\n"
        f"monte_carlo: {{count: {sc.mc_count}, seed: {seed}}}\n"
        f"max_lag: {sc.max_lag}\n"
        f"replicate_seeds: [{seed + 1}, {seed + 2}]\n"
    )


@dataclass
class CliInputs:
    root: Path
    config: Path
    records: int


def _snapshot(out_dir: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in out_dir.iterdir() if p.is_file()}


def _artifact_problems(command: str, out_dir: Path) -> list[str]:
    """What is missing or malformed among the artifacts ``command`` writes."""
    from sentfolio import cli, pipeline

    expected = {
        "ingest": ["panel.csv"],
        "label": ["labeled.csv"],
        "analyze": ["correlation.csv", "granger.csv"],
        "train": ["lstm.json", "lstm_sentiment.json",
                  "loss_lstm.csv", "loss_lstm_sentiment.csv"],
        "backtest": ["wealth_curves.csv", "replicates.csv"],
        "report": ["report.csv", "report.json", "wealth.svg"],
        "frontier": ["frontier.csv", "frontier.svg"],
    }[command]
    problems = [f"{command}: missing {n}" for n in expected if not (out_dir / n).is_file()]
    if problems:
        return problems

    def table(name):
        with open(out_dir / name, newline="") as fh:
            fh.readline()  # config stamp
            return list(csv.reader(fh))

    def all_finite(rows, first_col):
        return all(math.isfinite(float(v)) for r in rows for v in r[first_col:])

    if command == "train":
        for name in ("loss_lstm.csv", "loss_lstm_sentiment.csv"):
            if not all_finite(table(name)[1:], 1):
                problems.append(f"train: non-finite loss in {name}")
    elif command == "backtest":
        for name in ("wealth_curves.csv", "replicates.csv"):
            if not all_finite(table(name)[1:], 1):
                problems.append(f"backtest: non-finite capital in {name}")
    elif command == "report":
        rows = table("report.csv")
        if rows[0] != cli.REPORT_HEADER:
            problems.append(f"report: header {rows[0]}")
        body = rows[1:]
        if len(body) != 5:
            problems.append(f"report: {len(body)} strategy rows, expected 5")
        elif not all_finite(body, 1):
            problems.append("report: non-finite value")
        bh = [r for r in body if r[0] == pipeline.STRATEGY_BUY_HOLD]
        if not bh or bh[0][3] != "1.00" or bh[0][4] != "1.00":
            problems.append("report: Buy and Hold BV/SR is not 1")
    return problems


class Cli:
    """``ingest -> label -> analyze -> train -> backtest -> report ->
    frontier`` through ``cli.main`` on files the benchmark writes; one pass
    is the whole chain in a fresh output directory, and each command is one
    operation."""

    op_name = "command"
    work_unit = "sentiment records through the command chain"
    min_passes = 2

    def __init__(self, scale: CliScale = CliScale()):
        self.scale = scale

    def setup(self, seed: int, workdir: Path) -> CliInputs:
        (s,) = derive_seeds(seed, 1)
        root = workdir / "cli"
        if root.exists():
            shutil.rmtree(root)
        assets, records = write_cli_inputs(s, root / "data", self.scale)
        config = root / "config.yaml"
        write_cli_config(config, assets, s % 100_000, self.scale)
        return CliInputs(root=root, config=config, records=records)

    def work_per_pass(self, inputs: CliInputs) -> int:
        return inputs.records

    def input_key(self, inputs, index: int) -> int:
        return 0

    def attempted_per_pass(self, inputs) -> int:
        return len(CLI_COMMANDS)

    def run_pass(self, inputs: CliInputs, index: int, tracer) -> PassResult:
        from sentfolio import cli

        out_dir = inputs.root / "out"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        failed = 0
        problems: list[str] = []
        for command in CLI_COMMANDS:
            before = _snapshot(out_dir) if tracer.enabled and out_dir.exists() else {}
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), tracer.span(f"cli.{command}"):
                code = cli.main([command, "--config", str(inputs.config)])
            if tracer.enabled and out_dir.exists():
                tracer.count("cli.bytes_written", sum(
                    size for name, (size, mtime) in _snapshot(out_dir).items()
                    if before.get(name) != (size, mtime)))
            found = (_artifact_problems(command, out_dir) if code == 0
                     else [f"{command}: exit {code}: {err.getvalue().strip()}"])
            failed += bool(found)
            problems += found
        h = hashlib.sha256()
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return PassResult(attempted=len(CLI_COMMANDS), failed=failed,
                          digest=h.hexdigest(), edge_fapv=_report_edge(out_dir),
                          problems=problems)


def _report_edge(out_dir: Path) -> float | None:
    from sentfolio import pipeline

    path = out_dir / "report.json"
    if not path.is_file():
        return None
    strategies = json.loads(path.read_text())["strategies"]
    return (strategies[pipeline.STRATEGY_LSTM_SENTIMENT]["fapv"]
            - strategies[pipeline.STRATEGY_LSTM]["fapv"])


WORKLOADS = {"study": Study, "allocate": Allocate, "cli": Cli}
