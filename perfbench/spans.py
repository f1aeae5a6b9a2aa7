"""In-memory spans and counters recorded around the calls into each layer.

The benchmark wraps the public functions of every ``sentfolio`` module from
outside the package: it replaces each function with a timing wrapper in the
module that defines it *and* in every module that imported it by name (for
example ``pipeline.train`` or ``cli.granger``), so no call path is missed.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# The modules of src/sentfolio that count as layers; ``synthetic`` builds the
# inputs and is set-up, not a layer.
LAYERS = (
    "cli", "pipeline", "market_data", "sentiment", "stats",
    "forecast_lstm", "portfolio_opt", "backtest", "svg",
)

# Classes whose public methods are layer work, named as ``<layer>.<method>``.
CLASS_TARGETS = {
    "forecast_lstm": ("LstmModel",),
    "market_data": ("AlignedPanel",),
    "sentiment": ("Lexicon",),
}

# Per-text helpers called about 10^5 times per run: their work shows in their
# callers' self time and in the ``sentiment.records`` counter instead.  Also
# the CLI entry points (``main`` here, ``cmd_*`` in ``_targets``), whose spans
# the workload records itself as ``cli.<command>``.
NOT_WRAPPED = frozenset({
    "sentiment.tokenize", "sentiment.score_text", "sentiment.label_text",
    "sentiment.sentiment_ratio", "cli.main",
})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Spans (name, start, end, parent, run id) and named counters."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.best_epoch_ratios: list[float] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def totals(self) -> dict[str, float]:
        """Summed span time per name, and self time (span minus direct
        children) summed per layer as ``<layer>.self_s``."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = Counter()
        for i, s in enumerate(self.spans):
            duration = s.end - s.start
            out[f"{s.name}.s"] += duration
            out[f"{s.name.split('.')[0]}.self_s"] += duration - child_time[i]
        return dict(out)

    def write(self, path: Path) -> None:
        payload = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "run_id": s.run_id}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": payload, "counters": dict(self.counters)}))


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    enabled = False

    def span(self, name: str) -> "_NullContext":
        return _NULL_CONTEXT

    def count(self, name: str, n: int = 1) -> None:
        pass


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end(self.index)
        return False


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


# -- counters read at layer boundaries ---------------------------------------

def _after_call(tracer: Tracer, name: str, args, result) -> None:
    if name == "portfolio_opt.frontier_samples":
        tracer.count("portfolio_opt.samples", int(result[0].shape[0]))
    elif name == "backtest.run_backtest":
        tracer.count("backtest.run_backtest.periods", len(args[0]))
    elif name == "sentiment.load_sentiment_csv":
        tracer.count("sentiment.records", len(result))
    elif name == "market_data.load_prices":
        tracer.count("market_data.load_prices.rows", len(result.dates))
    elif name == "forecast_lstm.train":
        tracer.best_epoch_ratios.append((result.best_epoch + 1) / len(result.val_mse))


def _wrap(tracer: Tracer, name: str, fn):
    from sentfolio.errors import DegenerateMarketError

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(f"{name}.calls")
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except DegenerateMarketError:
            if name == "portfolio_opt.mean_variance_select":
                tracer.count("portfolio_opt.fallbacks")
            raise
        finally:
            tracer.end(index)
        _after_call(tracer, name, args, result)
        return result

    return wrapper


def _targets(layer: str, module) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for each public callable."""
    found = []
    for attr, obj in vars(module).items():
        if (attr.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__):
            continue
        name = f"{layer}.{attr}"
        if name not in NOT_WRAPPED and not attr.startswith("cmd_"):
            found.append((name, module, attr, obj))
    for cls_name in CLASS_TARGETS.get(layer, ()):
        cls = getattr(module, cls_name)
        for attr, raw in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod) or inspect.isfunction(raw):
                found.append((f"{layer}.{attr}", cls, attr, raw))
    names = [t[0] for t in found]
    if len(names) != len(set(names)):
        raise RuntimeError(f"span names collide in layer {layer}: {sorted(names)}")
    return found


def install(tracer: Tracer):
    """Wrap every public layer function everywhere it is bound; return a
    callable that restores the originals."""
    package = {m: importlib.import_module(f"sentfolio.{m}") for m in LAYERS + ("synthetic",)}
    undo: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        for name, owner, attr, original in _targets(layer, package[layer]):
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(tracer, name, original.__func__))
            else:
                wrapped = _wrap(tracer, name, original)
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if inspect.isclass(owner):
                continue
            # rebind the name wherever another module imported it directly
            for other in package.values():
                for other_attr, value in list(vars(other).items()):
                    if value is original and other is not owner:
                        undo.append((other, other_attr, original))
                        setattr(other, other_attr, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
