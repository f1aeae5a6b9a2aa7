"""Lexicon-rule polarity scoring and daily/weekly sentiment aggregation."""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from .errors import ParseError, ValidationError

POSITIVE = "Positive"
NEGATIVE = "Negative"
NEUTRAL = "Neutral"
LABELS = (POSITIVE, NEGATIVE, NEUTRAL)

# |polarity| below this is treated as no signal.
NEUTRAL_BAND = 0.05
# Squash constant: polarity = s / sqrt(s^2 + NORM) for raw valence sum s.
NORM = 15.0
# Weekly windows with fewer observations than this are flagged insufficient.
MIN_WEEKLY_COUNT = 30

_TOKEN_RE = re.compile(r"[a-z0-9']+")

DEFAULT_NEGATIONS = frozenset(
    {"not", "no", "never", "neither", "nor", "n't", "cannot", "without", "hardly"}
)
DEFAULT_INTENSIFIERS = {
    "very": 1.5,
    "extremely": 1.8,
    "really": 1.4,
    "slightly": 0.6,
    "somewhat": 0.7,
    "barely": 0.5,
}


@dataclass(frozen=True)
class Lexicon:
    """Token valences plus negation and intensifier rules; immutable."""

    valences: dict[str, float]
    negations: frozenset[str] = DEFAULT_NEGATIONS
    intensifiers: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_INTENSIFIERS))

    def __post_init__(self):
        for tok, v in self.valences.items():
            if not -1.0 <= v <= 1.0:
                raise ValidationError(f"lexicon valence out of [-1,1] for {tok!r}: {v}")
        for tok, m in self.intensifiers.items():
            if not m > 0:
                raise ValidationError(f"intensifier multiplier must be > 0 for {tok!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        """Load ``token<TAB>valence`` lines; blank lines and # comments skipped."""
        valences: dict[str, float] = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ParseError(f"{path}:{lineno}: expected token<TAB>valence")
                try:
                    valences[parts[0].lower()] = float(parts[1])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad valence {parts[1]!r}") from exc
        return cls(valences=valences)


@dataclass
class SentimentRecord:
    """One dated text observation with its label and engagement counts."""

    date: dt.date
    asset_id: str
    text: str
    label: str
    polarity: float
    likes: int = 0
    retweets: int = 0
    comments: int = 0

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValidationError(f"unknown label {self.label!r}")
        sign_ok = (
            (self.polarity > 0 and self.label == POSITIVE)
            or (self.polarity < 0 and self.label == NEGATIVE)
            or (self.polarity == 0 and self.label == NEUTRAL)
        )
        if not sign_ok:
            raise ValidationError(
                f"label {self.label} inconsistent with polarity {self.polarity}"
            )
        if min(self.likes, self.retweets, self.comments) < 0:
            raise ValidationError("engagement counts must be non-negative")


@dataclass
class WeeklySentiment:
    """Aggregate over a 7-calendar-day window for one asset."""

    asset_id: str
    window_start: dt.date
    n_total: int
    n_pos: int
    n_neg: int
    n_neu: int
    mean_pol: float
    max_pol: float
    median_pol: float
    ratio: float
    sufficient: bool


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def score_text(text: str, lexicon: Lexicon) -> float:
    """Raw valence sum with negation flips and intensifier scaling."""
    total = 0.0
    flip = False
    scale = 1.0
    for tok in tokenize(text):
        if tok in lexicon.negations:
            flip = True
            continue
        if tok in lexicon.intensifiers:
            scale *= lexicon.intensifiers[tok]
            continue
        valence = lexicon.valences.get(tok)
        if valence is not None:
            v = valence * scale
            if flip:
                v = -v
            total += v
        # modifiers apply only to the next scored token
        flip = False
        scale = 1.0
    return total


def label_text(text: str, lexicon: Lexicon) -> tuple[str, float]:
    """Score a text and assign its 3-class label.

    The raw valence sum s is squashed to s/sqrt(s^2 + 15) so polarity lies in
    [-1, 1]; scores inside the +-0.05 dead zone become Neutral (polarity 0 so
    the label/sign invariant holds).
    """
    if not lexicon.valences:
        raise ValidationError("empty lexicon")
    s = score_text(text, lexicon)
    polarity = s / math.sqrt(s * s + NORM)
    polarity = max(-1.0, min(1.0, polarity))
    if abs(polarity) < NEUTRAL_BAND:
        return NEUTRAL, 0.0
    return (POSITIVE, polarity) if polarity > 0 else (NEGATIVE, polarity)


def sentiment_ratio(n_pos: int, n_neg: int) -> float:
    """Positive/negative count ratio with Laplace (+1/+1) smoothing."""
    if n_pos < 0 or n_neg < 0:
        raise ValidationError("counts must be non-negative")
    return (n_pos + 1) / (n_neg + 1)


def aggregate_weekly(
    records: list[SentimentRecord], window_start: dt.date
) -> WeeklySentiment:
    """Aggregate one asset's records over [window_start, window_start + 6d]."""
    window_end = window_start + dt.timedelta(days=6)
    asset_ids = {r.asset_id for r in records}
    if len(asset_ids) > 1:
        raise ValidationError(f"records span multiple assets: {sorted(asset_ids)}")
    for r in records:
        if not window_start <= r.date <= window_end:
            raise ValidationError(f"record dated {r.date} outside window {window_start}")
    asset_id = records[0].asset_id if records else ""
    n_pos = sum(1 for r in records if r.label == POSITIVE)
    n_neg = sum(1 for r in records if r.label == NEGATIVE)
    n_neu = sum(1 for r in records if r.label == NEUTRAL)
    pols = [r.polarity for r in records]
    return WeeklySentiment(
        asset_id=asset_id,
        window_start=window_start,
        n_total=len(records),
        n_pos=n_pos,
        n_neg=n_neg,
        n_neu=n_neu,
        mean_pol=math.fsum(pols) / len(pols) if pols else 0.0,
        max_pol=max(pols) if pols else 0.0,
        median_pol=median(pols) if pols else 0.0,
        ratio=sentiment_ratio(n_pos, n_neg),
        sufficient=len(records) >= MIN_WEEKLY_COUNT,
    )


def weekly_windows(
    records: list[SentimentRecord], first_date: dt.date, last_date: dt.date
) -> list[WeeklySentiment]:
    """Non-overlapping 7-day blocks anchored at first_date; the last block
    starts on or before last_date and keeps its full seven days."""
    n_weeks = max(0, (last_date - first_date).days // 7 + 1)
    blocks: list[list[SentimentRecord]] = [[] for _ in range(n_weeks)]
    for r in records:
        week = (r.date - first_date).days // 7
        if 0 <= week < n_weeks:
            blocks[week].append(r)
    return [aggregate_weekly(block, first_date + dt.timedelta(days=7 * k))
            for k, block in enumerate(blocks)]


def daily_features(
    records: list[SentimentRecord], dates: list[dt.date]
) -> dict[dt.date, dict[str, float]]:
    """Per-date engagement totals and ratio, shaped for panel alignment."""
    by_date: dict[dt.date, list[SentimentRecord]] = {}
    for r in records:
        by_date.setdefault(r.date, []).append(r)
    out: dict[dt.date, dict[str, float]] = {}
    for d in dates:
        day = by_date.get(d, [])
        n_pos = sum(1 for r in day if r.label == POSITIVE)
        n_neg = sum(1 for r in day if r.label == NEGATIVE)
        out[d] = {
            "likes": float(sum(r.likes for r in day)),
            "retweets": float(sum(r.retweets for r in day)),
            "comments": float(sum(r.comments for r in day)),
            "ratio": sentiment_ratio(n_pos, n_neg),
        }
    return out


def audit_labels(
    sample: list[tuple[str, str]], lexicon: Lexicon
) -> tuple[np.ndarray, float]:
    """Row-normalized 3x3 confusion matrix (rows = true label) and accuracy."""
    if not sample:
        raise ValidationError("empty audit sample")
    index = {lab: i for i, lab in enumerate(LABELS)}
    counts = np.zeros((3, 3), dtype=float)
    correct = 0
    for text, true_label in sample:
        if true_label not in index:
            raise ValidationError(f"unknown true label {true_label!r}")
        pred, _ = label_text(text, lexicon)
        counts[index[true_label], index[pred]] += 1
        if pred == true_label:
            correct += 1
    matrix = counts.copy()
    for i in range(3):
        row_sum = counts[i].sum()
        if row_sum > 0:
            matrix[i] = counts[i] / row_sum
    return matrix, correct / len(sample)


def load_sentiment_csv(path: str | Path, lexicon: Lexicon | None = None) -> list[SentimentRecord]:
    """Read sentiment rows; pre-labeled columns are trusted, else label_text runs.

    Columns: date, asset, text, label?, polarity?, likes, retweets, comments.
    """
    path = Path(path)
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"date", "asset"}.issubset(reader.fieldnames):
            raise ParseError(f"{path}: header must contain date and asset")
        for lineno, row in enumerate(reader, start=2):
            try:
                date = dt.date.fromisoformat(row["date"].strip())
                text = row.get("text") or ""
                if row.get("label") and row.get("polarity") not in (None, ""):
                    label = row["label"].strip()
                    polarity = float(row["polarity"])
                else:
                    if lexicon is None:
                        raise ParseError(
                            f"{path}:{lineno}: unlabeled row and no lexicon supplied"
                        )
                    label, polarity = label_text(text, lexicon)
                records.append(
                    SentimentRecord(
                        date=date,
                        asset_id=row["asset"].strip(),
                        text=text,
                        label=label,
                        polarity=polarity,
                        likes=int(float(row.get("likes") or 0)),
                        retweets=int(float(row.get("retweets") or 0)),
                        comments=int(float(row.get("comments") or 0)),
                    )
                )
            except (ValueError, ValidationError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return records
