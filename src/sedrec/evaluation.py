"""Benchmark loading, positive/negative labeling, F1 and rank correlations.

The benchmark provides six similarity ratings (0/1/2) and six recommendation
votes (0/1) per article pair. Two labeling families derive positives from
them: "good recommendation" (mean vote at or above a threshold) and "diverse
recommendation" (additionally at least half the raters found the pair not
very similar).

``evaluate_scores`` works on arrays in sorted pair order: each condition's
labels and each method's decisions are boolean arrays, the confusion cells
are ``np.count_nonzero`` counts over all methods at once, and each method's
z-scores are correlated against one target array ranked once.
``label_pairs``, ``confusion_and_f1`` and ``correlations`` are batch-of-one
calls of the same code.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .articles import Article, load_corpus
from .delimited import Number, read_table, write_table
from .errors import InputDataError
from .kg import _run_starts

log = logging.getLogger(__name__)

ANNOTATORS = 6

_HEADER = (
    ["pair_id", "article_a", "article_b"]
    + [f"q1_{i}" for i in range(1, ANNOTATORS + 1)]
    + [f"q2_{i}" for i in range(1, ANNOTATORS + 1)]
)
_RATINGS = {col: Number(int, 0, 2 if col.startswith("q1") else 1) for col in _HEADER[3:]}


@dataclass(frozen=True)
class AnnotationRecord:
    """Six similarity ratings and six recommendation votes for one pair."""

    pair_id: str
    article_a: str
    article_b: str
    q1: tuple[int, ...]
    q2: tuple[int, ...]

    @property
    def mean_q1(self) -> float:
        return sum(self.q1) / len(self.q1)

    @property
    def mean_q2(self) -> float:
        return sum(self.q2) / len(self.q2)


@dataclass(frozen=True)
class EvalCondition:
    """GR@t or DR@t labeling rule; thresholds 0.5 and 0.75 are the usual grid."""

    family: str
    threshold: float

    def __post_init__(self):
        if self.family not in ("GR", "DR"):
            raise ValueError(f"unknown condition family {self.family!r}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        if self.threshold not in (0.5, 0.75):
            log.warning("non-standard condition threshold %s", self.threshold)

    @classmethod
    def parse(cls, text: str) -> "EvalCondition":
        try:
            family, thr = text.split("@", 1)
            return cls(family.upper(), float(thr))
        except ValueError:
            raise InputDataError(f"cannot parse evaluation condition {text!r}") from None

    @property
    def label(self) -> str:
        # 0.75 -> "GR@.75", 0.5 -> "GR@.5"
        txt = f"{self.threshold:g}"
        if txt.startswith("0."):
            txt = txt[1:]
        return f"{self.family}@{txt}"

    def __str__(self) -> str:
        return self.label


STANDARD_CONDITIONS = (
    EvalCondition("GR", 0.75),
    EvalCondition("GR", 0.5),
    EvalCondition("DR", 0.75),
    EvalCondition("DR", 0.5),
)


def write_ratings_csv(records: Iterable[AnnotationRecord], path) -> None:
    write_table(path, _HEADER,
                ([r.pair_id, r.article_a, r.article_b, *r.q1, *r.q2] for r in records))


def read_ratings_csv(path) -> list[AnnotationRecord]:
    """Strict reader for the canonical ratings CSV."""
    cols = read_table(path, _HEADER, ["pair_id"], _RATINGS).columns
    q1, q2 = cols[3:3 + ANNOTATORS], cols[3 + ANNOTATORS:]
    return list(map(AnnotationRecord, *cols[:3], zip(*q1), zip(*q2)))


def load_cnrec(root, expect_articles: int | None = 300,
               expect_pairs: int | None = 2700,
               ) -> tuple[dict[str, Article], list[AnnotationRecord]]:
    """Load a benchmark root: ``articles/*.txt`` plus ``annotations.csv``.

    Validates rating ranges, referential integrity, and (by default) the
    published corpus shape of 300 articles and 2700 annotated pairs.
    """
    root = Path(root)
    articles = load_corpus(root / "articles")
    ratings_path = root / "annotations.csv"
    if not ratings_path.is_file():
        raise InputDataError(f"ratings file not found: {ratings_path}")
    records = read_ratings_csv(ratings_path)
    for r in records:
        for aid in (r.article_a, r.article_b):
            if aid not in articles:
                raise InputDataError(
                    f"pair {r.pair_id} references missing article {aid!r}"
                )
    if expect_articles is not None and len(articles) != expect_articles:
        raise InputDataError(
            f"expected {expect_articles} articles, found {len(articles)}"
        )
    if expect_pairs is not None and len(records) != expect_pairs:
        raise InputDataError(
            f"expected {expect_pairs} annotated pairs, found {len(records)}"
        )
    return articles, records


def label_pairs(records: Iterable[AnnotationRecord],
                cond: EvalCondition) -> dict[str, bool]:
    """Positive/negative label per pair under an evaluation condition.

    GR@t: mean recommendation vote >= t. DR@t additionally requires at least
    half the raters to judge the pair not very similar (rating <= 1). Both
    thresholds are inclusive.
    """
    records = list(records)
    return dict(zip((r.pair_id for r in records), _labels(records, [cond])[0].tolist()))


def _labels(records: Sequence[AnnotationRecord],
            conditions: Sequence[EvalCondition]) -> np.ndarray:
    """``label_pairs`` as a boolean array: row ``c`` holds each record's
    label under ``conditions[c]``, in record order."""
    votes = np.array([(sum(r.q2), len(r.q2), sum(1 for v in r.q1 if v <= 1), len(r.q1))
                      for r in records], dtype=np.int64).reshape(-1, 4)
    q2, n2, low, n1 = votes.T
    out = np.empty((len(conditions), len(records)), dtype=bool)
    for row, cond in zip(out, conditions):
        row[:] = q2 >= n2 * cond.threshold
        if cond.family == "DR":
            row &= low * 2 >= n1
    return out


def positive_rate(labels: Mapping[str, bool]) -> float:
    if not labels:
        raise ValueError("no labels")
    return sum(labels.values()) / len(labels)


def f1_from_precision_recall(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class ConfusionMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    precision_defined: bool = True
    recall_defined: bool = True

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "ConfusionMetrics":
        p_def = tp + fp > 0
        r_def = tp + fn > 0
        precision = tp / (tp + fp) if p_def else 0.0
        recall = tp / (tp + fn) if r_def else 0.0
        return cls(tp, fp, tn, fn, precision, recall,
                   f1_from_precision_recall(precision, recall), p_def, r_def)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_and_f1(labels: Mapping[str, bool],
                     decisions: Mapping[str, bool]) -> ConfusionMetrics:
    """Confusion counts and precision/recall/F1 for one method and condition."""
    if set(labels) != set(decisions):
        diff = sorted(set(labels) ^ set(decisions))[:5]
        raise InputDataError(f"label and decision pair sets differ (e.g. {diff})")
    pids = list(labels)
    return _confusions(_columns([labels], pids, bool)[0], _columns([decisions], pids, bool))[0]


def _columns(maps: Sequence[Mapping[str, object]], pids: Sequence[str], dtype) -> np.ndarray:
    """Row ``i`` holds ``maps[i]``'s values at ``pids``, in order."""
    return np.array([list(map(m.__getitem__, pids)) for m in maps],
                    dtype=dtype).reshape(len(maps), len(pids))


def _confusions(labels: np.ndarray, decisions: np.ndarray) -> list[ConfusionMetrics]:
    """The confusion metrics of each row of the boolean matrix ``decisions``
    against the boolean ``labels``."""
    tp = np.count_nonzero(decisions & labels, axis=1).tolist()
    said = np.count_nonzero(decisions, axis=1).tolist()
    true, total = int(np.count_nonzero(labels)), len(labels)
    return [ConfusionMetrics.from_counts(t, s - t, total - true - s + t, true - t)
            for t, s in zip(tp, said)]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    start = np.flatnonzero(_run_starts(values[order]))
    size = np.diff(start, append=len(values))
    ranks = np.empty(len(values), dtype=np.float64)
    # ties share the mean of the ranks they span (1-based); NaN equals
    # nothing, so each NaN is a run of its own
    ranks[order] = np.repeat((2 * start + size - 1) / 2.0 + 1.0, size)
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    if x.std() == 0.0 or y.std() == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def correlations(scores: Mapping[str, float],
                 targets: Mapping[str, float]) -> tuple[float | None, float | None]:
    """Pearson and Spearman correlation between scores and target ratings.

    Spearman is Pearson over average-ranked data (ties get their mean rank).
    Returns None coefficients for constant inputs. Callers pass scores with
    the higher-is-better orientation (negated distances).
    """
    if set(scores) != set(targets):
        raise InputDataError("score and target pair sets differ")
    if len(scores) < 3:
        raise ValueError("correlations need at least three pairs")
    pids = sorted(scores)
    return _correlations(_columns([scores], pids, np.float64),
                         _columns([targets], pids, np.float64)[0])[0]


def _correlations(scores: np.ndarray, target: np.ndarray
                  ) -> list[tuple[float | None, float | None]]:
    """``correlations`` of each row of ``scores`` against ``target``, whose
    ranks are computed once."""
    ranks = _average_ranks(target)
    return [(_pearson(x, target), _pearson(_average_ranks(x), ranks)) for x in scores]


@dataclass
class MetricsReport:
    """Per (method, condition) confusion metrics plus per-method correlations."""

    conditions: Sequence[EvalCondition]
    entries: dict[tuple[str, str], ConfusionMetrics]
    correlations: dict[str, tuple[float | None, float | None]]

    _METRICS_HEADER = [
        "method", "condition", "tp", "fp", "tn", "fn",
        "precision", "recall", "f1", "precision_defined", "recall_defined",
    ]

    def write_metrics_csv(self, path) -> None:
        write_table(path, self._METRICS_HEADER, (
            [method, cond, m.tp, m.fp, m.tn, m.fn, m.precision, m.recall, m.f1,
             int(m.precision_defined), int(m.recall_defined)]
            for (method, cond), m in sorted(self.entries.items())))

    def write_correlations_csv(self, path) -> None:
        # a None coefficient (constant input) is written as an empty field
        write_table(path, ["method", "pearson", "spearman"],
                    ([m, *self.correlations[m]] for m in sorted(self.correlations)))

    def format_table(self) -> str:
        """Side-by-side F1 table: one row per condition, one column per method."""
        methods = sorted({m for m, _ in self.entries})
        conds = [c.label for c in self.conditions]
        width = max((len(m) for m in methods), default=6) + 2
        lines = ["condition  " + "".join(f"{m:>{width}}" for m in methods)]
        for cond in conds:
            cells = []
            for m in methods:
                entry = self.entries.get((m, cond))
                cells.append(f"{entry.f1 * 100:>{width}.2f}" if entry else " " * width)
            lines.append(f"{cond:<11}" + "".join(cells))
        return "\n".join(lines)


def check_pair_sets(records: Sequence[AnnotationRecord],
                    pairs_by_method: Mapping[str, Iterable[str]]) -> None:
    """Raise ``InputDataError`` unless each method scores exactly the
    records' pairs and there are at least three of them to correlate."""
    expected = {r.pair_id for r in records}
    for method, pairs in pairs_by_method.items():
        got = set(pairs)
        if got != expected:
            missing, extra = expected - got, got - expected
            example = sorted(missing or extra)[:5]
            raise InputDataError(
                f"method {method!r} pair set mismatch: "
                f"{len(missing)} missing, {len(extra)} unknown (e.g. {example})"
            )
    if len(expected) < 3:
        raise InputDataError(f"evaluation needs at least three pairs, got {len(expected)}")


def evaluate_scores(records: Sequence[AnnotationRecord],
                    decisions_by_method: Mapping[str, Mapping[str, bool]],
                    z_by_method: Mapping[str, Mapping[str, float]],
                    conditions: Sequence[EvalCondition] = STANDARD_CONDITIONS,
                    ) -> MetricsReport:
    """Join method decisions with benchmark labels across all conditions.

    The pair ids go in sorted order once. Every condition's labels and every
    method's decisions and z-scores become arrays in that order: the
    confusion cells are counted per condition over all methods at once, and
    each method is correlated against one mean-vote target, ranked once.
    """
    check_pair_sets(records, decisions_by_method)
    # a repeated pair id keeps its last record, as a dict built in order would
    last = {r.pair_id: i for i, r in enumerate(records)}
    if any(zs.keys() != last.keys() for zs in z_by_method.values()):
        raise InputDataError("score and target pair sets differ")
    pids = sorted(last)
    ordered = [records[last[p]] for p in pids]
    decisions = _columns(list(decisions_by_method.values()), pids, bool)
    entries = {}
    for cond, labels in zip(conditions, _labels(ordered, conditions)):
        for method, m in zip(decisions_by_method, _confusions(labels, decisions)):
            entries[(method, cond.label)] = m
    target = np.array([r.mean_q2 for r in ordered], dtype=np.float64)
    negated = -_columns(list(z_by_method.values()), pids, np.float64)
    corr = dict(zip(z_by_method, _correlations(negated, target)))
    return MetricsReport(conditions=list(conditions), entries=entries,
                         correlations=corr)
