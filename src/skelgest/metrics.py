"""Evaluation metrics, report containers, and their JSON/CSV renderings.

Conventions fixed here and relied on by the tests:
- confusion matrices store true labels on rows and predictions on columns;
- the headline "average" of a two-model run is the unweighted mean of the
  static-model and dynamic-model accuracies, regardless of how many test
  sequences each side saw;
- a one-vs-rest suite averages the 29 per-class accuracies with equal weight;
- precision is None ("n/a" when printed) whenever a model predicted zero
  positives, rather than an arbitrary 0 or 1;
- printed percentages carry one decimal and round half away from zero
  (so 92.25 -> "92.3"), matching decimal ROUND_HALF_UP rather than the
  banker's rounding of the builtin round().
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .skeleton import DYNAMIC_GESTURE_IDS, STATIC_GESTURE_IDS


def percent(fraction: float, places: int = 1) -> str:
    """Format a fraction in [0, 1] as a percentage string, half-up rounding."""
    if not np.isfinite(fraction):
        raise ValueError(f"fraction must be finite, got {fraction}")
    quantum = Decimal(1).scaleb(-places)
    value = (Decimal(repr(float(fraction))) * 100).quantize(quantum, ROUND_HALF_UP)
    return f"{value}"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts indexed [true class, predicted class] over a fixed label list."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        k = len(self.labels)
        if self.counts.shape != (k, k):
            raise ValueError(
                f"counts must be ({k}, {k}) for {k} labels, got {self.counts.shape}"
            )

    def __add__(self, other: ConfusionMatrix) -> ConfusionMatrix:
        """The pooled counts of two matrices over the same labels."""
        if other.labels != self.labels:
            raise ValueError("cannot pool confusion matrices over different labels")
        return ConfusionMatrix(self.labels, self.counts + other.counts)

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_correct(self) -> int:
        return int(np.trace(self.counts))

    @property
    def accuracy(self) -> float:
        total = self.n_total
        if total == 0:
            raise ValueError("confusion matrix is empty; accuracy is undefined")
        return self.n_correct / total

    def to_csv(self) -> str:
        """Header row then one row per true class, first column the label."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["true\\pred", *self.labels])
        for i, label in enumerate(self.labels):
            writer.writerow([label, *(int(c) for c in self.counts[i])])
        return buf.getvalue()


def confusion(
    true_labels: Sequence[str],
    predicted_labels: Sequence[str],
    labels: Sequence[str],
) -> ConfusionMatrix:
    """Build a confusion matrix over `labels` (order fixes row/column order)."""
    if len(true_labels) != len(predicted_labels):
        raise ValueError(
            f"{len(true_labels)} true labels vs {len(predicted_labels)} predictions"
        )
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("labels contain duplicates")
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(true_labels, predicted_labels):
        if t not in index:
            raise ValueError(f"true label {t!r} not in label list")
        if p not in index:
            raise ValueError(f"predicted label {p!r} not in label list")
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(labels=tuple(labels), counts=counts)


def average_static_dynamic(static_accuracy: float, dynamic_accuracy: float) -> float:
    """Unweighted mean of the two model accuracies (the headline number)."""
    return (static_accuracy + dynamic_accuracy) / 2.0


@dataclass(frozen=True)
class BinaryClassResult:
    """One one-vs-rest model's test outcome for its positive class."""

    gesture_id: str
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n_total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        if self.n_total == 0:
            raise ValueError(f"no test examples for {self.gesture_id}")
        return (self.tp + self.tn) / self.n_total

    def __add__(self, other: BinaryClassResult) -> BinaryClassResult:
        """The pooled tallies of two results of the same gesture id."""
        if other.gesture_id != self.gesture_id:
            raise ValueError("cannot pool one-vs-rest results of different gesture ids")
        return BinaryClassResult(self.gesture_id, self.tp + other.tp, self.fp + other.fp,
                                 self.tn + other.tn, self.fn + other.fn)

    @property
    def precision(self) -> float | None:
        """None when the model predicted no positives at all."""
        predicted = self.tp + self.fp
        return None if predicted == 0 else self.tp / predicted

    @property
    def recall(self) -> float | None:
        actual = self.tp + self.fn
        return None if actual == 0 else self.tp / actual


@dataclass(frozen=True)
class BinarySuiteMetrics:
    """Aggregates over the full set of one-vs-rest models; the static and
    dynamic subsets are the taxonomy's."""

    results: tuple[BinaryClassResult, ...]

    def __post_init__(self):
        seen = [r.gesture_id for r in self.results]
        if len(set(seen)) != len(seen):
            raise ValueError("duplicate gesture ids in binary results")

    def __iter__(self) -> Iterator[BinaryClassResult]:
        return iter(self.results)

    @property
    def mean_accuracy(self) -> float:
        """Equal-weight mean of every per-class accuracy."""
        return float(np.mean([r.accuracy for r in self.results]))

    def _subset_mean(self, ids: tuple[str, ...]) -> float:
        accs = [r.accuracy for r in self.results if r.gesture_id in ids]
        if not accs:
            raise ValueError("no results for the requested subset")
        return float(np.mean(accs))

    @property
    def static_accuracy(self) -> float:
        return self._subset_mean(STATIC_GESTURE_IDS)

    @property
    def dynamic_accuracy(self) -> float:
        return self._subset_mean(DYNAMIC_GESTURE_IDS)

    @property
    def balanced_average(self) -> float:
        """Mean of the static-subset and dynamic-subset means."""
        return average_static_dynamic(self.static_accuracy, self.dynamic_accuracy)


@dataclass(frozen=True)
class FoldReport:
    """Everything measured on one held-out fold."""

    fold: int
    train_patients: tuple[int, ...]
    test_patients: tuple[int, ...]
    static_accuracy: float | None = None
    dynamic_accuracy: float | None = None
    static_confusion: ConfusionMatrix | None = None
    dynamic_confusion: ConfusionMatrix | None = None
    binary: BinarySuiteMetrics | None = None

    @property
    def average_accuracy(self) -> float:
        if self.binary is not None:
            return self.binary.mean_accuracy
        if self.static_accuracy is None or self.dynamic_accuracy is None:
            raise ValueError("fold report holds neither binary nor two-model results")
        return average_static_dynamic(self.static_accuracy, self.dynamic_accuracy)

    def kind_accuracies(self) -> tuple[float | None, float | None]:
        """The (static, dynamic) accuracy: the two models', or the one-vs-rest
        suite's subset means; None where the fold has no such result."""
        if self.binary is not None:
            return self.binary.static_accuracy, self.binary.dynamic_accuracy
        return self.static_accuracy, self.dynamic_accuracy


def _mean_unless_missing(values: list[float | None]) -> float | None:
    """The mean of ``values``, or None when any of them is None."""
    return None if None in values else float(np.mean(values))


@dataclass(frozen=True)
class EvaluationReport:
    """Cross-validation outcome: per-fold reports plus run identification."""

    protocol: str
    arch: str
    method: int
    window: int
    folds: tuple[FoldReport, ...]
    extras: dict = field(default_factory=dict)

    @property
    def mean_static_accuracy(self) -> float | None:
        return _mean_unless_missing([f.static_accuracy for f in self.folds])

    @property
    def mean_dynamic_accuracy(self) -> float | None:
        return _mean_unless_missing([f.dynamic_accuracy for f in self.folds])

    @property
    def mean_average_accuracy(self) -> float:
        return float(np.mean([f.average_accuracy for f in self.folds]))


def _fold_to_dict(fold: FoldReport) -> dict:
    d: dict = {
        "fold": fold.fold,
        "train_patients": list(fold.train_patients),
        "test_patients": list(fold.test_patients),
        "average_accuracy": fold.average_accuracy,
    }
    if fold.static_accuracy is not None:
        d["static_accuracy"] = fold.static_accuracy
    if fold.dynamic_accuracy is not None:
        d["dynamic_accuracy"] = fold.dynamic_accuracy
    if fold.binary is not None:
        d["binary"] = {
            "mean_accuracy": fold.binary.mean_accuracy,
            "static_accuracy": fold.binary.static_accuracy,
            "dynamic_accuracy": fold.binary.dynamic_accuracy,
            "balanced_average": fold.binary.balanced_average,
            "per_class": [
                {
                    "gesture_id": r.gesture_id,
                    "tp": r.tp,
                    "fp": r.fp,
                    "tn": r.tn,
                    "fn": r.fn,
                    "accuracy": r.accuracy,
                    "precision": r.precision,
                    "recall": r.recall,
                }
                for r in fold.binary.results
            ],
        }
    return d


def report_to_dict(report: EvaluationReport) -> dict:
    d = {
        "protocol": report.protocol,
        "arch": report.arch,
        "method": report.method,
        "window": report.window,
        "mean_average_accuracy": report.mean_average_accuracy,
        "folds": [_fold_to_dict(f) for f in report.folds],
    }
    if report.mean_static_accuracy is not None:
        d["mean_static_accuracy"] = report.mean_static_accuracy
    if report.mean_dynamic_accuracy is not None:
        d["mean_dynamic_accuracy"] = report.mean_dynamic_accuracy
    if report.extras:
        d["extras"] = report.extras
    return d


def rate_text(value: float | None) -> str:
    """Percent string for a rate, or "n/a" for an undefined one (None)."""
    return "n/a" if value is None else percent(value)


def binary_per_class_csv(suite: BinarySuiteMetrics) -> str:
    """One row per one-vs-rest model; undefined precision/recall stay "n/a"."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["gesture_id", "tp", "fp", "tn", "fn", "accuracy_pct", "precision_pct",
         "recall_pct"]
    )
    for r in suite.results:
        writer.writerow(
            [r.gesture_id, r.tp, r.fp, r.tn, r.fn, percent(r.accuracy),
             rate_text(r.precision), rate_text(r.recall)]
        )
    return buf.getvalue()


def report_from_dict(d: dict) -> EvaluationReport:
    """Rebuild a report from its JSON form (confusion matrices excluded); a
    report without folds is a ValueError."""
    folds = []
    for fd in d["folds"]:
        binary = None
        if "binary" in fd:
            binary = BinarySuiteMetrics(tuple(
                BinaryClassResult(
                    gesture_id=r["gesture_id"],
                    tp=r["tp"],
                    fp=r["fp"],
                    tn=r["tn"],
                    fn=r["fn"],
                )
                for r in fd["binary"]["per_class"]
            ))
        folds.append(
            FoldReport(
                fold=fd["fold"],
                train_patients=tuple(fd["train_patients"]),
                test_patients=tuple(fd["test_patients"]),
                static_accuracy=fd.get("static_accuracy"),
                dynamic_accuracy=fd.get("dynamic_accuracy"),
                binary=binary,
            )
        )
    if not folds:
        raise ValueError("report holds no folds")
    return EvaluationReport(
        protocol=d["protocol"],
        arch=d["arch"],
        method=d["method"],
        window=d["window"],
        folds=tuple(folds),
        extras=d.get("extras", {}),
    )


def render_report(report: EvaluationReport, fmt: str = "json") -> str:
    """Serialize a report as 'json' (pretty, stable keys), 'csv' (one row per
    fold, then the mean) or 'text' (the table the CLI prints)."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    if fmt not in ("csv", "text"):
        raise ValueError(f"unknown report format {fmt!r} (expected 'json', 'csv' or 'text')")
    rows = [
        (fold.fold, *map(rate_text, fold.kind_accuracies()), percent(fold.average_accuracy))
        for fold in report.folds
    ]
    mean = percent(report.mean_average_accuracy)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["fold", "static_pct", "dynamic_pct", "average_pct"])
        writer.writerows(rows)
        writer.writerow(["mean", "", "", mean])
        return buf.getvalue()
    lines = [
        f"protocol={report.protocol} arch={report.arch} "
        f"method={report.method} window={report.window}",
        f"{'fold':>4}  {'static':>7}  {'dynamic':>7}  {'average':>7}",
        *(f"{n:>4}  {s:>7}  {d:>7}  {a:>7}" for n, s, d, a in rows),
        f"mean average accuracy: {mean}%",
    ]
    return "\n".join(lines) + "\n"


def write_report_files(report: EvaluationReport, out_dir) -> list[str]:
    """Write report.json, report.csv, and confusion CSVs; return paths.

    Confusion matrices come out per fold (``confusion_fold<N>_static.csv``)
    plus pooled across folds (``confusion_static.csv``, the counterpart of a
    whole-cross-validation confusion figure).
    """
    files = {"report.json": render_report(report, "json"),
             "report.csv": render_report(report, "csv")}
    for fold in report.folds:
        if fold.binary is not None:
            files[f"binary_fold{fold.fold}.csv"] = binary_per_class_csv(fold.binary)
    for kind in ("static", "dynamic"):
        matrices = [(fold.fold, cm) for fold in report.folds
                    if (cm := getattr(fold, f"{kind}_confusion")) is not None]
        for n, cm in matrices:
            files[f"confusion_fold{n}_{kind}.csv"] = cm.to_csv()
        if matrices:
            pooled = sum((cm for _, cm in matrices[1:]), matrices[0][1])
            files[f"confusion_{kind}.csv"] = pooled.to_csv()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return [str(out / name) for name in files]
