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
from typing import Sequence

import numpy as np


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
    """Aggregates over the full set of one-vs-rest models."""

    results: tuple[BinaryClassResult, ...]
    static_ids: tuple[str, ...]
    dynamic_ids: tuple[str, ...]

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
        return self._subset_mean(self.static_ids)

    @property
    def dynamic_accuracy(self) -> float:
        return self._subset_mean(self.dynamic_ids)

    @property
    def balanced_average(self) -> float:
        """Mean of the static-subset and dynamic-subset means."""
        return average_static_dynamic(self.static_accuracy, self.dynamic_accuracy)


def binary_suite_metrics(
    results: Sequence[BinaryClassResult],
    static_ids: Sequence[str],
    dynamic_ids: Sequence[str],
) -> BinarySuiteMetrics:
    seen = [r.gesture_id for r in results]
    if len(set(seen)) != len(seen):
        raise ValueError("duplicate gesture ids in binary results")
    return BinarySuiteMetrics(
        results=tuple(results),
        static_ids=tuple(static_ids),
        dynamic_ids=tuple(dynamic_ids),
    )


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
        vals = [f.static_accuracy for f in self.folds]
        if any(v is None for v in vals):
            return None
        return float(np.mean([v for v in vals if v is not None]))

    @property
    def mean_dynamic_accuracy(self) -> float | None:
        vals = [f.dynamic_accuracy for f in self.folds]
        if any(v is None for v in vals):
            return None
        return float(np.mean([v for v in vals if v is not None]))

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
    """Rebuild a report from its JSON form (confusion matrices excluded)."""
    from .skeleton import DYNAMIC_GESTURE_IDS, STATIC_GESTURE_IDS

    folds = []
    for fd in d["folds"]:
        binary = None
        if "binary" in fd:
            results = tuple(
                BinaryClassResult(
                    gesture_id=r["gesture_id"],
                    tp=r["tp"],
                    fp=r["fp"],
                    tn=r["tn"],
                    fn=r["fn"],
                )
                for r in fd["binary"]["per_class"]
            )
            binary = binary_suite_metrics(
                results, STATIC_GESTURE_IDS, DYNAMIC_GESTURE_IDS
            )
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
    return EvaluationReport(
        protocol=d["protocol"],
        arch=d["arch"],
        method=d["method"],
        window=d["window"],
        folds=tuple(folds),
        extras=d.get("extras", {}),
    )


def render_report(report: EvaluationReport, fmt: str = "json") -> str:
    """Serialize a report as 'json' (pretty, stable keys) or 'csv' (summary)."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["fold", "static_pct", "dynamic_pct", "average_pct"]
        )
        for fold in report.folds:
            if fold.binary is not None:
                s, d = fold.binary.static_accuracy, fold.binary.dynamic_accuracy
            else:
                s, d = fold.static_accuracy, fold.dynamic_accuracy
            writer.writerow(
                [
                    fold.fold,
                    percent(s) if s is not None else "n/a",
                    percent(d) if d is not None else "n/a",
                    percent(fold.average_accuracy),
                ]
            )
        writer.writerow(["mean", "", "", percent(report.mean_average_accuracy)])
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r} (expected 'json' or 'csv')")


def render_summary(report: EvaluationReport) -> str:
    """Human-readable table printed by the CLI after an evaluation."""
    lines = [
        f"protocol={report.protocol} arch={report.arch} "
        f"method={report.method} window={report.window}",
        f"{'fold':>4}  {'static':>7}  {'dynamic':>7}  {'average':>7}",
    ]
    for fold in report.folds:
        if fold.binary is not None:
            s: float | None = fold.binary.static_accuracy
            d: float | None = fold.binary.dynamic_accuracy
        else:
            s, d = fold.static_accuracy, fold.dynamic_accuracy
        s_txt = percent(s) if s is not None else "n/a"
        d_txt = percent(d) if d is not None else "n/a"
        lines.append(
            f"{fold.fold:>4}  {s_txt:>7}  {d_txt:>7}  {percent(fold.average_accuracy):>7}"
        )
    lines.append(f"mean average accuracy: {percent(report.mean_average_accuracy)}%")
    return "\n".join(lines) + "\n"


def _pooled_confusion(matrices: list[ConfusionMatrix]) -> ConfusionMatrix | None:
    """Element-wise sum of same-label confusion matrices (None if none given)."""
    if not matrices:
        return None
    labels = matrices[0].labels
    if any(cm.labels != labels for cm in matrices):
        raise ValueError("cannot pool confusion matrices over different labels")
    total = np.sum([cm.counts for cm in matrices], axis=0)
    return ConfusionMatrix(labels=labels, counts=total)


def write_report_files(report: EvaluationReport, out_dir) -> list[str]:
    """Write report.json, report.csv, and confusion CSVs; return paths.

    Confusion matrices come out per fold (``confusion_fold<N>_static.csv``)
    plus pooled across folds (``confusion_static.csv``, the counterpart of a
    whole-cross-validation confusion figure).
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    path = out / "report.json"
    path.write_text(render_report(report, "json"))
    written.append(str(path))
    path = out / "report.csv"
    path.write_text(render_report(report, "csv"))
    written.append(str(path))
    for fold in report.folds:
        if fold.binary is not None:
            path = out / f"binary_fold{fold.fold}.csv"
            path.write_text(binary_per_class_csv(fold.binary))
            written.append(str(path))
    for name, pick in (
        ("static", lambda f: f.static_confusion),
        ("dynamic", lambda f: f.dynamic_confusion),
    ):
        per_fold = []
        for fold in report.folds:
            cm = pick(fold)
            if cm is not None:
                per_fold.append(cm)
                path = out / f"confusion_fold{fold.fold}_{name}.csv"
                path.write_text(cm.to_csv())
                written.append(str(path))
        pooled = _pooled_confusion(per_fold)
        if pooled is not None:
            path = out / f"confusion_{name}.csv"
            path.write_text(pooled.to_csv())
            written.append(str(path))
    return written
