"""Correctness checks on a written evaluation, from the cohort recipe alone.

Every expected count is derived here from the number of synthetic patients
and the fold boundaries: each patient performs each of the 29 gestures once
(15 static, 14 dynamic), and fold f holds the patients whose id falls in its
boundary range.  Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

N_STATIC, N_DYNAMIC = 15, 14
N_GESTURES = N_STATIC + N_DYNAMIC
# "Clearly above chance": at least three times 1/15 (static) and 1/14 (dynamic).
CHANCE_MULTIPLE = 3.0
# One-vs-rest suites are scored by balanced accuracy, (TPR + TNR) / 2, which is
# 0.5 for a suite that answers "no" (or "yes") to everything; plain accuracy
# would credit an all-negative suite with 28/29.
BALANCED_FLOOR = 0.75


class CheckError(AssertionError):
    """A written result contradicts what the cohort recipe implies."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _same(a: float, b: float, what: str) -> None:
    _require(math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12),
             f"{what}: reported {a!r}, recomputed {b!r}")


def fold_patients(n_patients: int, boundaries: tuple[int, int]) -> dict[int, list[int]]:
    """Fold number -> patient ids, recomputed from the boundaries."""
    b1, b2 = boundaries
    folds: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for p in range(1, n_patients + 1):
        folds[1 if p <= b1 else 2 if p <= b2 else 3].append(p)
    return {f: ps for f, ps in folds.items() if ps}


def read_confusion(path: Path) -> tuple[list[str], list[list[int]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    labels = rows[0][1:]
    _require([r[0] for r in rows[1:]] == labels, f"{path.name}: row labels differ")
    return labels, [[int(v) for v in r[1:]] for r in rows[1:]]


def _check_confusion(path: Path, n_labels: int, n_expected: int) -> float:
    """Total equals the counted test sequences; returns the accuracy it implies."""
    _require(path.is_file(), f"missing {path.name}")
    labels, counts = read_confusion(path)
    _require(len(labels) == n_labels, f"{path.name}: {len(labels)} labels, not {n_labels}")
    total = sum(map(sum, counts))
    _require(total == n_expected,
             f"{path.name}: {total} sequences, recipe gives {n_expected}")
    _require(all(sum(row) == n_expected // n_labels for row in counts),
             f"{path.name}: a class row does not hold one sequence per test patient")
    return sum(counts[i][i] for i in range(n_labels)) / total


def _check_multiclass_fold(out: Path, fold: dict, n_test: int) -> float:
    f = fold["fold"]
    static = _check_confusion(out / f"confusion_fold{f}_static.csv", N_STATIC,
                              N_STATIC * n_test)
    dynamic = _check_confusion(out / f"confusion_fold{f}_dynamic.csv", N_DYNAMIC,
                               N_DYNAMIC * n_test)
    _same(fold["static_accuracy"], static, f"fold {f} static accuracy")
    _same(fold["dynamic_accuracy"], dynamic, f"fold {f} dynamic accuracy")
    _same(fold["average_accuracy"], (static + dynamic) / 2.0, f"fold {f} average")
    return fold["average_accuracy"]


def _check_binary_fold(fold: dict, n_test: int) -> float:
    f = fold["fold"]
    per_class = fold["binary"]["per_class"]
    _require(len(per_class) == N_GESTURES, f"fold {f}: {len(per_class)} binary models")
    _require(len({r["gesture_id"] for r in per_class}) == N_GESTURES,
             f"fold {f}: duplicate gesture ids")
    accuracies = []
    for r in per_class:
        gid = r["gesture_id"]
        _require(r["tp"] + r["fn"] == n_test,
                 f"fold {f} {gid}: tp+fn={r['tp'] + r['fn']}, class has {n_test} "
                 "test sequences")
        total = r["tp"] + r["fp"] + r["tn"] + r["fn"]
        _require(total == N_GESTURES * n_test,
                 f"fold {f} {gid}: tally sums to {total}, fold has "
                 f"{N_GESTURES * n_test} test sequences")
        accuracy = (r["tp"] + r["tn"]) / total
        _same(r["accuracy"], accuracy, f"fold {f} {gid} accuracy")
        accuracies.append(accuracy)
    mean = sum(accuracies) / len(accuracies)
    _same(fold["binary"]["mean_accuracy"], mean, f"fold {f} binary mean accuracy")
    _same(fold["average_accuracy"], mean, f"fold {f} average")
    return mean


def check_cv(out: Path, protocol: str, arch: str, n_patients: int,
             boundaries: tuple[int, int]) -> float:
    """Check a cross-validation's written report; returns its mean accuracy.

    `protocol` is the report's name for it: "multiclass" or "multiclass-binary".
    """
    report = json.loads((out / "report.json").read_text())
    _require(report["protocol"] == protocol,
             f"protocol {report['protocol']!r}, expected {protocol!r}")
    _require(report["arch"] == arch, f"arch {report['arch']!r}, expected {arch!r}")
    expected = fold_patients(n_patients, boundaries)
    folds = report["folds"]
    _require(sorted(fd["fold"] for fd in folds) == sorted(expected),
             f"folds {[fd['fold'] for fd in folds]}, expected each of "
             f"{sorted(expected)} once")
    everyone = set(range(1, n_patients + 1))
    seen: set[int] = set()
    averages = []
    for fd in folds:
        test, train = set(fd["test_patients"]), set(fd["train_patients"])
        _require(sorted(test) == expected[fd["fold"]],
                 f"fold {fd['fold']} tests {sorted(test)}, boundaries give "
                 f"{expected[fd['fold']]}")
        _require(not test & train, f"fold {fd['fold']}: train and test share patients")
        _require(test | train == everyone, f"fold {fd['fold']}: patients missing")
        _require(not test & seen, f"fold {fd['fold']}: a patient is tested twice")
        seen |= test
        if protocol == "multiclass":
            averages.append(_check_multiclass_fold(out, fd, len(test)))
        else:
            averages.append(_check_binary_fold(fd, len(test)))
    _require(seen == everyone, "some patient is never tested")
    mean = sum(averages) / len(averages)
    _same(report["mean_average_accuracy"], mean, "mean average accuracy")
    if protocol == "multiclass":
        _check_pooled(out, folds, n_patients)
        _check_above_chance(report)
    else:
        _check_binary_learns(folds)
    return report["mean_average_accuracy"]


def _check_binary_learns(folds: list[dict]) -> None:
    balanced = [(r["tp"] / (r["tp"] + r["fn"]) + r["tn"] / (r["tn"] + r["fp"])) / 2.0
                for fd in folds for r in fd["binary"]["per_class"]]
    mean = sum(balanced) / len(balanced)
    _require(mean >= BALANCED_FLOOR,
             f"mean balanced accuracy {mean:.4f} of the one-vs-rest models is below "
             f"{BALANCED_FLOOR} (0.5 for a suite that learned nothing)")


def _check_pooled(out: Path, folds: list[dict], n_patients: int) -> None:
    for kind, n_labels in (("static", N_STATIC), ("dynamic", N_DYNAMIC)):
        _check_confusion(out / f"confusion_{kind}.csv", n_labels, n_labels * n_patients)
        _, pooled = read_confusion(out / f"confusion_{kind}.csv")
        summed = None
        for fd in folds:
            _, counts = read_confusion(out / f"confusion_fold{fd['fold']}_{kind}.csv")
            summed = counts if summed is None else [
                [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(summed, counts)]
        _require(pooled == summed, f"confusion_{kind}.csv is not the sum of its folds")


def _check_above_chance(report: dict) -> None:
    for key, n_classes in (("mean_static_accuracy", N_STATIC),
                           ("mean_dynamic_accuracy", N_DYNAMIC)):
        floor = CHANCE_MULTIPLE / n_classes
        _require(report[key] >= floor,
                 f"{key} {report[key]:.4f} is not clearly above chance "
                 f"(floor {floor:.4f})")


def check_model_set(out: Path, n_patients: int) -> float:
    """Check a fixed-model-set evaluation of `n_patients` unseen patients."""
    report = json.loads((out / "report.json").read_text())
    _require(report.get("extras", {}).get("mode") == "fixed-model-set",
             "report is not a fixed-model-set evaluation")
    folds = report["folds"]
    _require(len(folds) == 1 and folds[0]["fold"] == 0, "expected the single fold 0")
    fd = folds[0]
    _require(fd["test_patients"] == list(range(1, n_patients + 1)),
             f"scored patients {fd['test_patients']}, cohort has 1..{n_patients}")
    _require(fd["train_patients"] == [], "a fixed model set has no training patients")
    average = _check_multiclass_fold(out, fd, n_patients)
    _same(report["mean_average_accuracy"], average, "mean average accuracy")
    _check_above_chance(report)
    return report["mean_average_accuracy"]


def check_oracle(accuracy: float) -> None:
    """The label-reading oracle must come out perfect on the same split."""
    _require(accuracy == 1.0, f"oracle scored {accuracy!r}, not exactly 1.0")


def check_loss_falls(fit_losses: list[list[float]]) -> None:
    """Training lowers the loss: over the fits of two or more epochs (or, for
    one-epoch fits, two or more batches), the mean last loss is below the
    mean first loss."""
    multi = [losses for losses in fit_losses if len(losses) >= 2]
    _require(bool(multi), "no fit of two or more epochs or batches was traced")
    first = sum(losses[0] for losses in multi) / len(multi)
    last = sum(losses[-1] for losses in multi) / len(multi)
    _require(last < first,
             f"mean loss over {len(multi)} fits went {first:.4f} -> {last:.4f}")


def _max_relative_error(a, b) -> float:
    return max(abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in zip(a, b))


def check_gradient(loss_and_grad, model, x, targets, n_coords: int, seed: int,
                   tolerance: float = 1e-6, epsilon: float = 1e-5) -> float:
    """Analytic gradient against central differences on sampled coordinates."""
    import numpy as np

    _, analytic = loss_and_grad(model, x, targets)
    rng = np.random.default_rng(seed)
    coords = rng.choice(analytic.size, size=min(n_coords, analytic.size), replace=False)
    numeric = []
    for i in coords:
        values = model.values.copy()
        values[i] += epsilon
        hi, _ = loss_and_grad(model.with_values(values), x, targets)
        values[i] -= 2.0 * epsilon
        lo, _ = loss_and_grad(model.with_values(values), x, targets)
        numeric.append((hi - lo) / (2.0 * epsilon))
    err = _max_relative_error(analytic[coords], numeric)
    _require(err <= tolerance,
             f"{type(model.spec).__name__}: analytic gradient differs from central "
             f"differences by {err:.3e} (tolerance {tolerance:g})")
    return err
