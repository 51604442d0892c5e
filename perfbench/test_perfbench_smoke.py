"""Smoke test of the benchmark at toy sizes (seconds, not minutes).

It runs every workload once with tiny cohorts and models, checks that the
printed metric names and units are those of BENCHMARK.json, and that each
correctness check rejects a deliberately corrupted result.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

def toy(name: str) -> run.Workload:
    """The workload's own training settings on a toy cohort: 8-frame windows,
    width 8, and 3 patients (2 for one-vs-rest, whose 87 fits dominate)."""
    w = run.WORKLOADS[name]
    return replace(w, patients=2 if w.protocol == "binary" else 3, boundaries=(1, 2),
                   width=8, window=8, stride=8,
                   scored_patients=2 if w.scored_patients else 0)


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """One untraced run per workload, and a traced run of the model-set one."""
    base = tmp_path_factory.mktemp("perfbench")
    out = {}
    for name in run.WORKLOADS:
        out[name] = run.run_workload(toy(name), 1, 0, False, base / name)
    out["traced"] = run.run_workload(toy("score_model_set"), 1, 0, True, base / "traced")
    return base, out


def _names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_printed_metrics_match_benchmark_json(toy_runs):
    _, runs = toy_runs
    e2e = _names_units(BENCHMARK["end_to_end"])
    for name in run.WORKLOADS:
        summary = runs[name]["summary"]
        assert summary["correct"], runs[name]["errors"]
        assert summary["attempted"] >= 1 and summary["failed"] == 0
        assert {k: v["unit"] for k, v in summary["metrics"].items()} == e2e
        assert all(v["value"] > 0 for v in summary["metrics"].values())
    traced = runs["traced"]["summary"]
    assert traced["correct"], runs["traced"]["errors"]
    assert ({k: v["unit"] for k, v in traced["metrics"].items()}
            == _names_units(BENCHMARK["per_layer"]))
    env = runs["traced"]["env"]
    assert {"python", "numpy", "blas", "blas_threads_in_effect", "nproc",
            "seed"} <= set(env)


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _edit_report(out: Path, edit) -> None:
    report = json.loads((out / "report.json").read_text())
    edit(report)
    (out / "report.json").write_text(json.dumps(report))


def _edit_csv(path: Path, row: int, col: int, delta: int) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = str(int(rows[row][col]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _move_count(path: Path) -> None:
    """Move one sequence of the first class into or out of the diagonal cell,
    keeping the matrix total."""
    with open(path, newline="") as fh:
        row = list(csv.reader(fh))[1]
    src = next(j for j in range(1, len(row)) if int(row[j]) > 0)
    _edit_csv(path, 1, src, -1)
    _edit_csv(path, 1, 2 if src == 1 else 1, 1)


def _all_negative(report: dict) -> None:
    """Make every one-vs-rest model answer "no", with consistent accuracies."""
    fold_means = []
    for fd in report["folds"]:
        for r in fd["binary"]["per_class"]:
            positives, total = r["tp"] + r["fn"], r["tp"] + r["fp"] + r["tn"] + r["fn"]
            r.update(tp=0, fn=positives, fp=0, tn=total - positives,
                     accuracy=(total - positives) / total)
        mean = sum(r["accuracy"] for r in fd["binary"]["per_class"]) / len(
            fd["binary"]["per_class"])
        fd["binary"]["mean_accuracy"] = fd["average_accuracy"] = mean
        fold_means.append(mean)
    report["mean_average_accuracy"] = sum(fold_means) / len(fold_means)


def test_checks_reject_corrupted_cv_results(toy_runs, tmp_path):
    base, _ = toy_runs
    multi, binary = toy("cv_multiclass_tcn"), toy("cv_binary_lstm")

    def check(w, out):
        return checks.check_cv(out, w.report_protocol, w.net, w.patients, w.boundaries)

    check(multi, base / "cv_multiclass_tcn" / "out")
    check(binary, base / "cv_binary_lstm" / "out")
    corruptions = {
        "tally off by one": (binary, lambda o: _edit_report(
            o, lambda r: r["folds"][0]["binary"]["per_class"][0].__setitem__(
                "tn", r["folds"][0]["binary"]["per_class"][0]["tn"] + 1))),
        "positive lost": (binary, lambda o: _edit_report(
            o, lambda r: r["folds"][1]["binary"]["per_class"][3].__setitem__(
                "fn", r["folds"][1]["binary"]["per_class"][3]["fn"] - 1))),
        "suite learned nothing": (binary, lambda o: _edit_report(o, _all_negative)),
        "confusion total": (multi, lambda o: _edit_csv(
            o / "confusion_fold1_static.csv", 1, 2, 1)),
        "confusion cell moved": (multi, lambda o: _move_count(
            o / "confusion_fold2_dynamic.csv")),
        "accuracy misreported": (multi, lambda o: _edit_report(
            o, lambda r: r.__setitem__("mean_average_accuracy",
                                       r["mean_average_accuracy"] + 1e-6))),
        "fold tested twice": (multi, lambda o: _edit_report(
            o, lambda r: r["folds"][1].__setitem__("fold", 1))),
        "patient on both sides": (multi, lambda o: _edit_report(
            o, lambda r: r["folds"][0]["train_patients"].append(
                r["folds"][0]["test_patients"][0]))),
    }
    for i, (what, (w, corrupt)) in enumerate(corruptions.items()):
        name = "cv_binary_lstm" if w is binary else "cv_multiclass_tcn"
        out = _copy(base / name / "out", tmp_path / f"c{i}")
        corrupt(out)
        with pytest.raises(checks.CheckError):
            check(w, out)
            pytest.fail(f"check accepted: {what}")


def test_checks_reject_corrupted_model_set_results(toy_runs, tmp_path):
    base, _ = toy_runs
    w = toy("score_model_set")
    checks.check_model_set(base / "score_model_set" / "out", w.scored_patients)
    out = _copy(base / "score_model_set" / "out", tmp_path / "unseen")
    _edit_report(out, lambda r: r["folds"][0]["test_patients"].pop())
    with pytest.raises(checks.CheckError):
        checks.check_model_set(out, w.scored_patients)
    out = _copy(base / "score_model_set" / "out", tmp_path / "count")
    _edit_csv(out / "confusion_fold0_dynamic.csv", 2, 3, 1)
    with pytest.raises(checks.CheckError):
        checks.check_model_set(out, w.scored_patients)


def test_method_checks_reject_bad_training_and_gradients():
    from skelgest.neuralnet import HeadKind, LstmSpec, init_parameters, lstm

    with pytest.raises(checks.CheckError):
        checks.check_oracle((1.0 + 13 / 14) / 2)
    with pytest.raises(checks.CheckError):
        checks.check_loss_falls([[0.5, 0.6], [0.7, 0.7]])
    checks.check_loss_falls([[0.5, 0.4], [0.7, 0.72]])

    model = init_parameters(LstmSpec(input_dim=3, hidden_dim=4, n_classes=2),
                            HeadKind.SOFTMAX, seed=0)
    x = np.random.default_rng(0).normal(size=(2, 5, 3))
    y = np.array([0, 1])
    checks.check_gradient(lstm.loss_and_grad, model, x, y, n_coords=10, seed=0)

    def off_by_a_bit(m, xs, ys):
        loss, grad = lstm.loss_and_grad(m, xs, ys)
        return loss, grad * 1.001

    with pytest.raises(checks.CheckError):
        checks.check_gradient(off_by_a_bit, model, x, y, n_coords=10, seed=0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv_binary_lstm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
