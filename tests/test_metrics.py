"""Confusion matrices, one-vs-rest aggregates, percent formatting, and the
recorded reference result rows.

The reference rows are (static %, dynamic %, printed average %) triples taken
from the results the pipeline is built to reproduce.  The printed averages
were rounded to one decimal, so recomputing the unweighted mean must land
within half a printing quantum (0.05) of the recorded value -- except one row
recorded with an average that is arithmetically inconsistent with its own
operands, which is pinned here as a known discrepancy so a regression cannot
silently "fix" our arithmetic to match it.
"""

import json

import numpy as np
import pytest

from skelgest.metrics import (
    BinaryClassResult,
    BinarySuiteMetrics,
    ConfusionMatrix,
    EvaluationReport,
    FoldReport,
    average_static_dynamic,
    binary_per_class_csv,
    confusion,
    percent,
    rate_text,
    render_report,
    report_from_dict,
    report_to_dict,
    write_report_files,
)
from skelgest.skeleton import ALL_GESTURE_IDS, DYNAMIC_GESTURE_IDS, STATIC_GESTURE_IDS

def per_class_recall(cm):
    """Recall per true class of a confusion matrix; None when that class
    never occurred."""
    out = {}
    for i, label in enumerate(cm.labels):
        row = int(cm.counts[i].sum())
        out[label] = None if row == 0 else int(cm.counts[i, i]) / row
    return out


# Printed averages carry one decimal, so a recomputed mean may differ from the
# recorded one by at most half a quantum.
PRINT_TOLERANCE = 0.05 + 1e-9

# (static %, dynamic %, printed average %) for the one-vs-rest protocol.
REFERENCE_ROWS_BINARY = [
    (94.6, 93.1, 93.8),
    (94.2, 93.9, 94.0),
    (95.4, 95.3, 95.4),
]

# Same protocol; this row's printed average does not match its own operands
# ((93.2 + 92.3) / 2 = 92.75, recorded as 93.1).  Kept out of the consistency
# sweep and asserted as a discrepancy below.
REFERENCE_ROW_BINARY_INCONSISTENT = (93.2, 92.3, 93.1)

# (static %, dynamic %, printed average %) for the two-softmax-model protocol.
REFERENCE_ROWS_MULTICLASS = [
    (74.3, 67.3, 70.8),
    (65.3, 57.2, 61.3),
    (67.0, 61.2, 64.1),
    (63.9, 58.1, 61.0),
    (45.7, 39.3, 42.5),
]

# (static %, dynamic %, printed average %) across normalization variants.
REFERENCE_ROWS_BY_METHOD = [
    (70.0, 57.0, 63.5),
    (57.2, 51.4, 54.3),
    (61.8, 55.8, 58.8),
    (72.4, 62.8, 67.6),
    (70.3, 75.5, 72.9),
    (92.9, 76.6, 84.7),
]


class TestPercent:
    def test_half_up_differs_from_bankers_rounding(self):
        # 92.25 rounds up here; the builtin round() would give 92.2
        assert percent(0.9225) == "92.3"
        assert round(92.25, 1) == 92.2

    @pytest.mark.parametrize(
        "fraction,expected",
        [
            (0.5, "50.0"),
            (1.0, "100.0"),
            (0.0, "0.0"),
            (0.999, "99.9"),
            (0.9995, "100.0"),
            (0.12345, "12.3"),
            (0.12350, "12.4"),
            (28 / 29, "96.6"),
        ],
    )
    def test_values(self, fraction, expected):
        assert percent(fraction) == expected

    def test_places(self):
        assert percent(0.9225, places=0) == "92"
        assert percent(0.92256, places=2) == "92.26"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            percent(float("nan"))
        with pytest.raises(ValueError):
            percent(float("inf"))

    def test_rate_text(self):
        assert rate_text(None) == "n/a"
        assert rate_text(0.9) == "90.0"


class TestConfusionMatrix:
    def test_hand_case(self):
        cm = confusion(["a", "a", "b"], ["a", "b", "b"], ["a", "b"])
        assert np.array_equal(cm.counts, np.array([[1, 1], [0, 1]]))
        assert cm.n_total == 3
        assert cm.n_correct == 2
        assert abs(cm.accuracy - 2 / 3) <= 1e-15

    def test_perfect_prediction_is_diagonal(self):
        labels = ["a", "b", "c"]
        truth = ["a", "b", "c", "b", "a"]
        cm = confusion(truth, truth, labels)
        assert np.array_equal(cm.counts, np.diag([2, 2, 1]))
        assert cm.accuracy == 1.0

    def test_constant_prediction_fills_one_column(self):
        cm = confusion(["a", "b", "c"], ["a", "a", "a"], ["a", "b", "c"])
        assert np.array_equal(cm.counts[:, 0], np.ones(3, dtype=int))
        assert cm.counts[:, 1:].sum() == 0
        assert abs(cm.accuracy - 1 / 3) <= 1e-15

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(0)
        labels = [f"c{i}" for i in range(5)]
        truth = [labels[i] for i in rng.integers(0, 5, 200)]
        pred = [labels[i] for i in rng.integers(0, 5, 200)]
        cm = confusion(truth, pred, labels)
        assert cm.accuracy == np.trace(cm.counts) / 200

    def test_recall_recomposes_accuracy(self):
        """Sum of recall_i * support_i equals the number correct."""
        rng = np.random.default_rng(1)
        labels = [f"c{i}" for i in range(4)]
        truth = [labels[i] for i in rng.integers(0, 4, 100)]
        pred = [labels[i] for i in rng.integers(0, 4, 100)]
        cm = confusion(truth, pred, labels)
        recalls = per_class_recall(cm)
        total = sum(
            recalls[label] * int(cm.counts[i].sum())
            for i, label in enumerate(labels)
        )
        assert abs(total - cm.n_correct) <= 1e-9

    def test_absent_class_has_none_recall(self):
        cm = confusion(["a", "a"], ["a", "b"], ["a", "b"])
        recalls = per_class_recall(cm)
        assert recalls["b"] is None
        assert recalls["a"] == 0.5

    def test_empty_matrix_has_no_accuracy(self):
        cm = confusion([], [], ["a", "b"])
        with pytest.raises(ValueError, match="empty"):
            cm.accuracy

    def test_validation(self):
        with pytest.raises(ValueError, match="true labels"):
            confusion(["a"], ["a", "b"], ["a", "b"])
        with pytest.raises(ValueError, match="duplicates"):
            confusion(["a"], ["a"], ["a", "a"])
        with pytest.raises(ValueError, match="not in label list"):
            confusion(["z"], ["a"], ["a"])
        with pytest.raises(ValueError, match="not in label list"):
            confusion(["a"], ["z"], ["a"])
        with pytest.raises(ValueError):
            ConfusionMatrix(labels=("a", "b"), counts=np.zeros((3, 3), dtype=int))

    def test_sum_pools_the_counts_of_both_sides(self):
        a = confusion(["a", "b"], ["a", "a"], ["a", "b"])
        b = confusion(["b", "b", "a"], ["b", "a", "b"], ["a", "b"])
        pooled = a + b
        assert pooled.labels == ("a", "b")
        assert np.array_equal(pooled.counts, np.array([[1, 1], [2, 1]]))
        assert pooled.to_csv() == confusion(["a", "b", "b", "b", "a"],
                                            ["a", "a", "b", "a", "b"], ["a", "b"]).to_csv()

    @pytest.mark.parametrize("labels", [["a", "c"], ["b", "a"], ["a"]])
    def test_sum_refuses_other_labels(self, labels):
        a = confusion(["a"], ["a"], ["a", "b"])
        with pytest.raises(ValueError, match="different labels"):
            a + confusion([], [], labels)

    def test_csv_layout_for_full_static_label_set(self):
        labels = list(STATIC_GESTURE_IDS)
        truth = labels * 2
        cm = confusion(truth, truth, labels)
        lines = cm.to_csv().strip().splitlines()
        assert len(lines) == 16  # header + one row per class
        assert lines[0].split(",")[0] == "true\\pred"
        assert lines[1].split(",")[0] == labels[0]
        assert lines[1].split(",")[1] == "2"


class TestReferenceRows:
    """The recorded result rows and the averaging convention behind them."""

    @pytest.mark.parametrize("static,dynamic,printed", REFERENCE_ROWS_BINARY)
    def test_binary_rows_average_consistently(self, static, dynamic, printed):
        mean = average_static_dynamic(static / 100, dynamic / 100) * 100
        assert abs(mean - printed) <= PRINT_TOLERANCE

    @pytest.mark.parametrize("static,dynamic,printed", REFERENCE_ROWS_MULTICLASS)
    def test_multiclass_rows_average_consistently(self, static, dynamic, printed):
        mean = average_static_dynamic(static / 100, dynamic / 100) * 100
        assert abs(mean - printed) <= PRINT_TOLERANCE

    @pytest.mark.parametrize("static,dynamic,printed", REFERENCE_ROWS_BY_METHOD)
    def test_method_rows_average_consistently(self, static, dynamic, printed):
        mean = average_static_dynamic(static / 100, dynamic / 100) * 100
        assert abs(mean - printed) <= PRINT_TOLERANCE

    def test_known_inconsistent_row_stays_inconsistent(self):
        """One recorded average cannot be reproduced from its own operands;
        the discrepancy (0.35) is far beyond printing rounding.  This test
        documents it so nobody 'corrects' the averaging to chase that row."""
        static, dynamic, printed = REFERENCE_ROW_BINARY_INCONSISTENT
        mean = average_static_dynamic(static / 100, dynamic / 100) * 100
        assert abs(mean - 92.75) <= 1e-9
        assert abs(mean - printed) > PRINT_TOLERANCE
        assert abs(abs(mean - printed) - 0.35) <= 1e-9

    def test_unweighted_average_ignores_support(self):
        """The headline number averages the two model accuracies directly,
        with no weighting by how many sequences each side contributed."""
        assert average_static_dynamic(1.0, 0.0) == 0.5
        assert average_static_dynamic(0.743, 0.673) == pytest.approx(0.708)


class TestBinaryClassResult:
    def test_hand_case(self):
        r = BinaryClassResult(gesture_id="A1_1", tp=9, fp=1, tn=4, fn=0)
        assert r.n_total == 14
        assert abs(r.accuracy - 13 / 14) <= 1e-15
        assert abs(r.precision - 0.9) <= 1e-15
        assert r.recall == 1.0

    def test_no_predicted_positives_means_undefined_precision(self):
        r = BinaryClassResult(gesture_id="A1_1", tp=0, fp=0, tn=5, fn=2)
        assert r.precision is None
        assert abs(r.recall - 0.0) <= 1e-15

    def test_no_actual_positives_means_undefined_recall(self):
        r = BinaryClassResult(gesture_id="A1_1", tp=0, fp=1, tn=5, fn=0)
        assert r.recall is None

    def test_empty_result_has_no_accuracy(self):
        r = BinaryClassResult(gesture_id="A1_1", tp=0, fp=0, tn=0, fn=0)
        with pytest.raises(ValueError):
            r.accuracy


class TestBinarySuite:
    def _constant_negative_suite(self, negatives_per_class=28, positives_per_class=1):
        results = [
            BinaryClassResult(
                gesture_id=gid, tp=0, fp=0,
                tn=negatives_per_class, fn=positives_per_class,
            )
            for gid in ALL_GESTURE_IDS
        ]
        return BinarySuiteMetrics(tuple(results))

    def test_constant_negative_scores_28_29ths(self):
        """With one positive per class against the 28 other classes, a model
        that always says 'no' is right 28 times out of 29.  This floor is why
        one-vs-rest accuracies must be read against 96.6%, not 50%."""
        suite = self._constant_negative_suite()
        assert abs(suite.mean_accuracy - 28 / 29) <= 1e-12
        assert abs(suite.static_accuracy - 28 / 29) <= 1e-12
        assert abs(suite.dynamic_accuracy - 28 / 29) <= 1e-12
        assert abs(suite.balanced_average - 28 / 29) <= 1e-12
        assert percent(suite.mean_accuracy) == "96.6"
        assert all(r.precision is None for r in suite.results)

    def test_mean_is_equal_weight_over_classes(self):
        results = [
            BinaryClassResult(gesture_id=gid, tp=1, fp=0, tn=0, fn=0)
            for gid in STATIC_GESTURE_IDS
        ] + [
            BinaryClassResult(gesture_id=gid, tp=0, fp=0, tn=0, fn=1)
            for gid in DYNAMIC_GESTURE_IDS
        ]
        suite = BinarySuiteMetrics(tuple(results))
        assert suite.static_accuracy == 1.0
        assert suite.dynamic_accuracy == 0.0
        assert suite.balanced_average == 0.5
        assert abs(suite.mean_accuracy - 15 / 29) <= 1e-12

    def test_duplicate_ids_rejected(self):
        results = [
            BinaryClassResult(gesture_id="A1_1", tp=1, fp=0, tn=1, fn=0),
            BinaryClassResult(gesture_id="A1_1", tp=1, fp=0, tn=1, fn=0),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            BinarySuiteMetrics(tuple(results))

    def test_sum_pools_each_class_tally(self):
        one = self._constant_negative_suite(negatives_per_class=28, positives_per_class=1)
        two = BinarySuiteMetrics(tuple(
            BinaryClassResult(gesture_id=gid, tp=i, fp=1, tn=2, fn=3)
            for i, gid in enumerate(ALL_GESTURE_IDS)
        ))
        pooled = [a + b for a, b in zip(one.results, two.results)]
        assert [r.gesture_id for r in pooled] == list(ALL_GESTURE_IDS)
        assert pooled[5] == BinaryClassResult(ALL_GESTURE_IDS[5], 5, 1, 30, 4)

    @pytest.mark.parametrize("ids", [ALL_GESTURE_IDS[:-1], ALL_GESTURE_IDS[::-1]],
                             ids=["one-short", "reversed"])
    def test_sum_refuses_other_gesture_ids(self, ids):
        other = BinarySuiteMetrics(tuple(
            BinaryClassResult(gesture_id=gid, tp=0, fp=0, tn=1, fn=0) for gid in ids
        ))
        with pytest.raises(ValueError, match="different gesture ids"):
            self._constant_negative_suite().results[-1] + other.results[-1]

    def test_per_class_csv_prints_na(self):
        suite = self._constant_negative_suite()
        text = binary_per_class_csv(suite)
        lines = text.strip().splitlines()
        assert len(lines) == 30  # header + 29 models
        assert lines[0].startswith("gesture_id,")
        first = lines[1].split(",")
        assert first[0] == "A1_1"
        assert first[6] == "n/a"  # precision undefined
        assert first[5] == "96.6"


def _two_model_report(extras=None):
    fold1 = FoldReport(
        fold=1, train_patients=(3, 4), test_patients=(1, 2),
        static_accuracy=0.743, dynamic_accuracy=0.673,
    )
    fold2 = FoldReport(
        fold=2, train_patients=(1, 2), test_patients=(3, 4),
        static_accuracy=0.65, dynamic_accuracy=0.55,
    )
    return EvaluationReport(
        protocol="multiclass", arch="lstm", method=3, window=128,
        folds=(fold1, fold2), extras=extras or {},
    )


def _binary_report():
    results = tuple(
        BinaryClassResult(gesture_id=gid, tp=1, fp=0, tn=27, fn=1)
        for gid in ALL_GESTURE_IDS
    )
    suite = BinarySuiteMetrics(tuple(results))
    fold = FoldReport(
        fold=1, train_patients=(2,), test_patients=(1,), binary=suite
    )
    return EvaluationReport(
        protocol="multiclass-binary", arch="lstm", method=3, window=128,
        folds=(fold,),
    )


class TestReports:
    def test_fold_average(self):
        report = _two_model_report()
        assert report.folds[0].average_accuracy == pytest.approx(0.708)
        assert report.mean_average_accuracy == pytest.approx((0.708 + 0.6) / 2)
        assert report.mean_static_accuracy == pytest.approx((0.743 + 0.65) / 2)

    def test_binary_fold_average_uses_mean_accuracy(self):
        report = _binary_report()
        assert report.folds[0].average_accuracy == pytest.approx(28 / 29)

    def test_fold_without_results_rejects_average(self):
        empty = FoldReport(fold=1, train_patients=(2,), test_patients=(1,))
        with pytest.raises(ValueError):
            empty.average_accuracy

    def test_round_trip_through_dict(self):
        for report in (_two_model_report({"seed": 5}), _binary_report()):
            d = report_to_dict(report)
            rebuilt = report_from_dict(json.loads(json.dumps(d)))
            assert report_to_dict(rebuilt) == d

    def test_render_json_deterministic_and_parseable(self):
        report = _two_model_report()
        a = render_report(report, "json")
        b = render_report(report, "json")
        assert a == b
        parsed = json.loads(a)
        assert parsed["protocol"] == "multiclass"
        assert parsed["folds"][0]["static_accuracy"] == 0.743

    def test_render_csv_summary(self):
        lines = render_report(_two_model_report(), "csv").strip().splitlines()
        assert lines[0] == "fold,static_pct,dynamic_pct,average_pct"
        assert lines[1].startswith("1,74.3,67.3,70.8")
        assert lines[-1].startswith("mean,")

    def test_render_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render_report(_two_model_report(), "xml")

    def test_render_summary_mentions_run_identity(self):
        text = render_report(_two_model_report(), "text")
        assert "protocol=multiclass" in text
        assert "70.8" in text

    def test_write_report_files_two_model(self, tmp_path):
        labels = ("a", "b")
        cm1 = ConfusionMatrix(labels=labels, counts=np.array([[2, 0], [1, 1]]))
        cm2 = ConfusionMatrix(labels=labels, counts=np.array([[1, 1], [0, 2]]))
        fold1 = FoldReport(
            fold=1, train_patients=(2,), test_patients=(1,),
            static_accuracy=0.75, dynamic_accuracy=0.5,
            static_confusion=cm1, dynamic_confusion=cm1,
        )
        fold2 = FoldReport(
            fold=2, train_patients=(1,), test_patients=(2,),
            static_accuracy=0.75, dynamic_accuracy=0.5,
            static_confusion=cm2, dynamic_confusion=cm2,
        )
        report = EvaluationReport(
            protocol="multiclass", arch="lstm", method=3, window=32,
            folds=(fold1, fold2),
        )
        written = {p.split("/")[-1] for p in write_report_files(report, tmp_path)}
        assert {
            "report.json", "report.csv",
            "confusion_fold1_static.csv", "confusion_fold2_static.csv",
            "confusion_fold1_dynamic.csv", "confusion_fold2_dynamic.csv",
            "confusion_static.csv", "confusion_dynamic.csv",
        } <= written
        # pooled matrix is the element-wise sum over folds
        pooled = (tmp_path / "confusion_static.csv").read_text().strip().splitlines()
        assert pooled[1] == "a,3,1"
        assert pooled[2] == "b,1,3"

    def test_write_report_files_binary(self, tmp_path):
        written = {p.split("/")[-1] for p in write_report_files(_binary_report(), tmp_path)}
        assert "binary_fold1.csv" in written
        body = (tmp_path / "binary_fold1.csv").read_text()
        assert body.startswith("gesture_id,")
