"""Release acceptance: one test per numbered criterion.

Each test exercises a whole contract end to end with its own independent
oracle (pseudo-inverse least squares, central finite differences, closed
forms, a label-reading stand-in classifier).  The conftest hook prints a
"acceptance criterion N (...): PASS|FAIL" line per test after the run, plus
any measurement notes recorded with ``record_acceptance_note``.

The desk-scale learning check (criterion 7) trains real networks and
dominates the suite's runtime: about 20 s on a 2-vCPU VM, of which the LSTM
takes about 14 s and the default TCN about 6 s; everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_acceptance_note
from skelgest.ingest import FoldSplit, SynthConfig, assign_folds, generate_synthetic
from skelgest.metrics import average_static_dynamic, percent
from skelgest.neuralnet import (
    HeadKind,
    LstmSpec,
    TcnSpec,
    TrainConfig,
    grad_check,
    init_parameters,
    param_count,
)
from skelgest.config import NetKind, Protocol, RunConfig
from skelgest.pipeline import (
    TrainedProtocol,
    _assert_patient_disjoint,
    cross_validate,
    evaluate_binary,
    oracle_factory,
)
from skelgest.preprocess import (
    NormMethod,
    SavgolSpec,
    WindowSpec,
    normalize_window,
    preprocess_sequence,
    savgol_coefficients,
    smooth_series,
)
from skelgest.skeleton import (
    ALL_GESTURE_IDS,
    DEFAULT_JOINT_MAP,
    GestureLabel,
    GestureSequence,
    N_JOINTS,
)

LABEL = GestureLabel("A1_1")


def test_criterion_1_gradient_fidelity():
    """Analytic gradients match central finite differences to < 1e-5 relative
    error on every parameter of both architectures, in under 30 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    specs = [
        LstmSpec(input_dim=3, hidden_dim=4, n_classes=2),
        TcnSpec(input_dim=3, channels=4, kernel=2, dilations=(1, 2), n_classes=2),
    ]
    for spec in specs:
        model = init_parameters(spec, HeadKind.SOFTMAX, seed=5)
        x = rng.normal(size=(4, 9, 3))
        targets = rng.integers(0, 2, size=4)
        report = grad_check(model, x, targets, tolerance=1e-5)
        assert report.n_checked == param_count(spec)  # full coverage, no sampling
        assert report.max_rel_error < 1e-5, f"{report.arch}: {report.max_rel_error}"
        assert report.passed
    assert time.perf_counter() - start < 30.0


def test_criterion_2_smoothing_coefficient_oracle():
    """The 5-point quadratic smoothing weights equal the center row of the
    least-squares projection matrix, and constant/linear series are fixed
    points of the filter (to double-precision rounding)."""
    ours = savgol_coefficients(5, 2)

    # Independent oracle: fit-and-evaluate-at-center as an explicit
    # pseudo-inverse projection, never via our normal-equation code path.
    offsets = np.arange(-2.0, 3.0)
    design = np.vander(offsets, 3, increasing=True)  # columns 1, t, t^2
    projection = design @ np.linalg.pinv(design)
    assert np.max(np.abs(ours - projection[2])) <= 1e-12

    spec = SavgolSpec(m=5, order=2)
    constant = np.full((40, 3), 3.25)
    linear = np.outer(np.arange(40.0), [1.0, -0.5, 2.0]) + 1.0
    for series in (constant, linear):
        smoothed = smooth_series(series, spec)
        assert np.max(np.abs(smoothed - series)) <= 1e-12


def test_criterion_3_normalization_invariance_suite():
    """Over 1000 random windows: chin-relative and polar features ignore
    global translation; polar distances ignore rotation about the reference
    chin; the two combination methods equal exact concatenations."""
    rng = np.random.default_rng(3003)
    w = 6
    worst = {"translate": 0.0, "rotate": 0.0}
    for i in range(1000):
        coords = rng.uniform(1.0, 9.0, size=(w, N_JOINTS, 2))
        rng.uniform(0.0, 1.0, size=(w, N_JOINTS))  # confidences: unused, kept drawn

        def features(window, method):
            return normalize_window(window[None], method, DEFAULT_JOINT_MAP)[0]

        # Global translation washes out of M1, M3 and their combination M4.
        shift = rng.uniform(-50.0, 50.0, size=2)
        shifted = coords + shift
        for method in (NormMethod.M1, NormMethod.M3, NormMethod.M4):
            delta = np.max(np.abs(features(shifted, method) - features(coords, method)))
            worst["translate"] = max(worst["translate"], delta)

        # Rotation about the reference chin preserves every M3 distance.
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        chin = coords[0, DEFAULT_JOINT_MAP.chin_index]
        rotated = (coords - chin) @ rot.T + chin
        distances = features(coords, NormMethod.M3)[:, 0::2]
        rotated_distances = features(rotated, NormMethod.M3)[:, 0::2]
        worst["rotate"] = max(
            worst["rotate"], float(np.max(np.abs(rotated_distances - distances)))
        )

        # The combination methods are exact column concatenations.
        m1, m2, m3 = (
            features(coords, m) for m in (NormMethod.M1, NormMethod.M2, NormMethod.M3)
        )
        assert np.array_equal(
            features(coords, NormMethod.M4), np.concatenate([m1, m3], axis=1)
        )
        assert np.array_equal(
            features(coords, NormMethod.M5), np.concatenate([m2, m3], axis=1)
        )

    assert worst["translate"] <= 1e-9, worst
    assert worst["rotate"] <= 1e-9, worst


def test_criterion_4_windowing_contract_exhaustive():
    """For every sequence length 1..70 and every power-of-two window length
    2..512: the stride-1 window count matches the closed form, padding
    appears only when the sequence is shorter than the window, pad rows are
    exactly zero, and window contents are exact slices of the input.

    Windows are read through unsmoothed method-1 features with confidence
    columns: an unpadded window's features are exactly its coordinate slice
    minus the chin of its first frame, followed by its confidence slice."""
    chin = DEFAULT_JOINT_MAP.chin_index

    def offsets(rows):
        return (rows - rows[0, chin]).reshape(len(rows), 2 * N_JOINTS)

    for w_len in (2, 4, 8, 16, 32, 64, 128, 256, 512):
        spec = WindowSpec(length=w_len, stride=1)
        for t in range(1, 71):
            coords = (
                np.arange(t * N_JOINTS * 2, dtype=np.float64).reshape(t, N_JOINTS, 2)
                + 1.0
            )
            conf = np.linspace(0.0, 1.0, t * N_JOINTS).reshape(t, N_JOINTS)
            seq = GestureSequence(1, LABEL, coords, conf)
            windows = preprocess_sequence(
                seq, NormMethod.M1, spec, DEFAULT_JOINT_MAP, savgol_spec=None,
                include_confidence=True,
            )
            assert windows.shape[1:] == (w_len, 3 * N_JOINTS)
            if t >= w_len:
                assert len(windows) == t - w_len + 1, (t, w_len)
                for i, win in enumerate(windows):
                    assert np.array_equal(win[:, : 2 * N_JOINTS],
                                          offsets(coords[i : i + w_len]))
                    assert np.array_equal(win[:, 2 * N_JOINTS :], conf[i : i + w_len])
            else:
                pad = w_len - t
                assert len(windows) == 1, (t, w_len)
                win = windows[0]
                assert not win[:pad].any()
                assert np.array_equal(win[pad:, : 2 * N_JOINTS], offsets(coords))
                assert np.array_equal(win[pad:, 2 * N_JOINTS :], conf)


# (static %, dynamic %, printed average %) rows from the recorded reference
# tables; every consistent row must be reproduced by our averaging to within
# the 1-decimal print rounding.
REFERENCE_ROWS = [
    # one-vs-rest protocol
    (94.6, 93.1, 93.8),
    (94.2, 93.9, 94.0),
    (95.4, 95.3, 95.4),
    # two-softmax-model protocol
    (74.3, 67.3, 70.8),
    (65.3, 57.2, 61.3),
    (67.0, 61.2, 64.1),
    (63.9, 58.1, 61.0),
    (45.7, 39.3, 42.5),
    # normalization-method comparison
    (70.0, 57.0, 63.5),
    (57.2, 51.4, 54.3),
    (61.8, 55.8, 58.8),
    (72.4, 62.8, 67.6),
    (70.3, 75.5, 72.9),
    (92.9, 76.6, 84.7),
]

# This recorded row's printed average disagrees with its own operands:
# (93.2 + 92.3) / 2 = 92.75, printed as 93.1.  It is pinned as a known
# discrepancy so nobody bends the averaging to chase it.
INCONSISTENT_ROW = (93.2, 92.3, 93.1)

PRINT_TOLERANCE = 0.05 + 1e-9


def test_criterion_5_reference_table_averaging():
    for static, dynamic, printed in REFERENCE_ROWS:
        mean = average_static_dynamic(static / 100.0, dynamic / 100.0) * 100.0
        assert abs(mean - printed) <= PRINT_TOLERANCE, (static, dynamic, printed)

    static, dynamic, printed = INCONSISTENT_ROW
    mean = average_static_dynamic(static / 100.0, dynamic / 100.0) * 100.0
    assert abs(mean - 92.75) <= 1e-9
    assert abs(mean - printed) > PRINT_TOLERANCE  # genuinely irreproducible


class _ConstantNegative:
    """One-vs-rest model that rejects everything."""

    def predict_windows(self, x, gids):
        return np.zeros((len(x), 1))


def test_criterion_6_one_vs_rest_accuracy_skew():
    """On a balanced 29-class test set, a suite of 29 always-negative
    one-vs-rest models still scores 28/29 average accuracy: each model is
    wrong only on its single positive.  This bounds how much class imbalance
    alone inflates the one-vs-rest protocol's numbers."""
    ds = generate_synthetic(SynthConfig(n_patients=1, seed=66))
    prep = dict(method=NormMethod.M3, window=32, stride=4)
    config = RunConfig(protocol=Protocol.MULTICLASS_BINARY, **prep, seed=0)
    trained = TrainedProtocol(
        config=config,
        classifiers={"main": {gid: _ConstantNegative() for gid in ALL_GESTURE_IDS}},
    )

    suite = evaluate_binary(trained, ds.sequences, DEFAULT_JOINT_MAP)

    for result in suite.results:
        assert (result.tp, result.fp, result.tn, result.fn) == (0, 0, 28, 1)
    assert abs(suite.mean_accuracy - 28.0 / 29.0) <= 1e-12
    assert abs(suite.static_accuracy - 28.0 / 29.0) <= 1e-12
    assert abs(suite.dynamic_accuracy - 28.0 / 29.0) <= 1e-12
    assert percent(suite.mean_accuracy) == "96.6"


def test_criterion_7_end_to_end_desk_scale_learning():
    """A 12-patient seed-fixed synthetic dataset, method-3 features, window
    32, 3-fold patient CV: the LSTM protocol reaches >= 0.90 mean average
    accuracy, far above the 1/15 and 1/14 chance rates, in well under ten
    minutes.  The default-configuration TCN is then trained on the same data
    and the comparison is reported (as a note, not an assertion: on this
    easy synthetic set the ordering need not match the recorded tables)."""
    ds = generate_synthetic(SynthConfig(n_patients=12, seed=404))
    folds = assign_folds(ds, boundaries=(4, 8))
    prep = dict(method=NormMethod.M3, window=32, stride=2)
    train = TrainConfig(epochs=10, batch_size=64)

    start = time.perf_counter()
    lstm_report = cross_validate(
        ds, folds, RunConfig(**prep, lstm_hidden=32, train=train, seed=7)
    )
    lstm_elapsed = time.perf_counter() - start

    lstm_mean = lstm_report.mean_average_accuracy
    assert lstm_elapsed < 600.0, f"LSTM run took {lstm_elapsed:.0f}s"
    assert lstm_mean >= 0.90, f"mean average accuracy {lstm_mean:.4f}"
    assert lstm_report.mean_static_accuracy > 1.0 / 15.0
    assert lstm_report.mean_dynamic_accuracy > 1.0 / 14.0
    for fold in lstm_report.folds:
        assert fold.static_accuracy > 1.0 / 15.0
        assert fold.dynamic_accuracy > 1.0 / 14.0

    tcn_report = cross_validate(
        ds, folds, RunConfig(net=NetKind.TCN, **prep, train=train, seed=7)
    )
    tcn_mean = tcn_report.mean_average_accuracy
    verdict = "outperforms" if lstm_mean > tcn_mean else "does not outperform"
    record_acceptance_note(
        7,
        f"LSTM mean average accuracy {lstm_mean:.4f} ({lstm_elapsed:.0f}s), "
        f"default TCN {tcn_mean:.4f}; LSTM {verdict} TCN on this synthetic set",
    )


def test_criterion_8_pipeline_oracle_losslessness():
    """Substituting a label-reading oracle for the trained models drives both
    protocols to exactly 1.0 through the full cross-validation path, so the
    splitting, windowing, aggregation, and metric plumbing lose nothing."""
    ds = generate_synthetic(SynthConfig(n_patients=6, seed=88))
    folds = assign_folds(ds, boundaries=(2, 4))
    prep = dict(method=NormMethod.M3, window=16, stride=4)

    multi = cross_validate(
        ds, folds, RunConfig(**prep, seed=0), factory=oracle_factory
    )
    assert multi.mean_average_accuracy == 1.0
    assert len(multi.folds) == 3
    for fold in multi.folds:
        assert fold.static_accuracy == 1.0
        assert fold.dynamic_accuracy == 1.0

    binary = cross_validate(
        ds,
        folds,
        RunConfig(protocol=Protocol.MULTICLASS_BINARY, **prep, seed=0),
        factory=oracle_factory,
    )
    assert binary.mean_average_accuracy == 1.0
    for fold in binary.folds:
        assert fold.binary.mean_accuracy == 1.0
        for result in fold.binary.results:
            assert result.fp == 0 and result.fn == 0


def test_criterion_9_fold_protocol_and_disjointness():
    """Patients 1-15, 16-35 and 36-55 land in folds 1, 2 and 3 under the
    default boundaries, and the cross-validation guard refuses any split
    whose train and test patients overlap."""
    split = FoldSplit(boundaries=(15, 35), patients=tuple(range(1, 56)))
    for patient in range(1, 16):
        assert split.fold_of(patient) == 1
    for patient in range(16, 36):
        assert split.fold_of(patient) == 2
    for patient in range(36, 56):
        assert split.fold_of(patient) == 3

    _assert_patient_disjoint((1, 2, 3), (4, 5))  # disjoint: no complaint
    with pytest.raises(AssertionError):
        _assert_patient_disjoint((1, 2, 3), (3, 4))

    # The guard is wired into every CV round: a real run keeps each fold's
    # train and test patient sets disjoint and covers every patient.
    ds = generate_synthetic(SynthConfig(n_patients=6, seed=9))
    report = cross_validate(
        ds,
        assign_folds(ds, boundaries=(2, 4)),
        RunConfig(
            method=NormMethod.M3, window=16, stride=4,
            seed=0,
        ),
        factory=oracle_factory,
    )
    seen = []
    for fold in report.folds:
        assert not set(fold.train_patients) & set(fold.test_patients)
        seen.extend(fold.test_patients)
    assert sorted(seen) == list(ds.patients)
