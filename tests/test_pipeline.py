"""Protocol training/evaluation plumbing and patient-held-out cross-validation.

The oracle classifier (which reads each window's true label) separates
pipeline correctness from training quality: any metric below 1.0 with the
oracle substituted would mean the plumbing itself loses information.
"""

import dataclasses
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from skelgest import pipeline
from skelgest.config import (
    NetKind,
    PrepSettings,
    Protocol,
    RunConfig,
    config_digest,
    config_from_dict,
    config_from_settings,
    config_to_dict,
    config_to_settings,
)
from skelgest.ingest import (
    DataError,
    FoldSplit,
    SynthConfig,
    assign_folds,
    generate_synthetic,
)
from skelgest.metrics import ConfusionMatrix
from skelgest.neuralnet import (
    HeadKind,
    LstmSpec,
    TcnSpec,
    TrainConfig,
    TrainingDivergedError,
    forward,
    init_parameters,
)
from skelgest.pipeline import (
    FoldCoverageError,
    SCORE_BLOCK_WINDOWS,
    MissingClassError,
    NetworkClassifier,
    OracleClassifier,
    TrainedProtocol,
    _assert_patient_disjoint,
    _derived_seed,
    _rebalanced_indices,
    aggregate_windows,
    cross_validate,
    evaluate_binary,
    evaluate_multiclass,
    load_model_set,
    network_factory,
    oracle_factory,
    predict_label,
    save_model_set,
    score_sequences,
    stack_windows,
    train_protocol,
)
from skelgest.preprocess import NormMethod, WindowSpec, preprocess_sequence
from skelgest.skeleton import (
    ALL_GESTURE_IDS,
    DYNAMIC_GESTURE_IDS,
    STATIC_GESTURE_IDS,
    GestureKind,
)


def _dataset(n_patients=3, seed=0, **kwargs):
    return generate_synthetic(SynthConfig(n_patients=n_patients, seed=seed, **kwargs))


def _fast_prep(**kwargs):
    defaults = dict(method=NormMethod.M3, window=WindowSpec(16, stride=4))
    defaults.update(kwargs)
    return PrepSettings(**defaults)


class TestRunConfig:
    def test_long_window_must_exceed_base(self):
        with pytest.raises(ValueError, match="long_window"):
            RunConfig(prep=_fast_prep(window=WindowSpec(32)), long_window=32)
        RunConfig(prep=_fast_prep(window=WindowSpec(32)), long_window=64)

    def test_route_threshold_requires_long_window(self):
        with pytest.raises(ValueError, match="route_threshold"):
            RunConfig(route_threshold=40)
        RunConfig(
            prep=_fast_prep(window=WindowSpec(32)), long_window=64, route_threshold=40
        )

    def test_arch_spec_dimensions(self):
        config = RunConfig(
            net=NetKind.LSTM, prep=_fast_prep(method=NormMethod.M4), lstm_hidden=17
        )
        spec = config.arch_spec(15)
        assert isinstance(spec, LstmSpec)
        assert spec.input_dim == 56 and spec.hidden_dim == 17 and spec.n_classes == 15

        config = RunConfig(
            net=NetKind.TCN, prep=_fast_prep(), tcn_channels=9, tcn_kernel=2,
            tcn_dilations=(1, 2),
        )
        spec = config.arch_spec(14)
        assert isinstance(spec, TcnSpec)
        assert spec.input_dim == 28 and spec.channels == 9 and spec.n_classes == 14

    def test_dict_round_trip(self):
        config = RunConfig(
            protocol=Protocol.MULTICLASS_BINARY,
            net=NetKind.TCN,
            prep=_fast_prep(method=NormMethod.M5, window=WindowSpec(24, stride=2)),
            long_window=48,
            route_threshold=30,
            tcn_channels=12,
            train=TrainConfig(optimizer="sgd", learning_rate=0.05, epochs=3),
            rebalance=True,
            seed=99,
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_dict_absent_keys_take_defaults(self):
        assert config_from_dict({}) == RunConfig()
        partial = {"net": "tcn", "train": {"epochs": 3}}
        assert config_from_dict(partial) == RunConfig(
            net=NetKind.TCN, train=TrainConfig(epochs=3)
        )

    def test_settings_round_trip(self):
        from skelgest.config import default_config

        assert config_from_settings(default_config(), 0) == RunConfig()
        settings = {
            "model.protocol": "multiclass-binary",
            "model.net": "tcn",
            "preprocess.method": 5,
            "preprocess.window": (24, 48),
            "preprocess.stride": 2,
            "preprocess.route_threshold": 30,
            "preprocess.smooth": True,
            "preprocess.savgol.m": 7,
            "preprocess.savgol.order": 3,
            "preprocess.include_confidence": True,
            "model.lstm_hidden": 17,
            "model.tcn_channels": 12,
            "model.tcn_kernel": 2,
            "model.tcn_dilations": (1, 3),
            "train.optimizer": "sgd",
            "train.learning_rate": 0.05,
            "train.epochs": 3,
            "train.batch_size": 16,
            "train.clip_norm": 2.5,
            "train.rebalance": True,
        }
        config = config_from_settings(settings, 99)
        assert config.seed == 99
        assert config_to_settings(config) == settings
        assert config_from_settings({**settings, "model.protocol": "binary"}, 99) == config

    def test_digest_stable_and_sensitive(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=1)
        c = RunConfig(seed=2)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)
        assert len(config_digest(a)) == 16
        assert all(ch in "0123456789abcdef" for ch in config_digest(a))


class TestLengthRouting:
    def test_boundary_inclusive_on_short_side(self):
        config = RunConfig(prep=_fast_prep(), long_window=32, route_threshold=40)
        trained = TrainedProtocol(config=config, classifiers={})
        assert config.router_threshold == 40
        assert trained.route_name(SimpleNamespace(n_frames=39)) == "short"
        assert trained.route_name(SimpleNamespace(n_frames=40)) == "short"
        assert trained.route_name(SimpleNamespace(n_frames=41)) == "long"

    def test_validation(self):
        with pytest.raises(ValueError, match="route_threshold must be >= 1"):
            RunConfig(prep=_fast_prep(), long_window=32, route_threshold=0)


class TestAggregation:
    def test_mean_probability_vector(self):
        probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
        assert np.array_equal(aggregate_windows(probs), np.array([0.5, 0.5]))

    def test_equal_weight_per_window_not_per_frame(self):
        # A sequence with many windows still averages; no window dominates.
        probs = np.tile(np.array([[0.2, 0.8]]), (100, 1))
        assert np.max(np.abs(aggregate_windows(probs) - [0.2, 0.8])) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            aggregate_windows(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            aggregate_windows(np.zeros(3))

    def test_tie_goes_to_lowest_index(self):
        assert predict_label(np.array([0.4, 0.4, 0.2]), ["a", "b", "c"]) == "a"
        assert predict_label(np.array([0.1, 0.45, 0.45]), ["a", "b", "c"]) == "b"

    def test_predict_label_validation(self):
        with pytest.raises(ValueError):
            predict_label(np.array([0.5, 0.5]), ["a"])


class TestSeedsAndGuards:
    def test_derived_seed_deterministic_and_distinct(self):
        assert _derived_seed(1, 2, 3) == _derived_seed(1, 2, 3)
        seeds = {_derived_seed(0, f, r, i, j)
                 for f in range(3) for r in range(2)
                 for i in range(3) for j in range(2)}
        assert len(seeds) == 36

    def test_patient_disjoint_guard(self):
        _assert_patient_disjoint([1, 2], [3, 4])
        with pytest.raises(AssertionError, match=r"\[2\]"):
            _assert_patient_disjoint([1, 2], [2, 3])

    def test_patient_disjoint_guard_survives_optimize_flag(self):
        """``python -O`` strips ``assert`` statements; the guard must stay."""
        code = (
            "from skelgest.pipeline import _assert_patient_disjoint\n"
            "_assert_patient_disjoint([1, 2], [2, 3])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode != 0
        assert "AssertionError: patients [2] appear in both" in proc.stderr

    def test_rebalanced_indices(self):
        targets = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        idx = _rebalanced_indices(targets)
        assert len(idx) == 8
        assert int(np.sum(targets[idx])) == 4  # positives duplicated up to negatives
        assert set(idx) == {0, 1, 2, 3, 4}

    def test_rebalanced_noop_when_balanced_or_degenerate(self):
        balanced = np.array([1.0, 0.0, 1.0, 0.0])
        assert np.array_equal(_rebalanced_indices(balanced), np.arange(4))
        all_pos = np.ones(3)
        assert np.array_equal(_rebalanced_indices(all_pos), np.arange(3))


class TestOracleClassifier:
    def _scored(self, gesture_ids):
        """(windows, window gesture ids) pairs of one patient's sequences."""
        ds = _dataset(n_patients=1, seed=3)
        by_id = {s.label.id: s for s in ds.sequences}
        pairs = []
        for gid in gesture_ids:
            x = preprocess_sequence(by_id[gid], NormMethod.M3, WindowSpec(16), ds.joint_map)
            pairs.append((x, np.full(len(x), gid)))
        return pairs

    def test_softmax_one_hot_on_true_label(self):
        clf = OracleClassifier(labels=STATIC_GESTURE_IDS)
        for x, gids in self._scored(["A1_1", "A1_2", "A1_3"]):
            probs = clf.predict_windows(x, gids)
            assert probs.shape == (len(x), 15)
            assert np.all(probs[:, STATIC_GESTURE_IDS.index(gids[0])] == 1.0)
            assert np.all(probs.sum(axis=1) == 1.0)

    def test_sigmoid_positive_only_for_own_class(self):
        clf = OracleClassifier(labels=("A1_1",))
        (x_pos, pos), (x_neg, neg) = self._scored(["A1_1", "A1_2"])
        assert clf.predict_windows(x_pos, pos).shape == (len(x_pos), 1)
        assert np.all(clf.predict_windows(x_pos, pos) == 1.0)
        assert np.all(clf.predict_windows(x_neg, neg) == 0.0)

    def test_block_of_several_sequences_reads_each_window_label(self):
        (x_a, a), (x_b, b), (x_c, c) = self._scored(["A1_1", "P2_3", "A1_2"])
        x, gids = np.concatenate([x_a, x_b, x_c]), np.concatenate([a, b, c])
        probs = OracleClassifier(labels=STATIC_GESTURE_IDS).predict_windows(x, gids)
        assert np.all(probs[: len(a), STATIC_GESTURE_IDS.index("A1_1")] == 1.0)
        assert np.all(probs[len(a) : len(a) + len(b)] == 0.0)  # dynamic: no label
        assert np.all(probs[len(a) + len(b) :, STATIC_GESTURE_IDS.index("A1_2")] == 1.0)
        assert np.array_equal(probs.sum(axis=1), (gids != "P2_3").astype(np.float64))


class TestStackWindows:
    def test_shape(self):
        ds = _dataset(n_patients=1, seed=4)
        per_sequence = [
            preprocess_sequence(seq, NormMethod.M1, WindowSpec(8), ds.joint_map)
            for seq in ds.sequences[:3]
        ]
        x = stack_windows(per_sequence)
        assert x.shape == (sum(len(w) for w in per_sequence), 8, 28)
        assert x.dtype == np.float64
        assert np.array_equal(x, np.concatenate(per_sequence))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no windows"):
            stack_windows([])


class TestTrainProtocolStructure:
    def test_multiclass_builds_two_models(self):
        ds = _dataset()
        config = RunConfig(prep=_fast_prep(), seed=1)
        trained = train_protocol(
            ds.sequences, config, ds.joint_map, factory=oracle_factory
        )
        assert set(trained.classifiers) == {"main"}
        assert set(trained.classifiers["main"]) == {"static", "dynamic"}
        assert trained.classifiers["main"]["static"].labels == STATIC_GESTURE_IDS
        assert trained.classifiers["main"]["dynamic"].labels == DYNAMIC_GESTURE_IDS
        assert trained.config.router_threshold is None

    def test_binary_builds_29_models(self):
        ds = _dataset()
        config = RunConfig(
            protocol=Protocol.MULTICLASS_BINARY, prep=_fast_prep(), seed=1
        )
        trained = train_protocol(
            ds.sequences, config, ds.joint_map, factory=oracle_factory
        )
        assert set(trained.classifiers["main"]) == set(ALL_GESTURE_IDS)

    def test_length_routing_builds_two_routes(self):
        ds = _dataset()
        config = RunConfig(
            prep=_fast_prep(window=WindowSpec(16, stride=4)), long_window=32, seed=1
        )
        trained = train_protocol(
            ds.sequences, config, ds.joint_map, factory=oracle_factory
        )
        assert set(trained.classifiers) == {"short", "long"}
        # the short route keeps the base window, the long route the long one
        assert trained.config.routes()["short"].window.length == 16
        assert trained.config.routes()["long"].window.length == 32
        # default threshold is the base window length
        assert trained.config.router_threshold == 16

    def test_route_name_dispatches_by_frame_count(self):
        ds = _dataset()
        config = RunConfig(
            prep=_fast_prep(window=WindowSpec(16, stride=4)),
            long_window=32,
            route_threshold=50,
            seed=1,
        )
        trained = train_protocol(
            ds.sequences, config, ds.joint_map, factory=oracle_factory
        )
        short_seq = min(ds.sequences, key=lambda s: s.n_frames)
        long_seq = max(ds.sequences, key=lambda s: s.n_frames)
        assert short_seq.n_frames <= 50 < long_seq.n_frames
        assert trained.route_name(short_seq) == "short"
        assert trained.route_name(long_seq) == "long"

    def test_missing_static_class_raises(self):
        ds = _dataset()
        pruned = [s for s in ds.sequences if s.label.id != "S1_2"]
        config = RunConfig(prep=_fast_prep(), seed=1)
        with pytest.raises(MissingClassError, match="S1_2"):
            train_protocol(pruned, config, ds.joint_map, factory=oracle_factory)

    def test_missing_positive_for_binary_raises(self):
        ds = _dataset()
        pruned = [s for s in ds.sequences if s.label.id != "P2_3"]
        config = RunConfig(
            protocol=Protocol.MULTICLASS_BINARY, prep=_fast_prep(), seed=1
        )
        with pytest.raises(MissingClassError, match="P2_3"):
            train_protocol(pruned, config, ds.joint_map, factory=oracle_factory)


def _n_windows(seq, window):
    """Windows of a sequence: floor((T - W) / stride) + 1, or one padded window."""
    if seq.n_frames < window.length:
        return 1
    return (seq.n_frames - window.length) // window.stride + 1


class TestJobStream:
    """The jobs that `train_protocol` hands its factory, one after another:
    their order, names, seeds and rows.  Fitting them elsewhere must keep all
    of these, so that models and their checkpoints do not change."""

    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    def test_length_routed_run(self, protocol, monkeypatch):
        ds = _dataset(n_patients=3, seed=31)
        binary = protocol is Protocol.MULTICLASS_BINARY
        config = RunConfig(protocol=protocol, prep=_fast_prep(), long_window=32,
                           rebalance=binary, seed=17)
        stacks = []
        stack = pipeline.stack_windows
        monkeypatch.setattr(pipeline, "stack_windows",
                            lambda per_sequence: stacks.append(1) or stack(per_sequence))
        received, built = [], []

        def factory(job):
            received.append((job, len(stacks)))
            built.append(oracle_factory(job))
            return built[-1]

        trained = train_protocol(ds.sequences, config, ds.joint_map, factory=factory,
                                 fold=2, fold_name="fold2")

        keys = ALL_GESTURE_IDS if binary else ("static", "dynamic")
        expected = [(route, key) for route in ("short", "long") for key in keys]
        assert [(job.route, job.key) for job, _ in received] == expected
        # The factory ran once per job, and each classifier fills its job's slot.
        assert len(built) == len(expected)
        assert trained.classifiers == {
            "short": dict(zip(keys, built[: len(keys)])),
            "long": dict(zip(keys, built[len(keys) :])),
        }
        for n, (job, n_stacks) in enumerate(received):
            route_tag, idx = divmod(n, len(keys))
            assert job.name == f"fold2-{job.route}-{job.key}"
            assert job.init_seed == _derived_seed(17, 2, route_tag, idx, 0)
            assert job.shuffle_seed == _derived_seed(17, 2, route_tag, idx, 1)
            window = config.routes()[job.route].window
            rows = {gid: 0 for gid in ALL_GESTURE_IDS}
            for seq in ds.sequences:
                rows[seq.label.id] += _n_windows(seq, window)
            assert job.windows().shape == (len(job.targets), window.length, 28)
            if binary:
                # Drawn lazily: one stack per route, made when its first job is drawn.
                assert n_stacks == route_tag + 1
                # ... and shared by all of the route's jobs.
                first = received[route_tag * len(keys)][0]
                assert np.shares_memory(job.x, first.x)
                n_pos = rows[job.key]
                n_neg = sum(rows.values()) - n_pos
                assert n_pos < n_neg  # so the positives are upsampled to n_neg
                assert len(job.targets) == 2 * n_neg
                assert job.targets.sum() == n_neg
            else:
                # Drawn lazily: one stack per kind, made when its job is drawn.
                assert n_stacks == n + 1
                labels = STATIC_GESTURE_IDS if job.key == "static" else DYNAMIC_GESTURE_IDS
                assert job.labels == labels
                assert np.array_equal(np.bincount(job.targets, minlength=len(labels)),
                                      [rows[gid] for gid in labels])
        # One stack per route, or per kind within a route.
        assert len(stacks) == (2 if binary else 4)


class TestOracleEvaluation:
    def test_multiclass_oracle_is_perfect(self):
        ds = _dataset()
        config = RunConfig(prep=_fast_prep(), seed=1)
        trained = train_protocol(
            ds.sequences, config, ds.joint_map, factory=oracle_factory
        )
        static_cm, dynamic_cm = evaluate_multiclass(trained, ds.sequences, ds.joint_map)
        assert static_cm.accuracy == 1.0
        assert dynamic_cm.accuracy == 1.0
        assert static_cm.n_total == 15 * 3
        assert dynamic_cm.n_total == 14 * 3

    def test_binary_oracle_is_perfect(self):
        ds = _dataset()
        config = RunConfig(
            protocol=Protocol.MULTICLASS_BINARY, prep=_fast_prep(), seed=1
        )
        trained = train_protocol(
            ds.sequences, config, ds.joint_map, factory=oracle_factory
        )
        suite = evaluate_binary(trained, ds.sequences, ds.joint_map)
        assert suite.mean_accuracy == 1.0
        assert suite.balanced_average == 1.0
        for r in suite.results:
            assert r.tp == 3 and r.fn == 0 and r.fp == 0 and r.tn == 29 * 3 - 3

    def test_cross_validate_oracle_multiclass(self):
        ds = _dataset(n_patients=6, seed=5)
        folds = assign_folds(ds, boundaries=(2, 4))
        config = RunConfig(prep=_fast_prep(), seed=1)
        report = cross_validate(ds, folds, config, factory=oracle_factory)
        assert len(report.folds) == 3
        assert report.mean_average_accuracy == 1.0
        assert report.mean_static_accuracy == 1.0
        for fold in report.folds:
            assert fold.static_confusion is not None
            assert np.trace(fold.static_confusion.counts) == fold.static_confusion.n_total

    def test_cross_validate_oracle_binary(self):
        ds = _dataset(n_patients=4, seed=6)
        folds = assign_folds(ds, boundaries=(2, 4))  # folds 1 and 2 present
        config = RunConfig(
            protocol=Protocol.MULTICLASS_BINARY, prep=_fast_prep(), seed=1
        )
        report = cross_validate(ds, folds, config, factory=oracle_factory)
        assert len(report.folds) == 2
        assert report.mean_average_accuracy == 1.0

    def test_cross_validate_oracle_with_length_routing(self):
        ds = _dataset(n_patients=4, seed=7)
        folds = assign_folds(ds, boundaries=(2, 4))
        config = RunConfig(
            prep=_fast_prep(window=WindowSpec(16, stride=4)), long_window=32, seed=1
        )
        report = cross_validate(ds, folds, config, factory=oracle_factory)
        assert report.mean_average_accuracy == 1.0

    def test_cross_validate_needs_two_folds(self):
        ds = _dataset(n_patients=2, seed=8)
        folds = FoldSplit(boundaries=(15, 35), patients=tuple(ds.patients))
        assert folds.present_folds() == (1,)
        config = RunConfig(prep=_fast_prep(), seed=1)
        with pytest.raises(FoldCoverageError, match="at least 2"):
            cross_validate(ds, folds, config, factory=oracle_factory)

    def test_fold_reports_carry_disjoint_patient_lists(self):
        ds = _dataset(n_patients=6, seed=9)
        folds = assign_folds(ds, boundaries=(2, 4))
        config = RunConfig(prep=_fast_prep(), seed=1)
        report = cross_validate(ds, folds, config, factory=oracle_factory)
        for fold in report.folds:
            assert not set(fold.train_patients) & set(fold.test_patients)
            assert set(fold.train_patients) | set(fold.test_patients) == set(ds.patients)


def _tiny_net_config(**kwargs):
    """Small real networks that train in a couple of seconds."""
    defaults = dict(
        prep=_fast_prep(window=WindowSpec(16, stride=8)),
        lstm_hidden=8,
        tcn_channels=8,
        tcn_kernel=2,
        tcn_dilations=(1, 2),
        train=TrainConfig(epochs=2, batch_size=64),
        seed=11,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestRealTrainingSmoke:
    def test_multiclass_lstm_end_to_end(self):
        ds = _dataset(n_patients=2, seed=10)
        config = _tiny_net_config()
        trained = train_protocol(ds.sequences, config, ds.joint_map)
        static_cm, dynamic_cm = evaluate_multiclass(trained, ds.sequences, ds.joint_map)
        assert isinstance(static_cm, ConfusionMatrix)
        assert static_cm.n_total == 15 * 2
        assert 0.0 <= static_cm.accuracy <= 1.0

    def test_training_is_deterministic(self):
        ds = _dataset(n_patients=2, seed=10)
        config = _tiny_net_config()
        runs = []
        for _ in range(2):
            trained = train_protocol(ds.sequences, config, ds.joint_map)
            static = trained.classifiers["main"]["static"]
            runs.append(static.model.values.copy())
        assert np.array_equal(runs[0], runs[1])

    def test_seed_changes_weights(self):
        ds = _dataset(n_patients=2, seed=10)
        a = train_protocol(ds.sequences, _tiny_net_config(seed=11), ds.joint_map)
        b = train_protocol(ds.sequences, _tiny_net_config(seed=12), ds.joint_map)
        va = a.classifiers["main"]["static"].model.values
        vb = b.classifiers["main"]["static"].model.values
        assert not np.array_equal(va, vb)

    def test_predict_sequence_returns_known_label(self):
        ds = _dataset(n_patients=2, seed=10)
        trained = train_protocol(ds.sequences, _tiny_net_config(), ds.joint_map)
        seq = ds.sequences[0]
        (scores,) = score_sequences(trained, [seq], ds.joint_map)
        key = seq.label.kind.value
        assert list(scores) == [key] == list(trained.keys_for(seq))
        labels = (
            STATIC_GESTURE_IDS
            if seq.label.kind is GestureKind.STATIC
            else DYNAMIC_GESTURE_IDS
        )
        assert trained.classifiers["main"][key].labels == labels
        assert predict_label(scores[key], labels) in labels

    def test_divergence_names_model_epoch_and_step(self):
        ds = _dataset(n_patients=2, seed=10)
        seqs = list(ds.sequences)
        victim = [i for i, s in enumerate(seqs) if s.label.kind is GestureKind.DYNAMIC][5]
        coords = np.array(seqs[victim].coords)
        coords[3:6] = np.nan
        seqs[victim] = dataclasses.replace(seqs[victim], coords=coords)
        config = _tiny_net_config(train=TrainConfig(epochs=2, batch_size=8))
        jobs = []
        build = network_factory(config)

        def factory(job):
            jobs.append(job)
            return build(job)

        with pytest.raises(TrainingDivergedError) as raised:
            train_protocol(seqs, config, ds.joint_map, factory=factory, fold=2,
                           fold_name="fold2")
        job = jobs[-1]
        assert job.name == "fold2-dynamic"
        # The first batch of the first epoch's shuffled order holding a bad window.
        order = np.random.default_rng(np.random.SeedSequence(job.shuffle_seed)).permutation(
            len(job.x)
        )
        bad = np.flatnonzero(np.isnan(job.x[order]).any(axis=(1, 2)))
        step = bad[0] // 8 + 1
        assert step > 1
        assert str(raised.value).startswith(
            f"fold2-dynamic: epoch 1, step {step}: non-finite loss or gradient"
        )


class TestForkedFits:
    """The one-vs-rest suite fitted by forked workers: the same models, in
    the same order, as the in-process loop fits."""

    def test_two_workers_fit_what_one_fits(self, monkeypatch):
        ds = _dataset(n_patients=2, seed=10)
        config = _tiny_net_config(protocol=Protocol.MULTICLASS_BINARY, long_window=32,
                                  rebalance=True, train=TrainConfig(epochs=1, batch_size=64))
        pools = []
        fit_in_workers = pipeline._fit_in_workers
        monkeypatch.setattr(pipeline, "_fit_in_workers", lambda jobs, factory, workers: (
            pools.append(workers) or fit_in_workers(jobs, factory, workers)))
        trained = {}
        for cpus in (1, 2):
            monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
            trained[cpus] = train_protocol(ds.sequences, config, ds.joint_map, fold=1,
                                           fold_name="fold1")
        assert pools == [2, 2]  # one pool per route, none at one CPU
        for route in ("short", "long"):
            assert list(trained[2].classifiers[route]) == list(ALL_GESTURE_IDS)
            for gid in ALL_GESTURE_IDS:
                one, two = (trained[cpus].classifiers[route][gid] for cpus in (1, 2))
                assert one.labels == two.labels == (gid,)
                assert one.model.values.tobytes() == two.model.values.tobytes()

    def test_a_wrapped_fit_sees_every_fit_in_process(self, monkeypatch):
        """A caller that wraps ``pipeline.fit`` -- a tracer, a profiler --
        keeps the fits in its own process, where the wrapper runs."""
        ds = _dataset(n_patients=2, seed=10)
        config = _tiny_net_config(protocol=Protocol.MULTICLASS_BINARY,
                                  train=TrainConfig(epochs=1, batch_size=64))
        calls = []
        fit = pipeline.fit
        monkeypatch.setattr(pipeline, "fit", lambda *args: calls.append(1) or fit(*args))
        monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
        trained = train_protocol(ds.sequences, config, ds.joint_map)
        assert len(calls) == len(ALL_GESTURE_IDS)
        assert list(trained.classifiers["main"]) == list(ALL_GESTURE_IDS)


def _untrained_factory(config):
    """Real networks with their seeded initial weights, not trained."""

    def build(job):
        n_classes = 1 if job.head is HeadKind.SIGMOID else len(job.labels)
        model = init_parameters(config.arch_spec(n_classes), job.head, seed=job.init_seed)
        return NetworkClassifier(labels=job.labels, model=model)

    return build


class _RecordingOracle(OracleClassifier):
    """Oracle that records the window gesture ids of every block it scores."""

    def __init__(self, labels, calls):
        super().__init__(labels=labels)
        self.calls = calls

    def predict_windows(self, x, gids):
        assert len(x) == len(gids)
        self.calls.append(np.array(gids))
        return super().predict_windows(x, gids)


class TestBlockScoring:
    # Window 4, stride 1: static sequences (20-30 frames) have 17-27 windows,
    # so two or three share a block; dynamic ones (70-90 frames) have 67-87,
    # more than a block holds.
    PREP = _fast_prep(window=WindowSpec(4, stride=1))

    @staticmethod
    def _long_and_short(seed):
        return _dataset(n_patients=1, seed=seed, frames_static=(20, 30),
                        frames_dynamic=(70, 90))

    @pytest.mark.parametrize("long_window", [None, 8], ids=["one-route", "two-routes"])
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    @pytest.mark.parametrize("net", list(NetKind), ids=lambda n: n.value)
    def test_matches_one_sequence_at_a_time(self, net, protocol, long_window):
        ds = self._long_and_short(seed=21)
        config = RunConfig(
            protocol=protocol, net=net, prep=self.PREP, long_window=long_window,
            route_threshold=80 if long_window else None, lstm_hidden=6,
            tcn_channels=6, tcn_kernel=2, tcn_dilations=(1, 2), seed=3,
        )
        trained = train_protocol(
            ds.sequences, config, ds.joint_map, factory=_untrained_factory(config)
        )
        routes = {trained.route_name(seq) for seq in ds.sequences}
        assert routes == ({"short", "long"} if long_window else {"main"})

        scores = score_sequences(trained, ds.sequences, ds.joint_map)
        assert len(scores) == len(ds.sequences)
        for seq, got in zip(ds.sequences, scores):
            route = trained.route_name(seq)
            assert tuple(got) == trained.keys_for(seq)
            x = pipeline._features(config.routes()[route], seq, ds.joint_map)
            for key, mean in got.items():
                want = forward(trained.classifiers[route][key].model, x).mean(axis=0)
                assert np.max(np.abs(mean - want)) <= 1e-12

    def test_blocks_hold_at_most_a_block_of_windows(self):
        ds = self._long_and_short(seed=22)
        calls = {gid: [] for gid in ALL_GESTURE_IDS}
        config = RunConfig(protocol=Protocol.MULTICLASS_BINARY, prep=self.PREP)
        trained = TrainedProtocol(config=config, classifiers={
            "main": {gid: _RecordingOracle((gid,), calls[gid]) for gid in ALL_GESTURE_IDS}
        })

        # The dataset lists static gestures first; reversed, the short static
        # sequences come last and end in a partial block.
        seqs = ds.sequences[::-1]
        suite = evaluate_binary(trained, seqs, ds.joint_map)

        assert suite.mean_accuracy == 1.0
        blocks = calls[ALL_GESTURE_IDS[0]]
        for gid in ALL_GESTURE_IDS:  # every classifier sees the same blocks
            assert len(calls[gid]) == len(blocks)
            assert all(np.array_equal(a, b) for a, b in zip(calls[gid], blocks))
        # One patient: a gesture id names one sequence.
        n_windows = {s.label.id: len(pipeline._features(self.PREP, s, ds.joint_map))
                     for s in seqs}
        assert np.array_equal(
            np.concatenate(blocks),
            np.repeat([s.label.id for s in seqs], [n_windows[s.label.id] for s in seqs]),
        )
        sizes = [len(b) for b in blocks]
        for block in blocks:
            assert len(block) <= SCORE_BLOCK_WINDOWS or len(set(block)) == 1
        for block, following in zip(blocks, blocks[1:]):
            # Greedy: the next sequence would not have fitted.
            assert len(block) + n_windows[following[0]] > SCORE_BLOCK_WINDOWS
        assert max(sizes) > SCORE_BLOCK_WINDOWS  # a sequence longer than a block
        assert any(len(set(b)) > 1 for b in blocks)  # blocks of several sequences
        assert sizes[-1] < SCORE_BLOCK_WINDOWS  # a partial last block


class TestModelSetSerialization:
    def test_round_trip_identical_predictions(self, tmp_path):
        ds = _dataset(n_patients=2, seed=13)
        config = _tiny_net_config()
        trained = train_protocol(ds.sequences, config, ds.joint_map)
        index_path = save_model_set(trained, tmp_path)
        assert index_path.name == "modelset.json"
        loaded = load_model_set(tmp_path)
        assert loaded.config == config
        assert set(loaded.classifiers) == {"main"}
        assert set(loaded.classifiers["main"]) == {"static", "dynamic"}
        seqs = ds.sequences[:8]
        for got, want in zip(score_sequences(loaded, seqs, ds.joint_map),
                             score_sequences(trained, seqs, ds.joint_map)):
            assert got.keys() == want.keys()
            for key in want:
                assert np.array_equal(got[key], want[key])

    def test_round_trip_with_length_routing(self, tmp_path):
        ds = _dataset(n_patients=2, seed=14)
        config = _tiny_net_config(
            long_window=32, train=TrainConfig(epochs=1, batch_size=64)
        )
        trained = train_protocol(ds.sequences, config, ds.joint_map)
        save_model_set(trained, tmp_path)
        loaded = load_model_set(tmp_path)
        assert loaded.config == config
        assert loaded.config.routes()["long"].window.length == 32
        assert list(loaded.classifiers) == ["short", "long"]
        assert all(set(by_key) == {"static", "dynamic"}
                   for by_key in loaded.classifiers.values())
        index = json.loads((tmp_path / "modelset.json").read_text())
        assert index["router_threshold"] == config.router_threshold == 16
        assert [(e["route"], e["key"]) for e in index["models"]] == [
            ("short", "static"), ("short", "dynamic"), ("long", "static"), ("long", "dynamic")
        ]
        ckpts = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert ckpts == ["long_dynamic.ckpt", "long_static.ckpt",
                        "short_dynamic.ckpt", "short_static.ckpt"]

    def test_oracle_models_are_not_serializable(self, tmp_path):
        ds = _dataset(n_patients=2, seed=15)
        trained = train_protocol(
            ds.sequences, RunConfig(prep=_fast_prep(), seed=1), ds.joint_map,
            factory=oracle_factory,
        )
        with pytest.raises(TypeError, match="OracleClassifier"):
            save_model_set(trained, tmp_path)

    def test_load_rejects_non_modelset_dir(self, tmp_path):
        (tmp_path / "modelset.json").write_text('{"format": "something-else"}')
        with pytest.raises(DataError, match="not a skelgest-modelset index"):
            load_model_set(tmp_path)
