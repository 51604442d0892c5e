"""End-to-end classification pipeline and patient-held-out cross-validation.

Two evaluation protocols:

- ``MULTICLASS``: two softmax models per run, one over the 15 static gestures
  and one over the 14 dynamic gestures; each test sequence is routed to the
  model matching its ground-truth kind, and the headline number is the
  unweighted mean of the two model accuracies.
- ``MULTICLASS_BINARY``: 29 one-vs-rest sigmoid models, one per gesture; each
  is scored on every test sequence (positive iff its mean window probability
  exceeds 0.5) and the suite average weights all 29 accuracies equally.

A sequence's prediction always aggregates its windows by averaging the
per-window probability vectors before the argmax/threshold, so long
sequences are not penalized for having more windows.  Scoring runs each
classifier once per block of at most ``SCORE_BLOCK_WINDOWS`` test windows.
Optional length routing trains the whole protocol twice -- once per window
length -- and dispatches each test sequence by its raw frame count.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol as TypingProtocol, Sequence

import numpy as np

from .skeleton import (
    ALL_GESTURE_IDS,
    DEFAULT_JOINT_MAP,
    DYNAMIC_GESTURE_IDS,
    STATIC_GESTURE_IDS,
    GestureKind,
    GestureSequence,
    JointIndexMap,
)
from .ingest import DataError, Dataset, FoldSplit
from .preprocess import preprocess_sequence
from .config import (
    PrepSettings,
    Protocol,
    RunConfig,
    config_digest,
    read_index,
    write_index,
)
from .config import config_from_dict  # noqa: F401 -- imported from here by perfbench/run.py
from . import neuralnet
from .neuralnet import (
    HeadKind,
    ModelParameters,
    TrainingDivergedError,
    fit,
    forward,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from .neuralnet.common import one_blas_thread
from .metrics import (
    BinaryClassResult,
    BinarySuiteMetrics,
    ConfusionMatrix,
    EvaluationReport,
    FoldReport,
    confusion,
)


class MissingClassError(RuntimeError):
    """A fold's training split lacks examples of a class its model must learn."""


class FoldCoverageError(RuntimeError):
    """The fold assignment leaves some fold without usable train or test data."""


@dataclass(frozen=True)
class TrainJob:
    """One model's training inputs, handed to a classifier factory; its
    classifier fills ``TrainedProtocol.classifiers[route][key]``.

    The 29 one-vs-rest jobs of a route share one ``x`` and each names the
    ``rows`` it trains on, so a forked worker inherits the windows instead
    of receiving a copy of them.
    """

    route: str
    key: str
    name: str
    labels: tuple[str, ...]
    head: HeadKind
    x: np.ndarray  # (N, W, D) feature windows
    targets: np.ndarray  # one per row of `windows()`
    init_seed: int
    shuffle_seed: int
    rows: np.ndarray | None = None  # the rows of `x` to train on; None: all

    def windows(self) -> np.ndarray:
        """The (len(targets), W, D) windows this job trains on."""
        return self.x if self.rows is None else self.x[self.rows]


class SequenceClassifier(TypingProtocol):
    """Anything that maps feature windows to class probabilities."""

    labels: tuple[str, ...]

    def predict_windows(self, x: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Return (N, K) probabilities, one row per window of ``x`` (N, W, D);
        ``gids`` (N,) holds the true gesture id of each window's sequence."""
        ...


ClassifierFactory = Callable[[TrainJob], SequenceClassifier]


def _features(
    prep: PrepSettings, seq: GestureSequence, joint_map: JointIndexMap
) -> np.ndarray:
    """The sequence's (n, W, D) feature windows."""
    return preprocess_sequence(
        seq,
        prep.method,
        prep.window,
        joint_map,
        savgol_spec=prep.savgol,
        include_confidence=prep.include_confidence,
    )


def stack_windows(per_sequence: Sequence[np.ndarray]) -> np.ndarray:
    """(N, W, D) array from the (n, W, D) windows of several sequences."""
    if not per_sequence:
        raise ValueError("no windows to stack")
    return np.concatenate(per_sequence)


@dataclass
class NetworkClassifier:
    """A trained neural model plus the label order its outputs refer to."""

    labels: tuple[str, ...]
    model: ModelParameters

    def predict_windows(self, x: np.ndarray, gids: np.ndarray) -> np.ndarray:
        return forward(self.model, x)


@dataclass
class OracleClassifier:
    """Label-reading stand-in for a trained model.

    Emits probability 1 for the true class of each window's sequence (for a
    one-vs-rest model, whose single label is its positive class: 1 iff the
    sequence is that class), which makes overall pipeline plumbing testable
    independently of training quality: with this classifier substituted,
    every evaluation metric must come out perfect.
    """

    labels: tuple[str, ...]

    def predict_windows(self, x: np.ndarray, gids: np.ndarray) -> np.ndarray:
        return (np.asarray(gids)[:, None] == np.array(self.labels)).astype(np.float64)


def oracle_factory(job: TrainJob) -> SequenceClassifier:
    """Classifier factory that ignores training data entirely."""
    return OracleClassifier(labels=job.labels)


def network_factory(config: RunConfig) -> ClassifierFactory:
    """Factory that initializes and fits the configured architecture."""

    def build(job: TrainJob) -> SequenceClassifier:
        n_classes = 1 if job.head is HeadKind.SIGMOID else len(job.labels)
        spec = config.arch_spec(n_classes)
        model = init_parameters(spec, job.head, seed=job.init_seed)
        train_cfg = replace(config.train, shuffle_seed=job.shuffle_seed)
        try:
            result = fit(model, job.windows(), job.targets, train_cfg)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"{job.name}: {exc}") from None
        return NetworkClassifier(labels=job.labels, model=result.model)

    return build


def aggregate_windows(window_probs: np.ndarray) -> np.ndarray:
    """Mean probability vector across a sequence's windows."""
    probs = np.asarray(window_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError(f"expected (N, K) window probabilities, got {probs.shape}")
    return probs.mean(axis=0)


def predict_label(mean_probs: np.ndarray, labels: Sequence[str]) -> str:
    """Argmax over the averaged probabilities; ties go to the lowest index."""
    if len(mean_probs) != len(labels):
        raise ValueError(f"{len(mean_probs)} probabilities vs {len(labels)} labels")
    return labels[int(np.argmax(mean_probs))]


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _assert_patient_disjoint(
    train_patients: Sequence[int], test_patients: Sequence[int]
) -> None:
    """Hard runtime guarantee that no patient appears on both sides of a fold.

    Raised explicitly, not with ``assert``, so that ``python -O`` keeps it.
    """
    overlap = set(train_patients) & set(test_patients)
    if overlap:
        raise AssertionError(
            f"patients {sorted(overlap)} appear in both train and test splits; "
            "patient-held-out evaluation is invalid"
        )


@dataclass
class TrainedProtocol:
    """A run's trained classifiers by route and key, the run config, which
    defines the routes, and the joint map whose chin the models' features
    were referenced to."""

    config: RunConfig
    classifiers: dict[str, dict[str, SequenceClassifier]]
    joint_map: JointIndexMap = DEFAULT_JOINT_MAP

    def route_name(self, seq: GestureSequence) -> str:
        """``main``, or by the sequence's raw frame count ``short`` or ``long``."""
        threshold = self.config.router_threshold
        if threshold is None:
            return "main"
        return "short" if seq.n_frames <= threshold else "long"

    def keys_for(self, seq: GestureSequence) -> tuple[str, ...]:
        """The classifiers that score ``seq``: the model of its kind, or all
        29 one-vs-rest models."""
        if self.config.protocol is Protocol.MULTICLASS:
            return (seq.label.kind.value,)
        return ALL_GESTURE_IDS


def _kind_labels(kind: GestureKind) -> tuple[str, ...]:
    return STATIC_GESTURE_IDS if kind is GestureKind.STATIC else DYNAMIC_GESTURE_IDS


def _stack_features(
    seqs: Sequence[GestureSequence], per_sequence: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The sequences' (n, W, D) windows as one (N, W, D) array, and each
    window's gesture id."""
    gids = np.repeat([seq.label.id for seq in seqs], [len(f) for f in per_sequence])
    return stack_windows(per_sequence), gids


def _rebalanced_indices(targets: np.ndarray) -> np.ndarray:
    """Duplicate positive examples (cyclically) until they match the negatives."""
    pos = np.flatnonzero(targets > 0.5)
    neg = np.flatnonzero(targets <= 0.5)
    if len(pos) == 0 or len(neg) == 0 or len(pos) >= len(neg):
        return np.arange(targets.size)
    upsampled = np.resize(pos, len(neg))
    return np.sort(np.concatenate([neg, upsampled]))


def _route_jobs(
    train_seqs: Sequence[GestureSequence],
    config: RunConfig,
    prep: PrepSettings,
    joint_map: JointIndexMap,
    route: str,
    prefix: str,
    seed_parts: tuple[int, int, int],
) -> Iterator[TrainJob]:
    """One route's jobs: static then dynamic, or one per gesture in
    ``ALL_GESTURE_IDS`` order.  A job's windows are stacked when it is drawn;
    the one-vs-rest jobs all share the stack made for the first."""

    def job(key, idx, labels, head, x, targets, rows=None):
        return TrainJob(
            route=route,
            key=key,
            name=f"{prefix}-{key}",
            labels=labels,
            head=head,
            x=x,
            targets=targets if rows is None else targets[rows],
            init_seed=_derived_seed(*seed_parts, idx, 0),
            shuffle_seed=_derived_seed(*seed_parts, idx, 1),
            rows=rows,
        )

    if config.protocol is Protocol.MULTICLASS:
        for kind_idx, kind in enumerate((GestureKind.STATIC, GestureKind.DYNAMIC)):
            labels = _kind_labels(kind)
            subset = [s for s in train_seqs if s.label.kind is kind]
            present = {s.label.id for s in subset}
            missing = [gid for gid in labels if gid not in present]
            if missing:
                raise MissingClassError(
                    f"{prefix}: training split has no examples of {missing} "
                    f"for the {kind.value} model"
                )
            x, gids = _stack_features(
                subset, [_features(prep, s, joint_map) for s in subset]
            )
            index = {gid: i for i, gid in enumerate(labels)}
            targets = np.array([index[gid] for gid in gids], dtype=np.int64)
            yield job(kind.value, kind_idx, labels, HeadKind.SOFTMAX, x, targets)
        return
    if not train_seqs:
        raise MissingClassError(f"{prefix}: training split produced no windows")
    x, gids = _stack_features(
        train_seqs, [_features(prep, s, joint_map) for s in train_seqs]
    )
    for class_idx, gid in enumerate(ALL_GESTURE_IDS):
        targets = (gids == gid).astype(np.float64)
        n_pos = int(targets.sum())
        if n_pos == 0 or n_pos == len(targets):
            raise MissingClassError(
                f"{prefix}: one-vs-rest model for {gid} needs both positive "
                f"and negative training examples (got {n_pos} positives "
                f"of {len(targets)})"
            )
        rows = _rebalanced_indices(targets) if config.rebalance else None
        yield job(gid, class_idx, (gid,), HeadKind.SIGMOID, x, targets, rows)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which
    ``taskset`` sets."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(config: RunConfig, factory: ClassifierFactory | None) -> int:
    """How many forked workers fit each route's jobs; 1 fits them in process.

    Only the one-vs-rest suite of the network factory is forked: its 29
    jobs share one stack of windows, which the workers inherit.  The two
    multiclass jobs stay in process, and so do fits by another factory or
    through a wrapped ``pipeline.fit`` (a tracer or profiler sees every
    call only in its own process).  The count does not change any result.
    """
    if (
        factory is not None
        or fit is not neuralnet.fit
        or config.protocol is not Protocol.MULTICLASS_BINARY
        or not hasattr(os, "fork")
    ):
        return 1
    return min(_cpus(), len(ALL_GESTURE_IDS))


# A forked worker's factory and jobs, set when the worker starts.
_worker_jobs: tuple[ClassifierFactory, list[TrainJob]] | None = None


def _start_worker(factory: ClassifierFactory, jobs: list[TrainJob]) -> None:
    global _worker_jobs
    _worker_jobs = (factory, jobs)
    # Ctrl-C reaches the whole process group.  A worker then ends at once,
    # which breaks the pool, instead of fitting its queued jobs first.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _fit_job(index: int) -> SequenceClassifier:
    factory, jobs = _worker_jobs
    return factory(jobs[index])


def _fit_in_workers(
    jobs: list[TrainJob], factory: ClassifierFactory, workers: int
) -> dict[str, SequenceClassifier]:
    """Each job's classifier by its key, in job order, fitted by ``workers``
    forked processes.

    Each worker inherits the factory and the jobs -- and so the windows the
    jobs share -- through fork, receives job indices and sends back only
    the classifier.  Results are read in job order, so a failure raises the
    first failing job's error, as the in-process loop does.  The workers
    are forked at one BLAS thread, the count that `fit` runs at, and are
    joined before this returns or raises.
    """
    # Imported here, where a pool is made: these modules add about 1 MB to
    # the peak RSS of a run that forks no worker.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with one_blas_thread(), ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(factory, jobs),
    ) as pool:
        fitted = pool.map(_fit_job, range(len(jobs)))
        return dict(zip([job.key for job in jobs], fitted))


def train_protocol(
    train_seqs: Sequence[GestureSequence],
    config: RunConfig,
    joint_map: JointIndexMap,
    factory: ClassifierFactory | None = None,
    fold: int = 0,
    fold_name: str = "run",
) -> TrainedProtocol:
    """Train every model the configured protocol requires on one split.

    Routes (`RunConfig.routes`) are trained one after another, so a route's
    windows are freed before the next route's are stacked.  Within a route,
    jobs are drawn lazily and fitted in order (`_route_jobs`), or all at
    once in forked workers (`_pool_size`).
    """
    workers = _pool_size(config, factory)
    if factory is None:
        factory = network_factory(config)
    classifiers: dict[str, dict[str, SequenceClassifier]] = {}
    for route_tag, (route, prep) in enumerate(config.routes().items()):
        prefix = fold_name if route == "main" else f"{fold_name}-{route}"
        jobs = _route_jobs(train_seqs, config, prep, joint_map, route, prefix,
                           (config.seed, fold, route_tag))
        if workers > 1:
            classifiers[route] = _fit_in_workers(list(jobs), factory, workers)
            continue
        classifiers[route] = {}
        for job in jobs:
            classifiers[route][job.key] = factory(job)
            del job  # free its windows before the next job's are stacked
    return TrainedProtocol(config=config, classifiers=classifiers, joint_map=joint_map)


# Scoring holds at most this many windows at once, so its memory does not grow
# with the test set: the 5,271 windows of 18 test patients at window 16 would
# take about 19 MB stacked at once.
SCORE_BLOCK_WINDOWS = 64


def _feature_blocks(
    indexed: Iterable[tuple[int, GestureSequence]],
    prep: PrepSettings,
    joint_map: JointIndexMap,
) -> Iterator[list[tuple[int, GestureSequence, np.ndarray]]]:
    """Featurize ``(index, sequence)`` pairs in order and yield them in runs
    of ``(index, sequence, (n, W, D) windows)`` that hold at most
    ``SCORE_BLOCK_WINDOWS`` windows; a longer sequence is a run of its own."""
    block: list[tuple[int, GestureSequence, np.ndarray]] = []
    n_windows = 0
    for i, seq in indexed:
        feats = _features(prep, seq, joint_map)
        if block and n_windows + len(feats) > SCORE_BLOCK_WINDOWS:
            yield block
            block, n_windows = [], 0
        block.append((i, seq, feats))
        n_windows += len(feats)
    if block:
        yield block


def score_sequences(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
) -> list[dict[str, np.ndarray]]:
    """Per test sequence, in order, the mean window probabilities under each
    classifier that scores it (``TrainedProtocol.keys_for``).

    Sequences are grouped by route and by the classifiers they need, then
    featurized in blocks (``_feature_blocks``); each classifier runs once per
    block, and each sequence's rows are averaged on their own.
    """
    groups: dict[tuple[str, tuple[str, ...]], list[int]] = {}
    for i, seq in enumerate(test_seqs):
        groups.setdefault((trained.route_name(seq), trained.keys_for(seq)), []).append(i)

    preps = trained.config.routes()
    scores: list[dict[str, np.ndarray]] = [{} for _ in test_seqs]
    for (route, keys), members in groups.items():
        indexed = ((i, test_seqs[i]) for i in members)
        for block in _feature_blocks(indexed, preps[route], joint_map):
            x, gids = _stack_features(
                [seq for _, seq, _ in block], [feats for _, _, feats in block]
            )
            for key in keys:
                probs = trained.classifiers[route][key].predict_windows(x, gids)
                start = 0
                for i, _, feats in block:
                    scores[i][key] = aggregate_windows(probs[start : start + len(feats)])
                    start += len(feats)
    return scores


def evaluate_multiclass(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
) -> tuple[ConfusionMatrix, ConfusionMatrix]:
    """Static and dynamic confusion matrices over the test sequences, each
    sequence predicted by the argmax label of the model of its kind."""
    true_by_kind: dict[GestureKind, list[str]] = {k: [] for k in GestureKind}
    pred_by_kind: dict[GestureKind, list[str]] = {k: [] for k in GestureKind}
    for seq, scores in zip(test_seqs, score_sequences(trained, test_seqs, joint_map)):
        key = seq.label.kind.value
        labels = trained.classifiers[trained.route_name(seq)][key].labels
        true_by_kind[seq.label.kind].append(seq.label.id)
        pred_by_kind[seq.label.kind].append(predict_label(scores[key], labels))
    static_cm, dynamic_cm = (
        confusion(true_by_kind[kind], pred_by_kind[kind], _kind_labels(kind))
        for kind in (GestureKind.STATIC, GestureKind.DYNAMIC)
    )
    return static_cm, dynamic_cm


def evaluate_binary(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
) -> BinarySuiteMetrics:
    """Score all 29 one-vs-rest models on every test sequence."""
    scores = score_sequences(trained, test_seqs, joint_map)
    results = []
    for gid in ALL_GESTURE_IDS:
        cells = Counter(  # (actually positive, predicted positive)
            (seq.label.id == gid, float(seq_scores[gid][0]) > 0.5)
            for seq, seq_scores in zip(test_seqs, scores)
        )
        results.append(BinaryClassResult(
            gesture_id=gid, tp=cells[True, True], fp=cells[False, True],
            tn=cells[False, False], fn=cells[True, False],
        ))
    return BinarySuiteMetrics(tuple(results))


def evaluate_fold(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
    fold: int,
    train_patients: tuple[int, ...],
    test_patients: tuple[int, ...],
) -> FoldReport:
    """Score the trained protocol on one fold's test sequences."""
    if trained.config.protocol is Protocol.MULTICLASS:
        static_cm, dynamic_cm = evaluate_multiclass(trained, test_seqs, joint_map)
        return FoldReport(
            fold=fold,
            train_patients=train_patients,
            test_patients=test_patients,
            static_accuracy=static_cm.accuracy,
            dynamic_accuracy=dynamic_cm.accuracy,
            static_confusion=static_cm,
            dynamic_confusion=dynamic_cm,
        )
    return FoldReport(
        fold=fold,
        train_patients=train_patients,
        test_patients=test_patients,
        binary=evaluate_binary(trained, test_seqs, joint_map),
    )


def cross_validate(
    ds: Dataset,
    folds: FoldSplit,
    config: RunConfig,
    factory: ClassifierFactory | None = None,
) -> EvaluationReport:
    """Patient-held-out cross-validation: each present fold is tested once.

    Every fold's split keeps patients strictly disjoint between train and
    test (verified at runtime), trains the full protocol from scratch, and
    evaluates on the held-out patients only.
    """
    present = folds.present_folds()
    if len(present) < 2:
        raise FoldCoverageError(
            f"need at least 2 populated folds to cross-validate, got {len(present)} "
            f"(patients: {folds.patients})"
        )
    fold_of = folds.fold_of_patient
    fold_reports: list[FoldReport] = []
    for test_fold in present:
        test_patients = tuple(p for p in folds.patients if fold_of[p] == test_fold)
        train_patients = tuple(p for p in folds.patients if fold_of[p] != test_fold)
        _assert_patient_disjoint(train_patients, test_patients)
        train_set, test_set = set(train_patients), set(test_patients)
        train_seqs = [s for s in ds.sequences if s.patient_id in train_set]
        test_seqs = [s for s in ds.sequences if s.patient_id in test_set]
        if not train_seqs or not test_seqs:
            raise FoldCoverageError(
                f"fold {test_fold}: empty split "
                f"(train={len(train_seqs)}, test={len(test_seqs)} sequences)"
            )
        trained = train_protocol(
            train_seqs,
            config,
            ds.joint_map,
            factory=factory,
            fold=test_fold,
            fold_name=f"fold{test_fold}",
        )
        fold_reports.append(
            evaluate_fold(
                trained, test_seqs, ds.joint_map, test_fold, train_patients, test_patients
            )
        )
    return EvaluationReport(**config.report_header(), folds=tuple(fold_reports))


def save_model_set(
    trained: TrainedProtocol, out_dir: str | Path, dataset: dict | None = None
) -> Path:
    """Write every trained model plus an index file; returns the index path.

    ``dataset`` (root, manifest, checksum of the training data) is recorded
    in the index as given.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_digest(trained.config)
    entries = []
    for route, by_key in trained.classifiers.items():
        for key, clf in by_key.items():
            if not isinstance(clf, NetworkClassifier):
                raise TypeError(
                    f"cannot checkpoint a {type(clf).__name__}; only trained "
                    "network classifiers are serializable"
                )
            fname = f"{route}_{key}.ckpt"
            save_checkpoint(
                out / fname,
                clf.model,
                extra={
                    "labels": list(clf.labels),
                    "route": route,
                    "key": key,
                    "seed": trained.config.seed,
                    "config_digest": digest,
                },
            )
            entries.append({"route": route, "key": key, "file": fname})
    return write_index(
        out / "modelset.json", "skelgest-modelset", trained.config,
        router_threshold=trained.config.router_threshold, models=entries,
        dataset=dataset, chin_index=trained.joint_map.chin_index,
    )


def load_model_set(model_dir: str | Path) -> TrainedProtocol:
    """Rebuild a TrainedProtocol from `save_model_set` output."""
    model_dir = Path(model_dir)
    index_path = model_dir / "modelset.json"
    index, config = read_index(index_path, "skelgest-modelset", ("models",))
    classifiers: dict[str, dict[str, SequenceClassifier]] = {r: {} for r in config.routes()}
    for entry in index["models"]:
        route = entry["route"]
        if route not in classifiers:
            raise DataError(
                f"{index_path}: unknown route {route!r}; its configuration has "
                f"{', '.join(sorted(classifiers))}"
            )
        model, extra = load_checkpoint(model_dir / entry["file"])
        classifiers[route][entry["key"]] = NetworkClassifier(
            labels=tuple(extra["labels"]), model=model
        )
    keys = ("static", "dynamic") if config.protocol is Protocol.MULTICLASS else ALL_GESTURE_IDS
    for route, by_key in classifiers.items():
        if missing := [key for key in keys if key not in by_key]:
            raise DataError(f"{index_path}: no {route!r} model for {missing[0]!r}")
    joint_map = replace(DEFAULT_JOINT_MAP, chin_index=index["chin_index"])
    return TrainedProtocol(config=config, classifiers=classifiers, joint_map=joint_map)
