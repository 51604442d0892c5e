"""End-to-end classification pipeline and patient-held-out cross-validation.

Two evaluation protocols, each described by `config.Protocol`: its models
and the gesture ids that each outputs, their head, and the models that
score a performance.  Planning, scoring, counting (`count_model`), fold
reports and model-set loading read that description, not the protocol:

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
classifier once per block of at most ``SCORE_BLOCK_WINDOWS`` test windows of
one patient.  A run featurizes each sequence once per route, then fits
every model of every fold in one pool of forked workers (`pool.fork_map`,
which `ingest.write_dataset` writes its frames files in too).  In
cross-validation each worker then scores, with the model it fitted, the
fold's test sequences that the model scores, and a fold's counts are the
sum of its models' counts.  A fixed model set is counted per patient
(`evaluate_model_set`).  Optional length routing trains the whole protocol
twice -- once per window length -- and dispatches each test sequence by its
raw frame count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Callable, Iterable, Iterator, Protocol as TypingProtocol, Sequence, TypeVar,
)

import numpy as np

from .skeleton import DEFAULT_JOINT_MAP, GestureLabel, GestureSequence, JointIndexMap
from .ingest import DataError, Dataset, FoldSplit, ManifestEntry, load_entries
from . import preprocess
from .preprocess import DegenerateReferenceError, WindowSpec, preprocess_sequence
from .config import (
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
from .pool import WorkerLostError, _cpus, fork_map
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

    A job is planned with ``x`` None and given its windows where it is
    fitted (`_fit_jobs`).  The 29 one-vs-rest jobs of a route share one
    ``x`` and each names the ``rows`` it trains on.
    """

    route: str
    key: str
    name: str
    labels: tuple[str, ...]
    head: HeadKind
    x: np.ndarray | None  # (N, W, D) feature windows; None while planned
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
    config: RunConfig, window: WindowSpec, seq: GestureSequence, joint_map: JointIndexMap
) -> np.ndarray:
    """The sequence's (n, W, D) feature windows under ``config`` with one of
    its routes' windows; a zero chin coordinate under a chin-ratio method is
    a :class:`DataError` naming the sequence."""
    try:
        return preprocess_sequence(
            seq,
            config.method,
            window,
            joint_map,
            savgol_spec=config.savgol,
            include_confidence=config.include_confidence,
        )
    except DegenerateReferenceError as exc:
        raise DataError(f"patient {seq.patient_id} gesture {seq.label.id}: {exc}") from None


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


def _window_gids(seqs: Sequence[GestureSequence], windows: Sequence[np.ndarray]) -> np.ndarray:
    """The gesture id of each window of the sequences' (n, W, D) windows."""
    return np.repeat([seq.label.id for seq in seqs], [len(w) for w in windows])


def _rebalanced_indices(targets: np.ndarray) -> np.ndarray:
    """Duplicate positive examples (cyclically) until they match the negatives."""
    pos = np.flatnonzero(targets > 0.5)
    neg = np.flatnonzero(targets <= 0.5)
    if len(pos) == 0 or len(neg) == 0 or len(pos) >= len(neg):
        return np.arange(targets.size)
    upsampled = np.resize(pos, len(neg))
    return np.sort(np.concatenate([neg, upsampled]))


_Split = tuple[int, str, Sequence[int], Sequence[int]]  # fold, name, train and test indices
_Planned = tuple[int, TrainJob, tuple[np.ndarray, ...]]  # split, job, its windows


def _route_jobs(
    train_seqs: Sequence[GestureSequence], per_sequence: Sequence[np.ndarray],
    config: RunConfig, route: str, prefix: str, seed_parts: tuple[int, int, int],
) -> Iterator[tuple[TrainJob, tuple[np.ndarray, ...]]]:
    """One route's jobs, one per model of the protocol in job order, each
    planned with the windows of the sequences that the model scores, which
    jobs on the same sequences share.  A class that the split cannot train
    is a `MissingClassError`."""
    protocol = config.protocol
    shared: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
    for idx, (key, labels) in enumerate(protocol.models.items()):
        subset = tuple(i for i, seq in enumerate(train_seqs)
                       if key in protocol.keys_for(seq.label))
        members = shared.setdefault(subset, tuple(per_sequence[i] for i in subset))
        gids = _window_gids([train_seqs[i] for i in subset], members)
        rows = None
        if protocol.head is HeadKind.SOFTMAX:
            if missing := [gid for gid in labels if gid not in gids]:
                raise MissingClassError(f"{prefix}: training split has no examples of "
                                        f"{missing} for the {key} model")
            index = {gid: i for i, gid in enumerate(labels)}
            targets = np.array([index[gid] for gid in gids], dtype=np.int64)
        else:
            if not subset:
                raise MissingClassError(f"{prefix}: training split produced no windows")
            targets = (gids == key).astype(np.float64)
            n_pos = int(targets.sum())
            if n_pos == 0 or n_pos == len(targets):
                raise MissingClassError(f"{prefix}: one-vs-rest model for {key} needs both "
                                        "positive and negative training examples (got "
                                        f"{n_pos} positives of {len(targets)})")
            rows = _rebalanced_indices(targets) if config.rebalance else None
        yield TrainJob(route=route, key=key, name=f"{prefix}-{key}", labels=labels,
                       head=protocol.head, x=None,
                       targets=targets if rows is None else targets[rows],
                       init_seed=_derived_seed(*seed_parts, idx, 0),
                       shuffle_seed=_derived_seed(*seed_parts, idx, 1), rows=rows), members


def _plan(seqs: Sequence[GestureSequence], splits: Sequence[_Split], config: RunConfig,
          joint_map: JointIndexMap) -> tuple[dict[str, list[np.ndarray]], list[_Planned]]:
    """Each sequence's windows by route, featurized once, and every job of
    every split, by split, route and key (`_route_jobs`).  Every data error
    is raised here."""
    windows = {route: [_features(config, window, seq, joint_map) for seq in seqs]
               for route, window in config.routes().items()}
    planned = []
    for split, (fold, name, train, _) in enumerate(splits):
        for route_tag, route in enumerate(windows):
            prefix = name if route == "main" else f"{name}-{route}"
            jobs = _route_jobs([seqs[i] for i in train], [windows[route][i] for i in train],
                               config, route, prefix, (config.seed, fold, route_tag))
            planned += [(split, job, members) for job, members in jobs]
    return windows, planned


def _pool_size(items: int, in_process: bool = False) -> int:
    """How many forked workers `fork_map` gets for ``items`` items: one per
    CPU, and at most one per item.  It is 1 where the caller asks, and where
    a tracer or profiler has wrapped ``pipeline.fit``, ``forward`` or
    ``preprocess_sequence``, which it sees only in its own process.  The
    count does not change any result."""
    traced = (fit is not neuralnet.fit or forward is not neuralnet.forward
              or preprocess_sequence is not preprocess.preprocess_sequence)
    if in_process or traced:
        return 1
    return min(_cpus(), items)


R = TypeVar("R")


def _fit_jobs(
    planned: Sequence[_Planned],
    config: RunConfig,
    factory: ClassifierFactory | None,
    then: Callable[[int, TrainJob, SequenceClassifier], R],
) -> list[R]:
    """``then(split, job, classifier)`` for each planned job, in order, from
    one `fork_map` call, whose workers inherit the planned windows.  A job
    is given the stack of its windows, which a route's one-vs-rest jobs
    share, and is fitted by ``factory``, by default the network factory.  A
    caller's own factory runs in process, where it and its classifiers are
    the caller's."""
    build = factory or network_factory(config)
    stacked: list = [None, None]  # the last job's windows, and their stack

    def run(planned: Sequence[_Planned], i: int) -> R:
        split, job, members = planned[i]
        if stacked[0] is not members:
            stacked[:] = [None, None]  # freed before the next stack is made
            stacked[:] = [members, stack_windows(members)]
        return then(split, job, build(replace(job, x=stacked[1])))

    return fork_map(
        run, len(planned), planned, _pool_size(len(planned), factory is not None),
        lost=lambda i: f"{planned[i][1].name}: a fit worker of route "
        f"{planned[i][1].route!r} ended before sending back this job's classifier",
    )


def train_protocol(
    train_seqs: Sequence[GestureSequence],
    config: RunConfig,
    joint_map: JointIndexMap,
    factory: ClassifierFactory | None = None,
    fold: int = 0,
    fold_name: str = "run",
) -> TrainedProtocol:
    """Train every model the configured protocol requires on one split:
    its sequences featurized once per route and its jobs planned
    (`_plan`), then fitted in one pool (`_fit_jobs`)."""
    _, planned = _plan(train_seqs, [(fold, fold_name, range(len(train_seqs)), ())],
                       config, joint_map)
    fitted = _fit_jobs(planned, config, factory, lambda split, job, clf: clf)
    classifiers: dict[str, dict[str, SequenceClassifier]] = {r: {} for r in config.routes()}
    for (_, job, _), clf in zip(planned, fitted):
        classifiers[job.route][job.key] = clf
    return TrainedProtocol(config=config, classifiers=classifiers, joint_map=joint_map)


# Scoring holds at most this many windows at once, so its memory does not grow
# with the test set: the 5,271 windows of 18 test patients at window 16 would
# take about 19 MB stacked at once.
SCORE_BLOCK_WINDOWS = 64


_Featurized = tuple[int, GestureSequence, np.ndarray]  # index, sequence, its windows


def _feature_blocks(featurized: Iterable[_Featurized]) -> Iterator[list[_Featurized]]:
    """Yield ``(index, sequence, (n, W, D) windows)`` triples, in order, in
    runs that hold at most ``SCORE_BLOCK_WINDOWS`` windows; a longer
    sequence is a run of its own."""
    block: list[_Featurized] = []
    n_windows = 0
    for i, seq, feats in featurized:
        if block and n_windows + len(feats) > SCORE_BLOCK_WINDOWS:
            yield block
            block, n_windows = [], 0
        block.append((i, seq, feats))
        n_windows += len(feats)
    if block:
        yield block


@dataclass(frozen=True)
class ScoredSequence:
    """A test sequence's true label and its mean window probabilities under
    each classifier that scores it, by key (`Protocol.keys_for`)."""

    label: GestureLabel
    probs: dict[str, np.ndarray]


def score_sequences(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
    windows: Sequence[np.ndarray] | None = None,
) -> list[ScoredSequence]:
    """Each test sequence's scores, in order, by each classifier of its keys
    that ``trained`` holds.

    Sequences are grouped by route, by the classifiers they need and by
    patient, then featurized in blocks (``_feature_blocks``), unless
    ``windows`` holds each one's windows under its route; each classifier
    runs once per block, and each sequence's rows are averaged on their
    own.  A window's probabilities can depend, in the last bit, on the other
    windows of its block, so no block spans patients: scoring each patient,
    or each classifier, on its own changes no result.
    """
    groups: dict[tuple[str, tuple[str, ...], int], list[int]] = {}
    for i, seq in enumerate(test_seqs):
        route = trained.route_name(seq)
        keys = tuple(k for k in trained.config.protocol.keys_for(seq.label)
                     if k in trained.classifiers[route])
        groups.setdefault((route, keys, seq.patient_id), []).append(i)

    config = trained.config
    scores: list[dict[str, np.ndarray]] = [{} for _ in test_seqs]
    for (route, keys, _), members in groups.items():
        window = config.routes()[route]
        featurized = ((i, test_seqs[i], _features(config, window, test_seqs[i], joint_map)
                       if windows is None else windows[i]) for i in members)
        for block in _feature_blocks(featurized):
            _, seqs, per_sequence = zip(*block)
            x, gids = stack_windows(per_sequence), _window_gids(seqs, per_sequence)
            for key in keys:
                probs = trained.classifiers[route][key].predict_windows(x, gids)
                start = 0
                for i, _, feats in block:
                    scores[i][key] = aggregate_windows(probs[start : start + len(feats)])
                    start += len(feats)
    return [ScoredSequence(seq.label, probs) for seq, probs in zip(test_seqs, scores)]


def count_model(protocol: Protocol, key: str,
                scored: Sequence[ScoredSequence]) -> ConfusionMatrix | BinaryClassResult:
    """Model ``key``'s counts over the scored sequences that it scored: a
    confusion matrix over its labels, each sequence predicted by the argmax
    in the order that the model outputs them (`load_model_set` checks), or a
    one-vs-rest tally."""
    labels = protocol.models[key]
    mine = [seq for seq in scored if key in seq.probs]
    if protocol.head is HeadKind.SOFTMAX:
        return confusion([seq.label.id for seq in mine],
                         [predict_label(seq.probs[key], labels) for seq in mine], labels)
    cells = Counter((seq.label.id == key, float(seq.probs[key][0]) > 0.5)  # (true, predicted)
                    for seq in mine)
    return BinaryClassResult(gesture_id=key, tp=cells[True, True], fp=cells[False, True],
                             tn=cells[False, False], fn=cells[True, False])


def evaluate_multiclass(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
) -> tuple[ConfusionMatrix, ConfusionMatrix]:
    """Score the test sequences, then count each model (`count_model`)."""
    protocol, scored = trained.config.protocol, score_sequences(trained, test_seqs, joint_map)
    static_cm, dynamic_cm = (count_model(protocol, key, scored) for key in protocol.models)
    return static_cm, dynamic_cm


def evaluate_binary(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
) -> BinarySuiteMetrics:
    """Score the test sequences, then count each model (`count_model`)."""
    protocol, scored = trained.config.protocol, score_sequences(trained, test_seqs, joint_map)
    return BinarySuiteMetrics(tuple(count_model(protocol, key, scored)
                                    for key in protocol.models))


def _fold_report(protocol: Protocol, counts: Iterable[tuple[str, object]],
                 **patients) -> FoldReport:
    """A fold's report from ``(key, counts)`` pairs (`count_model`), each
    model's counts summed over routes, jobs and patients."""
    pooled: dict[str, object] = {}
    for key, count in counts:
        pooled[key] = pooled[key] + count if key in pooled else count
    if protocol.head is HeadKind.SIGMOID:
        return FoldReport(**patients, binary=BinarySuiteMetrics(
            tuple(pooled[key] for key in protocol.models)))
    static_cm, dynamic_cm = (pooled[key] for key in protocol.models)
    return FoldReport(**patients, static_accuracy=static_cm.accuracy,
                      dynamic_accuracy=dynamic_cm.accuracy,
                      static_confusion=static_cm, dynamic_confusion=dynamic_cm)


def _require_scored_models(protocol: Protocol, fold: int, labels: Iterable[GestureLabel],
                           error: type) -> None:
    """Every model's accuracy needs a test performance that the model scores."""
    scored = {key for label in set(labels) for key in protocol.keys_for(label)}
    for key in [k for k in protocol.models if k not in scored]:
        raise error(f"fold {fold}: no {key} test performances, so the "
                    f"{key} model's accuracy is undefined")


def evaluate_model_set(
    trained: TrainedProtocol, entries: Sequence[ManifestEntry]
) -> FoldReport:
    """Score a fixed model set on the performances that ``entries`` list,
    as fold 0: every listed patient is tested and none was trained on.

    Each patient's performances are read and validated (`load_entries`),
    then scored and counted on their own in forked workers (`fork_map`,
    `_pool_size`), which send back only the counts.  No scoring block spans
    patients, so the worker count changes no result.  A model without a
    performance that it scores is a `DataError`.
    """
    protocol = trained.config.protocol
    _require_scored_models(protocol, 0, (entry.label for entry in entries), DataError)
    by_patient: dict[int, list[ManifestEntry]] = {}
    for entry in entries:
        by_patient.setdefault(entry.patient_id, []).append(entry)
    patients = tuple(sorted(by_patient))
    evaluate = evaluate_binary if protocol.head is HeadKind.SIGMOID else evaluate_multiclass

    def count(patients: tuple[int, ...], k: int):
        seqs = load_entries(by_patient[patients[k]], trained.joint_map).sequences
        return evaluate(trained, seqs, trained.joint_map)

    counts = fork_map(
        count, len(patients), patients, _pool_size(len(patients)),
        lost=lambda k: f"patient {patients[k]}: a scoring worker ended before "
        "sending back this patient's scores",
    )
    return _fold_report(protocol, [pair for c in counts for pair in zip(protocol.models, c)],
                        fold=0, train_patients=(), test_patients=patients)


def cross_validate(
    ds: Dataset,
    folds: FoldSplit,
    config: RunConfig,
    factory: ClassifierFactory | None = None,
) -> EvaluationReport:
    """Patient-held-out cross-validation: each present fold is tested once.

    Every fold's split keeps patients strictly disjoint between train and
    test (verified at runtime), trains the full protocol from scratch, and
    evaluates on the held-out patients only.  Every split is checked and
    planned (`_plan`) before one pool (`_fit_jobs`) fits each job and counts
    the fold's test sequences that its one model scores; a fold's report
    sums its jobs' counts.
    """
    present = folds.present_folds()
    if len(present) < 2:
        raise FoldCoverageError(f"need at least 2 populated folds to cross-validate, got "
                                f"{len(present)} (patients: {folds.patients})")
    seqs = ds.sequences
    fold_of = folds.fold_of_patient
    protocol = config.protocol
    splits, patients = [], []
    for test_fold in present:
        test_patients = tuple(p for p in folds.patients if fold_of[p] == test_fold)
        train_patients = tuple(p for p in folds.patients if fold_of[p] != test_fold)
        _assert_patient_disjoint(train_patients, test_patients)
        train = [i for i, s in enumerate(seqs) if s.patient_id in train_patients]
        test = [i for i, s in enumerate(seqs) if s.patient_id in test_patients]
        if not train or not test:
            raise FoldCoverageError(f"fold {test_fold}: empty split "
                                    f"(train={len(train)}, test={len(test)} sequences)")
        _require_scored_models(protocol, test_fold, (seqs[i].label for i in test),
                               FoldCoverageError)
        splits.append((test_fold, f"fold{test_fold}", train, test))
        patients.append(dict(fold=test_fold, train_patients=train_patients,
                             test_patients=test_patients))
    windows, planned = _plan(seqs, splits, config, ds.joint_map)

    def score(split: int, job: TrainJob, clf: SequenceClassifier):  # the model's counts
        one = TrainedProtocol(config, {job.route: {job.key: clf}}, ds.joint_map)
        test = [i for i in splits[split][3] if one.route_name(seqs[i]) == job.route
                and job.key in protocol.keys_for(seqs[i].label)]
        scored = score_sequences(one, [seqs[i] for i in test], ds.joint_map,
                                 [windows[job.route][i] for i in test])
        return count_model(protocol, job.key, scored)

    counts = _fit_jobs(planned, config, factory, score)
    fold_reports = tuple(
        _fold_report(protocol, [(job.key, c) for (s, job, _), c in zip(planned, counts)
                                if s == split], **patients[split])
        for split in range(len(splits))
    )
    return EvaluationReport(**config.report_header(), folds=fold_reports)


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
    """Rebuild a TrainedProtocol from `save_model_set` output.  A checkpoint
    whose header names another route, key or config than its index entry
    and the index's config, or other labels, head or architecture than its
    key's, is a `DataError`: a ``static`` or ``dynamic`` key is a softmax
    model over that kind's gesture ids in taxonomy order, a gesture id key a
    sigmoid model of that one id, and each has the config's network."""
    model_dir = Path(model_dir)
    index_path = model_dir / "modelset.json"
    index, config = read_index(index_path, "skelgest-modelset", ("models",))
    digest = config_digest(config)
    labels_of, head = config.protocol.models, config.protocol.head
    classifiers: dict[str, dict[str, SequenceClassifier]] = {r: {} for r in config.routes()}
    for entry in index["models"]:
        route = entry["route"]
        if route not in classifiers:
            raise DataError(
                f"{index_path}: unknown route {route!r}; its configuration has "
                f"{', '.join(sorted(classifiers))}"
            )
        path = model_dir / entry["file"]
        model, extra = load_checkpoint(path)
        indexed = {"route": route, "key": entry["key"], "config_digest": digest}
        for name, value in indexed.items():
            if extra.get(name) != value:
                raise DataError(f"{path}: checkpoint {name} {extra.get(name)!r} does not "
                                f"match {index_path}, which gives {value!r}")
        labels = labels_of.get(entry["key"])
        if labels is None or extra.get("labels") != list(labels):
            raise DataError(f"{path}: checkpoint labels {extra.get('labels')!r} are not "
                            f"those of a {config.protocol.value} {entry['key']!r} model")
        spec = config.arch_spec(len(labels) if head is HeadKind.SOFTMAX else 1)
        for name, got, want in (("head", model.head.value, head.value),
                                ("architecture", model.spec, spec)):
            if got != want:
                raise DataError(f"{path}: checkpoint {name} {got!r} does not match "
                                f"{index_path}, which gives {want!r}")
        classifiers[route][entry["key"]] = NetworkClassifier(labels=labels, model=model)
    for route, by_key in classifiers.items():
        if missing := [key for key in labels_of if key not in by_key]:
            raise DataError(f"{index_path}: no {route!r} model for {missing[0]!r}")
    return TrainedProtocol(config=config, classifiers=classifiers,
                           joint_map=JointIndexMap(index["chin_index"]))
