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
classifier once per block of at most ``SCORE_BLOCK_WINDOWS`` test windows of
one patient.  Every fold, of cross-validation or of a fixed model set, is
counted per patient (`evaluate_fold`) and then summed.
Optional length routing trains the whole protocol twice -- once per window
length -- and dispatches each test sequence by its raw frame count.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import selectors
import signal
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Callable, Iterable, Iterator, NoReturn, Protocol as TypingProtocol, Sequence, TypeVar,
)

import numpy as np

from .skeleton import (
    ALL_GESTURE_IDS,
    DEFAULT_JOINT_MAP,
    DYNAMIC_GESTURE_IDS,
    STATIC_GESTURE_IDS,
    GestureKind,
    GestureLabel,
    GestureSequence,
    JointIndexMap,
)
from .ingest import DataError, Dataset, FoldSplit, ManifestEntry, load_entries
from . import preprocess
from .preprocess import DegenerateReferenceError, preprocess_sequence
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


class WorkerLostError(RuntimeError):
    """A forked worker ended before sending back an item's result."""


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
    """The sequence's (n, W, D) feature windows; a zero chin coordinate
    under a chin-ratio method is a :class:`DataError` naming the sequence."""
    try:
        return preprocess_sequence(
            seq,
            prep.method,
            prep.window,
            joint_map,
            savgol_spec=prep.savgol,
            include_confidence=prep.include_confidence,
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


def _pool_size(items: int, traced: bool) -> int:
    """How many forked workers `fork_map` gets for ``items`` items: one per
    CPU, and at most one per item.  It is 1 (in process) where the platform
    cannot fork, and where ``traced``: a tracer or profiler that has wrapped
    a function the workers would call sees every call only in its own
    process.  The count does not change any result."""
    if traced or not hasattr(os, "fork"):
        return 1
    return min(_cpus(), items)


S = TypeVar("S")
R = TypeVar("R")

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's `mallopt` parameters


def _keep_freed_memory() -> None:
    """Make glibc's malloc keep freed memory in this process: no trimming of
    the heap and no mmap below 32 MB.  A worker lives for one `fork_map`
    call, and would otherwise fault the same pages in again for every item.
    Without glibc nothing changes."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param in (_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD):
        mallopt(param, 32 << 20)


def _work(fn: Callable, state: object, tasks: int, replies: int) -> NoReturn:
    """A forked worker's life: for each item index read from ``tasks``, the
    item's result, or the error it raised, pickled to ``replies`` as one
    length-prefixed frame.  It ends after an error, or when ``tasks`` is
    closed."""
    try:
        # Ctrl-C reaches the whole process group.  A worker then ends at
        # once instead of finishing its item.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        _keep_freed_memory()
        with open(replies, "wb") as out:
            while len(task := os.read(tasks, 4)) == 4:
                try:
                    ok, value = True, fn(state, int.from_bytes(task, "little"))
                except Exception as exc:
                    ok, value = False, exc
                try:
                    frame = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # a result or an error that does not pickle
                    ok, frame = False, pickle.dumps((False, RuntimeError(repr(exc))))
                out.write(len(frame).to_bytes(8, "little") + frame)
                out.flush()
                if not ok:
                    break
    finally:
        os._exit(0)


def fork_map(
    fn: Callable[[S, int], R], n: int, state: S, workers: int,
    *, lost: Callable[[int], str],
) -> list[R]:
    """``[fn(state, i) for i in range(n)]``, computed by ``workers`` forked
    processes; at one worker, by that loop in this process.

    Each worker inherits ``fn`` and ``state`` through fork, so neither is
    copied or pickled.  It receives one item index at a time, as it becomes
    free, and sends back only ``fn``'s result.  Results are taken in item
    order, so a failure raises the first failing item's error, as the loop
    does.  A worker that dies (killed from outside, say) is a
    :class:`WorkerLostError`: ``lost(i)`` describes the first item ``i``
    whose result was not received.  The workers run at one BLAS thread,
    with Ctrl-C at its default action, and are joined before this returns
    or raises.
    """
    if workers == 1:
        return [fn(state, i) for i in range(n)]
    items = iter(range(n))
    tasks: dict[int, int] = {}  # by a worker's reply pipe: its task pipe
    pids: dict[int, int] = {}  # by a worker's reply pipe: its process id
    holds: dict[int, int] = {}  # by a worker's reply pipe: the item it computes
    replies: dict[int, tuple[bool, object]] = {}  # by item, until its turn
    dropped: set[int] = set()  # items whose worker died before replying
    results: list[R] = []

    def hand_out(fd: int) -> None:
        """Send the worker behind reply pipe ``fd`` its next item, or end it."""
        item = next(items, None)
        if item is None:
            os.close(tasks.pop(fd))
            return
        holds[fd] = item
        try:
            os.write(tasks[fd], item.to_bytes(4, "little"))
        except BrokenPipeError:  # the worker is gone; its reply pipe tells
            pass

    with one_blas_thread(), selectors.DefaultSelector() as ready:
        try:
            for _ in range(workers):
                task_r, task_w = os.pipe()
                reply_r, reply_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    for fd in (*tasks.values(), *pids, task_w, reply_r):
                        os.close(fd)
                    _work(fn, state, task_r, reply_w)
                os.close(task_r)
                os.close(reply_w)
                tasks[reply_r], pids[reply_r] = task_w, pid
                ready.register(reply_r, selectors.EVENT_READ, bytearray())
                hand_out(reply_r)
            while len(results) < n:
                i = len(results)
                if i in replies:
                    ok, value = replies.pop(i)
                    if not ok:
                        raise value
                    results.append(value)
                    continue
                if i in dropped or not ready.get_map():
                    raise WorkerLostError(f"{lost(i)} ({n - i} of {n} not received)")
                for key, _ in ready.select():
                    fd, buffer = key.fd, key.data
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        ready.unregister(fd)
                        if fd in holds:
                            dropped.add(holds.pop(fd))
                        continue
                    buffer += chunk
                    while len(buffer) >= 8 and len(buffer) >= 8 + (
                        size := int.from_bytes(buffer[:8], "little")
                    ):
                        reply = pickle.loads(buffer[8 : 8 + size])
                        del buffer[: 8 + size]
                        replies[holds.pop(fd)] = reply
                        if reply[0]:
                            hand_out(fd)
        finally:
            for fd, pid in pids.items():
                os.close(fd)
                if fd in tasks:
                    os.close(tasks[fd])
                if len(results) < n:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


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
    jobs are drawn lazily and fitted in order (`_route_jobs`).  The
    one-vs-rest suite of the network factory is fitted all at once in
    forked workers instead: its 29 jobs share one stack of windows, which
    the workers inherit, and each sends back only a classifier.  The two
    multiclass jobs stay in process, and so do fits by another factory or
    through a wrapped ``pipeline.fit``.
    """
    forked = factory is None and config.protocol is Protocol.MULTICLASS_BINARY
    workers = _pool_size(len(ALL_GESTURE_IDS), fit is not neuralnet.fit) if forked else 1
    if factory is None:
        factory = network_factory(config)
    classifiers: dict[str, dict[str, SequenceClassifier]] = {}
    for route_tag, (route, prep) in enumerate(config.routes().items()):
        prefix = fold_name if route == "main" else f"{fold_name}-{route}"
        jobs = _route_jobs(train_seqs, config, prep, joint_map, route, prefix,
                           (config.seed, fold, route_tag))
        if workers > 1:
            jobs = list(jobs)
            fitted = fork_map(
                lambda jobs, i: factory(jobs[i]), len(jobs), jobs, workers,
                lost=lambda i: f"{jobs[i].name}: a fit worker of route {route!r} ended "
                "before sending back this job's classifier",
            )
            classifiers[route] = {job.key: clf for job, clf in zip(jobs, fitted)}
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


@dataclass(frozen=True)
class ScoredSequence:
    """A test sequence's true label and its mean window probabilities under
    each classifier that scores it, by key (``TrainedProtocol.keys_for``)."""

    label: GestureLabel
    probs: dict[str, np.ndarray]


def score_sequences(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
) -> list[ScoredSequence]:
    """Each test sequence's scores, in order.

    Sequences are grouped by route, by the classifiers they need and by
    patient, then featurized in blocks (``_feature_blocks``); each
    classifier runs once per block, and each sequence's rows are averaged on
    their own.  A window's probabilities can depend, in the last bit, on the
    other windows of its block, so no block spans patients: scoring each
    patient on its own (`evaluate_fold`) changes no result.
    """
    groups: dict[tuple[str, tuple[str, ...], int], list[int]] = {}
    for i, seq in enumerate(test_seqs):
        key = (trained.route_name(seq), trained.keys_for(seq), seq.patient_id)
        groups.setdefault(key, []).append(i)

    preps = trained.config.routes()
    scores: list[dict[str, np.ndarray]] = [{} for _ in test_seqs]
    for (route, keys, _), members in groups.items():
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
    return [ScoredSequence(seq.label, probs) for seq, probs in zip(test_seqs, scores)]


def count_multiclass(
    scored: Iterable[ScoredSequence],
) -> tuple[ConfusionMatrix, ConfusionMatrix]:
    """Static and dynamic confusion matrices over scored sequences, each
    sequence predicted by the argmax over its kind's labels, in the order
    that every model of that kind outputs them (`load_model_set` checks)."""
    true_by_kind: dict[GestureKind, list[str]] = {k: [] for k in GestureKind}
    pred_by_kind: dict[GestureKind, list[str]] = {k: [] for k in GestureKind}
    for seq in scored:
        kind = seq.label.kind
        true_by_kind[kind].append(seq.label.id)
        pred_by_kind[kind].append(predict_label(seq.probs[kind.value], _kind_labels(kind)))
    static_cm, dynamic_cm = (confusion(true_by_kind[kind], pred_by_kind[kind],
                                       _kind_labels(kind)) for kind in GestureKind)
    return static_cm, dynamic_cm


def count_binary(scored: Sequence[ScoredSequence]) -> BinarySuiteMetrics:
    """The 29 one-vs-rest models' tallies over scored sequences."""
    results = []
    for gid in ALL_GESTURE_IDS:
        cells = Counter(  # (actually positive, predicted positive)
            (seq.label.id == gid, float(seq.probs[gid][0]) > 0.5) for seq in scored
        )
        results.append(BinaryClassResult(
            gesture_id=gid, tp=cells[True, True], fp=cells[False, True],
            tn=cells[False, False], fn=cells[True, False],
        ))
    return BinarySuiteMetrics(tuple(results))


def evaluate_multiclass(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
) -> tuple[ConfusionMatrix, ConfusionMatrix]:
    """Score the test sequences, then count them (`count_multiclass`)."""
    return count_multiclass(score_sequences(trained, test_seqs, joint_map))


def evaluate_binary(
    trained: TrainedProtocol,
    test_seqs: Sequence[GestureSequence],
    joint_map: JointIndexMap,
) -> BinarySuiteMetrics:
    """Score all 29 one-vs-rest models on every test sequence, then count
    them (`count_binary`)."""
    return count_binary(score_sequences(trained, test_seqs, joint_map))


def evaluate_fold(
    trained: TrainedProtocol,
    read: Callable[[int], Sequence[GestureSequence]],
    test_patients: tuple[int, ...],
    fold: int = 0,
    train_patients: tuple[int, ...] = (),
    workers: int = 1,
) -> FoldReport:
    """Score the trained protocol on one fold's test patients.

    Each patient's sequences, ``read(patient)``, are scored and counted on
    their own (`evaluate_multiclass` or `evaluate_binary`) by ``workers``
    forked processes (`fork_map`), which send back only the counts; the
    fold's counts are their sum.  No scoring block spans patients, so the
    worker count changes no result, and a failure is the one that the first
    failing patient raises.
    """
    binary = trained.config.protocol is Protocol.MULTICLASS_BINARY
    evaluate = evaluate_binary if binary else evaluate_multiclass
    counts = fork_map(
        lambda patients, k: evaluate(trained, read(patients[k]), trained.joint_map),
        len(test_patients), test_patients, workers,
        lost=lambda k: f"patient {test_patients[k]}: a scoring worker ended before "
        "sending back this patient's scores",
    )
    patients = dict(fold=fold, train_patients=train_patients, test_patients=test_patients)
    if binary:
        return FoldReport(**patients, binary=sum(counts[1:], counts[0]))
    static_cm, dynamic_cm = (sum(cms[1:], cms[0]) for cms in zip(*counts))
    return FoldReport(**patients, static_accuracy=static_cm.accuracy,
                      dynamic_accuracy=dynamic_cm.accuracy,
                      static_confusion=static_cm, dynamic_confusion=dynamic_cm)


def evaluate_model_set(
    trained: TrainedProtocol, entries: Sequence[ManifestEntry]
) -> FoldReport:
    """Score a fixed model set on the performances that ``entries`` list,
    as fold 0: every listed patient is tested and none was trained on.

    Each patient's performances are read and validated (`load_entries`)
    where they are scored (`evaluate_fold`): in forked workers, one per CPU
    and at most one per patient.  Scoring stays in process where a tracer
    has wrapped ``pipeline.forward`` or ``pipeline.preprocess_sequence``.
    """
    by_patient: dict[int, list[ManifestEntry]] = {}
    for entry in entries:
        by_patient.setdefault(entry.patient_id, []).append(entry)
    patients = tuple(sorted(by_patient))
    traced = (forward is not neuralnet.forward
              or preprocess_sequence is not preprocess.preprocess_sequence)
    return evaluate_fold(
        trained, lambda patient: load_entries(by_patient[patient], trained.joint_map).sequences,
        patients, workers=_pool_size(len(patients), traced),
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
        fold_reports.append(evaluate_fold(
            trained, lambda patient: [s for s in test_seqs if s.patient_id == patient],
            test_patients, test_fold, train_patients,
        ))
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
    """Rebuild a TrainedProtocol from `save_model_set` output.  A checkpoint
    whose header names another route, key or config than its index entry
    and the index's config, or other labels than its key's, is a
    `DataError`: a ``static`` or ``dynamic`` key outputs that kind's gesture
    ids in taxonomy order, and a gesture id key that one id."""
    model_dir = Path(model_dir)
    index_path = model_dir / "modelset.json"
    index, config = read_index(index_path, "skelgest-modelset", ("models",))
    digest = config_digest(config)
    labels_of = ({kind.value: _kind_labels(kind) for kind in GestureKind}
                 if config.protocol is Protocol.MULTICLASS
                 else {gid: (gid,) for gid in ALL_GESTURE_IDS})
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
        classifiers[route][entry["key"]] = NetworkClassifier(labels=labels, model=model)
    for route, by_key in classifiers.items():
        if missing := [key for key in labels_of if key not in by_key]:
            raise DataError(f"{index_path}: no {route!r} model for {missing[0]!r}")
    return TrainedProtocol(config=config, classifiers=classifiers,
                           joint_map=JointIndexMap(index["chin_index"]))
