"""Dataset ingest: frame-file parsing, manifest loading, folds, synthetic data.

On-disk interchange format
--------------------------
A *frames file* holds one gesture performance as consecutive 5-line blocks of
14 whitespace-separated decimal numbers: rows are x, y, confidence, and two
auxiliary rows (checked at ingest, then dropped).  A dataset directory
pairs frames files with a CSV *manifest* ``patient_id,gesture_id,correct,
frames_path`` (paths relative to the dataset root).

Performances flagged incorrect are dropped at load time: a mislabeled-by-
failure performance would only mislead a gesture classifier.

`write_dataset` writes a cohort's frames files in the worker pool of
`pool` (`fork_map`), which `pipeline` fits and scores in too.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import pool
from .skeleton import (
    ALL_GESTURE_IDS,
    DEFAULT_JOINT_MAP,
    DYNAMIC_GESTURE_IDS,
    N_JOINTS,
    STATIC_GESTURE_IDS,
    GestureKind,
    GestureLabel,
    GestureSequence,
    JointIndexMap,
    UnknownLabelError,
    label_kind,
    validate_sequence,
)

logger = logging.getLogger(__name__)

ROWS_PER_FRAME = 5
MANIFEST_FIELDS = ("patient_id", "gesture_id", "correct", "frames_path")


class DataError(Exception):
    """A dataset on disk (or a manifest row) is malformed or inconsistent."""


class ParseError(DataError):
    """A frames file violates the block format; message carries the line number."""


def parse_skeletal_file(
    text: str, *, source: str = "<string>"
) -> tuple[np.ndarray, np.ndarray]:
    """Parse frames-file text into coordinates and confidences.

    Returns arrays of shapes (T, 14, 2) and (T, 14); every value is read
    exactly as ``float`` reads it, so the numbers round-trip.  The two aux
    rows of each block are checked like the others, then dropped.  Blank
    lines may separate blocks and are ignored.  Raises :class:`ParseError`
    naming the offending line for a row with the wrong number of values, a
    non-numeric token, or a truncated final block.

    The rows are converted in one ``np.loadtxt`` call.  Where that call
    fails or warns (a bad row, an empty file, or a token such as ``1_000``
    that ``float`` reads and ``loadtxt`` does not), or the result is not
    whole 5-row blocks, :func:`_parse_lines` reads the same lines one at a
    time; only it writes the errors.
    """
    lines = text.splitlines()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except (ValueError, UserWarning):
        rows = None
    if rows is None or rows.shape[1] != N_JOINTS or len(rows) % ROWS_PER_FRAME:
        rows = _parse_lines(lines, source)
    blocks = rows.reshape(-1, ROWS_PER_FRAME, N_JOINTS)
    return blocks[:, :2].transpose(0, 2, 1), blocks[:, 2]


def _parse_lines(lines: list[str], source: str) -> np.ndarray:
    """The exact parser: every value of ``lines`` read with ``float``, as
    (rows, 14), or the :class:`ParseError` of the first bad line."""
    values: list[float] = []
    row_lines: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != N_JOINTS:
            raise ParseError(
                f"{source}:{lineno}: expected {N_JOINTS} values per row, got {len(tokens)}"
            )
        try:
            values.extend(map(float, tokens))
        except ValueError:
            bad = next(tok for tok in tokens if not _is_number(tok))
            raise ParseError(f"{source}:{lineno}: non-numeric token {bad!r}") from None
        row_lines.append(lineno)

    partial = len(row_lines) % ROWS_PER_FRAME
    if partial:
        raise ParseError(
            f"{source}:{row_lines[-partial]}: truncated final block "
            f"({partial} of {ROWS_PER_FRAME} rows)"
        )
    return np.array(values, dtype=np.float64).reshape(-1, N_JOINTS)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# One frame as `serialize_frames` writes it: a row each of x, y and
# confidence, each value as `repr` writes it, then the two all-zero aux rows.
_FRAME_FORMAT = (("%r " * (N_JOINTS - 1) + "%r\n") * 3
                 + (" ".join(["0.0"] * N_JOINTS) + "\n") * 2)


def serialize_frames(coords: np.ndarray, conf: np.ndarray) -> str:
    """Inverse of :func:`parse_skeletal_file`, exact to full float precision;
    the two aux rows of each 5-row block are written as zeros."""
    blocks = np.concatenate([np.transpose(coords, (0, 2, 1)), np.asarray(conf)[:, None, :]],
                            axis=1)
    return "".join(_FRAME_FORMAT % tuple(frame)
                   for frame in blocks.reshape(len(blocks), -1).tolist())


@dataclass(frozen=True)
class Dataset:
    """A validated collection of gesture sequences plus its joint map."""

    sequences: tuple[GestureSequence, ...]
    joint_map: JointIndexMap

    @property
    def patients(self) -> tuple[int, ...]:
        return tuple(sorted({s.patient_id for s in self.sequences}))


def _build_dataset(
    sequences: list[GestureSequence],
    joint_map: JointIndexMap,
) -> Dataset:
    for seq in sequences:
        problems = validate_sequence(seq)
        if problems:
            raise DataError(
                f"patient {seq.patient_id} gesture {seq.label.id}: " + "; ".join(problems)
            )
    return Dataset(sequences=tuple(sequences), joint_map=joint_map)


@dataclass(frozen=True)
class ManifestEntry:
    """A checked manifest row of a kept performance: where the manifest
    lists it (``manifest:line``), whose and which gesture it is, and its
    frames file."""

    where: str
    patient_id: int
    label: GestureLabel
    frames_path: Path

    def read(self) -> GestureSequence:
        """The performance, read and parsed from its frames file (not yet
        validated); a missing, unreadable or empty file is a
        :class:`DataError` and a malformed one a :class:`ParseError`."""
        try:
            text = self.frames_path.read_text()
        except FileNotFoundError:
            raise DataError(f"{self.where}: frames file not found: "
                            f"{self.frames_path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"{self.where}: cannot read frames file "
                            f"{self.frames_path}: {exc}") from None
        coords, conf = parse_skeletal_file(text, source=str(self.frames_path))
        if not len(coords):
            raise DataError(f"{self.where}: {self.frames_path} holds no frames")
        return GestureSequence(self.patient_id, self.label, coords, conf)


def manifest_entries(
    root: str | Path, manifest: str | Path | None = None
) -> list[ManifestEntry]:
    """The kept performances that a dataset's manifest lists, in its order.

    Every row is checked before any frames file is read.  Incorrect
    performances are excluded, but their frames files must exist.  Raises
    :class:`DataError` for a missing manifest, a malformed row, an unknown
    gesture id, a missing frames file, or a manifest that keeps no
    performance.
    """
    root = Path(root)
    manifest_path = Path(manifest) if manifest is not None else root / "manifest.csv"
    if not manifest_path.exists():
        raise DataError(f"manifest not found: {manifest_path}")

    entries: list[ManifestEntry] = []
    for rownum, row in _manifest_rows(manifest_path):
        try:
            patient_id = int(row["patient_id"])
        except ValueError:
            raise DataError(f"{manifest_path}:{rownum}: bad patient_id "
                            f"{row['patient_id']!r}") from None
        try:
            label = GestureLabel(row["gesture_id"].strip())
        except UnknownLabelError as exc:
            raise DataError(f"{manifest_path}:{rownum}: {exc}") from None
        entry = ManifestEntry(f"{manifest_path}:{rownum}", patient_id, label,
                              root / row["frames_path"])
        if _parse_correct(row["correct"], manifest_path, rownum):
            entries.append(entry)
        elif not entry.frames_path.exists():
            # an incorrect performance is skipped before it is read and parsed
            raise DataError(f"{entry.where}: frames file not found: {entry.frames_path}")
    if not entries:
        raise DataError("dataset is empty after removing incorrect performances")
    return entries


def load_entries(
    entries: list[ManifestEntry], joint_map: JointIndexMap = DEFAULT_JOINT_MAP
) -> Dataset:
    """The performances that ``entries`` list, read in order, then validated."""
    return _build_dataset([entry.read() for entry in entries], joint_map)


def load_dataset(
    root: str | Path,
    manifest: str | Path | None = None,
    *,
    joint_map: JointIndexMap = DEFAULT_JOINT_MAP,
) -> Dataset:
    """Load a dataset directory through its manifest (`manifest_entries`,
    then `load_entries`).

    Incorrect performances are excluded; every kept sequence is validated.
    Raises :class:`DataError` for a frames file that is missing, unreadable
    or not text in the locale's encoding, an unknown gesture id, a malformed
    manifest row, or an empty post-filter dataset.
    """
    ds = load_entries(manifest_entries(root, manifest), joint_map)
    logger.info("loaded %d sequences from %d patients (%s)", len(ds.sequences),
                len(ds.patients), manifest or Path(root) / "manifest.csv")
    return ds


def _manifest_rows(manifest_path: Path) -> Iterator[tuple[int, dict[str, str]]]:
    """Each row of a manifest as a field -> value map, with its line number.
    A header other than ``MANIFEST_FIELDS`` or a row without exactly those
    four fields, or text that does not decode, is a :class:`DataError`
    naming the manifest."""
    with open(manifest_path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_FIELDS:
                raise DataError(f"{manifest_path}:1: manifest header must be "
                                f"{','.join(MANIFEST_FIELDS)}")
            for row in reader:
                if None in row or None in row.values():  # surplus or missing fields
                    raise DataError(f"{manifest_path}:{reader.line_num}: expected "
                                    f"{len(MANIFEST_FIELDS)} comma-separated fields")
                yield reader.line_num, row
        except UnicodeDecodeError as exc:
            raise DataError(f"{manifest_path}: cannot read manifest: {exc}") from None


def _parse_correct(token: str, path: Path, rownum: int) -> bool:
    norm = token.strip().lower()
    if norm in ("1", "true"):
        return True
    if norm in ("0", "false"):
        return False
    raise DataError(f"{path}:{rownum}: correct flag must be 0/1/true/false, got {token!r}")


# ---------------------------------------------------------------------------
# Patient-based folds


@dataclass(frozen=True)
class FoldSplit:
    """Patient -> fold assignment; folds partition patients, never gestures."""

    boundaries: tuple[int, int]
    patients: tuple[int, ...]

    def fold_of(self, patient_id: int) -> int:
        b1, b2 = self.boundaries
        if patient_id <= b1:
            return 1
        if patient_id <= b2:
            return 2
        return 3

    @property
    def fold_of_patient(self) -> dict[int, int]:
        return {p: self.fold_of(p) for p in self.patients}

    def present_folds(self) -> tuple[int, ...]:
        return tuple(sorted({self.fold_of(p) for p in self.patients}))


DEFAULT_FOLD_BOUNDARIES = (15, 35)


def assign_folds(
    ds: Dataset, boundaries: tuple[int, int] = DEFAULT_FOLD_BOUNDARIES
) -> FoldSplit:
    """Assign each patient to fold 1, 2 or 3 by id thresholds.

    Patient p goes to fold 1 if p <= b1, fold 2 if b1 < p <= b2, else fold 3.
    The default (15, 35) gives the 1-15 / 16-35 / 36-55 protocol split.
    """
    b1, b2 = boundaries
    if not b1 < b2:
        raise ValueError(f"fold boundaries must be strictly increasing, got {boundaries}")
    return FoldSplit(boundaries=(b1, b2), patients=ds.patients)


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a deterministic synthetic dataset.

    Every patient performs each of the 29 gestures once, all flagged correct.
    Static classes are distinct held poses; dynamic classes add class-specific
    oscillation of the wrists.  Each patient's whole recording is shifted by a
    random camera translation, so raw coordinates differ across patients even
    at zero noise.
    """

    n_patients: int
    frames_static: tuple[int, int] = (40, 56)
    frames_dynamic: tuple[int, int] = (48, 72)
    noise_sigma: float = 0.015
    camera_offset_range: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise ValueError("n_patients must be >= 1")
        for name in ("frames_static", "frames_dynamic"):
            lo, hi = getattr(self, name)
            if not (1 <= lo <= hi):
                raise ValueError(f"{name} range ({lo}, {hi}) is empty or invalid")
        for name in ("noise_sigma", "camera_offset_range"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")


# Neutral upper-body layout in DEFAULT_JOINT_MAP column order.  The world uses
# arbitrary compact units (roughly "meters"): chin-relative joint offsets are
# order one, which keeps downstream saturating nonlinearities in their active
# range, and the chin sits well away from the origin so that chin-ratio
# normalization never divides by zero.
_BASE_POSE = np.array(
    [
        [3.20, 0.80],  # head_top
        [3.20, 1.20],  # chin
        [2.70, 1.65],  # right_shoulder
        [2.45, 2.25],  # right_elbow
        [2.35, 2.85],  # right_wrist
        [3.70, 1.65],  # left_shoulder
        [3.95, 2.25],  # left_elbow
        [4.05, 2.85],  # left_wrist
        [2.85, 3.30],  # right_hip
        [2.80, 4.30],  # right_knee
        [2.78, 5.25],  # right_ankle
        [3.55, 3.30],  # left_hip
        [3.60, 4.30],  # left_knee
        [3.62, 5.25],  # left_ankle
    ]
)

_R_WRIST, _L_WRIST = 4, 7
_R_ELBOW, _L_ELBOW = 3, 6
_R_SHOULDER, _L_SHOULDER = 2, 5
_CHIN = 1

_SIGNATURE_RADIUS = 0.90
_SIGNATURE_RADIUS_LEFT = 0.55
_MOTION_AMPLITUDE = 0.35

# Wheel position within the class's own static/dynamic partition: the two
# partitions are classified separately downstream, so separation only needs
# to hold within each.
_KIND_WHEEL: dict[str, tuple[int, int]] = {
    **{gid: (i, len(STATIC_GESTURE_IDS)) for i, gid in enumerate(STATIC_GESTURE_IDS)},
    **{gid: (i, len(DYNAMIC_GESTURE_IDS)) for i, gid in enumerate(DYNAMIC_GESTURE_IDS)},
}


def _class_trajectory(gesture_id: str, n_frames: int) -> np.ndarray:
    """Noise-free joint trajectory (T, 14, 2) for one gesture class.

    Each class parks the wrists at a distinct angle on a wheel around the
    chin; dynamic classes additionally swing the wrists at a class-specific
    frequency and phase, so classes are separable by construction.
    """
    pose = np.tile(_BASE_POSE, (n_frames, 1, 1))
    chin = _BASE_POSE[_CHIN]
    kind = label_kind(gesture_id)
    wheel_index, wheel_size = _KIND_WHEEL[gesture_id]
    theta = 2.0 * math.pi * wheel_index / wheel_size
    if kind is GestureKind.DYNAMIC:
        theta += 0.1  # desynchronize the two wheels

    right_center = chin + _SIGNATURE_RADIUS * np.array([math.cos(theta), math.sin(theta)])
    left_center = chin + _SIGNATURE_RADIUS_LEFT * np.array(
        [math.cos(theta + 2.4), math.sin(theta + 2.4)]
    )
    pose[:, _R_WRIST] = right_center
    pose[:, _L_WRIST] = left_center

    if kind is GestureKind.DYNAMIC:
        omega = 2.0 * math.pi / (18.0 + 4.0 * wheel_index)
        t = np.arange(n_frames, dtype=np.float64)
        swing = _MOTION_AMPLITUDE * np.stack(
            [np.cos(omega * t + theta), np.sin(omega * t + theta)], axis=1
        )
        pose[:, _R_WRIST] += swing
        pose[:, _L_WRIST, 0] += 0.5 * _MOTION_AMPLITUDE * np.cos(omega * t)

    # Elbows track the shoulder-wrist midpoint with a slight outward drop.
    pose[:, _R_ELBOW] = 0.5 * (pose[:, _R_SHOULDER] + pose[:, _R_WRIST]) + [0.0, 0.12]
    pose[:, _L_ELBOW] = 0.5 * (pose[:, _L_SHOULDER] + pose[:, _L_WRIST]) + [0.0, 0.12]
    return pose


def generate_synthetic(
    cfg: SynthConfig, *, joint_map: JointIndexMap = DEFAULT_JOINT_MAP
) -> Dataset:
    """Build a synthetic dataset; equal configs yield bitwise-equal datasets.

    Random draws happen in a fixed order (patients ascending, classes in
    taxonomy order: camera offset, then per class the frame count and the
    coordinate jitter), so the output is a pure function of the config.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    sequences: list[GestureSequence] = []
    for patient_id in range(1, cfg.n_patients + 1):
        offset = rng.uniform(-cfg.camera_offset_range, cfg.camera_offset_range, size=2)
        for gesture_id in ALL_GESTURE_IDS:
            kind = label_kind(gesture_id)
            lo, hi = cfg.frames_static if kind is GestureKind.STATIC else cfg.frames_dynamic
            n_frames = int(rng.integers(lo, hi + 1))
            coords = _class_trajectory(gesture_id, n_frames)
            coords = coords + offset
            if cfg.noise_sigma > 0:
                coords = coords + rng.normal(0.0, cfg.noise_sigma, size=coords.shape)
            else:
                rng.normal(0.0, 1.0, size=coords.shape)  # keep the draw schedule fixed
            sequences.append(GestureSequence(
                patient_id, GestureLabel(gesture_id), coords, np.ones((n_frames, N_JOINTS))
            ))
    return _build_dataset(sequences, joint_map)


def write_dataset(ds: Dataset, root: str | Path) -> Path:
    """Write a dataset as frames files plus manifest; returns the manifest path.

    Output is deterministic: rows are ordered by (patient, taxonomy index)
    and floats are serialized with round-tripping precision.  The frames
    files are written in one pool of forked workers (`pool.fork_map`), one
    per CPU, with the same bytes at any count.  Any old ``manifest.csv`` is
    removed first, and the new one is moved into place only after every
    frames file is written, so a failed or killed write leaves no manifest;
    a lost worker is a :class:`pool.WorkerLostError` naming the first frames
    file whose write was not confirmed.
    """
    root = Path(root)
    frames_dir = root / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = root / "manifest.csv"
    manifest_path.unlink(missing_ok=True)

    order = {gid: i for i, gid in enumerate(ALL_GESTURE_IDS)}
    ordered = sorted(ds.sequences, key=lambda s: (s.patient_id, order[s.label.id]))
    paths = [f"frames/p{seq.patient_id:03d}_{seq.label.id}.txt" for seq in ordered]

    def write(ordered: list[GestureSequence], i: int) -> None:
        (root / paths[i]).write_text(serialize_frames(ordered[i].coords, ordered[i].conf))

    pool.fork_map(write, len(ordered), ordered, min(pool._cpus(), len(ordered)),
                  lost=lambda i: f"{root / paths[i]}: a writer ended before reporting "
                  "this frames file written")

    partial = root / "manifest.csv.partial"
    with open(partial, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_FIELDS)
        writer.writerows([seq.patient_id, seq.label.id, 1, path]
                         for seq, path in zip(ordered, paths))
    os.replace(partial, manifest_path)
    return manifest_path


def dataset_checksum(root: str | Path, manifest: str | Path | None = None) -> str:
    """SHA-256 over the manifest and every referenced frames file, in order."""
    root = Path(root)
    manifest_path = Path(manifest) if manifest is not None else root / "manifest.csv"
    digest = hashlib.sha256()
    digest.update(manifest_path.read_bytes())
    for _, row in _manifest_rows(manifest_path):
        digest.update((root / row["frames_path"]).read_bytes())
    return digest.hexdigest()
