"""Domain types for 2-D skeletal gesture data and the 29-gesture taxonomy.

A recording session yields, per video frame, the pixel coordinates of 14
upper-body joints plus a per-joint detector confidence.  Each performance of
a gesture by one patient is a ``GestureSequence``, which holds those values
as read-only arrays: coordinates (T, 14, 2) and confidences (T, 14).  The
gesture taxonomy is fixed: 29 gesture ids, 15 static (held poses) and 14
dynamic (motions).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

N_JOINTS = 14


class UnknownLabelError(ValueError):
    """Raised when a gesture id is not one of the 29 taxonomy ids."""


class GestureKind(Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


# Gesture id -> (kind, short description).  Order is canonical and is used
# for class indexing everywhere downstream.
_TAXONOMY: tuple[tuple[str, GestureKind, str], ...] = (
    ("A1_1", GestureKind.STATIC, "Left hand on left ear"),
    ("A1_2", GestureKind.STATIC, "Left hand on right ear"),
    ("A1_3", GestureKind.STATIC, "Right hand on right ear"),
    ("A1_4", GestureKind.STATIC, "Right hand on left ear"),
    ("A1_5", GestureKind.STATIC, "Index and baby finger on table"),
    ("A2_1", GestureKind.STATIC, "Stick together index and baby fingers"),
    ("A2_2", GestureKind.DYNAMIC, "Hands on table, twist toward body"),
    ("A2_3", GestureKind.STATIC, "Bird"),
    ("A2_4", GestureKind.STATIC, "Diamond"),
    ("A2_5", GestureKind.STATIC, "Ring together"),
    ("S1_1", GestureKind.STATIC, "Do a military salute"),
    ("S1_2", GestureKind.STATIC, "Ask for silence"),
    ("S1_3", GestureKind.STATIC, "Show something smells bad"),
    ("S1_4", GestureKind.DYNAMIC, "Tell someone is crazy"),
    ("S1_5", GestureKind.DYNAMIC, "Blow a kiss"),
    ("S2_1", GestureKind.DYNAMIC, "Twiddle your thumbs"),
    ("S2_2", GestureKind.STATIC, "Indicate there is unbearable noise"),
    ("S2_3", GestureKind.STATIC, "Indicate you want to sleep"),
    ("S2_4", GestureKind.STATIC, "Pray"),
    ("P1_1", GestureKind.DYNAMIC, "Comb hair"),
    ("P1_2", GestureKind.DYNAMIC, "Drink a glass of water"),
    ("P1_3", GestureKind.DYNAMIC, "Answer the phone"),
    ("P1_4", GestureKind.DYNAMIC, "Pick up a needle"),
    ("P1_5", GestureKind.DYNAMIC, "Smoke a cigarette"),
    ("P2_1", GestureKind.DYNAMIC, "Unscrew a stopper"),
    ("P2_2", GestureKind.DYNAMIC, "Play piano"),
    ("P2_3", GestureKind.DYNAMIC, "Hammer a nail"),
    ("P2_4", GestureKind.DYNAMIC, "Tear up a paper"),
    ("P2_5", GestureKind.DYNAMIC, "Strike a match"),
)

_KIND_BY_ID: dict[str, GestureKind] = {gid: kind for gid, kind, _ in _TAXONOMY}

ALL_GESTURE_IDS: tuple[str, ...] = tuple(gid for gid, _, _ in _TAXONOMY)
STATIC_GESTURE_IDS: tuple[str, ...] = tuple(
    gid for gid, kind, _ in _TAXONOMY if kind is GestureKind.STATIC
)
DYNAMIC_GESTURE_IDS: tuple[str, ...] = tuple(
    gid for gid, kind, _ in _TAXONOMY if kind is GestureKind.DYNAMIC
)


def label_kind(gesture_id: str) -> GestureKind:
    """Return whether a gesture id names a static pose or a dynamic motion."""
    try:
        return _KIND_BY_ID[gesture_id]
    except KeyError:
        raise UnknownLabelError(f"unknown gesture id {gesture_id!r}") from None


@dataclass(frozen=True)
class GestureLabel:
    """One of the 29 gesture classes; an id outside the taxonomy raises
    :class:`UnknownLabelError`."""

    id: str

    def __post_init__(self) -> None:
        label_kind(self.id)

    @property
    def kind(self) -> GestureKind:
        return _KIND_BY_ID[self.id]


@dataclass(frozen=True, eq=False)
class GestureSequence:
    """All frames of one patient performing one gesture once.

    ``coords`` is (T, 14, 2) pixel x/y and ``conf`` is (T, 14) detector
    confidence, both stored as read-only float64 copies.
    """

    patient_id: int
    label: GestureLabel
    coords: np.ndarray
    conf: np.ndarray

    def __post_init__(self) -> None:
        for name in ("coords", "conf"):
            array = np.array(getattr(self, name), dtype=np.float64, order="C")
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n_frames(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class JointIndexMap:
    """Designates which of the 14 joint columns is the chin.

    The detector that produced the source data does not fix a documented
    column order, so the chin column is configuration; the default is the
    head-first order with the chin in column 1.
    """

    chin_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.chin_index < N_JOINTS:
            raise ValueError(f"chin_index {self.chin_index} outside [0, {N_JOINTS})")


DEFAULT_JOINT_MAP = JointIndexMap(chin_index=1)


def validate_sequence(seq: GestureSequence) -> list[str]:
    """Check every invariant of a sequence; return violations (empty = ok).

    Violations are data, not failures: malformed input is reported, never
    raised, so callers can collect problems across a whole dataset.
    """
    problems: list[str] = []
    if seq.patient_id < 1:
        problems.append(f"patient_id {seq.patient_id} must be >= 1")
    if seq.n_frames < 1:
        problems.append("sequence has no frames")

    t = seq.n_frames
    expected = {"coords": (t, N_JOINTS, 2), "conf": (t, N_JOINTS)}
    shape_problems = [
        f"{name} has shape {array.shape}, expected {shape}"
        for name, shape in expected.items()
        if (array := getattr(seq, name)).shape != shape
    ]
    if shape_problems:
        return problems + shape_problems

    finite = np.isfinite(seq.coords).all(axis=2)
    conf_ok = (seq.conf >= 0.0) & (seq.conf <= 1.0)
    for frame, joint in zip(*np.nonzero(~(finite & conf_ok))):
        if not finite[frame, joint]:
            x, y = seq.coords[frame, joint].tolist()
            problems.append(f"frame {frame}, joint {joint}: non-finite coordinates "
                            f"({x!r}, {y!r})")
        if not conf_ok[frame, joint]:
            problems.append(f"frame {frame}, joint {joint}: confidence "
                            f"{seq.conf[frame, joint].item()!r} outside [0, 1]")
    return problems
