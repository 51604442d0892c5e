"""Domain types and the 29-gesture taxonomy."""

import math

import numpy as np
import pytest

from skelgest.skeleton import (
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
    _TAXONOMY,
    label_kind,
    validate_sequence,
)


def label_description(gesture_id):
    """The taxonomy's human-readable gloss for a gesture id."""
    return {gid: desc for gid, _, desc in _TAXONOMY}[gesture_id]


def _coords(t=3, n=N_JOINTS):
    """Joint i of every frame sits at (i, -i)."""
    return np.tile(np.stack([np.arange(n), -np.arange(n)], axis=1), (t, 1, 1)).astype(float)


def _sequence(coords=None, conf=None, patient=1, gesture="A1_1"):
    if coords is None:
        coords = _coords()
    if conf is None:
        conf = np.ones(coords.shape[:2])
    return GestureSequence(
        patient_id=patient,
        label=GestureLabel(gesture),
        coords=coords,
        conf=conf,
    )


class TestTaxonomy:
    def test_no_duplicate_ids(self):
        assert len(set(ALL_GESTURE_IDS)) == len(ALL_GESTURE_IDS) == 29

    def test_partition(self):
        assert set(STATIC_GESTURE_IDS) | set(DYNAMIC_GESTURE_IDS) == set(ALL_GESTURE_IDS)
        assert set(STATIC_GESTURE_IDS) & set(DYNAMIC_GESTURE_IDS) == set()
        assert len(STATIC_GESTURE_IDS) == 15
        assert len(DYNAMIC_GESTURE_IDS) == 14

    @pytest.mark.parametrize(
        "gesture_id,kind",
        [
            ("A1_1", GestureKind.STATIC),
            ("P2_5", GestureKind.DYNAMIC),
            ("S2_1", GestureKind.DYNAMIC),
            ("A2_5", GestureKind.STATIC),
            ("A2_2", GestureKind.DYNAMIC),
            ("S1_1", GestureKind.STATIC),
            ("S1_4", GestureKind.DYNAMIC),
            ("S2_4", GestureKind.STATIC),
            ("P1_3", GestureKind.DYNAMIC),
        ],
    )
    def test_label_kind(self, gesture_id, kind):
        assert label_kind(gesture_id) is kind

    def test_label_kind_unknown(self):
        with pytest.raises(UnknownLabelError):
            label_kind("Z9_9")

    def test_descriptions_nonempty(self):
        for gid in ALL_GESTURE_IDS:
            assert label_description(gid).strip()

    def test_label_reads_its_kind_from_the_taxonomy(self):
        for gid in ALL_GESTURE_IDS:
            assert GestureLabel(gid).kind is label_kind(gid)

    def test_label_with_unknown_id(self):
        with pytest.raises(UnknownLabelError, match="Z9_9"):
            GestureLabel("Z9_9")

    def test_id_families(self):
        prefixes = {gid.split("_")[0] for gid in ALL_GESTURE_IDS}
        assert prefixes == {"A1", "A2", "S1", "S2", "P1", "P2"}


class TestValidateSequence:
    def test_valid_sequence_is_clean(self):
        assert validate_sequence(_sequence()) == []

    def test_wrong_joint_count(self):
        seq = _sequence(coords=_coords(t=1, n=13), conf=np.ones((1, 13)))
        violations = validate_sequence(seq)
        assert "coords has shape (1, 13, 2), expected (1, 14, 2)" in violations
        assert "conf has shape (1, 13), expected (1, 14)" in violations

    def test_confidence_out_of_range_names_joint_and_value(self):
        conf = np.ones((1, N_JOINTS))
        conf[0, 13] = 1.5
        seq = _sequence(coords=np.zeros((1, N_JOINTS, 2)), conf=conf)
        violations = validate_sequence(seq)
        assert violations == ["frame 0, joint 13: confidence 1.5 outside [0, 1]"]

    def test_nonfinite_coordinate(self):
        coords = np.zeros((2, N_JOINTS, 2))
        coords[1, 13, 0] = math.nan
        seq = _sequence(coords=coords)
        assert validate_sequence(seq) == [
            "frame 1, joint 13: non-finite coordinates (nan, 0.0)"
        ]

    def test_bad_patient_id(self):
        seq = _sequence(patient=0)
        assert any("patient" in v for v in violations_lower(seq))


def violations_lower(seq):
    return [v.lower() for v in validate_sequence(seq)]


class TestJointIndexMap:
    def test_default_map(self):
        assert DEFAULT_JOINT_MAP == JointIndexMap(chin_index=1)

    def test_chin_index_out_of_range(self):
        for chin_index in (-1, 14):
            with pytest.raises(ValueError, match="chin_index"):
                JointIndexMap(chin_index=chin_index)


class TestSequenceArrays:
    def test_shapes_and_values(self):
        source = _coords()
        seq = _sequence(coords=source)
        assert seq.coords.shape == (3, 14, 2)
        assert seq.conf.shape == (3, 14)
        assert seq.coords.dtype == np.float64
        assert seq.coords[0, 5, 0] == 5.0
        assert seq.coords[0, 5, 1] == -5.0
        assert np.all(seq.conf == 1.0)
        # stored as read-only copies: neither the caller nor a consumer can
        # change a loaded sequence
        source[0, 5, 0] = 99.0
        assert seq.coords[0, 5, 0] == 5.0
        with pytest.raises(ValueError):
            seq.coords[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            seq.conf[0, 0] = 0.5

    def test_n_frames(self):
        assert _sequence().n_frames == 3
