"""skelgest: skeletal hand-gesture classification from 2-D pose sequences.

The pipeline: parse 5x14 frame matrices into validated sequences of
coordinate and confidence arrays, smooth the coordinate tracks, cut each
sequence into one (n, W, ...) stack of sliding windows, normalize every
window against its chin reference point, and classify windows with
hand-written LSTM or temporal-convolution models under patient-held-out
cross-validation.
"""

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
from .ingest import (
    DEFAULT_FOLD_BOUNDARIES,
    DataError,
    Dataset,
    FoldSplit,
    ParseError,
    SynthConfig,
    assign_folds,
    dataset_checksum,
    generate_synthetic,
    load_dataset,
    parse_skeletal_file,
    serialize_frames,
    write_dataset,
)
from .preprocess import (
    DegenerateReferenceError,
    NormMethod,
    SavgolSpec,
    WindowSpec,
    feature_dim,
    normalize_window,
    preprocess_sequence,
    savgol_coefficients,
    smooth_series,
)

__version__ = "0.1.0"
