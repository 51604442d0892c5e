"""Sequence preprocessing: smoothing, sliding windows, chin-referenced features.

The chain runs in a fixed order: Savitzky-Golay smoothing over the *full*
sequence, then sliding windows (zero-padded at the front when the sequence
is shorter than the window), then one of five per-window coordinate
normalizations, all referenced to the chin joint of the window's first
non-padded frame.  A sequence's windows are one (n, W, 14, 2) array and its
features one (n, W, D) array; every window is normalized in the same pass:

  M1  chin-relative Cartesian offsets            (dx, dy)           28 features
  M2  M1 divided componentwise by the chin       (dx/xc, dy/yc)     28
  M3  polar form of M1                           (distance, angle)  28
  M4  M1 and M3 side by side                                        56
  M5  M2 and M3 side by side                                        56

Subtracting the reference chin removes the camera-position bias between
patients; the ratio form additionally divides out the reference location.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .skeleton import N_JOINTS, GestureSequence, JointIndexMap


class DegenerateReferenceError(ValueError):
    """Chin-ratio normalization hit a reference coordinate of exactly zero."""


# ---------------------------------------------------------------------------
# Savitzky-Golay smoothing


@functools.lru_cache(maxsize=None)
def _cached_savgol(m: int, order: int) -> tuple[float, ...]:
    half = m // 2
    t = np.arange(-half, half + 1, dtype=np.float64)
    design = np.vander(t, order + 1, increasing=True)
    # Row 0 of (A^T A)^-1 A^T evaluates the least-squares polynomial at t=0,
    # which is exactly the smoothing weight vector.
    weights = np.linalg.solve(design.T @ design, design.T)[0]
    return tuple(float(w) for w in weights)


def savgol_coefficients(m: int, order: int) -> np.ndarray:
    """Least-squares smoothing weights for a degree-``order`` fit on m points.

    Computed from the normal equations, never hardcoded.  The weights are
    symmetric and sum to 1.  Raises ``ValueError`` for even m or m <= order.
    """
    if m % 2 == 0:
        raise ValueError(f"window size m must be odd, got {m}")
    if m <= order:
        raise ValueError(f"need m > polynomial order, got m={m}, order={order}")
    if order < 0:
        raise ValueError(f"polynomial order must be >= 0, got {order}")
    return np.array(_cached_savgol(m, order))


@dataclass(frozen=True)
class SavgolSpec:
    """Smoothing filter shape: window size m (odd) and polynomial degree."""

    m: int = 5
    order: int = 2

    def __post_init__(self) -> None:
        savgol_coefficients(self.m, self.order)  # validates (m, order)

    @property
    def coefficients(self) -> np.ndarray:
        return savgol_coefficients(self.m, self.order)


def smooth_series(values: np.ndarray, spec: SavgolSpec) -> np.ndarray:
    """Smooth along axis 0; boundary rows where the window does not fit are
    copied through unchanged."""
    m = spec.m
    t = values.shape[0]
    out = np.array(values, dtype=np.float64, copy=True)
    if t < m:
        return out
    half = m // 2
    windows = np.lib.stride_tricks.sliding_window_view(values, m, axis=0)
    out[half : t - half] = windows @ spec.coefficients
    return out


# ---------------------------------------------------------------------------
# Sliding windows


@dataclass(frozen=True)
class WindowSpec:
    """Fixed window length in frames and the shift between successive windows."""

    length: int
    stride: int = 1

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"window length must be >= 1, got {self.length}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")


# ---------------------------------------------------------------------------
# Normalization


class NormMethod(IntEnum):
    M1 = 1  # chin-relative Cartesian
    M2 = 2  # chin-relative, divided by chin coordinates
    M3 = 3  # polar around the chin
    M4 = 4  # M1 ++ M3
    M5 = 5  # M2 ++ M3


def feature_dim(method: NormMethod, include_confidence: bool = False) -> int:
    """Feature columns per frame: 2 per joint for M1-M3, 4 for M4/M5."""
    base = N_JOINTS * (4 if method in (NormMethod.M4, NormMethod.M5) else 2)
    return base + (N_JOINTS if include_confidence else 0)


def normalize_window(
    coords: np.ndarray,
    method: NormMethod,
    joint_map: JointIndexMap,
    conf: np.ndarray | None = None,
    pad: int = 0,
) -> np.ndarray:
    """Normalize a stack of windows against the chin of each one's first
    non-padded frame.

    ``coords`` is (n, W, 14, 2); its first ``pad`` rows in every window are
    filler and come out as exactly zero.  Given ``conf`` (n, W, 14), its
    non-padded rows are appended as the last 14 feature columns.  Returns
    (n, W, D) features.  Raises :class:`DegenerateReferenceError` for M2/M5
    when a reference chin coordinate is exactly zero.
    """
    n, w = coords.shape[:2]
    if pad >= w:
        raise ValueError("window has no non-padded frame to take the chin from")
    chin = coords[:, pad, joint_map.chin_index][:, None, None, :]  # (n, 1, 1, 2)
    delta = coords[:, pad:] - chin  # (n, W - pad, 14, 2)
    # Flattening the trailing (14, 2) axes interleaves [a0, b0, a1, b1, ...].
    flat = delta.shape[:2] + (2 * N_JOINTS,)

    blocks: list[np.ndarray] = []
    if method in (NormMethod.M1, NormMethod.M4):
        blocks.append(delta.reshape(flat))
    if method in (NormMethod.M2, NormMethod.M5):
        zero = np.flatnonzero((chin == 0.0).any(axis=-1))
        if zero.size:
            x_chin, y_chin = chin.reshape(n, 2)[zero[0]].tolist()
            raise DegenerateReferenceError(
                f"reference chin ({x_chin}, {y_chin}) has a zero coordinate; "
                "chin-ratio normalization is undefined"
            )
        blocks.append((delta / chin).reshape(flat))
    if method in (NormMethod.M3, NormMethod.M4, NormMethod.M5):
        dist = np.hypot(delta[..., 0], delta[..., 1])
        angle = np.arctan2(delta[..., 1], delta[..., 0])
        angle = np.where(dist == 0.0, 0.0, angle)
        blocks.append(np.stack([dist, angle], axis=-1).reshape(flat))
    if conf is not None:
        blocks.append(conf[:, pad:])

    data = np.zeros((n, w, feature_dim(method, conf is not None)), dtype=np.float64)
    data[:, pad:] = np.concatenate(blocks, axis=-1)
    return data


# ---------------------------------------------------------------------------
# Full chain


def _windows(values: np.ndarray, spec: WindowSpec) -> np.ndarray:
    """(n, W, ...) windows of a (T, ...) series.

    T >= W gives floor((T - W) / stride) + 1 windows; T < W gives a single
    window with W - T leading zero rows.
    """
    t, w = len(values), spec.length
    if t < w:
        return np.concatenate([np.zeros((w - t,) + values.shape[1:]), values])[None]
    return values[np.arange(0, t - w + 1, spec.stride)[:, None] + np.arange(w)]


def preprocess_sequence(
    seq: GestureSequence,
    method: NormMethod,
    window_spec: WindowSpec,
    joint_map: JointIndexMap,
    savgol_spec: SavgolSpec | None = SavgolSpec(),
    include_confidence: bool = False,
) -> np.ndarray:
    """Smooth (optional), window, and normalize one sequence: (n, W, D)."""
    coords = seq.coords if savgol_spec is None else smooth_series(seq.coords, savgol_spec)
    conf = _windows(seq.conf, window_spec) if include_confidence else None
    pad = max(window_spec.length - seq.n_frames, 0)
    return normalize_window(_windows(coords, window_spec), method, joint_map, conf, pad)
