"""Model parameter management: architecture specs, flat vectors, checkpoints.

All trainable weights of a model live in one flat float64 vector.  The
architecture spec fixes a deterministic slot layout (name -> shape) over that
vector; forward/backward code addresses slots through reshaped views, so the
optimizer can treat the whole model as a single array.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from typing import ClassVar

import numpy as np

_MAGIC = b"SKGCKPT1"


class CheckpointError(ValueError):
    """A checkpoint file is damaged: truncated, padded, or not a checkpoint."""


class HeadKind(Enum):
    SOFTMAX = "softmax"  # K-way class probabilities
    SIGMOID = "sigmoid"  # single positive-class probability


@dataclass(frozen=True)
class LstmSpec:
    """Single-layer LSTM with an affine classification head."""

    kind: ClassVar[str] = "lstm"
    input_dim: int
    hidden_dim: int = 128
    n_classes: int = 2

    def __post_init__(self) -> None:
        if min(self.input_dim, self.hidden_dim, self.n_classes) < 1:
            raise ValueError(f"all dimensions must be >= 1: {self}")


@dataclass(frozen=True)
class TcnSpec:
    """Stack of dilated causal conv levels with residual connections.

    One convolution per level; ``dilations`` gives the per-level dilation and
    must be strictly increasing powers of two.
    """

    kind: ClassVar[str] = "tcn"
    input_dim: int
    channels: int = 64
    kernel: int = 3
    dilations: tuple[int, ...] = (1, 2, 4, 8)
    n_classes: int = 2

    def __post_init__(self) -> None:
        if min(self.input_dim, self.channels, self.n_classes) < 1:
            raise ValueError(f"all dimensions must be >= 1: {self}")
        if self.kernel < 1:
            raise ValueError(f"kernel must be >= 1, got {self.kernel}")
        if not self.dilations:
            raise ValueError("need at least one dilation level")
        prev = 0
        for d in self.dilations:
            if d <= prev or d & (d - 1) != 0:
                raise ValueError(
                    f"dilations must be strictly increasing powers of two, got "
                    f"{self.dilations}"
                )
            prev = d


ArchSpec = LstmSpec | TcnSpec


def param_slots(spec: ArchSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) layout of the flat parameter vector."""
    if isinstance(spec, LstmSpec):
        d, h, k = spec.input_dim, spec.hidden_dim, spec.n_classes
        return [
            ("w_x", (4 * h, d)),
            ("w_h", (4 * h, h)),
            ("b", (4 * h,)),
            ("w_head", (k, h)),
            ("b_head", (k,)),
        ]
    slots: list[tuple[str, tuple[int, ...]]] = []
    c_in = spec.input_dim
    for level in range(len(spec.dilations)):
        slots.append((f"conv{level}_w", (spec.kernel, c_in, spec.channels)))
        slots.append((f"conv{level}_b", (spec.channels,)))
        if c_in != spec.channels:
            slots.append((f"proj{level}_w", (c_in, spec.channels)))
        c_in = spec.channels
    slots.append(("w_head", (spec.n_classes, spec.channels)))
    slots.append(("b_head", (spec.n_classes,)))
    return slots


def param_count(spec: ArchSpec) -> int:
    return sum(math.prod(shape) for _, shape in param_slots(spec))


def param_views(spec: ArchSpec, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> reshaped view into ``flat``; writes through to the vector."""
    slots = param_slots(spec)
    needed = sum(math.prod(shape) for _, shape in slots)
    if flat.size != needed:
        raise ValueError(
            f"parameter vector has {flat.size} values, layout needs {needed}"
        )
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in slots:
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


@dataclass
class ModelParameters:
    """One classifier's weights: flat vector + the spec that shapes it."""

    spec: ArchSpec
    head: HeadKind
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = param_count(self.spec)
        if self.values.shape != (expected,):
            raise ValueError(
                f"parameter vector shape {self.values.shape} does not match "
                f"layout size ({expected},)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter vector contains non-finite values")
        if self.head is HeadKind.SIGMOID and self.spec.n_classes != 1:
            raise ValueError("sigmoid head requires n_classes == 1")

    def unpack(self) -> dict[str, np.ndarray]:
        return param_views(self.spec, self.values)

    def with_values(self, values: np.ndarray) -> "ModelParameters":
        return replace(self, values=values)


def _xavier(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int
            ) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_parameters(spec: ArchSpec, head: HeadKind, seed: int) -> ModelParameters:
    """Xavier-uniform weights, zero biases; deterministic per seed.

    The LSTM forget-gate bias starts at 1 so early training does not flush
    the cell state.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flat = np.zeros(param_count(spec), dtype=np.float64)
    views = param_views(spec, flat)
    if isinstance(spec, LstmSpec):
        d, h = spec.input_dim, spec.hidden_dim
        views["w_x"][:] = _xavier(rng, (4 * h, d), d, h)
        views["w_h"][:] = _xavier(rng, (4 * h, h), h, h)
        views["b"][h : 2 * h] = 1.0
        views["w_head"][:] = _xavier(rng, (spec.n_classes, h), h, spec.n_classes)
    else:
        c_in = spec.input_dim
        for level in range(len(spec.dilations)):
            shape = (spec.kernel, c_in, spec.channels)
            views[f"conv{level}_w"][:] = _xavier(
                rng, shape, spec.kernel * c_in, spec.kernel * spec.channels
            )
            if c_in != spec.channels:
                views[f"proj{level}_w"][:] = _xavier(
                    rng, (c_in, spec.channels), c_in, spec.channels
                )
            c_in = spec.channels
        views["w_head"][:] = _xavier(
            rng, (spec.n_classes, spec.channels), spec.channels, spec.n_classes
        )
    return ModelParameters(spec=spec, head=head, values=flat)


# ---------------------------------------------------------------------------
# Checkpoint file: magic + length-prefixed JSON header + raw little-endian
# float64 parameter array.


def _spec_from_dict(data: dict) -> ArchSpec:
    """The spec of a header's ``arch`` object: its ``kind`` picks the class,
    whose fields are read by name; a JSON list becomes a tuple."""
    kind = data.get("kind")
    cls = next((c for c in (LstmSpec, TcnSpec) if c.kind == kind), None)
    if cls is None:
        raise ValueError(f"unknown architecture kind {kind!r} in checkpoint header")
    values = {f.name: data[f.name] for f in fields(cls)}
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def save_checkpoint(path, model: ModelParameters, *, extra: dict | None = None) -> None:
    """Write a self-describing checkpoint; ``extra`` lands in the header."""
    header = {
        "format": "skelgest-checkpoint",
        "version": 1,
        "arch": {"kind": model.spec.kind, **asdict(model.spec)},
        "head": model.head.value,
        "param_count": int(model.values.size),
    }
    if extra:
        header.update(extra)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(model.values, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParameters, dict]:
    """Read a checkpoint; returns the model and the full header dict.

    Any damage -- a wrong magic, a cut or malformed header, a short payload,
    trailing bytes -- raises :class:`CheckpointError` naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(_MAGIC) + 8
    if data[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a skelgest checkpoint")
    if len(data) < start:
        raise CheckpointError(f"{path}: truncated inside the header length")
    (header_len,) = struct.unpack("<Q", data[len(_MAGIC) : start])
    payload = data[start + header_len :]
    try:
        header = json.loads(data[start : start + header_len].decode("utf-8"))
        spec = _spec_from_dict(header["arch"])
        expected = param_count(spec)
        if len(payload) != expected * 8:
            raise ValueError(
                f"parameter payload truncated ({len(payload) // 8} of {expected} values)"
                if len(payload) < expected * 8
                else f"{len(payload) - expected * 8} trailing bytes after the payload"
            )
        values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        model = ModelParameters(spec=spec, head=HeadKind(header["head"]), values=values)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"{path}: damaged checkpoint: {exc}") from None
    return model, header
