"""Training loop, optimizers, and the finite-difference gradient check.

Everything runs in float64.  The analytic gradients live next to the forward
passes (`lstm.loss_and_grad`, `tcn.loss_and_grad`); this module wraps them
with clipping, SGD/Adam updates, an epoch loop, and an independent
central-difference checker used to validate the analytic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lstm, tcn
from .common import one_blas_thread
from .params import HeadKind, LstmSpec, ModelParameters, TcnSpec


class TrainingDivergedError(RuntimeError):
    """Raised when a non-finite loss or gradient appears during training."""


_KERNELS = {LstmSpec: lstm, TcnSpec: tcn}


@one_blas_thread()
def forward(model: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Dispatch to the architecture's forward pass."""
    return _KERNELS[type(model.spec)].forward(model, x)


def batch_loss_and_grad(
    model: ModelParameters, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Dispatch to the architecture's loss/gradient routine."""
    return _KERNELS[type(model.spec)].loss_and_grad(model, x, targets)


def finite_difference_gradient(
    model: ModelParameters,
    x: np.ndarray,
    targets: np.ndarray,
    epsilon: float = 1e-5,
    indices: np.ndarray | None = None,
) -> np.ndarray:
    """Central-difference gradient of the batch loss, one coordinate at a time.

    With `indices` given, only those coordinates are probed (the rest stay 0);
    probing every coordinate of a full-size model is needlessly slow for spot
    checks.
    """
    base = model.values.copy()
    grad = np.zeros_like(base)
    probe = range(base.size) if indices is None else np.asarray(indices).reshape(-1)
    for i in probe:
        bumped = base.copy()
        bumped[i] = base[i] + epsilon
        hi, _ = batch_loss_and_grad(model.with_values(bumped), x, targets)
        bumped[i] = base[i] - epsilon
        lo, _ = batch_loss_and_grad(model.with_values(bumped), x, targets)
        grad[i] = (hi - lo) / (2.0 * epsilon)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|) -- scale-aware, never divides by 0."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing analytic and finite-difference gradients."""

    arch: str
    head: str
    n_checked: int
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


@one_blas_thread()
def grad_check(
    model: ModelParameters,
    x: np.ndarray,
    targets: np.ndarray,
    tolerance: float = 1e-6,
    epsilon: float = 1e-5,
    n_samples: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare the analytic gradient against central differences.

    `n_samples` limits the check to a random subset of coordinates (sampled
    without replacement from a seeded generator); None checks every one.
    """
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    _, analytic = batch_loss_and_grad(model, x, targets)
    size = analytic.size
    if n_samples is not None and n_samples < size:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        indices = rng.choice(size, size=n_samples, replace=False)
    else:
        indices = np.arange(size)
    numeric = finite_difference_gradient(model, x, targets, epsilon, indices)
    err = max_relative_error(analytic[indices], numeric[indices])
    return GradCheckReport(
        arch=model.spec.kind,
        head=model.head.value,
        n_checked=int(len(indices)),
        max_rel_error=err,
        tolerance=tolerance,
    )


def clip_gradient(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale `grad` so its L2 norm is at most `max_norm` (no-op if smaller)."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    norm = float(np.linalg.norm(grad))
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter for Adam."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the epoch loop."""

    optimizer: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    epochs: int = 20
    batch_size: int = 32
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        for name in ("learning_rate", "clip_norm"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")


def sgd_update(values: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    return values - lr * grad


def adam_update(
    values: np.ndarray, grad: np.ndarray, state: AdamState, config: TrainConfig
) -> np.ndarray:
    """One bias-corrected Adam step; mutates `state` in place."""
    state.t += 1
    state.m = config.beta1 * state.m + (1.0 - config.beta1) * grad
    state.v = config.beta2 * state.v + (1.0 - config.beta2) * grad * grad
    m_hat = state.m / (1.0 - config.beta1**state.t)
    v_hat = state.v / (1.0 - config.beta2**state.t)
    return values - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)


def train_step(
    model: ModelParameters,
    x: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig,
    state: AdamState | None,
) -> tuple[ModelParameters, float]:
    """One clipped gradient step on a single batch; returns the updated model."""
    loss, grad = batch_loss_and_grad(model, x, targets)
    if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise TrainingDivergedError(f"non-finite loss or gradient (loss={loss!r})")
    grad = clip_gradient(grad, config.clip_norm)
    if config.optimizer == "adam":
        assert state is not None
        new_values = adam_update(model.values, grad, state, config)
    else:
        new_values = sgd_update(model.values, grad, config.learning_rate)
    return model.with_values(new_values), loss


@dataclass
class FitResult:
    """Trained parameters plus the mean loss recorded after each epoch."""

    model: ModelParameters
    epoch_losses: list[float] = field(default_factory=list)


@one_blas_thread()
def fit(
    model: ModelParameters,
    x: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig,
) -> FitResult:
    """Mini-batch training over `config.epochs` passes of the data.

    `x` is (N, W, D); `targets` is (N,) integer classes for softmax heads or
    (N,) 0/1 floats for sigmoid heads.  Batch order reshuffles every epoch
    from a seeded generator, so identical inputs and config reproduce the
    identical parameter trajectory.  A `TrainingDivergedError` names the
    epoch and the step within it, both counted from 1.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets)
    if x.ndim != 3:
        raise ValueError(f"expected x of shape (N, W, D), got {x.shape}")
    if x.shape[0] != targets.shape[0]:
        raise ValueError(
            f"x has {x.shape[0]} sequences but targets has {targets.shape[0]}"
        )
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot fit on an empty batch")
    rng = np.random.default_rng(np.random.SeedSequence(config.shuffle_seed))
    state = AdamState.zeros(model.values.size) if config.optimizer == "adam" else None
    losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            try:
                model, loss = train_step(model, x[batch], targets[batch], config, state)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}, step {n_batches + 1}: {exc}"
                ) from None
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    return FitResult(model=model, epoch_losses=losses)
