"""Hand-written recurrent and convolutional sequence classifiers.

Both architectures consume windows of shape (W, D) (or batches (B, W, D)),
produce class probabilities through a shared softmax or sigmoid head, and
ship exact analytic gradients validated by a finite-difference checker.
"""

from .params import (
    ArchSpec,
    CheckpointError,
    HeadKind,
    LstmSpec,
    ModelParameters,
    TcnSpec,
    init_parameters,
    load_checkpoint,
    param_count,
    param_slots,
    param_views,
    save_checkpoint,
)
from .common import sigmoid, softmax
from .train import (
    AdamState,
    FitResult,
    GradCheckReport,
    TrainConfig,
    TrainingDivergedError,
    adam_update,
    batch_loss_and_grad,
    clip_gradient,
    finite_difference_gradient,
    fit,
    forward,
    grad_check,
    max_relative_error,
    sgd_update,
    train_step,
)

__all__ = [
    "AdamState",
    "ArchSpec",
    "CheckpointError",
    "FitResult",
    "GradCheckReport",
    "HeadKind",
    "LstmSpec",
    "ModelParameters",
    "TcnSpec",
    "TrainConfig",
    "TrainingDivergedError",
    "adam_update",
    "batch_loss_and_grad",
    "clip_gradient",
    "finite_difference_gradient",
    "fit",
    "forward",
    "grad_check",
    "init_parameters",
    "load_checkpoint",
    "max_relative_error",
    "param_count",
    "param_slots",
    "param_views",
    "save_checkpoint",
    "sgd_update",
    "sigmoid",
    "softmax",
    "train_step",
]
