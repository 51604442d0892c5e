"""Dilated causal convolution stack with residual levels, plus exact gradients.

Each level applies one causal 1-D convolution (left zero padding, dilation
from the spec), a ReLU, and a residual connection; a 1x1 projection carries
the residual whenever the channel count changes.  The last time step of the
top level feeds the affine head.  Causality holds level by level: the output
at time t never reads inputs after t.

Only the head's input is ever read, so each level is computed at just the
time rows in the receptive cone of the last step: one row at the top level,
and below it the rows that the level above reads through its taps.  With
kernel 3 and dilations 1, 2, 4, 8 at W = 32, levels 0-3 compute 15, 7, 3 and
1 of the 32 rows, and past the receptive field the cost no longer grows with
W.  `_plan` derives the rows from ``(W, kernel, dilations)`` alone.  Each
computed row keeps the order of operations of the full-sequence form (the
bias, then taps k = 0..K-1, then ReLU, then the residual) and rounds as that
form does, except where a batch of one leaves a product with a single row,
which numpy hands to BLAS's gemv.  The backward pass carries gradients on
the same rows, so the weight gradients sum over B x rows, not B x W.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .params import ModelParameters, TcnSpec, param_views
from .common import head_backward, head_forward, head_loss


@lru_cache(maxsize=128)
def _plan(
    w: int, kernel: int, dilations: tuple[int, ...]
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The input rows that the last step depends on, and per level a
    (kernel, rows) gather index into the rows of that level's input.

    A level's input holds only the rows that the level reads, in time order,
    plus one zero row at the end that stands for the causal padding; tap k
    of output row t reads input row t - (kernel-1-k) * dilation.  Derived
    top-down from the single row w - 1 of the top level.
    """
    needed = np.array([w - 1])
    gathers = []
    for dilation in reversed(dilations):
        reads = needed - dilation * np.arange(kernel - 1, -1, -1)[:, None]
        valid = reads >= 0
        # Not np.unique, which imports numpy.ma: 1.3 MB of peak RSS and ~15 ms.
        below = np.flatnonzero(np.bincount(reads[valid], minlength=w))
        gathers.append(np.where(valid, np.searchsorted(below, reads), len(below)))
        needed = below
    for array in (needed, *gathers):
        array.flags.writeable = False
    return needed, tuple(reversed(gathers))


def _per_sequence_product(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """(B, Cin) @ (Cin, Cout) one row at a time."""
    return (rows[:, None, :] @ weight)[:, 0]


def _run_cone(model: ModelParameters, x: np.ndarray, caches: list | None = None):
    """Each level at its cone rows; returns the top level's last step (B, C).

    With ``caches``, appends each level's gathered taps (K, rows*B, Cin) and
    its pre-activation (rows*B, Cout) for the backward pass.
    """
    spec: TcnSpec = model.spec
    p = model.unpack()
    b = x.shape[0]
    rows, gathers = _plan(x.shape[1], spec.kernel, spec.dilations)
    # A one-step window is its own cone.  The full-sequence form multiplies
    # each sequence's lone row by gemv, which rounds unlike gemm; do the same.
    times = _per_sequence_product if x.shape[1] == 1 else np.matmul
    # Each level's input: its rows, time-major (rows, B, C), then a zero row.
    current = np.zeros((len(rows) + 1, b, x.shape[2]))
    current[:-1] = x.transpose(1, 0, 2)[rows]
    for level, index in enumerate(gathers):
        weight = p[f"conv{level}_w"]
        n_rows = index.shape[1]
        taps = current[index].reshape(spec.kernel, n_rows * b, -1)
        pre = np.broadcast_to(p[f"conv{level}_b"], (n_rows * b, spec.channels)).copy()
        for k in range(spec.kernel):
            pre += times(taps[k], weight[k])
        current = np.empty((n_rows + 1, b, spec.channels))
        current[-1] = 0.0
        out = np.maximum(pre, 0.0, out=current[:-1].reshape(n_rows * b, -1))
        proj = p.get(f"proj{level}_w")
        # Tap K-1 reads each output row's own input row: the residual.
        out += times(taps[-1], proj) if proj is not None else taps[-1]
        if caches is not None:
            caches.append((taps, pre))
    return current[0]


def forward(model: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Class probabilities from the last-time-step representation.

    Accepts (W, D) or (B, W, D), mirroring the LSTM interface.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    _check_input(model, x)
    last = _run_cone(model, x)
    p = model.unpack()
    probs = head_forward(last, p["w_head"], p["b_head"], model.head)
    return probs[0] if squeeze else probs


def loss_and_grad(
    model: ModelParameters, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and its exact gradient as a flat vector."""
    _check_input(model, x)
    spec: TcnSpec = model.spec
    p = model.unpack()

    caches: list = []
    last = _run_cone(model, x, caches)
    logits = last @ p["w_head"].T + p["b_head"]
    loss, d_logits = head_loss(logits, targets, model.head)

    grad_flat = np.zeros_like(model.values)
    g = param_views(spec, grad_flat)
    d_out = head_backward(d_logits, last, p["w_head"], g["w_head"], g["b_head"])

    _, gathers = _plan(x.shape[1], spec.kernel, spec.dilations)
    for level in range(len(spec.dilations) - 1, -1, -1):
        taps, pre = caches[level]
        weight = p[f"conv{level}_w"]
        d_pre = d_out * (pre > 0.0)
        g[f"conv{level}_b"] += d_pre.sum(axis=0)
        for k in range(spec.kernel):
            g[f"conv{level}_w"][k] += taps[k].T @ d_pre
        proj = p.get(f"proj{level}_w")
        if proj is not None:
            g[f"proj{level}_w"] += taps[-1].T @ d_out
        if level == 0:
            break  # nothing reads the gradient with respect to x
        index = gathers[level]
        below = gathers[level - 1].shape[1]
        shape = (index.shape[1], x.shape[0], taps.shape[2])
        d_in = np.zeros((below + 1,) + shape[1:])
        # Within one tap only the zero row repeats in ``index[k]``, so the
        # buffered ``+=`` drops nothing that is read.
        for k in range(spec.kernel):
            d_in[index[k]] += (d_pre @ weight[k].T).reshape(shape)
        d_in[index[-1]] += (d_out @ proj.T if proj is not None else d_out).reshape(shape)
        d_out = d_in[:-1].reshape(below * shape[1], shape[2])
    return loss, grad_flat


def _check_input(model: ModelParameters, x: np.ndarray) -> None:
    if x.ndim != 3 or x.shape[1] < 1 or x.shape[2] != model.spec.input_dim:
        raise ValueError(
            f"expected input (..., W, {model.spec.input_dim}), got shape {x.shape}"
        )
