"""Dilated causal convolution stack with residual levels, plus exact gradients.

Each level applies one causal 1-D convolution (left zero padding, dilation
from the spec), a ReLU, and a residual connection; a 1x1 projection carries
the residual whenever the channel count changes.  The last time step of the
top level feeds the affine head of the shared shells (`common`), which call
`_represent` and `_backward` here.  Causality holds level by level: the
output at time t never reads inputs after t.

Only the head's input is ever read, so each level is computed at just the
time rows in the receptive cone of the last step: one row at the top level,
and below it the rows that the level above reads through its taps.  With
kernel 3 and dilations 1, 2, 4, 8 at W = 32, levels 0-3 compute 15, 7, 3 and
1 of the 32 rows, and past the receptive field the cost no longer grows with
W.  `_plan` derives the rows from ``(W, kernel, dilations)`` alone.  Each
computed row keeps the order of operations of the full-sequence form (the
bias plus tap 0, computed as tap 0 plus the bias, which is the same sum;
then taps k = 1..K-1, then ReLU, then the residual) and rounds as that form
does, except where a batch of one leaves a product with a single row, which
numpy hands to BLAS's gemv.  The backward pass carries gradients on
the same rows, so the weight gradients sum over B x rows, not B x W.

A level's K tap products are one stacked ``np.matmul`` in the forward pass,
the weight gradient and the input gradient.  numpy hands each tap's matrix
to the same BLAS call as a product of that tap alone, so the bits are those
of K separate products; the sums over taps keep the order k = 0..K-1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .params import ModelParameters, TcnSpec
from .common import forward_shell, loss_and_grad_shell


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
    """(..., N, Cin) @ (..., Cin, Cout) one row at a time."""
    return (rows[..., None, :] @ weight[..., None, :, :])[..., 0, :]


def _represent(spec: TcnSpec, p: dict, x: np.ndarray, keep_caches: bool):
    """Each level at its cone rows; returns the top level's last step (B, C).

    With ``keep_caches``, also returns each level's gathered taps
    (K, rows*B, Cin) and its pre-activation (rows*B, Cout) for the backward
    pass; without, None.
    """
    b = x.shape[0]
    rows, gathers = _plan(x.shape[1], spec.kernel, spec.dilations)
    # A one-step window is its own cone.  The full-sequence form multiplies
    # each sequence's lone row by gemv, which rounds unlike gemm; do the same.
    times = _per_sequence_product if x.shape[1] == 1 else np.matmul
    # Each level's input: its rows, time-major (rows, B, C), then a zero row.
    current = np.zeros((len(rows) + 1, b, x.shape[2]))
    current[:-1] = x.transpose(1, 0, 2)[rows]
    caches = [] if keep_caches else None
    for level, index in enumerate(gathers):
        n_rows = index.shape[1]
        taps = current[index].reshape(spec.kernel, n_rows * b, -1)
        products = times(taps, p[f"conv{level}_w"])
        pre = np.add(products[0], p[f"conv{level}_b"])
        for product in products[1:]:
            pre += product
        current = np.empty((n_rows + 1, b, spec.channels))
        current[-1] = 0.0
        out = np.maximum(pre, 0.0, out=current[:-1].reshape(n_rows * b, -1))
        proj = p.get(f"proj{level}_w")
        # Tap K-1 reads each output row's own input row: the residual.
        out += times(taps[-1], proj) if proj is not None else taps[-1]
        if caches is not None:
            caches.append((taps, pre))
    return current[0], caches


def forward(model: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Class probabilities for (W, D) or (B, W, D) windows."""
    return forward_shell(_represent, model, x)


def loss_and_grad(
    model: ModelParameters, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and its exact gradient as a flat vector."""
    return loss_and_grad_shell(_represent, _backward, model, x, targets)


def _backward(spec: TcnSpec, p: dict, g: dict, x: np.ndarray, d_out: np.ndarray,
              caches: list) -> None:
    """The levels' gradients, top-down, on the cone rows."""
    _, gathers = _plan(x.shape[1], spec.kernel, spec.dilations)
    for level in range(len(spec.dilations) - 1, -1, -1):
        taps, pre = caches[level]
        d_pre = np.multiply(d_out, pre > 0.0)
        g[f"conv{level}_b"] += np.add.reduce(d_pre, axis=0)
        g[f"conv{level}_w"] += taps.transpose(0, 2, 1) @ d_pre
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
        for k, d_tap in enumerate(d_pre @ p[f"conv{level}_w"].transpose(0, 2, 1)):
            d_in[index[k]] += d_tap.reshape(shape)
        d_in[index[-1]] += (d_out @ proj.T if proj is not None else d_out).reshape(shape)
        d_out = d_in[:-1].reshape(below * shape[1], shape[2])
