"""Dilated causal convolution stack with residual levels, plus exact gradients.

Each level applies one causal 1-D convolution (left zero padding, dilation
from the spec), a ReLU, and a residual connection; a 1x1 projection carries
the residual whenever the channel count changes.  The last time step of the
top level feeds the affine head.  Causality holds level by level: the output
at time t never reads inputs after t.
"""

from __future__ import annotations

import numpy as np

from .params import HeadKind, ModelParameters, TcnSpec, param_views
from .common import head_backward, head_forward, head_loss


def _conv_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, dilation: int
) -> tuple[np.ndarray, np.ndarray]:
    """Causal dilated conv: x (B, W, Cin) -> (B, W, Cout); also returns the
    left-padded input for reuse in the backward pass."""
    b, w, c_in = x.shape
    kernel = weight.shape[0]
    pad = (kernel - 1) * dilation
    xp = np.zeros((b, w + pad, c_in), dtype=np.float64)
    xp[:, pad:, :] = x
    out = np.broadcast_to(bias, (b, w, weight.shape[2])).copy()
    for k in range(kernel):
        out += xp[:, k * dilation : k * dilation + w, :] @ weight[k]
    return out, xp


def _conv_backward(
    d_out: np.ndarray,
    xp: np.ndarray,
    weight: np.ndarray,
    g_weight: np.ndarray,
    g_bias: np.ndarray,
    dilation: int,
) -> np.ndarray:
    """Accumulate conv gradients in place; return d(loss)/d(input)."""
    b, w, c_out = d_out.shape
    kernel, c_in, _ = weight.shape
    pad = (kernel - 1) * dilation
    g_bias += d_out.sum(axis=(0, 1))
    d_rows = d_out.reshape(b * w, c_out)
    d_xp = np.zeros_like(xp)
    for k in range(kernel):
        tap = xp[:, k * dilation : k * dilation + w, :]
        g_weight[k] += tap.reshape(b * w, c_in).T @ d_rows
        d_xp[:, k * dilation : k * dilation + w, :] += d_out @ weight[k].T
    return d_xp[:, pad:, :]


def _run_levels(model: ModelParameters, x: np.ndarray):
    """All residual levels; returns the top output and per-level caches."""
    spec: TcnSpec = model.spec
    p = model.unpack()
    caches = []
    current = x
    for level, dilation in enumerate(spec.dilations):
        pre, xp = _conv_forward(
            current, p[f"conv{level}_w"], p[f"conv{level}_b"], dilation
        )
        active = np.maximum(pre, 0.0)
        proj = p.get(f"proj{level}_w")
        residual = current @ proj if proj is not None else current
        out = active + residual
        caches.append((current, xp, pre))
        current = out
    return current, caches


def forward(model: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Class probabilities from the last-time-step representation.

    Accepts (W, D) or (B, W, D), mirroring the LSTM interface.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    _check_input(model, x)
    top, _ = _run_levels(model, x)
    p = model.unpack()
    probs = head_forward(top[:, -1, :], p["w_head"], p["b_head"], model.head)
    return probs[0] if squeeze else probs


def loss_and_grad(
    model: ModelParameters, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and its exact gradient as a flat vector."""
    _check_input(model, x)
    spec: TcnSpec = model.spec
    p = model.unpack()

    top, caches = _run_levels(model, x)
    last = top[:, -1, :]
    logits = last @ p["w_head"].T + p["b_head"]
    loss, d_logits = head_loss(logits, targets, model.head)

    grad_flat = np.zeros_like(model.values)
    g = param_views(spec, grad_flat)
    d_last = head_backward(d_logits, last, p["w_head"], g["w_head"], g["b_head"])

    d_out = np.zeros_like(top)
    d_out[:, -1, :] = d_last
    for level in range(len(spec.dilations) - 1, -1, -1):
        inp, xp, pre = caches[level]
        dilation = spec.dilations[level]
        d_pre = d_out * (pre > 0.0)
        d_inp = _conv_backward(
            d_pre, xp, p[f"conv{level}_w"], g[f"conv{level}_w"], g[f"conv{level}_b"],
            dilation,
        )
        proj = p.get(f"proj{level}_w")
        if proj is not None:
            g[f"proj{level}_w"] += (
                inp.reshape(-1, inp.shape[2]).T @ d_out.reshape(-1, d_out.shape[2])
            )
            d_inp += d_out @ proj.T
        else:
            d_inp += d_out
        d_out = d_inp
    return loss, grad_flat


def _check_input(model: ModelParameters, x: np.ndarray) -> None:
    if x.ndim != 3 or x.shape[2] != model.spec.input_dim:
        raise ValueError(
            f"expected input (..., W, {model.spec.input_dim}), got shape {x.shape}"
        )
