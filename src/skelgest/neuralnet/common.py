"""Numerics shared by both architectures: activations, heads, losses."""

from __future__ import annotations

import numpy as np

from .params import HeadKind


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    Both branches read ``exp(-|z|)``, which never overflows; they are the
    ``1/(1+exp(-z))`` and ``exp(z)/(1+exp(z))`` forms, selected by sign.
    ``-|z|`` is spelled ``min(z, -z)`` so that a NaN keeps its sign bit.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=-1, keepdims=True)


def head_forward(
    h: np.ndarray, w_head: np.ndarray, b_head: np.ndarray, head: HeadKind
) -> np.ndarray:
    logits = h @ w_head.T + b_head
    return softmax(logits) if head is HeadKind.SOFTMAX else sigmoid(logits)


def head_loss(
    logits: np.ndarray, targets: np.ndarray, head: HeadKind
) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and d(loss)/d(logits).

    Softmax: ``targets`` are class indices.  Sigmoid: ``targets`` are 0/1
    floats against a single logit column.  Both forms are computed in logit
    space, which is exact where the probability-space loss is clamped.
    """
    b = logits.shape[0]
    if head is HeadKind.SOFTMAX:
        idx = np.asarray(targets, dtype=np.intp)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        log_probs = shifted - log_z[:, None]
        loss = -log_probs[np.arange(b), idx].mean()
        d_logits = np.exp(log_probs)
        d_logits[np.arange(b), idx] -= 1.0
        return float(loss), d_logits / b
    y = np.asarray(targets, dtype=np.float64).reshape(b, 1)
    z = logits
    # -log sigmoid(z) = softplus(-z); BCE collapses to softplus(z) - y*z.
    loss = float((np.logaddexp(0.0, z) - y * z).mean())
    d_logits = (sigmoid(z) - y) / b
    return loss, d_logits


def head_backward(
    d_logits: np.ndarray,
    h: np.ndarray,
    w_head: np.ndarray,
    g_w_head: np.ndarray,
    g_b_head: np.ndarray,
) -> np.ndarray:
    """Accumulate head gradients in place; return d(loss)/d(h)."""
    g_w_head += d_logits.T @ h
    g_b_head += d_logits.sum(axis=0)
    return d_logits @ w_head
