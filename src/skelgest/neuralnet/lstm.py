"""LSTM recurrence with exact backpropagation through time.

Gate layout in the stacked weight matrices is [input, forget, candidate,
output].  The recurrence starts from zero hidden and cell state; the final
hidden state feeds the affine head of the shared shells (`common`), which
call `_represent` and `_backward` here.  Everything is float64 and batched:
inputs are (B, W, D).

The per-step elementwise work runs feature-major: a step's gates are one
contiguous (4H, B) block, so each gate is a contiguous (H, B) row block, and
cell states are (H, B).  The matrix products keep batch-major operands: the
hidden states they read are (B, H) and the gate gradients (B, 4H).  A
product's bits depend on its operands' orientation and shapes, so this keeps
them equal to those of the plain batch-major form.
"""

from __future__ import annotations

import numpy as np

from .params import LstmSpec, ModelParameters
from .common import forward_shell, loss_and_grad_shell, sigmoid


def _gate_slices(h: int) -> tuple[slice, slice, slice, slice]:
    return (slice(0, h), slice(h, 2 * h), slice(2 * h, 3 * h), slice(3 * h, 4 * h))


def _represent(spec: LstmSpec, p: dict, x: np.ndarray, keep_caches: bool):
    """Run the recurrence over all steps from zero state.

    Returns the final (B, H) hidden state and, with ``keep_caches``, the
    caches for backpropagation; without, None.  The caches are
    ``(gates, cells, tanh_cells, hiddens)``: gates (W, 4H, B); cells
    (W + 1, H, B) and hiddens (W + 1, B, H), each led by the zero state; and
    tanh_cells (W, H, B).  Without caches the states live in two-slot rings.
    """
    b, w, _ = x.shape
    h_dim = spec.hidden_dim
    si, sf, sg, so = _gate_slices(h_dim)

    # Input contributions for every step at once, stored step-major: step t's
    # (B, 4H) block is contiguous.  The recurrent term is added step by step,
    # and the step's (4H, B) gates then overwrite the block in place.
    pre_x = np.empty((w, b, 4 * h_dim))
    np.matmul(x, p["w_x"].T, out=pre_x.transpose(1, 0, 2))
    pre_x += p["b"]
    gates = pre_x.reshape(w, 4 * h_dim, b)
    w_h_t = p["w_h"].T

    slots = w + 1 if keep_caches else 2
    cells = np.zeros((slots, h_dim, b))
    hiddens = np.zeros((slots, b, h_dim))
    tanh_cells = np.empty((slots - 1, h_dim, b))
    h_w = np.empty((b, 4 * h_dim))
    work = np.empty((h_dim, b))
    for t in range(w):
        c_prev, c = cells[t % slots], cells[(t + 1) % slots]
        h_prev, h = hiddens[t % slots], hiddens[(t + 1) % slots]
        tc = tanh_cells[t % (slots - 1)]
        np.matmul(h_prev, w_h_t, out=h_w)
        np.add(pre_x[t], h_w, out=h_w)
        z = gates[t]
        z[:] = h_w.T
        # The logistic runs in place on the whole block; the candidate rows
        # take the tanh of their pre-activations.
        np.tanh(z[sg], out=work)
        sigmoid(z, out=z)
        z[sg] = work
        np.multiply(z[sf], c_prev, out=c)
        np.multiply(z[si], z[sg], out=work)
        c += work
        np.tanh(c, out=tc)
        np.multiply(z[so].T, tc.T, out=h)
    h_final = hiddens[w % slots]
    return h_final, (gates, cells, tanh_cells, hiddens) if keep_caches else None


def forward(model: ModelParameters, x: np.ndarray) -> np.ndarray:
    """Class probabilities for (W, D) or (B, W, D) windows."""
    return forward_shell(_represent, model, x)


def loss_and_grad(
    model: ModelParameters, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and its exact gradient as a flat vector."""
    return loss_and_grad_shell(_represent, _backward, model, x, targets)


def _backward(spec: LstmSpec, p: dict, g: dict, x: np.ndarray, dh: np.ndarray,
              caches: tuple) -> None:
    """Backpropagation through time from d(loss)/d(final hidden state).

    The time loop carries only the recurrent gradient, feature-major, and
    stores each step's gate gradient batch-major; the ``w_h`` and ``w_x``
    gradients are each one matmul over all W*B rows afterwards.
    """
    gates, cells, tanh_cells, hiddens = caches
    h_dim = spec.hidden_dim
    b, w, d = x.shape
    si, sf, sg, so = _gate_slices(h_dim)

    # Step t's (B, 4H) gate gradient overwrites its gates, which no later
    # step reads.
    dz_all = gates.reshape(w, b, 4 * h_dim)
    dz = np.empty((4 * h_dim, b))
    dh_t = np.empty((h_dim, b))
    dc = np.zeros((h_dim, b))
    work = np.empty((h_dim, b))
    for t in range(w - 1, -1, -1):
        gate = gates[t]
        i_g, f_g, g_g, o_g = gate[si], gate[sf], gate[sg], gate[so]
        tc = tanh_cells[t]
        dh_t[:] = dh.T

        # Output gate, from d_o = dh * tc.
        d_o = dz[so]
        np.multiply(dh_t, tc, out=d_o)
        d_o *= o_g
        np.subtract(1.0, o_g, out=work)
        d_o *= work
        # dc += dh * o * (1 - tc^2)
        np.multiply(tc, tc, out=work)
        np.subtract(1.0, work, out=work)
        dh_t *= o_g
        dh_t *= work
        dc += dh_t
        # Input gate, from d_i = dc * g.
        d_i = dz[si]
        np.multiply(dc, g_g, out=d_i)
        d_i *= i_g
        np.subtract(1.0, i_g, out=work)
        d_i *= work
        # Candidate, from d_g = dc * i.
        d_g = dz[sg]
        np.multiply(dc, i_g, out=d_g)
        np.multiply(g_g, g_g, out=work)
        np.subtract(1.0, work, out=work)
        d_g *= work
        # Forget gate, from d_f = dc * c_prev; the initial cell state is a
        # constant zero.
        d_f = dz[sf]
        if t == 0:
            d_f[:] = 0.0
            dz_all[t] = dz.T
            break
        np.multiply(dc, cells[t], out=d_f)
        d_f *= f_g
        np.subtract(1.0, f_g, out=work)
        d_f *= work
        dc *= f_g

        dz_all[t] = dz.T
        np.matmul(dz_all[t], p["w_h"], out=dh)

    g["w_h"] += dz_all[1:].reshape(-1, 4 * h_dim).T @ hiddens[1:-1].reshape(-1, h_dim)
    g["w_x"] += dz_all.reshape(-1, 4 * h_dim).T @ x.transpose(1, 0, 2).reshape(-1, d)
    g["b"] += dz_all.sum(axis=(0, 1))
