"""The LSTM and TCN kernels against straightforward reference forms.

The library computes each weight gradient of a recurrence or convolution as
one matrix product over all (time, batch) rows.  The references here are the
direct forms: the masked two-branch logistic, a per-step accumulation of the
LSTM recurrent-weight gradient, and ``einsum`` contractions for the
input-weight, convolution and projection gradients.  Forward arithmetic is
unchanged, so losses and probabilities must match exactly; the gradients sum
the same terms in another order, so they must match to a relative 1e-12.

The LSTM kernel runs its per-step elementwise work feature-major, with every
matrix product on the operands of the plain batch-major kernel.  That kernel
is kept here verbatim (``batch_major_*``) as a byte-level oracle at the
model's real sizes.

The TCN kernel computes each level only at the time rows in the receptive
cone of the last step.  The full-sequence kernel that it replaced, every
level at all W steps, is kept here verbatim (``full_*``), and the ``einsum``
reference runs its forward pass through it.  Both kernels round each computed
row alike except in a batch of one, where the cone's top level multiplies a
single row: numpy sends that product to BLAS's gemv, which rounds unlike
gemm.  The cone oracle allows a relative 1e-12 everywhere.

The cone kernel with one product per tap (``per_tap_*``), and
`init_parameters` with one branch per architecture (``per_architecture_init``),
are kept here as byte-level oracles of the stacked-tap kernel and of the
slot-table initialization.
"""

import numpy as np
import pytest

from skelgest.neuralnet import (
    HeadKind,
    LstmSpec,
    TcnSpec,
    ModelParameters,
    init_parameters,
    lstm,
    param_count,
    param_views,
    sigmoid,
    tcn,
)
from skelgest.neuralnet.common import head_backward, head_forward, head_loss

GRAD_RTOL = 1e-12


def masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _nan(bits):
    return np.frombuffer(np.uint64(bits).tobytes(), dtype=np.float64)[0]


def reference_lstm(model, x, targets=None):
    """Probabilities, or (loss, gradient) when ``targets`` is given."""
    h_dim = model.spec.hidden_dim
    b, w, _ = x.shape
    p = model.unpack()
    si, sf, sg, so = (slice(k * h_dim, (k + 1) * h_dim) for k in range(4))
    pre_x = x @ p["w_x"].T + p["b"]
    gates = np.empty((w, b, 4 * h_dim))
    cells = np.empty((w, b, h_dim))
    tanh_cells = np.empty((w, b, h_dim))
    hiddens = np.empty((w, b, h_dim))
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    for t in range(w):
        z = pre_x[:, t, :] + h @ p["w_h"].T
        i_g = masked_sigmoid(z[:, si])
        f_g = masked_sigmoid(z[:, sf])
        g_g = np.tanh(z[:, sg])
        o_g = masked_sigmoid(z[:, so])
        c = f_g * c + i_g * g_g
        tc = np.tanh(c)
        h = o_g * tc
        gates[t] = np.concatenate([i_g, f_g, g_g, o_g], axis=1)
        cells[t], tanh_cells[t], hiddens[t] = c, tc, h
    if targets is None:
        return head_forward(h, p["w_head"], p["b_head"], model.head)

    logits = h @ p["w_head"].T + p["b_head"]
    loss, d_logits = head_loss(logits, targets, model.head)
    grad = np.zeros_like(model.values)
    g = param_views(model.spec, grad)
    dh = head_backward(d_logits, h, p["w_head"], g["w_head"], g["b_head"])
    dz_all = np.empty((w, b, 4 * h_dim))
    dc = np.zeros((b, h_dim))
    for t in range(w - 1, -1, -1):
        i_g, f_g, g_g, o_g = (gates[t, :, s] for s in (si, sf, sg, so))
        tc = tanh_cells[t]
        c_prev = cells[t - 1] if t > 0 else np.zeros((b, h_dim))
        h_prev = hiddens[t - 1] if t > 0 else np.zeros((b, h_dim))
        dc = dc + dh * o_g * (1.0 - tc * tc)
        dz = dz_all[t]
        dz[:, si] = dc * g_g * i_g * (1.0 - i_g)
        dz[:, sf] = dc * c_prev * f_g * (1.0 - f_g)
        dz[:, sg] = dc * i_g * (1.0 - g_g * g_g)
        dz[:, so] = dh * tc * o_g * (1.0 - o_g)
        g["w_h"] += dz.T @ h_prev
        dh = dz @ p["w_h"]
        dc = dc * f_g
    g["w_x"] += np.einsum("wbh,bwd->hd", dz_all, x)
    g["b"] += dz_all.sum(axis=(0, 1))
    return loss, grad


# The batch-major LSTM kernel that the feature-major one replaced.  Its
# arithmetic is verbatim; names, annotations and input checks differ.
# ``batch_major_sigmoid`` is the select form of the logistic that it called.


def batch_major_sigmoid(z):
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _batch_major_gate_slices(h):
    return (slice(0, h), slice(h, 2 * h), slice(2 * h, 3 * h), slice(3 * h, 4 * h))


def _batch_major_run_recurrence(p, x, h_dim, keep_caches=False):
    b, w, _ = x.shape
    si, sf, sg, so = _batch_major_gate_slices(h_dim)
    pre_x = x @ p["w_x"].T + p["b"]
    w_h_t = p["w_h"].T
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
        gate = batch_major_sigmoid(z)
        gate[:, sg] = np.tanh(z[:, sg])
        c = gate[:, sf] * c + gate[:, si] * gate[:, sg]
        tc = np.tanh(c)
        h = gate[:, so] * tc
        if caches is not None:
            for cache, value in zip(caches, (gate, c, tc, h)):
                cache[t] = value
    return h, caches


def batch_major_forward(model, x):
    p = model.unpack()
    h_final, _ = _batch_major_run_recurrence(p, x, model.spec.hidden_dim)
    return head_forward(h_final, p["w_head"], p["b_head"], model.head)


def batch_major_loss_and_grad(model, x, targets):
    spec = model.spec
    h_dim = spec.hidden_dim
    b, w, d = x.shape
    p = model.unpack()
    si, sf, sg, so = _batch_major_gate_slices(h_dim)

    h_final, (gates, cells, tanh_cells, hiddens) = _batch_major_run_recurrence(
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


# The full-sequence TCN that the cone kernel replaced: every level at all W
# steps.  Its arithmetic is verbatim; only the names changed.


def full_conv_forward(x, weight, bias, dilation):
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


def full_conv_backward(d_out, xp, weight, g_weight, g_bias, dilation):
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


def full_run_levels(model, x):
    """All residual levels; returns the top output and per-level caches."""
    spec = model.spec
    p = model.unpack()
    caches = []
    current = x
    for level, dilation in enumerate(spec.dilations):
        pre, xp = full_conv_forward(
            current, p[f"conv{level}_w"], p[f"conv{level}_b"], dilation
        )
        active = np.maximum(pre, 0.0)
        proj = p.get(f"proj{level}_w")
        residual = current @ proj if proj is not None else current
        out = active + residual
        caches.append((current, xp, pre))
        current = out
    return current, caches


def full_tcn_forward(model, x):
    top, _ = full_run_levels(model, x)
    p = model.unpack()
    return head_forward(top[:, -1, :], p["w_head"], p["b_head"], model.head)


def full_tcn_loss_and_grad(model, x, targets):
    spec = model.spec
    p = model.unpack()

    top, caches = full_run_levels(model, x)
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
        d_inp = full_conv_backward(
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


def reference_tcn_loss_and_grad(model, x, targets):
    """The TCN backward pass with every weight gradient as an ``einsum``."""
    spec = model.spec
    p = model.unpack()
    top, caches = full_run_levels(model, x)
    last = top[:, -1, :]
    logits = last @ p["w_head"].T + p["b_head"]
    loss, d_logits = head_loss(logits, targets, model.head)
    grad = np.zeros_like(model.values)
    g = param_views(spec, grad)
    d_out = np.zeros_like(top)
    d_out[:, -1, :] = head_backward(d_logits, last, p["w_head"], g["w_head"], g["b_head"])
    w = x.shape[1]
    for level in range(len(spec.dilations) - 1, -1, -1):
        inp, xp, pre = caches[level]
        dilation = spec.dilations[level]
        weight = p[f"conv{level}_w"]
        pad = (weight.shape[0] - 1) * dilation
        d_pre = d_out * (pre > 0.0)
        g[f"conv{level}_b"] += d_pre.sum(axis=(0, 1))
        d_xp = np.zeros_like(xp)
        for k in range(weight.shape[0]):
            tap = xp[:, k * dilation : k * dilation + w, :]
            g[f"conv{level}_w"][k] += np.einsum("btc,btd->cd", tap, d_pre)
            d_xp[:, k * dilation : k * dilation + w, :] += d_pre @ weight[k].T
        d_inp = d_xp[:, pad:, :]
        proj = p.get(f"proj{level}_w")
        if proj is not None:
            g[f"proj{level}_w"] += np.einsum("btc,btd->cd", inp, d_out)
            d_inp += d_out @ proj.T
        else:
            d_inp += d_out
        d_out = d_inp
    return loss, grad


# The cone kernel with one product per tap, and the initialization with one
# branch per architecture, that the stacked-tap kernel and the slot table
# replaced.  Their arithmetic and draw order are verbatim; names, annotations
# and input checks differ.


def _per_tap_per_sequence_product(rows, weight):
    return (rows[:, None, :] @ weight)[:, 0]


def _per_tap_run_cone(model, x, caches=None):
    spec = model.spec
    p = model.unpack()
    b = x.shape[0]
    rows, gathers = tcn._plan(x.shape[1], spec.kernel, spec.dilations)
    times = _per_tap_per_sequence_product if x.shape[1] == 1 else np.matmul
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
        out += times(taps[-1], proj) if proj is not None else taps[-1]
        if caches is not None:
            caches.append((taps, pre))
    return current[0]


def per_tap_forward(model, x):
    last = _per_tap_run_cone(model, x)
    p = model.unpack()
    return head_forward(last, p["w_head"], p["b_head"], model.head)


def per_tap_loss_and_grad(model, x, targets):
    spec = model.spec
    p = model.unpack()

    caches = []
    last = _per_tap_run_cone(model, x, caches)
    logits = last @ p["w_head"].T + p["b_head"]
    loss, d_logits = head_loss(logits, targets, model.head)

    grad_flat = np.zeros_like(model.values)
    g = param_views(spec, grad_flat)
    d_out = head_backward(d_logits, last, p["w_head"], g["w_head"], g["b_head"])

    _, gathers = tcn._plan(x.shape[1], spec.kernel, spec.dilations)
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
            break
        index = gathers[level]
        below = gathers[level - 1].shape[1]
        shape = (index.shape[1], x.shape[0], taps.shape[2])
        d_in = np.zeros((below + 1,) + shape[1:])
        for k in range(spec.kernel):
            d_in[index[k]] += (d_pre @ weight[k].T).reshape(shape)
        d_in[index[-1]] += (d_out @ proj.T if proj is not None else d_out).reshape(shape)
        d_out = d_in[:-1].reshape(below * shape[1], shape[2])
    return loss, grad_flat


def _xavier(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def per_architecture_init(spec, head, seed):
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


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _drawn(model, seed):
    """``model`` with every value drawn, normal with scale 0.3: no bias is
    zero, so where each bias enters its sum shows."""
    return model.with_values(np.random.default_rng(seed).normal(
        scale=0.3, size=model.values.size))


def _batch(spec, head, b, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, w, spec.input_dim))
    if head is HeadKind.SOFTMAX:
        targets = rng.integers(spec.n_classes, size=b)
    else:
        targets = rng.integers(2, size=b).astype(np.float64)
    return x, targets


class TestSigmoid:
    def test_byte_identical_to_masked_form(self):
        specials = np.array(
            [0.0, -0.0, 40.0, -40.0, 750.0, -750.0, np.inf, -np.inf, np.nan, -np.nan,
             _nan(0x7FF8000000000123), _nan(0xFFF0000000000001)]
        )
        grid = np.concatenate(
            [specials, np.linspace(-800.0, 800.0, 16000),
             np.random.default_rng(0).normal(scale=20.0, size=4000)]
        )
        for z in (grid, grid.reshape(-1, 4), specials[8:]):
            want = masked_sigmoid(z).tobytes()
            assert sigmoid(z).tobytes() == want
            out = np.empty_like(z)
            assert sigmoid(z, out=out) is out
            assert out.tobytes() == want
            in_place = z.copy()
            sigmoid(in_place, out=in_place)
            assert in_place.tobytes() == want

    @pytest.mark.parametrize("z", [-3.5, 0.0, 2.0, np.float64(-40.0), np.array(750.0)])
    def test_scalar_gives_a_0d_array(self, z):
        got = sigmoid(z)
        assert got.shape == ()
        assert got.tobytes() == masked_sigmoid(np.array(z, dtype=np.float64)).tobytes()


LSTM_CASES = [
    ("softmax", LstmSpec(input_dim=5, hidden_dim=6, n_classes=4), HeadKind.SOFTMAX),
    ("sigmoid", LstmSpec(input_dim=5, hidden_dim=6, n_classes=1), HeadKind.SIGMOID),
]
TCN_CASES = [
    ("softmax", TcnSpec(input_dim=5, channels=6, kernel=3, dilations=(1, 2, 4),
                        n_classes=4), HeadKind.SOFTMAX),
    ("sigmoid", TcnSpec(input_dim=5, channels=6, kernel=2, dilations=(1, 2),
                        n_classes=1), HeadKind.SIGMOID),
    # Input width equal to the channel count: no projection at level 0.
    ("softmax-no-proj", TcnSpec(input_dim=6, channels=6, kernel=3, dilations=(1, 2),
                                n_classes=3), HeadKind.SOFTMAX),
]
WINDOWS = [1, 2, 11]


class TestLstmAgainstReference:
    @pytest.mark.parametrize("w", WINDOWS)
    @pytest.mark.parametrize("name,spec,head", LSTM_CASES, ids=[c[0] for c in LSTM_CASES])
    def test_loss_and_grad(self, name, spec, head, w):
        model = init_parameters(spec, head, seed=21)
        x, targets = _batch(spec, head, b=7, w=w, seed=22)
        loss, grad = lstm.loss_and_grad(model, x, targets)
        ref_loss, ref_grad = reference_lstm(model, x, targets)
        assert loss == ref_loss
        assert _relative_error(grad, ref_grad) <= GRAD_RTOL
        g = param_views(spec, grad)
        if w == 1:
            assert np.all(g["w_h"] == 0.0)  # one step never reads its zero state

    @pytest.mark.parametrize("w", WINDOWS)
    @pytest.mark.parametrize("name,spec,head", LSTM_CASES, ids=[c[0] for c in LSTM_CASES])
    def test_forward_is_exact(self, name, spec, head, w):
        model = init_parameters(spec, head, seed=23)
        x, _ = _batch(spec, head, b=7, w=w, seed=24)
        assert lstm.forward(model, x).tobytes() == reference_lstm(model, x).tobytes()

    @pytest.mark.parametrize("w", WINDOWS)
    @pytest.mark.parametrize("name,spec,head", LSTM_CASES, ids=[c[0] for c in LSTM_CASES])
    def test_drawn_parameters(self, name, spec, head, w):
        model = _drawn(init_parameters(spec, head, seed=25), seed=25)
        x, targets = _batch(spec, head, b=7, w=w, seed=26)
        assert lstm.forward(model, x).tobytes() == reference_lstm(model, x).tobytes()
        loss, grad = lstm.loss_and_grad(model, x, targets)
        ref_loss, ref_grad = reference_lstm(model, x, targets)
        assert loss == ref_loss
        assert _relative_error(grad, ref_grad) <= GRAD_RTOL


class TestLstmAgainstBatchMajorKernel:
    """Byte equality at the model's real width, batch sizes on and off the
    BLAS kernels' block edges, and one, two and a full window of steps."""

    @pytest.mark.parametrize("w", [1, 2, 32])
    @pytest.mark.parametrize("b", [1, 7, 17, 33, 64])
    @pytest.mark.parametrize("d", [28, 42])
    @pytest.mark.parametrize("head", [HeadKind.SOFTMAX, HeadKind.SIGMOID],
                             ids=["softmax", "sigmoid"])
    def test_byte_identical(self, head, d, b, w):
        n_classes = 5 if head is HeadKind.SOFTMAX else 1
        spec = LstmSpec(input_dim=d, hidden_dim=32, n_classes=n_classes)
        model = init_parameters(spec, head, seed=41)
        x, targets = _batch(spec, head, b=b, w=w, seed=42 + b + w)
        assert lstm.forward(model, x).tobytes() == batch_major_forward(model, x).tobytes()
        loss, grad = lstm.loss_and_grad(model, x, targets)
        want_loss, want_grad = batch_major_loss_and_grad(model, x, targets)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("w", [1, 2, 32])
    @pytest.mark.parametrize("b", [1, 17, 33])
    @pytest.mark.parametrize("d", [28, 42])
    @pytest.mark.parametrize("head", [HeadKind.SOFTMAX, HeadKind.SIGMOID],
                             ids=["softmax", "sigmoid"])
    def test_drawn_parameters(self, head, d, b, w):
        spec = LstmSpec(input_dim=d, hidden_dim=32, n_classes=5 if head is HeadKind.SOFTMAX else 1)
        model = _drawn(init_parameters(spec, head, seed=43), seed=43)
        x, targets = _batch(spec, head, b=b, w=w, seed=44 + b + w)
        assert lstm.forward(model, x).tobytes() == batch_major_forward(model, x).tobytes()
        loss, grad = lstm.loss_and_grad(model, x, targets)
        want_loss, want_grad = batch_major_loss_and_grad(model, x, targets)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


class TestTcnAgainstReference:
    @pytest.mark.parametrize("w", WINDOWS)
    @pytest.mark.parametrize("name,spec,head", TCN_CASES, ids=[c[0] for c in TCN_CASES])
    def test_loss_and_grad(self, name, spec, head, w):
        model = init_parameters(spec, head, seed=31)
        x, targets = _batch(spec, head, b=7, w=w, seed=32)
        loss, grad = tcn.loss_and_grad(model, x, targets)
        ref_loss, ref_grad = reference_tcn_loss_and_grad(model, x, targets)
        assert loss == ref_loss
        assert _relative_error(grad, ref_grad) <= GRAD_RTOL

    @pytest.mark.parametrize("w", WINDOWS)
    @pytest.mark.parametrize("name,spec,head", TCN_CASES, ids=[c[0] for c in TCN_CASES])
    def test_drawn_parameters(self, name, spec, head, w):
        model = _drawn(init_parameters(spec, head, seed=33), seed=33)
        x, targets = _batch(spec, head, b=7, w=w, seed=34)
        loss, grad = tcn.loss_and_grad(model, x, targets)
        ref_loss, ref_grad = reference_tcn_loss_and_grad(model, x, targets)
        assert loss == ref_loss
        assert _relative_error(grad, ref_grad) <= GRAD_RTOL


def _cone_cases():
    for head in (HeadKind.SOFTMAX, HeadKind.SIGMOID):
        for input_dim in (5, 6):  # 5: a projection at level 0; 6: none
            for kernel in (2, 3):
                for dilations in ((1, 2), (1, 2, 4, 8)):
                    spec = TcnSpec(input_dim=input_dim, channels=6, kernel=kernel,
                                   dilations=dilations,
                                   n_classes=4 if head is HeadKind.SOFTMAX else 1)
                    name = (f"{head.value}-{'proj' if input_dim != 6 else 'no-proj'}"
                            f"-k{kernel}-d{len(dilations)}")
                    yield pytest.param(spec, head, id=name)


class TestTcnConeAgainstFullSequence:
    """The cone kernel against the full-sequence kernel: probabilities, loss
    and gradient, for W from one step to past the receptive field (31 with
    kernel 3 and dilations 1, 2, 4, 8)."""

    @pytest.mark.parametrize("b", [1, 7, 64])
    @pytest.mark.parametrize("spec,head", list(_cone_cases()))
    def test_matches_to_1e12(self, spec, head, b):
        model = init_parameters(spec, head, seed=51)
        for w in range(1, 41):
            x, targets = _batch(spec, head, b=b, w=w, seed=52 + w)
            probs = tcn.forward(model, x)
            assert _relative_error(probs, full_tcn_forward(model, x)) <= GRAD_RTOL, w
            loss, grad = tcn.loss_and_grad(model, x, targets)
            want_loss, want_grad = full_tcn_loss_and_grad(model, x, targets)
            assert abs(loss - want_loss) <= GRAD_RTOL * abs(want_loss), w
            assert _relative_error(grad, want_grad) <= GRAD_RTOL, w

    @pytest.mark.parametrize("spec,head", list(_cone_cases()))
    def test_drawn_parameters(self, spec, head):
        model = _drawn(init_parameters(spec, head, seed=53), seed=53)
        for w in range(1, 41):
            x, targets = _batch(spec, head, b=7, w=w, seed=54 + w)
            probs = tcn.forward(model, x)
            assert _relative_error(probs, full_tcn_forward(model, x)) <= GRAD_RTOL, w
            loss, grad = tcn.loss_and_grad(model, x, targets)
            want_loss, want_grad = full_tcn_loss_and_grad(model, x, targets)
            assert abs(loss - want_loss) <= GRAD_RTOL * abs(want_loss), w
            assert _relative_error(grad, want_grad) <= GRAD_RTOL, w


class TestTcnAgainstPerTapKernel:
    """Byte equality with one product per tap at the model's real widths:
    method 3's 28 features into 16 channels (a level-0 projection) or 28
    (none), batch sizes on and off the BLAS kernels' block edges, and windows
    from one step to past the receptive field (31).  Every value is drawn,
    so no bias is zero and the order of each sum over taps shows."""

    @pytest.mark.parametrize("w", [1, 2, 11, 32, 40])
    @pytest.mark.parametrize("b", [1, 2, 7, 64])
    @pytest.mark.parametrize("channels", [16, 28], ids=["proj", "no-proj"])
    @pytest.mark.parametrize("head", [HeadKind.SOFTMAX, HeadKind.SIGMOID],
                             ids=["softmax", "sigmoid"])
    def test_byte_identical(self, head, channels, b, w):
        spec = TcnSpec(input_dim=28, channels=channels,
                       n_classes=5 if head is HeadKind.SOFTMAX else 1)
        model = init_parameters(spec, head, seed=61)
        model = model.with_values(np.random.default_rng(61).normal(
            scale=0.3, size=model.values.size))
        x, targets = _batch(spec, head, b=b, w=w, seed=62 + b + w)
        assert tcn.forward(model, x).tobytes() == per_tap_forward(model, x).tobytes()
        loss, grad = tcn.loss_and_grad(model, x, targets)
        want_loss, want_grad = per_tap_loss_and_grad(model, x, targets)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("spec", [
    LstmSpec(input_dim=28, hidden_dim=16, n_classes=15),
    LstmSpec(input_dim=5, hidden_dim=6, n_classes=1),
    TcnSpec(input_dim=28, channels=16, n_classes=15),
    TcnSpec(input_dim=28, channels=28, kernel=2, dilations=(1, 2), n_classes=1),
    TcnSpec(input_dim=5, channels=6, kernel=3, dilations=(1, 2, 4), n_classes=4),
], ids=["lstm", "lstm-sigmoid", "tcn-proj", "tcn-no-proj", "tcn-small"])
@pytest.mark.parametrize("seed", [0, 7])
def test_init_parameters_matches_per_architecture_init(spec, seed):
    head = HeadKind.SOFTMAX if spec.n_classes > 1 else HeadKind.SIGMOID
    got = init_parameters(spec, head, seed)
    assert got.values.tobytes() == per_architecture_init(spec, head, seed).values.tobytes()
