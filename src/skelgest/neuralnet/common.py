"""Numerics shared by both architectures: BLAS threads, activations, heads, losses."""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .params import HeadKind


def _openblas_thread_calls():
    """numpy's OpenBLAS ``get_num_threads`` and ``set_num_threads``, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put


_OPENBLAS_THREADS = _openblas_thread_calls()


@contextmanager
def one_blas_thread():
    """Run the block with one OpenBLAS thread, then restore the caller's count.

    Results are defined at one thread: OpenBLAS's threads change the bits of
    some products.  The count is process-wide; another BLAS is left alone.
    At a count of 1 nothing is set: each ``set_num_threads`` call wakes or
    starts a helper thread that spin-waits, even when the count is 1.
    """
    get, put = _OPENBLAS_THREADS or (lambda: 1, lambda threads: None)
    before = get()
    if before == 1:
        yield
        return
    put(1)
    try:
        yield
    finally:
        put(before)


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, optionally into ``out``.

    ``exp(min(z, 0)) / (1 + exp(-|z|))`` is ``1/(1+exp(-z))`` for z >= 0 and
    ``exp(z)/(1+exp(z))`` below, bit for bit, with no select, and neither
    exponential overflows.  ``-|z|`` is spelled ``min(z, -z)`` so that a NaN
    keeps its sign bit.  ``out`` may be ``z`` itself.
    """
    den = np.negative(z, out=np.empty(np.shape(z)))
    np.minimum(z, den, out=den)
    np.exp(den, out=den)
    den += 1.0
    if out is None:
        out = np.empty(np.shape(z))
    np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)
    out /= den
    return out


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
