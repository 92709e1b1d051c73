"""Dependency-free numeric kernels: stable log-space reductions and the
forward/backward rules of every differentiable layer in the model.

Conventions used throughout:

- Everything is 64-bit float. Sequences of vectors are 2D arrays with one
  row per step; images are (channels, height, width).
- Log-domain quantities use -inf as the additive identity (log of zero).
- Every ``*_backward`` function implements a hand-derived gradient and is
  checked against central finite differences in the test suite. Backward
  functions take the upstream gradient first, then whatever forward-side
  values they need (inputs, caches), and return gradients in the same order
  as the forward arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

NEG_INF = -np.inf

LN_EPS = 1e-5  # variance floor shared by layer_norm and channel_norm


def logsumexp(values) -> float:
    """log(sum(exp(values))) over a non-empty 1D array, via max-shift.

    Returns -inf iff every input is -inf; safe for inputs up to +-700.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise UsageError("logsumexp needs a non-empty 1D array")
    m = np.max(v)
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.sum(np.exp(v - m))))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-domain softmax: shift-invariant, output exponentials sum to 1."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise UsageError("log_softmax requires finite logits")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def log_softmax_backward(grad_out: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """Gradient wrt raw logits given the forward output ``log_probs``.

    d/dz log_softmax(z) applied to an upstream gradient g is
    g - softmax(z) * sum(g), with the sum taken over the class axis.
    """
    total = np.sum(grad_out, axis=-1, keepdims=True)
    return grad_out - np.exp(log_probs) * total


def affine_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """W @ x + b for a single vector or a (steps, in) matrix of row vectors."""
    if weights.ndim != 2 or weights.shape[1] != np.shape(x)[-1]:
        raise UsageError(
            f"affine shape mismatch: weights {weights.shape} vs input {np.shape(x)}"
        )
    if bias.shape != (weights.shape[0],):
        raise UsageError(f"affine bias shape {bias.shape} != ({weights.shape[0]},)")
    return x @ weights.T + bias


def affine_backward(grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray):
    """Returns (grad_input, grad_weights, grad_bias).

    Accepts the same single-vector or row-stacked shapes as affine_forward;
    row-stacked inputs accumulate the weight/bias gradients over rows.
    """
    if grad_out.ndim == 1:
        grad_w = np.outer(grad_out, x)
        grad_b = grad_out.copy()
    else:
        grad_w = grad_out.T @ x
        grad_b = grad_out.sum(axis=0)
    grad_x = grad_out @ weights
    return grad_x, grad_w, grad_b


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalize a vector to zero mean / unit variance, then scale and shift."""
    if x.shape[-1] < 2:
        raise UsageError("layer_norm needs length >= 2")
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + LN_EPS)
    return gain * xhat + shift


def layer_norm_backward(grad_out: np.ndarray, x: np.ndarray, gain: np.ndarray):
    """Returns (grad_x, grad_gain, grad_shift). Recomputes the cheap stats."""
    n = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    grad_gain = grad_out * xhat
    grad_shift = grad_out.copy()
    dxhat = grad_out * gain
    grad_x = (inv / n) * (
        n * dxhat
        - dxhat.sum(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
    )
    return grad_x, grad_gain, grad_shift


def channel_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per-channel normalization of a (C, H, W) map over its own spatial extent.

    Statistics come from the single sample itself, so the result does not
    depend on anything else in a batch.
    """
    mu = x.mean(axis=(1, 2), keepdims=True)
    var = x.var(axis=(1, 2), keepdims=True)
    xhat = (x - mu) / np.sqrt(var + LN_EPS)
    return gain[:, None, None] * xhat + shift[:, None, None]


def channel_norm_backward(grad_out: np.ndarray, x: np.ndarray, gain: np.ndarray):
    n = x.shape[1] * x.shape[2]
    mu = x.mean(axis=(1, 2), keepdims=True)
    var = x.var(axis=(1, 2), keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    grad_gain = (grad_out * xhat).sum(axis=(1, 2))
    grad_shift = grad_out.sum(axis=(1, 2))
    dxhat = grad_out * gain[:, None, None]
    grad_x = (inv / n) * (
        n * dxhat
        - dxhat.sum(axis=(1, 2), keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=(1, 2), keepdims=True)
    )
    return grad_x, grad_gain, grad_shift


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 convolution of a (C_in, H, W) map.

    weights is (C_out, C_in, k, k) with odd k. Implemented as one shifted
    tensordot per kernel offset, which is exact and fast for small kernels.
    """
    c_out, c_in, kh, kw = weights.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise UsageError("conv2d supports odd kernel sizes only")
    if x.ndim != 3 or x.shape[0] != c_in:
        raise UsageError(f"conv2d input {x.shape} does not match weights {weights.shape}")
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.broadcast_to(bias[:, None, None], (c_out, h, w)).copy()
    for dy in range(kh):
        for dx in range(kw):
            out += np.tensordot(
                weights[:, :, dy, dx], xp[:, dy : dy + h, dx : dx + w], axes=(1, 0)
            )
    return out


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray):
    """Returns (grad_x, grad_weights, grad_bias) for conv2d."""
    c_out, c_in, kh, kw = weights.shape
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(weights)
    for dy in range(kh):
        for dx in range(kw):
            patch = xp[:, dy : dy + h, dx : dx + w]
            grad_w[:, :, dy, dx] = np.tensordot(grad_out, patch, axes=([1, 2], [1, 2]))
            grad_xp[:, dy : dy + h, dx : dx + w] += np.tensordot(
                weights[:, :, dy, dx], grad_out, axes=(0, 0)
            )
    grad_b = grad_out.sum(axis=(1, 2))
    grad_x = grad_xp[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w]
    return grad_x, grad_w, grad_b


def maxpool2d(x: np.ndarray, pool: tuple[int, int]):
    """Ceil-mode max pooling of a (C, H, W) map.

    Partial windows at the bottom/right edges are padded with -inf so real
    values always win. Returns (pooled, argmax) where argmax holds the flat
    within-window index used by the backward pass; ties resolve to the first
    (row-major) position, which keeps the gradient deterministic.
    """
    ph, pw = pool
    c, h, w = x.shape
    ho = -(-h // ph)
    wo = -(-w // pw)
    xp = np.full((c, ho * ph, wo * pw), NEG_INF)
    xp[:, :h, :w] = x
    windows = (
        xp.reshape(c, ho, ph, wo, pw).transpose(0, 1, 3, 2, 4).reshape(c, ho, wo, ph * pw)
    )
    argmax = windows.argmax(axis=-1)
    pooled = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    return pooled, argmax


def maxpool2d_backward(
    grad_out: np.ndarray, argmax: np.ndarray, in_shape: tuple[int, int, int], pool: tuple[int, int]
) -> np.ndarray:
    ph, pw = pool
    c, h, w = in_shape
    ho, wo = grad_out.shape[1], grad_out.shape[2]
    windows = np.zeros((c, ho, wo, ph * pw))
    np.put_along_axis(windows, argmax[..., None], grad_out[..., None], axis=-1)
    grad_xp = windows.reshape(c, ho, wo, ph, pw).transpose(0, 1, 3, 2, 4).reshape(
        c, ho * ph, wo * pw
    )
    return grad_xp[:, :h, :w]


def sigmoid(x: np.ndarray) -> np.ndarray:
    # clip keeps exp() quiet; saturation is exact at these magnitudes anyway
    return 1.0 / (1.0 + np.exp(np.clip(-x, -500, 500)))


# --- LSTM cell -------------------------------------------------------------
#
# Gate layout, fixed once for the whole project: the stacked pre-activation
# vector z = w_x @ x + w_h @ h + b has 4*H rows split as
#   z[0:H]    input gate (sigmoid)
#   z[H:2H]   forget gate (sigmoid)
#   z[2H:3H]  cell candidate (tanh)
#   z[3H:4H]  output gate (sigmoid)
# Checkpoint payloads and initializers all follow this order.


@dataclass
class LstmState:
    """Recurrent carry of one LSTM layer."""

    hidden: np.ndarray
    cell: np.ndarray


@dataclass
class LstmParams:
    """Weights of one LSTM layer; ln_* is present only with gate layer norm."""

    w_x: np.ndarray  # (4H, input)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    ln_gain: np.ndarray | None = None  # (4, H)
    ln_shift: np.ndarray | None = None  # (4, H)

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[1]


@dataclass
class LstmStepCache:
    """Forward-side values needed by lstm_step_backward."""

    x: np.ndarray
    h_used: np.ndarray
    c_prev: np.ndarray
    z_raw: np.ndarray  # pre-activation before optional layer norm, (4, H)
    gates: np.ndarray  # i, f, g, o after nonlinearities, (4, H)
    c: np.ndarray
    tanh_c: np.ndarray
    rec_mask: np.ndarray | None


def lstm_zero_state(hidden_size: int) -> LstmState:
    return LstmState(np.zeros(hidden_size), np.zeros(hidden_size))


def lstm_step_cached(
    x: np.ndarray,
    state: LstmState,
    params: LstmParams,
    rec_mask: np.ndarray | None = None,
):
    """One LSTM step; returns (output, new_state, cache).

    ``rec_mask`` is the per-sequence variational dropout mask applied to the
    hidden state on the recurrent path (None means no dropout). The caller's
    ``state`` is never mutated.
    """
    hs = params.hidden_size
    if x.shape[-1] != params.w_x.shape[1]:
        raise UsageError(
            f"lstm input size {x.shape[-1]} != expected {params.w_x.shape[1]}"
        )
    h_used = state.hidden if rec_mask is None else state.hidden * rec_mask
    z_raw = (params.w_x @ x + params.w_h @ h_used + params.b).reshape(4, hs)
    if params.ln_gain is not None:
        z = layer_norm(z_raw, params.ln_gain, params.ln_shift)
    else:
        z = z_raw
    gates = np.empty_like(z)
    gates[0] = sigmoid(z[0])
    gates[1] = sigmoid(z[1])
    gates[2] = np.tanh(z[2])
    gates[3] = sigmoid(z[3])
    c = gates[1] * state.cell + gates[0] * gates[2]
    tanh_c = np.tanh(c)
    h = gates[3] * tanh_c
    cache = LstmStepCache(x, h_used, state.cell, z_raw, gates, c, tanh_c, rec_mask)
    return h, LstmState(h, c), cache


def lstm_step(x, state, params, rec_mask=None):
    """lstm_step_cached without the training-side cache."""
    h, new_state, _ = lstm_step_cached(x, state, params, rec_mask)
    return h, new_state


def lstm_step_backward(
    grad_h: np.ndarray,
    grad_c: np.ndarray,
    cache: LstmStepCache,
    params: LstmParams,
    grads: LstmParams,
):
    """Backward through one step. Returns (dz, grad_h_prev, grad_c_prev).

    ``grad_h``/``grad_c`` are the gradients arriving at this step's output
    and cell (the latter accumulated from the future). ``dz`` is the (4H,)
    gradient at the stacked pre-activation w_x @ x + w_h @ h_used + b, after
    any gate layer-norm backward. The gate layer-norm gain/shift gradients are
    accumulated into ``grads`` in place; the caller owns w_x, w_h, b and the
    input gradient, which over a whole scan are dZ.T @ X, dZ.T @ H_used,
    the column sums of dZ, and dZ @ w_x for the row-stacked dz of every step.
    """
    i, f, g, o = cache.gates
    dz = np.empty_like(cache.gates)
    dz[3] = grad_h * cache.tanh_c * o * (1.0 - o)
    dc = grad_c + grad_h * o * (1.0 - cache.tanh_c**2)
    dz[0] = dc * g * i * (1.0 - i)
    dz[1] = dc * cache.c_prev * f * (1.0 - f)
    dz[2] = dc * i * (1.0 - g**2)
    if params.ln_gain is not None:
        dz, dgain, dshift = layer_norm_backward(dz, cache.z_raw, params.ln_gain)
        grads.ln_gain += dgain
        grads.ln_shift += dshift
    dz = dz.reshape(-1)
    grad_h_prev = params.w_h.T @ dz
    if cache.rec_mask is not None:
        grad_h_prev = grad_h_prev * cache.rec_mask
    return dz, grad_h_prev, dc * f
