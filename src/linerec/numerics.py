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
  as the forward arguments. The LSTM step's backward writes its gradients
  into arrays the scan passes instead, and a backward that consumes an
  input in place says so.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UsageError

NEG_INF = -np.inf

LN_EPS = 1e-5  # variance floor of channel_norm


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


def log_normalizer(logits):
    """(max z, z - max z, log sum exp(z - max z)) over the last axis of finite
    logits z: the softmax normalisation of log_softmax and of the loss."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise UsageError("log_softmax requires finite logits")
    peak = np.max(z, axis=-1, keepdims=True)
    shifted = z - peak
    return peak[..., 0], shifted, np.log(np.sum(np.exp(shifted), axis=-1))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-domain softmax: shift-invariant, output exponentials sum to 1."""
    _, shifted, log_norm = log_normalizer(logits)
    return shifted - log_norm[..., None]


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


def channel_norm(x: np.ndarray, gain: np.ndarray):
    """Per-channel normalization statistics of a contiguous (C, H, W) map over
    its own spatial extent, so nothing else in a batch matters. They are taken
    in place: each channel of ``x`` is centred, and its variance is one row
    dot product. Returns (scale, inv_std), both (C,): inv_std =
    1 / sqrt(var + LN_EPS), which maps the centred map to the standardized
    xhat that channel_norm_backward takes, and scale = |gain| * inv_std.

    Max pooling commutes with a positive scale only, so a conv block hands in
    its output with the channels of negative gain negated. The pool of the
    normalized map gain * xhat + shift is then scale * maxpool2d(x) + shift.
    """
    if not x.flags.c_contiguous:
        raise UsageError("channel_norm centres a contiguous map in place")
    flat = x.reshape(len(x), -1)  # a view of x
    flat -= np.add.reduce(flat, axis=1, keepdims=True) / flat.shape[1]  # ndarray.mean, cheaper
    var = (flat[:, None, :] @ flat[:, :, None]).ravel() / flat.shape[1]
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    return np.abs(gain) * inv_std, inv_std


def channel_norm_backward(grad_out: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                          gain: np.ndarray):
    """grad_x = gain * inv_std / n * (n * g - sum(g) - xhat * sum(g * xhat)) over
    the n positions of each channel; the two sums are grad_shift and grad_gain.
    Consumes ``grad_out`` (g), which holds n * g - sum(g) on return; grad_x is
    the only array it allocates at full size."""
    n = xhat.shape[1] * xhat.shape[2]
    grad_gain = np.einsum("chw,chw->c", grad_out, xhat)
    grad_shift = grad_out.sum(axis=(1, 2))
    grad_x = np.multiply(xhat, grad_gain[:, None, None])
    grad_out *= n
    grad_out -= grad_shift[:, None, None]
    np.subtract(grad_out, grad_x, out=grad_x)
    grad_x *= (gain * inv_std / n)[:, None, None]
    return grad_x, grad_gain, grad_shift


def _columns(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(C_in * kh * kw, H * W) im2col matrix of a same-padded (C_in, H, W) map."""
    c, h, w = x.shape
    xp = np.zeros((c, h + kh - 1, w + kw - 1))  # np.pad costs tens of microseconds
    xp[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = x
    sc, sy, sx = xp.strides
    # the ndarray constructor makes the view in a sixth of as_strided's time
    view = np.ndarray((c, kh, kw, h, w), xp.dtype, xp, 0, (sc, sy, sx, sy, sx))
    return view.reshape(c * kh * kw, h * w)


def conv2d(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 convolution of a (C_in, H, W) map, with no bias
    (the channel_norm after every conv cancels one).

    weights is (C_out, C_in, k, k) with odd k. Implemented as one GEMM of the
    flattened weights with the input's im2col column matrix (Chellapilla,
    Puri & Simard 2006).
    """
    c_out, c_in, kh, kw = weights.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise UsageError("conv2d supports odd kernel sizes only")
    if x.ndim != 3 or x.shape[0] != c_in:
        raise UsageError(f"conv2d input {x.shape} does not match weights {weights.shape}")
    return (weights.reshape(c_out, -1) @ _columns(x, kh, kw)).reshape(c_out, *x.shape[1:])


def conv2d_backward(grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray, *,
                    need_grad_x: bool = True):
    """Returns (grad_x, grad_weights) for conv2d; grad_x is None when the
    caller says it needs none. The columns are rebuilt from x rather
    than held from the forward through the whole network; grad_x folds the
    column gradient back with one strided add per offset."""
    c_out, c_in, kh, kw = weights.shape
    _, h, w = x.shape
    g = grad_out.reshape(c_out, h * w)
    grad_w = (g @ _columns(x, kh, kw).T).reshape(weights.shape)
    if not need_grad_x:
        return None, grad_w
    grad_cols = (weights.reshape(c_out, -1).T @ g).reshape(c_in, kh, kw, h, w)
    grad_xp = np.zeros((c_in, h + kh - 1, w + kw - 1))
    for dy, dx in np.ndindex(kh, kw):
        grad_xp[:, dy : dy + h, dx : dx + w] += grad_cols[:, dy, dx]
    return grad_xp[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w], grad_w


def _merge(acc: np.ndarray, part: np.ndarray) -> None:
    """acc = max(acc, part) over part's extent, a leading corner of acc."""
    corner = acc[:, : part.shape[1], : part.shape[2]]
    np.maximum(corner, part, out=corner)


def maxpool2d(x: np.ndarray, pool: tuple[int, int], *, need_argmax: bool = True):
    """Ceil-mode max pooling of a (C, H, W) map.

    Slice x[:, dy::ph, dx::pw] is offset (dy, dx) of every window that has
    one. Returns (pooled, argmax): the running maximum over the slices and
    the within-window index dy * pw + dx of the first (row-major) maximum,
    since only a strictly larger value moves it; that keeps the backward pass
    deterministic. The argmax pass pads the map with -inf where the pool
    leaves partial windows. Without need_argmax, argmax is None and the
    windows are reduced over their rows, then over their columns, each slice
    merged into the corner it covers: ph + pw - 2 merges in place of
    ph * pw - 1, with the same values, since max rounds nothing.
    """
    ph, pw = pool
    if not need_argmax:
        rows = x[:, ::ph].copy()
        for dy in range(1, ph):
            _merge(rows, x[:, dy::ph])
        pooled = rows[:, :, ::pw].copy()
        for dx in range(1, pw):
            _merge(pooled, rows[:, :, dx::pw])
        return pooled, None
    c, h, w = x.shape
    ho, wo = -(-h // ph), -(-w // pw)
    if (ho * ph, wo * pw) != (h, w):
        x, real = np.full((c, ho * ph, wo * pw), NEG_INF), x
        x[:, :h, :w] = real
    pooled = x[:, ::ph, ::pw].copy()
    argmax = np.zeros((c, ho, wo), dtype=np.intp)
    for k in range(1, ph * pw):
        window = x[:, k // pw :: ph, k % pw :: pw]
        np.copyto(argmax, k, where=window > pooled)
        np.maximum(pooled, window, out=pooled)
    return pooled, argmax


def maxpool2d_backward(
    grad_out: np.ndarray, argmax: np.ndarray, in_shape: tuple[int, int, int], pool: tuple[int, int]
) -> np.ndarray:
    """Scatters grad_out into a zero map at each window's argmax: the flat
    index of window (c, i, j)'s offset k is that of its corner plus
    (k // pw) * width + k % pw, and windows do not overlap."""
    ph, pw = pool
    c, h, w = in_shape
    _, ho, wo = grad_out.shape
    hp, wp = ho * ph, wo * pw
    index = (np.arange(0, ph * wp, wp)[:, None] + np.arange(pw)).ravel()[argmax]
    index += (np.arange(c)[:, None, None] * hp + np.arange(0, hp, ph)[:, None]) * wp
    index += np.arange(0, wp, pw)
    grad_xp = np.zeros((c, hp, wp))
    grad_xp.reshape(-1)[index] = grad_out
    return grad_xp[:, :h, :w]


# --- LSTM cell -------------------------------------------------------------
#
# Gate layout, fixed once for the whole project: the stacked pre-activation
# vector z = w_x @ x + w_h @ h + b has 4*H rows split as
#   z[0:H]    input gate (sigmoid)
#   z[H:2H]   forget gate (sigmoid)
#   z[2H:3H]  cell candidate (tanh)
#   z[3H:4H]  output gate (sigmoid)
# Checkpoint payloads and initializers all follow this order.
#
# A scan runs D = 1 or 2 directions in one loop, and a step holds their gates
# gate-major, as a (4, D, H) array: gates[k] is gate k of every direction, so
# each elementwise op covers all directions in one contiguous call.
#
# One tanh serves all four gates, as sigmoid(z) = 0.5 * (1 + tanh(z / 2)). A
# scan halves the sigmoid rows of its hoisted input projection and of a copy
# of each w_h (exact: scaling by 0.5 rounds nothing), so a step takes the tanh
# of its pre-activations as they come and maps the sigmoid rows back with one
# multiply-add; nothing can overflow.


@functools.lru_cache(maxsize=8)
def _gate_affine(hidden_size: int, directions: int | None = None) -> np.ndarray:
    """Read-only (2, 4, D, H) scale and shift by gate, or (2, 4, H) without
    ``directions``: 0.5 and 0.5 on the sigmoid rows, 1 and 0 on the
    candidate's (a (4, 1, 1) column broadcasts 2x slower)."""
    out = np.repeat([[[0.5], [0.5], [1.0], [0.5]], [[0.5], [0.5], [0.0], [0.5]]],
                    hidden_size, axis=2)
    if directions is not None:
        out = np.repeat(out[:, :, None, :], directions, axis=2)
    out.setflags(write=False)
    return out


@dataclass
class LstmParams:
    """Weights of one LSTM layer."""

    w_x: np.ndarray  # (4H, input)
    w_h: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[1]


class ScanWork(NamedTuple):
    """What every step of one scan shares (see lstm_scan_work)."""

    w_h: tuple  # each direction's w_h with its sigmoid rows halved
    zh: np.ndarray  # (D, 4H) rows that receive w_h[d] @ h_prev[d]
    zh_gates: np.ndarray  # (4, D, H) gate-major view of zh
    scale: np.ndarray  # (4, D, H) of _gate_affine
    shift: np.ndarray


def lstm_scan_work(layers) -> ScanWork:
    """The ScanWork of a scan with one LSTM per direction in ``layers``."""
    hs, d = layers[0].hidden_size, len(layers)
    w_h = []
    for p in layers:
        w = p.w_h * 0.5
        w[2 * hs : 3 * hs] = p.w_h[2 * hs : 3 * hs]  # the candidate's rows stay whole
        w_h.append(w)
    zh = np.empty((d, 4 * hs))
    return ScanWork(tuple(w_h), zh, zh.reshape(d, 4, hs).swapaxes(0, 1), *_gate_affine(hs, d))


def lstm_step_cached(zx, h_prev, c_prev, work: ScanWork, gates, c, tanh_c, h) -> None:
    """One step of D directions from ``zx``, the (4, D, H) gate-major input
    projection w_x @ x + b with its sigmoid rows halved, which a scan computes
    for all steps at once. Writes the gates (i, f, g, o after their
    nonlinearities), the cell, tanh(cell) and the output, (4, D, H) and
    (D, H), into ``gates``, ``c``, ``tanh_c`` and ``h``; ``h_prev`` and
    ``c_prev`` are only read, and ``c`` may be ``c_prev``. With ``work.w_h``
    empty, ``work.zh_gates`` already holds the halved w_h @ h_prev."""
    w_h, zh, zh_gates, scale, shift = work
    for w, x, row in zip(w_h, h_prev, zh):
        np.dot(w, x, out=row)
    np.add(zx, zh_gates, out=gates)
    np.tanh(gates, out=gates)
    gates *= scale
    gates += shift
    np.multiply(gates[1], c_prev, out=c)
    np.multiply(gates[0], gates[2], out=tanh_c)
    c += tanh_c
    np.tanh(c, out=tanh_c)
    np.multiply(gates[3], tanh_c, out=h)


def lstm_step(x: np.ndarray, state: np.ndarray, params: LstmParams):
    """One step on a single input vector, the decode-time form of a
    one-direction scan step, without the direction axis. ``state`` is the
    layer's (2, H) carry, rows h and c (zeros at the start). Returns (h,
    new_state), both views of the step's own scratch rows; the caller's
    ``state`` is never mutated."""
    hs = params.hidden_size
    if x.shape[-1] != params.w_x.shape[1]:
        raise UsageError(f"lstm input size {x.shape[-1]} != expected {params.w_x.shape[1]}")
    scale, shift = _gate_affine(hs)
    zx, zh, gates, rows = np.empty((4, 4, hs))  # the last holds tanh(c), h and c
    flat = zx.reshape(-1)
    np.dot(params.w_x, x, out=flat)
    flat += params.b
    np.dot(params.w_h, state[0], out=zh.reshape(-1))
    zx *= scale
    zh *= scale
    # a plain tuple unpacks like a ScanWork and is cheaper to build
    lstm_step_cached(zx, (), state[1], ((), (), zh, scale, shift), gates, rows[2], rows[0], rows[1])
    return rows[1], rows[1:3]


def lstm_backward_factors(gates: np.ndarray, tanh_c: np.ndarray, c_prev: np.ndarray):
    """(T, 6, D, H) derivative factors of a whole scan of (T, 4, D, H) gates, by
    row: dz_i, dz_f and dz_g per unit of dc; dz_o and dc per unit of dh; and f,
    which carries dc back."""
    i, f, g, o = gates.swapaxes(0, 1)
    return np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g),
                     o * (1.0 - o) * tanh_c, o * (1.0 - tanh_c * tanh_c), f], axis=1)


def lstm_step_backward(grad_h, dh, dc, dc_step, factors, w_h_t, dz, dz_gates) -> None:
    """Backward through one scan step of D directions. ``grad_h`` (D, H) is the
    gradient at the step's outputs from above and is consumed: the step adds
    ``dh``, the gradient at them from the step after. ``dc`` is the gradient
    at the step's cell from the step after, ``factors`` the step's row of
    lstm_backward_factors and ``w_h_t`` each direction's w_h.T. Writes the
    (D, 4H) gradient at z into ``dz`` (``dz_gates`` is its (4, D, H)
    gate-major view), then overwrites ``dh`` and ``dc`` with the gradients at
    h_prev and c_prev; ``dc_step`` is scratch. The scan's w_x, w_h, b and input
    gradients are then dZ.T @ X, dZ.T @ H_prev, sum(dZ) and dZ @ w_x over each
    direction's rows of dz."""
    grad_h += dh
    np.multiply(grad_h, factors[4], out=dc_step)
    dc_step += dc
    np.multiply(factors[:3], dc_step, out=dz_gates[:3])
    np.multiply(factors[3], grad_h, out=dz_gates[3])
    for w, z, row in zip(w_h_t, dz, dh):
        np.dot(w, z, out=row)
    np.multiply(dc_step, factors[5], out=dc)
