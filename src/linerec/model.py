"""The three-part network: visual feature encoder (conv stack + bidirectional
LSTM + projection), linguistic context encoder (embedding + LSTM stack +
projection), and the joint decoder that turns a (feature, context) pair into
logits over the extended label set, which the loss normalises.

Training forward passes cache what the hand-written backward pass reads
and nothing more (inference keeps none); `backward_pass` consumes the cache
and the loss gradient at the two transition tables of `lattice.rnnt_grad`,
and produces gradients for every parameter tensor. Both run the joint and
the loss kernels over cache-sized blocks of frames, so no (T, U+1, K+1)
array outlives its block; the forward keeps the joint's (T, U+1, E) tanh,
and the backward recomputes each block's logits from it. Label ids
are checked once, by `lattice.check_label_ids`. Checkpoint serialization
lives here too since its payload is exactly the parameter buffer.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConfigSection, UsageError, check_same, json_type_ok
from .lattice import Vocab, check_label_ids, logit_grad, node_log_probs
from .numerics import (
    LstmParams,
    affine_backward,
    affine_forward,
    channel_norm,
    channel_norm_backward,
    conv2d,
    conv2d_backward,
    log_softmax,  # not called here; the benchmark's tracer rebinds this name
    log_softmax_backward,  # not called here; the benchmark's tracer rebinds this name
    lstm_backward_factors,
    lstm_scan_work,
    lstm_step,
    lstm_step_backward,
    lstm_step_cached,
    maxpool2d,
    maxpool2d_backward,
)

CHECKPOINT_MAGIC = b"LINERECK"
CHECKPOINT_VERSION = 2


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass
class ModelConfig(ConfigSection):
    """Architecture description; see configs/ for the shipped presets."""

    section = "model"
    conv_blocks: list  # [(out_channels, kernel, (pool_h, pool_w)), ...]
    recurrent_layers_visual: int
    recurrent_layers_linguistic: int
    hidden_size: int
    embed_size: int
    encoded_size: int
    vocab_size: int
    input_height: int
    # one legal value each (the plain LSTM); kept so existing configs and checkpoints load
    dropout_rate: float = 0.0
    layer_norm: bool = False

    def __post_init__(self):
        # JSON gives lists; tuples keep configs equal to the tuple-built presets
        try:
            self.conv_blocks = [(c, k, (ph, pw)) for c, k, (ph, pw) in self.conv_blocks]
        except (TypeError, ValueError):
            raise ConfigError(f"conv_blocks {self.conv_blocks!r} must each be "
                              "[channels, kernel, [pool_h, pool_w]]") from None

    def validate(self) -> None:
        counts = (
            self.recurrent_layers_visual,
            self.recurrent_layers_linguistic,
            self.hidden_size,
            self.embed_size,
            self.encoded_size,
            self.vocab_size,
            self.input_height,
        )
        if any(c < 1 for c in counts):
            raise ConfigError(f"all size fields must be >= 1, got {counts}")
        if self.dropout_rate != 0.0 or self.layer_norm:
            raise ConfigError("dropout_rate must be 0 and layer_norm false (plain LSTM), "
                              f"got {self.dropout_rate} and {json.dumps(self.layer_norm)}")
        if not self.conv_blocks:
            raise ConfigError("need at least one conv block")
        h = self.input_height
        for blk in self.conv_blocks:
            channels, kernel, pool = blk
            if not all(json_type_ok(int, x) for x in (channels, kernel, *pool)):
                raise ConfigError(f"conv block {blk} must hold integers")
            if channels < 1 or kernel < 1 or kernel % 2 == 0:
                raise ConfigError(f"bad conv block {blk}: channels >= 1, odd kernel")
            if pool[0] < 1 or pool[1] < 1:
                raise ConfigError(f"bad pool {pool}")
            h = _ceil_div(h, pool[0])
        if h != 1:
            raise ConfigError(
                f"conv stack leaves height {h}, must collapse input_height="
                f"{self.input_height} to exactly 1"
            )

    def check_vocab(self, vocab: Vocab, where: str) -> None:
        """A ConfigError unless the charset ``vocab``, from ``where``, fits the model."""
        if vocab.size != self.vocab_size:
            raise ConfigError(f"{where} has {vocab.size} symbols but the model expects "
                              f"{self.vocab_size}")

    def frames_for_width(self, width: int) -> int:
        t = width
        for blk in self.conv_blocks:
            t = _ceil_div(t, blk[2][1])
        return t


@dataclass
class ConvBlockParams:
    w: np.ndarray  # (C_out, C_in, k, k); the conv has no bias, which the norm would cancel
    gain: np.ndarray  # (C_out,)  channel-norm scale
    shift: np.ndarray  # (C_out,)


@dataclass
class AffineParams:
    w: np.ndarray
    b: np.ndarray


@dataclass
class ModelParams:
    """Every trainable tensor, grouped by sub-network. Each tensor is a view
    into ``flat``, one contiguous float64 buffer laid out as tensor_shapes
    lists them, so whole-parameter operations are vector operations on it;
    ``named`` holds the (name, view) pairs in that order."""

    conv: list  # [ConvBlockParams]
    vis_rnn: list  # [(forward LstmParams, backward LstmParams)]
    vis_proj: AffineParams
    embed: np.ndarray  # (K+1, embed_size)
    lm_rnn: list  # [LstmParams]
    lm_proj: AffineParams
    joint_bias: np.ndarray  # (encoded,)
    joint_w: np.ndarray  # (K+1, encoded)
    flat: np.ndarray = field(repr=False, compare=False)
    named: tuple = field(repr=False, compare=False)


def named_arrays(params: ModelParams) -> tuple:
    """(name, array) pairs in the canonical order: the layout of
    ``params.flat`` and of the checkpoint payload."""
    return params.named


def tensor_shapes(config: ModelConfig) -> list:
    """(name, shape) of every parameter tensor in buffer order, from the config
    alone: the one statement of the parameter layout, and what a checkpoint
    must hold, known before anything is allocated."""
    hs, enc, classes = config.hidden_size, config.encoded_size, config.vocab_size + 1
    shapes, n_in = [], 1

    def lstm(prefix: str, n: int) -> list:
        return [(f"{prefix}.w_x", (4 * hs, n)), (f"{prefix}.w_h", (4 * hs, hs)),
                (f"{prefix}.b", (4 * hs,))]

    for i, (channels, kernel, _pool) in enumerate(config.conv_blocks):
        shapes += [(f"conv{i}.w", (channels, n_in, kernel, kernel)),
                   (f"conv{i}.gain", (channels,)), (f"conv{i}.shift", (channels,))]
        n_in = channels
    for i in range(config.recurrent_layers_visual):
        shapes += lstm(f"vis{i}.fwd", n_in) + lstm(f"vis{i}.bwd", n_in)
        n_in = 2 * hs
    shapes += [("vis_proj.w", (enc, 2 * hs)), ("vis_proj.b", (enc,)),
               ("embed", (classes, config.embed_size))]
    n_in = config.embed_size
    for i in range(config.recurrent_layers_linguistic):
        shapes += lstm(f"lm{i}", n_in)
        n_in = hs
    return shapes + [("lm_proj.w", (enc, hs)), ("lm_proj.b", (enc,)), ("joint.b", (enc,)),
                     ("joint.w", (classes, enc))]


def _on_buffer(layout: list, flat: np.ndarray) -> ModelParams:
    """The ModelParams of a tensor_shapes ``layout`` over ``flat``: one view
    per (name, shape), cut in order and bound into the tree by name."""
    views, offset = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size

    def layers(fmt: str) -> range:  # fmt.format(i) names a tensor of layer i
        return range(next(i for i in itertools.count() if fmt.format(i) not in views))

    def lstm(prefix: str) -> LstmParams:
        return LstmParams(views[f"{prefix}.w_x"], views[f"{prefix}.w_h"], views[f"{prefix}.b"])

    return ModelParams(
        conv=[ConvBlockParams(views[f"conv{i}.w"], views[f"conv{i}.gain"], views[f"conv{i}.shift"])
              for i in layers("conv{}.w")],
        vis_rnn=[(lstm(f"vis{i}.fwd"), lstm(f"vis{i}.bwd")) for i in layers("vis{}.fwd.b")],
        vis_proj=AffineParams(views["vis_proj.w"], views["vis_proj.b"]),
        embed=views["embed"],
        lm_rnn=[lstm(f"lm{i}") for i in layers("lm{}.b")],
        lm_proj=AffineParams(views["lm_proj.w"], views["lm_proj.b"]),
        joint_bias=views["joint.b"],
        joint_w=views["joint.w"],
        flat=flat,
        named=tuple(views.items()),
    )


def zero_grads_shell(params: ModelParams) -> ModelParams:
    """A ModelParams of zeros with the same shapes; gradient accumulator."""
    return _on_buffer([(n, a.shape) for n, a in params.named], np.zeros(params.flat.size))


def clone_params(params: ModelParams) -> ModelParams:
    return _on_buffer([(n, a.shape) for n, a in params.named], params.flat.copy())


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    field = math.prod(shape[2:])  # a conv's fans include its receptive field
    limit = np.sqrt(6.0 / (shape[1] * field + shape[0] * field))  # fan_in + fan_out
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization of the tensor_shapes(config) layout. The
    buffer is allocated once (a model too large for that is a ConfigError);
    its tensors are drawn in layout order: embed uniform in [-0.1, 0.1], every
    other weight matrix Glorot-uniform (a conv's fans include its receptive
    field). Biases and shifts start at 0, norm gains at 1, and each LSTM's
    forget-gate bias at 1."""
    config.validate()
    layout = tensor_shapes(config)
    size = sum(math.prod(shape) for _, shape in layout)
    try:
        flat = np.zeros(size)
    except (MemoryError, ValueError):  # numpy's refusal of a size beyond its index range
        raise ConfigError(f"the model has {size:,} parameters, too many to allocate") from None
    params = _on_buffer(layout, flat)
    rng = np.random.default_rng(seed)
    for name, a in params.named:
        if name == "embed":
            a[...] = rng.uniform(-0.1, 0.1, size=a.shape)
        elif a.ndim > 1:
            a[...] = _glorot(rng, a.shape)
    hs = config.hidden_size
    for p in itertools.chain(*params.vis_rnn, params.lm_rnn):
        p.b[hs : 2 * hs] = 1.0  # forget gate opens at init
    for blk in params.conv:
        blk.gain[...] = 1.0
    return params


# --- visual feature encoder ---------------------------------------------------


@dataclass
class ConvBlockCache:
    """Backward inputs of one _conv_block. Its argmax is the normalized map's
    first-max position (a zero-gain channel's is the centred map's), and relu
    commutes with max pooling (same values, same first-max position where the
    window's max is positive, zero gradient elsewhere), so the relu runs in
    place on the pooled map: ``pooled`` is the block's output, positive
    exactly where the relu input was, which is all the relu's backward reads."""

    x_in: np.ndarray
    xhat: np.ndarray  # channel_norm's standardized map
    inv_std: np.ndarray  # (C,)
    pooled: np.ndarray  # the block's output: the next x_in, or the BiLSTM's input
    argmax: np.ndarray


@dataclass
class LstmRunCache:
    """One scan (see _run_lstm) as step-major arrays: row s belongs to step s,
    which advances direction 0 at sequence position s and direction 1 at
    T-1-s. h and c lead with the zero state before the first step."""

    inputs: np.ndarray  # (T, input), in sequence order
    out: np.ndarray  # (T, D*H): each direction's outputs in sequence order
    gates: np.ndarray  # (T, 4, D, H): i, f, g, o after their nonlinearities
    h: np.ndarray  # (T+1, D, H)
    c: np.ndarray  # (T+1, D, H)
    tanh_c: np.ndarray  # (T, D, H)


@dataclass
class VisualCache:
    blocks: list  # [ConvBlockCache]
    runs: list  # [LstmRunCache], one per BiLSTM layer


def _in_sequence_order(steps: np.ndarray, d: int) -> np.ndarray:
    """Direction d's part of a step-major array whose second-to-last axis is
    the direction, rows in sequence order: a view."""
    return steps[..., d, :] if d == 0 else steps[::-1, ..., d, :]


def _run_lstm(seq: np.ndarray, layers, keep_cache: bool = True):
    """One scan over the rows of ``seq`` with an LSTM per direction: layers[0]
    reads them forward and layers[1], if given, backward. Returns (outputs
    (T, D*H), LstmRunCache or None). The input projections are one GEMM per
    direction (Appleyard, Kočiský & Blunsom 2016); each step adds w_h @ h for
    every direction and runs their elementwise work together. Without
    keep_cache, the gates and cells go to one reused scratch row."""
    n, hs, d = len(seq), layers[0].hidden_size, len(layers)
    work = lstm_scan_work(layers)
    zx = np.empty((n, 4, d, hs))
    for k, p in enumerate(layers):
        _in_sequence_order(zx, k)[...] = (seq @ p.w_x.T + p.b).reshape(n, 4, hs)
    zx *= work.scale
    h = np.zeros((n + 1, d, hs))  # row 0 is the state before the first step
    if keep_cache:
        gates, c, tanh_c = np.empty((n, 4, d, hs)), np.zeros((n + 1, d, hs)), np.empty((n, d, hs))
        for z, h_prev, c_prev, g, c_next, t, h_next in zip(zx, h, c, gates, c[1:], tanh_c, h[1:]):
            lstm_step_cached(z, h_prev, c_prev, work, g, c_next, t, h_next)
    else:
        g, c_row, t = np.empty((4, d, hs)), np.zeros((d, hs)), np.empty((d, hs))
        for z, h_prev, h_next in zip(zx, h, h[1:]):
            lstm_step_cached(z, h_prev, c_row, work, g, c_row, t, h_next)
    out = np.concatenate([_in_sequence_order(h[1:], k) for k in range(d)], axis=1)
    return out, LstmRunCache(seq, out, gates, h, c, tanh_c) if keep_cache else None


def _run_lstm_backward(grad_out: np.ndarray, run: LstmRunCache, layers, grads) -> np.ndarray:
    """BPTT over one scan, its steps in reverse; adds each direction's
    parameter gradients to the LstmParams in ``grads`` and returns the
    gradient wrt the input sequence.

    The steps' derivative factors are formed once as arrays; each step then
    yields its pre-activation gradients dz. The weight and input gradients
    are one GEMM each over a direction's (T, 4H) rows of dz in sequence
    order, as a scan of that direction alone would form them."""
    n, d, hs = run.tanh_c.shape
    grad_h = np.stack([_in_sequence_order(grad_out.reshape(n, d, hs), k) for k in range(d)], 1)
    factors = lstm_backward_factors(run.gates, run.tanh_c, run.c[:-1])
    dz = np.empty((n, d, 4 * hs))
    dz_gates = dz.reshape(n, d, 4, hs).swapaxes(1, 2)
    dh, dc, dc_step = np.zeros((3, d, hs))
    w_h_t = [p.w_h.T for p in layers]
    for s in range(n - 1, -1, -1):
        lstm_step_backward(grad_h[s], dh, dc, dc_step, factors[s], w_h_t, dz[s], dz_gates[s])
    grad_seq = None
    for k, (p, g) in enumerate(zip(layers, grads)):
        dz_k = np.ascontiguousarray(_in_sequence_order(dz, k))
        g.w_x += dz_k.T @ run.inputs
        g.w_h += dz_k.T @ np.ascontiguousarray(_in_sequence_order(run.h[:-1], k))
        g.b += dz_k.sum(axis=0)
        part = dz_k @ p.w_x
        grad_seq = part if grad_seq is None else grad_seq + part
    return grad_seq


def _conv_block(x: np.ndarray, p: ConvBlockParams, pool, blocks: list | None) -> np.ndarray:
    """conv -> norm -> pool -> relu, making the full-size map once. The conv
    adds no bias (the norm cancels it) and negates the channels of negative
    gain, since max pooling commutes with a positive scale only. channel_norm
    centres its output in place, the pool reduces the centred map, and the
    norm's affine and the relu run in place on the pooled map. With ``blocks``
    given, the pool also keeps its argmax, the centred map is scaled into
    xhat in place, and the block's ConvBlockCache goes to ``blocks``."""
    sign = np.where(p.gain < 0.0, -1.0, 1.0)
    z = conv2d(x, p.w * sign[:, None, None, None])
    scale, inv_std = channel_norm(z, p.gain)
    pooled, argmax = maxpool2d(z, pool, need_argmax=blocks is not None)
    pooled *= scale[:, None, None]
    pooled += p.shift[:, None, None]
    if blocks is not None:
        z *= (sign * inv_std)[:, None, None]
        blocks.append(ConvBlockCache(x, z, inv_std, pooled, argmax))
    return np.maximum(pooled, 0.0, out=pooled)


def _conv_block_backward(grad_out: np.ndarray, cache: ConvBlockCache, p: ConvBlockParams,
                         pool, grads: ConvBlockParams, need_grad_x: bool):
    """Adds the block's parameter gradients to ``grads``; returns the gradient
    at its input, or None without need_grad_x."""
    d_norm = maxpool2d_backward(grad_out * (cache.pooled > 0.0), cache.argmax,
                                cache.xhat.shape, pool)
    # d_norm is this call's own, for channel_norm_backward consumes it
    d_conv, d_gain, d_shift = channel_norm_backward(d_norm, cache.xhat, cache.inv_std, p.gain)
    del d_norm  # before the conv's backward, the block's largest temporaries
    grad_x, d_w = conv2d_backward(d_conv, cache.x_in, p.w, need_grad_x=need_grad_x)
    grads.w += d_w
    grads.gain += d_gain
    grads.shift += d_shift
    return grad_x


def visual_encode_cached(image: np.ndarray, params: ModelParams, config: ModelConfig, *,
                         keep_caches: bool = True):
    """Image -> (features (T, encoded_size), VisualCache, or None unless keep_caches)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] != config.input_height or image.shape[1] < 1:
        raise UsageError(
            f"image shape {image.shape} does not match input_height={config.input_height}"
        )
    blocks = [] if keep_caches else None
    x = image[None, :, :]
    for blk_params, blk_cfg in zip(params.conv, config.conv_blocks):
        x = _conv_block(x, blk_params, blk_cfg[2], blocks)
    seq = x[:, 0, :].T  # (C, 1, T) -> (T, C)
    runs = []
    for layers in params.vis_rnn:
        seq, run = _run_lstm(seq, layers, keep_caches)
        runs.append(run)
    feats = affine_forward(seq, params.vis_proj.w, params.vis_proj.b)
    return feats, VisualCache(blocks, runs) if keep_caches else None


def visual_encode(image, params, config) -> np.ndarray:
    """visual_encode_cached's features, with no backward cache or pooling argmax built."""
    return visual_encode_cached(image, params, config, keep_caches=False)[0]


def _visual_backward(grad_feats: np.ndarray, cache: VisualCache,
                     params: ModelParams, config: ModelConfig, grads: ModelParams):
    grad_seq, gw, gb = affine_backward(grad_feats, cache.runs[-1].out, params.vis_proj.w)
    grads.vis_proj.w += gw
    grads.vis_proj.b += gb
    for run, layers, g in reversed(list(zip(cache.runs, params.vis_rnn, grads.vis_rnn))):
        grad_seq = _run_lstm_backward(grad_seq, run, layers, g)
    # sequence -> (C, 1, T) map
    grad_map = grad_seq.T[:, None, :]
    for i in reversed(range(len(params.conv))):
        grad_map = _conv_block_backward(grad_map, cache.blocks[i], params.conv[i],
                                        config.conv_blocks[i][2], grads.conv[i],
                                        need_grad_x=i > 0)  # none for the image


# --- linguistic context encoder --------------------------------------------------


@dataclass
class LinguisticCache:
    ids: tuple
    runs: list  # [LstmRunCache]


def linguistic_encode_cached(labels, params: ModelParams, config: ModelConfig):
    """Label history -> context rows (U+1, encoded_size); row 0 is the start
    context produced by feeding the blank token."""
    ids = (0,) + check_label_ids(labels, config.vocab_size)
    seq = params.embed[list(ids)]
    runs = []
    for p in params.lm_rnn:
        seq, run = _run_lstm(seq, (p,))
        runs.append(run)
    ctx = affine_forward(seq, params.lm_proj.w, params.lm_proj.b)
    return ctx, LinguisticCache(ids, runs)


def _linguistic_backward(grad_ctx: np.ndarray, cache: LinguisticCache,
                         params: ModelParams, config: ModelConfig, grads: ModelParams):
    grad_seq, gw, gb = affine_backward(grad_ctx, cache.runs[-1].out, params.lm_proj.w)
    grads.lm_proj.w += gw
    grads.lm_proj.b += gb
    for run, p, g in reversed(list(zip(cache.runs, params.lm_rnn, grads.lm_rnn))):
        grad_seq = _run_lstm_backward(grad_seq, run, (p,), (g,))
    np.add.at(grads.embed, list(cache.ids), grad_seq)  # unbuffered: repeated ids add up


def linguistic_step(prev_label: int, states, params: ModelParams, config: ModelConfig):
    """One incremental step of the linguistic encoder.

    ``states`` holds one (2, H) state, rows h and c, per layer (see
    linguistic_start_states); returns (context row, new states) and never
    mutates the input states. Composing steps over (blank, y1, ..., yU)
    reproduces the context rows of linguistic_encode_cached, row for row.
    """
    if not 0 <= prev_label <= config.vocab_size:
        raise UsageError(f"label id {prev_label} outside [0, {config.vocab_size}]")
    x = params.embed[prev_label]
    new_states = []
    for p, state in zip(params.lm_rnn, states):
        x, new_state = lstm_step(x, state, p)
        new_states.append(new_state)
    g = affine_forward(x, params.lm_proj.w, params.lm_proj.b)
    return g, new_states


def linguistic_start_states(config: ModelConfig) -> np.ndarray:
    return np.zeros((config.recurrent_layers_linguistic, 2, config.hidden_size))


# --- joint decoder ----------------------------------------------------------------


def joint(f: np.ndarray, g_u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Raw logits over the extended label set, for one frame f (E,) -> (K+1,)
    or a block of frames f (n, E) against the one context row g_u -> (n, K+1),
    with _joint_block's operations. Their argmax is that of their softmax."""
    size = params.joint_bias.shape
    if f.ndim not in (1, 2) or f.shape[-1:] != size or g_u.shape != size:
        raise UsageError(f"joint expects frames (E,) or (n, E) and a context (E,), "
                         f"E={size[0]}; got {f.shape} and {g_u.shape}")
    v = f + g_u
    v += params.joint_bias
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
        logits = np.tanh(v, out=v) @ params.joint_w.T
    if not np.all(np.isfinite(logits)):
        raise UsageError("joint requires finite logits")
    return logits


@dataclass
class ForwardCache:
    visual: VisualCache
    linguistic: LinguisticCache
    joint_tanh: np.ndarray | None  # (T, U+1, encoded): tanh(f + g + b); backward_pass takes it
    peak: np.ndarray  # (T, U+1): each node's max logit
    log_norm: np.ndarray  # (T, U+1): each node's log sum exp(logit - peak)


_BLOCK_ELEMENTS = 2**15  # joint elements per block of frames: 256 KiB of float64


def _frame_blocks(t_total: int, frame_elements: int):
    """Slices of consecutive frames, each holding about _BLOCK_ELEMENTS joint
    elements (at least one frame), so a block's temporaries stay in cache."""
    step = max(1, _BLOCK_ELEMENTS // frame_elements)
    return [slice(t, min(t + step, t_total)) for t in range(0, t_total, step)]


def _joint_block(feats: np.ndarray, ctx: np.ndarray, params: ModelParams, out=None):
    """(tanh(f + g + b) (n, U+1, E), in ``out`` if given, and raw logits (n,
    U+1, K+1)) of frames (n, E) against every context row (U+1, E): joint's
    operations before the softmax."""
    v = np.add(feats[:, None, :], ctx, out=out)
    v += params.joint_bias
    np.tanh(v, out=v)
    with np.errstate(over="ignore", invalid="ignore"):  # node_log_probs reports them
        return v, v @ params.joint_w.T


def forward_lattice(image, labels, params: ModelParams, config: ModelConfig):
    """Full forward pass: the (blank (T, U+1), label (T, U)) transition tables
    that lattice.rnnt_alphabeta takes, and the ForwardCache. The joint runs
    over blocks of frames (_frame_blocks) and keeps its tanh for the backward;
    lattice.node_log_probs normalizes each block and keeps its nodes'
    normalizers in the cache."""
    feats, vis_cache = visual_encode_cached(image, params, config)
    ctx, lm_cache = linguistic_encode_cached(labels, params, config)
    labels = np.array(lm_cache.ids[1:], dtype=np.intp)
    t_total, rows, classes = feats.shape[0], ctx.shape[0], params.joint_w.shape[0]
    blank, label = np.empty((t_total, rows)), np.empty((t_total, rows - 1))
    peak, log_norm = np.empty((2, t_total, rows))
    tanh = np.empty((t_total, rows, feats.shape[1]))
    for block in _frame_blocks(t_total, rows * classes):
        logits = _joint_block(feats[block], ctx, params, out=tanh[block])[1]
        blank[block], label[block], peak[block], log_norm[block] = node_log_probs(logits, labels)
    return (blank, label), ForwardCache(vis_cache, lm_cache, tanh, peak, log_norm)


def backward_pass(grad_tables, cache: ForwardCache, params: ModelParams,
                  config: ModelConfig, grads: ModelParams) -> ModelParams:
    """Parameter gradients from lattice.rnnt_grad's (grad_blank (T, U+1),
    grad_label (T, U)) tables, added into ``grads`` (a zero_grads_shell of
    ``params``, say), which is returned.

    Over forward_lattice's blocks of frames, each block's logits are
    recomputed from the cached tanh (taken out of the cache, so a cache
    serves one backward_pass), lattice.logit_grad forms their gradient from
    the cached normalizers, and the two joint GEMMs split it into the
    joint-bias, visual (sum over u) and linguistic (sum over t) gradients.
    """
    t_total, rows = cache.peak.shape
    shapes = tuple(np.shape(g) for g in grad_tables)
    if shapes != ((t_total, rows), (t_total, rows - 1)):
        raise UsageError(f"gradient tables of shapes {shapes} do not match the cached "
                         f"{t_total} frames and {rows - 1} labels")
    classes, enc = params.joint_w.shape
    joint_tanh = cache.joint_tanh
    if joint_tanh is None:
        raise UsageError("backward_pass has already consumed this forward cache")
    if joint_tanh.shape[2] != enc:
        raise UsageError("cache does not belong to these parameters")
    cache.joint_tanh = None
    grad_blank, grad_label = grad_tables
    labels = np.array(cache.linguistic.ids[1:], dtype=np.intp)
    grad_feats, grad_ctx = np.empty((t_total, enc)), np.zeros((rows, enc))
    for block in _frame_blocks(t_total, rows * classes):
        d_logits = logit_grad(joint_tanh[block] @ params.joint_w.T, cache.peak[block],
                              cache.log_norm[block], grad_blank[block], grad_label[block],
                              labels).reshape(-1, classes)
        v = joint_tanh[block].reshape(-1, enc)
        grads.joint_w += d_logits.T @ v
        ds = d_logits @ params.joint_w
        ds *= 1.0 - v * v
        ds = ds.reshape(-1, rows, enc)
        grads.joint_bias += ds.sum(axis=(0, 1))
        grad_feats[block] = ds.sum(axis=1)
        grad_ctx += ds.sum(axis=0)
    del joint_tanh, v, d_logits, ds  # before the encoders' backward
    _visual_backward(grad_feats, cache.visual, params, config, grads)
    _linguistic_backward(grad_ctx, cache.linguistic, params, config, grads)
    return grads


# --- checkpoint container -----------------------------------------------------------
#
# Layout (everything little-endian):
#   bytes 0-7    magic "LINERECK"
#   bytes 8-11   u32 format version (currently 2; version 1 is still read)
#   bytes 12-15  u32 header length N
#   bytes 16...  UTF-8 JSON header:
#                  {"config": {...ModelConfig...},
#                   "charset": ["a", "b", ...],
#                   "tensors": [{"name": ..., "shape": [...]}, ...]}
#   then the parameter buffer: float64 little-endian, every tensor in header
#   order, and nothing after it. The tensors are tensor_shapes(config).
#   Version 1 also holds each conv block's bias, conv{i}.b of shape (C_i,),
#   right after conv{i}.w; the norm after the conv cancels a bias, so loading
#   checks it like any tensor and then drops it.
# The README repeats this so non-Python readers can parse it.


def write_atomically(path, write) -> None:
    """Calls ``write(fh)`` on a temporary file beside ``path``, then renames it
    over ``path``: a failure leaves ``path`` as it was and no temporary file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, config: ModelConfig, vocab: Vocab, params: ModelParams) -> None:
    header = json.dumps(
        {
            "config": config.to_dict(),
            "charset": list(vocab.symbols),
            "tensors": [{"name": n, "shape": list(a.shape)} for n, a in named_arrays(params)],
        },
        ensure_ascii=False,
    ).encode("utf-8")

    def write(fh):
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())

    write_atomically(path, write)


def _v1_tensors(layout: list) -> list:
    """A version-1 checkpoint's tensor list: ``layout`` with each conv block's
    bias after its weights."""
    out = []
    for name, shape in layout:
        out.append((name, shape))
        if name.startswith("conv") and name.endswith(".w"):
            out.append((f"{name[:-2]}.b", shape[:1]))
    return out


def load_checkpoint(path):
    """Returns (config, vocab, params) from a version 2 or version 1 file; any
    malformed or inconsistent content, a non-finite value anywhere in the
    payload included, is a ConfigError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file")
    if len(blob) < 16:
        raise ConfigError(f"{path}: truncated in the fixed header")
    version, header_len = struct.unpack("<II", blob[8:16])
    if version not in (1, CHECKPOINT_VERSION):
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        charset = header["charset"]
        if not isinstance(charset, list):
            raise ConfigError(f"{path}: charset must be a JSON list of strings")
        vocab = Vocab(tuple(charset))
        tensors = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
    except (ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed header: {exc}") from None
    config.check_vocab(vocab, f"{path}: the charset")
    layout = tensor_shapes(config)  # both checks come before any allocation
    stored = layout if version == CHECKPOINT_VERSION else _v1_tensors(layout)
    check_same(tensors, stored, f"{path}: header tensors differ from the model's")
    sizes = [math.prod(shape) for _, shape in stored]
    payload, needed = len(blob) - 16 - header_len, 8 * sum(sizes)
    if payload != needed:
        raise ConfigError(f"{path}: payload is {payload} bytes, the model needs {needed}")
    values = np.split(np.frombuffer(blob, dtype="<f8", offset=16 + header_len),
                      np.cumsum(sizes[:-1]))
    for (name, _), v in zip(stored, values):
        if not np.all(np.isfinite(v)):
            raise ConfigError(f"{path}: tensor {name} holds a non-finite value")
    kept = {name for name, _ in layout}
    flat = np.concatenate([v for (name, _), v in zip(stored, values) if name in kept])
    return config, vocab, _on_buffer(layout, flat.astype(np.float64, copy=False))
