"""The three-part network: visual feature encoder (conv stack + bidirectional
LSTM + projection), linguistic context encoder (embedding + LSTM stack +
projection), and the joint decoder that turns a (feature, context) pair into
a log-distribution over the extended label set.

Training forward passes cache what the hand-written backward pass reads
and nothing more (inference keeps none); `backward_pass` consumes the cache
and the loss gradient at the lattice's log-probability level, as the two
transition tables of `lattice.rnnt_grad`, and produces gradients for every
parameter tensor. Both run the joint over cache-sized blocks of frames.
Label ids are checked once, by `lattice.check_label_ids`.
Checkpoint serialization lives here too since its payload is exactly the
parameter buffer.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConfigSection, UsageError, json_type_ok
from .lattice import Vocab, check_label_ids, dense_grad
from .numerics import (
    LstmParams,
    affine_backward,
    affine_forward,
    channel_norm,
    channel_norm_backward,
    conv2d,
    conv2d_backward,
    log_softmax,
    log_softmax_backward,
    lstm_backward_factors,
    lstm_step,
    lstm_step_backward,
    lstm_step_cached,
    lstm_zero_state,
    maxpool2d,
    maxpool2d_backward,
)

CHECKPOINT_MAGIC = b"LINERECK"
CHECKPOINT_VERSION = 1


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
            channels, kernel, pool = blk[0], blk[1], tuple(blk[2])
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

    def frames_for_width(self, width: int) -> int:
        t = width
        for blk in self.conv_blocks:
            t = _ceil_div(t, blk[2][1])
        return t


@dataclass
class ConvBlockParams:
    w: np.ndarray  # (C_out, C_in, k, k)
    b: np.ndarray  # (C_out,)  cancelled by the norm, so the forward adds none
    gain: np.ndarray  # (C_out,)  channel-norm scale
    shift: np.ndarray  # (C_out,)


@dataclass
class AffineParams:
    w: np.ndarray
    b: np.ndarray


@dataclass
class BiLstmParams:
    fwd: LstmParams
    bwd: LstmParams


@dataclass
class ModelParams:
    """Every trainable tensor, grouped by sub-network. Each tensor is a view
    into ``flat``, one contiguous float64 buffer laid out in named_arrays
    order, so whole-parameter operations are vector operations on it."""

    conv: list  # [ConvBlockParams]
    vis_rnn: list  # [BiLstmParams]
    vis_proj: AffineParams
    embed: np.ndarray  # (K+1, embed_size)
    lm_rnn: list  # [LstmParams]
    lm_proj: AffineParams
    joint_bias: np.ndarray  # (encoded,)
    joint_w: np.ndarray  # (K+1, encoded)
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)


def _lstm_named(prefix: str, p: LstmParams):
    yield f"{prefix}.w_x", p.w_x
    yield f"{prefix}.w_h", p.w_h
    yield f"{prefix}.b", p.b


def named_arrays(params: ModelParams):
    """(name, array) pairs in the canonical order: the layout of
    ``params.flat`` and of the checkpoint payload."""
    for i, blk in enumerate(params.conv):
        yield f"conv{i}.w", blk.w
        yield f"conv{i}.b", blk.b
        yield f"conv{i}.gain", blk.gain
        yield f"conv{i}.shift", blk.shift
    for i, bi in enumerate(params.vis_rnn):
        yield from _lstm_named(f"vis{i}.fwd", bi.fwd)
        yield from _lstm_named(f"vis{i}.bwd", bi.bwd)
    yield "vis_proj.w", params.vis_proj.w
    yield "vis_proj.b", params.vis_proj.b
    yield "embed", params.embed
    for i, p in enumerate(params.lm_rnn):
        yield from _lstm_named(f"lm{i}", p)
    yield "lm_proj.w", params.lm_proj.w
    yield "lm_proj.b", params.lm_proj.b
    yield "joint.b", params.joint_bias
    yield "joint.w", params.joint_w


def tensor_shapes(config: ModelConfig) -> list:
    """(name, shape) of every tensor in named_arrays order, from the config
    alone: what a checkpoint must hold, known before anything is allocated."""
    hs, enc, classes = config.hidden_size, config.encoded_size, config.vocab_size + 1
    shapes, n_in = [], 1

    def lstm(prefix: str, n: int) -> list:
        return [(f"{prefix}.w_x", (4 * hs, n)), (f"{prefix}.w_h", (4 * hs, hs)),
                (f"{prefix}.b", (4 * hs,))]

    for i, (channels, kernel, _pool) in enumerate(config.conv_blocks):
        shapes += [(f"conv{i}.w", (channels, n_in, kernel, kernel))]
        shapes += [(f"conv{i}.{n}", (channels,)) for n in ("b", "gain", "shift")]
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


def _on_buffer(params: ModelParams, flat: np.ndarray) -> ModelParams:
    """The structure of ``params`` with every tensor a view into ``flat``."""
    views, offset = {}, 0
    for _, a in named_arrays(params):
        views[id(a)] = flat[offset : offset + a.size].reshape(a.shape)
        offset += a.size

    def f(a: np.ndarray) -> np.ndarray:
        return views[id(a)]

    def lstm(p: LstmParams) -> LstmParams:
        return LstmParams(f(p.w_x), f(p.w_h), f(p.b))

    return ModelParams(
        conv=[ConvBlockParams(f(b.w), f(b.b), f(b.gain), f(b.shift)) for b in params.conv],
        vis_rnn=[BiLstmParams(lstm(b.fwd), lstm(b.bwd)) for b in params.vis_rnn],
        vis_proj=AffineParams(f(params.vis_proj.w), f(params.vis_proj.b)),
        embed=f(params.embed),
        lm_rnn=[lstm(p) for p in params.lm_rnn],
        lm_proj=AffineParams(f(params.lm_proj.w), f(params.lm_proj.b)),
        joint_bias=f(params.joint_bias),
        joint_w=f(params.joint_w),
        flat=flat,
    )


def zero_grads_shell(params: ModelParams) -> ModelParams:
    """A ModelParams of zeros with the same shapes; gradient accumulator."""
    return _on_buffer(params, np.zeros(params.flat.size))


def clone_params(params: ModelParams) -> ModelParams:
    return _on_buffer(params, params.flat.copy())


def _glorot(rng: np.random.Generator, shape) -> np.ndarray:
    if len(shape) == 4:  # conv: fans include the receptive field
        fan_in = shape[1] * shape[2] * shape[3]
        fan_out = shape[0] * shape[2] * shape[3]
    else:
        fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization of the tensor_shapes(config) layout;
    random draws happen in named_arrays order."""
    config.validate()
    rng = np.random.default_rng(seed)
    hs = config.hidden_size
    shape = dict(tensor_shapes(config))

    def lstm(prefix: str) -> LstmParams:
        w_x = _glorot(rng, shape[f"{prefix}.w_x"])
        w_h = _glorot(rng, shape[f"{prefix}.w_h"])
        b = np.zeros(shape[f"{prefix}.b"])
        b[hs : 2 * hs] = 1.0  # forget gate opens at init
        return LstmParams(w_x, w_h, b)

    params = ModelParams(
        conv=[ConvBlockParams(w=_glorot(rng, shape[f"conv{i}.w"]), b=np.zeros(shape[f"conv{i}.b"]),
                              gain=np.ones(shape[f"conv{i}.gain"]),
                              shift=np.zeros(shape[f"conv{i}.shift"]))
              for i in range(len(config.conv_blocks))],
        vis_rnn=[BiLstmParams(fwd=lstm(f"vis{i}.fwd"), bwd=lstm(f"vis{i}.bwd"))
                 for i in range(config.recurrent_layers_visual)],
        vis_proj=AffineParams(w=_glorot(rng, shape["vis_proj.w"]), b=np.zeros(shape["vis_proj.b"])),
        embed=rng.uniform(-0.1, 0.1, size=shape["embed"]),
        lm_rnn=[lstm(f"lm{i}") for i in range(config.recurrent_layers_linguistic)],
        lm_proj=AffineParams(w=_glorot(rng, shape["lm_proj.w"]), b=np.zeros(shape["lm_proj.b"])),
        joint_bias=np.zeros(shape["joint.b"]),
        joint_w=_glorot(rng, shape["joint.w"]),
    )
    return _on_buffer(params, np.concatenate([a.ravel() for _, a in named_arrays(params)]))


# --- visual feature encoder ---------------------------------------------------


@dataclass
class ConvBlockCache:
    """Backward inputs of one _conv_block. Its argmax is the normalized map's
    first-max position (a zero-gain channel's is the centred map's), and relu
    commutes with max pooling (same values, same first-max position where the
    window's max is positive, zero gradient elsewhere), so ``pooled`` is the
    relu input."""

    x_in: np.ndarray
    xhat: np.ndarray  # channel_norm's standardized map
    inv_std: np.ndarray  # (C,)
    pooled: np.ndarray  # pre-relu
    argmax: np.ndarray


@dataclass
class LstmRunCache:
    """One scan as whole-sequence arrays, rows indexed by sequence position in
    either direction; h_prev and c_prev are outs and cells shifted by a step."""

    inputs: np.ndarray  # (T, input)
    gates: np.ndarray  # (T, 4, H): i, f, g, o after their nonlinearities
    outs: np.ndarray  # (T, H)
    cells: np.ndarray  # (T, H)
    tanh_c: np.ndarray  # (T, H)
    h_prev: np.ndarray  # (T, H)
    c_prev: np.ndarray  # (T, H)
    reverse: bool


@dataclass
class VisualCache:
    blocks: list  # [ConvBlockCache]
    runs: list  # [(LstmRunCache fwd, LstmRunCache bwd)]
    rnn_out: np.ndarray  # (T, 2H)


def _run_lstm(seq: np.ndarray, p: LstmParams, reverse: bool):
    """One scan over the rows of ``seq``; returns (outputs (T, H), cache). The
    input projection is one GEMM (Appleyard, Kočiský & Blunsom 2016); each
    step adds w_h @ h to its row and writes into the cache's arrays."""
    n, hs = len(seq), p.hidden_size
    zx = (seq @ p.w_x.T + p.b).reshape(n, 4, hs)
    h, c = np.zeros((2, n + 1, hs))  # the zero row is the state before the first step
    now, prev = (slice(n), slice(1, None)) if reverse else (slice(1, None), slice(n))
    run = LstmRunCache(seq, np.empty((n, 4, hs)), h[now], c[now], np.empty((n, hs)),
                       h[prev], c[prev], reverse)
    for t in range(n - 1, -1, -1) if reverse else range(n):
        lstm_step_cached(zx[t], run.h_prev[t], run.c_prev[t], p.w_h, run.gates[t],
                         run.cells[t], run.tanh_c[t], run.outs[t])
    return run.outs, run


def _run_lstm_backward(grad_out: np.ndarray, run: LstmRunCache, p: LstmParams,
                       grads: LstmParams) -> np.ndarray:
    """BPTT over one scan; returns the gradient wrt the input sequence.

    The steps' derivative factors are formed once as arrays; each step then
    yields its pre-activation gradient dz, and the weight and input gradients
    are one GEMM each over the (T, 4H) rows of dz."""
    n, hs = run.outs.shape
    factors = lstm_backward_factors(run.gates, run.tanh_c, run.c_prev)
    dz, dh, dc, w_h_t = np.empty((n, 4, hs)), np.zeros(hs), np.zeros(hs), p.w_h.T
    for t in range(n) if run.reverse else range(n - 1, -1, -1):
        dh, dc = lstm_step_backward(grad_out[t] + dh, dc, factors[t], w_h_t, dz[t])
    dz = dz.reshape(n, 4 * hs)
    grads.w_x += dz.T @ run.inputs
    grads.w_h += dz.T @ run.h_prev
    grads.b += dz.sum(axis=0)
    return dz @ p.w_x


def _conv_block(x: np.ndarray, p: ConvBlockParams, pool, blocks: list | None) -> np.ndarray:
    """conv -> norm -> pool -> relu, making the full-size map once. The conv
    adds no bias (the norm cancels it) and negates the channels of negative
    gain, since max pooling commutes with a positive scale only. channel_norm
    centres its output in place, the pool reduces the centred map, and the
    norm's affine and the relu touch the pooled map only. With ``blocks``
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
    return np.maximum(pooled, 0.0)


def _conv_block_backward(grad_out: np.ndarray, cache: ConvBlockCache, p: ConvBlockParams,
                         pool, grads: ConvBlockParams, need_grad_x: bool):
    """Adds the block's parameter gradients to ``grads``; returns the gradient
    at its input, or None without need_grad_x."""
    d_pool = grad_out * (cache.pooled > 0.0)
    d_norm = maxpool2d_backward(d_pool, cache.argmax, cache.xhat.shape, pool)
    d_conv, d_gain, d_shift = channel_norm_backward(d_norm, cache.xhat, cache.inv_std, p.gain)
    grad_x, d_w, d_b = conv2d_backward(d_conv, cache.x_in, p.w, need_grad_x=need_grad_x)
    grads.w += d_w
    grads.b += d_b
    grads.gain += d_gain
    grads.shift += d_shift
    return grad_x


def _conv_stack(image: np.ndarray, params: ModelParams, config: ModelConfig, blocks: list | None):
    """Image -> (T, C_last) through the _conv_block of each conv block; caches
    go to ``blocks`` if given."""
    x = image[None, :, :]
    for blk_params, blk_cfg in zip(params.conv, config.conv_blocks):
        x = _conv_block(x, blk_params, blk_cfg[2], blocks)
    # (C, 1, T) -> (T, C)
    return x[:, 0, :].T


def visual_encode_cached(image: np.ndarray, params: ModelParams, config: ModelConfig, *,
                         keep_caches: bool = True):
    """Image -> (features (T, encoded_size), VisualCache, or None unless keep_caches)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] != config.input_height or image.shape[1] < 1:
        raise UsageError(
            f"image shape {image.shape} does not match input_height={config.input_height}"
        )
    blocks = [] if keep_caches else None
    seq = _conv_stack(image, params, config, blocks)
    runs = []
    for bi in params.vis_rnn:
        out_f, run_f = _run_lstm(seq, bi.fwd, reverse=False)
        out_b, run_b = _run_lstm(seq, bi.bwd, reverse=True)
        runs.append((run_f, run_b))
        seq = np.concatenate([out_f, out_b], axis=1)
    feats = affine_forward(seq, params.vis_proj.w, params.vis_proj.b)
    return feats, VisualCache(blocks, runs, seq) if keep_caches else None


def visual_encode(image, params, config) -> np.ndarray:
    """visual_encode_cached's features, with no backward cache or pooling argmax built."""
    return visual_encode_cached(image, params, config, keep_caches=False)[0]


def _visual_backward(grad_feats: np.ndarray, cache: VisualCache,
                     params: ModelParams, config: ModelConfig, grads: ModelParams):
    hs = config.hidden_size
    grad_seq, gw, gb = affine_backward(grad_feats, cache.rnn_out, params.vis_proj.w)
    grads.vis_proj.w += gw
    grads.vis_proj.b += gb
    for i in reversed(range(len(params.vis_rnn))):
        run_f, run_b = cache.runs[i]
        bi = params.vis_rnn[i]
        d_in = _run_lstm_backward(grad_seq[:, :hs], run_f, bi.fwd, grads.vis_rnn[i].fwd)
        d_in += _run_lstm_backward(grad_seq[:, hs:], run_b, bi.bwd, grads.vis_rnn[i].bwd)
        grad_seq = d_in
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
        seq, run = _run_lstm(seq, p, reverse=False)
        runs.append(run)
    ctx = affine_forward(seq, params.lm_proj.w, params.lm_proj.b)
    return ctx, LinguisticCache(ids, runs)


def linguistic_encode(labels, params, config) -> np.ndarray:
    ctx, _ = linguistic_encode_cached(labels, params, config)
    return ctx


def _linguistic_backward(grad_ctx: np.ndarray, cache: LinguisticCache,
                         params: ModelParams, config: ModelConfig, grads: ModelParams):
    grad_seq, gw, gb = affine_backward(grad_ctx, cache.runs[-1].outs, params.lm_proj.w)
    grads.lm_proj.w += gw
    grads.lm_proj.b += gb
    for i in reversed(range(len(params.lm_rnn))):
        grad_seq = _run_lstm_backward(grad_seq, cache.runs[i], params.lm_rnn[i],
                                      grads.lm_rnn[i])
    np.add.at(grads.embed, list(cache.ids), grad_seq)  # unbuffered: repeated ids add up


def linguistic_step(prev_label: int, states, params: ModelParams, config: ModelConfig):
    """One incremental step of the linguistic encoder.

    ``states`` is a list with one LstmState per layer (see
    linguistic_start_states); returns (context row, new states) and never
    mutates the input states. Composing steps over (blank, y1, ..., yU)
    reproduces linguistic_encode row for row.
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


def linguistic_start_states(config: ModelConfig):
    return [lstm_zero_state(config.hidden_size) for _ in range(config.recurrent_layers_linguistic)]


# --- joint decoder ----------------------------------------------------------------


def joint(f: np.ndarray, g_u: np.ndarray, params: ModelParams) -> np.ndarray:
    """log Pr(. | f, g_u) over the extended label set, for one frame f (E,)
    -> (K+1,) or a block of frames f (n, E) against the one context row g_u
    -> (n, K+1), in forward_lattice's operation order."""
    size = params.joint_bias.shape
    if f.ndim not in (1, 2) or f.shape[-1:] != size or g_u.shape != size:
        raise UsageError(f"joint expects frames (E,) or (n, E) and a context (E,), "
                         f"E={size[0]}; got {f.shape} and {g_u.shape}")
    return log_softmax(np.tanh(f + g_u + params.joint_bias) @ params.joint_w.T)


@dataclass
class ForwardCache:
    visual: VisualCache
    linguistic: LinguisticCache
    tanh_joint: np.ndarray  # (T, U+1, encoded)
    lattice: np.ndarray  # (T, U+1, K+1) log-probs


_BLOCK_ELEMENTS = 2**15  # joint elements per block of frames: 256 KiB of float64


def _frame_blocks(t_total: int, frame_elements: int):
    """Slices of consecutive frames, each holding about _BLOCK_ELEMENTS joint
    elements (at least one frame), so a block's temporaries stay in cache."""
    step = max(1, _BLOCK_ELEMENTS // frame_elements)
    return [slice(t, min(t + step, t_total)) for t in range(0, t_total, step)]


def forward_lattice(image, labels, params: ModelParams, config: ModelConfig):
    """Full forward pass producing the normalized (T, U+1, K+1) lattice and
    the ForwardCache. The joint runs over blocks of frames (_frame_blocks),
    each row with the same operations as joint's, so the only (T, U+1, K+1)
    array made is the lattice itself."""
    feats, vis_cache = visual_encode_cached(image, params, config)
    ctx, lm_cache = linguistic_encode_cached(labels, params, config)
    t_total, (rows, enc), classes = feats.shape[0], ctx.shape, params.joint_w.shape[0]
    lattice = np.empty((t_total, rows, classes))
    v = np.empty((t_total, rows, enc))
    for block in _frame_blocks(t_total, rows * classes):
        vb = v[block]
        np.add(feats[block, None, :], ctx, out=vb)
        vb += params.joint_bias
        np.tanh(vb, out=vb)
        lattice[block] = log_softmax(vb @ params.joint_w.T)
    return lattice, ForwardCache(vis_cache, lm_cache, v, lattice)


def backward_pass(grad_tables, cache: ForwardCache,
                  params: ModelParams, config: ModelConfig) -> ModelParams:
    """Parameter gradients from the loss gradient at the log-probability
    level, given as lattice.rnnt_grad's (grad_blank (T, U+1), grad_label
    (T, U)) tables.

    Over the same blocks of frames as forward_lattice, each block's tables are
    scattered into a dense block, chained through the per-node softmax and
    the two joint GEMMs, and split into the joint-bias, visual (sum over u)
    and linguistic (sum over t) gradients.
    """
    lattice = cache.lattice
    t_total, rows, classes = lattice.shape
    shapes = tuple(np.shape(g) for g in grad_tables)
    if shapes != ((t_total, rows), (t_total, rows - 1)):
        raise UsageError(f"gradient tables of shapes {shapes} do not match the cached "
                         f"lattice {lattice.shape}")
    if cache.tanh_joint.shape[2] != params.joint_w.shape[1]:
        raise UsageError("cache does not belong to these parameters")
    grad_blank, grad_label = grad_tables
    labels = cache.linguistic.ids[1:]
    enc = cache.tanh_joint.shape[2]
    grads = zero_grads_shell(params)
    grad_feats, grad_ctx = np.empty((t_total, enc)), np.zeros((rows, enc))
    for block in _frame_blocks(t_total, rows * classes):
        dense = dense_grad(grad_blank[block], grad_label[block], labels, classes)
        d_logits = log_softmax_backward(dense, lattice[block]).reshape(-1, classes)
        v = cache.tanh_joint[block].reshape(-1, enc)
        grads.joint_w += d_logits.T @ v
        ds = d_logits @ params.joint_w
        ds *= 1.0 - v * v
        ds = ds.reshape(-1, rows, enc)
        grads.joint_bias += ds.sum(axis=(0, 1))
        grad_feats[block] = ds.sum(axis=1)
        grad_ctx += ds.sum(axis=0)
    _visual_backward(grad_feats, cache.visual, params, config, grads)
    _linguistic_backward(grad_ctx, cache.linguistic, params, config, grads)
    return grads


# --- checkpoint container -----------------------------------------------------------
#
# Layout (everything little-endian):
#   bytes 0-7    magic "LINERECK"
#   bytes 8-11   u32 format version (currently 1)
#   bytes 12-15  u32 header length N
#   bytes 16...  UTF-8 JSON header:
#                  {"config": {...ModelConfig...},
#                   "charset": ["a", "b", ...],
#                   "tensors": [{"name": ..., "shape": [...]}, ...]}
#   then the parameter buffer: float64 little-endian, every tensor in header
#   order, and nothing after it.
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


def load_checkpoint(path):
    """Returns (config, vocab, params); any malformed or inconsistent content,
    a non-finite parameter included, is a ConfigError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file")
    if len(blob) < 16:
        raise ConfigError(f"{path}: truncated in the fixed header")
    version, header_len = struct.unpack("<II", blob[8:16])
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        charset = header["charset"]
        if not isinstance(charset, list) or not all(isinstance(c, str) for c in charset):
            raise ConfigError(f"{path}: charset must be a JSON list of strings")
        vocab = Vocab(tuple(charset))
        tensors = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
    except (ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed header: {exc}") from None
    if vocab.size != config.vocab_size:
        raise ConfigError(
            f"{path}: charset has {vocab.size} symbols, config says {config.vocab_size}"
        )
    expected = tensor_shapes(config)  # both checks come before any allocation
    if tensors != expected:
        got, want = next(((t, e) for t, e in zip(tensors, expected) if t != e),
                         (f"{len(tensors)} tensors", len(expected)))
        raise ConfigError(f"{path}: header tensors differ from the model's: {got} instead of {want}")
    payload, needed = len(blob) - 16 - header_len, 8 * sum(math.prod(s) for _, s in expected)
    if payload != needed:
        raise ConfigError(f"{path}: payload is {payload} bytes, the model needs {needed}")
    params = init_params(config, seed=0)
    params.flat[...] = np.frombuffer(blob, dtype="<f8", offset=16 + header_len)
    if not np.all(np.isfinite(params.flat)):
        name = next(n for n, a in named_arrays(params) if not np.all(np.isfinite(a)))
        raise ConfigError(f"{path}: tensor {name} holds a non-finite value")
    return config, vocab, params
