"""The three-part network: visual feature encoder (conv stack + bidirectional
LSTM + projection), linguistic context encoder (embedding + LSTM stack +
projection), and the joint decoder that turns a (feature, context) pair into
a log-distribution over the extended label set.

Forward passes cache every intermediate needed by the hand-written backward
pass; `backward_pass` consumes the cache and the loss gradient at the
lattice's log-probability level and produces gradients for every parameter
tensor. Checkpoint serialization lives here too since its payload is exactly
the parameter buffer.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConfigSection, UsageError, json_type_ok
from .lattice import Vocab
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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
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

    @property
    def width_downsample(self) -> int:
        out = 1
        for blk in self.conv_blocks:
            out *= blk[2][1]
        return out

    def frames_for_width(self, width: int) -> int:
        t = width
        for blk in self.conv_blocks:
            t = _ceil_div(t, blk[2][1])
        return t


@dataclass
class ConvBlockParams:
    w: np.ndarray  # (C_out, C_in, k, k)
    b: np.ndarray  # (C_out,)
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
    if p.ln_gain is not None:
        yield f"{prefix}.ln_gain", p.ln_gain
        yield f"{prefix}.ln_shift", p.ln_shift


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


def _on_buffer(params: ModelParams, flat: np.ndarray) -> ModelParams:
    """The structure of ``params`` with every tensor a view into ``flat``."""
    views, offset = {}, 0
    for _, a in named_arrays(params):
        views[id(a)] = flat[offset : offset + a.size].reshape(a.shape)
        offset += a.size

    def f(a: np.ndarray) -> np.ndarray:
        return views[id(a)]

    def lstm(p: LstmParams) -> LstmParams:
        ln = (None, None) if p.ln_gain is None else (f(p.ln_gain), f(p.ln_shift))
        return LstmParams(f(p.w_x), f(p.w_h), f(p.b), *ln)

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


def _init_lstm(rng, n_in: int, hidden: int, with_ln: bool) -> LstmParams:
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0  # forget gate opens at init
    p = LstmParams(
        w_x=_glorot(rng, (4 * hidden, n_in)),
        w_h=_glorot(rng, (4 * hidden, hidden)),
        b=b,
    )
    if with_ln:
        p.ln_gain = np.ones((4, hidden))
        p.ln_shift = np.zeros((4, hidden))
    return p


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization; random draws happen in named_arrays order."""
    config.validate()
    rng = np.random.default_rng(seed)
    hs = config.hidden_size
    conv = []
    c_in = 1
    for channels, kernel, _pool in config.conv_blocks:
        conv.append(
            ConvBlockParams(
                w=_glorot(rng, (channels, c_in, kernel, kernel)),
                b=np.zeros(channels),
                gain=np.ones(channels),
                shift=np.zeros(channels),
            )
        )
        c_in = channels
    vis_rnn = []
    n_in = c_in
    for _ in range(config.recurrent_layers_visual):
        vis_rnn.append(
            BiLstmParams(
                fwd=_init_lstm(rng, n_in, hs, config.layer_norm),
                bwd=_init_lstm(rng, n_in, hs, config.layer_norm),
            )
        )
        n_in = 2 * hs
    vis_proj = AffineParams(w=_glorot(rng, (config.encoded_size, 2 * hs)),
                            b=np.zeros(config.encoded_size))
    embed = rng.uniform(-0.1, 0.1, size=(config.vocab_size + 1, config.embed_size))
    lm_rnn = []
    n_in = config.embed_size
    for _ in range(config.recurrent_layers_linguistic):
        lm_rnn.append(_init_lstm(rng, n_in, hs, config.layer_norm))
        n_in = hs
    lm_proj = AffineParams(w=_glorot(rng, (config.encoded_size, hs)),
                           b=np.zeros(config.encoded_size))
    params = ModelParams(
        conv=conv,
        vis_rnn=vis_rnn,
        vis_proj=vis_proj,
        embed=embed,
        lm_rnn=lm_rnn,
        lm_proj=lm_proj,
        joint_bias=np.zeros(config.encoded_size),
        joint_w=_glorot(rng, (config.vocab_size + 1, config.encoded_size)),
    )
    return _on_buffer(params, np.concatenate([a.ravel() for _, a in named_arrays(params)]))



# --- visual feature encoder ---------------------------------------------------


@dataclass
class ConvBlockCache:
    x_in: np.ndarray
    pre_norm: np.ndarray
    post_norm: np.ndarray  # pre-relu
    argmax: np.ndarray
    pre_pool_shape: tuple


@dataclass
class LstmRunCache:
    steps: list  # [LstmStepCache], in scan order
    outs: np.ndarray  # (T, H), indexed by sequence position
    rec_mask: np.ndarray | None


@dataclass
class VisualCache:
    blocks: list  # [ConvBlockCache]
    columns: np.ndarray  # (T, C_last), conv output as a sequence
    runs: list  # [(LstmRunCache fwd, LstmRunCache bwd)]
    rnn_out: np.ndarray  # (T, 2H)


def _sample_mask(rng, rate: float, size: int):
    if rng is None or rate <= 0.0:
        return None
    return (rng.random(size) >= rate).astype(np.float64) / (1.0 - rate)


def _run_lstm(seq: np.ndarray, p: LstmParams, rng, rate: float, reverse: bool):
    mask = _sample_mask(rng, rate, p.hidden_size)
    state = lstm_zero_state(p.hidden_size)
    order = range(len(seq) - 1, -1, -1) if reverse else range(len(seq))
    outs = np.empty((len(seq), p.hidden_size))
    steps = []
    for t in order:
        h, state, cache = lstm_step_cached(seq[t], state, p, rec_mask=mask)
        outs[t] = h
        steps.append(cache)
    return outs, LstmRunCache(steps, outs, mask)


def _run_lstm_backward(
    grad_out: np.ndarray, run: LstmRunCache, p: LstmParams, grads: LstmParams, reverse: bool
) -> np.ndarray:
    """BPTT over one scan; returns the gradient wrt the input sequence.

    The steps yield the pre-activation gradients dz one by one; the weight and
    input gradients are then one GEMM each over the stacked rows (scan order).
    """
    n = len(run.steps)
    dz = np.empty((n, 4 * p.hidden_size))
    order = range(n - 1, -1, -1) if reverse else range(n)
    dh = np.zeros(p.hidden_size)
    dc = np.zeros(p.hidden_size)
    # run.steps was appended in scan order; walk it backwards
    for i in reversed(range(n)):
        dz[i], dh, dc = lstm_step_backward(grad_out[order[i]] + dh, dc, run.steps[i], p, grads)
    grads.w_x += dz.T @ np.array([s.x for s in run.steps])
    grads.w_h += dz.T @ np.array([s.h_used for s in run.steps])
    grads.b += dz.sum(axis=0)
    grad_seq = dz @ p.w_x
    return grad_seq[::-1] if reverse else grad_seq


def _conv_stack(image: np.ndarray, params: ModelParams, config: ModelConfig):
    x = image[None, :, :]
    blocks = []
    for blk_params, blk_cfg in zip(params.conv, config.conv_blocks):
        pool = tuple(blk_cfg[2])
        z = conv2d(x, blk_params.w, blk_params.b)
        n = channel_norm(z, blk_params.gain, blk_params.shift)
        r = np.maximum(n, 0.0)
        p, argmax = maxpool2d(r, pool)
        blocks.append(ConvBlockCache(x, z, n, argmax, r.shape))
        x = p
    # (C, 1, T) -> (T, C)
    return x[:, 0, :].T, blocks


def visual_encode_cached(image: np.ndarray, params: ModelParams, config: ModelConfig,
                         rng=None):
    """Image -> feature sequence (T, encoded_size), keeping backward caches.

    ``rng`` enables variational recurrent dropout (training only).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] != config.input_height or image.shape[1] < 1:
        raise UsageError(
            f"image shape {image.shape} does not match input_height={config.input_height}"
        )
    columns, blocks = _conv_stack(image, params, config)
    seq = columns
    runs = []
    for bi in params.vis_rnn:
        out_f, run_f = _run_lstm(seq, bi.fwd, rng, config.dropout_rate, reverse=False)
        out_b, run_b = _run_lstm(seq, bi.bwd, rng, config.dropout_rate, reverse=True)
        runs.append((run_f, run_b))
        seq = np.concatenate([out_f, out_b], axis=1)
    feats = affine_forward(seq, params.vis_proj.w, params.vis_proj.b)
    return feats, VisualCache(blocks, columns, runs, seq)


def visual_encode(image, params, config) -> np.ndarray:
    """Inference-side encoder: no dropout, no caches."""
    feats, _ = visual_encode_cached(image, params, config, rng=None)
    return feats


def _visual_backward(grad_feats: np.ndarray, cache: VisualCache,
                     params: ModelParams, config: ModelConfig, grads: ModelParams):
    hs = config.hidden_size
    grad_seq, gw, gb = affine_backward(grad_feats, cache.rnn_out, params.vis_proj.w)
    grads.vis_proj.w += gw
    grads.vis_proj.b += gb
    for i in reversed(range(len(params.vis_rnn))):
        run_f, run_b = cache.runs[i]
        bi = params.vis_rnn[i]
        d_in = _run_lstm_backward(grad_seq[:, :hs], run_f, bi.fwd,
                                  grads.vis_rnn[i].fwd, reverse=False)
        d_in += _run_lstm_backward(grad_seq[:, hs:], run_b, bi.bwd,
                                   grads.vis_rnn[i].bwd, reverse=True)
        grad_seq = d_in
    # sequence -> (C, 1, T) map
    grad_map = grad_seq.T[:, None, :]
    for i in reversed(range(len(params.conv))):
        blk_cache, blk_params = cache.blocks[i], params.conv[i]
        pool = tuple(config.conv_blocks[i][2])
        d_relu = maxpool2d_backward(grad_map, blk_cache.argmax,
                                    blk_cache.pre_pool_shape, pool)
        d_norm = d_relu * (blk_cache.post_norm > 0.0)
        d_conv, d_gain, d_shift = channel_norm_backward(d_norm, blk_cache.pre_norm,
                                                        blk_params.gain)
        grad_map, d_w, d_b = conv2d_backward(d_conv, blk_cache.x_in, blk_params.w)
        grads.conv[i].w += d_w
        grads.conv[i].b += d_b
        grads.conv[i].gain += d_gain
        grads.conv[i].shift += d_shift


# --- linguistic context encoder --------------------------------------------------


@dataclass
class LinguisticCache:
    ids: tuple
    embedded: np.ndarray
    runs: list  # [LstmRunCache]


def _check_label_ids(labels, vocab_size: int) -> tuple:
    labels = tuple(int(i) for i in labels)
    for i in labels:
        if not 1 <= i <= vocab_size:
            raise UsageError(f"label id {i} outside [1, {vocab_size}] (blank not allowed)")
    return labels


def linguistic_encode_cached(labels, params: ModelParams, config: ModelConfig, rng=None):
    """Label history -> context rows (U+1, encoded_size); row 0 is the start
    context produced by feeding the blank token."""
    labels = _check_label_ids(labels, config.vocab_size)
    ids = (0,) + labels
    embedded = params.embed[list(ids)]
    seq = embedded
    runs = []
    for p in params.lm_rnn:
        seq, run = _run_lstm(seq, p, rng, config.dropout_rate, reverse=False)
        runs.append(run)
    ctx = affine_forward(seq, params.lm_proj.w, params.lm_proj.b)
    return ctx, LinguisticCache(ids, embedded, runs)


def linguistic_encode(labels, params, config) -> np.ndarray:
    ctx, _ = linguistic_encode_cached(labels, params, config, rng=None)
    return ctx


def _linguistic_backward(grad_ctx: np.ndarray, cache: LinguisticCache,
                         params: ModelParams, config: ModelConfig, grads: ModelParams):
    grad_seq, gw, gb = affine_backward(grad_ctx, cache.runs[-1].outs, params.lm_proj.w)
    grads.lm_proj.w += gw
    grads.lm_proj.b += gb
    for i in reversed(range(len(params.lm_rnn))):
        grad_seq = _run_lstm_backward(grad_seq, cache.runs[i], params.lm_rnn[i],
                                      grads.lm_rnn[i], reverse=False)
    for row, token in enumerate(cache.ids):
        grads.embed[token] += grad_seq[row]


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


def joint(f_t: np.ndarray, g_u: np.ndarray, params: ModelParams) -> np.ndarray:
    """log Pr(. | f_t, g_u) over the extended label set."""
    if f_t.shape != g_u.shape or f_t.shape != params.joint_bias.shape:
        raise UsageError(
            f"joint expects two vectors of size {params.joint_bias.shape[0]}, "
            f"got {f_t.shape} and {g_u.shape}"
        )
    return log_softmax(params.joint_w @ np.tanh(f_t + g_u + params.joint_bias))


@dataclass
class ForwardCache:
    visual: VisualCache
    linguistic: LinguisticCache
    feats: np.ndarray  # (T, encoded)
    ctx: np.ndarray  # (U+1, encoded)
    tanh_joint: np.ndarray  # (T, U+1, encoded)
    lattice: np.ndarray  # (T, U+1, K+1) log-probs


def forward_lattice(image, labels, params: ModelParams, config: ModelConfig, rng=None):
    """Full forward pass producing the normalized (T, U+1, K+1) lattice."""
    feats, vis_cache = visual_encode_cached(image, params, config, rng=rng)
    ctx, lm_cache = linguistic_encode_cached(labels, params, config, rng=rng)
    v = np.tanh(feats[:, None, :] + ctx[None, :, :] + params.joint_bias)
    logits = v @ params.joint_w.T
    lattice = log_softmax(logits)
    return lattice, ForwardCache(vis_cache, lm_cache, feats, ctx, v, lattice)


def backward_pass(grad_lattice: np.ndarray, cache: ForwardCache,
                  params: ModelParams, config: ModelConfig) -> ModelParams:
    """Parameter gradients from the loss gradient at the log-probability level.

    Chains through the per-node softmax first, then splits the joint
    gradient into its visual (sum over u) and linguistic (sum over t) parts.
    """
    if grad_lattice.shape != cache.lattice.shape:
        raise UsageError(
            f"gradient shape {grad_lattice.shape} does not match the cached "
            f"lattice {cache.lattice.shape}"
        )
    if cache.tanh_joint.shape[2] != params.joint_w.shape[1]:
        raise UsageError("cache does not belong to these parameters")
    grads = zero_grads_shell(params)
    d_logits = log_softmax_backward(grad_lattice, cache.lattice)
    # the joint as GEMMs over the T*(U+1) lattice nodes
    t_total, rows, enc = cache.tanh_joint.shape
    d2 = d_logits.reshape(t_total * rows, -1)
    v = cache.tanh_joint.reshape(t_total * rows, enc)
    grads.joint_w += d2.T @ v
    ds = d2 @ params.joint_w
    ds *= 1.0 - v * v
    ds = ds.reshape(t_total, rows, enc)
    grads.joint_bias += ds.sum(axis=(0, 1))
    _visual_backward(ds.sum(axis=1), cache.visual, params, config, grads)
    _linguistic_backward(ds.sum(axis=0), cache.linguistic, params, config, grads)
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
    """Returns (config, vocab, params); any malformed or inconsistent content
    is a ConfigError."""
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
        vocab = Vocab(tuple(header["charset"]))
        tensors = [(e["name"], tuple(e["shape"])) for e in header["tensors"]]
    except (ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed header: {exc}") from None
    if vocab.size != config.vocab_size:
        raise ConfigError(
            f"{path}: charset has {vocab.size} symbols, config says {config.vocab_size}"
        )
    params = init_params(config, seed=0)
    expected = [(n, a.shape) for n, a in named_arrays(params)]
    if tensors != expected:
        got, want = next(((t, e) for t, e in zip(tensors, expected) if t != e),
                         (f"{len(tensors)} tensors", len(expected)))
        raise ConfigError(f"{path}: header tensors differ from the model's: {got} instead of {want}")
    payload = len(blob) - 16 - header_len
    if payload != params.flat.size * 8:
        raise ConfigError(
            f"{path}: payload is {payload} bytes, the model needs {params.flat.size * 8}"
        )
    params.flat[...] = np.frombuffer(blob, dtype="<f8", offset=16 + header_len)
    return config, vocab, params
