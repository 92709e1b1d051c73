"""Model assembly checks: config validation, seeded init, shape laws,
incremental-vs-batch linguistic equivalence, whole-network finite-difference
gradients, and the checkpoint container."""

import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from linerec import model as md
from linerec.cli import default_model_config, load_run_config
from linerec.errors import ConfigError, UsageError
from linerec.lattice import (BLANK, NEG_INF, Vocab, check_label_ids, logit_grad,
                             loss_and_logit_grad, rnnt_alphabeta, rnnt_grad)
from linerec.oracles import fd_grad, rel_err, rnnt_loss_brute, tiny_model_config


def full_config(**overrides):
    base = dict(
        conv_blocks=[(8, 3, (2, 2)), (16, 3, (2, 2)), (32, 3, (8, 2))],
        recurrent_layers_visual=2,
        recurrent_layers_linguistic=1,
        hidden_size=16,
        embed_size=8,
        encoded_size=16,
        vocab_size=5,
        input_height=32,
    )
    base.update(overrides)
    return md.ModelConfig(**base)


# --- config -----------------------------------------------------------------


def test_config_rejects_stack_that_leaves_height_above_one():
    with pytest.raises(ConfigError):
        tiny_model_config(conv_blocks=[(2, 3, (2, 2))]).validate()


def test_config_rejects_even_kernel():
    with pytest.raises(ConfigError):
        tiny_model_config(conv_blocks=[(2, 4, (4, 2))]).validate()


def test_config_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        tiny_model_config(vocab_size=0).validate()
    with pytest.raises(ConfigError):
        tiny_model_config(dropout_rate=1.0).validate()
    # the LSTM has neither recurrent dropout nor gate layer norm
    with pytest.raises(ConfigError):
        tiny_model_config(dropout_rate=0.3).validate()
    with pytest.raises(ConfigError):
        tiny_model_config(layer_norm=True).validate()


def test_frames_follow_ceil_of_width_over_downsample():
    cfg = full_config()
    for w in range(1, 200):
        assert cfg.frames_for_width(w) == math.ceil(w / 8)


def test_config_dict_roundtrip():
    cfg = tiny_model_config(recurrent_layers_visual=2)
    assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_rejects_unknown_keys():
    d = tiny_model_config().to_dict()
    d["hidden_sizes"] = 7
    with pytest.raises(ConfigError):
        md.ModelConfig.from_dict(d)


# --- initialization ----------------------------------------------------------


def test_init_is_deterministic_per_seed():
    cfg = tiny_model_config()
    a = md.init_params(cfg, seed=11).flat
    b = md.init_params(cfg, seed=11).flat
    c = md.init_params(cfg, seed=12).flat
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- the flat parameter buffer -----------------------------------------------------


def test_named_tensors_tile_the_flat_buffer_in_order():
    params = md.init_params(tiny_model_config(recurrent_layers_visual=2), seed=11)
    for p in (params, md.zero_grads_shell(params), md.clone_params(params)):
        base = p.flat.__array_interface__["data"][0]
        assert p.flat.ndim == 1 and p.flat.flags.c_contiguous
        offset = 0
        for name, a in md.named_arrays(p):
            assert np.shares_memory(a, p.flat), name
            assert a.flags.c_contiguous, name
            assert a.__array_interface__["data"][0] == base + 8 * offset, name
            offset += a.size
        assert offset == p.flat.size


@pytest.mark.parametrize("cfg", [tiny_model_config(), tiny_model_config(recurrent_layers_visual=2),
                                 full_config(recurrent_layers_linguistic=2)])
def test_tensor_shapes_are_those_of_the_initialized_model(cfg):
    params = md.init_params(cfg, seed=1)
    assert md.tensor_shapes(cfg) == [(n, a.shape) for n, a in md.named_arrays(params)]


def reference_init(cfg, seed):
    """{name: tensor} as init_params built them while the layout held a conv
    bias per block: the tree built tensor by tensor, drawing in tree order."""
    rng = np.random.default_rng(seed)
    hs, enc, classes = cfg.hidden_size, cfg.encoded_size, cfg.vocab_size + 1

    def glorot(shape):
        if len(shape) == 4:
            fan_in, fan_out = shape[1] * shape[2] * shape[3], shape[0] * shape[2] * shape[3]
        else:
            fan_out, fan_in = shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    def lstm(prefix, n):
        w_x, w_h, b = glorot((4 * hs, n)), glorot((4 * hs, hs)), np.zeros(4 * hs)
        b[hs : 2 * hs] = 1.0
        return {f"{prefix}.w_x": w_x, f"{prefix}.w_h": w_h, f"{prefix}.b": b}

    ref, n_in = {}, 1
    for i, (channels, kernel, _) in enumerate(cfg.conv_blocks):
        ref[f"conv{i}.w"] = glorot((channels, n_in, kernel, kernel))
        ref[f"conv{i}.b"] = np.zeros(channels)
        ref[f"conv{i}.gain"], ref[f"conv{i}.shift"] = np.ones(channels), np.zeros(channels)
        n_in = channels
    for i in range(cfg.recurrent_layers_visual):
        ref.update(lstm(f"vis{i}.fwd", n_in))
        ref.update(lstm(f"vis{i}.bwd", n_in))
        n_in = 2 * hs
    ref["vis_proj.w"], ref["vis_proj.b"] = glorot((enc, 2 * hs)), np.zeros(enc)
    ref["embed"] = rng.uniform(-0.1, 0.1, size=(classes, cfg.embed_size))
    n_in = cfg.embed_size
    for i in range(cfg.recurrent_layers_linguistic):
        ref.update(lstm(f"lm{i}", n_in))
        n_in = hs
    ref["lm_proj.w"], ref["lm_proj.b"] = glorot((enc, hs)), np.zeros(enc)
    ref["joint.b"], ref["joint.w"] = np.zeros(enc), glorot((classes, enc))
    return ref


@pytest.mark.parametrize("cfg", [tiny_model_config(), default_model_config(),
                                 full_config(recurrent_layers_linguistic=2)],
                         ids=["tiny", "s1", "two_layers"])
def test_init_is_bitwise_the_reference_construction_without_the_conv_biases(cfg):
    biases = {f"conv{i}.b" for i in range(len(cfg.conv_blocks))}
    for seed in (0, 1, 7):
        ref = reference_init(cfg, seed)
        got = dict(md.named_arrays(md.init_params(cfg, seed)))
        for name, a in got.items():
            assert a.shape == ref[name].shape and np.array_equal(a, ref[name]), name
        assert set(ref) - set(got) == biases
        # version-1 checkpoints list the reference's tensors in its order
        assert [n for n, _ in md._v1_tensors(md.tensor_shapes(cfg))] == list(ref)


def test_shells_and_clones_own_independent_buffers():
    params = md.init_params(tiny_model_config(), seed=11)
    before = params.flat.copy()
    shell, clone = md.zero_grads_shell(params), md.clone_params(params)
    assert not np.any(shell.flat)
    assert np.array_equal(clone.flat, before)
    for a, b in [(params, shell), (params, clone), (shell, clone)]:
        assert not np.shares_memory(a.flat, b.flat)
    shell.embed += 1.0
    clone.joint_w *= 2.0
    assert np.array_equal(params.flat, before)
    assert np.count_nonzero(shell.flat) == shell.embed.size
    assert not np.array_equal(clone.flat, before)


def test_init_respects_documented_ranges():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=4)
    hs = cfg.hidden_size
    assert np.all(np.abs(params.embed) <= 0.1)
    # first conv block: fan_in = 1*3*3, fan_out = 2*3*3
    limit = np.sqrt(6.0 / (9 + 18))
    assert np.all(np.abs(params.conv[0].w) <= limit)
    assert np.all(params.conv[0].gain == 1.0) and np.all(params.conv[0].shift == 0.0)
    for layers in params.vis_rnn:
        for p in layers:
            assert np.all(p.b[hs : 2 * hs] == 1.0)
            assert np.all(p.b[:hs] == 0.0) and np.all(p.b[2 * hs :] == 0.0)
    assert np.all(params.lm_rnn[0].b[hs : 2 * hs] == 1.0)
    assert np.all(params.joint_bias == 0.0)
    w = params.joint_w
    limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
    assert np.all(np.abs(w) <= limit)


# --- encoders ----------------------------------------------------------------


@pytest.mark.parametrize("width", [1, 31, 64, 65])
def test_visual_encode_shape_law(width):
    cfg = full_config()
    params = md.init_params(cfg, seed=1)
    image = np.random.default_rng(width).random((32, width))
    feats = md.visual_encode(image, params, cfg)
    assert feats.shape == (cfg.frames_for_width(width), cfg.encoded_size)


@pytest.mark.parametrize("width", [1, 8, 31, 901])
def test_inference_forward_equals_the_cached_forward(width):
    cfg = full_config()
    params = md.init_params(cfg, seed=3)
    image = np.random.default_rng(width).random((32, width))
    feats, cache = md.visual_encode_cached(image, params, cfg)
    assert len(cache.blocks) == len(cfg.conv_blocks)
    assert np.array_equal(md.visual_encode(image, params, cfg), feats)


def test_visual_encode_memory_stays_within_four_block0_conv_outputs():
    """Each conv block makes its full-size map once: on a 1,160-pixel s1 line
    the peak is the block-1 im2col GEMM and its neighbours, not the norm's or
    the pool's temporaries."""
    cfg = default_model_config()
    params = md.init_params(cfg, seed=0)
    image = np.random.default_rng(5).random((cfg.input_height, 1160))
    md.visual_encode(image, params, cfg)
    tracemalloc.start()
    try:
        md.visual_encode(image, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * cfg.conv_blocks[0][0] * image.size * 8


def test_visual_encode_rejects_wrong_height():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=1)
    with pytest.raises(UsageError):
        md.visual_encode(np.zeros((5, 8)), params, cfg)
    with pytest.raises(UsageError):
        md.visual_encode(np.zeros((4, 0)), params, cfg)


def test_visual_encode_is_deterministic_without_rng():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=2)
    image = np.random.default_rng(0).random((4, 7))
    assert np.array_equal(md.visual_encode(image, params, cfg),
                          md.visual_encode(image, params, cfg))


def test_linguistic_encode_shapes():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=3)
    assert md.linguistic_encode_cached((), params, cfg)[0].shape == (1, cfg.encoded_size)
    assert md.linguistic_encode_cached((1, 2, 3), params, cfg)[0].shape == (4, cfg.encoded_size)


def test_linguistic_encode_rejects_blank_and_out_of_range():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=3)
    with pytest.raises(UsageError):
        md.linguistic_encode_cached((1, 0, 2), params, cfg)
    with pytest.raises(UsageError):
        md.linguistic_encode_cached((4,), params, cfg)


def test_linguistic_step_matches_batch_encoder():
    cfg = tiny_model_config(recurrent_layers_linguistic=2)
    params = md.init_params(cfg, seed=5)
    labels = (2, 1, 3, 3)
    full = md.linguistic_encode_cached(labels, params, cfg)[0]
    states = md.linguistic_start_states(cfg)
    rows = []
    for token in (0,) + labels:
        row, states = md.linguistic_step(token, states, params, cfg)
        rows.append(row)
    assert np.max(np.abs(np.stack(rows) - full)) < 1e-12


def test_linguistic_step_does_not_mutate_states():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=5)
    states = md.linguistic_start_states(cfg)
    row1, next_states = md.linguistic_step(2, states, params, cfg)
    row2, _ = md.linguistic_step(2, states, params, cfg)
    assert np.array_equal(row1, row2)
    assert states.shape == (1, 2, cfg.hidden_size) and np.all(states == 0.0)
    assert not np.array_equal(next_states[0][0], states[0][0])


# --- joint --------------------------------------------------------------------


def test_joint_returns_log_distribution():
    """joint returns raw logits; their log_softmax is the distribution."""
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=6)
    rng = np.random.default_rng(1)
    out = md.log_softmax(md.joint(rng.normal(size=4), rng.normal(size=4), params))
    assert out.shape == (cfg.vocab_size + 1,)
    assert abs(np.log(np.sum(np.exp(out)))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 7])
def test_joint_block_rows_match_single_frame_calls(n):
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=6)
    rng = np.random.default_rng(n)
    frames, context = rng.normal(size=(n, 4)), rng.normal(size=4)
    block = md.log_softmax(md.joint(frames, context, params))
    assert block.shape == (n, cfg.vocab_size + 1)
    for row, f in zip(block, frames):
        assert np.max(np.abs(row - md.log_softmax(md.joint(f, context, params)))) <= 1e-12
        assert abs(np.log(np.sum(np.exp(row)))) < 1e-12


def test_joint_block_is_a_lattice_column():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=7)
    image = np.random.default_rng(3).random((4, 9))
    labels = (1, 3)
    (blank, label), _ = md.forward_lattice(image, labels, params, cfg)
    feats = md.visual_encode(image, params, cfg)
    ctx = md.linguistic_encode_cached(labels, params, cfg)[0]
    for u in range(3):
        column = md.log_softmax(md.joint(feats, ctx[u], params))
        assert np.max(np.abs(column[:, BLANK] - blank[:, u])) <= 1e-12
        if u < len(labels):
            assert np.max(np.abs(column[:, labels[u]] - label[:, u])) <= 1e-12


def test_joint_logits_are_the_training_blocks_logits():
    """joint makes _joint_block's logits, one context row at a time."""
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=7)
    rng = np.random.default_rng(4)
    feats, ctx = rng.normal(size=(5, 4)), rng.normal(size=(3, 4))
    block = md._joint_block(feats, ctx, params)[1]
    for u in range(3):
        assert np.max(np.abs(md.joint(feats, ctx[u], params) - block[:, u])) <= 1e-12
        assert np.max(np.abs(md.joint(feats[2], ctx[u], params) - block[2, u])) <= 1e-12


def test_checkpoint_charset_with_a_line_break_is_a_config_error(tmp_path):
    """No charset file can hold such a symbol, so a checkpoint may not either."""
    cfg = tiny_model_config()
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(path, cfg, Vocab(("a", "q", "c")), md.init_params(cfg, seed=1))
    blob = path.read_bytes()
    (size,) = struct.unpack("<I", blob[12:16])
    header = blob[16 : 16 + size].replace(b'"q"', b'"\\u001c"')
    path.write_bytes(blob[:12] + struct.pack("<I", len(header)) + header + blob[16 + size :])
    with pytest.raises(ConfigError, match=r"charset symbol 2: '\\x1c' is a line break$"):
        md.load_checkpoint(path)


def test_joint_rejects_size_mismatch():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=6)
    for f, g in ((np.zeros(3), np.zeros(4)), (np.zeros((2, 3)), np.zeros(4)),
                 (np.zeros((2, 4)), np.zeros(3)), (np.zeros((2, 4)), np.zeros((2, 4))),
                 (np.zeros((2, 2, 4)), np.zeros(4))):
        with pytest.raises(UsageError):
            md.joint(f, g, params)


# --- full forward -------------------------------------------------------------


def test_forward_lattice_shape_and_normalization():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=7)
    image = np.random.default_rng(2).random((4, 6))
    (blank, label), cache = md.forward_lattice(image, (1, 2), params, cfg)
    assert blank.shape == (3, 3) and label.shape == (3, 2)
    # the cache keeps (T, U+1) normalizers and the joint's (T, U+1, E) tanh, and no
    # (T, U+1, K+1) array
    assert set(vars(cache)) == {"visual", "linguistic", "joint_tanh", "peak", "log_norm"}
    assert cache.joint_tanh.shape == (3, 3, cfg.encoded_size)
    feats = md.visual_encode_cached(image, params, cfg)[0]
    ctx = md.linguistic_encode_cached((1, 2), params, cfg)[0]
    assert np.array_equal(cache.joint_tanh, md._joint_block(feats, ctx, params)[0])
    logits = md._joint_block(feats, ctx, params)[1]
    log_probs = logits - cache.peak[..., None] - cache.log_norm[..., None]
    mass = np.log(np.sum(np.exp(log_probs), axis=-1))
    assert np.max(np.abs(mass)) < 1e-12
    assert np.max(np.abs(blank - log_probs[:, :, BLANK])) < 1e-12


def test_model_loss_matches_path_enumeration():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=8)
    image = np.random.default_rng(3).random((4, 6))
    labels = (1, 2)
    (blank, label), _ = md.forward_lattice(image, labels, params, cfg)
    log_prob = rnnt_alphabeta(blank, label).log_prob
    lattice, _ = unblocked_joint(image, labels, params, cfg)
    assert abs(log_prob - rnnt_loss_brute(lattice, labels)) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_joint_weights_end_the_training_forward(bad):
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=8)
    params.joint_w[2, 1] = bad
    image = np.random.default_rng(3).random((4, 6))
    with pytest.raises(UsageError, match="^log_softmax requires finite logits$"):
        md.forward_lattice(image, (1, 2), params, cfg)


# --- backward ------------------------------------------------------------------


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=9)
    image = np.random.default_rng(4).random((4, 6))
    _, cache = md.forward_lattice(image, (1, 2), params, cfg)
    grads = md.backward_pass((np.zeros((3, 3)), np.zeros((3, 2))), cache, params, cfg,
                             md.zero_grads_shell(params))
    assert np.all(grads.flat == 0.0)


def test_backward_rejects_mismatched_gradient_shape():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=9)
    image = np.random.default_rng(4).random((4, 6))
    _, cache = md.forward_lattice(image, (1,), params, cfg)
    with pytest.raises(UsageError):
        md.backward_pass(np.zeros((1, 1, 4)), cache, params, cfg, md.zero_grads_shell(params))


def unblocked_joint(image, labels, params, cfg):
    """The whole (T, U+1, K+1) lattice and (T, U+1, E) tanh input of the
    joint, made in one piece: (lattice, tanh_joint)."""
    feats = md.visual_encode(image, params, cfg)
    ctx = md.linguistic_encode_cached(labels, params, cfg)[0]
    v = np.tanh(feats[:, None, :] + ctx[None, :, :] + params.joint_bias)
    return md.log_softmax(v @ params.joint_w.T), v


def transitions(lattice, labels):
    """The (blank (T, U+1), label (T, U)) tables of a normalized (T, U+1, K+1)
    lattice, as rnnt_alphabeta takes them."""
    labels = check_label_ids(labels, lattice.shape[2] - 1)
    return lattice[:, :, BLANK], lattice[:, np.arange(len(labels)), list(labels)]


def dense_rnnt_grad(lattice, labels, tables):
    """The gradient at every lattice entry, (T, U+1, K+1), from the posteriors
    directly: the reference for rnnt_grad's two tables."""
    t_total, rows = lattice.shape[0], lattice.shape[1]
    beta_next = np.full((t_total, rows), NEG_INF)
    beta_next[:-1, :] = tables.beta[1:, :]
    beta_next[t_total - 1, rows - 1] = 0.0
    grad = np.zeros_like(lattice)
    grad[:, :, BLANK] = -np.exp(tables.alpha + lattice[:, :, BLANK] + beta_next - tables.log_prob)
    if labels:
        label = lattice[:, np.arange(len(labels)), list(labels)]
        gamma_label = np.exp(tables.alpha[:, :-1] + label + tables.beta[:, 1:] - tables.log_prob)
        grad[:, np.arange(len(labels)), list(labels)] = -gamma_label
    return grad


def dense_grad(grad_blank, grad_label, labels, num_classes):
    """rnnt_grad's tables scattered into a zero (T, U+1, num_classes) gradient."""
    t_total, rows = grad_blank.shape
    grad = np.zeros((t_total, rows, num_classes))
    grad[:, :, BLANK] = grad_blank
    grad[:, np.arange(rows - 1), list(labels)] = grad_label
    return grad


def dense_logit_grad(lattice, grad_tables, labels):
    """The dense chain, the reference of the fused kernels: the two tables
    scattered into a dense gradient, then log_softmax_backward over the whole
    lattice."""
    return md.log_softmax_backward(dense_grad(*grad_tables, labels, lattice.shape[2]), lattice)


def joint_backward(d_logits, v, cache, params, cfg, blocks):
    """The parameter gradients from a (T, U+1, K+1) logit gradient and the
    joint's tanh input ``v``: the two joint GEMMs per slice of frames in
    ``blocks``, then the encoders' backward."""
    grads = md.zero_grads_shell(params)
    t_total, rows, enc = v.shape
    grad_feats, grad_ctx = np.empty((t_total, enc)), np.zeros((rows, enc))
    for block in blocks:
        d2 = d_logits[block].reshape(-1, d_logits.shape[2])
        v2 = v[block].reshape(-1, enc)
        grads.joint_w += d2.T @ v2
        ds = (d2 @ params.joint_w) * (1.0 - v2 * v2)
        ds = ds.reshape(-1, rows, enc)
        grads.joint_bias += ds.sum(axis=(0, 1))
        grad_feats[block] = ds.sum(axis=1)
        grad_ctx += ds.sum(axis=0)
    md._visual_backward(grad_feats, cache.visual, params, cfg, grads)
    md._linguistic_backward(grad_ctx, cache.linguistic, params, cfg, grads)
    return grads


def test_joint_gemm_backward_matches_einsum_reference(monkeypatch):
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=10)
    image = np.random.default_rng(5).random((4, 14))
    labels = (1, 2, 3, 1)
    (blank, label), cache = md.forward_lattice(image, labels, params, cfg)
    grad_tables = rnnt_grad(rnnt_alphabeta(blank, label))
    seen = {}
    for name in ("_visual_backward", "_linguistic_backward"):
        monkeypatch.setattr(md, name, lambda g, *rest, name=name: seen.setdefault(name, g))
    grads = md.backward_pass(grad_tables, cache, params, cfg, md.zero_grads_shell(params))

    lattice, v = unblocked_joint(image, labels, params, cfg)
    d_logits = dense_logit_grad(lattice, grad_tables, labels)
    ds = np.einsum("tuk,ke->tue", d_logits, params.joint_w) * (1.0 - v**2)
    assert rel_err(grads.joint_w, np.einsum("tuk,tue->ke", d_logits, v)) <= 1e-12
    assert rel_err(grads.joint_bias, ds.sum(axis=(0, 1))) <= 1e-12
    assert rel_err(seen["_visual_backward"], ds.sum(axis=1)) <= 1e-12
    assert rel_err(seen["_linguistic_backward"], ds.sum(axis=0)) <= 1e-12


def assert_fused_loss_is_the_dense_chain(image, labels, params, cfg):
    """The blocked fused forward and backward against the whole lattice: the
    transition tables, the loss and the logit gradient bitwise; every
    parameter gradient bitwise against the dense chain run through the same
    blocks of frames, and within 1e-12 of one GEMM over all frames. Returns
    the number of blocks."""
    (blank, label), cache = md.forward_lattice(image, labels, params, cfg)
    lattice, v = unblocked_joint(image, labels, params, cfg)
    assert np.array_equal(blank, lattice[:, :, BLANK])
    assert np.array_equal(label, lattice[:, np.arange(len(labels)), list(labels)])

    tables = rnnt_alphabeta(blank, label)
    ref_tables = rnnt_alphabeta(*transitions(lattice, labels))
    assert tables.log_prob == ref_tables.log_prob
    grad_tables = rnnt_grad(tables)
    dense = dense_rnnt_grad(lattice, labels, ref_tables)
    used = np.zeros(dense.shape, dtype=bool)
    used[:, :, BLANK] = True
    used[:, np.arange(len(labels)), list(labels)] = True
    assert np.array_equal(grad_tables[0], dense[:, :, BLANK])
    assert np.array_equal(grad_tables[1], dense[:, np.arange(len(labels)), list(labels)])
    assert np.all(dense[~used] == 0.0)

    d_logits = dense_logit_grad(lattice, grad_tables, labels)
    feats = md.visual_encode_cached(image, params, cfg)[0]
    ctx = md.linguistic_encode_cached(labels, params, cfg)[0]
    loss, fused = loss_and_logit_grad(md._joint_block(feats, ctx, params)[1], labels)
    assert loss == -ref_tables.log_prob and np.array_equal(fused, d_logits)

    grads = md.backward_pass(grad_tables, cache, params, cfg, md.zero_grads_shell(params))
    blocks = md._frame_blocks(blank.shape[0], lattice.shape[1] * lattice.shape[2])
    ref = joint_backward(d_logits, v, cache, params, cfg, blocks)
    one_gemm = joint_backward(d_logits, v, cache, params, cfg, [slice(None)])
    scale = np.max(np.abs(one_gemm.flat))
    for (name, got), want, close in zip(md.named_arrays(grads), md.named_arrays(ref),
                                        md.named_arrays(one_gemm)):
        assert np.array_equal(got, want[1]), name
        assert np.max(np.abs(got - close[1])) <= 1e-12 * scale, name
    return len(blocks)


# (image width, labels, vocab size, _BLOCK_ELEMENTS, blocks); tiny T = ceil(width / 2)
BLOCKED_JOINT_CASES = {
    "one_frame": (2, (1, 2), 3, 2**15, 1),
    "below_one_block": (13, (2, 1, 3), 3, 2**15, 1),
    "t_not_a_multiple_of_the_block": (13, (2, 1, 3), 3, 2 * 16, 4),
    "no_labels": (9, (), 3, 2 * 4, 3),
    "frame_exceeds_the_block": (11, (5, 40, 7), 40, 100, 6),
}


@pytest.mark.parametrize("case", sorted(BLOCKED_JOINT_CASES))
def test_blocked_joint_matches_the_unblocked_reference(monkeypatch, case):
    width, labels, vocab_size, block_elements, blocks = BLOCKED_JOINT_CASES[case]
    monkeypatch.setattr(md, "_BLOCK_ELEMENTS", block_elements)
    cfg = tiny_model_config(vocab_size=vocab_size)
    params = md.init_params(cfg, seed=31)
    image = np.random.default_rng(32).random((4, width))
    assert assert_fused_loss_is_the_dense_chain(image, labels, params, cfg) == blocks


def s1_config(**overrides):
    s1 = load_run_config(Path(__file__).resolve().parent.parent / "configs" / "s1.json").model
    return md.ModelConfig.from_dict({**s1.to_dict(), **overrides})


def test_fused_loss_is_the_dense_chain_on_a_long_line():
    """An s1 line of the benchmark's long-line length, K=80: 145 frames and 60
    labels over several blocks of frames."""
    cfg = s1_config(vocab_size=80)
    params = md.init_params(cfg, seed=3)
    rng = np.random.default_rng(43)
    image = rng.random((cfg.input_height, 1160))
    labels = tuple(int(x) for x in rng.integers(1, 81, size=60))
    assert assert_fused_loss_is_the_dense_chain(image, labels, params, cfg) > 1


def test_training_joint_memory_stays_far_below_the_lattice():
    """At T=145, U=60, K=1000 on s1 the lattice would be 67.5 MiB; a whole
    training step, the forward's retained memory included, stays below a
    quarter of it."""
    cfg = s1_config(vocab_size=1000)
    params = md.init_params(cfg, seed=0)
    grads = md.zero_grads_shell(params)
    rng = np.random.default_rng(41)
    image = rng.random((cfg.input_height, 1160))
    labels = tuple(int(x) for x in rng.integers(1, 1001, size=60))
    lattice_bytes = 145 * 61 * 1001 * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        (blank, label), cache = md.forward_lattice(image, labels, params, cfg)
        md.backward_pass(rnnt_grad(rnnt_alphabeta(blank, label)), cache, params, cfg, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blank.shape == (145, 61)
    assert peak - start < lattice_bytes / 4
    assert cache.joint_tanh is None  # released by the backward


def test_embedding_gradient_sums_repeated_label_ids():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=14)
    labels = (2, 1, 2, 2, 3)
    _, cache = md.linguistic_encode_cached(labels, params, cfg)
    grad_ctx = np.random.default_rng(15).normal(size=(len(labels) + 1, cfg.encoded_size))
    grads = md.zero_grads_shell(params)
    md._linguistic_backward(grad_ctx, cache, params, cfg, grads)

    ref = md.zero_grads_shell(params)
    grad_seq, _, _ = md.affine_backward(grad_ctx, cache.runs[-1].out, params.lm_proj.w)
    grad_seq = md._run_lstm_backward(grad_seq, cache.runs[0], params.lm_rnn, ref.lm_rnn)
    for row, token in enumerate((0,) + labels):
        ref.embed[token] += grad_seq[row]
    assert np.array_equal(grads.embed, ref.embed)
    assert np.count_nonzero(grads.embed.any(axis=1)) == 4  # blank and labels 1-3


@pytest.mark.parametrize("reverse", [False, True])
def test_hoisted_bptt_matches_per_step_accumulation(reverse):
    """One GEMM per direction for w_x, w_h, b and the input gradient equals
    summing outer products step by step. The backward direction is direction
    1 of a two-direction scan."""
    cfg = tiny_model_config()
    both = md.init_params(cfg, seed=12).vis_rnn[0]
    layers, d = (both, 1) if reverse else (both[:1], 0)
    p, hs, n = layers[d], layers[d].hidden_size, 9
    rng = np.random.default_rng(13)
    seq = rng.normal(size=(n, p.w_x.shape[1]))
    grad_out = np.zeros((n, hs * len(layers)))  # no gradient reaches direction 0 if d = 1
    grad_out[:, d * hs :] = rng.normal(size=(n, hs))
    _, run = md._run_lstm(seq, layers)

    def shells():
        return md.zero_grads_shell(md.init_params(cfg, seed=12)).vis_rnn[0][: len(layers)]

    hoisted = shells()
    grad_seq = md._run_lstm_backward(grad_out, run, layers, hoisted)

    ref, ref_seq = shells()[d], np.zeros_like(seq)
    factors = md.lstm_backward_factors(run.gates, run.tanh_c, run.c[:-1])
    dh, dc, dc_step = np.zeros((3, len(layers), hs))
    for s in reversed(range(n)):
        t = n - 1 - s if d else s  # the sequence position of direction d at step s
        dz = np.empty((len(layers), 4 * hs))
        grad_h = np.stack([grad_out[n - 1 - s if k else s, k * hs : (k + 1) * hs]
                           for k in range(len(layers))])
        md.lstm_step_backward(grad_h, dh, dc, dc_step, factors[s], [q.w_h.T for q in layers],
                              dz, dz.reshape(len(layers), 4, hs).swapaxes(0, 1))
        ref.w_x += np.outer(dz[d], run.inputs[t])
        ref.w_h += np.outer(dz[d], run.h[s, d])
        ref.b += dz[d]
        ref_seq[t] = p.w_x.T @ dz[d]
    for name in ("w_x", "w_h", "b"):
        assert rel_err(getattr(hoisted[d], name), getattr(ref, name)) <= 1e-12, name
    assert rel_err(grad_seq, ref_seq) <= 1e-12


def test_backward_pass_adds_into_the_given_gradients():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=16)
    labels = (1, 2)

    def forward():
        return md.forward_lattice(np.random.default_rng(17).random((4, 6)), labels, params, cfg)

    (blank, label), cache = forward()
    tables = rnnt_grad(rnnt_alphabeta(blank, label))
    fresh = md.backward_pass(tables, cache, params, cfg, md.zero_grads_shell(params))
    given = md.zero_grads_shell(params)
    given.flat[...] = 1.0
    assert md.backward_pass(tables, forward()[1], params, cfg, given) is given
    assert np.array_equal(given.flat, 1.0 + fresh.flat)


def test_a_forward_cache_serves_one_backward_pass():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=16)
    (blank, label), cache = md.forward_lattice(np.random.default_rng(17).random((4, 6)),
                                               (1, 2), params, cfg)
    tables = rnnt_grad(rnnt_alphabeta(blank, label))
    grads = md.backward_pass(tables, cache, params, cfg, md.zero_grads_shell(params))
    before = grads.flat.copy()
    with pytest.raises(UsageError, match="^backward_pass has already consumed this forward cache$"):
        md.backward_pass(tables, cache, params, cfg, grads)
    assert np.array_equal(grads.flat, before)


def test_a_forward_cache_is_kept_when_the_parameters_do_not_fit_it():
    cfg, wide = tiny_model_config(), tiny_model_config(encoded_size=5)
    params, other = md.init_params(cfg, seed=18), md.init_params(wide, seed=18)
    (blank, label), cache = md.forward_lattice(np.random.default_rng(19).random((4, 6)),
                                               (1, 2), params, cfg)
    tables = rnnt_grad(rnnt_alphabeta(blank, label))
    with pytest.raises(UsageError, match="^cache does not belong to these parameters$"):
        md.backward_pass(tables, cache, other, wide, md.zero_grads_shell(other))
    assert cache.joint_tanh is not None
    md.backward_pass(tables, cache, params, cfg, md.zero_grads_shell(params))


def _backward_pass_recomputing_the_tanh(grad_tables, feats, cache, params, cfg, grads):
    """backward_pass as it was before the forward kept the joint's tanh: each
    block's tanh(f + g + b) and logits recomputed by _joint_block from the
    features ``feats``."""
    t_total, rows = cache.peak.shape
    classes, enc = params.joint_w.shape
    grad_blank, grad_label = grad_tables
    labels = np.array(cache.linguistic.ids[1:], dtype=np.intp)
    ctx = md.linguistic_encode_cached(labels, params, cfg)[0]
    grad_feats, grad_ctx = np.empty((t_total, enc)), np.zeros((rows, enc))
    for block in md._frame_blocks(t_total, rows * classes):
        v, logits = md._joint_block(feats[block], ctx, params)
        d_logits = logit_grad(logits, cache.peak[block], cache.log_norm[block],
                              grad_blank[block], grad_label[block], labels).reshape(-1, classes)
        v = v.reshape(-1, enc)
        grads.joint_w += d_logits.T @ v
        ds = d_logits @ params.joint_w
        ds *= 1.0 - v * v
        ds = ds.reshape(-1, rows, enc)
        grads.joint_bias += ds.sum(axis=(0, 1))
        grad_feats[block] = ds.sum(axis=1)
        grad_ctx += ds.sum(axis=0)
    md._visual_backward(grad_feats, cache.visual, params, cfg, grads)
    md._linguistic_backward(grad_ctx, cache.linguistic, params, cfg, grads)
    return grads


@pytest.mark.parametrize("k,width,glyphs", [(12, 97, 4), (80, 1160, 60)])
def test_backward_from_the_kept_tanh_is_bitwise_the_recomputed_one(k, width, glyphs):
    """An s1 line at K=12 and one of the long-line benchmark's length at K=80,
    over several blocks of frames."""
    cfg = s1_config(vocab_size=k)
    params = md.init_params(cfg, seed=k)
    rng = np.random.default_rng(width)
    image = rng.random((cfg.input_height, width))
    labels = tuple(int(x) for x in rng.integers(1, k + 1, size=glyphs))
    (blank, label), cache = md.forward_lattice(image, labels, params, cfg)
    grad_tables = rnnt_grad(rnnt_alphabeta(blank, label))
    feats = md.visual_encode_cached(image, params, cfg)[0]
    reference = _backward_pass_recomputing_the_tanh(grad_tables, feats, cache, params, cfg,
                                                    md.zero_grads_shell(params))
    grads = md.backward_pass(grad_tables, cache, params, cfg, md.zero_grads_shell(params))
    assert np.array_equal(grads.flat, reference.flat)


def model_gradient_error(image, labels, params, cfg):
    """rel_err of the whole-network parameter gradient against central
    differences."""

    def forward(flat):
        p = md.clone_params(params)
        p.flat[...] = flat
        return (*md.forward_lattice(image, labels, p, cfg), p)

    (blank, label), cache, p = forward(params.flat)
    grad_tables = rnnt_grad(rnnt_alphabeta(blank, label))
    analytic = md.backward_pass(grad_tables, cache, p, cfg, md.zero_grads_shell(p)).flat
    numeric = fd_grad(lambda v: -rnnt_alphabeta(*forward(v)[0]).log_prob, params.flat)
    return rel_err(analytic, numeric)


@pytest.mark.parametrize("seed", [3, 5])
def test_whole_network_gradient_matches_finite_differences(seed):
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=seed)
    image = np.random.default_rng(seed + 100).random((4, 6))
    labels = (1, 2)

    # the seeds above leave every relu input clear of the finite-difference
    # step, so the loss is smooth in the probed neighborhood
    _, cache = md.forward_lattice(image, labels, params, cfg)
    for blk, p in zip(cache.visual.blocks, params.conv):
        norm_out = p.gain[:, None, None] * blk.xhat + p.shift[:, None, None]
        assert np.min(np.abs(norm_out)) > 1e-4

    assert model_gradient_error(image, labels, params, cfg) < 1e-4


# --- checkpoint ------------------------------------------------------------------


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    cfg = tiny_model_config(recurrent_layers_visual=2)
    vocab = Vocab(("a", "b", "c"))
    params = md.init_params(cfg, seed=21)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, cfg, vocab, params)
    cfg2, vocab2, params2 = md.load_checkpoint(path)
    assert cfg2 == cfg
    assert vocab2 == vocab
    assert np.array_equal(params2.flat, params.flat)


def save_v1_checkpoint(path, config, vocab, params, bias=1e-10):
    """``params`` as a version-1 file: every conv block's bias, here all
    ``bias``, stored right after its weights."""
    stored = md._v1_tensors(md.tensor_shapes(config))
    named = dict(md.named_arrays(params))
    payload = np.concatenate([named[n].ravel() if n in named else np.full(s, bias)
                              for n, s in stored])
    header = json.dumps({"config": config.to_dict(), "charset": list(vocab.symbols),
                         "tensors": [{"name": n, "shape": list(s)} for n, s in stored]}).encode()
    path.write_bytes(md.CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header
                     + payload.astype("<f8").tobytes())


def _payload_tensors(blob: bytes) -> dict:
    """{name: tensor} as a checkpoint file stores them."""
    (size,) = struct.unpack("<I", blob[12:16])
    values = np.frombuffer(blob, dtype="<f8", offset=16 + size)
    out, offset = {}, 0
    for entry in json.loads(blob[16 : 16 + size])["tensors"]:
        n = math.prod(entry["shape"])
        out[entry["name"]] = values[offset : offset + n].reshape(entry["shape"])
        offset += n
    return out


def test_committed_checkpoint_reloads_to_the_same_bytes(tmp_path):
    """The committed checkpoint is version 1. It loads; saved as version 2,
    every tensor equals the version-1 tensor of its name bitwise, only the conv
    biases are gone; and a version-2 file loads and saves to the same bytes."""
    committed = Path(__file__).resolve().parent.parent / "bench" / "reference" / "decode_s1.ckpt"
    blob = committed.read_bytes()
    assert struct.unpack("<I", blob[8:12]) == (1,)
    v1 = _payload_tensors(blob)
    v2 = tmp_path / "v2.ckpt"
    md.save_checkpoint(v2, *md.load_checkpoint(committed))
    assert struct.unpack("<I", v2.read_bytes()[8:12]) == (md.CHECKPOINT_VERSION,) == (2,)
    saved = _payload_tensors(v2.read_bytes())
    for name, a in saved.items():
        assert np.array_equal(a, v1[name]), name
    assert set(v1) - set(saved) == {"conv0.b", "conv1.b", "conv2.b"}
    copy = tmp_path / "again.ckpt"
    md.save_checkpoint(copy, *md.load_checkpoint(v2))
    assert copy.read_bytes() == v2.read_bytes()


def test_version_1_checkpoint_loads_without_its_conv_biases(tmp_path):
    cfg, vocab = tiny_model_config(recurrent_layers_visual=2), Vocab(("a", "b", "c"))
    params = md.init_params(cfg, seed=21)
    path = tmp_path / "v1.ckpt"
    save_v1_checkpoint(path, cfg, vocab, params)
    cfg2, vocab2, params2 = md.load_checkpoint(path)
    assert (cfg2, vocab2) == (cfg, vocab)
    assert np.array_equal(params2.flat, params.flat)
    assert [n for n, _ in md.named_arrays(params2)] == [n for n, _ in md.tensor_shapes(cfg)]


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_version_1_checkpoint_rejects_a_non_finite_conv_bias(tmp_path, value):
    cfg = tiny_model_config()
    path = tmp_path / "v1.ckpt"
    save_v1_checkpoint(path, cfg, Vocab(("a", "b", "c")), md.init_params(cfg, seed=1), bias=value)
    with pytest.raises(ConfigError, match="tensor conv0.b holds a non-finite value"):
        md.load_checkpoint(path)


class _FailingPayload:
    def astype(self, *args, **kwargs):
        raise OSError("disk full")


@pytest.mark.parametrize("failure", ["payload", "rename"])
def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch, failure):
    cfg, vocab = tiny_model_config(), Vocab(("a", "b", "c"))
    params = md.init_params(cfg, seed=1)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, cfg, vocab, params)
    before = path.read_bytes()
    other = md.init_params(cfg, seed=2)
    if failure == "payload":  # header already written to the temporary file
        other.flat = _FailingPayload()
    else:
        def refuse(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(md.os, "replace", refuse)
    with pytest.raises(OSError):
        md.save_checkpoint(path, cfg, vocab, other)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, tiny_model_config(), Vocab(("a", "b", "c")),
                       md.init_params(tiny_model_config(), seed=1))
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError):
        md.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, tiny_model_config(), Vocab(("a", "b", "c")),
                       md.init_params(tiny_model_config(), seed=1))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(ConfigError):
        md.load_checkpoint(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index, tensor", [(5, "conv0.w"), (-1, "joint.w")])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, value, index, tensor):
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=1)
    params.flat[index] = value
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, cfg, Vocab(("a", "b", "c")), params)
    with pytest.raises(ConfigError, match=f"tensor {tensor} holds a non-finite value"):
        md.load_checkpoint(path)


def _with_header(blob: bytes, edit) -> bytes:
    (size,) = struct.unpack("<I", blob[12:16])
    header = json.loads(blob[16 : 16 + size])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return blob[:12] + struct.pack("<I", len(raw)) + raw + blob[16 + size :]


def _claim_hidden_1000(header, version):
    header["config"]["hidden_size"] = 1000
    layout = md.tensor_shapes(md.ModelConfig.from_dict(header["config"]))
    stored = layout if version == 2 else md._v1_tensors(layout)
    header["tensors"] = [{"name": n, "shape": list(s)} for n, s in stored]


def _drop_conv1_bias(header, version):
    header["tensors"] = [e for e in header["tensors"] if e["name"] != "conv1.b"]


def _list_conv1_bias(header, version):
    at = [e["name"] for e in header["tensors"]].index("conv1.w") + 1
    header["tensors"].insert(at, {"name": "conv1.b", "shape": [2]})


HEADER_CASES = {  # id: (version, header edit, refusal)
    "config_only": (2, lambda h, v: h["config"].update(hidden_size=1000), "header tensors differ"),
    "config_and_tensor_list": (2, _claim_hidden_1000, "payload is"),
    "v1_config_only": (1, lambda h, v: h["config"].update(hidden_size=1000),
                       "header tensors differ"),
    "v1_config_and_tensor_list": (1, _claim_hidden_1000, "payload is"),
    "v1_missing_a_conv_bias": (1, _drop_conv1_bias, "header tensors differ"),
    "v2_listing_a_conv_bias": (2, _list_conv1_bias, "header tensors differ"),
}


@pytest.mark.parametrize("case", list(HEADER_CASES))
def test_checkpoint_checks_the_header_before_it_allocates(tmp_path, case):
    """A small file whose header describes a far larger model is refused before
    that model is built: at hidden_size 1000 it would take about 180 MiB. The
    tensor list must be the one of the file's version."""
    version, edit, refusal = HEADER_CASES[case]
    path = tmp_path / "model.ckpt"
    save = md.save_checkpoint if version == 2 else save_v1_checkpoint
    save(path, tiny_model_config(), Vocab(("a", "b", "c")),
         md.init_params(tiny_model_config(), seed=1))
    md.load_checkpoint(path)
    path.write_bytes(_with_header(path.read_bytes(), lambda h: edit(h, version)))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=refusal):
            md.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, tiny_model_config(), Vocab(("a", "b", "c")),
                       md.init_params(tiny_model_config(), seed=1))
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError):
        md.load_checkpoint(path)
