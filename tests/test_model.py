"""Model assembly checks: config validation, seeded init, shape laws,
incremental-vs-batch linguistic equivalence, whole-network finite-difference
gradients, and the checkpoint container."""

import math
from pathlib import Path

import numpy as np
import pytest

from linerec import model as md
from linerec.errors import ConfigError, UsageError
from linerec.lattice import Vocab, rnnt_alphabeta, rnnt_forward, rnnt_grad, rnnt_loss_brute
from linerec.oracles import fd_grad, rel_err, tiny_model_config


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


def test_frames_follow_ceil_of_width_over_downsample():
    cfg = full_config()
    assert cfg.width_downsample == 8
    for w in range(1, 200):
        assert cfg.frames_for_width(w) == math.ceil(w / 8)


def test_config_dict_roundtrip():
    cfg = tiny_model_config(dropout_rate=0.25, layer_norm=True)
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
    params = md.init_params(tiny_model_config(layer_norm=True), seed=11)
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
    assert np.all(params.conv[0].b == 0.0)
    for bi in params.vis_rnn:
        for p in (bi.fwd, bi.bwd):
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
    assert md.linguistic_encode((), params, cfg).shape == (1, cfg.encoded_size)
    assert md.linguistic_encode((1, 2, 3), params, cfg).shape == (4, cfg.encoded_size)


def test_linguistic_encode_rejects_blank_and_out_of_range():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=3)
    with pytest.raises(UsageError):
        md.linguistic_encode((1, 0, 2), params, cfg)
    with pytest.raises(UsageError):
        md.linguistic_encode((4,), params, cfg)


def test_linguistic_step_matches_batch_encoder():
    cfg = tiny_model_config(recurrent_layers_linguistic=2)
    params = md.init_params(cfg, seed=5)
    labels = (2, 1, 3, 3)
    full = md.linguistic_encode(labels, params, cfg)
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
    assert np.all(states[0].hidden == 0.0)
    assert not np.array_equal(next_states[0].hidden, states[0].hidden)


# --- joint --------------------------------------------------------------------


def test_joint_returns_log_distribution():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=6)
    rng = np.random.default_rng(1)
    out = md.joint(rng.normal(size=4), rng.normal(size=4), params)
    assert out.shape == (cfg.vocab_size + 1,)
    assert abs(np.log(np.sum(np.exp(out)))) < 1e-12


def test_joint_rejects_size_mismatch():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=6)
    with pytest.raises(UsageError):
        md.joint(np.zeros(3), np.zeros(4), params)


# --- full forward -------------------------------------------------------------


def test_forward_lattice_shape_and_normalization():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=7)
    image = np.random.default_rng(2).random((4, 6))
    lattice, cache = md.forward_lattice(image, (1, 2), params, cfg)
    assert lattice.shape == (3, 3, 4)
    mass = np.log(np.sum(np.exp(lattice), axis=-1))
    assert np.max(np.abs(mass)) < 1e-12
    assert cache.lattice is lattice


def test_model_loss_matches_path_enumeration():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=8)
    image = np.random.default_rng(3).random((4, 6))
    labels = (1, 2)
    lattice, _ = md.forward_lattice(image, labels, params, cfg)
    _, log_prob = rnnt_forward(lattice, labels)
    assert abs(log_prob - rnnt_loss_brute(lattice, labels)) < 1e-9


# --- backward ------------------------------------------------------------------


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=9)
    image = np.random.default_rng(4).random((4, 6))
    lattice, cache = md.forward_lattice(image, (1, 2), params, cfg)
    grads = md.backward_pass(np.zeros_like(lattice), cache, params, cfg)
    assert np.all(grads.flat == 0.0)


def test_backward_rejects_mismatched_gradient_shape():
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=9)
    image = np.random.default_rng(4).random((4, 6))
    lattice, cache = md.forward_lattice(image, (1,), params, cfg)
    with pytest.raises(UsageError):
        md.backward_pass(np.zeros((1, 1, 4)), cache, params, cfg)


def test_joint_gemm_backward_matches_einsum_reference(monkeypatch):
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=10)
    image = np.random.default_rng(5).random((4, 14))
    labels = (1, 2, 3, 1)
    lattice, cache = md.forward_lattice(image, labels, params, cfg)
    grad_lattice = rnnt_grad(lattice, labels, rnnt_alphabeta(lattice, labels))
    seen = {}
    for name in ("_visual_backward", "_linguistic_backward"):
        monkeypatch.setattr(md, name, lambda g, *rest, name=name: seen.setdefault(name, g))
    grads = md.backward_pass(grad_lattice, cache, params, cfg)

    d_logits = md.log_softmax_backward(grad_lattice, cache.lattice)
    v = cache.tanh_joint
    ds = np.einsum("tuk,ke->tue", d_logits, params.joint_w) * (1.0 - v**2)
    assert rel_err(grads.joint_w, np.einsum("tuk,tue->ke", d_logits, v)) <= 1e-12
    assert rel_err(grads.joint_bias, ds.sum(axis=(0, 1))) <= 1e-12
    assert rel_err(seen["_visual_backward"], ds.sum(axis=1)) <= 1e-12
    assert rel_err(seen["_linguistic_backward"], ds.sum(axis=0)) <= 1e-12


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("layer_norm", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.4])
def test_hoisted_bptt_matches_per_step_accumulation(reverse, layer_norm, dropout):
    """One GEMM per scan for w_x, w_h, b and the input gradient equals summing
    outer products step by step."""
    cfg = tiny_model_config(layer_norm=layer_norm)
    p = md.init_params(cfg, seed=12).vis_rnn[0].fwd
    rng = np.random.default_rng(13)
    seq = rng.normal(size=(9, p.w_x.shape[1]))
    grad_out = rng.normal(size=(9, p.hidden_size))
    _, run = md._run_lstm(seq, p, np.random.default_rng(14), dropout, reverse=reverse)

    def shell():
        return md.zero_grads_shell(md.init_params(cfg, seed=12)).vis_rnn[0].fwd

    hoisted = shell()
    grad_seq = md._run_lstm_backward(grad_out, run, p, hoisted, reverse=reverse)

    ref, ref_seq = shell(), np.zeros_like(seq)
    order = list(range(len(seq)))[::-1] if reverse else list(range(len(seq)))
    dh = dc = np.zeros(p.hidden_size)
    for i in reversed(range(len(seq))):
        step = run.steps[i]
        dz, dh, dc = md.lstm_step_backward(grad_out[order[i]] + dh, dc, step, p, ref)
        ref.w_x += np.outer(dz, step.x)
        ref.w_h += np.outer(dz, step.h_used)
        ref.b += dz
        ref_seq[order[i]] = p.w_x.T @ dz
    assert (run.rec_mask is not None) == (dropout > 0)
    for name in ("w_x", "w_h", "b", "ln_gain", "ln_shift"):
        got, want = getattr(hoisted, name), getattr(ref, name)
        assert (got is None) == (not layer_norm and name.startswith("ln"))
        if got is not None:
            assert rel_err(got, want) <= 1e-12, name
    assert rel_err(grad_seq, ref_seq) <= 1e-12


def model_gradient_error(image, labels, params, cfg, mask_seed=None):
    """rel_err of the whole-network parameter gradient against central
    differences; ``mask_seed`` fixes the dropout masks at every evaluation."""

    def forward(flat):
        p = md.clone_params(params)
        p.flat[...] = flat
        rng = np.random.default_rng(mask_seed) if cfg.dropout_rate > 0 else None
        return (*md.forward_lattice(image, labels, p, cfg, rng=rng), p)

    lattice, cache, p = forward(params.flat)
    grad_lattice = rnnt_grad(lattice, labels, rnnt_alphabeta(lattice, labels))
    analytic = md.backward_pass(grad_lattice, cache, p, cfg).flat
    numeric = fd_grad(lambda v: -rnnt_forward(forward(v)[0], labels)[1], params.flat)
    return rel_err(analytic, numeric)


@pytest.mark.parametrize("dropout,use_ln,seed", [(0.0, False, 3), (0.5, True, 5)])
def test_whole_network_gradient_matches_finite_differences(dropout, use_ln, seed):
    cfg = tiny_model_config(dropout_rate=dropout, layer_norm=use_ln)
    params = md.init_params(cfg, seed=seed)
    image = np.random.default_rng(seed + 100).random((4, 6))
    labels = (1, 2)
    mask_seed = 77  # same dropout masks at every evaluation

    # the seeds above leave every relu input clear of the finite-difference
    # step, so the loss is smooth in the probed neighborhood
    _, cache = md.forward_lattice(image, labels, params, cfg,
                                  rng=np.random.default_rng(mask_seed) if dropout else None)
    for blk in cache.visual.blocks:
        assert np.min(np.abs(blk.post_norm)) > 1e-4

    assert model_gradient_error(image, labels, params, cfg, mask_seed) < 1e-4


# --- checkpoint ------------------------------------------------------------------


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    cfg = tiny_model_config(layer_norm=True)
    vocab = Vocab(("a", "b", "c"))
    params = md.init_params(cfg, seed=21)
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, cfg, vocab, params)
    cfg2, vocab2, params2 = md.load_checkpoint(path)
    assert cfg2 == cfg
    assert vocab2 == vocab
    assert np.array_equal(params2.flat, params.flat)


def test_committed_checkpoint_reloads_to_the_same_bytes(tmp_path):
    committed = Path(__file__).resolve().parent.parent / "bench" / "reference" / "decode_s1.ckpt"
    copy = tmp_path / "again.ckpt"
    md.save_checkpoint(copy, *md.load_checkpoint(committed))
    assert copy.read_bytes() == committed.read_bytes()


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


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, tiny_model_config(), Vocab(("a", "b", "c")),
                       md.init_params(tiny_model_config(), seed=1))
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError):
        md.load_checkpoint(path)
