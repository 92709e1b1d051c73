"""Greedy search checks against hand-traced executions of the decoding loop,
using a scripted stand-in for the joint and the linguistic state."""

import numpy as np
import pytest

from linerec import decode as dc
from linerec import model as md
from linerec.errors import ConfigError, UsageError
from linerec.lattice import Vocab
from linerec.oracles import tiny_model_config


def install_script(monkeypatch, table, k=3, emit_log=None):
    """Route the decoder through a lookup table.

    The fake linguistic state is the number of labels consumed so far; the
    fake joint reads each frame index from its row's f[0] and that count from
    g_u[0], then puts all of the row's probability mass toward
    table[(t, count)] (blank when the pair is absent).
    """

    def fake_start(config):
        return 0

    def fake_step(prev_label, state, params, config):
        if emit_log is not None and prev_label != 0:
            emit_log.append(prev_label)
        new_state = state + (1 if prev_label != 0 else 0)
        return np.array([float(new_state)]), new_state

    def fake_joint(f, g_u, params):
        out = np.full((len(f), k + 1), -10.0)
        for row, t in zip(out, f[:, 0]):
            row[table.get((int(t), int(g_u[0])), 0)] = -0.1
        return out

    monkeypatch.setattr(dc, "linguistic_start_states", fake_start)
    monkeypatch.setattr(dc, "linguistic_step", fake_step)
    monkeypatch.setattr(dc, "joint", fake_joint)


def frames(t):
    return np.arange(t, dtype=np.float64)[:, None]


def test_all_blank_script_emits_nothing(monkeypatch):
    install_script(monkeypatch, {})
    assert dc.greedy_decode(frames(4), None, None) == ()


def test_single_emission_script(monkeypatch):
    install_script(monkeypatch, {(0, 0): 2})
    assert dc.greedy_decode(frames(3), None, None) == (2,)


def test_hand_traced_three_frame_run(monkeypatch):
    # frame 0: argmax with empty context is label 2 -> emit, context advances
    # frame 1: argmax with one-label context is blank -> nothing
    # frame 2: argmax with one-label context is label 1 -> emit
    install_script(monkeypatch, {(0, 0): 2, (2, 1): 1})
    assert dc.greedy_decode(frames(3), None, None) == (2, 1)


def test_context_advances_once_per_emission_never_on_blank(monkeypatch):
    emit_log = []
    install_script(monkeypatch, {(0, 0): 2, (2, 1): 1}, emit_log=emit_log)
    out = dc.greedy_decode(frames(3), None, None)
    # one advance for the initial blank context, then one per emitted label
    assert emit_log == list(out)


def test_output_never_longer_than_frame_count(monkeypatch):
    # a script that never produces blank makes the per-frame bound tight
    table = {(t, u): 1 for t in range(5) for u in range(6)}
    install_script(monkeypatch, table)
    assert dc.greedy_decode(frames(5), None, None) == (1,) * 5


def test_multi_emit_reuses_the_frame_until_blank(monkeypatch):
    table = {(0, 0): 2, (0, 1): 3, (2, 2): 1}
    install_script(monkeypatch, table)
    single = dc.greedy_decode(frames(3), None, None)
    multi = dc.greedy_decode(frames(3), None, None,
                             dc.DecodeConfig(mode="multi_emit", max_symbols_per_frame=3))
    # single: frame 0 emits 2 then moves on; (1,1) and (2,1) are blank
    assert single == (2,)
    # multi: frame 0 emits 2 then 3, frame 2 emits 1 with two labels of context
    assert multi == (2, 3, 1)


def test_multi_emit_respects_the_per_frame_cap(monkeypatch):
    table = {(t, u): 1 for t in range(2) for u in range(10)}
    install_script(monkeypatch, table)
    out = dc.greedy_decode(frames(2), None, None,
                           dc.DecodeConfig(mode="multi_emit", max_symbols_per_frame=4))
    assert out == (1,) * 8


def test_multi_emit_with_cap_one_equals_default_mode(monkeypatch):
    rng = np.random.default_rng(19)
    for _ in range(25):
        table = {
            (t, u): int(rng.integers(0, 4))
            for t in range(6)
            for u in range(7)
        }
        install_script(monkeypatch, table)
        a = dc.greedy_decode(frames(6), None, None)
        b = dc.greedy_decode(frames(6), None, None,
                             dc.DecodeConfig(mode="multi_emit", max_symbols_per_frame=1))
        assert a == b


def test_blank_wins_exact_ties(monkeypatch):
    def tied_joint(f, g_u, params):
        return np.zeros((len(f), 4))  # all classes exactly equal

    monkeypatch.setattr(dc, "linguistic_start_states", lambda config: 0)
    monkeypatch.setattr(dc, "linguistic_step",
                        lambda prev, s, p, c: (np.zeros(1), s))
    monkeypatch.setattr(dc, "joint", tied_joint)
    assert dc.greedy_decode(frames(3), None, None) == ()


@pytest.mark.parametrize("label_logit,emitted", [(np.nextafter(0.7, 1.0), (1, 1, 1)),
                                                  (0.7, ())])
def test_a_label_one_ulp_above_blank_is_emitted(monkeypatch, label_logit, emitted):
    """The argmax is taken on the raw logits: one ulp decides, an exact tie
    goes to blank."""
    monkeypatch.setattr(dc, "linguistic_start_states", lambda config: 0)
    monkeypatch.setattr(dc, "linguistic_step",
                        lambda prev, s, p, c: (np.zeros(1), s))
    monkeypatch.setattr(dc, "joint", lambda f, g_u, params: np.tile(
        [0.7, label_logit, -3.0, 0.7 - 1e-9], (len(f), 1)))
    assert dc.greedy_decode(frames(3), None, None) == emitted


def test_rejects_empty_feature_sequence():
    with pytest.raises(UsageError):
        dc.greedy_decode(np.zeros((0, 4)), None, None)


def test_decode_config_validation():
    with pytest.raises(ConfigError):
        dc.DecodeConfig(mode="beam").validate()
    with pytest.raises(ConfigError):
        dc.DecodeConfig(mode="multi_emit", max_symbols_per_frame=0).validate()
    with pytest.raises(ConfigError):
        dc.DecodeConfig.from_dict({"mode": "paper_greedy", "beam": 4})


# --- on a real model ----------------------------------------------------------


def small_model():
    cfg = tiny_model_config()
    return cfg, md.init_params(cfg, seed=13)


def test_real_model_decode_is_deterministic_and_bounded():
    cfg, params = small_model()
    image = np.random.default_rng(8).random((4, 20))
    feats = md.visual_encode(image, params, cfg)
    out1 = dc.greedy_decode(feats, params, cfg)
    out2 = dc.greedy_decode(feats, params, cfg)
    assert out1 == out2
    assert len(out1) <= feats.shape[0]
    assert all(1 <= i <= cfg.vocab_size for i in out1)


def test_decode_image_detokenizes_in_order(monkeypatch):
    cfg, params = small_model()
    monkeypatch.setattr(dc, "greedy_decode", lambda *a, **k: (2, 1, 2))
    text = dc.decode_image(np.zeros((4, 8)), Vocab(("x", "y", "z")), params, cfg)
    assert text == "yxy"


def test_decode_image_rejects_vocab_size_mismatch():
    cfg, params = small_model()
    with pytest.raises(ConfigError):
        dc.decode_image(np.zeros((4, 8)), Vocab(("x", "y")), params, cfg)


def test_overflowing_joint_logits_raise_instead_of_decoding():
    """Finite weights whose logits overflow: blank's to -inf, every label's to
    +inf. An argmax of them would emit label 1 at every frame."""
    cfg, params = small_model()
    params.joint_bias[:] = 30.0  # tanh is exactly 1 in every unit
    params.joint_w[:] = 1e308
    params.joint_w[0] = -1e308
    image = np.random.default_rng(8).random((4, 20))
    with np.errstate(over="ignore"):  # the suite makes numpy's overflow warning an error
        with pytest.raises(UsageError, match="^joint requires finite logits$"):
            dc.decode_image(image, Vocab(("x", "y", "z")), params, cfg)


# --- windows of frames against the frame-by-frame loop -----------------------------


def _greedy_reference(feats, params, config, cap):
    """The frame-by-frame greedy loop, one joint call per frame and context;
    returns the labels and the frame each was emitted at."""
    states = md.linguistic_start_states(config)
    g, states = md.linguistic_step(0, states, params, config)
    out, at = [], []
    for t in range(feats.shape[0]):
        for _ in range(cap):
            best = int(np.argmax(md.joint(feats[t], g, params)))
            if best == 0:
                break
            out.append(best)
            at.append(t)
            g, states = md.linguistic_step(best, states, params, config)
    return tuple(out), at


def _biased_model_and_frames(seed, t):
    """A tiny model whose blank logit follows feature 0 and whose context
    moves with each label, and frames whose feature 0 holds a level for
    stretches: high (blank), low (a label whatever the context) or near zero
    (blank or not, depending on the context)."""
    cfg = tiny_model_config()
    params = md.init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    params.joint_w[0] = (4.0, 0.0, 0.0, 0.0)
    params.embed[:] = rng.normal(size=params.embed.shape)
    params.lm_proj.w[:] *= 3.0
    feats = rng.normal(size=(t, cfg.encoded_size))
    start = 0
    while start < t:
        stretch = feats[start : start + int(rng.integers(1, 30)), 0]  # a view
        stretch[:] = rng.choice((3.0, -3.0, 0.0)) + 0.3 * rng.normal(size=len(stretch))
        start += len(stretch)
    return cfg, params, feats


def test_windowed_search_equals_the_frame_by_frame_loop():
    longest_blank_run = back_to_back = blank_after_emission = 0
    for seed in range(6):
        for t in (1, 2, 3, 5, 9, 40, 150):
            cfg, params, feats = _biased_model_and_frames(seed, t)
            for mode, cap in (("paper_greedy", 1), ("multi_emit", 1), ("multi_emit", 2),
                              ("multi_emit", 3)):
                want, at = _greedy_reference(feats, params, cfg, cap)
                got = dc.greedy_decode(feats, params, cfg, dc.DecodeConfig(mode, cap))
                assert got == want, (seed, t, mode, cap)
                gaps = np.diff([-1, *at, t]) - 1  # blank frames between emissions
                longest_blank_run = max(longest_blank_run, int(gaps.max()))
                back_to_back += int(np.sum(np.diff(at) <= 1))
                per_frame = np.bincount(at, minlength=t)
                blank_after_emission += int(np.sum((per_frame > 0) & (per_frame < cap)))
    assert longest_blank_run >= 3 * dc._FIRST_WINDOW  # the window doubled at least once
    assert back_to_back > 0
    assert blank_after_emission > 0  # a frame rescored with a new context went blank
