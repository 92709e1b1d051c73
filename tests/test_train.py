"""Schedule, optimizer, error-rate, and training-loop checks. The edit
distance is verified against a second, independently written full-matrix
dynamic program."""

import math

import numpy as np
import pytest

from linerec import data as dt
from linerec import model as md
from linerec import train as tr
from linerec.errors import ConfigError, TrainingError, UsageError
from linerec.lattice import Vocab
from linerec.model import load_checkpoint
from linerec.oracles import rel_err, tiny_model_config


# --- learning-rate schedule ----------------------------------------------------


def sched(**overrides):
    base = dict(batch_size=4, epochs=10, base_lr=2e-4, warmup_epochs=1, seed=0)
    base.update(overrides)
    return tr.TrainConfig(**base)


def test_lr_starts_at_zero():
    assert tr.lr_at(0, 50, sched()) == 0.0


def test_lr_peaks_at_base_rate_at_warmup_end():
    cfg = sched()
    assert tr.lr_at(50, 50, cfg) == pytest.approx(2e-4, abs=0)
    assert max(tr.lr_at(s, 50, cfg) for s in range(501)) == pytest.approx(2e-4)


def test_lr_final_step_is_within_one_increment_of_zero():
    cfg = sched()
    total, warm = 10 * 50, 50
    last = tr.lr_at(total - 1, 50, cfg)
    assert 0.0 < last <= cfg.base_lr / (total - warm) + 1e-18
    assert tr.lr_at(total, 50, cfg) == 0.0
    assert tr.lr_at(total + 7, 50, cfg) == 0.0


def test_lr_is_continuous_and_piecewise_linear():
    cfg = sched(epochs=6, warmup_epochs=2)
    spe = 10
    values = [tr.lr_at(s, spe, cfg) for s in range(6 * spe + 1)]
    assert all(v >= 0.0 for v in values)
    warm = 2 * spe
    # junction continuity: one-step jumps stay at the linear increment scale
    ramp_inc = cfg.base_lr / warm
    decay_inc = cfg.base_lr / (6 * spe - warm)
    for s in range(len(values) - 1):
        jump = abs(values[s + 1] - values[s])
        assert jump <= max(ramp_inc, decay_inc) + 1e-18
    # exactly linear inside each region
    for s in range(1, warm - 1):
        assert values[s + 1] - 2 * values[s] + values[s - 1] == pytest.approx(0, abs=1e-18)
    for s in range(warm + 1, 6 * spe - 1):
        assert values[s + 1] - 2 * values[s] + values[s - 1] == pytest.approx(0, abs=1e-18)


def test_lr_without_warmup_starts_at_peak():
    cfg = sched(warmup_epochs=0)
    assert tr.lr_at(0, 50, cfg) == pytest.approx(cfg.base_lr, abs=0)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        sched(batch_size=0).validate()
    with pytest.raises(ConfigError):
        sched(base_lr=0.0).validate()
    with pytest.raises(ConfigError):
        sched(warmup_epochs=11).validate()
    with pytest.raises(ConfigError):
        tr.TrainConfig.from_dict({"batchsize": 4})


# --- optimizer -------------------------------------------------------------------


def doll_params():
    cfg = tiny_model_config()
    return cfg, md.init_params(cfg, seed=31)


def test_adam_zero_gradients_leave_params_unchanged():
    _, params = doll_params()
    before = params.flat.copy()
    opt = tr.init_opt_state(params)
    tr.adam_step(params, md.zero_grads_shell(params), opt, lr=1e-3)
    assert np.array_equal(params.flat, before)
    assert opt.step == 1


def test_adam_single_scalar_step_matches_hand_formula():
    _, params = doll_params()
    before = params.embed[0, 0]
    grads = md.zero_grads_shell(params)
    grads.embed[0, 0] = 0.5
    opt = tr.init_opt_state(params)
    tr.adam_step(params, grads, opt, lr=1e-3, clip_norm=0.0)
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    expect = 1e-3 * (m / 0.1) / (math.sqrt(v / 0.001) + 1e-8)
    assert abs((before - params.embed[0, 0]) - expect) < 1e-15
    # nothing else moves
    moved = md.init_params(doll_params()[0], seed=31).flat - params.flat
    assert np.count_nonzero(moved) == np.count_nonzero(grads.flat) == 1


def test_adam_clips_by_global_norm_before_updating():
    _, params = doll_params()
    grads = md.zero_grads_shell(params)
    grads.embed[0, 0] = 10.0  # global norm 10, clip at 5 halves it
    opt = tr.init_opt_state(params)
    before = params.embed[0, 0]
    tr.adam_step(params, grads, opt, lr=1e-3, clip_norm=5.0)
    g = 5.0
    expect = 1e-3 * (0.1 * g / 0.1) / (math.sqrt(0.001 * g * g / 0.001) + 1e-8)
    assert abs((before - params.embed[0, 0]) - expect) < 1e-15


def reference_adam_step(params, grads, m, v, step, lr, clip_norm):
    """Adam one tensor at a time, written out as the textbook formula."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for _, g in md.named_arrays(grads)))
    scale = clip_norm / norm if clip_norm > 0 and norm > clip_norm else 1.0
    b1, b2 = tr.ADAM_BETA1, tr.ADAM_BETA2
    c1, c2 = 1.0 - b1**step, 1.0 - b2**step
    for (_, p), (_, g), mi, vi in zip(md.named_arrays(params), md.named_arrays(grads), m, v):
        g = g * scale
        mi[...] = b1 * mi + (1.0 - b1) * g
        vi[...] = b2 * vi + (1.0 - b2) * (g * g)
        p -= lr * (mi / c1) / (np.sqrt(vi / c2) + tr.ADAM_EPS)


@pytest.mark.parametrize("clip_norm", [0.0, 1.0])
def test_flat_adam_matches_per_tensor_reference(clip_norm):
    _, params = doll_params()
    ref = md.clone_params(params)
    m = [np.zeros_like(a) for _, a in md.named_arrays(params)]
    v = [np.zeros_like(a) for _, a in md.named_arrays(params)]
    opt = tr.init_opt_state(params)
    rng = np.random.default_rng(5)
    for step in range(1, 6):
        grads = md.zero_grads_shell(params)
        grads.flat[:] = rng.normal(size=grads.flat.size)  # global norm ~13, so 1.0 clips
        tr.adam_step(params, grads, opt, lr=1e-2, clip_norm=clip_norm)
        reference_adam_step(ref, grads, m, v, step, 1e-2, clip_norm)
        pairs = [(params.flat, ref.flat), (opt.m, np.concatenate([a.ravel() for a in m])),
                 (opt.v, np.concatenate([a.ravel() for a in v]))]
        for got, want in pairs:
            if clip_norm == 0.0:  # same arithmetic, element for element
                assert np.array_equal(got, want)
            else:  # the clip scale's norm sums in another order
                assert rel_err(got, want) < 1e-15
    assert opt.step == 5


def test_adam_rejects_non_finite_gradients():
    _, params = doll_params()
    grads = md.zero_grads_shell(params)
    grads.embed[0, 0] = np.nan
    with pytest.raises(TrainingError):
        tr.adam_step(params, grads, tr.init_opt_state(params), lr=1e-3)


# --- character error rate ----------------------------------------------------------


def full_matrix_distance(a: str, b: str) -> int:
    d = np.zeros((len(a) + 1, len(b) + 1), dtype=int)
    d[:, 0] = np.arange(len(a) + 1)
    d[0, :] = np.arange(len(b) + 1)
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i, j] = min(
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
                d[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
            )
    return int(d[len(a), len(b)])


def test_levenshtein_matches_independent_full_matrix_oracle():
    rng = np.random.default_rng(23)
    alphabet = "abcd"
    for _ in range(100):
        a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 9)))
        b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 9)))
        assert tr.levenshtein(a, b) == full_matrix_distance(a, b)
        # unit-cost distance is invariant under reversing both strings
        assert tr.levenshtein(a, b) == tr.levenshtein(a[::-1], b[::-1])
        assert (tr.levenshtein(a, b) == 0) == (a == b)


def test_corpus_cer_pools_edits_and_lengths():
    pairs = [("ab", "ab"), ("x", ""), ("", "cd")]
    # edits: 0 + 1 + 2 = 3, reference length: 2 + 0 + 2 = 4
    assert tr.corpus_cer(pairs) == pytest.approx(3 / 4)
    assert tr.corpus_cer([]) == 0.0
    assert tr.corpus_cer([("", ""), ("", "")]) == 0.0
    assert tr.corpus_cer([("zz", "")]) == float("inf")


# --- training loop -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def toy_setup(tmp_path, name, **train_overrides):
    model_cfg = md.ModelConfig(
        conv_blocks=[(2, 3, (2, 2)), (3, 3, (4, 2))],
        recurrent_layers_visual=1,
        recurrent_layers_linguistic=1,
        hidden_size=4,
        embed_size=4,
        encoded_size=6,
        vocab_size=3,
        input_height=8,
    )
    synth_cfg = dt.SynthConfig(charset_size=3, cell=6, length_min=1, length_max=2,
                               canvas_height=8, noise_sigma=0.02)
    vocab = dt.synth_charset(3)
    train_samples = dt.make_dataset(synth_cfg, 10, seed=5)
    val_samples = dt.make_dataset(synth_cfg, 3, seed=901)
    base = dict(batch_size=4, epochs=2, base_lr=1e-3, warmup_epochs=1, seed=3,
                checkpoint_dir=str(tmp_path / name), augment_strength=0.5)
    base.update(train_overrides)
    return model_cfg, tr.TrainConfig(**base), synth_cfg, vocab, train_samples, val_samples


def test_train_run_writes_checkpoints_and_metrics(tmp_path):
    args = toy_setup(tmp_path, "run")
    result = tr.train_run(*args, clock=FakeClock())
    run_dir = tmp_path / "run"
    assert (run_dir / "epoch_001.ckpt").exists()
    assert (run_dir / "epoch_002.ckpt").exists()
    assert result.best_path.exists()
    assert len(result.metrics) == 2

    lines = result.metrics_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "\t".join(tr.METRICS_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split("\t")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(result.metrics[0].mean_train_loss, abs=1e-6)
    assert float(first[2]) == pytest.approx(result.metrics[0].val_cer, abs=1e-6)

    # best selection: minimum validation error, earlier epoch on ties
    cers = [m.val_cer for m in result.metrics]
    assert result.best_epoch == int(np.argmin(cers)) + 1
    assert result.best_val_cer == min(cers)
    assert result.best_path.read_bytes() == result.checkpoint_paths[
        result.best_epoch - 1
    ].read_bytes()


def test_train_run_is_bitwise_reproducible(tmp_path):
    a = tr.train_run(*toy_setup(tmp_path, "a"), clock=FakeClock())
    b = tr.train_run(*toy_setup(tmp_path, "b"), clock=FakeClock())
    assert a.metrics_path.read_text() == b.metrics_path.read_text()
    for pa, pb in zip(a.checkpoint_paths, b.checkpoint_paths):
        assert pa.read_bytes() == pb.read_bytes()


def test_reloaded_checkpoint_evaluates_identically(tmp_path):
    model_cfg, train_cfg, synth_cfg, vocab, train_s, val_s = toy_setup(
        tmp_path, "reload", epochs=1)
    result = tr.train_run(model_cfg, train_cfg, synth_cfg, vocab, train_s, val_s,
                          clock=FakeClock())
    live = tr.evaluate_cer(result.params, model_cfg, vocab, val_s)
    cfg2, vocab2, params2 = load_checkpoint(result.checkpoint_paths[0])
    loaded = tr.evaluate_cer(params2, cfg2, vocab2, val_s)
    assert live == loaded


def test_train_run_aborts_on_divergence_with_identifiers(tmp_path, monkeypatch):
    args = toy_setup(tmp_path, "diverge")

    def poisoned(sample, labels, params, model_cfg, inv_batch, grads):
        return float("nan"), md.zero_grads_shell(params)

    monkeypatch.setattr(tr, "_example_loss_grads", poisoned)
    with pytest.raises(TrainingError, match=r"epoch 1.*samples"):
        tr.train_run(*args, clock=FakeClock())


def test_train_run_wraps_forward_failures_with_identifiers(tmp_path, monkeypatch):
    args = toy_setup(tmp_path, "fail")

    def broken(sample, labels, params, model_cfg, inv_batch, grads):
        raise UsageError("boom")

    monkeypatch.setattr(tr, "_example_loss_grads", broken)
    with pytest.raises(TrainingError, match=r"epoch 1.*boom"):
        tr.train_run(*args, clock=FakeClock())


def test_batch_gradient_is_the_sum_of_fresh_example_gradients(tmp_path, monkeypatch):
    """The reused example and batch buffers give what fresh shells would:
    every Adam step sees the sum, in batch order, of each example's gradient
    computed into zeros."""
    args = toy_setup(tmp_path, "sum")
    real_example, real_adam = tr._example_loss_grads, tr.adam_step
    fresh, checked = [], []

    def example(sample, labels, params, model_cfg, inv_batch, grads):
        shell = md.zero_grads_shell(params)
        fresh.append(real_example(sample, labels, params, model_cfg, inv_batch, shell)[1].flat)
        return real_example(sample, labels, params, model_cfg, inv_batch, grads)

    def adam(params, grads, opt, lr, clip_norm):
        total = np.zeros_like(grads.flat)
        for g in fresh:
            total += g
        checked.append(np.array_equal(grads.flat, total))
        fresh.clear()
        return real_adam(params, grads, opt, lr, clip_norm=clip_norm)

    monkeypatch.setattr(tr, "_example_loss_grads", example)
    monkeypatch.setattr(tr, "adam_step", adam)
    tr.train_run(*args, clock=FakeClock())
    assert len(checked) == 6 and all(checked)


def test_train_run_rejects_vocab_mismatch(tmp_path):
    model_cfg, train_cfg, synth_cfg, _, train_s, val_s = toy_setup(tmp_path, "mismatch")
    with pytest.raises(ConfigError):
        tr.train_run(model_cfg, train_cfg, synth_cfg, Vocab(("a",)), train_s, val_s)


def test_train_run_rejects_empty_training_set(tmp_path):
    model_cfg, train_cfg, synth_cfg, vocab, _, val_s = toy_setup(tmp_path, "empty")
    with pytest.raises(ConfigError):
        tr.train_run(model_cfg, train_cfg, synth_cfg, vocab, [], val_s)


def test_train_run_rejects_empty_validation_set(tmp_path):
    model_cfg, train_cfg, synth_cfg, vocab, train_s, _ = toy_setup(tmp_path, "no-val")
    with pytest.raises(ConfigError, match="validation"):
        tr.train_run(model_cfg, train_cfg, synth_cfg, vocab, train_s, [])
