"""The optimization loop: Adam with linear warmup then linear decay,
per-epoch validation by character error rate, best-checkpoint retention,
and a TSV metrics log.

Every whole-parameter operation (gradient accumulation, the global norm,
the Adam update) is one vector operation on the flat parameter buffer (see
``ModelParams``). A run is a pure function of its configs, data and seed:
with a fixed seed it is bitwise reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import SynthConfig, augment, preprocess
from .decode import DecodeConfig, decode_image
from .errors import ConfigError, ConfigSection, TrainingError, UsageError
from .lattice import Vocab, rnnt_alphabeta, rnnt_grad
from .model import (
    ModelConfig,
    ModelParams,
    backward_pass,
    forward_lattice,
    init_params,
    named_arrays,
    save_checkpoint,
    write_atomically,
    zero_grads_shell,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

METRICS_COLUMNS = ("epoch", "mean_train_loss", "val_cer", "lr", "wall_seconds")


@dataclass
class TrainConfig(ConfigSection):
    section = "train"
    batch_size: int = 16
    epochs: int = 30
    base_lr: float = 2e-4
    warmup_epochs: int = 1
    seed: int = 0
    grad_clip_norm: float = 5.0  # global norm; 0 disables clipping
    augment_strength: float = 1.0
    checkpoint_dir: str = "runs"

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ConfigError(
                f"warmup_epochs must be in [0, epochs], got {self.warmup_epochs}"
            )
        if self.grad_clip_norm < 0 or self.augment_strength < 0:
            raise ConfigError("grad_clip_norm and augment_strength must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# --- learning-rate schedule -----------------------------------------------------


def lr_at(step: int, steps_per_epoch: int, cfg: TrainConfig) -> float:
    """Piecewise-linear: 0 up to base_lr over the warmup steps, then back
    down to 0 at the end of training. Continuous, peak exactly base_lr."""
    if steps_per_epoch < 1:
        raise UsageError(f"steps_per_epoch must be >= 1, got {steps_per_epoch}")
    total = cfg.epochs * steps_per_epoch
    warm = cfg.warmup_epochs * steps_per_epoch
    if step <= 0 and warm > 0:
        return 0.0
    if step < warm:
        return cfg.base_lr * (step / warm)
    if step >= total or total == warm:
        return 0.0
    # ratio first so the peak at step == warm is exactly base_lr
    return cfg.base_lr * ((total - step) / (total - warm))


# --- optimizer --------------------------------------------------------------------


@dataclass
class OptState:
    m: np.ndarray  # first-moment accumulators, laid out like params.flat
    v: np.ndarray  # second-moment accumulators
    work: np.ndarray = field(repr=False)  # (2, n) scratch that adam_step overwrites
    step: int = 0


def init_opt_state(params: ModelParams) -> OptState:
    n = params.flat.size
    return OptState(m=np.zeros(n), v=np.zeros(n), work=np.empty((2, n)))


def adam_step(params: ModelParams, grads: ModelParams, opt: OptState, lr: float,
              clip_norm: float = 5.0):
    """One optimizer update, in place; returns (params, opt) for chaining.

    Gradients are first clipped to the given global norm (0 disables), then
    fed through bias-corrected Adam. The update runs in place through
    ``opt.work``, so a step allocates no parameter-sized temporaries.
    """
    norm = math.sqrt(float(grads.flat @ grads.flat))
    if not math.isfinite(norm):
        bad = [n for n, g in named_arrays(grads) if not np.all(np.isfinite(g))]
        raise TrainingError(f"non-finite gradient in {bad}")
    scale = clip_norm / norm if clip_norm > 0 and norm > clip_norm else 1.0
    opt.step += 1
    correct1 = 1.0 - ADAM_BETA1**opt.step
    correct2 = 1.0 - ADAM_BETA2**opt.step
    g, tmp = opt.work
    m, v = opt.m, opt.v
    np.multiply(grads.flat, scale, out=g)
    # in place, rounded exactly as m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*(g*g)
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    v *= ADAM_BETA2
    np.multiply(g, g, out=tmp)
    v += np.multiply(tmp, 1.0 - ADAM_BETA2, out=tmp)
    # p -= lr * (m / correct1) / (sqrt(v / correct2) + eps)
    np.divide(v, correct2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, correct1, out=g)
    g *= lr
    g /= tmp
    params.flat -= g
    return params, opt


# --- character error rate ----------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, two-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def corpus_cer(pairs) -> float:
    """Total edits over total reference length across (hypothesis, reference)
    pairs. Empty references still contribute their edits. All-empty
    references with any edits give inf rather than hiding the errors."""
    edits = sum(levenshtein(h, r) for h, r in pairs)
    length = sum(len(r) for _, r in pairs)
    if length == 0:
        return 0.0 if edits == 0 else float("inf")
    return edits / length


# --- training loop ----------------------------------------------------------------


@dataclass
class EpochMetrics:
    epoch: int
    mean_train_loss: float
    val_cer: float
    lr: float
    wall_seconds: float

    def row(self) -> str:
        return (f"{self.epoch}\t{self.mean_train_loss:.6f}\t{self.val_cer:.6f}"
                f"\t{self.lr:.8f}\t{self.wall_seconds:.3f}")


@dataclass
class TrainResult:
    params: ModelParams  # the final-epoch weights, live
    best_epoch: int
    best_val_cer: float
    metrics: list  # [EpochMetrics]
    checkpoint_paths: list
    best_path: Path
    metrics_path: Path


def evaluate_cer(params: ModelParams, model_cfg: ModelConfig, vocab: Vocab, samples,
                 decode_cfg: DecodeConfig | None = None) -> float:
    pairs = []
    for s in samples:
        canon = preprocess(s, model_cfg.input_height)
        hyp = decode_image(canon.image, vocab, params, model_cfg, decode_cfg)
        pairs.append((hyp, canon.transcript))
    return corpus_cer(pairs)


def _augment_seed(base_seed: int, epoch: int, index: int) -> int:
    return int(np.random.SeedSequence((base_seed, epoch, index)).generate_state(1)[0])


def _example_loss_grads(sample, labels, params, model_cfg, inv_batch, grads):
    """(loss, grads) of one example, its gradient scaled by inv_batch and added
    into ``grads``."""
    lattice, cache = forward_lattice(sample.image, labels, params, model_cfg)
    tables = rnnt_alphabeta(lattice, labels)
    grad_blank, grad_label = rnnt_grad(tables)
    return -tables.log_prob, backward_pass((grad_blank * inv_batch, grad_label * inv_batch),
                                           cache, params, model_cfg, grads)


def train_run(model_cfg: ModelConfig, train_cfg: TrainConfig, synth_cfg: SynthConfig,
              vocab: Vocab, train_samples, val_samples, *, clock=time.monotonic,
              progress=None) -> TrainResult:
    """Full training run over pre-split data; returns the result summary and
    leaves per-epoch checkpoints, a `best.ckpt` alias, and `metrics.tsv`
    under train_cfg.checkpoint_dir.

    ``clock`` exists so reproducibility checks can pin the wall_seconds
    column; everything else is a pure function of configs, data, and seed.
    """
    model_cfg.validate()
    train_cfg.validate()
    if vocab.size != model_cfg.vocab_size:
        raise ConfigError(
            f"charset has {vocab.size} symbols but the model expects {model_cfg.vocab_size}"
        )
    if not train_samples:
        raise ConfigError("no training samples")
    if not val_samples:
        raise ConfigError("no validation samples")

    ckpt_dir = Path(train_cfg.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    params = init_params(model_cfg, train_cfg.seed)
    opt = init_opt_state(params)
    batch_grads, example_grads = zero_grads_shell(params), zero_grads_shell(params)
    canon_train = [preprocess(s, model_cfg.input_height) for s in train_samples]
    canon_val = [preprocess(s, model_cfg.input_height) for s in val_samples]
    label_cache = [vocab.encode(s.transcript) for s in canon_train]
    n = len(canon_train)
    steps_per_epoch = math.ceil(n / train_cfg.batch_size)

    metrics: list = []
    checkpoint_paths: list = []
    best_epoch, best_cer = 0, float("inf")
    metrics_path = ckpt_dir / "metrics.tsv"
    t0 = clock()
    global_step = 0
    with open(metrics_path, "w", encoding="utf-8") as log:
        log.write("\t".join(METRICS_COLUMNS) + "\n")
        for epoch in range(1, train_cfg.epochs + 1):
            order = np.random.default_rng((train_cfg.seed, epoch)).permutation(n)
            losses = []
            lr = 0.0
            for start in range(0, n, train_cfg.batch_size):
                chunk = [int(i) for i in order[start : start + train_cfg.batch_size]]
                lr = lr_at(global_step, steps_per_epoch, train_cfg)
                batch_grads.flat.fill(0.0)
                batch_loss = 0.0
                try:
                    for idx in chunk:
                        sample = augment(canon_train[idx], synth_cfg,
                                         train_cfg.augment_strength,
                                         _augment_seed(train_cfg.seed, epoch, idx))
                        example_grads.flat.fill(0.0)
                        loss, grads = _example_loss_grads(sample, label_cache[idx], params,
                                                          model_cfg, 1.0 / len(chunk),
                                                          example_grads)
                        batch_loss += loss / len(chunk)
                        batch_grads.flat += grads.flat
                except UsageError as exc:
                    raise TrainingError(
                        f"epoch {epoch}, batch starting at sample {start}: "
                        f"samples {chunk}: {exc}"
                    ) from exc
                if not math.isfinite(batch_loss):
                    raise TrainingError(
                        f"epoch {epoch}, batch starting at sample {start}: "
                        f"loss diverged on samples {chunk}"
                    )
                losses.append(batch_loss)
                adam_step(params, batch_grads, opt, lr, clip_norm=train_cfg.grad_clip_norm)
                global_step += 1

            val = evaluate_cer(params, model_cfg, vocab, canon_val)
            entry = EpochMetrics(epoch, float(np.mean(losses)), val, lr, clock() - t0)
            metrics.append(entry)
            log.write(entry.row() + "\n")
            log.flush()
            if progress is not None:
                progress(entry)
            path = ckpt_dir / f"epoch_{epoch:03d}.ckpt"
            save_checkpoint(path, model_cfg, vocab, params)
            checkpoint_paths.append(path)
            if val < best_cer:  # strict: ties keep the earlier epoch
                best_cer, best_epoch = val, epoch

    best_path = ckpt_dir / "best.ckpt"
    best_bytes = checkpoint_paths[best_epoch - 1].read_bytes()
    write_atomically(best_path, lambda fh: fh.write(best_bytes))
    return TrainResult(params=params, best_epoch=best_epoch, best_val_cer=best_cer,
                       metrics=metrics, checkpoint_paths=checkpoint_paths,
                       best_path=best_path, metrics_path=metrics_path)
