"""The benchmark's workloads and the metrics they report.

Every workload is one closed-loop, single-process session of a linerec user:
it trains with `train.train_run` and decodes PGM lines with the committed s1
checkpoint the way `linerec decode` does (`read_image` -> `preprocess` ->
`decode_image`). Each operation starts only after the previous one ended.
Every workload reports every end-to-end metric, so each one does both, in
turns, for a fixed share of the time. The workloads differ in line length:

- train-short: 1-8 glyph lines, K=12, batch 16; half training, half
  decoding. The distribution of acceptance criterion 6, which CI and the
  README train on: per-call overhead and the conv stack dominate. Its
  decoding runs forward only (no backward caches, lattice or optimizer), so
  a training-side change that costs inference shows in its decode metrics.
- train-long: 50-70 glyph lines, K=80, batch 16; mostly training. Real lines
  are this long and real charsets this large: the lattice DP, the
  per-timestep LSTM loops and the (T, U+1, K+1) joint dominate.

Inputs are a pure function of the workload seed. Glyph counts sweep each
range evenly rather than at random, so every seed trains and decodes the same
mix of line lengths and only glyphs, spacing and placement vary; that keeps
the lattice sizes, and with them the timings, comparable between seeds.
Decoded lines carry twice the training augmentation, which gives the
committed model about 11% CER on short lines: enough errors per run for the
CER to be steady between seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

import bootstrap
import stats
import tracing
from linerec import cli, data, decode, model, train
from linerec.data import LineSample
from linerec.lattice import Vocab

CONFIG_DIR = bootstrap.BENCH_DIR / "configs"
REFERENCE_DIR = bootstrap.BENCH_DIR / "reference"
DECODE_CHECKPOINT = REFERENCE_DIR / "decode_s1.ckpt"
DECODE_CHECKPOINT_SHA = REFERENCE_DIR / "decode_s1.ckpt.sha256"
REFERENCES = REFERENCE_DIR / "references.json"
WORK_DIR_NAME = ".bench_work"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_DECODE_SAMPLES = 200  # so that p95 has ten samples beyond it
DECODE_DISTORTION = 2.0  # augment strength of decoded lines; training uses 1.0
LOSS_RTOL = 1e-6  # float reassociation in a faster kernel stays far inside this

# Output checks use the untraced functions even while a traced run has
# rebound the module attributes.
_load_checkpoint = model.load_checkpoint
_save_checkpoint = model.save_checkpoint


@dataclass(frozen=True)
class Workload:
    datasets: int  # training datasets in one pass, one train_run call each
    train_lines: int  # training lines per dataset
    val_lines: int  # validation lines per dataset
    decode_glyphs: tuple  # (fewest, most) glyphs on a decoded line
    decode_lines: int  # lines in one decode pass
    train_share: float  # share of --seconds spent training; the rest decodes


WORKLOADS = {
    "train-short": Workload(8, 48, 16, (1, 8), 1200, 0.5),
    "train-long": Workload(2, 16, 2, (50, 70), 100, 0.6),
}

END_TO_END = {
    "setup_s": "s",
    "train_lines_per_s": "1/s",
    "train_loss": "nats",
    "decode_lines_per_s": "1/s",
    "decode_ms_p50": "ms",
    "decode_ms_p95": "ms",
    "decode_cer": "fraction",
    "peak_rss_mib": "MiB",
    "success_frac": "fraction",
}

CONV_SPANS = ("conv2d", "conv2d_backward", "channel_norm", "channel_norm_backward",
              "maxpool2d", "maxpool2d_backward")
SPANS = (
    # numerics
    *(f"{s}.b{i}" for s in CONV_SPANS for i in range(3)),
    "lstm_step_cached.visual", "lstm_step_cached.linguistic",
    "lstm_step_backward.visual", "lstm_step_backward.linguistic", "lstm_step",
    "log_softmax", "log_softmax_backward", "affine_forward", "affine_backward",
    # model
    "visual_encode_cached", "linguistic_encode_cached", "visual_backward",
    "linguistic_backward", "forward_lattice", "backward_pass", "joint",
    "linguistic_step", "save_checkpoint", "load_checkpoint",
    # lattice
    "rnnt_alphabeta", "rnnt_grad",
    # decode
    "greedy_decode", "decode_image",
    # data
    "augment", "preprocess", "read_image",
    # train
    "train_run", "adam_step", "evaluate_cer", "step",
)
COUNTS = {"lattice.nodes": "count", "lattice.ns_per_node": "ns",
          "decode.frames": "count", "decode.emissions": "count"}
TRACE_COST = ("trace.untraced_ms_per_line", "trace.traced_ms_per_line",
              "trace.overhead_ms_per_line")


def per_layer_units() -> dict:
    units = {}
    for s in SPANS:
        units[f"{s}.calls"] = "count"
        units[f"{s}.self_ms_per_line"] = "ms"
    units.update(COUNTS)
    units.update({name: "ms" for name in TRACE_COST})
    return units


class BenchError(Exception):
    """The benchmark's own inputs are missing or inconsistent."""


# --- inputs -----------------------------------------------------------------------


def derived_seed(*path: int) -> int:
    return int(np.random.SeedSequence(path).generate_state(1)[0])


def synth_lines(cfg: data.SynthConfig, count: int, distortion: float, seed_path: tuple):
    """``count`` lines whose glyph counts sweep [length_min, length_max] evenly."""
    span = cfg.length_max - cfg.length_min + 1
    lines = []
    for i in range(count):
        glyphs = cfg.length_min + i * span // count
        line = data.render_synthetic_line(
            replace(cfg, length_min=glyphs, length_max=glyphs), derived_seed(*seed_path, i))
        if distortion:
            line = data.augment(line, cfg, distortion, derived_seed(*seed_path, i, 1))
        lines.append(line)
    return lines


@dataclass
class Prepared:
    cfg: cli.RunConfig
    vocab: Vocab  # training charset
    datasets: list  # [(training lines, validation lines)]
    decode_model: tuple  # (ModelConfig, Vocab, ModelParams) of the committed checkpoint
    decode_paths: list  # one PGM file per decoded line
    decode_truth: list  # their transcripts


def setup(name: str, seed: int, work) -> Prepared:
    """Parses the workload's config, makes its inputs from the seed, verifies
    and loads the committed checkpoint, and writes the lines to decode."""
    w = WORKLOADS[name]
    cfg = cli.load_run_config(CONFIG_DIR / f"{name}.json")
    s1 = replace(cli.default_model_config(), vocab_size=cfg.data.charset_size)
    if cfg.model != s1:
        raise BenchError(f"{name}: the configured model is not the s1 preset")
    tag = zlib.crc32(name.encode())
    datasets = [(synth_lines(cfg.data, w.train_lines, 0.0, (seed, tag, 0, j)),
                 synth_lines(cfg.data, w.val_lines, 0.0, (seed, tag, 1, j)))
                for j in range(w.datasets)]

    ckpt = bootstrap.ROOT / cfg.paths.checkpoint
    want = DECODE_CHECKPOINT_SHA.read_text(encoding="ascii").split()[0]
    if hashlib.sha256(ckpt.read_bytes()).hexdigest() != want:
        raise BenchError(f"{ckpt} does not match its recorded SHA-256")
    decode_model = model.load_checkpoint(ckpt)
    mcfg, mvocab, _ = decode_model
    if mvocab != data.synth_charset(mvocab.size) or mcfg.conv_blocks != s1.conv_blocks:
        raise BenchError(f"{ckpt} is not an s1 model over the synthetic charset")
    line_cfg = replace(cfg.data, charset_size=mvocab.size, length_min=w.decode_glyphs[0],
                       length_max=w.decode_glyphs[1])
    lines = synth_lines(line_cfg, w.decode_lines, DECODE_DISTORTION, (seed, tag, 2))
    folder = work / "decode"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, line in enumerate(lines):
        paths.append(folder / f"{i:05d}.pgm")
        data.write_image(paths[-1], line.image)
    return Prepared(cfg, data.synth_charset(cfg.data.charset_size), datasets, decode_model,
                    paths, [line.transcript for line in lines])


def parameter_count(params) -> int:
    return sum(a.size for _, a in model.named_arrays(params))


# --- operations and their output checks --------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def check_training(result, prep: Prepared, scratch, first_loss, ref_loss) -> list:
    """A finite loss that repeats bitwise (and matches the reference at the
    default seed), and epoch checkpoints that load back byte for byte, the
    last one holding the final weights."""
    problems = []
    loss = result.metrics[-1].mean_train_loss
    if not math.isfinite(loss):
        problems.append(f"train_loss {loss} is not finite")
    if first_loss is not None and loss != first_loss:
        problems.append(f"train_loss {loss!r} differs from the first pass's {first_loss!r}")
    if ref_loss is not None and not math.isclose(loss, ref_loss, rel_tol=LOSS_RTOL):
        problems.append(f"train_loss {loss!r} is not the reference {ref_loss!r}")
    again = scratch / "reloaded.ckpt"
    for path in result.checkpoint_paths:
        try:
            _save_checkpoint(again, *_load_checkpoint(path))
        except Exception as exc:  # a checkpoint that does not load is a failed operation
            problems.append(f"{path.name} does not load back: {exc!r}")
            continue
        if again.read_bytes() != path.read_bytes():
            problems.append(f"{path.name} does not round-trip through load_checkpoint")
    _save_checkpoint(again, prep.cfg.model, prep.vocab, result.params)
    if again.read_bytes() != result.checkpoint_paths[-1].read_bytes():
        problems.append("the last epoch checkpoint does not hold the final weights")
    return problems


@dataclass
class Report:
    tally: Tally
    metrics: dict  # name -> (value, unit)
    info: dict
    tracer: tracing.Tracer | None = None  # set by a traced run

    @property
    def correct(self) -> bool:
        return self.tally.attempted > 0 and self.tally.failed == 0


class Session:
    """One run of one workload at one seed."""

    def __init__(self, name: str, seed: int, work, refs: dict | None):
        self.name, self.seed, self.work = name, seed, work
        self.w = WORKLOADS[name]
        self.refs = refs  # this workload's entry of references.json, None to record it
        self.at_default = refs is not None and seed == DEFAULT_SEED
        self.tally = Tally()
        self.prep: Prepared | None = None
        self.losses: dict = {}  # dataset -> train_loss of its first train_run
        self.hyps: dict = {}  # decoded line -> hypothesis of its first decode

    # operations: each returns its own duration, checks its outputs outside it

    def set_up(self) -> float:
        start = time.perf_counter()
        self.prep = setup(self.name, self.seed, self.work)
        seconds = time.perf_counter() - start
        self.tally.record("setup", [])
        return seconds

    def train_op(self, j: int) -> float:
        train_lines, val_lines = self.prep.datasets[j]
        ckpt_dir = self.work / f"train{j}"
        tcfg = replace(self.prep.cfg.train, checkpoint_dir=str(ckpt_dir))
        what = f"train_run on dataset {j}"
        start = time.perf_counter()
        try:
            result = train.train_run(self.prep.cfg.model, tcfg, self.prep.cfg.data,
                                     self.prep.vocab, train_lines, val_lines)
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.tally.record(what, [repr(exc)])
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        ref = self.refs["train_losses"][j] if self.at_default else None
        self.tally.record(what, check_training(result, self.prep, self.work,
                                               self.losses.get(j), ref))
        self.losses.setdefault(j, result.metrics[-1].mean_train_loss)
        return seconds

    def decode_op(self, i: int) -> float:
        mcfg, vocab, params = self.prep.decode_model
        what = f"decode of line {i}"
        start = time.perf_counter()
        try:
            image = data.read_image(self.prep.decode_paths[i])
            canon = data.preprocess(LineSample(image, "", "horizontal"), mcfg.input_height)
            hyp = decode.decode_image(canon.image, vocab, params, mcfg, self.prep.cfg.decode)
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.tally.record(what, [repr(exc)])
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        problems = []
        first = self.hyps.setdefault(i, hyp)
        if hyp != first:
            problems.append(f"{hyp!r} differs from the first pass's {first!r}")
        if self.at_default and hyp != self.refs["hypotheses"][i]:
            problems.append(f"{hyp!r} is not the reference {self.refs['hypotheses'][i]!r}")
        self.tally.record(what, problems)
        return seconds

    def decode_cer(self) -> float:
        """CER of the first decode pass, checked against the references."""
        pairs = [(self.hyps.get(i, ""), truth) for i, truth in enumerate(self.prep.decode_truth)]
        cer = train.corpus_cer(pairs)
        problems = []
        if self.refs is not None and not cer <= self.refs["decode_cer_ceiling"]:
            problems.append(f"{cer} exceeds the recorded ceiling {self.refs['decode_cer_ceiling']}")
        if self.at_default and cer != self.refs["decode_cer"]:
            problems.append(f"{cer!r} is not the reference {self.refs['decode_cer']!r}")
        self.tally.record("decode_cer", problems)
        return cer

    def warm_up(self) -> None:
        """First calls pay for lazy initialisation; keep that out of the timings."""
        tr, va = self.prep.datasets[0]
        tcfg = replace(self.prep.cfg.train, epochs=1, warmup_epochs=0,
                       checkpoint_dir=str(self.work / "warm"))
        train.train_run(self.prep.cfg.model, tcfg, self.prep.cfg.data, self.prep.vocab,
                        tr[:2], va[:1])
        mcfg, vocab, params = self.prep.decode_model
        image = data.read_image(self.prep.decode_paths[0])
        canon = data.preprocess(LineSample(image, "", "horizontal"), mcfg.input_height)
        decode.decode_image(canon.image, vocab, params, mcfg, self.prep.cfg.decode)

    # one pass over every input, as in a traced run and in make_reference.py

    def one_pass(self) -> float:
        w = self.w
        return (sum(self.train_op(j) for j in range(w.datasets))
                + sum(self.decode_op(i) for i in range(w.decode_lines)))

    def lines_per_pass(self) -> int:
        w = self.w
        return w.datasets * w.train_lines * self.prep.cfg.train.epochs + w.decode_lines

    # the two kinds of run

    def interleaved(self, seconds: float, setup_s: list):
        """Trains and decodes in turns, each for its share of the time, until
        each has done its minimum and the next operation would end past
        ``seconds``; repeats the set-up at evenly spaced times. Spreading every
        metric's samples over the whole run lets the slow and fast spells of a
        shared machine weigh on all of them alike."""
        w = self.w
        train_s, decode_s = [], []
        train_total = decode_total = 0.0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(setup_s) < SETUP_REPEATS and elapsed >= seconds * len(setup_s) / SETUP_REPEATS:
                setup_s.append(self.set_up())
                continue
            train_next = train_total * (1 - w.train_share) <= decode_total * w.train_share
            train_due = len(train_s) < w.datasets
            decode_due = len(decode_s) < max(w.decode_lines, MIN_DECODE_SAMPLES)
            if not (train_due or decode_due):
                mean = train_total / len(train_s) if train_next else decode_total / len(decode_s)
                if elapsed + mean > seconds:
                    return train_s, decode_s
            elif elapsed >= seconds:
                train_next = train_due
            if train_next:
                train_s.append(self.train_op(len(train_s) % w.datasets))
                train_total += train_s[-1]
            else:
                decode_s.append(self.decode_op(len(decode_s) % w.decode_lines))
                decode_total += decode_s[-1]

    def measure(self, seconds: float, trace: bool) -> Report:
        try:
            setup_s = [self.set_up()]
        except Exception as exc:  # e.g. a checkpoint that no longer loads
            self.tally.record("setup", [repr(exc)])
            return Report(self.tally, {}, {})
        self.warm_up()
        info = {"parameters": {
            "training": parameter_count(model.init_params(self.prep.cfg.model, 0)),
            "decoding": parameter_count(self.prep.decode_model[2])}}
        if trace:
            return self.traced(info)
        train_s, decode_s = self.interleaved(seconds, setup_s)
        cer = self.decode_cer()
        line_steps = self.w.train_lines * self.prep.cfg.train.epochs
        top = stats.highest_percentile(len(decode_s))
        info.update(train_calls=len(train_s), decode_samples=len(decode_s),
                    decode_highest_percentile=top)
        if top is not None:
            info["decode_ms_at_highest"] = 1000 * stats.percentile(decode_s, top)
        values = {
            "setup_s": statistics.median(setup_s),
            "train_lines_per_s": statistics.median([line_steps / s for s in train_s]),
            "train_loss": sum(self.losses.values()) / max(1, len(self.losses)),
            "decode_lines_per_s": len(decode_s) / sum(decode_s),
            "decode_ms_p50": 1000 * statistics.median(decode_s),
            "decode_ms_p95": 1000 * stats.percentile(decode_s, "95"),
            "decode_cer": cer,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_frac": 1 - self.tally.failed / self.tally.attempted,
        }
        return Report(self.tally, {k: (v, END_TO_END[k]) for k, v in values.items()}, info)

    def traced(self, info: dict) -> Report:
        """One untraced pass, then a traced set-up and pass over the same inputs."""
        lines = self.lines_per_pass()
        untraced = self.one_pass()
        tracer = tracing.Tracer(f"{self.name}-s{self.seed}-{os.getpid()}-{time.time_ns()}")
        install(tracer, self.prep.cfg.model)
        try:
            self.set_up()
            traced = self.one_pass()
        finally:
            tracer.restore()
        self.decode_cer()
        values = per_layer(tracer, lines)
        values["trace.untraced_ms_per_line"] = 1000 * untraced / lines
        values["trace.traced_ms_per_line"] = 1000 * traced / lines
        values["trace.overhead_ms_per_line"] = 1000 * (traced - untraced) / lines
        units = per_layer_units()
        info["lines_per_pass"] = lines
        return Report(self.tally, {k: (v, units[k]) for k, v in values.items()}, info, tracer)


def run(name: str, seed: int, seconds: float, trace: bool, refs: dict | None) -> Report:
    work = bootstrap.ROOT / WORK_DIR_NAME / f"{name}-s{seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return Session(name, seed, work, refs).measure(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


# --- tracing ------------------------------------------------------------------------

ENCODER_OF = {"visual_encode_cached": "visual", "visual_backward": "visual",
              "linguistic_encode_cached": "linguistic", "linguistic_backward": "linguistic"}
CHANNELS_OF = {  # where each conv-block function finds its block's channel count
    "conv2d": lambda a: a[1].shape[0],
    "conv2d_backward": lambda a: a[2].shape[0],
    "channel_norm": lambda a: a[1].shape[0],
    "channel_norm_backward": lambda a: a[2].shape[0],
    "maxpool2d": lambda a: a[0].shape[0],
    "maxpool2d_backward": lambda a: a[2][0],
}


def _block_namer(name: str, block_of: dict):
    def namer(tracer, args):
        try:
            return f"{name}.b{block_of[CHANNELS_OF[name](args)]}"
        except (IndexError, KeyError, AttributeError, TypeError):
            return name
    return namer


def _encoder_namer(name: str):
    return lambda tracer, args: f"{name}.{ENCODER_OF.get(tracer.parent_name(), 'other')}"


def _count_nodes(counts, args, result) -> None:
    counts["lattice.nodes"] += args[0].shape[0] * args[0].shape[1]


def _count_decode(counts, args, result) -> None:
    counts["decode.frames"] += len(args[0])
    counts["decode.emissions"] += len(result)


def install(tracer: tracing.Tracer, model_cfg) -> None:
    """Rebinds, in each calling module, the names of the functions it calls."""
    # the s1 blocks have distinct widths (8, 16, 32), which identify the block
    block_of = {blk[0]: i for i, blk in enumerate(model_cfg.conv_blocks)}
    for name in CONV_SPANS:
        tracer.patch(model, name, namer=_block_namer(name, block_of))
    for name in ("lstm_step_cached", "lstm_step_backward"):
        tracer.patch(model, name, namer=_encoder_namer(name))
    for name in ("lstm_step", "log_softmax", "log_softmax_backward", "affine_forward",
                 "affine_backward", "visual_encode_cached", "linguistic_encode_cached",
                 "load_checkpoint"):
        tracer.patch(model, name)
    # private, but the only spans that tell visual from linguistic backward work
    tracer.patch(model, "_visual_backward", "visual_backward")
    tracer.patch(model, "_linguistic_backward", "linguistic_backward")
    tracer.patch(train, "rnnt_alphabeta", counter=_count_nodes)
    for name in ("rnnt_grad", "forward_lattice", "backward_pass", "save_checkpoint",
                 "augment", "preprocess", "adam_step", "evaluate_cer", "decode_image",
                 "train_run"):
        tracer.patch(train, name)
    tracer.patch(decode, "greedy_decode", counter=_count_decode)
    for name in ("joint", "linguistic_step", "decode_image"):
        tracer.patch(decode, name)
    for name in ("read_image", "preprocess"):
        tracer.patch(data, name)


def per_layer(tracer: tracing.Tracer, lines: int) -> dict:
    calls, self_s = tracing.totals_by_name(tracer.spans)
    steps = tracing.intervals_between_ends(tracer.spans, "adam_step", "train_run")
    calls["step"], self_s["step"] = len(steps), sum(steps)
    values = {}
    for s in SPANS:
        values[f"{s}.calls"] = calls[s]
        values[f"{s}.self_ms_per_line"] = 1000 * self_s[s] / lines
    nodes = tracer.counts["lattice.nodes"]
    lattice_s = sum(s.end - s.start for s in tracer.spans
                    if s.name in ("rnnt_alphabeta", "rnnt_grad"))
    values["lattice.nodes"] = nodes
    values["lattice.ns_per_node"] = 1e9 * lattice_s / nodes if nodes else 0.0
    values["decode.frames"] = tracer.counts["decode.frames"]
    values["decode.emissions"] = tracer.counts["decode.emissions"]
    return values


# --- references ---------------------------------------------------------------------

CEILING_SEEDS = 5
CEILING_FACTOR = 1.5


def reference_outputs(name: str) -> dict:
    """First-pass outputs at the default seed, and a CER ceiling for every
    seed: CEILING_FACTOR times the worst CER over seeds 0..CEILING_SEEDS-1."""
    work = bootstrap.ROOT / WORK_DIR_NAME / f"reference-{name}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cers = []
        for seed in range(CEILING_SEEDS):
            s = Session(name, seed, work, None)
            s.set_up()
            if seed == DEFAULT_SEED:
                s.one_pass()
                default = s
            else:
                for i in range(s.w.decode_lines):
                    s.decode_op(i)
            cers.append(s.decode_cer())
            if s.tally.failed:
                raise BenchError(f"{name} seed {seed}: {s.tally.problems}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    losses = [default.losses[j] for j in range(default.w.datasets)]
    return {"train_losses": losses, "train_loss": sum(losses) / len(losses),
            "decode_cer": cers[0], "decode_cer_ceiling": CEILING_FACTOR * max(cers),
            "hypotheses": [default.hyps[i] for i in range(default.w.decode_lines)]}
