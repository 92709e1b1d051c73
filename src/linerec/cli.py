"""Command-line surface: `linerec synth|train|eval|decode|verify`.

Configuration is a single JSON document with one section per module
(model/train/data/decode/paths); keys starting with an underscore are
treated as comments and ignored, everything else unknown is rejected.

Exit codes: 0 success, 1 verification or run failure, 2 I/O or path error,
3 configuration inconsistency, 4 invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DIRECTIONS,
    LineSample,
    SynthConfig,
    load_charset,
    load_manifest,
    make_dataset,
    preprocess,
    read_image,
    split_nine_to_one,
    synth_charset,
    write_charset,
    write_manifest,
)
from .decode import DecodeConfig, decode_image, greedy_decode
from .errors import ConfigError, ConfigSection, DataError, TrainingError, UsageError
from .lattice import (
    alignment_log_prob,
    enumerate_alignments,
    loss_and_logit_grad,
    random_lattice,
    remove_blanks,
    rnnt_alphabeta,
    rnnt_forward,
    rnnt_grad,
    rnnt_loss_brute,
)
from .model import ModelConfig, init_params, load_checkpoint, visual_encode
from .train import TrainConfig, evaluate_cer, train_run

SECTIONS = ("model", "train", "data", "decode", "paths")


def default_model_config() -> ModelConfig:
    """The scaled-down single-recurrent-layer setting; see configs/s1.json."""
    return ModelConfig(
        conv_blocks=[(8, 3, (2, 2)), (16, 3, (2, 2)), (32, 3, (8, 2))],
        recurrent_layers_visual=1,
        recurrent_layers_linguistic=1,
        hidden_size=64,
        embed_size=32,
        encoded_size=64,
        vocab_size=12,
        input_height=32,
    )


@dataclass
class RunPaths(ConfigSection):
    section = "paths"
    manifest: str | None = None
    val_manifest: str | None = None
    charset: str | None = None
    checkpoint: str | None = None
    out_dir: str | None = None

    def validate(self) -> None:
        if not all(v is None or isinstance(v, str) for v in self.to_dict().values()):
            raise ConfigError("every paths entry must be a string or null")


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    data: SynthConfig
    decode: DecodeConfig
    paths: RunPaths


def _strip_comments(obj):
    """Drop underscore-prefixed keys so presets can annotate themselves."""
    if isinstance(obj, dict):
        return {k: _strip_comments(v) for k, v in obj.items() if not k.startswith("_")}
    if isinstance(obj, list):
        return [_strip_comments(v) for v in obj]
    return obj


def load_run_config(path=None) -> RunConfig:
    """Parse and validate a config file; with no path, return the defaults."""
    raw = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise DataError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{p}: top level must be a JSON object")
        raw = _strip_comments(raw)
        unknown = set(raw) - set(SECTIONS)
        if unknown:
            raise ConfigError(f"{p}: unknown top-level sections {sorted(unknown)}")
    return RunConfig(
        model=ModelConfig.from_dict(raw["model"]) if "model" in raw
        else default_model_config(),
        train=TrainConfig.from_dict(raw.get("train", {})),
        data=SynthConfig.from_dict(raw.get("data", {})),
        decode=DecodeConfig.from_dict(raw.get("decode", {})),
        paths=RunPaths.from_dict(raw.get("paths", {})),
    )


# --- commands -----------------------------------------------------------------


def cmd_synth(cfg: RunConfig, seed: int, out_dir: str) -> int:
    cfg.data.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples = make_dataset(cfg.data, cfg.data.count, seed)
    train_split, val_split = split_nine_to_one(samples)
    write_charset(out / "charset.txt", synth_charset(cfg.data.charset_size))
    write_manifest(out / "train.tsv", train_split)
    write_manifest(out / "val.tsv", val_split)
    print(f"wrote {len(train_split)} training and {len(val_split)} validation "
          f"lines under {out}")
    return 0


def _require(value, what: str):
    if value is None:
        raise UsageError(f"{what} is required (set it in the config's paths "
                         f"section or pass the matching flag)")
    return value


def _load_vocab_checked(charset_path, model_cfg: ModelConfig):
    vocab = load_charset(charset_path)
    if vocab.size != model_cfg.vocab_size:
        raise ConfigError(
            f"charset {charset_path} has {vocab.size} symbols but the model "
            f"expects {model_cfg.vocab_size}"
        )
    return vocab


def cmd_train(cfg: RunConfig, seed, out_dir) -> int:
    train_cfg = cfg.train
    if seed is not None:
        train_cfg.seed = seed
    if out_dir is not None:
        train_cfg.checkpoint_dir = out_dir
    manifest = Path(_require(cfg.paths.manifest, "paths.manifest"))
    val_manifest = Path(_require(cfg.paths.val_manifest, "paths.val_manifest"))
    charset = Path(_require(cfg.paths.charset, "paths.charset"))
    for p in (manifest, val_manifest, charset):
        if not p.exists():
            raise DataError(f"missing input file: {p}")
    vocab = _load_vocab_checked(charset, cfg.model)
    train_samples = load_manifest(manifest, vocab)
    val_samples = load_manifest(val_manifest, vocab)
    result = train_run(
        cfg.model, train_cfg, cfg.data, vocab, train_samples, val_samples,
        progress=lambda m: print(f"epoch {m.epoch}: loss {m.mean_train_loss:.4f} "
                                 f"val_cer {m.val_cer:.4f} lr {m.lr:.6f}"),
    )
    print(f"best epoch {result.best_epoch} with validation CER "
          f"{result.best_val_cer * 100:.2f}%; checkpoints in {train_cfg.checkpoint_dir}")
    return 0


def _charset_consistency(vocab_config, vocab_ckpt, where: str):
    if vocab_config.symbols == vocab_ckpt.symbols:
        return
    for i, (a, b) in enumerate(zip(vocab_config.symbols, vocab_ckpt.symbols)):
        if a != b:
            raise ConfigError(
                f"charset mismatch at id {i + 1}: configured charset has {a!r}, "
                f"{where} has {b!r}"
            )
    raise ConfigError(
        f"charset length mismatch: configured charset has "
        f"{len(vocab_config.symbols)} symbols, {where} has {len(vocab_ckpt.symbols)}"
    )


def cmd_eval(cfg: RunConfig, checkpoint, manifest) -> int:
    ckpt_path = Path(_require(checkpoint or cfg.paths.checkpoint, "checkpoint"))
    manifest_path = Path(_require(
        manifest or cfg.paths.val_manifest or cfg.paths.manifest, "manifest"))
    for p in (ckpt_path, manifest_path):
        if not p.exists():
            raise DataError(f"missing input file: {p}")
    model_cfg, vocab, params = load_checkpoint(ckpt_path)
    if cfg.paths.charset is not None:
        _charset_consistency(load_charset(cfg.paths.charset), vocab, "the checkpoint")
    samples = load_manifest(manifest_path, vocab)
    rate = evaluate_cer(params, model_cfg, vocab, samples, cfg.decode)
    print(f"CER: {rate * 100:.2f}%")
    return 0


def cmd_decode(cfg: RunConfig, checkpoint, images, direction: str) -> int:
    ckpt_path = Path(_require(checkpoint or cfg.paths.checkpoint, "checkpoint"))
    if not ckpt_path.exists():
        raise DataError(f"missing checkpoint: {ckpt_path}")
    paths = [Path(p) for p in images]
    for p in paths:
        if not p.exists():
            raise DataError(f"missing image: {p}")
    model_cfg, vocab, params = load_checkpoint(ckpt_path)
    if cfg.paths.charset is not None:
        _charset_consistency(load_charset(cfg.paths.charset), vocab, "the checkpoint")
    for p in paths:
        sample = LineSample(read_image(p), "", direction)
        canon = preprocess(sample, model_cfg.input_height)
        print(decode_image(canon.image, vocab, params, model_cfg, cfg.decode))
    return 0


# --- verify: the built-in oracle suite -------------------------------------------


def _check_loss_vs_enumeration(rng, trials: int):
    worst = 0.0
    for _ in range(trials):
        t = int(rng.integers(1, 5))
        u = int(rng.integers(0, 4))
        k = int(rng.integers(1, 6))
        lat = random_lattice(rng, t, u, k)
        labels = tuple(int(x) for x in rng.integers(1, k + 1, size=u))
        got = rnnt_forward(lat, labels).log_prob
        want = rnnt_loss_brute(lat, labels)
        worst = max(worst, abs(got - want))
    return worst, 1e-9


def _check_gradient_fd(rng, trials: int, inject_fault: bool):
    worst = 0.0
    h = 1e-5
    for _ in range(max(1, trials // 10)):
        t, u, k = 3, 2, 3
        logits = rng.normal(size=(t, u + 1, k + 1))
        labels = tuple(int(x) for x in rng.integers(1, k + 1, size=u))
        _, grad = loss_and_logit_grad(logits, labels)
        if inject_fault:
            grad = grad.copy()
            grad.flat[0] += 1e-3
        numeric = np.zeros_like(logits)
        for idx in range(logits.size):
            probe = logits.copy()
            probe.flat[idx] += h
            up, _ = loss_and_logit_grad(probe, labels)
            probe.flat[idx] -= 2 * h
            down, _ = loss_and_logit_grad(probe, labels)
            numeric.flat[idx] = (up - down) / (2 * h)
        denom = max(np.max(np.abs(grad)), np.max(np.abs(numeric)), 1e-8)
        worst = max(worst, float(np.max(np.abs(grad - numeric)) / denom))
    return worst, 1e-6


def _check_antidiagonal_mass(rng, trials: int):
    worst = 0.0
    for _ in range(trials):
        t = int(rng.integers(1, 6))
        u = int(rng.integers(0, 4))
        k = int(rng.integers(1, 5))
        lat = random_lattice(rng, t, u, k)
        labels = tuple(int(x) for x in rng.integers(1, k + 1, size=u))
        tables = rnnt_alphabeta(lat, labels)
        gamma = -rnnt_grad(lat, labels, tables)
        for n in range(t + u):
            mass = sum(
                gamma[i, n - i].sum()
                for i in range(max(0, n - u), min(t - 1, n) + 1)
            )
            worst = max(worst, abs(mass - 1.0))
    return worst, 1e-9


def _check_alignment_counts(rng, trials: int):
    worst = 0
    for t in range(1, 5):
        for u in range(0, 4):
            labels = tuple(1 + (i % 2) for i in range(u))
            paths = enumerate_alignments(t, labels)
            want = math.comb(t + u - 1, u)
            worst = max(worst, abs(len(paths) - want))
            lat = random_lattice(rng, t, u, 3)
            for a in paths:
                alignment_log_prob(lat, labels, a)  # raises if invalid
                if remove_blanks(a) != labels:
                    worst = max(worst, 1)
    return float(worst), 0.5


def _check_greedy_bound(rng, trials: int):
    cfg = ModelConfig(
        conv_blocks=[(2, 3, (2, 2)), (2, 3, (2, 1))],
        recurrent_layers_visual=1,
        recurrent_layers_linguistic=1,
        hidden_size=3,
        embed_size=3,
        encoded_size=4,
        vocab_size=3,
        input_height=4,
    )
    worst = 0
    for i in range(max(1, trials // 4)):
        params = init_params(cfg, seed=int(rng.integers(0, 2**31)))
        image = rng.random((4, int(rng.integers(1, 40))))
        feats = visual_encode(image, params, cfg)
        out = greedy_decode(feats, params, cfg)
        worst = max(worst, len(out) - feats.shape[0])
    return float(worst), 0.5


def cmd_verify(trials: int, seed: int, inject_fault: bool) -> int:
    rng = np.random.default_rng(seed)
    checks = [
        ("loss_vs_enumeration", *_check_loss_vs_enumeration(rng, trials)),
        ("gradient_finite_difference", *_check_gradient_fd(rng, trials, inject_fault)),
        ("antidiagonal_mass", *_check_antidiagonal_mass(rng, trials)),
        ("alignment_counts", *_check_alignment_counts(rng, trials)),
        ("greedy_length_bound", *_check_greedy_bound(rng, trials)),
    ]
    failed = 0
    for name, worst, bound in checks:
        ok = worst < bound
        failed += not ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} (worst error {worst:.3e}, "
              f"bound {bound:.0e})")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


# --- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for I/O
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="linerec",
                description="Text-line recognition: synthesize data, train, "
                            "evaluate, decode, verify.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    p.add_argument("--config", metavar="PATH", help="JSON run configuration")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.add_argument("--out", metavar="DIR", default=None, help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate a synthetic dataset (images, manifests, charset)")
    sub.add_parser("train", help="train from the configured manifests")
    e = sub.add_parser("eval", help="report corpus CER of a checkpoint on a manifest")
    e.add_argument("--checkpoint", metavar="PATH")
    e.add_argument("--manifest", metavar="PATH")
    d = sub.add_parser("decode", help="print one transcript per image")
    d.add_argument("--checkpoint", metavar="PATH")
    d.add_argument("--direction", choices=list(DIRECTIONS), default="horizontal")
    d.add_argument("images", nargs="+", metavar="IMAGE")
    v = sub.add_parser("verify", help="run the built-in oracle suite")
    v.add_argument("--trials", type=int, default=60)
    v.add_argument("--inject-fault", action="store_true",
                   help="perturb a gradient to prove the checks can fail")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_run_config(args.config)
        if args.command == "synth":
            seed = args.seed if args.seed is not None else cfg.train.seed
            out = args.out or cfg.paths.out_dir or "synth_out"
            return cmd_synth(cfg, seed, out)
        if args.command == "train":
            return cmd_train(cfg, args.seed, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.manifest)
        if args.command == "decode":
            return cmd_decode(cfg, args.checkpoint, args.images, args.direction)
        if args.command == "verify":
            seed = args.seed if args.seed is not None else 0
            return cmd_verify(args.trials, seed, args.inject_fault)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
