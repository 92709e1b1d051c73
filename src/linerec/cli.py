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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, oracles
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
from .decode import DecodeConfig, decode_image
from .errors import ConfigError, ConfigSection, DataError, TrainingError, UsageError, check_same
from .lattice import loss_and_logit_grad
from .model import ModelConfig, load_checkpoint
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
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
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


def cmd_train(cfg: RunConfig, seed, out_dir) -> int:
    train_cfg = cfg.train
    if seed is not None:
        train_cfg.seed = seed
    if out_dir is not None:
        train_cfg.checkpoint_dir = out_dir
    manifest = _require(cfg.paths.manifest, "paths.manifest")
    val_manifest = _require(cfg.paths.val_manifest, "paths.val_manifest")
    charset = _require(cfg.paths.charset, "paths.charset")
    vocab = load_charset(charset)
    cfg.model.check_vocab(vocab, f"charset {charset}")
    train_samples = load_manifest(manifest, vocab)
    val_samples = load_manifest(val_manifest, vocab)
    result = train_run(
        cfg.model, train_cfg, cfg.data, vocab, train_samples, val_samples,
        progress=lambda m: print(f"epoch {m.epoch}: loss {m.mean_train_loss:.4f} "
                                 f"val_cer {m.val_cer:.4f} lr {m.lr:.6f}"),
        decode_cfg=cfg.decode,
    )
    print(f"best epoch {result.best_epoch} with validation CER "
          f"{result.best_val_cer * 100:.2f}%; checkpoints in {train_cfg.checkpoint_dir}")
    return 0


def _load_model(cfg: RunConfig, checkpoint):
    """The checkpoint's (config, vocab, params); its charset must be the configured one."""
    model_cfg, vocab, params = load_checkpoint(
        _require(checkpoint or cfg.paths.checkpoint, "checkpoint"))
    if cfg.paths.charset is not None:
        check_same(load_charset(cfg.paths.charset).symbols, vocab.symbols,
                   f"charset {cfg.paths.charset} differs from the checkpoint's")
    return model_cfg, vocab, params


def cmd_eval(cfg: RunConfig, checkpoint, manifest) -> int:
    manifest_path = _require(manifest or cfg.paths.val_manifest or cfg.paths.manifest,
                             "manifest")
    model_cfg, vocab, params = _load_model(cfg, checkpoint)
    samples = load_manifest(manifest_path, vocab)
    rate = evaluate_cer(params, model_cfg, vocab, samples, cfg.decode)
    print(f"CER: {rate * 100:.2f}%")
    return 0


def cmd_decode(cfg: RunConfig, checkpoint, images, direction: str) -> int:
    pixels = [read_image(p) for p in images]  # up front, so a bad image prints no transcript
    model_cfg, vocab, params = _load_model(cfg, checkpoint)
    for image in pixels:
        canon = preprocess(LineSample(image, "", direction), model_cfg.input_height)
        print(decode_image(canon.image, vocab, params, model_cfg, cfg.decode))
    return 0


# --- verify: the built-in oracle suite -------------------------------------------


def _faulty_loss_and_logit_grad(logits, labels):
    """loss_and_logit_grad with one gradient entry off by 1e-3."""
    loss, grad = loss_and_logit_grad(logits, labels)
    grad.flat[0] += 1e-3
    return loss, grad


def cmd_verify(trials: int, seed: int, inject_fault: bool) -> int:
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)

    def shapes(n, t_stop, u_stop, k_stop):
        return ((int(rng.integers(1, t_stop)), int(rng.integers(0, u_stop)),
                 int(rng.integers(1, k_stop))) for _ in range(n))

    loss_grad = _faulty_loss_and_logit_grad if inject_fault else loss_and_logit_grad
    counted = [(t, tuple(1 + i % 2 for i in range(u))) for t in range(1, 5) for u in range(4)]
    checks = [
        ("loss_vs_enumeration", oracles.loss_vs_enumeration(rng, shapes(trials, 5, 4, 6)), 1e-9),
        ("gradient_finite_difference",
         oracles.logit_gradient_error(rng, [(3, 2, 3)] * max(1, trials // 10), loss_grad), 1e-6),
        ("antidiagonal_mass", oracles.antidiagonal_mass_error(rng, shapes(trials, 6, 4, 5)), 1e-9),
        ("alignment_counts", oracles.alignment_count_error(counted), 0.5),
        ("greedy_length_bound", oracles.greedy_length_excess(rng, max(1, trials // 4)), 0.5),
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
        if args.seed is not None and args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
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
