"""Prints one SHA-256 per area of the package's numerical outputs, computed on
fixed seeds, so that two source trees can be compared bit for bit:

    PYTHONPATH=<tree>/src python tests/fingerprint.py

Areas:

- training: the loss and every parameter gradient of forward_lattice ->
  rnnt_alphabeta -> rnnt_grad -> backward_pass, on s1 lines at K=12 (1-8
  glyphs) and K=80 (50-70 glyphs), from freshly initialised parameters;
- training_batch: the final parameter buffer and the mean loss of one
  train_run epoch over s1 K=12 lines in batches of several lines, which
  sees the order in which a batch's gradients are summed;
- features and hypotheses: visual_encode features and decode_image
  transcripts, under both search modes, of bench/reference/decode_s1.ckpt
  on distorted synthetic lines: two long ones cropped to widths 1, 8, 50,
  300 and 1160, and whole 1-8 glyph lines like those it was trained on;
- lattice: loss_and_logit_grad, and rnnt_alphabeta's alpha and beta tables,
  on random lattices;
- checkpoint: the bytes of a checkpoint saved after two Adam steps.

Two lines follow the digests. blas_threads is the thread count of the
OpenBLAS bundled with numpy, asked of the library as bench/envinfo.py asks
it: the training digests depend on it, so quote them with it (run with
OPENBLAS_NUM_THREADS=1 to compare trees on any machine). The last line,
src_lines, counts the lines of the tree's linerec package the way
bench/envinfo.py does: the sum of splitlines() over src/linerec/*.py.

It calls only long-standing public functions with their long-standing
signatures, so the same script runs against an older tree. The full case set
takes a few seconds; digests(reduced=True) is a smaller one for the tests.
"""

from __future__ import annotations

import ctypes
import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import linerec
from linerec.cli import default_model_config
from linerec.data import (
    SynthConfig,
    augment,
    make_dataset,
    preprocess,
    render_synthetic_line,
    synth_charset,
)
from linerec.decode import MODES, DecodeConfig, decode_image
from linerec.lattice import loss_and_logit_grad, node_log_probs, rnnt_alphabeta, rnnt_grad
from linerec.model import (
    backward_pass,
    forward_lattice,
    init_params,
    load_checkpoint,
    save_checkpoint,
    visual_encode,
    zero_grads_shell,
)
from linerec.train import TrainConfig, adam_step, init_opt_state, train_run

DECODE_CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "reference" / "decode_s1.ckpt"

AREAS = ("training", "training_batch", "features", "hypotheses", "lattice", "checkpoint")
# K: ((fewest, most) glyphs, training lines); (batch-trained lines, batch size); crop
# widths; short decoded lines; lattices
FULL = ({12: ((1, 8), 16), 80: ((50, 70), 6)}, (32, 8), (1, 8, 50, 300, 1160), 40, 100)
REDUCED = ({12: ((1, 8), 2), 80: ((50, 70), 1)}, (4, 2), (1, 50), 2, 6)


def _s1(k: int):
    return replace(default_model_config(), vocab_size=k)


def _line(k: int, glyphs: tuple, seed: int, height: int, distortion: float = 0.0):
    """A preprocessed synthetic line, augmented at ``distortion`` (0: as drawn)."""
    synth = SynthConfig(charset_size=k, length_min=glyphs[0], length_max=glyphs[1])
    return preprocess(augment(render_synthetic_line(synth, seed), synth, distortion, seed), height)


def _example_grads(line, vocab, params, cfg):
    """(loss, gradient ModelParams) of one line, by training's kernels."""
    tables, cache = forward_lattice(line.image, vocab.encode(line.transcript), params, cfg)
    alpha_beta = rnnt_alphabeta(*tables)
    grads = backward_pass(rnnt_grad(alpha_beta), cache, params, cfg, zero_grads_shell(params))
    return -alpha_beta.log_prob, grads


def training(lines: dict) -> str:
    h = hashlib.sha256()
    for k, (glyphs, count) in lines.items():
        cfg = _s1(k)
        params = init_params(cfg, seed=k)
        for i in range(count):
            line = _line(k, glyphs, 1000 * k + i, cfg.input_height)
            loss, grads = _example_grads(line, synth_charset(k), params, cfg)
            h.update(np.float64(loss).tobytes())
            h.update(grads.flat.tobytes())
    return h.hexdigest()


def training_batch(lines: int, batch_size: int) -> str:
    """One train_run epoch over ``lines`` s1 K=12 lines of 1-8 glyphs."""
    synth = SynthConfig(charset_size=12, length_min=1, length_max=8)
    with tempfile.TemporaryDirectory() as tmp:
        train_cfg = TrainConfig(batch_size=batch_size, epochs=1, warmup_epochs=0, seed=7,
                                checkpoint_dir=tmp)
        result = train_run(_s1(12), train_cfg, synth, synth_charset(12),
                           make_dataset(synth, lines, seed=21), make_dataset(synth, 2, seed=22))
    h = hashlib.sha256(np.float64(result.metrics[0].mean_train_loss).tobytes())
    h.update(result.params.flat.tobytes())
    return h.hexdigest()


def decoding(widths, short_lines: int) -> tuple[str, str]:
    """(features digest, hypotheses digest) of the committed s1 checkpoint."""
    cfg, vocab, params = load_checkpoint(DECODE_CHECKPOINT)
    k, height = vocab.size, cfg.input_height
    images = [np.ascontiguousarray(_line(k, (70, 70), seed, height, 2.0).image[:, :width])
              for seed in (1, 2) for width in widths]
    images += [_line(k, (1, 8), 100 + i, height, 2.0).image for i in range(short_lines)]
    feats, hyps = hashlib.sha256(), hashlib.sha256()
    for image in images:
        feats.update(visual_encode(image, params, cfg).tobytes())
        for mode in MODES:
            text = decode_image(image, vocab, params, cfg, DecodeConfig(mode=mode))
            hyps.update(text.encode("utf-8") + b"\n")
    return feats.hexdigest(), hyps.hexdigest()


def lattices(count: int) -> str:
    rng = np.random.default_rng(11)
    h = hashlib.sha256()
    for _ in range(count):
        t, u, k = int(rng.integers(1, 40)), int(rng.integers(0, 15)), int(rng.integers(1, 90))
        logits = rng.normal(scale=3.0, size=(t, u + 1, k + 1))
        labels = rng.integers(1, k + 1, size=u)
        loss, grad = loss_and_logit_grad(logits, labels.tolist())
        tables = rnnt_alphabeta(*node_log_probs(logits, labels)[:2])
        h.update(np.float64(loss).tobytes())
        h.update(grad.tobytes())
        h.update(tables.alpha.tobytes())
        h.update(tables.beta.tobytes())
    return h.hexdigest()


def checkpoint() -> str:
    cfg = _s1(12)
    params = init_params(cfg, seed=5)
    opt = init_opt_state(params)
    for step in range(2):
        line = _line(12, (3, 6), step, cfg.input_height)
        adam_step(params, _example_grads(line, synth_charset(12), params, cfg)[1], opt, lr=1e-3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, cfg, synth_charset(12), params)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(reduced: bool = False) -> dict:
    """{area: SHA-256 hex digest} over the full or the reduced case set."""
    lines, batch, widths, short_lines, count = REDUCED if reduced else FULL
    feats, hyps = decoding(widths, short_lines)
    return {"training": training(lines), "training_batch": training_batch(*batch),
            "features": feats, "hypotheses": hyps, "lattice": lattices(count),
            "checkpoint": checkpoint()}


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None where numpy
    bundles none, by bench/envinfo.py's query."""
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype, query.argtypes = ctypes.c_int, []
                return query()
    return None


def src_lines() -> int:
    """Lines of the imported linerec package, by bench/envinfo.py's rule."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(Path(linerec.__file__).parent.glob("*.py")))


def main() -> None:
    for area, digest in digests().items():
        print(f"{area:<11} {digest}")
    print(f"{'blas_threads':<11} {blas_threads()}")
    print(f"{'src_lines':<11} {src_lines()}")


if __name__ == "__main__":
    main()
