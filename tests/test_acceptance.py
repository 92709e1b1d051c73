"""Acceptance gate: eight checks, one per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them). Criteria 1-5 are exact small-scale oracles, 6 is the end-to-end toy
learning task, 7 checks the documented scope statement, 8 checks bitwise
determinism of the pipeline."""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from test_decode import install_script
from test_model import model_gradient_error

from linerec import oracles
from linerec.cli import default_model_config, main
from linerec.data import SynthConfig, make_dataset, synth_charset
from linerec.lattice import alignment_log_prob, enumerate_alignments, random_lattice, remove_blanks
from linerec.model import ModelConfig, init_params
from linerec.train import TrainConfig, train_run

REPO = Path(__file__).resolve().parent.parent


def report(num: int, name: str, ok: bool, detail: str):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_loss_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    grid = list(itertools.product(range(1, 5), range(0, 4), range(1, 6)))
    cases = grid + [tuple(map(int, (rng.integers(1, 5), rng.integers(0, 4),
                                    rng.integers(1, 6))))
                    for _ in range(100 - len(grid))]
    worst = oracles.loss_vs_enumeration(rng, cases)
    elapsed = time.perf_counter() - started
    report(1, "loss oracle equivalence",
           worst < 1e-9 and elapsed < 10.0,
           f"{len(cases)} lattices, worst |dp - enumeration| = {worst:.3e} "
           f"(< 1e-9), {elapsed:.1f} s (< 10 s)")


def test_criterion_2_gradient_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(2)

    worst_lattice = oracles.logit_gradient_error(rng, [(3, 2, 3)] * 5)

    cfg = oracles.tiny_model_config()
    params = init_params(cfg, seed=3)
    image = np.random.default_rng(3).random((4, 12))
    worst_model = model_gradient_error(image, (1, 3), params, cfg)
    elapsed = time.perf_counter() - started
    report(2, "gradient exactness",
           worst_lattice < 1e-6 and worst_model < 1e-4 and elapsed < 60.0,
           f"lattice rel err {worst_lattice:.3e} (< 1e-6), whole-model rel err "
           f"{worst_model:.3e} (< 1e-4) over {params.flat.size} weights, "
           f"{elapsed:.1f} s (< 60 s)")


def test_criterion_3_antidiagonal_conservation():
    rng = np.random.default_rng(4)
    cases = [(int(rng.integers(1, 6)), int(rng.integers(0, 5)), 3) for _ in range(50)]
    worst = oracles.antidiagonal_mass_error(rng, cases)
    report(3, "anti-diagonal conservation", worst < 1e-9,
           f"50 random lattices, worst |mass - 1| = {worst:.3e} (< 1e-9)")


def test_criterion_4_worked_alignment_example():
    b, e = 1, 2
    labels = (b, e, e)
    listed = [
        (0, 0, b, 0, e, e, 0),
        (0, b, e, e, 0, 0, 0),
        (0, b, 0, e, 0, e, 0),
        (0, 0, b, e, 0, e, 0),
    ]
    lat = random_lattice(np.random.default_rng(5), 4, 3, 2)
    all_paths = enumerate_alignments(4, labels)
    ok = (len(all_paths) == math.comb(6, 3) == 20
          and all(a in all_paths for a in listed)
          and all(remove_blanks(a) == labels for a in listed)
          and all(np.isfinite(alignment_log_prob(lat, labels, a)) for a in listed))
    report(4, "worked alignment example", ok,
           f"T=4, U=3: {len(all_paths)} alignments enumerated (expect C(6,3)=20), "
           f"all 4 listed alignments valid and blank-stripped back to the labels")


def test_criterion_5_greedy_search_fidelity(monkeypatch):
    from linerec import decode as dc

    def frames(t):
        return np.arange(t, dtype=np.float64)[:, None]

    install_script(monkeypatch, {(0, 0): 2, (2, 1): 1}, k=3)
    got = dc.greedy_decode(frames(3), None, None)
    hand_trace_ok = got == (2, 1)

    bound_ok = True
    rng = np.random.default_rng(6)
    for _ in range(30):
        t = int(rng.integers(1, 7))
        table = {(f, u): int(rng.integers(0, 4))
                 for f in range(t) for u in range(t)
                 if rng.random() < 0.7}
        install_script(monkeypatch, table, k=3)
        out = dc.greedy_decode(frames(t), None, None)
        bound_ok = bound_ok and len(out) <= t
    report(5, "greedy search fidelity", hand_trace_ok and bound_ok,
           f"hand trace {got} == (2, 1); single-emission bound len(output) <= T "
           f"held on 30 scripted runs")


def test_criterion_6_toy_learning(tmp_path):
    started = time.perf_counter()
    model_cfg = default_model_config()
    synth_cfg = SynthConfig(charset_size=12, length_min=1, length_max=8)
    vocab = synth_charset(12)
    train_samples = make_dataset(synth_cfg, 2000, seed=100)
    val_samples = make_dataset(synth_cfg, 200, seed=900000)
    train_cfg = TrainConfig(batch_size=16, epochs=12, base_lr=1e-3,
                            warmup_epochs=1, seed=0,
                            checkpoint_dir=str(tmp_path / "run"))
    result = train_run(model_cfg, train_cfg, synth_cfg, vocab,
                       train_samples, val_samples)
    elapsed = time.perf_counter() - started
    report(6, "end-to-end toy learning",
           result.best_val_cer < 0.05 and elapsed < 1800.0,
           f"best validation CER {result.best_val_cer * 100:.2f}% (< 5%) at epoch "
           f"{result.best_epoch} of {train_cfg.epochs} (<= 30), "
           f"{elapsed / 60:.1f} min (< 30 min), 2000 train / 200 val lines, K=12")


def test_criterion_7_scope_statement_documented():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    lowered = readme.lower()
    ok = ("20.33" in readme and "23.15" in readme
          and "kuzushiji" in lowered and "scut-ept" in lowered
          and "not reproduc" in lowered)
    report(7, "scope statement documented", ok,
           "README states the full-scale reference results (20.33% / 23.15% CER) "
           "are not reproducible here and names what is verified instead")


def test_criterion_8_determinism(tmp_path):
    cfg_doc = {
        "model": {
            "conv_blocks": [[2, 3, [2, 2]], [3, 3, [4, 2]]],
            "recurrent_layers_visual": 1,
            "recurrent_layers_linguistic": 1,
            "hidden_size": 4,
            "embed_size": 3,
            "encoded_size": 4,
            "vocab_size": 3,
            "input_height": 8,
        },
        "train": {"batch_size": 4, "epochs": 1, "base_lr": 1e-3,
                  "warmup_epochs": 0, "seed": 11},
        "data": {"charset_size": 3, "cell": 4, "canvas_height": 8,
                 "length_max": 3, "count": 40},
    }

    def one_run(tag: str):
        root = tmp_path / tag
        data, run = root / "data", root / "run"
        doc = json.loads(json.dumps(cfg_doc))
        doc["train"]["checkpoint_dir"] = str(run)
        doc["paths"] = {
            "manifest": str(data / "train.tsv"),
            "val_manifest": str(data / "val.tsv"),
            "charset": str(data / "charset.txt"),
        }
        cfg_path = root / "run.json"
        root.mkdir()
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--config", str(cfg_path), "--out", str(data), "synth"]) == 0
        assert main(["--config", str(cfg_path), "train"]) == 0
        dataset = {p.relative_to(data).as_posix(): p.read_bytes()
                   for p in sorted(data.rglob("*")) if p.is_file()}
        return (dataset,
                (run / "epoch_001.ckpt").read_bytes(),
                (run / "best.ckpt").read_bytes(),
                (run / "metrics.tsv").read_text(encoding="utf-8"))

    data_a, ckpt_a, best_a, metrics_a = one_run("a")
    data_b, ckpt_b, best_b, metrics_b = one_run("b")

    # wall_seconds is real time, so CLI metrics may differ in that column only
    def strip_wall(text: str):
        return [line.rsplit("\t", 1)[0] for line in text.splitlines()]

    cli_ok = (data_a == data_b and ckpt_a == ckpt_b and best_a == best_b
              and strip_wall(metrics_a) == strip_wall(metrics_b))

    # with an injected clock the metrics log is byte-identical as well
    class FakeClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            self.now += 1.0
            return self.now

    model_cfg = ModelConfig.from_dict(cfg_doc["model"])
    synth_cfg = SynthConfig.from_dict(cfg_doc["data"])
    vocab = synth_charset(3)
    train_samples = make_dataset(synth_cfg, 40, seed=11)[:36]
    val_samples = make_dataset(synth_cfg, 8, seed=77)

    def lib_run(tag: str):
        cfg = TrainConfig(batch_size=4, epochs=1, base_lr=1e-3, warmup_epochs=0,
                          seed=11, checkpoint_dir=str(tmp_path / tag))
        res = train_run(model_cfg, cfg, synth_cfg, vocab, train_samples,
                        val_samples, clock=FakeClock())
        return Path(res.metrics_path).read_bytes()

    metrics_ok = lib_run("lib_a") == lib_run("lib_b")
    report(8, "determinism", cli_ok and metrics_ok,
           "repeated synth + 1-epoch train: dataset bytes, both checkpoints, and "
           "the metrics log (injected clock; wall column aside under real time) "
           "are bitwise identical")
