"""Writes the benchmark's committed reference data under bench/reference/.

    python3 bench/make_reference.py

1. The fixed decode model. When `decode_s1.ckpt` is absent, trains the
   toy-learning recipe of acceptance criterion 6 once (s1 model, K=12,
   2000 training and 200 validation lines, 12 epochs; several minutes on
   one core) and keeps the best-validation checkpoint and its SHA-256. An
   existing checkpoint is kept, so the decode references below always
   describe the committed model.
2. `references.json`: the outputs of each workload's first pass at the
   default seed (per-dataset train_loss, decode hypotheses and CER) and a
   CER ceiling for every seed, which `run.py` checks its outputs against.

Run it again whenever a workload's definition changes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile

import bootstrap

bootstrap.use_checkout_sources()

from linerec.cli import default_model_config  # noqa: E402
from linerec.data import SynthConfig, make_dataset, synth_charset  # noqa: E402
from linerec.train import TrainConfig, train_run  # noqa: E402

import workloads  # noqa: E402


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_decode_model() -> None:
    """Acceptance criterion 6's recipe, verbatim."""
    model_cfg = default_model_config()
    synth_cfg = SynthConfig(charset_size=12, length_min=1, length_max=8)
    train_samples = make_dataset(synth_cfg, 2000, seed=100)
    val_samples = make_dataset(synth_cfg, 200, seed=900000)
    work = bootstrap.ROOT / workloads.WORK_DIR_NAME
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        train_cfg = TrainConfig(batch_size=16, epochs=12, base_lr=1e-3, warmup_epochs=1,
                                seed=0, checkpoint_dir=tmp)
        result = train_run(model_cfg, train_cfg, synth_cfg, synth_charset(12),
                           train_samples, val_samples,
                           progress=lambda m: print(f"epoch {m.epoch}: loss "
                                                    f"{m.mean_train_loss:.4f} val_cer "
                                                    f"{m.val_cer:.4f}", flush=True))
        shutil.copyfile(result.best_path, workloads.DECODE_CHECKPOINT)
    print(f"best epoch {result.best_epoch}, validation CER {result.best_val_cer:.4%}")


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    if not workloads.DECODE_CHECKPOINT.exists():
        train_decode_model()
    workloads.DECODE_CHECKPOINT_SHA.write_text(
        sha256_of(workloads.DECODE_CHECKPOINT) + "\n", encoding="ascii")
    refs = {name: workloads.reference_outputs(name) for name in workloads.WORKLOADS}
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, ensure_ascii=False) + "\n",
                                    encoding="utf-8")
    print(json.dumps({name: {k: v for k, v in r.items() if k != "hypotheses"}
                      for name, r in refs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
