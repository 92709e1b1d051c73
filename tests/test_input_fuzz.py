"""Byte-mutation fuzz of the input readers: whatever bytes a checkpoint, a PGM
image, a manifest, a charset file or a run config holds, its reader either
returns or raises ConfigError or DataError, which the CLI turns into an exit
code and one line. Each reader gets a fixed, derandomized set of examples;
the checkpoint reader gets a file of each format version it reads."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_model import save_v1_checkpoint

from linerec import data, model
from linerec.cli import load_run_config
from linerec.errors import ConfigError, DataError
from linerec.lattice import Vocab
from linerec.oracles import tiny_model_config

VOCAB = Vocab(("a", "b", "é"))  # one two-byte UTF-8 symbol

# (op, position, byte): a position past the end wraps around; a flip XORs the
# byte in, so it always changes something
MUTATIONS = st.lists(st.tuples(st.sampled_from(("flip", "delete", "insert")),
                               st.integers(0, 2**16), st.integers(1, 255)),
                     min_size=1, max_size=3)


def mutate(blob: bytes, ops) -> bytes:
    out = bytearray(blob)
    for op, where, byte in ops:
        if op == "insert":
            out.insert(where % (len(out) + 1), byte)
        elif out and op == "flip":
            out[where % len(out)] ^= byte
        elif out:
            del out[where % len(out)]
    return bytes(out)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """reader name -> (the valid file, its reader); every reader accepts the
    unmutated file."""
    root = tmp_path_factory.mktemp("fuzz")
    image = np.random.default_rng(0).random((4, 6))
    ckpt, ckpt_v1, pgm = root / "tiny.ckpt", root / "tiny_v1.ckpt", root / "line.pgm"
    cfg = tiny_model_config()
    model.save_checkpoint(ckpt, cfg, VOCAB, model.init_params(cfg, seed=0))
    save_v1_checkpoint(ckpt_v1, cfg, VOCAB, model.init_params(cfg, seed=0))
    data.write_image(pgm, image)
    (root / "manifest").mkdir()
    manifest = root / "manifest" / "lines.tsv"
    data.write_manifest(manifest, [data.LineSample(image, "abé", "horizontal"),
                                   data.LineSample(image, "ba", "vertical")])
    charset = root / "charset.txt"
    data.write_charset(charset, VOCAB)
    config = root / "run.json"
    config.write_text(json.dumps({"_note": "é", "model": cfg.to_dict(),
                                  "train": {"base_lr": 0.001, "epochs": 2},
                                  "data": {"rotation": 4.0}, "decode": {"mode": "multi_emit"},
                                  "paths": {"charset": "charset.txt"}}), encoding="utf-8")
    readers = {
        "checkpoint": (ckpt, model.load_checkpoint),
        "checkpoint_v1": (ckpt_v1, model.load_checkpoint),
        "pgm": (pgm, data.read_image),
        "manifest": (manifest, lambda p: data.load_manifest(p, VOCAB)),
        "charset": (charset, data.load_charset),
        "config": (config, load_run_config),
    }
    for path, read in readers.values():
        read(path)
    return readers


@pytest.mark.parametrize("reader", ["checkpoint", "checkpoint_v1", "pgm", "manifest", "charset",
                                    "config"])
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(ops=MUTATIONS)
def test_mutated_input_raises_only_config_or_data_errors(inputs, reader, ops):
    path, read = inputs[reader]
    mutant = path.with_name("mutant" + path.suffix)
    mutant.write_bytes(mutate(path.read_bytes(), ops))
    try:
        read(mutant)
    except (ConfigError, DataError):
        pass
