"""End-to-end tests of the command-line interface: exit codes, the synth ->
train -> eval -> decode pipeline, config validation, and the verify suite."""

import json
import re
import struct
from pathlib import Path

import pytest

from linerec.cli import load_run_config, main

TINY = {
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
    "train": {
        "batch_size": 4,
        "epochs": 1,
        "base_lr": 1e-3,
        "warmup_epochs": 0,
        "seed": 5,
        "augment_strength": 0.0,
    },
    "data": {
        "charset_size": 3,
        "cell": 4,
        "canvas_height": 8,
        "length_max": 3,
        "count": 30,
    },
}


def write_config(tmp_path, extra=None, **overrides):
    doc = json.loads(json.dumps(TINY))
    for section, patch in overrides.items():
        doc.setdefault(section, {}).update(patch)
    if extra:
        doc.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# --- config loading ---------------------------------------------------------


def test_defaults_load_without_a_file():
    cfg = load_run_config(None)
    assert cfg.model.vocab_size == 12
    assert cfg.train.epochs == 30
    assert cfg.decode.mode == "paper_greedy"


def test_underscore_keys_are_comments(tmp_path):
    path = write_config(
        tmp_path,
        extra={"_note": "ignored"},
        model={"_why": "also ignored"},
    )
    cfg = load_run_config(path)
    assert cfg.model.vocab_size == 3


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_shipped_presets_parse(name):
    preset = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    cfg = load_run_config(preset)
    assert cfg.model.vocab_size == cfg.data.charset_size == 12
    assert cfg.model.frames_for_width(160) > 0
    layers = {"s1": 1, "s2": 2, "s3": 3}[name]
    assert cfg.model.recurrent_layers_visual == layers


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, extra={"optimizer": {}})
    assert main(["--config", str(path), "verify", "--trials", "1"]) == 3


def test_unknown_model_key_rejected(tmp_path):
    path = write_config(tmp_path, model={"n_heads": 8})
    assert main(["--config", str(path), "verify", "--trials", "1"]) == 3


def test_invalid_json_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    assert main(["--config", str(path), "verify", "--trials", "1"]) == 3
    # well-formed JSON with values of the wrong type or shape
    for case in [dict(train={"batch_size": "16"}),
                 dict(decode={"max_symbols_per_frame": "3"}),
                 dict(data={"charset_size": "3"}),
                 dict(model={"conv_blocks": [[8, 3]]}),
                 dict(extra={"paths": []}),
                 dict(data={"count": 1.5}),
                 dict(data={"count": 9}),
                 dict(train={"batch_size": 2.5}),
                 dict(train={"epochs": True}),
                 dict(train={"base_lr": "0.001"}),
                 dict(model={"hidden_size": 64.0}),
                 dict(model={"layer_norm": "no"}),
                 dict(model={"layer_norm": True}),
                 dict(model={"dropout_rate": 0.3}),
                 dict(train={"seed": -1}),
                 dict(model={"conv_blocks": [[2.0, 3, [2, 2]], [3, 3, [4, 2]]]}),
                 dict(model={"conv_blocks": [[2, 3, [2, 2], 5], [3, 3, [4, 2]]]}),
                 dict(model={"conv_blocks": [[2, 3, [2, 2]], [3, 3, [4, 2, 9]]]}),
                 dict(decode={"max_symbols_per_frame": 2.5}),
                 dict(paths={"manifest": 3})]:
        capsys.readouterr()
        path = write_config(tmp_path, **case)
        assert main(["--config", str(path), "verify", "--trials", "1"]) == 3, case
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section,key", [("train", "base_lr"), ("train", "grad_clip_norm"),
                                         ("data", "rotation")])
def test_non_finite_float_config_value_exits_3(tmp_path, capsys, section, key, value):
    path = write_config(tmp_path, **{section: {key: float(value)}})
    assert value in path.read_text(encoding="utf-8")  # json writes the bare literal
    capsys.readouterr()
    assert main(["--config", str(path), "verify", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err
    assert key in err


@pytest.mark.parametrize("section,key", [("train", "base_lr"), ("data", "rotation")])
def test_integer_beyond_the_float_range_in_a_float_field_exits_3(tmp_path, capsys, section,
                                                                  key):
    path = write_config(tmp_path, **{section: {key: 10**400}})
    capsys.readouterr()
    assert main(["--config", str(path), "verify", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err
    assert key in err


def test_missing_config_file_exits_2():
    assert main(["--config", "/no/such/file.json", "verify", "--trials", "1"]) == 2


def test_verify_rejects_fewer_than_one_trial(capsys):
    for trials in ("0", "-3"):
        capsys.readouterr()
        assert main(["verify", "--trials", trials]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, captured


def test_bad_arguments_exit_4(capsys):
    for argv in (["frobnicate"], ["--seed", "not-a-number", "verify"],
                 ["--seed", "-1", "verify"], ["--seed", "-1", "synth"]):
        capsys.readouterr()
        assert main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, (argv, captured)


def test_missing_required_path_exits_4(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "eval"]) == 4


# --- synth -------------------------------------------------------------------


def test_synth_writes_split_tree(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "data"
    assert main(["--config", str(path), "--out", str(out), "synth"]) == 0
    assert "27 training and 3 validation" in capsys.readouterr().out
    assert len((out / "charset.txt").read_text(encoding="utf-8").splitlines()) == 3
    train_rows = (out / "train.tsv").read_text(encoding="utf-8").splitlines()
    val_rows = (out / "val.tsv").read_text(encoding="utf-8").splitlines()
    assert len(train_rows) == 27 and len(val_rows) == 3
    assert len(list((out / "train_images").glob("*.pgm"))) == 27


def collect_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_synth_is_reproducible_and_seed_sensitive(tmp_path):
    path = write_config(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["--config", str(path), "--out", str(a), "--seed", "3", "synth"]) == 0
    assert main(["--config", str(path), "--out", str(b), "--seed", "3", "synth"]) == 0
    assert main(["--config", str(path), "--out", str(c), "--seed", "4", "synth"]) == 0
    assert collect_bytes(a) == collect_bytes(b)
    assert collect_bytes(a) != collect_bytes(c)


# --- train / eval / decode pipeline -------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny synth+train run shared by the eval and decode tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data, run = root / "data", root / "run"
    doc = json.loads(json.dumps(TINY))
    doc["train"]["checkpoint_dir"] = str(run)
    doc["paths"] = {
        "manifest": str(data / "train.tsv"),
        "val_manifest": str(data / "val.tsv"),
        "charset": str(data / "charset.txt"),
    }
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(cfg_path), "--out", str(data), "synth"]) == 0
    assert main(["--config", str(cfg_path), "train"]) == 0
    return cfg_path, data, run


def test_train_validates_with_the_configured_decode_section(pipeline, tmp_path, monkeypatch):
    """best.ckpt is chosen by the search that `linerec eval` scores it with."""
    import linerec.train
    from linerec.decode import DecodeConfig

    cfg_path, _, _ = pipeline
    doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    doc["train"]["checkpoint_dir"] = str(tmp_path / "run")
    doc["decode"] = {"mode": "multi_emit", "max_symbols_per_frame": 2}
    config = tmp_path / "multi.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    seen, decode_image = [], linerec.train.decode_image

    def recording(image, vocab, params, model_cfg, decode_cfg=None):
        seen.append(decode_cfg)
        return decode_image(image, vocab, params, model_cfg, decode_cfg)

    monkeypatch.setattr(linerec.train, "decode_image", recording)
    assert main(["--config", str(config), "train"]) == 0
    assert len(seen) == 3  # the three validation lines, one epoch
    assert all(c == DecodeConfig("multi_emit", 2) for c in seen), seen


def test_train_writes_checkpoints_and_metrics(pipeline):
    _, _, run = pipeline
    assert (run / "best.ckpt").exists()
    assert (run / "epoch_001.ckpt").exists()
    lines = (run / "metrics.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t")[0] == "epoch"
    assert len(lines) == 2  # header + one epoch


def test_eval_prints_percentage(pipeline, capsys):
    cfg_path, _, run = pipeline
    rc = main(["--config", str(cfg_path), "eval",
               "--checkpoint", str(run / "best.ckpt")])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert re.fullmatch(r"CER: \d+\.\d\d%", out)


def test_decode_prints_one_line_per_image(pipeline, capsys):
    cfg_path, data, run = pipeline
    images = sorted((data / "train_images").glob("*.pgm"))[:3]
    rc = main(["--config", str(cfg_path), "decode",
               "--checkpoint", str(run / "best.ckpt")] + [str(p) for p in images])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3  # one row per image, empty emissions included


def test_eval_prints_exactly_zero_for_perfect_hypotheses(tmp_path, capsys):
    # a zeroed joint projection makes every frame argmax to blank, so the
    # model transcribes nothing; against empty references that is CER 0
    import numpy as np

    from linerec.data import LineSample, write_manifest
    from linerec.model import ModelConfig, init_params, save_checkpoint
    from linerec.lattice import Vocab

    cfg = ModelConfig(
        conv_blocks=[(2, 3, [2, 2]), (3, 3, [4, 2])],
        recurrent_layers_visual=1,
        recurrent_layers_linguistic=1,
        hidden_size=4,
        embed_size=3,
        encoded_size=4,
        vocab_size=3,
        input_height=8,
    )
    params = init_params(cfg, seed=0)
    params.joint_w[:] = 0.0
    ckpt = tmp_path / "mute.ckpt"
    save_checkpoint(ckpt, cfg, Vocab(("a", "b", "c")), params)
    rng = np.random.default_rng(1)
    samples = [LineSample(rng.random((8, 20)), "", "horizontal") for _ in range(3)]
    manifest = tmp_path / "empty.tsv"
    write_manifest(manifest, samples)
    rc = main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "CER: 0.00%"


def test_decode_missing_image_exits_2(pipeline, capsys):
    cfg_path, data, run = pipeline
    first, last = [str(p) for p in sorted((data / "train_images").glob("*.pgm"))[:2]]
    capsys.readouterr()
    rc = main(["--config", str(cfg_path), "decode",
               "--checkpoint", str(run / "best.ckpt"), first, "/no/such.pgm", last])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "/no/such.pgm" in err, (out, err)


@pytest.mark.parametrize("bad_kind", ["truncated_pgm", "directory"])
def test_decode_unreadable_third_image_prints_no_transcript(pipeline, tmp_path, capsys,
                                                            bad_kind):
    """Every image is read before the first line is decoded."""
    cfg_path, data, run = pipeline
    first, second = [str(p) for p in sorted((data / "train_images").glob("*.pgm"))[:2]]
    bad = tmp_path / "bad.pgm"
    if bad_kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(Path(first).read_bytes()[:-5])
    capsys.readouterr()
    rc = main(["--config", str(cfg_path), "decode",
               "--checkpoint", str(run / "best.ckpt"), first, second, str(bad)])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and str(bad) in err, (out, err)


MISSING_INPUTS = [  # (command, the paths key set to a missing file or a directory)
    ("train", "manifest"), ("train", "val_manifest"), ("train", "charset"),
    ("eval", "checkpoint"), ("eval", "val_manifest"), ("eval", "charset"),
    ("decode", "checkpoint"), ("decode", "charset"),
    ("eval", "directory_as_checkpoint"), ("decode", "directory_as_checkpoint"),
]


@pytest.mark.parametrize("command,key", MISSING_INPUTS)
def test_a_missing_input_file_exits_2_with_one_line(pipeline, tmp_path, capsys, command, key):
    """The loaders end a missing file with exit 2 and one stderr line, and
    nothing reaches stdout first."""
    cfg_path, data, run = pipeline
    doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    doc["train"]["checkpoint_dir"] = str(tmp_path / "run")
    doc["paths"]["checkpoint"] = str(run / "best.ckpt")
    absent = tmp_path / "absent"
    if key == "directory_as_checkpoint":
        absent.mkdir()
        key = "checkpoint"
    doc["paths"][key] = str(absent)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    images = [str(next((data / "train_images").glob("*.pgm")))] if command == "decode" else []
    capsys.readouterr()
    assert main(["--config", str(config), command] + images) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and str(absent) in err, (out, err)


def test_eval_charset_mismatch_exits_3(pipeline, tmp_path, capsys):
    cfg_path, data, run = pipeline
    doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    wrong = tmp_path / "wrong.txt"
    lines = (data / "charset.txt").read_text(encoding="utf-8").splitlines()
    lines[1] = "@"
    wrong.write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc["paths"]["charset"] = str(wrong)
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["--config", str(bad_cfg), "eval",
               "--checkpoint", str(run / "best.ckpt")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "wrong.txt" in err and "entry 2" in err and err.count("\n") == 1, err


def _rewrite_header(blob: bytes, edit) -> bytes:
    (size,) = struct.unpack("<I", blob[12:16])
    header = json.loads(blob[16 : 16 + size])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return blob[:12] + struct.pack("<I", len(raw)) + raw + blob[16 + size :]


def _bad_json(blob: bytes) -> bytes:
    (size,) = struct.unpack("<I", blob[12:16])
    return blob[:16] + b"{" * size + blob[16 + size :]


CORRUPTIONS = {
    "shorter_than_16_bytes": lambda blob: blob[:12],
    "malformed_json_header": _bad_json,
    "header_missing_a_key": lambda blob: _rewrite_header(blob, lambda h: h.pop("charset")),
    "tensors_not_a_list": lambda blob: _rewrite_header(blob, lambda h: h.update(tensors=7)),
    "trailing_bytes": lambda blob: blob + bytes(8),
    "conv_block_with_extra_entry": lambda blob: _rewrite_header(
        blob, lambda h: h["config"]["conv_blocks"][0].append(5)),
    "charset_not_a_list": lambda blob: _rewrite_header(
        blob, lambda h: h.update(charset="".join(h["charset"]))),
    "config_with_layer_norm": lambda blob: _rewrite_header(
        blob, lambda h: h["config"].update(layer_norm=True)),
    "config_far_larger_than_the_payload": lambda blob: _rewrite_header(
        blob, lambda h: h["config"].update(hidden_size=1000)),
    "charset_symbol_a_line_break": lambda blob: _rewrite_header(  # no charset file holds it
        blob, lambda h: h["charset"].__setitem__(1, "\x1c")),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_decode_corrupt_checkpoint_exits_3(pipeline, tmp_path, capsys, corruption):
    cfg_path, data, run = pipeline
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CORRUPTIONS[corruption]((run / "best.ckpt").read_bytes()))
    image = next(data.rglob("*.pgm"))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "decode", "--checkpoint", str(bad),
                 str(image)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["decode", "eval"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_checkpoint_exits_3(pipeline, tmp_path, capsys, command, value):
    from linerec.model import load_checkpoint, save_checkpoint

    cfg_path, data, run = pipeline
    config, vocab, params = load_checkpoint(run / "best.ckpt")
    params.flat[5] = value
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, config, vocab, params)
    extra = [str(next(data.rglob("*.pgm")))] if command == "decode" else []
    capsys.readouterr()
    assert main(["--config", str(cfg_path), command, "--checkpoint", str(bad)] + extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err
    assert "tensor conv0.w holds a non-finite value" in err


@pytest.mark.parametrize("hidden_size", [10**7, 10**12],
                         ids=["too_large_to_allocate", "beyond_numpy_index_range"])
def test_train_of_a_model_too_large_to_allocate_exits_3(pipeline, tmp_path, capsys,
                                                       hidden_size):
    """About 1.2e15 parameters (numpy's MemoryError) and 1.2e25 (its ValueError):
    both are refused at the one allocation of the buffer, touching no memory."""
    cfg_path, _, _ = pipeline
    doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    doc["model"]["hidden_size"] = hidden_size
    doc["train"]["checkpoint_dir"] = str(tmp_path / "run")
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(huge), "train"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err
    assert re.search(r"the model has [\d,]+ parameters, too many to allocate", err), err


def test_empty_manifest_exits_2(pipeline, tmp_path, capsys):
    cfg_path, _, run = pipeline
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    doc["paths"]["val_manifest"] = str(empty)
    doc["train"]["checkpoint_dir"] = str(tmp_path / "run")
    no_val = tmp_path / "no_val.json"
    no_val.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["--config", str(no_val), "train"],
                 ["eval", "--checkpoint", str(run / "best.ckpt"), "--manifest", str(empty)]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "empty.tsv" in err, err
        assert err.count("\n") == 1, err


def test_input_files_that_are_not_utf8_exit_with_one_line(pipeline, tmp_path, capsys):
    cfg_path, data, _ = pipeline
    doc = json.loads(cfg_path.read_text(encoding="utf-8"))
    doc["train"]["checkpoint_dir"] = str(tmp_path / "run")
    charset = tmp_path / "charset.txt"
    charset.write_bytes(b"a\n\xff\n")
    row = (data / "train.tsv").read_bytes().splitlines()[0].split(b"\t")
    manifest = tmp_path / "train.tsv"
    manifest.write_bytes(str(data / row[0].decode()).encode() + b"\t" + row[1] + b"\tab\xff\n")
    bad_config = tmp_path / "bad.json"
    bad_config.write_bytes(b"\xff" + cfg_path.read_bytes())
    runs = []
    for key, bad in (("charset", charset), ("manifest", manifest)):
        run_config = tmp_path / f"bad_{key}.json"
        run_config.write_text(json.dumps({**doc, "paths": {**doc["paths"], key: str(bad)}}),
                              encoding="utf-8")
        runs.append((["--config", str(run_config), "train"], 2, "data error:"))
    runs.append((["--config", str(bad_config), "verify"], 3, "configuration error:"))
    for argv, code, prefix in runs:
        capsys.readouterr()
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err


def test_train_missing_manifest_exits_2(tmp_path):
    path = write_config(
        tmp_path,
        extra={"paths": {
            "manifest": str(tmp_path / "absent.tsv"),
            "val_manifest": str(tmp_path / "absent.tsv"),
            "charset": str(tmp_path / "absent.txt"),
        }},
    )
    assert main(["--config", str(path), "train"]) == 2


# --- verify --------------------------------------------------------------------


def test_verify_reports_and_passes(capsys):
    assert main(["verify", "--trials", "12"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "5/5 checks passed" in out


def test_verify_detects_injected_fault(capsys):
    assert main(["verify", "--trials", "12", "--inject-fault"]) == 1
    out = capsys.readouterr().out
    assert "gradient_finite_difference: FAIL" in out
