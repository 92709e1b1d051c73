"""Synthetic data generation, augmentation, preprocessing, and file formats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linerec import data as dt
from linerec.errors import ConfigError, DataError, UsageError
from linerec.lattice import Vocab
from linerec.oracles import rel_err


def cfg_of(**overrides):
    base = dict(charset_size=8, cell=10, length_min=2, length_max=5,
                canvas_height=16)
    base.update(overrides)
    return dt.SynthConfig(**base)


# --- charset and glyphs -------------------------------------------------------


def test_synth_charset_sizes_and_uniqueness():
    for k in (1, 12, 70):
        vocab = dt.synth_charset(k)
        assert vocab.size == k
        assert len(set(vocab.symbols)) == k
    with pytest.raises(ConfigError):
        dt.synth_charset(0)


def test_glyph_masks_pairwise_hamming_floor():
    masks = dt.glyph_masks(12)
    for a in range(12):
        for b in range(a + 1, 12):
            assert np.sum(masks[a] ^ masks[b]) >= dt.MIN_GLYPH_HAMMING


def test_glyph_masks_are_prefix_stable():
    assert np.array_equal(dt.glyph_masks(5), dt.glyph_masks(12)[:5])


def _glyph_masks_reference(k):
    """The loop the vectorised distinctness check replaced."""
    masks = np.zeros((k, dt.GLYPH_GRID, dt.GLYPH_GRID), dtype=bool)
    for c in range(k):
        rng = np.random.default_rng(0x517F ^ (c + 1))
        while True:
            cand = rng.random((dt.GLYPH_GRID, dt.GLYPH_GRID)) < 0.5
            if all(np.sum(cand ^ masks[p]) >= dt.MIN_GLYPH_HAMMING for p in range(c)):
                masks[c] = cand
                break
    return masks


@pytest.mark.parametrize("k", [80, 300])
def test_glyph_masks_match_the_pairwise_loop(k):
    assert np.array_equal(dt.glyph_masks(k), _glyph_masks_reference(k))


# --- rendering ----------------------------------------------------------------


def test_render_is_deterministic_per_seed():
    cfg = cfg_of()
    a = dt.render_synthetic_line(cfg, seed=42)
    b = dt.render_synthetic_line(cfg, seed=42)
    c = dt.render_synthetic_line(cfg, seed=43)
    assert a.transcript == b.transcript
    assert np.array_equal(a.image, b.image)
    assert (a.transcript != c.transcript) or not np.array_equal(a.image, c.image)


def test_render_respects_length_range():
    cfg = cfg_of(length_min=1, length_max=1)
    assert len(dt.render_synthetic_line(cfg, seed=3).transcript) == 1
    cfg = cfg_of(length_min=2, length_max=5)
    vocab = dt.synth_charset(cfg.charset_size)
    for seed in range(30):
        s = dt.render_synthetic_line(cfg, seed)
        assert 2 <= len(s.transcript) <= 5
        ids = vocab.encode(s.transcript)  # every char must be in the charset
        assert vocab.decode(ids) == s.transcript


def test_render_image_is_binary_and_sized():
    cfg = cfg_of()
    s = dt.render_synthetic_line(cfg, seed=7)
    assert s.image.shape[0] == cfg.canvas_height
    assert set(np.unique(s.image)) <= {0.0, 1.0}


def test_vertical_render_is_the_transpose():
    h = dt.render_synthetic_line(cfg_of(direction="horizontal"), seed=5)
    v = dt.render_synthetic_line(cfg_of(direction="vertical"), seed=5)
    assert v.direction == "vertical"
    assert np.array_equal(v.image, h.image.T)
    assert v.transcript == h.transcript


def test_class_frequencies_match_multinomial_within_three_sigma():
    cfg = cfg_of(charset_size=8, length_min=4, length_max=8)
    vocab = dt.synth_charset(8)
    counts = np.zeros(8)
    total = 0
    for seed in range(1000):
        for ch in dt.render_synthetic_line(cfg, seed).transcript:
            counts[vocab.encode(ch)[0] - 1] += 1
            total += 1
    p = 1.0 / 8
    sigma = np.sqrt(total * p * (1 - p))
    assert np.all(np.abs(counts - total * p) <= 3 * sigma)


def _render_reference(cfg, seed):
    """Glyph by glyph: each cell upscaled on its own and merged into the
    canvas with np.maximum, the same draws in the same order."""
    rng = np.random.default_rng(seed)
    masks = dt.glyph_masks(cfg.charset_size)
    length = int(rng.integers(cfg.length_min, cfg.length_max + 1))
    ids = rng.integers(1, cfg.charset_size + 1, size=length)
    cell, height = cfg.cell, cfg.canvas_height
    gaps = rng.integers(0, max(1, cell // 4) + 1, size=length + 1)
    offsets = rng.integers(0, height - cell + 1, size=length)
    image = np.zeros((height, int(np.sum(gaps)) + length * cell))
    idx = (np.arange(cell) * dt.GLYPH_GRID) // cell
    x = int(gaps[0])
    for i, class_id in enumerate(ids):
        glyph = masks[class_id - 1][np.ix_(idx, idx)].astype(np.float64)
        y = int(offsets[i])
        image[y : y + cell, x : x + cell] = np.maximum(image[y : y + cell, x : x + cell], glyph)
        x += cell + int(gaps[i + 1])
    transcript = dt.synth_charset(cfg.charset_size).decode(ids.tolist())
    return image.T.copy() if cfg.direction == "vertical" else image, transcript


@pytest.mark.parametrize("direction", dt.DIRECTIONS)
@pytest.mark.parametrize("k,glyphs,cell", [(12, (1, 8), 16), (80, (50, 70), 16), (8, (2, 5), 10)])
def test_render_is_bitwise_the_per_glyph_loop(direction, k, glyphs, cell):
    cfg = dt.SynthConfig(charset_size=k, cell=cell, length_min=glyphs[0],
                         length_max=glyphs[1], direction=direction)
    for seed in range(30):
        sample = dt.render_synthetic_line(cfg, seed)
        image, transcript = _render_reference(cfg, seed)
        assert sample.transcript == transcript
        assert sample.image.shape == image.shape
        assert sample.image.tobytes() == image.tobytes()


def test_make_dataset_uses_xor_derived_seeds():
    cfg = cfg_of()
    ds = dt.make_dataset(cfg, 5, seed=64)
    lone = dt.render_synthetic_line(cfg, 64 ^ 3)
    assert ds[3].transcript == lone.transcript
    assert np.array_equal(ds[3].image, lone.image)


def test_split_nine_to_one():
    items = list(range(100))
    train, val = dt.split_nine_to_one(items)
    assert len(train) == 90 and len(val) == 10
    assert val == [9, 19, 29, 39, 49, 59, 69, 79, 89, 99]


# --- augmentation ---------------------------------------------------------------


def test_augment_strength_zero_is_identity():
    cfg = cfg_of()
    s = dt.render_synthetic_line(cfg, seed=11)
    out = dt.augment(s, cfg, strength=0.0, seed=99)
    assert np.array_equal(out.image, s.image)
    assert out.transcript == s.transcript


def test_augment_is_continuous_near_zero_strength():
    cfg = cfg_of()
    s = dt.render_synthetic_line(cfg, seed=11)
    out = dt.augment(s, cfg, strength=1e-9, seed=99)
    assert np.max(np.abs(out.image - s.image)) < 1e-6


def test_augment_keeps_transcript_and_range():
    cfg = cfg_of(noise_sigma=0.3)
    s = dt.render_synthetic_line(cfg, seed=12)
    out = dt.augment(s, cfg, strength=1.0, seed=5)
    assert out.transcript == s.transcript
    assert out.image.shape == s.image.shape
    assert np.min(out.image) >= 0.0 and np.max(out.image) <= 1.0
    assert not np.array_equal(out.image, s.image)


def test_augment_deterministic_per_seed():
    cfg = cfg_of()
    s = dt.render_synthetic_line(cfg, seed=13)
    a = dt.augment(s, cfg, 1.0, seed=7)
    b = dt.augment(s, cfg, 1.0, seed=7)
    c = dt.augment(s, cfg, 1.0, seed=8)
    assert np.array_equal(a.image, b.image)
    assert not np.array_equal(a.image, c.image)


def test_noise_only_augmentation_matches_configured_sigma():
    # jitter ranges zeroed out, so the difference is exactly the clamped noise
    cfg = dt.SynthConfig(charset_size=4, cell=5, canvas_height=5,
                         rotation=0.0, scale_min=1.0, scale_max=1.0,
                         shear_min=0.0, shear_max=0.0, noise_sigma=0.05)
    flat = dt.LineSample(np.full((400, 250), 0.5), "a", "horizontal")
    out = dt.augment(flat, cfg, strength=1.0, seed=3)
    diff = out.image - flat.image
    assert abs(np.std(diff) - 0.05) < 0.05 * 0.05
    assert abs(np.mean(diff)) < 1e-3


def _affine_sample_reference(image, matrix):
    """The warp _affine_sample replaced: source coordinates from a meshgrid,
    four masked reads of the image."""
    h, w = image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    src = np.tensordot(np.linalg.inv(matrix), np.stack([rows - cy, cols - cx]), axes=1)
    sr, sc = src[0] + cy, src[1] + cx
    r0, c0 = np.floor(sr).astype(int), np.floor(sc).astype(int)
    fr, fc = sr - r0, sc - c0

    def at(ri, ci):
        valid = (ri >= 0) & (ri < h) & (ci >= 0) & (ci < w)
        return image[np.clip(ri, 0, h - 1), np.clip(ci, 0, w - 1)] * valid

    return (at(r0, c0) * (1 - fr) * (1 - fc) + at(r0, c0 + 1) * (1 - fr) * fc
            + at(r0 + 1, c0) * fr * (1 - fc) + at(r0 + 1, c0 + 1) * fr * fc)


def _warp(angle, shear, scale):
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return rot @ np.array([[1.0, shear], [0.0, 1.0]]) * scale


@pytest.mark.parametrize("shape", [(16, 106), (32, 1141), (1, 9), (7, 1), (1, 1), (5, 6)])
def test_affine_sample_matches_the_masked_reference(shape):
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    image = rng.random(shape)
    # small jitters, a half turn, and warps that send most of the image outside
    for matrix in [np.eye(2), _warp(0.1, 0.2, 1.1), _warp(-0.05, -0.3, 0.8),
                   _warp(np.pi, 0.0, 1.0), _warp(0.9, 0.5, 3.0), _warp(-1.3, 0.0, 0.3)]:
        assert rel_err(dt._affine_sample(image, matrix),
                       _affine_sample_reference(image, matrix)) <= 1e-12


def test_augment_makes_the_reference_warp_and_draws(monkeypatch):
    cfg = cfg_of(noise_sigma=0.1)
    s = dt.render_synthetic_line(cfg, seed=14)
    fast = [dt.augment(s, cfg, 1.0, seed=k).image for k in range(5)]
    monkeypatch.setattr(dt, "_affine_sample", _affine_sample_reference)
    for k, image in enumerate(fast):
        assert rel_err(image, dt.augment(s, cfg, 1.0, seed=k).image) <= 1e-12


def test_augment_rejects_negative_strength():
    cfg = cfg_of()
    s = dt.render_synthetic_line(cfg, seed=1)
    with pytest.raises(ConfigError):
        dt.augment(s, cfg, strength=-0.1, seed=0)


# --- preprocessing ----------------------------------------------------------------


def test_preprocess_transposes_vertical_to_horizontal():
    v = dt.render_synthetic_line(cfg_of(direction="vertical"), seed=21)
    out = dt.preprocess(v, target_extent=16)
    assert out.direction == "horizontal"
    assert out.image.shape[0] == 16
    assert out.transcript == v.transcript


def test_preprocess_identity_at_target_height():
    s = dt.render_synthetic_line(cfg_of(canvas_height=16), seed=22)
    out = dt.preprocess(s, target_extent=16)
    assert np.array_equal(out.image, s.image)


def test_preprocess_is_idempotent():
    s = dt.render_synthetic_line(cfg_of(), seed=23)
    once = dt.preprocess(s, target_extent=24)
    twice = dt.preprocess(once, target_extent=24)
    assert np.array_equal(once.image, twice.image)


def test_preprocess_preserves_aspect_within_rounding():
    rng = np.random.default_rng(0)
    target = 32
    for _ in range(100):
        h = int(rng.integers(2, 300))
        w = int(rng.integers(2, 300))
        s = dt.LineSample(rng.random((h, w)), "", "horizontal")
        out = dt.preprocess(s, target)
        expect = max(1, round(w * target / h))
        assert out.image.shape == (target, expect)
        assert abs(out.image.shape[1] / target - w / h) <= 1.0 / target + 1e-9


def test_preprocess_rejects_degenerate_image():
    s = dt.LineSample(np.zeros((0, 5)), "", "horizontal")
    with pytest.raises(DataError):
        dt.preprocess(s, 32)


# --- file formats -------------------------------------------------------------------


def test_pgm_roundtrip_is_exact_for_quantized_values(tmp_path):
    path = tmp_path / "img.pgm"
    grid = (np.arange(256).reshape(16, 16) / 255.0)
    dt.write_image(path, grid)
    back = dt.read_image(path)
    assert np.array_equal(back, grid)


def test_pgm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "img.pgm"
    body = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + body)
    img = dt.read_image(path)
    assert img.shape == (2, 3)
    assert img[1, 2] == pytest.approx(5 / 255)


BODY = bytes(range(6))
PGM_HEADERS = {  # each reads as a 3x2 image of BODY
    "comment_between_every_pair_of_tokens": b"P5#a\n3 #b\n2\t#c\n#d\n255\n",
    "carriage_return_and_tab_separators": b"P5\r3\t2\r\n255\t",
    "comment_holding_tokens": b"P5 # 9 9 255\n3 2 255 ",
    "comment_running_past_a_carriage_return": b"P5 3 #\r7\n2 255\n",
}


@pytest.mark.parametrize("name", sorted(PGM_HEADERS))
def test_pgm_header_edge_cases(tmp_path, name):
    path = tmp_path / "img.pgm"
    path.write_bytes(PGM_HEADERS[name] + BODY)
    assert np.array_equal(dt.read_image(path) * 255, np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize("blob,message", [
    (b"P5 3 2 2#5\n" + BODY, "malformed PGM header"),  # '#' inside a token
    (b"P5 3 2 255", "PGM body has 0 bytes, expected 6"),  # no byte after maxval
    (b"P5 3 #2 255\n", "truncated PGM header"),
])
def test_pgm_header_errors(tmp_path, blob, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=f"bad.pgm: {message}$"):
        dt.read_image(path)


def _read_pgm_reference(blob: bytes):
    """The image of a PGM ``blob`` by the byte-by-byte header scan, or None
    where read_image must raise a DataError."""
    tokens, pos = [], 2
    while len(tokens) < 3 and pos < len(blob):
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:  # fewer than three tokens, or one not an integer
        return None
    body = blob[pos + 1 : pos + 1 + w * h]
    if w < 1 or h < 1 or not 1 <= maxval <= 255 or len(body) != w * h:
        return None
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w) / maxval


# header pieces: whitespace and comment runs, and tokens good and bad
_GAPS = st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c", b"#",
                                  b"#c\n", b" # 9 9\n"]), max_size=2).map(b"".join)
_TOKENS = st.sampled_from([b"1", b"2", b"3", b"1", b"2", b"3", b"2#", b"x"])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(pieces=st.lists(st.tuples(_GAPS, _TOKENS), min_size=3, max_size=4),
       last=st.sampled_from([b"", b" ", b"\n", b"\r", b"\t", b"#\n"]))
def test_pgm_header_scan_matches_the_byte_by_byte_reference(tmp_path_factory, pieces, last):
    blob = b"P5" + b"".join(g + t for g, t in pieces) + last + bytes(range(1, 13))
    path = tmp_path_factory.mktemp("pgm") / "x.pgm"
    path.write_bytes(blob)
    expected = _read_pgm_reference(blob)
    if expected is None:
        with pytest.raises(DataError):
            dt.read_image(path)
    else:
        assert np.array_equal(dt.read_image(path), expected)


@pytest.mark.parametrize(
    "blob",
    [
        b"P6\n3 2\n255\n" + bytes(6),  # wrong magic
        b"P5\n3 2\n255\n" + bytes(5),  # truncated body
        b"P5\n3 2\n0\n" + bytes(6),  # bad maxval
        b"P5\n3 2\n",  # truncated header
    ],
)
def test_pgm_rejects_malformed_files(tmp_path, blob):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        dt.read_image(path)


def test_read_image_missing_file(tmp_path):
    with pytest.raises(DataError):
        dt.read_image(tmp_path / "nope.pgm")


def test_loader_messages_name_the_file_once(tmp_path):
    """An OSError's own text ends with the path, so the loaders report its
    strerror after the one path they name."""
    image, charset, folder = tmp_path / "missing.pgm", tmp_path / "charset.txt", tmp_path / "dir"
    folder.mkdir()
    manifest = tmp_path / "lines.tsv"
    manifest.write_text("missing.pgm\thorizontal\ta\n", encoding="utf-8")
    cases = [(dt.read_image, image, image), (dt.load_manifest, manifest, image),
             (dt.load_charset, charset, charset), (dt.load_charset, folder, folder)]
    for load, arg, named in cases:
        with pytest.raises(DataError) as err:
            load(arg)
        assert str(err.value).count(str(named)) == 1, str(err.value)
    assert str(err.value) == f"{folder}: Is a directory"


def test_charset_file_roundtrip(tmp_path):
    path = tmp_path / "charset.txt"
    vocab = dt.synth_charset(70)  # includes non-ascii symbols
    dt.write_charset(path, vocab)
    assert dt.load_charset(path) == vocab


def test_charset_file_rejects_duplicates_and_multichar(tmp_path):
    path = tmp_path / "charset.txt"
    path.write_text("a\nb\na\n", encoding="utf-8")
    with pytest.raises(DataError, match="charset.txt: charset symbol 3: duplicate"):
        dt.load_charset(path)
    path.write_text("a\nbc\n", encoding="utf-8")
    with pytest.raises(DataError, match="charset.txt: charset symbol 2: expected one"):
        dt.load_charset(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        dt.load_charset(path)


def test_manifest_roundtrip(tmp_path):
    cfg = cfg_of()
    samples = dt.make_dataset(cfg, 50, seed=17)
    manifest = tmp_path / "lines.tsv"
    dt.write_manifest(manifest, samples)
    vocab = dt.synth_charset(cfg.charset_size)
    back = dt.load_manifest(manifest, vocab)
    assert len(back) == 50
    for orig, got in zip(samples, back):
        assert got.transcript == orig.transcript
        assert got.direction == orig.direction
        assert np.array_equal(got.image, orig.image)  # binary images survive 8-bit io


def test_manifest_missing_image_names_the_row(tmp_path):
    samples = dt.make_dataset(cfg_of(), 5, seed=2)
    manifest = tmp_path / "lines.tsv"
    dt.write_manifest(manifest, samples)
    (tmp_path / "lines_images" / "000002.pgm").unlink()
    with pytest.raises(DataError, match="row 3"):
        dt.load_manifest(manifest)


def test_manifest_unreadable_image_names_the_row(tmp_path):
    """Every image error of a row names the manifest row, not only a missing file."""
    manifest = tmp_path / "lines.tsv"
    (tmp_path / "ok.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
    (tmp_path / "bad.pgm").write_bytes(b"P5\n4 4\n255\n\x00\x00")
    (tmp_path / "dir.pgm").mkdir()
    for bad, message in (("bad.pgm", "PGM body has 2 bytes"), ("dir.pgm", "Is a directory")):
        manifest.write_text(f"ok.pgm\thorizontal\ta\n{bad}\thorizontal\tb\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"lines.tsv row 2: .*{bad}: .*{message}"):
            dt.load_manifest(manifest)


def test_manifest_malformed_row_names_the_row(tmp_path):
    manifest = tmp_path / "lines.tsv"
    manifest.write_text("a.pgm\thorizontal\tok\nb.pgm\tonly-two-fields\n", encoding="utf-8")
    (tmp_path / "a.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(DataError, match="row 2"):
        dt.load_manifest(manifest)


def test_manifest_without_rows_is_rejected(tmp_path):
    manifest = tmp_path / "lines.tsv"
    manifest.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="lines.tsv"):
        dt.load_manifest(manifest)


def test_manifest_rejects_characters_outside_charset(tmp_path):
    samples = dt.make_dataset(cfg_of(charset_size=8), 3, seed=2)
    manifest = tmp_path / "lines.tsv"
    dt.write_manifest(manifest, samples)
    with pytest.raises(DataError, match="row"):
        dt.load_manifest(manifest, Vocab(("?",)))


def test_manifest_rejects_tab_in_transcript(tmp_path):
    bad = dt.LineSample(np.zeros((4, 4)), "a\tb", "horizontal")
    with pytest.raises(DataError):
        dt.write_manifest(tmp_path / "m.tsv", [bad])


# every character str.splitlines breaks at, which is how the readers split
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def test_line_breaks_are_every_character_splitlines_breaks_at():
    found = [chr(c) for c in range(0x10000) if len(f"a{chr(c)}b".splitlines()) == 2]
    assert found == sorted(LINE_BREAKS)


@pytest.mark.parametrize("ch", LINE_BREAKS)
def test_writers_reject_every_line_break(tmp_path, ch):
    """The manifest writer checks each transcript; no charset holding a line
    break reaches write_charset, because Vocab refuses to build it."""
    bad = dt.LineSample(np.zeros((4, 4)), f"a{ch}b", "horizontal")
    with pytest.raises(DataError, match="sample 0: transcript"):
        dt.write_manifest(tmp_path / "m.tsv", [bad])
    with pytest.raises(UsageError, match="^charset symbol 2: .* is a line break$"):
        Vocab(("a", ch, "b"))


def test_cjk_and_punctuation_round_trip(tmp_path):
    vocab = Vocab(tuple("漢字かなカナ、。「」・！？—…\u3000 ,.;:'\"-"))
    dt.write_charset(tmp_path / "charset.txt", vocab)
    assert dt.load_charset(tmp_path / "charset.txt") == vocab
    lines = ["漢字、かな。", "「カナ」！？", "—…\u3000 ,.;:'\"-"]
    samples = [dt.LineSample(np.zeros((4, 4)), t, "horizontal") for t in lines]
    dt.write_manifest(tmp_path / "m.tsv", samples)
    assert [s.transcript for s in dt.load_manifest(tmp_path / "m.tsv", vocab)] == lines


def test_synth_config_validation_and_roundtrip():
    with pytest.raises(ConfigError):
        dt.SynthConfig(length_min=3, length_max=2).validate()
    with pytest.raises(ConfigError):
        dt.SynthConfig(cell=20, canvas_height=16).validate()
    with pytest.raises(ConfigError):
        dt.SynthConfig(direction="diagonal").validate()
    with pytest.raises(ConfigError):
        dt.SynthConfig.from_dict({"cels": 3})
    cfg = cfg_of()
    assert dt.SynthConfig.from_dict(cfg.to_dict()) == cfg
