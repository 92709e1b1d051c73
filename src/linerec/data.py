"""Synthetic text-line data plus the on-disk formats.

Synthetic lines stand in for real handwriting corpora: each character class
gets a fixed procedurally generated glyph (a 5x5 binary mask upscaled to the
glyph cell), and lines are composed with random spacing on a fixed-height
canvas. File formats are deliberately primitive: binary PGM images, a
tab-separated manifest, and a one-codepoint-per-line charset file.
"""

from __future__ import annotations

import functools
import re
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConfigSection, DataError, UsageError
from .lattice import Vocab

DIRECTIONS = ("horizontal", "vertical")
GLYPH_GRID = 5
MIN_GLYPH_HAMMING = 5


@dataclass(eq=False)
class LineSample:
    image: np.ndarray  # (H, W) grayscale in [0, 1]
    transcript: str
    direction: str


@dataclass
class SynthConfig(ConfigSection):
    section = "data"
    charset_size: int = 12
    cell: int = 16  # glyph cell in pixels
    length_min: int = 1
    length_max: int = 8
    rotation: float = 4.0  # degrees, sampled in +-rotation
    scale_min: float = 0.9
    scale_max: float = 1.1
    shear_min: float = -0.15
    shear_max: float = 0.15
    noise_sigma: float = 0.05
    canvas_height: int = 32
    direction: str = "horizontal"
    count: int = 100  # dataset size for `linerec synth`

    def validate(self) -> None:
        if self.charset_size < 1:
            raise ConfigError(f"charset_size must be >= 1, got {self.charset_size}")
        if self.count < 10:  # split_nine_to_one puts every tenth line in validation
            raise ConfigError(f"count must be >= 10, got {self.count}")
        if self.cell < 1 or self.canvas_height < self.cell:
            raise ConfigError(
                f"need canvas_height >= cell >= 1, got cell={self.cell}, "
                f"canvas_height={self.canvas_height}"
            )
        if not 1 <= self.length_min <= self.length_max:
            raise ConfigError(
                f"bad length range [{self.length_min}, {self.length_max}]"
            )
        if self.rotation < 0 or self.noise_sigma < 0:
            raise ConfigError("rotation and noise_sigma must be >= 0")
        if self.scale_min > self.scale_max or self.shear_min > self.shear_max:
            raise ConfigError("scale and shear ranges must be well ordered")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction {self.direction!r} not one of {DIRECTIONS}")


@functools.cache
def synth_charset(k: int) -> Vocab:
    """Deterministic toy charset: letters and digits first, then a block of
    CJK codepoints once those run out. Cached: a Vocab is immutable."""
    if k < 1:
        raise ConfigError(f"charset size must be >= 1, got {k}")
    pool = string.ascii_lowercase + string.ascii_uppercase + string.digits
    symbols = [pool[i] if i < len(pool) else chr(0x4E00 + i - len(pool)) for i in range(k)]
    return Vocab(tuple(symbols))


@functools.cache
def glyph_masks(k: int) -> np.ndarray:
    """(k, 5, 5) boolean masks, one per class id 1..k, fixed for all time.

    Masks are drawn class by class and redrawn until they differ from every
    earlier mask in at least MIN_GLYPH_HAMMING cells, so classes stay
    visually separable. The first k masks are the same for every charset
    size, so growing a charset never changes existing glyphs.
    """
    masks = np.zeros((k, GLYPH_GRID, GLYPH_GRID), dtype=bool)
    for c in range(k):
        rng = np.random.default_rng(0x517F ^ (c + 1))
        for _attempt in range(10_000):
            cand = rng.random((GLYPH_GRID, GLYPH_GRID)) < 0.5
            if np.all(np.count_nonzero(cand ^ masks[:c], axis=(1, 2)) >= MIN_GLYPH_HAMMING):
                masks[c] = cand
                break
        else:
            raise DataError(f"could not place a distinct glyph for class {c + 1}")
    masks.setflags(write=False)
    return masks


@functools.cache
def glyph_atlas(k: int, cell: int) -> np.ndarray:
    """(k, cell, cell) float glyph images: glyph_masks(k) upscaled to the cell."""
    idx = (np.arange(cell) * GLYPH_GRID) // cell
    atlas = glyph_masks(k)[:, idx[:, None], idx].astype(np.float64)
    atlas.setflags(write=False)
    return atlas


def render_synthetic_line(cfg: SynthConfig, seed: int) -> LineSample:
    """One synthetic sample, a pure function of (cfg, seed)."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    vocab = synth_charset(cfg.charset_size)
    length = int(rng.integers(cfg.length_min, cfg.length_max + 1))
    ids = rng.integers(1, cfg.charset_size + 1, size=length)
    cell, height = cfg.cell, cfg.canvas_height
    max_gap = max(1, cell // 4)
    gaps = rng.integers(0, max_gap + 1, size=length + 1)
    offsets = rng.integers(0, height - cell + 1, size=length)
    width = int(np.sum(gaps)) + length * cell
    image = np.zeros((height, width))
    # glyph i's cell starts after i cells and gaps 0..i; cells never overlap
    x = np.cumsum(gaps[:-1]) + cell * np.arange(length)
    span = np.arange(cell)
    rows, cols = (offsets[:, None] + span)[:, :, None], (x[:, None] + span)[:, None, :]
    image[rows, cols] = glyph_atlas(cfg.charset_size, cell)[ids - 1]
    transcript = vocab.decode(ids.tolist())
    if cfg.direction == "vertical":
        image = image.T.copy()
    return LineSample(image=image, transcript=transcript, direction=cfg.direction)


def make_dataset(cfg: SynthConfig, count: int, seed: int) -> list:
    """Per-sample seeds are seed ^ index, so samples are independent of count."""
    return [render_synthetic_line(cfg, seed ^ i) for i in range(count)]


def split_nine_to_one(items):
    """Deterministic 9:1 split by index; every tenth item validates."""
    train = [s for i, s in enumerate(items) if i % 10 != 9]
    val = [s for i, s in enumerate(items) if i % 10 == 9]
    return train, val


# --- augmentation ------------------------------------------------------------


def _affine_sample(image: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Inverse-map bilinear warp about the image center, zero outside.

    The source coordinates are two outer sums. They are clamped to one pixel
    beyond the image, which changes no value: every source point farther out
    reads only zeros. One copy of the image with a zero border then serves
    all four corners, with no per-corner masks."""
    h, w = image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    inv = np.linalg.inv(matrix)
    ry, rx = np.arange(h) - cy, np.arange(w) - cx
    sr = np.clip(np.add.outer(inv[0, 0] * ry + cy, inv[0, 1] * rx), -1.0, h)
    sc = np.clip(np.add.outer(inv[1, 0] * ry + cx, inv[1, 1] * rx), -1.0, w)
    r0, c0 = np.floor(sr), np.floor(sc)
    sr -= r0  # the fractions
    sc -= c0
    stride = w + 3  # the copy spans rows -1 .. h + 1 and columns -1 .. w + 1
    bordered = np.zeros((h + 3, stride))
    bordered[1 : h + 1, 1 : w + 1] = image
    flat = bordered.ravel()
    r0 *= stride
    r0 += c0
    at = r0.astype(np.intp)
    at += stride + 1
    top, bottom = flat[at], flat[stride:][at]  # views offset by a row, a column, both
    top += (flat[1:][at] - top) * sc
    bottom += (flat[stride + 1 :][at] - bottom) * sc
    top += (bottom - top) * sr
    return top


def augment(sample: LineSample, cfg: SynthConfig, strength: float, seed: int) -> LineSample:
    """Random affine warp plus additive Gaussian noise, both scaled by
    ``strength``; the result is clamped to [0, 1] and keeps the transcript.
    Strength 0 returns the sample unchanged."""
    if strength < 0:
        raise ConfigError(f"strength must be >= 0, got {strength}")
    if strength == 0:
        return LineSample(sample.image.copy(), sample.transcript, sample.direction)
    rng = np.random.default_rng(seed)
    angle = np.deg2rad(rng.uniform(-cfg.rotation, cfg.rotation)) * strength
    scale = 1.0 + (rng.uniform(cfg.scale_min, cfg.scale_max) - 1.0) * strength
    shear = rng.uniform(cfg.shear_min, cfg.shear_max) * strength
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    shr = np.array([[1.0, shear], [0.0, 1.0]])
    matrix = rot @ shr * scale
    warped = _affine_sample(sample.image, matrix)
    noisy = warped + rng.normal(0.0, cfg.noise_sigma * strength, size=warped.shape)
    return LineSample(np.clip(noisy, 0.0, 1.0), sample.transcript, sample.direction)


# --- preprocessing -----------------------------------------------------------


def _resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = image.shape
    sr = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    sc = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    r0 = np.floor(sr).astype(int)
    c0 = np.floor(sc).astype(int)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (sr - r0)[:, None]
    fc = (sc - c0)[None, :]
    top = image[np.ix_(r0, c0)] * (1 - fc) + image[np.ix_(r0, c1)] * fc
    bot = image[np.ix_(r1, c0)] * (1 - fc) + image[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bot * fr


def preprocess(sample: LineSample, target_extent: int) -> LineSample:
    """Canonical form: horizontal reading order, height == target_extent,
    values in [0, 1]. Width scales with the height so aspect is preserved;
    an image already at the target height is passed through untouched."""
    image = np.asarray(sample.image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] < 1 or image.shape[1] < 1:
        raise DataError(f"degenerate image of shape {image.shape}")
    if target_extent < 1:
        raise ConfigError(f"target_extent must be >= 1, got {target_extent}")
    if sample.direction == "vertical":
        image = image.T
    image = np.clip(image, 0.0, 1.0)
    h, w = image.shape
    if h != target_extent:
        out_w = max(1, round(w * target_extent / h))
        image = _resize_bilinear(image, target_extent, out_w)
    return LineSample(image=image, transcript=sample.transcript, direction="horizontal")


# --- file formats ------------------------------------------------------------


def write_image(path, image: np.ndarray) -> None:
    """Binary PGM (P5), 8-bit."""
    image = np.asarray(image)
    if image.ndim != 2 or image.shape[0] < 1 or image.shape[1] < 1:
        raise DataError(f"cannot write degenerate image of shape {image.shape}")
    h, w = image.shape
    data = np.round(np.clip(image, 0.0, 1.0) * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# a PGM header token, or a '#' comment running to the end of its line
_PGM_HEADER = re.compile(rb"#[^\n]*|(\S+)")


def read_image(path) -> np.ndarray:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:  # its text would name the path again
        raise DataError(f"{path}: {exc.strerror}") from None
    if not blob.startswith(b"P5"):
        raise DataError(f"{path}: not a binary PGM (P5) file")
    tokens = []  # width, height, maxval after the magic
    for m in _PGM_HEADER.finditer(blob, 2):
        if m[1]:
            tokens.append(m[1])
            if len(tokens) == 3:
                break
    if len(tokens) < 3:
        raise DataError(f"{path}: truncated PGM header")
    pos = m.end() + 1  # single whitespace byte after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise DataError(f"{path}: malformed PGM header") from None
    if w < 1 or h < 1 or not 1 <= maxval <= 255:
        raise DataError(f"{path}: unsupported PGM geometry {w}x{h} maxval={maxval}")
    body = blob[pos : pos + w * h]
    if len(body) != w * h:
        raise DataError(f"{path}: PGM body has {len(body)} bytes, expected {w * h}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).astype(np.float64) / maxval


def _check_one_line(text: str, what: str) -> None:
    """The readers split with str.splitlines, which breaks at more than newline."""
    if "".join(text.splitlines()) != text:
        raise DataError(f"{what} {text!r} contains a line break")


def write_charset(path, vocab: Vocab) -> None:
    Path(path).write_text("".join(s + "\n" for s in vocab.symbols), encoding="utf-8")


def load_charset(path) -> Vocab:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}") from None
    try:  # symbol n is line n
        return Vocab(tuple(text.splitlines()))
    except UsageError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_manifest(path, samples) -> None:
    """TSV manifest next to one PGM per sample in <stem>_images/."""
    path = Path(path)
    img_dir = path.parent / f"{path.stem}_images"
    img_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, s in enumerate(samples):
        if "\t" in s.transcript:
            raise DataError(f"sample {i}: transcript contains a tab")
        _check_one_line(s.transcript, f"sample {i}: transcript")
        rel = f"{img_dir.name}/{i:06d}.pgm"
        write_image(path.parent / rel, s.image)
        rows.append(f"{rel}\t{s.direction}\t{s.transcript}\n")
    path.write_text("".join(rows), encoding="utf-8")


def load_manifest(path, vocab: Vocab | None = None) -> list:
    """Rows are image_path<TAB>direction<TAB>transcript; image paths resolve
    relative to the manifest. With a vocab, transcripts are checked against it.
    An error in a row, the row's image included, names the manifest and the row."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}") from None
    samples = []
    for n, line in enumerate(text.splitlines(), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path} row {n}: expected 3 tab-separated fields, got {len(parts)}")
        img_rel, direction, transcript = parts
        if direction not in DIRECTIONS:
            raise DataError(f"{path} row {n}: direction {direction!r} not one of {DIRECTIONS}")
        try:
            image = read_image(path.parent / img_rel)
            if vocab is not None:
                vocab.encode(transcript)
        except (DataError, UsageError) as exc:
            raise DataError(f"{path} row {n}: {exc}") from None
        samples.append(LineSample(image, transcript, direction))
    if not samples:
        raise DataError(f"{path}: manifest has no rows")
    return samples
