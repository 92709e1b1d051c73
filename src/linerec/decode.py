"""Greedy inference: scan the visual feature sequence frame by frame, take the
argmax of the joint output at each step, and advance the linguistic context
only when a label is emitted. Frames sharing a context share a joint call.

The default mode emits at most one label per frame. The multi_emit variant
re-evaluates a frame with the updated context after each emission, up to a
configurable cap, which lets a single frame carry several labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConfigSection, UsageError
from .lattice import BLANK, Vocab
from .model import (
    ModelConfig,
    ModelParams,
    joint,
    linguistic_start_states,
    linguistic_step,
    visual_encode,
)

MODES = ("paper_greedy", "multi_emit")
_FIRST_WINDOW = 4  # frames per joint call after an emission; 4 to 8 measured fastest


@dataclass
class DecodeConfig(ConfigSection):
    section = "decode"
    mode: str = "paper_greedy"
    max_symbols_per_frame: int = 3  # multi_emit only

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"decode mode {self.mode!r} not one of {MODES}")
        if self.max_symbols_per_frame < 1:
            raise ConfigError(
                f"max_symbols_per_frame must be >= 1, got {self.max_symbols_per_frame}"
            )


def greedy_decode(feats, params: ModelParams, config: ModelConfig,
                  decode_config: DecodeConfig | None = None) -> tuple:
    """Feature sequence (T, encoded) -> emitted label ids.

    Per frame t, the argmax of joint(f_t, g) is a label, which is emitted and
    advances the context g (multi_emit then rescores t, up to the cap), or
    blank, which moves on to t+1. Ties at the argmax go to the lowest index,
    so blank wins exact ties; in the default mode the output is never longer
    than T. Frames are scored in windows of _FIRST_WINDOW, doubling while
    all rows are blank.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise UsageError(f"feature sequence must be (T, encoded) with T >= 1, got {feats.shape}")
    dc = decode_config if decode_config is not None else DecodeConfig()
    dc.validate()
    cap = 1 if dc.mode == "paper_greedy" else dc.max_symbols_per_frame
    states = linguistic_start_states(config)
    g, states = linguistic_step(BLANK, states, params, config)
    out = []
    t, used, width = 0, 0, _FIRST_WINDOW  # used: labels emitted at frame t so far
    while t < feats.shape[0]:
        best = np.argmax(joint(feats[t : t + width], g, params), axis=1)
        hits = np.flatnonzero(best != BLANK)
        if hits.size == 0:
            t, used, width = t + width, 0, 2 * width
            continue
        r = int(hits[0])
        t, used, width = t + r, (0 if r else used) + 1, _FIRST_WINDOW
        out.append(int(best[r]))
        g, states = linguistic_step(out[-1], states, params, config)
        if used == cap:
            t, used = t + 1, 0
    return tuple(out)


def decode_image(image, vocab: Vocab, params: ModelParams, config: ModelConfig,
                 decode_config: DecodeConfig | None = None) -> str:
    """Image -> transcript, composing the visual encoder, the greedy search,
    and charset detokenization."""
    config.check_vocab(vocab, "the charset")
    feats = visual_encode(image, params, config)
    return vocab.decode(greedy_decode(feats, params, config, decode_config))
