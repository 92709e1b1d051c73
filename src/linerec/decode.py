"""Greedy inference: scan the visual feature sequence frame by frame, take the
argmax of the joint output at each step, and advance the linguistic context
only when a label is emitted.

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

    Ties at the argmax go to the lowest index, so blank wins exact ties.
    In the default mode the output can never be longer than T.
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
    for t in range(feats.shape[0]):
        for _ in range(cap):
            best = int(np.argmax(joint(feats[t], g, params)))
            if best == BLANK:
                break
            out.append(best)
            g, states = linguistic_step(best, states, params, config)
    return tuple(out)


def decode_image(image, vocab: Vocab, params: ModelParams, config: ModelConfig,
                 decode_config: DecodeConfig | None = None) -> str:
    """Image -> transcript, composing the visual encoder, the greedy search,
    and charset detokenization."""
    if vocab.size != config.vocab_size:
        raise ConfigError(
            f"charset has {vocab.size} symbols but the model expects {config.vocab_size}"
        )
    feats = visual_encode(image, params, config)
    return vocab.decode(greedy_decode(feats, params, config, decode_config))
