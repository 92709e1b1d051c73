"""Exact oracles for the transducer loss and greedy search, shared by `linerec
verify` and the tests: brute-force alignment enumeration, which the loss
module does not use, and the checks built on it. Each check draws its cases from the shapes and generator
it is given and returns its worst error; the caller owns seed, case count, shape
ranges and bound. ``cases`` may be a lazy iterable drawing from the same rng."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .decode import greedy_decode
from .errors import UsageError
from .lattice import BLANK, _check_labels, loss_and_logit_grad, rnnt_alphabeta, rnnt_grad
from .model import ModelConfig, init_params, visual_encode
from .numerics import log_softmax, logsumexp

ENUMERATION_LIMIT = 12  # max T+U for brute-force enumeration; C(T+U-1, U) blows up


def remove_blanks(alignment, num_classes: int | None = None) -> tuple[int, ...]:
    """The blank-removal map: keeps non-blank ids in order."""
    for a in alignment:
        if a < 0 or (num_classes is not None and a > num_classes):
            raise UsageError(f"alignment id {a} out of range")
    return tuple(a for a in alignment if a != BLANK)


def enumerate_alignments(num_frames: int, labels) -> list[tuple[int, ...]]:
    """Every alignment of ``labels`` onto ``num_frames`` frames.

    An alignment interleaves the U labels (in order) with T blanks and ends
    with a blank, so it is determined by which of the first T+U-1 positions
    carry labels: exactly C(T+U-1, U) alignments, no duplicates.
    """
    labels = tuple(labels)
    t, u = num_frames, len(labels)
    if t < 1:
        raise UsageError("need at least one frame")
    if t + u > ENUMERATION_LIMIT:
        raise UsageError(
            f"T+U = {t + u} exceeds the enumeration guard ({ENUMERATION_LIMIT})"
        )
    out = []
    for label_slots in itertools.combinations(range(t + u - 1), u):
        a = [BLANK] * (t + u)
        for pos, lab in zip(label_slots, labels):
            a[pos] = lab
        out.append(tuple(a))
    return out


def alignment_log_prob(lattice: np.ndarray, labels, alignment) -> float:
    """Log-probability of one path: walk from (0, 0), blanks move t, labels move u."""
    labels = _check_labels(lattice, labels)
    t_total = lattice.shape[0]
    if (
        len(alignment) != t_total + len(labels)
        or sum(1 for a in alignment if a == BLANK) != t_total
        or alignment[-1] != BLANK
        or remove_blanks(alignment, lattice.shape[2] - 1) != labels
    ):
        raise UsageError(f"not a valid alignment for T={t_total}, y={labels}")
    t = u = 0
    total = 0.0
    for a in alignment:
        if a == BLANK:
            total += lattice[t, u, BLANK]
            t += 1
        else:
            total += lattice[t, u, a]
            u += 1
    return float(total)


def rnnt_loss_brute(lattice: np.ndarray, labels) -> float:
    """log Pr(y|x) by exhaustive enumeration; the oracle for rnnt_alphabeta."""
    labels = tuple(labels)
    paths = enumerate_alignments(lattice.shape[0], labels)
    return logsumexp(np.array([alignment_log_prob(lattice, labels, a) for a in paths]))


def random_lattice(rng: np.random.Generator, t: int, u: int, k: int) -> np.ndarray:
    """A random normalized (T, U+1, K+1) lattice."""
    return log_softmax(rng.normal(size=(t, u + 1, k + 1)))




def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + h
        fp = f(x)
        x.flat[i] = orig - h
        grad.flat[i] = (fp - f(x)) / (2.0 * h)
        x.flat[i] = orig
    return grad


def rel_err(a, b):
    """Max absolute difference scaled by the larger gradient magnitude."""
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b)) / denom)


def tiny_model_config(**overrides) -> ModelConfig:
    """Small enough for exhaustive finite differences, still uses every part."""
    base = dict(conv_blocks=[(2, 3, (2, 2)), (2, 3, (2, 1))], recurrent_layers_visual=1,
                recurrent_layers_linguistic=1, hidden_size=3, embed_size=3, encoded_size=4,
                vocab_size=3, input_height=4)
    return ModelConfig(**{**base, **overrides})


def _draw(rng, t: int, u: int, k: int):
    """Raw (T, U+1, K+1) logits, then U labels in [1, K]."""
    logits = rng.normal(size=(t, u + 1, k + 1))
    return logits, tuple(int(x) for x in rng.integers(1, k + 1, size=u))


def loss_vs_enumeration(rng, cases) -> float:
    """Worst |rnnt_alphabeta log Pr - enumeration log Pr| over (T, U, K) cases."""
    worst = 0.0
    for t, u, k in cases:
        logits, labels = _draw(rng, t, u, k)
        lattice = log_softmax(logits)
        log_prob = rnnt_alphabeta(lattice, labels).log_prob
        worst = max(worst, abs(log_prob - rnnt_loss_brute(lattice, labels)))
    return worst


def logit_gradient_error(rng, cases, loss_grad=loss_and_logit_grad) -> float:
    """Worst rel_err between the logit gradient ``loss_grad`` returns and
    central differences of the loss it returns, over (T, U, K) cases."""
    worst = 0.0
    for t, u, k in cases:
        logits, labels = _draw(rng, t, u, k)
        numeric = fd_grad(lambda z: loss_grad(z, labels)[0], logits)
        worst = max(worst, rel_err(loss_grad(logits, labels)[1], numeric))
    return worst


def antidiagonal_mass_error(rng, cases) -> float:
    """Worst |mass - 1| of the transition posteriors leaving the nodes on each
    anti-diagonal t + u = n < T + U (Graves 2012), over (T, U, K) cases."""
    worst = 0.0
    for t, u, k in cases:
        logits, labels = _draw(rng, t, u, k)
        lattice = log_softmax(logits)
        grad_blank, grad_label = rnnt_grad(rnnt_alphabeta(lattice, labels))
        gamma = -grad_blank
        gamma[:, :-1] -= grad_label  # gamma[t, u]: the posterior mass leaving node (t, u)
        for n in range(t + u):
            mass = sum(gamma[i, n - i] for i in range(max(0, n - u), min(t, n + 1)))
            worst = max(worst, abs(mass - 1.0))
    return worst


def alignment_count_error(cases) -> int:
    """Worst violation over (T, labels) cases of the law: C(T+U-1, U) distinct
    alignments, each T blanks and the labels in order, ending in a blank."""
    worst = 0
    for t, labels in cases:
        paths = enumerate_alignments(t, labels)
        invalid = sum(len(a) != t + len(labels) or a.count(BLANK) != t or a[-1] != BLANK
                      or remove_blanks(a) != tuple(labels) for a in paths)
        miscount = abs(len(paths) - math.comb(t + len(labels) - 1, len(labels)))
        worst = max(worst, miscount + len(paths) - len(set(paths)) + invalid)
    return worst


def greedy_length_excess(rng, trials: int) -> int:
    """Worst len(output) - T of greedy search (above 0 breaks its one emission
    per frame) over freshly seeded tiny models and images 1-39 pixels wide."""
    cfg = tiny_model_config()
    worst = 0
    for _ in range(trials):
        params = init_params(cfg, seed=int(rng.integers(0, 2**31)))
        image = rng.random((cfg.input_height, int(rng.integers(1, 40))))
        feats = visual_encode(image, params, cfg)
        worst = max(worst, len(greedy_decode(feats, params, cfg)) - feats.shape[0])
    return worst
