"""Alignment semantics and the exact transducer loss.

The label distribution at every lattice node (t, u) lives in a
(T, U+1, K+1) array of log-probabilities, index 0 of the class axis being
the blank symbol. A path through the lattice consumes one frame per blank
(t+1) and emits one label per non-blank (u+1), ends with a blank at
(T-1, U), and therefore has length T+U. The conditional probability of a
label sequence is the sum of path probabilities over all such alignments;
the forward/backward recurrences below compute it in O(T*U) and are
validated against full enumeration, never trusted on their own.

Both passes run as an anti-diagonal wavefront (Graves 2012, arXiv 1211.3711):
the nodes with t+u = n depend only on diagonal n-1, so each diagonal is one
vector step. Every node runs the scalar recurrence's adds and logaddexp in the
same operand order, and logaddexp(x, -inf) is exactly x, so the results are
bitwise equal to the node-by-node recurrence.

Indexing is zero-based throughout: t in [0, T), u in [0, U].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .numerics import NEG_INF, log_softmax, log_softmax_backward, logsumexp

BLANK = 0

ENUMERATION_LIMIT = 12  # max T+U for brute-force enumeration; C(T+U-1, U) blows up


@dataclass(frozen=True)
class Vocab:
    """Ordered character inventory; label ids 1..K, blank reserved at 0."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise UsageError("vocab symbols must be distinct")
        for s in self.symbols:
            if len(s) != 1:
                raise UsageError(f"vocab symbol {s!r} is not a single codepoint")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def extended_size(self) -> int:
        return len(self.symbols) + 1

    def encode(self, text: str) -> tuple[int, ...]:
        index = {s: i + 1 for i, s in enumerate(self.symbols)}
        try:
            return tuple(index[ch] for ch in text)
        except KeyError as exc:
            raise UsageError(f"character {exc.args[0]!r} not in vocabulary") from None

    def decode(self, ids) -> str:
        out = []
        for i in ids:
            if not 1 <= i <= self.size:
                raise UsageError(f"label id {i} outside [1, {self.size}]")
            out.append(self.symbols[i - 1])
        return "".join(out)


@dataclass
class AlphaBetaTables:
    """Forward/backward log-mass tables plus the total log-probability."""

    alpha: np.ndarray  # (T, U+1)
    beta: np.ndarray  # (T, U+1)
    log_prob: float


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


def _check_labels(lattice: np.ndarray, labels) -> None:
    if lattice.ndim != 3 or lattice.shape[0] < 1:
        raise UsageError(f"lattice shape {lattice.shape} is not (T, U+1, K+1) with T >= 1")
    if lattice.shape[1] != len(labels) + 1:
        raise UsageError(
            f"lattice has {lattice.shape[1]} rows, labels need {len(labels) + 1}"
        )
    k = lattice.shape[2] - 1
    for lab in labels:
        if not 1 <= lab <= k:
            raise UsageError(f"label id {lab} outside [1, {k}]")


def alignment_log_prob(lattice: np.ndarray, labels, alignment) -> float:
    """Log-probability of one path: walk from (0, 0), blanks move t, labels move u."""
    labels = tuple(labels)
    _check_labels(lattice, labels)
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
    """log Pr(y|x) by exhaustive enumeration; the oracle for rnnt_forward."""
    labels = tuple(labels)
    paths = enumerate_alignments(lattice.shape[0], labels)
    return logsumexp(np.array([alignment_log_prob(lattice, labels, a) for a in paths]))


def _transition_slices(lattice: np.ndarray, labels):
    """(blank, label) transition log-probs: shapes (T, U+1) and (T, U)."""
    blank = lattice[:, :, BLANK]
    if labels:
        label = lattice[:, :-1, :][:, np.arange(len(labels)), list(labels)]
    else:
        label = np.zeros((lattice.shape[0], 0))
    return blank, label


def _diagonal_transitions(lattice: np.ndarray, labels):
    """(blank, label) transition log-probs in diagonal-major form, shapes
    (T+U, U+1) and (T+U, U): row n, column u holds the transitions leaving
    node (n-u, u), and -inf where that node is off the lattice."""
    _check_labels(lattice, labels)
    t_total, rows = lattice.shape[0], lattice.shape[1]
    padded = np.full((t_total + 2 * rows - 2, 2 * rows - 1), NEG_INF)
    padded[rows - 1 : rows - 1 + t_total] = np.concatenate(
        _transition_slices(lattice, labels), axis=1
    )
    u = np.concatenate([np.arange(rows), np.arange(rows - 1)])
    n = np.arange(t_total + rows - 1)[:, None]
    skew = padded[rows - 1 + n - u, np.arange(2 * rows - 1)]
    return skew[:, :rows], skew[:, rows:]


def _unskewed(skew: np.ndarray, t_total: int) -> np.ndarray:
    """The (T, U+1) table back from its diagonal-major form."""
    u = np.arange(skew.shape[1])
    return skew[np.arange(t_total)[:, None] + u, u]


def rnnt_forward(lattice: np.ndarray, labels) -> tuple[np.ndarray, float]:
    """Forward pass: alpha[t, u] = log-mass of consuming t frames, emitting u labels.

    alpha[0, 0] = 0, alpha[t][u] = LSE(alpha[t-1][u] + blank(t-1, u),
    alpha[t][u-1] + label(t, u-1)); log Pr = alpha[T-1][U] + blank(T-1, U).
    """
    blank, label = _diagonal_transitions(lattice, tuple(labels))
    diagonals, rows = blank.shape
    alpha = np.full((diagonals, rows), NEG_INF)
    alpha[0, 0] = 0.0
    stay, move = np.empty(rows), np.full(rows, NEG_INF)  # move[0]: no label enters u=0
    for n in range(1, diagonals):
        np.add(alpha[n - 1], blank[n - 1], out=stay)
        np.add(alpha[n - 1, :-1], label[n - 1], out=move[1:])
        np.logaddexp(stay, move, out=alpha[n])
    return _unskewed(alpha, lattice.shape[0]), float(alpha[-1, -1] + blank[-1, -1])


def rnnt_backward(lattice: np.ndarray, labels) -> np.ndarray:
    """Backward pass: beta[t, u] = log-mass of completions from (t, u),
    including the terminal blank; beta[0, 0] equals the total log-probability.
    beta[T-1][U] = blank(T-1, U), beta[t][u] = LSE(beta[t+1][u] + blank(t, u),
    beta[t][u+1] + label(t, u)).
    """
    blank, label = _diagonal_transitions(lattice, tuple(labels))
    diagonals, rows = blank.shape
    beta = np.full((diagonals, rows), NEG_INF)
    beta[-1, -1] = blank[-1, -1]
    stay, move = np.empty(rows), np.full(rows, NEG_INF)  # move[U]: no label leaves u=U
    for n in range(diagonals - 2, -1, -1):
        np.add(beta[n + 1], blank[n], out=stay)
        np.add(beta[n + 1, 1:], label[n], out=move[:-1])
        np.logaddexp(stay, move, out=beta[n])
    return _unskewed(beta, lattice.shape[0])


def rnnt_alphabeta(lattice: np.ndarray, labels) -> AlphaBetaTables:
    alpha, log_prob = rnnt_forward(lattice, labels)
    return AlphaBetaTables(alpha=alpha, beta=rnnt_backward(lattice, labels), log_prob=log_prob)


def rnnt_grad(lattice: np.ndarray, labels, tables: AlphaBetaTables) -> np.ndarray:
    """Gradient of the loss L = -log Pr(y|x) wrt the lattice log-probabilities.

    The posterior mass of each transition is
      gamma(t, u, blank)  = exp(alpha[t,u] + blank(t,u) + beta[t+1,u] - log Pr)
      gamma(t, u, y[u+1]) = exp(alpha[t,u] + label(t,u) + beta[t,u+1] - log Pr)
    (with beta[T, u] read as 0 at u = U and -inf otherwise); the gradient is
    -gamma, and zero for classes no transition uses. Chaining through
    log_softmax (numerics.log_softmax_backward) turns this into the raw-logit
    gradient used for training.
    """
    labels = tuple(labels)
    _check_labels(lattice, labels)
    t_total, rows = lattice.shape[0], lattice.shape[1]
    blank, label = _transition_slices(lattice, labels)
    beta_next = np.full((t_total, rows), NEG_INF)
    beta_next[:-1, :] = tables.beta[1:, :]
    beta_next[t_total - 1, rows - 1] = 0.0
    grad = np.zeros_like(lattice)
    grad[:, :, BLANK] = -np.exp(tables.alpha + blank + beta_next - tables.log_prob)
    if labels:
        gamma_label = np.exp(
            tables.alpha[:, :-1] + label + tables.beta[:, 1:] - tables.log_prob
        )
        grad[:, np.arange(len(labels)), list(labels)] = -gamma_label
    return grad


def loss_and_logit_grad(logits: np.ndarray, labels):
    """(loss, grad): loss = -log Pr(y|x) of raw logits normalized per node, and
    its gradient wrt ``logits``, the transition posteriors chained back through
    the softmax. Training chains the same steps inside model.backward_pass."""
    lattice = log_softmax(logits)
    tables = rnnt_alphabeta(lattice, labels)
    grad_logprob = rnnt_grad(lattice, tuple(labels), tables)
    grad = log_softmax_backward(grad_logprob, lattice)
    return -tables.log_prob, grad


def random_lattice(rng: np.random.Generator, t: int, u: int, k: int) -> np.ndarray:
    """A random normalized (T, U+1, K+1) lattice."""
    return log_softmax(rng.normal(size=(t, u + 1, k + 1)))
