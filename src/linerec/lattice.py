"""Alignment semantics and the exact transducer loss.

The label distribution at every lattice node (t, u) lives in a
(T, U+1, K+1) array of log-probabilities, index 0 of the class axis being
the blank symbol. A path through the lattice consumes one frame per blank
(t+1) and emits one label per non-blank (u+1), ends with a blank at
(T-1, U), and therefore has length T+U. The conditional probability of a
label sequence is the sum of path probabilities over all such alignments.
rnnt_alphabeta, the one forward-backward entry point, computes it in O(T*U)
from one gather of the blank and label transitions, and rnnt_grad turns its
tables into the loss gradient; both are validated against full enumeration,
never trusted on their own.

Both recurrences run as an anti-diagonal wavefront (Graves 2012, arXiv
1211.3711): the nodes with t+u = n depend only on diagonal n-1, so each
diagonal is one vector step. Every node runs the scalar recurrence's adds and
logaddexp in the same operand order, and logaddexp(x, -inf) is exactly x, so
the results are bitwise equal to the node-by-node recurrence.

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

    def encode(self, text: str) -> tuple[int, ...]:
        index = {s: i + 1 for i, s in enumerate(self.symbols)}
        try:
            return tuple(index[ch] for ch in text)
        except KeyError as exc:
            raise UsageError(f"character {exc.args[0]!r} not in vocabulary") from None

    def decode(self, ids) -> str:
        return "".join(self.symbols[i - 1] for i in check_label_ids(ids, self.size))


def check_label_ids(labels, num_labels: int) -> tuple[int, ...]:
    """``labels`` as a tuple of ints. A label id is an integer in
    [1, num_labels], blank (0) excluded; any other id is a UsageError."""
    labels = tuple(labels)
    for i in labels:
        if not isinstance(i, (int, np.integer)) or not 1 <= i <= num_labels:
            raise UsageError(f"label id {i} is not an integer in [1, {num_labels}]")
    return tuple(int(i) for i in labels)


@dataclass
class AlphaBetaTables:
    """Forward/backward log-mass tables, the total log-probability, and the
    transition log-probs they were computed from."""

    alpha: np.ndarray  # (T, U+1)
    beta: np.ndarray  # (T, U+1)
    log_prob: float
    blank: np.ndarray  # (T, U+1): lattice[t, u, blank]
    label: np.ndarray  # (T, U): lattice[t, u, y[u+1]]


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


def _check_labels(lattice: np.ndarray, labels) -> tuple[int, ...]:
    """``labels`` checked against a (T, U+1, K+1) lattice, as check_label_ids returns them."""
    labels = tuple(labels)
    if lattice.ndim != 3 or lattice.shape[0] < 1:
        raise UsageError(f"lattice shape {lattice.shape} is not (T, U+1, K+1) with T >= 1")
    if lattice.shape[1] != len(labels) + 1:
        raise UsageError(
            f"lattice has {lattice.shape[1]} rows, labels need {len(labels) + 1}"
        )
    return check_label_ids(labels, lattice.shape[2] - 1)


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


def _diagonal_transitions(blank: np.ndarray, label: np.ndarray):
    """The (T, U+1) blank and (T, U) label transition tables skewed into
    diagonal-major form, shapes (T+U, U+1) and (T+U, U): row n, column u holds
    the transitions leaving node (n-u, u), and -inf where that node is off the
    lattice."""
    t_total, rows = blank.shape
    padded = np.full((t_total + 2 * rows - 2, 2 * rows - 1), NEG_INF)
    padded[rows - 1 : rows - 1 + t_total] = np.concatenate((blank, label), axis=1)
    u = np.concatenate([np.arange(rows), np.arange(rows - 1)])
    n = np.arange(t_total + rows - 1)[:, None]
    skew = padded[rows - 1 + n - u, np.arange(2 * rows - 1)]
    return skew[:, :rows], skew[:, rows:]


def _unskewed(skew: np.ndarray, t_total: int) -> np.ndarray:
    """The (T, U+1) table back from its diagonal-major form."""
    u = np.arange(skew.shape[1])
    return skew[np.arange(t_total)[:, None] + u, u]


def _alpha_diagonals(blank: np.ndarray, label: np.ndarray) -> tuple[np.ndarray, float]:
    """alpha in diagonal-major form, and log Pr, from _diagonal_transitions' tables."""
    diagonals, rows = blank.shape
    alpha = np.full((diagonals, rows), NEG_INF)
    alpha[0, 0] = 0.0
    stay, move = np.empty(rows), np.full(rows, NEG_INF)  # move[0]: no label enters u=0
    for n in range(1, diagonals):
        np.add(alpha[n - 1], blank[n - 1], out=stay)
        np.add(alpha[n - 1, :-1], label[n - 1], out=move[1:])
        np.logaddexp(stay, move, out=alpha[n])
    return alpha, float(alpha[-1, -1] + blank[-1, -1])


def _beta_diagonals(blank: np.ndarray, label: np.ndarray) -> np.ndarray:
    """beta in diagonal-major form, from _diagonal_transitions' tables."""
    diagonals, rows = blank.shape
    beta = np.full((diagonals, rows), NEG_INF)
    beta[-1, -1] = blank[-1, -1]
    stay, move = np.empty(rows), np.full(rows, NEG_INF)  # move[U]: no label leaves u=U
    for n in range(diagonals - 2, -1, -1):
        np.add(beta[n + 1], blank[n], out=stay)
        np.add(beta[n + 1, 1:], label[n], out=move[:-1])
        np.logaddexp(stay, move, out=beta[n])
    return beta


def rnnt_alphabeta(lattice: np.ndarray, labels) -> AlphaBetaTables:
    """The forward-backward DP over one gather of the transitions
    blank(t, u) = lattice[t, u, blank] and label(t, u) = lattice[t, u, y[u+1]].

    alpha[t, u] is the log-mass of consuming t frames and emitting u labels:
      alpha[0, 0] = 0,
      alpha[t, u] = LSE(alpha[t-1, u] + blank(t-1, u), alpha[t, u-1] + label(t, u-1)),
      log Pr = alpha[T-1, U] + blank(T-1, U).
    beta[t, u] is the log-mass of the completions from (t, u), the terminal
    blank included, so beta[0, 0] = log Pr:
      beta[T-1, U] = blank(T-1, U),
      beta[t, u] = LSE(beta[t+1, u] + blank(t, u), beta[t, u+1] + label(t, u)).
    """
    labels = _check_labels(lattice, labels)
    blank = lattice[:, :, BLANK]
    label = lattice[:, np.arange(len(labels)), list(labels)]
    skewed = _diagonal_transitions(blank, label)
    alpha, log_prob = _alpha_diagonals(*skewed)
    t_total = lattice.shape[0]
    return AlphaBetaTables(alpha=_unskewed(alpha, t_total),
                           beta=_unskewed(_beta_diagonals(*skewed), t_total),
                           log_prob=log_prob, blank=blank, label=label)


def rnnt_grad(tables: AlphaBetaTables):
    """Gradient of the loss L = -log Pr(y|x) wrt the lattice log-probabilities,
    from rnnt_alphabeta's tables, as (grad_blank (T, U+1), grad_label (T, U)):
    its entries at (t, u, blank) and at (t, u, y[u+1]). Every other class's
    entry is zero, since no transition uses it; dense_grad scatters the two
    tables back into the (T, U+1, K+1) form.

    The posterior mass of each transition is
      gamma(t, u, blank)  = exp(alpha[t,u] + blank(t,u) + beta[t+1,u] - log Pr)
      gamma(t, u, y[u+1]) = exp(alpha[t,u] + label(t,u) + beta[t,u+1] - log Pr)
    (with beta[T, u] read as 0 at u = U and -inf otherwise); the gradient is
    -gamma. Chaining through log_softmax (numerics.log_softmax_backward)
    turns this into the raw-logit gradient used for training.
    """
    t_total, rows = tables.alpha.shape
    beta_next = np.full((t_total, rows), NEG_INF)
    beta_next[:-1, :] = tables.beta[1:, :]
    beta_next[t_total - 1, rows - 1] = 0.0
    grad_blank = -np.exp(tables.alpha + tables.blank + beta_next - tables.log_prob)
    grad_label = -np.exp(tables.alpha[:, :-1] + tables.label + tables.beta[:, 1:]
                         - tables.log_prob)
    return grad_blank, grad_label


def dense_grad(grad_blank: np.ndarray, grad_label: np.ndarray, labels,
               num_classes: int) -> np.ndarray:
    """The (n, U+1, num_classes) gradient holding rnnt_grad's tables, or any
    block of frames of them, at their classes, and zero elsewhere."""
    n, rows = grad_blank.shape
    grad = np.zeros((n, rows, num_classes))
    grad[:, :, BLANK] = grad_blank
    grad[:, np.arange(rows - 1), list(labels)] = grad_label
    return grad


def loss_and_logit_grad(logits: np.ndarray, labels):
    """(loss, grad): loss = -log Pr(y|x) of raw logits normalized per node, and
    its gradient wrt ``logits``, the transition posteriors chained back through
    the softmax. Training chains the same steps inside model.backward_pass."""
    labels = tuple(labels)
    lattice = log_softmax(logits)
    tables = rnnt_alphabeta(lattice, labels)
    grad = log_softmax_backward(dense_grad(*rnnt_grad(tables), labels, lattice.shape[2]), lattice)
    return -tables.log_prob, grad


def random_lattice(rng: np.random.Generator, t: int, u: int, k: int) -> np.ndarray:
    """A random normalized (T, U+1, K+1) lattice."""
    return log_softmax(rng.normal(size=(t, u + 1, k + 1)))
