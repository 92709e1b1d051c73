"""Alignment semantics and the exact transducer loss.

Every lattice node (t, u) holds a distribution over the K+1 extended labels,
the softmax of the joint's raw logits, index 0 being the blank symbol. A path
consumes one frame per blank (t+1) and emits one label per non-blank (u+1),
ends with a blank at (T-1, U), and therefore has length T+U. The conditional
probability of a label sequence is the sum of path probabilities over all
such alignments. The loss reads two transitions per node, blank and y[u+1],
so one exact path, which keeps no (T, U+1, K+1) array, serves training (per
block of frames) and loss_and_logit_grad (a whole lattice): node_log_probs
gathers the two transition tables and each node's normalizer, rnnt_alphabeta
runs the DP over the tables, rnnt_grad turns it into the gradient at the
tables, and logit_grad recomputes the softmax and forms the logit gradient as
softmax * occupancy - gamma directly (Li et al. 2019, arXiv 1909.12415). They
are validated against full enumeration (the oracles module), never trusted
on their own.

Both recurrences run in one anti-diagonal wavefront loop (Graves 2012, arXiv
1211.3711): the nodes with t+u = n depend only on diagonal n-1, so each
diagonal is one vector step, and beta is alpha's recurrence, stepped beside
it, from the far corner over the transition tables reversed in both axes.
The loop copies no skewed tables: its buffers are diagonal-major, every
anti-diagonal one contiguous row with -inf off the lattice, and the
row-major tables are views of them, so the loop writes straight into the
array that alpha and beta are read from.
Every node runs the scalar recurrence's adds and logaddexp in the same
operand order, and logaddexp(x, -inf) is exactly x, so the results are
bitwise equal to the node-by-node recurrence.

Indexing is zero-based throughout: t in [0, T), u in [0, U].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .numerics import NEG_INF, log_normalizer

BLANK = 0


@dataclass(frozen=True)
class Vocab:
    """Ordered character inventory; label ids 1..K, blank reserved at 0.
    ``ids`` maps each symbol to its label id, built once. It holds the
    charset rules: one or more symbols, each a distinct codepoint that
    str.splitlines, which reads charset files, does not break at."""

    symbols: tuple[str, ...]
    ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", {})
        if not self.symbols:
            raise UsageError("empty charset")
        for n, s in enumerate(self.symbols, start=1):
            if not isinstance(s, str) or len(s) != 1:
                raise UsageError(f"charset symbol {n}: expected one codepoint, got {s!r}")
            if s.splitlines() != [s]:
                raise UsageError(f"charset symbol {n}: {s!r} is a line break")
            if s in self.ids:
                raise UsageError(f"charset symbol {n}: duplicate codepoint {s!r}")
            self.ids[s] = n

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, text: str) -> tuple[int, ...]:
        try:
            return tuple(self.ids[ch] for ch in text)
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
    blank: np.ndarray  # (T, U+1): log Pr(blank | t, u)
    label: np.ndarray  # (T, U): log Pr(y[u+1] | t, u)


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


def node_log_probs(logits: np.ndarray, labels: np.ndarray):
    """(blank (n, U+1), label (n, U), peak (n, U+1), log_norm (n, U+1)) of a
    block of raw logits (n, U+1, K+1) and the checked label ids as an integer
    array: the log-probs of blank and y[u+1], and each node's max logit and
    log sum exp(z - max), from numerics.log_normalizer."""
    peak, shifted, log_norm = log_normalizer(logits)
    blank = shifted[:, :, BLANK] - log_norm
    label = shifted[:, np.arange(len(labels)), labels] - log_norm[:, :-1]
    return blank, label, peak, log_norm


def _nodes(buf: np.ndarray, row: int, col: int, shape) -> np.ndarray:
    """The ``shape`` view of a diagonal-major 2-D ``buf`` whose node (t, u) is
    buf[row + t + u, col + u]."""
    s0, s1 = buf.strides
    return np.ndarray(shape, buf.dtype, buf, row * s0 + col * s1, (s0, s0 + s1))


def _wavefront(table: np.ndarray, blank: np.ndarray, label: np.ndarray) -> None:
    """Fills table[1:] from table[0], per diagonal n: table[n] =
    logaddexp(table[n-1] + blank[n-1], table[n-1, :-1] + label[n-1] shifted one
    column right). On diagonal-major tables, row n holding the nodes with
    t+u = n, this is alpha; on the tables reversed in both axes it is beta,
    reversed likewise. Both run in one loop side by side, with a -inf label
    column between them."""
    stay, move = np.empty(table.shape[1]), np.full(table.shape[1], NEG_INF)
    for n in range(1, len(table)):  # move[0]: nothing enters column 0
        np.add(table[n - 1], blank[n - 1], out=stay)
        np.add(table[n - 1, :-1], label[n - 1], out=move[1:])
        np.logaddexp(stay, move, out=table[n])


def rnnt_alphabeta(blank: np.ndarray, label: np.ndarray) -> AlphaBetaTables:
    """The forward-backward DP over the transition tables blank(t, u) =
    log Pr(blank | t, u), (T, U+1), and label(t, u) = log Pr(y[u+1] | t, u), (T, U).

    alpha[t, u] is the log-mass of consuming t frames and emitting u labels:
      alpha[0, 0] = 0,
      alpha[t, u] = LSE(alpha[t-1, u] + blank(t-1, u), alpha[t, u-1] + label(t, u-1)),
      log Pr = alpha[T-1, U] + blank(T-1, U).
    beta[t, u] is the log-mass of the completions from (t, u), the terminal
    blank included, so beta[0, 0] = log Pr:
      beta[T-1, U] = blank(T-1, U),
      beta[t, u] = LSE(beta[t+1, u] + blank(t, u), beta[t, u+1] + label(t, u)).

    The wavefront runs over three (T+U+1, 2(U+1)) -inf buffers, the table,
    blank and label, whose row 1 + n is anti-diagonal n (_nodes views). Alpha
    and its operands sit in columns [0, U]; beta and its operands, reversed
    in both axes, in columns [U+1, 2U+1], the reversed blank one row higher,
    since beta's blank operand at a node is the blank that enters it.
    """
    if blank.ndim != 2 or len(blank) < 1 or label.shape != (len(blank), blank.shape[1] - 1):
        raise UsageError(f"transition tables of shapes {blank.shape} and {label.shape} "
                         "are not (T, U+1) and (T, U) with T >= 1")
    t_total, rows = blank.shape
    table, blanks, labels = np.full((3, t_total + rows, 2 * rows), NEG_INF)
    _nodes(blanks, 1, 0, blank.shape)[...] = blank
    _nodes(labels, 1, 0, label.shape)[...] = label
    _nodes(blanks, 0, rows, blank.shape)[...] = blank[::-1, ::-1]
    _nodes(labels, 1, rows, label.shape)[...] = label[::-1, ::-1]
    table[1, 0], table[1, rows] = 0.0, blank[-1, -1]
    _wavefront(table[1:], blanks[1:], labels[1:, :-1])
    alpha, beta = _nodes(table, 1, 0, blank.shape), _nodes(table, 1, rows, blank.shape)
    return AlphaBetaTables(alpha=alpha, beta=beta[::-1, ::-1],
                           log_prob=float(alpha[-1, -1] + blank[-1, -1]),
                           blank=blank, label=label)


def rnnt_grad(tables: AlphaBetaTables):
    """Gradient of the loss L = -log Pr(y|x) wrt the transition log-probs,
    from rnnt_alphabeta's tables, as (grad_blank (T, U+1), grad_label (T, U)):
    its entries at blank(t, u) and label(t, u), the only transitions the loss
    reads; logit_grad chains them to the raw logits.

    The posterior mass of each transition is
      gamma(t, u, blank)  = exp(alpha[t,u] + blank(t,u) + beta[t+1,u] - log Pr)
      gamma(t, u, y[u+1]) = exp(alpha[t,u] + label(t,u) + beta[t,u+1] - log Pr)
    (with beta[T, u] read as 0 at u = U and -inf otherwise); the gradient is
    -gamma.
    """
    t_total, rows = tables.alpha.shape
    beta_next = np.full((t_total, rows), NEG_INF)
    beta_next[:-1, :] = tables.beta[1:, :]
    beta_next[t_total - 1, rows - 1] = 0.0
    grad_blank = -np.exp(tables.alpha + tables.blank + beta_next - tables.log_prob)
    grad_label = -np.exp(tables.alpha[:, :-1] + tables.label + tables.beta[:, 1:]
                         - tables.log_prob)
    return grad_blank, grad_label


def logit_grad(logits: np.ndarray, peak: np.ndarray, log_norm: np.ndarray,
               grad_blank: np.ndarray, grad_label: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The loss gradient at a block of raw logits (n, U+1, K+1) from
    node_log_probs' peak, log_norm and labels and rnnt_grad's tables for its nodes:
    softmax(z) * occupancy plus the tables at their classes, the occupancy
    -(grad_blank + grad_label) being the tables' sum over a node's classes.
    The softmax is recomputed with log_softmax's operations, so the result is
    bitwise that of chaining the dense gradient through log_softmax_backward."""
    occupancy = -grad_blank
    occupancy[:, :-1] -= grad_label
    grad = logits - peak[..., None]
    grad -= log_norm[..., None]
    np.exp(grad, out=grad)
    grad *= occupancy[..., None]
    grad[:, :, BLANK] += grad_blank
    grad[:, np.arange(len(labels)), labels] += grad_label
    return grad


def loss_and_logit_grad(logits: np.ndarray, labels):
    """(loss, grad): loss = -log Pr(y|x) of raw (T, U+1, K+1) logits normalized
    per node, and its gradient wrt ``logits``, by training's kernels."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.array(_check_labels(logits, labels), dtype=np.intp)
    blank, label, peak, log_norm = node_log_probs(logits, labels)
    tables = rnnt_alphabeta(blank, label)
    return -tables.log_prob, logit_grad(logits, peak, log_norm, *rnnt_grad(tables), labels)
