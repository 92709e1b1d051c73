import math
import tracemalloc

import numpy as np
import pytest

from linerec import lattice as lt
from linerec import model as md
from linerec import oracles
from linerec.data import synth_charset
from linerec.errors import UsageError
from linerec.numerics import log_softmax
from test_model import dense_logit_grad, transitions

# The worked two-symbol example: vocab (B, E), so B=1, E=2, blank=0.
B, E = 1, 2
WORKED_ALIGNMENTS = [
    (0, 0, B, 0, E, E, 0),
    (0, B, E, E, 0, 0, 0),
    (0, B, 0, E, 0, E, 0),
    (0, 0, B, E, 0, E, 0),
]


def uniform_lattice(t, u, k):
    return np.full((t, u + 1, k + 1), -math.log(k + 1))


# --- vocab ---------------------------------------------------------------------


def test_vocab_encode_decode_roundtrip():
    v = lt.Vocab(("a", "b", "c"))
    assert v.encode("cab") == (3, 1, 2)
    assert v.decode((3, 1, 2)) == "cab"


def test_vocab_round_trips_a_wide_charset():
    vocab = synth_charset(4000)
    ids = tuple(int(i) for i in np.random.default_rng(5).integers(1, 4001, size=60))
    text = vocab.decode(ids)
    assert len(text) == 60 and vocab.encode(text) == ids
    assert vocab.ids == {s: i for i, s in enumerate(vocab.symbols, start=1)}


def test_vocab_rejects_duplicates_and_unknown():
    with pytest.raises(UsageError):
        lt.Vocab(("a", "a"))
    with pytest.raises(UsageError):
        lt.Vocab(("a", "b")).encode("ax")
    with pytest.raises(UsageError):
        lt.Vocab(("a", "b")).decode((0,))


@pytest.mark.parametrize("bad", [1.7, 2.0, "a", None, 0, 4, -1])
def test_every_label_consumer_rejects_ids_that_are_not_integers_in_range(bad):
    cfg = oracles.tiny_model_config()  # K = 3
    params = md.init_params(cfg, seed=0)
    consumers = (lambda ids: lt.check_label_ids(ids, 3),
                 lambda ids: lt.Vocab(("a", "b", "c")).decode(ids),
                 lambda ids: lt.loss_and_logit_grad(np.zeros((2, 3, 4)), ids),
                 lambda ids: md.linguistic_encode_cached(ids, params, cfg))
    for consume in consumers:
        consume((1, 3))
        with pytest.raises(UsageError):
            consume((1, bad))


def test_label_ids_come_back_as_python_ints():
    ids = lt.check_label_ids(np.array([3, 1, 2]), 3)
    assert ids == (3, 1, 2) and all(type(i) is int for i in ids)


# --- blank removal ---------------------------------------------------------------


def test_remove_blanks_paper_example():
    assert oracles.remove_blanks((0, 0, B, 0, E, E, 0)) == (B, E, E)


def test_remove_blanks_trivial_cases():
    assert oracles.remove_blanks((0, 0, 0)) == ()
    assert oracles.remove_blanks((B, E, E)) == (B, E, E)


def test_remove_blanks_range_check():
    with pytest.raises(UsageError):
        oracles.remove_blanks((0, -1))
    with pytest.raises(UsageError):
        oracles.remove_blanks((0, 3), num_classes=2)


# --- enumeration ------------------------------------------------------------------


def test_enumerate_contains_paper_alignments():
    got = oracles.enumerate_alignments(4, (B, E, E))
    assert len(got) == 20  # C(6, 3)
    assert len(set(got)) == 20
    for a in WORKED_ALIGNMENTS:
        assert a in got


def test_enumerate_single_frame_empty_labels():
    assert oracles.enumerate_alignments(1, ()) == [(0,)]


def test_enumerate_two_frames_one_label():
    assert set(oracles.enumerate_alignments(2, (5,))) == {(5, 0, 0), (0, 5, 0)}


@pytest.mark.parametrize("t", range(1, 7))
@pytest.mark.parametrize("u", range(0, 5))
def test_enumeration_count_law_and_blank_removal(t, u):
    assert oracles.alignment_count_error([(t, tuple(1 + (i % 3) for i in range(u)))]) == 0


def test_enumeration_guard():
    with pytest.raises(UsageError):
        oracles.enumerate_alignments(10, (1, 2, 3))
    with pytest.raises(UsageError):
        oracles.enumerate_alignments(0, ())


# --- single-path probability --------------------------------------------------------


def test_alignment_log_prob_uniform_lattice():
    lat = uniform_lattice(3, 2, 4)
    got = oracles.alignment_log_prob(lat, (1, 2), (0, 1, 0, 2, 0))
    assert got == pytest.approx(5 * -math.log(5), abs=1e-12)


def test_alignment_log_prob_peaked_path():
    # push nearly all mass onto one chosen path; its log-prob must be ~0
    t, labels = 3, (2, 1)
    path = (0, 2, 1, 0, 0)
    logits = np.zeros((t, len(labels) + 1, 4))
    ti = ui = 0
    for a in path:
        logits[ti, ui, a] = 40.0
        if a == 0:
            ti += 1
        else:
            ui += 1
    lat = log_softmax(logits)
    assert abs(oracles.alignment_log_prob(lat, labels, path)) < 1e-9


def test_alignment_log_prob_matches_hand_walk():
    rng = np.random.default_rng(41)
    lat = oracles.random_lattice(rng, 3, 2, 3)
    labels = (1, 3)
    for align in oracles.enumerate_alignments(3, labels):
        # independent oracle: accumulate along the traced nodes by hand
        t = u = 0
        expect = 0.0
        for a in align:
            expect += lat[t, u, a]
            t, u = (t + 1, u) if a == 0 else (t, u + 1)
        assert oracles.alignment_log_prob(lat, labels, align) == pytest.approx(expect, abs=1e-12)


def test_alignment_log_prob_rejects_invalid():
    lat = uniform_lattice(3, 2, 4)
    with pytest.raises(UsageError):
        oracles.alignment_log_prob(lat, (1, 2), (0, 2, 1, 0, 0))  # wrong label order
    with pytest.raises(UsageError):
        oracles.alignment_log_prob(lat, (1, 2), (0, 1, 0, 2, 0, 0))  # wrong length
    with pytest.raises(UsageError):
        oracles.alignment_log_prob(lat, (1, 2), (0, 1, 0, 0, 2))  # does not end in blank


# --- brute-force loss ------------------------------------------------------------------


def test_brute_single_frame_no_labels():
    rng = np.random.default_rng(43)
    lat = oracles.random_lattice(rng, 1, 0, 3)
    assert oracles.rnnt_loss_brute(lat, ()) == pytest.approx(lat[0, 0, 0], abs=1e-12)


def test_brute_uniform_lattice_closed_form():
    t, u, k = 4, 3, 5
    lat = uniform_lattice(t, u, k)
    expect = math.log(math.comb(t + u - 1, u)) + (t + u) * -math.log(k + 1)
    assert oracles.rnnt_loss_brute(lat, (1, 2, 2)) == pytest.approx(expect, abs=1e-12)


# --- forward/backward DP -----------------------------------------------------------------


def test_forward_unique_path_t1_u1():
    rng = np.random.default_rng(47)
    lat = oracles.random_lattice(rng, 1, 1, 4)
    log_prob = lt.rnnt_alphabeta(*transitions(lat, (3,))).log_prob
    assert log_prob == pytest.approx(lat[0, 0, 3] + lat[0, 1, 0], abs=1e-12)


@pytest.mark.parametrize("t,u", [(1, 0), (1, 3), (2, 2), (3, 2), (4, 3), (2, 5)])
def test_forward_matches_brute_force(t, u):
    rng = np.random.default_rng(100 * t + u)
    assert oracles.loss_vs_enumeration(rng, [(t, u, 4)] * 25) < 1e-9


def test_loss_nonnegative_on_normalized_lattices():
    rng = np.random.default_rng(53)
    for _ in range(50):
        t, u = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        labels = tuple(int(x) for x in rng.integers(1, 4, size=u))
        lat = oracles.random_lattice(rng, t, u, 3)
        assert -lt.rnnt_alphabeta(*transitions(lat, labels)).log_prob >= 0.0


def test_backward_agrees_with_forward():
    rng = np.random.default_rng(59)
    for _ in range(25):
        t, u = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        labels = tuple(int(x) for x in rng.integers(1, 4, size=u))
        lat = oracles.random_lattice(rng, t, u, 3)
        tables = lt.rnnt_alphabeta(*transitions(lat, labels))
        assert abs(tables.beta[0, 0] - tables.log_prob) < 1e-10


def test_backward_terminal_blank():
    rng = np.random.default_rng(61)
    lat = oracles.random_lattice(rng, 1, 0, 3)
    beta = lt.rnnt_alphabeta(*transitions(lat, ())).beta
    assert beta[0, 0] == pytest.approx(lat[0, 0, 0], abs=1e-12)


def scalar_alpha_beta(lat, labels):
    """The node-by-node recurrences, one scalar logaddexp per node: the
    reference the anti-diagonal passes must reproduce bit for bit."""
    t_total, rows = lat.shape[0], lat.shape[1]
    blank = lat[:, :, 0]

    def label(t, u):
        return lat[t, u, labels[u]]

    alpha = np.full((t_total, rows), -np.inf)
    alpha[0, 0] = 0.0
    for u in range(1, rows):
        alpha[0, u] = alpha[0, u - 1] + label(0, u - 1)
    for t in range(1, t_total):
        alpha[t, 0] = alpha[t - 1, 0] + blank[t - 1, 0]
        for u in range(1, rows):
            alpha[t, u] = np.logaddexp(alpha[t - 1, u] + blank[t - 1, u],
                                       alpha[t, u - 1] + label(t, u - 1))
    beta = np.full((t_total, rows), -np.inf)
    beta[-1, -1] = blank[-1, -1]
    for u in range(rows - 2, -1, -1):
        beta[-1, u] = beta[-1, u + 1] + label(t_total - 1, u)
    for t in range(t_total - 2, -1, -1):
        beta[t, -1] = beta[t + 1, -1] + blank[t, -1]
        for u in range(rows - 2, -1, -1):
            beta[t, u] = np.logaddexp(beta[t + 1, u] + blank[t, u], beta[t, u + 1] + label(t, u))
    return alpha, beta, float(alpha[-1, -1] + blank[-1, -1])


def _diagonal_transitions(blank, label):
    """The (T, U+1) blank and (T, U) label transition tables skewed into
    diagonal-major form, shapes (T+U, U+1) and (T+U, U): row n, column u holds
    the transitions leaving node (n-u, u), and -inf where that node is off the
    lattice."""
    t_total, rows = blank.shape
    padded = np.full((t_total + 2 * rows - 2, 2 * rows - 1), -np.inf)
    padded[rows - 1 : rows - 1 + t_total] = np.concatenate((blank, label), axis=1)
    u = np.concatenate([np.arange(rows), np.arange(rows - 1)])
    n = np.arange(t_total + rows - 1)[:, None]
    skew = padded[rows - 1 + n - u, np.arange(2 * rows - 1)]
    return skew[:, :rows], skew[:, rows:]


def _unskewed(skew, t_total):
    """The (T, U+1) table back from its diagonal-major form."""
    u = np.arange(skew.shape[1])
    return skew[np.arange(t_total)[:, None] + u, u]


def two_loop_alpha_beta(blank, label):
    """alpha and beta as two wavefront loops, one after the other, each over
    its own (U+1)-wide diagonals gathered into skewed copies of the tables:
    the form the one loop over views of its own buffers replaced."""
    skew_blank, skew_label = _diagonal_transitions(blank, label)

    def wavefront(start, blank, label):
        rows = blank.shape[1]
        table = np.full((len(blank) + 1, rows), -np.inf)
        table[0, 0] = start
        stay, move = np.empty(rows), np.full(rows, -np.inf)
        for n in range(1, len(table)):
            np.add(table[n - 1], blank[n - 1], out=stay)
            np.add(table[n - 1, :-1], label[n - 1], out=move[1:])
            np.logaddexp(stay, move, out=table[n])
        return table

    alpha = wavefront(0.0, skew_blank[:-1], skew_label[:-1])
    beta = wavefront(skew_blank[-1, -1], skew_blank[-2::-1, ::-1],
                     skew_label[-2::-1, ::-1])[::-1, ::-1]
    return (_unskewed(alpha, len(blank)), _unskewed(beta, len(blank)),
            float(alpha[-1, -1] + skew_blank[-1, -1]))


@pytest.mark.parametrize("t,u,k", [(1, 0, 3), (4, 0, 2), (2, 1, 1), (1, 3, 4), (3, 7, 5),
                                   (6, 4, 1), (11, 5, 12), (145, 60, 80),
                                   (1, 31, 6), (41, 0, 3), (2, 30, 4)]
                         + [(t, u, 5) for t in range(1, 6) for u in range(6)])
def test_wavefront_is_bitwise_equal_to_scalar_recurrence(t, u, k):
    """Including the lattice's extremes: one frame under many labels, many
    frames with none, two frames under many labels, and every small (T, U),
    so that each of the diagonal-major buffers' row offsets meets every edge."""
    rng = np.random.default_rng(1000 * t + u)
    lat = oracles.random_lattice(rng, t, u, k)
    labels = tuple(int(x) for x in rng.integers(1, k + 1, size=u))
    alpha, beta, log_prob = scalar_alpha_beta(lat, labels)
    tables = lt.rnnt_alphabeta(*transitions(lat, labels))
    assert np.array_equal(tables.alpha, alpha)
    assert np.array_equal(tables.beta, beta)
    assert tables.log_prob == log_prob
    two_loops = two_loop_alpha_beta(*transitions(lat, labels))
    assert np.array_equal(tables.alpha, two_loops[0])
    assert np.array_equal(tables.beta, two_loops[1])
    assert tables.log_prob == two_loops[2]


def test_alphabeta_reads_its_tables_only_and_returns_tables_of_its_own():
    rng = np.random.default_rng(83)
    lat = oracles.random_lattice(rng, 9, 4, 5)
    blank, label = transitions(lat, (2, 5, 1, 1))
    kept = blank.copy(), label.copy()
    first, second = lt.rnnt_alphabeta(blank, label), lt.rnnt_alphabeta(blank, label)
    assert np.array_equal(blank, kept[0]) and np.array_equal(label, kept[1])
    assert first.blank is blank and first.label is label
    assert not np.shares_memory(first.alpha, first.beta)
    for mine in (first.alpha, first.beta):
        assert not any(np.shares_memory(mine, theirs) for theirs in (second.alpha, second.beta))


@pytest.mark.parametrize("t,u", [(145, 60), (1, 31)])
def test_alphabeta_allocates_its_three_buffers_and_little_more(t, u):
    """Its (T+U+1, 2(U+1)) table, blank and label: no skewed or stacked copies."""
    rng = np.random.default_rng(t + u)
    blank, label = transitions(oracles.random_lattice(rng, t, u, 6),
                               tuple(int(x) for x in rng.integers(1, 7, size=u)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lt.rnnt_alphabeta(blank, label)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (t + u + 1) * 2 * (u + 1) * 8 + 8192


# --- gradients -----------------------------------------------------------------------------


def test_rnnt_alphabeta_rejects_tables_that_do_not_fit_together():
    for blank, label in (((2, 3), (2, 3)), ((2, 3), (3, 2)), ((0, 1), (0, 0)), ((3,), (3,)),
                         ((2, 0), (2, 0))):
        with pytest.raises(UsageError):
            lt.rnnt_alphabeta(np.zeros(blank), np.zeros(label))


def test_grad_zero_for_unused_classes():
    """At a class no transition uses, the logit gradient is the softmax part
    alone: softmax(z) times the node's occupancy, the posterior mass leaving it."""
    rng = np.random.default_rng(67)
    labels = (2, 1)
    logits = rng.normal(size=(3, 3, 5))
    _, grad = lt.loss_and_logit_grad(logits, labels)
    lat = log_softmax(logits)
    grad_blank, grad_label = lt.rnnt_grad(lt.rnnt_alphabeta(*transitions(lat, labels)))
    occupancy = -grad_blank
    occupancy[:, :-1] -= grad_label
    for u in range(3):
        used = {0, labels[u]} if u < 2 else {0}
        for k in set(range(5)) - used:
            assert np.allclose(grad[:, u, k], np.exp(lat[:, u, k]) * occupancy[:, u],
                               rtol=1e-14, atol=0.0)


def test_gamma_mass_conserved_per_antidiagonal():
    rng = np.random.default_rng(71)
    cases = [(int(rng.integers(1, 5)), int(rng.integers(0, 4)), 3) for _ in range(25)]
    assert oracles.antidiagonal_mass_error(rng, cases) < 1e-9


def test_logit_gradient_matches_fd():
    assert oracles.logit_gradient_error(np.random.default_rng(73), [(3, 2, 4)]) < 1e-6


def test_logprob_level_grad_chains_to_logit_grad():
    """loss_and_logit_grad is bitwise the dense chain: rnnt_grad's tables
    scattered into a dense gradient, then log_softmax_backward; U = 0, T = 1
    and K up to several hundred included."""
    rng = np.random.default_rng(79)
    for t, u, k in ((2, 1, 2), (1, 0, 1), (1, 3, 7), (5, 0, 300), (4, 6, 450)):
        labels = tuple(int(x) for x in rng.integers(1, k + 1, size=u))
        logits = 3.0 * rng.normal(size=(t, u + 1, k + 1))
        lat = log_softmax(logits)
        tables = lt.rnnt_alphabeta(*transitions(lat, labels))
        loss, direct = lt.loss_and_logit_grad(logits, labels)
        assert loss == -tables.log_prob
        assert np.array_equal(direct, dense_logit_grad(lat, lt.rnnt_grad(tables), labels))
