import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linerec import numerics as nm
from linerec.errors import UsageError
from linerec.oracles import fd_grad, rel_err


# --- logsumexp ---------------------------------------------------------------


def test_logsumexp_two_equal_masses():
    assert nm.logsumexp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_logsumexp_neg_inf_is_identity():
    assert nm.logsumexp([-np.inf, 3.25]) == pytest.approx(3.25, abs=0)
    assert nm.logsumexp([-np.inf, -np.inf]) == -np.inf


def test_logsumexp_matches_extended_precision():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.uniform(-10, 10, size=5)
        oracle = float(np.log(np.sum(np.exp(v.astype(np.longdouble)))))
        assert abs(nm.logsumexp(v) - oracle) < 1e-12


def test_logsumexp_no_overflow_at_700():
    assert np.isfinite(nm.logsumexp([700.0, 700.0]))
    assert nm.logsumexp([700.0, -700.0]) == pytest.approx(700.0)


def test_logsumexp_empty_rejected():
    with pytest.raises(UsageError):
        nm.logsumexp([])


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_logsumexp_permutation_invariant(vals):
    assert nm.logsumexp(vals) == pytest.approx(nm.logsumexp(sorted(vals)), abs=1e-12)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=5),
)
def test_logsumexp_monotone_in_each_argument(vals, idx):
    # non-strict: a term 40+ orders of magnitude below the max is lost to
    # float64 rounding, so bumping it cannot be seen in the result
    idx = idx % len(vals)
    bumped = list(vals)
    bumped[idx] += 1.0
    assert nm.logsumexp(bumped) >= nm.logsumexp(vals)


def test_logsumexp_strictly_monotone_at_comparable_scales():
    base = [1.0, -2.0, 0.5]
    for i in range(3):
        bumped = list(base)
        bumped[i] += 1e-6
        assert nm.logsumexp(bumped) > nm.logsumexp(base)


# --- log_softmax -------------------------------------------------------------


def test_log_softmax_uniform_logits():
    out = nm.log_softmax(np.full(7, 3.3))
    assert np.allclose(out, -math.log(7), atol=1e-12)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=9))
def test_log_softmax_normalizes(logits):
    out = nm.log_softmax(np.array(logits))
    assert abs(np.sum(np.exp(out)) - 1.0) < 1e-12


def test_log_softmax_shift_invariant():
    rng = np.random.default_rng(3)
    z = rng.normal(size=6)
    assert np.allclose(nm.log_softmax(z), nm.log_softmax(z + 17.3), atol=1e-12)


def test_log_softmax_rejects_non_finite():
    with pytest.raises(UsageError):
        nm.log_softmax(np.array([1.0, np.inf]))


def test_log_softmax_gradient():
    rng = np.random.default_rng(11)
    z = rng.normal(size=6)
    r = rng.normal(size=6)

    def loss(zz):
        return float(r @ nm.log_softmax(zz))

    analytic = nm.log_softmax_backward(r, nm.log_softmax(z))
    assert rel_err(analytic, fd_grad(loss, z)) < 1e-7


# --- affine ------------------------------------------------------------------


def test_affine_zero_weights_returns_bias():
    b = np.array([1.0, -2.0])
    out = nm.affine_forward(np.ones(3), np.zeros((2, 3)), b)
    assert np.array_equal(out, b)


def test_affine_identity():
    x = np.array([0.5, -1.5, 2.0])
    assert np.array_equal(nm.affine_forward(x, np.eye(3), np.zeros(3)), x)


def test_affine_shape_mismatch():
    with pytest.raises(UsageError):
        nm.affine_forward(np.ones(3), np.zeros((2, 4)), np.zeros(2))


def test_affine_gradients_match_fd():
    rng = np.random.default_rng(5)
    x = rng.normal(size=3)
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    r = rng.normal(size=4)

    gx, gw, gb = nm.affine_backward(r, x, w)
    assert rel_err(gx, fd_grad(lambda v: float(r @ nm.affine_forward(v, w, b)), x)) < 1e-7
    assert rel_err(gw, fd_grad(lambda v: float(r @ nm.affine_forward(x, v, b)), w)) < 1e-7
    assert rel_err(gb, fd_grad(lambda v: float(r @ nm.affine_forward(x, w, v)), b)) < 1e-7


def test_affine_rowstacked_accumulates():
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(5, 3))
    w = rng.normal(size=(2, 3))
    g = rng.normal(size=(5, 2))
    _, gw, gb = nm.affine_backward(g, xs, w)
    gw_ref = sum(np.outer(g[i], xs[i]) for i in range(5))
    assert np.allclose(gw, gw_ref, atol=1e-12)
    assert np.allclose(gb, g.sum(axis=0), atol=1e-12)


# --- layer norm / channel norm -------------------------------------------------


def test_layer_norm_constant_input_is_zero():
    out = nm.layer_norm(np.full(5, 4.2), np.ones(5), np.zeros(5))
    assert np.allclose(out, 0.0)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(9)
    x = rng.normal(2.0, 3.0, size=64)
    out = nm.layer_norm(x, np.ones(64), np.zeros(64))
    assert abs(out.mean()) < 1e-12
    assert abs(out.var() - 1.0) < 1e-4  # off by var/(var+eps)


def test_layer_norm_too_short():
    with pytest.raises(UsageError):
        nm.layer_norm(np.ones(1), np.ones(1), np.zeros(1))


def test_layer_norm_gradients_match_fd():
    rng = np.random.default_rng(13)
    x = rng.normal(size=6)
    gain = rng.normal(size=6)
    shift = rng.normal(size=6)
    r = rng.normal(size=6)

    gx, gg, gs = nm.layer_norm_backward(r, x, gain)
    assert rel_err(gx, fd_grad(lambda v: float(r @ nm.layer_norm(v, gain, shift)), x)) < 1e-6
    assert rel_err(gg, fd_grad(lambda v: float(r @ nm.layer_norm(x, v, shift)), gain)) < 1e-6
    assert rel_err(gs, fd_grad(lambda v: float(r @ nm.layer_norm(x, gain, v)), shift)) < 1e-6


def test_channel_norm_gradients_match_fd():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4, 5))
    gain = rng.normal(size=3)
    shift = rng.normal(size=3)
    r = rng.normal(size=(3, 4, 5))

    gx, gg, gs = nm.channel_norm_backward(r, x, gain)
    assert (
        rel_err(gx, fd_grad(lambda v: float(np.sum(r * nm.channel_norm(v, gain, shift))), x))
        < 1e-6
    )
    assert (
        rel_err(gg, fd_grad(lambda v: float(np.sum(r * nm.channel_norm(x, v, shift))), gain))
        < 1e-6
    )
    assert (
        rel_err(gs, fd_grad(lambda v: float(np.sum(r * nm.channel_norm(x, gain, v))), shift))
        < 1e-6
    )


# --- conv / pool ---------------------------------------------------------------


def test_conv2d_gradients_match_fd():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 5, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    r = rng.normal(size=(3, 5, 6))

    gx, gw, gb = nm.conv2d_backward(r, x, w)
    assert rel_err(gx, fd_grad(lambda v: float(np.sum(r * nm.conv2d(v, w, b))), x)) < 1e-7
    assert rel_err(gw, fd_grad(lambda v: float(np.sum(r * nm.conv2d(x, v, b))), w)) < 1e-7
    assert rel_err(gb, fd_grad(lambda v: float(np.sum(r * nm.conv2d(x, w, v))), b)) < 1e-7


def test_conv2d_rejects_even_kernel():
    with pytest.raises(UsageError):
        nm.conv2d(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))


def test_maxpool_shapes_and_ceil_mode():
    x = np.arange(24, dtype=np.float64).reshape(1, 4, 6)
    pooled, _ = nm.maxpool2d(x, (2, 2))
    assert pooled.shape == (1, 2, 3)
    assert pooled[0, 0, 0] == 7.0  # max of the top-left 2x2 block
    # 5 columns does not divide 2: ceil mode keeps the partial window
    pooled, _ = nm.maxpool2d(x[:, :, :5], (2, 2))
    assert pooled.shape == (1, 2, 3)
    assert pooled[0, 0, 2] == x[0, 1, 4]


def test_maxpool_gradient_matches_fd():
    # margins between window values are large, so h=1e-5 never flips an argmax
    rng = np.random.default_rng(23)
    x = rng.permutation(30).astype(np.float64).reshape(1, 5, 6)
    r = rng.normal(size=(1, 3, 3))

    def loss(v):
        pooled, _ = nm.maxpool2d(v, (2, 2))
        return float(np.sum(r * pooled))

    _, argmax = nm.maxpool2d(x, (2, 2))
    gx = nm.maxpool2d_backward(r, argmax, x.shape, (2, 2))
    assert rel_err(gx, fd_grad(loss, x)) < 1e-7


# --- LSTM ----------------------------------------------------------------------


def _rand_lstm(rng, n_in, n_hidden, layer_norm=False):
    p = nm.LstmParams(
        w_x=rng.normal(size=(4 * n_hidden, n_in)) * 0.5,
        w_h=rng.normal(size=(4 * n_hidden, n_hidden)) * 0.5,
        b=rng.normal(size=4 * n_hidden) * 0.5,
    )
    if layer_norm:
        p.ln_gain = 1.0 + 0.1 * rng.normal(size=(4, n_hidden))
        p.ln_shift = 0.1 * rng.normal(size=(4, n_hidden))
    return p


def test_lstm_all_zero_weights_gives_zero_output():
    p = nm.LstmParams(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
    h, state = nm.lstm_step(np.zeros(3), nm.lstm_zero_state(2), p)
    assert np.array_equal(h, np.zeros(2))
    assert np.array_equal(state.cell, np.zeros(2))


def test_lstm_output_strictly_inside_unit_box():
    rng = np.random.default_rng(29)
    p = _rand_lstm(rng, 3, 4)
    state = nm.lstm_zero_state(4)
    for _ in range(20):
        h, state = nm.lstm_step(rng.normal(size=3) * 5, state, p)
        assert np.all(np.abs(h) < 1.0)


def test_lstm_step_does_not_mutate_input_state():
    rng = np.random.default_rng(31)
    p = _rand_lstm(rng, 3, 4)
    state = nm.LstmState(rng.normal(size=4) * 0.1, rng.normal(size=4) * 0.1)
    snapshot = (state.hidden.copy(), state.cell.copy())
    nm.lstm_step(rng.normal(size=3), state, p)
    assert np.array_equal(state.hidden, snapshot[0])
    assert np.array_equal(state.cell, snapshot[1])


def _pack_lstm(p):
    parts = [p.w_x.reshape(-1), p.w_h.reshape(-1), p.b]
    if p.ln_gain is not None:
        parts += [p.ln_gain.reshape(-1), p.ln_shift.reshape(-1)]
    return np.concatenate(parts)


def _unpack_lstm(vec, template):
    n_in = template.w_x.shape[1]
    hs = template.hidden_size
    sizes = [4 * hs * n_in, 4 * hs * hs, 4 * hs]
    with_ln = template.ln_gain is not None
    if with_ln:
        sizes += [4 * hs, 4 * hs]
    splits = np.split(vec, np.cumsum(sizes)[:-1])
    p = nm.LstmParams(
        w_x=splits[0].reshape(4 * hs, n_in),
        w_h=splits[1].reshape(4 * hs, hs),
        b=splits[2].copy(),
    )
    if with_ln:
        p.ln_gain = splits[3].reshape(4, hs)
        p.ln_shift = splits[4].reshape(4, hs)
    return p


@pytest.mark.parametrize("layer_norm", [False, True])
@pytest.mark.parametrize("dropout_mask", [False, True])
def test_lstm_bptt_matches_fd(layer_norm, dropout_mask):
    """Unrolled 3-step sequence: gradient wrt every weight via BPTT vs FD."""
    rng = np.random.default_rng(37)
    n_in, hs, steps = 3, 4, 3
    params = _rand_lstm(rng, n_in, hs, layer_norm=layer_norm)
    xs = rng.normal(size=(steps, n_in))
    readout = rng.normal(size=(steps, hs))
    mask = (rng.random(hs) > 0.3).astype(np.float64) / 0.7 if dropout_mask else None

    def loss_from(params_):
        state = nm.lstm_zero_state(hs)
        total = 0.0
        for t in range(steps):
            h, state = nm.lstm_step(xs[t], state, params_, rec_mask=mask)
            total += float(readout[t] @ h)
        return total

    # analytic: forward with caches, then backward through time
    state = nm.lstm_zero_state(hs)
    caches = []
    for t in range(steps):
        _, state, cache = nm.lstm_step_cached(xs[t], state, params, rec_mask=mask)
        caches.append(cache)
    grads = _unpack_lstm(np.zeros_like(_pack_lstm(params)), params)
    dz = np.empty((steps, 4 * hs))
    dh = np.zeros(hs)
    dc = np.zeros(hs)
    for t in reversed(range(steps)):
        dz[t], dh, dc = nm.lstm_step_backward(readout[t] + dh, dc, caches[t], params, grads)
    # the step returns the pre-activation gradient; the weights are ours to sum
    grads.w_x += dz.T @ xs
    grads.w_h += dz.T @ np.array([c.h_used for c in caches])
    grads.b += dz.sum(axis=0)

    fd = fd_grad(lambda v: loss_from(_unpack_lstm(v, params)), _pack_lstm(params))
    assert rel_err(_pack_lstm(grads), fd) < 1e-6
