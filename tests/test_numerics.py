import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from linerec import model as md
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


# --- channel norm ------------------------------------------------------------


def _normalized(x, gain, shift):
    """(gain * xhat + shift, xhat, inv_std) of x through channel_norm's in-place
    statistics, taken on a copy."""
    centred = x.copy()
    _, inv_std = nm.channel_norm(centred, gain)
    xhat = centred * inv_std[:, None, None]
    return gain[:, None, None] * xhat + shift[:, None, None], xhat, inv_std


def test_channel_norm_gradients_match_fd():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4, 5))
    gain = rng.normal(size=3)
    shift = rng.normal(size=3)
    r = rng.normal(size=(3, 4, 5))

    _, xhat, inv_std = _normalized(x, gain, shift)
    gx, gg, gs = nm.channel_norm_backward(r.copy(), xhat, inv_std, gain)
    assert (
        rel_err(gx, fd_grad(lambda v: float(np.sum(r * _normalized(v, gain, shift)[0])), x))
        < 1e-6
    )
    assert (
        rel_err(gg, fd_grad(lambda v: float(np.sum(r * _normalized(x, v, shift)[0])), gain))
        < 1e-6
    )
    assert (
        rel_err(gs, fd_grad(lambda v: float(np.sum(r * _normalized(x, gain, v)[0])), shift))
        < 1e-6
    )


# --- conv / pool ---------------------------------------------------------------


def test_conv2d_gradients_match_fd():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 5, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    r = rng.normal(size=(3, 5, 6))

    gx, gw = nm.conv2d_backward(r, x, w)

    def conv(x, w, b):
        return nm.conv2d(x, w) + b[:, None, None]

    assert rel_err(gx, fd_grad(lambda v: float(np.sum(r * conv(v, w, b))), x)) < 1e-7
    assert rel_err(gw, fd_grad(lambda v: float(np.sum(r * conv(x, v, b))), w)) < 1e-7


def test_conv2d_rejects_even_kernel():
    with pytest.raises(UsageError):
        nm.conv2d(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)))


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


# --- conv-block kernels against their plain references ------------------------
#
# The references are the straightforward forms the fast kernels replaced: one
# shifted tensordot per kernel offset, a window tensor with argmax, a norm
# forward that makes its full-size affine, and a norm backward that recomputes
# its statistics from the input.


def _conv2d_reference(x, weights, bias):
    c_out, _, kh, kw = weights.shape
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.broadcast_to(bias[:, None, None], (c_out, h, w)).copy()
    for dy in range(kh):
        for dx in range(kw):
            out += np.tensordot(
                weights[:, :, dy, dx], xp[:, dy : dy + h, dx : dx + w], axes=(1, 0)
            )
    return out


def _conv2d_backward_reference(grad_out, x, weights):
    _, _, kh, kw = weights.shape
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(weights)
    for dy in range(kh):
        for dx in range(kw):
            patch = xp[:, dy : dy + h, dx : dx + w]
            grad_w[:, :, dy, dx] = np.tensordot(grad_out, patch, axes=([1, 2], [1, 2]))
            grad_xp[:, dy : dy + h, dx : dx + w] += np.tensordot(
                weights[:, :, dy, dx], grad_out, axes=(0, 0)
            )
    return grad_xp[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w], grad_w


def _maxpool2d_reference(x, pool):
    ph, pw = pool
    c, h, w = x.shape
    ho, wo = -(-h // ph), -(-w // pw)
    xp = np.full((c, ho * ph, wo * pw), -np.inf)
    xp[:, :h, :w] = x
    windows = (
        xp.reshape(c, ho, ph, wo, pw).transpose(0, 1, 3, 2, 4).reshape(c, ho, wo, ph * pw)
    )
    argmax = windows.argmax(axis=-1)
    return np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0], argmax


def _maxpool2d_backward_reference(grad_out, argmax, in_shape, pool):
    ph, pw = pool
    c, h, w = in_shape
    ho, wo = grad_out.shape[1], grad_out.shape[2]
    windows = np.zeros((c, ho, wo, ph * pw))
    np.put_along_axis(windows, argmax[..., None], grad_out[..., None], axis=-1)
    grad_xp = windows.reshape(c, ho, wo, ph, pw).transpose(0, 1, 3, 2, 4).reshape(
        c, ho * ph, wo * pw
    )
    return grad_xp[:, :h, :w]


def _channel_norm_reference(x, gain, shift):
    """The full-size norm the in-place statistics replaced: (gain * xhat + shift,
    xhat, inv_std (C, 1, 1))."""
    xhat = x - x.mean(axis=(1, 2), keepdims=True)
    std = np.sqrt(np.mean(xhat * xhat, axis=(1, 2), keepdims=True) + nm.LN_EPS)
    xhat /= std
    return gain[:, None, None] * xhat + shift[:, None, None], xhat, 1.0 / std


def _channel_norm_backward_reference(grad_out, x, gain):
    n = x.shape[1] * x.shape[2]
    mu = x.mean(axis=(1, 2), keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=(1, 2), keepdims=True) + nm.LN_EPS)
    xhat = (x - mu) * inv
    dxhat = grad_out * gain[:, None, None]
    grad_x = (inv / n) * (
        n * dxhat
        - dxhat.sum(axis=(1, 2), keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=(1, 2), keepdims=True)
    )
    return grad_x, (grad_out * xhat).sum(axis=(1, 2)), grad_out.sum(axis=(1, 2))


@pytest.mark.parametrize("c_in,h,w,k", [(1, 5, 7, 1), (1, 1, 9, 3), (3, 7, 1, 3),
                                        (3, 9, 13, 3), (1, 6, 11, 5), (3, 1, 1, 5)])
def test_im2col_conv_matches_shifted_tensordot(c_in, h, w, k):
    rng = np.random.default_rng(41 + 7 * k + h)
    x = rng.normal(size=(c_in, h, w))
    weights = rng.normal(size=(4, c_in, k, k))
    bias = rng.normal(size=4)
    grad_out = rng.normal(size=(4, h, w))
    conv = nm.conv2d(x, weights) + bias[:, None, None]
    assert rel_err(conv, _conv2d_reference(x, weights, bias)) <= 1e-12
    fast = nm.conv2d_backward(grad_out, x, weights)
    reference = _conv2d_backward_reference(grad_out, x, weights)
    assert len(fast) == len(reference) == 2
    for name, a, b in zip(("grad_x", "grad_w"), fast, reference):
        assert a.shape == b.shape and rel_err(a, b) <= 1e-12, name


def test_conv2d_backward_without_input_gradient_keeps_the_weight_gradients():
    rng = np.random.default_rng(47)
    x, weights = rng.normal(size=(1, 6, 11)), rng.normal(size=(4, 1, 3, 3))
    grad_out = rng.normal(size=(4, 6, 11))
    full = nm.conv2d_backward(grad_out, x, weights)
    grad_x, grad_w = nm.conv2d_backward(grad_out, x, weights, need_grad_x=False)
    assert grad_x is None
    assert np.array_equal(grad_w, full[1])


POOL_CASES = [((8, 12), (2, 2)), ((7, 9), (2, 2)), ((16, 6), (8, 2)), ((11, 5), (8, 2)),
              ((9, 8), (3, 2)), ((10, 7), (3, 2)), ((5, 3), (1, 1)), ((1, 1), (2, 2))]


def _tie_heavy(rng, shape):
    """Integers from a small set, zero included, so windows are full of ties."""
    return rng.integers(-2, 3, size=shape).astype(np.float64)


@pytest.mark.parametrize("hw,pool", POOL_CASES)
def test_slice_pooling_is_bitwise_equal_to_window_argmax(hw, pool):
    rng = np.random.default_rng(43)
    for _ in range(20):
        x = _tie_heavy(rng, (3, *hw))
        pooled, argmax = nm.maxpool2d(x, pool)
        ref_pooled, ref_argmax = _maxpool2d_reference(x, pool)
        assert np.array_equal(pooled, ref_pooled) and np.array_equal(argmax, ref_argmax)
        values, no_argmax = nm.maxpool2d(x, pool, need_argmax=False)
        assert no_argmax is None and np.array_equal(values, ref_pooled)
        grad_out = rng.normal(size=pooled.shape)
        assert np.array_equal(nm.maxpool2d_backward(grad_out, argmax, x.shape, pool),
                              _maxpool2d_backward_reference(grad_out, argmax, x.shape, pool))


@pytest.mark.parametrize("hw,pool", POOL_CASES)
def test_relu_after_pool_equals_relu_before_pool(hw, pool):
    rng = np.random.default_rng(47)
    for _ in range(20):
        x = _tie_heavy(rng, (3, *hw))
        pooled, argmax = nm.maxpool2d(x, pool)
        before, argmax_before = _maxpool2d_reference(np.maximum(x, 0.0), pool)
        assert np.array_equal(np.maximum(pooled, 0.0), before)
        grad_out = _tie_heavy(rng, pooled.shape)
        after_grad = nm.maxpool2d_backward(grad_out * (pooled > 0.0), argmax, x.shape, pool)
        before_grad = _maxpool2d_backward_reference(
            grad_out, argmax_before, x.shape, pool) * (x > 0.0)
        assert np.array_equal(after_grad, before_grad)


@pytest.mark.parametrize("shape", [(3, 4, 5), (1, 1, 7), (2, 9, 1), (4, 8, 33)])
def test_channel_norm_cached_statistics_match_recomputed_ones(shape):
    rng = np.random.default_rng(53)
    x = rng.normal(size=shape) * 3.0 + 1.0
    gain, shift = rng.normal(size=shape[0]), rng.normal(size=shape[0])
    grad_out = rng.normal(size=shape)
    centred = x.copy()
    scale, inv_std = nm.channel_norm(centred, gain)
    mu, var = x.mean(axis=(1, 2), keepdims=True), x.var(axis=(1, 2), keepdims=True)
    assert rel_err(centred, x - mu) <= 1e-12
    assert rel_err(inv_std, 1.0 / np.sqrt(var.ravel() + nm.LN_EPS)) <= 1e-12
    assert np.array_equal(scale, np.abs(gain) * inv_std)
    out, xhat, _ = _normalized(x, gain, shift)
    reference_out, reference_xhat, _ = _channel_norm_reference(x, gain, shift)
    assert rel_err(out, reference_out) <= 1e-12 and rel_err(xhat, reference_xhat) <= 1e-12
    fast = nm.channel_norm_backward(grad_out.copy(), xhat, inv_std, gain)
    for name, a, b in zip(("grad_x", "grad_gain", "grad_shift"), fast,
                          _channel_norm_backward_reference(grad_out, x, gain)):
        assert rel_err(a, b) <= 1e-12, name


@pytest.mark.parametrize("w", [1, 2, 81, 1160])
def test_column_view_and_channel_mean_are_bitwise_their_numpy_forms(w):
    """_columns' strided view is as_strided's, and channel_norm's centring
    subtracts exactly ndarray.mean, at the widths a line map takes."""
    rng = np.random.default_rng(w)
    x = rng.normal(size=(2, 32, w)) * 3.0 + 1.0
    for kh, kw in ((3, 3), (1, 5)):
        xp = np.zeros((2, 32 + kh - 1, w + kw - 1))
        xp[:, kh // 2 : kh // 2 + 32, kw // 2 : kw // 2 + w] = x
        sc, sy, sx = xp.strides
        view = np.lib.stride_tricks.as_strided(xp, (2, kh, kw, 32, w), (sc, sy, sx, sy, sx))
        assert np.array_equal(nm._columns(x, kh, kw), view.reshape(2 * kh * kw, 32 * w))
    centred = x.copy()
    nm.channel_norm(centred, np.ones(2))
    flat = x.reshape(2, -1)
    assert np.array_equal(centred.reshape(2, -1), flat - flat.mean(axis=1, keepdims=True))


def test_channel_norm_backward_allocates_only_its_result():
    rng = np.random.default_rng(57)
    grad_out, xhat = rng.normal(size=(2, 8, 32, 160))
    inv_std, gain = rng.random(8) + 0.5, rng.normal(size=8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grad_x, _, _ = nm.channel_norm_backward(grad_out, xhat, inv_std, gain)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * grad_x.nbytes


def test_channel_norm_rejects_a_map_it_cannot_centre_in_place():
    with pytest.raises(UsageError):
        nm.channel_norm(np.zeros((2, 3, 4))[:, :, ::2], np.ones(2))


# --- one conv block against the reference kernels ---------------------------------
#
# The reference block runs the kernels the block replaced, in their order: the
# conv with a bias, the norm's full-size affine, the pool of the normalized map
# and the relu. The model's block has no conv bias, since the norm cancels one;
# the reference adds a random one, which the comparison shows has no effect.


def _conv_block_reference(x, p, bias, pool, grad_out):
    """(output, xhat, inv_std, argmax, gradients at x, w, gain and shift)."""
    z = _conv2d_reference(x, p.w, bias)
    normalized, xhat, inv_std = _channel_norm_reference(z, p.gain, p.shift)
    pooled, argmax = _maxpool2d_reference(normalized, pool)
    d_norm = _maxpool2d_backward_reference(grad_out * (pooled > 0.0), argmax, z.shape, pool)
    d_conv, d_gain, d_shift = _channel_norm_backward_reference(d_norm, z, p.gain)
    grads = (*_conv2d_backward_reference(d_conv, x, p.w), d_gain, d_shift)
    return np.maximum(pooled, 0.0), xhat, inv_std.ravel(), argmax, grads


def _conv_block(x, p, pool, grad_out):
    """The model's block, forward with its cache and backward: (output, cache,
    gradients at x, w, gain and shift)."""
    caches = []
    out = md._conv_block(x, p, pool, caches)
    grads = md.ConvBlockParams(*(np.zeros_like(a) for a in (p.w, p.gain, p.shift)))
    grad_x = md._conv_block_backward(grad_out, caches[0], p, pool, grads, need_grad_x=True)
    return out, caches[0], (grad_x, grads.w, grads.gain, grads.shift)


def _block_params(rng, c_in, k, draw):
    """(block parameters, a conv bias for the reference block)."""
    gain = draw((4,)) + 0.5 * rng.choice([-1.0, 1.0], size=4)
    gain[:2] = -abs(gain[0]), abs(gain[1])  # one channel of each sign at least
    w, bias = draw((4, c_in, k, k)), draw((4,))
    return md.ConvBlockParams(w, gain, rng.normal(size=4)), bias


def _assert_gradients_match(fast, reference):
    assert len(fast) == len(reference) == 4
    for name, a, b in zip(("grad_x", "grad_w", "grad_gain", "grad_shift"), fast, reference):
        assert a.shape == b.shape and rel_err(a, b) <= 1e-12, name


BLOCK_CASES = [  # (c_in, h, w, k, pool): k 1, 3 and 5, width 1, odd widths, pools
    (1, 8, 1, 3, (2, 2)),  # that do not divide the map, and the (8, 2) pool
    (2, 7, 9, 1, (3, 2)),
    (1, 6, 11, 5, (2, 2)),
    (3, 16, 13, 3, (8, 2)),
    (2, 11, 5, 5, (8, 2)),
    (2, 1, 1, 3, (2, 2)),
    (1, 32, 37, 3, (2, 2)),
]


@pytest.mark.parametrize("c_in,h,w,k,pool", BLOCK_CASES)
def test_conv_block_matches_the_reference_kernels(c_in, h, w, k, pool):
    rng = np.random.default_rng(59 + 3 * k + h + w)
    for _ in range(3):
        p, bias = _block_params(rng, c_in, k, lambda shape: rng.normal(size=shape))
        x = rng.normal(size=(c_in, h, w))
        grad_out = rng.normal(size=(4, -(-h // pool[0]), -(-w // pool[1])))
        out, cache, grads = _conv_block(x, p, pool, grad_out)
        ref_out, ref_xhat, ref_inv_std, ref_argmax, ref_grads = _conv_block_reference(
            x, p, bias, pool, grad_out)
        assert rel_err(out, ref_out) <= 1e-12
        assert rel_err(cache.xhat, ref_xhat) <= 1e-12
        assert rel_err(cache.inv_std, ref_inv_std) <= 1e-12
        assert np.array_equal(cache.argmax, ref_argmax)
        assert np.array_equal(md._conv_block(x, p, pool, None), out)
        _assert_gradients_match(grads, ref_grads)


@pytest.mark.parametrize("c_in,h,w,k,pool", BLOCK_CASES)
def test_conv_block_argmax_equals_the_reference_on_tie_heavy_maps(c_in, h, w, k, pool):
    # integer images and weights: conv outputs are exact, equal patches tie exactly
    rng = np.random.default_rng(61 + 3 * k + h + w)
    for _ in range(10):
        p, bias = _block_params(rng, c_in, k, lambda shape: _tie_heavy(rng, shape))
        x = _tie_heavy(rng, (c_in, h, w))
        grad_out = _tie_heavy(rng, (4, -(-h // pool[0]), -(-w // pool[1])))
        out, cache, grads = _conv_block(x, p, pool, grad_out)
        ref_out, _, _, ref_argmax, ref_grads = _conv_block_reference(x, p, bias, pool, grad_out)
        assert np.array_equal(cache.argmax, ref_argmax)
        assert rel_err(out, ref_out) <= 1e-12
        _assert_gradients_match(grads, ref_grads)


def test_a_zero_gain_channel_pools_its_centred_map():
    # pooled = max over the window of gain * xhat, plus shift, has a kink in the
    # gain at 0; the block treats 0 as a positive gain: the argmax is the
    # centred map's first maximum and the gain gradient the derivative from above
    rng = np.random.default_rng(67)
    x = rng.normal(size=(2, 8, 9))
    w, bias = rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
    p = md.ConvBlockParams(w, np.array([1.2, 0.0, -0.8]), np.array([0.3, 0.5, -0.2]))
    pool = (2, 2)
    grad_out = rng.normal(size=(3, 4, 5))
    out, cache, grads = _conv_block(x, p, pool, grad_out)
    _, ref_xhat, _, _, _ = _conv_block_reference(x, p, bias, pool, grad_out)
    assert np.array_equal(cache.argmax[1:2], _maxpool2d_reference(ref_xhat[1:2], pool)[1])
    assert np.all(out[1] == p.shift[1])

    def loss(g):
        q = md.ConvBlockParams(p.w, np.array([1.2, g, -0.8]), p.shift)
        return float(np.sum(grad_out * md._conv_block(x, q, pool, None)))

    h = 1e-6
    from_above, from_below = (loss(h) - loss(0.0)) / h, (loss(0.0) - loss(-h)) / h
    assert abs(grads[2][1] - from_above) <= 1e-6 * abs(from_above)
    assert abs(from_above - from_below) > 0.1 * abs(from_above)


# --- LSTM ----------------------------------------------------------------------


def _rand_lstm(rng, n_in, n_hidden):
    return nm.LstmParams(
        w_x=rng.normal(size=(4 * n_hidden, n_in)) * 0.5,
        w_h=rng.normal(size=(4 * n_hidden, n_hidden)) * 0.5,
        b=rng.normal(size=4 * n_hidden) * 0.5,
    )


def test_lstm_all_zero_weights_gives_zero_output():
    p = nm.LstmParams(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
    h, state = nm.lstm_step(np.zeros(3), np.zeros((2, 2)), p)
    assert np.array_equal(h, np.zeros(2))
    assert np.array_equal(state, np.zeros((2, 2)))


def test_lstm_output_strictly_inside_unit_box():
    rng = np.random.default_rng(29)
    p = _rand_lstm(rng, 3, 4)
    state = np.zeros((2, 4))
    for _ in range(20):
        h, state = nm.lstm_step(rng.normal(size=3) * 5, state, p)
        assert np.all(np.abs(h) < 1.0)


def test_lstm_step_does_not_mutate_input_state():
    rng = np.random.default_rng(31)
    p = _rand_lstm(rng, 3, 4)
    state = rng.normal(size=(2, 4)) * 0.1  # rows h and c
    snapshot = state.copy()
    h, new_state = nm.lstm_step(rng.normal(size=3), state, p)
    assert np.array_equal(state, snapshot)
    assert new_state.shape == (2, 4) and np.shares_memory(h, new_state)  # no copy
    assert np.array_equal(h, new_state[0])


def _zero_lstm_like(p):
    return nm.LstmParams(np.zeros_like(p.w_x), np.zeros_like(p.w_h), np.zeros_like(p.b))


def _pack_lstm(p):
    return np.concatenate([p.w_x.reshape(-1), p.w_h.reshape(-1), p.b])


def _unpack_lstm(vec, template):
    n_in = template.w_x.shape[1]
    hs = template.hidden_size
    w_x, w_h, b = np.split(vec, np.cumsum([4 * hs * n_in, 4 * hs * hs]))
    return nm.LstmParams(w_x.reshape(4 * hs, n_in), w_h.reshape(4 * hs, hs), b.copy())


def test_lstm_bptt_matches_fd():
    """Unrolled 3-step sequence: gradient wrt every weight via BPTT vs FD."""
    rng = np.random.default_rng(37)
    n_in, hs, steps = 3, 4, 3
    params = _rand_lstm(rng, n_in, hs)
    xs = rng.normal(size=(steps, n_in))
    readout = rng.normal(size=(steps, hs))

    def loss_from(params_):
        state = np.zeros((2, hs))
        total = 0.0
        for t in range(steps):
            h, state = nm.lstm_step(xs[t], state, params_)
            total += float(readout[t] @ h)
        return total

    # analytic: the scan with its cache, then backward through time
    _, run = md._run_lstm(xs, (params,))
    grads = _zero_lstm_like(params)
    md._run_lstm_backward(readout, run, (params,), (grads,))

    fd = fd_grad(lambda v: loss_from(_unpack_lstm(v, params)), _pack_lstm(params))
    assert rel_err(_pack_lstm(grads), fd) < 1e-6


# The per-step cell the hoisted scan replaced: one object per step, a clipped
# exp sigmoid per gate, and the weight gradients summed by the caller.


def _sigmoid_reference(x):
    return 1.0 / (1.0 + np.exp(np.clip(-x, -500, 500)))


def _lstm_step_cached_reference(x, h_prev, c_prev, params):
    """Returns (h, c, cache) with cache = (x, h_prev, c_prev, gates (4, H), c, tanh_c)."""
    hs = params.hidden_size
    z = (params.w_x @ x + params.w_h @ h_prev + params.b).reshape(4, hs)
    gates = np.stack([_sigmoid_reference(z[0]), _sigmoid_reference(z[1]), np.tanh(z[2]),
                      _sigmoid_reference(z[3])])
    c = gates[1] * c_prev + gates[0] * gates[2]
    tanh_c = np.tanh(c)
    h = gates[3] * tanh_c
    return h, c, (x, h_prev, c_prev, gates, c, tanh_c)


def _lstm_step_backward_reference(grad_h, grad_c, cache, params):
    """Returns (dz (4H,), grad_h_prev, grad_c_prev)."""
    _, _, c_prev, (i, f, g, o), _, tanh_c = cache
    dc = grad_c + grad_h * o * (1.0 - tanh_c**2)
    dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                         dc * i * (1.0 - g**2), grad_h * tanh_c * o * (1.0 - o)])
    return dz, params.w_h.T @ dz, dc * f


def _lstm_scan_reference(seq, grad_out, params, reverse):
    """Per-step forward and BPTT; returns (outs, gates, cells, grads, grad_seq)."""
    n, hs = len(seq), params.hidden_size
    order = list(range(n))[::-1] if reverse else list(range(n))
    h = c = np.zeros(hs)
    outs, gates, cells, caches = np.empty((n, hs)), np.empty((n, 4, hs)), np.empty((n, hs)), {}
    for t in order:
        h, c, caches[t] = _lstm_step_cached_reference(seq[t], h, c, params)
        outs[t], gates[t], cells[t] = h, caches[t][3], c
    grads = _zero_lstm_like(params)
    grad_seq = np.empty_like(seq)
    dh = dc = np.zeros(hs)
    for t in reversed(order):
        dz, dh, dc = _lstm_step_backward_reference(grad_out[t] + dh, dc, caches[t], params)
        grads.w_x += np.outer(dz, caches[t][0])
        grads.w_h += np.outer(dz, caches[t][1])
        grads.b += dz
        grad_seq[t] = params.w_x.T @ dz
    return outs, gates, cells, grads, grad_seq


# The per-direction scan the merged one replaced: one loop per direction, one
# step call per direction-step, the sigmoid rows halved inside every step.


def _gate_affine_reference(hs):
    return np.repeat([[[0.5], [0.5], [1.0], [0.5]], [[0.5], [0.5], [0.0], [0.5]]], hs, axis=2)


def _direction_step_reference(zx, h_prev, c_prev, w_h, gates, c, tanh_c, h):
    scale, shift = _gate_affine_reference(len(c))
    np.add(zx, (w_h @ h_prev).reshape(zx.shape), out=gates)
    gates *= scale
    np.tanh(gates, out=gates)
    gates *= scale
    gates += shift
    np.multiply(gates[1], c_prev, out=c)
    c += gates[0] * gates[2]
    np.tanh(c, out=tanh_c)
    np.multiply(gates[3], tanh_c, out=h)


def _direction_step_backward_reference(grad_h, grad_c, factors, w_h_t, dz):
    dc = grad_h * factors[4]
    dc += grad_c
    np.multiply(factors[:3], dc, out=dz[:3])
    np.multiply(factors[3], grad_h, out=dz[3])
    return w_h_t @ dz.reshape(-1), dc * factors[5]


def _direction_scan_reference(seq, p, reverse):
    """Returns (outs (T, H), run) with run = (inputs, gates (T, 4, H), outs,
    cells, tanh_c, h_prev, c_prev, reverse), rows in sequence order."""
    n, hs = len(seq), p.hidden_size
    zx = (seq @ p.w_x.T + p.b).reshape(n, 4, hs)
    h, c = np.zeros((2, n + 1, hs))
    now, prev = (slice(n), slice(1, None)) if reverse else (slice(1, None), slice(n))
    run = (seq, np.empty((n, 4, hs)), h[now], c[now], np.empty((n, hs)), h[prev], c[prev], reverse)
    _, gates, outs, cells, tanh_c, h_prev, c_prev, _ = run
    for t in range(n - 1, -1, -1) if reverse else range(n):
        _direction_step_reference(zx[t], h_prev[t], c_prev[t], p.w_h, gates[t], cells[t],
                                  tanh_c[t], outs[t])
    return outs, run


def _direction_scan_backward_reference(grad_out, run, p, grads):
    inputs, gates, outs, _, tanh_c, h_prev, c_prev, reverse = run
    n, hs = outs.shape
    i, f, g, o = gates.transpose(1, 0, 2)
    factors = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g),
                        o * (1.0 - o) * tanh_c, o * (1.0 - tanh_c * tanh_c), f], axis=1)
    dz, dh, dc, w_h_t = np.empty((n, 4, hs)), np.zeros(hs), np.zeros(hs), p.w_h.T
    for t in range(n) if reverse else range(n - 1, -1, -1):
        dh, dc = _direction_step_backward_reference(grad_out[t] + dh, dc, factors[t], w_h_t, dz[t])
    dz = dz.reshape(n, 4 * hs)
    grads.w_x += dz.T @ inputs
    grads.w_h += dz.T @ h_prev
    grads.b += dz.sum(axis=0)
    return dz @ p.w_x


def _direction_rows(run, d):
    """Direction d's gates (T, 4, H) and cells (T, H) of a merged scan, rows
    in sequence order."""
    gates = run.gates[:, :, d] if d == 0 else run.gates[::-1, :, d]
    cells = run.c[1:, d] if d == 0 else run.c[:0:-1, d]
    return gates, cells


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("steps", [1, 2, 9, 145])
def test_hoisted_scan_matches_per_step_reference(steps, reverse):
    """Direction 0 of a one-direction scan, or direction 1 of a two-direction
    one, against the per-step cell."""
    rng = np.random.default_rng(41 + steps)
    params = _rand_lstm(rng, 5, 6)
    seq = rng.normal(size=(steps, 5))
    grad_out = rng.normal(size=(steps, 6))
    ref_outs, ref_gates, ref_cells, ref_grads, ref_seq = _lstm_scan_reference(
        seq, grad_out, params, reverse)

    layers = (_rand_lstm(rng, 5, 6), params) if reverse else (params,)
    grads = tuple(_zero_lstm_like(p) for p in layers)
    d = len(layers) - 1
    outs, run = md._run_lstm(seq, layers)
    padded = np.zeros((steps, 6 * len(layers)))  # no gradient reaches direction 0 if d = 1
    padded[:, 6 * d :] = grad_out
    grad_seq = md._run_lstm_backward(padded, run, layers, grads)
    gates, cells = _direction_rows(run, d)
    assert rel_err(outs[:, 6 * d :], ref_outs) <= 1e-12
    assert rel_err(gates, ref_gates) <= 1e-12
    assert rel_err(cells, ref_cells) <= 1e-12
    for name in ("w_x", "w_h", "b"):
        assert rel_err(getattr(grads[d], name), getattr(ref_grads, name)) <= 1e-12, name
    assert rel_err(grad_seq, ref_seq) <= 1e-12


def _merged_against_per_direction(seq, layers, grad_out):
    """Runs the merged scan and the per-direction reference scans forward and
    backward; asserts every output, cache row and gradient bitwise equal, and
    returns the merged outputs."""
    hs = layers[0].hidden_size
    out, run = md._run_lstm(seq, layers)
    grads = tuple(_zero_lstm_like(p) for p in layers)
    grad_seq = md._run_lstm_backward(grad_out, run, layers, grads)
    assert np.array_equal(md._run_lstm(seq, layers, keep_cache=False)[0], out)
    ref_seq = None
    for d, (p, g) in enumerate(zip(layers, grads)):
        ref_out, ref_run = _direction_scan_reference(seq, p, reverse=d == 1)
        ref_grads = _zero_lstm_like(p)
        part = _direction_scan_backward_reference(grad_out[:, d * hs : (d + 1) * hs], ref_run,
                                                  p, ref_grads)
        ref_seq = part if ref_seq is None else ref_seq + part
        gates, cells = _direction_rows(run, d)
        assert out[:, d * hs : (d + 1) * hs].tobytes() == ref_out.tobytes()
        assert np.ascontiguousarray(gates).tobytes() == ref_run[1].tobytes()
        assert np.ascontiguousarray(cells).tobytes() == ref_run[3].tobytes()
        for name in ("w_x", "w_h", "b"):
            assert getattr(g, name).tobytes() == getattr(ref_grads, name).tobytes(), (d, name)
    assert grad_seq.tobytes() == ref_seq.tobytes()
    return out


@pytest.mark.parametrize("steps", [1, 2, 13, 145])
@pytest.mark.parametrize("n_in,hs,layers", [(32, 64, 1), (32, 16, 2)],
                         ids=["s1", "full_config"])
def test_merged_bilstm_scan_is_bitwise_the_per_direction_scans(steps, n_in, hs, layers):
    """The visual BiLSTM stacks of the s1 preset (one layer) and of
    test_model's full_config (two layers): each layer's merged scan against
    one per-direction scan each way."""
    rng = np.random.default_rng(59 + steps)
    seq = rng.normal(size=(steps, n_in))
    for _ in range(layers):
        bi = (_rand_lstm(rng, seq.shape[1], hs), _rand_lstm(rng, seq.shape[1], hs))
        seq = _merged_against_per_direction(seq, bi, rng.normal(size=(steps, 2 * hs)))


@pytest.mark.parametrize("steps", [1, 2, 13, 145])
@pytest.mark.parametrize("n_in,hs", [(32, 64), (8, 16)], ids=["s1", "full_config"])
def test_one_direction_scan_is_bitwise_the_per_direction_scan(steps, n_in, hs):
    """The linguistic encoder's scan: one direction, forward."""
    rng = np.random.default_rng(61 + steps)
    _merged_against_per_direction(rng.normal(size=(steps, n_in)), (_rand_lstm(rng, n_in, hs),),
                                  rng.normal(size=(steps, hs)))


def test_decode_step_is_bitwise_the_per_direction_step():
    """lstm_step against the per-direction scan's cell from any state, and
    against a one-step scan from the zero state."""
    rng = np.random.default_rng(67)
    p = _rand_lstm(rng, 5, 6)
    for _ in range(10):
        x, state = rng.normal(size=5), rng.normal(size=(2, 6))
        rows = np.empty((7, 6))
        _direction_step_reference((p.w_x @ x + p.b).reshape(4, 6), state[0], state[1], p.w_h,
                                  rows[:4], rows[6], rows[4], rows[5])
        h, new_state = nm.lstm_step(x, state, p)
        assert h.tobytes() == rows[5].tobytes() and new_state.tobytes() == rows[5:].tobytes()
        out, _ = md._run_lstm(x[None], (p,))
        assert nm.lstm_step(x, np.zeros((2, 6)), p)[0].tobytes() == out[0].tobytes()


def test_hoisted_scan_is_bitwise_deterministic():
    rng = np.random.default_rng(43)
    layers = (_rand_lstm(rng, 5, 6), _rand_lstm(rng, 5, 6))
    seq, grad_out = rng.normal(size=(30, 5)), rng.normal(size=(30, 12))

    def scan(d):
        out, run = md._run_lstm(seq, layers[:d])
        grads = tuple(_zero_lstm_like(p) for p in layers[:d])
        grad_seq = md._run_lstm_backward(grad_out[:, : 6 * d], run, layers[:d], grads)
        return [run.gates, out, run.c, run.tanh_c, grad_seq,
                *(getattr(g, name) for g in grads for name in ("w_x", "w_h", "b"))]

    for d in (1, 2):
        for a, b in zip(scan(d), scan(d)):
            assert np.array_equal(a, b)


def test_one_tanh_cell_at_extreme_preactivations():
    """Gates from pre-activations up to +-1e4: no overflow warning (the suite
    turns RuntimeWarnings into errors), in range, and within 1e-15 of the
    logistic function."""
    hs = 7
    z = np.concatenate([np.linspace(-1e4, 1e4, 40 * hs), np.linspace(-40, 40, 40 * hs)])
    seq = z.reshape(-1, 4 * hs)  # one step per row, every gate of it
    params = nm.LstmParams(np.eye(4 * hs), np.zeros((4 * hs, hs)), np.zeros(4 * hs))
    out, run = md._run_lstm(seq, (params,))
    gates = run.gates[:, :, 0]
    zg = seq.reshape(-1, 4, hs)
    expz = np.exp(-np.abs(zg))  # the logistic function without an overflowing exp
    logistic = np.where(zg >= 0, 1.0 / (1.0 + expz), expz / (1.0 + expz))
    sig = gates[:, [0, 1, 3]]
    assert np.all((sig >= 0.0) & (sig <= 1.0))
    assert np.all(np.abs(gates[:, 2]) <= 1.0)
    assert np.max(np.abs(sig - logistic[:, [0, 1, 3]])) <= 1e-15
    assert np.array_equal(gates[:, 2], np.tanh(zg[:, 2]))
    assert np.all(np.abs(out) <= 1.0)
    for x in seq:  # the decode-time step uses the same cell
        h, state = nm.lstm_step(x, np.zeros((2, hs)), params)
        assert np.all(np.abs(h) <= 1.0) and np.all(np.abs(state[1]) <= 1.0)
