"""Tensor kernel tests: op values against small hand/numpy oracles and every
gradient against central finite differences."""

import ast
import pathlib
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from protodensity import tensor as T
from protodensity.losses import density_loss, proto_feature_loss
from protodensity.model import FEATURE_DIM, CountModel, FeatureExtractor, ModelConfig
from protodensity.tensor import (Parameter, ShapeError, Tensor,
                                 gradcheck_rel_error, no_grad)

TOL = 1e-6


def check_grad(fn, at, tol=TOL):
    leaf = Tensor(at, requires_grad=True)
    fn(leaf).backward()
    err = gradcheck_rel_error(lambda a: fn(Tensor(a)), at, leaf.grad)
    assert err <= tol, f"gradient mismatch: rel err {err:.3e}"


finite_arrays = arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=5),
                       elements=st.floats(-10, 10))


# -- construction and protocol -------------------------------------------------


def test_tensor_is_float64():
    t = Tensor([1, 2, 3])
    assert t.data.dtype == np.float64
    assert t.shape == (3,) and t.ndim == 1


def test_item_and_float():
    assert float(Tensor(2.5)) == 2.5
    assert float(Tensor([[2.5]])) == 2.5
    with pytest.raises(ValueError, match="single-element"):
        float(Tensor([1.0, 2.0]))


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


def test_parameter_freeze():
    p = Parameter(np.ones(3), name="p")
    p.grad = np.ones(3)
    assert p.requires_grad
    p.freeze()
    assert not p.requires_grad and p.grad is None


# -- elementwise ops -----------------------------------------------------------


def test_add_sub_mul_values(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    np.testing.assert_array_equal(T.add(a, b).data, a + b)
    np.testing.assert_array_equal(T.sub(a, b).data, a - b)
    np.testing.assert_array_equal(T.mul(a, b).data, a * b)


def test_scalar_broadcast(rng):
    a = rng.normal(size=(2, 3))
    np.testing.assert_array_equal(T.add(a, 2.0).data, a + 2.0)
    np.testing.assert_array_equal(T.mul(3.0, Tensor(a)).data, 3.0 * a)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        T.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_elementwise_grads(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    check_grad(lambda t: T.tsum(T.mul(t, Tensor(b))), a)
    check_grad(lambda t: T.tsum(T.add(T.mul(t, t), Tensor(b))), a)
    check_grad(lambda t: T.tsum(T.sub(Tensor(b), t)), a)
    check_grad(lambda t: T.tsum(T.mul(t, 0.5)), a)


def test_scalar_operand_grad(rng):
    # a scalar broadcasts only as a constant: one that needs a gradient
    # beside a larger tensor is a ShapeError naming the op
    a, s = rng.normal(size=(4,)), np.array(1.7)
    for op in (T.add, T.sub, T.mul):
        for operands in ((Tensor(a), Tensor(s, requires_grad=True)),
                         (Tensor(s, requires_grad=True), Tensor(a, requires_grad=True))):
            with pytest.raises(ShapeError, match=f"^{op.__name__}: "):
                op(*operands)
    # a constant scalar still broadcasts, and the tensor beside it gets the
    # full gradient; scalar beside scalar needs no broadcast at all
    t = Tensor(a, requires_grad=True)
    T.tsum(T.mul(3.0, T.add(t, 2.0))).backward()
    np.testing.assert_array_equal(t.grad, np.full(4, 3.0))
    check_grad(lambda t: T.mul(T.sub(t, 0.5), t), s)


# -- nonlinearities ------------------------------------------------------------


def test_relu_value_and_grad(rng):
    a = rng.normal(size=(3, 4))
    a[np.abs(a) < 1e-2] = 0.5  # keep away from the kink for finite differences
    np.testing.assert_array_equal(T.relu(a).data, np.maximum(a, 0.0))
    check_grad(lambda t: T.tsum(T.relu(t)), a)


def test_log_value_and_grad(rng):
    a = rng.uniform(0.1, 5.0, size=(6,))
    np.testing.assert_allclose(T.log(a).data, np.log(a))
    check_grad(lambda t: T.tsum(T.log(t)), a)


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        T.log(Tensor([1.0, 0.0]))
    with pytest.raises(ValueError):
        T.log(Tensor([-1.0]))


def test_sigmoid_value_and_grad(rng):
    a = rng.normal(size=(8,)) * 3
    s = T.sigmoid(a).data
    np.testing.assert_allclose(s, 1.0 / (1.0 + np.exp(-a)), rtol=1e-12)
    check_grad(lambda t: T.tsum(T.sigmoid(t)), a)


def test_sigmoid_extreme_inputs_finite():
    s = T.sigmoid(Tensor([-800.0, 800.0, 0.0])).data
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 or s[0] < 1e-300
    assert s[1] == 1.0
    assert s[2] == 0.5


def test_sigmoid_equals_two_branch_formula_bitwise(rng):
    x = np.concatenate([rng.normal(size=500) * 6, [-800.0, 800.0, -0.0, 0.0]])
    pos = x >= 0
    expected = np.empty_like(x)
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    assert np.array_equal(T.sigmoid(x).data, expected)

    # the gradient on a transposed input: (g*s)*(1-s) after the upstream
    # mul's first accumulation, where -0.0 becomes 0.0; saturated outputs
    # make -0.0 products that must still arrive as 0.0
    x2 = np.concatenate([x, rng.normal(size=96)]).reshape(25, 24).T
    g = rng.normal(size=x2.shape)
    g[g > 1.2] = -0.0
    g[::5, ::3] = 0.0
    xt = Tensor(x2, requires_grad=True)
    s = T.sigmoid(xt)
    T.tsum(T.mul(s, Tensor(g))).backward()
    g_in = np.zeros_like(g) + g
    want = np.zeros_like(g) + g_in * s.data * (1.0 - s.data)
    assert np.array_equal(xt.grad.view(np.int64), want.view(np.int64))
    assert np.signbit(g_in * s.data * (1.0 - s.data)).any()
    assert not np.signbit(xt.grad[xt.grad == 0.0]).any()


# -- shape ops and indexing ----------------------------------------------------


def test_reshape_transpose_grads(rng):
    a = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(2, 3, 4))
    check_grad(lambda t: T.tsum(T.mul(T.reshape(t, (6, 4)), Tensor(w.reshape(6, 4)))), a)
    check_grad(lambda t: T.tsum(T.mul(T.transpose(t, (2, 0, 1)),
                                      Tensor(w.transpose(2, 0, 1)))), a)


def test_matmul_value_and_grads(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
    np.testing.assert_allclose(T.matmul(a, b).data, a @ b, rtol=1e-12)
    check_grad(lambda t: T.tsum(T.matmul(t, Tensor(b))), a)
    check_grad(lambda t: T.tsum(T.matmul(Tensor(a), t)), b)


def test_getitem_slice_grad(rng):
    a = rng.normal(size=(4, 5))
    check_grad(lambda t: T.tsum(t[1:3, ::2]), a)
    check_grad(lambda t: T.tsum(t[2]), a)


def test_getitem_repeated_fancy_index_accumulates(rng):
    a = rng.normal(size=(5,))
    idx = np.array([0, 2, 2, 2])
    x = Tensor(a, requires_grad=True)
    T.tsum(x[idx]).backward()
    np.testing.assert_array_equal(x.grad, np.array([1.0, 0.0, 3.0, 0.0, 0.0]))
    check_grad(lambda t: T.tsum(t[idx]), a)


# -- reductions ----------------------------------------------------------------


@given(finite_arrays)
def test_sum_mean_match_numpy(a):
    np.testing.assert_allclose(T.tsum(a).data, a.sum(), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(T.tmean(a).data, a.mean(), rtol=1e-12, atol=1e-12)


def test_sum_mean_axis_grads(rng):
    # the reductions take no axis: each sums or averages the whole tensor
    a = rng.normal(size=(3, 4, 2))
    w = rng.normal(size=(3, 4, 2))
    check_grad(lambda t: T.tsum(T.mul(t, Tensor(w))), a)
    check_grad(lambda t: T.tmean(T.mul(t, Tensor(w))), a)
    check_grad(lambda t: T.tmean(t), a)
    with pytest.raises(TypeError):
        T.tsum(a, axis=0)


# -- row normalization ---------------------------------------------------------


def test_l2_normalize_rows_unit_norm(rng):
    a = rng.normal(size=(4, 6))
    rows = T.l2_normalize_rows(a).data
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=1e-12)


def test_l2_normalize_rows_zero_row_raises():
    a = np.ones((2, 3))
    a[1] = 0.0
    with pytest.raises(ValueError):
        T.l2_normalize_rows(Tensor(a))


def test_l2_normalize_rows_grad(rng):
    a = rng.normal(size=(3, 5)) + 0.5
    w = rng.normal(size=(3, 5))
    check_grad(lambda t: T.tsum(T.mul(T.l2_normalize_rows(t), Tensor(w))), a)


# -- convolutions and pooling --------------------------------------------------


def test_conv1x1_matches_einsum(rng):
    x = rng.normal(size=(2, 3, 4, 5))
    w = rng.normal(size=(6, 3))
    b = rng.normal(size=(6,))
    out = T.conv1x1(x, w, b).data
    ref = np.einsum("oc,bchw->bohw", w, x) + b[None, :, None, None]
    np.testing.assert_allclose(out, ref, rtol=1e-12)


def test_conv1x1_grads(rng):
    x = rng.normal(size=(2, 3, 3, 3))
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=(2,))
    check_grad(lambda t: T.tsum(T.conv1x1(t, Tensor(w), Tensor(b))), x)
    check_grad(lambda t: T.tsum(T.conv1x1(Tensor(x), t, Tensor(b))), w)
    check_grad(lambda t: T.tsum(T.conv1x1(Tensor(x), Tensor(w), t)), b)


def conv3x3_oracle(x, w, b):
    bs, cin, h, wd = x.shape
    cout = w.shape[0]
    pad = np.zeros((bs, cin, h + 2, wd + 2))
    pad[:, :, 1:-1, 1:-1] = x
    out = np.zeros((bs, cout, h, wd))
    for n in range(bs):
        for o in range(cout):
            for i in range(h):
                for j in range(wd):
                    out[n, o, i, j] = np.sum(pad[n, :, i:i + 3, j:j + 3] * w[o]) + b[o]
    return out


def test_conv3x3_matches_loop_oracle(rng):
    x = rng.normal(size=(2, 3, 4, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=(4,))
    np.testing.assert_allclose(T.conv3x3(x, w, b).data, conv3x3_oracle(x, w, b),
                               rtol=1e-10, atol=1e-12)
    x = rng.normal(size=(3, 1, 5, 4))
    w = rng.normal(size=(2, 1, 3, 3))
    np.testing.assert_allclose(T.conv3x3(x, w, np.zeros(2)).data,
                               conv3x3_oracle(x, w, np.zeros(2)),
                               rtol=1e-10, atol=1e-12)


def test_conv3x3_grads(rng):
    # batch 1 and 2, square and not; the weighted sum sends every output
    # position a different gradient
    for shape in [(1, 2, 3, 3), (2, 2, 3, 4), (1, 2, 3, 4)]:
        x = rng.normal(size=shape)
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=(3,))
        g = Tensor(rng.normal(size=(shape[0], 3) + shape[2:]))
        check_grad(lambda t: T.tsum(T.mul(T.conv3x3(t, Tensor(w), Tensor(b)), g)), x)
        check_grad(lambda t: T.tsum(T.mul(T.conv3x3(Tensor(x), t, Tensor(b)), g)), w)
        check_grad(lambda t: T.tsum(T.mul(T.conv3x3(Tensor(x), Tensor(w), t), g)), b)


def test_conv3x3_batch_equals_batch1_calls_bitwise(rng):
    # the batched call runs sample by sample, so its output and all three
    # gradients are the batch-1 calls' concatenated outputs and input
    # gradients and their weight and bias gradients accumulated in sample
    # order, to the bit (signed zeros included)
    x = rng.normal(size=(5, 3, 6, 7))
    x[x > 1.2] = -0.0
    w, b = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=(4,))
    g = rng.normal(size=(5, 4, 6, 7))
    g[g > 1.5] = -0.0

    def run(xs, gs, weight, bias):
        xt = Tensor(xs, requires_grad=True)
        out = T.conv3x3(xt, weight, bias)
        T.tsum(T.mul(out, Tensor(gs))).backward()
        return out.data, xt.grad

    weight, bias = Parameter(w), Parameter(b)
    out, gx = run(x, g, weight, bias)
    weight1, bias1 = Parameter(w), Parameter(b)
    outs, gxs = zip(*(run(x[n:n + 1], g[n:n + 1], weight1, bias1) for n in range(5)))
    pairs = [(out, np.concatenate(outs)), (gx, np.concatenate(gxs)),
             (weight.grad, weight1.grad), (bias.grad, bias1.grad)]
    for got, want in pairs:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@given(b=st.integers(1, 3), c_in=st.integers(1, 4), c_out=st.integers(1, 4),
       h=st.integers(1, 6), w=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_conv3x3_matches_loop_oracle_property(b, c_in, c_out, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, c_in, h, w))
    wt = rng.normal(size=(c_out, c_in, 3, 3))
    bias = rng.normal(size=(c_out,))
    np.testing.assert_allclose(T.conv3x3(x, wt, bias).data, conv3x3_oracle(x, wt, bias),
                               rtol=1e-10, atol=1e-12)


def test_maxpool_matches_block_oracle(rng):
    x = rng.normal(size=(2, 3, 4, 6))
    ref = x.reshape(2, 3, 2, 2, 3, 2).max(axis=(3, 5))
    np.testing.assert_array_equal(T.maxpool2x2(x).data, ref)


def test_maxpool_forward_matches_four_corner_formula(rng):
    # rows then columns gives the max of the four strided corners, and NaN
    # wherever a window holds one; a zero maximum may have either sign
    def four_corner(x):
        corners = [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
        return np.maximum(np.maximum(corners[0], corners[1]),
                          np.maximum(corners[2], corners[3]))

    windows = [
        [5.0, 1.0, 5.0, 0.0],           # tie down a column
        [1.0, 3.0, 0.0, 3.0],
        [0.0, -0.0, -0.0, 0.0],         # signed zeros: a zero maximum
        [-0.0, -1.0, 0.0, -2.0],
        [-3.0, -0.0, 0.0, -0.0],
        [np.nan, 1.0, 2.0, 3.0],        # NaN in each corner
        [1.0, np.nan, -0.0, 0.0],
        [-0.0, 0.0, np.nan, 1.0],
        [-1.0, -2.0, 0.0, np.nan],
        [np.inf, -np.inf, np.nan, np.inf],
    ]
    x = np.zeros((1, 1, 2, 2 * len(windows)))
    for k, (a, b, c, d) in enumerate(windows):
        x[0, 0, :, 2 * k:2 * k + 2] = [[a, b], [c, d]]
    tied = rng.choice([-1.0, -0.0, 0.0, 1.0, np.nan], size=(2, 3, 8, 10))
    for data in (x, tied, rng.normal(size=(3, 4, 6, 8))):
        out, ref = T.maxpool2x2(data).data, four_corner(data)
        assert np.array_equal(out, ref, equal_nan=True)
        signed = ~np.isnan(ref) & (ref != 0.0)
        assert np.array_equal(np.signbit(out[signed]), np.signbit(ref[signed]))


def test_maxpool_odd_dims_raise():
    with pytest.raises(ShapeError):
        T.maxpool2x2(Tensor(np.zeros((1, 1, 3, 4))))


def test_maxpool_grad(rng):
    x = rng.normal(size=(1, 2, 4, 4))
    check_grad(lambda t: T.tsum(T.maxpool2x2(t)), x)


def maxpool_oracle(x, g):
    """Per-window loop: each 2x2 window's value is its maximum, and its
    gradient goes to its first maximum in row-major window order."""
    bs, c, h, w = x.shape
    out = np.zeros((bs, c, h // 2, w // 2))
    gx = np.zeros_like(x)
    for idx in np.ndindex(bs, c, h // 2, w // 2):
        n, ch, r, q = idx
        cells = [(2 * r + i, 2 * q + j) for i in (0, 1) for j in (0, 1)]
        values = [x[n, ch, i, j] for i, j in cells]
        first = next(k for k, v in enumerate(values) if v == max(values))
        out[idx] = values[first]  # a zero maximum's sign is not checked
        gx[(n, ch) + cells[first]] = g[idx]
    return out, gx


def assert_bitwise_equal(a, b):
    # np.array_equal alone takes -0.0 == 0.0
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_equal_but_zero_sign(a, b):
    # adding 0.0 makes -0.0 into 0.0 and leaves every other value as it is
    assert_bitwise_equal(a + 0.0, b + 0.0)


def test_maxpool_tie_routes_gradient_to_first_in_window(rng):
    windows = [
        [5.0, 5.0, 1.0, 0.0],      # two equal maxima
        [1.0, 3.0, 3.0, 3.0],      # three
        [2.0, 2.0, 2.0, 2.0],      # four
        [-4.0, -1.0, -3.0, -1.0],  # all negative, tied
        [-0.0, 0.0, -1.0, -2.0],   # signed zeros: the gradient goes to the first
        [-1.0, 0.0, -0.0, -0.0],
        [-2.0, -1.0, -0.0, 0.0],
    ]
    x = np.zeros((1, 1, 2, 2 * len(windows)))
    for k, (a, b, c, d) in enumerate(windows):
        x[0, 0, :, 2 * k:2 * k + 2] = [[a, b], [c, d]]
    tied = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(2, 3, 6, 8))
    for data in (x, tied, tied[:1]):
        g = rng.normal(size=data[:, :, ::2, ::2].shape)
        ref_out, ref_gx = maxpool_oracle(data, g)
        leaf = Tensor(data, requires_grad=True)
        out = T.maxpool2x2(leaf)
        T.tsum(T.mul(out, Tensor(g))).backward()
        assert_equal_but_zero_sign(out.data, ref_out)
        assert_bitwise_equal(leaf.grad, ref_gx)
        # a second backward adds into the gradient already there
        T.tsum(T.mul(T.maxpool2x2(leaf), Tensor(g))).backward()
        assert_bitwise_equal(leaf.grad, 2.0 * ref_gx)


def test_unbatched_conv_and_pool_shapes(rng):
    # one image is a batch of one: a (C, H, W) input, or any rank other than
    # B x C x H x W, is a ShapeError, as are unbatched maps in the losses
    x = rng.normal(size=(3, 4, 4))
    calls = [lambda: T.conv1x1(x, rng.normal(size=(5, 3))),
             lambda: T.conv3x3(x, rng.normal(size=(5, 3, 3, 3)), np.zeros(5)),
             lambda: T.maxpool2x2(x),
             lambda: T.maxpool2x2(x[None, None]),
             lambda: T.distance_map(x, rng.normal(size=(2, 3))),
             lambda: density_loss(x[0], x[1]),
             lambda: proto_feature_loss(x, x[0], 2, 1)]
    for call in calls:
        with pytest.raises(ShapeError):
            call()


# -- per-sample passes against the whole-batch ones ------------------------------
#
# conv3x3 and maxpool2x2 once ran some passes over the whole (B, C, H, W)
# activation; each now runs them one sample at a time. The whole-batch
# versions stay here as references, and every output and leaf gradient must
# match them to the bit, save the sign of a zero maximum of the pool.

# (destination, source) slices of a 3x3 tap's shift along one spatial axis
_CROPS = ((slice(1, None), slice(None, -1)), (slice(None), slice(None)),
          (slice(None, -1), slice(1, None)))


def conv3x3_whole_batch(x, w, b, g):
    """The conv3x3 output for (x, w, b) and the input, weight and bias
    gradients for output gradient g, with the bias added to and its gradient
    summed over the whole batch, and the input gradient zeroed at once."""
    bs, c, h, wd = x.shape
    c_out = w.shape[0]
    w2 = w.reshape(c_out, c * 9)
    col = np.zeros((c, 9, h, wd))

    def im2col(x_n):
        for i, (dy, sy) in enumerate(_CROPS):
            for j, (dx, sx) in enumerate(_CROPS):
                col[:, 3 * i + j, dy, dx] = x_n[:, sy, sx]
        return col.reshape(c * 9, h * wd)

    oc = np.empty((bs, c_out, h * wd))
    for n in range(bs):
        np.matmul(w2, im2col(x[n]), out=oc[n])
    oc += b[:, None]
    g2 = g.reshape(bs, c_out, h * wd)
    gw = np.zeros((c_out, c * 9))
    gx = np.zeros_like(x)
    gcol = np.empty((c, 9, h, wd))
    for n in range(bs):
        gw += g2[n] @ im2col(x[n]).T
        np.matmul(w2.T, g2[n], out=gcol.reshape(c * 9, h * wd))
        for i, (dy, sy) in enumerate(_CROPS):
            for j, (dx, sx) in enumerate(_CROPS):
                gx[n, :, sy, sx] += gcol[:, 3 * i + j, dy, dx]
    return oc.reshape(bs, c_out, h, wd), gx, gw.reshape(w.shape), g2.sum(axis=(0, 2))


def maxpool2x2_whole_batch(x, g):
    """The maxpool2x2 output for x and input gradient for output gradient g,
    each pass over the whole batch, with batch-sized compare masks."""
    corners = [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    rows = np.maximum(x[:, :, 0::2], x[:, :, 1::2])
    pooled = np.maximum(rows[..., 0::2], rows[..., 1::2])
    gx = np.empty_like(x)
    gx_corners = [gx[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    taken = np.zeros(pooled.shape, dtype=bool)
    for corner, g_corner in zip(corners[:3], gx_corners):
        hit = corner == pooled
        hit &= ~taken
        np.multiply(g, hit, out=g_corner)
        taken |= hit
    np.multiply(g, ~taken, out=gx_corners[3])
    return pooled, gx


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


def _tied_or_normal(rng, tied, size, values):
    # tied: few distinct values, so windows hold tied maxima and +-0.0 maxima
    return rng.choice(values, size=size) if tied else rng.normal(size=size)


@pytest.mark.parametrize("b", [1, 2, 3, 16])
@pytest.mark.parametrize("tied", [False, True])
def test_per_sample_conv3x3_equals_whole_batch_bitwise(rng, b, tied):
    # odd channel counts, 1 included for the input; a single output channel
    # is left out, as the whole batch summed its bias gradient in one
    # pairwise pass over B*H*W, which no per-sample sum reproduces
    for c_in, c_out, h, w in [(1, 3, 6, 8), (3, 5, 4, 10), (5, 3, 8, 6), (3, 16, 2, 2)]:
        x = _tied_or_normal(rng, tied, (b, c_in, h, w), [-1.0, -0.0, 0.0, 1.0, 2.0])
        wt = _tied_or_normal(rng, tied, (c_out, c_in, 3, 3), [-1.0, 0.0, 1.0])
        bias = _tied_or_normal(rng, tied, (c_out,), [-0.0, 0.0, 1.0])
        g = rng.normal(size=(b, c_out, h, w))
        g[g > 1.0] = -0.0
        ref_out, ref_gx, ref_gw, ref_gb = conv3x3_whole_batch(x, wt, bias, g)
        for x_grad in (True, False):
            xt, weight, bias_t = Tensor(x, requires_grad=x_grad), Parameter(wt), Parameter(bias)
            out = T.conv3x3(xt, weight, bias_t)
            assert_same_bits(out.data, ref_out)
            out.grad = g.copy()
            out._backward()
            # a leaf's first gradient is the whole-batch one plus 0.0
            assert_same_bits(weight.grad, ref_gw + 0.0)
            assert_same_bits(bias_t.grad, ref_gb + 0.0)
            if x_grad:
                assert_same_bits(xt.grad, ref_gx + 0.0)
            else:
                assert xt.grad is None
        with no_grad():
            assert_same_bits(T.conv3x3(x, wt, bias).data, ref_out)


@pytest.mark.parametrize("b", [1, 2, 3, 16])
@pytest.mark.parametrize("tied", [False, True, "nonfinite"])
def test_per_sample_maxpool2x2_equals_whole_batch_bitwise(rng, b, tied):
    # "nonfinite" windows hold NaN, whose gradient goes to the last corner,
    # and tied or lone infinite maxima
    values = ([-1.0, -0.0, 0.0, 1.0] if tied is True
              else [np.nan, -np.inf, np.inf, -0.0, 0.0, 1.0])
    for c, h, w in [(1, 2, 2), (3, 6, 8), (5, 4, 10), (16, 8, 8)]:
        x = _tied_or_normal(rng, bool(tied), (b, c, h, w), values)
        g = rng.normal(size=(b, c, h // 2, w // 2))
        g[g > 1.0] = -0.0
        ref_out, ref_gx = maxpool2x2_whole_batch(x, g)
        for x_grad in (True, False):
            xt = Tensor(x, requires_grad=x_grad)
            out = T.maxpool2x2(xt)
            assert_same_bits(out.data + 0.0, ref_out + 0.0)  # either sign of zero
            if x_grad:
                out.grad = g.copy()
                out._backward()
                assert_same_bits(xt.grad, ref_gx + 0.0)
            else:
                assert out._backward is None


def test_maxpool_backward_keeps_no_batch_sized_mask(rng):
    # at B=16 and block 0's size the backward routes by the first-maximum
    # mask the forward kept and multiplies the input gradient by it in
    # place: it allocates under half a batch-sized bool mask beside that
    # gradient (compare masks built in the backward over the whole batch
    # took three)
    x = Tensor(rng.normal(size=(16, 16, 128, 128)), requires_grad=True)
    out = T.maxpool2x2(x)
    out.grad = rng.normal(size=out.shape)
    batch_mask = out.data.size
    tracemalloc.start()
    try:
        out._backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - x.grad.nbytes < batch_mask // 2, \
        f"backward peak {peak} B beside a {x.grad.nbytes} B gradient"


def test_leaf_gradients_hold_no_negative_zero(rng):
    # relu and the pool hand on -0.0 wherever a negative gradient is masked;
    # after conv3x3 -> maxpool2x2 -> relu no leaf holds -0.0
    x = Tensor(rng.choice([-1.0, 0.0, 1.0], size=(2, 3, 8, 8)), requires_grad=True)
    weight = Parameter(rng.choice([-1.0, 0.0, 1.0], size=(4, 3, 3, 3)))
    bias = Parameter(np.array([-50.0, 0.0, 0.5, -1.0]))
    pooled_leaf = Tensor(rng.choice([-1.0, -0.0, 0.0, 1.0], size=(2, 4, 8, 8)),
                         requires_grad=True)
    g = Tensor(-np.abs(rng.normal(size=(2, 4, 4, 4))))
    blocks = T.relu(T.maxpool2x2(T.conv3x3(x, weight, bias)))
    T.tsum(T.mul(T.add(blocks, T.relu(T.maxpool2x2(pooled_leaf))), g)).backward()
    for leaf in (x, weight, bias, pooled_leaf):
        zeros = leaf.grad[leaf.grad == 0.0]
        assert zeros.size and not np.signbit(zeros).any()


# -- tape lifetimes --------------------------------------------------------------
#
# The tape holds gradient nodes, and a closure only the arrays its backward
# reads, so an op output the caller dropped is freed before backward().


def _watch_outputs(monkeypatch, names):
    """(op, weak references) per call of each op in ``names``, in call
    order: one to the output array and one to the array it views, if any.
    The wrappers keep no Tensor."""
    calls = []
    for name in names:
        def watched(*args, _op=getattr(T, name), _name=name):
            out = _op(*args)
            arrays = [out.data] if out.data.base is None else [out.data, out.data.base]
            calls.append((_name, [weakref.ref(a) for a in arrays]))
            return out
        monkeypatch.setattr(T, name, watched)
    return calls


def _dead(refs):
    return all(ref() is None for ref in refs)


def extractor_whole_batch_grads(x, weights, biases, g):
    """The weight and bias gradients, in ``FeatureExtractor.parameters()``
    order, of sum(extractor(x) * g) by the whole-batch references, with 0.0
    added wherever the tape adds it to a node's first gradient."""
    blocks, h = [], x
    for w, b in zip(weights, biases):
        c = conv3x3_whole_batch(h, w, b, np.zeros((len(x), len(w), *h.shape[2:])))[0]
        p = maxpool2x2_whole_batch(c, np.zeros_like(c[:, :, ::2, ::2]))[0]
        blocks.append((h, c, p))
        h = np.where(p > 0, p, 0.0)
    grads, gr = [], g + 0.0
    for (h, c, p), w, b in reversed(list(zip(blocks, weights, biases))):
        gp = gr * (p > 0) + 0.0
        gc = maxpool2x2_whole_batch(c, gp)[1] + 0.0
        _, gx, gw, gb = conv3x3_whole_batch(h, w, b, gc)
        grads = [gw + 0.0, gb + 0.0] + grads
        gr = gx + 0.0
    return grads


def test_extractor_step_frees_conv_and_pool_outputs_before_backward(rng, monkeypatch):
    # a B=16 pretraining step (at 32x32): each conv3x3 output dies once its
    # pool has read it and each pool output once its relu has, so all six
    # are gone before backward(); the gradients match the references' bits
    extractor = FeatureExtractor(np.random.default_rng(0))
    x = rng.uniform(size=(16, 1, 32, 32))
    g = rng.normal(size=(16, FEATURE_DIM, 4, 4))
    calls = _watch_outputs(monkeypatch, ("conv3x3", "maxpool2x2"))
    loss = T.tsum(T.mul(extractor.forward(Tensor(x)), Tensor(g)))
    assert [name for name, _ in calls] == ["conv3x3", "maxpool2x2"] * 3
    assert all(_dead(refs) for _, refs in calls)
    loss.backward()
    want = extractor_whole_batch_grads(x, [w.data for w in extractor.weights],
                                       [b.data for b in extractor.biases], g)
    for p, ref in zip(extractor.parameters(), want, strict=True):
        assert_same_bits(p.grad, ref)


def test_processing_step_frees_conv1x1_output_before_backward(rng, monkeypatch):
    # a B=32 main-loop step on a batch gathered channel-major, as train
    # gathers it: the processing conv1x1's output dies once sigmoid has read
    # it (the head's lives on in the density the caller holds), and every
    # gradient has the bits of the same step on a batch-major copy
    features = rng.normal(size=(40, FEATURE_DIM, 16, 16))
    idx = rng.permutation(40)[:32]
    g = rng.normal(size=(32, 16, 16))
    grads = []
    for batch in (np.take(features.transpose(1, 0, 2, 3), idx, axis=1).transpose(1, 0, 2, 3),
                  features[idx]):
        model = CountModel(ModelConfig(), FeatureExtractor(np.random.default_rng(0)), seed=0)
        model.extractor.freeze()
        calls = _watch_outputs(monkeypatch, ("conv1x1",))
        density = model.forward_from_features(Tensor(batch)).density
        loss = T.tsum(T.mul(density, Tensor(g)))
        assert [name for name, _ in calls] == ["conv1x1"] * 2
        assert _dead(calls[0][1]) and not _dead(calls[1][1])
        loss.backward()
        grads.append([p.grad for p in model.trainable_parameters().values()])
        monkeypatch.undo()
    assert len(grads[0]) == 4
    for got, want in zip(*grads, strict=True):
        assert_same_bits(got, want)


# -- distance map --------------------------------------------------------------


def distance_oracle(f, p):
    k, d = p.shape
    _, h, w = f.shape
    out = np.zeros((k, h, w))
    for i in range(k):
        for hh in range(h):
            for ww in range(w):
                out[i, hh, ww] = np.sum((f[:, hh, ww] - p[i]) ** 2)
    return out


def test_distance_map_matches_loop_oracle(rng):
    f = rng.normal(size=(2, 3, 4, 4))
    p = rng.normal(size=(5, 3))
    np.testing.assert_allclose(T.distance_map(f, p).data,
                               np.stack([distance_oracle(fb, p) for fb in f]),
                               rtol=1e-10, atol=1e-12)


@given(arrays(np.float64, (2, 3, 4), elements=st.floats(-5, 5)),
       arrays(np.float64, (4, 2), elements=st.floats(-5, 5)))
def test_distance_map_nonnegative(f, p):
    batched = np.stack([f, f * 0.5])
    assert np.all(T.distance_map(batched, p).data >= 0.0)


def test_distance_map_grads(rng):
    # batch 2 and 1 with K=4, and a single prototype
    for f_shape, w_shape, k in (((2, 3, 3, 3), (2, 4, 3, 3), 4),
                                ((1, 3, 3, 4), (1, 4, 3, 4), 4),
                                ((2, 3, 3, 3), (2, 1, 3, 3), 1)):
        f = rng.normal(size=f_shape)
        p = rng.normal(size=(k, 3))
        w = rng.normal(size=w_shape)
        check_grad(lambda t: T.tsum(T.mul(T.distance_map(t, Tensor(p)), Tensor(w))), f)
        check_grad(lambda t: T.tsum(T.mul(T.distance_map(Tensor(f), t), Tensor(w))), p)


def channel_loop_distance(f, p):
    """The distance map as d explicit channel steps, summed in channel order."""
    out = np.zeros((f.shape[0], p.shape[0]) + f.shape[2:])
    for c in range(f.shape[1]):
        diff = f[:, None, c] - p[None, :, c, None, None]
        out += diff * diff
    return out


# (B, d, H, W); at K = 8 the (d,K,B,H,W) difference is 2^17 elements for one
# default image, 2^18 for two and 17 * 2^13 for a 16 x 17 map, so with
# K in (1, 2, 8) the cases sit below, at and above the one-pass limit. The
# 1x1 maps include K*B*H*W = 1, the single (K,B,H,W) element that numpy
# would sum pairwise, and 2, the smallest one-pass input.
@pytest.mark.parametrize("b, d, h, w", [
    pytest.param(1, 64, 16, 16, id="1"), pytest.param(16, 64, 16, 16, id="16"),
    pytest.param(32, 64, 16, 16, id="32"), (2, 64, 16, 16), (1, 64, 16, 17),
    (1, 128, 16, 8), (1, 64, 3, 3), (1, 8, 1, 1), (2, 8, 1, 1), (1, 64, 1, 1),
    (2, 64, 1, 1)])
def test_distance_map_equals_explicit_difference_bitwise(rng, b, d, h, w):
    f_batch_major = rng.uniform(size=(b, d, h, w))
    # a (B,d,H,W) view of (d,B,H,W) memory: the layout that conv1x1 and
    # sigmoid hand to distance_map in forward_from_features
    f_channel_major = rng.uniform(size=(d, b, h, w)).transpose(1, 0, 2, 3)
    for f in (f_batch_major, f_channel_major):
        for k in (1, 2, 8):
            p = rng.uniform(size=(k, d))
            expected = channel_loop_distance(f, p)
            out = T.distance_map(f, p).data
            assert np.array_equal(out, expected)
            if h * w > 1:   # einsum sums a 1x1 map's channels pairwise
                diff = f[:, None] - p[None, :, :, None, None]
                assert np.array_equal(out, np.einsum("bkdhw,bkdhw->bkhw", diff, diff))
            assert np.array_equal(T.distance_map(f[:1], p).data, expected[:1])
            # the backward's g.sum(axis=(0, 2)) sums in memory order, so an
            # output in another layout would move the prototype gradient in
            # the last bits
            assert out.flags.c_contiguous


def test_distance_map_of_one_image_peaks_at_its_one_pass_buffer(rng):
    # the one-pass (d,K,B,H,W) difference of one default image is 1 MiB;
    # numpy's ufunc buffers (getbufsize() elements per broadcast operand)
    # come on top
    f, p = rng.uniform(size=(1, 64, 16, 16)), rng.uniform(size=(8, 64))
    limit = 2 ** 20 + 8 * 8 * 16 * 16 + 2 * 8 * np.getbufsize()
    tracemalloc.start()
    try:
        with no_grad():
            T.distance_map(f, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit, f"peak {peak} B > {limit} B"


def test_distance_map_zero_where_prototype_equals_feature(rng):
    f = rng.uniform(size=(2, 64, 4, 4))
    p = rng.uniform(size=(3, 64))
    p[1] = f[1, :, 2, 3]
    out = T.distance_map(f, p).data
    assert out[1, 1, 2, 3] == 0.0
    assert np.all(np.delete(out[:, 1].reshape(-1), 1 * 16 + 2 * 4 + 3) > 0.0)


def test_distance_map_keeps_no_kfold_buffer(rng):
    b, k, d, hw = 32, 8, 64, 16
    kfold_bytes = 8 * b * k * d * hw * hw   # the (B,K,d,H,W) float64 difference
    f = Tensor(rng.uniform(size=(b, d, hw, hw)), requires_grad=True)
    p = Tensor(rng.uniform(size=(k, d)), requires_grad=True)
    feature_bytes = 8 * b * d * hw * hw     # one (B,d,H,W) float64 buffer
    g = Tensor(rng.normal(size=(b, k, hw, hw)))
    tracemalloc.start()
    try:
        dist = T.distance_map(f, p)
        forward_peak = tracemalloc.get_traced_memory()[1]
        T.tsum(T.mul(dist, g)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.grad.shape == f.shape and p.grad.shape == p.shape
    assert peak < kfold_bytes, f"peak {peak} B >= K-fold buffer {kfold_bytes} B"
    # the forward works on (K,B,H,W) buffers, one channel at a time
    assert forward_peak < feature_bytes, \
        f"forward peak {forward_peak} B >= one feature buffer {feature_bytes} B"


def test_distance_map_shape_errors(rng):
    with pytest.raises(ShapeError):
        T.distance_map(rng.normal(size=(3, 4, 4)), rng.normal(size=(5, 2)))
    with pytest.raises(ShapeError):
        T.distance_map(rng.normal(size=(3, 4, 4)), rng.normal(size=(5,)))


# -- autodiff machinery --------------------------------------------------------


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._parents == () and y._backward is None


def test_no_grad_restores_on_exit():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        pass
    y = T.mul(x, x)
    assert y.requires_grad


def test_backward_consumes_tape(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = Parameter(rng.normal(size=(3, 4)), name="w")
    h = T.matmul(x, w)
    loss = T.tsum(T.mul(T.sigmoid(T.add(T.relu(h), h)), Tensor(rng.normal(size=(2, 4)))))
    nodes, stack = [], [loss]
    while stack:
        node = stack.pop()
        if all(node is not seen for seen in nodes):
            nodes.append(node)
            stack.extend(node._parents)
    interior = [node for node in nodes if node._backward is not None]
    loss.backward()
    assert len(interior) == 6
    for node in interior:
        assert node.grad is None and node._parents == () and node._backward is None
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


def test_backward_frees_each_gradient_once_used():
    # a chain of 8 adds over a 1 MB array: each interior gradient dies as soon
    # as its closure has run, instead of all 8 living until the backward ends
    x = Tensor(np.random.default_rng(0).normal(size=2 ** 17), requires_grad=True)
    tracemalloc.start()
    try:
        y = x
        for _ in range(8):
            y = T.add(y, 1.0)
        loss = T.tsum(y)
        del y
        tape = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))
    assert peak < tape + 3 * x.data.nbytes, \
        f"backward peak {peak} B >= tape {tape} B + 3 buffers"


def test_tape_keeps_only_what_backward_reads(rng):
    # a node's edges reach only the inputs a gradient flows to
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    const = Tensor(rng.normal(size=(2, 3)))
    y = T.mul(x, const)
    assert len(y._parents) == 1 and y._parents[0] is x

    # conv1x1 reads its transposed GEMM operand, so an input that gets no
    # gradient is freed once the caller drops it
    data = rng.normal(size=(4, 3, 5, 5))
    alive = weakref.ref(data)
    w = Parameter(rng.normal(size=(2, 3)), name="w")
    b = Parameter(rng.normal(size=2), name="b")
    out = T.conv1x1(Tensor(data), w, b)
    assert len(out._parents) == 2 and out._parents[0] is w and out._parents[1] is b
    channel_sums = data.sum(axis=(0, 2, 3))
    del data
    assert alive() is None
    T.tsum(out).backward()
    np.testing.assert_allclose(w.grad, np.tile(channel_sums, (2, 1)), rtol=1e-12)
    np.testing.assert_array_equal(b.grad, [100.0, 100.0])

    # sigmoid's backward computes (g * s) * (1 - s) inside the out.grad it
    # owns: one (1 - s) temporary and no other full-size buffer
    x = Tensor(rng.normal(size=2 ** 17), requires_grad=True)
    s = T.sigmoid(x)
    s.grad = rng.normal(size=x.shape)
    g = s.grad
    expected = g * s.data
    expected *= 1.0 - s.data
    expected += 0.0
    tracemalloc.start()
    try:
        s._backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is g
    assert x.grad.tobytes() == expected.tobytes()
    assert peak < 1.5 * g.nbytes, f"sigmoid backward peak {peak} B >= 1.5 buffers"


def test_node_gradient_has_the_layout_empty_like_gives_the_output(rng):
    # a node keeps no value, yet its first gradient must be laid out as
    # np.empty_like(output) was, so that reductions over it sum in the
    # same order; the strides of a length-1 axis do not matter
    base = np.empty((2, 3, 4, 5))
    views = [base, base.transpose(1, 0, 2, 3), base[:, ::2], base[..., ::-1],
             base.transpose(3, 1, 0, 2)[:, 1:], base[:, :1].transpose(2, 1, 0, 3),
             np.broadcast_to(base[:, :, :1], base.shape)]
    for _ in range(50):
        views.append(base.transpose(rng.permutation(4))[::int(rng.choice([1, 2, -1]))])
    for view in views:
        got, want = T._Node(view, ())._empty(), np.empty_like(view)
        assert got.shape == want.shape
        assert [s for n, s in zip(got.shape, got.strides) if n > 1] == \
            [s for n, s in zip(want.shape, want.strides) if n > 1]


def test_first_accumulation_equals_zeros_plus_grad_bitwise():
    g = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -1.5, 2.0 ** -1074])
    source = g.copy()
    t = Tensor(np.zeros_like(g), requires_grad=True)
    T._accum(t, g)
    assert np.array_equal(t.grad.view(np.int64), (np.zeros_like(g) + g).view(np.int64))
    assert t.grad is not g and not np.shares_memory(t.grad, g)
    T._accum(t, np.ones_like(g))
    assert np.array_equal(g.view(np.int64), source.view(np.int64))
    scalar = Tensor(0.0, requires_grad=True)
    T._accum(scalar, np.asarray(-0.0))
    assert isinstance(scalar.grad, np.ndarray) and scalar.grad.shape == ()
    assert not np.signbit(scalar.grad)


def test_relu_first_accumulation_equals_zeros_plus_grad_bitwise():
    # relu hands its own g * mask buffer to its input; a masked negative
    # gradient is -0.0 there and must still arrive as 0.0
    a = np.array([1.0, -1.0, 2.0, -0.0, 0.0, 3.0, -4.0])
    g = np.array([-0.0, -2.0, -1.5, 4.0, -3.0, 0.0, -1e300])
    x = Tensor(a, requires_grad=True)
    T.tsum(T.mul(T.relu(x), Tensor(g))).backward()
    expected = np.zeros_like(a) + (np.zeros_like(g) + g) * (a > 0)
    assert np.array_equal(x.grad.view(np.int64), expected.view(np.int64))
    assert not np.signbit(x.grad[x.grad == 0.0]).any()
    T.tsum(T.mul(T.relu(x), Tensor(g))).backward()
    assert np.array_equal(x.grad.view(np.int64), (expected + expected).view(np.int64))


def test_grad_accumulates_across_backwards():
    x = Tensor(np.ones(3), requires_grad=True)
    T.tsum(x).backward()
    T.tsum(x).backward()
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))


def test_diamond_graph_grad():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.mul(x, x)
    z = T.tsum(T.add(y, y))
    z.backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_gradcheck_detects_wrong_gradient(rng):
    a = rng.normal(size=(4,))
    fn = lambda arr: float(np.sum(np.asarray(arr if not isinstance(arr, Tensor) else arr.data) ** 3))
    good = gradcheck_rel_error(fn, a, 3 * a ** 2)
    bad = gradcheck_rel_error(fn, a, 2 * a)
    assert good <= 1e-6
    assert bad > 1e-3


def test_finite_diff_requires_positive_step():
    with pytest.raises(ValueError):
        T.finite_diff_grad(lambda a: float(a.sum()), np.ones(2), h=0.0)


# -- PDTF file format ----------------------------------------------------------


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=4, max_side=4),
              elements=st.floats(-1e6, 1e6)))
@settings(max_examples=30)
def test_pdtf_roundtrip(tmp_path_factory, a):
    path = tmp_path_factory.mktemp("pdtf") / "t.pdt"
    T.save_tensor(path, a)
    back = T.load_tensor(path)
    assert back.dtype == np.dtype("<f8")
    np.testing.assert_array_equal(back, a)


def test_pdtf_float32_file_is_rejected(tmp_path, rng):
    # the package writes and reads float64 (code 1) only; a well-formed
    # float32 (code 0) file is an error that names it
    a = rng.normal(size=(3, 2))
    path = tmp_path / "t.pdt"
    path.write_bytes(b"PDTF" + struct.pack("<BBII", 0, 2, 3, 2) + a.astype("<f4").tobytes())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: PDTF dtype code 0 "):
        T.load_tensor(path)


def test_pdtf_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.pdt"
    bad.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(ValueError):
        T.load_tensor(bad)
    T.save_tensor(tmp_path / "ok.pdt", np.ones((2, 2)))
    blob = (tmp_path / "ok.pdt").read_bytes()
    (tmp_path / "trunc.pdt").write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        T.load_tensor(tmp_path / "trunc.pdt")
    for value in (np.nan, np.inf, -np.inf):
        T.save_tensor(tmp_path / "nonfinite.pdt", [1.0, value])
        with pytest.raises(ValueError, match="nonfinite.pdt: PDTF tensor holds NaN or inf"):
            T.load_tensor(tmp_path / "nonfinite.pdt")


# -- clearing an output directory ----------------------------------------------


def test_clear_outputs_removes_only_what_its_patterns_match(tmp_path):
    out = tmp_path / "run[1]"   # glob magic in the directory itself is literal
    T.clear_outputs(out, "a.csv")
    assert out.is_dir()
    for name in ("a.csv", "b_1.pdt", "b_2.pdt", "keep.txt"):
        (out / name).write_text("old\n")
    (out / "sub").mkdir()
    (out / "sub" / "a.csv").write_text("old\n")
    (out / "dangling.txt").symlink_to(tmp_path / "gone")
    T.clear_outputs(out, "a.csv", "b_*.pdt", "sub/a.csv", "dangling.txt", "absent.csv")
    assert sorted(p.name for p in out.iterdir()) == ["keep.txt", "sub"]
    assert list((out / "sub").iterdir()) == []
    (out / "a.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        T.clear_outputs(out, "a.csv")


def test_only_clear_outputs_removes_files():
    # one rule for what a rerun clears: no module beside tensor.py removes
    # files or globs for them on its own
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "protodensity"
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "glob" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "glob"):
                found.append(f"{path.name}:{node.lineno}: imports glob")
            if (isinstance(node, ast.Attribute) and node.attr in ("remove", "unlink")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno}: calls os.{node.attr}")
    assert len(list(package.glob("*.py"))) > 5
    assert found == []
