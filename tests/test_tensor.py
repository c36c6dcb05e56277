"""Tensor kernel tests: op values against small hand/numpy oracles and every
gradient against central finite differences."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from protodensity import tensor as T
from protodensity.losses import density_loss, proto_feature_loss
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
    assert p.trainable and p.requires_grad
    p.freeze()
    assert not p.trainable


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
    a = rng.normal(size=(4,))
    s = np.array(1.7)
    check_grad(lambda t: T.tsum(T.mul(Tensor(a), t)), s)


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
    np.testing.assert_allclose(T.conv3x3(x, w).data, conv3x3_oracle(x, w, np.zeros(2)),
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


def test_maxpool_odd_dims_raise():
    with pytest.raises(ShapeError):
        T.maxpool2x2(Tensor(np.zeros((1, 1, 3, 4))))


def test_maxpool_grad(rng):
    x = rng.normal(size=(1, 2, 4, 4))
    check_grad(lambda t: T.tsum(T.maxpool2x2(t)), x)


def maxpool_oracle(x, g):
    """Per-window loop: the value and the gradient of each 2x2 window go to
    its first maximum in row-major window order."""
    bs, c, h, w = x.shape
    out = np.zeros((bs, c, h // 2, w // 2))
    gx = np.zeros_like(x)
    for idx in np.ndindex(bs, c, h // 2, w // 2):
        n, ch, r, q = idx
        cells = [(2 * r + i, 2 * q + j) for i in (0, 1) for j in (0, 1)]
        values = [x[n, ch, i, j] for i, j in cells]
        first = next(k for k, v in enumerate(values) if v == max(values))
        out[idx] = values[first]
        gx[(n, ch) + cells[first]] = g[idx]
    return out, gx


def assert_bitwise_equal(a, b):
    # np.array_equal alone takes -0.0 == 0.0
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_maxpool_tie_routes_gradient_to_first_in_window(rng):
    windows = [
        [5.0, 5.0, 1.0, 0.0],      # two equal maxima
        [1.0, 3.0, 3.0, 3.0],      # three
        [2.0, 2.0, 2.0, 2.0],      # four
        [-4.0, -1.0, -3.0, -1.0],  # all negative, tied
        [-0.0, 0.0, -1.0, -2.0],   # signed zeros: the first one wins
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
        assert_bitwise_equal(out.data, ref_out)
        assert_bitwise_equal(leaf.grad, ref_gx)
        # a second backward adds into the gradient already there
        T.tsum(T.mul(T.maxpool2x2(leaf), Tensor(g))).backward()
        assert_bitwise_equal(leaf.grad, 2.0 * ref_gx)


def test_unbatched_conv_and_pool_shapes(rng):
    # one image is a batch of one: a (C, H, W) input, or any rank other than
    # B x C x H x W, is a ShapeError, as are unbatched maps in the losses
    x = rng.normal(size=(3, 4, 4))
    calls = [lambda: T.conv1x1(x, rng.normal(size=(5, 3))),
             lambda: T.conv3x3(x, rng.normal(size=(5, 3, 3, 3))),
             lambda: T.maxpool2x2(x),
             lambda: T.maxpool2x2(x[None, None]),
             lambda: T.distance_map(x, rng.normal(size=(2, 3))),
             lambda: density_loss(x[0], x[1]),
             lambda: proto_feature_loss(x, x[0], 2, 1)]
    for call in calls:
        with pytest.raises(ShapeError):
            call()


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


@pytest.mark.parametrize("b", [1, 16, 32])
def test_distance_map_equals_explicit_difference_bitwise(rng, b):
    f = rng.uniform(size=(b, 64, 16, 16))
    p = rng.uniform(size=(8, 64))
    diff = f[:, None] - p[None, :, :, None, None]
    expected = np.einsum("bkdhw,bkdhw->bkhw", diff, diff)
    assert np.array_equal(T.distance_map(f, p).data, expected)
    assert np.array_equal(T.distance_map(f[:1], p).data, expected[:1])


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
    g = Tensor(rng.normal(size=(b, k, hw, hw)))
    tracemalloc.start()
    try:
        T.tsum(T.mul(T.distance_map(f, p), g)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.grad.shape == f.shape and p.grad.shape == p.shape
    assert peak < kfold_bytes, f"peak {peak} B >= K-fold buffer {kfold_bytes} B"


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


def test_backward_consumes_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    y = T.tsum(T.mul(x, x))
    y.backward()
    assert y._parents == () and y._backward is None
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))


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


def test_pdtf_float32_roundtrip(tmp_path, rng):
    # the package writes float64 only; a float32 file from elsewhere still loads
    a = rng.normal(size=(3, 2))
    (tmp_path / "t.pdt").write_bytes(
        b"PDTF" + struct.pack("<BBII", 0, 2, 3, 2) + a.astype("<f4").tobytes())
    back = T.load_tensor(tmp_path / "t.pdt")
    assert back.dtype == np.dtype("<f4")
    np.testing.assert_array_equal(back, a.astype(np.float32))


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
