"""Model stage tests: shape chains, init distributions, the distance-to-
similarity transform, counting, and checkpoint round trips."""

import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from protodensity.model import (DOWNSAMPLE, FEATURE_DIM, CountModel,
                                FeatureExtractor, ModelConfig,
                                load_checkpoint, load_extractor,
                                save_checkpoint, save_extractor,
                                similarity_from_distance, count)
from protodensity import tensor as T
from protodensity.tensor import ShapeError, Tensor, no_grad


@pytest.fixture(scope="module")
def extractor():
    return FeatureExtractor(np.random.default_rng(0))


@pytest.fixture(scope="module")
def model(extractor):
    return CountModel(ModelConfig(k_cell=3, k_bg=2), extractor, seed=0)


# -- config --------------------------------------------------------------------


def test_config_defaults_and_total():
    config = ModelConfig()
    assert (config.k_cell, config.k_bg, config.d, config.epsilon) == (4, 4, 64, 1e-4)
    assert config.k_total == 8


@pytest.mark.parametrize("bad", [
    dict(k_cell=0), dict(k_bg=0), dict(d=0), dict(epsilon=0.0), dict(epsilon=1.0),
])
def test_config_rejects(bad):
    from dataclasses import replace
    with pytest.raises(ValueError):
        replace(ModelConfig(), **bad)


# -- shape chain ---------------------------------------------------------------


@pytest.mark.parametrize("hw", [64, 128, 256])
def test_shape_chain(model, hw):
    x = np.random.default_rng(1).uniform(0, 1, size=(1, 1, hw, hw))
    with no_grad():
        features = model.extract_features(Tensor(x))
        processed = model.process_features(features)
        out = model.forward_from_features(features)
    f = hw // DOWNSAMPLE
    assert features.shape == (1, FEATURE_DIM, f, f)
    assert processed.shape == (1, model.config.d, f, f)
    assert out.distances.shape == (1, 5, f, f)
    assert out.similarities.shape == (1, 5, f, f)
    assert out.density.shape == (1, f, f)
    assert out.count.shape == (1,) and out.count.dtype == np.float64


def test_batched_shape_chain(model):
    x = np.random.default_rng(2).uniform(0, 1, size=(3, 1, 64, 64))
    with no_grad():
        out = model.forward(Tensor(x))
    assert out.density.shape == (3, 8, 8)
    assert out.count.shape == (3,)


def test_indivisible_input_raises(model):
    with pytest.raises(ShapeError):
        model.extract_features(Tensor(np.zeros((1, 1, 100, 100))))


def test_processed_lives_in_unit_interval(model):
    x = np.random.default_rng(3).uniform(0, 1, size=(1, 1, 64, 64))
    with no_grad():
        features = model.extract_features(Tensor(x))
        processed = model.process_features(features)
        out = model.forward_from_features(features)
    assert np.all(processed.data > 0.0) and np.all(processed.data < 1.0)
    assert np.all(out.distances.data >= 0.0)


# -- extractor blocks ----------------------------------------------------------


def test_extractor_pool_then_relu_equals_relu_then_pool_bitwise(monkeypatch):
    # integer inputs and weights make every conv output an exact integer,
    # so windows tie often and many are all <= 0. The conv gives 0.0 for a
    # zero; here every zero on odd h + w becomes -0.0 where the pooled
    # conv3x3 pools each sample's output, so the pool meets zero maxima of
    # each sign and of both, which the relu after it must erase. The
    # reference's relu turns each such -0.0 into 0.0 before its pool, so it
    # runs unpatched
    pool = T._pool
    zero_windows = {"-0.0": 0, "0.0": 0, "both": 0}

    def pool_signed_zeros(x_n, out_n, rows, first_n):
        h, w_ = x_n.shape[-2:]
        odd = np.add.outer(np.arange(h), np.arange(w_)) % 2 == 1
        x_n[(x_n == 0.0) & odd] = -0.0
        corners = np.stack([x_n[..., i::2, j::2] for i in (0, 1) for j in (0, 1)])
        zero_max = corners.max(axis=0) == 0.0
        neg = ((corners == 0.0) & np.signbit(corners)).any(axis=0)
        pos = ((corners == 0.0) & ~np.signbit(corners)).any(axis=0)
        zero_windows["-0.0"] += np.count_nonzero(zero_max & neg & ~pos)
        zero_windows["0.0"] += np.count_nonzero(zero_max & pos & ~neg)
        zero_windows["both"] += np.count_nonzero(zero_max & pos & neg)
        pool(x_n, out_n, rows, first_n)

    rng = np.random.default_rng(3)
    extractor = FeatureExtractor(rng)
    for w in extractor.weights:
        w.data[...] = rng.integers(-2, 3, size=w.shape)
    for b in extractor.biases:
        b.data[...] = rng.integers(-2, 3, size=b.shape)
    images = rng.integers(-2, 3, size=(2, 1, 16, 16)).astype(np.float64)
    g = rng.normal(size=(2, FEATURE_DIM, 2, 2))

    def run(blocks):
        x = Tensor(images, requires_grad=True)
        out = blocks(x)
        T.tsum(T.mul(out, Tensor(g))).backward()
        grads = [x.grad] + [p.grad for p in extractor.parameters()]
        for p in extractor.parameters():
            p.zero_grad()
        return out.data, grads

    def relu_then_pool(x):
        for w, b in zip(extractor.weights, extractor.biases):
            x = T.maxpool2x2(T.relu(T.conv3x3(x, w, b)))
        return x

    ref_out, ref_grads = run(relu_then_pool)
    monkeypatch.setattr(T, "_pool", pool_signed_zeros)
    out, grads = run(extractor.forward)
    assert all(zero_windows.values()), zero_windows
    assert np.count_nonzero(out) and np.count_nonzero(out == 0)
    for a, b in zip([out, *grads], [ref_out, *ref_grads]):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_extractor_peak_memory():
    # one pretraining-sized step: B=16 images of 1x128x128 through the three
    # pooled conv, relu blocks and back to every weight. Each block pools
    # every sample's conv output in one sample-sized buffer, and unpools its
    # gradient into another, so the peak, 34.5 MB, is block 1's backward:
    # its 8 MiB input gradient, 4.5 MiB im2col buffer and 1 MiB unpooled
    # sample beside the 8 MiB input the tape keeps for its weight gradient,
    # its 4 MiB pooled gradient, the two blocks' 2 and 4 MiB masks and block
    # 0's 1 MiB relu mask. It stays under 40 MB; block 0's batch-sized conv
    # output or its gradient, 32 MiB each, would not (48.6 MB when the pool
    # was a separate op)
    extractor = FeatureExtractor(np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).uniform(size=(16, 1, 128, 128)))
    tracemalloc.start()
    try:
        T.tsum(extractor.forward(x)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in extractor.parameters())
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB >= 40 MB"


def test_extractor_no_grad_peak_memory():
    # a stacked batch-16 forward with no tape; eval, the gallery and the
    # feature cache forward one image at a time (test_predict_peak_memory).
    # The peak, 19.0 MB, is block 1: its 8 MiB input, 4.5 MiB im2col buffer,
    # 4 MiB pooled output and the 1 MiB conv sample and 0.5 MiB row buffer
    # it pools from. A batch-sized conv output (32 MiB at block 0) would not
    # stay under 25 MB (43.1 MB when the pool was a separate op)
    extractor = FeatureExtractor(np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).uniform(size=(16, 1, 128, 128)))
    tracemalloc.start()
    try:
        with no_grad():
            out = extractor.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (16, FEATURE_DIM, 128 // DOWNSAMPLE, 128 // DOWNSAMPLE)
    assert peak < 25e6, f"peak {peak / 1e6:.1f} MB >= 25 MB"


def test_predict_peak_memory(extractor):
    # eval and the gallery forward sample images one at a time; a stacked
    # batch of 16 peaks at about 60 MB
    model = CountModel(ModelConfig(), extractor, seed=0)
    images = np.random.default_rng(1).uniform(size=(16, 1, 128, 128))
    samples = [types.SimpleNamespace(image=image) for image in images]
    tracemalloc.start()
    try:
        counts, sims = model.predict(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB >= 12 MB"
    with no_grad():
        out = model.forward(Tensor(images))
    assert np.array_equal(counts, out.count)
    assert np.array_equal(sims, out.similarities.data)


# -- initialization ------------------------------------------------------------


def test_prototype_init_uniform_unit_cube(extractor):
    m = CountModel(ModelConfig(k_cell=16, k_bg=16), extractor, seed=5)
    p = m.prototypes.data
    assert p.shape == (32, 64)
    assert np.all(p >= 0.0) and np.all(p < 1.0)
    assert p.std() > 0.2  # spread out, not collapsed


def test_processing_init_bounds(model):
    limit = 1.0 / np.sqrt(FEATURE_DIM)
    w = model.processing_weight.data
    assert np.all(np.abs(w) <= limit)
    np.testing.assert_array_equal(model.processing_bias.data, 0.0)


def test_head_starts_at_zero_without_bias(model):
    np.testing.assert_array_equal(model.theta.data, np.zeros(5))
    names = {n for n in model.named_parameters() if n.startswith("head.")}
    assert names == {"head.theta"}


def test_extractor_init_he_bounds():
    ext = FeatureExtractor(np.random.default_rng(9))
    for w, b in zip(ext.weights, ext.biases):
        limit = np.sqrt(6.0 / (w.shape[1] * 9))
        assert np.all(np.abs(w.data) <= limit)
        np.testing.assert_array_equal(b.data, 0.0)


def test_same_seed_same_init(extractor):
    a = CountModel(ModelConfig(), extractor, seed=11)
    b = CountModel(ModelConfig(), extractor, seed=11)
    np.testing.assert_array_equal(a.prototypes.data, b.prototypes.data)
    np.testing.assert_array_equal(a.processing_weight.data, b.processing_weight.data)
    c = CountModel(ModelConfig(), extractor, seed=12)
    assert not np.array_equal(a.processing_weight.data, c.processing_weight.data)


# -- similarity transform ------------------------------------------------------


def test_similarity_at_zero_distance():
    s = similarity_from_distance(Tensor(np.zeros((1, 1, 1))), 1e-4)
    assert abs(float(s.data.ravel()[0]) - np.log(1e4)) <= 1e-12


def test_similarity_at_unit_distance():
    s = similarity_from_distance(Tensor(np.ones((1,))), 1e-4)
    expected = np.log(2.0 / 1.0001)
    assert abs(float(s.data[0]) - expected) <= 1e-12
    assert abs(expected - 0.693047) < 1e-6


def test_similarity_rejects_negative_distance():
    with pytest.raises(ValueError):
        similarity_from_distance(Tensor(np.array([-0.5])), 1e-4)


@given(arrays(np.float64, (6,), elements=st.floats(0, 50)))
def test_similarity_monotone_decreasing(d):
    d = np.sort(d)
    s = similarity_from_distance(Tensor(d), 1e-4).data
    assert np.all(np.diff(s) <= 1e-15)
    assert np.all(s > 0.0)


# -- counting ------------------------------------------------------------------


def test_count_equals_sum_exactly(rng):
    density = rng.uniform(0, 1, size=(1, 8, 8))
    assert count(Tensor(density)) == density.sum()
    batched = rng.uniform(0, 1, size=(3, 8, 8))
    np.testing.assert_array_equal(count(Tensor(batched)), batched.sum(axis=(1, 2)))


# -- parameter plumbing --------------------------------------------------------


def test_named_parameters_cover_all_stages(model):
    names = set(model.named_parameters())
    assert "prototypes" in names and "head.theta" in names
    assert "processing.weight" in names and "processing.bias" in names
    assert any(n.startswith("extractor.block") for n in names)


_DEFAULT_PARAMETERS = [
    ("extractor.block0.weight", (16, 1, 3, 3)), ("extractor.block0.bias", (16,)),
    ("extractor.block1.weight", (32, 16, 3, 3)), ("extractor.block1.bias", (32,)),
    ("extractor.block2.weight", (64, 32, 3, 3)), ("extractor.block2.bias", (64,)),
    ("processing.weight", (64, 64)), ("processing.bias", (64,)),
    ("prototypes", (8, 64)), ("head.theta", (8,)),
]


def test_named_parameters_order_and_shapes_at_default_config():
    m = CountModel(ModelConfig(), FeatureExtractor(np.random.default_rng(0)))
    assert [(n, p.shape) for n, p in m.named_parameters().items()] == _DEFAULT_PARAMETERS
    assert all(p.name == n for n, p in m.named_parameters().items())


def test_checkpoint_writes_exactly_its_files(tmp_path):
    m = CountModel(ModelConfig(), FeatureExtractor(np.random.default_rng(0)))
    save_checkpoint(m, str(tmp_path))
    assert {p.name for p in tmp_path.iterdir()} == (
        {f"{n}.pdt" for n, _ in _DEFAULT_PARAMETERS} | {"checkpoint.txt", "provenance.csv"})


@pytest.mark.parametrize("seed", [0, 7])
def test_init_draws_processing_then_prototypes_from_one_stream(extractor, seed):
    config = ModelConfig(k_cell=3, k_bg=2, d=6)
    m = CountModel(config, extractor, seed=seed)
    rng = np.random.default_rng([seed, 1])
    limit = 1.0 / np.sqrt(FEATURE_DIM)
    assert np.array_equal(m.processing_weight.data,
                          rng.uniform(-limit, limit, size=(6, FEATURE_DIM)))
    assert np.array_equal(m.prototypes.data, rng.uniform(0.0, 1.0, size=(5, 6)))
    assert np.array_equal(m.processing_bias.data, np.zeros(6))
    assert np.array_equal(m.theta.data, np.zeros(5))


def test_trainable_excludes_frozen_extractor(extractor):
    m = CountModel(ModelConfig(), extractor, seed=0)
    extractor.freeze()
    trainable = set(m.trainable_parameters())
    assert trainable == {"prototypes", "head.theta", "processing.weight",
                         "processing.bias"}


def test_zero_grad_clears(model):
    for p in model.named_parameters().values():
        p.grad = np.ones_like(p.data)
    model.zero_grad()
    assert all(p.grad is None for p in model.named_parameters().values())


# -- checkpoint I/O ------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, extractor):
    m = CountModel(ModelConfig(k_cell=2, k_bg=3), extractor, seed=4)
    m.theta.data[:] = np.arange(5.0)
    from protodensity.model import PrototypeProvenance
    m.provenance[0] = PrototypeProvenance(0, 7, 2, 3, 0.125)
    extractor.freeze()
    save_checkpoint(m, str(tmp_path / "ckpt"))
    back = load_checkpoint(str(tmp_path / "ckpt"))
    assert back.config == m.config
    for name, p in m.named_parameters().items():
        np.testing.assert_array_equal(back.named_parameters()[name].data, p.data)
    assert back.extractor.frozen
    assert back.extractor.checksum() == extractor.checksum()
    assert back.provenance[0] == m.provenance[0]
    assert back.provenance[1] is None


def test_checkpoint_rejects_corrupt_manifest(tmp_path, extractor):
    m = CountModel(ModelConfig(), extractor, seed=0)
    save_checkpoint(m, str(tmp_path / "ckpt"))
    manifest = tmp_path / "ckpt" / "checkpoint.txt"
    manifest.write_text(manifest.read_text().replace(
        "protodensity-checkpoint-v1", "other-format-v9"))
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(str(tmp_path / "ckpt"))


def test_checkpoint_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "absent"))


@pytest.mark.parametrize("row, fragment", [
    ("9,7,2,3,0.125", "prototype id 9"),     # id outside the 4 prototypes
    ("0,7,2", "3 cells"),                    # short row
    ("0,7,two,3,0.125", "'two'"),            # non-numeric cell
])
def test_checkpoint_rejects_bad_provenance_row(tmp_path, extractor, row, fragment):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(CountModel(ModelConfig(k_cell=2, k_bg=2), extractor, seed=0), str(ckpt))
    provenance = ckpt / "provenance.csv"
    with open(provenance, "a", newline="") as f:
        f.write(row + "\r\n")
    with pytest.raises(ValueError, match=fragment) as info:
        load_checkpoint(str(ckpt))
    assert str(provenance) in str(info.value)


@pytest.mark.parametrize("edit, fragment", [
    (lambda rows: [rows[0], rows[0], *rows[2:]], "row 2: prototype id 0 is listed twice"),
    (lambda rows: rows[:1] + rows[2:], "no row for prototype id 1"),
], ids=["repeated", "missing"])
def test_checkpoint_rejects_provenance_not_covering_each_id_once(tmp_path, extractor,
                                                                  edit, fragment):
    # prototype 0's row in place of prototype 1's loaded as prototype 1
    # without provenance
    from protodensity.model import PrototypeProvenance
    m = CountModel(ModelConfig(k_cell=2, k_bg=2), extractor, seed=0)
    m.provenance[0] = PrototypeProvenance(0, 7, 2, 3, 0.125)
    m.provenance[1] = PrototypeProvenance(1, 5, 1, 0, 0.5)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(m, str(ckpt))
    provenance = ckpt / "provenance.csv"
    header, *rows = provenance.read_text().splitlines(keepends=True)
    provenance.write_text(header + "".join(edit(rows)), newline="")
    with pytest.raises(ValueError, match=fragment) as info:
        load_checkpoint(str(ckpt))
    assert str(info.value).startswith(f"{provenance}: ")


def test_extractor_roundtrip(tmp_path):
    ext = FeatureExtractor(np.random.default_rng(3))
    ext.freeze()
    save_extractor(ext, str(tmp_path / "ext"))
    back = load_extractor(str(tmp_path / "ext"))
    assert back.frozen
    assert back.checksum() == ext.checksum()
    x = np.random.default_rng(4).uniform(size=(1, 1, 32, 32))
    with no_grad():
        np.testing.assert_array_equal(back.forward(Tensor(x)).data,
                                      ext.forward(Tensor(x)).data)
