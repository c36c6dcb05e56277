"""Optimizer, pretraining, projection, and main-loop tests.

Training runs here use the 32x32 session dataset and a shared frozen
extractor, so each full train() call costs a fraction of a second.
"""

import csv
import math
import tracemalloc
import types

import numpy as np
import pytest

from conftest import tiny_train_config
from protodensity import tensor as T
from protodensity import training
from protodensity.model import (FEATURE_DIM, CountModel, FeatureExtractor,
                                ModelConfig, load_checkpoint)
from protodensity.tensor import Parameter, Tensor
from protodensity.training import (HISTORY_CSV_HEADER, PROJECTION_CSV_HEADER,
                                   AdamState, TrainConfig, TrainingDiverged,
                                   adam_step, compute_features,
                                   pretrain_extractor, project_prototypes,
                                   train)

SMALL_MODEL = ModelConfig(k_cell=2, k_bg=2, d=16)


def adam_config(**overrides) -> TrainConfig:
    base = dict(learning_rate=0.1, weight_decay=0.0)
    base.update(overrides)
    return tiny_train_config(**base)


def processed_vectors(model, features):
    from protodensity import tensor as T
    from protodensity.tensor import Tensor
    with T.no_grad():
        processed = model.process_features(Tensor(features)).data
    n, d, hf, wf = processed.shape
    return np.ascontiguousarray(processed.transpose(0, 2, 3, 1)).reshape(-1, d)


def min_projection_gap(model, features) -> float:
    """Largest over prototypes of the smallest squared distance to any
    processed training vector; zero iff the model is exactly projected."""
    vectors = processed_vectors(model, features)
    proto = model.prototypes.data
    worst = 0.0
    for i in range(proto.shape[0]):
        diff = vectors - proto[i]
        worst = max(worst, float(np.min(np.einsum("nd,nd->n", diff, diff))))
    return worst


# -- Adam ---------------------------------------------------------------------


def test_adam_first_step_is_lr_sized():
    # bias correction makes the very first step lr * g/|g| up to epsilon
    p = Parameter(np.zeros(3), name="w")
    config = adam_config()
    adam_step({"w": p}, {"w": np.array([1.0, -1.0, 4.0])}, AdamState(), config)
    assert np.allclose(p.data, [-0.1, 0.1, -0.1], rtol=1e-6)


def test_adam_zero_grad_no_decay_is_noop():
    p = Parameter(np.array([2.0, -3.0]), name="w")
    adam_step({"w": p}, {"w": np.zeros(2)}, AdamState(), adam_config())
    assert np.array_equal(p.data, [2.0, -3.0])


def test_adam_decay_applies_without_gradient():
    p = Parameter(np.array([2.0]), name="w")
    config = adam_config(weight_decay=0.5)
    adam_step({"w": p}, {"w": np.zeros(1)}, AdamState(), config)
    # decoupled decay: w - lr * wd * w
    assert np.allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])


def test_adam_decay_skips_prototypes():
    proto = Parameter(np.array([2.0]), name="prototypes")
    theta = Parameter(np.array([2.0]), name="head.theta")
    config = adam_config(weight_decay=0.5)
    adam_step({"prototypes": proto, "head.theta": theta},
              {"prototypes": np.zeros(1), "head.theta": np.zeros(1)},
              AdamState(), config)
    assert np.array_equal(proto.data, [2.0])
    assert np.allclose(theta.data, [1.9])


def test_adam_missing_grad_raises():
    # no silent decay-only step for a parameter the loss did not reach
    p = Parameter(np.array([1.0]), name="w")
    with pytest.raises(KeyError):
        adam_step({"w": p}, {}, AdamState(), adam_config(weight_decay=0.1))
    with pytest.raises(TypeError):
        adam_step({"w": p}, {"w": None}, AdamState(), adam_config(weight_decay=0.1))
    assert np.array_equal(p.data, [1.0])


def test_adam_descends_a_quadratic():
    p = Parameter(np.array([3.0]), name="w")
    state = AdamState()
    config = adam_config()
    values = [float(p.data[0]) ** 2]
    for _ in range(10):
        adam_step({"w": p}, {"w": 2.0 * p.data}, state, config)
        values.append(float(p.data[0]) ** 2)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert state.t == 10
    assert set(state.m) == {"w"} and set(state.v) == {"w"}


# -- pretraining --------------------------------------------------------------


def test_pretrain_freezes_and_mse_decreases(tiny_dataset):
    extractor, history = pretrain_extractor(tiny_dataset, tiny_train_config())
    assert extractor.frozen
    assert not any(p.requires_grad for p in extractor.parameters())
    assert len(history) == 10
    assert history[-1] < history[0]
    assert all(np.isfinite(history))


def test_pretrain_is_deterministic(tiny_dataset):
    config = tiny_train_config(pretrain_epochs=2)
    first, hist_a = pretrain_extractor(tiny_dataset, config)
    second, hist_b = pretrain_extractor(tiny_dataset, config)
    assert hist_a == hist_b
    for pa, pb in zip(first.parameters(), second.parameters()):
        assert np.array_equal(pa.data, pb.data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_diverges_at_absurd_lr(tiny_dataset):
    config = tiny_train_config(pretrain_learning_rate=1e200, pretrain_epochs=5)
    with pytest.raises(TrainingDiverged):
        pretrain_extractor(tiny_dataset, config)


def test_pretrain_ignores_main_loop_settings(tiny_dataset):
    # the main-loop step size is tuned for the prototype stack, not for
    # training convolutions from scratch; pretraining must not read it
    base = tiny_train_config(pretrain_epochs=2)
    hot = tiny_train_config(pretrain_epochs=2, learning_rate=1e6, batch_size=3)
    ext_a, hist_a = pretrain_extractor(tiny_dataset, base)
    ext_b, hist_b = pretrain_extractor(tiny_dataset, hot)
    assert ext_a.checksum() == ext_b.checksum()
    assert hist_a == hist_b


def test_pretrain_rejects_bad_settings(tiny_dataset):
    with pytest.raises(ValueError, match="pretrain_learning_rate"):
        pretrain_extractor(tiny_dataset, tiny_train_config(pretrain_learning_rate=0.0))
    with pytest.raises(ValueError, match="pretrain_batch_size"):
        pretrain_extractor(tiny_dataset, tiny_train_config(pretrain_batch_size=0))


def test_pretrain_peak_memory_does_not_grow_with_the_split():
    # each batch is gathered from the samples, so no split-sized image stack
    # exists: 48 more 64x64 images would add 1.5 MB to a stacked split
    def pretrain_peak(n):
        rng = np.random.default_rng(n)
        samples = [types.SimpleNamespace(image=rng.uniform(size=(1, 64, 64)),
                                         density_gt=rng.uniform(size=(8, 8)))
                   for _ in range(n)]
        config = tiny_train_config(pretrain_epochs=1, pretrain_batch_size=8)
        tracemalloc.start()
        try:
            pretrain_extractor(types.SimpleNamespace(train=samples), config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = pretrain_peak(16), pretrain_peak(64)
    assert large <= small + 2 ** 16, f"peak {small} B at 16 samples, {large} B at 64"


def test_pretrain_rejects_empty_split():
    with pytest.raises(ValueError, match="empty"):
        pretrain_extractor(types.SimpleNamespace(train=[]), tiny_train_config())


# -- projection ---------------------------------------------------------------


def test_projection_is_exact_and_idempotent(tiny_dataset, tiny_extractor,
                                            tiny_features):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    assert min_projection_gap(model, tiny_features) > 1e-3  # random init is off-manifold
    project_prototypes(model, tiny_dataset, tiny_features)
    assert min_projection_gap(model, tiny_features) <= 1e-12

    vectors = processed_vectors(model, tiny_features)
    proto = model.prototypes.data
    for i in range(proto.shape[0]):
        assert any(np.array_equal(proto[i], v) for v in vectors)

    before = proto.copy()
    project_prototypes(model, tiny_dataset, tiny_features)
    assert np.array_equal(model.prototypes.data, before)
    assert all(rec.distance_before == 0.0 for rec in model.provenance)


def test_projection_records_provenance(tiny_dataset, tiny_extractor,
                                       tiny_features):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=1)
    project_prototypes(model, tiny_dataset, tiny_features)
    ids = {s.sample_id for s in tiny_dataset.train}
    hf, wf = tiny_features.shape[-2:]
    for i, rec in enumerate(model.provenance):
        assert rec.prototype_id == i
        assert rec.image_id in ids
        assert 0 <= rec.h < hf and 0 <= rec.w < wf
        assert rec.distance_before > 0.0


def test_projection_returns_the_records_it_stores(tiny_dataset, tiny_extractor,
                                                  tiny_features):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=2)
    records = project_prototypes(model, tiny_dataset, tiny_features)
    assert len(records) == SMALL_MODEL.k_total
    assert all(rec is stored for rec, stored in zip(records, model.provenance))
    # the same model and features give the same records
    again = CountModel(SMALL_MODEL, tiny_extractor, seed=2)
    assert project_prototypes(again, tiny_dataset, tiny_features) == records


def whole_split_projection(model, features):
    """The projection as one search over every processed vector of the split
    at once: (records as tuples, projected prototypes), model untouched."""
    vectors = processed_vectors(model, features)
    hf, wf = features.shape[-2:]
    proto = model.prototypes.data.copy()
    records = []
    for i in range(proto.shape[0]):
        diff = vectors - proto[i]
        dist = np.einsum("nd,nd->n", diff, diff)
        j = int(np.argmin(dist))
        sid, rem = divmod(j, hf * wf)
        records.append((i, sid, *divmod(rem, wf), float(dist[j])))
        proto[i] = vectors[j]
    return records, proto


def random_split(n, seed):
    rng = np.random.default_rng(seed)
    samples = [types.SimpleNamespace(sample_id=i) for i in range(n)]
    return types.SimpleNamespace(train=samples), rng.normal(size=(n, FEATURE_DIM, 4, 4))


def identical_images(extractor, n=2):
    samples = [types.SimpleNamespace(image=np.full((1, 32, 32), 0.5), sample_id=i)
               for i in range(n)]
    return types.SimpleNamespace(train=samples), compute_features(extractor, samples)


@pytest.mark.parametrize("case", ["tiny", "ties", "cross-batch-ties", "ragged"])
def test_projection_equals_whole_split_search(case, tiny_dataset, tiny_extractor,
                                              tiny_features):
    # the split is processed in batches of 16 and searched 4 samples at a
    # time; the ragged case (37 samples) ends both loops on a partial batch.
    # In the cross-batch case, 20 identical samples, every nearest vector
    # repeats in the second batch, which must not win the tie
    dataset, features = {"tiny": lambda: (tiny_dataset, tiny_features),
                         "ties": lambda: identical_images(tiny_extractor),
                         "cross-batch-ties": lambda: identical_images(tiny_extractor, 20),
                         "ragged": lambda: random_split(37, 4)}[case]()
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=3)
    expected, expected_proto = whole_split_projection(model, features)
    records = project_prototypes(model, dataset, features)
    ids = [s.sample_id for s in dataset.train]
    assert len(records) == len(expected)
    for rec, (i, sid, h, w, dist) in zip(records, expected):
        assert (rec.prototype_id, rec.image_id, rec.h, rec.w) == (i, ids[sid], h, w)
        assert rec.distance_before == dist
    assert np.array_equal(model.prototypes.data, expected_proto)
    if "ties" in case:
        assert all(rec.image_id == 0 for rec in records)


def test_projection_peak_memory(tiny_extractor):
    # a default-scale split, 100 samples of 64 x 16 x 16 features (12.5 MiB),
    # processed 16 samples at a time: one batch is 2 MiB, and its conv1x1
    # operand copy and output, then that output and the sigmoid output,
    # peak at 2 x 2 MiB; the previous batch is freed by then. The search
    # adds 4 samples' vectors and differences (2 x 0.5 MiB) and the batch's
    # distance rows (0.25 MiB) beside the processed batch. So the peak
    # stays below 8 MiB; one split-sized buffer alone would exceed it
    model = CountModel(ModelConfig(), tiny_extractor, seed=0)
    dataset, _ = random_split(100, 0)
    features = np.random.default_rng(1).normal(size=(100, FEATURE_DIM, 16, 16))
    tracemalloc.start()
    try:
        project_prototypes(model, dataset, features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB >= 8 MiB"


@pytest.mark.parametrize("rows", [7, 9])
def test_projection_rejects_features_of_another_split(rows, tiny_dataset,
                                                      tiny_extractor, tiny_features):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    features = np.resize(tiny_features, (rows, *tiny_features.shape[1:]))
    with pytest.raises(ValueError, match=f"{rows} maps for 8 samples"):
        project_prototypes(model, tiny_dataset, features)


def test_projection_ties_resolve_to_first_sample(tiny_extractor):
    # two identical images: every candidate vector repeats in sample 1, so
    # the first-index tie rule must always cite sample 0
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    project_prototypes(model, *identical_images(tiny_extractor))
    assert all(rec.image_id == 0 for rec in model.provenance)


def test_projection_rejects_empty():
    model_cfg = ModelConfig(k_cell=1, k_bg=1, d=4)
    extractor, _ = pretrain_extractor_stub()
    model = CountModel(model_cfg, extractor, seed=0)
    with pytest.raises(ValueError, match="empty"):
        project_prototypes(model, types.SimpleNamespace(train=[]),
                           np.empty((0, FEATURE_DIM, 1, 1)))


def pretrain_extractor_stub():
    extractor = FeatureExtractor(np.random.default_rng(0))
    extractor.freeze()
    return extractor, None


# -- main loop ----------------------------------------------------------------


def test_train_requires_frozen_extractor(tiny_dataset):
    extractor = FeatureExtractor(np.random.default_rng(0))
    model = CountModel(SMALL_MODEL, extractor, seed=0)
    with pytest.raises(ValueError, match="frozen"):
        train(model, tiny_dataset, tiny_train_config())


def test_train_rejects_mismatched_feature_cache(tiny_dataset, tiny_extractor,
                                                tiny_features):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    with pytest.raises(ValueError, match="feature cache"):
        train(model, tiny_dataset, tiny_train_config(),
              feature_cache=tiny_features[:3])


def test_train_loop_artifacts(tiny_dataset, tiny_extractor, tiny_features,
                              tmp_path):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    config = tiny_train_config()
    checksum = tiny_extractor.checksum()
    out = tmp_path / "run"
    model, history = train(model, tiny_dataset, config, out_dir=str(out),
                           feature_cache=tiny_features)

    assert history.epochs == 6
    assert len(history.val_mae) == 6
    assert [e.epoch for e in history.projections] == [3, 6]
    assert len(history.calibration_reports) == 2
    assert len(history.calibration_val_mae) == 2
    assert tiny_extractor.checksum() == checksum
    assert all(rec is not None for rec in model.provenance)

    # shipped model stays exactly projected: calibration only moves theta
    assert min_projection_gap(model, tiny_features) <= 1e-12

    with open(out / "history.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == HISTORY_CSV_HEADER
    assert [r[0] for r in rows[1:]] == ["train"] * 6 + ["calibrate"] * 2
    assert [int(r[1]) for r in rows[1:7]] == [1, 2, 3, 4, 5, 6]
    for row, rep, mae in zip(rows[1:7], history.reports, history.val_mae):
        assert float(row[2]) == rep.density
        assert float(row[5]) == rep.total
        assert float(row[6]) == mae

    with open(out / "projections.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == PROJECTION_CSV_HEADER
    assert len(rows) == 1 + 2 * SMALL_MODEL.k_total
    assert {r[0] for r in rows[1:]} == {"3", "6"}

    assert (out / "checkpoint_epoch0003").is_dir()
    assert (out / "checkpoint_epoch0006").is_dir()
    loaded = load_checkpoint(str(out / "checkpoint_final"))
    x = Tensor(tiny_dataset.test[0].image[None])
    assert np.array_equal(loaded.forward(x).density.data,
                          model.forward(x).density.data)


def test_train_projects_on_final_partial_epoch(tiny_dataset, tiny_extractor,
                                               tiny_features):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    config = tiny_train_config(max_epochs=5, projection_interval=3)
    _, history = train(model, tiny_dataset, config, feature_cache=tiny_features)
    assert [e.epoch for e in history.projections] == [3, 5]


def test_train_is_reproducible(tiny_dataset, tiny_extractor, tiny_features,
                               tmp_path):
    outputs = []
    for tag in ("a", "b"):
        model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
        out = tmp_path / tag
        train(model, tiny_dataset, tiny_train_config(), out_dir=str(out),
              feature_cache=tiny_features)
        outputs.append(out)
    names = ["history.csv", "projections.csv",
             "checkpoint_final/prototypes.pdt", "checkpoint_final/head.theta.pdt",
             "checkpoint_final/provenance.csv"]
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


def test_train_calibration_moves_only_theta(tiny_dataset, tiny_extractor,
                                            tiny_features):
    trained = {}
    for epochs in (0, 2):
        model = CountModel(SMALL_MODEL, tiny_extractor, seed=3)
        config = tiny_train_config(calibration_epochs=epochs)
        train(model, tiny_dataset, config, feature_cache=tiny_features)
        trained[epochs] = model
    a, b = trained[0], trained[2]
    assert np.array_equal(a.prototypes.data, b.prototypes.data)
    for pa, pb in ((a.processing_weight, b.processing_weight),
                   (a.processing_bias, b.processing_bias)):
        assert np.array_equal(pa.data, pb.data)
    assert not np.array_equal(a.theta.data, b.theta.data)


def watch_calibration(monkeypatch, model, on_step=None) -> list:
    """Patch ``adam_step`` to record, at each calibration step (only theta
    updated), which model parameters hold a gradient and which record one;
    ``on_step`` then runs after the real step."""
    seen = []

    def watched(params, grads, state, config):
        adam_step(params, grads, state, config)
        if set(params) == {"head.theta"}:
            named = model.named_parameters()
            seen.append(({n for n, p in named.items() if p.grad is not None},
                         {n for n, p in named.items() if p.requires_grad}))
            if on_step:
                on_step()

    monkeypatch.setattr(training, "adam_step", watched)
    return seen


def test_calibration_backpropagates_to_theta_only(tiny_dataset, tiny_extractor,
                                                  tiny_features, monkeypatch):
    # the maps and prototypes calibration reads are constants, so the tape
    # reaches theta alone while every trainable parameter keeps its flag
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    trainable = set(model.trainable_parameters())
    seen = watch_calibration(monkeypatch, model)
    train(model, tiny_dataset, tiny_train_config(), feature_cache=tiny_features)
    assert seen and all(s == ({"head.theta"}, trainable) for s in seen)
    assert model.processing_weight.grad is None
    assert model.prototypes.grad is None
    assert all(p.requires_grad for p in model.trainable_parameters().values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_calibration_restores_requires_grad(tiny_dataset, tiny_extractor,
                                                     tiny_features, monkeypatch):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)

    def blow_up_theta():
        model.theta.data = np.full_like(model.theta.data, np.inf)

    watch_calibration(monkeypatch, model, on_step=blow_up_theta)
    with pytest.raises(TrainingDiverged, match="calibration epoch 2"):
        train(model, tiny_dataset, tiny_train_config(), feature_cache=tiny_features)
    assert all(p.requires_grad for p in model.trainable_parameters().values())
    assert not any(p.requires_grad for p in model.extractor.parameters())


def test_calibration_forwards_the_split_once(tiny_dataset, tiny_extractor,
                                            tiny_features, monkeypatch):
    # after the final projection only theta moves: the split's maps are
    # built once, after the main loop and its final projection, from the
    # feature cache 16 samples at a time, so no calibration step or
    # calibration validation pass runs the processing layer again. With
    # projection every three epochs, five epochs put the final projection
    # after the main loop and six put it in the loop's last epoch.
    events = []
    real_project = training.project_prototypes
    real_cache = training._fixed_maps_forward

    def project(*args):
        result = real_project(*args)
        events.append("project")
        return result

    def cache(*args):
        events.append("cache")
        return real_cache(*args)

    def step(params, grads, state, cfg):
        adam_step(params, grads, state, cfg)
        if set(params) == {"head.theta"}:
            events.append("calibration step")

    monkeypatch.setattr(training, "project_prototypes", project)
    monkeypatch.setattr(training, "_fixed_maps_forward", cache)
    monkeypatch.setattr(training, "adam_step", step)
    n = len(tiny_dataset.train)
    for max_epochs in (5, 6):
        events.clear()
        model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
        config = tiny_train_config(batch_size=3, max_epochs=max_epochs)
        for name in ("forward_from_features", "process_features"):
            def counted(*args, _name=name, _real=getattr(model, name)):
                events.append(_name)
                return _real(*args)
            monkeypatch.setattr(model, name, counted)
        _, history = train(model, tiny_dataset, config, feature_cache=tiny_features)

        n_val = int(round(config.val_fraction * n))
        assert [p.epoch for p in history.projections] == [3, max_epochs]
        # a projection in the loop's last epoch is followed by that epoch's
        # validation pass, on the full forward, before the maps are built
        val_pass = (["forward_from_features", "process_features"]
                    * math.ceil(n_val / config.batch_size) if max_epochs == 6 else [])
        maps = ["cache"] + ["process_features"] * math.ceil(n / 16)
        steps = config.calibration_epochs * math.ceil((n - n_val) / config.batch_size)
        after = events[len(events) - events[::-1].index("project"):]
        assert after == val_pass + maps + ["calibration step"] * steps
        assert events.count("cache") == 1

        order = np.random.default_rng([config.seed, 2]).permutation(n)
        val_idx = order[:n_val]
        counts = np.array([len(tiny_dataset.train[i].annotation) for i in val_idx],
                          dtype=float)
        pred, _ = model.predict(None, tiny_features[val_idx])
        assert history.calibration_val_mae[-1] == float(np.abs(pred - counts).mean())


def test_train_peak_memory(tiny_extractor):
    # a default-scale split, 100 samples of 64 x 16 x 16 features, at batch
    # 32: one (32, 64, 16, 16) activation is 4 MiB. A main-loop step hands
    # conv1x1 the feature cache and the batch's rows, and its tape keeps the
    # cache itself, so no step gathers a batch. A step then holds at most two
    # such activations at once: conv1x1's output while sigmoid writes its
    # own; sigmoid's output beside its gradient; then that gradient beside
    # the rows conv1x1's backward stacks for its weight-gradient GEMM. On top
    # come the distance maps and their gradient (2 x 0.5 MiB) and
    # sample-sized buffers: 9.7 MiB. A projection runs 16 samples at a time
    # and stays below 8 MiB (test_projection_peak_memory); the calibration
    # maps are built the same way and keep the split's distance and
    # similarity maps (2 x 1.6 MiB), 7.2 MiB at their build's peak. So the
    # peak stays below 11 MiB. Each of these exceeds it: a step that gathers
    # its batch and keeps it on the tape until the backward (13.7 MiB);
    # gathering with np.take on the transposed cache, which first copies the
    # whole 12.5 MiB cache to C order (17.4 MiB); batch-sized sigmoid
    # temporaries (17.5 MiB); and a projection that processes the whole
    # split at once (25.7 MiB).
    rng = np.random.default_rng(0)
    samples = [types.SimpleNamespace(sample_id=i, density_gt=rng.uniform(size=(16, 16)) / 256,
                                     annotation=[None] * int(rng.integers(0, 20)))
               for i in range(100)]
    features = rng.normal(size=(100, FEATURE_DIM, 16, 16))
    model = CountModel(ModelConfig(), tiny_extractor, seed=0)
    config = TrainConfig(batch_size=32, max_epochs=2, projection_interval=2,
                         calibration_epochs=2)
    tracemalloc.start()
    try:
        _, history = train(model, types.SimpleNamespace(train=samples), config,
                           feature_cache=features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.epoch for p in history.projections] == [2]
    assert len(history.calibration_reports) == 2
    assert peak < 11 * 2**20, f"peak {peak / 2**20:.2f} MiB >= 11 MiB"


def test_calibration_on_cached_maps_equals_full_forward(tiny_dataset, tiny_extractor,
                                                        tiny_features, monkeypatch):
    # reference: every calibration step and validation pass runs the whole
    # forward from the extractor features, as the main loop does, and not
    # from the maps built once after the final projection
    def full_forward(model, features):
        def forward(idx):
            out = model.forward_from_features(Tensor(features[idx]))
            return out.density, out.distances, model.prototypes
        return forward

    runs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(training, "_fixed_maps_forward", full_forward)
        model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
        config = tiny_train_config(batch_size=3, calibration_epochs=3)
        _, history = train(model, tiny_dataset, config, feature_cache=tiny_features)
        runs.append((history, model.theta.data))
    (cached, theta), (full, theta_full) = runs
    assert cached.calibration_reports == full.calibration_reports
    assert cached.calibration_val_mae == full.calibration_val_mae
    assert np.array_equal(theta, theta_full)


@pytest.mark.parametrize("n, side", [(37, 4), (20, 16)])
def test_calibration_maps_equal_one_whole_split_pass(n, side, tiny_extractor):
    # the maps are built 16 samples at a time, and distance_map sums in
    # channel order on both of its paths, so they equal one forward over the
    # whole split bit for bit: at 37 samples of 4 x 4 a 16-sample batch
    # takes the one-pass reduce and the whole split the channel loop; at
    # 16 x 16 both take the loop
    model = CountModel(ModelConfig(), tiny_extractor, seed=0)
    features = np.random.default_rng(n).normal(size=(n, FEATURE_DIM, side, side))
    density, dists, _ = training._fixed_maps_forward(model, features)(np.arange(n))
    with T.no_grad():
        whole = model.forward_from_features(Tensor(features))
    assert np.array_equal(dists.data.view(np.int64), whole.distances.data.view(np.int64))
    assert np.array_equal(density.data.view(np.int64), whole.density.data.view(np.int64))


def test_train_early_stops_on_stale_validation(tiny_dataset, tiny_extractor,
                                               tiny_features):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    config = tiny_train_config(max_epochs=30, min_delta=1e9,
                               convergence_patience=2)
    _, history = train(model, tiny_dataset, config, feature_cache=tiny_features)
    # epoch 1 beats the infinite sentinel, then two stale epochs trip patience
    assert history.epochs == 3


def test_train_without_validation_split(tiny_dataset, tiny_extractor,
                                        tiny_features):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    config = tiny_train_config(val_fraction=0.0, max_epochs=2)
    _, history = train(model, tiny_dataset, config, feature_cache=tiny_features)
    assert len(history.val_mae) == 2
    assert all(np.isfinite(history.val_mae))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverges_and_rolls_back(tiny_dataset, tiny_extractor,
                                       tiny_features):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    config = tiny_train_config(learning_rate=1e200)
    with pytest.raises(TrainingDiverged):
        train(model, tiny_dataset, config, feature_cache=tiny_features)
    for p in model.trainable_parameters().values():
        assert np.all(np.isfinite(p.data))


def test_train_rejects_empty_split(tiny_extractor):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    dataset = types.SimpleNamespace(train=[], test=[])
    with pytest.raises(ValueError, match="empty"):
        train(model, dataset, tiny_train_config())


def test_compute_features_shapes(tiny_dataset, tiny_extractor, tiny_features):
    assert tiny_features.shape == (8, 64, 4, 4)
    # one image at a time gives the bits of one stacked forward of the split
    with T.no_grad():
        stacked = tiny_extractor.forward(
            Tensor(np.stack([s.image for s in tiny_dataset.train]))).data
    assert np.array_equal(tiny_features, stacked)
