"""Optimizer, pretraining, projection, and main-loop tests.

Training runs here use the 32x32 session dataset and a shared frozen
extractor, so each full train() call costs a fraction of a second.
"""

import csv
import math
import types

import numpy as np
import pytest

from conftest import tiny_train_config
from protodensity import training
from protodensity.model import (CountModel, FeatureExtractor, ModelConfig,
                                load_checkpoint)
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
    proto = model.prototype_layer.prototypes.data
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


def test_adam_skips_non_trainable():
    p = Parameter(np.array([1.0]), name="w")
    p.freeze()
    adam_step({"w": p}, {"w": np.array([5.0])}, AdamState(), adam_config())
    assert np.array_equal(p.data, [1.0])


def test_adam_missing_grad_means_zero():
    p = Parameter(np.array([1.0]), name="w")
    adam_step({"w": p}, {}, AdamState(), adam_config())
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
    assert all(not p.trainable for p in extractor.parameters())
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
    proto = model.prototype_layer.prototypes.data
    for i in range(proto.shape[0]):
        assert any(np.array_equal(proto[i], v) for v in vectors)

    before = proto.copy()
    project_prototypes(model, tiny_dataset, tiny_features)
    assert np.array_equal(model.prototype_layer.prototypes.data, before)
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
    # with no features given it computes the same ones itself
    again = CountModel(SMALL_MODEL, tiny_extractor, seed=2)
    assert project_prototypes(again, tiny_dataset) == records


def test_projection_ties_resolve_to_first_sample(tiny_extractor):
    # two identical images: every candidate vector repeats in sample 1, so
    # the first-index tie rule must always cite sample 0
    samples = [types.SimpleNamespace(image=np.full((1, 32, 32), 0.5), sample_id=i)
               for i in range(2)]
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    project_prototypes(model, types.SimpleNamespace(train=samples))
    assert all(rec.image_id == 0 for rec in model.provenance)


def test_projection_rejects_empty():
    model_cfg = ModelConfig(k_cell=1, k_bg=1, d=4)
    extractor, _ = pretrain_extractor_stub()
    model = CountModel(model_cfg, extractor, seed=0)
    with pytest.raises(ValueError, match="empty"):
        project_prototypes(model, types.SimpleNamespace(train=[]))


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
    assert np.array_equal(a.prototype_layer.prototypes.data,
                          b.prototype_layer.prototypes.data)
    for pa, pb in zip(a.processing.parameters(), b.processing.parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert not np.array_equal(a.head.theta.data, b.head.theta.data)


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
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    seen = watch_calibration(monkeypatch, model)
    train(model, tiny_dataset, tiny_train_config(), feature_cache=tiny_features)
    assert seen and all(s == ({"head.theta"}, {"head.theta"}) for s in seen)
    assert model.processing.weight.grad is None
    assert model.prototype_layer.prototypes.grad is None
    assert all(p.requires_grad for p in model.trainable_parameters().values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_calibration_restores_requires_grad(tiny_dataset, tiny_extractor,
                                                     tiny_features, monkeypatch):
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)

    def blow_up_theta():
        model.head.theta.data = np.full_like(model.head.theta.data, np.inf)

    watch_calibration(monkeypatch, model, on_step=blow_up_theta)
    with pytest.raises(TrainingDiverged, match="calibration epoch 2"):
        train(model, tiny_dataset, tiny_train_config(), feature_cache=tiny_features)
    assert all(p.requires_grad for p in model.trainable_parameters().values())
    assert not any(p.requires_grad for p in model.extractor.parameters())


def test_calibration_forwards_the_split_once(tiny_dataset, tiny_extractor,
                                            tiny_features, monkeypatch):
    # after the final projection only theta moves: the split's maps are
    # computed once, batch_size at a time, and no calibration step or
    # validation pass runs the processing layer again. Five epochs with
    # projection every three put the final projection after the main loop.
    model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
    config = tiny_train_config(batch_size=3, max_epochs=5)
    events = []
    for name in ("forward_from_features", "process_features"):
        def counted(*args, _name=name, _real=getattr(model, name)):
            events.append(_name)
            return _real(*args)
        monkeypatch.setattr(model, name, counted)
    real_project = training.project_prototypes

    def project(*args):
        records = real_project(*args)
        events.append("project")
        return records

    def step(params, grads, state, cfg):
        adam_step(params, grads, state, cfg)
        if set(params) == {"head.theta"}:
            events.append("calibration step")

    monkeypatch.setattr(training, "project_prototypes", project)
    monkeypatch.setattr(training, "adam_step", step)
    _, history = train(model, tiny_dataset, config, feature_cache=tiny_features)

    n = len(tiny_dataset.train)
    batches = math.ceil(n / config.batch_size)
    after = events[len(events) - events[::-1].index("project"):]
    first_step = after.index("calibration step")
    assert 0 < after[:first_step].count("forward_from_features") <= batches
    assert after[:first_step].count("process_features") <= batches
    assert set(after[first_step:]) == {"calibration step"}

    order = np.random.default_rng([config.seed, 2]).permutation(n)
    val_idx = order[:int(round(config.val_fraction * n))]
    counts = np.array([len(tiny_dataset.train[i].annotation) for i in val_idx], dtype=float)
    pred, _ = model.predict(None, tiny_features[val_idx], batch=config.batch_size)
    assert history.calibration_val_mae[-1] == float(np.abs(pred - counts).mean())


def test_calibration_on_cached_maps_equals_full_forward(tiny_dataset, tiny_extractor,
                                                        tiny_features, monkeypatch):
    # reference: every calibration step and validation pass runs the whole
    # forward from the extractor features, as the main loop does
    def full_forward(model, features, batch):
        def forward(idx):
            out = model.forward_from_features(Tensor(features[idx]))
            return out.density, out.distances
        return forward

    runs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(training, "_fixed_maps_forward", full_forward)
        model = CountModel(SMALL_MODEL, tiny_extractor, seed=0)
        config = tiny_train_config(batch_size=3, calibration_epochs=3)
        _, history = train(model, tiny_dataset, config, feature_cache=tiny_features)
        runs.append((history, model.head.theta.data))
    (cached, theta), (full, theta_full) = runs
    assert cached.calibration_reports == full.calibration_reports
    assert cached.calibration_val_mae == full.calibration_val_mae
    assert np.array_equal(theta, theta_full)


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
    direct = compute_features(tiny_extractor, tiny_dataset.train, batch_size=3)
    assert np.array_equal(direct, tiny_features)
