"""Shared fixtures: one small synthetic dataset and a frozen extractor,
built once per session so every test file can train against them cheaply."""

import numpy as np
import pytest
from hypothesis import settings

from protodensity.datagen import SceneConfig, generate_dataset, load_dataset
from protodensity.training import TrainConfig, compute_features, pretrain_extractor

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


TINY_SCENE = SceneConfig(image_size=(32, 32), cell_count_range=(3, 12), seed=0)


def tiny_train_config(**overrides) -> TrainConfig:
    base = dict(learning_rate=1e-3, batch_size=8, max_epochs=6,
                projection_interval=3, convergence_patience=50,
                calibration_epochs=2, pretrain_epochs=10, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_data")
    generate_dataset(TINY_SCENE, 8, 4, str(out))
    return load_dataset(str(out))


@pytest.fixture(scope="session")
def tiny_extractor(tiny_dataset):
    extractor, history = pretrain_extractor(tiny_dataset, tiny_train_config())
    assert extractor.frozen
    return extractor


@pytest.fixture(scope="session")
def tiny_features(tiny_dataset, tiny_extractor):
    return compute_features(tiny_extractor, tiny_dataset.train)


@pytest.fixture
def trained_configs(monkeypatch):
    """The ModelConfig of every model the harnesses in evaluate.py train, in
    order."""
    import protodensity.evaluate as evaluate

    configs = []
    real_train = evaluate.train

    def recording_train(model, *args, **kwargs):
        configs.append(model.config)
        return real_train(model, *args, **kwargs)

    monkeypatch.setattr(evaluate, "train", recording_train)
    return configs


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
