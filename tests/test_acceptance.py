"""Acceptance gate: the ten shipping criteria, one test each.

Everything here runs on the default configuration (128x128 scenes, counts
5 to 80, 100 train / 50 test, K=4+4, d=64). The module fixtures pretrain
one extractor and run the full 3-variant x 3-seed ablation once; the whole
file takes roughly 10 to 15 minutes on one CPU core.
"""

import math
import time
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from protodensity import tensor as T
from protodensity.cli import run_gradcheck_suite
from protodensity.datagen import (DotAnnotation, SceneConfig, generate_dataset,
                                  load_dataset, make_density_map)
from protodensity.evaluate import constant_baseline_mae, mae, run_ablation, \
    sweep_k, sweep_tau
from protodensity.interp import (connected_components, explain_location,
                                 percentile_threshold)
from protodensity.losses import diversity_loss, proto_feature_loss
from protodensity.model import CountModel, ModelConfig, similarity_from_distance
from protodensity.tensor import Tensor
from protodensity.training import (TrainConfig, compute_features,
                                   pretrain_extractor, project_prototypes,
                                   train)

SEEDS = (0, 1, 2)


# -- expensive shared state ----------------------------------------------------


@pytest.fixture(scope="module")
def default_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_data")
    generate_dataset(SceneConfig(seed=0), 100, 50, str(out))
    return load_dataset(str(out))


@pytest.fixture(scope="module")
def extractor(default_dataset):
    frozen, history = pretrain_extractor(default_dataset, TrainConfig())
    assert history[-1] < history[0]
    return frozen


@pytest.fixture(scope="module")
def train_features(default_dataset, extractor):
    return compute_features(extractor, default_dataset.train)


@pytest.fixture(scope="module")
def test_features(default_dataset, extractor):
    return compute_features(extractor, default_dataset.test)


@pytest.fixture(scope="module")
def ablation(default_dataset, extractor, train_features, tmp_path_factory):
    """All nine default-config runs (3 variants x 3 seeds) plus wall time."""
    out = tmp_path_factory.mktemp("acceptance_ablation")
    start = time.perf_counter()
    reports = run_ablation(default_dataset, TrainConfig(), seeds=SEEDS,
                           extractor=extractor, out_dir=str(out),
                           feature_cache=train_features)
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def timed_full_run(default_dataset, extractor, train_features):
    """One fresh full-loss seed-0 training run, individually timed."""
    model = CountModel(ModelConfig(), extractor, seed=0)
    start = time.perf_counter()
    model, _ = train(model, default_dataset, TrainConfig(),
                     feature_cache=train_features)
    return model, time.perf_counter() - start


def by_variant(reports, variant):
    return {r.seed: r for r in reports if r.variant == variant}


# -- criteria ------------------------------------------------------------------


def test_criterion_01_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = run_gradcheck_suite(trials=20, seed=0)
    elapsed = time.perf_counter() - start
    assert set(worst) == {"density_loss", "proto_feature_loss",
                          "diversity_loss", "total_loss",
                          "count_through_model"}
    for name, err in worst.items():
        print(f"criterion 1: {name} max rel err {err:.3e}")
        assert err <= 1e-5, f"{name} gradient off by {err:.3e}"
    print(f"criterion 1: PASS ({elapsed:.1f} s for 20 instances per component)")
    assert elapsed < 60.0


def test_criterion_02_loss_value_oracles():
    # identical prototypes, two per group, tau 0.8: each group contributes
    # (1 - 0.8), halved to 0.2 total (exact up to one rounding of 1 - 0.8)
    identical = np.tile(np.arange(1.0, 7.0), (4, 1))
    value = float(diversity_loss(Tensor(identical), 2, 2, 0.8, 0.8).data)
    assert value == pytest.approx(0.2, abs=1e-15)

    orthogonal = np.eye(4)
    assert float(diversity_loss(Tensor(orthogonal), 2, 2, 0.8, 0.8).data) == 0.0

    # prototypes equal to the feature vectors at the selected locations
    rng = np.random.default_rng(2)
    features = rng.random((1, 6, 4, 4))
    gt = rng.random((1, 4, 4))
    flat = np.argmax(gt[0])
    hi = (int(flat // 4), int(flat % 4))
    flat = np.argmin(gt[0])
    lo = (int(flat // 4), int(flat % 4))
    protos = np.stack([features[0, :, hi[0], hi[1]],
                       features[0, :, lo[0], lo[1]]])
    distances = T.distance_map(Tensor(features), Tensor(protos))
    assert float(proto_feature_loss(distances, Tensor(gt), 1, 1).data) == 0.0

    sims = similarity_from_distance(Tensor(np.zeros((2, 3, 3))), 1e-4)
    assert np.all(np.abs(sims.data - math.log(1.0 / 1e-4)) <= 1e-12)
    print("criterion 2: PASS (0.2 / 0 / 0 / log(1/eps) oracles)")


def test_criterion_03_density_mass_conservation(default_dataset):
    rng = np.random.default_rng(3)
    h, w = 128, 128
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 81))
        points = [(float(rng.uniform(0, w)), float(rng.uniform(0, h)))
                  for _ in range(n)]
        density = make_density_map(DotAnnotation(points), (h, w))
        worst = max(worst, abs(float(density.sum()) - n))
    print(f"criterion 3: worst |mass - count| = {worst:.2e} over 1000 maps")
    assert worst <= 1e-7

    model = CountModel(ModelConfig(), None, seed=0)
    feats = Tensor(rng.random((3, 64, 16, 16)))
    out = model.forward_from_features(feats)
    assert np.array_equal(out.count, out.density.data.sum(axis=(-2, -1)))
    print("criterion 3: PASS (count equals density sum exactly)")


def test_criterion_04_diversity_direction(ablation):
    reports, elapsed = ablation
    full = by_variant(reports, "full")
    bare = by_variant(reports, "no_diversity")
    for seed in SEEDS:
        f, b = full[seed].distances, bare[seed].distances
        print(f"criterion 4: seed {seed} cell min {f.cell_min:.3f} vs "
              f"{b.cell_min:.3f}, bg min {f.bg_min:.3f} vs {b.bg_min:.3f}")
        assert f.cell_min > b.cell_min, f"cell group not spread at seed {seed}"
        assert f.bg_min > b.bg_min, f"bg group not spread at seed {seed}"
    print(f"criterion 4: PASS 3/3 seeds ({elapsed:.0f} s for all 9 runs)")
    assert elapsed < 1800.0


def test_criterion_05_prototypes_track_their_regions(ablation):
    reports, _ = ablation
    full = by_variant(reports, "full")
    off = by_variant(reports, "no_proto_feature")
    cell_rate = np.mean([full[s].cell_rate for s in SEEDS])
    bg_clear = np.mean([1.0 - full[s].bg_rate for s in SEEDS])
    bg_on_cells_full = np.mean([full[s].bg_rate for s in SEEDS])
    bg_on_cells_off = np.mean([off[s].bg_rate for s in SEEDS])
    print(f"criterion 5: cell rate {cell_rate:.2f}, bg-off-cell {bg_clear:.2f}, "
          f"bg-on-cell {bg_on_cells_full:.2f} -> {bg_on_cells_off:.2f} without "
          "the prototype-to-feature term")
    assert cell_rate >= 0.75
    assert bg_clear >= 0.75
    assert bg_on_cells_off > bg_on_cells_full
    print("criterion 5: PASS")


def test_criterion_06_counting_beats_half_the_baseline(default_dataset,
                                                       ablation,
                                                       timed_full_run,
                                                       test_features):
    baseline = constant_baseline_mae(default_dataset)
    bar = 0.5 * baseline
    reports, _ = ablation
    full = by_variant(reports, "full")
    for seed in SEEDS:
        print(f"criterion 6: seed {seed} MAE {full[seed].mae:.2f} "
              f"(bar {bar:.2f})")
        assert full[seed].mae < bar

    model, elapsed = timed_full_run
    report = mae(model, default_dataset.test, features=test_features)
    assert report.mae < bar
    print(f"criterion 6: PASS (timed run {elapsed:.0f} s, MAE {report.mae:.2f})")
    assert elapsed < 600.0


def test_criterion_07_projection_exact_and_idempotent(default_dataset,
                                                      extractor,
                                                      train_features):
    model = CountModel(ModelConfig(), extractor, seed=5)
    project_prototypes(model, default_dataset, train_features)

    with T.no_grad():
        processed = model.process_features(Tensor(train_features)).data
    vectors = np.ascontiguousarray(
        processed.transpose(0, 2, 3, 1)).reshape(-1, processed.shape[1])
    proto = model.prototypes.data
    worst = 0.0
    for i in range(proto.shape[0]):
        diff = vectors - proto[i]
        worst = max(worst, float(np.min(np.einsum("nd,nd->n", diff, diff))))
    print(f"criterion 7: worst post-projection squared distance {worst:.2e}")
    assert worst <= 1e-12

    before = proto.copy()
    project_prototypes(model, default_dataset, train_features)
    assert np.array_equal(model.prototypes.data, before)
    assert all(rec.distance_before == 0.0 for rec in model.provenance)
    print("criterion 7: PASS")


def test_criterion_08_interpretation_oracles(default_dataset, timed_full_run):
    rng = np.random.default_rng(8)
    for _ in range(1000):
        arr = rng.normal(size=(16, 16))
        if rng.random() < 0.3:
            arr = np.round(arr)  # force ties
        q = float(rng.uniform(0.01, 100.0))
        ordered = sorted(arr.reshape(-1).tolist())
        threshold = ordered[math.ceil(q * arr.size / 100.0) - 1]
        assert np.array_equal(percentile_threshold(arr, q), arr >= threshold)

    for _ in range(1000):
        mask = rng.random((16, 16)) < rng.uniform(0.15, 0.85)
        labels, n = connected_components(mask)
        oracle_labels, oracle_n = _flood_fill(mask)
        assert n == oracle_n and np.array_equal(labels, oracle_labels)
    print("criterion 8: 1000 percentile + 1000 component oracles matched")

    model, _ = timed_full_run
    samples = default_dataset.test
    worst = 0.0
    for _ in range(100):
        sample = samples[int(rng.integers(len(samples)))]
        h, w = int(rng.integers(16)), int(rng.integers(16))
        expl = explain_location(model, sample.image, h, w)
        total = sum(product for *_, product in expl.contributions)
        worst = max(worst, abs(total - expl.density))
    print(f"criterion 8: PASS (worst completeness gap {worst:.2e})")
    assert worst <= 1e-9


def _flood_fill(mask):
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    n = 0
    for i in range(h):
        for j in range(w):
            if not mask[i, j] or labels[i, j]:
                continue
            n += 1
            labels[i, j] = n
            queue = deque([(i, j)])
            while queue:
                ci, cj = queue.popleft()
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ni, nj = ci + di, cj + dj
                        if (0 <= ni < h and 0 <= nj < w and mask[ni, nj]
                                and not labels[ni, nj]):
                            labels[ni, nj] = n
                            queue.append((ni, nj))
    return labels, n


REFERENCE_CONFIG = dict(max_epochs=30, projection_interval=10,
                        calibration_epochs=5)


def test_criterion_09_bit_identical_reruns(default_dataset, extractor,
                                           train_features, tmp_path):
    outputs = []
    for tag in ("first", "second"):
        model = CountModel(ModelConfig(), extractor, seed=0)
        out = tmp_path / tag
        train(model, default_dataset, TrainConfig(**REFERENCE_CONFIG),
              out_dir=str(out), feature_cache=train_features)
        outputs.append(out)
    a, b = outputs
    for name in ("history.csv", "projections.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    files_a = sorted(p.name for p in (a / "checkpoint_final").iterdir())
    files_b = sorted(p.name for p in (b / "checkpoint_final").iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a / "checkpoint_final" / name).read_bytes() \
            == (b / "checkpoint_final" / name).read_bytes(), name
    print(f"criterion 9: PASS ({len(files_a)} checkpoint files plus both CSVs "
          "bit-identical)")


def test_criterion_10_sweeps_complete(default_dataset, extractor,
                                      train_features, tmp_path):
    import csv

    config = TrainConfig(**REFERENCE_CONFIG)
    k_rows = sweep_k(default_dataset, config, k_values=(2, 4, 6, 8),
                     seeds=(0,), extractor=extractor,
                     out_dir=str(tmp_path), feature_cache=train_features)
    assert [k for k, _, _ in k_rows] == [2, 4, 6, 8]
    assert all(np.isfinite(m) for _, _, m in k_rows)

    tau_rows = sweep_tau(default_dataset, config, tau_values=(0.0, 0.4, 0.8),
                         seeds=(0,), extractor=extractor,
                         out_dir=str(tmp_path), feature_cache=train_features,
                         gallery_k=1)
    assert [tau for tau, _, _ in tau_rows] == [0.0, 0.4, 0.8]
    assert all(np.isfinite(m) for _, _, m in tau_rows)

    with open(tmp_path / "sweep_k.csv", newline="") as f:
        parsed = list(csv.reader(f))
    assert parsed[0] == ["k", "seed", "mae"]
    assert [int(r[0]) for r in parsed[1:]] == [2, 4, 6, 8]
    assert all(float(r[2]) >= 0 for r in parsed[1:])

    with open(tmp_path / "sweep_tau.csv", newline="") as f:
        parsed = list(csv.reader(f))
    assert parsed[0] == ["tau", "seed", "mae"]
    assert [float(r[0]) for r in parsed[1:]] == [0.0, 0.4, 0.8]
    assert all(float(r[2]) >= 0 for r in parsed[1:])

    # the K=2 run put a single prototype in each group: the diversity term
    # is defined 0 there and the run must still complete
    assert k_rows[0][0] == 2
    print("criterion 10: PASS (sweep-k {2,4,6,8} and sweep-tau {0,0.4,0.8})")
