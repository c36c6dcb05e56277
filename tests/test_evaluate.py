"""Metric and harness tests.

Harness runs here use a 2-epoch config on the 32x32 session dataset, so the
ablation and sweep tests each finish in well under a second.
"""

import csv
import types
from dataclasses import replace

import numpy as np
import pytest

from conftest import tiny_train_config
from protodensity.evaluate import (ABLATION_CSV_HEADER, EVAL_CSV_HEADER,
                                   SWEEP_K_CSV_HEADER, SWEEP_TAU_CSV_HEADER,
                                   VARIANTS, AblationReport,
                                   constant_baseline_mae,
                                   constant_predictor_mae,
                                   format_distance_table, localization_rates,
                                   mae, plan_grid, run_ablation, sweep_k,
                                   sweep_tau, variant_loss_config,
                                   write_eval_csv)
from protodensity.interp import GroupDistanceStats
from protodensity.losses import LossConfig
from protodensity.model import (CountModel, FeatureExtractor, ModelConfig,
                                ModelOutputs, count)

SMALL_MODEL = ModelConfig(k_cell=2, k_bg=2, d=16)


def harness_config(**overrides):
    base = dict(max_epochs=2, projection_interval=2, calibration_epochs=1)
    base.update(overrides)
    return tiny_train_config(**base)


class _FeatureEchoStub:
    """Pretend model whose density map is whatever 'features' it is fed, so a
    (N, 1, 1) feature array fixes each predicted count exactly."""

    predict = CountModel.predict

    def forward_from_features(self, part):
        return ModelOutputs(part, part, part, count(part))


@pytest.fixture(scope="module")
def eval_model(tiny_extractor):
    return CountModel(SMALL_MODEL, tiny_extractor, seed=0)


# -- MAE ----------------------------------------------------------------------


def test_mae_zero_for_oracle_predictor(tiny_dataset):
    samples = tiny_dataset.test
    counts = np.array([[[float(len(s.annotation))]] for s in samples])
    report = mae(_FeatureEchoStub(), samples, features=counts)
    assert report.mae == 0.0
    assert all(err == 0.0 and pred == true for _, true, pred, err in report.rows)


def test_mae_rows_cover_every_sample_once(tiny_dataset):
    samples = tiny_dataset.test
    preds = np.full((len(samples), 1, 1), 10.0)
    report = mae(_FeatureEchoStub(), samples, features=preds, config={"note": "stub"})
    assert [r[0] for r in report.rows] == [s.sample_id for s in samples]
    truths = np.array([len(s.annotation) for s in samples], dtype=np.float64)
    assert report.mae == np.abs(truths - 10.0).mean()
    assert report.config == {"note": "stub"}


def test_mae_rejects_empty_split():
    with pytest.raises(ValueError, match="empty"):
        mae(_FeatureEchoStub(), [])


def test_constant_predictor_mae_hand_values():
    assert constant_predictor_mae(10.0, [5, 15]) == 5.0
    assert constant_predictor_mae(0.0, [5, 15]) == 10.0
    assert constant_predictor_mae(7.0, [7, 7, 7]) == 0.0
    with pytest.raises(ValueError, match="no counts"):
        constant_predictor_mae(1.0, [])


def test_constant_baseline_mae_hand_values():
    def split(counts):
        return [types.SimpleNamespace(annotation=[None] * c) for c in counts]

    dataset = types.SimpleNamespace(train=split([2, 4]), test=split([1, 5]))
    # train mean 3 against test counts {1, 5}: both off by 2
    assert constant_baseline_mae(dataset) == 2.0


def test_write_eval_csv_with_config_sidecar(tiny_dataset, tmp_path):
    samples = tiny_dataset.test
    preds = np.full((len(samples), 1, 1), 2.5)
    report = mae(_FeatureEchoStub(), samples, features=preds,
                 config={"b_key": "2", "a_key": "1"})
    path = tmp_path / "eval.csv"
    write_eval_csv(report, str(path))

    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == EVAL_CSV_HEADER
    assert len(rows) == 1 + len(samples)
    for row, (sid, true, pred, err) in zip(rows[1:], report.rows):
        assert int(row[0]) == sid
        assert [float(v) for v in row[1:]] == [true, pred, err]

    sidecar = (tmp_path / "eval.csv.config.txt").read_text().splitlines()
    assert sidecar[0] == f"mae = {report.mae!r}"
    assert sidecar[1:] == ["a_key = 1", "b_key = 2"]


# -- localization ---------------------------------------------------------------


def test_localization_rates_are_valid_fractions(eval_model, tiny_dataset,
                                                tiny_features):
    first = localization_rates(eval_model, tiny_dataset, features=tiny_features)
    again = localization_rates(eval_model, tiny_dataset, features=tiny_features)
    assert first == again
    for rate in first:
        assert rate in (0.0, 0.5, 1.0)  # two prototypes per group


# -- ablation -------------------------------------------------------------------


def test_variant_loss_config_zeroes_one_lambda():
    base = LossConfig(lambda1=2.0, lambda2=3.0, lambda3=4.0, tau_cell=0.5)
    full = variant_loss_config(base, "full")
    assert full == base and full is not base
    no_div = variant_loss_config(base, "no_diversity")
    assert no_div == replace(base, lambda3=0.0)
    no_pf = variant_loss_config(base, "no_proto_feature")
    assert no_pf == replace(base, lambda2=0.0)
    with pytest.raises(ValueError, match="variant"):
        variant_loss_config(base, "no_such_thing")


def test_run_ablation_tiny(tiny_dataset, tiny_extractor, tmp_path):
    out = tmp_path / "ablation"
    runs = plan_grid(run_ablation, harness_config(), VARIANTS, (0,), SMALL_MODEL)
    reports = run_ablation(tiny_dataset, runs, tiny_extractor, str(out))
    assert [r.variant for r in reports] == list(VARIANTS)
    assert {r.seed for r in reports} == {0}
    assert {r.manifest_hash for r in reports} == {tiny_dataset.manifest_hash}
    for r in reports:
        assert np.isfinite(r.mae) and r.mae >= 0.0
        assert 0.0 <= r.cell_rate <= 1.0 and 0.0 <= r.bg_rate <= 1.0
        assert r.distances.cell_min <= r.distances.cell_avg
        assert r.distances.bg_min <= r.distances.bg_avg

    with open(out / "ablation.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == ABLATION_CSV_HEADER
    assert [r[0] for r in rows[1:]] == list(VARIANTS)
    assert all(float(r[2]) >= 0 for r in rows[1:])

    table = (out / "distance_table.txt").read_text().splitlines()
    assert table[0].split() == ["variant", "cell", "min", "cell", "avg",
                                "bg", "min", "bg", "avg"]
    assert len(table) == 1 + len(VARIANTS)


def test_ablation_requires_frozen_extractor(tiny_dataset, tmp_path):
    loose = FeatureExtractor(np.random.default_rng(0))
    runs = plan_grid(run_ablation, harness_config(), VARIANTS, (0,), SMALL_MODEL)
    with pytest.raises(ValueError, match="frozen"):
        run_ablation(tiny_dataset, runs, loose, str(tmp_path / "out"))


@pytest.mark.parametrize("harness, values", [(run_ablation, VARIANTS), (sweep_k, (2,)),
                                             (sweep_tau, (0.5,))],
                         ids=["run_ablation", "sweep_k", "sweep_tau"])
def test_unfrozen_extractor_leaves_earlier_results_alone(tiny_dataset, tmp_path,
                                                         harness, values):
    # an API caller's unfrozen extractor is refused before the harness
    # clears anything an earlier run wrote
    names = ["ablation.csv", "distance_table.txt", "sweep_k.csv", "sweep_tau.csv",
             "tau_0.5_seed0/patches.csv", "tau_0.5_seed0/proto0_rank1_img3.pgm",
             "tau_0.5_seed0/proto0_sim.pdt", "tau_0.5_seed0/proto0_mask.pdt"]
    (tmp_path / "tau_0.5_seed0").mkdir()
    for i, name in enumerate(names):
        (tmp_path / name).write_bytes(b"earlier result %d\n" % i)
    runs = plan_grid(harness, harness_config(), values, (0,), SMALL_MODEL)
    with pytest.raises(ValueError, match="frozen"):
        harness(tiny_dataset, runs, FeatureExtractor(np.random.default_rng(0)), str(tmp_path))
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                  if p.is_file()) == sorted(names)
    for i, name in enumerate(names):
        assert (tmp_path / name).read_bytes() == b"earlier result %d\n" % i


def test_format_distance_table_averages_over_seeds():
    def rep(variant, seed, cell_min, cell_avg, bg_min, bg_avg):
        return AblationReport(variant, seed, 1.0,
                              GroupDistanceStats(cell_min, cell_avg,
                                                 bg_min, bg_avg),
                              1.0, 0.0, "hash")

    reports = [rep("full", 0, 1.0, 2.0, 3.0, 4.0),
               rep("full", 1, 3.0, 4.0, 5.0, 6.0),
               rep("no_diversity", 0, 0.5, 0.5, 0.5, 0.5)]
    lines = format_distance_table(reports).splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["full", "2.0000", "3.0000", "4.0000", "5.0000"]
    assert lines[2].split() == ["no_diversity", "0.5000", "0.5000", "0.5000",
                                "0.5000"]


# -- sweeps ---------------------------------------------------------------------


def test_sweep_k_rejects_odd_or_tiny_k():
    for bad in (1, 3, 0):
        with pytest.raises(ValueError, match="even"):
            plan_grid(sweep_k, harness_config(), (bad,), (0,), ModelConfig())


def test_sweep_k_tiny(tiny_dataset, tiny_extractor, tmp_path):
    out = tmp_path / "sweep"
    runs = plan_grid(sweep_k, harness_config(), (2, 4), (0,), ModelConfig())
    rows = sweep_k(tiny_dataset, runs, tiny_extractor, str(out))
    assert [(k, seed) for k, seed, _ in rows] == [(2, 0), (4, 0)]
    assert all(np.isfinite(m) and m >= 0 for _, _, m in rows)

    with open(out / "sweep_k.csv", newline="") as f:
        parsed = list(csv.reader(f))
    assert tuple(parsed[0]) == SWEEP_K_CSV_HEADER
    assert [(int(r[0]), int(r[1])) for r in parsed[1:]] == [(2, 0), (4, 0)]
    assert [float(r[2]) for r in parsed[1:]] == [m for _, _, m in rows]


def test_sweep_tau_tiny_with_galleries(tiny_dataset, tiny_extractor, tmp_path):
    out = tmp_path / "tau"
    runs = plan_grid(sweep_tau, harness_config(), (0.0, 0.5), (0,), SMALL_MODEL)
    rows = sweep_tau(tiny_dataset, runs, tiny_extractor, str(out))
    assert [(tau, seed) for tau, seed, _ in rows] == [(0.0, 0), (0.5, 0)]

    with open(out / "sweep_tau.csv", newline="") as f:
        parsed = list(csv.reader(f))
    assert tuple(parsed[0]) == SWEEP_TAU_CSV_HEADER
    assert [float(r[0]) for r in parsed[1:]] == [0.0, 0.5]

    for name in ("tau_0_seed0", "tau_0.5_seed0"):
        gallery = out / name
        assert (gallery / "patches.csv").is_file()
        # top-3 patches for each of the 4 prototypes
        assert len(list(gallery.glob("proto*_rank*_img*.pgm"))) == 3 * 4


def test_sweep_k_trains_the_given_model_config(tiny_dataset, tiny_extractor,
                                               tmp_path, trained_configs):
    runs = plan_grid(sweep_k, harness_config(), (2, 4), (0, 1),
                     ModelConfig(d=8, epsilon=1e-3))
    sweep_k(tiny_dataset, runs, tiny_extractor, str(tmp_path / "out"))
    assert [(c.k_cell, c.k_bg) for c in trained_configs] == [(1, 1), (1, 1),
                                                             (2, 2), (2, 2)]
    assert all(c.d == 8 and c.epsilon == 1e-3 for c in trained_configs)


def test_sweep_tau_rejects_values_that_share_a_gallery(tmp_path, trained_configs):
    # 0.4 and 0.4000001 both print as 0.4: one tau_0.4_seed0 gallery for two runs
    with pytest.raises(ValueError, match="share gallery names"):
        plan_grid(sweep_tau, harness_config(), (0.4, 0.4000001), (0,), ModelConfig())
    assert not trained_configs
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("harness, grid", [
    (run_ablation, dict(values=(), seeds=(0,))), (run_ablation, dict(values=VARIANTS, seeds=())),
    (sweep_k, dict(values=(), seeds=(0,))),
    (sweep_tau, dict(values=(0.0, 0.4, 0.8), seeds=())),
    (sweep_tau, dict(values=(0.0, 2.0), seeds=(0,))),
    (sweep_k, dict(values=(2, 4, 6, 8), seeds=(0, -1))),
])
def test_grid_is_validated_before_training(tmp_path, trained_configs, harness, grid):
    with pytest.raises(ValueError, match="empty|tau_cell|train.seed"):
        plan_grid(harness, harness_config(), model_config=ModelConfig(), **grid)
    assert not trained_configs
    assert not (tmp_path / "out").exists()
