"""Metrics and experiment harnesses.

Counting MAE over a split, loss-term ablations (diversity off, prototype-to-
feature off) with distance tables and localization rates, and the K and tau
sweeps. All three harnesses are one grid: ``plan_grid`` lists and checks
every run first (the CLI calls it too, before it writes anything), then
``_train_grid`` trains them in order on one dataset and one frozen
extractor. The ablation records the dataset's manifest hash in every row.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .datagen import Dataset
from .interp import (GALLERY_FILES, GroupDistanceStats, global_top_patches,
                     intra_group_distances, patch_peak,
                     export_prototype_gallery)
from .model import CountModel, FeatureExtractor, ModelConfig
from .tensor import clear_outputs, write_csv, write_key_values
from .training import TrainConfig, compute_features, train

EVAL_CSV_HEADER = ("sample_id", "true_count", "predicted_count", "abs_error")
ABLATION_CSV_HEADER = ("variant", "seed", "mae", "cell_min", "cell_avg",
                       "bg_min", "bg_avg", "cell_rate", "bg_rate",
                       "manifest_hash")
SWEEP_K_CSV_HEADER = ("k", "seed", "mae")
SWEEP_TAU_CSV_HEADER = ("tau", "seed", "mae")

VARIANTS = ("full", "no_diversity", "no_proto_feature")


# -- reports -------------------------------------------------------------------


@dataclass
class EvalReport:
    """Per-image counting errors over one split plus their mean."""

    rows: list[tuple[int, float, float, float]]  # (id, true, predicted, abs err)
    mae: float
    config: dict[str, object] = field(default_factory=dict)


@dataclass
class AblationReport:
    """One trained variant: its MAE, prototype spread, and localization rates.

    cell_rate and bg_rate are the fractions of cell and background prototypes
    whose top-1 global patch peaks on above-median GT density; for background
    prototypes that is the failure direction.
    """

    variant: str
    seed: int
    mae: float
    distances: GroupDistanceStats
    cell_rate: float
    bg_rate: float
    manifest_hash: str


# -- MAE -----------------------------------------------------------------------


def mae(model, samples, features=None,
        config: dict[str, object] | None = None) -> EvalReport:
    """Mean absolute counting error over ``samples``, one row per image."""
    if not samples:
        raise ValueError("mae: empty split")
    preds, _ = model.predict(samples, features)
    rows = []
    for sample, pred in zip(samples, preds):
        if not np.isfinite(pred):
            raise ValueError(f"mae: predicted count of sample {sample.sample_id} is {pred}")
        true = float(len(sample.annotation))
        rows.append((sample.sample_id, true, float(pred), abs(float(pred) - true)))
    value = float(np.mean([r[3] for r in rows]))
    return EvalReport(rows, value, dict(config or {}))


def constant_predictor_mae(value: float, counts) -> float:
    """MAE of always predicting ``value`` against the given true counts."""
    arr = np.asarray(list(counts), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("constant_predictor_mae: no counts")
    return float(np.abs(arr - value).mean())


def constant_baseline_mae(dataset: Dataset) -> float:
    """MAE on the test split of always predicting the train-mean count."""
    train_counts = [len(s.annotation) for s in dataset.train]
    test_counts = [len(s.annotation) for s in dataset.test]
    return constant_predictor_mae(float(np.mean(train_counts)), test_counts)


def write_eval_csv(report: EvalReport, path) -> None:
    write_csv(path, EVAL_CSV_HEADER, report.rows)
    write_key_values(f"{path}.config.txt", [("mae", report.mae),
                                            *sorted(report.config.items())])


# -- localization --------------------------------------------------------------


def localization_rates(model: CountModel, dataset: Dataset,
                       features) -> tuple[float, float]:
    """Fraction of (cell, background) prototypes whose top-1 global patch
    peaks where GT density exceeds the per-image median; ``features`` is the
    training split's extractor output."""
    _, sims = model.predict(dataset.train, features)
    patches = global_top_patches(dataset.train, sims, k=1)
    by_id = {s.sample_id: n for n, s in enumerate(dataset.train)}
    k_cell = model.config.k_cell
    hits = []
    for proto, boxes in enumerate(patches):
        box = boxes[0]
        n = by_id[box.image_id]
        h, w = patch_peak(box, sims[n, proto])
        gt = dataset.train[n].density_gt
        hits.append(bool(gt[h, w] > np.median(gt)))
    cell = hits[:k_cell]
    bg = hits[k_cell:]
    return (sum(cell) / len(cell) if cell else 0.0,
            sum(bg) / len(bg) if bg else 0.0)


# -- ablation ------------------------------------------------------------------


def variant_loss_config(base, variant: str):
    """The variant's LossConfig: identical to base except for zeroed lambdas."""
    if variant == "full":
        return replace(base)
    if variant == "no_diversity":
        return replace(base, lambda3=0.0)
    if variant == "no_proto_feature":
        return replace(base, lambda2=0.0)
    raise ValueError(f"unknown ablation variant {variant!r}")


def _train_grid(dataset: Dataset, runs, extractor: FeatureExtractor, feature_cache):
    """Train every ``(label, model_config, run_config)`` of ``runs``, from
    ``plan_grid``, in order on one frozen extractor, yielding (label, model,
    test MAE, train features) per run."""
    if not extractor.frozen:
        raise ValueError("harness extractor must be frozen")
    if feature_cache is None:
        feature_cache = compute_features(extractor, dataset.train)
    test_features = compute_features(extractor, dataset.test)
    for label, model_config, run_config in runs:
        model = CountModel(model_config, extractor, seed=run_config.seed)
        model, _ = train(model, dataset, run_config, feature_cache=feature_cache)
        yield label, model, mae(model, dataset.test, features=test_features).mae, feature_cache


def _ablation_runs(config, model_config, variants, seeds):
    return [((variant, seed), model_config,
             replace(config, seed=seed, loss=variant_loss_config(config.loss, variant)))
            for seed in seeds for variant in variants]


def _sweep_k_runs(config, model_config, k_values, seeds):
    for k in k_values:
        if k < 2 or k % 2:
            raise ValueError(f"sweep_k: K values must be even and >= 2, got {k}")
    return [((k, seed), replace(model_config, k_cell=k // 2, k_bg=k // 2),
             replace(config, seed=seed)) for k in k_values for seed in seeds]


def _sweep_tau_runs(config, model_config, tau_values, seeds):
    # a run's gallery is tau_<tau:g>_seed<seed>, so two taus must not print alike
    names = [f"{tau:g}" for tau in tau_values]
    if len(set(names)) < len(names):
        raise ValueError(f"sweep_tau: tau values {', '.join(map(repr, tau_values))} "
                         f"share gallery names: {', '.join(names)}")
    return [((tau, seed), model_config, replace(config, seed=seed, loss=replace(
        config.loss, tau_cell=tau, tau_bg=tau))) for tau in tau_values for seed in seeds]


def plan_grid(harness, config: TrainConfig, values, seeds,
              model_config: ModelConfig | None = None) -> list:
    """Every run of ``harness``'s grid over ``values`` and ``seeds``, as
    (label, model_config, run_config). Each value is checked, each run's
    configs are checked as ``replace`` builds them, and an empty grid is
    rejected, so a bad grid raises ValueError before anything is trained or
    written."""
    runs = _GRID_RUNS[harness](config, model_config or ModelConfig(), values, seeds)
    if not runs:
        raise ValueError("experiment grid is empty: no values or no seeds")
    return runs


def run_ablation(dataset: Dataset, config: TrainConfig, variants=VARIANTS, *,
                 seeds, extractor: FeatureExtractor,
                 model_config: ModelConfig | None = None,
                 out_dir=None, feature_cache=None) -> list[AblationReport]:
    """Train every variant at every seed on the same dataset and extractor.

    Variants differ only in the lambdas zeroed out of the base loss config.
    Emits per-run reports plus a distance table averaging both prototype
    groups' min and mean pairwise distances over seeds.
    """
    runs = plan_grid(run_ablation, config, variants, seeds, model_config)
    if out_dir:
        clear_outputs(out_dir, "ablation.csv", "distance_table.txt")
    reports = []
    for (variant, seed), model, test_mae, features in _train_grid(
            dataset, runs, extractor, feature_cache):
        cell_rate, bg_rate = localization_rates(model, dataset, features=features)
        stats = intra_group_distances(model.prototypes.data,
                                      model.config.k_cell, model.config.k_bg)
        reports.append(AblationReport(variant, seed, test_mae, stats, cell_rate,
                                      bg_rate, dataset.manifest_hash))
    if out_dir:
        write_ablation_csv(reports, os.path.join(out_dir, "ablation.csv"))
        with open(os.path.join(out_dir, "distance_table.txt"), "w") as f:
            f.write(format_distance_table(reports))
    return reports


def write_ablation_csv(reports, path) -> None:
    write_csv(path, ABLATION_CSV_HEADER, [
        [r.variant, r.seed, r.mae, *astuple(r.distances), r.cell_rate, r.bg_rate,
         r.manifest_hash] for r in reports])


def format_distance_table(reports) -> str:
    """Per-variant prototype distance table, seed-averaged:
    Minimum/Average columns for the cell and background groups."""
    lines = [f"{'variant':<18} {'cell min':>9} {'cell avg':>9} "
             f"{'bg min':>9} {'bg avg':>9}"]
    seen = []
    for r in reports:
        if r.variant not in seen:
            seen.append(r.variant)
    for variant in seen:
        rows = [r.distances for r in reports if r.variant == variant]
        lines.append(f"{variant:<18} "
                     f"{np.mean([d.cell_min for d in rows]):>9.4f} "
                     f"{np.mean([d.cell_avg for d in rows]):>9.4f} "
                     f"{np.mean([d.bg_min for d in rows]):>9.4f} "
                     f"{np.mean([d.bg_avg for d in rows]):>9.4f}")
    return "\n".join(lines) + "\n"


# -- sweeps --------------------------------------------------------------------


def sweep_k(dataset: Dataset, config: TrainConfig, k_values, *,
            seeds, extractor: FeatureExtractor,
            model_config: ModelConfig | None = None,
            out_dir=None, feature_cache=None) -> list[tuple[int, int, float]]:
    """Train one model per total prototype count K per seed, ``model_config``
    with K split equally, and report test MAE rows (K, seed, MAE)."""
    runs = plan_grid(sweep_k, config, k_values, seeds, model_config)
    if out_dir:
        clear_outputs(out_dir, "sweep_k.csv")
    rows = [(k, seed, test_mae) for (k, seed), _, test_mae, _ in _train_grid(
        dataset, runs, extractor, feature_cache)]
    _write_sweep_csv(out_dir, "sweep_k.csv", SWEEP_K_CSV_HEADER, rows)
    return rows


def sweep_tau(dataset: Dataset, config: TrainConfig, tau_values, *,
              seeds, extractor: FeatureExtractor,
              model_config: ModelConfig | None = None,
              out_dir=None, feature_cache=None,
              gallery_k: int = 3) -> list[tuple[float, int, float]]:
    """Retrain per diversity threshold tau and emit a patch gallery per run
    for qualitative comparison, plus MAE rows (tau, seed, MAE)."""
    runs = plan_grid(sweep_tau, config, tau_values, seeds, model_config)
    if out_dir:
        clear_outputs(out_dir, "sweep_tau.csv", *(f"tau_*_seed*/{name}" for name in GALLERY_FILES))
    rows = []
    for (tau, seed), model, test_mae, features in _train_grid(
            dataset, runs, extractor, feature_cache):
        rows.append((tau, seed, test_mae))
        if out_dir:
            gallery = os.path.join(out_dir, f"tau_{tau:g}_seed{seed}")
            export_prototype_gallery(model, dataset, gallery, k=gallery_k,
                                     features=features)
    _write_sweep_csv(out_dir, "sweep_tau.csv", SWEEP_TAU_CSV_HEADER, rows)
    return rows


_GRID_RUNS = {run_ablation: _ablation_runs, sweep_k: _sweep_k_runs,
              sweep_tau: _sweep_tau_runs}


def _write_sweep_csv(out_dir, name: str, header, rows) -> None:
    """One (value, seed, MAE) row per sweep run, if ``out_dir`` is given."""
    if out_dir:
        write_csv(os.path.join(out_dir, name), header, rows)
