"""Training: extractor pretraining on plain density MSE, the main loop over
the three-term loss with a frozen extractor, Adam with decoupled weight
decay, and prototype projection.

The extractor is frozen before the main loop, so its feature maps are
computed once per run and cached; every epoch then touches only the
processing layer, prototypes, and head. Projection replaces each prototype
with the nearest processed feature vector across the training split and
records where it came from.

After the final projection only the head's theta moves, so the similarity
and distance maps of the training split are fixed: calibration computes them
once, in ``batch_size`` no-tape forwards, and every calibration step and
validation pass then runs the head alone on them. The losses and theta's
gradient equal those of a full forward bit for bit.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor
from .losses import LossConfig, LossReport, density_loss, total_loss
from .model import (CHECKPOINT_MANIFEST, CountModel, FeatureExtractor,
                    PrototypeProvenance, forward_batches, save_checkpoint)

HISTORY_CSV_HEADER = ("phase", "epoch", "density", "proto_feature", "diversity",
                      "total", "val_mae")
PROJECTION_CSV_HEADER = ("epoch", "prototype_id", "image_id", "h", "w",
                         "distance_before")

_NO_DECAY = ("prototypes",)


class TrainingDiverged(RuntimeError):
    """Raised when a loss goes non-finite; parameters are rolled back to the
    last finished epoch before raising."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    beta1: float = 0.95
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    weight_decay: float = 5e-4
    batch_size: int = 32
    max_epochs: int = 500
    projection_interval: int = 100
    convergence_patience: int = 50
    min_delta: float = 0.01
    val_fraction: float = 0.2
    calibration_epochs: int = 30
    pretrain_epochs: int = 30
    pretrain_learning_rate: float = 1e-3
    pretrain_batch_size: int = 16
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.projection_interval < 1:
            raise ValueError(f"projection_interval must be >= 1, got {self.projection_interval}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        if self.calibration_epochs < 0:
            raise ValueError(f"calibration_epochs must be >= 0, got {self.calibration_epochs}")
        if self.pretrain_epochs < 1:
            raise ValueError(f"pretrain_epochs must be >= 1, got {self.pretrain_epochs}")
        if self.pretrain_learning_rate <= 0:
            raise ValueError(f"pretrain_learning_rate must be > 0, "
                             f"got {self.pretrain_learning_rate}")
        if self.pretrain_batch_size < 1:
            raise ValueError(f"pretrain_batch_size must be >= 1, "
                             f"got {self.pretrain_batch_size}")
        if self.seed < 0:
            raise ValueError(f"train.seed must be >= 0, got {self.seed}")
        self.loss.validate()


@dataclass
class ProjectionEvent:
    epoch: int
    records: list[PrototypeProvenance]


@dataclass
class TrainHistory:
    """Per-epoch loss reports and validation MAE for the main loop, the same
    for the head-calibration phase that follows the final projection, and
    every projection event."""

    reports: list[LossReport] = field(default_factory=list)
    val_mae: list[float] = field(default_factory=list)
    projections: list[ProjectionEvent] = field(default_factory=list)
    calibration_reports: list[LossReport] = field(default_factory=list)
    calibration_val_mae: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.reports)


def write_history_csv(history: TrainHistory, path) -> None:
    T.write_csv(path, HISTORY_CSV_HEADER, [
        [phase, i + 1, repr(rep.density), repr(rep.proto_feature),
         repr(rep.diversity), repr(rep.total), repr(mae)]
        for phase, reports, maes in (
            ("train", history.reports, history.val_mae),
            ("calibrate", history.calibration_reports, history.calibration_val_mae))
        for i, (rep, mae) in enumerate(zip(reports, maes))])


def write_projections_csv(history: TrainHistory, path) -> None:
    T.write_csv(path, PROJECTION_CSV_HEADER, [
        [event.epoch, rec.prototype_id, rec.image_id, rec.h, rec.w,
         repr(rec.distance_before)]
        for event in history.projections for rec in event.records])


# -- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update on every trainable parameter. Weight
    decay is decoupled from the moment estimates and skips the prototypes."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        if not p.trainable:
            continue
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        step = (m / bc1) / (np.sqrt(v / bc2) + config.adam_epsilon)
        if config.weight_decay and name not in _NO_DECAY:
            step = step + config.weight_decay * p.data
        p.data = p.data - config.learning_rate * step


# -- data plumbing ------------------------------------------------------------


def _stack_gt(samples) -> np.ndarray:
    return np.stack([s.density_gt for s in samples])


def compute_features(extractor: FeatureExtractor, samples,
                     batch_size: int = 16) -> np.ndarray:
    """Run the extractor over every sample image; (N, C, Hf, Wf)."""
    return np.concatenate(forward_batches(extractor.forward, samples, batch_size,
                                          lambda out: out.data))


# -- pretraining --------------------------------------------------------------


def pretrain_extractor(dataset, config: TrainConfig) -> tuple[FeatureExtractor, list[float]]:
    """Train a fresh extractor plus a throwaway 1x1 density head on plain
    density MSE, then drop the head and freeze the extractor. Returns the
    frozen extractor and the per-epoch training MSE curve.

    Runs on ``pretrain_learning_rate`` and ``pretrain_batch_size`` rather than
    the main-loop settings: the main loop only moves the small prototype stack
    over cached features, while this stage trains convolutions from scratch
    and needs smaller steps to land on usable features.
    """
    config.validate()
    config = replace(config, learning_rate=config.pretrain_learning_rate,
                     batch_size=config.pretrain_batch_size)
    samples = dataset.train
    if not samples:
        raise ValueError("pretrain_extractor: training split is empty")
    extractor = FeatureExtractor(np.random.default_rng([config.seed, 5]))
    c = extractor.weights[-1].shape[0]
    rng = np.random.default_rng([config.seed, 4])
    head_w = Parameter(rng.uniform(-1.0, 1.0, size=(1, c)) / np.sqrt(c),
                       name="pretrain.head.weight")
    head_b = Parameter(np.zeros(1), name="pretrain.head.bias")
    params = {p.name: p for p in extractor.parameters()}
    params[head_w.name] = head_w
    params[head_b.name] = head_b

    images = np.stack([s.image for s in samples])
    gts = _stack_gt(samples)
    n = len(samples)
    state = AdamState()
    history: list[float] = []
    for epoch in range(config.pretrain_epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for b0 in range(0, n, config.batch_size):
            idx = perm[b0:b0 + config.batch_size]
            for p in params.values():
                p.zero_grad()
            feats = extractor.forward(Tensor(images[idx]))
            dens = T.conv1x1(feats, head_w, head_b)[:, 0]
            loss = density_loss(dens, gts[idx])
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(f"pretraining loss went non-finite at epoch {epoch + 1}")
            loss.backward()
            adam_step(params, {nm: p.grad for nm, p in params.items()}, state, config)
            epoch_loss += value * idx.size
        history.append(epoch_loss / n)
    extractor.freeze()
    return extractor, history


# -- projection ---------------------------------------------------------------


def project_prototypes(model: CountModel, dataset, features) -> list[PrototypeProvenance]:
    """Replace every prototype with its nearest processed feature vector over
    the training split (first index on ties), record the source image,
    location, and pre-projection squared distance in ``model.provenance``,
    and return those records. ``features`` is the split's extractor output."""
    samples = dataset.train
    if not samples:
        raise ValueError("project_prototypes: training split is empty")
    with T.no_grad():
        processed = model.process_features(Tensor(features)).data
    n, d, hf, wf = processed.shape
    vectors = np.ascontiguousarray(processed.transpose(0, 2, 3, 1)).reshape(-1, d)
    proto = model.prototype_layer.prototypes
    records = []
    for i in range(proto.shape[0]):
        diff = vectors - proto.data[i]
        dist = np.einsum("nd,nd->n", diff, diff)
        j = int(np.argmin(dist))
        sid, rem = divmod(j, hf * wf)
        h, w = divmod(rem, wf)
        proto.data[i] = vectors[j]
        rec = PrototypeProvenance(i, samples[sid].sample_id, h, w, float(dist[j]))
        model.provenance[i] = rec
        records.append(rec)
    return records


# -- main loop ----------------------------------------------------------------


def _snapshot(params: dict) -> dict:
    return {name: p.data.copy() for name, p in params.items()}


def _restore(params: dict, snap: dict) -> None:
    for name, p in params.items():
        p.data = snap[name].copy()


def _fixed_maps_forward(model: CountModel, features: np.ndarray, batch: int):
    """``forward(idx)`` giving the density and distance maps of samples
    ``idx`` from similarity and distance maps computed here once, ``batch``
    at a time: valid while only the head moves."""
    sims, dists = (np.concatenate(maps) for maps in zip(*forward_batches(
        model.forward_from_features, features, batch,
        lambda out: (out.similarities.data, out.distances.data))))
    return lambda idx: (model.predict_density(Tensor(sims[idx])), Tensor(dists[idx]))


def train(model: CountModel, dataset, config: TrainConfig, out_dir=None,
          feature_cache=None) -> tuple[CountModel, TrainHistory]:
    """Mini-batch training of processing layer, prototypes, and head with the
    extractor frozen. Projects prototypes every ``projection_interval``
    epochs and once more at the end; early-stops when validation MAE stops
    improving. Pass ``out_dir`` to write checkpoints and history CSVs,
    ``feature_cache`` to reuse precomputed extractor features.
    """
    config.validate()
    if not model.extractor.frozen:
        raise ValueError("train: the extractor must be pretrained and frozen first")
    checksum_before = model.extractor.checksum()
    samples = dataset.train
    n = len(samples)
    if n == 0:
        raise ValueError("train: training split is empty")
    features = feature_cache if feature_cache is not None else \
        compute_features(model.extractor, samples)
    if features.shape[0] != n:
        raise ValueError(f"train: feature cache holds {features.shape[0]} maps "
                         f"for {n} samples")
    gts = _stack_gt(samples)
    counts = np.array([len(s.annotation) for s in samples], dtype=np.float64)

    order = np.random.default_rng([config.seed, 2]).permutation(n)
    n_val = int(round(config.val_fraction * n))
    val_idx = order[:n_val]
    fit_idx = order[n_val:]
    if fit_idx.size == 0:
        raise ValueError("train: validation split leaves no training samples")
    if val_idx.size == 0:
        val_idx = fit_idx  # no held-out split: converge on training MAE

    rng = np.random.default_rng([config.seed, 3])
    params = model.trainable_parameters()
    proto = model.prototype_layer.prototypes
    kc, kb = model.config.k_cell, model.config.k_bg
    state = AdamState()
    history = TrainHistory()
    best_mae = np.inf
    stale = 0
    last_good = _snapshot(params)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        # what an earlier run left here must not pass as this run's: its
        # checkpoints stop loading and its history CSVs go
        root = glob.escape(out_dir)
        for stale_file in [*glob.glob(os.path.join(root, "checkpoint_*", CHECKPOINT_MANIFEST)),
                           *glob.glob(os.path.join(root, "history.csv")),
                           *glob.glob(os.path.join(root, "projections.csv"))]:
            os.remove(stale_file)

    def run_epoch(update_params: dict, label: str, forward) -> LossReport:
        # the tape records only what leads to the parameters this epoch
        # updates: a calibration epoch backpropagates to theta alone.
        # ``forward(idx)`` gives the batch's density and distance maps
        for name, p in params.items():
            p.requires_grad = name in update_params
        try:
            perm = fit_idx[rng.permutation(fit_idx.size)]
            sums = np.zeros(4)
            for b0 in range(0, perm.size, config.batch_size):
                idx = perm[b0:b0 + config.batch_size]
                model.zero_grad()
                density, distances = forward(idx)
                total, rep = total_loss(density, gts[idx], distances, proto,
                                        kc, kb, config.loss)
                if not np.isfinite(rep.total):
                    _restore(params, last_good)
                    raise TrainingDiverged(f"loss went non-finite during {label}; "
                                           "parameters rolled back to last finished epoch")
                total.backward()
                adam_step(update_params, {nm: p.grad for nm, p in update_params.items()},
                          state, config)
                sums += idx.size * np.array([rep.density, rep.proto_feature,
                                             rep.diversity, rep.total])
            return LossReport(*(float(s) for s in sums / perm.size))
        finally:
            for p in params.values():
                p.requires_grad = True

    def val_mae_now(forward) -> float:
        with T.no_grad():
            pred = np.concatenate([
                forward(val_idx[b0:b0 + config.batch_size])[0].data.sum(axis=(-2, -1))
                for b0 in range(0, val_idx.size, config.batch_size)])
        return float(np.abs(pred - counts[val_idx]).mean())

    def fit_forward(idx):
        out = model.forward_from_features(Tensor(features[idx]))
        return out.density, out.distances

    epoch = 0
    for epoch in range(1, config.max_epochs + 1):
        history.reports.append(run_epoch(params, f"epoch {epoch}", fit_forward))

        if epoch % config.projection_interval == 0:
            records = project_prototypes(model, dataset, features)
            history.projections.append(ProjectionEvent(epoch, records))
            if out_dir:
                save_checkpoint(model, os.path.join(out_dir, f"checkpoint_epoch{epoch:04d}"))

        mae = val_mae_now(fit_forward)
        history.val_mae.append(mae)
        last_good = _snapshot(params)

        if mae < best_mae - config.min_delta:
            best_mae = mae
            stale = 0
        else:
            stale += 1
            if stale >= config.convergence_patience:
                break

    if not history.projections or history.projections[-1].epoch != epoch:
        records = project_prototypes(model, dataset, features)
        history.projections.append(ProjectionEvent(epoch, records))

    # the projection just snapped prototypes onto real feature vectors, which
    # reshapes the similarity peaks; re-fit the head weights against the
    # projected prototypes. Only theta moves, so the prototypes stay exactly
    # projected in the shipped model, and the distance and similarity maps
    # are fixed: compute them once and run every calibration step on theta * S
    theta = model.head.theta
    theta_params = {theta.name: theta}
    if config.calibration_epochs:
        calibration_forward = _fixed_maps_forward(model, features, config.batch_size)
    for i in range(config.calibration_epochs):
        history.calibration_reports.append(
            run_epoch(theta_params, f"calibration epoch {i + 1}", calibration_forward))
        history.calibration_val_mae.append(val_mae_now(calibration_forward))
        last_good = _snapshot(params)

    if model.extractor.checksum() != checksum_before:
        raise RuntimeError("train: frozen extractor weights changed during training")
    if out_dir:
        save_checkpoint(model, os.path.join(out_dir, "checkpoint_final"))
        write_history_csv(history, os.path.join(out_dir, "history.csv"))
        write_projections_csv(history, os.path.join(out_dir, "projections.csv"))
    return model, history
