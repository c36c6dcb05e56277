"""Training: extractor pretraining on plain density MSE, the main loop over
the three-term loss with a frozen extractor, Adam with decoupled weight
decay, and prototype projection.

The extractor is frozen before the main loop, so its feature maps are
computed once per run and cached; every epoch then touches only the
processing layer, prototypes, and head. Projection replaces each prototype
with the nearest processed feature vector across the training split and
records where it came from.

After the final projection only the head's theta moves, so the similarity
and distance maps of the training split are fixed. They are built right after
each projection (when calibration is on) from the processed split it
returned, which is then dropped before that epoch's validation pass; a later
epoch makes them stale, so only the final projection's maps survive, and
every calibration step and validation pass runs the head alone on them. The
losses and theta's gradient equal those of a full forward bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor, bounded, check_bounds
from .losses import LossConfig, LossReport, density_loss, total_loss
from .model import (CHECKPOINT_MANIFEST, CountModel, FeatureExtractor,
                    PrototypeProvenance, forward_batches, save_checkpoint,
                    similarity_from_distance)

HISTORY_CSV_HEADER = ("phase", "epoch", "density", "proto_feature", "diversity",
                      "total", "val_mae")
PROJECTION_CSV_HEADER = ("epoch", "prototype_id", "image_id", "h", "w",
                         "distance_before")

_NO_DECAY = ("prototypes",)


class TrainingDiverged(RuntimeError):
    """Raised when a loss goes non-finite. ``train`` first rolls its parameters
    back to the last finished epoch; pretraining, whose extractor is never
    returned, has nothing to roll back."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = bounded(1e-2, "(0, inf)")
    beta1: float = bounded(0.95, "[0, 1)")
    beta2: float = bounded(0.999, "[0, 1)")
    adam_epsilon: float = bounded(1e-8, "(0, inf)")
    weight_decay: float = bounded(5e-4, "[0, inf)")
    batch_size: int = bounded(32, "[1, inf)")
    max_epochs: int = bounded(500, "[1, inf)")
    projection_interval: int = bounded(100, "[1, inf)")
    convergence_patience: int = bounded(50, "[1, inf)")
    min_delta: float = bounded(0.01, "[0, inf)")
    val_fraction: float = bounded(0.2, "[0, 1)")
    calibration_epochs: int = bounded(30, "[0, inf)")
    pretrain_epochs: int = bounded(30, "[1, inf)")
    pretrain_learning_rate: float = bounded(1e-3, "(0, inf)")
    pretrain_batch_size: int = bounded(16, "[1, inf)")
    seed: int = bounded(0, "[0, inf)")
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        check_bounds(self, "train")


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
        [phase, i + 1, *astuple(rep), mae]
        for phase, reports, maes in (
            ("train", history.reports, history.val_mae),
            ("calibrate", history.calibration_reports, history.calibration_val_mae))
        for i, (rep, mae) in enumerate(zip(reports, maes))])


def write_projections_csv(history: TrainHistory, path) -> None:
    T.write_csv(path, PROJECTION_CSV_HEADER, [
        [event.epoch, *astuple(rec)]
        for event in history.projections for rec in event.records])


# -- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update on every parameter of ``params``, each
    with its gradient in ``grads``. Weight decay is decoupled from the moment
    estimates and skips the prototypes."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in params.items():
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


def compute_features(extractor: FeatureExtractor, samples) -> np.ndarray:
    """Run the extractor over every sample image, one at a time; (N, C, Hf, Wf)."""
    return np.concatenate(forward_batches(extractor.forward, samples,
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
            feats = extractor.forward(Tensor(np.stack([samples[i].image for i in idx])))
            dens = T.conv1x1(feats, head_w, head_b)[:, 0]
            loss = density_loss(dens, _stack_gt([samples[i] for i in idx]))
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


def project_prototypes(model: CountModel, dataset,
                       features) -> tuple[list[PrototypeProvenance], np.ndarray]:
    """Replace every prototype with its nearest processed feature vector over
    the training split (first index on ties), record the source image,
    location, and pre-projection squared distance in ``model.provenance``,
    and return them with the processed split (N, d, Hf, Wf): one array,
    filled 16 samples at a time and searched 4 at a time, so no other
    split-sized buffer is built. ``features`` is the split's extractor output."""
    samples = dataset.train
    if not samples:
        raise ValueError("project_prototypes: training split is empty")
    n = len(samples)
    if features.shape[0] != n:
        raise ValueError(f"project_prototypes: features hold {features.shape[0]} maps "
                         f"for {n} samples")
    processed = np.empty((n, model.config.d, *features.shape[2:]))
    rows = (processed[s:s + 16] for s in range(0, n, 16))
    forward_batches(model.process_features, features,
                    lambda out: np.copyto(next(rows), out.data), 16)
    _, d, hf, wf = processed.shape
    proto = model.prototypes
    dist = np.empty((proto.shape[0], n * hf * wf))
    for s in range(0, n, 4):
        vectors = np.ascontiguousarray(processed[s:s + 4].transpose(0, 2, 3, 1)).reshape(-1, d)
        diff = np.empty_like(vectors)
        for i, p in enumerate(proto.data):
            np.subtract(vectors, p, out=diff)
            np.einsum("nd,nd->n", diff, diff, out=dist[i, s * hf * wf:(s + 4) * hf * wf])
    records = []
    for i, j in enumerate(np.argmin(dist, axis=1)):
        sid, rem = divmod(int(j), hf * wf)
        h, w = divmod(rem, wf)
        proto.data[i] = processed[sid, :, h, w]
        rec = PrototypeProvenance(i, samples[sid].sample_id, h, w, float(dist[i, j]))
        model.provenance[i] = rec
        records.append(rec)
    return records, processed


# -- main loop ----------------------------------------------------------------


def _snapshot(params: dict) -> dict:
    return {name: p.data.copy() for name, p in params.items()}


def _restore(params: dict, snap: dict) -> None:
    for name, p in params.items():
        p.data = snap[name].copy()


def _fixed_maps_forward(model: CountModel, processed: np.ndarray):
    """``forward(idx)`` giving the density and distance maps of samples
    ``idx`` from the split's similarity and distance maps, computed here once
    from its ``processed`` features, and the prototypes as a constant: valid
    while only the head moves, and a loss over them reaches theta alone."""
    prototypes = Tensor(model.prototypes.data)
    with T.no_grad():
        dists = T.distance_map(Tensor(processed), prototypes)
        sims = similarity_from_distance(dists, model.config.epsilon).data
    return lambda idx: (model.predict_density(Tensor(sims[idx])), Tensor(dists.data[idx]),
                        prototypes)


def train(model: CountModel, dataset, config: TrainConfig, out_dir=None,
          feature_cache=None) -> tuple[CountModel, TrainHistory]:
    """Mini-batch training of processing layer, prototypes, and head with the
    extractor frozen. Projects prototypes every ``projection_interval``
    epochs and once more at the end; early-stops when validation MAE stops
    improving. Pass ``out_dir`` to write checkpoints and history CSVs,
    ``feature_cache`` to reuse precomputed extractor features.
    """
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
    kc, kb = model.config.k_cell, model.config.k_bg
    state = AdamState()
    history = TrainHistory()
    best_mae = np.inf
    stale = 0
    last_good = _snapshot(params)
    if out_dir:  # an earlier run's checkpoints stop loading, its history CSVs go
        T.clear_outputs(out_dir, f"checkpoint_*/{CHECKPOINT_MANIFEST}", "history.csv",
                        "projections.csv")

    def run_epoch(update_params: dict, label: str, forward) -> LossReport:
        # ``forward(idx)`` gives the batch's density, distance maps and
        # prototypes; the tape reaches exactly the parameters they were
        # computed from, which are the ones ``update_params`` holds
        perm = fit_idx[rng.permutation(fit_idx.size)]
        sums = np.zeros(4)
        for b0 in range(0, perm.size, config.batch_size):
            idx = perm[b0:b0 + config.batch_size]
            model.zero_grad()
            density, distances, prototypes = forward(idx)
            total, rep = total_loss(density, gts[idx], distances, prototypes,
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

    def val_mae_now(forward) -> float:
        with T.no_grad():
            pred = np.concatenate([
                forward(val_idx[b0:b0 + config.batch_size])[0].data.sum(axis=(-2, -1))
                for b0 in range(0, val_idx.size, config.batch_size)])
        return float(np.abs(pred - counts[val_idx]).mean())

    # a batch is gathered channel-major, the layout of conv1x1's GEMM
    # operand, so the gathered batch is that operand and is not copied again
    channel_major = features.transpose(1, 0, 2, 3)

    def fit_forward(idx):
        batch = np.take(channel_major, idx, axis=1).transpose(1, 0, 2, 3)
        out = model.forward_from_features(Tensor(batch))
        return out.density, out.distances, model.prototypes

    def project(epoch):
        # the calibration maps are built from the processed split right
        # here, so that the split is freed before the epoch's validation pass
        records, processed = project_prototypes(model, dataset, features)
        history.projections.append(ProjectionEvent(epoch, records))
        return _fixed_maps_forward(model, processed) if config.calibration_epochs else None

    epoch = 0
    projected = False
    for epoch in range(1, config.max_epochs + 1):
        calibration_forward = None  # stale once the processing layer moves
        history.reports.append(run_epoch(params, f"epoch {epoch}", fit_forward))

        projected = epoch % config.projection_interval == 0
        if projected:
            calibration_forward = project(epoch)
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

    if not projected:
        calibration_forward = project(epoch)

    # the projection just snapped prototypes onto real feature vectors, which
    # reshapes the similarity peaks; re-fit the head weights against the
    # projected prototypes. Only theta moves, so the prototypes stay exactly
    # projected in the shipped model, and the distance and similarity maps
    # are fixed: every calibration step runs on theta * S over the maps the
    # final projection built
    theta = model.theta
    theta_params = {theta.name: theta}
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
