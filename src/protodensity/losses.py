"""The three training losses and their weighted total.

Density loss is plain MSE against the ground-truth density map.
Prototype-feature loss pulls cell prototypes toward the processed feature at
the densest location of each image and background prototypes toward the
sparsest. Diversity loss penalizes within-group cosine similarity above a
threshold so prototypes spread out. Each term is evaluable on its own and
all are differentiable through the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, bounded, check_bounds

@dataclass(frozen=True)
class LossConfig:
    """Term weights and the diversity term's similarity thresholds. Checked when built."""

    lambda1: float = bounded(1.0, "[0, inf)")
    lambda2: float = bounded(1.0, "[0, inf)")
    lambda3: float = bounded(100.0, "[0, inf)")
    tau_cell: float = bounded(0.8, "[-1, 1]")
    tau_bg: float = bounded(0.8, "[-1, 1]")

    def __post_init__(self):
        check_bounds(self, "loss")


@dataclass
class LossReport:
    density: float
    proto_feature: float
    diversity: float
    total: float


def _coerce_maps(pred, gt, opname: str):
    pred = pred if isinstance(pred, Tensor) else Tensor(pred)
    gt_arr = np.asarray(gt.data if isinstance(gt, Tensor) else gt, dtype=np.float64)
    if pred.ndim != 3 or gt_arr.ndim != 3:
        raise ShapeError(f"{opname}: expects BxHxW maps, got {pred.shape} and {gt_arr.shape}")
    if pred.shape != gt_arr.shape:
        raise ShapeError(f"{opname}: prediction shape {pred.shape} != target {gt_arr.shape}")
    return pred, gt_arr


def density_loss(pred, gt) -> Tensor:
    """Mean over every pixel and batch element of (pred - gt)^2."""
    pred, gt_arr = _coerce_maps(pred, gt, "density_loss")
    diff = T.sub(pred, Tensor(gt_arr))
    return T.tmean(T.mul(diff, diff))


def proto_feature_loss(distances, gt, k_cell: int, k_bg: int) -> Tensor:
    """Per sample: average cell-prototype distance at the ground-truth
    density argmax plus average background-prototype distance at the argmin
    (first row-major index on ties), then the batch mean."""
    dist = distances if isinstance(distances, Tensor) else Tensor(distances)
    gt_arr = np.asarray(gt.data if isinstance(gt, Tensor) else gt, dtype=np.float64)
    if dist.ndim != 4:
        raise ShapeError(f"proto_feature_loss: distances must be BxKxHxW, got {dist.shape}")
    b, k, h, w = dist.shape
    if k != k_cell + k_bg:
        raise ShapeError(f"proto_feature_loss: distance map has {k} prototypes "
                         f"but k_cell + k_bg = {k_cell + k_bg}")
    if gt_arr.shape != (b, h, w):
        raise ShapeError(f"proto_feature_loss: gt shape {gt_arr.shape} != {(b, h, w)}")

    flat = gt_arr.reshape(b, -1)
    h_max, w_max = np.divmod(np.argmax(flat, axis=1), w)
    h_min, w_min = np.divmod(np.argmin(flat, axis=1), w)
    rows = np.arange(b)[:, None]
    # (b, k_cell) distances at each sample's argmax, (b, k_bg) at its argmin
    cell = dist[rows, np.arange(k_cell)[None, :], h_max[:, None], w_max[:, None]]
    bg = dist[rows, np.arange(k_cell, k)[None, :], h_min[:, None], w_min[:, None]]
    return T.add(T.tmean(cell), T.tmean(bg))


def diversity_loss(prototypes, k_cell: int, k_bg: int, tau_cell: float,
                   tau_bg: float) -> Tensor:
    """Within each prototype group: threshold the pairwise cosine similarity
    matrix at tau, zero the diagonal, and average over the off-diagonal
    entries; return half the sum of the two group terms. A group with a
    single prototype contributes 0.
    """
    p = prototypes if isinstance(prototypes, Tensor) else Tensor(prototypes)
    if p.ndim != 2:
        raise ShapeError(f"diversity_loss: prototypes must be K x d, got {p.shape}")
    k = p.shape[0]
    if k != k_cell + k_bg:
        raise ShapeError(f"diversity_loss: {k} prototype rows but k_cell + k_bg = "
                         f"{k_cell + k_bg}")
    total = None
    for start, stop, tau in ((0, k_cell, tau_cell), (k_cell, k, tau_bg)):
        k_g = stop - start
        if k_g < 2:
            continue
        group = p[start:stop]
        rows = T.l2_normalize_rows(group)
        gram = T.matmul(rows, T.transpose(rows, (1, 0)))
        thresholded = T.relu(T.sub(gram, tau))
        mask = Tensor(1.0 - np.eye(k_g))
        term = T.mul(T.tsum(T.mul(thresholded, mask)), 1.0 / (k_g * (k_g - 1)))
        total = term if total is None else T.add(total, term)
    if total is None:
        return Tensor(0.0)
    return T.mul(total, 0.5)


def total_loss(pred_density, gt_density, distances, prototypes, k_cell: int,
               k_bg: int, config: LossConfig) -> tuple[Tensor, LossReport]:
    """All three terms plus their weighted sum. Returns the differentiable
    total and a plain-float report of every component."""
    dterm = density_loss(pred_density, gt_density)
    pterm = proto_feature_loss(distances, gt_density, k_cell, k_bg)
    vterm = diversity_loss(prototypes, k_cell, k_bg, config.tau_cell, config.tau_bg)
    total = T.add(T.add(T.mul(dterm, config.lambda1), T.mul(pterm, config.lambda2)),
                  T.mul(vterm, config.lambda3))
    report = LossReport(density=float(dterm.data), proto_feature=float(pterm.data),
                        diversity=float(vterm.data), total=float(total.data))
    return total, report
