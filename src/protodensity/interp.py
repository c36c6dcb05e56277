"""Interpretation extraction for a trained counting model.

Turns similarity maps into human-inspectable evidence: percentile-threshold
masks, 8-connected component bounding boxes, per-prototype galleries of the
strongest training patches, additive per-location explanations of the density
prediction, and intra-group prototype distance statistics. Maps, masks and
prototypes are plain arrays, and an image is one (1, H, W) array, as the
dataset stores it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .datagen import write_pgm
from .model import DOWNSAMPLE, CountModel
from .tensor import Tensor, no_grad

PATCH_CSV_HEADER = ("prototype_id", "image_id", "x0", "y0", "x1", "y1", "score")
EXPLANATION_CSV_HEADER = ("h", "w", "prototype_id", "theta", "similarity",
                          "contribution")


# -- domain types --------------------------------------------------------------


@dataclass
class PatchBox:
    """A bounding box in inclusive input-pixel coordinates.

    Boxes are feature-grid rectangles scaled by the model downsample s:
    a feature cell (h, w) covers input rows s*h .. s*(h+1)-1 and the same
    for columns. ``score`` is the maximum similarity inside the box.
    """

    image_id: int
    prototype_id: int
    x0: int
    y0: int
    x1: int
    y1: int
    score: float


@dataclass
class Explanation:
    """Additive decomposition of one density-map value.

    contributions holds one (prototype_id, theta, similarity, product) tuple
    per prototype; the products sum to ``density`` exactly up to rounding.
    """

    location: tuple[int, int]
    contributions: list[tuple[int, float, float, float]]
    density: float


@dataclass
class GroupDistanceStats:
    """Min and mean pairwise L2 distance within each prototype group."""

    cell_min: float
    cell_avg: float
    bg_min: float
    bg_avg: float


# -- thresholding and components ----------------------------------------------


def percentile_threshold(sim_map, q: float = 99) -> np.ndarray:
    """Boolean mask of the values at or above the nearest-rank q-th percentile.

    The threshold is the 1-based ceil(q*n/100)-th smallest value, so at least
    one pixel is always set and q=100 keeps exactly the global maxima.
    """
    if sim_map.size == 0:
        raise ValueError("percentile_threshold: empty map")
    if not 0 < q <= 100:
        raise ValueError(f"percentile_threshold: q must be in (0, 100], got {q}")
    flat = np.sort(sim_map.reshape(-1))
    rank = math.ceil(q * flat.size / 100.0)
    threshold = flat[rank - 1]
    return sim_map >= threshold


def connected_components(mask) -> tuple[np.ndarray, int]:
    """Label 8-connected components of a binary mask by flood fill.

    Each mask pixel that has no label yet, taken in row-major order, starts
    the next label, so components are numbered 1..n in the order of their
    first row-major pixel and background stays 0. Returns (labels, n).
    """
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    n = 0
    for i, j in zip(*np.nonzero(mask)):
        if labels[i, j]:
            continue
        n += 1
        labels[i, j] = n
        stack = [(i, j)]
        while stack:
            y, x = stack.pop()
            for ny in range(max(y - 1, 0), min(y + 2, h)):
                for nx in range(max(x - 1, 0), min(x + 2, w)):
                    if mask[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = n
                        stack.append((ny, nx))
    return labels, n


def boxes_from_mask(labels, similarity_map, image_id: int,
                    prototype_id: int) -> list[PatchBox]:
    """One tight bounding box per component, scaled by ``DOWNSAMPLE`` to
    input-pixel coordinates and sorted by score (max similarity in the
    component) descending."""
    if labels.shape != similarity_map.shape:
        raise T.ShapeError(f"boxes_from_mask: labels {labels.shape} vs similarity "
                           f"{similarity_map.shape}")
    s = DOWNSAMPLE
    boxes = []
    for label in range(1, int(labels.max(initial=0)) + 1):
        where = labels == label
        rows = np.flatnonzero(where.any(axis=1))
        cols = np.flatnonzero(where.any(axis=0))
        boxes.append(PatchBox(
            image_id=image_id,
            prototype_id=prototype_id,
            x0=s * int(cols[0]),
            y0=s * int(rows[0]),
            x1=s * (int(cols[-1]) + 1) - 1,
            y1=s * (int(rows[-1]) + 1) - 1,
            score=float(similarity_map[where].max()),
        ))
    boxes.sort(key=lambda b: -b.score)
    return boxes


# -- global patch galleries ----------------------------------------------------


def global_top_patches(samples, sims, k: int = 3,
                       q: float = 99) -> list[list[PatchBox]]:
    """Per-prototype top-k patches over ``samples``, ranked from their
    similarity maps ``sims`` (N, K, Hf, Wf), at most one patch per image per
    prototype. For a projected model's training split the top patch shows
    the prototype's own source neighborhood."""
    if k < 1:
        raise ValueError(f"global_top_patches: k must be >= 1, got {k}")
    result: list[list[PatchBox]] = []
    for proto in range(sims.shape[1]):
        best_per_image = []
        for n, sample in enumerate(samples):
            sim = sims[n, proto]
            labels, count = connected_components(percentile_threshold(sim, q))
            boxes = boxes_from_mask(labels, sim, sample.sample_id, proto)
            best_per_image.append(boxes[0])
        best_per_image.sort(key=lambda b: -b.score)
        result.append(best_per_image[:k])
    return result


def patch_peak(box: PatchBox, similarity_map) -> tuple[int, int]:
    """Feature-grid location of the box's scoring pixel (first row-major
    argmax of the similarity map inside the box)."""
    s = DOWNSAMPLE
    h0, h1 = box.y0 // s, box.y1 // s
    w0, w1 = box.x0 // s, box.x1 // s
    window = similarity_map[h0:h1 + 1, w0:w1 + 1]
    dh, dw = np.unravel_index(int(np.argmax(window)), window.shape)
    return h0 + int(dh), w0 + int(dw)


# -- per-location explanations -------------------------------------------------


def explain_location(model: CountModel, image, h: int, w: int) -> Explanation:
    """Decompose the predicted density at feature location (h, w) into one
    theta_i * S_i term per prototype, for one (1, H, W) image. A location
    outside the density map raises ValueError."""
    if image.ndim != 3 or image.shape[0] != 1:
        raise T.ShapeError(f"explain_location: expected one (1, H, W) image, "
                           f"got shape {image.shape}")
    with no_grad():
        out = model.forward(Tensor(image[None]))
    sims = out.similarities.data[0]
    density = out.density.data[0]
    if not (0 <= h < density.shape[0] and 0 <= w < density.shape[1]):
        raise ValueError(f"explain_location: ({h}, {w}) outside density map "
                         f"{density.shape}")
    theta = model.head.theta.data
    contributions = []
    for i in range(theta.shape[0]):
        s = float(sims[i, h, w])
        contributions.append((i, float(theta[i]), s, float(theta[i]) * s))
    return Explanation((h, w), contributions, float(density[h, w]))


# -- prototype spread ----------------------------------------------------------


def _pairwise(group: np.ndarray) -> list[float]:
    n = group.shape[0]
    return [float(np.linalg.norm(group[i] - group[j]))
            for i in range(n) for j in range(i + 1, n)]


def intra_group_distances(prototypes, k_cell: int, k_bg: int) -> GroupDistanceStats:
    """Min and mean pairwise L2 distance (not squared) within the cell group
    and within the background group. Each group needs at least two members."""
    if prototypes.shape[0] != k_cell + k_bg:
        raise ValueError(f"intra_group_distances: {prototypes.shape[0]} prototypes != "
                         f"k_cell {k_cell} + k_bg {k_bg}")
    if k_cell < 2 or k_bg < 2:
        raise ValueError("intra_group_distances: each group needs >= 2 prototypes")
    cell = _pairwise(prototypes[:k_cell])
    bg = _pairwise(prototypes[k_cell:])
    return GroupDistanceStats(min(cell), float(np.mean(cell)),
                              min(bg), float(np.mean(bg)))


# -- export --------------------------------------------------------------------


def write_patches_csv(patches, path) -> None:
    """Write per-prototype lists of PatchBoxes as one CSV table."""
    T.write_csv(path, PATCH_CSV_HEADER, [[b.prototype_id, b.image_id, b.x0, b.y0,
                                          b.x1, b.y1, repr(b.score)]
                                         for boxes in patches for b in boxes])


def write_explanation_csv(explanation: Explanation, path) -> None:
    h, w = explanation.location
    T.write_csv(path, EXPLANATION_CSV_HEADER,
                [[h, w, proto, repr(theta), repr(sim), repr(product)]
                 for proto, theta, sim, product in explanation.contributions])


def render_boxes_pgm(image, boxes, path) -> None:
    """PGM preview of one (1, H, W) image with each box drawn as a 1-px
    border."""
    if image.ndim != 3 or image.shape[0] != 1:
        raise T.ShapeError(f"render_boxes_pgm: expected one (1, H, W) image, "
                           f"got shape {image.shape}")
    canvas = image[0].copy()
    mark = max(1.0, float(canvas.max()))
    for b in boxes:
        y0, y1 = max(0, b.y0), min(canvas.shape[0] - 1, b.y1)
        x0, x1 = max(0, b.x0), min(canvas.shape[1] - 1, b.x1)
        canvas[y0, x0:x1 + 1] = mark
        canvas[y1, x0:x1 + 1] = mark
        canvas[y0:y1 + 1, x0] = mark
        canvas[y0:y1 + 1, x1] = mark
    write_pgm(path, canvas)


def export_prototype_gallery(model: CountModel, dataset, out_dir, k: int = 3,
                             q: float = 99, features=None) -> list[list[PatchBox]]:
    """Write the top-k patch gallery: patches.csv, per-patch PGM previews, and
    the top-1 similarity map and mask per prototype as binary tensors. The
    training split is forwarded once; every patch and map comes from that
    one similarity stack."""
    os.makedirs(out_dir, exist_ok=True)
    samples = dataset.train
    _, sims = model.predict(samples, features)
    patches = global_top_patches(samples, sims, k=k, q=q)
    write_patches_csv(patches, os.path.join(out_dir, "patches.csv"))
    index = {s.sample_id: n for n, s in enumerate(samples)}
    for proto, boxes in enumerate(patches):
        for rank, box in enumerate(boxes, start=1):
            render_boxes_pgm(
                samples[index[box.image_id]].image, [box],
                os.path.join(out_dir, f"proto{proto:02d}_rank{rank}_img{box.image_id:04d}.pgm"))
        sim = sims[index[boxes[0].image_id], proto]
        T.save_tensor(os.path.join(out_dir, f"proto{proto:02d}_sim.pdt"), sim)
        mask = percentile_threshold(sim, q)
        T.save_tensor(os.path.join(out_dir, f"proto{proto:02d}_mask.pdt"),
                      mask.astype(np.float64))
    return patches
