"""Interpretation extraction for a trained counting model.

Turns similarity maps into human-inspectable evidence: percentile-threshold
masks, 8-connected components, per-prototype galleries of the strongest
training patches (each image's box around the mask component holding its
map's maximum), additive per-location explanations of the density
prediction (each forwards only the crop that holds the location's receptive
field), and intra-group prototype distance statistics. Maps, masks and
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
# every file a gallery writes, its index first
GALLERY_FILES = ("patches.csv", "proto*_rank*_img*.pgm*", "proto*_sim.pdt", "proto*_mask.pdt")


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
    # plain lists, since indexing numpy scalars pixel by pixel is slow
    rows = mask.tolist()
    labels = [[0] * w for _ in range(h)]
    n = 0
    for i in range(h):
        for j in range(w):
            if not rows[i][j] or labels[i][j]:
                continue
            n += 1
            labels[i][j] = n
            stack = [(i, j)]
            while stack:
                y, x = stack.pop()
                for ny in range(max(y - 1, 0), min(y + 2, h)):
                    row, label_row = rows[ny], labels[ny]
                    for nx in range(max(x - 1, 0), min(x + 2, w)):
                        if row[nx] and not label_row[nx]:
                            label_row[nx] = n
                            stack.append((ny, nx))
    return np.array(labels, dtype=np.int64).reshape(h, w), n


# -- global patch galleries ----------------------------------------------------


def global_top_patches(samples, sims, k: int = 3,
                       q: float = 99) -> list[list[PatchBox]]:
    """Per-prototype top-k patches over ``samples``, ranked from their
    similarity maps ``sims`` (N, K, Hf, Wf), one patch per image per
    prototype: the images are ranked by their map's maximum, the first image
    first on ties, and only the top k are labeled. A patch is the tight box,
    scaled by ``DOWNSAMPLE``, of the first 8-connected component of the
    map's q-th percentile mask that holds the map's maximum, scored by that
    maximum. For a projected model's training split the top patch shows the
    prototype's own source neighborhood."""
    if k < 1:
        raise ValueError(f"global_top_patches: k must be >= 1, got {k}")
    if not np.isfinite(sims).all():
        n, proto = np.argwhere(~np.isfinite(sims))[0, :2]
        raise ValueError(f"global_top_patches: similarity map of prototype {proto} "
                         f"on sample {samples[n].sample_id} is not finite")
    s = DOWNSAMPLE
    peaks = sims.max(axis=(2, 3))
    result: list[list[PatchBox]] = []
    for proto in range(sims.shape[1]):
        boxes = []
        for n in np.argsort(-peaks[:, proto], kind="stable")[:k]:
            sim, peak = sims[n, proto], peaks[n, proto]
            labels, _ = connected_components(percentile_threshold(sim, q))
            where = labels == labels[sim == peak].min()
            rows = np.flatnonzero(where.any(axis=1))
            cols = np.flatnonzero(where.any(axis=0))
            boxes.append(PatchBox(
                samples[n].sample_id, proto, s * int(cols[0]), s * int(rows[0]),
                s * (int(cols[-1]) + 1) - 1, s * (int(rows[-1]) + 1) - 1, float(peak)))
        result.append(boxes)
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
    outside the density map raises ValueError, before any forward.

    Only the crop of feature cells h-1..h+1 by w-1..w+1, clipped to the
    image, goes through the model. That is exact: block l = 0..L-1 of the
    extractor's conv3x3 (padding 1) + aligned 2x2 pool blocks widens a
    cell's input dependence by 2^l pixels on each side, 2^L - 1 = 7 in
    total, less than the one-cell halo of ``DOWNSAMPLE`` = 8 pixels, so the
    crop's own zero padding never reaches cell (h, w); every stage after
    the extractor works per cell."""
    if image.ndim != 3 or image.shape[0] != 1:
        raise T.ShapeError(f"explain_location: expected one (1, H, W) image, "
                           f"got shape {image.shape}")
    s = DOWNSAMPLE
    if image.shape[1] % s or image.shape[2] % s:
        raise T.ShapeError(f"explain_location: image dims {image.shape[1:]} must be "
                           f"divisible by {s}")
    grid = (image.shape[1] // s, image.shape[2] // s)
    if not (0 <= h < grid[0] and 0 <= w < grid[1]):
        raise ValueError(f"explain_location: ({h}, {w}) outside density map {grid}")
    h0, w0 = max(h - 1, 0), max(w - 1, 0)
    with no_grad():
        out = model.forward(Tensor(image[None, :, s * h0:s * (h + 2), s * w0:s * (w + 2)]))
    sims = out.similarities.data[0, :, h - h0, w - w0]
    theta = model.theta.data
    contributions = [(i, float(theta[i]), float(sims[i]), float(theta[i]) * float(sims[i]))
                     for i in range(theta.shape[0])]
    return Explanation((h, w), contributions, float(out.density.data[0, h - h0, w - w0]))


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
                                          b.x1, b.y1, b.score]
                                         for boxes in patches for b in boxes])


def write_explanation_csv(explanation: Explanation, path) -> None:
    h, w = explanation.location
    T.write_csv(path, EXPLANATION_CSV_HEADER,
                [[h, w, *row] for row in explanation.contributions])


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
    """Write the top-k patch gallery: per-patch PGM previews, the top-1
    similarity map and mask per prototype as binary tensors, and last their
    index, patches.csv. The training split is forwarded once; every patch and
    map comes from that one similarity stack. Once its patches are found,
    what an earlier gallery left in ``out_dir`` is removed, patches.csv
    first, so a gallery that fails its checks leaves the earlier one whole
    and one cut short leaves no index."""
    samples = dataset.train
    _, sims = model.predict(samples, features)
    patches = global_top_patches(samples, sims, k=k, q=q)
    T.clear_outputs(out_dir, *GALLERY_FILES)
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
    write_patches_csv(patches, os.path.join(out_dir, "patches.csv"))
    return patches
