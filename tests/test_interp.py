"""Interpretation tests: percentile masks, connected components, patch boxes,
per-location explanations, and prototype spread.

The percentile and component routines are checked against independent
oracles (explicit sorted-list rank selection, BFS flood fill) over a few
hundred random inputs each; the harness repeats that at larger scale.
"""

import copy
import csv
import math
import types
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from protodensity import interp
from protodensity.datagen import SceneConfig, render_scene
from protodensity.evaluate import localization_rates
from protodensity.interp import (EXPLANATION_CSV_HEADER, PATCH_CSV_HEADER,
                                 PatchBox, connected_components, explain_location,
                                 export_prototype_gallery, global_top_patches,
                                 intra_group_distances, patch_peak,
                                 percentile_threshold, render_boxes_pgm,
                                 write_explanation_csv, write_patches_csv)
from protodensity.model import CountModel, FeatureExtractor, ModelConfig
from protodensity.tensor import ShapeError, Tensor, load_tensor, no_grad


def percentile_oracle(arr: np.ndarray, q: float) -> np.ndarray:
    ordered = sorted(arr.reshape(-1).tolist())
    threshold = ordered[math.ceil(q * len(ordered) / 100.0) - 1]
    return arr >= threshold


def flood_fill_oracle(mask: np.ndarray):
    """BFS 8-connected labeling in first-encounter row-major order."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    n = 0
    for i in range(h):
        for j in range(w):
            if not mask[i, j] or labels[i, j]:
                continue
            n += 1
            queue = deque([(i, j)])
            labels[i, j] = n
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


@pytest.fixture(scope="module")
def interp_model(tiny_extractor):
    return CountModel(ModelConfig(k_cell=2, k_bg=2, d=16), tiny_extractor, seed=0)


# -- percentile threshold -----------------------------------------------------


def test_percentile_on_distinct_values():
    arr = np.arange(1.0, 17.0).reshape(4, 4)
    assert percentile_threshold(arr, 100).sum() == 1
    assert arr[percentile_threshold(arr, 100)] == [16.0]
    # rank ceil(99 * 16 / 100) = 16: the top pixel again
    assert np.array_equal(percentile_threshold(arr, 99),
                          percentile_threshold(arr, 100))
    # rank ceil(75 * 16 / 100) = 12: values 12..16
    assert percentile_threshold(arr, 75).sum() == 5
    assert percentile_threshold(arr, 1).all()


def test_percentile_keeps_all_tied_maxima():
    arr = np.zeros((3, 3))
    arr[0, 1] = arr[2, 2] = 7.0
    mask = percentile_threshold(arr, 100)
    assert mask.sum() == 2 and mask[0, 1] and mask[2, 2]
    assert percentile_threshold(np.ones((4, 4)), 100).all()


def test_percentile_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty"):
        percentile_threshold(np.zeros((0, 4)))
    for q in (0, -3, 100.5):
        with pytest.raises(ValueError, match="q must be"):
            percentile_threshold(np.ones((2, 2)), q)


def test_percentile_random_against_sort_oracle(rng):
    for _ in range(300):
        shape = (int(rng.integers(1, 11)), int(rng.integers(1, 11)))
        arr = rng.normal(size=shape)
        if rng.random() < 0.3:  # force ties
            arr = np.round(arr)
        q = float(rng.uniform(0.01, 100.0)) if rng.random() < 0.8 else 100.0
        assert np.array_equal(percentile_threshold(arr, q),
                              percentile_oracle(arr, q))


@given(arrays(np.float64, (5, 5), elements=st.floats(-10, 10)),
       st.floats(0.01, 100.0))
def test_percentile_mask_never_empty(arr, q):
    assert percentile_threshold(arr, q).any()


# -- connected components -----------------------------------------------------


def test_components_hand_examples():
    labels, n = connected_components(np.zeros((3, 3), dtype=bool))
    assert n == 0 and not labels.any()

    labels, n = connected_components(np.ones((3, 3), dtype=bool))
    assert n == 1 and (labels == 1).all()

    # diagonal chains are one component under 8-connectivity
    assert connected_components(np.eye(4, dtype=bool))[1] == 1
    assert connected_components(np.fliplr(np.eye(4, dtype=bool)))[1] == 1

    mask = np.zeros((1, 3), dtype=bool)
    mask[0, 0] = mask[0, 2] = True
    labels, n = connected_components(mask)
    assert n == 2
    assert labels[0, 0] == 1 and labels[0, 2] == 2

    checker = np.indices((4, 4)).sum(axis=0) % 2 == 0
    assert connected_components(checker)[1] == 1


def test_components_merge_keeps_first_label():
    # horseshoe: the right prong starts a row-major scan as if it were a
    # second component, but the bottom row joins it to the left prong;
    # everything must come back labeled 1
    mask = np.array([[1, 0, 1],
                     [1, 0, 1],
                     [1, 1, 1]], dtype=bool)
    labels, n = connected_components(mask)
    assert n == 1
    assert set(labels[mask]) == {1}


def test_components_random_against_flood_fill(rng):
    for _ in range(300):
        shape = (int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        mask = rng.random(shape) < rng.uniform(0.2, 0.8)
        labels, n = connected_components(mask)
        oracle_labels, oracle_n = flood_fill_oracle(mask)
        assert n == oracle_n
        assert np.array_equal(labels, oracle_labels)


def test_components_partition_and_encounter_order(rng):
    for _ in range(50):
        mask = rng.random((9, 9)) < 0.5
        labels, n = connected_components(mask)
        assert np.array_equal(labels > 0, mask)
        if n:
            assert sorted(set(labels[mask])) == list(range(1, n + 1))
            firsts = [int(np.flatnonzero(labels.reshape(-1) == l)[0])
                      for l in range(1, n + 1)]
            assert firsts == sorted(firsts)


# -- boxes --------------------------------------------------------------------


def _top_boxes(maps, q=99, k=1, first_id=0):
    """global_top_patches over hand-built (N, K, Hf, Wf) similarity maps."""
    samples = [types.SimpleNamespace(sample_id=first_id + n) for n in range(maps.shape[0])]
    return global_top_patches(samples, maps, k=k, q=q)


def all_boxes_oracle(sim, q, image_id, prototype_id):
    """Every component's tight box, scaled by 8, stably sorted by score
    (the component's max similarity) descending; the first is the top box."""
    labels, n = flood_fill_oracle(percentile_oracle(sim, q))
    boxes = []
    for label in range(1, n + 1):
        rows, cols = np.nonzero(labels == label)
        boxes.append(PatchBox(image_id, prototype_id, 8 * cols.min(), 8 * rows.min(),
                              8 * cols.max() + 7, 8 * rows.max() + 7,
                              float(sim[labels == label].max())))
    return sorted(boxes, key=lambda b: -b.score)


def test_box_scales_single_feature_cell():
    maps = np.zeros((1, 2, 4, 4))
    maps[0, 1, 2, 3] = 0.42
    box = _top_boxes(maps, first_id=7)[1][0]
    assert (box.x0, box.y0, box.x1, box.y1) == (24, 16, 31, 23)
    assert box.score == 0.42
    assert box.image_id == 7 and box.prototype_id == 1


def test_boxes_sorted_by_score_with_tight_bounds():
    # q=80 of 16 pixels thresholds at rank 13, the smallest nonzero value:
    # each map holds a diagonal pair (rows 0-1, cols 0-1) and a horizontal
    # pair (row 3, cols 2-3), and each image's box is its best pair's
    maps = np.zeros((2, 1, 4, 4))
    for n, (diagonal, horizontal) in enumerate([((0.2, 0.3), (0.9, 0.1)),
                                                ((0.2, 0.8), (0.5, 0.1))]):
        maps[n, 0, 0, 0], maps[n, 0, 1, 1] = diagonal
        maps[n, 0, 3, 2], maps[n, 0, 3, 3] = horizontal
    boxes = _top_boxes(maps, q=80, k=2)[0]
    assert [(b.image_id, b.score) for b in boxes] == [(0, 0.9), (1, 0.8)]
    assert (boxes[0].x0, boxes[0].y0, boxes[0].x1, boxes[0].y1) == (16, 24, 31, 31)
    assert (boxes[1].x0, boxes[1].y0, boxes[1].x1, boxes[1].y1) == (0, 0, 15, 15)


def test_tied_maxima_go_to_the_component_that_starts_first():
    # column 0 starts first (label 1) and peaks at (3, 0); the pair in row 1
    # peaks as high at (1, 3), earlier in row-major order, but starts later
    sim = np.zeros((1, 1, 5, 5))
    sim[0, 0, 0:4, 0] = [0.5, 0.5, 0.5, 1.0]
    sim[0, 0, 1, 3:5] = [1.0, 0.5]
    (box,) = _top_boxes(sim, q=80)[0]   # rank 20 of 25: the 0.5s and up
    assert (box.x0, box.y0, box.x1, box.y1, box.score) == (0, 0, 7, 31, 1.0)
    assert box == all_boxes_oracle(sim[0, 0], 80, 0, 0)[0]


def test_top_box_random_against_all_boxes_oracle(rng):
    # few distinct values, so maps often hold several components that tie
    # at the maximum
    tied = 0
    for _ in range(1000):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        sim = rng.integers(0, 4, size=shape) / 3.0
        q = float(rng.choice([50.0, 75.0, 90.0, 99.0, 100.0]))
        boxes = all_boxes_oracle(sim, q, 5, 0)
        assert _top_boxes(sim[None, None], q=q, first_id=5)[0] == boxes[:1]
        tied += len(boxes) > 1 and boxes[1].score == boxes[0].score
    assert tied > 100


def test_patch_peak_respects_box_window():
    sim = np.zeros((4, 4))
    sim[0, 0] = 5.0   # global max, outside the box
    sim[2, 2] = 1.0
    sim[2, 3] = 1.0   # tie: first row-major inside the window wins
    box = PatchBox(image_id=0, prototype_id=0, x0=16, y0=16, x1=31, y1=31,
                   score=1.0)
    assert patch_peak(box, sim) == (2, 2)


# -- global patches -----------------------------------------------------------


def test_global_top_patches_structure(interp_model, tiny_dataset, tiny_features):
    patches = global_top_patches(tiny_dataset.train,
                                 interp_model.predict(tiny_dataset.train, tiny_features)[1], k=3)
    assert len(patches) == interp_model.config.k_total

    sims = []
    for n in range(tiny_features.shape[0]):
        out = interp_model.forward_from_features(Tensor(tiny_features[n:n + 1]))
        sims.append(out.similarities.data[0])
    sims = np.stack(sims)  # (N, K, Hf, Wf)

    ids = [s.sample_id for s in tiny_dataset.train]
    for proto, boxes in enumerate(patches):
        assert len(boxes) == 3
        scores = [b.score for b in boxes]
        assert scores == sorted(scores, reverse=True)
        assert len({b.image_id for b in boxes}) == len(boxes)
        assert all(b.prototype_id == proto for b in boxes)

        # the top patch scores the global similarity maximum and its box
        # covers that cell's pixel footprint
        best_n, bh, bw = np.unravel_index(int(np.argmax(sims[:, proto])),
                                          sims[:, proto].shape)
        assert boxes[0].score == sims[best_n, proto].max()
        assert boxes[0].image_id == ids[best_n]
        assert boxes[0].x0 <= 8 * bw and boxes[0].x1 >= 8 * bw + 7
        assert boxes[0].y0 <= 8 * bh and boxes[0].y1 >= 8 * bh + 7


def test_global_top_patches_k_capped_by_images(interp_model, tiny_dataset,
                                               tiny_features):
    _, sims = interp_model.predict(tiny_dataset.train, tiny_features)
    patches = global_top_patches(tiny_dataset.train, sims, k=100)
    assert all(len(boxes) == len(tiny_dataset.train) for boxes in patches)
    with pytest.raises(ValueError, match="k must be"):
        global_top_patches(tiny_dataset.train, sims, k=0)


def test_global_top_patches_labels_only_the_kept_images(interp_model, tiny_dataset,
                                                        tiny_features, monkeypatch, rng):
    # the top k are labeled, never the images they outrank: one connected
    # components call per kept patch
    calls = []
    monkeypatch.setattr(interp, "connected_components",
                        lambda mask: calls.append(1) or connected_components(mask))
    _, sims = interp_model.predict(tiny_dataset.train, tiny_features)
    patches = global_top_patches(tiny_dataset.train, sims, k=2)
    assert len(calls) == 2 * sims.shape[1] == 8 and len(sims) == 8
    assert patches == [boxes[:2] for boxes in global_top_patches(tiny_dataset.train, sims, k=8)]
    # on few distinct values images tie at their maxima, and the first wins
    maps = rng.integers(0, 4, size=(6, 3, 4, 5)) / 3.0
    for proto, boxes in enumerate(_top_boxes(maps, q=75, k=3)):
        every = [all_boxes_oracle(maps[n, proto], 75, n, proto)[0] for n in range(6)]
        assert boxes == sorted(every, key=lambda b: -b.score)[:3]


# -- per-location explanations ------------------------------------------------


class _StubModel:
    """Forward-only stand-in with fixed (K, Hf, Wf) similarity maps; like the
    real model it takes a batch and returns batched outputs."""

    def __init__(self, theta, sims):
        self.theta = types.SimpleNamespace(data=np.asarray(theta, dtype=np.float64))
        self._sims = np.asarray(sims, dtype=np.float64)

    def forward(self, x):
        assert x.ndim == 4 and x.shape[0] == 1, x.shape
        sims = self._sims[None]
        density = np.einsum("k,bkhw->bhw", self.theta.data, sims)
        return types.SimpleNamespace(similarities=Tensor(sims),
                                     density=Tensor(density))


def test_explain_single_prototype_decomposition():
    model = _StubModel([2.0], np.full((1, 3, 3), 0.5))
    expl = explain_location(model, np.zeros((1, 24, 24)), 1, 2)
    assert expl.location == (1, 2)
    assert expl.contributions == [(0, 2.0, 0.5, 1.0)]
    assert expl.density == 1.0


def test_explain_zero_head_means_zero_density():
    model = _StubModel([0.0, 0.0], np.random.default_rng(0).random((2, 3, 3)))
    expl = explain_location(model, np.zeros((1, 24, 24)), 0, 0)
    assert expl.density == 0.0
    assert all(product == 0.0 for *_, product in expl.contributions)


def test_explain_completeness_on_real_model(interp_model, tiny_dataset):
    x = tiny_dataset.test[0].image
    hf, wf = 4, 4
    for h, w in ((0, 0), (hf - 1, wf - 1), (1, 2)):
        expl = explain_location(interp_model, x, h, w)
        assert len(expl.contributions) == interp_model.config.k_total
        total = sum(product for *_, product in expl.contributions)
        assert abs(total - expl.density) <= 1e-9
        for i, (proto, theta, sim, product) in enumerate(expl.contributions):
            assert proto == i
            assert theta == interp_model.theta.data[i]
            assert product == theta * sim


def test_explain_rejects_out_of_range(interp_model, tiny_dataset):
    x = tiny_dataset.test[0].image
    for h, w in ((4, 0), (0, 4), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside"):
            explain_location(interp_model, x, h, w)
    with pytest.raises(ShapeError):
        explain_location(interp_model, np.zeros((2, 1, 32, 32)), 0, 0)


def test_explain_rejects_a_2d_image(interp_model, tiny_dataset):
    x = tiny_dataset.test[0].image
    with pytest.raises(ShapeError, match=r"\(1, H, W\)"):
        explain_location(interp_model, x[0], 2, 2)


def _record_crops(monkeypatch) -> list:
    """Patch CountModel.extract_features to record each input's (H, W)."""
    crops, extract = [], CountModel.extract_features

    def recording(self, x):
        crops.append(x.shape[-2:])
        return extract(self, x)

    monkeypatch.setattr(CountModel, "extract_features", recording)
    return crops


@pytest.mark.parametrize("shape, h, w", [
    ((1, 30, 32), 0, 0),   # the crop of its first 16 rows would be divisible
    ((1, 32, 36), 0, 0),
    ((1, 32, 32), -1, 0),  # a negative index would wrap in a slice
    ((1, 32, 32), 0, -1),
    ((1, 32, 32), 4, 0),
    ((1, 32, 48), 0, 6),
])
def test_explain_validates_before_forwarding(interp_model, monkeypatch, shape, h, w):
    crops = _record_crops(monkeypatch)
    divisible = shape[1] % 8 == 0 and shape[2] % 8 == 0
    with pytest.raises(ValueError if divisible else ShapeError,
                       match="outside" if divisible else "divisible"):
        explain_location(interp_model, np.zeros(shape), h, w)
    assert crops == []


def _assert_explains_full_forward(model, image, crops):
    with no_grad():
        out = model.forward(Tensor(image[None]))
    sims, density = out.similarities.data[0], out.density.data[0]
    theta = model.theta.data
    crops.clear()
    for h in range(density.shape[0]):
        for w in range(density.shape[1]):
            expl = explain_location(model, image, h, w)
            assert expl.location == (h, w)
            assert [c[0] for c in expl.contributions] == list(range(theta.shape[0]))
            assert [c[1] for c in expl.contributions] == theta.tolist()
            np.testing.assert_allclose([c[2] for c in expl.contributions],
                                       sims[:, h, w], rtol=1e-12, atol=0)
            np.testing.assert_allclose(expl.density, density[h, w], rtol=1e-12, atol=0)
    assert len(crops) == density.size
    assert max(max(crop) for crop in crops) <= 3 * 8


def test_explain_matches_full_forward_at_default_size(monkeypatch):
    # the one-cell halo holds the whole receptive field, so every cell of a
    # default-size image explains as the whole-image forward does, up to the
    # last bit a GEMM over fewer columns may sum in another order
    rng = np.random.default_rng(3)
    model = CountModel(ModelConfig(), FeatureExtractor(np.random.default_rng(4)), seed=2)
    model.theta.data = rng.normal(size=model.config.k_total)
    crops = _record_crops(monkeypatch)
    for index in range(3):
        image, _ = render_scene(SceneConfig(seed=5), index)
        _assert_explains_full_forward(model, image, crops)


def test_explain_matches_full_forward_on_a_non_square_image(interp_model, monkeypatch):
    model = copy.deepcopy(interp_model)
    model.theta.data = np.array([1.5, 0.5, -0.75, -0.25])
    image = np.random.default_rng(6).uniform(size=(1, 32, 48))
    _assert_explains_full_forward(model, image, _record_crops(monkeypatch))


# -- prototype spread ---------------------------------------------------------


def test_intra_group_hand_values():
    protos = np.zeros((4, 3))
    protos[1, 0] = 2.0   # cell pair at L2 distance 2
    protos[2, 1] = 1.0
    protos[3, 1] = 6.0   # bg pair at L2 distance 5
    stats = intra_group_distances(protos, 2, 2)
    assert (stats.cell_min, stats.cell_avg) == (2.0, 2.0)
    assert (stats.bg_min, stats.bg_avg) == (5.0, 5.0)


def test_intra_group_identical_rows_are_zero():
    protos = np.tile(np.arange(4.0), (5, 1))
    stats = intra_group_distances(protos, 3, 2)
    assert (stats.cell_min, stats.cell_avg, stats.bg_min, stats.bg_avg) \
        == (0.0, 0.0, 0.0, 0.0)


def test_intra_group_distance_is_l2_not_squared():
    protos = np.zeros((4, 2))
    protos[0, 0] = 3.0
    protos[1, 1] = 4.0   # 3-4-5 triangle: L2 5, squared 25
    protos[2, 0] = protos[3, 0] = 1.0
    assert intra_group_distances(protos, 2, 2).cell_min == 5.0


def test_intra_group_against_gram_identity(rng):
    for _ in range(50):
        kc, kb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p = rng.normal(size=(kc + kb, 6))
        stats = intra_group_distances(p, kc, kb)
        sq = (p ** 2).sum(axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (p @ p.T), 0.0)
        dist = np.sqrt(d2)
        for group, dmin, davg in (((0, kc), stats.cell_min, stats.cell_avg),
                                  ((kc, kc + kb), stats.bg_min, stats.bg_avg)):
            lo, hi = group
            vals = dist[lo:hi, lo:hi][np.triu_indices(hi - lo, k=1)]
            assert np.isclose(dmin, vals.min(), atol=1e-9)
            assert np.isclose(davg, vals.mean(), atol=1e-9)
        assert stats.cell_min <= stats.cell_avg
        assert stats.bg_min <= stats.bg_avg


def test_intra_group_rejects_small_or_mismatched_groups():
    with pytest.raises(ValueError, match=">= 2"):
        intra_group_distances(np.zeros((3, 4)), 1, 2)
    with pytest.raises(ValueError, match=">= 2"):
        intra_group_distances(np.zeros((3, 4)), 2, 1)
    with pytest.raises(ValueError, match="prototypes"):
        intra_group_distances(np.zeros((3, 4)), 2, 2)


# -- export -------------------------------------------------------------------


def test_write_patches_csv_flat_and_nested(tmp_path):
    # nested per-prototype lists come out as one flat table, a row per box
    box_a = PatchBox(image_id=3, prototype_id=0, x0=0, y0=8, x1=7, y1=15,
                     score=0.25)
    box_b = PatchBox(image_id=1, prototype_id=1, x0=16, y0=0, x1=31, y1=7,
                     score=0.125)
    box_c = PatchBox(image_id=2, prototype_id=1, x0=8, y0=8, x1=15, y1=15,
                     score=0.0625)
    path = tmp_path / "patches.csv"
    write_patches_csv([[box_a], [box_b, box_c]], path)

    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == PATCH_CSV_HEADER
    assert rows[1] == ["0", "3", "0", "8", "7", "15", "0.25"]
    assert rows[2] == ["1", "1", "16", "0", "31", "7", "0.125"]
    assert rows[3] == ["1", "2", "8", "8", "15", "15", "0.0625"]
    assert len(rows) == 4


def test_write_explanation_csv(interp_model, tiny_dataset, tmp_path):
    expl = explain_location(interp_model, tiny_dataset.test[0].image, 1, 3)
    path = tmp_path / "explanation.csv"
    write_explanation_csv(expl, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == EXPLANATION_CSV_HEADER
    assert len(rows) == 1 + interp_model.config.k_total
    for row, (proto, theta, sim, product) in zip(rows[1:], expl.contributions):
        assert [int(row[0]), int(row[1]), int(row[2])] == [1, 3, proto]
        assert [float(row[3]), float(row[4]), float(row[5])] \
            == [theta, sim, product]


def test_render_boxes_pgm_draws_border(tmp_path):
    img = np.zeros((1, 16, 16))
    box = PatchBox(image_id=0, prototype_id=0, x0=0, y0=0, x1=7, y1=7,
                   score=1.0)
    path = tmp_path / "boxes.pgm"
    render_boxes_pgm(img, [box], path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n16 16\n255\n")
    pixels = np.frombuffer(raw[len(b"P5\n16 16\n255\n"):],
                           dtype=np.uint8).reshape(16, 16)
    assert (pixels[0, :8] == 255).all() and (pixels[7, :8] == 255).all()
    assert (pixels[:8, 0] == 255).all() and (pixels[:8, 7] == 255).all()
    assert (pixels[1:7, 1:7] == 0).all()
    assert (pixels[8:, :] == 0).all()


def test_render_boxes_pgm_clips_oversized_box(tmp_path):
    img = np.zeros((1, 8, 8))
    box = PatchBox(image_id=0, prototype_id=0, x0=0, y0=0, x1=15, y1=15,
                   score=1.0)
    path = tmp_path / "clipped.pgm"
    render_boxes_pgm(img, [box], path)
    pixels = np.frombuffer(path.read_bytes()[len(b"P5\n8 8\n255\n"):],
                           dtype=np.uint8).reshape(8, 8)
    assert (pixels[:, 7] == 255).all() and (pixels[7, :] == 255).all()


def test_export_prototype_gallery(interp_model, tiny_dataset, tiny_features,
                                  tmp_path):
    out = tmp_path / "gallery"
    patches = export_prototype_gallery(interp_model, tiny_dataset, str(out),
                                       k=2, features=tiny_features)
    assert (out / "patches.csv").is_file()
    for proto, boxes in enumerate(patches):
        for rank, box in enumerate(boxes, start=1):
            name = f"proto{proto:02d}_rank{rank}_img{box.image_id:04d}.pgm"
            assert (out / name).is_file()
        sim = load_tensor(out / f"proto{proto:02d}_sim.pdt")
        mask = load_tensor(out / f"proto{proto:02d}_mask.pdt")
        assert sim.shape == (4, 4) and mask.shape == (4, 4)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert mask.any()


def test_gallery_and_localization_forward_the_split_once(interp_model, tiny_dataset,
                                                         tiny_features, tmp_path,
                                                         monkeypatch):
    calls = {"extract_features": 0, "predict": 0}
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(CountModel, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(CountModel, name, counted)

    export_prototype_gallery(interp_model, tiny_dataset, str(tmp_path / "gallery"))
    assert calls == {"extract_features": len(tiny_dataset.train), "predict": 1}
    calls.update(extract_features=0, predict=0)
    localization_rates(interp_model, tiny_dataset, tiny_features)
    assert calls == {"extract_features": 0, "predict": 1}


def test_interrupted_gallery_leaves_no_index(interp_model, tiny_dataset, tiny_features,
                                             tmp_path, monkeypatch):
    # a rerun cut short at its second preview must not leave the earlier
    # patches.csv listing previews that are gone
    out = tmp_path / "gallery"
    export_prototype_gallery(interp_model, tiny_dataset, str(out), k=2, features=tiny_features)
    assert (out / "patches.csv").is_file()
    rendered = []

    def failing_render(image, boxes, path):
        if len(rendered) == 1:
            raise OSError("disk full")
        rendered.append(path)
        render_boxes_pgm(image, boxes, path)

    monkeypatch.setattr(interp, "render_boxes_pgm", failing_render)
    with pytest.raises(OSError, match="disk full"):
        export_prototype_gallery(interp_model, tiny_dataset, str(out), k=2,
                                 features=tiny_features)
    assert not (out / "patches.csv").exists()


def test_gallery_rerun_leaves_only_its_own_files(interp_model, tiny_dataset,
                                                 tiny_features, tmp_path):
    # a k=1 gallery over a k=3 one holds exactly a fresh k=1 gallery's files;
    # an explanation CSV is named by its own arguments and stays
    def export(out, k):
        export_prototype_gallery(interp_model, tiny_dataset, str(out), k=k,
                                 features=tiny_features)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    reused = tmp_path / "reused"
    first = export(reused, 3)
    (reused / "explanation_img0001_h1w1.csv").write_text("kept\n")
    fresh = export(tmp_path / "fresh", 1)
    assert len(first) > len(fresh)
    assert export(reused, 1) == {**fresh, "explanation_img0001_h1w1.csv": b"kept\n"}
