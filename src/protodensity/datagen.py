"""Synthetic fluorescence-microscopy scenes with dot annotations and
sum-preserving ground-truth density maps.

Cells are rendered as 2-D Gaussian blobs at annotated centers; artifacts
(blobs, streaks, intensity gradients) are rendered without annotations.
Ground truth is generated directly at the model's output resolution: one
Gaussian kernel per dot, each renormalized over the finite grid so the map
sums exactly to the cell count.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .model import DOWNSAMPLE
from .tensor import (bounded, check_bounds, clear_outputs, load_tensor,
                     parse_key_values, parse_value, read_csv, read_text, require,
                     save_tensor, write_csv, write_key_values)

SIGMA = 1.0  # ground-truth kernel width, in feature-grid cells

MANIFEST_NAME = "manifest.txt"
MANIFEST_FORMAT = "protodensity-dataset-v1"

_KNOWN_ARTIFACTS = ("blob", "streak", "gradient")


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for one synthetic imaging condition. Intensities live in (0, 1].
    Checked when built, ``replace`` included: ValueError names the field."""

    image_size: tuple[int, int] = bounded((128, 128), "[1, inf)")  # (H, W)
    cell_count_range: tuple[int, int] = bounded((5, 80), "[0, inf)")
    cell_radius_range: tuple[float, float] = bounded((2.0, 5.0), "(0, inf)")
    cell_intensity_range: tuple[float, float] = bounded((0.4, 1.0), "(0, 1]")
    artifact_count_range: tuple[int, int] = bounded((2, 6), "[0, inf)")
    artifact_kinds: tuple[str, ...] = _KNOWN_ARTIFACTS
    noise_std: float = bounded(0.03, "[0, inf)")
    seed: int = bounded(0, "[0, inf)")

    def __post_init__(self):
        check_bounds(self, "scene")
        h, w = self.image_size
        if h % DOWNSAMPLE or w % DOWNSAMPLE:
            raise ValueError(f"scene.image_size {self.image_size} not divisible by {DOWNSAMPLE}")
        for kind in self.artifact_kinds:
            if kind not in _KNOWN_ARTIFACTS:
                raise ValueError(f"scene.artifact_kinds: {kind!r} not one of {_KNOWN_ARTIFACTS}")


@dataclass
class DotAnnotation:
    """Cell centers in input-pixel coordinates, x along width, y along height."""

    points: list[tuple[float, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class Sample:
    """One image with its dot annotation and output-resolution ground truth."""

    image: np.ndarray            # (1, H, W) float64 in [0, 1]
    annotation: DotAnnotation
    density_gt: np.ndarray       # (H/s, W/s) float64, sums to len(annotation)
    sample_id: int = 0


# -- scene rendering ----------------------------------------------------------


def _add_gaussian(img: np.ndarray, cx: float, cy: float, sigma: float, amp: float) -> None:
    h, w = img.shape
    r = max(1, int(np.ceil(3.0 * sigma)))
    x0, x1 = max(0, int(cx) - r), min(w - 1, int(cx) + r)
    y0, y1 = max(0, int(cy) - r), min(h - 1, int(cy) + r)
    xs = np.arange(x0, x1 + 1, dtype=np.float64)
    ys = np.arange(y0, y1 + 1, dtype=np.float64)
    d2 = (xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2
    img[y0:y1 + 1, x0:x1 + 1] += amp * np.exp(-d2 / (2.0 * sigma * sigma))


def _add_streak(img: np.ndarray, rng: np.random.Generator) -> None:
    h, w = img.shape
    ax, ay = rng.uniform(0, w), rng.uniform(0, h)
    angle = rng.uniform(0, 2 * np.pi)
    length = rng.uniform(0.2, 0.7) * min(h, w)
    width = rng.uniform(1.0, 3.0)
    amp = rng.uniform(0.08, 0.4)
    bx, by = ax + length * np.cos(angle), ay + length * np.sin(angle)
    pad = int(np.ceil(3 * width))
    x0 = max(0, int(min(ax, bx)) - pad)
    x1 = min(w - 1, int(max(ax, bx)) + pad)
    y0 = max(0, int(min(ay, by)) - pad)
    y1 = min(h - 1, int(max(ay, by)) + pad)
    xs = np.arange(x0, x1 + 1, dtype=np.float64)[None, :]
    ys = np.arange(y0, y1 + 1, dtype=np.float64)[:, None]
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    t = np.clip(((xs - ax) * dx + (ys - ay) * dy) / seg2, 0.0, 1.0)
    d2 = (xs - (ax + t * dx)) ** 2 + (ys - (ay + t * dy)) ** 2
    img[y0:y1 + 1, x0:x1 + 1] += amp * np.exp(-d2 / (2.0 * width * width))


def _add_gradient(img: np.ndarray, rng: np.random.Generator) -> None:
    h, w = img.shape
    angle = rng.uniform(0, 2 * np.pi)
    amp = rng.uniform(0.02, 0.15)
    xs = np.arange(w, dtype=np.float64)[None, :]
    ys = np.arange(h, dtype=np.float64)[:, None]
    ramp = np.cos(angle) * xs / max(w - 1, 1) + np.sin(angle) * ys / max(h - 1, 1)
    lo, hi = ramp.min(), ramp.max()
    if hi > lo:
        ramp = (ramp - lo) / (hi - lo)
    img += amp * ramp


def render_scene(config: SceneConfig, index: int) -> tuple[np.ndarray, DotAnnotation]:
    """Render scene ``index``: a deterministic function of (config.seed, index).

    Returns the (1, H, W) image clipped to [0, 1] and the cell annotation.
    Artifacts contribute pixels but never annotation points.
    """
    h, w = config.image_size
    rng = np.random.default_rng([config.seed, index])
    img = np.zeros((h, w), dtype=np.float64)

    lo, hi = config.cell_count_range
    n_cells = int(rng.integers(lo, hi + 1))
    points = [(rng.uniform(0, w), rng.uniform(0, h)) for _ in range(n_cells)]
    for x, y in points:
        radius = rng.uniform(*config.cell_radius_range)
        amp = rng.uniform(*config.cell_intensity_range)
        _add_gaussian(img, x, y, sigma=radius / 2.0, amp=amp)

    lo, hi = config.artifact_count_range
    n_art = int(rng.integers(lo, hi + 1)) if config.artifact_kinds else 0
    for _ in range(n_art):
        kind = config.artifact_kinds[int(rng.integers(0, len(config.artifact_kinds)))]
        if kind == "blob":
            r_lo, r_hi = config.cell_radius_range
            _add_gaussian(img, rng.uniform(0, w), rng.uniform(0, h),
                          sigma=rng.uniform(2.0 * r_hi, 4.0 * r_hi),
                          amp=rng.uniform(0.08, 0.35))
        elif kind == "streak":
            _add_streak(img, rng)
        else:
            _add_gradient(img, rng)

    if config.noise_std > 0:
        img += rng.normal(0.0, config.noise_std, size=(h, w))

    np.clip(img, 0.0, 1.0, out=img)
    return img[None, :, :], DotAnnotation(points)


# -- ground-truth density maps ------------------------------------------------


def make_density_map(annotation: DotAnnotation, input_size: tuple[int, int]) -> np.ndarray:
    """Accumulate one grid-renormalized Gaussian kernel of width ``SIGMA``
    per annotated point.

    Each kernel is centered at the point's coordinates divided by
    ``DOWNSAMPLE`` and scaled to sum exactly 1 over the output grid, so the
    map total equals the point count regardless of boundary truncation. An
    in-bounds point lies within one grid step of a grid point on each axis,
    so no kernel total falls below exp(-1 / SIGMA^2).
    """
    h, w = input_size
    if h % DOWNSAMPLE or w % DOWNSAMPLE:
        raise ValueError(f"input size {input_size} not divisible by downsample {DOWNSAMPLE}")
    hf, wf = h // DOWNSAMPLE, w // DOWNSAMPLE
    points = np.array(annotation.points, dtype=np.float64).reshape(-1, 2)
    x, y = points[:, 0], points[:, 1]
    outside = ~((0 <= x) & (x < w) & (0 <= y) & (y < h))
    if outside.any():
        bad = annotation.points[int(np.argmax(outside))]
        raise ValueError(f"annotation point ({bad[0]}, {bad[1]}) outside image bounds {w}x{h}")
    # one (P, Hf, Wf) kernel stack, each kernel summed alone and then added
    # into the map in point order
    cx = (x / DOWNSAMPLE)[:, None, None]
    cy = (y / DOWNSAMPLE)[:, None, None]
    cols = np.arange(wf, dtype=np.float64)[None, None, :]
    rows = np.arange(hf, dtype=np.float64)[None, :, None]
    kernels = np.exp(-((cols - cx) ** 2 + (rows - cy) ** 2) / (2.0 * SIGMA * SIGMA))
    kernels /= kernels.reshape(len(points), hf * wf).sum(axis=1)[:, None, None]
    return np.add.reduce(kernels, axis=0, initial=0.0)


# -- sample and dataset I/O ---------------------------------------------------


def _sample_paths(sample_id: int) -> tuple[str, str, str]:
    stem = f"sample_{sample_id:05d}"
    return (f"{stem}_image.pdt", f"{stem}_points.csv", f"{stem}_density.pdt")


def save_sample(samples_dir: str, sample: Sample) -> None:
    img_p, pts_p, den_p = _sample_paths(sample.sample_id)
    save_tensor(os.path.join(samples_dir, img_p), sample.image)
    save_tensor(os.path.join(samples_dir, den_p), sample.density_gt)
    write_csv(os.path.join(samples_dir, pts_p), ["x", "y"],
              [[float(x), float(y)] for x, y in sample.annotation.points])


def load_sample(samples_dir: str, sample_id: int) -> Sample:
    img_p, pts_p, den_p = (os.path.join(samples_dir, p) for p in _sample_paths(sample_id))
    image, density = load_tensor(img_p), load_tensor(den_p)
    points = []
    for n, row in enumerate(read_csv(pts_p, ("x", "y")), start=1):
        try:
            points.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ValueError(f"{pts_p}: row {n}: {exc}") from None
    return Sample(image, DotAnnotation(points), density, sample_id)


def generate_dataset(config: SceneConfig, n_train: int, n_test: int, out_dir: str) -> str:
    """Write a full dataset (images, annotations, density maps, manifest) to
    ``out_dir`` and return the manifest path. Sample ids 0..n_train-1 are the
    training split, the rest are test; the split is recorded in the manifest.
    An old manifest is removed before the first sample and the new one is
    written last, so a run cut short leaves a directory that fails to load
    instead of an old manifest over new samples.
    """
    if n_train < 0 or n_test < 0:
        raise ValueError(f"generate_dataset: sample counts must be >= 0, got "
                         f"n_train={n_train}, n_test={n_test}")
    clear_outputs(out_dir, MANIFEST_NAME)
    samples_dir = os.path.join(out_dir, "samples")
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    os.makedirs(samples_dir, exist_ok=True)

    rows = []
    for i in range(n_train + n_test):
        image, annotation = render_scene(config, i)
        density = make_density_map(annotation, config.image_size)
        sample = Sample(image, annotation, density, sample_id=i)
        save_sample(samples_dir, sample)
        img_p, pts_p, den_p = _sample_paths(i)
        split = "train" if i < n_train else "test"
        rows.append((i, split, len(annotation), f"samples/{img_p}",
                     f"samples/{pts_p}", f"samples/{den_p}"))

    write_key_values(manifest_path, [
        ("format", MANIFEST_FORMAT),
        ("n_train", n_train),
        ("n_test", n_test),
        ("downsample", DOWNSAMPLE),
        ("sigma", SIGMA),
        *((f"config.{name}", value) for name, value in vars(config).items()),
    ], ["[samples]", "id,split,count,image,annotation,density",
        *(",".join(str(v) for v in row) for row in rows)])
    return manifest_path


def parse_manifest(manifest_path: str):
    """Parse a dataset manifest into (config, downsample, sigma, n_train,
    n_test, sample rows). Rows are (id, split, count). A malformed line,
    a split other than train or test, a sample id listed twice, sample paths
    other than the ``samples/sample_<id>_*`` names ``generate_dataset``
    writes, a missing field or recorded scene settings that ``SceneConfig``
    rejects raise ValueError naming the manifest (and the line)."""
    lines = read_text(manifest_path).splitlines()
    table = next((i for i, line in enumerate(lines) if line.strip() == "[samples]"),
                 len(lines))
    kv = parse_key_values(lines[:table], manifest_path)
    if kv.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{manifest_path}: unknown manifest format {kv.get('format')!r}")
    rows = []
    seen = set()
    for lineno, line in enumerate(lines[table + 1:], start=table + 2):
        line = line.strip()
        if not line or line.startswith(("#", "id,")):
            continue
        try:
            sid, split, count, img_p, pts_p, den_p = line.split(",")
            sid, count = int(sid), int(count)
        except ValueError as exc:
            raise ValueError(f"{manifest_path}:{lineno}: bad sample row {line!r}: {exc}") from None
        if split not in ("train", "test"):
            raise ValueError(f"{manifest_path}:{lineno}: split {split!r} is not 'train' or 'test'")
        if sid in seen:
            raise ValueError(f"{manifest_path}:{lineno}: sample id {sid} is listed twice")
        seen.add(sid)
        # samples load from these names only, never from a recorded path
        expected = tuple(f"samples/{p}" for p in _sample_paths(sid))
        if (img_p, pts_p, den_p) != expected:
            raise ValueError(f"{manifest_path}:{lineno}: sample {sid} paths {img_p},{pts_p},"
                             f"{den_p} differ from {','.join(expected)}")
        rows.append((sid, split, count))

    def get(key, parse=str):
        return require(kv, key, manifest_path, parse)

    recorded = {name: get(f"config.{name}", partial(parse_value, like=like))
                for name, like in vars(SceneConfig()).items()}
    try:
        config = SceneConfig(**recorded)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
    return (config, get("downsample", int), get("sigma", float),
            get("n_train", int), get("n_test", int), rows)


@dataclass
class Dataset:
    """An in-memory dataset plus the manifest it came from."""

    config: SceneConfig
    train: list[Sample]
    test: list[Sample]
    manifest_path: str
    manifest_hash: str

    @property
    def all_samples(self) -> list[Sample]:
        return self.train + self.test


def manifest_hash(manifest_path: str) -> str:
    with open(manifest_path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_dataset(dataset_dir: str) -> Dataset:
    """Load every sample listed in ``dataset_dir``'s manifest. A sample whose
    image or density map has another shape than the manifest's scene implies,
    or whose annotation holds a point that is not finite or lies outside the
    image, raises ValueError naming the file."""
    manifest_path = os.path.join(dataset_dir, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(f"no dataset manifest at {manifest_path}")
    config, downsample, sigma, n_train, n_test, rows = parse_manifest(manifest_path)
    if (downsample, sigma) != (DOWNSAMPLE, SIGMA):
        raise ValueError(f"{manifest_path}: downsample {downsample} and sigma {sigma} "
                         f"differ from the model's {DOWNSAMPLE} and {SIGMA}")
    h, w = config.image_size
    image_shape, density_shape = (1, h, w), (h // downsample, w // downsample)
    train: list[Sample] = []
    test: list[Sample] = []
    samples_dir = os.path.join(dataset_dir, "samples")
    for sid, split, count in rows:
        sample = load_sample(samples_dir, sid)
        img_p, pts_p, den_p = (os.path.join(samples_dir, p) for p in _sample_paths(sid))
        for path, shape, expected in ((img_p, sample.image.shape, image_shape),
                                      (den_p, sample.density_gt.shape, density_shape)):
            if shape != expected:
                raise ValueError(f"{path}: shape {shape} != {expected}, from {manifest_path}'s "
                                 f"image_size {config.image_size} and downsample {downsample}")
        # the rule make_density_map applies at generation; NaN fails it too
        for n, (x, y) in enumerate(sample.annotation.points, start=1):
            if not (0 <= x < w and 0 <= y < h):
                raise ValueError(f"{pts_p}: row {n}: point ({x}, {y}) outside image {w}x{h}")
        if len(sample.annotation) != count:
            raise ValueError(f"{manifest_path}: sample {sid}: manifest count {count} != "
                             f"{len(sample.annotation)} annotation points in {pts_p}")
        (train if split == "train" else test).append(sample)
    if len(train) != n_train or len(test) != n_test:
        raise ValueError(f"{manifest_path}: split sizes differ from recorded n_train/n_test")
    return Dataset(config, train, test, manifest_path, manifest_hash(manifest_path))


# -- PGM preview export -------------------------------------------------------


def write_pgm(path: str, array: np.ndarray) -> None:
    """Export a 2-D array as binary 8-bit PGM with linear min-max scaling;
    the scale used is recorded in a ``<path>.scale.txt`` sidecar."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"write_pgm: expected a 2-D array, got shape {arr.shape}")
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        scaled = np.round((arr - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(arr)
    data = scaled.astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        f.write(data.tobytes())
    write_key_values(f"{path}.scale.txt", {"min": lo, "max": hi})

