"""The counting network: frozen convolutional feature extractor, a 1x1
processing layer squashing features into (0,1), a bank of learnable
prototypes compared to every feature location by squared L2 distance, and a
per-prototype weighted sum of similarity maps that forms the density map.

The predicted count is the sum over the density map. Prototype provenance
(which training image and location each prototype was projected onto) lives
on the model so explanations can point back to real patches.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import astuple, dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor, bounded, check_bounds

EXTRACTOR_WIDTHS = (1, 16, 32, 64)
EXTRACTOR_BLOCKS = len(EXTRACTOR_WIDTHS) - 1
DOWNSAMPLE = 2 ** EXTRACTOR_BLOCKS  # three 2x2 pools: spatial /8
FEATURE_DIM = EXTRACTOR_WIDTHS[-1]
FEATURE_BATCH = 16  # cached feature maps processed at a time, with no tape

CHECKPOINT_MANIFEST = "checkpoint.txt"
CHECKPOINT_FORMAT = "protodensity-checkpoint-v1"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture dims: prototype counts per group, prototype depth, and
    the epsilon of the distance-to-similarity transform. Checked when built."""

    k_cell: int = bounded(4, "[1, inf)")
    k_bg: int = bounded(4, "[1, inf)")
    d: int = bounded(64, "[1, inf)")
    epsilon: float = bounded(1e-4, "(0, 1)")

    def __post_init__(self):
        check_bounds(self, "model")

    @property
    def k_total(self) -> int:
        return self.k_cell + self.k_bg


class FeatureExtractor:
    """Three {3x3 conv, 2x2 max-pool, relu} blocks, widths 1->16->32->64.

    This is the conv -> relu -> pool block in values and gradients, with the
    relu on a quarter of the elements: relu is monotone, so it commutes with
    the window max, and the pool routes each window's gradient to its first
    maximum, which is also the first maximum after the relu whenever that
    maximum is positive; when it is not, the relu zeroes the gradient in
    either order.

    Downsamples by exactly 8. Pretrained once, then frozen: after
    ``freeze()`` no gradient ever reaches these weights.
    """

    def __init__(self, rng: np.random.Generator):
        self.weights: list[Parameter] = []
        self.biases: list[Parameter] = []
        for i in range(EXTRACTOR_BLOCKS):
            c_in, c_out = EXTRACTOR_WIDTHS[i], EXTRACTOR_WIDTHS[i + 1]
            limit = np.sqrt(6.0 / (c_in * 9))
            w = rng.uniform(-limit, limit, size=(c_out, c_in, 3, 3))
            self.weights.append(Parameter(w, name=f"extractor.block{i}.weight"))
            self.biases.append(Parameter(np.zeros(c_out), name=f"extractor.block{i}.bias"))

    def forward(self, x: Tensor) -> Tensor:
        for w, b in zip(self.weights, self.biases):
            x = T.relu(T.maxpool2x2(T.conv3x3(x, w, b)))
        return x

    def parameters(self) -> list[Parameter]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def freeze(self) -> None:
        for p in self.parameters():
            p.freeze()

    @property
    def frozen(self) -> bool:
        return not any(p.requires_grad for p in self.parameters())

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for p in self.parameters():
            digest.update(np.ascontiguousarray(p.data).tobytes())
        return digest.hexdigest()


def similarity_from_distance(dist: Tensor, epsilon: float) -> Tensor:
    """log((dist + 1) / (dist + epsilon)): strictly decreasing in distance,
    maxing out at log(1/epsilon) for a zero distance."""
    if np.any(dist.data < 0):
        raise ValueError("similarity_from_distance: distances must be nonnegative")
    return T.sub(T.log(T.add(dist, 1.0)), T.log(T.add(dist, epsilon)))


@dataclass
class PrototypeProvenance:
    """Where a prototype was projected from: training image id and feature
    grid location, plus the squared distance it moved."""

    prototype_id: int
    image_id: int
    h: int
    w: int
    distance_before: float


@dataclass
class ModelOutputs:
    """The prototype-stage intermediates of one forward pass."""

    distances: Tensor      # per-prototype squared L2
    similarities: Tensor   # log-transformed distances
    density: Tensor        # (B, Hf, Wf)
    count: np.ndarray      # (B,)


class CountModel:
    """Extractor, then a 1x1 convolution plus sigmoid mapping its features
    into (0,1)^d, then K learnable d-dim prototypes, then per-prototype
    weights theta: the density map is sum_i theta_i * S_i. With provenance.

    The first ``k_cell`` prototypes are cell prototypes, the remaining
    ``k_bg`` background prototypes. theta has no bias and no sign
    constraint: background similarities may contribute negatively or not
    at all.
    """

    def __init__(self, config: ModelConfig, extractor: FeatureExtractor,
                 seed: int = 0):
        self.config = config
        self.extractor = extractor
        rng = np.random.default_rng([seed, 1])
        limit = 1.0 / np.sqrt(FEATURE_DIM)
        self.processing_weight = Parameter(
            rng.uniform(-limit, limit, size=(config.d, FEATURE_DIM)), name="processing.weight")
        self.processing_bias = Parameter(np.zeros(config.d), name="processing.bias")
        self.prototypes = Parameter(rng.uniform(0.0, 1.0, size=(config.k_total, config.d)),
                                    name="prototypes")
        self.theta = Parameter(np.zeros(config.k_total), name="head.theta")
        self.provenance: list[PrototypeProvenance | None] = [None] * config.k_total

    # -- stages ---------------------------------------------------------------

    def extract_features(self, x: Tensor) -> Tensor:
        h, w = x.shape[-2:]
        if h % DOWNSAMPLE or w % DOWNSAMPLE:
            raise T.ShapeError(f"input spatial dims {h}x{w} must be divisible by {DOWNSAMPLE}")
        return self.extractor.forward(x)

    def process_features(self, features, rows=None) -> Tensor:
        """The processed features of samples ``rows`` (None: all) of ``features``."""
        return T.sigmoid(T.conv1x1(features, self.processing_weight, self.processing_bias, rows))

    def predict_density(self, similarities) -> Tensor:
        """(B, K, Hf, Wf) similarities -> (B, Hf, Wf) density."""
        return T.conv1x1(similarities, T.reshape(self.theta, (1, -1)))[:, 0]

    def forward_from_features(self, features, rows=None) -> ModelOutputs:
        """The outputs for samples ``rows`` (None: all) of ``features``, read in place."""
        feats = features if isinstance(features, Tensor) else Tensor(features)
        distances = T.distance_map(self.process_features(feats, rows), self.prototypes)
        similarities = similarity_from_distance(distances, self.config.epsilon)
        density = self.predict_density(similarities)
        return ModelOutputs(distances, similarities, density, count(density))

    def forward(self, x: Tensor) -> ModelOutputs:
        return self.forward_from_features(self.extract_features(x))

    def predict(self, samples, features=None) -> tuple[np.ndarray, np.ndarray]:
        """Counts (N,) and similarity maps (N, K, Hf, Wf) for every sample,
        with no tape: from ``features`` (N, C, Hf, Wf), ``FEATURE_BATCH`` at
        a time, when given, else from the sample images, one at a time."""
        if features is None:
            forward, inputs = self.forward, samples
        else:
            forward, inputs = self.forward_from_features, features
        counts, sims = zip(*forward_batches(
            forward, inputs, lambda out: (out.count, out.similarities.data), FEATURE_BATCH))
        return np.concatenate(counts), np.concatenate(sims)

    # -- parameter plumbing ---------------------------------------------------

    def named_parameters(self) -> dict[str, Parameter]:
        params = self.extractor.parameters() + [
            self.processing_weight, self.processing_bias, self.prototypes, self.theta]
        return {p.name: p for p in params}

    def trainable_parameters(self) -> dict[str, Parameter]:
        return {n: p for n, p in self.named_parameters().items() if p.requires_grad}

    def zero_grad(self) -> None:
        for p in self.named_parameters().values():
            p.zero_grad()


def forward_batches(forward, inputs, keep, batch: int = 1) -> list:
    """``keep(forward(Tensor(x)))`` with no tape, for each ``batch``-sized
    slice ``x`` of an array ``inputs``, or for each image of a list of
    samples as a batch of one. Both convolutions' forwards loop over samples
    anyway, so a batch of one gives the same bits with buffers a sixteenth
    the size; only what ``keep`` returns outlives its batch."""
    with T.no_grad():
        if isinstance(inputs, np.ndarray):
            xs = (inputs[s:s + batch] for s in range(0, len(inputs), batch))
        else:
            xs = (sample.image[None] for sample in inputs)
        return [keep(forward(Tensor(x))) for x in xs]


def count(density: Tensor) -> np.ndarray:
    """One count per batch element: the sum over its (Hf, Wf) density map."""
    return density.data.sum(axis=(-2, -1))


# -- checkpoint I/O -----------------------------------------------------------
#
# A checkpoint or extractor directory holds a ``key = value`` manifest and
# every parameter as ``<name>.pdt``; a checkpoint adds provenance.csv. The
# manifest is removed first and written last, so a save cut short leaves a
# directory that fails to load ("no manifest") instead of one that loads a
# mix of old and new parameters.

EXTRACTOR_MANIFEST = "extractor.txt"
EXTRACTOR_FORMAT = "protodensity-extractor-v1"
PROVENANCE_CSV_HEADER = ("prototype_id", "image_id", "h", "w", "distance_before")


def _save_dir(ckpt_dir: str, manifest: str, fields: dict, params,
              tables=()) -> None:
    """Write every parameter, then each ``(name, header, rows)`` table, then
    the manifest."""
    T.clear_outputs(ckpt_dir, manifest)
    for p in params:
        T.save_tensor(os.path.join(ckpt_dir, f"{p.name}.pdt"), p.data)
    for name, header, rows in tables:
        T.write_csv(os.path.join(ckpt_dir, name), header, rows)
    T.write_key_values(os.path.join(ckpt_dir, manifest), fields)


def _read_manifest(ckpt_dir: str, name: str, fmt: str) -> tuple[str, dict]:
    """The manifest's path and fields, once its format and the extractor
    widths it records are the supported ones."""
    manifest = os.path.join(ckpt_dir, name)
    if not os.path.isfile(manifest):
        raise FileNotFoundError(f"no manifest at {manifest}")
    kv = T.parse_key_values(T.read_text(manifest).splitlines(), manifest)
    if kv.get("format") != fmt:
        raise ValueError(f"{manifest}: unknown format {kv.get('format')!r}, expected {fmt!r}")
    widths = T.require(kv, "extractor_widths", manifest,
                       partial(T.parse_value, like=EXTRACTOR_WIDTHS))
    if widths != EXTRACTOR_WIDTHS:
        raise ValueError(f"{manifest}: extractor widths {widths} != supported {EXTRACTOR_WIDTHS}")
    return manifest, kv


def _load_param(ckpt_dir: str, name: str, shape: tuple) -> np.ndarray:
    path = os.path.join(ckpt_dir, f"{name}.pdt")
    data = T.load_tensor(path)
    if data.shape != shape:
        raise ValueError(f"{path}: shape {data.shape} does not match "
                         f"expected {shape} for parameter {name}")
    return data


def _restore_frozen(extractor: FeatureExtractor, kv: dict, prefix: str,
                    manifest: str) -> None:
    if extractor.checksum() != T.require(kv, f"{prefix}checksum", manifest):
        raise ValueError(f"{manifest}: extractor checksum mismatch after load")
    if kv.get(f"{prefix}frozen") == "True":
        extractor.freeze()


def save_checkpoint(model: CountModel, ckpt_dir: str) -> None:
    """Write every parameter as a PDTF tensor, the prototype provenance table
    and the architecture manifest into ``ckpt_dir``."""
    cfg = model.config
    provenance = [[i, "", "", "", ""] if rec is None else astuple(rec)
                  for i, rec in enumerate(model.provenance)]
    _save_dir(ckpt_dir, CHECKPOINT_MANIFEST, {
        "format": CHECKPOINT_FORMAT,
        "k_cell": cfg.k_cell,
        "k_bg": cfg.k_bg,
        "d": cfg.d,
        "epsilon": cfg.epsilon,
        "extractor_widths": EXTRACTOR_WIDTHS,
        "extractor_frozen": model.extractor.frozen,
        "extractor_checksum": model.extractor.checksum(),
    }, model.named_parameters().values(),
        [("provenance.csv", PROVENANCE_CSV_HEADER, provenance)])


def _read_provenance(path: str, k_total: int) -> list[PrototypeProvenance | None]:
    """provenance.csv's records, one row for each prototype id 0..K-1; a
    malformed row, an id listed twice or an id with no row raises ValueError
    naming the path (and the row)."""
    provenance: list[PrototypeProvenance | None] = [None] * k_total
    seen = set()
    for n, row in enumerate(T.read_csv(path, PROVENANCE_CSV_HEADER), start=1):
        try:
            pid = int(row[0])
            if not 0 <= pid < k_total:
                raise ValueError(f"prototype id {pid} outside 0..{k_total - 1}")
            record = None if row[1] == "" else PrototypeProvenance(
                pid, int(row[1]), int(row[2]), int(row[3]), float(row[4]))
            if pid in seen:
                raise ValueError(f"prototype id {pid} is listed twice")
        except ValueError as exc:
            raise ValueError(f"{path}: row {n}: {exc}") from None
        seen.add(pid)
        provenance[pid] = record
    if len(seen) < k_total:
        missing = min(set(range(k_total)) - seen)
        raise ValueError(f"{path}: no row for prototype id {missing}")
    return provenance


def load_checkpoint(ckpt_dir: str) -> CountModel:
    """Rebuild a model from ``ckpt_dir``, validating every tensor dimension
    against the manifest."""
    manifest, kv = _read_manifest(ckpt_dir, CHECKPOINT_MANIFEST, CHECKPOINT_FORMAT)
    dims = {name: T.require(kv, name, manifest, type(default))
            for name, default in vars(ModelConfig()).items()}
    try:
        config = ModelConfig(**dims)
    except ValueError as exc:
        raise ValueError(f"{manifest}: {exc}") from None
    # the stored prototypes bound k and d before the model allocates for them
    _load_param(ckpt_dir, "prototypes", (config.k_total, config.d))
    model = CountModel(config, FeatureExtractor(np.random.default_rng(0)), seed=0)
    for p in model.named_parameters().values():
        p.data = _load_param(ckpt_dir, p.name, p.shape)
    _restore_frozen(model.extractor, kv, "extractor_", manifest)
    model.provenance = _read_provenance(os.path.join(ckpt_dir, "provenance.csv"),
                                        config.k_total)
    return model


def save_extractor(extractor: FeatureExtractor, ckpt_dir: str) -> None:
    """Persist a (typically frozen) extractor on its own."""
    _save_dir(ckpt_dir, EXTRACTOR_MANIFEST, {
        "format": EXTRACTOR_FORMAT,
        "extractor_widths": EXTRACTOR_WIDTHS,
        "frozen": extractor.frozen,
        "checksum": extractor.checksum(),
    }, extractor.parameters())


def load_extractor(ckpt_dir: str) -> FeatureExtractor:
    manifest, kv = _read_manifest(ckpt_dir, EXTRACTOR_MANIFEST, EXTRACTOR_FORMAT)
    extractor = FeatureExtractor(np.random.default_rng(0))
    for p in extractor.parameters():
        p.data = _load_param(ckpt_dir, p.name, p.shape)
    _restore_frozen(extractor, kv, "", manifest)
    return extractor
