"""Traced-run plumbing: spans and exact counts recorded around the public
functions of each protodensity layer, from outside the package.

``Tracer.install()`` replaces module attributes (and a few class methods)
with timing wrappers and ``uninstall()`` puts the originals back. The
wrappers only observe: every wrapped call gets its original arguments and
returns the original result, so a traced run computes the same numbers as an
untraced one. Each tape node a wrapped tensor op records gets its backward
closure wrapped too, so forward and backward time split per op.

Spans stay in memory as ``[name, op, start, end, parent]`` lists and are
written out once, by ``write_spans``, when the run ends. ``op`` is the id
shared by every span of one operation: the set-up, one eval command, one
gallery, one explain call, or one optimizer step (the id advances each time
``adam_step`` returns).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter

# every tensor op the model, losses and extractor call through ``T.<op>``
TENSOR_OPS = ("conv3x3", "maxpool2x2", "relu", "distance_map", "sigmoid",
              "conv1x1", "log", "add", "sub", "mul", "getitem", "tsum",
              "tmean", "reshape", "transpose", "matmul", "l2_normalize_rows")

# (module, attribute) pairs timed as one span per call; the module names
# are the protodensity submodules, and a name imported into another module
# with ``from x import y`` is patched there as well
LAYER_FUNCTIONS = {
    "model": ("save_checkpoint", "load_checkpoint"),
    "losses": ("total_loss", "density_loss", "proto_feature_loss",
               "diversity_loss"),
    "training": ("adam_step", "pretrain_extractor", "train",
                 "project_prototypes", "compute_features"),
    "datagen": ("generate_dataset", "load_dataset"),
    "interp": ("global_top_patches", "connected_components",
               "render_boxes_pgm", "explain_location",
               "export_prototype_gallery"),
    "evaluate": ("mae", "write_eval_csv"),
}
IMPORTED_ALIASES = {
    ("training", "density_loss"): "losses",
    ("training", "total_loss"): "losses",
    ("training", "save_checkpoint"): "model",
}
MODEL_METHODS = ("extract_features", "forward_from_features")


def _shape(x):
    data = getattr(x, "data", x)
    return getattr(data, "shape", ())


def _needs_grad(x) -> bool:
    return bool(getattr(x, "requires_grad", False))


def _batched(shape):
    return (1,) + tuple(shape) if len(shape) == 3 else tuple(shape)


def _forward_cost(op: str, args) -> dict:
    """Computed work of one forward call, from operand shapes alone."""
    if op in ("conv3x3", "conv1x1"):
        b, c, h, w = _batched(_shape(args[0]))
        c_out = _shape(args[1])[0]
        taps = 9 if op == "conv3x3" else 1
        return {"flop": 2 * b * c_out * c * taps * h * w}
    if op == "distance_map":
        b, d, h, w = _batched(_shape(args[0]))
        k = _shape(args[1])[0]
        # difference, square and sum over d for every (b, k, h, w)
        return {"flop": 3 * b * k * d * h * w, "bytes": 8 * b * k * d * h * w}
    return {}


def _backward_flop(op: str, args) -> int:
    """GEMM/einsum work of one backward call: one term per operand that
    receives a gradient."""
    if op in ("conv3x3", "conv1x1"):
        per_grad = _forward_cost(op, args)["flop"]
        return per_grad * (_needs_grad(args[0]) + _needs_grad(args[1]))
    if op == "distance_map":
        b, d, h, w = _batched(_shape(args[0]))
        k = _shape(args[1])[0]
        return 2 * b * k * d * h * w * (_needs_grad(args[0]) + _needs_grad(args[1]))
    return 0


def dir_bytes(path) -> tuple[int, int]:
    """(total bytes, file count) of every regular file below ``path``."""
    total = files = 0
    for root, _dirs, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
            files += 1
    return total, files


class Tracer:
    """Span recorder plus exact counters for one traced run."""

    def __init__(self, pkg):
        self.pkg = pkg                  # dict: submodule name -> module
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = self.op_base = "setup"
        self.steps = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.nodes = 0
        self.setup_counts: dict[str, float] = {}
        self.watch_model = None         # model whose .grad arrays adam_step reads
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, self.op, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf_counter()
        self.stack.pop()

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records one span; ``after(args,
        nodes_created)`` may add counts once the call returned."""
        tracer = self

        def wrapper(*args, **kwargs):
            nodes_before = tracer.nodes
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            tracer.counts[f"{name}.calls"] += 1
            if after is not None:
                after(args, tracer.nodes - nodes_before)
            return result

        return wrapper

    def _tensor_op(self, op: str, fn):
        tracer = self
        name = f"tensor.{op}"

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            counts = tracer.counts
            counts[f"{name}.calls"] += 1
            for key, value in _forward_cost(op, args).items():
                counts[f"{name}.{key}"] += value
            backward = out._backward
            if backward is not None:
                tracer.nodes += 1

                def timed_backward():
                    brec = tracer._open(f"{name}.bwd")
                    try:
                        backward()
                    finally:
                        tracer._close(brec)
                    tracer.counts[f"{name}.flop"] += _backward_flop(op, args)

                out._backward = timed_backward
            return out

        return wrapper

    def end_setup(self) -> None:
        """Keep the set-up's counts apart from the traced operation's."""
        self.setup_counts, self.counts = self.counts, defaultdict(float)
        self.nodes = 0

    def begin_op(self, op: str) -> None:
        self.op = self.op_base = op
        self.steps = 0

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        pkg = self.pkg
        tensor = pkg["tensor"]
        for op in TENSOR_OPS:
            self._patch(tensor, op, self._tensor_op(op, getattr(tensor, op)))
        self._patch(tensor.Tensor, "backward",
                    self.timed("tensor.backward", tensor.Tensor.backward))
        model_cls = pkg["model"].CountModel
        for meth in MODEL_METHODS:
            self._patch(model_cls, meth, self.timed(f"model.{meth}", getattr(model_cls, meth)))
        after = {
            "model.save_checkpoint": self._after_checkpoint,
            "losses.proto_feature_loss": self._after_proto_loss,
            "training.adam_step": self._after_adam,
            "datagen.generate_dataset": self._after_generate,
            "datagen.load_dataset": self._after_load_dataset,
            "interp.export_prototype_gallery": self._after_gallery,
        }
        wrapped = {}
        for mod_name, attrs in LAYER_FUNCTIONS.items():
            module = pkg[mod_name]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                wrapped[(mod_name, attr)] = self.timed(name, getattr(module, attr),
                                                       after.get(name))
                self._patch(module, attr, wrapped[(mod_name, attr)])
        for (mod_name, attr), source in IMPORTED_ALIASES.items():
            self._patch(pkg[mod_name], attr, wrapped[(source, attr)])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- counters read after a call --------------------------------------------

    def _after_checkpoint(self, args, nodes) -> None:
        self.counts["model.save_checkpoint.bytes"] += dir_bytes(args[1])[0]

    def _after_proto_loss(self, args, nodes) -> None:
        self.counts["losses.proto_feature_loss.nodes"] += nodes

    def _after_generate(self, args, nodes) -> None:
        self.counts["datagen.generate_dataset.bytes"] += dir_bytes(args[3])[0]

    def _after_load_dataset(self, args, nodes) -> None:
        self.counts["datagen.load_dataset.bytes"] += dir_bytes(args[0])[0]

    def _after_gallery(self, args, nodes) -> None:
        self.counts["interp.files_written"] += dir_bytes(args[2])[1]

    def _after_adam(self, args, nodes) -> None:
        self.steps += 1
        self.op = f"{self.op_base}.step{self.steps}"
        params, grads = args[0], args[1]
        if set(params) != {"head.theta"} or self.watch_model is None:
            return
        # a calibration step: Adam applies only theta's gradient, while the
        # backward pass filled .grad on every trainable model parameter
        applied = sum(grads[n].size for n in params if grads.get(n) is not None)
        computed = sum(p.grad.size for p in self.watch_model.named_parameters().values()
                       if p.grad is not None)
        self.counts["training.calib.grad_applied"] += applied
        self.counts["training.calib.grad_computed"] += computed

    # -- results ---------------------------------------------------------------

    def busy_seconds(self, select) -> tuple[dict, dict]:
        """Total and self seconds per span name over the spans whose op id
        satisfies ``select``.
        Self time is a span's duration minus the durations of its direct
        children (calls are nested and single-threaded, so children never
        overlap)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, op, start, end, _parent) in enumerate(self.spans):
            if select(op):
                total[name] += end - start
                own[name] += end - start - child[i]
        return total, own

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, op, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "op": op, "start": start,
                                    "end": end, "parent": parent}) + "\n")
