"""The benchmark's tracer patches names of this package from outside it:
a traced tiny training run, pretraining run and gallery must reach every
hook they count, and ``uninstall`` must put every patched name back."""

import importlib
import importlib.util
import os

from conftest import tiny_train_config

from protodensity.model import EXTRACTOR_WIDTHS, ModelConfig

TRACING_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
MODULES = ("tensor", "datagen", "model", "losses", "training", "interp", "evaluate")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced(run):
    """The tracer's counts and span names over ``run(pkg)``, once every name
    it patched is checked to be back."""
    tracing = _load_tracing()
    pkg = {name: importlib.import_module(f"protodensity.{name}") for name in MODULES}
    patched = [(pkg[mod], attr) for mod, attrs in tracing.LAYER_FUNCTIONS.items()
               for attr in attrs]
    patched += [(pkg[mod], attr) for mod, attr in tracing.IMPORTED_ALIASES]
    patched += [(pkg["tensor"], op) for op in tracing.TENSOR_OPS]
    patched += [(pkg["model"].CountModel, meth) for meth in tracing.MODEL_METHODS]
    originals = [getattr(owner, attr) for owner, attr in patched]

    tracer = tracing.Tracer(pkg)
    tracer.install()
    try:
        run(pkg)
    finally:
        tracer.uninstall()

    assert [name for (owner, name), original in zip(patched, originals)
            if getattr(owner, name) is not original] == []
    return tracer.counts, {rec[0] for rec in tracer.spans}


def test_tracer_counts_every_layer_of_a_train_and_restores_every_name(
        tiny_dataset, tiny_extractor, tiny_features):
    def run(pkg):
        model = pkg["model"].CountModel(ModelConfig(k_cell=2, k_bg=2, d=8),
                                        tiny_extractor, seed=0)
        pkg["training"].train(model, tiny_dataset,
                              tiny_train_config(max_epochs=1, calibration_epochs=1),
                              feature_cache=tiny_features)

    counts, spans = _traced(run)
    for name in ("training.adam_step", "losses.total_loss", "losses.density_loss",
                 "tensor.distance_map", "model.forward_from_features"):
        assert counts[f"{name}.calls"] > 0, name
    # the backward runs the closure the tracer installed through out._backward
    for op in ("conv1x1", "sigmoid", "distance_map"):
        assert f"tensor.{op}.bwd" in spans, op


def test_tracer_counts_the_pretrain_and_gallery_layers(tiny_dataset, tiny_extractor,
                                                       tiny_features, tmp_path):
    # the names the benchmark traces on its pretrain and infer workloads
    def run(pkg):
        pkg["training"].pretrain_extractor(tiny_dataset, tiny_train_config(pretrain_epochs=1))
        model = pkg["model"].CountModel(ModelConfig(k_cell=2, k_bg=2, d=8),
                                        tiny_extractor, seed=0)
        pkg["interp"].export_prototype_gallery(model, tiny_dataset, str(tmp_path), k=2,
                                               features=tiny_features)

    counts, spans = _traced(run)
    for name in ("tensor.conv3x3", "interp.global_top_patches",
                 "interp.connected_components", "interp.render_boxes_pgm"):
        assert counts[f"{name}.calls"] > 0, name
    # an extractor block is one pooled conv3x3 call: the pool is timed in it
    assert counts["tensor.maxpool2x2.calls"] == 0
    for op in ("conv3x3", "relu", "conv1x1"):
        assert f"tensor.{op}.bwd" in spans, op
    # the flops the tracer sizes from conv3x3's unpooled input and weight:
    # one epoch's forward over every train image, and a backward GEMM per
    # gradient, the weight's at each block and the input's past block 0
    n, (_, h, w) = len(tiny_dataset.train), tiny_dataset.train[0].image.shape
    flop = 0
    for i, (c_in, c_out) in enumerate(zip(EXTRACTOR_WIDTHS, EXTRACTOR_WIDTHS[1:])):
        flop += 2 * n * c_out * c_in * 9 * (h >> i) * (w >> i) * (2 + (i > 0))
    assert counts["tensor.conv3x3.flop"] == flop
