"""protodensity benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload {pretrain,train,infer} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from the
checkout's ``src/``. BLAS runs on one thread and everything runs in this one
process. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is the
result object; the line before it is a detailed report with the environment
record, the workload's own metric names and every failure.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("tensor", "datagen", "model", "losses", "training", "interp", "evaluate")


def speed_probe(np) -> float:
    """Milliseconds for a fixed mix of small numpy calls and Python loops,
    the kind of work the workloads do; the median of five tries. Taken at the
    start and end of a run, it tells a slower machine from a slower commit,
    which the load average cannot when the machine is shared."""
    a = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    tries = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(500):
            row = np.tanh(a @ a.T)[0]
            sum(float(x) for x in row)
        tries.append(time.perf_counter() - t0)
    return statistics.median(tries) * 1e3


def environment(np) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_1m_start": os.getloadavg()[0],
        "speed_probe_ms_start": speed_probe(np),
    }


# -- end-to-end -----------------------------------------------------------------

# the same five metrics on every workload; end_to_end() says what main_per_s,
# aux_per_s and call_ms_p50 measure on each, under the workload's own names
END_TO_END_UNITS = {"setup_s": "s", "peak_heap_mb": "MB", "main_per_s": "1/s",
                    "aux_per_s": "1/s", "call_ms_p50": "ms"}


# the workload's own names for main_per_s, aux_per_s and call_ms_p50
NAMED_SLOTS = {
    "pretrain": ("pretrain_img_per_s", "feature_cache_img_per_s", "pretrain_step_ms_p50"),
    "train": ("train_samples_per_s", "calib_samples_per_s", "train_step_ms_p50"),
    "infer": ("eval_img_per_s", "gallery_img_per_s", "explain_ms_p50"),
}


def _median(values):
    """Median, or None when no operation left a value to take it of."""
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(workloads, workload: str, run) -> tuple[dict, dict]:
    """(contract metrics, the same numbers under the workload's own names).
    A metric no operation measured, as when every operation raised, is left
    out; the run is then not correct anyway."""
    def by_kind(kind):
        # skip the warm-up, and operations that raised before their timed
        # part ended, as they carry no timing
        return [op for op in run.ops[run.warmup:] if op.kind == kind and op.seconds > 0]

    named = {"setup_s": _median(run.setup_seconds),
             "peak_heap_mb": run.memory.peak / 2 ** 20 or None,
             "failed_frac": sum(op.failed for op in run.ops) / len(run.ops)}
    if workload == "pretrain":
        ops = by_kind("pretrain")
        named.update(
            pretrain_img_per_s=_median(op.values["images"] / op.values["fit_s"] for op in ops),
            feature_cache_img_per_s=_median(op.values["cached"] / op.values["cache_s"]
                                            for op in ops),
            pretrain_step_ms_p50=_median(s * 1e3 for op in ops for s in op.values["step_s"]))
    elif workload == "train":
        ops = by_kind("train")
        named.update(
            train_samples_per_s=_median(op.values["fit_samples"] / op.values["fit_s"]
                                        for op in ops),
            calib_samples_per_s=_median(op.values["calib_samples"] / op.values["calib_s"]
                                        for op in ops),
            train_step_ms_p50=_median(s * 1e3 for op in ops for s in op.values["step_s"]))
    else:
        eval_s = _median(op.seconds for op in by_kind("eval"))
        gallery_s = _median(op.seconds for op in by_kind("gallery"))
        calls = [op.seconds * 1e3 for op in by_kind("explain")]
        named.update(
            eval_s=eval_s, gallery_s=gallery_s,
            eval_img_per_s=workloads.N_TEST / eval_s if eval_s else None,
            gallery_img_per_s=workloads.N_TRAIN / gallery_s if gallery_s else None,
            explain_ms_p50=_median(calls),
            explain_ms_p90=(statistics.quantiles(calls, n=10, method="inclusive")[-1]
                            if len(calls) > 1 else None),
            explain_calls=len(calls))
    main_name, aux_name, call_name = NAMED_SLOTS[workload]
    metrics = {"setup_s": named["setup_s"], "peak_heap_mb": named["peak_heap_mb"],
               "main_per_s": named[main_name], "aux_per_s": named[aux_name],
               "call_ms_p50": named[call_name]}
    return {k: v for k, v in metrics.items() if v is not None}, named


# -- per-layer ------------------------------------------------------------------

SETUP_SCOPED = ("datagen.generate_dataset", "training.compute_features")


def per_layer_units(tracing) -> dict:
    units = {}
    for op in tracing.TENSOR_OPS:
        units.update({f"tensor.{op}.fwd_s": "s", f"tensor.{op}.bwd_s": "s",
                      f"tensor.{op}.calls": "count"})
    units.update({
        "tensor.backward.self_s": "s", "tensor.nodes_per_step": "count",
        "tensor.conv3x3.flop": "flop", "tensor.conv1x1.flop": "flop",
        "tensor.distance_map.flop": "flop", "tensor.distance_map.bytes": "B",
        "model.extract_features.s": "s", "model.extract_features.calls": "count",
        "model.forward_from_features.s": "s", "model.save_checkpoint.s": "s",
        "model.save_checkpoint.bytes": "B", "model.load_checkpoint.s": "s",
        "losses.total_loss.s": "s", "losses.density_loss.s": "s",
        "losses.proto_feature_loss.s": "s", "losses.proto_feature_loss.nodes": "count",
        "losses.diversity_loss.s": "s",
        "training.adam_step.s": "s", "training.adam_step.calls": "count",
        "training.pretrain_extractor.self_s": "s", "training.train.self_s": "s",
        "training.calib.useful_grad_frac": "ratio",
        "training.project_prototypes.s": "s", "training.compute_features.s": "s",
        "datagen.generate_dataset.s": "s", "datagen.generate_dataset.bytes": "B",
        "datagen.load_dataset.s": "s", "datagen.load_dataset.bytes": "B",
        "interp.global_top_patches.s": "s", "interp.connected_components.s": "s",
        "interp.connected_components.calls": "count", "interp.render_boxes_pgm.s": "s",
        "interp.files_written": "count", "interp.explain_location.s": "s",
        "evaluate.mae.s": "s",
        "trace.overhead_frac": "ratio", "trace.spans": "count",
    })
    return units


def per_layer(tracing, tracer, run) -> dict:
    """Busy seconds and exact counts of the traced operation. The set-up is
    traced too but counted only for the functions that run nowhere else on
    some workload: dataset generation and the feature cache."""
    total, own = tracer.busy_seconds(lambda op: not op.startswith("setup"))
    total_all, _ = tracer.busy_seconds(lambda op: True)
    counts = tracer.counts
    values = {}
    units = per_layer_units(tracing)
    for name in units:
        layer_fn, _, field = name.rpartition(".")
        if name.startswith("tensor.") and field in ("fwd_s", "bwd_s"):
            span = layer_fn + (".bwd" if field == "bwd_s" else "")
            values[name] = total.get(span, 0.0)
        elif field == "self_s":
            values[name] = own.get(layer_fn, 0.0)
        elif field == "s":
            values[name] = (total_all if layer_fn in SETUP_SCOPED else total).get(layer_fn, 0.0)
        elif layer_fn in SETUP_SCOPED:
            values[name] = counts.get(name, 0.0) + tracer.setup_counts.get(name, 0.0)
        else:
            values[name] = counts.get(name, 0.0)
    steps = counts.get("training.adam_step.calls", 0.0)
    values["tensor.nodes_per_step"] = tracer.nodes / steps if steps else 0.0
    computed = counts.get("training.calib.grad_computed", 0.0)
    values["training.calib.useful_grad_frac"] = (
        counts.get("training.calib.grad_applied", 0.0) / computed if computed else 0.0)
    untraced = run.notes.get("untraced_s", 0.0)
    values["trace.overhead_frac"] = (run.notes["traced_s"] / untraced - 1.0
                                     if untraced else 0.0)
    values["trace.spans"] = len(tracer.spans)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# -- main -----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "train", "infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import protodensity from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "protodensity", "__init__.py")):
        raise SystemExit(f"perfbench: no protodensity package under {SRC}; "
                         "run from a full checkout of the repository")
    sys.path.insert(0, SRC)
    pkg = {name: importlib.import_module(f"protodensity.{name}") for name in MODULES}
    origin = os.path.dirname(pkg["tensor"].__file__)
    if os.path.realpath(origin) != os.path.realpath(os.path.join(SRC, "protodensity")):
        raise SystemExit(f"perfbench: protodensity imported from {origin}, not {SRC}")
    return pkg


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = import_package()
    import numpy as np

    sys.path.insert(0, HERE)
    import tracing
    import workloads

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)

    env = environment(np)
    n_ops = workloads.timed_ops(args.workload, args.seconds)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = tracing.Tracer(pkg) if args.trace else None
    run = workloads.Run(pkg=pkg, work=work, seed=args.seed, n_ops=n_ops,
                        reference=reference, tracer=tracer)
    try:
        try:
            workloads.WORKLOADS[args.workload](run)
        except Exception as exc:  # a set-up that raised: report it, as for an operation
            run.ops.append(workloads.Op("setup", failed=True,
                                        error=f"{type(exc).__name__}: {exc}"))
        if tracer:
            tracer.write_spans(os.path.join(ROOT, ".perfbench_work",
                                            f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env.update(loadavg_1m_end=os.getloadavg()[0], speed_probe_ms_end=speed_probe(np))

    failed = sum(op.failed for op in run.ops)
    report = {"workload": args.workload, "seed": args.seed, "data_seed": run.data_seed,
              "ops": len(run.ops), "environment": env,
              "errors": sorted({op.error for op in run.ops if op.failed})}
    if tracer:
        metrics = per_layer(tracing, tracer, run) if "traced_s" in run.notes else {}
        report.update(run.notes)
    else:
        e2e, named = end_to_end(workloads, args.workload, run)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
        report.update(named=named, setup_seconds=run.setup_seconds)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(run.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
