"""The three benchmark workloads: set-up, one timed operation, and the checks
on that operation's output.

Every workload does fixed work per operation (early stopping is disabled
wherever training runs), and a run repeats the operation a number of times
fixed by ``--seconds``, so a run's work never depends on how fast it went.
Each workload function gets a ``Run`` and fills ``run.ops`` with one record
per operation; the records of the first, untimed operation come first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

perf_counter = time.perf_counter

N_TRAIN, N_TEST = 100, 50
GRID = 16                    # feature map side: 128x128 images downsampled by 8
PRETRAIN_EPOCHS = 2          # the epoch-MSE check needs a second epoch
PRETRAIN_SETUP_BUILDS = 4    # per spell: at the start, then between operations
# the set-up extractor of `train` and `infer`: one epoch over the first 32
# train images; its quality changes no timing, only what set-up costs
SETUP_PRETRAIN_IMAGES = 32
TRAIN_EPOCHS, TRAIN_PROJECTION_INTERVAL, TRAIN_CALIBRATION_EPOCHS = 20, 12, 8
SETUP_TRAIN_EPOCHS, SETUP_CALIBRATION_EPOCHS = 4, 4   # the checkpoint `infer` starts from
GALLERY_K, GALLERY_Q = 3, 99
EXPLAIN_PER_ROUND = 20
# at least 6 rounds: 6 gallery exports for their median, and 120 explain
# calls, so explain_ms_p90 has more than 10 samples beyond it
MIN_INFER_ROUNDS = 6

# seconds per operation at the seed commit on a 2-core Intel Xeon with BLAS
# on one thread; sets how many operations fill --seconds
NOMINAL_OP_S = {"pretrain": 10.0, "train": 7.0, "infer": 3.0}

def timed_ops(workload: str, seconds: float) -> int:
    """How many operations a run times: as many as fill ``seconds`` at the
    nominal pace."""
    n = max(1, round(seconds / NOMINAL_OP_S[workload]))
    return max(n, MIN_INFER_ROUNDS) if workload == "infer" else n


# inputs come from seed % SEED_SPACE; reference.json holds the expected
# pretraining curve and test MAE for each of these
SEED_SPACE = 32
# relative tolerances against reference.json. Moving every input value by
# one ulp (seeds 0 and 5) moved the pretraining curve by up to 1e-6 relative,
# the `infer` test MAE by up to 7e-7 and the `train` loss curve by up to 1e-15
# (the main loop over fixed features does not amplify rounding), so a float64
# rewrite that only reorders sums passes. Seeded bugs fail: conv3x3's input
# gradient with the kernel transposed moves the pretraining curve by 3e-2, a
# halved distance_map feature gradient the train loss curve by 1e-6.
CURVE_RTOL = 1e-4
MAE_RTOL = 1e-5
TRAIN_LOSS_RTOL = 1e-9


class HeapPeak:
    """Peak bytes of Python objects and numpy buffers allocated since
    ``tracemalloc`` started, read over the ``measuring()`` intervals only, so
    checks between them do not count. Unlike the resident set size this does
    not depend on what the allocator kept from the set-up."""

    def __init__(self):
        self.peak = 0

    @contextlib.contextmanager
    def measuring(self):
        if not tracemalloc.is_tracing():
            yield
            return
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])


@dataclass
class Op:
    """One timed operation and what it measured."""

    kind: str
    seconds: float = 0.0
    failed: bool = False
    error: str = ""
    values: dict = field(default_factory=dict)


@dataclass
class Run:
    pkg: dict                    # protodensity submodule name -> module
    work: str                    # scratch directory inside the checkout
    seed: int
    n_ops: int
    reference: dict
    tracer: object = None        # tracing.Tracer for the traced run, else None
    memory: HeapPeak = field(default_factory=HeapPeak)
    ops: list = field(default_factory=list)
    warmup: int = 0              # run.ops[:warmup] belong to the untimed first operation
    setup_seconds: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def data_seed(self) -> int:
        return self.seed % SEED_SPACE

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def attempt(self, kind: str, fn, *args) -> None:
        """Run ``fn(op, *args)`` as one operation; an exception or a failed
        check marks it failed and the run carries on."""
        op = Op(kind)
        try:
            fn(op, *args)
        except Exception as exc:  # the benchmark counts failures, it must not stop on one
            op.failed = True
            op.error = f"{type(exc).__name__}: {exc}"
        self.ops.append(op)


def check(op: Op, ok: bool, what: str) -> None:
    if not ok and not op.failed:
        op.failed = True
        op.error = f"check failed: {what}"


class StepClock:
    """Exit time and phase of every ``training.adam_step`` call, for phase
    windows and per-step latency without a full trace. Costs one
    ``perf_counter`` call per optimizer step."""

    def __init__(self, training):
        self.training = training
        self.original = training.adam_step
        self.exits: list[tuple[float, bool]] = []

        def clocked(params, grads, state, config):
            self.original(params, grads, state, config)
            self.exits.append((perf_counter(), set(params) == {"head.theta"}))

        training.adam_step = clocked

    def close(self) -> None:
        self.training.adam_step = self.original


def _with_clock(run: Run, training, kind: str, body, *args) -> None:
    clock = StepClock(training)
    try:
        run.attempt(kind, body, clock, *args)
    finally:
        clock.close()


def generate(run: Run, out: str):
    datagen = run.pkg["datagen"]
    datagen.generate_dataset(datagen.SceneConfig(seed=run.data_seed), N_TRAIN, N_TEST, out)
    return datagen.load_dataset(out)


def _config(run: Run, **overrides):
    return run.pkg["training"].TrainConfig(seed=run.data_seed, **overrides)


def _no_early_stop(run: Run, epochs: int, interval: int, calibration: int):
    return _config(run, max_epochs=epochs, projection_interval=interval,
                         calibration_epochs=calibration,
                         convergence_patience=epochs + 1)


def _timed_setup(run: Run, build, repeats: int = 3):
    """Build the set-up ``repeats`` times and keep the last; ``setup_s`` is
    the median of every build of the run. Each build's files replace the
    previous build's. A traced run builds it once, traced."""
    if run.tracer:
        run.tracer.install()
        try:
            state = build(run.path("setup0"))
        finally:
            run.tracer.uninstall()
        run.tracer.end_setup()
        return state
    state = None
    for _ in range(repeats):
        n = len(run.setup_seconds)
        t0 = perf_counter()
        state = build(run.path(f"setup{n}"))
        run.setup_seconds.append(perf_counter() - t0)
        shutil.rmtree(run.path(f"setup{n - 1}"), ignore_errors=True)
    return state


def _operations(run: Run, one_op, between=None) -> None:
    """Every run first does one untimed operation: in a timed run it is the
    warm-up and gives ``peak_heap_mb`` under ``tracemalloc``, whose cost stays
    out of the timings. A timed run then times ``run.n_ops`` operations,
    calling ``between()`` before each and after the last. A traced run times
    one untraced and traces one more; those two give the tracing overhead,
    and the traced one's counts are exact."""
    if run.tracer is None:
        tracemalloc.start()
        try:
            one_op(0)
        finally:
            tracemalloc.stop()
        run.warmup = len(run.ops)
        for i in range(1, run.n_ops + 1):
            if between:
                between()
            one_op(i)
        if between:
            between()
        return
    one_op(0)
    run.warmup = len(run.ops)
    one_op(1)
    untraced = len(run.ops)
    run.tracer.install()
    try:
        run.tracer.begin_op("op")
        one_op(2)
    finally:
        run.tracer.uninstall()
    run.notes["untraced_s"] = sum(op.seconds for op in run.ops[run.warmup:untraced])
    run.notes["traced_s"] = sum(op.seconds for op in run.ops[untraced:])


# -- pretrain -------------------------------------------------------------------


def pretrain_config(run: Run):
    return _config(run, pretrain_epochs=PRETRAIN_EPOCHS)


def pretrain(run: Run) -> None:
    """``training.pretrain_extractor`` on the default dataset, then the feature
    cache the main loop would build from the new extractor."""
    training = run.pkg["training"]
    # a build takes half a second, short against the machine's drift, so
    # more builds follow between the timed operations and setup_s is their
    # median over the whole run
    def build(out):
        return generate(run, out)

    dataset = _timed_setup(run, build, repeats=PRETRAIN_SETUP_BUILDS)
    config = pretrain_config(run)
    reference = np.asarray(run.reference["pretrain_curve"][str(run.data_seed)])
    samples = dataset.all_samples
    steps_per_epoch = math.ceil(N_TRAIN / config.pretrain_batch_size)
    full_batches = N_TRAIN // config.pretrain_batch_size

    def body(op: Op, clock: StepClock) -> None:
        with run.memory.measuring():
            t0 = perf_counter()
            extractor, curve = training.pretrain_extractor(dataset, config)
            t1 = perf_counter()
            features = training.compute_features(extractor, samples)
            t2 = perf_counter()
        op.seconds = t2 - t0
        exits = [t for t, _ in clock.exits]
        op.values.update(
            images=PRETRAIN_EPOCHS * N_TRAIN, fit_s=t1 - t0,
            cached=len(samples), cache_s=t2 - t1,
            # a step's interval from the previous step's return; the last
            # step of an epoch is a short batch
            step_s=[end - start for k, (start, end) in enumerate(zip([t0] + exits, exits))
                    if k % steps_per_epoch < full_batches])
        curve = np.asarray(curve)
        check(op, bool(np.all(np.isfinite(curve))), "epoch MSE is finite")
        check(op, curve[-1] < curve[0], "epoch MSE falls")
        check(op, np.allclose(curve, reference, rtol=CURVE_RTOL, atol=0.0),
              f"epoch MSE curve {curve.tolist()} matches reference {reference.tolist()}")
        check(op, extractor.frozen, "extractor frozen")
        check(op, features.shape == (len(samples), 64, GRID, GRID)
              and bool(np.all(np.isfinite(features))), "feature cache shape and values")

    _operations(run, lambda i: _with_clock(run, training, "pretrain", body),
                between=lambda: _timed_setup(run, build, repeats=PRETRAIN_SETUP_BUILDS))


# -- train ----------------------------------------------------------------------


def train_setup(run: Run, out: str):
    """Dataset, frozen extractor and the train split's feature cache."""
    training = run.pkg["training"]
    dataset = generate(run, os.path.join(out, "data"))
    subset = dataclasses.replace(dataset, train=dataset.train[:SETUP_PRETRAIN_IMAGES])
    extractor, _ = training.pretrain_extractor(subset, _config(run, pretrain_epochs=1))
    return dataset, extractor, training.compute_features(extractor, dataset.train)


def train_config(run: Run):
    return _no_early_stop(run, TRAIN_EPOCHS, TRAIN_PROJECTION_INTERVAL,
                          TRAIN_CALIBRATION_EPOCHS)


def train(run: Run) -> None:
    """``training.train`` at the default model on a frozen extractor and
    feature cache built in set-up, with a periodic projection and checkpoint,
    the final projection and the calibration epochs."""
    pkg = run.pkg
    training, model_mod = pkg["training"], pkg["model"]
    dataset, extractor, features = _timed_setup(run, lambda out: train_setup(run, out))
    config = train_config(run)
    reference = np.asarray(run.reference["train_loss"][str(run.data_seed)])
    n_fit = N_TRAIN - int(round(config.val_fraction * N_TRAIN))
    steps_per_epoch = math.ceil(n_fit / config.batch_size)
    checksum = extractor.checksum()

    def body(op: Op, clock: StepClock, i: int) -> None:
        model = model_mod.CountModel(model_mod.ModelConfig(), extractor, seed=run.data_seed)
        if run.tracer:
            run.tracer.watch_model = model
        out_dir = run.path(f"train{i}")
        with run.memory.measuring():
            t0 = perf_counter()
            model, history = training.train(model, dataset, config, out_dir=out_dir,
                                            feature_cache=features)
            t1 = perf_counter()
        op.seconds = t1 - t0
        main = [t for t, calib in clock.exits if not calib]
        # phase boundary: the return of the last main-loop optimizer step
        op.values.update(
            fit_samples=TRAIN_EPOCHS * n_fit, fit_s=main[-1] - t0,
            calib_samples=TRAIN_CALIBRATION_EPOCHS * n_fit, calib_s=t1 - main[-1],
            # a step's interval from the previous step's return; only the
            # second step of an epoch is a full batch with no validation pass
            step_s=[main[k] - main[k - 1] for k in range(1, len(main))
                    if k % steps_per_epoch == 1])
        reports = history.reports + history.calibration_reports
        check(op, all(np.isfinite([r.density, r.proto_feature, r.diversity, r.total]).all()
                      for r in reports), "every loss report is finite")
        losses = np.array([r.total for r in reports])
        check(op, losses.shape == reference.shape
              and np.allclose(losses, reference, rtol=TRAIN_LOSS_RTOL, atol=0.0),
              "epoch loss curve matches reference")
        check(op, history.epochs == TRAIN_EPOCHS
              and len(history.calibration_reports) == TRAIN_CALIBRATION_EPOCHS,
              "fixed epoch counts")
        check(op, [p.epoch for p in history.projections]
              == [TRAIN_PROJECTION_INTERVAL, TRAIN_EPOCHS], "periodic and final projection")
        check(op, all(os.path.isfile(os.path.join(out_dir, d, "checkpoint.txt")) for d in
                      (f"checkpoint_epoch{TRAIN_PROJECTION_INTERVAL:04d}", "checkpoint_final")),
              "checkpoints written")
        check(op, extractor.checksum() == checksum, "extractor checksum unchanged")
        training.project_prototypes(model, dataset, features=features)
        check(op, all(rec.distance_before == 0.0 for rec in model.provenance),
              "re-projection moves no prototype")

    _operations(run, lambda i: _with_clock(run, training, "train", body, i))


# -- infer ----------------------------------------------------------------------


def infer_setup(run: Run, out: str) -> tuple[str, str]:
    """Dataset, frozen extractor and a short no-early-stop training run,
    saved as the checkpoint every round loads."""
    training, model_mod = run.pkg["training"], run.pkg["model"]
    dataset, extractor, features = train_setup(run, out)
    model = model_mod.CountModel(model_mod.ModelConfig(), extractor, seed=run.data_seed)
    config = _no_early_stop(run, SETUP_TRAIN_EPOCHS, SETUP_TRAIN_EPOCHS,
                            SETUP_CALIBRATION_EPOCHS)
    model, _ = training.train(model, dataset, config, feature_cache=features)
    ckpt = os.path.join(out, "checkpoint")
    model_mod.save_checkpoint(model, ckpt)
    return os.path.join(out, "data"), ckpt


def infer(run: Run) -> None:
    """The work of ``protodensity eval`` and ``protodensity explain`` from a
    checkpoint saved in set-up."""
    pkg = run.pkg
    T, training, model_mod = pkg["tensor"], pkg["training"], pkg["model"]
    datagen, evaluate, interp = pkg["datagen"], pkg["evaluate"], pkg["interp"]

    data_dir, ckpt = _timed_setup(run, lambda out: infer_setup(run, out))
    reference_mae = run.reference["test_mae"][str(run.data_seed)]
    rng = np.random.default_rng([run.data_seed, 7])
    first_counts = []

    def evaluate_cmd(op: Op, i: int):
        with run.memory.measuring():
            t0 = perf_counter()
            model = model_mod.load_checkpoint(ckpt)
            dataset = datagen.load_dataset(data_dir)
            report = evaluate.mae(model, dataset.test)
            evaluate.write_eval_csv(report, run.path(f"eval{i}.csv"))
            op.seconds = perf_counter() - t0
        counts = np.array([row[2] for row in report.rows])
        if not first_counts:
            with T.no_grad():
                cached = training.compute_features(model.extractor, dataset.test)
                direct = model.forward_from_features(cached).density.data.sum(axis=(-2, -1))
            check(op, np.allclose(counts, direct, rtol=1e-9, atol=1e-12),
                  "counts from raw pixels match forward_from_features on cached features")
            first_counts.append(counts)
        check(op, np.array_equal(counts, first_counts[0]), "counts repeat across rounds")
        check(op, math.isclose(report.mae, reference_mae, rel_tol=MAE_RTOL),
              f"test MAE {report.mae!r} matches reference {reference_mae!r}")
        return model, dataset

    def gallery(op: Op, model, dataset, i: int) -> None:
        out = run.path(f"gallery{i}")
        with run.memory.measuring():
            t0 = perf_counter()
            patches = interp.export_prototype_gallery(model, dataset, out, k=GALLERY_K,
                                                      q=GALLERY_Q)
            op.seconds = perf_counter() - t0
        k_total = model.config.k_total
        check(op, len(patches) == k_total and all(len(p) == GALLERY_K for p in patches),
              "gallery holds k patches per prototype")
        check(op, len(os.listdir(out)) == 1 + 2 * GALLERY_K * k_total + 2 * k_total,
              "gallery files written")

    def explain(op: Op, model, image, h: int, w: int) -> None:
        with run.memory.measuring():
            t0 = perf_counter()
            explanation = interp.explain_location(model, image, h, w)
            op.seconds = perf_counter() - t0
        terms = [c[3] for c in explanation.contributions]
        scale = sum(abs(t) for t in terms) + abs(explanation.density)
        check(op, abs(math.fsum(terms) - explanation.density) <= 1e-12 * max(scale, 1e-300),
              "contributions sum to the density value")

    def one_op(i: int) -> None:
        locations = [(int(rng.integers(N_TRAIN + N_TEST)), int(rng.integers(GRID)),
                      int(rng.integers(GRID))) for _ in range(EXPLAIN_PER_ROUND)]
        tracer = run.tracer
        if tracer:
            tracer.begin_op(f"eval{i}")
        loaded = []
        run.attempt("eval", lambda op: loaded.extend(evaluate_cmd(op, i)))
        if not loaded:
            return
        model, dataset = loaded
        if tracer:
            tracer.begin_op(f"gallery{i}")
        run.attempt("gallery", gallery, model, dataset, i)
        by_id = {s.sample_id: s for s in dataset.all_samples}
        for j, (sid, h, w) in enumerate(locations):
            if tracer:
                tracer.begin_op(f"explain{i}.{j}")
            run.attempt("explain", explain, model, by_id[sid].image, h, w)

    _operations(run, one_op)


WORKLOADS = {"pretrain": pretrain, "train": train, "infer": infer}
